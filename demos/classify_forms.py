"""Split Z-forms: build one, shuffle its presentation, recover the class."""

from fractions import Fraction

from hclat import zforms

# a form is pinned down by the pair (n, m) and a realization parameter q
g = zforms.make_zform(2, 3, Fraction(1, 2))
print("form:", g)
print("basis weights (E, F, H):", zforms.weights(g))
print("[E, F] =", zforms.bracket_coords(g.n, g.m, (1, 0, 0), (0, 1, 0)), "(coefficient of H is m)")
print("[H, E] =", zforms.bracket_coords(g.n, g.m, (0, 0, 1), (1, 0, 0)), "(coefficient of E is n)")
print("jacobi holds:", zforms.check_jacobi(g))
print()

# classification works from bare tables, whatever basis order they arrive in
tables = zforms.presentation(g, order=(1, 0, 2), signs=(-1, 1, 1))
print("presentation listing -F first still classifies:", zforms.classify(*tables))

# q is only determined up to sign: q and -q give the same class
for q in (Fraction(1, 2), Fraction(-1, 2)):
    got = zforms.classify(*zforms.presentation(zforms.make_zform(2, 3, q)))
    print(f"q = {q}: class {got}")
print()

# subalgebras with integral Iwasawa coordinates need matching realizations
for label in ("q", "qp"):
    g = zforms.parabolic_form(2, 3, label)
    S = zforms.subalgebra(g, label)
    table = zforms.iwasawa_decompose(S)
    print(f"subalgebra {label!r} at q = {g.q}: basis re-expands with rows {table}")

# the Borel needs no special realization and is bracket-closed over Z
b = zforms.subalgebra(zforms.make_zform(2, 3, 1), "b")
print("borel closed over Z:", zforms.bracket_closed_over_z(b))
