"""Weight modules: coefficient tables, and why one printed coefficient is off."""

from fractions import Fraction

from hclat import weightmods, zforms

# the induced module acts over Z: E shifts up with coefficient 1, F comes
# back down with an integer polynomial in the index
g = zforms.make_zform(1, 1, 1)
M = weightmods.induced_module(g, 2)
print("induced module, lambda = 2, indices 0..4:")
print("  p  weight  E       F       H")
for p, w, e, f, h in weightmods.module_rows(M, 0, 4):
    print(f"  {p}  {w:>6}  {str(e):<6}  {str(f):<6}  {str(h)}")
print()

# principal series: the parabolic label decides the realization and the
# coefficient shapes
P = weightmods.principal_series(2, 3, "q", Fraction(1, 2), Fraction(5))
print("principal series over the q-parabolic, eps = 1/2, mu = 5:")
print("  p  weight  E      F      H")
for p, w, e, f, h in weightmods.module_rows(P, -2, 2):
    print(f"  {p:>2}  {w:>6}  {str(e):<5}  {str(f):<5}  {str(h)}")
print("axiom violations in window [-25, 25]:", weightmods.check_module_axioms(P, range(-25, 26)))
print()

# the qp-series has two candidate F-coefficients in circulation; only the
# halved one satisfies [E, F] = mH, the other misses by a factor of two
n, m, eps, mu = 2, 3, Fraction(1, 2), Fraction(5)
derived = weightmods.principal_series(n, m, "qp", eps, mu)
alternate = derived.with_action("F", -1, weightmods.affine(mu / (2 * n * m) - eps, -1))
print("qp-series F-coefficient at p = 0:")
print("  derived:  ", derived.coefficient("F", 0))
print("  alternate:", alternate.coefficient("F", 0))
print("derived axioms: ", weightmods.check_module_axioms(derived, range(-10, 11)))
print("alternate axioms:", weightmods.check_module_axioms(alternate, range(-10, 11))[:1], "...")
