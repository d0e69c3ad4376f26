"""Split Z-forms g_{n,m} of (sl2, T^1): classification data, realizations,
and the Borel/parabolic subalgebra constructors.

Elements are coordinate triples over the ordered basis (E, F, H) with

    [H, E] = nE,   [H, F] = -nF,   [E, F] = mH,
    wt(E) = n,     wt(F) = -n,     wt(H) = 0.

``bracket_coords`` is the one bracket.  The realization in sl2 = g_{2,1}
is diagonal on these coordinates and is checked by ``bracket_failures``;
2x2 matrices appear only in presentation tables.

Every subalgebra basis has two vectors, so every frame and presentation
is solved in closed form (``_solve_pair``); there is no elimination.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .scalars import _Frozen, check_positive, in_ring, localized_integers, rat

# the basis (E, F, H) as coordinate triples, and the index pairs i < j
# of a rank-3 bracket table
BASIS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
PAIRS = ((0, 1), (0, 2), (1, 2))


class NotSplitForm(ValueError):
    """The given presentation is not a split Z-form of (sl2, T^1)."""


class ZForm(_Frozen):
    """The split form g_{n,m} with realization parameter q; equal and
    hashed by its fields."""

    __slots__ = ("n", "m", "q")

    def __init__(self, n: int, m: int, q: Fraction):
        super().__init__(n, m, q)


def make_zform(n: int, m: int, q) -> ZForm:
    check_positive(n=n, m=m)
    q = rat(q)
    if q == 0:
        raise ValueError("realization parameter q must be nonzero")
    return ZForm(n, m, q)


def weights(g: ZForm):
    """T^1-weights of the ordered basis (E, F, H)."""
    return (g.n, -g.n, 0)


def bracket_coords(n, m, u, v):
    """Bracket of coordinate triples over the basis (E, F, H) of g_{n,m}.

    m may be a Laurent polynomial: g_{2,z} is the contraction, and
    g_{2,1} is sl2 in (e, f, h).
    """
    uE, uF, uH = u
    vE, vF, vH = v
    return (
        n * (uH * vE - uE * vH),
        n * (uF * vH - uH * vF),
        m * (uE * vF - uF * vE),
    )


def realization(g: ZForm):
    """The realization E -> qe, F -> (nm/2q)f, H -> (n/2)h of g in sl2,
    as its scales on the (e, f, h) coordinates."""
    return (g.q, Fraction(g.n * g.m, 2) / g.q, Fraction(g.n, 2))


def _scaled(scales, x) -> tuple:
    return tuple(s * c for s, c in zip(scales, x))


def bracket_failures(scales, source, target) -> list:
    """The basis pairs (i, j, lhs, rhs) on which the diagonal map
    x -> (scales[k] * x_k) from g_source to g_target breaks the bracket:
    lhs = [f(X_i), f(X_j)] differs from rhs = f([X_i, X_j]).  source and
    target are the (n, m) pairs of bracket_coords."""
    failures = []
    for i, x in enumerate(BASIS):
        for j, y in enumerate(BASIS):
            lhs = bracket_coords(*target, _scaled(scales, x), _scaled(scales, y))
            rhs = _scaled(scales, bracket_coords(*source, x, y))
            if lhs != rhs:
                failures.append((i, j, lhs, rhs))
    return failures


def check_jacobi(g: ZForm) -> bool:
    for x in BASIS:
        for y in BASIS:
            for z in BASIS:
                total = (0, 0, 0)
                for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
                    term = bracket_coords(g.n, g.m, bracket_coords(g.n, g.m, a, b), c)
                    total = tuple(s + t for s, t in zip(total, term))
                if any(total):
                    return False
    return True


def check_realization_bracket(g: ZForm) -> bool:
    return not bracket_failures(realization(g), (g.n, g.m), (2, 1))


# -- subalgebras ----------------------------------------------------------


def parabolic_q(n: int, m: int, label: str) -> Fraction:
    """The realization parameter a parabolic label is defined over: q = 1/2
    for q, nm for qp, and n for qpp, which also needs m = 2n."""
    if label == "qpp" and m != 2 * n:
        raise ValueError(f"label qpp requires m = 2n; got n={n}, m={m}")
    realizations = {"q": Fraction(1, 2), "qp": n * m, "qpp": n}
    if label not in realizations:
        raise ValueError(f"parabolic label must be q, qp or qpp, not {label!r}")
    return rat(realizations[label])


def parabolic_form(n: int, m: int, label: str) -> ZForm:
    """The form g_{n,m} in the realization of a parabolic label."""
    return make_zform(n, m, parabolic_q(n, m, label))


class Subalgebra(_Frozen):
    """A labelled subalgebra of a form, equal and hashed by its fields."""

    __slots__ = ("label", "basis", "zform")

    def __init__(self, label: str, basis: tuple, zform: ZForm):
        super().__init__(label, basis, zform)  # basis: triples over (E, F, H)


def subalgebra(g: ZForm, label: str) -> Subalgebra:
    """Borel or parabolic subalgebra with exact basis expansions.

    The parabolic labels need the realization of parabolic_q.
    """
    n, m = g.n, g.m
    bases = {
        "b": ((1, 0, 0), (0, 0, 1)),
        "q": ((-2 * n * m, 1, 2 * m), (2 * n * m, 1, 0)),
        "qp": ((-1, 2 * n * m, 2 * m), (1, 2 * n * m, 0)),
        "qpp": ((-1, 1, 2), (1, 1, 0)),
    }
    if label not in bases:
        raise ValueError(f"unknown subalgebra label {label!r}; choose from {tuple(bases)}")
    if label != "b":
        required = parabolic_q(n, m, label)
        if g.q != required:
            raise ValueError(
                f"label {label} is defined for realization parameter q = {required} "
                f"(n={n}, m={m}); this form has q = {g.q}"
            )
    return Subalgebra(label, bases[label], g)


def bracket_closed_over_z(S: Subalgebra) -> bool:
    """Check [X, Y] of the two basis vectors lies in their Z-span."""
    X, Y = S.basis
    coeffs = _solve_pair(X, Y, bracket_coords(S.zform.n, S.zform.m, X, Y))
    return coeffs is not None and all(c.denominator == 1 for c in coeffs)


def _solve_pair(u, v, target):
    """(a, b) with a*u + b*v = target, or None if target is not in their
    span: Cramer's rule on the first nonzero 2x2 minor, then a check of
    every coordinate.  u and v must be independent."""
    for i, j in combinations(range(len(u)), 2):
        det = u[i] * v[j] - u[j] * v[i]
        if det:
            a = Fraction(target[i] * v[j] - target[j] * v[i], det)
            b = Fraction(u[i] * target[j] - u[j] * target[i], det)
            if all(a * x + b * y == t for x, y, t in zip(u, v, target)):
                return a, b
            return None
    raise ValueError(f"{u} and {v} are linearly dependent")


def iwasawa_decompose(S: Subalgebra):
    """Express E and F in the frame (X, Y, H) of a parabolic subalgebra.

    The E- and F-coordinates of X and Y fix the X- and Y-coefficients;
    the H-coefficient is what is left over.  Returns
    {"E": (cX, cY, cH), "F": (cX, cY, cH)} with exact coefficients, each
    checked to lie in Z[1/2nm].
    """
    if S.label not in ("q", "qp", "qpp"):
        raise ValueError(f"iwasawa decomposition needs label q, qp or qpp, not {S.label!r}")
    ring = localized_integers(2 * S.zform.n * S.zform.m)
    X, Y = S.basis
    table = {}
    for name, gen in (("E", (1, 0, 0)), ("F", (0, 1, 0))):
        cx, cy = _solve_pair(X[:2], Y[:2], gen[:2])
        coeffs = (cx, cy, gen[2] - cx * X[2] - cy * Y[2])
        for c in coeffs:
            if not in_ring(c, ring):
                raise ValueError(
                    f"decomposing {name} needs 1/{c.denominator}, and "
                    f"{c.denominator} is not invertible in {ring.name}"
                )
        table[name] = coeffs
    return table


# -- classification from a bare presentation ------------------------------


def presentation(g: ZForm, order=(0, 1, 2), signs=(1, 1, 1)):
    """Bracket/weight/realization tables of g in a permuted, sign-flipped basis.

    Used to exercise classify on presentations that are not literally
    (E, F, H) in that order.  Basis vector k is signs[k] (each +-1) times
    generator order[k], so coefficient k of a bracket is read off as
    signs[k] * target[order[k]].
    """
    if sorted(order) != [0, 1, 2] or any(s not in (1, -1) for s in signs):
        raise ValueError(f"order must permute (0, 1, 2) and signs be +-1, got {order}, {signs}")
    basis = [tuple(signs[k] * x for x in BASIS[order[k]]) for k in range(3)]
    wt = weights(g)
    weight_table = [wt[order[k]] for k in range(3)]
    scales = realization(g)
    real = [_matrix(_scaled(scales, x)) for x in basis]
    brackets = {}
    for i, j in PAIRS:
        target = bracket_coords(g.n, g.m, basis[i], basis[j])
        brackets[(i, j)] = tuple(signs[k] * target[order[k]] for k in range(3))
    return brackets, weight_table, real


def _matrix(x) -> tuple:
    """The 2x2 matrix x_e e + x_f f + x_h h of sl2."""
    x_e, x_f, x_h = x
    return ((x_h, x_e), (x_f, -x_h))


def classify(brackets, weight_table, real):
    """Recover (n, m, |q|) from a rank-3 presentation.

    brackets: {(i, j): coefficients of [X_i, X_j] in the basis}, i < j;
    weight_table: the three T^1-weights; real: three 2x2 rational matrices.
    Raises NotSplitForm when the data is not a split Z-form presentation.
    """
    if len(weight_table) != 3:
        raise NotSplitForm("expected a rank-3 presentation")
    pos = [i for i, w in enumerate(weight_table) if w > 0]
    neg = [i for i, w in enumerate(weight_table) if w < 0]
    zero = [i for i, w in enumerate(weight_table) if w == 0]
    if len(pos) != 1 or len(neg) != 1 or len(zero) != 1:
        raise NotSplitForm("weight spaces are not free of rank (1, 1, 1)")
    ie, jf, kh = pos[0], neg[0], zero[0]
    n = int(weight_table[ie])
    if weight_table[jf] != -n:
        raise NotSplitForm(f"weights {weight_table[ie]} and {weight_table[jf]} are not opposite")

    def pair(i, j):
        if (i, j) in brackets:
            return [rat(c) for c in brackets[(i, j)]]
        return [-rat(c) for c in brackets[(j, i)]]

    he = pair(kh, ie)
    if he[ie] != n or he[jf] != 0 or he[kh] != 0:
        raise NotSplitForm("[H, E] is not nE")
    hf = pair(kh, jf)
    if hf[jf] != -n or hf[ie] != 0 or hf[kh] != 0:
        raise NotSplitForm("[H, F] is not -nF")
    ef = pair(ie, jf)
    if ef[ie] != 0 or ef[jf] != 0:
        raise NotSplitForm("[E, F] has a component outside H")
    c = ef[kh]
    if c == 0 or c.denominator != 1:
        raise NotSplitForm(f"[E, F] = {c}H is not a nonzero integer multiple of H")
    f_sign = 1
    if c < 0:
        f_sign = -1  # replace F by -F; realization flips with it
        c = -c
    m = int(c)

    r_e, r_f, r_h = real[ie], real[jf], real[kh]
    if r_h != _matrix((0, 0, Fraction(n, 2))):
        raise NotSplitForm("realization of H is not (n/2)h")
    q = rat(r_e[0][1])
    if q == 0 or r_e != _matrix((q, 0, 0)):
        raise NotSplitForm("realization of E is not a nonzero multiple of e")
    if r_f != _matrix((0, f_sign * Fraction(n * m, 2) / q, 0)):
        raise NotSplitForm("realization of F is not (nm/2q)f")
    return (n, m, abs(q))


def presentation_to_json(brackets, weight_table, real):
    return {
        "weights": list(weight_table),
        "brackets": [
            [i, j, [str(rat(c)) for c in coeffs]]
            for (i, j), coeffs in sorted(brackets.items())
        ],
        "realization": [[[str(rat(x)) for x in row] for row in mat] for mat in real],
    }


def _listed(value, count: int, what: str) -> list:
    if not isinstance(value, list) or len(value) != count:
        raise ValueError(f"{what} must be a list of {count}, got {value!r}")
    return value


def rational_entry(x) -> Fraction:
    """A table entry read exactly: an int or a rational string, never a float."""
    if type(x) not in (int, str):
        raise ValueError(f"table entry {x!r} is neither an int nor a rational string")
    return rat(x)


def presentation_from_json(data):
    """The tables of presentation_to_json, or ValueError naming the first
    part out of shape: three integer weights, the brackets of the pairs
    (0, 1), (0, 2) and (1, 2) with three entries each, and three 2x2
    realization matrices; every entry is an int or a rational string."""
    if not isinstance(data, dict):
        raise ValueError(f"a presentation table is a JSON object, not {type(data).__name__}")
    weight_table = _listed(data.get("weights"), 3, "weights")
    if any(type(w) is not int for w in weight_table):
        raise ValueError(f"weights must be integers, got {weight_table!r}")
    brackets = {}
    for row in _listed(data.get("brackets"), 3, "brackets"):
        i, j, coeffs = _listed(row, 3, "a bracket row")
        if (i, j) not in PAIRS:
            raise ValueError(f"bracket pair ({i!r}, {j!r}) is not one of {PAIRS}")
        coeffs = _listed(coeffs, 3, f"bracket ({i}, {j})")
        brackets[(i, j)] = tuple(rational_entry(c) for c in coeffs)
    if len(brackets) != 3:
        raise ValueError(f"brackets must give each of the pairs {PAIRS} once")
    real = [
        tuple(
            tuple(rational_entry(x) for x in _listed(row, 2, "a realization row"))
            for row in _listed(mat, 2, "a realization matrix")
        )
        for mat in _listed(data.get("realization"), 3, "realization")
    ]
    return brackets, weight_table, real
