"""Weight modules over g_{n,m}: the induced and produced families and the
principal series attached to the parabolic frames q, qp, qpp.

Modules are intensional: a support predicate plus, per generator, an index
shift and a coefficient polynomial in the index p (degree at most 2, with
rational or Laurent coefficients).  Nothing infinite is ever materialized.
An ``IndexPoly`` holds values and columns only, no arithmetic: each family
states its coefficient list directly, with the factored formula beside it.
Each bracket relation is proved once as a polynomial identity in p, on
integer grids, the one polynomial arithmetic here: a coefficient
polynomial is one common denominator and integer coefficients keyed by
(z-exponent, p-degree), a shift takes integer binomials, a product is an
integer convolution, and the two sides of a relation are compared by
cross-multiplying their denominators.  Only the indices next to a support
boundary, where an action is clipped, and relations whose identity fails
are evaluated index by index.  One rule says where a generator is clipped
(``WeightModule._unclipped``): p and p + shift must both lie in the
support.

Window tables are computed a generator column at a time, in integers: the
window is clipped once to the support, each integer column of a
coefficient polynomial is evaluated by Horner's rule at its first degree
+ 1 indices only and extended over the window by forward differences
(nested ``itertools.accumulate`` over the constant top difference), the
weights are read off the Cartan column's z^0 values, and each column is
printed at once by ``scalars.format_columns``: one gcd per value, one
denominator suffix per distinct gcd, the clipped cells "0".
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from math import comb, lcm
from operator import floordiv, mul

from .scalars import (
    Laurent,
    Support,
    as_laurent,
    format_columns,
    over_common_denominator,
    rat,
    residue,
)
from .zforms import ZForm, iwasawa_decompose, parabolic_form, subalgebra


class IndexPoly:
    """A polynomial in the index p, coefficients in ascending degree: its
    values and integer columns, with no arithmetic.

    The coefficients are all Fractions, or all Laurent polynomials in z
    (one Laurent coefficient lifts the rest; the zero polynomial has no
    coefficients and Fraction values).  They are also held as integer
    columns, one per power of z (only z^0 for Fractions): the exponent,
    one common denominator and the numerators over it, highest degree
    first.  A value, at one index or over a window, is computed on those
    columns; ``_proof`` reads them as integer grids.
    """

    __slots__ = ("coeffs", "_columns")

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        laurent = any(isinstance(c, Laurent) for c in coeffs)
        coeffs = [as_laurent(c) if laurent else rat(c) for c in coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = tuple(coeffs)
        if coeffs and laurent:
            exps = sorted({e for c in coeffs for e in c.coeffs})
            self._columns = [
                (e, *over_common_denominator(*(c.coefficient(e) for c in reversed(coeffs))))
                for e in exps
            ]
        else:
            self._columns = [(0, *over_common_denominator(*reversed(coeffs)))]

    def terms(self, p: int) -> list:
        """The value at p as (exponent, numerator, denominator) triples in
        ascending exponent, by Horner's rule in integers; a numerator may
        be 0 and a ratio need not be reduced."""
        out = []
        for e, den, nums in self._columns:
            v = 0
            for a in nums:
                v = v * p + a
            out.append((e, v, den))
        return out

    def column_values(self, lo: int, hi: int) -> list:
        """The values at lo..hi (lo <= hi) as integer columns (exponent,
        denominator, numerators at lo..hi) in ascending exponent.  Only
        the first degree + 1 indices are evaluated, by ``terms``; the rest
        of each column follows from its forward differences there, the
        top one constant, by nested running sums."""
        count = hi - lo + 1
        if not self.coeffs:
            return [(0, 1, [0] * count)]
        head = [self.terms(p) for p in range(lo, lo + min(count, len(self.coeffs)))]
        out = []
        for k, (e, _, den) in enumerate(head[0]):
            values = [row[k][1] for row in head]
            if count > len(values):
                diffs = []
                while values:
                    diffs.append(values[0])
                    values = [b - a for a, b in zip(values, values[1:])]
                values = repeat(diffs.pop(), count - len(diffs))
                for start in reversed(diffs):
                    values = accumulate(values, initial=start)
                values = list(values)
            out.append((e, den, values))
        return out

    def __call__(self, p: int):
        if not (self.coeffs and isinstance(self.coeffs[0], Laurent)):
            ((_, v, den),) = self.terms(p)
            return Fraction(v, den)
        value = Laurent()
        value.coeffs = {e: Fraction(v, den) for e, v, den in self.terms(p) if v}
        return value

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, IndexPoly):
            return NotImplemented
        return self.coeffs == other.coeffs


def affine(a, b) -> IndexPoly:
    """The polynomial a + b*p."""
    return IndexPoly([a, b])


def gnm_relations(n, m) -> tuple:
    """The relation table of g_{n,m}: [H,E] = nE, [H,F] = -nF, [E,F] = mH."""
    return (
        ("[H,E]=nE", "H", "E", "E", n),
        ("[H,F]=-nF", "H", "F", "F", -n),
        ("[E,F]=mH", "E", "F", "H", m),
    )


class WeightModule:
    """A weight module given by exact coefficient polynomials.

    actions maps a generator name to (index shift, IndexPoly in p): the
    generator sends the basis vector at p to coefficient(p) times the one
    at p + shift, or to zero when either index leaves the support.
    relations holds the brackets the actions must satisfy, as tuples
    (label, X, Y, target, constant) meaning [X, Y] = constant * target;
    they carry n and m.  Coefficients are Fractions over g_{n,m} and its
    fibers, and Laurent polynomials over the contraction.  params holds the
    module's parameters, n among them (lambda, or eps and mu, and z on a
    fiber); vanishing_reason says why a model is the zero module.
    """

    __slots__ = ("relations", "support", "actions", "params", "vanishing_reason")

    def __init__(
        self, relations: tuple, support: Support, actions: dict, params: dict,
        vanishing_reason: str = None,
    ):
        self.relations = relations
        self.support = support
        self.actions = actions
        self.params = params
        self.vanishing_reason = vanishing_reason

    @property
    def generators(self) -> tuple:
        """Generator names in table-column order."""
        return tuple(self.actions)

    def coefficient(self, gen: str, p: int):
        """The scalar by which gen sends the basis vector at p to the one at
        p + shift: 0 on the zero module, or when p or p + shift leaves the
        support."""
        first, last = self._unclipped(gen, p, p)
        if first > last:
            return rat(0)
        return self.actions[gen][1](p) or rat(0)

    def coefficient_columns(self, gen: str, lo: int, hi: int) -> list:
        """``coefficient`` at lo..hi, read at once: the integer columns
        (exponent, denominator, numerators at lo..hi) of
        ``IndexPoly.column_values``, with 0 in every column wherever
        ``coefficient`` clips.  Empty when lo > hi."""
        if lo > hi:
            return []
        first, last = self._unclipped(gen, lo, hi)
        return [
            (e, d, [0] * (first - lo) + values[first - lo : last - lo + 1] + [0] * (hi - last))
            for e, d, values in self.actions[gen][1].column_values(lo, hi)
        ]

    def _unclipped(self, gen: str, lo: int, hi: int) -> tuple:
        """(first, last): the part of lo..hi where gen is not clipped, that
        is where p and p + shift both lie in the support; (lo, lo - 1)
        when there is none, and always on the zero module."""
        shift = self.actions[gen][0]
        first, last = self.support.clip(lo, hi)
        after, before = self.support.clip(lo + shift, hi + shift)
        first, last = max(first, after - shift), min(last, before - shift)
        if self.vanishing_reason is not None or first > last:
            return lo, lo - 1
        return first, last

    def zero_indices(self, gen: str, lo: int, hi: int) -> list:
        """The indices of lo..hi at which ``coefficient`` is 0, read off
        ``coefficient_columns``."""
        columns = [values for _, _, values in self.coefficient_columns(gen, lo, hi)]
        return [p for p, *row in zip(range(lo, hi + 1), *columns) if not any(row)]

    def with_action(self, gen: str, shift: int, poly: IndexPoly) -> "WeightModule":
        """Copy with one generator's action replaced."""
        return WeightModule(
            self.relations, self.support, {**self.actions, gen: (shift, poly)},
            dict(self.params), self.vanishing_reason,
        )


# -- the explicit families -------------------------------------------------


def induced_module(g: ZForm, lam: int) -> WeightModule:
    """Basis y_{lam+np}, p >= 0: E raises by one step, F lowers with the
    quadratic coefficient, H is diagonal."""
    n, m = g.n, g.m
    lam = int(lam)
    actions = {
        "E": (1, IndexPoly([1])),
        # -(m/2) p (2 lam - n + n p)
        "F": (-1, IndexPoly([0, Fraction(m * (n - 2 * lam), 2), Fraction(-m * n, 2)])),
        "H": (0, affine(lam, n)),
    }
    return WeightModule(gnm_relations(n, m), Support("ge", 0), actions, {"n": n, "lambda": lam})


def produced_module(g: ZForm, lam: int) -> WeightModule:
    """Basis y^{lam+np}, p >= 0: F lowers by one step with coefficient 1,
    E raises with the quadratic coefficient."""
    n, m = g.n, g.m
    lam = int(lam)
    actions = {
        # -(m/2) (p + 1) (2 lam + n p)
        "E": (1, IndexPoly([-m * lam, Fraction(-m * (2 * lam + n), 2), Fraction(-m * n, 2)])),
        "F": (-1, IndexPoly([1])),
        "H": (0, affine(lam, n)),
    }
    return WeightModule(gnm_relations(n, m), Support("ge", 0), actions, {"n": n, "lambda": lam})


def principal_series(n: int, m: int, label: str, eps, mu) -> WeightModule:
    """The principal series over g_{n,m} and Q induced from the character
    k_{eps,mu} (X.1 = 0, Y.1 = mu) of the parabolic label (q, qp or qpp),
    which fixes the realization by zforms.parabolic_form.

    Basis w^{n(p+eps)} over all p in Z; the counit sends every basis vector
    to 1.  With gen = c_X X + c_Y Y + c_H H in the Iwasawa frame of the
    label, gen acts on the weight-w vector by c_Y*mu + c_H*w.  eps is a
    residue mod n and mu a rational.  The model needs 1/2nm (1/2 for qpp):
    its integral models are what the dyadic exponent routines compute.
    """
    g = parabolic_form(n, m, label)
    eps = residue(eps, n)
    mu = rat(mu)
    table = iwasawa_decompose(subalgebra(g, label))
    actions = {}
    for gen, shift in (("E", 1), ("F", -1)):
        _c_x, c_mu, c_w = table[gen]
        # c_mu*mu + c_w*n(p + eps)
        actions[gen] = (shift, affine(c_mu * mu + c_w * n * eps, c_w * n))
    actions["H"] = (0, affine(n * eps, n))
    params = {"n": n, "eps": eps, "mu": mu}
    return WeightModule(gnm_relations(n, m), Support("all"), actions, params)


def check_module_axioms(M: WeightModule, window) -> list:
    """Every relation of M.relations on each supported window index.

    Returns a list of (index, relation label, discrepancy) triples in
    window order, then relation order; empty means every relation holds
    exactly on the window.  Each relation is first proved or refuted as a
    polynomial identity in p on integer grids (``_proof``).  A proved
    relation holds at every p whose five touched indices (p, p + s_X,
    p + s_Y, p + s_X + s_Y and p + s_T) lie in the support, so it is
    evaluated only at the indices next to a support boundary; any other
    relation is evaluated at every index.  When every relation is proved,
    only the window indices next to the boundary are visited: b <= p <
    b - lo on a support p >= b, b - hi < p <= b on p <= b and none on all
    of Z, with lo and hi the least and greatest touched offsets.
    """
    support = M.support
    contains = support.contains
    checks = [(relation, *_proof(M, relation)) for relation in M.relations]
    if all(proved for _, proved, _, _ in checks):
        if support.kind == "ge":
            band = range(support.bound, support.bound - min(lo for *_, lo, _ in checks))
        elif support.kind == "le":
            band = range(support.bound - max(hi for *_, hi in checks) + 1, support.bound + 1)
        else:
            band = range(0)
        window = [p for p in window if p in band]
    failures = []
    for p in window:
        if not contains(p):
            continue
        due = [
            relation
            for relation, proved, lo, hi in checks
            if not (proved and contains(p + lo) and contains(p + hi))
        ]
        if due:
            failures.extend(_failures_at(M, p, due))
    return failures


def _proof(M: WeightModule, relation) -> tuple:
    """(proved, lo, hi): whether [X, Y] - c*T applied to the vector at p is
    zero as a polynomial in p, per target offset, and the least and
    greatest offset from p of the indices the relation touches.  A support
    is a half-line or all of Z, so p + lo and p + hi decide whether every
    touched index lies in it.

    The identity is decided on integer grids (``_grid``): X(p + s_Y)Y(p)
    and Y(p + s_X)X(p) share the denominator D_X*D_Y, c*T has D_c*D_T, and
    the bracket and c*T are compared by cross-multiplying the two."""
    _label, x, y, target, c = relation
    s_x, X = M.actions[x]
    s_y, Y = M.actions[y]
    s_t, T = M.actions[target]
    (d_x, gx), (d_y, gy), (d_t, gt) = _grid(X), _grid(Y), _grid(T)
    d_c, gc = _constant_grid(c)
    xy = _product(_shifted(gx, s_y), gy)
    yx = _product(_shifted(gy, s_x), gx)
    scaled = _product(gc, gt)
    if s_t == s_x + s_y:
        d = d_c * d_t
        proved = _vanishes((d, xy), (-d, yx), (-d_x * d_y, scaled))
    else:
        proved = _vanishes((1, xy), (-1, yx)) and _vanishes((1, scaled))
    offsets = (0, s_x, s_y, s_x + s_y, s_t)
    return proved, min(offsets), max(offsets)


def _grid(poly: IndexPoly) -> tuple:
    """(D, grid): poly times D as integers keyed by (z-exponent,
    p-degree), nonzero entries only, D the least common denominator of
    its integer columns."""
    den = lcm(*(d for _, d, _ in poly._columns))
    grid = {}
    for e, d, nums in poly._columns:
        top = len(nums) - 1
        for i, a in enumerate(nums):
            if a:
                grid[e, top - i] = a * (den // d)
    return den, grid


def _constant_grid(c) -> tuple:
    """(D, grid) of an int, Fraction or Laurent constant, as in ``_grid``."""
    if isinstance(c, Laurent):
        den, nums = over_common_denominator(*c.coeffs.values())
        return den, {(e, 0): a for e, a in zip(c.coeffs, nums)}
    return c.denominator, ({(0, 0): c.numerator} if c else {})


def _shifted(grid: dict, s: int) -> dict:
    """The grid of p -> P(p + s), by integer binomials."""
    if not s:
        return grid
    out = {}
    for (e, k), a in grid.items():
        for j in range(k + 1):
            out[e, j] = out.get((e, j), 0) + a * comb(k, j) * s ** (k - j)
    return out


def _product(f: dict, g: dict) -> dict:
    """The grid of a product: an integer convolution in both keys."""
    out = {}
    for (e1, k1), a in f.items():
        for (e2, k2), b in g.items():
            key = e1 + e2, k1 + k2
            out[key] = out.get(key, 0) + a * b
    return out


def _vanishes(*terms) -> bool:
    """Whether the sum of the integer multiples a*grid, over the (a, grid)
    pairs, is the zero grid."""
    total = {}
    for a, grid in terms:
        for key, v in grid.items():
            total[key] = total.get(key, 0) + a * v
    return not any(total.values())


def _failures_at(M: WeightModule, p: int, relations) -> list:
    """The relations evaluated on the basis vector at p, with clipping:
    [X, Y] v_p = (X(p+s_Y)Y(p) - Y(p+s_X)X(p)) v_{p+s_X+s_Y} against
    c*T v_p = c*T(p) v_{p+s_T}, each discrepancy keyed by its index."""
    at = M.coefficient
    failures = []
    for label, x, y, target, c in relations:
        s_x, s_y, s_t = (M.actions[gen][0] for gen in (x, y, target))
        bracket = at(x, p + s_y) * at(y, p) - at(y, p + s_x) * at(x, p)
        scaled = c * at(target, p)
        if s_t == s_x + s_y:
            terms = ((p + s_t, bracket - scaled),)
        else:
            terms = ((p + s_x + s_y, bracket), (p + s_t, -scaled))
        diff = {q: d for q, d in terms if d}
        if diff:
            failures.append((p, label, diff))
    return failures


def module_rows(M: WeightModule, lo: int, hi: int) -> list:
    """Window table: [index, weight, one printed coefficient per generator]
    per supported index of lo..hi, computed a generator column at a time.
    The weight is H(p), or (n/2)h(p) over the contraction, off the z^0
    column of the Cartan action; a cell whose target p + shift leaves the
    support prints "0"."""
    if M.vanishing_reason is not None:
        return []
    lo, hi = M.support.clip(lo, hi)
    if lo > hi:
        return []
    cartan, num, den = ("H", 1, 1) if "H" in M.actions else ("h", M.params["n"], 2)
    weights = [0] * (hi - lo + 1)
    printed = []
    for gen, (_, poly) in M.actions.items():
        columns = poly.column_values(lo, hi)
        if gen == cartan:
            for e, d, values in columns:
                if e == 0:
                    weights = list(map(floordiv, map(mul, values, repeat(num)), repeat(d * den)))
        first, last = M._unclipped(gen, lo, hi)
        cut = slice(first - lo, last - lo + 1)
        cells = format_columns([(e, d, values[cut]) for e, d, values in columns])
        printed.append(["0"] * (first - lo) + cells + ["0"] * (hi - last))
    return list(map(list, zip(range(lo, hi + 1), weights, *printed)))
