"""Reference routes that the library no longer takes, kept for the
differential tests.

- Rational Gauss-Jordan elimination.  The library solves its frames and
  presentations in closed form (``zforms._solve_pair``) and its lattices
  by weight lines (``borelweil.RowLattice``); ``rref`` is the general
  elimination both are checked against.
- Lattices from dense matrices.  ``borelweil`` builds every
  ``FiniteLattice`` from its E and F chains and every ``RowLattice`` one
  weight line at a time (``RowLattice.add``); ``lattice_from_matrices``
  here reads the chains off dense bidiagonal matrices, and ``add_row``
  inserts a weight vector given as a dense row.
- Lattice chains in Fractions.  ``borelweil._from_row_lattice``,
  ``maximal_lattice`` and ``hom_lattice`` compute their chains, their
  diagonal intertwiner and their ratio chains over the integers, from the
  numerators and denominators of the stored scalars; ``from_row_lattice``,
  ``maximal_lattice`` and ``hom_lattice`` here multiply and divide a
  ``Fraction`` for every chain coefficient, intertwiner scalar and ratio,
  as the library did before.
- Actions as lists of hits.  ``WeightModule.coefficient`` is the one
  per-index read of a module; ``act_gen`` here returns the clipped image
  of one basis vector as a list of (target, coefficient) pairs, the
  general sparse-vector route the windowed axiom check is built on.
- Relation proofs in Fractions.  ``weightmods._proof`` decides each
  bracket relation on integer grids (one common denominator and integer
  coefficients keyed by z-exponent and p-degree), the only polynomial
  arithmetic of the library; ``proof`` here builds the discrepancy
  polynomial from the coefficient lists of the actions, with the plain
  functions ``poly_add``, ``poly_sub``, ``poly_mul``, ``poly_scale`` and
  ``poly_shift`` over Fractions and Laurent polynomials.  The tests that
  gauge or rescale a module use the same functions.
- Window tables cell by cell.  ``weightmods.module_rows`` computes a
  generator column at a time in integers, by forward differences, and
  prints each column at once with ``scalars.format_columns``;
  ``module_rows`` here asks the module for each cell through
  ``coefficient`` and prints it with ``str()`` (``laurent_text`` for
  Laurent polynomials, the printing rule written out on its own), and
  ``format_terms`` prints one cell from its (exponent, numerator,
  denominator) terms, as the table kernel did before it printed columns.
- Specialization by a gauge walk.  ``contraction.specialize_matches``
  compares gauge invariants; ``specialize_matches`` here builds the gauge
  index by index from an anchor and checks every action against it.
- PBW rewriting in Fractions.  ``pbw.left_mul_gen`` multiplies by integer
  structure constants; ``left_mul_gen`` here builds each one as a Fraction.
- The smash product through element objects.  ``hecke.smash_mul`` takes
  plain term dicts and builds its result once; ``SmashElement`` here
  re-normalizes and merges every term of every element it builds, and
  ``smash_mul`` filters the right factor once per pair of terms.
- The dyadic oracle one index at a time.  ``dyadic._oracle_table``
  answers a whole window from one sweep of the recurrence's progression
  (``oracle_check_report`` reads one per report, ``oracle_min_exponent``
  one of its own index); ``walk_oracle`` here walks each index's chain on its
  own, keeping the prefix product reduced with gcds (``_least_exponent``),
  and checks the transverse grid of that index alone, with the transverse
  multipliers of ``_secondary_multiplier``, which the library no longer
  tests (at ``ORACLE_DEPTH`` none refuses an index the chains accept).
- Tables row by row.  ``cli.render_table`` takes the width of each
  column with one ``max`` over that column and applies one format string
  per row; ``render_table_rows`` here takes each width by indexing every
  row at every column position and pads every cell with ``ljust``.
  ``cli.render_csv`` writes a document's rows with one ``writerows``;
  ``render_csv_rows`` here writes them one ``writerow`` at a time.
- Records as dataclasses.  The library's eight record classes are plain
  classes with ``__slots__`` and only the dunders some caller uses, so
  that no process imports ``dataclasses``; the dataclasses they replaced
  are kept here as twins of the same names and fields (``FiniteLattice``,
  ``LatticeReport``, ``CharacterLattice``, ``CoefficientRing``,
  ``Support``, ``WeightModule``, ``ZForm``, ``Subalgebra``), with their
  ``__post_init__`` checks, for the contract tests to compare against.
"""

import csv
import io
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest
from math import comb, gcd, lcm

from hclat import borelweil, pbw
from hclat.borelweil import RowLattice
from hclat.dyadic import (
    _EXPONENT_CAP,
    ORACLE_DEPTH,
    NoExtensionError,
    _primary_multiplier,
    _validate,
)
from hclat.scalars import Laurent, over_common_denominator


def rref(rows, ncols: int):
    """Gauss-Jordan elimination over Q on the first ncols columns.

    Returns (reduced rows, pivot columns): reduced row i has a 1 in column
    pivots[i] and zeros in every other row of that column; the rows past
    len(pivots) are zero in the first ncols columns.  Columns beyond ncols
    (an augmented right-hand side) are carried along, not eliminated.
    """
    M = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        pividx = next((i for i in range(r, len(M)) if M[i][col]), None)
        if pividx is None:
            continue
        M[r], M[pividx] = M[pividx], M[r]
        piv = M[r][col]
        prow = M[r] = [x / piv for x in M[r]]
        support = [j for j, x in enumerate(prow) if x]
        for i, row in enumerate(M):
            factor = row[col]
            if i != r and factor:
                for j in support:
                    row[j] -= factor * prow[j]
        pivots.append(col)
    return M, pivots


def solve(vectors, target):
    """The coefficients c with sum c_i * vectors[i] = target, free
    coordinates set to 0, by elimination; None if there are none."""
    ncols = len(vectors)
    rows = [[v[k] for v in vectors] + [target[k]] for k in range(len(target))]
    reduced, pivots = rref(rows, ncols)
    if any(row[ncols] != 0 for row in reduced[len(pivots):]):
        return None
    coeffs = [Fraction(0)] * ncols
    for row, col in zip(reduced, pivots):
        coeffs[col] = row[ncols]
    return coeffs


def add_row(lat: RowLattice, vec) -> bool:
    """Insert a weight vector given as a row (at most one nonzero entry)
    into lat; returns True if the lattice grew."""
    support = [(j, x) for j, x in enumerate(vec) if x]
    if len(support) > 1:
        where = [j for j, _ in support]
        raise ValueError(f"not a weight vector: nonzero entries at {where}")
    return any(lat.add(j, x.numerator, x.denominator) for j, x in support)


def lattice_from_matrices(weights, E, F, ambient=None, embedding=None) -> borelweil.FiniteLattice:
    """The lattice of dense E and F matrices, column convention: M[i][j]
    is the u_i-coefficient of X u_j.  E must vanish off the superdiagonal
    and F off the subdiagonal.  embedding, when given, lists the basis
    rows in the coordinates of ambient; each must be a weight vector."""
    r = len(weights)
    for name, M, step in (("E", E, -1), ("F", F, 1)):
        if len(M) != r or any(len(row) != r for row in M):
            raise ValueError(f"{name} is not {r}x{r}")
        stray = [(i, j) for i in range(r) for j in range(r) if M[i][j] and i != j + step]
        if stray:
            raise ValueError(f"{name} is not bidiagonal: nonzero entries at {stray}")
    e = [E[j - 1][j] if j else 0 for j in range(r)]
    f = [F[j + 1][j] if j + 1 < r else 0 for j in range(r)]
    inside = None
    if embedding is not None:
        lat = RowLattice(ambient.rank)
        for row in embedding:
            add_row(lat, row)
        inside = (ambient, lat)
    return borelweil.FiniteLattice(list(weights), e, f, inside)


def from_row_lattice(lat: RowLattice, ambient) -> borelweil.FiniteLattice:
    """The sublattice on the basis c_j e_j, each chain entry the Fraction
    quotient (c_j x_j) / c_(j+-1)."""
    c = lat.scalars
    chains = {-1: [], 1: []}
    for j in (j for j, cj in enumerate(c) if cj):
        for chain, step in ((ambient.e, -1), (ambient.f, 1)):
            image = c[j] * chain[j]
            if image and not lat.holds(j + step, image.numerator, image.denominator):
                raise RuntimeError("closure left the lattice; reduction bug")
            chains[step].append(int(image / c[j + step]) if image else 0)
    weights = [w for w, cj in zip(ambient.weights, c) if cj]
    return borelweil.FiniteLattice(weights, chains[-1], chains[1], (ambient, lat))


def maximal_lattice(lam: int) -> borelweil.FiniteLattice:
    """The maximal lattice with its diagonal intertwiner built as a
    Fraction chain and checked on E entry by entry."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    amb = borelweil.ladder_lattice(lam, 0)
    M = borelweil.dual_lattice(borelweil.generated_lattice(amb, [[0] * lam + [1]]))
    c = [Fraction(1)]
    for b in range(lam):
        if M.f[b] == 0:
            raise ValueError("F-chain of the dual breaks; cannot identify")
        c.append(c[b] * amb.f[b] / M.f[b])
    if any(c[b - 1] * M.e[b] != c[b] * amb.e[b] for b in range(1, lam + 1)):
        raise ValueError("no diagonal intertwiner matches both actions")
    lat = RowLattice(amb.rank)
    lat.scalars = [abs(x) for x in c]
    return from_row_lattice(lat, amb)


def hom_lattice(A, B) -> dict:
    """borelweil.hom_lattice with each ratio t_q / t_(q-1) a Fraction and
    the unknowns of a run a Fraction chain."""
    where = {w: i for i, w in enumerate(B.weights)}
    s = [where.get(w) for w in A.weights] + [None]
    zero, ratios = set(), {}
    for j, sj in enumerate(s[:-1]):
        eb, fb = (0, 0) if sj is None else (B.e[sj], B.f[sj])
        for p, a, q, b in ((j - 1, A.e[j], j, eb), (j, fb, j + 1, A.f[j])):
            a, b = a if s[p] is not None else 0, b if s[q] is not None else 0
            if a and b and s[p] + 1 == s[q]:
                ratios.setdefault(q, set()).add(Fraction(a, b))
            else:
                zero.update(x for x, c in ((p, a), (q, b)) if c)
    runs = []
    for j in (j for j, sj in enumerate(s[:-1]) if sj is not None):
        if j not in ratios:
            runs.append([{}, True])
        t = runs[-1][0]
        t[j] = t[j - 1] * min(ratios[j]) if j in ratios else Fraction(1)
        runs[-1][1] &= len(ratios.get(j, ())) < 2 and j not in zero
    live = [t for t, alive in runs if alive]
    result = {"rank": len(live), "generator": None}
    if len(live) == 1:
        ints = {j: int(x * lcm(*(y.denominator for y in live[0].values())))
                for j, x in live[0].items()}
        unit = gcd(*ints.values()) * (1 if ints[min(ints)] > 0 else -1)
        result["generator"] = generator = [[0] * A.rank for _ in range(B.rank)]
        for j, x in ints.items():
            generator[s[j]][j] = x // unit
    return result


def act_gen(M, gen: str, p: int) -> list:
    """The image of the basis vector at p under one generator, as a list
    of (target, coefficient) hits: empty on the zero module, off the
    support at either end, or where the coefficient vanishes."""
    if M.vanishing_reason is not None or not M.support.contains(p):
        return []
    shift, poly = M.actions[gen]
    target = p + shift
    if not M.support.contains(target):
        return []
    c = poly(p)
    return [(target, c)] if c else []


def poly_add(a, b) -> list:
    """The sum of two polynomials in p, as coefficient lists in ascending
    degree (ints, Fractions or Laurent polynomials)."""
    return [x + y for x, y in zip_longest(a, b, fillvalue=0)]


def poly_sub(a, b) -> list:
    return poly_add(a, poly_scale(b, -1))


def poly_mul(a, b) -> list:
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_scale(a, c) -> list:
    """c times the polynomial, for an int, Fraction or Laurent c."""
    return [x * c for x in a]


def poly_shift(a, k: int) -> list:
    """The polynomial p -> P(p + k), by the binomial theorem."""
    n = len(a)
    return [sum(a[i] * (comb(i, j) * k ** (i - j)) for i in range(j, n)) for j in range(n)]


def proof(M, relation) -> tuple:
    """(proved, lo, hi) as ``weightmods._proof`` returns it: whether
    [X, Y] - c*T is zero as a polynomial in p, per target offset, and the
    least and greatest offset from p of the indices the relation touches."""
    _label, x, y, target, c = relation
    s_x, X = M.actions[x]
    s_y, Y = M.actions[y]
    s_t, T = M.actions[target]
    X, Y = X.coeffs, Y.coeffs
    bracket = poly_sub(poly_mul(poly_shift(X, s_y), Y), poly_mul(poly_shift(Y, s_x), X))
    scaled = poly_scale(T.coeffs, c)
    if s_t == s_x + s_y:
        proved = not any(poly_sub(bracket, scaled))
    else:
        proved = not any(bracket) and not any(scaled)
    offsets = (0, s_x, s_y, s_x + s_y, s_t)
    return proved, min(offsets), max(offsets)


def _coefficient(M, gen: str, p: int):
    hits = act_gen(M, gen, p)
    return hits[0][1] if hits else Fraction(0)


def specialize_matches(specialized, reference, window) -> bool:
    """Whether a diagonal change of basis identifies the two modules.

    The gauge is forced by the E-chain (or the F-chain across E-zeros)
    from the anchor index, 0 when the reference supports it and else the
    first supported window index; every action of every generator is then
    checked against it on the window.  Supports must agree there too.
    With 0 supported but outside the window, the walk reads coefficients
    the window leaves out.
    """
    lo, hi = window
    for p in range(lo, hi + 1):
        if specialized.support.contains(p) != reference.support.contains(p):
            return False
    indices = [p for p in range(lo, hi + 1) if reference.support.contains(p)]
    if not indices:
        return True
    anchor = 0 if reference.support.contains(0) else indices[0]
    gauge = {anchor: Fraction(1)}
    p = anchor
    while p + 1 <= indices[-1]:
        step = _gauge_step(specialized, reference, p, gauge[p], 1)
        if step is None:
            return False
        gauge[p + 1] = step
        p += 1
    p = anchor
    while p - 1 >= indices[0]:
        step = _gauge_step(specialized, reference, p, gauge[p], -1)
        if step is None:
            return False
        gauge[p - 1] = step
        p -= 1
    for p in indices:
        for gen in ("E", "F", "H"):
            hits_s, hits_r = act_gen(specialized, gen, p), act_gen(reference, gen, p)
            if [t for t, _ in hits_s] != [t for t, _ in hits_r]:
                return False
            for (target, a), (_, A) in zip(hits_s, hits_r):
                if target in gauge and a * gauge[target] != A * gauge[p]:
                    return False
    return True


def _gauge_step(S, R, p, base, step):
    """The gauge at p + step from the one at p, by the X-chain at p or,
    across its zero, by the Y-chain at p + step: (X, Y) is (E, F) going
    up and (F, E) going down."""
    x, y = ("E", "F") if step == 1 else ("F", "E")
    a, A = _coefficient(S, x, p), _coefficient(R, x, p)
    if (a == 0) != (A == 0):
        return None
    if a != 0:
        return base * A / a
    b, B = _coefficient(S, y, p + step), _coefficient(R, y, p + step)
    if (b == 0) != (B == 0):
        return None
    if b != 0:
        return base * b / B
    return base


def laurent_text(x: Laurent) -> str:
    """A Laurent polynomial as text, ascending in the exponent:
    "-2*z^-1 + 1/2 - z", "0" for zero."""
    parts = []
    for exp in sorted(x.coeffs):
        c = x.coeffs[exp]
        mag = str(abs(c.numerator)) if c.denominator == 1 else f"{abs(c.numerator)}/{c.denominator}"
        if exp:
            zpart = "z" if exp == 1 else f"z^{exp}"
            mag = zpart if mag == "1" else f"{mag}*{zpart}"
        sign = "-" if c < 0 else ("" if not parts else "+")
        parts.append(f"{sign}{mag}" if not parts else f"{sign} {mag}")
    return " ".join(parts) or "0"


def format_terms(terms) -> str:
    """The text of the sum of (num/den) z^exp over (exp, num, den) terms
    with den > 0, in the order given (ascending exp): each ratio reduced
    by one gcd, zero terms left out, "0" for none."""
    text = ""
    for exp, num, den in terms:
        if not num:
            continue
        g = gcd(num, den)
        mag = str(abs(num) // g) if g == den else f"{abs(num) // g}/{den // g}"
        if exp:
            zpart = "z" if exp == 1 else f"z^{exp}"
            mag = zpart if mag == "1" else f"{mag}*{zpart}"
        if text:
            text += f" - {mag}" if num < 0 else f" + {mag}"
        else:
            text = f"-{mag}" if num < 0 else mag
    return text or "0"


def module_rows(M, lo: int, hi: int) -> list:
    """[index, weight, printed coefficient per generator] per supported
    index, one coefficient call per cell; the weight is H(p), or (n/2)h(p)
    over the contraction."""
    if M.vanishing_reason is not None:
        return []
    cartan, scale = ("H", Fraction(1)) if "H" in M.actions else ("h", Fraction(M.params["n"], 2))
    rows = []
    for p in range(lo, hi + 1):
        if not M.support.contains(p):
            continue
        h = M.coefficient(cartan, p)
        weight = scale * (h.coefficient(0) if isinstance(h, Laurent) else h)
        assert weight.denominator == 1, f"weight {weight} at {p} is not an integer"
        cells = [M.coefficient(gen, p) for gen in M.generators]
        rows.append(
            [p, int(weight)]
            + [laurent_text(c) if isinstance(c, Laurent) else str(c) for c in cells]
        )
    return rows


def left_mul_gen(gen: str, elem: dict, n: int, m: int) -> dict:
    """Left multiplication by one generator in the F < H < E order, with
    every structure constant a Fraction."""
    out: dict = {}

    def add(key, c):
        out[key] = out.get(key, 0) + c
        if not out[key]:
            del out[key]

    for (a, b, c), coeff in elem.items():
        if gen == "F":
            add((a + 1, b, c), coeff)
        elif gen == "H":
            add((a, b + 1, c), coeff)
            if a:
                add((a, b, c), Fraction(-n * a) * coeff)
        else:
            for j in range(b + 1):
                add((a, j, c + 1), coeff * comb(b, j) * Fraction(-n) ** (b - j))
            if a:
                add((a - 1, b + 1, c), Fraction(m * a) * coeff)
                add((a - 1, b, c), -Fraction(n * m * a * (a - 1), 2) * coeff)
    return out


def normal_form(word, n: int, m: int) -> dict:
    """The normal form of a word of generators and (generator, scalar)
    pairs, built with the Fraction rewriting step from 1."""
    elem = {(0, 0, 0): Fraction(1)}
    for item in reversed(list(word)):
        gen, s = item if isinstance(item, tuple) else (item, 1)
        s = Fraction(s)
        elem = {k: v * s for k, v in left_mul_gen(gen, elem, n, m).items() if s}
    return elem


@dataclass
class SmashElement:
    """An element of U(g) # R(T): finitely many terms a (x) p_lambda, its
    lambdas normalized and merged, zero terms dropped, on construction."""

    zform: object
    lattice: object
    terms: dict = field(default_factory=dict)  # normalized lambda -> PBW dict

    def __post_init__(self):
        clean = {}
        for lam, elem in self.terms.items():
            key = self.lattice.normalize(lam)
            merged = pbw.add(clean.get(key, {}), elem)
            if merged:
                clean[key] = merged
            else:
                clean.pop(key, None)
        self.terms = clean


def _adjoint_component(elem: dict, residue: int, g, lattice) -> dict:
    """Monomials of elem whose adjoint weight restricts to the residue."""
    residue = lattice.normalize(residue)
    return {
        key: c
        for key, c in elem.items()
        if lattice.normalize(g.n * (key[2] - key[0])) == residue
    }


def smash_mul(x: SmashElement, y: SmashElement) -> SmashElement:
    """(a (x) p_lambda)(b (x) p_mu) = a.p_(lambda-mu)b (x) p_mu, bilinearly."""
    g, lattice = x.zform, x.lattice
    out: dict = {}
    for lam, a in x.terms.items():
        for mu, b in y.terms.items():
            component = _adjoint_component(b, lam - mu, g, lattice)
            if not component:
                continue
            prod = pbw.mul(a, component, g)
            if prod:
                out[mu] = pbw.add(out.get(mu, {}), prod)
    return SmashElement(g, lattice, out)


def _chain(variant, n, m, eps, mu, p, depth) -> tuple:
    """(numerators, D): the first depth multipliers of the terminating chain
    as the integers a0 + b*s over one common denominator D, read off the
    multipliers at s = 0 and s = 1 (every chain has a nonzero slope)."""
    den, (a0, a1) = over_common_denominator(
        _primary_multiplier(variant, n, m, eps, mu, p, 0),
        _primary_multiplier(variant, n, m, eps, mu, p, 1),
    )
    return range(a0, a0 + (a1 - a0) * depth, a1 - a0), den


def _least_exponent(chain, d: int, cap):
    """Least e >= 0 such that 2^e times every prefix product of the
    multipliers a/d (a in chain) is an integer, or None when there is none
    (or none up to cap, unless cap is None).

    The prefix product stays exactly reduced as num/den, and num keeps only
    its primes of d: no other prime can cancel a denominator.  e is then
    the exponent of the largest reduced denominator, and a denominator
    with an odd factor rules out every e.
    """
    limit = None if cap is None else 1 << cap
    num = den = worst = 1
    for a in chain:
        x = num * a
        num, g = 1, gcd(x, d)
        while g > 1:
            num *= g
            x //= g
            g = gcd(x, g)
        den *= d
        g = gcd(num, den)
        if g > 1:
            num //= g
            den //= g
        if den & (den - 1):
            return None
        if den > worst:
            if limit is not None and den > limit:
                return None
            worst = den
    return worst.bit_length() - 1


def _secondary_multiplier(variant, n, m, eps, mu, p, s, t) -> Fraction:
    """Coefficient on the transverse chain (F-powers for q, E-powers else)."""
    if variant == "q":
        return mu / 2 + n * m * (s - t - p - eps)
    if variant == "qp":
        return mu / 2 + n * m * (s - t + p + eps)
    return mu / 2 + n * (s - t + p + eps)


def _check_secondary(variant, n, m, eps, mu, p, width) -> None:
    """The transverse multipliers of index p on the grid s, t <= min(width, 4),
    in integers over one common denominator."""
    den, (a, a_s, a_t) = over_common_denominator(
        *(
            _secondary_multiplier(variant, n, m, eps, mu, p, s, t)
            for s, t in ((0, 0), (1, 0), (0, 1))
        )
    )
    for s in range(min(width, 4) + 1):
        for t in range(min(width, 4) + 1):
            x = a + (a_s - a) * s + (a_t - a) * t
            if x % den:
                raise NoExtensionError(
                    f"no extension: transverse multiplier {Fraction(x, den)} at "
                    f"(s={s}, t={t}) is not an integer"
                )


def walk_oracle(variant, p, n, m, eps, mu) -> int:
    """``dyadic.oracle_min_exponent`` by one walk of index p's own chain."""
    eps, mu = _validate(variant, n, m, eps, mu)
    chain, d = _chain(variant, n, m, eps, mu, p, ORACLE_DEPTH)
    if 0 in chain:
        chain = chain[: chain.index(0)]
    elif variant != "qpp":
        raise NoExtensionError(
            f"no extension: the chain never terminates within depth {ORACLE_DEPTH}"
        )
    qpp = variant == "qpp"
    e = _least_exponent(chain, d, _EXPONENT_CAP if qpp else None)
    if qpp and e is None:
        raise NoExtensionError("no extension: every tested exponent fails (odd mu)")
    _check_secondary(variant, n, m, eps, mu, p, 4 if qpp else len(chain))
    if e is None:
        raise NoExtensionError(
            "no extension: a prefix product has a denominator with an odd factor"
        )
    return e


def render_table_rows(doc: dict) -> str:
    """``cli.render_table`` of a document with rows: the header line, then
    the columns and rows left-justified to each column's widest cell."""
    table = [doc["columns"]] + [[str(x) for x in row] for row in doc["rows"]]
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in table
    ]
    header = [
        f"{key} = {value}"
        for key, value in doc.items()
        if key not in ("rows", "columns")
    ]
    return "\n".join(["; ".join(header)] + lines) + "\n"


def render_csv_rows(doc: dict) -> str:
    """``cli.render_csv`` of a document with rows: the columns, then one
    ``writerow`` per row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(doc["columns"])
    for row in doc["rows"]:
        writer.writerow(row)
    return buf.getvalue()


# -- dataclass twins of the record classes ---------------------------------


@dataclass
class FiniteLattice:
    weights: list
    e: list
    f: list
    inside: tuple = None

    def __post_init__(self):
        w = self.weights
        if any(a <= b for a, b in zip(w, w[1:])):
            raise ValueError(f"weights {w} repeat or are not descending")
        if not len(self.e) == len(self.f) == len(w) or w and (self.e[0] or self.f[-1]):
            raise ValueError("E and F must be chains with e_0 = 0 and a last f of 0")


@dataclass
class LatticeReport:
    variant: str
    n: int
    m: int
    eps: Fraction
    mu: Fraction
    nonzero: bool
    support: object
    exponents: dict
    window: tuple


@dataclass(frozen=True)
class CharacterLattice:
    order: int = 0

    def __post_init__(self):
        if self.order < 0:
            raise ValueError(f"lattice order must be nonnegative, got {self.order}")


@dataclass(frozen=True)
class CoefficientRing:
    kind: str
    localized_at: int = 1

    def __post_init__(self):
        if self.kind not in {"Z", "Z[1/N]", "Q", "Q[z]", "Q[z,z^-1]"}:
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if self.kind == "Z[1/N]" and self.localized_at < 1:
            raise ValueError("localization requires N >= 1")


@dataclass(frozen=True)
class Support:
    kind: str
    bound: int = 0


@dataclass
class WeightModule:
    relations: tuple
    support: object
    actions: dict
    params: dict
    vanishing_reason: str = None


@dataclass(frozen=True)
class ZForm:
    n: int
    m: int
    q: Fraction


@dataclass(frozen=True)
class Subalgebra:
    label: str
    basis: tuple
    zform: object
