"""Tests for the finite-rank lattice layer: ladder models, generated
sublattices, duals, minimal/maximal forms, Hom lattices, maximality
certificates, and the counit fraction witness.

The general routes that the weight-chain code replaced live here as
references, on the dense E and F matrices of ``to_json``:
``ReferenceLattice`` (an integer Hermite-form lattice for any rational
rows), the dense row product ``_mat_apply``, the dense divided-power
closure (read back through ``reference.lattice_from_matrices``), the dense
commutator check of the bracket axioms, the dense Hom system with one
unknown per matrix entry solved by ``_nullspace``, and the certificate
that closes every enlargement.  Seeded differential tests compare the
library against them.
"""

import random
from fractions import Fraction
from math import comb, factorial, gcd, lcm

import pytest

from hclat.borelweil import (
    FiniteLattice,
    RowLattice,
    _from_row_lattice,
    _images,
    binomial_lattice,
    check_lattice_axioms,
    counit_fraction_witness,
    dual_lattice,
    generated_lattice,
    hom_generator_index,
    hom_lattice,
    inclusion_index,
    ladder_lattice,
    lattice_span_equal,
    maximal_lattice,
    maximality_certificate,
    minimal_lattice,
)
from reference import add_row, lattice_from_matrices, rref


def unit(rank, i, num=1, den=1):
    return [Fraction(num, den) if j == i else Fraction(0) for j in range(rank)]


def embedding(L):
    """The basis rows of L in ambient coordinates, as to_json prints them."""
    return L.inside[1].basis() if L.inside is not None else None


def scaled(L, k):
    """L with every scalar, so every embedding row, multiplied by k."""
    ambient, lat = L.inside
    bigger = RowLattice(ambient.rank)
    bigger.scalars = [k * c for c in lat.scalars]
    return FiniteLattice(L.weights, L.e, L.f, (ambient, bigger))


def chains(L):
    return (L.weights, L.e, L.f, embedding(L))


# -- reference routes ---------------------------------------------------------


def _matrices(L):
    """The dense E, F and H of L, E and F as its documents print them."""
    doc = L.to_json()
    H = [[w if i == j else 0 for j, _ in enumerate(L.weights)] for i, w in enumerate(L.weights)]
    return doc["E"], doc["F"], H


def _nullspace(rows, ncols):
    """Basis of the rational kernel of the row system."""
    reduced, pivots = rref(rows, ncols)
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, col in zip(reduced, pivots):
            vec[col] = -row[f]
        basis.append(vec)
    return basis


def _mat_mul(A, B):
    n = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _commutator(A, B):
    ab, ba = _mat_mul(A, B), _mat_mul(B, A)
    return [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(ab, ba)]


def reference_axioms(L):
    """Integer entries and the three bracket identities, as exact dense
    matrices."""
    E, F, H = _matrices(L)
    failures = []
    for name, M in (("E", E), ("F", F)):
        if any(Fraction(x).denominator != 1 for row in M for x in row):
            failures.append(f"{name} has a non-integer entry")
    if _commutator(E, F) != H:
        failures.append("[E,F] != H")
    if _commutator(H, E) != [[2 * x for x in row] for row in E]:
        failures.append("[H,E] != 2E")
    if _commutator(H, F) != [[-2 * x for x in row] for row in F]:
        failures.append("[H,F] != -2F")
    return failures


def _ext_gcd(a, b):
    """g, x, y with x*a + y*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _pivot(row):
    for j, x in enumerate(row):
        if x:
            return j
    return None


def _rational_coordinates(rows, target):
    """Coordinates of target in nonzero echelon rows by forward
    substitution, or None if target is outside their Q-span."""
    work = [Fraction(x) for x in target]
    coords = []
    for row in rows:
        j = _pivot(row)
        q = 0
        if work[j]:
            q = work[j] / row[j]
            work = [a - q * b for a, b in zip(work, row)]
        coords.append(q)
    return coords if not any(work) else None


class ReferenceLattice:
    """Subgroup of (1/den) * Z^n kept in row-echelon form over Z, for any
    rational rows; basis() is the Hermite normal form."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.den = 1
        self.rows = []  # integer rows, pivot columns strictly increasing

    def copy(self):
        dup = ReferenceLattice(self.ncols)
        dup.den = self.den
        dup.rows = [list(row) for row in self.rows]
        return dup

    def _scaled(self, vec):
        d = lcm(self.den, *(x.denominator for x in vec if x))
        return d, [x.numerator * (d // x.denominator) if x else 0 for x in vec]

    def add(self, vec):
        d, work = self._scaled(vec)
        if d != self.den:
            factor = d // self.den
            self.rows = [[x * factor for x in row] for row in self.rows]
            self.den = d
        grew = False
        while any(work):
            j = _pivot(work)
            pos = 0
            while pos < len(self.rows) and _pivot(self.rows[pos]) < j:
                pos += 1
            if pos == len(self.rows) or _pivot(self.rows[pos]) != j:
                if work[j] < 0:
                    work = [-x for x in work]
                self.rows.insert(pos, work)
                return True
            row = self.rows[pos]
            a, b = row[j], work[j]
            if b % a == 0:
                q = b // a
                work = [w - q * r for w, r in zip(work, row)]
            else:
                g, x, y = _ext_gcd(a, b)
                if g < 0:
                    g, x, y = -g, -x, -y
                merged = [x * r + y * w for r, w in zip(row, work)]
                work = [(a // g) * w - (b // g) * r for r, w in zip(row, work)]
                self.rows[pos] = merged
                grew = True
        return grew

    def contains(self, vec):
        d, work = self._scaled(vec)
        if d != self.den:
            return False
        for row in self.rows:
            j = _pivot(row)
            if work[j]:
                if work[j] % row[j]:
                    return False
                q = work[j] // row[j]
                work = [w - q * r for w, r in zip(work, row)]
        return not any(work)

    def basis(self):
        rows = [list(r) for r in self.rows]
        for i in range(len(rows)):
            j = _pivot(rows[i])
            for k in range(i):
                q = rows[k][j] // rows[i][j]
                if q:
                    rows[k] = [a - q * b for a, b in zip(rows[k], rows[i])]
        return [[Fraction(x, self.den) for x in row] for row in rows]

    def coordinates(self, vec):
        coords = _rational_coordinates(self.basis(), vec)
        if coords is None or any(q.denominator != 1 for q in coords):
            return None
        return [int(q) for q in coords]

    def covolume(self):
        out = Fraction(1, self.den ** len(self.rows))
        for row in self.rows:
            out *= row[_pivot(row)]
        return abs(out)


def _reference_span(rows):
    lat = ReferenceLattice(len(rows[0]))
    for row in rows:
        lat.add(row)
    return lat


def _mat_apply(M, vec):
    """M vec by dense rows: the reference for the chain walk of _images.
    Entries are summed from int 0 over the support of vec."""
    support = [(j, x) for j, x in enumerate(vec) if x]
    return [sum(row[j] * x for j, x in support if row[j]) for row in M]


def _reference_from_lattice(lat, ambient):
    """FiniteLattice on the Hermite basis, through lattice_from_matrices, which
    rejects it unless the dense E and F come out bidiagonal; every basis row
    must be a weight vector."""
    basis = lat.basis()
    actions = []
    for M in _matrices(ambient)[:2]:
        cols = [lat.coordinates(_mat_apply(M, row)) for row in basis]
        assert all(col is not None for col in cols)
        actions.append([[cols[j][i] for j in range(len(basis))] for i in range(len(basis))])
    weights = []
    for row in basis:
        support = {ambient.weights[k] for k, x in enumerate(row) if x}
        assert len(support) == 1, f"basis row {row} mixes weights"
        weights.append(support.pop())
    return lattice_from_matrices(weights, *actions, ambient=ambient, embedding=basis)


def _dense_closure(ambient, vectors):
    """Reference closure: dense E^k/k! and F^k/k! matrices applied to the
    mixed vectors themselves, with the basis re-swept until no operator
    enlarges it."""
    rank = ambient.rank

    def mul(A, B):
        return [
            [sum(A[i][t] * B[t][j] for t in range(rank)) for j in range(rank)]
            for i in range(rank)
        ]

    E, F, _ = _matrices(ambient)
    ops = [E, F]
    for X in (E, F):
        power = X
        for k in range(2, rank + 1):
            power = mul(power, X)
            ops.append([[Fraction(x, factorial(k)) for x in row] for row in power])
    lat = _reference_span(vectors)
    grew = True
    while grew:
        grew = False
        for row in lat.basis():
            for op in ops:
                image = _mat_apply(op, row)
                if any(image) and lat.add(image):
                    grew = True
    return _reference_from_lattice(lat, ambient)


def reference_hom_lattice(A, B):
    """The dense system: one unknown per entry of T, 3 rank_A rank_B
    equations from E, F and H."""
    ra, rb = A.rank, B.rank
    unknowns = ra * rb

    def idx(i, j):
        return i * ra + j

    equations = []
    for XA, XB in zip(_matrices(A), _matrices(B)):
        for i in range(rb):
            for j in range(ra):
                row = [Fraction(0)] * unknowns
                for k in range(ra):
                    row[idx(i, k)] += XA[k][j]
                for k in range(rb):
                    row[idx(k, j)] -= XB[i][k]
                if any(row):
                    equations.append(row)
    kernel = _nullspace(equations, unknowns)
    result = {"rank": len(kernel), "generator": None}
    if len(kernel) == 1:
        vec = kernel[0]
        scale = lcm(*(x.denominator for x in vec))
        ints = [int(x * scale) for x in vec]
        content = gcd(*ints)
        ints = [x // content for x in ints]
        if next(x for x in ints if x) < 0:
            ints = [-x for x in ints]
        result["generator"] = [[ints[idx(i, j)] for j in range(ra)] for i in range(rb)]
    return result


def _reference_top_component(lat):
    """g with V intersect Q e_top = g Z e_top, from the coordinates of
    e_top in the Hermite basis."""
    target = [Fraction(1 if j == 0 else 0) for j in range(lat.ncols)]
    coords = _rational_coordinates(lat.basis(), target)
    nums = [abs(q.numerator) for q in coords if q]
    dens = [q.denominator for q in coords if q]
    return Fraction(lcm(*dens), gcd(*nums))


def reference_certificate(L, primes):
    """Close every enlargement L + Z u/rho under the divided action and
    read its highest component."""
    amb = L.inside[0]
    base = _reference_span(embedding(L))
    failures = []
    for rho in primes:
        for a, row in enumerate(embedding(L)):
            enlarged = base.copy()
            candidate = [x / rho for x in row]
            pending = [candidate] if enlarged.add(candidate) else []
            while pending:
                for image in _reference_images(amb, pending.pop()):
                    if enlarged.add(image):
                        pending.append(image)
            if _reference_top_component(enlarged).denominator == 1:
                failures.append((rho, L.weights[a]))
    return {"certified": not failures, "failures": failures, "primes": list(primes)}


# -- reference lattice --------------------------------------------------------


def test_row_lattice_add_and_contains():
    lat = ReferenceLattice(3)
    assert lat.add([1, 0, 1])
    assert lat.add([0, 0, 2])
    assert not lat.add([1, 0, 3])  # = first + second, nothing new
    assert lat.contains([2, 0, 4])
    assert not lat.contains([0, 0, 1])
    assert not lat.contains([Fraction(1, 2), 0, 0])


def test_row_lattice_keeps_pivots_positive():
    lat = ReferenceLattice(1)
    lat.add([2])
    lat.add([-3])  # the merge's gcd comes out negative here
    assert lat.rows == [[1]]
    lat = ReferenceLattice(2)
    lat.add([2, 1])
    lat.add([-3, 0])
    assert lat.basis() == [[1, 2], [0, 3]]


def test_row_lattice_basis_ignores_insertion_order():
    rng = random.Random(20261018)
    for _ in range(20):
        rows = [
            [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(4)]
            for _ in range(rng.randint(1, 5))
        ]
        if not any(any(row) for row in rows):
            continue
        bases = []
        for _ in range(6):
            rng.shuffle(rows)
            bases.append(_reference_span(rows).basis())
        assert all(basis == bases[0] for basis in bases), rows


def _random_matrix(rng, nrows, ncols, bound=3):
    return [[rng.randint(-bound, bound) for _ in range(ncols)] for _ in range(nrows)]


def test_nullspace_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20171)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        rows = _random_matrix(rng, nrows, ncols)
        if rng.random() < 0.3:  # force a dependent row
            rows.append([a + b for a, b in zip(rows[0], rows[-1])])
        M = sympy.Matrix(rows)
        expected = M.nullspace()
        ours = _nullspace([[Fraction(x) for x in row] for row in rows], ncols)
        assert len(ours) == len(expected)
        for vec in ours:
            assert M * sympy.Matrix(vec) == sympy.zeros(len(rows), 1)
        if ours:
            both = sympy.Matrix.hstack(*expected, *(sympy.Matrix(v) for v in ours))
            assert both.rank() == len(expected)


def test_covolume_matches_sympy_determinant():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20172)
    for _ in range(60):
        n = rng.randint(1, 5)
        rows = _random_matrix(rng, n, n)
        det = abs(sympy.Matrix(rows).det())
        den = rng.randint(1, 6)
        lat = _reference_span([[Fraction(x, den) for x in row] for row in rows])
        if det == 0:
            assert len(lat.rows) < n
            continue
        assert len(lat.rows) == n
        assert lat.covolume() == Fraction(int(det), den ** n)


# -- graded lattice -----------------------------------------------------------


def test_row_lattice_gcd_merge():
    lat = RowLattice(1)
    add_row(lat, [6])
    assert add_row(lat, [10])  # gcd merge shrinks the pivot to 2
    assert lat.basis() == [[Fraction(2)]]
    assert lat.contains([2]) and not lat.contains([1])


def test_graded_gcd_merge_of_rationals():
    lat = RowLattice(2)
    assert add_row(lat, [0, Fraction(3, 4)])
    assert add_row(lat, [0, Fraction(-5, 6)])  # 3/4 Z + 5/6 Z = 1/12 Z
    assert lat.scalars == [0, Fraction(1, 12)]
    assert not add_row(lat, [0, Fraction(7, 6)])
    assert not add_row(lat, [0, -1])
    assert add_row(lat, [Fraction(-2, 3), 0])  # scalars stay nonnegative
    assert lat.basis() == [[Fraction(2, 3), 0], [0, Fraction(1, 12)]]


def test_graded_merge_matches_reference():
    rng = random.Random(20261019)
    for _ in range(200):
        values = [
            Fraction(rng.randint(-30, 30), rng.randint(1, 12))
            for _ in range(rng.randint(1, 4))
        ]
        graded, ref = RowLattice(1), ReferenceLattice(1)
        for x in values:
            assert add_row(graded, [x]) == ref.add([x]), values
        assert graded.basis() == ref.basis(), values


def test_graded_add_takes_unreduced_quotients():
    rng = random.Random(20261025)
    for _ in range(100):
        pairs = [(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(rng.randint(1, 4))]
        by_quotient, by_row = RowLattice(1), RowLattice(1)
        for num, den in pairs:
            held = by_quotient.holds(0, num, den)
            assert held == by_row.contains([Fraction(num, den)]), pairs
            assert by_quotient.add(0, num, den) == add_row(by_row, [Fraction(num, den)]) != held
        assert by_quotient.scalars == by_row.scalars, pairs


def test_row_lattice_rational_rows():
    lat = RowLattice(2)
    add_row(lat, [Fraction(1, 2), 0])
    add_row(lat, [0, Fraction(1, 3)])
    assert lat.contains([Fraction(3, 2), Fraction(2, 3)])
    assert not lat.contains([Fraction(1, 4), 0])
    assert lat.coordinates([Fraction(5, 2), Fraction(-1, 3)]) == [5, -1]
    assert lat.coordinates([Fraction(1, 4), 0]) is None


def test_graded_contains_and_coordinates_on_mixed_vectors():
    lat = RowLattice(4)
    add_row(lat, [2, 0, 0, 0])
    add_row(lat, [0, 0, Fraction(1, 3), 0])
    assert lat.contains([4, 0, Fraction(-2, 3), 0])
    assert lat.coordinates([4, 0, Fraction(-2, 3), 0]) == [2, -2]
    assert not lat.contains([4, 1, 0, 0])  # no component at index 1
    assert lat.coordinates([4, 1, 0, 0]) is None
    assert not lat.contains([3, 0, Fraction(1, 3), 0])
    assert lat.coordinates([3, 0, Fraction(1, 3), 0]) is None
    assert lat.contains([0, 0, 0, 0]) and lat.coordinates([0, 0, 0, 0]) == [0, 0]


def test_graded_covolume():
    lat = RowLattice(3)
    assert lat.covolume() == 1  # the zero lattice: empty product
    add_row(lat, [Fraction(3, 2), 0, 0])
    add_row(lat, [0, 0, Fraction(2, 5)])
    assert lat.covolume() == Fraction(3, 5)
    add_row(lat, [0, 4, 0])
    assert lat.covolume() == Fraction(12, 5)
    rows = [[Fraction(3, 2), 0, 0], [0, 4, 0], [0, 0, Fraction(2, 5)]]
    assert lat.covolume() == _reference_span(rows).covolume()


def test_row_lattice_rejects_mixed_vector():
    lat = RowLattice(3)
    with pytest.raises(ValueError, match="not a weight vector"):
        add_row(lat, [1, 0, 1])


def test_row_lattice_zero_vector_adds_nothing():
    lat = RowLattice(3)
    assert not add_row(lat, [0, Fraction(0), 0])
    assert lat.basis() == []


# -- ladder lattices ----------------------------------------------------------


def test_ladder_rank_three_actions():
    L = ladder_lattice(0, 1)
    assert L.rank == 3
    assert L.weights == [2, 0, -2]
    assert L.e[1] == 2  # E v_0 = 2 v_2
    assert L.f[0] == 1  # F v_2 = v_0
    assert L.f[1] == 2  # F v_0 = 2 v_-2
    assert L.e[2] == 1  # E v_-2 = v_0
    assert L.e[0] == 0 == L.f[2]
    E, F, _ = _matrices(L)
    assert E[0][1] == 2 and F[1][0] == 1 and F[2][1] == 2 and E[1][2] == 1
    assert check_lattice_axioms(L) == []


def test_ladder_bracket_on_middle_vector():
    # [E,F] v_0 = (2*1 - 1*2) v_0 = 0 = H v_0
    L = ladder_lattice(0, 1)
    assert L.f[1] * L.e[2] - L.e[1] * L.f[0] == 0 == L.weights[1]
    E, F, _ = _matrices(L)
    ef = sum(E[1][k] * F[k][1] for k in range(3))
    fe = sum(F[1][k] * E[k][1] for k in range(3))
    assert ef - fe == 0


def test_ladder_rank_two():
    L = ladder_lattice(1, 0)
    assert L.rank == 2
    assert L.weights == [1, -1]
    assert L.e == [0, 1] and L.f == [1, 0]
    assert check_lattice_axioms(L) == []


def test_ladder_requires_nonnegative_top():
    with pytest.raises(ValueError, match="must be nonnegative"):
        ladder_lattice(-3, 1)


def test_ladder_axioms_grid():
    for lam in range(-4, 7):
        for n in range(4):
            if lam + 2 * n < 0:
                continue
            assert check_lattice_axioms(ladder_lattice(lam, n)) == []


def _perturbed(rng, L):
    """L with one wrong chain coefficient or one shifted weight."""
    w, e, f = list(L.weights), list(L.e), list(L.f)
    kind = rng.choice(("e", "f", "weight") if L.rank > 1 else ("weight",))
    if kind == "weight":
        w[rng.randrange(L.rank)] += 1  # weights spaced by 2 stay descending
        return FiniteLattice(w, e, f)
    chain, i = (e, rng.randrange(1, L.rank)) if kind == "e" else (f, rng.randrange(L.rank - 1))
    chain[i] = rng.choice((chain[i] + 1, chain[i] - 1, Fraction(chain[i], 2), -chain[i]))
    return FiniteLattice(w, e, f)


def test_chain_axioms_match_dense_commutators():
    rng = random.Random(20261024)
    modules = [
        ladder_lattice(lam, n) for lam in range(-3, 5) for n in range(3) if lam + 2 * n >= 0
    ]
    modules += [dual_lattice(L) for L in modules[::3]]
    modules += [minimal_lattice(4), maximal_lattice(5)]
    seen = set()
    for L in modules:
        assert check_lattice_axioms(L) == reference_axioms(L) == []
        for _ in range(6):
            wrong = _perturbed(rng, L)
            got = check_lattice_axioms(wrong)
            assert got == reference_axioms(wrong), (wrong.weights, wrong.e, wrong.f)
            seen.update(got)
    assert seen == {
        "E has a non-integer entry", "F has a non-integer entry",
        "[E,F] != H", "[H,E] != 2E", "[H,F] != -2F",
    }


# -- generated sublattices ----------------------------------------------------


def test_generated_from_highest_vector():
    amb = ladder_lattice(0, 1)
    L = generated_lattice(amb, [unit(3, 0)])
    assert embedding(L) == [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
    ]
    assert L.weights == [2, 0, -2]
    assert check_lattice_axioms(L) == []
    want = _dense_closure(amb, [unit(3, 0)])
    assert chains(L) == chains(want)


def test_generated_linearity():
    amb = ladder_lattice(0, 1)
    L = generated_lattice(amb, [unit(3, 0)])
    doubled = generated_lattice(amb, [[2 * x for x in unit(3, 0)]])
    assert embedding(doubled) == [[2 * x for x in row] for row in embedding(L)]


def test_generated_from_full_basis_is_identity():
    amb = ladder_lattice(2, 0)
    L = generated_lattice(amb, [unit(3, i) for i in range(3)])
    assert embedding(L) == [unit(3, i) for i in range(3)]
    assert (L.e, L.f) == (amb.e, amb.f)


def test_generated_divided_powers_reach_further():
    # F v_2 = v_0 and F v_0 = 2 v_-2 in the (0,1) ladder; F^(2) finds v_-2
    amb = ladder_lattice(0, 1)
    div = generated_lattice(amb, [unit(3, 0)])
    assert embedding(div)[2] == [0, 0, 1]


def test_generated_requires_nonzero_vector():
    amb = ladder_lattice(0, 1)
    with pytest.raises(ValueError, match="nonzero generating vector"):
        generated_lattice(amb, [[0, 0, 0]])


def test_finite_lattice_rejects_repeated_weights():
    # so no ambient of generated_lattice has a weight space of dimension 2
    zero = [[0, 0], [0, 0]]
    with pytest.raises(ValueError, match="repeat or are not descending"):
        FiniteLattice([0, 0], [0, 0], [0, 0])
    with pytest.raises(ValueError, match="repeat or are not descending"):
        lattice_from_matrices([0, 0], zero, zero)
    with pytest.raises(ValueError, match="repeat or are not descending"):
        FiniteLattice([-2, 0, 2], [0, 0, 0], [0, 0, 0])


def test_finite_lattice_rejects_chains_that_leave_the_basis():
    with pytest.raises(ValueError, match="chains"):
        FiniteLattice([2, 0], [1, 0], [0, 0])  # E of the highest vector
    with pytest.raises(ValueError, match="chains"):
        FiniteLattice([2, 0], [0, 1], [0, 1])  # F of the lowest vector
    with pytest.raises(ValueError, match="chains"):
        FiniteLattice([2, 0], [0, 1], [1])


def test_from_matrices_round_trips_to_json():
    for L in _hom_pool():
        E, F, _ = _matrices(L)
        ambient = L.inside[0] if L.inside is not None else None
        back = lattice_from_matrices(L.weights, E, F, ambient, embedding(L))
        assert chains(back) == chains(L)


def test_from_matrices_rejects_dense_actions():
    rng = random.Random(20261022)
    for _ in range(20):
        # integer E and F that satisfy no bracket relation and are not bidiagonal
        noise = [[rng.choice((0, 0, 1, -2, 3)) for _ in range(5)] for _ in range(5)]
        if all(not x for i, row in enumerate(noise) for j, x in enumerate(row) if i != j - 1):
            continue
        with pytest.raises(ValueError, match="E is not bidiagonal"):
            lattice_from_matrices([4, 2, 0, -2, -4], noise, noise[::-1])
    E, F, _ = _matrices(ladder_lattice(2, 0))
    with pytest.raises(ValueError, match="F is not bidiagonal"):
        lattice_from_matrices([2, 0, -2], E, E)
    with pytest.raises(ValueError, match="E is not 3x3"):
        lattice_from_matrices([2, 0, -2], E[:2], F)


def test_generated_closure_random_vectors():
    rng = random.Random(20260815)
    for _ in range(12):
        lam = rng.randrange(0, 4)
        n = rng.randrange(0, 2)
        if lam + 2 * n == 0:
            continue
        amb = ladder_lattice(lam, n)
        vec = [Fraction(rng.randrange(-3, 4)) for _ in range(amb.rank)]
        if not any(vec):
            vec[0] = Fraction(1)
        L = generated_lattice(amb, [vec])
        lat = ReferenceLattice(amb.rank)
        for row in embedding(L):
            lat.add(row)
        assert lat.contains(vec)
        for row in embedding(L):
            for image in _reference_images(amb, row):
                assert lat.contains(image)
        assert check_lattice_axioms(L) == []
        want = _dense_closure(amb, [vec])
        assert chains(L) == chains(want), vec


@pytest.mark.parametrize("lam", range(11))
def test_generated_lattice_matches_dense_divided_powers(lam):
    amb = ladder_lattice(lam, 0)
    rank = amb.rank
    half = [Fraction(1, 2) if j in (0, 2) else Fraction(0) for j in range(rank)]
    dual = dual_lattice(ladder_lattice(lam, 1))  # E and F with negative entries
    cases = [
        (amb, [unit(rank, 0)]),
        (amb, [unit(rank, rank - 1)]),
        (amb, [half]),
        (dual, [unit(dual.rank, 0)]),
        (dual, [unit(dual.rank, 1), unit(dual.rank, dual.rank - 1, 1, 3)]),
    ]
    for ambient, vectors in cases:
        got = generated_lattice(ambient, vectors)
        want = _dense_closure(ambient, vectors)
        assert chains(got) == chains(want), vectors


def _random_vector(rng, rank):
    vec = [Fraction(0)] * rank
    for j in rng.sample(range(rank), rng.randint(1, min(rank, 3))):
        vec[j] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(1, 6))
    return vec


def test_generated_lattice_matches_reference_on_mixed_generators():
    rng = random.Random(20261020)
    for _ in range(40):
        lam, n = rng.randint(0, 7), rng.randint(0, 2)
        ambient = ladder_lattice(lam, n)
        if rng.random() < 0.5:
            ambient = dual_lattice(ambient)
        vectors = [_random_vector(rng, ambient.rank) for _ in range(rng.randint(1, 2))]
        got = generated_lattice(ambient, vectors)
        want = _dense_closure(ambient, vectors)
        assert chains(got) == chains(want), (lam, n, vectors)


def _reference_images(ambient, vec):
    for X in _matrices(ambient)[:2]:
        image = vec
        for k in range(1, ambient.rank + 1):
            image = [Fraction(x, k) if x else 0 for x in _mat_apply(X, image)]
            if not any(image):
                break
            yield image


def test_chain_images_match_dense_rows():
    rng = random.Random(20261022)
    ambients = []
    for lam in range(17):
        ladder = ladder_lattice(lam, rng.randint(0, 1))
        ambients += [ladder, dual_lattice(ladder)]
    for ambient in ambients:
        for _ in range(6):
            j = rng.randrange(ambient.rank)
            x = Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(1, 6))
            got = []
            for i, num, den in _images(ambient, j, x.numerator, x.denominator):
                got.append([Fraction(num, den) if k == i else 0 for k in range(ambient.rank)])
            want = list(_reference_images(ambient, unit(ambient.rank, j, x)))
            assert got == want, (ambient.weights, j, x)


# -- duality ------------------------------------------------------------------


def test_dual_is_an_involution():
    for lam, n in ((2, 0), (0, 2), (3, 1)):
        L = ladder_lattice(lam, n)
        DD = dual_lattice(dual_lattice(L))
        assert DD.weights == L.weights
        assert (DD.e, DD.f) == (L.e, L.f)


def test_dual_reverses_and_negates_weights():
    L = ladder_lattice(1, 2)
    D = dual_lattice(L)
    assert D.weights == [-w for w in reversed(L.weights)]
    assert check_lattice_axioms(D) == []


def test_dual_of_lie_minimal_has_integral_top():
    # the index-2 bottom of the Lie closure dualizes to an integral top:
    # the primitive intertwiner into the ladder leaves coefficient 1 on
    # the highest vector and pushes the 2 to the bottom.  The Lie closure
    # of v_2 in the (0,1) ladder is spanned by v_2, v_0 and 2 v_-2.
    amb = ladder_lattice(0, 1)
    lat = RowLattice(3)
    for row in (unit(3, 0), unit(3, 1), unit(3, 2, 2)):
        add_row(lat, row)
    lie = _from_row_lattice(lat, amb)
    assert lie.weights == [2, 0, -2]
    assert embedding(lie) == [unit(3, 0), unit(3, 1), unit(3, 2, 2)]
    D = dual_lattice(lie)
    assert D.weights == [2, 0, -2]
    assert check_lattice_axioms(D) == []
    hom = hom_lattice(D, ladder_lattice(2, 0))
    assert hom["rank"] == 1
    T = hom["generator"]
    assert abs(T[0][0]) == 1
    assert abs(T[2][2]) == 2
    assert all(T[i][j] == 0 for i in range(3) for j in range(3) if i != j)


# -- minimal and maximal forms ------------------------------------------------


def test_minimal_lattice_is_full_ladder():
    for lam in range(0, 7):
        mn = minimal_lattice(lam)
        assert embedding(mn) == [unit(lam + 1, i) for i in range(lam + 1)]


def test_maximal_lattice_small_cases():
    mx = maximal_lattice(2)
    assert embedding(mx) == [
        unit(3, 0),
        unit(3, 1, 1, 2),
        unit(3, 2),
    ]
    assert check_lattice_axioms(mx) == []
    assert mx.weights == [2, 0, -2]


def test_rank_two_minimal_equals_maximal():
    mn, mx = minimal_lattice(1), maximal_lattice(1)
    assert lattice_span_equal(mn, mx)
    assert inclusion_index(mn, mx) == 1


def test_minimal_inside_maximal_with_binomial_index():
    for lam in range(0, 33):
        mn, mx = minimal_lattice(lam), maximal_lattice(lam)
        index = inclusion_index(mn, mx)
        assert index == prod_binomials(lam)
        assert check_lattice_axioms(mx) == []


def prod_binomials(lam):
    out = 1
    for a in range(lam + 1):
        out *= comb(lam, a)
    return out


def test_maximal_matches_binomial_model():
    for lam in range(0, 33):
        assert lattice_span_equal(binomial_lattice(lam), maximal_lattice(lam))


def test_inclusion_index_none_when_not_included():
    mn, mx = minimal_lattice(2), maximal_lattice(2)
    assert inclusion_index(mx, mn) is None


@pytest.mark.parametrize("k", [2, 3])
def test_inclusion_index_of_scaled_lattice(k):
    for lam in range(0, 6):
        mx = maximal_lattice(lam)
        assert inclusion_index(scaled(mx, k), mx) == k ** mx.rank


# -- hom lattices and the counit index ----------------------------------------


def test_hom_minimal_to_maximal_is_rank_one():
    hom = hom_lattice(minimal_lattice(2), maximal_lattice(2))
    assert hom["rank"] == 1
    assert hom["generator"] == [[1, 0, 0], [0, 2, 0], [0, 0, 1]]


def test_hom_self_is_identity():
    for lam in (1, 2, 3):
        mx = maximal_lattice(lam)
        hom = hom_lattice(mx, mx)
        assert hom["rank"] == 1
        assert hom["generator"] == [
            [1 if i == j else 0 for j in range(lam + 1)] for i in range(lam + 1)
        ]


def test_hom_rank_one_across_grid():
    for lam in range(1, 7):
        hom = hom_lattice(minimal_lattice(lam), maximal_lattice(lam))
        assert hom["rank"] == 1
        T = hom["generator"]
        assert all(T[i][j] == 0 for i in range(lam + 1) for j in range(lam + 1) if i != j)


def test_hom_generator_index_examples():
    mx = maximal_lattice(3)
    assert hom_generator_index(mx) == 1
    assert hom_generator_index(scaled(mx, 3)) == 3
    assert hom_generator_index(minimal_lattice(2)) == 1


def test_hom_generator_index_rejects_fractional_top():
    amb = ladder_lattice(2, 0)
    half_top = generated_lattice(amb, [unit(3, 0, 1, 2)])
    with pytest.raises(ValueError, match="not contained in Z"):
        hom_generator_index(half_top)


def _hom_pool():
    pool = []
    for lam in range(0, 8):
        pool += [minimal_lattice(lam), maximal_lattice(lam)]
        for n in range(0, 2):
            ladder = ladder_lattice(lam, n)
            pool += [ladder, dual_lattice(ladder)]
    return pool


def test_hom_lattice_matches_reference():
    pool = _hom_pool()
    rng = random.Random(20261021)
    pairs = [(L, L) for L in pool[::5]]
    pairs += [(minimal_lattice(lam), maximal_lattice(lam)) for lam in range(0, 9)]
    pairs += [(maximal_lattice(lam), minimal_lattice(lam)) for lam in range(0, 9)]
    pairs += [(dual_lattice(ladder_lattice(lam, 0)), maximal_lattice(lam)) for lam in range(0, 9)]
    by_weights = {}
    for L in pool:
        by_weights.setdefault(tuple(L.weights), []).append(L)
    groups = [group for group in by_weights.values() if len(group) > 1]
    for _ in range(40):
        group = rng.choice(groups)
        pairs.append((rng.choice(group), rng.choice(group)))
    pairs += [(rng.choice(pool), rng.choice(pool)) for _ in range(20)]
    # no module: E and F vanish, so Hom(inert, inert) has rank 2
    inert = FiniteLattice([1, -1], [0, 0], [0, 0])
    pairs += [(inert, inert), (inert, minimal_lattice(1)), (minimal_lattice(1), inert)]
    # on sl2-modules E and H already pin T down; E vanishes on this one, so
    # only its F equations constrain T
    lopsided = FiniteLattice([1, -1], [0, 0], [1, 0])
    pairs += [(lopsided, inert), (lopsided, lopsided), (inert, lopsided)]
    # weights with gaps: neighbours in A need not be neighbours in B
    gapped = FiniteLattice([4, 0, -2], [0, 1, 2], [3, 1, 0])
    pairs += [(gapped, ladder_lattice(2, 1)), (ladder_lattice(2, 1), gapped), (gapped, gapped)]
    # E and F tie t_0 to t_1 with one ratio, but in rows of B that differ
    spread = FiniteLattice([2, -2], [0, 1], [1, 0])
    pairs += [(spread, FiniteLattice([2, 0, -2], [0, 0, 1], [1, 0, 0]))]
    for A, B in pairs:
        assert hom_lattice(A, B) == reference_hom_lattice(A, B), (A.weights, B.weights)
    assert hom_lattice(inert, inert) == {"rank": 2, "generator": None}
    assert hom_lattice(lopsided, lopsided)["generator"] == [[1, 0], [0, 1]]
    assert hom_lattice(lopsided, inert)["generator"] == [[1, 0], [0, 0]]


def _random_chain(rng, weights):
    """A chain on the given weights with random integer E and F: no module
    in general."""
    r = len(weights)
    e = [0] + [rng.choice((0, 1, 2, 3, -1, -2)) for _ in range(r - 1)]
    f = [rng.choice((0, 1, 2, 3, -1, -2)) for _ in range(r - 1)] + [0]
    return FiniteLattice(weights, e, f)


def _signed(rng, L):
    """L on the basis vectors times random signs: its Hom from L is nonzero."""
    s = [rng.choice((1, -1)) for _ in L.weights]
    e = [s[i - 1] * s[i] * x if i else 0 for i, x in enumerate(L.e)]
    f = [s[i] * s[i + 1] * x if i + 1 < L.rank else 0 for i, x in enumerate(L.f)]
    return FiniteLattice(L.weights, e, f)


def _restricted(rng, L):
    """L on a random subset of its weights, each basis vector keeping its E
    and F coefficients: neighbours in the subset need not be neighbours in
    L, where the Hom equations split into one per unknown."""
    keep = [i for i in range(L.rank) if rng.random() < 0.7] or [0]
    e = [0] + [L.e[i] for i in keep[1:]]
    f = [L.f[i] for i in keep[:-1]] + [0]
    return FiniteLattice([L.weights[i] for i in keep], e, f)


def test_hom_lattice_matches_reference_on_random_chains():
    # A and B on random subsets of a few weights, so that most weights
    # match and some neighbours of A are not neighbours in B
    rng = random.Random(20261023)
    ranks = set()
    for _ in range(400):
        base = sorted(rng.sample(range(-4, 5), rng.randint(2, 5)), reverse=True)
        A = _random_chain(rng, [w for w in base if rng.random() < 0.8] or base[:1])
        kind = rng.random()
        if kind < 0.3:
            B = _signed(rng, A)
        elif kind < 0.6:
            B = _restricted(rng, A)
        else:
            B = _random_chain(rng, [w for w in base if rng.random() < 0.8] or base[-1:])
        if rng.random() < 0.5:
            A, B = B, A
        want = reference_hom_lattice(A, B)
        assert hom_lattice(A, B) == want, (A, B)
        ranks.add(want["rank"])
    assert ranks == {0, 1, 2}


# -- maximality certificates --------------------------------------------------


def test_maximal_lattices_are_certified():
    for lam in range(0, 7):
        report = maximality_certificate(maximal_lattice(lam), (2, 3, 5))
        assert report["certified"], report["failures"]
        assert report["primes"] == [2, 3, 5]


def _primes_up_to(n):
    return [p for p in range(2, n + 1) if all(p % q for q in range(2, p))]


def test_maximal_lattices_are_certified_at_every_prime_up_to_lambda():
    # [max : min] = prod binom(lam, a) has no prime factor above lam, so
    # these primes make the certificate a proof of maximality
    for lam in range(0, 33):
        primes = _primes_up_to(lam)
        report = maximality_certificate(maximal_lattice(lam), primes)
        assert report == {"certified": True, "failures": [], "primes": primes}, lam


def test_certificate_at_two_three_five_misses_an_index_seven_lattice():
    # a U_Z-stable lattice of index 7^6 in maximal_lattice(7), with top Z:
    # the primes 2, 3, 5 of the CLI certify it, the prime 7 does not
    lam = 7
    scalars = [1, 1, Fraction(1, 3), Fraction(1, 5), Fraction(1, 5), Fraction(1, 3), 1, 1]
    L = generated_lattice(
        ladder_lattice(lam, 0), [unit(lam + 1, a, c) for a, c in enumerate(scalars)]
    )
    assert [row[a] for a, row in enumerate(embedding(L))] == scalars
    assert inclusion_index(L, maximal_lattice(lam)) == 7 ** 6
    assert maximality_certificate(L, (2, 3, 5))["certified"]
    report = maximality_certificate(L, _primes_up_to(lam))
    assert report["failures"] == [(7, w) for w in (5, 3, 1, -1, -3, -5)]


def test_minimal_lattice_fails_certification_at_middle():
    # enlarging by half the middle vector keeps the top integral: the
    # closure is exactly the maximal lattice, so minimality shows here
    report = maximality_certificate(minimal_lattice(2), (2,))
    assert not report["certified"]
    assert report["failures"] == [(2, 0)]


def test_certificate_requires_normalized_top():
    mx = maximal_lattice(2)
    with pytest.raises(ValueError, match="not normalized"):
        maximality_certificate(scaled(mx, 2), (2,))


@pytest.mark.parametrize(
    "kind,lam",
    [("max", lam) for lam in range(0, 15)] + [("min", lam) for lam in range(0, 13)],
)
def test_certificate_matches_reference(kind, lam):
    L = maximal_lattice(lam) if kind == "max" else minimal_lattice(lam)
    primes = (2, 3, 5, 7)
    assert maximality_certificate(L, primes) == reference_certificate(L, primes)


def _mixed_lattice():
    """The ladder with the embedding of the Lie closure of v_2 + v_-2 in it,
    whose first basis row mixes the weights 2 and -2, so it is no sum of
    scalars on weight lines; lattice_from_matrices, where dense rows enter,
    raises."""
    amb = ladder_lattice(2, 0)
    rows = _reference_span([[1, 0, 1], [0, 1, 0], [0, 0, 2]]).basis()
    E, F, _ = _matrices(amb)
    return lattice_from_matrices(amb.weights, E, F, ambient=amb, embedding=rows)


@pytest.mark.parametrize("query", [
    lambda L: inclusion_index(L, maximal_lattice(2)),
    lambda L: inclusion_index(minimal_lattice(2), L),
    hom_generator_index,
    lambda L: maximality_certificate(L, (2,)),
], ids=["inner", "outer", "hom_generator_index", "maximality_certificate"])
def test_queries_reject_embedding_not_diagonal_in_weights(query):
    # the guard fires while the lattice is built, so no query reads it
    with pytest.raises(ValueError, match="not a weight vector"):
        query(_mixed_lattice())


def test_certificate_reads_the_ambient_of_the_lattice():
    # no separate highest weight can disagree with L: at lambda = 5 the
    # certificate walks the ladder of L itself
    for lam in range(0, 9):
        report = maximality_certificate(maximal_lattice(lam), (2, 3, 5))
        assert report == {"certified": True, "failures": [], "primes": [2, 3, 5]}
    assert maximal_lattice(5).inside[0] == ladder_lattice(5, 0)


def test_inclusion_index_rejects_different_ambients():
    with pytest.raises(ValueError, match="different ambients"):
        inclusion_index(minimal_lattice(3), maximal_lattice(4))
    with pytest.raises(ValueError, match="different ambients"):
        lattice_span_equal(maximal_lattice(2), binomial_lattice(3))


# -- counit fraction witnesses ------------------------------------------------


def test_counit_witness_examples():
    assert counit_fraction_witness(0, 2)["fraction"] == Fraction(1, 2)
    assert counit_fraction_witness(0, 1)["fraction"] == 0
    assert counit_fraction_witness(-3, 5)["fraction"] == Fraction(1, 5)


def test_counit_witness_checks_pass_on_grid():
    for lam in range(-5, 6):
        for n in range(1, 9):
            if lam < -n:
                continue
            report = counit_fraction_witness(lam, n)
            assert report["weight_check"] and report["f_check"] and report["h_check"]
            assert report["fraction"] == Fraction(1, n) % 1


def test_counit_witness_rejects_bad_inputs():
    with pytest.raises(ValueError, match=r"^n must be a positive integer, got n=0$"):
        counit_fraction_witness(0, 0)
    with pytest.raises(ValueError, match="must be nonnegative"):
        counit_fraction_witness(-5, 1)
    # the ladder of (-3, 2) has weights 1, -1: no weight -3 for phi
    with pytest.raises(ValueError, match=r"^phi needs weight -3, below the ladder's lowest weight -1$"):
        counit_fraction_witness(-3, 2)


# -- serialization ------------------------------------------------------------


def test_to_json_embeds_rational_strings():
    mx = maximal_lattice(2)
    data = mx.to_json()
    assert data["rank"] == 3
    assert data["weights"] == [2, 0, -2]
    assert data["embedding"][1][1] == "1/2"
    assert all(isinstance(x, int) for row in data["E"] for x in row)
