"""Tests for the finite-rank lattice layer: ladder models, generated
sublattices, duals, minimal/maximal forms, Hom lattices, maximality
certificates, and the counit fraction witness."""

import random
from fractions import Fraction
from math import comb, factorial

import pytest

from hclat.borelweil import (
    FiniteLattice,
    RowLattice,
    _from_row_lattice,
    _nullspace,
    _span,
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
    scale_lattice,
)


def unit(rank, i, num=1, den=1):
    return [Fraction(num, den) if j == i else Fraction(0) for j in range(rank)]


# -- row lattices -------------------------------------------------------------


def test_row_lattice_add_and_contains():
    lat = RowLattice(3)
    assert lat.add([1, 0, 1])
    assert lat.add([0, 0, 2])
    assert not lat.add([1, 0, 3])  # = first + second, nothing new
    assert lat.contains([2, 0, 4])
    assert not lat.contains([0, 0, 1])
    assert not lat.contains([Fraction(1, 2), 0, 0])


def test_row_lattice_gcd_merge():
    lat = RowLattice(1)
    lat.add([6])
    assert lat.add([10])  # gcd merge shrinks the pivot to 2
    assert lat.basis() == [[Fraction(2)]]
    assert lat.contains([2]) and not lat.contains([1])


def test_row_lattice_keeps_pivots_positive():
    lat = RowLattice(1)
    lat.add([2])
    lat.add([-3])  # the merge's gcd comes out negative here
    assert lat.rows == [[1]]
    lat = RowLattice(2)
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
            bases.append(_span(rows).basis())
        assert all(basis == bases[0] for basis in bases), rows


def test_row_lattice_rational_rows():
    lat = RowLattice(2)
    lat.add([Fraction(1, 2), 0])
    lat.add([0, Fraction(1, 3)])
    assert lat.contains([Fraction(3, 2), Fraction(2, 3)])
    assert not lat.contains([Fraction(1, 4), 0])
    assert lat.coordinates([Fraction(5, 2), Fraction(-1, 3)]) == [5, -1]
    assert lat.coordinates([Fraction(1, 4), 0]) is None


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
        lat = _span([[Fraction(x, den) for x in row] for row in rows])
        if det == 0:
            assert len(lat.rows) < n
            continue
        assert len(lat.rows) == n
        assert lat.covolume() == Fraction(int(det), den ** n)


# -- ladder lattices ----------------------------------------------------------


def test_ladder_rank_three_actions():
    L = ladder_lattice(0, 1)
    assert L.rank == 3
    assert L.weights == [2, 0, -2]
    assert L.E[0][1] == 2  # E v_0 = 2 v_2
    assert L.F[1][0] == 1  # F v_2 = v_0
    assert L.F[2][1] == 2  # F v_0 = 2 v_-2
    assert L.E[1][2] == 1  # E v_-2 = v_0
    assert check_lattice_axioms(L) == []


def test_ladder_bracket_on_middle_vector():
    # [E,F] v_0 = (2*1 - 1*2) v_0 = 0 = H v_0
    L = ladder_lattice(0, 1)
    ef = sum(L.E[0][k] * L.F[k][1] for k in range(3))
    fe = sum(L.F[0][k] * L.E[k][1] for k in range(3))
    assert ef - fe == 0 == L.weights[1]


def test_ladder_rank_two():
    L = ladder_lattice(1, 0)
    assert L.rank == 2
    assert L.weights == [1, -1]
    assert L.E[0][1] == 1 and L.F[1][0] == 1
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


# -- generated sublattices ----------------------------------------------------


def test_generated_from_highest_vector():
    amb = ladder_lattice(0, 1)
    L = generated_lattice(amb, [unit(3, 0)])
    assert L.embedding == [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 2],
    ]
    assert L.weights == [2, 0, -2]
    assert check_lattice_axioms(L) == []


def test_generated_linearity():
    amb = ladder_lattice(0, 1)
    L = generated_lattice(amb, [unit(3, 0)])
    doubled = generated_lattice(amb, [[2 * x for x in unit(3, 0)]])
    assert doubled.embedding == [[2 * x for x in row] for row in L.embedding]


def test_generated_from_full_basis_is_identity():
    amb = ladder_lattice(2, 0)
    L = generated_lattice(amb, [unit(3, i) for i in range(3)])
    assert L.embedding == [unit(3, i) for i in range(3)]
    assert L.E == amb.E and L.F == amb.F


def test_generated_mixed_vector():
    # v_2 + v_-2 closes up with a mixed-weight basis row
    amb = ladder_lattice(2, 0)
    L = generated_lattice(amb, [[1, 0, 1]])
    assert L.embedding == [[1, 0, 1], [0, 1, 0], [0, 0, 2]]
    assert L.weights is None
    assert check_lattice_axioms(L) == []


def test_generated_divided_powers_reach_further():
    # Lie closure of v_2 in the (0,1) ladder misses v_-2; F^(2) finds it
    amb = ladder_lattice(0, 1)
    lie = generated_lattice(amb, [unit(3, 0)])
    div = generated_lattice(amb, [unit(3, 0)], divided_powers=True)
    assert lie.embedding[2] == [0, 0, 2]
    assert div.embedding[2] == [0, 0, 1]


def test_generated_requires_nonzero_vector():
    amb = ladder_lattice(0, 1)
    with pytest.raises(ValueError, match="nonzero generating vector"):
        generated_lattice(amb, [[0, 0, 0]])


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
        lat = RowLattice(amb.rank)
        for row in L.embedding:
            lat.add(row)
        assert lat.contains(vec)
        for row in L.embedding:
            for M in (amb.E, amb.F):
                image = [
                    sum(M[i][j] * row[j] for j in range(amb.rank))
                    for i in range(amb.rank)
                ]
                assert lat.contains(image)
        assert check_lattice_axioms(L) == []


def _dense_closure(ambient, vectors, divided_powers):
    """Reference route: dense E^k/k! and F^k/k! matrices, with the basis
    re-swept until no operator enlarges it."""
    rank = ambient.rank

    def mul(A, B):
        return [
            [sum(A[i][t] * B[t][j] for t in range(rank)) for j in range(rank)]
            for i in range(rank)
        ]

    ops = [ambient.E, ambient.F]
    if divided_powers:
        for X in (ambient.E, ambient.F):
            power = X
            for k in range(2, rank + 1):
                power = mul(power, X)
                ops.append([[Fraction(x, factorial(k)) for x in row] for row in power])
    lat = _span(vectors)
    grew = True
    while grew:
        grew = False
        for row in lat.basis():
            for op in ops:
                image = [sum(op[i][j] * row[j] for j in range(rank)) for i in range(rank)]
                if any(image) and lat.add(image):
                    grew = True
    return _from_row_lattice(lat, ambient)


@pytest.mark.parametrize("lam", range(11))
def test_generated_lattice_matches_dense_divided_powers(lam):
    amb = ladder_lattice(lam, 0)
    rank = amb.rank
    half = [Fraction(1, 2) if j in (0, 2) else Fraction(0) for j in range(rank)]
    dual = dual_lattice(ladder_lattice(lam, 1))  # E and F with negative entries
    cases = [
        (amb, [unit(rank, 0)], True),
        (amb, [unit(rank, rank - 1)], True),
        (amb, [half], True),
        (dual, [unit(dual.rank, 0)], True),
        (dual, [unit(dual.rank, 1), unit(dual.rank, dual.rank - 1, 1, 3)], True),
        (amb, [unit(rank, 0)], False),
    ]
    for ambient, vectors, divided in cases:
        got = generated_lattice(ambient, vectors, divided_powers=divided)
        want = _dense_closure(ambient, vectors, divided)
        assert (got.weights, got.E, got.F, got.embedding) == (
            want.weights, want.E, want.F, want.embedding
        ), (vectors, divided)


# -- duality ------------------------------------------------------------------


def test_dual_is_an_involution():
    for lam, n in ((2, 0), (0, 2), (3, 1)):
        L = ladder_lattice(lam, n)
        DD = dual_lattice(dual_lattice(L))
        assert DD.weights == L.weights
        assert DD.E == L.E and DD.F == L.F


def test_dual_reverses_and_negates_weights():
    L = ladder_lattice(1, 2)
    D = dual_lattice(L)
    assert D.weights == [-w for w in reversed(L.weights)]
    assert check_lattice_axioms(D) == []


def test_dual_of_lie_minimal_has_integral_top():
    # the index-2 bottom of the Lie closure dualizes to an integral top:
    # the primitive intertwiner into the ladder leaves coefficient 1 on
    # the highest vector and pushes the 2 to the bottom
    amb = ladder_lattice(0, 1)
    lie = generated_lattice(amb, [unit(3, 0)])
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
        assert mn.embedding == [unit(lam + 1, i) for i in range(lam + 1)]


def test_maximal_lattice_small_cases():
    mx = maximal_lattice(2)
    assert mx.embedding == [
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
    for lam in range(0, 9):
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
    for lam in range(0, 9):
        assert lattice_span_equal(binomial_lattice(lam), maximal_lattice(lam))


def test_inclusion_index_none_when_not_included():
    mn, mx = minimal_lattice(2), maximal_lattice(2)
    assert inclusion_index(mx, mn) is None


@pytest.mark.parametrize("k", [2, 3])
def test_inclusion_index_of_scaled_lattice(k):
    for lam in range(0, 6):
        mx = maximal_lattice(lam)
        assert inclusion_index(scale_lattice(mx, k), mx) == k ** mx.rank


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
    assert hom_generator_index(scale_lattice(mx, 3)) == 3
    assert hom_generator_index(minimal_lattice(2)) == 1


def test_hom_generator_index_rejects_fractional_top():
    amb = ladder_lattice(2, 0)
    half_top = generated_lattice(
        amb, [unit(3, 0, 1, 2)], divided_powers=True
    )
    with pytest.raises(ValueError, match="not contained in Z"):
        hom_generator_index(half_top)


# -- maximality certificates --------------------------------------------------


def test_maximal_lattices_are_certified():
    for lam in range(0, 7):
        report = maximality_certificate(maximal_lattice(lam), (2, 3, 5), lam)
        assert report["certified"], report["failures"]
        assert report["primes"] == [2, 3, 5]


def test_minimal_lattice_fails_certification_at_middle():
    # enlarging by half the middle vector keeps the top integral: the
    # closure is exactly the maximal lattice, so minimality shows here
    report = maximality_certificate(minimal_lattice(2), (2,), 2)
    assert not report["certified"]
    assert report["failures"] == [(2, 0)]


def test_certificate_requires_normalized_top():
    mx = maximal_lattice(2)
    with pytest.raises(ValueError, match="not normalized"):
        maximality_certificate(scale_lattice(mx, 2), (2,), 2)


# -- counit fraction witnesses ------------------------------------------------


def test_counit_witness_examples():
    assert counit_fraction_witness(0, 2)["fraction"] == Fraction(1, 2)
    assert counit_fraction_witness(0, 1)["fraction"] == 0
    assert counit_fraction_witness(-3, 5)["fraction"] == Fraction(1, 5)


def test_counit_witness_checks_pass_on_grid():
    for lam in range(-5, 6):
        for n in range(1, 9):
            if lam + 2 * n < 0:
                continue
            report = counit_fraction_witness(lam, n)
            assert report["weight_check"] and report["f_check"] and report["h_check"]
            assert report["fraction"] == Fraction(1, n) % 1


def test_counit_witness_rejects_bad_inputs():
    with pytest.raises(ValueError, match="must be positive"):
        counit_fraction_witness(0, 0)
    with pytest.raises(ValueError, match="must be nonnegative"):
        counit_fraction_witness(-5, 1)


# -- serialization ------------------------------------------------------------


def test_to_json_embeds_rational_strings():
    mx = maximal_lattice(2)
    data = mx.to_json()
    assert data["rank"] == 3
    assert data["weights"] == [2, 0, -2]
    assert data["embedding"][1][1] == "1/2"
    assert all(isinstance(x, int) for row in data["E"] for x in row)


def test_row_lattice_scales_only_nonzero_entries():
    lat = RowLattice(4)
    lat.add([Fraction(1, 3), 0, 0, 0])
    assert lat._scaled([0, Fraction(1, 2), Fraction(0), 2]) == (6, [0, 3, 0, 12])
    assert lat._scaled([0, 0, 0, 0]) == (3, [0, 0, 0, 0])
