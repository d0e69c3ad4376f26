"""Split Z-forms: brackets, realization, classification, parabolic frames."""

import random
from fractions import Fraction

import pytest

from hclat import zforms as zf


def test_make_zform_validation():
    with pytest.raises(ValueError):
        zf.make_zform(0, 1, 1)
    with pytest.raises(ValueError):
        zf.make_zform(1, -2, 1)
    with pytest.raises(ValueError):
        zf.make_zform(1, 1, 0)


def test_brackets_and_weights():
    g = zf.make_zform(2, 3, 1)
    E, F, H = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert zf.bracket_coords(g, H, E) == (2, 0, 0)
    assert zf.bracket_coords(g, H, F) == (0, -2, 0)
    assert zf.bracket_coords(g, E, F) == (0, 0, 3)
    assert zf.weights(g) == (2, -2, 0)


def test_jacobi_all_small_forms():
    for n in range(1, 6):
        for m in range(1, 6):
            assert zf.check_jacobi(zf.make_zform(n, m, 1))


def test_realization_is_bracket_homomorphism():
    for n, m, q in [(1, 1, Fraction(1, 2)), (2, 1, 1), (3, 4, Fraction(-2))]:
        assert zf.check_realization_bracket(zf.make_zform(n, m, q))


def test_realization_matrices():
    g = zf.make_zform(2, 1, 1)
    rE, rF, rH = zf.realization(g)
    assert rE == ((0, 1), (0, 0))
    assert rF == ((0, 0), (1, 0))
    assert rH == ((1, 0), (0, -1))


def test_classify_round_trip_grid():
    for n in range(1, 6):
        for m in range(1, 6):
            for q in (1, -1, Fraction(1, 2), Fraction(-1, 2), 2, -2):
                g = zf.make_zform(n, m, q)
                assert zf.classify(*zf.presentation(g)) == (n, m, abs(Fraction(q)))


def test_classify_sign_flip_same_class():
    g = zf.make_zform(2, 1, 1)
    flipped = zf.presentation(g, signs=(-1, -1, 1))  # E -> -E, F -> -F
    assert zf.classify(*flipped) == (2, 1, 1)


def test_classify_permuted_basis():
    g = zf.make_zform(1, 2, 1)
    shuffled = zf.presentation(g, order=(2, 0, 1), signs=(1, -1, -1))
    assert zf.classify(*shuffled) == (1, 2, 1)


def test_classify_rejects_bad_tables():
    g = zf.make_zform(2, 1, 1)
    brackets, wt, real = zf.presentation(g)
    with pytest.raises(zf.NotSplitForm):
        zf.classify(brackets, [2, -2, 1], real)  # no zero-weight line
    bad = dict(brackets)
    for key, coeffs in bad.items():
        # scale [E, F] so it is no longer an integer multiple of H
        i, j = key
        if wt[i] + wt[j] == 0 and wt[i] != 0:
            bad[key] = tuple(Fraction(1, 2) * c for c in coeffs)
    with pytest.raises(zf.NotSplitForm):
        zf.classify(bad, wt, real)


def test_presentation_json_round_trip():
    g = zf.make_zform(3, 2, Fraction(1, 2))
    tables = zf.presentation(g)
    encoded = zf.presentation_to_json(*tables)
    assert zf.presentation_from_json(encoded) == tables
    assert zf.classify(*zf.presentation_from_json(encoded)) == (3, 2, Fraction(1, 2))


def test_borel_subalgebras():
    g = zf.make_zform(2, 3, 1)
    assert zf.subalgebra(g, "b").basis == ((1, 0, 0), (0, 0, 1))
    assert zf.subalgebra(g, "bbar").basis == ((0, 1, 0), (0, 0, 1))


def test_parabolic_bases_and_preconditions():
    g = zf.make_zform(2, 3, Fraction(1, 2))
    S = zf.subalgebra(g, "q")
    assert S.basis == ((-12, 1, 6), (12, 1, 0))
    with pytest.raises(ValueError):
        zf.subalgebra(zf.make_zform(2, 3, 1), "q")  # needs q = 1/2

    gp = zf.subalgebra(zf.make_zform(2, 3, 6), "qp")
    assert gp.basis == ((-1, 12, 6), (1, 12, 0))
    with pytest.raises(ValueError):
        zf.subalgebra(zf.make_zform(2, 3, 1), "qp")

    gpp = zf.subalgebra(zf.make_zform(2, 4, 2), "qpp")
    assert gpp.basis == ((-1, 1, 2), (1, 1, 0))
    with pytest.raises(ValueError):
        zf.subalgebra(zf.make_zform(2, 3, 2), "qpp")  # m != 2n
    with pytest.raises(ValueError):
        zf.subalgebra(zf.make_zform(2, 4, 1), "qpp")  # wrong q

    maximal = zf.subalgebra(zf.make_zform(2, 3, Fraction(1, 2)), "maximal")
    assert maximal.basis == ((-12, 1, 6), (-4, 0, 1))

    with pytest.raises(ValueError):
        zf.subalgebra(g, "nonsense")


def test_subalgebras_closed_over_z():
    for n, m, q, label in [
        (1, 1, 1, "b"),
        (1, 1, 1, "bbar"),
        (2, 3, Fraction(1, 2), "q"),
        (2, 3, 6, "qp"),
        (3, 6, 3, "qpp"),
        (2, 3, Fraction(1, 2), "maximal"),
    ]:
        S = zf.subalgebra(zf.make_zform(n, m, q), label)
        assert zf.bracket_closed_over_z(S), label


def test_iwasawa_decompositions():
    gq = zf.make_zform(3, 2, Fraction(1, 2))
    table = zf.iwasawa_decompose(gq, zf.subalgebra(gq, "q"))
    nm = 6
    assert table["E"] == (Fraction(-1, 4 * nm), Fraction(1, 4 * nm), Fraction(1, 6))
    assert table["F"] == (Fraction(1, 2), Fraction(1, 2), Fraction(-2))

    gp = zf.make_zform(3, 2, 6)
    table = zf.iwasawa_decompose(gp, zf.subalgebra(gp, "qp"))
    assert table["E"] == (Fraction(-1, 2), Fraction(1, 2), Fraction(2))
    assert table["F"] == (Fraction(1, 24), Fraction(1, 24), Fraction(-1, 6))

    gpp = zf.make_zform(2, 4, 2)
    table = zf.iwasawa_decompose(gpp, zf.subalgebra(gpp, "qpp"))
    assert table["E"] == (Fraction(-1, 2), Fraction(1, 2), 1)
    assert table["F"] == (Fraction(1, 2), Fraction(1, 2), -1)


def test_iwasawa_re_expansion_property():
    """Re-expanding the decomposition reproduces E and F on a small grid."""
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            cases = [("q", Fraction(1, 2)), ("qp", Fraction(n * m))]
            if m == 2 * n:
                cases.append(("qpp", Fraction(n)))
            for label, qparam in cases:
                g = zf.make_zform(n, m, qparam)
                S = zf.subalgebra(g, label)
                table = zf.iwasawa_decompose(g, S)
                frame = [S.basis[0], S.basis[1], (0, 0, 1)]
                for name, gen in (("E", (1, 0, 0)), ("F", (0, 1, 0))):
                    acc = (0, 0, 0)
                    for c, vec in zip(table[name], frame):
                        acc = tuple(s + c * v for s, v in zip(acc, vec))
                    assert acc == gen


def test_iwasawa_rejects_non_parabolic():
    g = zf.make_zform(1, 1, 1)
    with pytest.raises(ValueError):
        zf.iwasawa_decompose(g, zf.subalgebra(g, "b"))


def test_solve_rational_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20173)
    for _ in range(80):
        count = rng.randint(1, 4)
        vectors = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(count)]
        A = sympy.Matrix([[v[k] for v in vectors] for k in range(3)])
        if rng.random() < 0.5:  # a consistent right-hand side
            x = sympy.Matrix([rng.randint(-3, 3) for _ in range(count)])
            target = tuple(int(c) for c in A * x)
        else:
            target = tuple(rng.randint(-3, 3) for _ in range(3))
        b = sympy.Matrix(target)
        try:
            A.gauss_jordan_solve(b)
            consistent = True
        except ValueError:
            consistent = False
        coeffs = zf._solve_rational(vectors, target)
        assert (coeffs is None) == (not consistent)
        if not consistent:
            continue
        assert A * sympy.Matrix(coeffs) == b
        if A.rank() == count:  # the unique solution
            assert sympy.Matrix(coeffs) == A.solve(b)
