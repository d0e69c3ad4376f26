"""Split Z-forms: brackets, realization, classification, parabolic frames."""

import itertools
import random
from fractions import Fraction

import pytest

from hclat import zforms as zf
from reference import rref, solve


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
    assert zf.bracket_coords(g.n, g.m, H, E) == (2, 0, 0)
    assert zf.bracket_coords(g.n, g.m, H, F) == (0, -2, 0)
    assert zf.bracket_coords(g.n, g.m, E, F) == (0, 0, 3)
    assert zf.weights(g) == (2, -2, 0)


def test_jacobi_all_small_forms():
    for n in range(1, 6):
        for m in range(1, 6):
            assert zf.check_jacobi(zf.make_zform(n, m, 1))


def test_realization_is_bracket_homomorphism():
    for n, m, q in [(1, 1, Fraction(1, 2)), (2, 1, 1), (3, 4, Fraction(-2))]:
        assert zf.check_realization_bracket(zf.make_zform(n, m, q))
    # negative control: the identity map g_{2,1} -> g_{2,2} breaks [E, F] only
    failures = zf.bracket_failures((1, 1, 1), (2, 1), (2, 2))
    assert failures == [(0, 1, (0, 0, 2), (0, 0, 1)), (1, 0, (0, 0, -2), (0, 0, -1))]


def test_realization_matrices():
    # the scales of E -> qe, F -> (nm/2q)f, H -> (n/2)h on (e, f, h)
    assert zf.realization(zf.make_zform(2, 1, 1)) == (1, 1, 1)
    assert zf.realization(zf.make_zform(3, 4, Fraction(-2))) == (-2, -3, Fraction(3, 2))
    assert zf.realization(zf.make_zform(2, 3, Fraction(1, 2))) == (Fraction(1, 2), 6, 1)
    # presentation tables carry them as 2x2 matrices
    rE, rF, rH = zf.presentation(zf.make_zform(2, 1, 1))[2]
    assert rE == ((0, 1), (0, 0))
    assert rF == ((0, 0), (1, 0))
    assert rH == ((1, 0), (0, -1))
    rE, rF, rH = zf.presentation(zf.make_zform(3, 4, Fraction(-2)), signs=(1, -1, 1))[2]
    assert rE == ((0, -2), (0, 0))
    assert rF == ((0, 0), (3, 0))
    assert rH == ((Fraction(3, 2), 0), (0, Fraction(-3, 2)))


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

    with pytest.raises(ValueError):
        zf.subalgebra(g, "nonsense")


def test_subalgebras_closed_over_z():
    for n, m, q, label in [
        (1, 1, 1, "b"),
        (2, 3, Fraction(1, 2), "q"),
        (2, 3, 6, "qp"),
        (3, 6, 3, "qpp"),
    ]:
        S = zf.subalgebra(zf.make_zform(n, m, q), label)
        assert zf.bracket_closed_over_z(S), label


def test_iwasawa_decompositions():
    gq = zf.make_zform(3, 2, Fraction(1, 2))
    table = zf.iwasawa_decompose(zf.subalgebra(gq, "q"))
    nm = 6
    assert table["E"] == (Fraction(-1, 4 * nm), Fraction(1, 4 * nm), Fraction(1, 6))
    assert table["F"] == (Fraction(1, 2), Fraction(1, 2), Fraction(-2))

    gp = zf.make_zform(3, 2, 6)
    table = zf.iwasawa_decompose(zf.subalgebra(gp, "qp"))
    assert table["E"] == (Fraction(-1, 2), Fraction(1, 2), Fraction(2))
    assert table["F"] == (Fraction(1, 24), Fraction(1, 24), Fraction(-1, 6))

    gpp = zf.make_zform(2, 4, 2)
    table = zf.iwasawa_decompose(zf.subalgebra(gpp, "qpp"))
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
                table = zf.iwasawa_decompose(S)
                frame = [S.basis[0], S.basis[1], (0, 0, 1)]
                for name, gen in (("E", (1, 0, 0)), ("F", (0, 1, 0))):
                    acc = (0, 0, 0)
                    for c, vec in zip(table[name], frame):
                        acc = tuple(s + c * v for s, v in zip(acc, vec))
                    assert acc == gen


def test_iwasawa_rejects_non_parabolic():
    g = zf.make_zform(1, 1, 1)
    with pytest.raises(ValueError):
        zf.iwasawa_decompose(zf.subalgebra(g, "b"))


# -- the closed-form solves against elimination ---------------------------------
#
# reference.solve is rational Gauss-Jordan elimination (reference.rref), the
# route the closed forms replaced; sympy, when it is importable, is a second
# and independent one.


def _sympy():
    try:
        import sympy
    except ImportError:
        return None
    return sympy


def _sympy_solve(sympy, vectors, target):
    """The unique solution by sympy, or None when target is outside the span."""
    A = sympy.Matrix([[v[k] for v in vectors] for k in range(len(target))])
    try:
        solution, params = A.gauss_jordan_solve(sympy.Matrix(target))
    except ValueError:
        return None
    assert not params  # the columns are independent
    return [Fraction(int(c.p), int(c.q)) for c in solution]


def test_solve_pair_matches_elimination():
    sympy = _sympy()
    rng = random.Random(20173)
    solvable = unsolvable = dependent = 0
    for _ in range(600):
        size = rng.choice((2, 3))
        u, v = (tuple(rng.randint(-3, 3) for _ in range(size)) for _ in range(2))
        if rng.random() < 0.5:  # a target in the span
            a, b = rng.randint(-4, 4), rng.randint(-4, 4)
            target = tuple(a * x + b * y for x, y in zip(u, v))
        else:
            target = tuple(rng.randint(-4, 4) for _ in range(size))
        _, pivots = rref([[x, y] for x, y in zip(u, v)], 2)
        if len(pivots) < 2:
            dependent += 1
            with pytest.raises(ValueError, match="dependent"):
                zf._solve_pair(u, v, target)
            continue
        got = zf._solve_pair(u, v, target)
        expected = solve([u, v], target)
        assert got == (None if expected is None else tuple(expected))
        if sympy is not None:
            assert _sympy_solve(sympy, [u, v], target) == expected
        solvable += got is not None
        unsolvable += got is None
    assert min(solvable, unsolvable, dependent) > 20


def _frames():
    """Every q and qp frame with n, m <= 4, and qpp with m = 2n."""
    for n in range(1, 5):
        for m in range(1, 5):
            yield from ((n, m, label) for label in ("q", "qp"))
        yield n, 2 * n, "qpp"


def test_iwasawa_decompose_matches_elimination():
    sympy = _sympy()
    for n, m, label in _frames():
        S = zf.subalgebra(zf.parabolic_form(n, m, label), label)
        frame = [S.basis[0], S.basis[1], (0, 0, 1)]
        table = zf.iwasawa_decompose(S)
        for name, gen in (("E", (1, 0, 0)), ("F", (0, 1, 0))):
            expected = solve(frame, gen)
            assert list(table[name]) == expected, (n, m, label, name)
            if sympy is not None:
                assert _sympy_solve(sympy, frame, gen) == expected


def test_presentation_matches_elimination():
    """Every bracket coefficient of every presentation of g_{2,3} over all
    six basis orders and eight sign patterns, against solving for it."""
    g = zf.make_zform(2, 3, Fraction(1, 2))
    base = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for order in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            brackets, _, _ = zf.presentation(g, order, signs)
            basis = [tuple(signs[k] * x for x in base[order[k]]) for k in range(3)]
            assert sorted(brackets) == list(zf.PAIRS)
            for (i, j), coeffs in brackets.items():
                target = zf.bracket_coords(g.n, g.m, basis[i], basis[j])
                assert list(coeffs) == solve(basis, target), (order, signs, i, j)
            if signs[order.index(2)] == 1:  # classify reads H as given
                assert zf.classify(*zf.presentation(g, order, signs)) == (2, 3, Fraction(1, 2))
    for order, signs in (((0, 1, 1), (1, 1, 1)), ((0, 1, 2), (2, 1, 1)), ((0, 1, 2), (1, 0, 1))):
        with pytest.raises(ValueError, match="permute"):
            zf.presentation(g, order, signs)


def test_presentation_json_rejects_malformed_tables():
    g = zf.make_zform(2, 3, 1)
    good = zf.presentation_to_json(*zf.presentation(g))
    bad = [
        [good],
        {"weights": good["weights"], "realization": good["realization"]},
        dict(good, weights=[2, -2]),
        dict(good, weights=[2, -2, "0"]),
        dict(good, brackets=good["brackets"][:2]),
        dict(good, brackets=good["brackets"][:2] + [good["brackets"][0]]),
        dict(good, brackets=good["brackets"][:2] + [[2, 1, ["0", "0", "0"]]]),
        dict(good, brackets=good["brackets"][:2] + [[[1], 2, ["0", "0", "0"]]]),
        dict(good, brackets=good["brackets"][:2] + [[1, 2, ["0", "0"]]]),
        dict(good, brackets=good["brackets"][:2] + [[1, 2, [None, "0", "0"]]]),
        dict(good, brackets=good["brackets"][:2] + [[1, 2, [[[0, "1"]], "0", "0"]]]),
        dict(good, brackets=good["brackets"][:2] + [[1, 2, ["x", "0", "0"]]]),
        dict(good, realization=good["realization"][:2]),
        dict(good, realization=good["realization"][:2] + [[["0", "0"]]]),
        dict(good, realization=good["realization"][:2] + [[["0", "0"], ["0", 0.5]]]),
    ]
    for data in bad:
        with pytest.raises(ValueError):
            zf.presentation_from_json(data)
