"""Window tables column by column in integers, against the cell-by-cell
route of ``reference.module_rows`` (one ``coefficient`` call and one
``str()`` per cell, the weight read off H or h).

Seeded draws cover every constructed family, the fibres of the
contraction, random coefficient polynomials on every support kind, and
windows inside, across and outside a support boundary.  Fixed cases cover
windows as wide as the CLI accepts, supported parts shorter than a
column's degree + 1 (where no difference is extended), zero and constant
polynomials, unreduced column ratios and parameters near 10^30; a guard
counts the indices at which each polynomial is evaluated.
"""

import random
from fractions import Fraction

import pytest

import reference
from hclat import cli
from hclat import contraction as ct
from hclat import weightmods as wm
from hclat.scalars import LAURENT_RING, POLY, Laurent, format_columns
from hclat.zforms import make_zform


def _windows(rng, count=6):
    """Fixed windows around 0, and count random ones within [-15, 27]."""
    fixed = [(0, 0), (-3, 3), (-12, -1), (1, 12), (-1, 0)]
    drawn = []
    for _ in range(count):
        lo = rng.randint(-15, 15)
        drawn.append((lo, lo + rng.randint(0, 12)))
    return fixed + drawn


def _assert_same(M, windows):
    for lo, hi in windows:
        assert wm.module_rows(M, lo, hi) == reference.module_rows(M, lo, hi), (lo, hi)


def _random_fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6)))


def _random_laurent(rng, lowest=-2):
    terms = rng.randint(0, 3)
    return Laurent({rng.randint(lowest, 2): _random_fraction(rng) for _ in range(terms)})


def test_induced_and_produced():
    rng = random.Random(1610)
    for n in (1, 2, 3):
        for m in (1, 2, 5):
            g = make_zform(n, m, 1)
            for lam in range(-3, 4):
                for build in (wm.induced_module, wm.produced_module):
                    _assert_same(build(g, lam), _windows(rng, 2))


@pytest.mark.parametrize("label", ["q", "qp", "qpp"])
def test_principal_series(label):
    rng = random.Random(f"ps-{label}")
    for n in (1, 2, 3, 4):
        for m in (2 * n,) if label == "qpp" else (1, 2, 3):
            for _ in range(4):
                eps = Fraction(rng.randrange(n), n)
                mu = _random_fraction(rng)
                M = wm.principal_series(n, m, label, eps, mu)
                _assert_same(M, _windows(rng, 2))
                if label == "qp":
                    # the alternate printed F-coefficient mu/2nm - p - eps
                    F = wm.affine(mu / (2 * n * m) - eps, -1)
                    _assert_same(M.with_action("F", -1, F), _windows(rng, 2))


@pytest.mark.parametrize("ring", [POLY, LAURENT_RING], ids=lambda r: r.name)
def test_contracted_families_and_fibres(ring):
    rng = random.Random(f"contract-{ring.name}")
    for n in (1, 2, 3):
        for lam in (-2, 0, 3):
            for build in (ct.contracted_induced, ct.contracted_produced):
                M = build(lam, n)
                _assert_same(M, _windows(rng, 2))
                _assert_same(ct.specialize(M, _random_fraction(rng) or 1), _windows(rng, 1))
        for _ in range(6):
            eps = Fraction(rng.randrange(n), n)
            # negative z-exponents only over the Laurent ring
            mu = _random_laurent(rng, lowest=-2 if ring is LAURENT_RING else 0)
            M = ct.contracted_ps(eps, mu, ring, n=n)
            _assert_same(M, _windows(rng, 2))
            if M.vanishing_reason is None:
                fibre = ct.specialize(M, rng.choice((1, -2, Fraction(1, 3))))
                _assert_same(fibre, _windows(rng, 1))


def test_negative_z_exponents_print_like_laurent_text():
    M = ct.contracted_ps(Fraction(1, 2), Laurent.parse("-3z^-2 + 1/2 - 4z"), LAURENT_RING, n=2)
    rows = wm.module_rows(M, -2, 2)
    assert rows == reference.module_rows(M, -2, 2)
    # e(p) = mu/2z + p + eps and f(p) = mu/2 - z(p + eps) at p = -2, eps = 1/2
    assert rows[0][:4] == [-2, -3, "-3/2*z^-3 + 1/4*z^-1 - 7/2", "-3/2*z^-2 + 1/4 - 1/2*z"]


@pytest.mark.parametrize("laurent", [False, True])
def test_random_index_polynomials_on_every_support(laurent):
    """Random coefficient polynomials (with unreduced column ratios) and
    shifts up to 2, on half-lines either way and on all of Z."""
    rng = random.Random(1620 + laurent)
    for _ in range(120):
        kind = rng.choice(("ge", "le", "all"))
        support = wm.Support(kind, rng.randint(-5, 5) if kind != "all" else 0)
        n = rng.randint(1, 3)
        w0 = rng.randint(-4, 4)
        draw = (lambda: _random_laurent(rng)) if laurent else (lambda: _random_fraction(rng))
        e, f = (
            (rng.randint(-2, 2), wm.IndexPoly([draw() for _ in range(rng.randint(0, 3))]))
            for _ in range(2)
        )
        if laurent:
            h = wm.IndexPoly([Laurent.const(Fraction(2 * w0, n)), 2])
            actions = {"e": e, "f": f, "h": (0, h)}
        else:
            actions = {"E": e, "F": f, "H": (0, wm.affine(w0, n))}
        M = wm.WeightModule((), support, actions, {"n": n})
        _assert_same(M, _windows(rng, 3))


def test_vanishing_modules_have_no_rows():
    for mu in ("1", "1 + z", "-2 + 3z^2"):
        M = ct.contracted_ps(Fraction(0), Laurent.parse(mu), POLY)
        assert M.vanishing_reason is not None
        assert wm.module_rows(M, -4, 4) == reference.module_rows(M, -4, 4) == []


def test_columns_take_no_per_cell_route(monkeypatch):
    """The table kernel neither asks the module for single cells nor
    prints a Fraction or a Laurent polynomial."""

    def refuse(*args):
        raise AssertionError("per-cell route taken")

    g = make_zform(2, 3, 1)
    modules = [
        wm.induced_module(g, 2),
        wm.principal_series(2, 3, "qp", Fraction(1, 2), Fraction(5)),
        ct.contracted_ps(Fraction(0), Laurent.parse("z^-1 + 2z"), LAURENT_RING),
    ]
    expected = [reference.module_rows(M, -3, 3) for M in modules]
    monkeypatch.setattr(wm.WeightModule, "coefficient", refuse)
    monkeypatch.setattr(Fraction, "__str__", refuse)
    monkeypatch.setattr(Laurent, "__str__", refuse)
    assert [wm.module_rows(M, -3, 3) for M in modules] == expected


def test_laurent_str_matches_reference_text():
    rng = random.Random(1630)
    for _ in range(300):
        x = _random_laurent(rng, lowest=-3)
        assert str(x) == reference.laurent_text(x), x.coeffs


def _families(big=0):
    """One module of every family and one fibre of each contracted family,
    with lambda and mu shifted by big."""
    g = make_zform(2, 3, 1)
    cind = ct.contracted_induced(3 + big, 2)
    mu = Laurent.parse("-3z^-2 + 1/2 - 4z") + big
    cps = ct.contracted_ps(Fraction(1, 2), mu, LAURENT_RING, n=2)
    return [
        wm.induced_module(g, 4 + big),
        wm.produced_module(g, -3 + big),
        wm.principal_series(2, 3, "q", Fraction(1, 2), Fraction(5, 3) + big),
        wm.principal_series(2, 3, "qp", Fraction(0), Fraction(-7, 6) + big),
        wm.principal_series(2, 4, "qpp", Fraction(1, 2), Fraction(3) + big),
        cind,
        ct.contracted_produced(-2 + big, 3),
        ct.contracted_ps(Fraction(0), Laurent.parse("2z + z^2") * (big + 1), POLY),
        cps,
        ct.specialize(cind, 3),
        ct.specialize(cps, Fraction(-1, 2)),
    ]


def test_windows_at_the_width_limit():
    width = cli.WINDOW_MAX_WIDTH
    for M in _families():
        for lo in (-width // 2, -7, -width + 3):
            rows = wm.module_rows(M, lo, lo + width - 1)
            assert rows == reference.module_rows(M, lo, lo + width - 1), lo
        supported = width if M.support.kind == "all" else width - 7
        assert len(wm.module_rows(M, -7, width - 8)) == supported


def test_supported_part_shorter_than_a_column():
    """One or two supported indices of quadratic columns, with the F column
    cut further by its target, on both kinds of half-line."""
    g = make_zform(2, 3, 1)
    for M in (wm.induced_module(g, 4), wm.produced_module(g, -3), ct.contracted_induced(3, 2)):
        assert max(len(poly.coeffs) for _, poly in M.actions.values()) == 3
        flipped = wm.WeightModule(
            M.relations, wm.Support("le", 5), M.actions, M.params, M.vanishing_reason
        )
        for lo, hi, count in ((-9, 0, 1), (-9, 1, 2), (0, 0, 1), (0, 1, 2), (1, 2, 2)):
            # the mirror image of lo..hi across 0 cuts as many from p <= 5
            mirror = (5 - hi, 5 - lo) if lo >= 0 else (5 - hi, 14)
            for N, (a, b) in ((M, (lo, hi)), (flipped, mirror)):
                rows = wm.module_rows(N, a, b)
                assert len(rows) == count and rows == reference.module_rows(N, a, b)


def test_zero_and_constant_polynomials():
    zero, laurent_zero = wm.IndexPoly([]), wm.IndexPoly([Laurent()])
    assert zero.coeffs == laurent_zero.coeffs == ()
    cases = [
        {"E": (1, zero), "F": (-1, wm.IndexPoly([Fraction(-3, 4)])), "H": (0, wm.affine(2, 1))},
        {"E": (1, wm.IndexPoly([7])), "F": (-1, zero), "H": (0, wm.IndexPoly([5]))},
        {"E": (1, zero), "F": (-1, zero), "H": (0, zero)},
        {
            "e": (1, wm.IndexPoly([Laurent.parse("-z^-1 + 2/3")])),
            "f": (-1, laurent_zero),
            "h": (0, wm.IndexPoly([Laurent.const(4), 2])),
        },
        {
            # a Laurent column that is constant next to one that is not
            "e": (1, wm.IndexPoly([Laurent.parse("1/2 - z^3"), Laurent.parse("-1/3")])),
            "f": (-1, wm.IndexPoly([0, 0, Laurent.parse("z^-2")])),
            "h": (0, wm.IndexPoly([0, 2])),
        },
    ]
    for actions in cases:
        for support in (wm.Support("all"), wm.Support("ge", -2), wm.Support("le", 1)):
            M = wm.WeightModule((), support, actions, {"n": 2})
            for lo, hi in ((-6, 6), (0, 0), (-2, -1), (-40, 40)):
                assert wm.module_rows(M, lo, hi) == reference.module_rows(M, lo, hi)


def test_unreduced_column_ratios():
    """(2p^2 + 3p + 1)/6 and (p^2 - p)/4, held over the denominators 6 and
    4, reduce to 1, 2, 3 or 6 along their columns, so a column prints
    several suffixes; likewise a Laurent column pair over 6 and 4."""
    quadratic = wm.IndexPoly([Fraction(1, 6), Fraction(1, 2), Fraction(1, 3)])
    pairs = wm.IndexPoly([0, Fraction(-1, 4), Fraction(1, 4)])
    laurent = wm.IndexPoly(map(Laurent.parse, ("1/6 - 1/4*z", "1/2 + 1/4*z", "1/3")))
    assert [den for _, den, _ in laurent.column_values(0, 0)] == [6, 4]
    actions = {"E": (1, quadratic), "F": (-1, pairs), "H": (0, wm.affine(0, 1))}
    M = wm.WeightModule((), wm.Support("all"), actions, {"n": 1})
    rows = wm.module_rows(M, -30, 30)
    assert rows == reference.module_rows(M, -30, 30)
    assert {cell.partition("/")[2] for row in rows for cell in row[2:4]} == {"", "2", "3", "6"}
    actions = {"e": (1, laurent), "h": (0, wm.IndexPoly([0, 2]))}
    C = wm.WeightModule((), wm.Support("all"), actions, {"n": 2})
    assert wm.module_rows(C, -30, 30) == reference.module_rows(C, -30, 30)


def test_parameters_near_ten_to_the_thirty():
    for big in (10**30, -(10**30) - 1, 3 * 10**29 + 7):
        for M in _families(big):
            for lo, hi in ((-40, 40), (-3, 2)):
                assert wm.module_rows(M, lo, hi) == reference.module_rows(M, lo, hi)


def test_each_column_is_evaluated_at_degree_plus_one_indices(monkeypatch):
    width = cli.WINDOW_MAX_WIDTH
    modules = _families()
    expected = [reference.module_rows(M, -width // 2, width // 2) for M in modules]
    calls = {}
    terms = wm.IndexPoly.terms

    def counted(poly, p):
        calls[id(poly)] = calls.get(id(poly), 0) + 1
        return terms(poly, p)

    monkeypatch.setattr(wm.IndexPoly, "terms", counted)
    for M, rows in zip(modules, expected):
        calls.clear()
        assert wm.module_rows(M, -width // 2, width // 2) == rows
        polys = {id(poly): poly for _, poly in M.actions.values()}
        assert calls and calls.keys() <= polys.keys()
        assert all(count <= len(polys[key].coeffs) for key, count in calls.items()), calls


def test_format_columns_matches_the_per_cell_route():
    """Random integer columns, with zeros, constant columns and ratios
    that are not reduced, printed per row by ``reference.format_terms``."""
    rng = random.Random(1640)
    for _ in range(400):
        rows = rng.randint(1, 6)
        exps = sorted(rng.sample(range(-3, 4), rng.randint(1, 4)))
        columns = []
        for e in exps:
            den = rng.choice((1, 2, 4, 6, 12))
            if rng.random() < 0.3:
                nums = [rng.randint(-12, 12)] * rows
            else:
                nums = [rng.choice((0, rng.randint(-30, 30))) for _ in range(rows)]
            columns.append((e, den, nums))
        expected = [
            reference.format_terms((e, nums[i], den) for e, den, nums in columns)
            for i in range(rows)
        ]
        assert format_columns(columns) == expected, columns
        x = Laurent({e: Fraction(nums[0], den) for e, den, nums in columns})
        assert str(x) == reference.format_terms(
            (e, c.numerator, c.denominator) for e, c in sorted(x.coeffs.items())
        )
