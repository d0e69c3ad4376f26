"""Window tables column by column in integers, against the cell-by-cell
route of ``reference.module_rows`` (one ``coefficient`` call and one
``str()`` per cell, the weight read off H or h).

Seeded draws cover every constructed family, the fibres of the
contraction, random coefficient polynomials on every support kind, and
windows inside, across and outside a support boundary.
"""

import random
from fractions import Fraction

import pytest

import reference
from hclat import contraction as ct
from hclat import weightmods as wm
from hclat.scalars import LAURENT_RING, POLY, Laurent
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
