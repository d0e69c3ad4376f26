"""Denominator-exponent formulas against the brute-force recurrence oracle."""

import random
from fractions import Fraction
from math import gcd

import pytest

import reference
from hclat import dyadic, weightmods
from hclat.dyadic import (
    ORACLE_DEPTH,
    LatticeReport,
    NoExtensionError,
    bottom_index,
    dyadic_defect_sum,
    exponent_M,
    exponent_M_raw,
    exponent_N,
    integral_model,
    nonvanishing,
    oracle_check_report,
    oracle_min_exponent,
    top_index,
)
from hclat.scalars import in_ring, localized_integers, ord2, over_common_denominator


def residues(n):
    return [Fraction(k, n) for k in range(n)]


def criterion_grid(variant, nmax=3, mu_range=12):
    """All (n, m, eps, mu) with the nonvanishing criterion satisfied."""
    out = []
    for n in range(1, nmax + 1):
        for m in range(1, nmax + 1):
            for eps in residues(n):
                for mu in range(-mu_range, mu_range + 1):
                    if nonvanishing(variant, n, m, eps, mu):
                        out.append((n, m, eps, mu))
    return out


# -- frozen golden values ----------------------------------------------------


def test_golden_table_q_variant():
    # n = m = 1, eps = 0, mu = -2; top index is 1
    expected = {1: 0, 0: 1, -1: 1, -2: 2, -3: 1}
    for p, value in expected.items():
        assert exponent_M(p, 1, 1, 0, -2) == value


def test_golden_qp_value():
    assert exponent_N(2, 1, 1, 0, 2) == 1


def test_defect_sum_goldens():
    assert dyadic_defect_sum(7) == 3
    for a in range(13):
        assert dyadic_defect_sum(2**a - 1) == a


def test_defect_sum_is_binary_digit_sum():
    for s in range(0, 600):
        assert dyadic_defect_sum(s) == bin(s).count("1")


def test_nonvanishing_examples():
    assert nonvanishing("q", 1, 1, 0, -2)
    assert not nonvanishing("q", 2, 1, Fraction(1, 2), 0)
    assert nonvanishing("q", 2, 1, Fraction(1, 2), 2)
    assert nonvanishing("qpp", 1, 2, 0, 4)
    assert not nonvanishing("qpp", 1, 2, 0, 3)


# -- formula against the oracle ---------------------------------------------


def test_exponent_M_matches_oracle_on_grid():
    for n, m, eps, mu in criterion_grid("q"):
        top = top_index(n, m, eps, mu)
        for p in range(top - 8, top + 1):
            assert exponent_M(p, n, m, eps, mu) == oracle_min_exponent(
                "q", p, n, m, eps, mu
            ), (n, m, eps, mu, p)


def test_exponent_N_matches_oracle_on_grid():
    for n, m, eps, mu in criterion_grid("qp"):
        bottom = bottom_index(n, m, eps, mu)
        for p in range(bottom, bottom + 9):
            assert exponent_N(p, n, m, eps, mu) == oracle_min_exponent(
                "qp", p, n, m, eps, mu
            ), (n, m, eps, mu, p)


def test_qpp_oracle_is_zero_for_even_mu():
    for n in (1, 2):
        m = 2 * n
        for eps in residues(n):
            for mu in range(-8, 9, 2):
                for p in range(-3, 4):
                    assert oracle_min_exponent("qpp", p, n, m, eps, mu) == 0


def test_oracle_rejects_violating_parameters():
    # criterion fails: no exponent works, however large
    bad = [
        ("q", 2, 1, Fraction(1, 2), 0),
        ("q", 1, 1, 0, 1),
        ("qp", 3, 1, Fraction(1, 3), 1),
        ("qpp", 1, 2, 0, 3),
        ("qpp", 2, 4, Fraction(1, 2), -5),
    ]
    for variant, n, m, eps, mu in bad:
        assert not nonvanishing(variant, n, m, eps, mu)
        with pytest.raises(NoExtensionError):
            oracle_min_exponent(variant, 0, n, m, eps, mu)


def test_random_spot_checks_match_oracle():
    rng = random.Random(20260815)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        eps = Fraction(rng.randrange(n), n)
        # manufacture mu satisfying the q criterion: mu = 2nm(j - eps)
        j = rng.randint(-3, 3)
        mu = 2 * n * m * j - int(2 * n * m * eps)
        top = top_index(n, m, eps, Fraction(mu))
        p = top - rng.randint(0, 12)
        assert exponent_M(p, n, m, eps, mu) == oracle_min_exponent("q", p, n, m, eps, mu)


# -- structural invariants ---------------------------------------------------


def test_exponent_zero_at_top_and_bottom():
    for n, m, eps, mu in criterion_grid("q", nmax=3, mu_range=10):
        assert exponent_M(top_index(n, m, eps, mu), n, m, eps, mu) == 0
    for n, m, eps, mu in criterion_grid("qp", nmax=3, mu_range=10):
        assert exponent_N(bottom_index(n, m, eps, mu), n, m, eps, mu) == 0


def test_powers_of_two_are_units_after_localizing():
    for n, m, eps, mu in criterion_grid("q", nmax=2, mu_range=8):
        ring = localized_integers(2 * n * m)
        top = top_index(n, m, eps, mu)
        for p in range(top - 6, top + 1):
            e = exponent_M(p, n, m, eps, mu)
            assert e >= 0
            assert in_ring(Fraction(1, 2**e), ring)


def test_mirror_identity_corrected():
    # N_p(eps, mu) equals the M-formula at (-p, -eps, mu), termwise
    for n, m, eps, mu in criterion_grid("qp"):
        bottom = bottom_index(n, m, eps, mu)
        for p in range(bottom, bottom + 7):
            assert exponent_N(p, n, m, eps, mu) == exponent_M_raw(-p, n, m, -eps, mu)


def test_mirror_with_negated_mu_is_false():
    # negating mu instead of eps gives a different exponent already at
    # n = m = 1, eps = 0, mu = 2, p = 2
    assert exponent_N(2, 1, 1, 0, 2) == 1
    assert exponent_M(-2, 1, 1, 0, -2) == 2


# -- domain errors ------------------------------------------------------------


def test_index_above_top_weight_raises():
    with pytest.raises(ValueError, match="above top weight"):
        exponent_M(2, 1, 1, 0, -2)


def test_index_below_bottom_weight_raises():
    with pytest.raises(ValueError, match="below bottom weight"):
        exponent_N(0, 1, 1, 0, 2)


def test_vanishing_parameters_raise():
    with pytest.raises(ValueError, match="vanishes"):
        exponent_M(0, 2, 1, Fraction(1, 2), 0)
    with pytest.raises(ValueError, match="vanishes"):
        exponent_N(0, 1, 1, 0, 1)


def test_parameter_validation():
    with pytest.raises(ValueError, match="variant"):
        nonvanishing("borel", 1, 1, 0, 0)
    with pytest.raises(ValueError, match="residue"):
        nonvanishing("q", 2, 1, Fraction(1, 3), 0)
    with pytest.raises(ValueError, match="integer"):
        nonvanishing("q", 1, 1, 0, Fraction(1, 2))
    with pytest.raises(ValueError):
        dyadic_defect_sum(-1)
    # the boundary helpers validate like the exponents they bound
    for call, args in (
        (top_index, (0, 1, 0, 0)),
        (top_index, (-1, 1, 0, 0)),
        (bottom_index, (1, 0, 0, 0)),
        (exponent_M_raw, (0, 0, 1, 0, 0)),
    ):
        with pytest.raises(ValueError, match="must be a positive integer"):
            call(*args)
    for edge in (top_index, bottom_index):
        with pytest.raises(ValueError, match="mu must be an integer"):
            edge(1, 1, 0, Fraction(1, 2))
    with pytest.raises(ValueError, match="vanishes"):
        top_index(2, 1, Fraction(1, 2), 0)
    with pytest.raises(ValueError, match="vanishes"):
        bottom_index(1, 1, 0, 1)


# -- assembled reports --------------------------------------------------------


def test_integral_model_report_q():
    report = integral_model("q", 1, 1, 0, -2, (-3, 5))
    assert report.nonzero
    assert report.support.kind == "le" and report.support.bound == 1
    assert report.exponents == {1: 0, 0: 1, -1: 1, -2: 2, -3: 1}
    data = report.to_json(oracle_agrees=True)
    assert data["exponents"] == [[1, 0], [0, 1], [-1, 1], [-2, 2], [-3, 1]]
    assert data["oracle_agrees"] is True


def test_integral_model_report_vanishing():
    report = integral_model("q", 2, 1, Fraction(1, 2), 0, (-4, 4))
    assert not report.nonzero
    assert report.support is None
    assert report.exponents == {}
    assert report.to_json()["support"] is None


def test_integral_model_qpp_parity():
    even = integral_model("qpp", 1, 2, 0, 4, (-5, 5))
    assert even.nonzero and even.support.kind == "all"
    assert set(even.exponents.values()) == {0}
    assert sorted(even.exponents) == list(range(-5, 6))
    odd = integral_model("qpp", 1, 2, 0, 3, (-5, 5))
    assert not odd.nonzero and odd.exponents == {}


def test_oracle_check_report_agrees():
    for args in [("q", 1, 1, 0, -2), ("qp", 1, 1, 0, 2), ("qpp", 1, 2, 0, 4)]:
        variant, n, m, eps, mu = args
        window = (-4, 4) if variant != "q" else (top_index(n, m, Fraction(eps), Fraction(mu)) - 5, 4)
        report = integral_model(variant, n, m, eps, mu, window)
        assert oracle_check_report(report)


def test_oracle_check_report_detects_tampering():
    report = integral_model("q", 1, 1, 0, -2, (-3, 1))
    report.exponents[-2] = 7
    assert not oracle_check_report(report)


def test_oracle_check_report_reads_false_for_an_index_that_does_not_extend():
    # index 0 lies above the top index -3, so the oracle refuses it: a
    # disagreement, not a NoExtensionError
    report = integral_model("q", 1, 1, 0, 6, (-5, 2))
    report.exponents[0] = 0
    assert oracle_check_report(report) is False


def test_oracle_check_report_refuses_an_extension_outside_the_support(monkeypatch):
    # top index -3: the window's indices above it must not extend, though
    # the report holds no exponent for them
    report = integral_model("q", 1, 1, 0, 6, (-5, 2))
    assert report.support.bound == -3 and 0 not in report.exponents
    assert oracle_check_report(report)
    table = dyadic._oracle_table

    def extends_at_zero(variant, n, m, eps, mu, lo, hi):
        answers = table(variant, n, m, eps, mu, lo, hi)
        answers[0 - lo] = 0
        return answers

    monkeypatch.setattr(dyadic, "_oracle_table", extends_at_zero)
    assert not oracle_check_report(report)


def test_oracle_check_report_vanishing_params():
    report = integral_model("qp", 2, 1, Fraction(1, 2), 1, (-3, 3))
    assert not report.nonzero
    assert oracle_check_report(report)


def test_oracle_check_report_probes_the_whole_vanishing_window():
    # a report mislabelled as vanishing: the model over Z is nonzero with top
    # index -3, so indices 0 and +-1 have no extension but the window's do
    report = integral_model("q", 1, 1, 0, 6, (-8, -4))
    assert report.nonzero and report.support.bound == -3
    report.nonzero = False
    assert not oracle_check_report(report)


# -- reference routes: the per-index partial sum and the Fraction oracle ------


def reference_partial_sum(start, count):
    """max({-sum_{l=0..s} ord2(start + l/2) : 0 <= s < count} and {0})."""
    best = running = 0
    for l in range(count):
        running -= ord2(start + Fraction(l, 2))
        best = max(best, running)
    return best


def reference_M(p, n, m, eps_raw, mu):
    boundary = -Fraction(mu) / (2 * n * m) - eps_raw
    return reference_partial_sum(
        Fraction(mu) / (4 * n * m) + Fraction(p + eps_raw) / 2, int(boundary) - p
    )


def reference_N(p, n, m, eps, mu):
    bottom = Fraction(mu) / (2 * n * m) - eps
    return reference_partial_sum(
        Fraction(mu) / (4 * n * m) + Fraction(-p - eps) / 2, p - int(bottom)
    )


def reference_oracle(variant, p, n, m, eps, mu):
    """The recurrence walked with Fractions, one walk per tried exponent."""
    eps, mu = Fraction(eps), Fraction(mu)
    nonvanishing(variant, n, m, eps, mu)  # the same parameter validation

    def step(s):
        return dyadic._primary_multiplier(variant, n, m, eps, mu, p, s)

    def secondary():
        for s in range(5):
            for t in range(5):
                d = reference._secondary_multiplier(variant, n, m, eps, mu, p, s, t)
                if d.denominator != 1:
                    raise NoExtensionError("transverse multiplier")

    if variant in ("q", "qp"):
        chain = []
        for s in range(ORACLE_DEPTH):
            c = step(s)
            if c == 0:
                break
            chain.append(c)
        else:
            raise NoExtensionError("never terminates")
        secondary()
        for e in range(65):
            value = Fraction(2) ** e
            for c in chain:
                value *= c
                if value.denominator != 1:
                    break
            else:
                return e
        raise RuntimeError("exponent exceeds the search cap")
    for e in range(65):
        value, ok = Fraction(2) ** e, True
        for s in range(ORACLE_DEPTH):
            c = step(s)
            if c == 0:
                break
            value *= c
            if value.denominator != 1:
                ok = False
                break
        if ok:
            secondary()
            return e
    raise NoExtensionError("every tested exponent fails")


def outcome(route, *args):
    try:
        return route(*args)
    except (ValueError, RuntimeError) as exc:  # NoExtensionError is a ValueError
        return type(exc)


def random_parameters(rng, variant):
    """Random n, m <= 3 (m = 2n for qpp), eps and mu in [-40, 40]; half the
    draws meet the nonvanishing criterion."""
    n = rng.randint(1, 3)
    m = 2 * n if variant == "qpp" else rng.randint(1, 3)
    eps = Fraction(rng.randrange(n), n)
    mus = range(-40, 41)
    if rng.random() < 0.5:
        mus = [mu for mu in mus if nonvanishing(variant, n, m, eps, mu)]
    return n, m, eps, rng.choice(mus)


def test_oracle_matches_fraction_reference_off_grid():
    # seeded, off the fixed grids: n, m <= 3, mu in [-40, 40] odd and even,
    # vanishing models, and indices near the boundary, or about ORACLE_DEPTH
    # steps from it on either side (a chain longer than that never
    # terminates).  Every draw is checked against the integer walk; a
    # full-depth Fraction walk costs tens of milliseconds, so only the first
    # draw of each kind (variant, nonzero, parity of mu, outcome) is checked
    # against it too
    rng = random.Random(20261018)
    seen = set()
    for _ in range(300):
        variant = rng.choice(("q", "qp", "qpp"))
        n, m, eps, mu = random_parameters(rng, variant)
        if variant == "qpp":
            anchor = -eps - Fraction(mu, 2 * n)  # where the chain starts at zero
        elif variant == "q":
            anchor = -Fraction(mu, 2 * n * m) - eps
        else:
            anchor = Fraction(mu, 2 * n * m) - eps
        far = rng.choice((-1, 1)) * (ORACLE_DEPTH + rng.randint(-3, 3))
        p = int(anchor) + rng.choice((rng.randint(-6, 6), far))
        args = (variant, p, n, m, eps, mu)
        got = outcome(oracle_min_exponent, *args)
        assert got == outcome(reference.walk_oracle, *args), args
        kind = (variant, nonvanishing(variant, n, m, eps, mu), mu % 2,
                got if isinstance(got, type) else int)
        if kind not in seen:
            assert got == outcome(reference_oracle, *args), args
            seen.add(kind)
    # every variant met both kinds of model, odd and even mu, and both outcomes
    for variant in ("q", "qp", "qpp"):
        for nonzero in (True, False):
            assert any(v == variant and z == nonzero for v, z, _, _ in seen)
        assert any(v == variant and r is int for v, _, _, r in seen)
        assert any(v == variant and r is NoExtensionError for v, _, _, r in seen)
    assert {parity for _, _, parity, _ in seen} == {0, 1}


def test_least_exponent_matches_fraction_walk():
    # synthetic chains over denominators with odd primes: the prefix
    # denominators of the model chains are powers of two, these need not be
    rng = random.Random(7)
    for _ in range(400):
        d = rng.choice((1, 2, 3, 4, 6, 8, 12, 5, 36))
        b = rng.choice((-3, -2, -1, 1, 2, 3)) * rng.randint(1, 4)
        a0 = rng.randint(-30, 30)
        chain = [a for a in range(a0, a0 + b * rng.randint(0, 40), b) if a] or [d]
        cap = rng.choice((None, 3, 64))
        want, value = 0, Fraction(1)
        for a in chain:
            value *= Fraction(a, d)
            den = value.denominator
            if den & (den - 1) or (cap is not None and den > 2**cap):
                want = None
                break
            want = max(want, den.bit_length() - 1)
        assert reference._least_exponent(chain, d, cap) == want, (chain, d, cap)
    assert reference._least_exponent([1, 2], 3, None) is None  # 1/3: no power of two
    assert reference._least_exponent([1, 1, 1], 2, 2) is None  # needs 2^3 > 2^cap


def test_oracle_walk_keeps_its_integers_small(monkeypatch):
    # the reference walk's numerator keeps only the primes of D, so a
    # full-depth walk never builds a bignum: every gcd the walk takes has
    # word-sized operands
    widest = [0]

    def spy(*args):
        widest[0] = max(widest[0], *(abs(x).bit_length() for x in args))
        return gcd(*args)

    walks = [
        ("qpp", -3, 1, 2, 0, 4),  # full depth, D = 1
        ("q", -4000, 1, 1, 0, 0),
        ("qp", 4000, 3, 2, Fraction(1, 3), 16),
    ]
    want = [exponent_M(-4000, 1, 1, 0, 0), exponent_N(4000, 3, 2, Fraction(1, 3), 16)]
    monkeypatch.setattr(reference, "gcd", spy)
    assert [reference.walk_oracle(*walk) for walk in walks] == [0] + want
    assert 0 < widest[0] <= 64


def test_oracle_calls_nothing_from_the_formula_route(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle consulted the formula route")

    reports = [
        integral_model("q", 1, 1, 0, -2, (-6, 3)),
        integral_model("qp", 2, 1, Fraction(1, 2), 1, (-3, 3)),
    ]
    for name in ("_criterion", "_edge", "_exponents", "exponent_M", "exponent_N",
                 "exponent_M_raw", "dyadic_defect_sum"):
        monkeypatch.setattr(dyadic, name, forbidden)
    assert oracle_min_exponent("q", -3, 1, 1, 0, -2) == 1
    assert oracle_min_exponent("qp", 2, 1, 1, 0, 2) == 1
    assert oracle_min_exponent("qpp", -2, 1, 2, 0, 4) == 0
    with pytest.raises(NoExtensionError):
        oracle_min_exponent("qpp", 0, 1, 2, 0, 3)
    assert all(oracle_check_report(report) for report in reports)


# the coefficient of the principal series each oracle chain reads at step s
# (and transverse step t): (generator, index) of the primary chain and of
# the transverse one
CHAIN_COEFFICIENTS = {
    "q": (lambda p, s: ("E", p + s), lambda p, s, t: ("F", p - s + t)),
    "qp": (lambda p, s: ("F", p - s), lambda p, s, t: ("E", p + s - t)),
    "qpp": (lambda p, s: ("E", p - s), lambda p, s, t: ("E", p + s - t)),
}


def test_oracle_chains_are_principal_series_coefficients():
    rng = random.Random(27)
    for _ in range(400):
        variant = rng.choice(dyadic.VARIANTS)
        n = rng.randint(1, 4)
        m = 2 * n if variant == "qpp" else rng.randint(1, 4)
        eps = Fraction(rng.randrange(n), n)
        mu = Fraction(rng.randint(-60, 60))
        p, s, t = rng.randint(-30, 30), rng.randint(0, 30), rng.randint(0, 30)
        module = weightmods.principal_series(n, m, variant, eps, mu)
        primary, transverse = CHAIN_COEFFICIENTS[variant]
        case = (variant, n, m, eps, mu, p, s, t)
        assert dyadic._primary_multiplier(variant, n, m, eps, mu, p, s) == (
            module.coefficient(*primary(p, s))
        ), case
        assert reference._secondary_multiplier(variant, n, m, eps, mu, p, s, t) == (
            module.coefficient(*transverse(p, s, t))
        ), case


def test_oracle_depth_bounds_the_chain():
    # the q chain from p = top - k stops after k steps, and the qp chain from
    # p = bottom + k likewise: within ORACLE_DEPTH steps for k < ORACLE_DEPTH
    # only
    far = ORACLE_DEPTH - 1
    assert oracle_min_exponent("q", -far, 1, 1, 0, 0) == bin(far).count("1")
    assert oracle_min_exponent("qp", far, 1, 1, 0, 0) == bin(far).count("1")
    for variant, p in (("q", -ORACLE_DEPTH), ("qp", ORACLE_DEPTH)):
        with pytest.raises(NoExtensionError, match=f"never terminates within depth {ORACLE_DEPTH}"):
            oracle_min_exponent(variant, p, 1, 1, 0, 0)


def test_window_sweep_matches_per_index_partial_sums():
    rng = random.Random(314159)
    for _ in range(400):
        variant = rng.choice(("q", "qp"))
        n, m, eps, mu = random_parameters(rng, variant)
        if not nonvanishing(variant, n, m, eps, mu):
            continue
        if variant == "q":
            edge, exponent, reference = top_index(n, m, eps, mu), exponent_M, reference_M
        else:
            edge, exponent, reference = bottom_index(n, m, eps, mu), exponent_N, reference_N
        lo = edge + rng.randint(-70, 70)
        hi = lo + rng.randint(0, 60)
        report = integral_model(variant, n, m, eps, mu, (lo, hi))
        supported = [p for p in range(lo, hi + 1) if report.support.contains(p)]
        want = {p: reference(p, n, m, eps, mu) for p in supported}
        assert report.exponents == want, (variant, n, m, eps, mu, lo, hi)
        for p in supported[:: max(1, len(supported) // 4)]:
            assert exponent(p, n, m, eps, mu) == want[p]


def test_exponent_M_raw_matches_per_index_partial_sums():
    # arbitrary rational eps (and mu) with an integral boundary
    rng = random.Random(2718)
    for _ in range(200):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        mu = Fraction(rng.randint(-40, 40), rng.choice((1, 1, 2, 3)))
        boundary = rng.randint(-20, 20)
        eps_raw = -mu / (2 * n * m) - boundary
        p = boundary - rng.randint(0, 60)
        assert exponent_M_raw(p, n, m, eps_raw, mu) == reference_M(p, n, m, eps_raw, mu)


# -- reference route: the one-sweep window the digit-sum closed form replaced --


def _v2(x):
    return (x & -x).bit_length() - 1


def reference_sweep(sign, n, m, eps, mu, boundary, window):
    """{p: exponent} by the partial-sum recurrence G_p = -t_p + max(0, G_{p+-1}),
    swept from the support boundary, with term t_j = v2(mu +- 2nm(j + eps))
    - v2(4nm)."""
    lo, hi = window
    step = sign * 2 * n * m
    base = int(mu + step * eps)
    shift = _v2(4 * n * m)
    out = {boundary: 0} if lo <= boundary <= hi else {}
    run = 0
    for p in range(boundary - sign, (lo - 1) if sign > 0 else (hi + 1), -sign):
        run = max(0, run + shift - _v2(base + step * p))
        if lo <= p <= hi:
            out[p] = run
    return out


def test_digit_sum_closed_form_matches_reference_sweep():
    # every n, m <= 3, residue eps and mu in [-40, 40] meeting the criterion,
    # a window 300 deep on each side of the boundary; the dict order (from
    # the boundary outwards) is part of the report
    for variant, sign, edge in (("q", 1, top_index), ("qp", -1, bottom_index)):
        for n, m, eps, mu in criterion_grid(variant, nmax=3, mu_range=40):
            boundary = edge(n, m, eps, mu)
            window = (boundary - 300, boundary + 300)
            want = reference_sweep(sign, n, m, eps, mu, boundary, window)
            got = integral_model(variant, n, m, eps, mu, window).exponents
            assert list(got.items()) == list(want.items()), (variant, n, m, eps, mu)


def test_exponent_M_raw_matches_reference_sweep():
    rng = random.Random(1618)
    for _ in range(300):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        mu = Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3)))
        boundary = rng.randint(-20, 20)
        eps_raw = -mu / (2 * n * m) - boundary
        p = boundary - rng.randint(0, 300)
        want = reference_sweep(1, n, m, eps_raw, mu, boundary, (p, p))[p]
        assert exponent_M_raw(p, n, m, eps_raw, mu) == want


def test_exponent_far_from_the_boundary_is_a_digit_sum():
    # the closed form costs nothing per step of distance to the boundary
    mu = -20_000_000
    assert top_index(1, 1, 0, mu) == 10_000_000
    report = integral_model("q", 1, 1, 0, mu, (0, 0))
    assert report.exponents == {0: bin(10_000_000).count("1")}
    assert exponent_N(10**12, 1, 1, 0, 0) == bin(10**12).count("1")


# -- the window sweep against the per-index walk ------------------------------


def answer(route, *args):
    """What an oracle route returns, or the message of the NoExtensionError
    it raises: the entries of a window table."""
    try:
        return route(*args)
    except NoExtensionError as exc:
        return str(exc)


def oracle_anchor(variant, n, m, eps, mu):
    """Where the chains change behaviour: the q or qp support boundary (if
    it is an index), or the qpp index whose chain starts at its zero.  The
    chains that terminate within depth end depth indices further on, below
    the q boundary and above the others."""
    if variant == "q":
        anchor = -Fraction(mu, 2 * n * m) - eps
    elif variant == "qp":
        anchor = Fraction(mu, 2 * n * m) - eps
    else:
        anchor = -eps - Fraction(mu, 2 * n)
    return int(anchor)


def test_window_sweep_matches_per_index_walk():
    # seeded: every variant, eps = k/n and m with n, m <= 3, vanishing and
    # nonzero models, and windows across the support boundary or across the
    # index whose chain stops terminating within ORACLE_DEPTH; every index
    # gets the walk's exponent, or its exception message
    rng = random.Random(20261019)
    seen = set()
    for case in range(150):
        variant = ("q", "qp", "qpp")[case % 3]
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        eps = Fraction(rng.randrange(n), n)
        mus = range(-40, 41)
        if case % 2:
            mus = [mu for mu in mus if nonvanishing(variant, n, m, eps, mu)]
        mu = rng.choice(mus)
        edge = oracle_anchor(variant, n, m, eps, mu)
        edge += rng.choice((0, 0, -ORACLE_DEPTH if variant == "q" else ORACLE_DEPTH))
        lo = edge - rng.randint(0, 10)
        hi = edge + rng.randint(0, 10)
        table = dyadic._oracle_table(variant, n, m, eps, Fraction(mu), lo, hi)
        walks = [
            answer(reference.walk_oracle, variant, p, n, m, eps, mu) for p in range(lo, hi + 1)
        ]
        assert table == walks, (variant, n, m, eps, mu, lo, hi)
        for entry in table:
            seen.add((variant, entry if isinstance(entry, str) else int))
    outcomes = {
        variant: {a if a is int else a.split(":")[1].split()[0] for v, a in seen if v == variant}
        for variant in ("q", "qp", "qpp")
    }
    # "the chain never terminates" and "every tested exponent fails", never
    # "transverse multiplier": a q or qp chain terminates only on a nonzero
    # model, whose transverse multipliers are integers, a qpp model of odd mu
    # fails the cap first, and no model has an odd prime in its denominator
    assert outcomes["q"] == outcomes["qp"] == {int, "the"}
    assert outcomes["qpp"] == {int, "every"}


def test_direct_calls_agree_with_the_window_table():
    # a direct call builds the table of its one index, near the anchor or
    # about ORACLE_DEPTH steps from it
    for variant, n, m, eps, mu, shift in (
        ("q", 2, 3, Fraction(1, 2), 18, 0),
        ("q", 1, 1, 0, 0, -ORACLE_DEPTH),
        ("qp", 3, 1, Fraction(2, 3), -16, 0),
        ("qp", 3, 2, Fraction(1, 3), 16, ORACLE_DEPTH),
        ("qpp", 1, 2, 0, 5, 0),
        ("qpp", 2, 1, Fraction(1, 2), 6, ORACLE_DEPTH),
    ):
        lo = oracle_anchor(variant, n, m, eps, mu) + shift - 6
        table = dyadic._oracle_table(variant, n, m, eps, Fraction(mu), lo, lo + 12)
        for p, entry in zip(range(lo, lo + 13), table):
            assert answer(oracle_min_exponent, variant, p, n, m, eps, mu) == entry


def test_oracle_check_report_builds_one_table(monkeypatch):
    # one sweep per report, read directly: no oracle_min_exponent call
    builds, calls = [], []
    table, oracle = dyadic._oracle_table, dyadic.oracle_min_exponent
    monkeypatch.setattr(dyadic, "_oracle_table", lambda *a: builds.append(a) or table(*a))
    monkeypatch.setattr(dyadic, "oracle_min_exponent", lambda *a: calls.append(a) or oracle(*a))
    report = integral_model("qp", 1, 1, 0, 2, (1, 40))
    assert oracle_check_report(report)
    assert len(builds) == 1 and calls == []
    report = integral_model("q", 2, 1, Fraction(1, 2), 0, (-4, 4))
    assert oracle_check_report(report)
    assert len(builds) == 2 and calls == []


def test_oracle_check_report_rejects_an_exponent_outside_the_window():
    # the table covers the window only: an index beyond either end is
    # refused, not read from a wrapped-around entry
    for p in (-10, -4, 2, 5):
        report = integral_model("q", 1, 1, 0, -2, (-3, 1))
        report.exponents[p] = 0
        with pytest.raises(ValueError, match=f"exponent index {p} lies outside the window -3..1"):
            oracle_check_report(report)
    report = integral_model("q", 2, 1, Fraction(1, 2), 0, (-4, 4))
    report.exponents[-5] = 0
    with pytest.raises(ValueError, match="outside the window"):
        oracle_check_report(report)


def test_qpp_oracle_reads_n_only():
    # the qpp chains are E coefficients of the series, which hold n, eps
    # and mu but not m: the table at any m is the table at m = 2n, the only
    # m a qpp principal series accepts
    rng = random.Random(2718)
    for n in (1, 2, 3):
        for eps in residues(n):
            for mu in range(-6, 7):
                for m in (1, 2, 3, 5):
                    lo = oracle_anchor("qpp", n, m, eps, mu) - rng.randint(0, 6)
                    lo += rng.choice((0, ORACLE_DEPTH))
                    args = (eps, Fraction(mu), lo, lo + rng.randint(0, 8))
                    assert dyadic._oracle_table("qpp", n, m, *args) == dyadic._oracle_table(
                        "qpp", n, 2 * n, *args
                    ), (n, m, eps, mu, lo)


def test_models_reach_only_dyadic_progressions_and_integer_transverse_slopes():
    # the facts that the oracle's one 2-adic sweep and its lack of a
    # transverse test rest on, read off the multipliers rather than through
    # the oracle: a chain terminates only where the progression has an
    # integer zero, so only on a nonzero q or qp model, whose progression has
    # d = 2 and whose transverse multipliers are integers; a qpp progression
    # and its transverse multipliers have the denominator of mu/2, and for
    # odd mu every numerator of the progression is odd, so the 2^64 cap
    # refuses the chain first.  The transverse multipliers move by nm (q,
    # qp) or n (qpp) per step of s, and back by as much per step of t
    rng = random.Random(38)
    for _ in range(3000):
        variant = rng.choice(dyadic.VARIANTS)
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        eps = Fraction(rng.randrange(n), n)
        mu = Fraction(rng.randint(-40, 40))
        case = (variant, n, m, eps, mu)
        d, (a0, a1) = over_common_denominator(
            *(dyadic._primary_multiplier(variant, n, m, eps, mu, 0, t) for t in (0, 1))
        )
        p = rng.randint(-50, 50)
        den, (c, c_s, c_t) = over_common_denominator(
            *(
                reference._secondary_multiplier(variant, n, m, eps, mu, p, s, t)
                for s, t in ((0, 0), (1, 0), (0, 1))
            )
        )
        slope = n if variant == "qpp" else n * m
        assert c_s - c == slope * den and c_t - c == -slope * den, (*case, p)
        if variant == "qpp":
            assert d == den == (mu / 2).denominator, case
            assert d == 1 or (a0 % 2 == 1 and (a1 - a0) % 2 == 0), case
        elif nonvanishing(variant, n, m, eps, mu):
            assert d == 2 and den == 1, (*case, p)
        else:
            assert a0 % (a1 - a0) != 0, case


def test_walk_never_refuses_an_index_on_its_transverse_grid():
    # the premise of the table's missing transverse test, at ORACLE_DEPTH:
    # for every variant, n, m <= 4 and residue eps, and a seeded nonzero and
    # vanishing mu each, the per-index walk refuses no index of a window
    # across the boundary (or the qpp anchor) on its transverse grid, which
    # it tests at every index whose chain it accepts
    rng = random.Random(40)
    outcomes = {variant: set() for variant in dyadic.VARIANTS}
    for variant in dyadic.VARIANTS:
        for n in range(1, 5):
            for m in range(1, 5):
                for eps in residues(n):
                    for nonzero in (True, False):
                        mus = [
                            mu for mu in range(-60, 61)
                            if nonvanishing(variant, n, m, eps, mu) == nonzero
                        ]
                        mu = rng.choice(mus)
                        edge = oracle_anchor(variant, n, m, eps, mu)
                        for p in range(edge - 3, edge + 4):
                            walk = answer(reference.walk_oracle, variant, p, n, m, eps, mu)
                            assert "transverse" not in str(walk), (variant, n, m, eps, mu, p)
                            outcomes[variant].add(walk if isinstance(walk, str) else int)
    never = f"no extension: the chain never terminates within depth {ORACLE_DEPTH}"
    assert outcomes["q"] == outcomes["qp"] == {int, never}
    assert outcomes["qpp"] == {int, "no extension: every tested exponent fails (odd mu)"}


def test_chain_maxima_match_the_gcd_walk_on_model_denominators():
    # progressions over the denominators models have, with chains cut as
    # the oracle cuts them: at depth or at the zero.  The oracle sweeps
    # d = 2 and reads every exponent of d = 1 as 0, which the general walk
    # must confirm
    rng = random.Random(11)
    for _ in range(300):
        d = rng.choice((1, 2))
        b = rng.choice((-3, -2, -1, 1, 2, 3)) * rng.randint(1, 4)
        a0 = rng.randint(-30, 30)
        zero = -a0 // b if a0 % b == 0 else None
        depth = rng.randint(0, 40)
        starts = sorted(rng.sample(range(-40, 40), rng.randint(1, 12)))
        chains = [
            (t, zero if zero is not None and t <= zero < t + depth else t + depth)
            for t in starts
        ]
        cap = rng.choice((None, 0, 3, 64))
        want = [
            reference._least_exponent(range(a0 + b * t, a0 + b * end, b), d, cap)
            for t, end in chains
        ]
        got = dyadic._chain_maxima(a0, b, chains, cap) if d == 2 else [0] * len(chains)
        assert got == want, (a0, b, d, chains, cap)


def test_limit_windows_match_the_formulas():
    # the costliest oracle documents the CLI accepts, against the closed
    # forms rather than the slow walk
    for variant, n, m, eps, mu, window in (
        ("q", 1, 1, 0, 0, (-4095, -2095)),
        ("qp", 1, 1, 0, 0, (2095, 4095)),
        ("qp", 3, 2, Fraction(1, 3), 16, (1 + 4095 - 2000, 1 + 4095)),
        ("qpp", 1, 2, 0, 123456789012345678901234567890, (0, 2000)),
        ("qpp", 2, 4, Fraction(1, 2), 10**42 + 2, (-1000, 1000)),
    ):
        report = integral_model(variant, n, m, eps, mu, window)
        assert len(report.exponents) == 2001
        table = dyadic._oracle_table(variant, n, m, eps, Fraction(mu), *window)
        formula = exponent_M if variant == "q" else exponent_N
        for p, value in zip(range(window[0], window[1] + 1), table):
            want = 0 if variant == "qpp" else formula(p, n, m, eps, mu)
            assert value == want == report.exponents[p], (variant, p)
        assert oracle_check_report(report)
    # one past the reach: the farthest chain no longer terminates
    table = dyadic._oracle_table("q", 1, 1, 0, Fraction(0), -4096, -4095)
    assert table == [
        "no extension: the chain never terminates within depth 4096",
        bin(4095).count("1"),
    ]
