"""Acceptance gate: seven criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
check is exact rational arithmetic, and the three timed criteria assert
their runtime targets.
"""

import time
from fractions import Fraction

from hclat import borelweil, contraction, dyadic, verify, weightmods, zforms
from hclat.scalars import LAURENT_RING, POLY, Laurent


class criterion:
    """Prints `criterion N (name): PASS/FAIL` and enforces a time budget."""

    def __init__(self, number, name, budget=None):
        self.number = number
        self.name = name
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        label = f"criterion {self.number} ({self.name})"
        if exc_type is not None:
            print(f"{label}: FAIL")
            return False
        if self.budget is not None and elapsed >= self.budget:
            print(f"{label}: FAIL (runtime {elapsed:.1f}s over {self.budget}s)")
            raise AssertionError(f"{label} exceeded {self.budget}s: {elapsed:.1f}s")
        print(f"{label}: PASS ({elapsed:.1f}s)")
        return False


def test_criterion_1_bracket_relations():
    window = range(-40, 41)
    with criterion(1, "bracket-relation suite", budget=30):
        for n in (1, 2, 3):
            for m in (1, 2, 3):
                g = zforms.make_zform(n, m, 1)
                for lam in range(-6, 7):
                    for build in (weightmods.induced_module, weightmods.produced_module):
                        M = build(g, lam)
                        assert weightmods.check_module_axioms(M, window) == [], (
                            f"{build.__name__}({n},{m},{lam})"
                        )
                mus = [Fraction(-2), Fraction(1, 3), Fraction(7, 2), Fraction(2 * n * m)]
                labels = ["q", "qp"] + (["qpp"] if m == 2 * n else [])
                for label in labels:
                    for k in range(n):
                        eps = Fraction(k, n)
                        for mu in mus:
                            M = weightmods.principal_series(n, m, label, eps, mu)
                            assert weightmods.check_module_axioms(M, window) == [], (
                                f"ps {label} ({n},{m},{eps},{mu})"
                            )
        for n in (1, 2, 3):
            for lam in (-6, -1, 0, 2, 5):
                for build in (contraction.contracted_induced, contraction.contracted_produced):
                    M = build(lam, n)
                    assert contraction.check_contraction_axioms(M, window) == []
        cps_samples = [
            (Fraction(0), "2z", POLY, 1),
            (Fraction(0), "z^2", POLY, 1),
            (Fraction(1, 2), "z", LAURENT_RING, 2),
            (Fraction(1, 3), "z^-1+5z", LAURENT_RING, 3),
        ]
        for eps, mu, ring, n in cps_samples:
            M = contraction.contracted_ps(eps, Laurent.parse(mu), ring, n=n)
            assert contraction.check_contraction_axioms(M, window) == []


def _residues(n):
    return [Fraction(k, n) for k in range(n)]


def test_criterion_2_lattice_formula_vs_oracle():
    with criterion(2, "lattice formula vs oracle", budget=60):
        # the oracle walks ORACLE_DEPTH steps: chains on this grid terminate
        # within ten steps when an extension exists, and a violating mu keeps
        # every coefficient nonzero at any depth
        for n in (1, 2, 3):
            for m in (1, 2, 3):
                for eps in _residues(n):
                    for mu in range(-12, 13):
                        for variant, exponent in (
                            ("q", dyadic.exponent_M),
                            ("qp", dyadic.exponent_N),
                            ("qpp", None),
                        ):
                            ok = dyadic.nonvanishing(variant, n, m, eps, mu)
                            if not ok:
                                try:
                                    dyadic.oracle_min_exponent(variant, 0, n, m, eps, mu)
                                    raise AssertionError(
                                        f"oracle accepted violating "
                                        f"{variant}({n},{m},{eps},{mu})"
                                    )
                                except dyadic.NoExtensionError:
                                    continue
                            if variant == "q":
                                top = dyadic.top_index(n, m, eps, mu)
                                ps = range(top - 8, top + 1)
                            elif variant == "qp":
                                bottom = dyadic.bottom_index(n, m, eps, mu)
                                ps = range(bottom, bottom + 9)
                            else:
                                ps = range(-4, 5)
                            for p in ps:
                                want = dyadic.oracle_min_exponent(variant, p, n, m, eps, mu)
                                got = exponent(p, n, m, eps, mu) if exponent else 0
                                assert got == want, (
                                    f"{variant}({n},{m},{eps},{mu}) at p={p}: "
                                    f"{got} != {want}"
                                )


def test_criterion_3_golden_values():
    with criterion(3, "golden values"):
        for a in range(13):
            assert dyadic.dyadic_defect_sum(2**a - 1) == a
        report = dyadic.integral_model("q", 1, 1, Fraction(0), Fraction(-2), (-2, 1))
        assert report.exponents == {1: 0, 0: 1, -1: 1, -2: 2}
        for mu in range(-9, 10):
            report = dyadic.integral_model(
                "qpp", 1, 2, Fraction(0), Fraction(mu), (-6, 6)
            )
            if mu % 2 == 0:
                assert report.nonzero
                assert set(report.exponents.values()) == {0}
            else:
                assert not report.nonzero
                assert report.exponents == {}


def test_criterion_4_classification_roundtrip():
    with criterion(4, "classification round trip"):
        for n in range(1, 6):
            for m in range(1, 6):
                for q in (1, -1, Fraction(1, 2), -Fraction(1, 2), 2, -2):
                    g = zforms.make_zform(n, m, q)
                    want = (n, m, abs(Fraction(q)))
                    assert zforms.classify(*zforms.presentation(g)) == want
                    # the sign quotient: q and -q give the same class
                    neg = zforms.presentation(zforms.make_zform(n, m, -q))
                    assert zforms.classify(*neg) == want
                    # a permuted basis (F listed first, negated) still classifies
                    swapped = zforms.presentation(g, order=(1, 0, 2), signs=(-1, 1, 1))
                    assert zforms.classify(*swapped) == want


def test_criterion_5_contraction_consistency():
    with criterion(5, "contraction consistency"):
        window = (-30, 30)
        for n in (1, 2, 3):
            g_ref = zforms.make_zform(n, 1, 1)
            for lam in (-4, -1, 0, 2, 4):
                S = contraction.specialize(contraction.contracted_induced(lam, n), 1)
                R = weightmods.induced_module(g_ref, lam)
                assert contraction.specialize_matches(S, R, window), f"ind {n},{lam}"
                S = contraction.specialize(contraction.contracted_produced(lam, n), 1)
                R = weightmods.produced_module(g_ref, lam)
                assert contraction.specialize_matches(S, R, window), f"pro {n},{lam}"
        ps_cases = [
            (1, Fraction(0), "2z"),
            (1, Fraction(0), "z"),
            (2, Fraction(1, 2), "2z"),
            (3, Fraction(1, 3), "6z"),
        ]
        for n, eps, mu_text in ps_cases:
            mu = Laurent.parse(mu_text)
            M = contraction.contracted_ps(eps, mu, LAURENT_RING, n=n)
            S = contraction.specialize(M, 1)
            mu_ref = n * mu.evaluate(1)
            R = weightmods.principal_series(n, 1, "q", eps, mu_ref)
            assert contraction.specialize_matches(S, R, window), f"ps {n},{eps},{mu_text}"
        assert contraction.phi_preserves_bracket() == []
        for mu_text in ("1", "1+z", "z", "2z", "z^2"):
            mu = Laurent.parse(mu_text)
            M = contraction.contracted_ps(Fraction(0), mu, POLY)
            if mu.coefficient(0) != 0:
                assert M.vanishing_reason is not None, f"mu={mu_text} should vanish"
            else:
                assert M.vanishing_reason is None
                report = contraction.polynomial_lattice(mu, (-12, 12))
                assert report["closed"], mu_text


def test_criterion_6_borelweil_suite():
    with criterion(6, "lattice duality and counit suite", budget=30):
        for lam in range(0, 13):
            mn = borelweil.minimal_lattice(lam)
            mx = borelweil.maximal_lattice(lam)
            index = borelweil.inclusion_index(mn, mx)
            assert index is not None and index >= 1, f"lambda={lam}"
            hom = borelweil.hom_lattice(mn, mx)
            assert hom["rank"] == 1 and hom["generator"] is not None, f"lambda={lam}"
            report = borelweil.maximality_certificate(mx, (2, 3, 5))
            assert report["certified"], (lam, report["failures"])
        for n in range(1, 21):
            for lam in range(-5, 6):
                if lam < -n:
                    continue
                witness = borelweil.counit_fraction_witness(lam, n)
                assert witness["fraction"] == Fraction(1, n) % 1


def test_criterion_7_known_discrepancy_report():
    with criterion(7, "known-discrepancy report"):
        report = verify.run_suite("modules")
        assert report["passed"]
        by_name = {c["name"]: c for c in report["checks"]}
        finding = by_name["qp_alternate_f_coefficient"]
        assert finding["status"] == "MISMATCH (documented)"
        assert by_name["bracket_relations"]["status"] == "pass"
