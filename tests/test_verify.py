"""The invariant suites: all pass on a healthy build, documented findings
are labeled, and a corrupted build turns into a hard failure."""

import pytest

from hclat import contraction, dyadic, verify


@pytest.fixture(scope="module")
def full_report():
    return verify.run_suite("all")


def _by_name(report, name):
    matches = [c for c in report["checks"] if c["name"] == name]
    assert len(matches) == 1, f"expected exactly one check named {name}"
    return matches[0]


def test_all_suites_pass(full_report):
    assert full_report["passed"]
    assert {c["suite"] for c in full_report["checks"]} == set(verify.SUITES)


def test_no_hard_failures(full_report):
    hard = [c for c in full_report["checks"] if c["status"] == "fail"]
    assert hard == []


def test_alternate_qp_coefficient_is_documented_mismatch(full_report):
    finding = _by_name(full_report, "qp_alternate_f_coefficient")
    assert finding["status"] == "MISMATCH (documented)"
    assert "twice" in finding["detail"]


def test_printed_mirror_identity_is_documented_mismatch(full_report):
    finding = _by_name(full_report, "mirror_identity_printed")
    assert finding["status"] == "MISMATCH (documented)"
    assert _by_name(full_report, "mirror_identity_corrected")["status"] == "pass"


def test_grid_sizes_reported(full_report):
    oracle = _by_name(full_report, "formula_oracle_equivalence")
    assert oracle["status"] == "pass"
    assert oracle["detail"].startswith("grid=")
    assert int(oracle["detail"].split("=")[1]) > 100


def test_single_suite_subset(full_report):
    lattice = verify.run_suite("lattice")
    assert lattice["passed"]
    names = [c["name"] for c in lattice["checks"]]
    assert "formula_oracle_equivalence" in names
    assert "orthogonal_idempotents" not in names


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        verify.run_suite("everything")


def test_format_report_lines(full_report):
    text = verify.format_report(full_report)
    lines = text.splitlines()
    assert lines[-1] == "result: pass"
    assert any(line.startswith("bracket_relations: pass") for line in lines)
    assert any("MISMATCH (documented)" in line for line in lines)


BORELWEIL_REPORT = """\
lattice_bracket_axioms: pass (grid=46)
minimal_maximal_hom_rank_one: pass (grid=13)
dual_roundtrip_to_maximal: pass (grid=9)
admissible_model_crosscheck: pass (grid=13)
counit_fraction_surjectivity: pass (grid=216)
weight_multiplicity_one: pass (grid=13)
result: pass"""


def test_borelweil_report_is_pinned():
    assert verify.format_report(verify.run_suite("borelweil")) == BORELWEIL_REPORT


def test_corrupted_build_fails(monkeypatch):
    monkeypatch.setattr(
        contraction, "phi_preserves_bracket", lambda: ["fabricated failure"]
    )
    report = verify.run_suite("contraction")
    assert not report["passed"]
    phi = _by_name(report, "phi_bracket_preserving")
    assert phi["status"] == "fail"


def test_corrupted_exponent_formula_fails(monkeypatch):
    original = dyadic.exponent_M
    monkeypatch.setattr(
        dyadic, "exponent_M", lambda p, n, m, eps, mu: original(p, n, m, eps, mu) + 1
    )
    report = verify.run_suite("lattice")
    assert not report["passed"]
