"""The invariant suites: all pass on a healthy build, documented findings
are labeled, and a corrupted build turns into a hard failure."""

import inspect
import re
from pathlib import Path

import pytest

from hclat import borelweil, contraction, dyadic, scalars, verify, zforms
from hclat.cli import main, render_csv, render_json

HERE = Path(__file__).resolve().parent


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
admissible_model_crosscheck: pass (grid=13)
counit_fraction_surjectivity: pass (grid=210)
weight_multiplicity_one: pass (grid=13)
result: pass"""


@pytest.mark.parametrize(
    "pin, render",
    [
        ("verify_all.json", render_json),
        ("verify_all.csv", render_csv),
        ("verify_all.txt", lambda report: verify.format_report(report) + "\n"),
    ],
)
def test_full_report_is_pinned(full_report, pin, render):
    assert render(full_report) == (HERE / pin).read_text()


@pytest.mark.parametrize("suite", verify.SUITES)
def test_single_suite_is_its_part_of_the_full_report(full_report, suite):
    report = verify.run_suite(suite)
    assert report["suite"] == suite
    assert report["checks"] == [
        c for c in full_report["checks"] if c["suite"] == suite
    ]


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
    original = dyadic._exponents
    monkeypatch.setattr(
        dyadic, "_exponents", lambda *args: {p: e + 1 for p, e in original(*args).items()}
    )
    report = verify.run_suite("lattice")
    assert not report["passed"]
    # the first failing case of the grid, not a later one
    oracle = _by_name(report, "formula_oracle_equivalence")
    assert oracle["detail"] == "q(1,1,0,-8) on -2..10"


def test_empty_grid_fails(monkeypatch):
    # every dyadic grid point is filtered out by the criterion
    monkeypatch.setattr(dyadic, "nonvanishing", lambda *args: False)
    report = verify.run_suite("lattice")
    assert not report["passed"]
    for name in ("criterion_boundary_exponent", "mirror_identity_corrected"):
        check = _by_name(report, name)
        assert (check["status"], check["detail"]) == ("fail", "empty grid"), name


def test_readme_quotes_the_raising_check_detail(monkeypatch):
    # the parabolic frames solved over Z[1/4] instead of Z[1/2nm]
    monkeypatch.setattr(zforms, "localized_integers", lambda N: scalars.localized_integers(4))
    status, detail = verify._outcome(verify._iwasawa_reexpansion)
    # the detail names the source lines of the raise and of the call ...
    raised = _line_of(zforms.iwasawa_decompose, "raise ValueError(\n")  # the multi-line one
    called = _called_at(verify._iwasawa_reexpansion, "iwasawa_decompose")
    assert detail.endswith(f"in {raised}, from {called}")
    # ... which README writes as N, so that no edit of the sources stales it
    quoted = re.sub(r"\.py:\d+", ".py:N", f"iwasawa_reexpansion: {status} ({detail})")
    readme = " ".join((HERE.parent / "README.md").read_text().split())
    assert quoted in readme


def test_runner_counts_the_grid_and_keeps_the_first_failing_case(monkeypatch):
    def _two_cases():
        yield True, "first"
        yield True, "second"

    def _fails_twice():
        yield True, "fine"
        yield False, "first failure"
        yield False, "second failure"

    def _raises_after_a_case():
        yield True, "fine"
        raise RuntimeError("boom")

    monkeypatch.setitem(
        verify.CHECKS, "hecke", (_two_cases, _fails_twice, _raises_after_a_case)
    )
    assert verify.format_report(verify.run_suite("hecke")).splitlines() == [
        "two_cases: pass (grid=2)",
        "fails_twice: fail (first failure)",
        "raises_after_a_case: fail (RuntimeError: boom, in "
        f"{_raised_at(_raises_after_a_case, 2)})",
        "result: FAIL",
    ]


def _raised_at(func, offset):
    """The innermost frame the runner names for a raise offset lines below
    the def of func, which is defined in this file."""
    return f"{func.__name__} at {Path(__file__).name}:{func.__code__.co_firstlineno + offset}"


def _line_of(func, text):
    """The frame the runner names for the first line of func's source that
    holds text."""
    lines, first = inspect.getsourcelines(func)
    offset = next(i for i, line in enumerate(lines) if text in line)
    return f"{func.__name__} at {Path(inspect.getsourcefile(func)).name}:{first + offset}"


def _called_at(check, callee):
    """The call site the runner names for a raise below callee: the first
    line of the check, in verify.py, that calls it."""
    return _line_of(check, f"{callee}(")


def _cli_table(capsys, suite):
    code = main(["verify", "--suite", suite, "--format", "table"])
    out, err = capsys.readouterr()
    return code, out.splitlines(), err


def _pinned_lines(suite, replaced):
    """The pinned table lines of one suite, with the named checks replaced."""
    names = [c.__name__.lstrip("_") for c in verify.CHECKS[suite]]
    pinned = {
        line.split(":", 1)[0]: line
        for line in (HERE / "verify_all.txt").read_text().splitlines()
    }
    return [replaced.get(name, pinned[name]) for name in names] + ["result: FAIL"]


def test_raising_decomposition_reports_fail_not_traceback(monkeypatch, capsys):
    def inconsistent(S):
        raise ValueError(f"decomposing E in the frame of {S.label} needs 1/7")

    monkeypatch.setattr(zforms, "iwasawa_decompose", inconsistent)
    code, lines, err = _cli_table(capsys, "modules")
    assert code == 1
    assert err == ""
    assert lines == _pinned_lines(
        "modules",
        {
            "iwasawa_reexpansion": "iwasawa_reexpansion: fail "
            "(ValueError: decomposing E in the frame of q needs 1/7, "
            f"in {_raised_at(inconsistent, 1)}, "
            f"from {_called_at(verify._iwasawa_reexpansion, 'iwasawa_decompose')})"
        },
    )


def test_raising_lattice_builder_keeps_the_report(monkeypatch, capsys):
    def boom(lam):
        raise ValueError("boom")

    monkeypatch.setattr(borelweil, "maximal_lattice", boom)
    code, lines, err = _cli_table(capsys, "borelweil")
    assert code == 1
    assert err == ""
    callers = (
        "lattice_bracket_axioms",
        "minimal_maximal_hom_rank_one",
        "admissible_model_crosscheck",
        "weight_multiplicity_one",
    )
    assert lines == _pinned_lines(
        "borelweil",
        {
            name: f"{name}: fail (ValueError: boom, in {_raised_at(boom, 1)}, "
            f"from {_called_at(getattr(verify, '_' + name), 'maximal_lattice')})"
            for name in callers
        },
    )
    # the call sites tell the four checks apart
    assert len({line.rsplit("from ", 1)[1] for line in lines if "boom" in line}) == 4


def test_weight_multiplicity_one_fails_on_wrong_weights(monkeypatch):
    # a valid lattice with distinct weights, but those of lambda + 2
    monkeypatch.setattr(
        borelweil, "maximal_lattice", lambda lam: borelweil.ladder_lattice(lam, 1)
    )
    check = _by_name(verify.run_suite("borelweil"), "weight_multiplicity_one")
    assert check["status"] == "fail"
    assert check["detail"] == "lambda=0: weights [2, 0, -2]"
