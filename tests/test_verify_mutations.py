"""Every verify check can fail: one plausible fault in the library per check.

Each row names a check, the function of ``src/hclat`` at the binding the
check reaches (``owner.name``), and a one-line edit of that function's
source: a sign, an off-by-one, a swapped argument or a dropped factor.  The
edited function is compiled in its own module's globals, keeping its file
and line numbers, and patched in at that binding alone.  The check, run by
itself, must then yield a failing case, not raise: a check that no fault
can fail is evidence of nothing.  For the two documented findings the
fault makes the mismatch vanish, so they read ``fail`` too.  The faults in
``RAISING`` make their check raise instead, which ``verify`` reports as a
failing check that names the raising frame.
"""

import __future__
import inspect
import textwrap

import pytest

from hclat import borelweil, contraction, dyadic, hecke, pbw, scalars, verify, weightmods, zforms

MUTATIONS = {
    # hecke
    "orthogonal_idempotents": (hecke, "hecke_mul", "c * y[lam]", "c + y[lam]"),
    "schur_weight_lines": (
        hecke, "hom_component", "normalize(dst - src)", "normalize(dst + src)"
    ),
    "smash_associativity": (hecke, "smash_right", "out[mu] = total", "out[lam] = total"),
    "type_decomposition": (hecke, "project", "lattice.normalize(mu) == lam", "mu == lam"),
    # modules
    "jacobi_identity": (
        zforms, "bracket_coords", "n * (uF * vH - uH * vF)", "n * (uH * vF - uF * vH)"
    ),
    "realization_bracket_homomorphism": (
        zforms, "realization", "Fraction(g.n * g.m, 2) / g.q", "Fraction(g.n * g.m, 2) * g.q"
    ),
    "classification_roundtrip": (zforms, "classify", "(n, m, abs(q))", "(n, m, q)"),
    "iwasawa_reexpansion": (zforms, "iwasawa_decompose", "- cx * X[2]", "+ cx * X[2]"),
    "normal_form_idempotent": (pbw, "normal_form", "reversed(list(word))", "list(word)"),
    "normal_form_concatenation": (
        pbw, "mul", '(("E", c), ("H", b), ("F", a))', '(("F", a), ("H", b), ("E", c))'
    ),
    "adjoint_weight_additivity": (pbw, "adjoint_weight", "g.n * (c - a)", "g.n * (a - c)"),
    # weightmods binds iwasawa_decompose by name
    "bracket_relations": (
        weightmods, "iwasawa_decompose", "cx, cy = _solve_pair", "cy, cx = _solve_pair"
    ),
    "duality_pairing": (
        weightmods,
        "induced_module",
        "Fraction(m * (n - 2 * lam), 2)",
        "Fraction(m * (n + 2 * lam), 2)",
    ),
    "ps_vanishing_index": (
        weightmods, "principal_series", "c_mu * mu + c_w * n * eps", "c_mu * mu - c_w * n * eps"
    ),
    "weight_correctness": (weightmods, "principal_series", "affine(n * eps, n)", "affine(eps, n)"),
    "qp_alternate_f_coefficient": (
        weightmods, "principal_series", "c_w * n * eps", "c_w * eps"
    ),
    # lattice
    "ord2_additivity": (scalars, "ord2", "(num & -num).bit_length()", "num.bit_length()"),
    "ring_inclusion_monotone": (
        scalars,
        "in_ring",
        "_denominator_invertible(value.denominator, ring.localized_at)",
        "_denominator_invertible(ring.localized_at, value.denominator)",
    ),
    # vanishing q and qp chains terminate; only a vanishing model of the
    # grid shows it
    "formula_oracle_equivalence": (
        dyadic, "_oracle_table", "zero = -a0 // b if a0 % b == 0 else None", "zero = -a0 // b"
    ),
    "criterion_boundary_exponent": (
        dyadic, "_exponents", "(support.bound - p).bit_count()",
        "(support.bound + 1 - p).bit_count()",
    ),
    # M_p and N_p share one digit sum of bound - p: p - bottom + 1 on the
    # qp side
    "mirror_identity_corrected": (
        dyadic, "_exponents", "(support.bound - p).bit_count()",
        "(support.bound - p - 1).bit_count()",
    ),
    "mirror_identity_printed": (
        dyadic, "_criterion", '(-mu if variant == "q" else mu)', "mu"
    ),
    "defect_sum_digit_identity": (dyadic, "dyadic_defect_sum", "range(1, s + 1)", "range(1, s)"),
    # contraction
    "contracted_bracket_relations": (
        contraction, "contracted_induced", "Fraction(n - 2 * lam, n)", "Fraction(n + 2 * lam, n)"
    ),
    "phi_bracket_preserving": (
        contraction, "phi_preserves_bracket", "Laurent.z_power(-1)", "Laurent.z_power(1)"
    ),
    "polynomial_base_change": (contraction, "contracted_ps", "mu.shift(-1)", "mu.shift(-2)"),
    "irreducibility_root_search": (
        contraction, "generic_irreducibility", "mu.coefficient(1) / 2", "mu.coefficient(1)"
    ),
    # borelweil
    "lattice_bracket_axioms": (borelweil, "ladder_lattice", "[w - i + 1 for", "[w - i for"),
    "minimal_maximal_hom_rank_one": (
        borelweil, "inclusion_index", "lat.contains(sub.scalars)", "sub.contains(lat.scalars)"
    ),
    "admissible_model_crosscheck": (
        borelweil, "binomial_lattice", "comb(lam, a)", "comb(lam + 1, a)"
    ),
    "counit_fraction_surjectivity": (
        borelweil, "counit_fraction_witness", "Fraction(1, n) % 1,", "Fraction(1, n),"
    ),
    "weight_multiplicity_one": (borelweil, "ladder_lattice", "range(w + 1)]", "range(1, w + 2)]"),
}

# the rows of deleted checks: each fault still fails the remaining check
# named last
RETIRED = {
    # it compared dual_lattice with itself
    "dual_roundtrip_to_maximal": (
        borelweil, "hom_lattice", "s[p] + 1 == s[q]", "s[p] == s[q]",
        "minimal_maximal_hom_rank_one",
    ),
    # it asked the oracle for index 0 of six vanishing models, which the
    # oracle grid's vanishing models cover window by window
    "unbounded_violation_rejected": (
        dyadic, "_criterion", "/ (2 * n * m)", "/ (n * m)", "formula_oracle_equivalence"
    ),
}

# faults that make a check raise: both make `lattice --oracle` raise
# IndexError, the q table on a window that ends inside the support, and
# _chain_maxima on one index of a qpp model of odd mu
RAISING = {
    "oracle_table_drops_the_top_index": (
        "formula_oracle_equivalence", dyadic, "_oracle_table",
        "range(lo, hi + 1)", "range(lo, hi - 1)",
    ),
    "chain_maxima_drops_the_open_chain": (
        "formula_oracle_equivalence", dyadic, "_chain_maxima",
        "bases[0][0] < k_close", "bases[0][0] <= k_close",
    ),
}

CHECKS = {check.__name__.lstrip("_"): check for suite in verify.CHECKS.values() for check in suite}


def _mutant(func, old: str, new: str):
    """func recompiled with the one occurrence of old in its source
    replaced by new, at its own file and line numbers."""
    lines, first = inspect.getsourcelines(func)
    source = textwrap.dedent("".join(lines))
    assert source.count(old) == 1, f"{old!r} occurs {source.count(old)} times in {func.__name__}"
    code = compile(
        "\n" * (first - 1) + source.replace(old, new),
        inspect.getsourcefile(func),
        "exec",
        flags=__future__.annotations.compiler_flag,
        dont_inherit=True,
    )
    namespace = {}
    exec(code, func.__globals__, namespace)
    return namespace[func.__name__]


def _first_failing_case(check):
    """The detail of the check's first failing case, or None; the check
    runs without the runner, so an exception propagates."""
    if getattr(check, "documented", False):
        present, detail = check()
        return None if present else detail
    return next((str(case) for ok, case in check() if not ok), None)


def test_every_check_has_one_mutation():
    assert set(MUTATIONS) == set(CHECKS)
    assert all(owner is not verify for owner, *_ in MUTATIONS.values())
    assert not set(RETIRED) & set(CHECKS)
    assert all(row[-1] in CHECKS for row in RETIRED.values())
    assert all(row[0] in CHECKS for row in RAISING.values())


def _assert_fails(monkeypatch, name, owner, attr, old, new):
    check = CHECKS[name]
    monkeypatch.setattr(owner, attr, _mutant(getattr(owner, attr), old, new))
    case = _first_failing_case(check)
    assert case is not None, f"{name} still passes with {owner.__name__}.{attr} mutated"
    assert verify._outcome(check) == ("fail", case)


@pytest.mark.parametrize("name", MUTATIONS)
def test_mutation_fails_the_check(monkeypatch, name):
    _assert_fails(monkeypatch, name, *MUTATIONS[name])


@pytest.mark.parametrize("name", RETIRED)
def test_retired_mutation_fails_a_remaining_check(monkeypatch, name):
    *fault, remaining = RETIRED[name]
    _assert_fails(monkeypatch, remaining, *fault)


@pytest.mark.parametrize("fault", RAISING)
def test_raising_mutation_fails_the_check(monkeypatch, fault):
    name, owner, attr, old, new = RAISING[fault]
    monkeypatch.setattr(owner, attr, _mutant(getattr(owner, attr), old, new))
    status, detail = verify._outcome(CHECKS[name])
    assert status == "fail" and detail.startswith("IndexError: "), detail


def test_oracle_check_report_fault_fails_the_oracle_check(monkeypatch):
    # every nonzero `lattice --oracle` document would read "oracle_agrees": false
    _assert_fails(
        monkeypatch, "formula_oracle_equivalence", dyadic, "oracle_check_report",
        "table[p - lo] == value", "table[p - lo] != value",
    )
