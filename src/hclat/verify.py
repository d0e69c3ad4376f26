"""Invariant suites behind `hclat verify`.

Each suite re-checks the defining identities of one layer of the library
on fixed grids and reports one line per invariant: pass (with the grid
size), fail (with the first counterexample, or on an empty grid), or
MISMATCH (documented) for the discrepancies that are kept on purpose as
findings.  A run fails only on "fail".

A check is a generator that yields one ``(ok, case)`` pair per grid point;
``case`` names the point and is read only when ``ok`` is false.  A finding,
marked ``@_documented``, instead returns ``(mismatch_present, detail)``.
The runner counts the grid, reports the first failing case, and turns a
check that raises into ``fail`` with the exception, the function, file
and line that raised it, and the line of this module that called into it
(the check's own call site); the other checks still run.  To add a check,
write one such function and list it under its suite in ``CHECKS``: its
report name is the function's name without the leading underscore.
"""

from __future__ import annotations

import itertools
import os
import random
from fractions import Fraction

from . import borelweil, contraction, dyadic, hecke, pbw, scalars, weightmods, zforms


def _documented(finding):
    finding.documented = True
    return finding


# -- hecke suite ---------------------------------------------------------------


def _orthogonal_idempotents():
    for lattice in (hecke.INTEGERS, hecke.cyclic(2), hecke.cyclic(3), hecke.cyclic(4)):
        for lam in range(-4, 5):
            for mu in range(-4, 5):
                product = hecke.hecke_mul(hecke.p(lam, lattice), hecke.p(mu, lattice))
                same = lattice.normalize(lam) == lattice.normalize(mu)
                expected = hecke.p(lam, lattice) if same else {}
                yield product == expected, f"p_{lam} p_{mu} over {lattice}"


def _schur_weight_lines():
    for lam in range(-3, 4):
        for lam2 in range(-3, 4):
            f = {lam: {lam2: Fraction(1)}}
            expected = f if lam == lam2 else {}
            yield hecke.hom_component(f, 0) == expected, f"hom line ({lam}, {lam2})"


def _smash_associativity():
    g = zforms.make_zform(2, 1, 1)
    monos = [
        pbw.one(),
        pbw.monomial(1, 0, 0),
        pbw.monomial(0, 1, 0),
        pbw.monomial(0, 0, 1),
    ]
    for lattice in (hecke.INTEGERS, hecke.cyclic(2)):
        elements = [
            hecke.smash(a, lam, lattice) for a in monos for lam in range(-2, 3)
        ]
        # every pair product once, and every right factor split by weight
        # once, so each triple costs two more products
        right = [hecke.smash_right(y, g, lattice) for y in elements]
        pairs = [[times(x) for times in right] for x in elements]
        right_pairs = [[hecke.smash_right(y, g, lattice) for y in row] for row in pairs]
        for i, j, k in itertools.product(range(len(elements)), repeat=3):
            lhs = right[k](pairs[i][j])
            rhs = right_pairs[j][k](elements[i])
            yield lhs == rhs, "associativity failed on a monomial triple"


def _type_decomposition():
    rng = random.Random(8)
    for order in (2, 3, 4):
        lattice = hecke.cyclic(order)
        for _ in range(20):
            v = {rng.randint(-10, 10): Fraction(rng.randint(1, 5)) for _ in range(5)}
            total = {}
            for lam in lattice.elements():
                for key, c in hecke.project(v, lam, lattice).items():
                    total[key] = total.get(key, 0) + c
            yield total == v, f"projection sum over Z/{order}"


# -- modules suite (split forms, rewriting, weight modules) --------------------


def _zform_grid():
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            for q in (1, Fraction(1, 2), 2):
                yield zforms.make_zform(n, m, q)


def _jacobi_identity():
    for g in _zform_grid():
        yield zforms.check_jacobi(g), f"jacobi fails for (n,m,q)=({g.n},{g.m},{g.q})"


def _realization_bracket_homomorphism():
    for g in _zform_grid():
        yield (
            zforms.check_realization_bracket(g),
            f"realization fails for (n,m,q)=({g.n},{g.m},{g.q})",
        )


def _classification_roundtrip():
    for n in range(1, 6):
        for m in range(1, 6):
            qs = {1, -1, Fraction(1, 2), -Fraction(1, 2), 2, -2, n * m, -n * m, n, -n}
            for q in qs:
                g = zforms.make_zform(n, m, q)
                got = zforms.classify(*zforms.presentation(g))
                yield got == (n, m, abs(Fraction(q))), f"classify({n},{m},{q}) -> {got}"


def _iwasawa_reexpansion():
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            for label in ("q", "qp", "qpp") if m == 2 * n else ("q", "qp"):
                g = zforms.parabolic_form(n, m, label)
                S = zforms.subalgebra(g, label)
                table = zforms.iwasawa_decompose(S)
                frame = [S.basis[0], S.basis[1], (0, 0, 1)]
                # E and F summed back from their coordinates in the frame
                sums = [
                    tuple(
                        sum(c * v[i] for c, v in zip(table[x], frame)) for i in range(3)
                    )
                    for x in "EF"
                ]
                yield (
                    sums == [(1, 0, 0), (0, 1, 0)],
                    f"{label} re-expansion on ({n},{m})",
                )


def _random_word(rng) -> list:
    return [rng.choice("EFH") for _ in range(rng.randint(0, 6))]


def _elem_to_words(elem: dict) -> list:
    """A normal form as a list of (word, coeff) with F before H before E."""
    return [
        (["F"] * a + ["H"] * b + ["E"] * c, coeff)
        for (a, b, c), coeff in elem.items()
    ]


def _renormalize(elem: dict, g) -> dict:
    out = {}
    for word, coeff in _elem_to_words(elem):
        out = pbw.add(out, pbw.scale(pbw.normal_form(word, g), coeff))
    return out


def _normal_form_idempotent():
    rng = random.Random(31)
    g = zforms.make_zform(2, 3, 1)
    for _ in range(120):
        nf = pbw.normal_form(_random_word(rng), g)
        yield _renormalize(nf, g) == nf, "renormalized normal form changed"


def _normal_form_concatenation():
    rng = random.Random(32)
    g = zforms.make_zform(2, 1, 1)
    for _ in range(120):
        w1, w2 = _random_word(rng), _random_word(rng)
        direct = pbw.normal_form(w1 + w2, g)
        staged = pbw.mul(pbw.normal_form(w1, g), pbw.normal_form(w2, g), g)
        yield direct == staged, f"concatenation {w1}+{w2}"


def _adjoint_weight_additivity():
    g = zforms.make_zform(3, 2, 1)
    for a in range(3):
        for b in range(3):
            for c in range(3):
                weight = pbw.adjoint_weight(pbw.monomial(a, b, c), g)
                yield weight == g.n * (c - a), f"monomial weight F^{a}H^{b}E^{c}"
    rng = random.Random(33)
    for _ in range(60):
        word = _random_word(rng)
        weight = g.n * (word.count("E") - word.count("F"))
        nf = pbw.normal_form(word, g)
        yield (
            all(pbw.adjoint_weight({key: nf[key]}, g) == weight for key in nf),
            f"normal form of {word} broke weight homogeneity",
        )


def _module_families() -> list:
    """(description, module) pairs covering every constructed family."""
    out = []
    for n, m in ((1, 1), (2, 3), (3, 2)):
        g1 = zforms.make_zform(n, m, 1)
        for lam in (-3, 0, 2):
            out.append((f"ind({n},{m},{lam})", weightmods.induced_module(g1, lam)))
            out.append((f"pro({n},{m},{lam})", weightmods.produced_module(g1, lam)))
        for k in range(n):
            eps = Fraction(k, n)
            for mu in (Fraction(-2), Fraction(1, 3), Fraction(2 * n * m)):
                for label in ("q", "qp"):
                    out.append(
                        (
                            f"ps_{label}({n},{m},{eps},{mu})",
                            weightmods.principal_series(n, m, label, eps, mu),
                        )
                    )
    for n in (1, 2):
        m = 2 * n
        for k in range(n):
            eps = Fraction(k, n)
            for mu in (Fraction(-1), Fraction(4)):
                out.append(
                    (
                        f"ps_qpp({n},{m},{eps},{mu})",
                        weightmods.principal_series(n, m, "qpp", eps, mu),
                    )
                )
    return out


def _bracket_relations():
    window = range(-50, 51)
    for name, M in _module_families():
        problems = weightmods.check_module_axioms(M, window)
        yield not problems, problems and f"{name}: {problems[0]}"


def _duality_pairing():
    for n, m in ((1, 1), (2, 3), (3, 1)):
        g = zforms.make_zform(n, m, 1)
        for lam in (-4, 0, 1):
            ind = weightmods.induced_module(g, lam)
            # E at p - 1 = -1..38 and F at 0..39, with E(-1) = F(0) = 0
            ((_, d_e, e),) = ind.coefficient_columns("E", -1, 39)
            ((_, d_f, f),) = ind.coefficient_columns("F", 0, 40)
            for p in range(0, 40):
                # F(p)E(p - 1) = E(p)F(p + 1) + m(lam + np), times d_e*d_f
                yield (
                    f[p] * e[p] == e[p + 1] * f[p + 1] + m * (lam + n * p) * d_e * d_f,
                    f"pairing at (n,m,lam,p)=({n},{m},{lam},{p})",
                )


def _ps_vanishing_index():
    rng = random.Random(34)
    for _ in range(30):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        eps = Fraction(rng.randrange(n), n)
        target = rng.randint(-6, 6)
        mu = 2 * n * m * (target - eps)
        ps = weightmods.principal_series(n, m, "q", eps, Fraction(mu))
        zeros_e = ps.zero_indices("E", -40, 40)
        # F vanishes at a single index when mu/2nm - eps is an integer
        zeros_f = None
        if (Fraction(mu) / (2 * n * m) - eps).denominator == 1:
            zeros_f = ps.zero_indices("F", -40, 40)
        yield (
            zeros_e == [-target] and (zeros_f is None or len(zeros_f) == 1),
            f"zero sets E {zeros_e}, F {zeros_f} for (n,m,eps,mu)=({n},{m},{eps},{mu})",
        )


def _weight_correctness():
    # H is the T^1-exponent from the params, lambda + n*p or n(p + eps), as
    # polynomials in p; the grid counts the supported indices in [-20, 20]
    for name, M in _module_families():
        n = M.params["n"]
        if "eps" in M.params:
            exponent = weightmods.affine(n * M.params["eps"], n)
        else:
            exponent = weightmods.affine(M.params["lambda"], n)
        coeffs = [str(c) for c in M.actions["H"][1].coeffs]
        case = (M.actions["H"] == (0, exponent), f"{name}: H has coefficients {coeffs}")
        yield from (case for p in range(-20, 21) if M.support.contains(p))


@_documented
def _qp_alternate_f_coefficient():
    n, m, eps, mu = 2, 3, Fraction(1, 2), Fraction(5)
    derived = weightmods.principal_series(n, m, "qp", eps, mu)
    # the alternate printed coefficient mu/2nm - p - eps, twice the derived one
    printed = derived.with_action("F", -1, weightmods.affine(mu / (2 * n * m) - eps, -1))
    window = range(-20, 21)
    derived_ok = weightmods.check_module_axioms(derived, window) == []
    printed_fails = weightmods.check_module_axioms(printed, window) != []
    # F at -10..10 over one denominator per module, cross-multiplied
    ((_, d_printed, printed_f),) = printed.coefficient_columns("F", -10, 10)
    ((_, d_derived, derived_f),) = derived.coefficient_columns("F", -10, 10)
    factor_two = all(
        a * d_derived == 2 * b * d_printed for a, b in zip(printed_f, derived_f)
    )
    return (
        derived_ok and printed_fails and factor_two,
        "alternate printed F-coefficient is twice the derived one and breaks "
        "[E,F]=mH; the derived coefficient passes",
    )


# -- lattice suite (scalar arithmetic and dyadic exponents) ---------------------


def _ord2_additivity():
    rng = random.Random(41)
    for _ in range(300):
        x = Fraction(rng.randint(-400, 400) or 1, rng.randint(1, 400))
        y = Fraction(rng.randint(-400, 400) or 1, rng.randint(1, 400))
        ok = scalars.ord2(x * y) == scalars.ord2(x) + scalars.ord2(y)
        yield ok, f"ord2({x} * {y})"


def _ring_inclusion_monotone():
    chain = [
        scalars.ZZ,
        scalars.localized_integers(2),
        scalars.localized_integers(6),
        scalars.QQ,
        scalars.POLY,
        scalars.LAURENT_RING,
    ]
    samples = [
        Fraction(3),
        Fraction(1, 2),
        Fraction(5, 6),
        Fraction(1, 7),
        scalars.Laurent.z_power(2),
        scalars.Laurent.z_power(-1),
    ]
    for x in samples:
        last = False
        for ring in chain:
            now = scalars.in_ring(x, ring)
            yield now or not last, f"{x} left the chain at {ring.name}"
            last = now


def _dyadic_grid(nmax: int = 3, mu_range: int = 10):
    """(n, m, eps, mu) for n, m <= nmax, every residue eps mod n and
    |mu| <= mu_range."""
    for n, m in itertools.product(range(1, nmax + 1), repeat=2):
        for k in range(n):
            for mu in range(-mu_range, mu_range + 1):
                yield n, m, Fraction(k, n), mu


def _formula_oracle_equivalence():
    # every model, vanishing ones too, as `lattice --oracle` checks it: a
    # nonzero q or qp model on its boundary +- 6 and on the one index next
    # to the boundary inside the support, a qpp model on -3..3 and on 0, and
    # a vanishing q or qp model, whose oracle builds no chain, on -3..3
    for variant in dyadic.VARIANTS:
        for n, m, eps, mu in _dyadic_grid(nmax=2, mu_range=8):
            report = dyadic.integral_model(variant, n, m, eps, mu, (-3, 3))
            if variant == "qpp":
                windows = [(-3, 3), (0, 0)]
            elif report.nonzero:
                edge = report.support.bound
                inner = edge - 1 if variant == "q" else edge + 1
                windows = [(edge - 6, edge + 6), (inner, inner)]
            else:
                windows = [(-3, 3)]
            for lo, hi in windows:
                report = dyadic.integral_model(variant, n, m, eps, mu, (lo, hi))
                yield (
                    dyadic.oracle_check_report(report),
                    f"{variant}({n},{m},{eps},{mu}) on {lo}..{hi}",
                )


def _criterion_boundary_exponent():
    for n, m, eps, mu in _dyadic_grid():
        if not dyadic.nonvanishing("q", n, m, eps, mu):
            continue
        top = dyadic.top_index(n, m, eps, mu)
        yield (
            dyadic.exponent_M(top, n, m, eps, mu) == 0,
            f"M_top({n},{m},{eps},{mu}) nonzero",
        )


def _mirror_identity_corrected():
    for n, m, eps, mu in _dyadic_grid():
        if not dyadic.nonvanishing("qp", n, m, eps, mu):
            continue
        bottom = dyadic.bottom_index(n, m, eps, mu)
        for p in range(bottom, bottom + 5):
            got = dyadic.exponent_N(p, n, m, eps, mu)
            want = dyadic.exponent_M_raw(-p, n, m, -eps, mu)
            yield got == want, f"N_{p}({n},{m},{eps},{mu}) != M_(-p)(-eps, mu)"


@_documented
def _mirror_identity_printed():
    # the negated-mu mirror does not hold; keep the counterexample visible
    lhs = dyadic.exponent_N(2, 1, 1, Fraction(0), Fraction(2))
    rhs = dyadic.exponent_M(-2, 1, 1, Fraction(0), Fraction(-2))
    return (
        lhs != rhs,
        f"N_2(eps=0, mu=2) = {lhs} but M_(-2)(eps=0, mu=-2) = {rhs}; "
        "the identity holds with eps negated instead of mu",
    )


def _defect_sum_digit_identity():
    for a in range(13):
        yield dyadic.dyadic_defect_sum(2**a - 1) == a, f"defect sum at 2^{a}-1"
    total = 0  # the defect sum at s, one term at a time
    for s in range(400):
        yield total == bin(s).count("1"), f"defect sum at {s}"
        total += 1 - scalars.ord2(s + 1)


# -- contraction suite ----------------------------------------------------------


def _contracted_families() -> list:
    out = []
    for n in (1, 2):
        for lam in (-2, 1):
            out.append(
                (f"cind({lam},{n})", contraction.contracted_induced(lam, n))
            )
            out.append(
                (f"cpro({lam},{n})", contraction.contracted_produced(lam, n))
            )
    samples = [
        (Fraction(0), "2z", contraction.POLY, 1),
        (Fraction(1, 2), "z", contraction.LAURENT_RING, 2),
        (Fraction(1, 3), "z^-2+5z", contraction.LAURENT_RING, 3),
    ]
    for eps, mu, ring, n in samples:
        out.append(
            (
                f"cps({eps},{mu})",
                contraction.contracted_ps(eps, scalars.Laurent.parse(mu), ring, n=n),
            )
        )
    return out


def _contracted_bracket_relations():
    window = range(-40, 41)
    for name, M in _contracted_families():
        problems = contraction.check_contraction_axioms(M, window)
        yield not problems, problems and f"{name}: {problems[0]}"


def _phi_bracket_preserving():
    # phi_preserves_bracket returns the failing pairs among the nine basis pairs
    failing = contraction.phi_preserves_bracket()
    yield from ((False, pair) for pair in failing)
    yield from itertools.repeat((True, None), 9 - len(failing))


def _polynomial_base_change():
    for mu in ("2z", "z^2", "z", "z+3z^4"):
        report = contraction.polynomial_lattice(scalars.Laurent.parse(mu), (-12, 12))
        yield report["closed"], f"mu={mu}: {report}"


def _irreducibility_root_search():
    mus = ["0", "1", "5", "z", "2z", "3z", "-4z", "1/2z", "z^2", "1+z", "z^-1"]
    for text in mus:
        mu = scalars.Laurent.parse(text)
        for eps in (Fraction(0), Fraction(1, 2), Fraction(1, 3)):
            irr = contraction.generic_irreducibility(eps, mu)
            roots = contraction.coefficient_roots(
                eps, mu, (-10, 10), n=eps.denominator
            )
            yield (
                irr == (not roots),
                f"mu={text}, eps={eps}: irreducible={irr}, roots={roots}",
            )


# -- borelweil suite -------------------------------------------------------------


def _lattice_bracket_axioms():
    for lam in range(-3, 5):
        for n in range(0, 3):
            if lam + 2 * n < 0:
                continue
            problems = borelweil.check_lattice_axioms(borelweil.ladder_lattice(lam, n))
            yield not problems, problems and f"ladder({lam},{n}): {problems[0]}"
    for lam in range(0, 13):
        for L in (borelweil.minimal_lattice(lam), borelweil.maximal_lattice(lam)):
            problems = borelweil.check_lattice_axioms(L)
            yield not problems, problems and f"lambda={lam}: {problems[0]}"


def _minimal_maximal_hom_rank_one():
    for lam in range(0, 13):
        mn = borelweil.minimal_lattice(lam)
        mx = borelweil.maximal_lattice(lam)
        index = borelweil.inclusion_index(mn, mx)
        if index is None or index < 1:
            yield False, f"lambda={lam}: minimal not inside maximal"
            continue
        hom = borelweil.hom_lattice(mn, mx)
        yield (
            hom["rank"] == 1 and hom["generator"] is not None,
            f"lambda={lam}: hom rank {hom['rank']}",
        )


def _admissible_model_crosscheck():
    for lam in range(0, 13):
        yield (
            borelweil.lattice_span_equal(
                borelweil.binomial_lattice(lam), borelweil.maximal_lattice(lam)
            ),
            f"lambda={lam}: binomial model differs from maximal",
        )


def _counit_fraction_surjectivity():
    # counit_fraction_witness raises ValueError naming what is not a homomorphism
    for n in range(1, 21):
        for lam in range(-5, 6):
            if lam < -n:
                continue
            fraction = borelweil.counit_fraction_witness(lam, n)["fraction"]
            yield (
                fraction == Fraction(1, n) % 1,
                f"(lam={lam}, n={n}): fraction {fraction}",
            )


def _weight_multiplicity_one():
    # H^0(lambda) has each weight lambda, lambda - 2, ..., -lambda exactly once
    for lam in range(0, 13):
        weights = list(borelweil.maximal_lattice(lam).weights)
        expected = list(range(lam, -lam - 1, -2))
        yield weights == expected, f"lambda={lam}: weights {weights}"


# -- driver ----------------------------------------------------------------------

CHECKS = {
    "hecke": (
        _orthogonal_idempotents,
        _schur_weight_lines,
        _smash_associativity,
        _type_decomposition,
    ),
    "modules": (
        _jacobi_identity,
        _realization_bracket_homomorphism,
        _classification_roundtrip,
        _iwasawa_reexpansion,
        _normal_form_idempotent,
        _normal_form_concatenation,
        _adjoint_weight_additivity,
        _bracket_relations,
        _duality_pairing,
        _ps_vanishing_index,
        _weight_correctness,
        _qp_alternate_f_coefficient,
    ),
    "lattice": (
        _ord2_additivity,
        _ring_inclusion_monotone,
        _formula_oracle_equivalence,
        _criterion_boundary_exponent,
        _mirror_identity_corrected,
        _mirror_identity_printed,
        _defect_sum_digit_identity,
    ),
    "contraction": (
        _contracted_bracket_relations,
        _phi_bracket_preserving,
        _polynomial_base_change,
        _irreducibility_root_search,
    ),
    "borelweil": (
        _lattice_bracket_axioms,
        _minimal_maximal_hom_rank_one,
        _admissible_model_crosscheck,
        _counit_fraction_surjectivity,
        _weight_multiplicity_one,
    ),
}

SUITES = tuple(CHECKS)


def _outcome(check) -> tuple:
    """(status, detail) of one check."""
    try:
        if getattr(check, "documented", False):
            present, detail = check()
            return ("MISMATCH (documented)" if present else "fail"), detail
        grid = 0
        for ok, case in check():
            if not ok:
                return "fail", str(case)
            grid += 1
    except Exception as exc:
        tb = exc.__traceback__.tb_next or exc.__traceback__  # past this frame
        call_site = None  # the check's call site: its last frame in this file
        while tb.tb_next is not None:  # on to the innermost frame, which raised
            if tb.tb_frame.f_code.co_filename == __file__:
                call_site = tb
            tb = tb.tb_next
        detail = f"{type(exc).__name__}: {exc}, in {_frame(tb)}"
        if call_site is not None:
            detail += f", from {_frame(call_site)}"
        return "fail", detail
    return ("pass", f"grid={grid}") if grid else ("fail", "empty grid")


def _frame(tb) -> str:
    """function at file:line of one traceback entry."""
    code = tb.tb_frame.f_code
    return f"{code.co_name} at {os.path.basename(code.co_filename)}:{tb.tb_lineno}"


def run_suite(name: str) -> dict:
    """Run one suite (or "all"); the report fails only on a hard failure."""
    if name != "all" and name not in CHECKS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES + ('all',)}")
    checks = []
    for suite in SUITES if name == "all" else (name,):
        for check in CHECKS[suite]:
            status, detail = _outcome(check)
            checks.append(
                {
                    "suite": suite,
                    "name": check.__name__.lstrip("_"),
                    "status": status,
                    "detail": detail,
                }
            )
    return {
        "suite": name,
        "passed": all(c["status"] != "fail" for c in checks),
        "checks": checks,
    }


def format_report(report: dict) -> str:
    lines = []
    for c in report["checks"]:
        detail = f" ({c['detail']})" if c["detail"] else ""
        lines.append(f"{c['name']}: {c['status']}{detail}")
    lines.append("result: " + ("pass" if report["passed"] else "FAIL"))
    return "\n".join(lines)
