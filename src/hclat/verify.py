"""Invariant suites behind `hclat verify`.

Each suite re-checks the defining identities of one layer of the library
on fixed grids and reports one line per invariant: pass, fail (with the
first counterexample), or MISMATCH (documented) for the discrepancies
that are kept on purpose as findings.  A run fails only on "fail".
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import prod

from . import borelweil, contraction, dyadic, hecke, pbw, scalars, weightmods, zforms

SUITES = ("hecke", "modules", "lattice", "contraction", "borelweil")


def _passfail(name: str, failures: list, grid: int) -> dict:
    if failures:
        return {"name": name, "status": "fail", "detail": str(failures[0])}
    return {"name": name, "status": "pass", "detail": f"grid={grid}"}


def _finding(name: str, mismatch_present: bool, detail: str) -> dict:
    status = "MISMATCH (documented)" if mismatch_present else "fail"
    return {"name": name, "status": status, "detail": detail}


# -- hecke suite ---------------------------------------------------------------


def _check_orthogonal_idempotents() -> dict:
    failures, grid = [], 0
    lattices = [hecke.INTEGERS, hecke.cyclic(2), hecke.cyclic(3), hecke.cyclic(4)]
    for lattice in lattices:
        for lam in range(-4, 5):
            for mu in range(-4, 5):
                grid += 1
                prod = hecke.hecke_mul(hecke.p(lam, lattice), hecke.p(mu, lattice))
                same = lattice.normalize(lam) == lattice.normalize(mu)
                expected = hecke.p(lam, lattice) if same else hecke.HeckeElement(lattice)
                if prod != expected:
                    failures.append(f"p_{lam} p_{mu} over {lattice}")
    return _passfail("orthogonal_idempotents", failures, grid)


def _check_schur_lines() -> dict:
    failures, grid = [], 0
    for lam in range(-3, 4):
        for lam2 in range(-3, 4):
            grid += 1
            f = {lam: {lam2: Fraction(1)}}
            invariant_part = hecke.hom_component(f, 0)
            expected = f if lam == lam2 else {}
            if invariant_part != expected:
                failures.append(f"hom line ({lam}, {lam2})")
    return _passfail("schur_weight_lines", failures, grid)


def _check_smash_associativity() -> dict:
    failures, grid = [], 0
    g = zforms.make_zform(2, 1, 1)
    monos = [
        pbw.one(),
        pbw.monomial(1, 0, 0),
        pbw.monomial(0, 1, 0),
        pbw.monomial(0, 0, 1),
    ]
    for lattice in (hecke.INTEGERS, hecke.cyclic(2)):
        elements = [
            hecke.smash(a, lam, g, lattice) for a in monos for lam in range(-2, 3)
        ]
        # every pair product once, so each triple costs two more products
        pairs = [[hecke.smash_mul(x, y) for y in elements] for x in elements]
        for i, j, k in itertools.product(range(len(elements)), repeat=3):
            grid += 1
            lhs = hecke.smash_mul(pairs[i][j], elements[k])
            rhs = hecke.smash_mul(elements[i], pairs[j][k])
            if lhs != rhs:
                failures.append("associativity failed on a monomial triple")
                break
    return _passfail("smash_associativity", failures, grid)


def _check_type_decomposition() -> dict:
    failures, grid = [], 0
    rng = random.Random(8)
    for order in (2, 3, 4):
        lattice = hecke.cyclic(order)
        for _ in range(20):
            grid += 1
            v = {rng.randint(-10, 10): Fraction(rng.randint(1, 5)) for _ in range(5)}
            total = {}
            for lam in lattice.elements():
                for key, c in hecke.project(v, lam, lattice).items():
                    total[key] = total.get(key, 0) + c
            if total != v:
                failures.append(f"projection sum over Z/{order}")
    return _passfail("type_decomposition", failures, grid)


def suite_hecke() -> list:
    return [
        _check_orthogonal_idempotents(),
        _check_schur_lines(),
        _check_smash_associativity(),
        _check_type_decomposition(),
    ]


# -- modules suite (split forms, rewriting, weight modules) --------------------


def _zform_grid():
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            for q in (1, Fraction(1, 2), 2):
                yield zforms.make_zform(n, m, q)


def _check_jacobi() -> dict:
    failures, grid = [], 0
    for g in _zform_grid():
        grid += 1
        if not zforms.check_jacobi(g):
            failures.append(f"jacobi fails for (n,m,q)=({g.n},{g.m},{g.q})")
    return _passfail("jacobi_identity", failures, grid)


def _check_realization() -> dict:
    failures, grid = [], 0
    for g in _zform_grid():
        grid += 1
        if not zforms.check_realization_bracket(g):
            failures.append(f"realization fails for (n,m,q)=({g.n},{g.m},{g.q})")
    return _passfail("realization_bracket_homomorphism", failures, grid)


def _check_classify_roundtrip() -> dict:
    failures, grid = [], 0
    for n in range(1, 6):
        for m in range(1, 6):
            qs = {1, -1, Fraction(1, 2), -Fraction(1, 2), 2, -2, n * m, -n * m, n, -n}
            for q in qs:
                grid += 1
                g = zforms.make_zform(n, m, q)
                got = zforms.classify(*zforms.presentation(g))
                if got != (n, m, abs(Fraction(q))):
                    failures.append(f"classify({n},{m},{q}) -> {got}")
    return _passfail("classification_roundtrip", failures, grid)


def _check_iwasawa_reexpansion() -> dict:
    failures, grid = [], 0
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            cases = [("q", Fraction(1, 2)), ("qp", Fraction(n * m))]
            if m == 2 * n:
                cases.append(("qpp", Fraction(n)))
            for label, qparam in cases:
                grid += 1
                g = zforms.make_zform(n, m, qparam)
                S = zforms.subalgebra(g, label)
                table = zforms.iwasawa_decompose(g, S)
                frame = [S.basis[0], S.basis[1], (0, 0, 1)]
                for name, gen in (("E", (1, 0, 0)), ("F", (0, 1, 0))):
                    acc = (0, 0, 0)
                    for c, vec in zip(table[name], frame):
                        acc = tuple(s + c * v for s, v in zip(acc, vec))
                    if acc != gen:
                        failures.append(f"{label} re-expansion of {name} on ({n},{m})")
    return _passfail("iwasawa_reexpansion", failures, grid)


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


def _check_normal_form_idempotent() -> dict:
    failures, grid = [], 0
    rng = random.Random(31)
    g = zforms.make_zform(2, 3, 1)
    for _ in range(120):
        grid += 1
        nf = pbw.normal_form(_random_word(rng), g)
        if _renormalize(nf, g) != nf:
            failures.append("renormalized normal form changed")
    return _passfail("normal_form_idempotent", failures, grid)


def _check_normal_form_concatenation() -> dict:
    failures, grid = [], 0
    rng = random.Random(32)
    g = zforms.make_zform(2, 1, 1)
    for _ in range(120):
        grid += 1
        w1, w2 = _random_word(rng), _random_word(rng)
        direct = pbw.normal_form(w1 + w2, g)
        staged = pbw.mul(pbw.normal_form(w1, g), pbw.normal_form(w2, g), g)
        if direct != staged:
            failures.append(f"concatenation {w1}+{w2}")
    return _passfail("normal_form_concatenation", failures, grid)


def _check_pbw_weights() -> dict:
    failures, grid = [], 0
    g = zforms.make_zform(3, 2, 1)
    for a in range(3):
        for b in range(3):
            for c in range(3):
                grid += 1
                if pbw.adjoint_weight(pbw.monomial(a, b, c), g) != g.n * (c - a):
                    failures.append(f"monomial weight F^{a}H^{b}E^{c}")
    rng = random.Random(33)
    for _ in range(60):
        grid += 1
        word = _random_word(rng)
        weight = g.n * (word.count("E") - word.count("F"))
        nf = pbw.normal_form(word, g)
        for key in nf:
            if pbw.adjoint_weight({key: nf[key]}, g) != weight:
                failures.append(f"normal form of {word} broke weight homogeneity")
    return _passfail("adjoint_weight_additivity", failures, grid)


def _module_families() -> list:
    """(description, module) pairs covering every constructed family."""
    out = []
    for n, m in ((1, 1), (2, 3), (3, 2)):
        g1 = zforms.make_zform(n, m, 1)
        for lam in (-3, 0, 2):
            out.append(
                (f"ind({n},{m},{lam})", weightmods.induced_module(g1, lam, scalars.QQ))
            )
            out.append(
                (f"pro({n},{m},{lam})", weightmods.produced_module(g1, lam, scalars.QQ))
            )
        gq = zforms.make_zform(n, m, Fraction(1, 2))
        gp = zforms.make_zform(n, m, n * m)
        for k in range(n):
            eps = Fraction(k, n)
            for mu in (Fraction(-2), Fraction(1, 3), Fraction(2 * n * m)):
                chi_q = weightmods.CharacterModule(eps, mu, "q")
                out.append(
                    (
                        f"ps_q({n},{m},{eps},{mu})",
                        weightmods.principal_series(gq, "q", chi_q, scalars.QQ),
                    )
                )
                chi_p = weightmods.CharacterModule(eps, mu, "qp")
                out.append(
                    (
                        f"ps_qp({n},{m},{eps},{mu})",
                        weightmods.principal_series(gp, "qp", chi_p, scalars.QQ),
                    )
                )
    for n in (1, 2):
        m = 2 * n
        gpp = zforms.make_zform(n, m, n)
        for k in range(n):
            eps = Fraction(k, n)
            for mu in (Fraction(-1), Fraction(4)):
                chi = weightmods.CharacterModule(eps, mu, "qpp")
                out.append(
                    (
                        f"ps_qpp({n},{m},{eps},{mu})",
                        weightmods.principal_series(gpp, "qpp", chi, scalars.QQ),
                    )
                )
    return out


def _check_bracket_relations() -> dict:
    failures, grid = [], 0
    window = range(-50, 51)
    for name, M in _module_families():
        grid += 1
        problems = weightmods.check_module_axioms(M, window)
        if problems:
            failures.append(f"{name}: {problems[0]}")
    return _passfail("bracket_relations", failures, grid)


def _check_duality_pairing() -> dict:
    failures, grid = [], 0
    for n, m in ((1, 1), (2, 3), (3, 1)):
        g = zforms.make_zform(n, m, 1)
        for lam in (-4, 0, 1):
            ind = weightmods.induced_module(g, lam, scalars.QQ)
            for p in range(0, 40):
                grid += 1
                ef = ind.coefficient("F", p) * ind.coefficient("E", p - 1)
                fe = ind.coefficient("E", p) * ind.coefficient("F", p + 1)
                if ef != fe + m * (lam + n * p):
                    failures.append(f"pairing at (n,m,lam,p)=({n},{m},{lam},{p})")
    return _passfail("duality_pairing", failures, grid)


def _check_ps_vanishing_index() -> dict:
    failures, grid = [], 0
    rng = random.Random(34)
    for _ in range(30):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        eps = Fraction(rng.randrange(n), n)
        target = rng.randint(-6, 6)
        mu = 2 * n * m * (target - eps)
        g = zforms.make_zform(n, m, Fraction(1, 2))
        chi = weightmods.CharacterModule(eps, Fraction(mu), "q")
        ps = weightmods.principal_series(g, "q", chi, scalars.QQ)
        grid += 1
        zeros_e = [p for p in range(-40, 41) if ps.coefficient("E", p) == 0]
        if zeros_e != [-target]:
            failures.append(f"E zero set {zeros_e} for (n,m,eps,mu)=({n},{m},{eps},{mu})")
        if (Fraction(mu) / (2 * n * m) - eps).denominator == 1:
            zeros_f = [p for p in range(-40, 41) if ps.coefficient("F", p) == 0]
            if len(zeros_f) != 1:
                failures.append(f"F zero set {zeros_f} not a single index")
    return _passfail("ps_vanishing_index", failures, grid)


def _check_weight_correctness() -> dict:
    # H is the T^1-exponent from the params, lambda + n*p or n(p + eps), as
    # polynomials in p; grid counts the supported indices in [-20, 20]
    failures, grid = [], 0
    for name, M in _module_families():
        n = M.algebra.n
        if "eps" in M.params:
            exponent = weightmods.affine(n * M.params["eps"], n)
        else:
            exponent = weightmods.affine(M.params["lambda"], n)
        grid += sum(1 for p in range(-20, 21) if M.support.contains(p))
        if M.actions["H"] != (0, exponent):
            coeffs = [str(c) for c in M.actions["H"][1].coeffs]
            failures.append(f"{name}: H has coefficients {coeffs}")
    return _passfail("weight_correctness", failures, grid)


def _check_qp_alternate_finding() -> dict:
    g = zforms.make_zform(2, 3, 6)
    chi = weightmods.CharacterModule(Fraction(1, 2), Fraction(5), "qp")
    derived = weightmods.principal_series(g, "qp", chi, scalars.QQ)
    printed = weightmods.principal_series(
        g, "qp", chi, scalars.QQ, alternate_qp_f=True
    )
    window = range(-20, 21)
    derived_ok = weightmods.check_module_axioms(derived, window) == []
    printed_fails = weightmods.check_module_axioms(printed, window) != []
    factor_two = all(
        printed.coefficient("F", p) == 2 * derived.coefficient("F", p)
        for p in range(-10, 11)
    )
    mismatch = derived_ok and printed_fails and factor_two
    return _finding(
        "qp_alternate_f_coefficient",
        mismatch,
        "alternate printed F-coefficient is twice the derived one and breaks "
        "[E,F]=mH; the derived coefficient passes",
    )


def suite_modules() -> list:
    return [
        _check_jacobi(),
        _check_realization(),
        _check_classify_roundtrip(),
        _check_iwasawa_reexpansion(),
        _check_normal_form_idempotent(),
        _check_normal_form_concatenation(),
        _check_pbw_weights(),
        _check_bracket_relations(),
        _check_duality_pairing(),
        _check_ps_vanishing_index(),
        _check_weight_correctness(),
        _check_qp_alternate_finding(),
    ]


# -- lattice suite (scalar arithmetic and dyadic exponents) ---------------------


def _check_ord2_additivity() -> dict:
    failures, grid = [], 0
    rng = random.Random(41)
    for _ in range(300):
        grid += 1
        x = Fraction(rng.randint(-400, 400) or 1, rng.randint(1, 400))
        y = Fraction(rng.randint(-400, 400) or 1, rng.randint(1, 400))
        if scalars.ord2(x * y) != scalars.ord2(x) + scalars.ord2(y):
            failures.append(f"ord2({x} * {y})")
    return _passfail("ord2_additivity", failures, grid)


def _check_exact_arithmetic() -> dict:
    failures, grid = [], 0
    rng = random.Random(42)
    for _ in range(300):
        grid += 1
        a, c = rng.randint(-50, 50), rng.randint(-50, 50)
        b, d = rng.randint(1, 50), rng.randint(1, 50)
        if (Fraction(a, b) + Fraction(c, d)) * b * d != a * d + c * b:
            failures.append(f"({a}/{b} + {c}/{d})")
    return _passfail("exact_rational_arithmetic", failures, grid)


def _check_ring_inclusions() -> dict:
    failures, grid = [], 0
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
            grid += 1
            now = scalars.in_ring(x, ring)
            if last and not now:
                failures.append(f"{x} left the chain at {ring.name}")
            last = now
    return _passfail("ring_inclusion_monotone", failures, grid)


def _dyadic_grid(variant: str, nmax: int = 2, mu_range: int = 8):
    for n in range(1, nmax + 1):
        for m in range(1, nmax + 1):
            for k in range(n):
                eps = Fraction(k, n)
                for mu in range(-mu_range, mu_range + 1):
                    if dyadic.nonvanishing(variant, n, m, eps, mu):
                        yield n, m, eps, mu


def _check_formula_oracle() -> dict:
    failures, grid = [], 0
    for n, m, eps, mu in _dyadic_grid("q"):
        top = dyadic.top_index(n, m, eps, mu)
        for p in range(top - 5, top + 1):
            grid += 1
            got = dyadic.exponent_M(p, n, m, eps, mu)
            want = dyadic.oracle_min_exponent("q", p, n, m, eps, mu)
            if got != want:
                failures.append(f"M_{p}({n},{m},{eps},{mu}) = {got} != {want}")
    for n, m, eps, mu in _dyadic_grid("qp"):
        bottom = dyadic.bottom_index(n, m, eps, mu)
        for p in range(bottom, bottom + 6):
            grid += 1
            got = dyadic.exponent_N(p, n, m, eps, mu)
            want = dyadic.oracle_min_exponent("qp", p, n, m, eps, mu)
            if got != want:
                failures.append(f"N_{p}({n},{m},{eps},{mu}) = {got} != {want}")
    for n, m, eps, mu in _dyadic_grid("qpp"):
        for p in range(-3, 4):
            grid += 1
            if dyadic.oracle_min_exponent("qpp", p, n, m, eps, mu) != 0:
                failures.append(f"qpp exponent at ({n},{m},{eps},{mu},{p})")
    return _passfail("formula_oracle_equivalence", failures, grid)


def _check_localization_units() -> dict:
    failures, grid = [], 0
    for n, m, eps, mu in _dyadic_grid("q"):
        top = dyadic.top_index(n, m, eps, mu)
        ring = scalars.localized_integers(2 * n * m)
        for p in range(top - 5, top + 1):
            grid += 1
            e = dyadic.exponent_M(p, n, m, eps, mu)
            unit = scalars.in_ring(Fraction(1, 2**e), ring) and scalars.in_ring(
                Fraction(2**e), ring
            )
            if not unit:
                failures.append(f"2^{e} not a unit in {ring.name}")
    return _passfail("localization_consistency", failures, grid)


def _check_top_boundary() -> dict:
    failures, grid = [], 0
    for n, m, eps, mu in _dyadic_grid("q", nmax=3, mu_range=10):
        grid += 1
        top = dyadic.top_index(n, m, eps, mu)
        if dyadic.exponent_M(top, n, m, eps, mu) != 0:
            failures.append(f"M_top({n},{m},{eps},{mu}) nonzero")
    return _passfail("criterion_boundary_exponent", failures, grid)


def _check_unbounded_violation() -> dict:
    failures, grid = [], 0
    cases = [
        ("q", 1, 1, Fraction(0), Fraction(1)),
        ("q", 2, 3, Fraction(0), Fraction(5)),
        ("q", 2, 1, Fraction(1, 2), Fraction(3)),
        ("qp", 1, 2, Fraction(0), Fraction(2)),
        ("qp", 3, 1, Fraction(1, 3), Fraction(1)),
        ("qpp", 1, 2, Fraction(0), Fraction(3)),
    ]
    for variant, n, m, eps, mu in cases:
        grid += 1
        if dyadic.nonvanishing(variant, n, m, eps, mu):
            failures.append(f"{variant}({n},{m},{eps},{mu}) passes the criterion")
            continue
        p = 0
        try:
            dyadic.oracle_min_exponent(variant, p, n, m, eps, mu, depth=4096)
            failures.append(f"oracle accepted violating {variant}({n},{m},{eps},{mu})")
        except dyadic.NoExtensionError:
            pass
    return _passfail("unbounded_violation_rejected", failures, grid)


def _check_mirror_corrected() -> dict:
    failures, grid = [], 0
    for n, m, eps, mu in _dyadic_grid("qp", nmax=3, mu_range=10):
        bottom = dyadic.bottom_index(n, m, eps, mu)
        for p in range(bottom, bottom + 5):
            grid += 1
            got = dyadic.exponent_N(p, n, m, eps, mu)
            want = dyadic.exponent_M_raw(-p, n, m, -eps, mu)
            if got != want:
                failures.append(f"N_{p}({n},{m},{eps},{mu}) != M_(-p)(-eps, mu)")
    return _passfail("mirror_identity_corrected", failures, grid)


def _check_mirror_printed_finding() -> dict:
    # the negated-mu mirror does not hold; keep the counterexample visible
    lhs = dyadic.exponent_N(2, 1, 1, Fraction(0), Fraction(2))
    rhs = dyadic.exponent_M(-2, 1, 1, Fraction(0), Fraction(-2))
    return _finding(
        "mirror_identity_printed",
        lhs != rhs,
        f"N_2(eps=0, mu=2) = {lhs} but M_(-2)(eps=0, mu=-2) = {rhs}; "
        "the identity holds with eps negated instead of mu",
    )


def _check_defect_sum() -> dict:
    failures, grid = [], 0
    for a in range(13):
        grid += 1
        if dyadic.dyadic_defect_sum(2**a - 1) != a:
            failures.append(f"defect sum at 2^{a}-1")
    for s in range(0, 400):
        grid += 1
        if dyadic.dyadic_defect_sum(s) != bin(s).count("1"):
            failures.append(f"defect sum at {s}")
    return _passfail("defect_sum_digit_identity", failures, grid)


def suite_lattice() -> list:
    return [
        _check_ord2_additivity(),
        _check_exact_arithmetic(),
        _check_ring_inclusions(),
        _check_formula_oracle(),
        _check_localization_units(),
        _check_top_boundary(),
        _check_unbounded_violation(),
        _check_mirror_corrected(),
        _check_mirror_printed_finding(),
        _check_defect_sum(),
    ]


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


def _check_contracted_brackets() -> dict:
    failures, grid = [], 0
    window = range(-40, 41)
    for name, M in _contracted_families():
        grid += 1
        problems = contraction.check_contraction_axioms(M, window)
        if problems:
            failures.append(f"{name}: {problems[0]}")
    return _passfail("contracted_bracket_relations", failures, grid)


def _check_phi() -> dict:
    failing = contraction.phi_preserves_bracket()
    return _passfail("phi_bracket_preserving", failing, 9)


def _check_polynomial_base_change() -> dict:
    failures, grid = [], 0
    for mu in ("2z", "z^2", "z", "z+3z^4"):
        grid += 1
        report = contraction.polynomial_lattice(
            Fraction(0), scalars.Laurent.parse(mu), (-12, 12)
        )
        if not (report["closed"] and report["base_change_verified"]):
            failures.append(f"mu={mu}: {report}")
    return _passfail("polynomial_base_change", failures, grid)


def _check_irreducibility_roots() -> dict:
    failures, grid = [], 0
    mus = ["0", "1", "5", "z", "2z", "3z", "-4z", "1/2z", "z^2", "1+z", "z^-1"]
    for text in mus:
        mu = scalars.Laurent.parse(text)
        for eps in (Fraction(0), Fraction(1, 2), Fraction(1, 3)):
            grid += 1
            irr = contraction.generic_irreducibility(eps, mu)
            roots = contraction.coefficient_roots(
                eps, mu, (-10, 10), n=eps.denominator
            )
            if irr != (not roots):
                failures.append(f"mu={text}, eps={eps}: irreducible={irr}, roots={roots}")
    return _passfail("irreducibility_root_search", failures, grid)


def suite_contraction() -> list:
    return [
        _check_contracted_brackets(),
        _check_phi(),
        _check_polynomial_base_change(),
        _check_irreducibility_roots(),
    ]


# -- borelweil suite -------------------------------------------------------------


def _check_lattice_axioms_grid() -> dict:
    failures, grid = [], 0
    for lam in range(-3, 5):
        for n in range(0, 3):
            if lam + 2 * n < 0:
                continue
            grid += 1
            problems = borelweil.check_lattice_axioms(borelweil.ladder_lattice(lam, n))
            if problems:
                failures.append(f"ladder({lam},{n}): {problems[0]}")
    for lam in range(0, 13):
        for L in (borelweil.minimal_lattice(lam), borelweil.maximal_lattice(lam)):
            grid += 1
            problems = borelweil.check_lattice_axioms(L)
            if problems:
                failures.append(f"lambda={lam}: {problems[0]}")
    return _passfail("lattice_bracket_axioms", failures, grid)


def _check_min_max_hom() -> dict:
    failures, grid = [], 0
    for lam in range(0, 13):
        grid += 1
        mn = borelweil.minimal_lattice(lam)
        mx = borelweil.maximal_lattice(lam)
        index = borelweil.inclusion_index(mn, mx)
        if index is None or index < 1:
            failures.append(f"lambda={lam}: minimal not inside maximal")
            continue
        hom = borelweil.hom_lattice(mn, mx)
        if hom["rank"] != 1 or hom["generator"] is None:
            failures.append(f"lambda={lam}: hom rank {hom['rank']}")
    return _passfail("minimal_maximal_hom_rank_one", failures, grid)


def _check_dual_roundtrip() -> dict:
    failures, grid = [], 0
    for lam in range(0, 9):
        grid += 1
        amb = borelweil.ladder_lattice(lam, 0)
        bottom = [Fraction(1 if i == amb.rank - 1 else 0) for i in range(amb.rank)]
        low = borelweil.generated_lattice(amb, [bottom])
        D = borelweil.dual_lattice(low)
        hom = borelweil.hom_lattice(D, borelweil.maximal_lattice(lam))
        if hom["rank"] != 1:
            failures.append(f"lambda={lam}: dual comparison rank {hom['rank']}")
            continue
        # the square generator is monomial (diagonal by weight): |det| is
        # the product of its nonzero entries, or 0 when a row is zero
        entries = [abs(x) for row in hom["generator"] for x in row if x]
        det = prod(entries) if len(entries) == len(hom["generator"]) else 0
        if det != 1:
            failures.append(f"lambda={lam}: change of basis has |determinant| {det}")
    return _passfail("dual_roundtrip_to_maximal", failures, grid)


def _check_admissible_crosscheck() -> dict:
    failures, grid = [], 0
    for lam in range(0, 13):
        grid += 1
        if not borelweil.lattice_span_equal(
            borelweil.binomial_lattice(lam), borelweil.maximal_lattice(lam)
        ):
            failures.append(f"lambda={lam}: binomial model differs from maximal")
    return _passfail("admissible_model_crosscheck", failures, grid)


def _check_counit_surjectivity() -> dict:
    failures, grid = [], 0
    for n in range(1, 21):
        for lam in range(-5, 6):
            if lam + 2 * n < 0:
                continue
            grid += 1
            try:
                report = borelweil.counit_fraction_witness(lam, n)
            except ValueError as exc:
                failures.append(f"(lam={lam}, n={n}): {exc}")
                continue
            if report["fraction"] != Fraction(1, n) % 1:
                failures.append(f"(lam={lam}, n={n}): fraction {report['fraction']}")
    return _passfail("counit_fraction_surjectivity", failures, grid)


def _check_weight_multiplicities() -> dict:
    failures, grid = [], 0
    for lam in range(0, 13):
        grid += 1
        weights = borelweil.maximal_lattice(lam).weights
        if len(set(weights)) != len(weights):
            failures.append(f"lambda={lam}: repeated weight")
    return _passfail("weight_multiplicity_one", failures, grid)


def suite_borelweil() -> list:
    return [
        _check_lattice_axioms_grid(),
        _check_min_max_hom(),
        _check_dual_roundtrip(),
        _check_admissible_crosscheck(),
        _check_counit_surjectivity(),
        _check_weight_multiplicities(),
    ]


# -- driver ----------------------------------------------------------------------

_SUITE_FUNCS = {
    "hecke": suite_hecke,
    "modules": suite_modules,
    "lattice": suite_lattice,
    "contraction": suite_contraction,
    "borelweil": suite_borelweil,
}


def run_suite(name: str) -> dict:
    """Run one suite (or "all"); the report fails only on a hard failure."""
    if name != "all" and name not in _SUITE_FUNCS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES + ('all',)}")
    names = list(SUITES) if name == "all" else [name]
    checks = []
    for suite in names:
        for entry in _SUITE_FUNCS[suite]():
            checks.append({"suite": suite, **entry})
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
