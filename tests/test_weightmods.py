"""Induced, produced, and principal-series modules.

The induced/produced coefficients are cross-checked through the enveloping
algebra: words are normal-ordered with E on the left (via the swap
automorphism E <-> F, H -> -H) and evaluated against the defining
characters, which is an independent route to the same numbers.
"""

import random
from fractions import Fraction

import pytest

import reference
from hclat import contraction as ct
from hclat import pbw, verify
from hclat import weightmods as wm
from hclat.scalars import Laurent
from hclat.zforms import iwasawa_decompose, make_zform, subalgebra

SWAP = {"E": "F", "F": "E", "H": "H"}


def printed_qp(n, m, eps, mu):
    """The qp-series with the alternate printed F-coefficient
    mu/2nm - p - eps, twice the bracket-consistent one."""
    derived = wm.principal_series(n, m, "qp", eps, mu)
    return derived.with_action("F", -1, wm.affine(mu / (2 * n * m) - eps, -1))


def normal_form_ehf(word, g):
    """Normal form in the order E < H < F, as {(alpha, beta, gamma): coeff}
    meaning E^alpha H^beta F^gamma.

    Uses the swap automorphism E <-> F, H -> -H: apply it to the word,
    normal-order in the usual F < H < E order, and map back.
    """
    word = list(word)
    word_sign = (-1) ** sum(1 for x in word if x == "H")
    image = pbw.normal_form([SWAP[x] for x in word], g)
    out = {}
    for (a, b, c), coeff in image.items():
        out[(a, b, c)] = out.get((a, b, c), 0) + coeff * word_sign * (-1) ** b
    return {k: v for k, v in out.items() if v != 0}


def induced_vector_by_pbw(word_gen, p, lam, g):
    """Apply a generator to y_(lam+np) = E^p (x) 1 by normal ordering.

    Right factors H, F act on the highest weight line by lam and 0.
    """
    nf = normal_form_ehf([word_gen] + ["E"] * p, g)
    out = {}
    for (alpha, beta, gamma), coeff in nf.items():
        if gamma > 0:
            continue
        value = coeff * Fraction(lam) ** beta
        if value:
            out[alpha] = out.get(alpha, 0) + value
    return {k: v for k, v in out.items() if v != 0}


def produced_value_by_pbw(word_gen, p, q, lam, g):
    """(gen . phi_p)(F^q) = phi_p(F^q gen) with phi_p dual to F^p.

    Left factors E, H act on the character by 0 and lam.
    """
    nf = normal_form_ehf(["F"] * q + [word_gen], g)
    total = Fraction(0)
    for (alpha, beta, gamma), coeff in nf.items():
        if alpha > 0 or gamma != p:
            continue
        total += coeff * Fraction(lam) ** beta
    return total


def image(M, gen, p):
    """The image of the basis vector at p as {target: coefficient}, read
    through ``coefficient``."""
    c = M.coefficient(gen, p)
    return {p + M.actions[gen][0]: c} if c else {}


def test_induced_example_g11():
    g = make_zform(1, 1, 1)
    ind = wm.induced_module(g, 1)
    assert ind.actions["F"][0] == -1 and ind.actions["E"][0] == 1
    assert ind.coefficient("F", 2) == Fraction(-3)
    assert ind.coefficient("F", 0) == 0
    assert ind.coefficient("E", 4) == Fraction(1)
    assert wm.module_rows(ind, 3, 3)[0][1] == 4


def test_induced_matches_pbw_evaluation():
    for n, m in [(1, 1), (2, 3), (3, 1)]:
        g = make_zform(n, m, 1)
        for lam in (-3, 0, 2):
            ind = wm.induced_module(g, lam)
            for p in range(0, 9):
                for gen in ("E", "F", "H"):
                    direct = image(ind, gen, p)
                    assert induced_vector_by_pbw(gen, p, lam, g) == direct


def test_produced_example_g11():
    g = make_zform(1, 1, 1)
    pro = wm.produced_module(g, 1)
    assert pro.coefficient("E", 0) == Fraction(-1)
    assert pro.coefficient("F", 0) == 0
    assert pro.coefficient("F", 5) == Fraction(1)


def test_produced_matches_pbw_evaluation():
    for n, m in [(1, 1), (2, 3)]:
        g = make_zform(n, m, 1)
        for lam in (-2, 0, 3):
            pro = wm.produced_module(g, lam)
            for p in range(0, 7):
                for gen in ("E", "F", "H"):
                    hits = image(pro, gen, p)
                    for q in range(0, 9):
                        assert produced_value_by_pbw(gen, p, q, lam, g) == hits.get(
                            q, Fraction(0)
                        )


def test_bracket_axioms_families():
    window = range(-40, 41)
    for n, m in [(1, 1), (2, 3), (3, 2)]:
        g = make_zform(n, m, 1)
        for lam in (-6, 0, 5):
            assert wm.check_module_axioms(wm.induced_module(g, lam), window) == []
            assert wm.check_module_axioms(wm.produced_module(g, lam), window) == []


def test_duality_pairing_coefficients():
    """EF-composite equals FE-composite plus m(lam+np) in induced(lam)."""
    for n, m in [(1, 1), (2, 3)]:
        g = make_zform(n, m, 1)
        for lam in (-4, 1):
            ind = wm.induced_module(g, lam)
            for p in range(0, 30):
                ef = ind.coefficient("F", p) * ind.coefficient("E", p - 1)
                fe = ind.coefficient("E", p) * ind.coefficient("F", p + 1)
                assert ef == fe + m * (lam + n * p)


def test_ps_q_example():
    ps = wm.principal_series(1, 1, "q", Fraction(0), Fraction(2))
    for p in range(-6, 7):
        assert ps.coefficient("E", p) == Fraction(p + 1, 2)
        assert ps.coefficient("F", p) == 1 - p
    assert [row[1] for row in wm.module_rows(ps, -6, 6)] == list(range(-6, 7))


def test_ps_qpp_coefficients():
    """q''-series: E adds mu/2 + n(p+eps), F subtracts."""
    for n in (1, 2, 3):
        for k in range(n):
            eps = Fraction(k, n)
            for mu in (Fraction(0), Fraction(3), Fraction(-5, 2)):
                ps = wm.principal_series(n, 2 * n, "qpp", eps, mu)
                for p in range(-5, 6):
                    assert ps.coefficient("E", p) == mu / 2 + n * (p + eps)
                    assert ps.coefficient("F", p) == mu / 2 - n * (p + eps)


def test_ps_qp_derived_f_coefficient():
    """qp-series F-coefficient is half of (mu/2nm - p - eps)."""
    ps = wm.principal_series(2, 3, "qp", Fraction(1, 2), Fraction(7))
    n, m, mu, eps = 2, 3, Fraction(7), Fraction(1, 2)
    for p in range(-5, 6):
        assert ps.coefficient("F", p) == Fraction(1, 2) * (
            mu / (2 * n * m) - p - eps
        )
        assert ps.coefficient("E", p) == mu / 2 + n * m * (p + eps)


def test_ps_alternate_qp_coefficient_breaks_bracket():
    derived = wm.principal_series(2, 3, "qp", Fraction(0), Fraction(5))
    assert wm.check_module_axioms(derived, range(-25, 26)) == []
    alternate = printed_qp(2, 3, Fraction(0), Fraction(5))
    for p in range(-10, 11):
        assert alternate.coefficient("F", p) == 2 * derived.coefficient("F", p)
    failures = wm.check_module_axioms(alternate, range(-25, 26))
    assert failures and all(name == "[E,F]=mH" for _, name, _ in failures)


def test_ps_bracket_axioms_grid():
    window = range(-50, 51)
    for n in (1, 2):
        for m in (1, 3):
            for k in range(n):
                eps = Fraction(k, n)
                for mu in (Fraction(1), Fraction(-7, 3)):
                    for label in ("q", "qp"):
                        ps = wm.principal_series(n, m, label, eps, mu)
                        assert wm.check_module_axioms(ps, window) == [], label


def test_ps_vanishing_index_unique():
    """E-coefficient vanishes exactly at the top of the integral support."""
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        k = rng.choice([j for j in range(n) if 2 * Fraction(j, n).denominator <= 2])
        eps = Fraction(k, n)
        target = rng.randint(-6, 6)
        mu = 2 * n * m * (target - eps)  # makes mu/2nm + eps an integer
        ps = wm.principal_series(n, m, "q", eps, Fraction(mu))
        zeros_e = [p for p in range(-40, 41) if ps.coefficient("E", p) == 0]
        assert zeros_e == [-target]
        if (Fraction(mu) / (2 * n * m) - eps).denominator == 1:
            zeros_f = [p for p in range(-40, 41) if ps.coefficient("F", p) == 0]
            assert len(zeros_f) == 1


def test_weight_equals_h_eigenvalue():
    # the weight is read off H; both are the T^1-exponent lambda + n*p or
    # n(p + eps), and the weight is an int, as the documents print it
    g = make_zform(3, 2, Fraction(1, 2))
    eps = Fraction(2, 3)
    mods = [
        (wm.induced_module(g, -4), lambda p: -4 + 3 * p),
        (wm.produced_module(g, 2), lambda p: 2 + 3 * p),
        (
            wm.principal_series(3, 2, "q", eps, Fraction(5)),
            lambda p: 3 * (p + eps),
        ),
    ]
    for M, exponent in mods:
        rows = wm.module_rows(M, -20, 20)
        for p in range(-20, 21):
            if M.support.contains(p):
                assert M.coefficient("H", p) == exponent(p)
        assert [row[1] for row in rows] == [M.coefficient("H", row[0]) for row in rows]
        assert [row[1] for row in rows] == [exponent(row[0]) for row in rows]
        assert all(type(row[1]) is int for row in rows)


def test_character_validation():
    with pytest.raises(ValueError, match="residue"):
        wm.principal_series(2, 1, "q", Fraction(1, 3), Fraction(1))
    with pytest.raises(ValueError, match="q, qp or qpp"):
        wm.principal_series(2, 1, "nope", Fraction(0), Fraction(1))
    # the series is over Q: a Laurent mu belongs to the contraction
    for mu in (Laurent.parse("2z"), Laurent.const(3)):
        with pytest.raises(TypeError, match="not an exact rational"):
            wm.principal_series(2, 1, "q", Fraction(0), mu)


def test_derive_ps_action_tables():
    # the q-frame coordinates (c_X, c_mu, c_w) of E and F over g_{2,3}, and
    # the principal series built from them: c_mu*mu + c_w*n(p + eps)
    gq = make_zform(2, 3, Fraction(1, 2))
    table = iwasawa_decompose(subalgebra(gq, "q"))
    assert table["E"][1:] == (Fraction(1, 24), Fraction(1, 4))
    assert table["F"][1:] == (Fraction(1, 2), Fraction(-3))
    eps, mu = Fraction(1, 2), Fraction(5)
    ps = wm.principal_series(2, 3, "q", eps, mu)
    for gen, shift, c_mu, c_w in (("E", 1, Fraction(1, 24), Fraction(1, 4)),
                                  ("F", -1, Fraction(1, 2), Fraction(-3))):
        assert ps.actions[gen] == (shift, wm.affine(c_mu * mu + c_w * 2 * eps, c_w * 2))


def test_negative_control_corrupted_module():
    g = make_zform(1, 1, 1)
    ind = wm.induced_module(g, 1)
    corrupt = ind.with_action("E", 1, wm.IndexPoly([2]))
    failures = wm.check_module_axioms(corrupt, range(0, 15))
    assert {p for p, _, _ in failures} == set(range(0, 15))


def test_module_rows_window():
    g = make_zform(1, 2, 1)
    pro = wm.produced_module(g, 2)
    rows = wm.module_rows(pro, -2, 2)
    assert [r[0] for r in rows] == [0, 1, 2]
    assert rows[0] == [0, 2, str(Fraction(-4)), str(Fraction(0)), str(Fraction(2))]


# -- coefficient polynomials ----------------------------------------------------


def random_index_poly(rng, laurent):
    coeffs = []
    for _ in range(rng.randint(0, 4)):
        c = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 6)))
        if laurent:
            c = Laurent({rng.randint(-2, 2): c, rng.randint(-2, 2): rng.randint(-3, 3)})
        coeffs.append(c)
    return coeffs


def direct_value(coeffs, p, laurent):
    total = Laurent() if laurent else Fraction(0)
    for k, c in enumerate(coeffs):
        total = total + c * Fraction(p) ** k
    return total


@pytest.mark.parametrize("laurent", [False, True])
def test_index_poly_matches_direct_evaluation(laurent):
    rng = random.Random(6 + laurent)
    for _ in range(100):
        a, b = random_index_poly(rng, laurent), random_index_poly(rng, laurent)
        P, Q = wm.IndexPoly(a), wm.IndexPoly(b)
        # the zero polynomial has Fraction values
        kind = Laurent if laurent and P else Fraction
        k = rng.randint(-4, 4)
        c = rng.choice((2, Fraction(-3, 4), Laurent.z_power(1, 5) if laurent else 7))
        # the arithmetic of tests/reference.py, read back through IndexPoly
        total, difference, product, scaled, shifted = (
            wm.IndexPoly(coeffs)
            for coeffs in (
                reference.poly_add(a, b),
                reference.poly_sub(a, b),
                reference.poly_mul(a, b),
                reference.poly_scale(a, c),
                reference.poly_shift(a, k),
            )
        )
        for p in range(-6, 7):
            value = P(p)
            assert type(value) is kind and value == direct_value(a, p, laurent)
            assert total(p) == value + Q(p)
            assert difference(p) == value - Q(p)
            assert product(p) == value * Q(p)
            assert scaled(p) == value * c
            assert shifted(p) == P(p + k)
        assert bool(P) == any(a)
        zero = reference.poly_sub(a, a)
        assert wm.IndexPoly(zero) == wm.IndexPoly([]) and not any(zero)


def test_index_poly_lifts_to_laurent_and_strips_zeros():
    P = wm.IndexPoly([1, Laurent.z_power(1), 0])
    assert P.coeffs == (Laurent.const(1), Laurent.z_power(1))
    assert all(type(c) is Laurent for c in P.coeffs)
    # a Fraction next to a Laurent coefficient is lifted, wherever it sits
    Q = wm.IndexPoly([Laurent.z_power(-1), Fraction(1, 2)])
    assert [type(c) for c in Q.coeffs] == [Laurent, Laurent]
    assert type(Q(2)) is Laurent and Q(2) == Laurent({-1: 1, 0: 1})
    assert type(P(2)) is Laurent and P(2) == Laurent({0: 1, 1: 2})
    assert wm.IndexPoly([Laurent(), 0]).coeffs == () and wm.IndexPoly([Laurent()])(1) == 0
    assert wm.IndexPoly([0, 0]).coeffs == () and wm.IndexPoly([])(5) == 0
    assert wm.IndexPoly([Fraction(1, 2), 3]) == wm.affine(Fraction(1, 2), 3)


def test_every_action_is_a_polynomial():
    g = make_zform(2, 3, 6)
    for M in (
        wm.induced_module(g, 1),
        wm.produced_module(g, -2),
        wm.principal_series(2, 3, "qp", Fraction(1, 2), Fraction(5)),
        printed_qp(2, 3, Fraction(1, 2), Fraction(5)),
    ):
        assert all(isinstance(poly, wm.IndexPoly) for _, poly in M.actions.values())


# -- the polynomial axiom check against the windowed reference ----------------


def reference_apply(M, gen, vec):
    out = {}
    for p, c in vec.items():
        for p2, c2 in reference.act_gen(M, gen, p):
            total = out.get(p2, 0) + c2 * c
            if total:
                out[p2] = total
            else:
                out.pop(p2, None)
    return out


def reference_sub(x, y):
    out = dict(x)
    for p, c in y.items():
        total = out.get(p, 0) - c
        if total:
            out[p] = total
        else:
            out.pop(p, None)
    return out


def windowed_axioms(M, window):
    """The brute-force route: every relation applied to the basis vector at
    every supported window index, actions clipped at the support."""
    failures = []
    for p in window:
        if not M.support.contains(p):
            continue
        v = {p: Fraction(1)}
        image = {gen: reference_apply(M, gen, v) for gen in M.actions}
        for label, x, y, target, c in M.relations:
            bracket = reference_sub(
                reference_apply(M, x, image[y]), reference_apply(M, y, image[x])
            )
            scaled = {q: c * s for q, s in image[target].items() if c * s}
            diff = reference_sub(bracket, scaled)
            if diff:
                failures.append((p, label, diff))
    return failures


def differential_modules(rng):
    """Families, negative controls and support clippings of g_{n,m}
    modules, and of the contraction and its fibers."""
    out = []
    for _ in range(6):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        lam = rng.randint(-5, 5)
        g = make_zform(n, m, 1)
        out += [wm.induced_module(g, lam), wm.produced_module(g, lam)]
        eps = Fraction(rng.randrange(n), n)
        mu = Fraction(rng.randint(-12, 12), rng.choice((1, 3)))
        label = rng.choice(("q", "qp"))
        ps = wm.principal_series(n, m, label, eps, mu)
        out.append(ps)
        out.append(printed_qp(n, m, eps, mu))
        # the principal series cut to a half-line is no submodule: its
        # proved relations fail next to the cut
        bound = rng.randint(-4, 4)
        cut = wm.Support(rng.choice(("ge", "le")), bound)
        out.append(wm.WeightModule(ps.relations, cut, ps.actions, ps.params, ps.vanishing_reason))
        # a corrupted action, possibly with the wrong shift
        gen = rng.choice(("E", "F", "H"))
        poly = wm.IndexPoly(random_index_poly(rng, False))
        out.append(ps.with_action(gen, rng.randint(-1, 1), poly))
    out.append(wm.principal_series(2, 4, "qpp", Fraction(1, 2), Fraction(3)))
    poly_mu = Laurent.parse("2z+z^2")
    cind = ct.contracted_induced(2, 2)
    cpoly = ct.contracted_ps(0, poly_mu, ct.POLY)
    out += [
        cind,
        ct.contracted_produced(-1, 3),
        ct.contracted_ps(Fraction(1, 2), Laurent.parse("z^-1+3z"), ct.LAURENT_RING, n=2),
        ct.contracted_ps(0, poly_mu, ct.POLY),
        ct.contracted_ps(0, Laurent.parse("1+z"), ct.POLY),  # the zero module
        cind.with_action("f", -1, wm.IndexPoly([0, -1, Laurent.const(-1)])),
        wm.WeightModule(
            cpoly.relations, wm.Support("ge", 1), cpoly.actions, cpoly.params,
            cpoly.vanishing_reason,
        ),
        ct.specialize(ct.contracted_induced(3, 1), 1),
        ct.specialize(ct.contracted_produced(1, 2), Fraction(2, 3)),
        ct.specialize(ct.contracted_ps(Fraction(1, 3), Laurent.parse("6z"), ct.LAURENT_RING, n=3), 0),
    ]
    return out


def test_axiom_check_matches_windowed_reference():
    rng = random.Random(20)
    windows = (range(-30, 31), range(-3, 4), range(5, -6, -1), [7, -2, 0, 1, 2, -1])
    controls = 0
    for M in differential_modules(rng):
        for window in windows:
            want = windowed_axioms(M, window)
            assert repr(wm.check_module_axioms(M, window)) == repr(want), (M.params, window)
            controls += bool(want)
    assert controls >= 20  # the negative controls do fail


# -- the integer relation proofs against the Fraction route -------------------


def doubled(M):
    """M reindexed by p -> p/2: each shift doubled and each coefficient
    P(p) replaced by P(p/2), so every relation identity carries over."""
    actions = {
        gen: (2 * shift, wm.IndexPoly([a * Fraction(1, 2**k) for k, a in enumerate(poly.coeffs)]))
        for gen, (shift, poly) in M.actions.items()
    }
    return wm.WeightModule(M.relations, M.support, actions, M.params, M.vanishing_reason)


def proof_modules(rng):
    """The differential modules and every module the verify suites check,
    with zero polynomials, z^-1 terms, c = z and shifts of +-2."""
    out = differential_modules(rng)
    out += [M for _, M in verify._module_families() + verify._contracted_families()]
    g = make_zform(2, 3, 1)
    ps = wm.principal_series(2, 3, "qp", Fraction(1, 2), Fraction(5))
    cps = ct.contracted_ps(Fraction(1, 2), Laurent.parse("z^-1+3z"), ct.LAURENT_RING, n=2)
    out += [doubled(M) for M in (wm.produced_module(g, 1), ps, ct.contracted_induced(1, 2), cps)]
    out += [
        ps.with_action("E", 1, wm.IndexPoly([])),
        ct.contracted_induced(2, 2).with_action("h", 0, wm.IndexPoly([])),
        # c = z on Fraction coefficients, and a zero constant
        wm.WeightModule(
            (("[E,F]=zH", "E", "F", "H", Laurent.z_power(1)),), ps.support, ps.actions,
            ps.params, ps.vanishing_reason,
        ),
        wm.WeightModule(
            (("[E,F]=0", "E", "F", "H", 0),), ps.support, ps.actions, ps.params,
            ps.vanishing_reason,
        ),
    ]
    # random shifts in -2..2 and random coefficients, zero ones among them
    for _ in range(30):
        laurent = rng.random() < 0.5
        M = cps if laurent else ps
        for gen in M.actions:
            poly = wm.IndexPoly(random_index_poly(rng, laurent))
            M = M.with_action(gen, rng.randint(-2, 2), poly)
        out.append(M)
    return out


def test_integer_proof_matches_fraction_reference():
    rng = random.Random(31)
    proved = refuted = 0
    for M in proof_modules(rng):
        for relation in M.relations:
            got = wm._proof(M, relation)
            assert got == reference.proof(M, relation), (relation, M.params, M.actions)
            proved += got[0]
            refuted += not got[0]
    assert proved >= 100 and refuted >= 50


def nudged(M, gen, degree, delta):
    """M with delta added to the p^degree coefficient of gen's action."""
    shift, poly = M.actions[gen]
    coeffs = list(poly.coeffs) + [0] * (degree + 1 - len(poly.coeffs))
    coeffs[degree] += delta
    return M.with_action(gen, shift, wm.IndexPoly(coeffs))


def test_nudged_coefficient_refutes_a_proved_relation():
    """A proved relation [X, Y] = cT fails on both routes once T's constant
    term moves by 1/7 or z^-1 (T neither X nor Y, c nonzero: the bracket
    stays), or once the slope of a Cartan X moves (the bracket gains
    delta*s_Y*Y(p), nonzero for s_Y nonzero and Y nonzero)."""
    rng = random.Random(32)
    controls = 0
    for M in proof_modules(rng):
        for relation in M.relations:
            _label, x, y, target, c = relation
            if not wm._proof(M, relation)[0]:
                continue
            delta = rng.choice((Fraction(1, 7), Laurent.z_power(-1)))
            if target not in (x, y) and c != 0:
                N = nudged(M, target, 0, delta)
            elif M.actions[x][0] == 0 and M.actions[y][0] and M.actions[y][1]:
                N = nudged(M, x, 1, delta)
            else:
                continue
            assert not wm._proof(N, relation)[0], (relation, N.actions)
            assert not reference.proof(N, relation)[0], (relation, N.actions)
            controls += 1
    assert controls >= 20


def test_coefficient_columns_match_coefficient():
    # cut supports, the zero module, zero polynomials and shifts of +-2
    for M in proof_modules(random.Random(33)):
        for gen in M.actions:
            for lo, hi in ((-7, 7), (2, 2), (3, -3)):
                columns = M.coefficient_columns(gen, lo, hi)
                want = [M.coefficient(gen, p) for p in range(lo, hi + 1)]
                got = [
                    Laurent({e: Fraction(values[i], d) for e, d, values in columns})
                    for i in range(len(want))
                ]
                assert got == want and (columns or lo > hi), (gen, lo, hi, M.actions)
                zeros = [p for p, c in zip(range(lo, hi + 1), want) if not c]
                assert M.zero_indices(gen, lo, hi) == zeros


def test_axiom_check_builds_no_index_poly(monkeypatch):
    g = make_zform(2, 3, 1)
    modules = [
        wm.induced_module(g, 1),
        wm.principal_series(2, 3, "qp", Fraction(1, 2), Fraction(5)),
        ct.contracted_induced(-2, 2),
        ct.contracted_ps(Fraction(1, 2), Laurent.parse("z^-1+3z"), ct.LAURENT_RING, n=2),
    ]
    built = []
    real = wm.IndexPoly.__init__

    def counting(self, coeffs):
        built.append(coeffs)
        real(self, coeffs)

    monkeypatch.setattr(wm.IndexPoly, "__init__", counting)
    for M in modules:
        assert wm.check_module_axioms(M, range(-30, 31)) == []
    assert built == []


def test_proved_relations_run_only_next_to_the_boundary(monkeypatch):
    seen = []
    real = wm._failures_at

    def spy(M, p, relations):
        seen.append((p, tuple(label for label, *_ in relations)))
        return real(M, p, relations)

    monkeypatch.setattr(wm, "_failures_at", spy)
    g = make_zform(2, 3, 1)
    assert wm.check_module_axioms(wm.induced_module(g, 1), range(-50, 51)) == []
    # F lowers the index, so [H,F] and [E,F] touch p - 1 at p = 0
    assert seen == [(0, ("[H,F]=-nF", "[E,F]=mH"))]
    seen.clear()
    ps = wm.principal_series(2, 3, "qp", Fraction(1, 2), Fraction(5))
    assert wm.check_module_axioms(ps, range(-50, 51)) == []
    assert seen == []
    pro = wm.produced_module(g, 1)
    cut = wm.WeightModule(
        pro.relations, wm.Support("le", 4), pro.actions, pro.params, pro.vanishing_reason
    )
    wm.check_module_axioms(cut, range(-50, 51))
    assert seen == [(4, ("[H,E]=nE", "[E,F]=mH"))]
    seen.clear()
    # a reversed range and an unordered list: the boundary indices only,
    # in window order
    both = ("[H,E]=nE", "[E,F]=mH")
    seen.clear()
    wm.check_module_axioms(cut, range(50, -51, -1))
    wm.check_module_axioms(cut, [9, 4, -3, 0])
    assert seen == [(4, both), (4, both)]
    # shifts of +-2 put two indices next to the cut
    wide = doubled(pro)
    wide = wm.WeightModule(
        wide.relations, wm.Support("le", 4), wide.actions, wide.params, wide.vanishing_reason
    )
    seen.clear()
    wm.check_module_axioms(wide, range(50, -51, -1))
    wm.check_module_axioms(wide, [3, -7, 12, 4, 0])
    assert seen == [(4, both), (3, both), (3, both), (4, both)]
    # a window wholly off the support evaluates nothing
    seen.clear()
    assert wm.check_module_axioms(wide, range(5, 60)) == []
    assert wm.check_module_axioms(wide, [9, 30, 5]) == []
    assert seen == []
    alternate = printed_qp(2, 3, Fraction(1, 2), Fraction(5))
    assert len(wm.check_module_axioms(alternate, range(-5, 6))) == 11
    assert seen == [(p, ("[E,F]=mH",)) for p in range(-5, 6)]
