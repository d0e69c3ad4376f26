"""Contracted bracket, module families, irreducibility, and specialization."""

import itertools
import random
from fractions import Fraction

import pytest

import reference
from reference import poly_mul, poly_scale
from hclat import contraction
from hclat.contraction import (
    GENERATORS,
    check_contraction_axioms,
    coefficient_roots,
    contracted_induced,
    contracted_produced,
    contracted_ps,
    contraction_rows,
    generic_irreducibility,
    phi_preserves_bracket,
    polynomial_lattice,
    specialize,
    specialize_matches,
)
from hclat.scalars import LAURENT_RING, POLY, Laurent
from hclat.weightmods import (
    IndexPoly,
    Support,
    WeightModule,
    check_module_axioms,
    gnm_relations,
    induced_module,
    principal_series,
    produced_module,
)
from hclat.zforms import bracket_coords, make_zform


lau = Laurent.parse


Z = Laurent.z_power(1)


def term(gen, degree):
    """The homogeneous element z^degree times a generator, as a coordinate
    triple over (e, f, h)."""
    return tuple(
        Laurent.z_power(degree) if g == gen else Laurent.const(0) for g in GENERATORS
    )


def contracted(x, y):
    """The contraction bracket: that of g_{2,z}."""
    return bracket_coords(2, Z, x, y)


def only(gen, c):
    """The triple with c on one generator and 0 elsewhere."""
    return tuple(c if g == gen else 0 for g in GENERATORS)


def test_bracket_basis_values():
    assert contracted(term("e", 0), term("f", 0)) == only("h", Z)
    assert contracted(term("h", 0), term("e", 0)) == only("e", 2)
    assert contracted(term("h", 0), term("f", 0)) == only("f", -2)
    assert contracted(term("e", 0), term("e", 3)) == (0, 0, 0)
    # degrees add, and [e, f] picks up one more z
    assert contracted(term("e", 2), term("f", 1)) == only("h", Laurent.z_power(4))
    assert contracted(term("h", 2), term("e", 1)) == only("e", Laurent.z_power(3, 2))
    # at m = 1 it is the sl2 bracket
    sl2 = bracket_coords(2, 1, term("e", 2), term("f", 1))
    assert sl2 == only("h", Laurent.z_power(3))
    sl2 = bracket_coords(2, 1, term("h", 2), term("e", 1))
    assert sl2 == only("e", Laurent.z_power(3, 2))


def test_bracket_antisymmetry_and_jacobi():
    degrees = (0, 1, 2)
    basis = [term(g, a) for g in GENERATORS for a in degrees]
    for x, y in itertools.product(basis, repeat=2):
        assert contracted(x, y) == tuple(-c for c in contracted(y, x))
    for x, y, w in itertools.product(basis, repeat=3):
        total = (0, 0, 0)
        for a, b, c in ((x, y, w), (y, w, x), (w, x, y)):
            total = tuple(s + t for s, t in zip(total, contracted(a, contracted(b, c))))
        assert total == (0, 0, 0)


def test_phi_is_bracket_preserving(monkeypatch):
    assert phi_preserves_bracket() == []
    # [phi(e), phi(f)] = [e, z^-1 f] = z * z^-1 h = phi(h)
    lhs = contracted((1, 0, 0), (0, Laurent.z_power(-1), 0))
    assert lhs == (0, 0, 1)
    # failing pairs are named by generator
    monkeypatch.setattr(contraction, "bracket_failures", lambda *_: [(0, 1, "lhs", "rhs")])
    assert phi_preserves_bracket() == [("e", "f", "lhs", "rhs")]


# -- the three families -------------------------------------------------------


def test_induced_coefficients():
    M = contracted_induced(1, 1)
    assert M.coefficient("f", 2) == Laurent.z_power(1, -6)
    assert M.coefficient("f", 0) == 0  # boundary
    assert M.coefficient("e", 5) == Laurent.const(1)
    assert M.coefficient("h", 2) == Laurent.const(6)
    assert contraction_rows(M, 2, 2)[0][1] == 3


def test_produced_coefficients():
    P = contracted_produced(0, 1)
    assert P.coefficient("e", 0) == Laurent.const(0)
    assert P.coefficient("f", 0) == 0
    P2 = contracted_produced(2, 1)
    assert P2.coefficient("e", 1) == Laurent.z_power(1, -2 * 5)
    assert P2.coefficient("f", 3) == Laurent.const(1)


def test_ps_coefficients_and_weights():
    S = contracted_ps(0, lau("2z"), LAURENT_RING)
    assert S.coefficient("e", 0) == Laurent.const(1)
    assert S.coefficient("h", 3) == Laurent.const(6)
    S2 = contracted_ps(Fraction(1, 2), lau("z"), LAURENT_RING, n=2)
    assert contraction_rows(S2, 1, 1)[0][1] == 3  # n(p + eps) = 2(1 + 1/2)
    assert S2.coefficient("h", 1) == Laurent.const(3)


def test_bracket_axioms_across_families():
    window = range(-41, 42)
    for M in (
        contracted_induced(0, 1),
        contracted_induced(3, 2),
        contracted_induced(-2, 3),
        contracted_produced(0, 1),
        contracted_produced(2, 2),
        contracted_ps(0, lau("2z"), LAURENT_RING),
        contracted_ps(0, lau("1"), LAURENT_RING),
        contracted_ps(0, lau("1+z"), LAURENT_RING),
        contracted_ps(Fraction(1, 2), lau("z^2"), LAURENT_RING, n=2),
        contracted_ps(Fraction(1, 3), lau("z^-2+5z"), LAURENT_RING, n=3),
        contracted_ps(0, lau("z^3"), POLY),
    ):
        assert check_contraction_axioms(M, window) == []


def test_contraction_axioms_negative_control():
    M = contracted_induced(1, 1)
    # an f-action that lost its factor z: [e,f] is no longer z*h
    corrupt = M.with_action("f", -1, IndexPoly([0, -1, Laurent.const(-1)]))
    failures = check_contraction_axioms(corrupt, range(0, 15))
    assert {label for _, label, _ in failures} == {"[e,f]=z*h"}
    assert {p for p, _, _ in failures} == set(range(0, 15))


def test_contraction_axioms_reject_undeformed_sl2_module():
    # dividing f by z (the map phi) turns [e,f] = z*h into the sl2 relation
    M = contracted_induced(1, 1)
    _, f_coeff = M.actions["f"]
    S = M.with_action("f", -1, IndexPoly(poly_scale(f_coeff.coeffs, Laurent.z_power(-1))))
    sl2 = (
        ("[h,e]=2e", "h", "e", "e", 2),
        ("[h,f]=-2f", "h", "f", "f", -2),
        ("[e,f]=h", "e", "f", "h", 1),
    )
    window = range(0, 15)
    T = WeightModule(sl2, S.support, S.actions, S.params, S.vanishing_reason)
    assert check_module_axioms(T, window) == []
    failures = check_contraction_axioms(S, window)
    assert {label for _, label, _ in failures} == {"[e,f]=z*h"}
    assert {p for p, _, _ in failures} == set(window)


def test_ps_vanishing_marker_over_poly():
    V = contracted_ps(0, lau("1+z"), POLY)
    assert V.vanishing_reason is not None
    assert V.coefficient("e", 0) == 0
    ok = contracted_ps(0, lau("z+z^2"), POLY)
    assert ok.vanishing_reason is None


def test_ps_rejects_mu_outside_ring():
    with pytest.raises(ValueError, match="does not lie in"):
        contracted_ps(0, lau("z^-1"), POLY)
    with pytest.raises(ValueError, match="residue"):
        contracted_ps(Fraction(1, 3), lau("z"), LAURENT_RING, n=2)


# -- irreducibility -----------------------------------------------------------


def test_generic_irreducibility_examples():
    assert generic_irreducibility(0, lau("z")) is True
    assert generic_irreducibility(0, lau("2z")) is False
    assert generic_irreducibility(Fraction(1, 2), lau("z")) is False
    assert generic_irreducibility(0, lau("z^2")) is True
    assert generic_irreducibility(0, lau("1+z")) is True
    assert generic_irreducibility(0, lau("0")) is False  # root at p = 0


def test_irreducibility_matches_root_search():
    mus = ["0", "1", "5", "z", "2z", "3z", "-4z", "1/2z", "z^2", "1+z", "2z+z^2", "z^-1"]
    eps_values = [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)]
    for text in mus:
        mu = lau(text)
        for eps in eps_values:
            n = eps.denominator
            roots = coefficient_roots(eps, mu, (-10, 10), n)
            assert generic_irreducibility(eps, mu) == (not roots), (text, eps)


def test_root_search_finds_both_sides():
    # mu = 2z(1 + 1/3): e-root needs t + eps integral, f-root t - eps
    mu = lau("8/3z")
    roots = coefficient_roots(Fraction(1, 3), mu, (-10, 10), 3)
    assert ("f", 1) in roots  # t - eps = 4/3 - 1/3 = 1
    assert "e" not in [gen for gen, _ in roots]
    assert generic_irreducibility(Fraction(1, 3), mu) is False


# -- polynomial lattice -------------------------------------------------------


def test_polynomial_lattice_closed():
    for text in ("2z", "z^2", "z", "z+3z^4", "0"):
        report = polynomial_lattice(lau(text), (-8, 8))
        assert report["closed"] and report["failures"] == []


def test_polynomial_lattice_precondition():
    with pytest.raises(ValueError, match="constant term"):
        polynomial_lattice(lau("1"), (-4, 4))
    with pytest.raises(ValueError, match="constant term"):
        polynomial_lattice(lau("z^-1"), (-4, 4))


# -- specialization -----------------------------------------------------------


def test_specialize_induced_matches_reference():
    for n in (1, 2, 3):
        for lam in (-4, 0, 1, 5):
            g = make_zform(n, 1, 1)
            S = specialize(contracted_induced(lam, n), 1)
            assert check_module_axioms(S, range(-2, 31)) == []
            assert specialize_matches(S, induced_module(g, lam), (0, 30))


def test_specialize_produced_matches_reference():
    for n in (1, 2):
        for lam in (-3, 0, 2):
            g = make_zform(n, 1, 1)
            S = specialize(contracted_produced(lam, n), 1)
            assert specialize_matches(S, produced_module(g, lam), (0, 30))


def test_specialize_ps_matches_reference():
    # dictionary on the character: mu' = n * mu(1)
    cases = [
        (1, Fraction(0), "2z", Fraction(2)),
        (1, Fraction(0), "z", Fraction(1)),
        (2, Fraction(1, 2), "2z", Fraction(4)),
        (3, Fraction(1, 3), "6z", Fraction(18)),
    ]
    for n, eps, text, mu_ref in cases:
        S = specialize(contracted_ps(eps, lau(text), LAURENT_RING, n), 1)
        R = principal_series(n, 1, "q", eps, mu_ref)
        assert specialize_matches(S, R, (-12, 12)), (n, eps, text)


def test_specialize_mismatch_detected():
    g = make_zform(1, 1, 1)
    S = specialize(contracted_induced(3, 1), 1)
    assert not specialize_matches(S, induced_module(g, 4), (0, 30))
    tampered = induced_module(g, 3).with_action("E", 1, IndexPoly([2]))
    assert not specialize_matches(S, tampered, (0, 30))


def test_specialize_mismatch_on_invariants():
    g = make_zform(1, 1, 1)
    S = specialize(contracted_induced(3, 1), 1)
    R = induced_module(g, 3)
    # H differs, with E, F and every product E(p)F(p+1) unchanged
    assert not specialize_matches(S, R.with_action("H", 0, IndexPoly([3, 2])), (0, 30))
    # E vanishes at the top of the window, where no edge sees it
    assert not specialize_matches(S, R.with_action("E", 1, IndexPoly([-3, 1])), (3, 3))
    # a gauge change keeps every invariant
    _, e_coeff = R.actions["E"]
    _, f_coeff = R.actions["F"]
    gauged = R.with_action("E", 1, IndexPoly(poly_scale(e_coeff.coeffs, 5)))
    gauged = gauged.with_action("F", -1, IndexPoly(poly_scale(f_coeff.coeffs, Fraction(1, 5))))
    assert specialize_matches(S, gauged, (0, 30))
    # a module without the E, F, H shifts does not match
    assert not specialize_matches(S, R.with_action("F", 1, f_coeff), (0, 30))
    assert not specialize_matches(contracted_induced(3, 1), R, (0, 30))


def test_specialize_matches_a_window_without_zero():
    # the reference's E(p) = p - 2 vanishes at 2, outside the window (3, 3):
    # the gauge walk from index 0 reads it, the invariants do not
    S = specialize(contracted_induced(3, 1), 1)
    R = induced_module(make_zform(1, 1, 1), 3).with_action("E", 1, IndexPoly([-2, 1]))
    assert specialize_matches(S, R, (3, 3))
    assert not reference.specialize_matches(S, R, (3, 3))
    assert not specialize_matches(S, R, (2, 3))


def _fibre_pair(rng):
    """A fibre of a contracted ind, pro or ps module and its g_{n,m}
    reference, the reference possibly off by one parameter."""
    n = rng.randint(1, 3)
    kind = rng.choice(("ind", "pro", "ps"))
    if kind == "ps":
        eps = Fraction(rng.randrange(n), n)
        mu = Laurent({
            1: rng.choice((1, 2, 6, Fraction(2, 3))),
            rng.randint(0, 2): rng.randint(-2, 2),
        })
        S = specialize(contracted_ps(eps, mu, LAURENT_RING, n), 1)
        mu_ref = n * mu.evaluate(1) + rng.choice((0, 0, 0, 1))
        return S, principal_series(n, 1, "q", eps, mu_ref)
    m = rng.randint(1, 3)
    lam = rng.randint(-5, 5)
    contracted_family, family = {
        "ind": (contracted_induced, induced_module),
        "pro": (contracted_produced, produced_module),
    }[kind]
    S = specialize(contracted_family(lam, n), m)
    return S, family(make_zform(n, m, 1), lam + rng.choice((0, 0, 0, 1)))


def _tamper(rng, S, R, window):
    """R scaled on one generator, changed by a gauge, given a random
    coefficient polynomial, or cut to a half-line (alone or with S)."""
    how = rng.choice(("none", "scale", "gauge", "poly", "cut"))
    gen = rng.choice(("E", "F", "H"))
    shift, poly = R.actions[gen]
    c = Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 2)))
    if how == "scale":
        R = R.with_action(gen, shift, IndexPoly(poly_scale(poly.coeffs, c)))
    elif how == "gauge":
        # g(p) = c^p, or g(p) = p! where every F(p) has the factor p
        (_, e_coeff), (_, f_coeff) = R.actions["E"], R.actions["F"]
        if rng.random() < 0.5 and f_coeff and not f_coeff.coeffs[0]:
            e_coeff, f_coeff = poly_mul(e_coeff.coeffs, [1, 1]), f_coeff.coeffs[1:]
        else:
            e_coeff, f_coeff = poly_scale(e_coeff.coeffs, c), poly_scale(f_coeff.coeffs, 1 / c)
        R = R.with_action("E", 1, IndexPoly(e_coeff)).with_action("F", -1, IndexPoly(f_coeff))
    elif how == "poly":
        coeffs = [Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(3)]
        R = R.with_action(gen, shift, IndexPoly(coeffs[: rng.randint(0, 3)]))
    elif how == "cut":
        bound = rng.choice((window[0], window[1], rng.randint(-6, 6)))
        cut = Support(rng.choice(("ge", "le")), bound)
        R = WeightModule(R.relations, cut, R.actions, R.params, R.vanishing_reason)
        if rng.random() < 0.5:
            S = WeightModule(S.relations, cut, S.actions, S.params, S.vanishing_reason)
    return S, R


def test_specialize_matches_agrees_with_the_gauge_walk():
    rng = random.Random(1800)
    outcomes = []
    for _ in range(1200):
        lo, hi = rng.randint(-8, 0), rng.randint(0, 8)
        S, R = _tamper(rng, *_fibre_pair(rng), (lo, hi))
        want = reference.specialize_matches(S, R, (lo, hi))
        assert specialize_matches(S, R, (lo, hi)) == want, (S.params, R.params, lo, hi)
        outcomes.append(want)
    assert outcomes.count(True) >= 300 and outcomes.count(False) >= 300


def test_specialize_matches_reads_only_the_window(monkeypatch):
    read = []
    coefficient, evaluate = WeightModule.coefficient, IndexPoly.__call__

    def spy_coefficient(self, gen, p):
        read.append(p)
        return coefficient(self, gen, p)

    def spy_evaluate(self, p):
        read.append(p)
        return evaluate(self, p)

    rng = random.Random(1801)
    pairs = [_fibre_pair(rng) for _ in range(30)]
    monkeypatch.setattr(WeightModule, "coefficient", spy_coefficient)
    monkeypatch.setattr(IndexPoly, "__call__", spy_evaluate)
    for S, R in pairs:
        for lo, hi in ((3, 3), (4, 9), (-9, -4), (-2, 5)):
            read.clear()
            specialize_matches(S, R, (lo, hi))
            assert read and all(lo <= p <= hi for p in read), (lo, hi, read)


def test_specialize_degenerate_fiber():
    fiber = specialize(contracted_induced(1, 1), 0)
    assert fiber.relations == gnm_relations(1, 0)
    assert check_module_axioms(fiber, range(0, 25)) == []
    assert fiber.coefficient("F", 4) == 0  # every f-coefficient carried a z


def test_specialize_pole_error():
    with pytest.raises(ValueError, match="pole"):
        specialize(contracted_ps(0, lau("1"), LAURENT_RING), 0)
    with pytest.raises(ValueError, match="zero module"):
        specialize(contracted_ps(0, lau("1+z"), POLY), 1)


def test_specialize_random_fibers_satisfy_bracket():
    rng = random.Random(7)
    for _ in range(15):
        n = rng.randint(1, 3)
        lam = rng.randint(-5, 5)
        c = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        fiber = specialize(contracted_induced(lam, n), c)
        assert fiber.relations == gnm_relations(n, c)
        assert check_module_axioms(fiber, range(0, 20)) == []


def test_contraction_rows_shape():
    rows = contraction_rows(contracted_induced(1, 1), 0, 3)
    assert [r[0] for r in rows] == [0, 1, 2, 3]
    assert rows[2][2] == str(Laurent.const(1))
    assert rows[2][3] == str(Laurent.z_power(1, -6))


def test_weights_read_off_h():
    # H = (n/2)h: the weight column is w0 + n*p on the module and its fibers
    for M, w0, n in (
        (contracted_induced(-3, 2), -3, 2),
        (contracted_produced(1, 3), 1, 3),
        (contracted_ps(Fraction(1, 2), lau("z"), LAURENT_RING, n=2), 1, 2),
        (contracted_ps(Fraction(2, 3), lau("2z"), POLY, n=3), 2, 3),
    ):
        for module in (M, specialize(M, 2)):
            rows = contraction_rows(module, -6, 6)
            assert [row[1] for row in rows] == [w0 + n * row[0] for row in rows]
            if "H" in module.actions:
                weights = [module.coefficient("H", row[0]) for row in rows]
            else:
                weights = [n * module.coefficient("h", row[0]).constant_value() / 2
                           for row in rows]
            assert weights == [row[1] for row in rows]
            assert all(type(row[1]) is int for row in rows)
