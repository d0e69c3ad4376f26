"""R(T): projections, componentwise products, graded-map components, smash."""

import itertools
import random
from fractions import Fraction

import pytest

import reference
from hclat import hecke, pbw
from hclat.zforms import make_zform


def test_project_components():
    v = {0: Fraction(1), 3: Fraction(2)}
    assert hecke.project(v, 3) == {3: Fraction(2)}
    assert hecke.project(v, 5) == {}


def test_project_idempotent():
    rng = random.Random(1)
    for _ in range(50):
        v = {rng.randint(-6, 6): Fraction(rng.randint(-9, 9) or 1) for _ in range(4)}
        lam = rng.randint(-6, 6)
        once = hecke.project(v, lam)
        assert hecke.project(once, lam) == once


def test_hecke_mul_orthogonal_idempotents():
    for lam in range(-4, 5):
        for mu in range(-4, 5):
            prod = hecke.hecke_mul(hecke.p(lam), hecke.p(mu))
            expected = hecke.p(lam) if lam == mu else {}
            assert prod == expected


def test_hecke_mul_componentwise():
    x = {0: Fraction(2), 1: Fraction(1)}
    y = hecke.p(0)
    assert hecke.hecke_mul(x, y) == {0: Fraction(2)}


def test_cyclic_lattice_normalization():
    lattice = hecke.cyclic(3)
    assert lattice.normalize(7) == 1
    # the constructors normalize their one key
    assert hecke.p(-1, lattice) == {2: 1}
    assert hecke.smash(pbw.monomial(0, 0, 1), 7, lattice) == {1: {(0, 0, 1): 1}}


def test_non_integral_characters_are_refused():
    for call in (
        lambda: hecke.p(Fraction(7, 2)),
        lambda: hecke.project({3: 1}, 3.9),
        lambda: hecke.cyclic(3).normalize(Fraction(-1, 2)),
    ):
        with pytest.raises(ValueError, match=r"^a character must be an integer, got "):
            call()
    # integral values of other types are characters
    assert hecke.p(Fraction(6, 2)) == {3: 1}
    assert hecke.cyclic(3).normalize(Fraction(-8, 2)) == 2
    assert hecke.project({3: 1}, 3.0) == {3: 1}


def test_lattice_is_given_by_its_order():
    # order 0 is Z, where nothing folds
    assert hecke.CharacterLattice(0) == hecke.INTEGERS
    assert hecke.INTEGERS.normalize(-7) == -7 and hecke.cyclic(1).normalize(-7) == 0
    assert list(hecke.cyclic(2).elements()) == [0, 1]
    for order in (0, -2):
        with pytest.raises(ValueError, match=r"^cyclic lattice needs order >= 1$"):
            hecke.cyclic(order)
    with pytest.raises(ValueError, match=r"^lattice order must be nonnegative, got -3$"):
        hecke.CharacterLattice(-3)
    with pytest.raises(ValueError, match=r"^only the cyclic lattice is finite$"):
        hecke.INTEGERS.elements()


def test_cyclic_type_decomposition():
    """Summing all residue projections recovers the vector."""
    lattice = hecke.cyclic(4)
    rng = random.Random(12)
    for _ in range(30):
        v = {rng.randint(-10, 10): Fraction(rng.randint(1, 5)) for _ in range(5)}
        total = {}
        for lam in lattice.elements():
            for key, c in hecke.project(v, lam, lattice).items():
                total[key] = total.get(key, 0) + c
        assert total == v


def test_hom_projection_chain():
    """p_lam (p_lam' f) = 0 unless the weights agree."""
    f = {0: {2: Fraction(1)}, 1: {3: Fraction(2)}}  # homogeneous of weight 2
    for lam in range(-3, 4):
        part = hecke.hom_component(f, lam)
        for lam2 in range(-3, 4):
            result = hecke.hom_component(part, lam2)
            if lam != 2 or lam2 != 2:
                assert result == {}
            else:
                assert result == f


def test_schur_property_lines():
    """Weight-0 maps k_lam -> k_lam' survive projection only when lam = lam'."""
    for lam in range(-3, 4):
        for lam2 in range(-3, 4):
            f = {lam: {lam2: Fraction(1)}}
            invariant_part = hecke.hom_component(f, 0)
            if lam == lam2:
                assert invariant_part == f
            else:
                assert invariant_part == {}


def test_smash_unit_idempotents():
    g = make_zform(2, 1, 1)
    for lam in range(-3, 4):
        unit = hecke.smash(pbw.one(), lam)
        assert hecke.smash_mul(unit, unit, g) == unit


def test_smash_weight_mismatch_kills():
    """(E (x) p_(lam+2n)) (E (x) p_lam) = 0: E has adjoint weight n, not 2n."""
    g = make_zform(2, 1, 1)
    E = pbw.monomial(0, 0, 1)
    lam = 0
    left = hecke.smash(E, lam + 2 * g.n)
    right = hecke.smash(E, lam)
    assert hecke.smash_mul(left, right, g) == {}
    # the matched shift survives
    matched = hecke.smash_mul(hecke.smash(E, lam + g.n), right, g)
    assert matched == {lam: pbw.normal_form(["E", "E"], g)}


def _random_exponents(rng, max_degree=3):
    a, b, c = (rng.randint(0, max_degree) for _ in range(3))
    while a + b + c > max_degree:
        a, b, c = (rng.randint(0, max_degree) for _ in range(3))
    return a, b, c


def _random_smash(rng, lattice, max_lam=5):
    a, b, c = _random_exponents(rng)
    lam = rng.randint(-max_lam, max_lam)
    return hecke.smash(pbw.monomial(a, b, c, rng.randint(1, 3)), lam, lattice)


def _smash_sum(*elements):
    """The sum of smash elements: terms with one lambda merge, and a term
    that cancels is dropped."""
    out = {}
    for element in elements:
        for lam, a in element.items():
            merged = pbw.add(out.get(lam, {}), a)
            if merged:
                out[lam] = merged
            else:
                out.pop(lam, None)
    return out


def test_smash_associativity_exhaustive_small():
    """All monomial triples of degree <= 1 and |lam| <= 2, both lattices."""
    g = make_zform(2, 1, 1)
    monos = [pbw.one(), pbw.monomial(1, 0, 0), pbw.monomial(0, 1, 0), pbw.monomial(0, 0, 1)]
    for lattice in (hecke.INTEGERS, hecke.cyclic(2)):
        lams = range(-2, 3)
        elements = [hecke.smash(a, lam, lattice) for a in monos for lam in lams]
        for x, y, z in itertools.product(elements, repeat=3):
            lhs = hecke.smash_mul(hecke.smash_mul(x, y, g, lattice), z, g, lattice)
            rhs = hecke.smash_mul(x, hecke.smash_mul(y, z, g, lattice), g, lattice)
            assert lhs == rhs


def test_smash_associativity_random():
    """Seeded sampling across degree <= 3, |lam| <= 5."""
    rng = random.Random(77)
    for n, m in [(1, 1), (2, 3)]:
        g = make_zform(n, m, 1)
        for lattice in (hecke.INTEGERS, hecke.cyclic(n)):
            for _ in range(250):
                # a two-term element: the terms merge when their lambdas agree
                x = _smash_sum(_random_smash(rng, lattice), _random_smash(rng, lattice))
                y = _random_smash(rng, lattice)
                z = _random_smash(rng, lattice)
                lhs = hecke.smash_mul(hecke.smash_mul(x, y, g, lattice), z, g, lattice)
                rhs = hecke.smash_mul(x, hecke.smash_mul(y, z, g, lattice), g, lattice)
                assert lhs == rhs


def _random_pbw(rng):
    """One to three monomials of degree <= 3 with coefficients in +-1..3."""
    a = {}
    for _ in range(rng.randint(1, 3)):
        coeff = rng.choice((-3, -2, -1, 1, 2, 3))
        a = pbw.add(a, pbw.monomial(*_random_exponents(rng), coeff))
    return a


def _random_element(rng, lattice):
    """One to three terms a (x) p_lambda with |lambda| <= 5."""
    return _smash_sum(*(
        hecke.smash(_random_pbw(rng), rng.randint(-5, 5), lattice)
        for _ in range(rng.randint(1, 3))
    ))


def _reference_mul(x, y, g, lattice):
    product = reference.smash_mul(
        reference.SmashElement(g, lattice, x), reference.SmashElement(g, lattice, y)
    )
    return product.terms


def test_smash_right_reused_matches_smash_mul():
    """Seeded: one right multiplier, split once, applied to many left
    factors in turn gives each product that smash_mul gives on its own."""
    rng = random.Random(2606)
    g = make_zform(2, 3, 1)
    for lattice in (hecke.INTEGERS, hecke.cyclic(2), hecke.cyclic(3)):
        for _ in range(15):
            y = _random_element(rng, lattice)
            times = hecke.smash_right(y, g, lattice)
            for _ in range(8):
                x = _random_element(rng, lattice)
                assert times(x) == hecke.smash_mul(x, y, g, lattice)


def test_smash_mul_matches_reference():
    """Seeded: multi-term elements against the element-object route, over
    Z, Z/2 and Z/3 for two (n, m), with products that cancel to zero."""
    rng = random.Random(1717)
    cancelled = 0
    for n, m in [(1, 1), (2, 3)]:
        g = make_zform(n, m, 1)
        for lattice in (hecke.INTEGERS, hecke.cyclic(2), hecke.cyclic(3)):
            for _ in range(120):
                x, y = _random_element(rng, lattice), _random_element(rng, lattice)
                assert hecke.smash_mul(x, y, g, lattice) == _reference_mul(x, y, g, lattice)
            # (a (x) p_(mu+w) - ab (x) p_mu)((b + 1) (x) p_mu) = ab - ab = 0
            # when the monomial b has weight w off zero in the lattice
            for _ in range(40):
                a, b = _random_pbw(rng), pbw.monomial(*_random_exponents(rng))
                weight = pbw.adjoint_weight(b, g)
                if lattice.normalize(weight) == 0:
                    continue
                mu = rng.randint(-5, 5)
                x = _smash_sum(
                    hecke.smash(a, mu + weight, lattice),
                    hecke.smash(pbw.scale(pbw.mul(a, b, g), -1), mu, lattice),
                )
                y = hecke.smash(pbw.add(b, pbw.one()), mu, lattice)
                assert hecke.smash_mul(x, y, g, lattice) == {}
                assert _reference_mul(x, y, g, lattice) == {}
                cancelled += 1
    assert cancelled > 100
