"""Normal ordering engine, checked against a naive rewriting reference and
against the 2x2 realization."""

import random
from fractions import Fraction

import pytest

import reference
from hclat import pbw
from hclat.zforms import make_zform, realization

RANK = {"F": 0, "H": 1, "E": 2}


def slow_normal_form(word, g):
    """Reference implementation: rewrite adjacent out-of-order pairs.

    Deliberately different route from the closed-form engine: words stay
    words until fully sorted.
    """
    n, m = g.n, g.m
    terms = {tuple(word): Fraction(1)}
    while True:
        unsorted_word = next(
            (
                w
                for w in terms
                if any(RANK[w[i]] > RANK[w[i + 1]] for i in range(len(w) - 1))
            ),
            None,
        )
        if unsorted_word is None:
            break
        coeff = terms.pop(unsorted_word)
        w = unsorted_word
        i = next(i for i in range(len(w) - 1) if RANK[w[i]] > RANK[w[i + 1]])
        pre, x, y, post = w[:i], w[i], w[i + 1], w[i + 2:]
        swapped = pre + (y, x) + post
        if (x, y) == ("E", "F"):
            extra = [(pre + ("H",) + post, m * coeff)]
        elif (x, y) == ("E", "H"):
            extra = [(pre + ("E",) + post, -n * coeff)]
        else:  # ("H", "F")
            extra = [(pre + ("F",) + post, -n * coeff)]
        for key, val in [(swapped, coeff)] + extra:
            total = terms.get(key, Fraction(0)) + val
            if total:
                terms[key] = total
            else:
                terms.pop(key, None)
    out = {}
    for w, coeff in terms.items():
        key = (w.count("F"), w.count("H"), w.count("E"))
        total = out.get(key, Fraction(0)) + coeff
        if total:
            out[key] = total
        else:
            out.pop(key, None)
    return out


def test_single_relation_g11():
    g = make_zform(1, 1, 1)
    assert pbw.normal_form(["E", "F"], g) == {(1, 0, 1): 1, (0, 1, 0): 1}


def test_fe2_identity():
    """FE^2 = E^2F - 2mEH - nmE, checked in normal-ordered form."""
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            g = make_zform(n, m, 1)
            e2f = pbw.normal_form(["E", "E", "F"], g)
            eh = pbw.normal_form(["E", "H"], g)
            expected = pbw.add(
                e2f,
                pbw.add(pbw.scale(eh, -2 * m), pbw.monomial(0, 0, 1, -n * m)),
            )
            assert pbw.normal_form(["F", "E", "E"], g) == expected


def test_proof_identity_f_power():
    """F^(p+1)E = EF^(p+1) - (1/2)nmp(p+1)F^p - m(p+1)HF^p."""
    for n, m in [(1, 1), (2, 3), (3, 2)]:
        g = make_zform(n, m, 1)
        for p in range(8):
            total = pbw.normal_form(["E"] + ["F"] * (p + 1), g)
            total = pbw.add(
                total,
                pbw.scale(pbw.normal_form(["F"] * p, g), Fraction(-n * m * p * (p + 1), 2)),
            )
            total = pbw.add(
                total, pbw.scale(pbw.normal_form(["H"] + ["F"] * p, g), -m * (p + 1))
            )
            assert total == pbw.monomial(p + 1, 0, 1)


def test_engine_matches_rewriting_reference():
    rng = random.Random(2024)
    for n, m in [(1, 1), (2, 1), (1, 3), (3, 2)]:
        g = make_zform(n, m, 1)
        for _ in range(60):
            word = [rng.choice("EFH") for _ in range(rng.randint(0, 6))]
            assert pbw.normal_form(word, g) == slow_normal_form(word, g)


def test_idempotent_and_multiplicative():
    rng = random.Random(9)
    g = make_zform(2, 3, 1)
    for _ in range(60):
        w1 = [rng.choice("EFH") for _ in range(rng.randint(0, 5))]
        w2 = [rng.choice("EFH") for _ in range(rng.randint(0, 5))]
        x = pbw.normal_form(w1, g)
        y = pbw.normal_form(w2, g)
        # normalizing a normal form changes nothing
        renormalized = pbw.mul(pbw.one(), x, g)
        assert renormalized == x
        # homomorphism on concatenation
        assert pbw.mul(x, y, g) == pbw.normal_form(w1 + w2, g)


def test_adjoint_weight():
    g = make_zform(2, 1, 1)
    assert pbw.adjoint_weight(pbw.monomial(1, 2, 3), g) == 4
    assert pbw.adjoint_weight(pbw.monomial(0, 5, 0), g) == 0
    with pytest.raises(ValueError):
        pbw.adjoint_weight(pbw.add(pbw.monomial(1, 0, 0), pbw.monomial(0, 0, 1)), g)


def test_normal_form_preserves_weight():
    rng = random.Random(31)
    g = make_zform(3, 2, 1)
    wt = {"E": 3, "F": -3, "H": 0}
    for _ in range(40):
        word = [rng.choice("EFH") for _ in range(rng.randint(1, 6))]
        total = sum(wt[x] for x in word)
        nf = pbw.normal_form(word, g)
        if nf:
            assert pbw.adjoint_weight(nf, g) == total


def test_scalars_in_words():
    g = make_zform(1, 1, 1)
    elem = pbw.normal_form([("E", Fraction(1, 2)), ("F", 4)], g)
    assert elem == {(1, 0, 1): 2, (0, 1, 0): 2}


def test_commutator_defining_relations():
    def commutator(x, y, g):
        return pbw.add(pbw.mul(x, y, g), pbw.scale(pbw.mul(y, x, g), -1))

    for n, m in [(1, 1), (2, 3)]:
        g = make_zform(n, m, 1)
        E, F, H = pbw.monomial(0, 0, 1), pbw.monomial(1, 0, 0), pbw.monomial(0, 1, 0)
        assert commutator(H, E, g) == pbw.scale(E, n)
        assert commutator(H, F, g) == pbw.scale(F, -n)
        assert commutator(E, F, g) == pbw.scale(H, m)


# -- 2x2 matrices: the reference algebra the realization extends to ------------

IDENTITY = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
ZERO_MAT = ((Fraction(0),) * 2,) * 2


def mat_scale(c, mat):
    return tuple(tuple(c * x for x in row) for row in mat)


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )


def _images(g):
    """E -> qe, F -> (nm/2q)f, H -> (n/2)h in 2x2 matrices, from the scales
    of realization(g)."""
    s_e, s_f, s_h = realization(g)
    return {"E": ((0, s_e), (0, 0)), "F": ((0, 0), (s_f, 0)), "H": ((s_h, 0), (0, -s_h))}


def _evaluate(elem, images):
    """sum coeff * F^a H^b E^c of a normal form, in 2x2 matrices."""
    total = ZERO_MAT
    for (a, b, c), coeff in elem.items():
        term = mat_scale(coeff, IDENTITY)
        for gen, k in (("F", a), ("H", b), ("E", c)):
            for _ in range(k):
                term = mat_mul(term, images[gen])
        total = mat_add(total, term)
    return total


def test_normal_form_matches_realization():
    """The realization extends to an algebra map U(g) -> M_2(Q), so a word
    and its normal form have the same image: the product of the word's
    matrices, scalars included."""
    rng = random.Random(20261018)
    for n, m, q in [(1, 1, 1), (2, 3, Fraction(1, 2)), (3, 2, 6), (1, 4, Fraction(-2, 3))]:
        g = make_zform(n, m, q)
        images = _images(g)
        for _ in range(60):
            word = []
            for _ in range(rng.randint(0, 7)):
                gen = rng.choice("EFH")
                if rng.random() < 0.4:
                    gen = (gen, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                word.append(gen)
            direct = IDENTITY
            for item in word:
                gen, s = item if isinstance(item, tuple) else (item, 1)
                direct = mat_mul(direct, mat_scale(s, images[gen]))
            assert _evaluate(pbw.normal_form(word, g), images) == direct, (n, m, q, word)


# -- integer coefficients against the Fraction rewriting ------------------------


def _random_word(rng, scalars):
    """A word of up to eight generators; with scalars, some items carry a
    rational (or integral Fraction, or int) scalar."""
    word = []
    for _ in range(rng.randint(0, 8)):
        gen = rng.choice("EFH")
        if scalars and rng.random() < 0.4:
            rational = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            gen = (gen, rng.choice((rational, rng.randint(-3, 3))))
        word.append(gen)
    return word


@pytest.mark.parametrize("scalars", [False, True])
def test_integer_rewriting_matches_fraction_reference(scalars):
    rng = random.Random(1600 + scalars)
    for n, m in [(1, 1), (2, 1), (1, 3), (3, 2), (4, 5)]:
        g = make_zform(n, m, 1)
        for _ in range(80):
            word = _random_word(rng, scalars)
            got = pbw.normal_form(word, g)
            assert got == reference.normal_form(word, n, m), (n, m, word)
            # one generator at a time, on an element with several terms
            for gen in "EFH":
                assert pbw.left_mul_gen(gen, got, n, m) == reference.left_mul_gen(gen, got, n, m)


def test_words_without_rational_scalars_stay_integer():
    rng = random.Random(1602)
    for n, m in [(1, 1), (2, 3), (3, 2)]:
        g = make_zform(n, m, 1)
        for _ in range(80):
            word = [item if rng.random() < 0.7 else (item, rng.randint(-3, 3))
                    for item in _random_word(rng, False)]
            x, y = pbw.normal_form(word, g), pbw.normal_form(_random_word(rng, False), g)
            for elem in (x, pbw.mul(x, y, g), pbw.scale(x, -2), pbw.add(x, pbw.one())):
                assert all(type(c) is int for c in elem.values()), (word, elem)
    assert type(pbw.monomial(1, 0, 2, 3)[(1, 0, 2)]) is int
    # a rational scalar makes the coefficients Fractions, equal where integral
    half = pbw.normal_form([("E", Fraction(1, 2)), "F"], make_zform(1, 2, 1))
    assert half == {(1, 0, 1): Fraction(1, 2), (0, 1, 0): 1}
    assert all(type(c) is Fraction for c in half.values())
