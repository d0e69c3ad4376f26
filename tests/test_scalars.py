"""Scalar layer: exact rationals, Laurent polynomials, ring membership."""

import math
import random
from fractions import Fraction

import pytest

from hclat.scalars import (
    LAURENT_RING,
    POLY,
    QQ,
    ZZ,
    Laurent,
    in_ring,
    localized_integers,
    ord2,
    rat,
    residue,
)
from hclat import contraction, dyadic, zforms


def test_ord2_values():
    assert ord2(8) == 3
    assert ord2(1) == 0
    assert ord2(Fraction(-1, 2)) == -1
    assert ord2(Fraction(12, 5)) == 2
    with pytest.raises(ValueError):
        ord2(0)


def test_ord2_additive():
    rng = random.Random(7)
    for _ in range(300):
        x = Fraction(rng.randint(-400, 400) or 1, rng.randint(1, 400))
        y = Fraction(rng.randint(-400, 400) or 1, rng.randint(1, 400))
        assert ord2(x * y) == ord2(x) + ord2(y)


def test_exact_field_arithmetic():
    rng = random.Random(11)
    for _ in range(200):
        a, b = rng.randint(-50, 50), rng.randint(1, 50)
        c, d = rng.randint(-50, 50), rng.randint(1, 50)
        assert (Fraction(a, b) + Fraction(c, d)) * (b * d) == a * d + c * b


def test_laurent_basic_ops():
    p = Laurent.parse("1 + 2*z")
    q = Laurent.parse("z^-1")
    assert p * q == Laurent.parse("z^-1 + 2")
    assert (p - p).is_zero()
    assert p.coefficient(1) == 2
    assert (p + 1).coefficient(0) == 2
    assert (3 * q).coefficient(-1) == 3
    assert p.min_exp() == 0 and max(p.coeffs) == 1
    assert Laurent.parse("2z^2 - z") == Laurent({2: 2, 1: -1})


def test_laurent_parse_round_trip():
    for text in ["0", "3/2", "z", "-z^2", "2*z^-1 + 3", "1 - z + 1/3*z^4"]:
        p = Laurent.parse(text)
        assert Laurent.parse(str(p)) == p


@pytest.mark.parametrize(
    "text, coeffs",
    [
        ("-2*z^-1 + 3", {-1: -2, 0: 3}),
        ("2z^2 - z", {2: 2, 1: -1}),
        ("1/2z", {1: Fraction(1, 2)}),
        ("z^-2+5z", {-2: 1, 1: 5}),
        ("1-z^-2", {0: 1, -2: -1}),
        (" +3 * z^+2 - 5/3 ", {2: 3, 0: Fraction(-5, 3)}),
        ("z - z", {}),
    ],
)
def test_laurent_parse_values(text, coeffs):
    assert Laurent.parse(text) == Laurent(coeffs)


@pytest.mark.parametrize(
    "text",
    ["--z", "*z", "++1", "+", "-", "1+", "1/0z", "1/0", "3*", "1 2", "z^", "2z3", "z z", "1.5"],
)
def test_laurent_parse_rejects_what_it_does_not_consume(text):
    with pytest.raises(ValueError):
        Laurent.parse(text)


def test_laurent_product_matches_evaluation():
    """Multiplying then evaluating agrees with evaluating then multiplying."""
    rng = random.Random(3)
    for _ in range(100):
        p = Laurent({rng.randint(-3, 3): Fraction(rng.randint(-5, 5)) for _ in range(3)})
        q = Laurent({rng.randint(-3, 3): Fraction(rng.randint(-5, 5)) for _ in range(3)})
        at = Fraction(rng.randint(1, 7), rng.randint(1, 7))
        assert (p * q).evaluate(at) == p.evaluate(at) * q.evaluate(at)
        assert (p + q).evaluate(at) == p.evaluate(at) + q.evaluate(at)


def test_ring_membership():
    assert not in_ring(Fraction(1, 2), ZZ)
    assert in_ring(Fraction(1, 2), localized_integers(6))
    assert not in_ring(Fraction(1, 5), localized_integers(6))
    assert in_ring(Fraction(1, 36), localized_integers(6))
    assert not in_ring(Laurent.parse("z^-1"), POLY)
    assert in_ring(Laurent.parse("z^-1"), LAURENT_RING)
    assert in_ring(Laurent.parse("z + 1"), POLY)
    assert in_ring(7, ZZ)


def reference_denominator_invertible(den, N):
    """The factor-stripping loop: divide den by gcd(den, N) until the gcd
    is 1; every prime factor of den divides N iff den reaches 1."""
    if den == 1:
        return True
    if N == 1:
        return False
    while True:
        g = math.gcd(den, N)
        if g == 1:
            return den == 1
        while den % g == 0:
            den //= g
        if den == 1:
            return True


def test_localized_membership_matches_the_factor_loop():
    pairs = [(den, N) for den in range(1, 200) for N in range(1, 60)]
    rng = random.Random(13)
    pairs += [(rng.randint(1, 10**12), rng.randint(1, 10**4)) for _ in range(2000)]
    # prime powers of N with a large exponent, and one prime short of them
    pairs += [(2**40 * 3**7, 6), (2**40 * 3**7 * 5, 6), (7**20, 7), (7**20, 49)]
    for den, N in pairs:
        got = in_ring(Fraction(1, den), localized_integers(N))
        assert got == reference_denominator_invertible(den, N), (den, N)


def test_residue_rule():
    assert residue(0, 1) == 0
    assert residue(Fraction(2, 3), 3) == Fraction(2, 3)
    assert residue(Fraction(1, 2), 4) == Fraction(1, 2)
    for eps, n in ((1, 1), (Fraction(3, 3), 3), (Fraction(-1, 2), 2), (Fraction(1, 3), 2)):
        with pytest.raises(ValueError, match=rf"residue.*dividing n = {n}"):
            residue(eps, n)
    # n is checked first, whatever eps is
    for n in (0, -2):
        with pytest.raises(ValueError, match=f"n must be a positive integer, got n={n}"):
            residue(Fraction(1, 3), n)


@pytest.mark.parametrize("text", ["1e100000000", "1E5", "-3e-2", "2.5e1", " 1e0 "])
def test_rat_refuses_exponent_notation(text):
    """Fraction would compute the power of ten first: minutes for 1e100000000."""
    with pytest.raises(ValueError, match=r"^exponent notation is not an exact rational: "):
        rat(text)


def test_rat_reads_integers_and_quotients():
    assert [rat(t) for t in ("7", " -1/2 ", "6/4", "0.5")] == [
        7, Fraction(-1, 2), Fraction(3, 2), Fraction(1, 2)
    ]
    with pytest.raises(ZeroDivisionError):
        rat("1/0")


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda k: zforms.make_zform(k, 1, 1), "n"),
        (lambda k: zforms.make_zform(1, k, 1), "m"),
        (lambda k: dyadic.nonvanishing("q", k, 1, 0, 0), "n"),
        (lambda k: dyadic.nonvanishing("q", 1, k, 0, 0), "m"),
        (lambda k: contraction.contracted_induced(0, k), "n"),
        (lambda k: contraction.contracted_produced(0, k), "n"),
        (lambda k: residue(0, k), "n"),
        (lambda k: dyadic.integral_model("q", 1, k, 0, -4, (-3, 3)), "m"),
    ],
)
@pytest.mark.parametrize("k", [0, -3, 1.5, 2.0])
def test_one_positive_rule(build, name, k):
    """Every n and m below 1, and every one that is not an int, is refused
    with the same message."""
    with pytest.raises(ValueError, match=rf"^{name} must be a positive integer, got {name}={k}$"):
        build(k)


def test_ring_chain_monotone():
    """Membership only grows along Z < Z[1/N] < Q < Q[z] < Q[z,z^-1]."""
    chain = [ZZ, localized_integers(2), localized_integers(6), QQ, POLY, LAURENT_RING]
    samples = [
        rat(5),
        Fraction(1, 2),
        Fraction(3, 10),
        Laurent.parse("z"),
        Laurent.parse("1/2 + z^-1"),
    ]
    for x in samples:
        seen = False
        for ring in chain:
            now = in_ring(x, ring)
            assert not (seen and not now), f"{x} left {ring.name}"
            seen = seen or now
