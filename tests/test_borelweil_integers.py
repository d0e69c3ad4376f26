"""The integer lattice kernels of ``borelweil`` against their Fraction
routes in ``tests/reference.py``.

``_from_row_lattice`` reads each chain entry as an exact integer quotient,
``maximal_lattice`` builds its diagonal intertwiner as integer numerator
and denominator chains, and ``hom_lattice`` keeps its ratios as reduced
integer pairs.  Seeded draws compare whole ``FiniteLattice`` records
(weights, e, f and inside) and whole ``hom_lattice`` results with the
Fraction routes they replaced, and crafted inputs check that both routes
refuse the same lattices with the same messages.
"""

import random
from fractions import Fraction

import pytest

import reference
from hclat import borelweil
from hclat.borelweil import (
    FiniteLattice,
    RowLattice,
    _from_row_lattice,
    binomial_lattice,
    dual_lattice,
    generated_lattice,
    hom_lattice,
    ladder_lattice,
    maximal_lattice,
    minimal_lattice,
)


def _outcome(build, *args):
    """The value built, or the type and message of the exception."""
    try:
        return build(*args)
    except (RuntimeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _assert_same_lattice(got, want):
    assert got == want  # weights, e, f and inside (the ambient and the scalars)
    assert all(type(x) is int for x in got.e + got.f)  # as the JSON documents need


@pytest.mark.parametrize("lam", range(41))
def test_min_and_max_lattices_match_the_fraction_routes(lam):
    low = minimal_lattice(lam)
    _assert_same_lattice(low, reference.from_row_lattice(low.inside[1], low.inside[0]))
    high = maximal_lattice(lam)
    _assert_same_lattice(high, reference.maximal_lattice(lam))
    assert all(type(c) is Fraction for c in high.inside[1].scalars)


def _random_vector(rng, rank):
    vec = [0] * rank
    for j in rng.sample(range(rank), rng.randint(1, min(3, rank))):
        vec[j] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(1, 6))
    return vec


def test_generated_lattices_match_the_fraction_route():
    rng = random.Random(3601)
    scaled = 0
    for _ in range(300):
        amb = ladder_lattice(rng.randint(0, 6), rng.randint(0, 3))
        vectors = [_random_vector(rng, amb.rank) for _ in range(rng.randint(1, 3))]
        L = generated_lattice(amb, vectors)
        _assert_same_lattice(L, reference.from_row_lattice(L.inside[1], amb))
        scaled += any(c.denominator != 1 for c in L.inside[1].scalars)
    assert scaled > 100  # most draws store non-integral scalars


def _pool(rng):
    """Lattices on ladders and their duals: dual chains are negative."""
    lattices = []
    for lam in range(7):
        lattices += [minimal_lattice(lam), maximal_lattice(lam), binomial_lattice(lam)]
        for n in range(3):
            amb = ladder_lattice(lam, n)
            lattices += [amb, generated_lattice(amb, [_random_vector(rng, amb.rank)])]
    return lattices + [dual_lattice(L) for L in lattices]


def test_hom_lattices_match_the_fraction_route():
    rng = random.Random(3602)
    pool = _pool(rng)
    ranks, negative = set(), 0
    for A in pool:
        for B in pool:
            if not set(A.weights) & set(B.weights):
                continue
            got = hom_lattice(A, B)
            assert got == reference.hom_lattice(A, B)
            ranks.add(got["rank"])
            if got["rank"] == 1 and min(A.e + A.f + B.e + B.f) < 0:
                negative += 1
    assert {0, 1} <= ranks and negative > 100


def test_hom_lattices_match_the_fraction_route_at_large_lambda():
    for lam in (40, 64):
        low, high = minimal_lattice(lam), maximal_lattice(lam)
        for A, B in ((low, high), (high, low), (dual_lattice(high), dual_lattice(low))):
            assert hom_lattice(A, B) == reference.hom_lattice(A, B)


def test_unclosed_row_lattices_are_refused_by_both_routes():
    amb = ladder_lattice(2, 0)  # e = [0, 2, 1], f = [1, 2, 0]
    for scalars in ([1, 2, 1], [1, 0, 0], [Fraction(1, 2), 1, 1], [1, 1, Fraction(1, 3)]):
        lat = RowLattice(amb.rank)
        lat.scalars = [Fraction(c) for c in scalars]
        want = _outcome(reference.from_row_lattice, lat, amb)
        assert want == "RuntimeError: closure left the lattice; reduction bug"
        assert _outcome(_from_row_lattice, lat, amb) == want


def _perturbed_dual(seed, sign_only):
    """A dual_lattice that scales one chain entry of its result: the same
    entry by the same factor on every call."""

    def dual(L):
        rng, D = random.Random(seed), dual_lattice(L)
        e, f = list(D.e), list(D.f)
        chain = rng.choice((e, f))
        i = rng.randrange(1, len(chain)) if chain is e else rng.randrange(len(chain) - 1)
        chain[i] *= -1 if sign_only else rng.choice((-2, -1, 0, 2, 3))
        return FiniteLattice(D.weights, e, f, D.inside)

    return dual


def test_broken_duals_are_refused_by_both_routes(monkeypatch):
    messages = []
    for seed in range(200):
        for sign_only in (True, False):
            monkeypatch.setattr(borelweil, "dual_lattice", _perturbed_dual(seed, sign_only))
            lam = 1 + seed % 9
            want = _outcome(reference.maximal_lattice, lam)
            assert _outcome(maximal_lattice, lam) == want
            messages.append(want)
    assert set(messages) == {
        "ValueError: no diagonal intertwiner matches both actions",
        "ValueError: F-chain of the dual breaks; cannot identify",
    }
