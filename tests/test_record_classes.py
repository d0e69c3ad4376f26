"""The eight record classes keep the contracts of the dataclasses they
replaced, on every dunder a caller uses.

Each class is checked against its dataclass twin in ``tests/reference.py``
on seeded draws of field values, small enough that equal draws recur:
equality and ``hash`` of the five frozen classes, their refusal to
reassign or delete a field after construction, equality (and no hash)
of ``FiniteLattice``, the reprs that demos and verify details print, the
validation errors message for message, a reassigned ``LatticeReport``
field, and the copy that ``WeightModule.with_action`` makes.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

import reference
from hclat import borelweil, dyadic, hecke, scalars, weightmods, zforms


def _zform(rng):
    return rng.randint(1, 2), rng.randint(1, 2), Fraction(rng.choice((-2, 1, 3)), rng.randint(1, 2))


def _subalgebra(subalgebra, zform):
    """A Subalgebra constructor that builds its form from ZForm arguments."""
    return lambda label, basis, form: subalgebra(label, basis, zform(*form))


# name -> (library constructor, twin constructor, draw of their arguments)
FROZEN = {
    "CharacterLattice": (
        hecke.CharacterLattice, reference.CharacterLattice, lambda rng: (rng.randint(0, 3),)
    ),
    "CoefficientRing": (
        scalars.CoefficientRing,
        reference.CoefficientRing,
        lambda rng: (rng.choice(("Z", "Z[1/N]", "Q", "Q[z]", "Q[z,z^-1]")), rng.randint(1, 3)),
    ),
    "Support": (
        scalars.Support,
        reference.Support,
        lambda rng: (rng.choice(("ge", "le", "all")), rng.randint(-2, 2)),
    ),
    "ZForm": (zforms.ZForm, reference.ZForm, _zform),
    "Subalgebra": (
        _subalgebra(zforms.Subalgebra, zforms.ZForm),
        _subalgebra(reference.Subalgebra, reference.ZForm),
        lambda rng: (
            rng.choice(("b", "q")),
            rng.choice((((1, 0, 0), (0, 0, 1)), ((-2, 1, 2), (2, 1, 0)))),
            _zform(rng),
        ),
    ),
}


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_classes_compare_and_hash_as_their_twins(name):
    plain, twin, draw = FROZEN[name]
    rng = random.Random(3501)
    draws = [draw(rng) for _ in range(30)]
    equal_pairs = 0
    for a in draws:
        x, tx = plain(*a), twin(*a)
        assert hash(x) == hash(tx)
        assert x != a and x != tx
        for b in draws:
            y, ty = plain(*b), twin(*b)
            assert (x == y) == (tx == ty)
            assert (x != y) == (tx != ty)
            equal_pairs += x == y
    assert equal_pairs > len(draws)  # some distinct draws are equal
    assert len({plain(*a) for a in draws}) == len({twin(*a) for a in draws})


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_classes_refuse_reassignment_as_their_twins(name):
    plain, twin, draw = FROZEN[name]
    rng = random.Random(3506)
    for _ in range(10):
        args = draw(rng)
        for build in (plain, twin):
            record = build(*args)
            before = hash(record)
            for field in plain(*args).__slots__:
                value = getattr(record, field)
                with pytest.raises(AttributeError):
                    setattr(record, field, -1)
                with pytest.raises(AttributeError):
                    delattr(record, field)
                assert getattr(record, field) == value
            with pytest.raises(AttributeError):
                record.extra = 0
            assert hash(record) == before and record == build(*args)


def test_support_is_no_tuple():
    assert scalars.Support("ge", 0) != ("ge", 0)
    assert ("ge", 0) != scalars.Support("ge", 0)
    assert weightmods.Support is scalars.Support is dyadic.Support


@pytest.mark.parametrize("name", ("CharacterLattice", "Support", "ZForm"))
def test_printed_reprs_match_the_twins(name):
    plain, twin, draw = FROZEN[name]
    rng = random.Random(3502)
    for _ in range(20):
        args = draw(rng)
        assert repr(plain(*args)) == repr(twin(*args))


def _outcome(cls, *args):
    """The object built, or the ValueError message."""
    try:
        return cls(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _chain(rng, length):
    return [rng.choice((0, 0, 1, 2)) for _ in range(length)]


def test_finite_lattices_validate_and_compare_as_their_twins():
    rng = random.Random(3503)
    built = []
    for _ in range(400):
        r = rng.randint(0, 3)
        weights = sorted(rng.sample(range(-4, 5), r), reverse=rng.random() < 0.9)
        if r and rng.random() < 0.1:
            weights[-1] = weights[0]
        e, f = _chain(rng, r + (rng.random() < 0.1)), _chain(rng, r)
        if e and rng.random() < 0.7:
            e[0] = 0
        if f and rng.random() < 0.7:
            f[-1] = 0
        got = _outcome(borelweil.FiniteLattice, weights, e, f)
        want = _outcome(reference.FiniteLattice, weights, e, f)
        if isinstance(want, str):
            assert got == want
        else:
            built.append((got, want))
    assert 50 < len(built) < 350
    for x, tx in built:
        for y, ty in built:
            assert (x == y) == (tx == ty)
    assert borelweil.FiniteLattice.__hash__ is None and reference.FiniteLattice.__hash__ is None
    full = borelweil.maximal_lattice(4)
    copy = borelweil.FiniteLattice(full.weights, full.e, full.f, full.inside)
    assert copy == full and copy != borelweil.FiniteLattice(full.weights, full.e, full.f)


def test_validation_errors_match_the_twins():
    rng = random.Random(3504)
    kinds = ("Z", "Z[1/N]", "Q", "Q[z]", "Q[z,z^-1]", "Z[1/M]", "R", "")
    seen = set()
    for _ in range(200):
        args = (rng.choice(kinds), rng.randint(-2, 2))
        got = _outcome(scalars.CoefficientRing, *args)
        want = _outcome(reference.CoefficientRing, *args)
        assert got == want if isinstance(want, str) else not isinstance(got, str)
        seen.add(isinstance(want, str))
        order = rng.randint(-3, 3)
        got = _outcome(hecke.CharacterLattice, order)
        want = _outcome(reference.CharacterLattice, order)
        assert got == want if isinstance(want, str) else got.order == order
    assert seen == {True, False}


def test_lattice_report_fields_are_reassignable():
    report = dyadic.integral_model("q", 1, 1, 0, 6, (-8, -4))
    twin = reference.LatticeReport(*(getattr(report, name) for name in dyadic.LatticeReport.__slots__))
    for record in (report, twin):
        record.nonzero = False
        assert record.nonzero is False and record.support.bound == -3


def test_with_action_builds_what_replace_built():
    rng = random.Random(3505)
    g = zforms.make_zform(2, 3, 1)
    modules = [
        weightmods.induced_module(g, 2),
        weightmods.produced_module(g, -1),
        weightmods.principal_series(2, 3, "qp", Fraction(1, 2), Fraction(5)),
    ]
    for M in modules:
        gen = rng.choice(M.generators)
        poly = weightmods.IndexPoly([rng.randint(-3, 3), Fraction(1, 2)])
        new = M.with_action(gen, 1, poly)
        twin = reference.WeightModule(
            M.relations, M.support, M.actions, M.params, M.vanishing_reason
        )
        want = replace(twin, actions={**M.actions, gen: (1, poly)}, params=dict(M.params))
        fields = weightmods.WeightModule.__slots__
        assert [getattr(new, f) for f in fields] == [getattr(want, f) for f in fields]
        assert new.actions is not M.actions and new.params is not M.params
        assert M.actions[gen] != (1, poly)
