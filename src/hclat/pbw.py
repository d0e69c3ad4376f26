"""Normal ordering in the enveloping algebra of a split form g_{n,m}.

A monomial is an exponent triple (a, b, c) standing for F^a H^b E^c; an
element is a dict mapping triples to scalars.  The defining relations are

    [H, E] = nE,   [H, F] = -nF,   [E, F] = mH.

Every structure constant of the rewriting is an integer, so coefficients
are ints; a coefficient becomes a Fraction only when a word carries a
rational scalar (or an element is built or scaled with one).
"""

from __future__ import annotations

from math import comb

from .scalars import rat


def _scalar(c):
    """An int stays an int; anything else becomes an exact rational."""
    return c if type(c) is int else rat(c)


def monomial(a: int, b: int, c: int, coeff=1) -> dict:
    if a < 0 or b < 0 or c < 0:
        raise ValueError("PBW exponents must be nonnegative")
    coeff = _scalar(coeff)
    return {(a, b, c): coeff} if coeff else {}


def one() -> dict:
    return {(0, 0, 0): 1}


def _add(elem: dict, key, coeff) -> None:
    total = elem.get(key, 0) + coeff
    if total == 0:
        elem.pop(key, None)
    else:
        elem[key] = total


def add(x: dict, y: dict) -> dict:
    out = dict(x)
    for key, c in y.items():
        _add(out, key, c)
    return out


def scale(x: dict, c) -> dict:
    c = _scalar(c)
    return {k: v * c for k, v in x.items()} if c else {}


def left_mul_gen(gen: str, elem: dict, n: int, m: int) -> dict:
    """Multiply on the left by a single generator, keeping normal order."""
    out: dict = {}
    for (a, b, c), coeff in elem.items():
        if gen == "F":
            _add(out, (a + 1, b, c), coeff)
        elif gen == "H":
            # H F^a = F^a H - na F^a
            _add(out, (a, b + 1, c), coeff)
            if a:
                _add(out, (a, b, c), -n * a * coeff)
        elif gen == "E":
            # E F^a = F^a E + ma F^(a-1) H - (nm/2) a(a-1) F^(a-1),
            # then E H^b = sum_j C(b,j) (-n)^(b-j) H^j E
            for j in range(b + 1):
                _add(out, (a, j, c + 1), coeff * (comb(b, j) * (-n) ** (b - j)))
            if a:
                _add(out, (a - 1, b + 1, c), m * a * coeff)
                _add(out, (a - 1, b, c), -(n * m * a * (a - 1) // 2) * coeff)
        else:
            raise ValueError(f"unknown generator {gen!r}")
    return out


def normal_form(word, g) -> dict:
    """PBW normal form of a word in E, F, H.

    Each word item is a generator name or a (name, scalar) pair; scalars
    are central and multiply through.
    """
    elem = one()
    factor = 1
    for item in reversed(list(word)):
        if isinstance(item, tuple):
            gen, s = item
            factor *= _scalar(s)
        else:
            gen = item
        elem = left_mul_gen(gen, elem, g.n, g.m)
    return scale(elem, factor)


def mul(x: dict, y: dict, g) -> dict:
    """Product of two normal-ordered elements, normal-ordered again."""
    out: dict = {}
    for (a, b, c), coeff in x.items():
        w = y
        for gen, count in (("E", c), ("H", b), ("F", a)):
            for _ in range(count):
                w = left_mul_gen(gen, w, g.n, g.m)
        for key, v in w.items():
            _add(out, key, coeff * v)
    return out


def adjoint_weight(elem: dict, g) -> int:
    """Weight of a weight-homogeneous element: n(c - a) on F^a H^b E^c."""
    weights = {g.n * (c - a) for (a, b, c) in elem}
    if not weights:
        raise ValueError("zero element has no weight")
    if len(weights) > 1:
        raise ValueError(f"element is not weight-homogeneous: weights {sorted(weights)}")
    return weights.pop()

