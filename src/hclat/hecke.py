"""The Hecke algebra R(T) of a diagonalizable group: weight projections,
componentwise products, homogeneous parts of graded maps, and the smash
product with an enveloping algebra.

Elements are plain dicts keyed by normalized characters, as PBW elements
are: an R(T) element is {lambda: coefficient}, and an element of
U(g) # R(T) is {lambda: PBW dict}, each the sum of its terms a (x) p_lambda.
The constructors normalize their key, and the products keep the keys of
their normalized arguments.  An element does not carry its algebra: the
form g and the character lattice are arguments of the product, as g is of
pbw.mul.

Only finitely supported elements are ever materialized; windowed evaluation
stands in for the full product of lines.
"""

from __future__ import annotations

from . import pbw
from .scalars import _Frozen


class CharacterLattice(_Frozen):
    """The characters of T^1 (order 0: Z) or of the n-th roots of unity
    (order n: Z/n); equal and hashed by its order."""

    __slots__ = ("order",)

    def __init__(self, order: int = 0):
        if order < 0:
            raise ValueError(f"lattice order must be nonnegative, got {order}")
        super().__init__(order)

    def normalize(self, lam: int) -> int:
        """The representative of the character lam; a non-integral lam
        (Fraction(7, 2), 3.9) is no character and raises ValueError."""
        if type(lam) is not int:
            whole = int(lam)
            if whole != lam:
                raise ValueError(f"a character must be an integer, got {lam!r}")
            lam = whole
        return lam % self.order if self.order else lam

    def elements(self):
        if not self.order:
            raise ValueError("only the cyclic lattice is finite")
        return range(self.order)


INTEGERS = CharacterLattice()


def cyclic(order: int) -> CharacterLattice:
    if order < 1:
        raise ValueError("cyclic lattice needs order >= 1")
    return CharacterLattice(order)


def p(lam: int, lattice: CharacterLattice = INTEGERS) -> dict:
    """The projection p_lambda as an element {lambda: 1} of R(T)."""
    return {lattice.normalize(lam): 1}


def hecke_mul(x: dict, y: dict) -> dict:
    """Componentwise product: R(T) is a product of base-ring copies."""
    return {lam: c * y[lam] for lam, c in x.items() if lam in y}


# -- graded vectors -------------------------------------------------------


def project(v: dict, lam: int, lattice: CharacterLattice = INTEGERS) -> dict:
    """The lambda-component p_lambda . v of a graded vector."""
    lam = lattice.normalize(lam)
    out = {}
    for mu, c in v.items():
        if lattice.normalize(mu) == lam and c != 0:
            out[mu] = c
    return out


def hom_component(f: dict, nu: int, lattice: CharacterLattice = INTEGERS) -> dict:
    """The weight-nu homogeneous part of a graded map."""
    nu = lattice.normalize(nu)
    out = {}
    for src, image in f.items():
        part = {
            dst: c
            for dst, c in image.items()
            if lattice.normalize(dst - src) == nu and c != 0
        }
        if part:
            out[src] = part
    return out


# -- smash product --------------------------------------------------------


def smash(a: dict, lam: int, lattice: CharacterLattice = INTEGERS) -> dict:
    """The element a (x) p_lambda of U(g) # R(T)."""
    return {lattice.normalize(lam): dict(a)} if a else {}


def smash_right(y: dict, g, lattice: CharacterLattice = INTEGERS):
    """Right multiplication x -> xy in U(g) # R(T).

    y is split by adjoint weight here, once for every product it is the
    right factor of: p_(lambda-mu)b keeps the monomials F^i H^j E^k of b
    whose adjoint weight n(k - i) restricts to lambda - mu.
    """
    split = []
    for mu, b in y.items():
        parts: dict = {}
        for key, c in b.items():
            weight = lattice.normalize(g.n * (key[2] - key[0]))
            parts.setdefault(weight, {})[key] = c
        split.append((mu, parts))

    def times(x: dict) -> dict:
        out = {}
        for mu, parts in split:
            total: dict = {}
            for lam, a in x.items():
                part = parts.get(lattice.normalize(lam - mu))
                if part:
                    total = pbw.add(total, pbw.mul(a, part, g))
            if total:
                out[mu] = total
        return out

    return times


def smash_mul(x: dict, y: dict, g, lattice: CharacterLattice = INTEGERS) -> dict:
    """(a (x) p_lambda)(b (x) p_mu) = a.p_(lambda-mu)b (x) p_mu, bilinearly."""
    return smash_right(y, g, lattice)(x)
