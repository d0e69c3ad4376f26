"""The Hecke algebra R(T) of a diagonalizable group: weight projections,
componentwise products, homogeneous parts of graded maps, and the smash
product with an enveloping algebra.

Only finitely supported elements are ever materialized; windowed evaluation
stands in for the full product of lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import pbw
from .scalars import rat


@dataclass(frozen=True)
class CharacterLattice:
    """Z (characters of T^1) or Z/n (characters of the n-th roots of unity)."""

    kind: str
    order: int = 0

    def __post_init__(self):
        if self.kind not in ("Z", "Z/n"):
            raise ValueError(f"unknown lattice kind {self.kind!r}")
        if self.kind == "Z/n" and self.order < 1:
            raise ValueError("cyclic lattice needs order >= 1")

    def normalize(self, lam: int) -> int:
        lam = int(lam)
        return lam if self.kind == "Z" else lam % self.order

    def elements(self):
        if self.kind != "Z/n":
            raise ValueError("only the cyclic lattice is finite")
        return range(self.order)


INTEGERS = CharacterLattice("Z")


def cyclic(order: int) -> CharacterLattice:
    return CharacterLattice("Z/n", order)


@dataclass
class HeckeElement:
    """A finitely supported element of R(T) = (+) k p_lambda."""

    lattice: CharacterLattice
    support: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for lam, c in self.support.items():
            key = self.lattice.normalize(lam)
            total = clean.get(key, 0) + c
            if total == 0:
                clean.pop(key, None)
            else:
                clean[key] = total
        self.support = clean

    def __eq__(self, other):
        return (
            isinstance(other, HeckeElement)
            and self.lattice == other.lattice
            and self.support == other.support
        )


def p(lam: int, lattice: CharacterLattice = INTEGERS) -> HeckeElement:
    return HeckeElement(lattice, {lam: rat(1)})


def hecke_mul(x: HeckeElement, y: HeckeElement) -> HeckeElement:
    """Componentwise product: R(T) is a product of base-ring copies."""
    _same_lattice(x, y)
    out = {}
    for lam, c in x.support.items():
        if lam in y.support:
            out[lam] = c * y.support[lam]
    return HeckeElement(x.lattice, out)


def _same_lattice(x, y):
    if x.lattice != y.lattice:
        raise ValueError("elements live over different character lattices")


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


@dataclass
class SmashElement:
    """An element of U(g) # R(T): finitely many terms a (x) p_lambda."""

    zform: object
    lattice: CharacterLattice
    terms: dict = field(default_factory=dict)  # normalized lambda -> UEAElement

    def __post_init__(self):
        clean = {}
        for lam, elem in self.terms.items():
            key = self.lattice.normalize(lam)
            merged = pbw.add(clean.get(key, {}), elem)
            if merged:
                clean[key] = merged
            else:
                clean.pop(key, None)
        self.terms = clean

    def __eq__(self, other):
        return (
            isinstance(other, SmashElement)
            and self.zform == other.zform
            and self.lattice == other.lattice
            and self.terms == other.terms
        )


def smash(a: dict, lam: int, g, lattice: CharacterLattice = INTEGERS) -> SmashElement:
    return SmashElement(g, lattice, {lam: dict(a)})


def _adjoint_component(elem: dict, residue: int, g, lattice: CharacterLattice) -> dict:
    """Monomials of elem whose adjoint weight restricts to the residue."""
    residue = lattice.normalize(residue)
    return {
        key: c
        for key, c in elem.items()
        if lattice.normalize(g.n * (key[2] - key[0])) == residue
    }


def smash_mul(x: SmashElement, y: SmashElement) -> SmashElement:
    """(a (x) p_lambda)(b (x) p_mu) = a.p_(lambda-mu)b (x) p_mu, bilinearly."""
    _same_smash_algebra(x, y)
    g, lattice = x.zform, x.lattice
    out: dict = {}
    for lam, a in x.terms.items():
        for mu, b in y.terms.items():
            component = _adjoint_component(b, lam - mu, g, lattice)
            if not component:
                continue
            prod = pbw.mul(a, component, g)
            if prod:
                out[mu] = pbw.add(out.get(mu, {}), prod)
    return SmashElement(g, lattice, out)


def _same_smash_algebra(x, y):
    if x.zform != y.zform or x.lattice != y.lattice:
        raise ValueError("smash elements live over different algebras")
