"""Weight modules over g_{n,m}: the induced and produced families and the
principal series attached to the parabolic frames q, qp, qpp.

Modules are intensional: a support predicate plus one exact coefficient
function per generator.  Nothing infinite is ever materialized; every check
runs over a caller-chosen window of indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from .scalars import CoefficientRing, in_ring, rat
from .zforms import Subalgebra, ZForm, iwasawa_decompose, subalgebra


@dataclass(frozen=True)
class Support:
    """Index predicate: p >= bound, p <= bound, or all integers."""

    kind: str  # "ge", "le", "all"
    bound: int = 0

    def contains(self, p: int) -> bool:
        if self.kind == "ge":
            return p >= self.bound
        if self.kind == "le":
            return p <= self.bound
        return True

    def to_json(self):
        if self.kind == "all":
            return {"kind": "all"}
        return {"kind": self.kind, "bound": self.bound}


@dataclass(frozen=True)
class CharacterModule:
    """A rank-one module k_{eps,mu} over a parabolic frame: X.1 = 0, Y.1 = mu."""

    eps: Fraction
    mu: object
    presentation: str  # subalgebra label the character is defined over


def gnm_relations(n, m) -> tuple:
    """The relation table of g_{n,m}: [H,E] = nE, [H,F] = -nF, [E,F] = mH."""
    return (
        ("[H,E]=nE", "H", "E", "E", n),
        ("[H,F]=-nF", "H", "F", "F", -n),
        ("[E,F]=mH", "E", "F", "H", m),
    )


@dataclass
class WeightModule:
    """A weight module given by exact coefficient functions.

    actions maps a generator name to (index shift, coefficient function);
    weight_fn gives the T^1-exponent of the basis vector at index p.
    relations holds the brackets the actions must satisfy, as tuples
    (label, X, Y, target, constant) meaning [X, Y] = constant * target.
    Coefficients are Fractions over g_{n,m} and its fibers, and Laurent
    polynomials over the contraction, whose algebra is None.
    """

    algebra: object
    relations: tuple
    ring: CoefficientRing
    support: Support
    weight_fn: object
    actions: dict
    family: str
    params: dict = field(default_factory=dict)
    has_counit: bool = False
    vanishing_reason: str = None

    @property
    def generators(self) -> tuple:
        """Generator names in table-column order."""
        return tuple(self.actions)

    def weight(self, p: int):
        return self.weight_fn(p)

    def act_gen(self, gen: str, p: int):
        """Action of one generator on the basis vector at index p."""
        if self.vanishing_reason is not None or not self.support.contains(p):
            return []
        shift, fn = self.actions[gen]
        target = p + shift
        if not self.support.contains(target):
            return []
        c = fn(p)
        if not c:
            return []
        return [(target, c)]

    def coefficient(self, gen: str, p: int):
        """The printed coefficient: action coefficient after clipping."""
        hits = self.act_gen(gen, p)
        return hits[0][1] if hits else rat(0)

    def counit_value(self, p: int):
        if not self.has_counit:
            raise ValueError(f"{self.family} carries no counit")
        return rat(1) if self.support.contains(p) else rat(0)

    def with_action(self, gen: str, shift: int, fn) -> "WeightModule":
        """Copy with one generator's action replaced (for negative controls)."""
        return replace(
            self,
            actions={**self.actions, gen: (shift, fn)},
            params=dict(self.params),
        )


def apply_vector(M: WeightModule, gen: str, vec: dict) -> dict:
    out = {}
    for p, c in vec.items():
        for p2, c2 in M.act_gen(gen, p):
            total = out.get(p2, 0) + c2 * c
            if not total:
                out.pop(p2, None)
            else:
                out[p2] = total
    return out


# -- the explicit families -------------------------------------------------


def induced_module(g: ZForm, lam: int, ring: CoefficientRing) -> WeightModule:
    """Basis y_{lam+np}, p >= 0: E raises by one step, F lowers with the
    quadratic coefficient, H is diagonal."""
    n, m = g.n, g.m
    lam = int(lam)
    actions = {
        "E": (1, lambda p: rat(1)),
        "F": (-1, lambda p: -Fraction(m * p, 2) * (n * p - n + 2 * lam)),
        "H": (0, lambda p: rat(lam + n * p)),
    }
    return WeightModule(
        g,
        gnm_relations(n, m),
        ring,
        Support("ge", 0),
        lambda p: lam + n * p,
        actions,
        "induced",
        {"lambda": lam},
    )


def produced_module(g: ZForm, lam: int, ring: CoefficientRing) -> WeightModule:
    """Basis y^{lam+np}, p >= 0: F lowers by one step with coefficient 1,
    E raises with the quadratic coefficient."""
    n, m = g.n, g.m
    lam = int(lam)
    actions = {
        "E": (1, lambda p: -Fraction(m * (p + 1), 2) * (n * p + 2 * lam)),
        "F": (-1, lambda p: rat(1)),
        "H": (0, lambda p: rat(lam + n * p)),
    }
    return WeightModule(
        g,
        gnm_relations(n, m),
        ring,
        Support("ge", 0),
        lambda p: lam + n * p,
        actions,
        "produced",
        {"lambda": lam},
    )


def derive_ps_action(g: ZForm, S: Subalgebra) -> dict:
    """Principal-series coefficients from the Iwasawa frame of S.

    With gen = c_X X + c_Y Y + c_H H, the action on the weight vector of
    weight w is c_Y*mu + c_H*w.  Returns, per generator, the shift and the
    pair (c_mu, c_w) with coefficient(p) = c_mu*mu + c_w*n(p+eps).
    """
    table = iwasawa_decompose(g, S)
    out = {}
    for gen, shift in (("E", 1), ("F", -1)):
        _cx, c_y, c_h = table[gen]
        out[gen] = {"shift": shift, "c_mu": c_y, "c_w": c_h}
    return out


PS_RING_REQUIREMENT = {
    "q": lambda n, m: 2 * n * m,
    "qp": lambda n, m: 2 * n * m,
    "qpp": lambda n, m: 2,
}


def principal_series(
    g: ZForm,
    label: str,
    chi: CharacterModule,
    ring: CoefficientRing,
    alternate_qp_f: bool = False,
) -> WeightModule:
    """The principal series attached to a parabolic label and a character.

    Basis w^{n(p+eps)} over all p in Z; the counit sends every basis vector
    to 1.  alternate_qp_f installs the alternate printed F-coefficient for
    the qp family (kept for the cross-check driver; it fails [E,F] = mH).
    """
    if label not in PS_RING_REQUIREMENT:
        raise ValueError(f"principal series needs label q, qp or qpp, not {label!r}")
    if chi.presentation != label:
        raise ValueError(
            f"character is presented over {chi.presentation!r}, not {label!r}"
        )
    n, m = g.n, g.m
    needed = PS_RING_REQUIREMENT[label](n, m)
    if not in_ring(Fraction(1, needed), ring):
        raise ValueError(
            f"principal series over {label} needs 1/{needed} in the base ring; "
            f"{ring.name} does not contain it. Integral behaviour at this "
            "boundary is what the dyadic exponent routines compute."
        )
    eps = Fraction(chi.eps)
    if not (0 <= eps < 1) or n % eps.denominator != 0:
        raise ValueError(
            f"eps must be one of 0, 1/{n}, ..., {n - 1}/{n}; got {eps}"
        )
    mu = chi.mu
    if not in_ring(mu, ring):
        raise ValueError(f"mu = {mu} does not lie in {ring.name}")

    coeffs = derive_ps_action(g, subalgebra(g, label))
    actions = {}
    for gen, data in coeffs.items():
        shift, c_mu, c_w = data["shift"], data["c_mu"], data["c_w"]
        actions[gen] = (
            shift,
            (lambda c_mu, c_w: lambda p: c_mu * mu + c_w * n * (p + eps))(c_mu, c_w),
        )
    if alternate_qp_f and label == "qp":
        # the alternate printed coefficient: mu/2nm - p - eps (twice the
        # bracket-consistent one)
        actions["F"] = (-1, lambda p: mu * Fraction(1, 2 * n * m) - (p + eps))
    actions["H"] = (0, lambda p: _exact_weight(n, eps, p))
    return WeightModule(
        g,
        gnm_relations(n, m),
        ring,
        Support("all"),
        lambda p: _exact_weight(n, eps, p),
        actions,
        f"ps-{label}",
        {"eps": eps, "mu": mu, "alternate_qp_f": alternate_qp_f},
        has_counit=True,
    )


def _exact_weight(n: int, eps: Fraction, p: int) -> int:
    w = n * (p + eps)
    if w.denominator != 1:
        raise ValueError(f"weight n(p+eps) = {w} is not integral")
    return int(w)


def check_module_axioms(M: WeightModule, window) -> list:
    """Evaluate every relation of M.relations on each window index.

    Returns a list of (index, relation label, discrepancy) triples; empty
    means every relation holds exactly on the window.
    """
    failures = []
    for p in window:
        if not M.support.contains(p):
            continue
        v = {p: rat(1)}
        image = {gen: apply_vector(M, gen, v) for gen in M.actions}
        for label, x, y, target, c in M.relations:
            bracket = _sub_vec(apply_vector(M, x, image[y]), apply_vector(M, y, image[x]))
            diff = _sub_vec(bracket, _scale_vec(image[target], c))
            if diff:
                failures.append((p, label, diff))
    return failures


def _scale_vec(vec, c):
    return {p: c * s for p, s in vec.items() if c * s}


def _sub_vec(x, y):
    out = dict(x)
    for p, c in y.items():
        total = out.get(p, 0) - c
        if not total:
            out.pop(p, None)
        else:
            out[p] = total
    return out


def module_rows(M: WeightModule, lo: int, hi: int) -> list:
    """Window table: [index, weight, one coefficient per generator] per index."""
    if M.vanishing_reason is not None:
        return []
    indices = [p for p in range(lo, hi + 1) if M.support.contains(p)]
    columns = [[M.coefficient(gen, p) for p in indices] for gen in M.generators]
    return [list(row) for row in zip(indices, map(M.weight, indices), *columns)]
