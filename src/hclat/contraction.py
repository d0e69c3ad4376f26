"""The contraction family over polynomial coefficients.

In brackets the contraction is g_{2,z}: [h,e] = 2e, [h,f] = -2f and
[e,f] = z*h, so its elements are coordinate triples over (e, f, h) and
its bracket is ``zforms.bracket_coords(2, z, ...)``.  Modules live over
Q[z] or Q[z,z^-1], carry coefficient polynomials in the index p with
Laurent coefficients (linear in z), and specialize at z = c to ordinary
weight modules via the dictionary E = e, F = (n/2)f, H = (n/2)h.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import (
    LAURENT_RING,
    POLY,
    CoefficientRing,
    Laurent,
    Support,
    as_laurent,
    check_positive,
    in_ring,
    rat,
    residue,
)
from .weightmods import (
    IndexPoly,
    WeightModule,
    affine,
    check_module_axioms,
    gnm_relations,
    module_rows,
)
from .zforms import bracket_failures

GENERATORS = ("e", "f", "h")
_Z = Laurent.z_power(1)


def phi_preserves_bracket() -> list:
    """Check that phi: sl2 = g_{2,1} -> g_{2,z}, the identity on e and h
    and multiplication by z^-1 on f, preserves the bracket on all nine
    basis pairs.

    Returns the failing pairs (gx, gy, lhs, rhs); empty means phi is a
    morphism from sl2 over Laurent coefficients to the contraction.
    """
    failures = bracket_failures((1, Laurent.z_power(-1), 1), (2, 1), (2, _Z))
    return [(GENERATORS[i], GENERATORS[j], lhs, rhs) for i, j, lhs, rhs in failures]


# -- contracted modules -------------------------------------------------------


CONTRACTION_RELATIONS = (
    ("[h,e]=2e", "h", "e", "e", 2),
    ("[h,f]=-2f", "h", "f", "f", -2),
    ("[e,f]=z*h", "e", "f", "h", Laurent.z_power(1)),
)


_ONE = IndexPoly([Laurent.const(1)])


def _contracted(n, support, w0, e, f, params, vanishing_reason=None):
    """A contracted module from its e- and f-actions, each (shift, IndexPoly),
    with weight w0 + n*p at index p; the caller has checked n.

    h acts on the weight-w vector by 2w/n, so that H = (n/2)h acts by w.
    """
    actions = {
        "e": e,
        "f": f,
        "h": (0, IndexPoly([Laurent.const(Fraction(2 * w0, n)), 2])),
    }
    return WeightModule(CONTRACTION_RELATIONS, support, actions, params, vanishing_reason)


def contracted_induced(lam: int, n: int) -> WeightModule:
    """Basis y_{lam+np}, p >= 0; e raises by one step, f lowers with a z:
    f(p) = -z(p/n)(np - n + 2 lam)."""
    check_positive(n=n)
    # -z (p/n) (2 lam - n + n p)
    f_coeff = IndexPoly([0, _Z * Fraction(n - 2 * lam, n), -_Z])
    return _contracted(n, Support("ge", 0), lam, (1, _ONE), (-1, f_coeff), {"lam": lam, "n": n})


def contracted_produced(lam: int, n: int) -> WeightModule:
    """Basis y^{lam+np}, p >= 0; f lowers by one step, e raises with a z:
    e(p) = -z((p+1)/n)(np + 2 lam)."""
    check_positive(n=n)
    # -z ((p + 1)/n) (2 lam + n p)
    e_coeff = IndexPoly([_Z * Fraction(-2 * lam, n), _Z * Fraction(-2 * lam - n, n), -_Z])
    return _contracted(n, Support("ge", 0), lam, (1, e_coeff), (-1, _ONE), {"lam": lam, "n": n})


def contracted_ps(eps, mu, ring: CoefficientRing, n: int = 1) -> WeightModule:
    """Basis w^{n(p+eps)} over all integers p.

    Over the Laurent ring the module always exists.  Over Q[z] the
    e-coefficient needs mu/2z to be polynomial: a nonzero constant term of
    mu collapses the model to zero (reported via vanishing_reason, not an
    error), and a negative exponent is rejected outright.
    """
    eps = residue(eps, n)
    mu = as_laurent(mu)
    if not in_ring(mu, ring):
        raise ValueError(f"mu = {mu} does not lie in {ring.name}")
    vanishing_reason = None
    if ring.kind == "Q[z]" and mu and mu.min_exp() < 1:
        vanishing_reason = (
            "mu has a nonzero constant term, so the polynomial model "
            "is the zero module"
        )
    half_mu_over_z = mu.shift(-1) * Laurent.const(Fraction(1, 2))
    half_mu = mu * Laurent.const(Fraction(1, 2))
    n_eps = int(n * eps)  # integral: the denominator of eps divides n
    return _contracted(
        n,
        Support("all"),
        n_eps,
        # e(p) = mu/2z + (p + eps), f(p) = mu/2 - z(p + eps)
        (1, affine(half_mu_over_z + eps, 1)),
        (-1, affine(half_mu - _Z * eps, -_Z)),
        {"eps": eps, "mu": mu, "n": n},
        vanishing_reason,
    )


def check_contraction_axioms(M: WeightModule, window) -> list:
    """The three contracted bracket relations per index, as exact Laurent
    identities: (index, relation label, discrepancy) for each failure."""
    return check_module_axioms(M, window)


# -- reducibility and the polynomial lattice ---------------------------------


def generic_irreducibility(eps, mu) -> bool:
    """False exactly when some e- or f-coefficient vanishes at an integer
    index, i.e. when mu = 2z*t with t a rational such that t + eps or
    t - eps is an integer."""
    eps = rat(eps)
    mu = as_laurent(mu)
    if mu.is_zero():
        t = Fraction(0)
    elif mu.is_monomial() and mu.min_exp() == 1:
        t = mu.coefficient(1) / 2
    else:
        return True
    return not ((t + eps).denominator == 1 or (t - eps).denominator == 1)


def coefficient_roots(eps, mu, window, n: int = 1) -> list:
    """Direct search for vanishing e/f-coefficients of the principal
    series over the window; the root-set route behind generic_irreducibility."""
    M = contracted_ps(eps, mu, LAURENT_RING, n)
    lo, hi = window
    zeros = {gen: set(M.zero_indices(gen, lo, hi)) for gen in ("e", "f")}
    return [(gen, p) for p in range(lo, hi + 1) for gen in ("e", "f") if p in zeros[gen]]


def polynomial_lattice(mu, window) -> dict:
    """Closure of the polynomial-basis lattice under all three actions, for
    n = 1, whose only residue eps is 0."""
    mu = as_laurent(mu)
    if not mu.is_zero() and mu.min_exp() < 1:
        raise ValueError(
            f"mu = {mu} must lie in z*Q[z] (no constant term, no poles)"
        )
    M = contracted_ps(0, mu, POLY)
    lo, hi = window
    # a value lies outside Q[z] exactly when a negative z-exponent column
    # is nonzero at its index
    poles = {gen: set() for gen in GENERATORS}
    for gen in GENERATORS:
        for e, _, values in M.coefficient_columns(gen, lo, hi):
            if e < 0:
                poles[gen].update(p for p, v in zip(range(lo, hi + 1), values) if v)
    failures = [(gen, p) for p in range(lo, hi + 1) for gen in GENERATORS if p in poles[gen]]
    return {"closed": not failures, "failures": failures}


# -- specialization -----------------------------------------------------------


def specialize(M: WeightModule, c) -> WeightModule:
    """Evaluate every p-coefficient at z = c and pass to the divided basis
    E = e, F = (n/2)f, H = (n/2)h, so the fiber at c = m carries the
    standard g_{n,m} relations.  A pole at c raises ValueError here."""
    c = rat(c)
    if M.vanishing_reason is not None:
        raise ValueError("cannot specialize the zero module")
    n = M.params["n"]
    scales = {"E": ("e", rat(1)), "F": ("f", Fraction(n, 2)), "H": ("h", Fraction(n, 2))}
    actions = {}
    for cap, (gen, scale) in scales.items():
        shift, poly = M.actions[gen]
        try:
            coeffs = [scale * a.evaluate(c) for a in poly.coeffs]
        except ZeroDivisionError:
            raise ValueError(f"pole at z = {c} in the {gen}-coefficient")
        actions[cap] = (shift, IndexPoly(coeffs))
    return WeightModule(gnm_relations(n, c), M.support, actions, {**M.params, "z": c})


def specialize_matches(specialized: WeightModule, reference: WeightModule, window) -> bool:
    """Whether a diagonal change of basis identifies the two modules on
    the window lo..hi.

    A gauge g multiplies E(p) by g(p+1)/g(p) and divides F(p+1) by the
    same ratio, so H, the zero sets of E and F and the product E(p)F(p+1)
    are invariants, and no two edges constrain each other.  The modules
    match exactly when the shifts are E +1, F -1, H 0 on both, and the
    supports and these invariants agree at every window index and on
    every edge inside the window.
    """
    S, R = specialized, reference
    for M in (S, R):
        if [M.actions.get(gen, (None,))[0] for gen in "EFH"] != [1, -1, 0]:
            return False
    lo, hi = window
    for p in range(lo, hi + 1):
        if S.support.contains(p) != R.support.contains(p):
            return False
        if S.coefficient("H", p) != R.coefficient("H", p):
            return False
        for gen in ("E", "F"):
            if (S.coefficient(gen, p) == 0) != (R.coefficient(gen, p) == 0):
                return False
    return all(
        S.coefficient("E", p) * S.coefficient("F", p + 1)
        == R.coefficient("E", p) * R.coefficient("F", p + 1)
        for p in range(lo, hi)
    )


def contraction_rows(M: WeightModule, lo: int, hi: int) -> list:
    """Windowed table rows [index, weight, e, f, h coefficients]."""
    return module_rows(M, lo, hi)
