"""Integral models over Z of the principal series: nonvanishing criteria,
the 2-adic denominator exponents M_p and N_p, the parity criterion for the
third parabolic family, and an independent brute-force extension oracle.

Formula route.  M_p is the largest of 0 and the partial sums
-sum_{l=0..s} ord2(mu/4nm + (p + l + eps)/2) that run from p towards the
top of the support (N_p mirrors it towards the bottom).  With top =
-mu/2nm - eps, the term at index j is mu/4nm + (j + eps)/2 = (j - top)/2,
so with d = top - p the partial sum over s + 1 terms is
sum_{i=d-s..d} (1 - v2(i)).  By Legendre's formula v2(i!) = i - s2(i),
where s2 is the binary digit sum, that is s2(d) - s2(d - s - 1), largest
when the sum runs to the boundary: M_p = s2(top - p), and likewise
N_p = s2(p - bottom), whatever n, m and eps are.  Each exponent costs
one int.bit_count(), however far p lies from the boundary.

Oracle route.  The oracle never consults the formulas.  It walks the
extension recurrence once, in integers: the multiplier of step s is affine
in s, so it is (a0 + b*s)/D over one common denominator D.  The prefix
product stays exactly reduced, and its numerator keeps only the primes of
D, the only ones that can cancel a denominator.  The least e that makes
2^e times every prefix product integral is the exponent of the largest
reduced prefix denominator, which must be a power of two.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .scalars import check_positive, ord2, over_common_denominator, rat, residue
from .weightmods import Support

VARIANTS = ("q", "qp", "qpp")

ORACLE_DEPTH = 4096
_EXPONENT_CAP = 64


class NoExtensionError(ValueError):
    """No integral extension exists (the module over Z vanishes)."""


def _validate(variant: str, n: int, m: int, eps, mu) -> tuple:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    check_positive(n=n, m=m)
    eps = residue(eps, n)
    mu = rat(mu)
    if mu.denominator != 1:
        raise ValueError(f"mu must be an integer, got {mu}")
    return eps, mu


def _criterion(variant: str, n: int, m: int, eps: Fraction, mu: Fraction):
    """(nonzero, boundary) once n and m are checked.  The q support ends at
    the top index -mu/2nm - eps and the qp support at the bottom index
    mu/2nm - eps; the model is nonzero exactly when that index is an
    integer.  qpp has no boundary, and is nonzero exactly for even mu."""
    if variant == "qpp":
        return mu % 2 == 0, None
    boundary = (-mu if variant == "q" else mu) / (2 * n * m) - eps
    if boundary.denominator != 1:
        return False, None
    return True, int(boundary)


def nonvanishing(variant: str, n: int, m: int, eps, mu) -> bool:
    """Whether the integral model is nonzero for these parameters."""
    return _criterion(variant, n, m, *_validate(variant, n, m, eps, mu))[0]


def top_index(n: int, m: int, eps, mu) -> int:
    """Top of the q-variant support: p = -mu/2nm - eps."""
    nonzero, top = _criterion("q", n, m, *_validate("q", n, m, eps, mu))
    if not nonzero:
        raise ValueError("criterion fails: the q-variant model vanishes")
    return top


def bottom_index(n: int, m: int, eps, mu) -> int:
    """Bottom of the qp-variant support: p = mu/2nm - eps."""
    nonzero, bottom = _criterion("qp", n, m, *_validate("qp", n, m, eps, mu))
    if not nonzero:
        raise ValueError("criterion fails: the qp-variant model vanishes")
    return bottom


def _digit_sums(sign: int, boundary: int, window) -> dict:
    """{p: s2(|p - boundary|)} for every p of window on the support side
    of boundary, from the boundary outwards: sign = 1 gives M_p (support
    p <= boundary), sign = -1 gives N_p (support p >= boundary)."""
    lo, hi = window
    if sign > 0:
        indices = range(min(hi, boundary), lo - 1, -1)
    else:
        indices = range(max(lo, boundary), hi + 1)
    return {p: (p - boundary).bit_count() for p in indices}


def exponent_M(p: int, n: int, m: int, eps, mu) -> int:
    """2-adic exponent at index p for the q-variant integral model."""
    top = top_index(n, m, eps, mu)
    if p > top:
        raise ValueError(f"index above top weight: p = {p} > {top}")
    return (top - p).bit_count()


def exponent_N(p: int, n: int, m: int, eps, mu) -> int:
    """2-adic exponent at index p for the qp-variant integral model."""
    bottom = bottom_index(n, m, eps, mu)
    if p < bottom:
        raise ValueError(f"index below bottom weight: p = {p} < {bottom}")
    return (p - bottom).bit_count()


def exponent_M_raw(p: int, n: int, m: int, eps_raw, mu) -> int:
    """The M-formula evaluated at an arbitrary rational eps argument.

    Used to state the mirror identity N_p(eps, mu) = M_{-p}(-eps, mu)
    termwise; the public exponent_M restricts eps to residues.  The
    boundary -mu/2nm - eps_raw must be an integer, and the exponent is
    s2(boundary - p) as for exponent_M.
    """
    check_positive(n=n, m=m)
    nonzero, top = _criterion("q", n, m, rat(eps_raw), rat(mu))
    if not nonzero:
        raise ValueError("criterion fails for the raw argument")
    if p > top:
        raise ValueError(f"index above top weight: p = {p} > {top}")
    return (top - p).bit_count()


def dyadic_defect_sum(s: int) -> int:
    """sum_{l=1..s} (1 - ord2(l)), computed literally."""
    if s < 0:
        raise ValueError("argument must be nonnegative")
    return sum(1 - ord2(l) for l in range(1, s + 1))


# -- the brute-force oracle ------------------------------------------------


def _primary_multiplier(variant, n, m, eps, mu, p, s) -> Fraction:
    """Coefficient on step s of the extension's terminating chain.

    q walks up the E-powers; qp and qpp walk up the F-powers.
    """
    if variant == "q":
        return mu / (4 * n * m) + Fraction(s + p + eps, 1) / 2
    if variant == "qp":
        return mu / (4 * n * m) + Fraction(s - p - eps, 1) / 2
    return mu / 2 - n * (s - p - eps)


def _secondary_multiplier(variant, n, m, eps, mu, p, s, t) -> Fraction:
    """Coefficient on the transverse chain (F-powers for q, E-powers else)."""
    if variant == "q":
        return mu / 2 + n * m * (s - t - p - eps)
    if variant == "qp":
        return mu / 2 + n * m * (s - t + p + eps)
    return mu / 2 + n * (s - t + p + eps)


def _chain(variant, n, m, eps, mu, p, depth) -> tuple:
    """(numerators, D): the first depth multipliers of the terminating chain
    as the integers a0 + b*s over one common denominator D, read off the
    multipliers at s = 0 and s = 1 (every chain has a nonzero slope)."""
    den, (a0, a1) = over_common_denominator(
        _primary_multiplier(variant, n, m, eps, mu, p, 0),
        _primary_multiplier(variant, n, m, eps, mu, p, 1),
    )
    return range(a0, a0 + (a1 - a0) * depth, a1 - a0), den


def _least_exponent(chain, d: int, cap):
    """Least e >= 0 such that 2^e times every prefix product of the
    multipliers a/d (a in chain) is an integer, or None when there is none
    (or none up to cap, unless cap is None).

    The prefix product stays exactly reduced as num/den, and num keeps only
    its primes of d: no other prime can cancel a denominator.  e is then
    the exponent of the largest reduced denominator, and a denominator
    with an odd factor rules out every e.
    """
    limit = None if cap is None else 1 << cap
    num = den = worst = 1
    for a in chain:
        x = num * a
        num, g = 1, gcd(x, d)
        while g > 1:
            num *= g
            x //= g
            g = gcd(x, g)
        den *= d
        g = gcd(num, den)
        if g > 1:
            num //= g
            den //= g
        if den & (den - 1):
            return None
        if den > worst:
            if limit is not None and den > limit:
                return None
            worst = den
    return worst.bit_length() - 1


def oracle_min_exponent(
    variant: str, p: int, n: int, m: int, eps, mu, depth: int = ORACLE_DEPTH
) -> int:
    """Least e >= 0 such that phi(1) = 2^e extends integrally, by iteration.

    Walks the recurrence once, in integers.  For q and qp the chain must
    terminate (hit a zero coefficient) within depth, else there is no
    extension at all; for qpp nothing need terminate, and integrality must
    hold along the whole walked chain with at most 2^_EXPONENT_CAP to
    spend.  Raises NoExtensionError when the module over Z vanishes.
    """
    eps, mu = _validate(variant, n, m, eps, mu)
    chain, d = _chain(variant, n, m, eps, mu, p, depth)
    if 0 in chain:
        chain = chain[: chain.index(0)]
    elif variant != "qpp":
        raise NoExtensionError(
            f"no extension: the chain never terminates within depth {depth}"
        )
    qpp = variant == "qpp"
    e = _least_exponent(chain, d, _EXPONENT_CAP if qpp else None)
    if qpp and e is None:
        raise NoExtensionError("no extension: every tested exponent fails (odd mu)")
    _check_secondary(variant, n, m, eps, mu, p, min(depth, 32) if qpp else len(chain))
    if e is None:
        raise NoExtensionError(
            "no extension: a prefix product has a denominator with an odd factor"
        )
    return e


def _check_secondary(variant, n, m, eps, mu, p, width) -> None:
    """The transverse multipliers must all be integers; they move in integer
    steps, so a small grid check covers every (s, t).  They are affine in
    (s, t), so the grid is walked in integers over one common denominator."""
    den, (a, a_s, a_t) = over_common_denominator(
        *(
            _secondary_multiplier(variant, n, m, eps, mu, p, s, t)
            for s, t in ((0, 0), (1, 0), (0, 1))
        )
    )
    for s in range(min(width, 4) + 1):
        for t in range(min(width, 4) + 1):
            x = a + (a_s - a) * s + (a_t - a) * t
            if x % den:
                raise NoExtensionError(
                    f"no extension: transverse multiplier {Fraction(x, den)} at "
                    f"(s={s}, t={t}) is not an integer"
                )


# -- assembled reports ------------------------------------------------------


@dataclass
class LatticeReport:
    variant: str
    n: int
    m: int
    eps: Fraction
    mu: Fraction
    nonzero: bool
    support: Support | None
    exponents: dict
    window: tuple

    def to_json(self, oracle_agrees=None):
        out = {
            "variant": self.variant,
            "n": self.n,
            "m": self.m,
            "eps": str(self.eps),
            "mu": str(self.mu),
            "nonzero": self.nonzero,
            "support": self.support.to_json() if self.support else None,
            "exponents": [[p, self.exponents[p]] for p in sorted(self.exponents, reverse=True)],
        }
        if oracle_agrees is not None:
            out["oracle_agrees"] = oracle_agrees
        return out


def integral_model(variant: str, n: int, m: int, eps, mu, window) -> LatticeReport:
    """Assemble nonvanishing, support, and windowed exponents."""
    eps, mu = _validate(variant, n, m, eps, mu)
    lo, hi = window
    nonzero, boundary = _criterion(variant, n, m, eps, mu)
    if not nonzero:
        return LatticeReport(variant, n, m, eps, mu, False, None, {}, window)
    if variant == "q":
        support = Support("le", boundary)
        exponents = _digit_sums(1, boundary, window)
    elif variant == "qp":
        support = Support("ge", boundary)
        exponents = _digit_sums(-1, boundary, window)
    else:
        support = Support("all")
        exponents = dict.fromkeys(range(lo, hi + 1), 0)
    return LatticeReport(variant, n, m, eps, mu, True, support, exponents, window)


def oracle_check_report(report: LatticeReport, depth: int = ORACLE_DEPTH) -> bool:
    """Re-derive every reported exponent with the brute-force oracle; for a
    vanishing model, check that no index of the window extends."""
    args = (report.n, report.m, report.eps, report.mu, depth)
    if not report.nonzero:
        lo, hi = report.window
        for p in range(lo, hi + 1):
            try:
                oracle_min_exponent(report.variant, p, *args)
            except NoExtensionError:
                continue
            return False
        return True
    return all(
        oracle_min_exponent(report.variant, p, *args) == value
        for p, value in report.exponents.items()
    )
