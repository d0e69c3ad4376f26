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

Oracle route.  The oracle never consults the formulas.  It reads the
extension recurrence in integers: the multiplier of step s is affine in
s, and every chain of one (variant, n, m, eps, mu) is a slice of one
progression (a0 + b*t)/d.  The least e that makes 2^e times every prefix
product integral is the largest 2-adic exponent of a prefix denominator:
a running maximum of the prefix sums of 1 - v2(a_t), found for every
chain of a window by one sweep of the progression, so a window of
indices costs O(window + ORACLE_DEPTH) integer valuations.  That one
2-adic sweep is all a model needs: d is 1 or 2 wherever a chain exists,
and no transverse multiplier can refuse an index the chains accept
(_oracle_table says why).
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from .scalars import Support, check_positive, over_common_denominator, rat, residue

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
    """The support of the model once n and m are checked, or None when the
    model vanishes.  The q support ends at the top index -mu/2nm - eps and
    the qp support at the bottom index mu/2nm - eps; the model is nonzero
    exactly when that index is an integer.  qpp has every index, and is
    nonzero exactly for even mu."""
    if variant == "qpp":
        return Support("all") if mu % 2 == 0 else None
    boundary = (-mu if variant == "q" else mu) / (2 * n * m) - eps
    if boundary.denominator != 1:
        return None
    return Support("le" if variant == "q" else "ge", int(boundary))


def _edge(variant: str, n: int, m: int, eps, mu, p=None, raw=False) -> Support:
    """The support of the nonzero q or qp model, which ends at its top or
    bottom index; ValueError when the model vanishes, or when p is given
    and lies outside the support.  raw takes eps as any rational, not only
    a residue mod n, and mu as any rational (exponent_M_raw)."""
    if raw:
        check_positive(n=n, m=m)
        support = _criterion(variant, n, m, rat(eps), rat(mu))
    else:
        support = _criterion(variant, n, m, *_validate(variant, n, m, eps, mu))
    if support is None:
        raise ValueError(
            "criterion fails for the raw argument"
            if raw
            else f"criterion fails: the {variant}-variant model vanishes"
        )
    if p is not None and not support.contains(p):
        if variant == "q":
            raise ValueError(f"index above top weight: p = {p} > {support.bound}")
        raise ValueError(f"index below bottom weight: p = {p} < {support.bound}")
    return support


def _exponents(support: Support, lo: int, hi: int) -> dict:
    """{p: exponent} over the window lo..hi cut to the support of a nonzero
    model, from the boundary outwards: s2(|p - boundary|) for q and qp,
    and 0 for qpp."""
    lo, hi = support.clip(lo, hi)
    if support.kind == "all":
        return dict.fromkeys(range(lo, hi + 1), 0)
    indices = range(hi, lo - 1, -1) if support.kind == "le" else range(lo, hi + 1)
    return {p: (support.bound - p).bit_count() for p in indices}


def nonvanishing(variant: str, n: int, m: int, eps, mu) -> bool:
    """Whether the integral model is nonzero for these parameters."""
    return _criterion(variant, n, m, *_validate(variant, n, m, eps, mu)) is not None


def top_index(n: int, m: int, eps, mu) -> int:
    """Top of the q-variant support: p = -mu/2nm - eps."""
    return _edge("q", n, m, eps, mu).bound


def bottom_index(n: int, m: int, eps, mu) -> int:
    """Bottom of the qp-variant support: p = mu/2nm - eps."""
    return _edge("qp", n, m, eps, mu).bound


def exponent_M(p: int, n: int, m: int, eps, mu) -> int:
    """2-adic exponent at index p for the q-variant integral model."""
    return _exponents(_edge("q", n, m, eps, mu, p), p, p)[p]


def exponent_N(p: int, n: int, m: int, eps, mu) -> int:
    """2-adic exponent at index p for the qp-variant integral model."""
    return _exponents(_edge("qp", n, m, eps, mu, p), p, p)[p]


def exponent_M_raw(p: int, n: int, m: int, eps_raw, mu) -> int:
    """The M-formula evaluated at an arbitrary rational eps argument.

    Used to state the mirror identity N_p(eps, mu) = M_{-p}(-eps, mu)
    termwise; the public exponent_M restricts eps to residues.  The
    boundary -mu/2nm - eps_raw must be an integer, and the exponent is
    s2(boundary - p) as for exponent_M.
    """
    return _exponents(_edge("q", n, m, eps_raw, mu, p, raw=True), p, p)[p]


def dyadic_defect_sum(s: int) -> int:
    """sum_{l=1..s} (1 - v2(l)), computed literally on integer valuations."""
    if s < 0:
        raise ValueError("argument must be nonnegative")
    return sum(1 - _valuation(l) for l in range(1, s + 1))


# -- the brute-force oracle ------------------------------------------------


def _primary_multiplier(variant, n, m, eps, mu, p, s) -> Fraction:
    """Coefficient on step s of the extension's terminating chain.

    Each variant's chain reads one coefficient of its principal series:
    q the E coefficient at p + s, qp the F coefficient at p - s, and qpp
    the E coefficient at p - s.
    """
    if variant == "q":
        return mu / (4 * n * m) + Fraction(s + p + eps, 1) / 2
    if variant == "qp":
        return mu / (4 * n * m) + Fraction(s - p - eps, 1) / 2
    return mu / 2 - n * (s - p - eps)


def _valuation(x: int) -> int:
    """Exponent of 2 in the nonzero integer x."""
    return (x & -x).bit_length() - 1


def _chain_maxima(a0: int, b: int, chains: list, cap) -> list:
    """For each chain (start, end): the least e >= 0 such that 2^e times
    every prefix product of the multipliers (a0 + b*t)/2, start <= t < end,
    is an integer, or None when that exceeds cap (never, when cap is None).

    That e is the largest S[j] - S[start] over start <= j <= end, where
    S[j + 1] - S[j] = 1 - v2(a0 + b*j).  The starts increase and the ends
    never decrease, so one sweep over j serves every chain, with two deques
    of running maxima: of S over the open windows, and of S[start] over the
    open chains, so that the sweep stops once S has passed the cap of every
    chain still open.  No chain steps over a zero of the progression, so a
    zero adds no term.
    """
    count = len(chains)
    out, base = [None] * count, [0] * count
    maxima = deque()  # (j, S[j]) with S[j] decreasing
    bases = deque()  # (k, S[start of chain k]) with S decreasing
    k_open = k_close = 0
    j, s = chains[0][0], 0
    while True:
        while maxima and maxima[-1][1] <= s:
            maxima.pop()
        maxima.append((j, s))
        while k_open < count and chains[k_open][0] == j:
            base[k_open] = s
            while bases and bases[-1][1] <= s:
                bases.pop()
            bases.append((k_open, s))
            k_open += 1
        while k_close < count and chains[k_close][1] == j:
            while maxima[0][0] < chains[k_close][0]:
                maxima.popleft()
            value = maxima[0][1] - base[k_close]
            out[k_close] = None if cap is not None and value > cap else value
            k_close += 1
        while bases and bases[0][0] < k_close:
            bases.popleft()
        if k_close == count or (k_open == count and cap is not None and s > bases[0][1] + cap):
            return out
        a = a0 + b * j
        if a:
            s += 1 - _valuation(a)
        j += 1


def _oracle_table(variant, n, m, eps, mu, lo: int, hi: int) -> list:
    """What oracle_min_exponent answers at each index lo..hi of validated
    parameters: the least exponent, or the message of its NoExtensionError.

    Every chain is a slice of one progression (a0 + b*t)/d: q reads
    t = p + s, and qp and qpp read t = s - p.  Only d = 1 and d = 2 occur
    where a chain exists.  The q and qp multiplier is (t - boundary)/2,
    which has an integer zero only when the model is nonzero, so d = 2 on
    every chain that terminates; the qpp multiplier mu/2 - n(t - eps) has
    the denominator of mu/2, as n*eps is an integer.  For d = 2 a prefix
    product from t = start to j has the 2-adic exponent S[j] - S[start] in
    its denominator, for the prefix sums S of 1 - v2(a_t), so one sweep of
    the progression (_chain_maxima) serves the whole window; for d = 1
    every exponent is 0.  q and qp chains must reach the progression's zero
    within ORACLE_DEPTH; qpp chains stop there or at ORACLE_DEPTH, with at
    most 2^_EXPONENT_CAP to spend.  No transverse multiplier needs a test:
    a q or qp chain terminates only on a nonzero model, whose transverse
    multiplier is an integer, and a qpp model of odd mu fails the cap first.
    """
    qpp = variant == "qpp"
    d, (a0, a1) = over_common_denominator(
        *(_primary_multiplier(variant, n, m, eps, mu, 0, t) for t in (0, 1))
    )
    b = a1 - a0
    zero = -a0 // b if a0 % b == 0 else None
    sign = 1 if variant == "q" else -1
    indices = range(lo, hi + 1) if sign > 0 else range(hi, lo - 1, -1)
    ends = []
    for p in indices:
        t = sign * p
        if zero is not None and t <= zero < t + ORACLE_DEPTH:
            ends.append(zero)
        else:
            ends.append(t + ORACLE_DEPTH if qpp else None)
    chains = [(sign * p, end) for p, end in zip(indices, ends) if end is not None]
    if d == 1 or not chains:
        exponents = [0] * len(chains)
    else:
        exponents = _chain_maxima(a0, b, chains, _EXPONENT_CAP if qpp else None)
    never = f"no extension: the chain never terminates within depth {ORACLE_DEPTH}"
    odd = "no extension: every tested exponent fails (odd mu)"
    answers, found = [], iter(exponents)
    for end in ends:
        e = never if end is None else next(found)
        answers.append(odd if e is None else e)
    return answers if sign > 0 else answers[::-1]


def oracle_min_exponent(variant: str, p: int, n: int, m: int, eps, mu) -> int:
    """Least e >= 0 such that phi(1) = 2^e extends integrally, by iteration.

    Reads the recurrence in integers, from the _oracle_table of this one
    index.  For q and qp the chain must terminate (hit a zero coefficient)
    within ORACLE_DEPTH steps, else there is no extension at all; for qpp
    nothing need terminate, and integrality must hold along the chain's
    first ORACLE_DEPTH steps with at most 2^_EXPONENT_CAP to spend.  No
    transverse multiplier is tested: at ORACLE_DEPTH none refuses an index
    that the chain accepts.  Raises NoExtensionError when the module over Z
    vanishes.
    """
    eps, mu = _validate(variant, n, m, eps, mu)
    answer = _oracle_table(variant, n, m, eps, mu, p, p)[0]
    if isinstance(answer, str):
        raise NoExtensionError(answer)
    return answer


# -- assembled reports ------------------------------------------------------


class LatticeReport:
    """The assembled model: nonvanishing, support (None when the module
    vanishes) and the exponents of the window's indices, by index."""

    __slots__ = ("variant", "n", "m", "eps", "mu", "nonzero", "support", "exponents", "window")

    def __init__(
        self, variant: str, n: int, m: int, eps: Fraction, mu: Fraction, nonzero: bool,
        support: Support | None, exponents: dict, window: tuple,
    ):
        self.variant, self.n, self.m, self.eps, self.mu = variant, n, m, eps, mu
        self.nonzero, self.support, self.exponents, self.window = nonzero, support, exponents, window

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
    support = _criterion(variant, n, m, eps, mu)
    exponents = {} if support is None else _exponents(support, *window)
    return LatticeReport(
        variant, n, m, eps, mu, support is not None, support, exponents, window
    )


def oracle_check_report(report: LatticeReport) -> bool:
    """Re-derive every reported exponent with the brute-force oracle, from
    one table of the window, and check that no other index of the window
    extends (for a vanishing model, no index at all).  An exponent outside
    the window raises ValueError; every other disagreement, a reported
    index that does not extend included, reads False."""
    eps, mu = _validate(report.variant, report.n, report.m, report.eps, report.mu)
    lo, hi = report.window
    outside = [p for p in report.exponents if not lo <= p <= hi]
    if outside:
        raise ValueError(f"exponent index {outside[0]} lies outside the window {lo}..{hi}")
    table = _oracle_table(report.variant, report.n, report.m, eps, mu, lo, hi)
    if not report.nonzero:
        return all(isinstance(answer, str) for answer in table)
    return all(table[p - lo] == value for p, value in report.exponents.items()) and all(
        isinstance(answer, str)
        for p, answer in enumerate(table, lo)
        if p not in report.exponents
    )
