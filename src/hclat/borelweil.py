"""Finite-rank lattices for SL2 over the integers: the ladder models with
their counit fractions, sublattices generated by vectors, duals, minimal
and maximal forms, Hom lattices, and maximality certificates.

Every lattice here has distinct descending weights, so E and F each move
a basis vector to a multiple of a neighbour: a ``FiniteLattice`` is two
chains of integers.  A lattice stable under Kostant's Z-form U_Z is the
direct sum of its weight components, since the integer-valued polynomials
in H lie in U_Z and separate the weights (Humphreys, section 27).  So each
sublattice is its ambient plus a ``RowLattice``: one rational scalar per
weight line, the only ``Fraction`` kept; chains, images and intertwiners
are computed in integers, from its numerator and denominator.
Closures apply E, F and the divided powers X^k/k! (as the chain
X(X^(k-1) v/(k-1)!)/k) to weight vectors; they generate U_Z.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm, prod

from .scalars import check_positive

_ZERO = Fraction(0)


class RowLattice:
    """The lattice of the sum of c_i Z e_i in Q^n, kept as the nonnegative
    rational scalars c_i (c_i = 0 where the lattice has no component)."""

    def __init__(self, ncols: int):
        self.scalars = [_ZERO] * ncols

    def holds(self, j: int, num: int, den: int) -> bool:
        """Whether (num/den) e_j, with den > 0, lies in the lattice."""
        c = self.scalars[j]
        return not num or bool(c) and (num * c.denominator) % (den * c.numerator) == 0

    def add(self, j: int, num: int, den: int) -> bool:
        """Insert (num/den) e_j; returns True if the lattice grew."""
        if self.holds(j, num, den):
            return False
        c = self.scalars[j]
        g = gcd(c.numerator * den, num * c.denominator)
        self.scalars[j] = Fraction(g, c.denominator * den)
        return True

    def __eq__(self, other):
        return isinstance(other, RowLattice) and self.scalars == other.scalars

    def contains(self, vec) -> bool:
        return all(self.holds(j, x.numerator, x.denominator) for j, x in enumerate(vec))

    def basis(self) -> list:
        """The rows c_i e_i with c_i nonzero: already the Hermite normal
        form."""
        n = len(self.scalars)
        return [[c if j == i else _ZERO for j in range(n)]
                for i, c in enumerate(self.scalars) if c]

    def coordinates(self, vec) -> list:
        """Integer coordinates of vec in basis(), or None."""
        if not self.contains(vec):
            return None
        return [int(x / c) for c, x in zip(self.scalars, vec) if c]

    def covolume(self) -> Fraction:
        """The product of the nonzero c_i: the volume of a fundamental
        domain inside the Q-span, so [L : L'] = covol(L') / covol(L) for
        L' inside L of the same rank."""
        return prod((c for c in self.scalars if c), start=Fraction(1))


class FiniteLattice:
    """Finite-rank lattice on u_0, u_1, ... with distinct descending weights
    w_i: H u_i = w_i u_i, E u_i = e_i u_(i-1) and F u_i = f_i u_(i+1), so
    e_0 and the last f are 0.  inside, when present, is the pair (ambient,
    RowLattice): the basis is c_j e_j over the ambient basis e_j, for the
    nonzero scalars c_j of the RowLattice.  Two lattices are equal when
    all four fields are."""

    __slots__ = ("weights", "e", "f", "inside")

    def __init__(self, weights: list, e: list, f: list, inside: tuple = None):
        if any(a <= b for a, b in zip(weights, weights[1:])):
            raise ValueError(f"weights {weights} repeat or are not descending")
        if not len(e) == len(f) == len(weights) or weights and (e[0] or f[-1]):
            raise ValueError("E and F must be chains with e_0 = 0 and a last f of 0")
        self.weights, self.e, self.f, self.inside = weights, e, f, inside

    def __eq__(self, other):
        if other.__class__ is not FiniteLattice:
            return NotImplemented
        return (self.weights, self.e, self.f, self.inside) == (
            other.weights, other.e, other.f, other.inside
        )

    @property
    def rank(self) -> int:
        return len(self.weights)

    def to_json(self):
        r, e, f = self.rank, self.e, self.f
        E = [[e[j] if i == j - 1 else 0 for j in range(r)] for i in range(r)]
        F = [[f[j] if i == j + 1 else 0 for j in range(r)] for i in range(r)]
        out = {"rank": r, "weights": self.weights, "E": E, "F": F}
        if self.inside is not None:
            out["embedding"] = [[str(x) for x in row] for row in self.inside[1].basis()]
        return out


def check_lattice_axioms(L: FiniteLattice) -> list:
    """Integer chains and the bracket identities on each u_i: [E,F] u_i =
    (f_i e_(i+1) - e_i f_(i-1)) u_i and [H,X] u_i = (w_(i-/+1) - w_i) X u_i."""
    w, e, f, r = L.weights, L.e, L.f, L.rank
    failures = [f"{name} has a non-integer entry" for name, chain in (("E", e), ("F", f))
                if any(Fraction(x).denominator != 1 for x in chain)]
    if any((f[i] * e[i + 1] if i + 1 < r else 0) - e[i] * f[i - 1] != w[i] for i in range(r)):
        failures.append("[E,F] != H")  # e_0 = 0 drops the wrapped f[-1]
    if any(e[i] and w[i - 1] - w[i] != 2 for i in range(1, r)):
        failures.append("[H,E] != 2E")
    if any(f[i] and w[i] - w[i + 1] != 2 for i in range(r - 1)):
        failures.append("[H,F] != -2F")
    return failures


def ladder_lattice(lam: int, n: int) -> FiniteLattice:
    """Rank lam+2n+1 lattice on v_{lam+2n-2i} with E v_(i) = (lam+2n-i+1)
    v_(i-1) and F v_(i) = (i+1) v_(i+1)."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got n={n}")
    w = lam + 2 * n
    if w < 0:
        raise ValueError(f"lam + 2n = {w} must be nonnegative")
    return FiniteLattice([w - 2 * i for i in range(w + 1)],
                         [0] + [w - i + 1 for i in range(1, w + 1)],
                         [i + 1 for i in range(w)] + [0])


def _images(L: FiniteLattice, j: int, num: int, den: int):
    """(i, num', den') with X^k (num/den) u_j / k! = (num'/den') u_i, for X
    in {E, F} and k = 1, 2, ...; each chain stops at its first zero.  The
    quotients are not reduced: den' grows only when k fails to divide the
    numerator, which never happens on a U_Z-stable ambient."""
    for chain, step in ((L.e, -1), (L.f, 1)):
        a, b, i, k = num, den, j, 0
        while chain[i]:
            k += 1
            a *= chain[i]
            i += step
            if a % k:
                b *= k
            else:
                a //= k
            yield i, a, b


def _close_under(lat: RowLattice, ambient: FiniteLattice, components) -> None:
    """Add the weight vectors (num/den) e_j, given as (j, num, den), to lat
    and close it under _images.

    Only vectors whose insertion enlarged the lattice need their images
    taken: the final lattice is the Z-span of those vectors, whose images
    all went in, so stability follows from linearity without re-sweeping.
    """
    pending = [item for item in components if lat.add(*item)]
    while pending:
        for i, num, den in _images(ambient, *pending.pop()):
            if lat.add(i, num, den):
                pending.append((i, num, den))


def generated_lattice(ambient: FiniteLattice, vectors) -> FiniteLattice:
    """Smallest sublattice containing the rational rows (in ambient
    coordinates) and closed under E^k/k! and F^k/k!, that is, under U_Z.
    U_Z holds the projection onto each weight line, so the closure is that
    of the vectors' weight components."""
    components = [(j, x.numerator, x.denominator)
                  for v in vectors for j, x in enumerate(v) if x]
    if not components:
        raise ValueError("need at least one nonzero generating vector")
    lat = RowLattice(ambient.rank)
    _close_under(lat, ambient, components)
    return _from_row_lattice(lat, ambient)


def _from_row_lattice(lat: RowLattice, ambient: FiniteLattice) -> FiniteLattice:
    """The sublattice on the basis c_j e_j, where X c_j e_j = (c_j x_j /
    c_(j+-1)) c_(j+-1) e_(j+-1) for the ambient chain coefficient x_j, an
    exact quotient of integers cross-multiplied from the scalars."""
    c = lat.scalars
    chains = {-1: [], 1: []}
    for j in (j for j, cj in enumerate(c) if cj):
        num, den = c[j].numerator, c[j].denominator
        for chain, step in ((ambient.e, -1), (ambient.f, 1)):
            image = num * chain[j]
            if image and not lat.holds(j + step, image, den):
                raise RuntimeError("closure left the lattice; reduction bug")
            d = c[j + step] if image else 1  # an int has a numerator and a denominator
            chains[step].append(image * d.denominator // (den * d.numerator))
    weights = [w for w, cj in zip(ambient.weights, c) if cj]
    return FiniteLattice(weights, chains[-1], chains[1], (ambient, lat))


def dual_lattice(L: FiniteLattice) -> FiniteLattice:
    """Contragredient lattice: (x phi)(v) = -phi(x v), on the dual basis in
    reverse order so weights stay descending."""
    return FiniteLattice([-w for w in reversed(L.weights)],
                         [0] + [-x for x in reversed(L.e[1:])],
                         [-x for x in reversed(L.f[:-1])] + [0])


def minimal_lattice(lam: int) -> FiniteLattice:
    """Sublattice of the weight-lam ladder generated from the highest
    vector under divided powers."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    return generated_lattice(ladder_lattice(lam, 0), [[1] + [0] * lam])


def maximal_lattice(lam: int) -> FiniteLattice:
    """Dual of the divided-power closure of the lowest vector, embedded
    back into the ladder with highest component normalized to Z; its
    intertwiner is two integer chains, made Fractions only when stored."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    amb = ladder_lattice(lam, 0)
    M = dual_lattice(generated_lattice(amb, [[0] * lam + [1]]))
    # the diagonal intertwiner T(delta_a) = c_a v_a with c_0 = 1, kept as
    # c_a = num[a] / den[a] unreduced; up to the sign of each basis vector,
    # M is the sublattice with scalars |c_a|.  F fixes c_b / c_(b-1) =
    # f_(b-1) / f^M_(b-1), and E agrees when e^M_b f^M_(b-1) = e_b f_(b-1)
    num, den = [1], [1]
    for b in range(lam):
        if M.f[b] == 0:
            raise ValueError("F-chain of the dual breaks; cannot identify")
        num.append(num[b] * amb.f[b])
        den.append(den[b] * M.f[b])
    if any(M.e[b] * M.f[b - 1] != amb.e[b] * amb.f[b - 1] for b in range(1, lam + 1)):
        raise ValueError("no diagonal intertwiner matches both actions")
    lat = RowLattice(amb.rank)
    lat.scalars = [Fraction(abs(a), abs(b)) for a, b in zip(num, den)]
    return _from_row_lattice(lat, amb)


def binomial_lattice(lam: int) -> FiniteLattice:
    """The admissible model: coefficients 1/binomial(lam, a) on the ladder,
    an independent cross-check of maximal_lattice."""
    rows = [[Fraction(1, comb(lam, a)) if j == a else 0 for j in range(lam + 1)]
            for a in range(lam + 1)]
    return generated_lattice(ladder_lattice(lam, 0), rows)


def lattice_span_equal(A: FiniteLattice, B: FiniteLattice) -> bool:
    """Same Z-span in the same ambient (both must lie in one)."""
    return inclusion_index(A, B) == 1


def inclusion_index(inner: FiniteLattice, outer: FiniteLattice):
    """Index of inner in outer, the ratio of the two covolumes, or None if
    inner is not a sublattice of full rank.  Both lattices are sums of
    weight lines, so inner lies in outer line by line."""
    if inner.inside is None or outer.inside is None:
        raise ValueError("both lattices need embeddings")
    (amb, sub), (outer_amb, lat) = inner.inside, outer.inside
    if amb != outer_amb:
        raise ValueError("the lattices lie in different ambients")
    full_rank = [bool(c) for c in sub.scalars] == [bool(c) for c in lat.scalars]
    if not (full_rank and lat.contains(sub.scalars)):
        return None
    return sub.covolume() / lat.covolume()


# -- Hom lattices and counits -------------------------------------------------


def hom_lattice(A: FiniteLattice, B: FiniteLattice) -> dict:
    """Integer intertwiners T with T X_A = X_B T for X in {E, F, H}.

    H leaves one unknown t_j = T[s(j)][j] per index j of A whose weight is
    B's weight at s(j).  Entry (i, j) of T E_A - E_B T is t_(j-1) e^A_j
    [i = s(j-1)] - e^B_s(j) t_j [i = s(j) - 1], and likewise for F, so an
    equation links t_(j-1) to t_j by a ratio or forces one of them to 0.
    Returns the rank of the rational solution space and, when it is one,
    the primitive integer generator (as a rank_B x rank_A matrix) whose
    first nonzero entry in row-major order is positive.
    """
    where = {w: i for i, w in enumerate(B.weights)}
    s = [where.get(w) for w in A.weights] + [None]  # s[-1] is None too
    zero, ratios = set(), {}  # ratios[q]: the values of t_q / t_(q-1), as reduced pairs
    for j, sj in enumerate(s[:-1]):
        eb, fb = (0, 0) if sj is None else (B.e[sj], B.f[sj])
        # a t_p = b t_q with q = p + 1; a term without unknown drops out
        for p, a, q, b in ((j - 1, A.e[j], j, eb), (j, fb, j + 1, A.f[j])):
            a, b = a if s[p] is not None else 0, b if s[q] is not None else 0
            if a and b and s[p] + 1 == s[q]:
                g = gcd(a, b) if b > 0 else -gcd(a, b)
                ratios.setdefault(q, set()).add((a // g, b // g))
            else:  # one equation per unknown when their rows differ
                zero.update(x for x, c in ((p, a), (q, b)) if c)
    runs = []  # [t, alive] per run of linked unknowns: one free scalar if alive
    for j in (j for j, sj in enumerate(s[:-1]) if sj is not None):
        if j not in ratios:
            runs.append([{}, True])
        t = runs[-1][0]  # t[j] = (num, den): t_j = num / den, unreduced
        (a, b), (num, den) = min(ratios.get(j, [(1, 1)])), t.get(j - 1, (1, 1))
        t[j] = num * a, den * b
        runs[-1][1] &= len(ratios.get(j, ())) < 2 and j not in zero
    live = [t for t, alive in runs if alive]
    result = {"rank": len(live), "generator": None}
    if len(live) == 1:
        scale = lcm(*(den for _, den in live[0].values()))
        ints = {j: num * scale // den for j, (num, den) in live[0].items()}
        unit = gcd(*ints.values()) * (1 if ints[min(ints)] > 0 else -1)
        result["generator"] = generator = [[0] * A.rank for _ in range(B.rank)]
        for j, x in ints.items():
            generator[s[j]][j] = x // unit
    return result


def hom_generator_index(V: FiniteLattice) -> int:
    """Positive generator of the image of V's highest weight component
    under the counit dual to the ambient highest vector."""
    if V.inside is None:
        raise ValueError("lattice carries no embedding")
    g = V.inside[1].scalars[0]
    if not g:
        raise ValueError("ambient highest vector is not in the Q-span")
    if g.denominator != 1:
        raise ValueError(f"highest component {g} is not contained in Z; normalize first")
    return g.numerator


def maximality_certificate(L: FiniteLattice, primes) -> dict:
    """Try to enlarge L by u/rho for each basis vector u and prime rho.

    A lattice with highest component Z is maximal when every enlargement
    forces a denominator into the highest component; failures list the
    (prime, weight) pairs where the enlarged closure stays integral at the
    top.  Only the given primes are checked.  In the ladder of highest
    weight lam, every stable lattice with top Z lies between
    minimal_lattice(lam) and maximal_lattice(lam), of index
    prod binom(lam, a) with no prime factor above lam, so the primes up to
    lam make this a proof of maximality.  The CLI checks 2, 3 and 5: a
    proof only for lam <= 6.
    """
    if hom_generator_index(L) != 1:
        raise ValueError("highest component is not normalized to Z")
    amb, base = L.inside
    # U_Z has the Z-basis F^(i) binom(H, b) E^(j), binom(H, b) scales a
    # weight vector by an integer, and from u at index a only E^(a) u lands
    # on the highest weight: the top of L + U_Z u is Z + (E^(a) u)_0 Z.
    # That is the closure of L + Z u when L is stable, as the walk checks.
    tops = []
    for a, c in ((a, c) for a, c in enumerate(base.scalars) if c):
        top = (c.numerator, c.denominator) if a == 0 else (0, 1)
        for i, num, den in _images(amb, a, c.numerator, c.denominator):
            if not base.holds(i, num, den):
                raise ValueError("lattice is not closed under the divided action")
            top = (num, den) if i == 0 else top
        tops.append(top)
    failures = [(rho, w) for rho in primes for (num, den), w in zip(tops, L.weights)
                if num % (den * rho) == 0]
    return {"certified": not failures, "failures": failures, "primes": list(primes)}


def counit_fraction_witness(lam: int, n: int) -> dict:
    """The functional phi(v_{lam+2n-2i}) = 1/n at i = n, else 0, checked to
    be a homomorphism to the rationals-mod-1 character of weight lam."""
    check_positive(n=n)
    L = ladder_lattice(lam, n)
    if n >= L.rank:
        raise ValueError(f"phi needs weight {lam}, below the ladder's lowest "
                         f"weight {L.weights[-1]}")
    phi = [Fraction(1, n) if i == n else 0 for i in range(L.rank)]
    problems = [f"phi lives off the weight-{lam} line at index {i}"
                for i, (x, w) in enumerate(zip(phi, L.weights)) if x and w != lam]
    # phi(F v_j) = phi_(j+1) f_j
    problems += [f"phi(F v_{j}) = {value} is not integral"
                 for j, value in enumerate(x * y for x, y in zip(phi[1:], L.f))
                 if value % 1 != 0]
    problems += [f"phi(H v_{j}) != lam phi(v_{j}) mod Z"
                 for j, (x, w) in enumerate(zip(phi, L.weights)) if (x * w - lam * x) % 1 != 0]
    if problems:
        raise ValueError("; ".join(problems))
    return {"n": n, "fraction": Fraction(1, n) % 1,
            "weight_check": True, "f_check": True, "h_check": True}
