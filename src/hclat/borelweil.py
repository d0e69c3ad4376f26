"""Finite-rank lattices for SL2 over the integers: the ladder models with
their counit fractions, sublattices generated by vectors, duals, minimal
and maximal forms, Hom lattices, and maximality certificates.

Closures apply E and F, and the divided powers X^k/k! (Kostant's Z-form)
as the chain X(X^(k-1) v/(k-1)!)/k, to vectors.  Rational questions (the
kernel of the Hom equations) go through the one Gauss-Jordan elimination,
``scalars.rref``.  Integral questions go through ``RowLattice``: an integer
row-echelon basis with positive pivots (so ``basis()`` is the Hermite
normal form) over a common denominator answers membership, integer
coordinates, closure, and index (as a ratio of covolumes).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm

from .scalars import rat, rref


def _ext_gcd(a: int, b: int):
    """g, x, y with x*a + y*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _pivot(row):
    for j, x in enumerate(row):
        if x:
            return j
    return None


def _rational_coordinates(rows, target):
    """Coordinates of target in nonzero echelon rows by forward
    substitution, or None if target is outside their Q-span."""
    work = [rat(x) for x in target]
    coords = []
    for row in rows:
        j = _pivot(row)
        q = 0
        if work[j]:
            q = work[j] / row[j]
            work = [a - q * b for a, b in zip(work, row)]
        coords.append(q)
    return coords if not any(work) else None


class RowLattice:
    """Subgroup of (1/den) * Z^n kept in row-echelon form over Z."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.den = 1
        self.rows = []  # integer rows, pivot columns strictly increasing

    def copy(self) -> "RowLattice":
        dup = RowLattice(self.ncols)
        dup.den = self.den
        dup.rows = [list(row) for row in self.rows]
        return dup

    def _scaled(self, vec):
        """(d, vec * d) for the least common multiple d of den and the
        denominators of vec, whose entries are ints or Fractions; only the
        nonzero entries are scaled."""
        d = lcm(self.den, *(x.denominator for x in vec if x))
        return d, [x.numerator * (d // x.denominator) if x else 0 for x in vec]

    def add(self, vec) -> bool:
        """Insert a rational vector; returns True if the lattice grew."""
        d, work = self._scaled(vec)
        if d != self.den:
            factor = d // self.den
            self.rows = [[x * factor for x in row] for row in self.rows]
            self.den = d
        grew = False
        while any(work):
            j = _pivot(work)
            pos = 0
            while pos < len(self.rows) and _pivot(self.rows[pos]) < j:
                pos += 1
            if pos == len(self.rows) or _pivot(self.rows[pos]) != j:
                if work[j] < 0:
                    work = [-x for x in work]
                self.rows.insert(pos, work)
                return True
            row = self.rows[pos]
            a, b = row[j], work[j]
            if b % a == 0:
                q = b // a
                work = [w - q * r for w, r in zip(work, row)]
            else:
                g, x, y = _ext_gcd(a, b)
                if g < 0:  # keep every pivot positive: basis() is then the HNF
                    g, x, y = -g, -x, -y
                merged = [x * r + y * w for r, w in zip(row, work)]
                work = [(a // g) * w - (b // g) * r for r, w in zip(row, work)]
                self.rows[pos] = merged
                grew = True
        return grew

    def contains(self, vec) -> bool:
        d, work = self._scaled(vec)
        if d != self.den:
            # vector needs a finer denominator than the lattice carries
            return False
        for row in self.rows:
            j = _pivot(row)
            if work[j]:
                if work[j] % row[j]:
                    return False
                q = work[j] // row[j]
                work = [w - q * r for w, r in zip(work, row)]
        return not any(work)

    def basis(self) -> list:
        """Hermite normal form as rational rows: positive pivots, and the
        entries above each pivot reduced into [0, pivot)."""
        rows = [list(r) for r in self.rows]
        for i in range(len(rows)):
            j = _pivot(rows[i])
            for k in range(i):
                q = rows[k][j] // rows[i][j]
                if q:
                    rows[k] = [a - q * b for a, b in zip(rows[k], rows[i])]
        return [[Fraction(x, self.den) for x in row] for row in rows]

    def coordinates(self, vec) -> list:
        """Integer coordinates of vec in the echelon basis, or None."""
        coords = _rational_coordinates(self.basis(), vec)
        if coords is None or any(q.denominator != 1 for q in coords):
            return None
        return [int(q) for q in coords]

    def covolume(self) -> Fraction:
        """|product of the pivots| / den^rank: the volume of a fundamental
        domain inside the Q-span, so [L : L'] = covol(L') / covol(L) for
        L' inside L of the same rank."""
        out = Fraction(1, self.den ** len(self.rows))
        for row in self.rows:
            out *= row[_pivot(row)]
        return abs(out)


def _span(rows) -> RowLattice:
    """The Z-span of nonempty rational rows."""
    lat = RowLattice(len(rows[0]))
    for row in rows:
        lat.add(row)
    return lat


def _mat_apply(M, vec):
    support = [(j, x) for j, x in enumerate(vec) if x]
    return [sum(row[j] * x for j, x in support if row[j]) for row in M]


def _mat_mul(A, B):
    n = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _mat_scale(M, c):
    return [[c * x for x in row] for row in M]


def _commutator(A, B):
    ab, ba = _mat_mul(A, B), _mat_mul(B, A)
    return [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(ab, ba)]


@dataclass
class FiniteLattice:
    """Finite-rank lattice with integer E and F matrices; H is diagonal by
    weight.  Column convention: M[i][j] is the u_i-coefficient of X u_j.

    weights is None when the basis is not weight-homogeneous (possible for
    lattices generated by mixed vectors); embedding, when present, gives
    the basis rows in ambient ladder coordinates.
    """

    weights: list
    E: list
    F: list
    embedding: list = None
    ambient_weights: list = None

    @property
    def rank(self) -> int:
        return len(self.E)

    def H(self) -> list:
        if self.weights is None:
            # H = EF - FE always lies in the lattice's endomorphisms
            return _commutator(self.E, self.F)
        return [
            [self.weights[i] if i == j else 0 for j in range(self.rank)]
            for i in range(self.rank)
        ]

    def to_json(self):
        out = {"rank": self.rank, "weights": self.weights, "E": self.E, "F": self.F}
        if self.embedding is not None:
            out["embedding"] = [[str(x) for x in row] for row in self.embedding]
        return out


def check_lattice_axioms(L: FiniteLattice) -> list:
    """Integer entries and the three bracket identities, as exact matrices."""
    failures = []
    for name, M in (("E", L.E), ("F", L.F)):
        if any(rat(x).denominator != 1 for row in M for x in row):
            failures.append(f"{name} has a non-integer entry")
    H = L.H()
    if _commutator(L.E, L.F) != H:
        failures.append("[E,F] != H")
    if _commutator(H, L.E) != _mat_scale(L.E, 2):
        failures.append("[H,E] != 2E")
    if _commutator(H, L.F) != _mat_scale(L.F, -2):
        failures.append("[H,F] != -2F")
    return failures


def ladder_lattice(lam: int, n: int) -> FiniteLattice:
    """Rank lam+2n+1 lattice on v_{lam+2n-2i} with E v_(i) = (lam+2n-i+1)
    v_(i-1) and F v_(i) = (i+1) v_(i+1)."""
    w = lam + 2 * n
    if w < 0 or n < 0:
        raise ValueError(f"lam + 2n = {w} must be nonnegative")
    rank = w + 1
    weights = [w - 2 * i for i in range(rank)]
    E = [[0] * rank for _ in range(rank)]
    F = [[0] * rank for _ in range(rank)]
    for i in range(1, rank):
        E[i - 1][i] = w - i + 1
    for i in range(rank - 1):
        F[i + 1][i] = i + 1
    return FiniteLattice(weights, E, F)


def _images(ambient: FiniteLattice, vec, divided_powers: bool):
    """The nonzero X vec for X in {E, F} and, with divided_powers, the
    nonzero X^k vec/k! for k <= rank; each chain stops at its first zero."""
    for X in (ambient.E, ambient.F):
        image = vec
        for k in range(1, ambient.rank + 1 if divided_powers else 2):
            image = [Fraction(x, k) if x else 0 for x in _mat_apply(X, image)]
            if not any(image):
                break
            yield image


def _close_under(lat: RowLattice, ambient, divided_powers, vectors) -> None:
    """Add the vectors to lat and close it under _images.

    Only vectors whose insertion enlarged the lattice need their images
    taken: the final lattice is the Z-span of those vectors together with
    rows whose images were already checked, so stability follows from
    linearity without re-sweeping the basis.
    """
    pending = [v for v in vectors if lat.add(v)]
    while pending:
        vec = pending.pop()
        for image in _images(ambient, vec, divided_powers):
            if lat.add(image):
                pending.append(image)


def generated_lattice(ambient: FiniteLattice, vectors, divided_powers: bool = False) -> FiniteLattice:
    """Smallest sublattice containing the vectors and closed under E and F
    (and, with divided_powers, under E^k/k! and F^k/k!).

    Vectors are rational rows in ambient coordinates; the result carries
    its embedding and its own integer action matrices.
    """
    if not vectors or all(not any(v) for v in vectors):
        raise ValueError("need at least one nonzero generating vector")
    lat = RowLattice(ambient.rank)
    _close_under(lat, ambient, divided_powers, vectors)
    return _from_row_lattice(lat, ambient)


def _from_row_lattice(lat: RowLattice, ambient: FiniteLattice) -> FiniteLattice:
    basis = lat.basis()
    actions = {}
    # column convention: entry [i][j] is the coefficient of basis i in the
    # image of basis j
    for name, M in (("E", ambient.E), ("F", ambient.F)):
        cols = []
        for row in basis:
            coords = lat.coordinates(_mat_apply(M, row))
            if coords is None:
                raise RuntimeError("closure left the lattice; reduction bug")
            cols.append(coords)
        actions[name] = [[cols[j][i] for j in range(len(basis))] for i in range(len(basis))]
    weights = []
    for row in basis:
        support = {ambient.weights[k] for k, x in enumerate(row) if x}
        if len(support) != 1:
            weights = None
            break
        weights.append(support.pop())
    return FiniteLattice(
        weights,
        actions["E"],
        actions["F"],
        embedding=basis,
        ambient_weights=list(ambient.weights),
    )


def dual_lattice(L: FiniteLattice) -> FiniteLattice:
    """Contragredient lattice: (x phi)(v) = -phi(x v), basis reordered so
    weights stay descending."""
    r = L.rank
    perm = [r - 1 - a for a in range(r)]
    E = [[-L.E[perm[b]][perm[a]] for b in range(r)] for a in range(r)]
    F = [[-L.F[perm[b]][perm[a]] for b in range(r)] for a in range(r)]
    weights = None
    if L.weights is not None:
        weights = [-L.weights[perm[a]] for a in range(r)]
    return FiniteLattice(weights, E, F)


def minimal_lattice(lam: int) -> FiniteLattice:
    """Sublattice of the weight-lam ladder generated from the highest
    vector under divided powers."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    amb = ladder_lattice(lam, 0)
    top = [Fraction(1 if i == 0 else 0) for i in range(amb.rank)]
    return generated_lattice(amb, [top], divided_powers=True)


def maximal_lattice(lam: int) -> FiniteLattice:
    """Dual of the divided-power closure of the lowest vector, embedded
    back into the ladder with highest component normalized to Z."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    amb = ladder_lattice(lam, 0)
    bottom = [Fraction(1 if i == amb.rank - 1 else 0) for i in range(amb.rank)]
    low = generated_lattice(amb, [bottom], divided_powers=True)
    M = dual_lattice(low)
    embedding = _diagonal_intertwiner(M, amb)
    # flip basis signs so the embedding coefficients are positive; the
    # action matrices are conjugated by the same signs
    signs = [1 if embedding[a][a] > 0 else -1 for a in range(M.rank)]
    E = [[signs[i] * signs[j] * M.E[i][j] for j in range(M.rank)] for i in range(M.rank)]
    F = [[signs[i] * signs[j] * M.F[i][j] for j in range(M.rank)] for i in range(M.rank)]
    embedding = [[abs(x) for x in row] for row in embedding]
    return FiniteLattice(
        M.weights, E, F, embedding=embedding, ambient_weights=list(amb.weights)
    )


def _diagonal_intertwiner(M: FiniteLattice, amb: FiniteLattice) -> list:
    """Rows c_a e_a with T(delta_a) = c_a v_a intertwining both actions,
    normalized c_0 = 1.  Needs matching descending weight lists."""
    if M.weights != amb.weights:
        raise ValueError("weight lists differ; no diagonal identification")
    r = M.rank
    c = [Fraction(0)] * r
    c[0] = Fraction(1)
    for b in range(r - 1):
        B = M.F[b + 1][b]
        A = amb.F[b + 1][b]
        if B == 0:
            raise ValueError("F-chain of the dual breaks; cannot identify")
        c[b + 1] = c[b] * A / B
    for b in range(1, r):  # confirm the E-direction agrees
        if c[b - 1] * M.E[b - 1][b] != c[b] * amb.E[b - 1][b]:
            raise ValueError("no diagonal intertwiner matches both actions")
    return [[c[a] if j == a else Fraction(0) for j in range(r)] for a in range(r)]


def binomial_lattice(lam: int) -> FiniteLattice:
    """The admissible model: coefficients 1/binomial(lam, a) on the ladder.

    Used as an independent cross-check of maximal_lattice.
    """
    amb = ladder_lattice(lam, 0)
    rows = [
        [Fraction(1, comb(lam, a)) if j == a else Fraction(0) for j in range(amb.rank)]
        for a in range(amb.rank)
    ]
    return generated_lattice(amb, rows, divided_powers=True)


def lattice_span_equal(A: FiniteLattice, B: FiniteLattice) -> bool:
    """Same Z-span of embeddings (both must carry one): A lies in B with
    index 1."""
    return inclusion_index(A, B) == 1


def inclusion_index(inner: FiniteLattice, outer: FiniteLattice):
    """Index of inner in outer, or None if inner is not a sublattice of
    full rank.  Computed as the ratio of the two covolumes.
    """
    if inner.embedding is None or outer.embedding is None:
        raise ValueError("both lattices need embeddings")
    lat = _span(outer.embedding)
    if not all(lat.contains(row) for row in inner.embedding):
        return None
    sub = _span(inner.embedding)
    if len(sub.rows) != len(lat.rows):
        return None
    return sub.covolume() / lat.covolume()


# -- Hom lattices and counits -------------------------------------------------


def hom_lattice(A: FiniteLattice, B: FiniteLattice) -> dict:
    """Integer intertwiners T with T X_A = X_B T for X in {E, F, H}.

    Returns the rank of the rational solution space and, when it is one,
    the primitive integer generator (as a rank_B x rank_A matrix).
    """
    ra, rb = A.rank, B.rank
    unknowns = ra * rb

    def idx(i, j):
        return i * ra + j  # T[i][j], i < rb, j < ra

    equations = []
    pairs = (("E", A.E, B.E), ("F", A.F, B.F), ("H", A.H(), B.H()))
    for _, XA, XB in pairs:
        for i in range(rb):
            for j in range(ra):
                row = [Fraction(0)] * unknowns
                for k in range(ra):
                    row[idx(i, k)] += rat(XA[k][j])
                for k in range(rb):
                    row[idx(k, j)] -= rat(XB[i][k])
                if any(row):
                    equations.append(row)
    kernel = _nullspace(equations, unknowns)
    result = {"rank": len(kernel), "generator": None}
    if len(kernel) == 1:
        vec = kernel[0]
        scale = lcm(*(x.denominator for x in vec))
        ints = [int(x * scale) for x in vec]
        content = gcd(*ints)
        ints = [x // content for x in ints]
        first = next(x for x in ints if x)
        if first < 0:
            ints = [-x for x in ints]
        result["generator"] = [
            [ints[idx(i, j)] for j in range(ra)] for i in range(rb)
        ]
    return result


def _nullspace(rows, ncols) -> list:
    """Basis of the rational kernel of the row system."""
    reduced, pivots = rref(rows, ncols)
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, col in zip(reduced, pivots):
            vec[col] = -row[f]
        basis.append(vec)
    return basis


def _top_component(lat: RowLattice) -> Fraction:
    """Generator g with V intersect Q*e_top = g Z e_top.

    If e_top = sum q_i b_i over the basis, then t e_top lies in V exactly
    when every t q_i is an integer, so g = lcm(denominators)/gcd(numerators)
    over the nonzero coordinates.
    """
    target = [Fraction(1 if j == 0 else 0) for j in range(lat.ncols)]
    coords = _rational_coordinates(lat.basis(), target)
    if coords is None:
        raise ValueError("ambient highest vector is not in the Q-span")
    nums = [abs(q.numerator) for q in coords if q]
    dens = [q.denominator for q in coords if q]
    if not nums:
        raise ValueError("highest component is zero")
    return Fraction(lcm(*dens), gcd(*nums))


def hom_generator_index(V: FiniteLattice) -> int:
    """Positive generator of the image of V's highest weight component
    under the counit dual to the ambient highest vector."""
    if V.embedding is None:
        raise ValueError("lattice carries no embedding")
    g = _top_component(_span(V.embedding))
    if g.denominator != 1:
        raise ValueError(
            f"highest component {g} is not contained in Z; normalize first"
        )
    return g.numerator


def scale_lattice(L: FiniteLattice, k: int) -> FiniteLattice:
    if L.embedding is None:
        raise ValueError("lattice carries no embedding")
    return FiniteLattice(
        L.weights,
        L.E,
        L.F,
        embedding=[[k * x for x in row] for row in L.embedding],
        ambient_weights=L.ambient_weights,
    )


def maximality_certificate(L: FiniteLattice, primes, lam: int) -> dict:
    """Try to enlarge L by u/rho for each basis vector u and prime rho.

    A lattice with highest component Z is maximal when every enlargement
    forces a denominator into the highest component; failures list the
    (prime, weight-or-index) pairs where the enlarged closure stays
    integral at the top.
    """
    if L.embedding is None:
        raise ValueError("lattice carries no embedding")
    amb = ladder_lattice(lam, 0)
    if hom_generator_index(L) != 1:
        raise ValueError("highest component is not normalized to Z")
    base = _span(L.embedding)
    # each enlargement below reuses base, so it must already be stable
    for row in L.embedding:
        for image in _images(amb, row, divided_powers=True):
            if not base.contains(image):
                raise ValueError("lattice is not closed under the divided action")
    failures = []
    for rho in primes:
        for a, row in enumerate(L.embedding):
            candidate = [x / rho for x in row]
            enlarged = base.copy()
            _close_under(enlarged, amb, True, [candidate])
            top = _top_component(enlarged)
            if top.denominator == 1:
                label = L.weights[a] if L.weights is not None else a
                failures.append((rho, label))
    return {
        "certified": not failures,
        "failures": failures,
        "primes": list(primes),
    }


def counit_fraction_witness(lam: int, n: int) -> dict:
    """The functional phi(v_{lam+2n-2i}) = 1/n at i = n, else 0, checked to
    be a homomorphism to the rationals-mod-1 character of weight lam."""
    if n < 1:
        raise ValueError("n must be positive")
    L = ladder_lattice(lam, n)
    rank = L.rank
    phi = [Fraction(1, n) if i == n else Fraction(0) for i in range(rank)]
    problems = []
    for i in range(rank):
        if phi[i] != 0 and L.weights[i] != lam:
            problems.append(f"phi lives off the weight-{lam} line at index {i}")
    for j in range(rank):
        value = sum(phi[i] * L.F[i][j] for i in range(rank))
        if value % 1 != 0:
            problems.append(f"phi(F v_{j}) = {value} is not integral")
    for j in range(rank):
        got = phi[j] * L.weights[j]
        want = lam * phi[j]
        if (got - want) % 1 != 0:
            problems.append(f"phi(H v_{j}) != lam phi(v_{j}) mod Z")
    if problems:
        raise ValueError("; ".join(problems))
    return {
        "lam": lam,
        "n": n,
        "fraction": Fraction(1, n) % 1,
        "weight_check": True,
        "f_check": True,
        "h_check": True,
    }
