"""Finite-rank lattices for SL2 over the integers: the ladder models with
their counit fractions, sublattices generated by vectors, duals, minimal
and maximal forms, Hom lattices, and maximality certificates.

Every ambient here has distinct weights, so its weight spaces are lines
Q e_i.  A lattice stable under Kostant's Z-form U_Z is the direct sum of
its weight components, since the integer-valued polynomials in H lie in
U_Z and separate the weights (Humphreys, section 27).  So each lattice is
``RowLattice``: one rational scalar c_i per coordinate, for the lattice
of the sum of c_i Z e_i.  Closures split their generators into weight
components and apply E, F and the divided powers X^k/k! (as the chain
X(X^(k-1) v/(k-1)!)/k) to them; stability under these is stability under
U_Z, which they generate.  The Hom equations keep one unknown per pair of
equal weights, all that H-equivariance leaves, and go through the one
Gauss-Jordan elimination, ``scalars.rref``.

Maximality certificates use the Z-basis F^(i) binom(H, b) E^(j) of U_Z.
On a weight vector u at index a only E^(a) ends at the highest weight, so
the highest component of an enlargement by u is read off the E-chain of u
without closing the enlarged lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm, prod

from .scalars import rat, rref


def _rational_gcd(a: Fraction, b: Fraction) -> Fraction:
    """The nonnegative generator of aZ + bZ."""
    return Fraction(
        gcd(a.numerator * b.denominator, b.numerator * a.denominator),
        a.denominator * b.denominator,
    )


class RowLattice:
    """The lattice of the sum of c_i Z e_i in Q^n, kept as the nonnegative
    rational scalars c_i (c_i = 0 where the lattice has no component)."""

    def __init__(self, ncols: int):
        self.scalars = [Fraction(0)] * ncols

    def add(self, vec) -> bool:
        """Insert a weight vector (at most one nonzero entry); returns True
        if the lattice grew."""
        support = [(j, x) for j, x in enumerate(vec) if x]
        if not support:
            return False
        if len(support) > 1:
            raise ValueError(
                f"not a weight vector: nonzero entries at {[j for j, _ in support]}"
            )
        j, x = support[0]
        old = self.scalars[j]
        self.scalars[j] = _rational_gcd(old, Fraction(x))
        return self.scalars[j] != old

    def contains(self, vec) -> bool:
        return all(
            not x or (c and (x / c).denominator == 1) for c, x in zip(self.scalars, vec)
        )

    def basis(self) -> list:
        """The rows c_i e_i with c_i nonzero: already the Hermite normal
        form."""
        n = len(self.scalars)
        return [
            [c if j == i else Fraction(0) for j in range(n)]
            for i, c in enumerate(self.scalars)
            if c
        ]

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


def _span(rows) -> RowLattice:
    """The Z-span of nonempty rational rows, each a weight vector."""
    lat = RowLattice(len(rows[0]))
    for row in rows:
        lat.add(row)
    return lat


def _sparse_columns(M) -> list:
    """For each column j of the square matrix M, its nonzero entries
    (i, M[i][j]) in increasing i."""
    return [[(i, row[j]) for i, row in enumerate(M) if row[j]] for j in range(len(M))]


def _actions(ambient) -> tuple:
    """The sparse columns of the ambient E and F, for _apply and _images."""
    return _sparse_columns(ambient.E), _sparse_columns(ambient.F)


def _apply(columns, vec) -> list:
    """M vec from the sparse columns of M, walking only the support of vec.

    Entry i is summed from int 0 in increasing column order, as the dense
    row product does, so its type is the same: int 0 where no term lands.
    """
    out = [0] * len(columns)
    for j, x in enumerate(vec):
        if x:
            for i, m in columns[j]:
                out[i] += m * x
    return out


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

    embedding, when present, gives the basis rows in ambient ladder
    coordinates.
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


def _images(actions, vec):
    """The nonzero X^k vec/k! for X in {E, F} (``actions`` from _actions)
    and k <= rank; each chain stops at its first zero."""
    for columns in actions:
        image = vec
        for k in range(1, len(vec) + 1):
            image = [Fraction(x, k) if x else 0 for x in _apply(columns, image)]
            if not any(image):
                break
            yield image


def _close_under(lat: RowLattice, ambient, vectors) -> None:
    """Add the vectors to lat and close it under _images.

    Only vectors whose insertion enlarged the lattice need their images
    taken: the final lattice is the Z-span of those vectors together with
    rows whose images were already checked, so stability follows from
    linearity without re-sweeping the basis.
    """
    actions = _actions(ambient)
    pending = [v for v in vectors if lat.add(v)]
    while pending:
        vec = pending.pop()
        for image in _images(actions, vec):
            if lat.add(image):
                pending.append(image)


def generated_lattice(ambient: FiniteLattice, vectors) -> FiniteLattice:
    """Smallest sublattice containing the vectors and closed under E^k/k!
    and F^k/k!, that is, under U_Z.

    Vectors are rational rows in ambient coordinates; the result carries
    its embedding and its own integer action matrices.  The ambient's
    weights must be distinct: U_Z then holds the projection onto each
    weight line, so the closure is that of the vectors' weight components.
    """
    if len(set(ambient.weights)) != len(ambient.weights):
        raise ValueError("ambient weights repeat; each weight space must be a line")
    if not vectors or all(not any(v) for v in vectors):
        raise ValueError("need at least one nonzero generating vector")
    components = [
        [x if k == j else 0 for k in range(ambient.rank)]
        for v in vectors
        for j, x in enumerate(v)
        if x
    ]
    lat = RowLattice(ambient.rank)
    _close_under(lat, ambient, components)
    return _from_row_lattice(lat, ambient)


def _from_row_lattice(lat: RowLattice, ambient: FiniteLattice) -> FiniteLattice:
    basis = lat.basis()
    actions = {}
    # column convention: entry [i][j] is the coefficient of basis i in the
    # image of basis j
    for name, columns in zip(("E", "F"), _actions(ambient)):
        cols = []
        for row in basis:
            coords = lat.coordinates(_apply(columns, row))
            if coords is None:
                raise RuntimeError("closure left the lattice; reduction bug")
            cols.append(coords)
        actions[name] = [[cols[j][i] for j in range(len(basis))] for i in range(len(basis))]
    return FiniteLattice(
        [w for w, c in zip(ambient.weights, lat.scalars) if c],
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
    weights = [-L.weights[perm[a]] for a in range(r)]
    return FiniteLattice(weights, E, F)


def minimal_lattice(lam: int) -> FiniteLattice:
    """Sublattice of the weight-lam ladder generated from the highest
    vector under divided powers."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    amb = ladder_lattice(lam, 0)
    top = [Fraction(1 if i == 0 else 0) for i in range(amb.rank)]
    return generated_lattice(amb, [top])


def maximal_lattice(lam: int) -> FiniteLattice:
    """Dual of the divided-power closure of the lowest vector, embedded
    back into the ladder with highest component normalized to Z."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    amb = ladder_lattice(lam, 0)
    bottom = [Fraction(1 if i == amb.rank - 1 else 0) for i in range(amb.rank)]
    low = generated_lattice(amb, [bottom])
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
    return generated_lattice(amb, rows)


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
    if len(sub.basis()) != len(lat.basis()):
        return None
    return sub.covolume() / lat.covolume()


# -- Hom lattices and counits -------------------------------------------------


def hom_lattice(A: FiniteLattice, B: FiniteLattice) -> dict:
    """Integer intertwiners T with T X_A = X_B T for X in {E, F, H}.

    H-equivariance makes T[i][j] zero unless B.weights[i] == A.weights[j];
    the other entries are the unknowns of the E and F equations.  Returns
    the rank of the rational solution space and, when it is one, the
    primitive integer generator (as a rank_B x rank_A matrix) whose first
    nonzero entry in row-major order is positive.
    """
    ra, rb = A.rank, B.rank
    free = [(i, j) for i in range(rb) for j in range(ra) if B.weights[i] == A.weights[j]]
    by_row = [[] for _ in range(rb)]
    by_col = [[] for _ in range(ra)]
    for u, (i, j) in enumerate(free):
        by_row[i].append((j, u))
        by_col[j].append((i, u))
    equations = []
    for XA, XB in ((A.E, B.E), (A.F, B.F)):
        for i in range(rb):
            for j in range(ra):
                # entry (i, j) of T X_A - X_B T
                row = [Fraction(0)] * len(free)
                for k, u in by_row[i]:
                    row[u] += rat(XA[k][j])
                for k, u in by_col[j]:
                    row[u] -= rat(XB[i][k])
                if any(row):
                    equations.append(row)
    kernel = _nullspace(equations, len(free))
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
        generator = [[0] * ra for _ in range(rb)]
        for (i, j), x in zip(free, ints):
            generator[i][j] = x
        result["generator"] = generator
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


def hom_generator_index(V: FiniteLattice) -> int:
    """Positive generator of the image of V's highest weight component
    under the counit dual to the ambient highest vector."""
    if V.embedding is None:
        raise ValueError("lattice carries no embedding")
    g = _span(V.embedding).scalars[0]
    if not g:
        raise ValueError("ambient highest vector is not in the Q-span")
    if g.denominator != 1:
        raise ValueError(
            f"highest component {g} is not contained in Z; normalize first"
        )
    return g.numerator


def maximality_certificate(L: FiniteLattice, primes, lam: int) -> dict:
    """Try to enlarge L by u/rho for each basis vector u and prime rho.

    A lattice with highest component Z is maximal when every enlargement
    forces a denominator into the highest component; failures list the
    (prime, weight) pairs where the enlarged closure stays integral at the
    top.
    """
    if L.embedding is None:
        raise ValueError("lattice carries no embedding")
    amb = ladder_lattice(lam, 0)
    if hom_generator_index(L) != 1:
        raise ValueError("highest component is not normalized to Z")
    base = _span(L.embedding)
    actions = _actions(amb)
    # the closure of L + Z u is L + U_Z u only when L is already stable
    for row in L.embedding:
        for image in _images(actions, row):
            if not base.contains(image):
                raise ValueError("lattice is not closed under the divided action")
    # U_Z has the Z-basis F^(i) binom(H, b) E^(j), and binom(H, b) only
    # scales a weight vector by an integer.  From u at index a only
    # E^(a) u lands on the highest weight, so the highest component of
    # L + U_Z u is Z + (E^(a) u)_0 Z: it stays Z exactly when the top
    # entries of u and of its images are all integers.
    failures = []
    for rho in primes:
        for a, row in enumerate(L.embedding):
            u = [Fraction(x, rho) for x in row]
            tops = [u[0]] + [image[0] for image in _images(actions, u)]
            if all(t.denominator == 1 for t in tops):
                failures.append((rho, L.weights[a]))
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
