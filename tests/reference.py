"""Reference routes that the library no longer takes, kept for the
differential tests: rational Gauss-Jordan elimination.

The library solves its frames and presentations in closed form
(``zforms._solve_pair``) and its lattices by weight lines
(``borelweil.RowLattice``); ``rref`` is the general elimination both are
checked against.
"""

from fractions import Fraction


def rref(rows, ncols: int):
    """Gauss-Jordan elimination over Q on the first ncols columns.

    Returns (reduced rows, pivot columns): reduced row i has a 1 in column
    pivots[i] and zeros in every other row of that column; the rows past
    len(pivots) are zero in the first ncols columns.  Columns beyond ncols
    (an augmented right-hand side) are carried along, not eliminated.
    """
    M = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        pividx = next((i for i in range(r, len(M)) if M[i][col]), None)
        if pividx is None:
            continue
        M[r], M[pividx] = M[pividx], M[r]
        piv = M[r][col]
        prow = M[r] = [x / piv for x in M[r]]
        support = [j for j, x in enumerate(prow) if x]
        for i, row in enumerate(M):
            factor = row[col]
            if i != r and factor:
                for j in support:
                    row[j] -= factor * prow[j]
        pivots.append(col)
    return M, pivots


def solve(vectors, target):
    """The coefficients c with sum c_i * vectors[i] = target, free
    coordinates set to 0, by elimination; None if there are none."""
    ncols = len(vectors)
    rows = [[v[k] for v in vectors] + [target[k]] for k in range(len(target))]
    reduced, pivots = rref(rows, ncols)
    if any(row[ncols] != 0 for row in reduced[len(pivots):]):
        return None
    coeffs = [Fraction(0)] * ncols
    for row, col in zip(reduced, pivots):
        coeffs[col] = row[ncols]
    return coeffs
