"""Exact rational linear algebra: echelon forms, solves, incremental spans.

Vectors are lists of Fractions; matrices are lists of such rows. Everything
works over exact rationals -- no pivoting heuristics are needed.
"""
from __future__ import annotations

from fractions import Fraction

_ZERO = Fraction(0)


def solve(matrix: list[list[Fraction]], rhs: list[Fraction]):
    """One solution of A·x = rhs, or None if inconsistent."""
    sols = solve_many(matrix, [rhs])
    return sols[0]


def solve_many(matrix: list[list[Fraction]], rhss: list[list[Fraction]]):
    """Solve A·x = b for several right-hand sides with one elimination.

    Returns a list (one entry per rhs) of solution vectors or None.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    k = len(rhss)
    aug = [list(matrix[i]) + [rhs[i] for rhs in rhss] for i in range(nrows)]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = aug[r][c]
        aug[r] = [v / inv for v in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    results = []
    for t in range(k):
        col = ncols + t
        if any(all(aug[i][c] == 0 for c in range(ncols)) and aug[i][col] != 0
               for i in range(r, nrows)):
            results.append(None)
            continue
        x = [_ZERO] * ncols
        for i, c in enumerate(pivots):
            x[c] = aug[i][col]
        results.append(x)
    return results


class Echelon:
    """An incrementally built echelon basis of a subspace of Q^n."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[list[Fraction]] = []
        self.pivots: list[int] = []

    def _reduce(self, vec: list[Fraction]) -> list[Fraction]:
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            if v[p] != 0:
                f = v[p]
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def add(self, vec: list[Fraction]) -> bool:
        """Insert a vector; return True if it enlarged the span."""
        v = self._reduce(vec)
        p = next((i for i, a in enumerate(v) if a != 0), None)
        if p is None:
            return False
        inv = v[p]
        v = [a / inv for a in v]
        # Back-substitute into existing rows to keep the form reduced.
        for i, row in enumerate(self.rows):
            if row[p] != 0:
                f = row[p]
                self.rows[i] = [a - f * b for a, b in zip(row, v)]
        idx = next((i for i, q in enumerate(self.pivots) if q > p), len(self.pivots))
        self.rows.insert(idx, v)
        self.pivots.insert(idx, p)
        return True

    def widened(self, ncols: int) -> "Echelon":
        """The same span in Q^ncols (ncols >= self.ncols), rows zero-padded."""
        out = Echelon(ncols)
        pad = [_ZERO] * (ncols - self.ncols)
        out.rows = [row + pad for row in self.rows]
        out.pivots = list(self.pivots)
        return out

    def contains(self, vec: list[Fraction]) -> bool:
        return all(a == 0 for a in self._reduce(vec))

    @property
    def rank(self) -> int:
        return len(self.rows)
