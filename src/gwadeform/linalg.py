"""Exact rational linear algebra: one sparse row reducer for solves,
incremental spans and determinants.

Matrices come in dense (lists of Fraction rows) and results go out dense,
but elimination works on sparse rows: a row is a dict {column: Fraction}
that never stores a zero.  A reduced table {pivot column: row} holds rows
that are normalized (1 at their pivot, the smallest column they touch) and
zero at every other row's pivot.  `_reduce` subtracts from a row its
components along the table; `_insert` adds the remainder as a new table
row and back-substitutes it into the old ones, so the table stays fully
reduced and one pass of `_reduce` always suffices.  `Echelon`,
`solve_many` and `determinant` are all written on these two helpers.

Which solution `solve_many` returns.  The pivot columns of a row space's
reduced echelon basis are unique: they are the leading columns of its
nonzero vectors.  Inserting the rows of [A | b] therefore finds the pivot
columns of the reduced row echelon form (RREF) of A, whatever the row
order, and for a consistent b there is exactly one solution that is zero
on the free (non-pivot) columns.  That solution, the RREF one that dense
Gauss-Jordan elimination returns, is the one given here.  A row of the
table whose pivot lies among the right-hand-side columns has a zero
A-part; the right-hand sides it touches are inconsistent.
"""
from __future__ import annotations

from fractions import Fraction

_ZERO = Fraction(0)


def _sparse(vec: list[Fraction]) -> dict[int, Fraction]:
    return {c: a for c, a in enumerate(vec) if a}


def _reduce(row: dict, table: dict) -> dict:
    """row minus row[p] * table[p] for every pivot p of the table it touches.

    The result is a new dict unless the row touches no pivot, in which case
    the row itself is returned.  The table must be fully reduced.
    """
    hits = [p for p in row if p in table]
    if not hits:
        return row
    out = dict(row)
    for p in hits:
        f = row[p]
        for c, a in table[p].items():
            v = out.get(c, _ZERO) - f * a
            if v:
                out[c] = v
            else:
                del out[c]
    return out


def _insert(table: dict, row: dict):
    """Reduce a row into the table; return (pivot, pivot value before
    normalization) if it enlarged the span, else None."""
    v = _reduce(row, table)
    if not v:
        return None
    p = min(v)
    lead = v[p]
    v = {c: a / lead for c, a in v.items()}
    single = {p: v}
    for q, r in table.items():
        if p in r:
            table[q] = _reduce(r, single)
    table[p] = v
    return p, lead


def solve(matrix: list[list[Fraction]], rhs: list[Fraction]):
    """One solution of A·x = rhs, or None if inconsistent."""
    sols = solve_many(matrix, [rhs])
    return sols[0]


def solve_many(matrix: list[list[Fraction]], rhss: list[list[Fraction]]):
    """Solve A·x = b for several right-hand sides with one elimination.

    Returns a list (one entry per rhs) of solution vectors or None; each
    solution is the RREF one, zero on the free columns.
    """
    ncols = len(matrix[0]) if matrix else 0
    table: dict[int, dict[int, Fraction]] = {}
    for i, row in enumerate(matrix):
        aug = _sparse(row)
        for t, rhs in enumerate(rhss):
            if rhs[i]:
                aug[ncols + t] = rhs[i]
        _insert(table, aug)
    inconsistent = {c for p, row in table.items() if p >= ncols for c in row}
    results = []
    for t in range(len(rhss)):
        col = ncols + t
        if col in inconsistent:
            results.append(None)
            continue
        x = [_ZERO] * ncols
        for p, row in table.items():
            if p < ncols:
                x[p] = row.get(col, _ZERO)
        results.append(x)
    return results


def determinant(matrix: list[list[Fraction]]) -> Fraction:
    """Determinant of a square matrix, from the reducer.

    Row i reduces, against the rows before it, to a remainder that is zero
    at their pivots p_1 .. p_{i-1} and before its own pivot p_i.  Taking
    the columns in the order p_1 .. p_n makes the remainders upper
    triangular, and subtracting earlier rows keeps the determinant, so it
    is the sign of i -> p_i times the product of the pivot values.
    """
    table: dict[int, dict[int, Fraction]] = {}
    pivots = []
    det = Fraction(1)
    for row in matrix:
        got = _insert(table, _sparse(row))
        if got is None:
            return _ZERO
        pivots.append(got[0])
        det *= got[1]
    inversions = sum(1 for i, p in enumerate(pivots) for q in pivots[i + 1:] if p > q)
    return -det if inversions % 2 else det


class Echelon:
    """An incrementally built reduced echelon basis of a subspace of Q^n.

    Vectors come in as dense lists of length ``ncols``; the basis is kept
    as the sparse table ``rows`` {pivot column: normalized row}.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: dict[int, dict[int, Fraction]] = {}

    def add(self, vec: list[Fraction]) -> bool:
        """Insert a vector; return True if it enlarged the span."""
        return _insert(self.rows, _sparse(vec)) is not None

    def widened(self, ncols: int) -> "Echelon":
        """The same span in Q^ncols (ncols >= self.ncols)."""
        out = Echelon(ncols)
        out.rows = dict(self.rows)
        return out

    def contains(self, vec: list[Fraction]) -> bool:
        return not _reduce(_sparse(vec), self.rows)

    @property
    def rank(self) -> int:
        return len(self.rows)
