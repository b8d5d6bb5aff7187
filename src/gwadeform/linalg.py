"""Exact rational linear algebra: one sparse row reducer for solves and
incremental spans.

Everything comes in sparse.  A sparse vector is a dict {key: scalar},
the scalar an int, else a `scalars.Q`, that never stores a zero
(a term dict of the package, flattened by its caller); rows are
normalized through `scalars.div`, so an integral quotient stays an int.
Elimination works on rows of that form: a reduced table
{pivot key: row} holds rows that are normalized (1 at their pivot, the
smallest key they touch) and zero at every other row's pivot.  `_reduce`
subtracts from a row its components along the table; `_insert` adds the
remainder as a new table row and back-substitutes it into the old ones, so
the table stays fully reduced and one pass of `_reduce` always suffices.
`Echelon` and `solve_many` are both written on these two helpers.

Key order.  The keys of `Echelon` vectors become pivots, so they must be
mutually comparable; their order fixes the basis in `Echelon.rows`.
`solve_many` numbers its unknowns by their position in the list of
images, and that order fixes the solution; its row keys need only be
hashable, since the row order changes nothing.

Which solution `solve_many` returns.  The pivot columns of a row space's
reduced echelon basis are unique: they are the leading columns of its
nonzero vectors.  Inserting the rows of [A | b] therefore finds the pivot
columns of the reduced row echelon form (RREF) of A, whatever the row
order, and for a consistent b there is exactly one solution that is zero
on the free (non-pivot) columns.  That solution, the RREF one that dense
Gauss-Jordan elimination returns, is the one given here.  A row of the
table whose pivot lies among the right-hand-side columns has a zero
A-part; the right-hand sides it touches are inconsistent.  So is a
right-hand side with a key that no image touches: its row has no
unknowns.

Which rows `solve_many` eliminates.  Only the rows joined to a right-hand
side: those a right-hand side touches, the rows that share an unknown with
one of them, and so on.  The rest form blocks that share no unknown with
them and hold no right-hand-side entry, so those blocks are consistent and
their unknowns get zeros in the RREF solution; leaving them out changes
nothing.  The inserted rows go in fewest nonzeros first (ties in the order
the rows were first seen).  Since the RREF does not depend on the row
order, this order changes no solution; it only cuts the fill, and with it
the size of the intermediate fractions.
"""
from __future__ import annotations

from .scalars import div


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
            v = out.get(c, 0) - f * a
            if v:
                out[c] = v
            else:
                del out[c]
    return out


def _insert(table: dict, row: dict) -> bool:
    """Reduce a row into the table; return True if it enlarged the span."""
    v = _reduce(row, table)
    if not v:
        return False
    p = min(v)
    lead = v[p]
    v = {c: div(a, lead) for c, a in v.items()}
    single = {p: v}
    for q, r in table.items():
        if p in r:
            table[q] = _reduce(r, single)
    table[p] = v
    return True


def solve_many(columns: list[dict], rhss: list[dict]):
    """Solve A·x = b for several right-hand sides with one elimination.

    ``columns[c]`` is the sparse image of unknown c (column c of A) and
    each right-hand side is a sparse vector over the same row keys.
    Returns a list (one entry per rhs) of solution lists of length
    ``len(columns)`` or None; each solution is the RREF one, zero on the
    free columns.
    """
    ncols = len(columns)
    images = columns + rhss
    rows: dict = {}
    for c, image in enumerate(images):
        for key, a in image.items():
            rows.setdefault(key, {})[c] = a
    # the rows joined to a right-hand side through shared unknowns
    reached: set = set()
    todo = list(range(ncols, len(images)))
    seen = set(todo)
    while todo:
        for key in images[todo.pop()].keys() - reached:
            reached.add(key)
            new = rows[key].keys() - seen
            seen |= new
            todo += new
    table: dict[int, dict] = {}
    for row in sorted((row for key, row in rows.items() if key in reached),
                      key=len):
        _insert(table, row)
    inconsistent = {c for p, row in table.items() if p >= ncols for c in row}
    results = []
    for t in range(len(rhss)):
        col = ncols + t
        if col in inconsistent:
            results.append(None)
            continue
        x = [0] * ncols
        for p, row in table.items():
            if p < ncols:
                x[p] = row.get(col, 0)
        results.append(x)
    return results


class Echelon:
    """An incrementally built reduced echelon basis of a span of sparse
    vectors, kept as the table ``rows`` {pivot key: normalized row}."""

    def __init__(self):
        self.rows: dict = {}

    def add(self, vec: dict) -> bool:
        """Insert a vector; return True if it enlarged the span."""
        return _insert(self.rows, vec)

    def copy(self) -> "Echelon":
        """An independent copy: table rows are replaced, never mutated, so
        the two may share them."""
        out = Echelon()
        out.rows = dict(self.rows)
        return out

    def contains(self, vec: dict) -> bool:
        return not _reduce(vec, self.rows)

    @property
    def rank(self) -> int:
        return len(self.rows)
