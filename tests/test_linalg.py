"""The sparse eliminator of `linalg` against the dense code it replaced.

`dense_solve_many` and `DenseEchelon` are the former dense Gauss-Jordan
solve and the former dense incremental echelon basis, kept as references;
`dense_per_solve_preimage` and `dense_c_solve_preimage` are the former
preimage searches, which built dense columns over an explicit target basis.
The sparse preimage search of the complex C, `c_solve_preimage`, is a test
oracle only and lives in `conftest.py`.
Dense inputs are made sparse at the test boundary.  The sparse solver must
return the very same solution vectors (the RREF ones), not merely valid
ones, and the preimage searches the very same preimages.
"""
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from gwadeform import linalg
from gwadeform.complexes import c_diff
from gwadeform.core import (GwaElement, _accumulate, basis_window,
                            module_nu, module_plain)
from gwadeform.linalg import Echelon, solve_many
from gwadeform.deform import _defining_cocycle
from gwadeform.percomplex import PerCochain, per_diff, per_solve_preimage

from conftest import (
    _c_index_set,
    c_chain,
    c_solve_preimage,
    c_standard_monomial,
    full_corpus,
    random_element,
)

ZERO = Fraction(0)
ONE = Fraction(1)


def dense_solve_many(matrix, rhss):
    """Reference: dense Gauss-Jordan elimination on [A | b1 .. bk]."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    k = len(rhss)
    aug = [list(matrix[i]) + [rhs[i] for rhs in rhss] for i in range(nrows)]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = aug[r][c]
        aug[r] = [Fraction(v) / inv for v in aug[r]]
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
        x = [ZERO] * ncols
        for i, c in enumerate(pivots):
            x[c] = aug[i][col]
        results.append(x)
    return results


class DenseEchelon:
    """Reference: dense incremental reduced echelon basis."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []
        self.pivots = []

    def _reduce(self, vec):
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            if v[p] != 0:
                f = v[p]
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def add(self, vec):
        v = self._reduce(vec)
        p = next((i for i, a in enumerate(v) if a != 0), None)
        if p is None:
            return False
        inv = v[p]
        v = [a / inv for a in v]
        for i, row in enumerate(self.rows):
            if row[p] != 0:
                f = row[p]
                self.rows[i] = [a - f * b for a, b in zip(row, v)]
        idx = next((i for i, q in enumerate(self.pivots) if q > p), len(self.pivots))
        self.rows.insert(idx, v)
        self.pivots.insert(idx, p)
        return True

    def widened(self, ncols):
        out = DenseEchelon(ncols)
        pad = [ZERO] * (ncols - self.ncols)
        out.rows = [row + pad for row in self.rows]
        out.pivots = list(self.pivots)
        return out

    def contains(self, vec):
        return all(a == 0 for a in self._reduce(vec))

    @property
    def rank(self):
        return len(self.rows)


def matvec(matrix, x):
    return [sum((a * b for a, b in zip(row, x)), ZERO) for row in matrix]


def sparse(vec):
    return {c: a for c, a in enumerate(vec) if a}


def sparse_columns(matrix):
    """The columns of a dense matrix as sparse images over row indices."""
    ncols = len(matrix[0]) if matrix else 0
    return [{r: row[c] for r, row in enumerate(matrix) if row[c]}
            for c in range(ncols)]


def densify(columns, rhss):
    """The dense matrix and right-hand sides of a sparse system."""
    keys = list(dict.fromkeys(k for v in columns + rhss for k in v))
    matrix = [[col.get(k, ZERO) for col in columns] for k in keys]
    return matrix, [[b.get(k, ZERO) for k in keys] for b in rhss]


def dense_vector(terms, basis):
    """Coordinates of a term dict on an explicit key list."""
    pos = {k: n for n, k in enumerate(basis)}
    vec = [ZERO] * len(basis)
    for k, c in terms.items():
        if k not in pos:
            raise ValueError(f"monomial {k} outside the window")
        vec[pos[k]] = c
    return vec


def dense_per_solve_preimage(target, window):
    """Reference: the former per_solve_preimage, dense columns over the
    target basis at window + 2(l + 1)."""
    params, mod = target.params, target.module
    n = target.degree
    src_basis = basis_window(params, window)
    tgt_basis = basis_window(params, window + 2 * (params.l + 1))

    def to_vector(c):
        vec = []
        for comp in c.components:
            vec.extend(dense_vector(comp.terms, tgt_basis))
        return vec

    nslots = PerCochain.slots(n - 1)
    columns = []
    index = []
    for slot in range(nslots):
        for pq in src_basis:
            comps = [params.zero()] * nslots
            comps[slot] = params.monomial(*pq)
            u = PerCochain(params, mod, n - 1, tuple(comps))
            columns.append(to_vector(per_diff(u)))
            index.append((slot, pq))
    rhs = to_vector(target)
    matrix = [[col[r] for col in columns] for r in range(len(rhs))]
    sol = dense_solve_many(matrix, [rhs])[0]
    if sol is None:
        return None
    comps = [{} for _ in range(nslots)]
    for (slot, pq), coeff in zip(index, sol):
        _accumulate(comps[slot], {pq: coeff})
    return PerCochain(params, mod, n - 1,
                      tuple(GwaElement(params, t) for t in comps))


def dense_c_solve_preimage(params, i, target, window):
    """Reference: the former c_solve_preimage, dense columns over the
    standard basis of C_i at the source window + 2(l + 1)."""
    src_window = window + params.l + 1
    src_index = _c_index_set(params, i + 1, src_window)
    tgt_index = _c_index_set(params, i, src_window + 2 * (params.l + 1))

    def to_vector(slots):
        terms = {(s, q, m, j): c for s, comp in enumerate(slots)
                 for ((_, q), (m, j)), c in comp.items()}
        return dense_vector(terms, tgt_index)

    cols = [to_vector(c_diff(params, i + 1, c_standard_monomial(i + 1, *k)))
            for k in src_index]
    matrix = [[col[r] for col in cols] for r in range(len(tgt_index))]
    sol = dense_solve_many(matrix, [to_vector(target)])[0]
    if sol is None:
        return None
    slots = [{}, {}]
    for (s, q, m, j), c in zip(src_index, sol):
        if c:
            _accumulate(slots[s], {((0, q), (m, j)): c})
    return slots


# ---------------------------------------------------------------------------
# The systems the preimage solvers build over the corpus
# ---------------------------------------------------------------------------

def captured(monkeypatch, build):
    """The (columns, rhss) of every solve_many call made by build()."""
    systems = []
    real = linalg.solve_many

    def record(columns, rhss):
        systems.append((columns, rhss))
        return real(columns, rhss)

    monkeypatch.setattr(linalg, "solve_many", record)
    build()
    monkeypatch.undo()
    return systems


def per_targets(a, rng):
    """Noncoboundary-evidence target, coboundaries and random degree-2 targets."""
    yield _defining_cocycle(a), 2 * a.l + 8
    for mod in (module_plain(a), module_nu(a)):
        u = PerCochain(a, mod, 1, tuple(random_element(rng, a, 2) for _ in range(3)))
        yield per_diff(u), 4
        yield PerCochain(a, mod, 2, tuple(random_element(rng, a, 3) for _ in range(4))), 3


def c_targets(a, rng):
    for i in (1, 2, 3):
        pairs = [[(random_element(rng, a, 2, 1), random_element(rng, a, 2, 1))]
                 for _ in range(2)]
        yield i, c_diff(a, i + 1, c_chain(a, i + 1, *pairs))


def corpus_solves(a, rng):
    """The 8 preimage searches on one algebra, with their dense references."""
    for target, window in per_targets(a, rng):
        yield per_solve_preimage, dense_per_solve_preimage, (target, window)
    for i, target in c_targets(a, rng):
        yield c_solve_preimage, dense_c_solve_preimage, (a, i, target, 2)


def test_corpus_systems_match_dense(monkeypatch):
    rng = random.Random(7)
    outcomes = set()
    for a in full_corpus():
        solves = list(corpus_solves(a, rng))
        systems = captured(monkeypatch,
                           lambda: [solve(*args) for solve, _, args in solves])
        assert len(systems) == 8
        for columns, rhss in systems:
            got = solve_many(columns, rhss)
            assert got == dense_solve_many(*densify(columns, rhss))
            outcomes.update(x is None for x in got)
    # both consistent and inconsistent systems were compared
    assert outcomes == {True, False}


def test_preimages_match_dense_column_builders():
    # the column order fixes which RREF solution comes back
    rng = random.Random(7)
    count = 0
    for a in full_corpus():
        for solve, dense, args in corpus_solves(a, rng):
            assert solve(*args) == dense(*args), (a, solve.__name__)
            count += 1
    assert count == 88


# ---------------------------------------------------------------------------
# Random sparse rational systems
# ---------------------------------------------------------------------------

rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def _summand(draw, max_rows, max_cols):
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    cell = st.one_of(st.just(ZERO), st.just(ZERO), rationals)
    rows = [[draw(cell) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and draw(st.booleans()):
        # a dependent row makes inconsistent right-hand sides possible
        c = draw(rationals)
        rows[-1] = [a + c * b for a, b in zip(rows[0], rows[1])]
    return rows


@st.composite
def sparse_matrix(draw, max_rows=7, max_cols=7):
    """A dense matrix and the blocks (row indices, column indices) that a
    right-hand side may lie on.  Sometimes the matrix is the direct sum of
    two, its rows and columns shuffled; then either summand is a block, as
    is the whole matrix."""
    if draw(st.booleans()):
        rows = draw(_summand(max_rows, max_cols))
        return rows, [(range(len(rows)), range(len(rows[0])))]
    parts = [draw(_summand(max_rows // 2, max_cols // 2)) for _ in range(2)]
    nrows = sum(len(m) for m in parts)
    ncols = sum(len(m[0]) for m in parts)
    row_at = draw(st.permutations(range(nrows)))
    col_at = draw(st.permutations(range(ncols)))
    rows = [[ZERO] * ncols for _ in range(nrows)]
    blocks = [(range(nrows), range(ncols))]
    for m in parts:
        rs, row_at = row_at[:len(m)], row_at[len(m):]
        cs, col_at = col_at[:len(m[0])], col_at[len(m[0]):]
        for r, row in zip(rs, m):
            for c, a in zip(cs, row):
                rows[r][c] = a
        blocks.append((rs, cs))
    return rows, blocks


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_random_systems_match_dense(data):
    matrix, blocks = data.draw(sparse_matrix())
    nrows, ncols = len(matrix), len(matrix[0])
    rhss = []
    for _ in range(data.draw(st.integers(1, 4))):
        on_rows, on_cols = data.draw(st.sampled_from(blocks))
        if data.draw(st.booleans()):
            x0 = data.draw(st.lists(rationals, min_size=ncols, max_size=ncols))
            x0 = [a if c in on_cols else ZERO for c, a in enumerate(x0)]
            rhss.append(matvec(matrix, x0))
        else:
            b = data.draw(st.lists(rationals, min_size=nrows, max_size=nrows))
            rhss.append([a if r in on_rows else ZERO for r, a in enumerate(b)])
    got = solve_many(sparse_columns(matrix), [sparse(b) for b in rhss])
    assert got == dense_solve_many(matrix, rhss)
    for b, x in zip(rhss, got):
        if x is not None:
            assert matvec(matrix, x) == b


def test_rows_no_right_hand_side_reaches_are_not_eliminated(monkeypatch):
    # the direct sum of two blocks, disjoint in row keys and in unknowns,
    # with the right-hand side on the first block
    two, three = Fraction(2), Fraction(3)
    matrix = [[ONE, two, ZERO, ZERO],
              [three, ONE, ZERO, ZERO],
              [ZERO, ZERO, ONE, ONE],
              [ZERO, ZERO, two, three]]
    rhs = [three, two, ZERO, ZERO]
    inserted = []
    real = linalg._insert

    def record(table, row):
        inserted.append(dict(row))
        return real(table, row)

    monkeypatch.setattr(linalg, "_insert", record)
    got = solve_many(sparse_columns(matrix), [sparse(rhs)])
    monkeypatch.undo()
    assert inserted and not any(row.keys() & {2, 3} for row in inserted)
    # the unknowns of the other block get the zeros of the RREF solution
    assert got == dense_solve_many(matrix, [rhs])
    assert got == [[Fraction(1, 5), Fraction(7, 5), ZERO, ZERO]]


def test_inconsistent_and_consistent_rhs_together():
    matrix = [[ONE, ONE], [Fraction(2), Fraction(2)], [ZERO, ONE]]
    good = [Fraction(3), Fraction(6), ONE]
    bad = [ONE, ONE, ONE]
    got = solve_many(sparse_columns(matrix), [sparse(good), sparse(bad), sparse(good)])
    assert got == [[Fraction(2), ONE], None, [Fraction(2), ONE]]
    assert solve_many([], [{}]) == dense_solve_many([], [[]]) == [[]]


def test_row_keys_need_only_be_hashable():
    columns = [{"a": ONE, (0, 1): ONE}, {(0, 1): ONE, 2: ONE}]
    two = Fraction(2)
    assert solve_many(columns, [{"a": ONE, (0, 1): Fraction(3), 2: two}]) == [[ONE, two]]
    # a key no image touches is an equation without unknowns
    assert solve_many(columns, [{"a": ONE, "b": ONE}, {}]) == [None, [ZERO, ZERO]]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_echelon_matches_dense(data):
    ncols = data.draw(st.integers(1, 7))
    vec = st.lists(st.one_of(st.just(ZERO), rationals),
                   min_size=ncols, max_size=ncols)
    ech, dense = Echelon(), DenseEchelon(ncols)
    for v in data.draw(st.lists(vec, max_size=8)):
        assert ech.add(sparse(v)) == dense.add(v)
        assert ech.rank == dense.rank
    # the same fully reduced basis
    assert ech.rows == {p: sparse(row) for p, row in zip(dense.pivots, dense.rows)}
    probes = data.draw(st.lists(vec, max_size=4))
    for v in probes:
        assert ech.contains(sparse(v)) == dense.contains(v)
    wide = ncols + data.draw(st.integers(0, 3))
    ech, dense = ech.copy(), dense.widened(wide)
    assert ech.rank == dense.rank
    wvec = st.lists(st.one_of(st.just(ZERO), rationals), min_size=wide, max_size=wide)
    for v in probes:
        padded = v + [ZERO] * (wide - ncols)
        assert ech.contains(sparse(padded)) == dense.contains(padded)
    for v in data.draw(st.lists(wvec, max_size=4)):
        assert ech.add(sparse(v)) == dense.add(v)
        assert ech.rank == dense.rank
        assert ech.contains(sparse(v))


def test_copy_leaves_the_original_alone():
    ech = Echelon()
    assert ech.add({0: ONE, 1: ONE})
    copy = ech.copy()
    assert copy.add({1: ONE})
    assert (ech.rank, copy.rank) == (1, 2)
    assert not ech.contains({1: ONE})
    assert ech.rows == {0: {0: ONE, 1: ONE}}
