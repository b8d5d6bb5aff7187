"""The sparse eliminator of `linalg` against the dense code it replaced.

`dense_solve_many`, `DenseEchelon` and `dense_sylvester_determinant` are
the former dense Gauss-Jordan solve, the former dense incremental echelon
basis and the former inline Sylvester determinant, kept as references.
The sparse solver must return the very same solution vectors (the RREF
ones), not merely valid ones.
"""
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from gwadeform import linalg
from gwadeform.complexes import c_diff, c_element, c_solve_preimage
from gwadeform.core import module_nu, module_plain
from gwadeform.linalg import Echelon, determinant, solve_many
from gwadeform.percomplex import PerCochain, f_map, per_diff, per_solve_preimage
from gwadeform.scalars import Poly, sylvester_resultant

from conftest import full_corpus, random_element

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
        pad = [_ZERO] * (ncols - self.ncols)
        out.rows = [row + pad for row in self.rows]
        out.pivots = list(self.pivots)
        return out

    def contains(self, vec):
        return all(a == 0 for a in self._reduce(vec))

    @property
    def rank(self):
        return len(self.rows)


def dense_sylvester_determinant(f, g):
    """Reference: the former inline determinant of `sylvester_resultant`."""
    if f.is_zero() or g.is_zero():
        return _ZERO
    m, n = f.degree, g.degree
    if m == 0:
        return f.lead**n
    if n == 0:
        return g.lead**m
    size = m + n
    rows = []
    fc = [f[m - k] for k in range(m + 1)]
    gc = [g[n - k] for k in range(n + 1)]
    for i in range(n):
        rows.append([_ZERO] * i + fc + [_ZERO] * (size - m - 1 - i))
    for i in range(m):
        rows.append([_ZERO] * i + gc + [_ZERO] * (size - n - 1 - i))
    det = _ONE
    for col in range(size):
        piv = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if piv is None:
            return _ZERO
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = rows[col][col]
        for r in range(col + 1, size):
            if rows[r][col] == 0:
                continue
            factor = rows[r][col] / inv
            for c in range(col, size):
                rows[r][c] -= factor * rows[col][c]
    return det


def matvec(matrix, x):
    return [sum((a * b for a, b in zip(row, x)), _ZERO) for row in matrix]


# ---------------------------------------------------------------------------
# The systems the preimage solvers build over the corpus
# ---------------------------------------------------------------------------

def captured(monkeypatch, build):
    """The (matrix, rhss) of every solve_many call made by build()."""
    systems = []
    real = linalg.solve_many

    def record(matrix, rhss):
        systems.append((matrix, rhss))
        return real(matrix, rhss)

    monkeypatch.setattr(linalg, "solve_many", record)
    build()
    monkeypatch.undo()
    return systems


def per_targets(a, rng):
    """Noncoboundary-evidence target, coboundaries and random degree-2 targets."""
    seed = a.z() if a.is_quantum else a.one()
    yield f_map(seed, a, module_plain(a)), 2 * a.l + 8
    for mod in (module_plain(a), module_nu(a)):
        u = PerCochain(a, mod, 1, tuple(random_element(rng, a, 2) for _ in range(3)))
        yield per_diff(u), 4
        yield PerCochain(a, mod, 2, tuple(random_element(rng, a, 3) for _ in range(4))), 3


def c_targets(a, rng):
    for i in (1, 2, 3):
        pairs = [[(random_element(rng, a, 2, 1), random_element(rng, a, 2, 1))]
                 for _ in range(2)]
        yield i, c_diff(i + 1, c_element(a, i + 1, *pairs))


def test_corpus_systems_match_dense(monkeypatch):
    rng = random.Random(7)
    outcomes = set()
    for a in full_corpus():
        def build():
            for target, window in per_targets(a, rng):
                per_solve_preimage(target, window)
            for i, target in c_targets(a, rng):
                c_solve_preimage(i, target, 2)

        systems = captured(monkeypatch, build)
        assert len(systems) == 8
        for matrix, rhss in systems:
            got = solve_many(matrix, rhss)
            assert got == dense_solve_many(matrix, rhss)
            outcomes.update(x is None for x in got)
    # both consistent and inconsistent systems were compared
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# Random sparse rational systems
# ---------------------------------------------------------------------------

rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def sparse_matrix(draw, max_rows=7, max_cols=7):
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    cell = st.one_of(st.just(_ZERO), st.just(_ZERO), rationals)
    rows = [[draw(cell) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and draw(st.booleans()):
        # a dependent row makes inconsistent right-hand sides possible
        c = draw(rationals)
        rows[-1] = [a + c * b for a, b in zip(rows[0], rows[1])]
    return rows


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_random_systems_match_dense(data):
    matrix = data.draw(sparse_matrix())
    nrows, ncols = len(matrix), len(matrix[0])
    rhss = []
    for _ in range(data.draw(st.integers(1, 4))):
        if data.draw(st.booleans()):
            x0 = data.draw(st.lists(rationals, min_size=ncols, max_size=ncols))
            rhss.append(matvec(matrix, x0))
        else:
            rhss.append(data.draw(st.lists(rationals, min_size=nrows, max_size=nrows)))
    got = solve_many(matrix, rhss)
    assert got == dense_solve_many(matrix, rhss)
    for b, x in zip(rhss, got):
        if x is not None:
            assert matvec(matrix, x) == b


def test_inconsistent_and_consistent_rhs_together():
    matrix = [[_ONE, _ONE], [Fraction(2), Fraction(2)], [_ZERO, _ONE]]
    good = [Fraction(3), Fraction(6), _ONE]
    bad = [_ONE, _ONE, _ONE]
    assert solve_many(matrix, [good, bad, good]) == [[Fraction(2), _ONE], None,
                                                     [Fraction(2), _ONE]]
    assert solve_many([], [[]]) == dense_solve_many([], [[]]) == [[]]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_echelon_matches_dense(data):
    ncols = data.draw(st.integers(1, 7))
    vec = st.lists(st.one_of(st.just(_ZERO), rationals),
                   min_size=ncols, max_size=ncols)
    sparse, dense = Echelon(ncols), DenseEchelon(ncols)
    for v in data.draw(st.lists(vec, max_size=8)):
        assert sparse.add(v) == dense.add(v)
        assert sparse.rank == dense.rank
    probes = data.draw(st.lists(vec, max_size=4))
    for v in probes:
        assert sparse.contains(v) == dense.contains(v)
    for row in dense.rows:
        assert sparse.contains(row)
    wide = ncols + data.draw(st.integers(0, 3))
    sparse, dense = sparse.widened(wide), dense.widened(wide)
    assert sparse.ncols == wide and sparse.rank == dense.rank
    wvec = st.lists(st.one_of(st.just(_ZERO), rationals), min_size=wide, max_size=wide)
    for v in probes:
        padded = v + [_ZERO] * (wide - ncols)
        assert sparse.contains(padded) == dense.contains(padded)
    for v in data.draw(st.lists(wvec, max_size=4)):
        assert sparse.add(v) == dense.add(v)
        assert sparse.rank == dense.rank
        assert sparse.contains(v)


def test_widened_leaves_the_original_alone():
    ech = Echelon(2)
    assert ech.add([_ONE, _ONE])
    wide = ech.widened(3)
    assert wide.add([_ZERO, _ONE, _ZERO])
    assert (ech.rank, wide.rank) == (1, 2)
    assert not ech.contains([_ZERO, _ONE])
    assert ech.rows == {0: {0: _ONE, 1: _ONE}}


# ---------------------------------------------------------------------------
# Determinant and resultant
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.data())
def test_determinant_matches_permutation_expansion(data):
    n = data.draw(st.integers(1, 4))
    m = [[data.draw(st.one_of(st.just(_ZERO), rationals)) for _ in range(n)]
         for _ in range(n)]
    expected = _ZERO
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        term = Fraction(-1) ** inversions
        for i, c in enumerate(perm):
            term *= m[i][c]
        expected += term
    assert determinant(m) == expected


polys = st.lists(rationals, min_size=1, max_size=5).map(Poly)


@settings(max_examples=100, deadline=None)
@given(polys, polys)
def test_resultant_matches_dense_determinant(f, g):
    assert sylvester_resultant(f, g) == dense_sylvester_determinant(f, g)


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_resultant_matches_sympy(f, g):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.subresultants_qq_zz import sylvester

    if f.is_zero() or g.is_zero():
        return
    z = sympy.Symbol("z")
    fs, gs = (sum(sympy.Rational(c.numerator, c.denominator) * z**k
                  for k, c in enumerate(p.coeffs)) for p in (f, g))
    got = sylvester_resultant(f, g)
    # sympy's own Sylvester matrix and determinant
    assert got == Fraction(str(sylvester(fs, gs, z).det()))
    # sympy.resultant (1.14) drops the sign (-1)^(mn) when deg f < deg g:
    # resultant(z + 1, z**3) is 1 there, while g(-1) = -1.  Res(f, g) =
    # (-1)^(mn) Res(g, f), so the larger degree goes first.
    if f.degree >= g.degree:
        expected = sympy.resultant(fs, gs, z)
    else:
        expected = (-1) ** (f.degree * g.degree) * sympy.resultant(gs, fs, z)
    assert got == Fraction(str(expected))
