import random

import pytest

from gwadeform import linalg
from gwadeform.complexes import CElement, StandardTensor, c_diff, c_element
from gwadeform.core import (
    GwaParams,
    TensorElement,
    _accumulate,
    basis_window,
    multiply,
)
from gwadeform.hochschild import Cochain2
from gwadeform.scalars import Poly, div

Z = Poly.z()
ONE = Poly.one()


def quantum_corpus():
    phis = [ONE, Z, Z - ONE, Z**2 - ONE, Z * (Z - ONE) * (Z - Poly.constant(2))]
    out = [GwaParams(2, 0, phi) for phi in phis]
    out.append(GwaParams(-1, 0, Z**2 - ONE))
    return out


def classical_corpus():
    phis = [ONE, Z, Z**2, Z**3, Z * (Z - ONE)]
    return [GwaParams(1, 1, phi) for phi in phis]


def full_corpus():
    return quantum_corpus() + classical_corpus()


@pytest.fixture(params=range(11), ids=lambda i: f"alg{i}")
def corpus_algebra(request):
    return full_corpus()[request.param]


def random_element(rng: random.Random, params: GwaParams, window: int,
                   nterms: int = 3):
    """A small random element supported in the given filtration window."""
    basis = basis_window(params, window)
    el = params.zero()
    for _ in range(nterms):
        p, q = rng.choice(basis)
        el = el + params.monomial(p, q, rng.randint(-3, 3))
    return el


def reference_circle(F, G):
    """circle(F, G) as it was written on elements: F(G(u,v),w) - F(u,G(v,w))."""
    return lambda u, v, w: F(G(u, v), w) - F(u, G(v, w))


def reference_hochschild_b(F):
    """b F as it was written on elements: u F(v,w) - F(uv,w) + F(u,vw) - F(u,v) w."""
    return lambda u, v, w: (u * F(v, w) - F(u * v, w)
                            + F(u, v * w) - F(u, v) * w)


def non_cocycle(a):
    """The 2-cochain whose only nonzero basis value is F(x, y) = 1.

    Its coboundary is -x on (x, y, x), so it is no cocycle.
    """
    return Cochain2(a, lambda q, i, j: a.one() if (q, i, j) == (1, 0, -1)
                    else a.zero())


def cochain2_sum(F, G):
    """The 2-cochain F + G, summed on basis values."""
    return Cochain2(F.params,
                    lambda q, i, j: F.eval_basis(q, i, j) + G.eval_basis(q, i, j))


def act_left(t, a):
    """a . (u (x) v) = (a u) (x) v, one element product per term of t."""
    out = {}
    for (L, R), c in t.terms.items():
        prod = multiply(a, t._leg(L))
        _accumulate(out, {(pq, R): w for pq, w in prod.terms.items()}, c)
    return TensorElement(t.algebra, out)


def act_right(t, b):
    """(u (x) v) . b = u (x) (v b), one element product per term of t."""
    out = {}
    for (L, R), c in t.terms.items():
        prod = multiply(t._leg(R), b)
        _accumulate(out, {(L, pq): w for pq, w in prod.terms.items()}, c)
    return TensorElement(t.algebra, out)


def delta_nu(params, gen, q):
    """Delta^nu(x^q) = sum_s x^{q-s} (x) (lambda x)^{s-1}, likewise for y."""
    if gen not in ("x", "y"):
        raise ValueError("gen must be 'x' or 'y'")
    sign = 1 if gen == "x" else -1
    lam = params.lam if gen == "x" else div(1, params.lam)
    return TensorElement(params, {((0, sign * (q - s)), (0, sign * (s - 1))):
                                  lam ** (s - 1) for s in range(1, q + 1)})


def _c_index_set(params, degree, window):
    """Deterministic standard-basis indices (summand, q, deg z, j) in a window."""
    w = params.l + 1
    nsum = 1 if degree == 0 else 2
    out = []
    for s in range(nsum):
        for q in range(-(window // w), window // w + 1):
            for j in range(-(window // w), window // w + 1):
                rem = window - w * (abs(q) + abs(j))
                for m in range(rem + 1):
                    out.append((s, q, m, j))
    return out


def _c_terms(e):
    return {(s, q, m, j): c for s, comp in enumerate(e.components)
            for (q, j), b in comp.terms.items()
            for m, c in enumerate(b.coeffs) if c}


def c_solve_preimage(i, target, window):
    """Find e in C_{i+1} with d_{i+1}(e) = target by an exact windowed solve.

    The unknowns are the standard monomials of C_{i+1} in the window plus
    l + 1.  Returns None when the truncated system is inconsistent.
    """
    params = target.algebra
    if i >= 1 and not c_diff(i, target).is_zero():
        raise ValueError("target is not a cycle")
    src_index = _c_index_set(params, i + 1, window + params.l + 1)
    zero = c_element(params, i + 1, [], []).components
    columns = []
    for (s, q, m, j) in src_index:
        comps = list(zero)
        comps[s] = StandardTensor(params, {(q, j): Poly.monomial(m)})
        columns.append(_c_terms(c_diff(i + 1, CElement(i + 1, tuple(comps)))))
    sol = linalg.solve_many(columns, [_c_terms(target)])[0]
    if sol is None:
        return None
    comps = [{} for _ in zero]
    for (s, q, m, j), c in zip(src_index, sol):
        if c:
            _accumulate(comps[s], {(q, j): Poly.monomial(m, c)})
    return CElement(i + 1, tuple(StandardTensor(params, t) for t in comps))
