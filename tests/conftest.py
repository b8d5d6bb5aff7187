import random

import pytest

from gwadeform.core import GwaParams, basis_window
from gwadeform.hochschild import Cochain2
from gwadeform.scalars import Poly

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
