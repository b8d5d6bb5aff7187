"""Hochschild 2- and 3-cochains on the bar side, with comparison maps.

A 2-cochain F is stored as a memoized evaluator on basis pairs and is
assumed unit-normalized (F(u,1) = F(1,v) = 0) and z-left-linear with
vanishing x/y-power values (F(z u, v) = z F(u, v), F(x^q, x^j) =
F(y^q, y^j) = 0).  Under these conditions F is pinned down by its
coboundary together with the four values F(x,z), F(x,y), F(y,z), F(y,x);
`determine_F` carries out that reconstruction on term dicts, wrapping
each value once as an element that the cochain's memo shares.  A 2-cochain
is its evaluator and memo only; it keeps no record of how it was built.

The comparison map theta2 translates the periodic cochain grid into
bar-resolution cochains: it sends a basis pair to an element of the
degree-2 column pair, and its pullback turns a degree-2 periodic cochain
into a 2-cochain.  The maps back, theta'_2 and theta'_3, and the bar
coboundary b are test oracles in ``tests/conftest.py``: they check that
theta2 is a chain map, and the program never runs them.

Mirror rule.  Swapping x and y is an isomorphism A(sigma, phi) ~
A(sigma^{-1}, phi o sigma), so `theta2` and `determine_F` write one
formula for a left factor x_q and read it with s = sign(q): the
generator is g = x_s and h = x_{-s} the other one, sigma becomes
sigma^s, lambda becomes lambda^s, phi_s is phi_bar for s = 1 and phi for
s = -1 (so that g h = phi_s), and theta2 uses the slots of g: slot
(1 - s)/2 of the chain column and slot 3 (s = 1) or 2 (s = -1) of the
single tensor.

A 3-cochain holds ``into(out, u, v, w, c)``, which adds c * G(u, v, w) to
a term dict in place; ``evaluate`` builds one element at the end.
"""
from __future__ import annotations

import weakref
from functools import partial

from .core import (
    GwaElement,
    GwaParams,
    _accumulate,
    _multiply_into,
)
from .errors import UnsupportedPatternError
from .percomplex import PerCochain, _pair
from .scalars import Poly, div


class Cochain2:
    """A bilinear map A x A -> A given on basis pairs, lazily memoized."""

    def __init__(self, params: GwaParams, base_eval):
        self.params = params
        self._base = base_eval  # (q, i, j) -> GwaElement, value at (x_q, z^i x_j)
        self._memo: dict[tuple[int, int, int], GwaElement] = {}
        self._zero = params.zero()

    def eval_basis(self, q: int, i: int, j: int) -> GwaElement:
        """Value on (x_q, z^i x_j); the left z-power factors out.

        Memoized, and trivial pairs share one zero: never mutate a value.
        """
        if q == 0 or (i == 0 and (j == 0 or (j > 0) == (q > 0))):
            return self._zero
        key = (q, i, j)
        val = self._memo.get(key)
        if val is None:
            val = self._base(q, i, j)
            self._memo[key] = val
        return val

    def evaluate_into(self, out: dict, u_terms: dict, v_terms: dict,
                      c=None) -> dict:
        """out += c * F(u, v) on term dicts, in place (c = None means 1).

        Every value is read through ``eval_basis``; each is added inline as
        ``_accumulate`` would, shifted by z^p since z^p (z^e x_k) = z^{p+e} x_k.
        """
        ev, get = self.eval_basis, out.get
        for (p, q), cu in u_terms.items():
            if q == 0:
                # F(z^p, v) = z^p F(1, v) = 0 by unit normalization
                continue
            if c is not None:
                cu = c * cu
            for (i, j), cv in v_terms.items():
                terms = ev(q, i, j).terms
                if not terms:
                    continue
                w = cu * cv
                for key, v in terms.items():
                    if p:
                        key = (p + key[0], key[1])
                    v = w * v
                    old = get(key)
                    if old is not None:
                        v = old + v
                    if v:
                        out[key] = v
                    elif old is not None:
                        del out[key]
        return out

    def evaluate(self, u: GwaElement, v: GwaElement) -> GwaElement:
        return GwaElement._of(self.params,
                              self.evaluate_into({}, u.terms, v.terms))

    def __call__(self, u: GwaElement, v: GwaElement) -> GwaElement:
        return self.evaluate(u, v)


class Cochain3:
    """A trilinear map A^3 -> A, built from 2-cochains and never tabulated.

    ``into(out, u, v, w, c=None)`` adds c * G(u, v, w) to the term dict
    ``out`` (c = None means 1) and returns it.
    """

    def __init__(self, params: GwaParams, into):
        self.params = params
        self.into = into

    def evaluate(self, u: GwaElement, v: GwaElement, w: GwaElement) -> GwaElement:
        return GwaElement._of(self.params,
                              self.into({}, u.terms, v.terms, w.terms))

    __call__ = evaluate

    def __add__(self, other: "Cochain3") -> "Cochain3":
        return Cochain3(self.params, lambda out, u, v, w, c=None: other.into(
            self.into(out, u, v, w, c), u, v, w, c))


def circle(F: Cochain2, G: Cochain2) -> Cochain3:
    """F(G(u,v),w) - F(u,G(v,w))."""
    def into(out, u, v, w, c=None):
        F.evaluate_into(out, G.evaluate_into({}, u, v), w, c)
        neg = -1 if c is None else -c
        return F.evaluate_into(out, u, G.evaluate_into({}, v, w), neg)

    return Cochain3(F.params, into)


# ---------------------------------------------------------------------------
# Comparison maps between the bar resolution and the periodic grid
# ---------------------------------------------------------------------------

def theta2(params: GwaParams, left: tuple[int, int],
           right: tuple[int, int]) -> tuple:
    """Image of 1|z^p x_q|z^i x_j|1 as 4 term dicts in the degree-2 columns.

    One formula serves both generators, by the mirror rule of the module
    docstring; g against z^i h^J adds the single tensor to the chain.
    Mixed patterns x^q-vs-y or y^q-vs-x with q >= 2 are unsupported.
    """
    p, q = left
    i, j = right
    slots: list[dict] = [{} for _ in range(4)]
    if q == 0:
        return tuple(slots)
    s = 1 if q > 0 else -1
    opposite = s * j < 0
    if opposite and q != s:
        raise UnsupportedPatternError(
            f"no displayed image for x_({q}) against z^{i} x_({j})")
    lam_s = params.lam if s > 0 else div(1, params.lam)
    chain = slots[(1 - s) // 2]
    for k in range(1, i + 1):
        lz = params.sigma_pow(Poly.monomial(i - k), q).coeffs  # times z^p
        for t in range(1, s * q + 1):
            ql, qr = q - s * t, s * (t - 1) + j
            rz = params.sigma_pow(Poly.monomial(k - 1), s * (t - 1)).coeffs
            _accumulate(chain, {((p + el, ql), (er, qr)): cl * cr
                                for el, cl in enumerate(lz) if cl
                                for er, cr in enumerate(rz) if cr},
                        -(lam_s ** (t - 1)))
    if opposite:
        lz = params.sigma_pow(Poly.monomial(i), s).coeffs
        slots[(5 + s) // 2] = {((p + el, 0), (0, j + s)): cl
                               for el, cl in enumerate(lz) if cl}
    return tuple(slots)


def theta2_pullback(c: PerCochain) -> Cochain2:
    """The 2-cochain obtained by composing a degree-2 cochain with theta2."""
    if c.degree != 2:
        raise ValueError("theta2 pairs with degree-2 cochains only")
    params = c.params

    def base(q, i, j):
        return _pair([theta2(params, (0, q), (i, j))], c.module, c.components)[0]

    return Cochain2(params, base)


# ---------------------------------------------------------------------------
# Reconstruction from coboundary data
# ---------------------------------------------------------------------------

def determine_F(params: GwaParams, target_b, vxz: GwaElement, vxy: GwaElement,
                vyz: GwaElement, vyx: GwaElement) -> Cochain2:
    """The unique unit-normalized z-left-linear 2-cochain with the given
    coboundary and generator values.

    Each value is the coboundary identity on one triple, solved for its
    F(x_q, z^i x_j) term.  One recursion serves both sides by the mirror
    rule of the module docstring: s = sign(q), g = x_s, h = x_{-s} and
    sigma^s; tb is the target on the triple, and F(g, z), F(g, h) are the
    given generator values.

    * (g, z, z^{i-1}):  F(g, z^i) = tb + sigma^s(z) F(g, z^{i-1})
                                    + F(g, z) z^{i-1}
    * (g, h, h^{J-1}):  F(g, h^J) = tb + F(g, h) h^{J-1}
    * (g, z^i, x_j):    F(g, z^i x_j) = tb + sigma^s(z^i) F(g, x_j)
                                        + F(g, z^i) x_j  (i >= 1; F(g, x_j)
                                        = 0 when x_j is a power of g)
    * (g^{n-1}, g, v):  F(g^n, v) = g^{n-1} F(g, v) + F(g^{n-1}, g v) - tb

    Each value is summed in one term dict (tb added in place, products
    through ``_multiply_into``) and wrapped once.  The recursion reads
    through the returned cochain's ``eval_basis``, so its memo is the only
    one; the given values are seeded into it and are never summed into.
    """
    mul = partial(_multiply_into, params)

    def tb(out, u, v, w, c=None):
        """out += c * target_b(u, v, w) on the basis monomials u, v, w."""
        if target_b is not None:
            target_b.into(out, {u: 1}, {v: 1}, {w: 1}, c)
        return out

    def sigma_col(i, s):
        """sigma^s(z^i) as a term dict."""
        h = params.sigma_pow(Poly.monomial(i), s)
        return {(p, 0): c for p, c in enumerate(h.coeffs) if c}

    def val(q, i, j):
        """F(x_q, z^i x_j) on a nontrivial pair that the memo lacks."""
        F = ref.eval_basis
        s = 1 if q > 0 else -1
        g = (0, s)
        if q != s:  # F(g^n, z^i x_j), n >= 2
            out = mul({}, {(0, q - s): 1}, F(s, i, j).terms)
            for (a, b), c in params._mono_mul(0, s, i, j).items():  # g z^i x_j
                _accumulate(out, F(q - s, a, b).terms, c)
            tb(out, (0, q - s), g, (i, j), -1)
        elif j == 0:  # F(g, z^i), i >= 2
            out = tb({}, g, (1, 0), (i - 1, 0))
            mul(out, sigma_col(1, s), F(s, i - 1, 0).terms)
            mul(out, F(s, 1, 0).terms, {(i - 1, 0): 1})
        elif i == 0:  # F(g, h^J), J >= 2
            out = tb({}, g, (0, -s), (0, j + s))
            mul(out, F(s, 0, -s).terms, {(0, j + s): 1})
        else:  # F(g, z^i x_j), i >= 1
            out = tb({}, g, (i, 0), (0, j))
            mul(out, sigma_col(i, s), F(s, 0, j).terms)
            mul(out, F(s, i, 0).terms, {(0, j): 1})
        return GwaElement._of(params, out)

    cochain = Cochain2(params, val)
    # val reads the cochain through a proxy: a strong reference would make
    # a cycle cochain -> val -> cochain that keeps params and its caches
    # alive until the cyclic garbage collector runs
    ref = weakref.proxy(cochain)
    # F(g, z) and F(g, h) are the given elements themselves
    cochain._memo.update({(1, 1, 0): vxz, (1, 0, -1): vxy,
                          (-1, 1, 0): vyz, (-1, 0, 1): vyx})
    return cochain
