"""Two resolutions of the algebra by bimodules, with identity checks.

* The periodic chain complex C with C_0 = A (x)_B A, odd degrees
  (A^s (x)_B A) + (A (x)_B ^s A), even positive degrees two untwisted
  copies.  Elements are kept in the standard form sum x_i (x) b_{ij} x_j.
* The bigraded family P (two rows q = 0, 1) with maps d^v, d^h, r
  satisfying the homotopy-double-complex identities, and its total complex
  T.  Each map extends one table of generator images; ``tot_images``
  gathers them into d on T, and the cochain differential of Hom(T, M) in
  ``percomplex`` is read from the same table.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import (
    DirectSum,
    GwaElement,
    GwaParams,
    LEG_ID,
    LegMap,
    LinComb,
    TensorElement,
    _MINUS_ONE,
    _accumulate,
    _delta_terms,
    multiply,
    tensor_from_pair,
)
from .scalars import Poly, div


# ---------------------------------------------------------------------------
# The complex C
# ---------------------------------------------------------------------------

def _push_for(degree: int, summand: int) -> int:
    """sigma-power moved across the balanced tensor when standardizing.

    In A (x)_B A a middle b passes unchanged; in A^s (x)_B A (left leg,
    odd degrees, summand 0) it passes as sigma^{-1}(b); in A (x)_B ^s A
    (summand 1) as sigma(b).
    """
    if degree == 0 or degree % 2 == 0:
        return 0
    return -1 if summand == 0 else 1


class StandardTensor(LinComb):
    """sum over (i, j) of x_i (x) b_{ij}(z) x_j with b_{ij} nonzero."""

    __slots__ = ()

    def __repr__(self):
        bits = [f"x_{i}(x){b!r}x_{j}" for (i, j), b in sorted(self.terms.items())]
        return "Std(" + (" + ".join(bits) or "0") + ")"


def standardize(params: GwaParams, u: GwaElement, v: GwaElement,
                push: int) -> StandardTensor:
    """Standard form of u (x) v over the B-balanced tensor with twist push."""
    out: dict = {}
    for (p, q), c in u.terms.items():
        # z^p x_q = x_q * sigma^{-q}(z^p); the middle factor crosses as
        # sigma^{push} of itself.
        b = params.sigma_pow(Poly.monomial(p, c), -q + push)
        w = multiply(params.from_poly(b), v)
        # several (m, j) land on the same key (q, j): add them one by one
        for (m, j), cw in w.terms.items():
            _accumulate(out, {(q, j): Poly.monomial(m, cw)})
    return StandardTensor(params, out)


@dataclass
class CElement(DirectSum):
    degree: int
    components: tuple  # one StandardTensor (degree 0) or a pair

    def __post_init__(self):
        want = 1 if self.degree == 0 else 2
        if len(self.components) != want:
            raise ValueError("component count does not match the degree")

    @property
    def algebra(self) -> GwaParams:
        return self.components[0].algebra


def c_element(params: GwaParams, degree: int, *summands) -> CElement:
    """Build a CElement from lists of (u, v) GwaElement pairs per summand."""
    comps = []
    for s, pairs in enumerate(summands):
        acc: dict = {}
        for u, v in pairs:
            _accumulate(acc, standardize(params, u, v, _push_for(degree, s)).terms)
        comps.append(StandardTensor(params, acc))
    return CElement(degree, tuple(comps))


def _c_generator_images(params: GwaParams, i: int):
    """d_i on the two generators, as pairs-of-(u, v)-lists per target summand."""
    one, x, y = params.one(), params.x(), params.y()
    if i == 1:
        return ([[(x, one), (-1 * one, x)]],
                [[(y, one), (-1 * one, y)]])
    if i % 2 == 0:
        return ([[(y, one)], [(one, x)]],
                [[(one, y)], [(x, one)]])
    return ([[(x, one)], [(-1 * one, x)]],
            [[(-1 * one, y)], [(y, one)]])


def c_diff(i: int, e: CElement) -> CElement:
    """The differential d_i : C_i -> C_{i-1}, extended bimodule-linearly."""
    if i < 1 or e.degree != i:
        raise ValueError("degree mismatch")
    params = e.algebra
    gens = _c_generator_images(params, i)
    out = [{} for _ in range(1 if i == 1 else 2)]
    for s, comp in enumerate(e.components):
        for (q, j), b in comp.terms.items():
            left = params.monomial(0, q)
            right = multiply(params.from_poly(b), params.monomial(0, j))
            for t, pairs in enumerate(gens[s]):
                for u, v in pairs:
                    _accumulate(out[t], standardize(params, multiply(left, u),
                                                    multiply(v, right),
                                                    _push_for(i - 1, t)).terms)
    return CElement(i - 1, tuple(StandardTensor(params, t) for t in out))


# ---------------------------------------------------------------------------
# The bigraded family P and its total complex
# ---------------------------------------------------------------------------

@dataclass
class PElement(DirectSum):
    p: int
    q: int  # row: 0 or 1
    components: tuple  # TensorElements; length 1 for p = 0, else 2

    def __post_init__(self):
        want = 1 if self.p == 0 else 2
        if self.q not in (0, 1) or len(self.components) != want:
            raise ValueError("bad P position or component count")

    @property
    def algebra(self) -> GwaParams:
        return self.components[0].algebra


def p_zero(params: GwaParams, p: int, q: int) -> PElement:
    n = 1 if p == 0 else 2
    return PElement(p, q, tuple(TensorElement(params, {}) for _ in range(n)))


def p_generators(params: GwaParams, p: int, q: int):
    """The standard generators (1 (x) 1 in one slot) of P_{pq}."""
    n = 1 if p == 0 else 2
    gens = []
    for s in range(n):
        comps = [TensorElement(params, {}) for _ in range(n)]
        comps[s] = tensor_from_pair(params.one(), params.one())
        gens.append(PElement(p, q, tuple(comps)))
    return gens


def _linear_extend(params: GwaParams, components, gen_images) -> list:
    """Extend generator images (list per source slot) bimodule-linearly.

    Components, images and the returned slots are term dicts {(L, R): c}
    of A (x) A.  A term c L (x) R of slot s sends each term u (x) v of an
    image in gen_images[s] to c (L u) (x) (v R), on basis products.
    """
    mono = params._mono_mul
    out = [{} for _ in gen_images[0]]
    for s, comp in enumerate(components):
        for (L, R), c in comp.items():
            for t, img in enumerate(gen_images[s]):
                for (u, v), w in img.items():
                    right = mono(*v, *R)
                    for pq, cl in mono(*L, *u).items():
                        terms = {(pq, pr): cr for pr, cr in right.items()}
                        _accumulate(out[t], terms, c * w * cl)
    return out


def _extended(e: PElement, p: int, q: int, gen_images) -> PElement:
    """The element of P_{p,q} that e is sent to by extending gen_images."""
    a = e.algebra
    out = _linear_extend(a, [c.terms for c in e.components], gen_images)
    return PElement(p, q, tuple(TensorElement(a, t) for t in out))


# Generator tables: a row per source generator, a term dict per target slot
_1, _X, _Y = (0, 0), (0, 1), (0, -1)


def _dv_gens(a: GwaParams, p: int) -> list:
    """d^v on the generators of P_{p,1}, per slot of P_{p,0}."""

    def dv(j):  # sigma^j(z) (x) 1 - 1 (x) z
        terms = {((e, 0), _1): c
                 for e, c in enumerate(a.sigma_z(j).coeffs) if c}
        terms[(_1, (1, 0))] = _MINUS_ONE
        return terms

    if p == 0:
        return [[dv(0)]]
    j = p % 2  # odd columns twist by sigma and sigma^{-1}
    return [[dv(j), {}], [{}, dv(-j)]]


def _dh_gens(a: GwaParams, p: int, q: int) -> list:
    """d^h on the generators of P_{p,q}, per slot of P_{p-1,q}."""
    # q = 1: negated, with nu (x -> lam x, y -> y / lam) on the right leg;
    # cx and cy are the coefficients of 1 (x) x and 1 (x) y where they occur
    sign, cx, cy = (-1, -a.lam, -div(1, a.lam)) if q == 1 else (1, 1, 1)
    if p == 1:
        return [[{(_X, _1): sign, (_1, _X): -cx}],
                [{(_Y, _1): sign, (_1, _Y): -cy}]]
    if p % 2 == 0:
        return [[{(_Y, _1): sign}, {(_1, _X): cx}],
                [{(_1, _Y): cy}, {(_X, _1): sign}]]
    return [[{(_X, _1): sign}, {(_1, _X): -cx}],
            [{(_1, _Y): -cy}, {(_Y, _1): sign}]]


def _delta_phi(a: GwaParams, f: LegMap, g: LegMap, c) -> dict:
    """c (f (x) g) Delta_0(phi) as a term dict."""
    return _accumulate({}, _delta_terms(a, f, g, a.phi), c)


def _r_gens(a: GwaParams, p: int) -> list:
    """r on the generators of P_{p,0}, per slot of P_{p-2,1} (p >= 2)."""
    sig = LegMap(1, 0)
    if p % 2 == 1:
        return [[_delta_phi(a, sig, LEG_ID, _MINUS_ONE), {}],
                [{}, _delta_phi(a, LEG_ID, sig, -a.lam)]]
    d = _delta_phi(a, LEG_ID, LEG_ID, _MINUS_ONE)
    ds_s = _delta_phi(a, sig, sig, -a.lam)
    return [[d], [ds_s]] if p == 2 else [[d, {}], [{}, ds_s]]


def p_dv(p: int, e: PElement) -> PElement:
    """Vertical map P_{p,1} -> P_{p,0}."""
    if e.q != 1 or e.p != p:
        raise ValueError("shape mismatch")
    return _extended(e, p, 0, _dv_gens(e.algebra, p))


def p_dh(p: int, q: int, e: PElement) -> PElement:
    """Horizontal map P_{p,q} -> P_{p-1,q}."""
    if p < 1 or (e.p, e.q) != (p, q):
        raise ValueError("shape mismatch")
    return _extended(e, p - 1, q, _dh_gens(e.algebra, p, q))


def p_r(p: int, e: PElement) -> PElement:
    """Homotopy-like map P_{p,0} -> P_{p-2,1} for p >= 2."""
    if p < 2 or (e.p, e.q) != (p, 0):
        raise ValueError("shape mismatch")
    return _extended(e, p - 2, 1, _r_gens(e.algebra, p))


def verify_hdc(params: GwaParams, max_p: int) -> list[dict]:
    """Check the homotopy-double-complex identities on all generators."""
    report = []

    def record(identity, p, q, idx, residual: PElement):
        report.append({"identity": identity, "position": (p, q),
                       "generator": idx, "pass": residual.is_zero()})

    for p in range(max_p + 1):
        # (d^v)^2 = 0 and r^2 = 0 are vacuous with two rows; recorded as such.
        report.append({"identity": "dv.dv", "position": (p, 0),
                       "generator": None, "pass": True, "vacuous": True})
        report.append({"identity": "r.r", "position": (p, 0),
                       "generator": None, "pass": True, "vacuous": True})
        if p >= 1:
            for idx, g in enumerate(p_generators(params, p, 1)):
                res = p_dh(p, 0, p_dv(p, g)) + p_dv(p - 1, p_dh(p, 1, g))
                record("dh.dv+dv.dh", p, 1, idx, res)
        if p >= 2:
            for idx, g in enumerate(p_generators(params, p, 0)):
                res = p_dh(p - 1, 0, p_dh(p, 0, g)) + p_dv(p - 2, p_r(p, g))
                record("dh.dh+dv.r", p, 0, idx, res)
            for idx, g in enumerate(p_generators(params, p, 1)):
                res = p_dh(p - 1, 1, p_dh(p, 1, g)) + p_r(p, p_dv(p, g))
                record("dh.dh+r.dv", p, 1, idx, res)
        if p >= 3:
            for idx, g in enumerate(p_generators(params, p, 0)):
                res = p_dh(p - 2, 1, p_r(p, g)) + p_r(p - 1, p_dh(p, 0, g))
                record("dh.r+r.dh", p, 0, idx, res)
    return report


@dataclass
class TotElement(DirectSum):
    """Total-complex element: T_0 = P_00, T_n = P_{n-1,1} + P_{n,0}."""

    degree: int
    parts: tuple  # (PElement,) or (PElement q=1, PElement q=0)

    @property
    def algebra(self):
        return self.parts[0].algebra


def tot_generators(params: GwaParams, n: int) -> list[TotElement]:
    out = []
    if n == 0:
        return [TotElement(0, (g,)) for g in p_generators(params, 0, 0)]
    for g in p_generators(params, n - 1, 1):
        out.append(TotElement(n, (g, p_zero(params, n, 0))))
    for g in p_generators(params, n, 0):
        out.append(TotElement(n, (p_zero(params, n - 1, 1), g)))
    return out


def tot_images(params: GwaParams, n: int) -> list[list[dict]]:
    """d of each generator of T_n, written on the generators of T_{n-1}.

    Row t is d(generator t of T_n) and its entry s the A (x) A coefficient
    of generator s of T_{n-1}, as a term dict {(L, R): c}; generators are
    ordered as in ``tot_generators`` (P_{k-1,1} first, then P_{k,0}).
    This table is the only definition of the total differential:
    ``tot_diff`` extends it bimodule-linearly and the cochain differential
    of ``percomplex`` is its dual.
    """
    if n < 1:
        raise ValueError(f"T_n has a differential only for n >= 1, got {n}")
    dv, dh0 = _dv_gens(params, n - 1), _dh_gens(params, n, 0)
    if n == 1:  # T_0 = P_00
        return dv + dh0
    return ([h + v for h, v in zip(_dh_gens(params, n - 1, 1), dv)]
            + [r + h for r, h in zip(_r_gens(params, n), dh0)])


def tot_diff(n: int, e: TotElement) -> TotElement:
    """d = d^v + d^h + r, the linear extension of ``tot_images``."""
    if n < 1 or e.degree != n:
        raise ValueError("degree mismatch")
    params = e.algebra
    comps = [c.terms for part in e.parts for c in part.components]
    out = tuple(TensorElement(params, t)
                for t in _linear_extend(params, comps, tot_images(params, n)))
    if n == 1:
        return TotElement(0, (PElement(0, 0, out),))
    k = 1 if n == 2 else 2  # generators of P_{n-2,1}
    return TotElement(n - 1, (PElement(n - 2, 1, out[:k]),
                              PElement(n - 1, 0, out[k:])))
