"""Two resolutions of the algebra by bimodules, with identity checks.

* The bigraded family P (two rows q = 0, 1) with maps d^v, d^h, r, and
  its total complex T.  Each map is its table of generator images (a row
  per source generator, an A (x) A term dict per target slot), and
  ``_linear_extend`` applies a table bimodule-linearly.  ``verify_hdc``
  checks the homotopy-double-complex identities on composed tables;
  ``tot_images`` gathers the tables into d on T, and the cochain
  differential of Hom(T, M) in ``percomplex`` is read from that table.
* The periodic chain complex C with C_0 = A (x)_B A, odd degrees
  (A^s (x)_B A) + (A (x)_B ^s A), even positive degrees two untwisted
  copies.  A chain of C_i is, like a chain of T, one A (x) A term dict
  per slot (one slot for C_0, two above).  ``c_diff`` is d^h's table on
  row q = 0 of P, read in the balanced tensor: ``_linear_extend`` applies
  it, and ``_standardize`` brings each slot to the standard form
  sum x_q (x) z^m x_j, with keys ((0, q), (m, j)).
"""
from __future__ import annotations

from functools import partial

from .core import (
    GwaParams,
    LEG_ID,
    LegMap,
    _accumulate,
    _delta_terms,
)
from .scalars import div


# ---------------------------------------------------------------------------
# The bigraded family P and its total complex
# ---------------------------------------------------------------------------

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


# Generator tables: a row per source generator, a term dict per target slot
_1, _X, _Y = (0, 0), (0, 1), (0, -1)


def _dv_gens(a: GwaParams, p: int) -> list:
    """d^v on the generators of P_{p,1}, per slot of P_{p,0}."""

    def dv(j):  # sigma^j(z) (x) 1 - 1 (x) z
        terms = {((e, 0), _1): c
                 for e, c in enumerate(a.sigma_z(j).coeffs) if c}
        terms[(_1, (1, 0))] = -1
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
        return [[_delta_phi(a, sig, LEG_ID, -1), {}],
                [{}, _delta_phi(a, LEG_ID, sig, -a.lam)]]
    d = _delta_phi(a, LEG_ID, LEG_ID, -1)
    ds_s = _delta_phi(a, sig, sig, -a.lam)
    return [[d], [ds_s]] if p == 2 else [[d, {}], [{}, ds_s]]


def _compose(a: GwaParams, first, second) -> list:
    """The table of ``second`` after ``first``: row t extends first's row t."""
    return [_linear_extend(a, row, second) for row in first]


def verify_hdc(params: GwaParams, max_p: int) -> list[dict]:
    """Check the homotopy-double-complex identities on all generators.

    Each identity is the sum of two composed tables, each given as a pair
    (first, second); generator t passes when row t of that sum is zero.
    """
    report = []
    dv, dh, r = (partial(f, params) for f in (_dv_gens, _dh_gens, _r_gens))

    def check(identity, p, q, one, other):
        rows = zip(_compose(params, *one), _compose(params, *other))
        for idx, (u, v) in enumerate(rows):
            # composed rows are fresh dicts, so v is added into u in place
            zero = all(not _accumulate(s, t) for s, t in zip(u, v))
            report.append({"identity": identity, "position": (p, q),
                           "generator": idx, "pass": zero})

    for p in range(max_p + 1):
        # (d^v)^2 = 0 and r^2 = 0 are vacuous with two rows; recorded as such.
        report.append({"identity": "dv.dv", "position": (p, 0),
                       "generator": None, "pass": True, "vacuous": True})
        report.append({"identity": "r.r", "position": (p, 0),
                       "generator": None, "pass": True, "vacuous": True})
        if p >= 1:
            check("dh.dv+dv.dh", p, 1, (dv(p), dh(p, 0)), (dh(p, 1), dv(p - 1)))
        if p >= 2:
            check("dh.dh+dv.r", p, 0, (dh(p, 0), dh(p - 1, 0)), (r(p), dv(p - 2)))
            check("dh.dh+r.dv", p, 1, (dh(p, 1), dh(p - 1, 1)), (dv(p), r(p)))
        if p >= 3:
            check("dh.r+r.dh", p, 0, (r(p), dh(p - 2, 1)), (dh(p, 0), r(p - 1)))
    return report


def tot_images(params: GwaParams, n: int) -> list[list[dict]]:
    """d of each generator of T_n, written on the generators of T_{n-1}.

    T_0 = P_00 and T_k = P_{k-1,1} + P_{k,0}.  P_{0,q} has one generator,
    1 (x) 1, and P_{p,q} with p >= 1 has two, 1 (x) 1 in slot 0 or slot 1;
    T_k lists those of P_{k-1,1} first, then those of P_{k,0}, so T_0 has
    1 generator, T_1 has 3 and T_k has 4 for k >= 2.  Row t is
    d(generator t of T_n) and its entry s the A (x) A coefficient of
    generator s of T_{n-1}, as a term dict {(L, R): c}.  This table is the
    only definition of the total differential: ``_linear_extend`` applies
    it to any chain, and the cochain differential of ``percomplex`` is its
    dual.
    """
    if n < 1:
        raise ValueError(f"T_n has a differential only for n >= 1, got {n}")
    dv, dh0 = _dv_gens(params, n - 1), _dh_gens(params, n, 0)
    if n == 1:  # T_0 = P_00
        return dv + dh0
    return ([h + v for h, v in zip(_dh_gens(params, n - 1, 1), dv)]
            + [r + h for r, h in zip(_r_gens(params, n), dh0)])


# ---------------------------------------------------------------------------
# The complex C
# ---------------------------------------------------------------------------

def _push_for(degree: int, summand: int) -> int:
    """sigma-power moved across the balanced tensor when standardizing.

    In A (x)_B A a middle b passes unchanged; in A^s (x)_B A (left leg,
    odd degrees, summand 0) it passes as sigma^{-1}(b); in A (x)_B ^s A
    (summand 1) as sigma(b).
    """
    if degree % 2 == 0:
        return 0
    return -1 if summand == 0 else 1


def _standardize(params: GwaParams, terms: dict, push: int) -> dict:
    """Standard form of an A (x) A term dict over the B-balanced tensor.

    z^p x_q (x) v = x_q (x) sigma^{push - q}(z)^p v: z^p x_q is
    x_q sigma^{-q}(z)^p, and the middle factor crosses as sigma^{push} of
    itself.  The row sigma^{push - q}(z)^p times z^i x_j is a key shift.
    """
    out: dict = {}
    for ((p, q), (i, j)), c in terms.items():
        off, row = params._row(push - q, p, 0)
        _accumulate(out, {((0, q), (i + off + e, j)): r
                          for e, r in enumerate(row) if r}, c)
    return out


def c_diff(params: GwaParams, i: int, slots: list) -> list:
    """The differential d_i : C_i -> C_{i-1} on a chain given as one A (x) A
    term dict per slot: d^h's table on row q = 0 of P, extended
    bimodule-linearly, then each target slot brought to standard form."""
    if i < 1:
        raise ValueError(f"C_i has a differential only for i >= 1, got {i}")
    gens = _dh_gens(params, i, 0)
    if len(slots) != len(gens):
        raise ValueError(f"C_{i} has {len(gens)} slots, got {len(slots)}")
    return [_standardize(params, terms, _push_for(i - 1, t))
            for t, terms in enumerate(_linear_extend(params, slots, gens))]
