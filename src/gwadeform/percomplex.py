"""The periodic cochain complex computing Hochschild cohomology H*(A, M).

Coefficients are twisted bimodules M given by a BimoduleSpec.  A degree-n
cochain is a short tuple of module elements: (m) in degree 0,
(m; m1, m2) in degree 1, and (m1, m2; m3, m4) in degree n >= 2, where the
first pair sits in the odd column and the second in the even column of the
two-row grid.  The differential is assembled from the horizontal maps, the
vertical maps, and the connecting maps s below.

Also provided: the explicit degree-2 cocycle family f, its one-sided
inverse g, the constructive degree-3 contraction, and the splitting of a
degree-2 cocycle into a coboundary plus f-image.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .core import (
    BimoduleSpec,
    DirectSum,
    GwaElement,
    GwaParams,
    LEG_ID,
    LegMap,
    TensorElement,
    _accumulate,
    apply_automorphism,
    basis_window,
    multiply,
    tensor_act,
    twisted_delta,
)
from .errors import NotCocycleError
from .scalars import BezoutPair

_SIG = LegMap(1, 0)
_SIG_D = LegMap(1, 1)  # derivative, then sigma
_D = LegMap(0, 1)


@dataclass
class PerCochain(DirectSum):
    params: GwaParams
    module: BimoduleSpec
    degree: int
    components: tuple

    @staticmethod
    def slots(degree: int) -> int:
        """Number of module components of a degree-n cochain."""
        return {0: 1, 1: 3}.get(degree, 4)

    def __post_init__(self):
        if len(self.components) != self.slots(self.degree):
            raise ValueError("component count does not match the degree")

    def to_json(self) -> dict:
        names = {True: "nu", False: "id"}
        return {
            "degree": self.degree,
            "module": {"left": "id",
                       "right": names[not self.module.right_twist.is_identity()]},
            "components": [c.to_json() for c in self.components],
        }


def per_zero(params: GwaParams, module: BimoduleSpec, degree: int) -> PerCochain:
    n = PerCochain.slots(degree)
    return PerCochain(params, module, degree, tuple(params.zero() for _ in range(n)))


class _Ops:
    """The building-block maps of the two-row cochain grid."""

    def __init__(self, params: GwaParams, module: BimoduleSpec):
        self.a = params
        self.mod = module
        a = params
        self.x, self.y = a.x(), a.y()
        self.z = a.z()
        self.sz = a.from_poly(a.sigma_z(1))
        self.lam = a.lam
        self.il = 1 / a.lam
        self.delta = twisted_delta(a, LEG_ID, LEG_ID, a.phi)
        self.delta_ss = twisted_delta(a, _SIG, _SIG, a.phi)
        self.delta_sl = twisted_delta(a, _SIG, LEG_ID, a.phi)
        self.delta_sr = twisted_delta(a, LEG_ID, _SIG, a.phi)

    # a . m . 1 = f(a) m and 1 . m . a = m g(a): no product by g(1) = f(1) = 1
    def l(self, a: GwaElement, m: GwaElement) -> GwaElement:
        return multiply(apply_automorphism(self.mod.left_twist, a), m)

    def r(self, m: GwaElement, a: GwaElement) -> GwaElement:
        return multiply(m, apply_automorphism(self.mod.right_twist, a))

    def act(self, T: TensorElement, m: GwaElement) -> GwaElement:
        return tensor_act(T, self.mod, m)

    # horizontal maps, row 0
    def dh00(self, m):
        return (self.l(self.x, m) - self.r(m, self.x),
                self.l(self.y, m) - self.r(m, self.y))

    def dh_odd0(self, m1, m2):
        return (self.l(self.y, m1) + self.r(m2, self.x),
                self.r(m1, self.y) + self.l(self.x, m2))

    def dh_even0(self, m1, m2):
        return (self.l(self.x, m1) - self.r(m2, self.x),
                -self.r(m1, self.y) + self.l(self.y, m2))

    # horizontal maps, row 1
    def dh01(self, m):
        return (-self.l(self.x, m) + self.lam * self.r(m, self.x),
                -self.l(self.y, m) + self.il * self.r(m, self.y))

    def dh_odd1(self, m1, m2):
        return (-self.l(self.y, m1) - self.lam * self.r(m2, self.x),
                -self.il * self.r(m1, self.y) - self.l(self.x, m2))

    def dh_even1(self, m1, m2):
        return (-self.l(self.x, m1) + self.lam * self.r(m2, self.x),
                self.il * self.r(m1, self.y) - self.l(self.y, m2))

    # vertical maps
    def dv0(self, m):
        return self.l(self.z, m) - self.r(m, self.z)

    def dv_odd(self, m1, m2):
        return (self.l(self.sz, m1) - self.r(m1, self.z),
                self.il * self.l(self.z, m2) - self.il * self.r(m2, self.sz))

    def dv_even(self, m1, m2):
        return (self.l(self.z, m1) - self.r(m1, self.z),
                self.il * self.l(self.sz, m2) - self.il * self.r(m2, self.sz))

    # connecting maps
    def s0(self, m):
        return (-self.act(self.delta, m),
                -self.lam * self.act(self.delta_ss, m))

    def s_odd(self, m1, m2):
        return (-self.act(self.delta_sl, m1),
                -self.lam * self.act(self.delta_sr, m2))

    def s_even(self, m1, m2):
        return (-self.act(self.delta, m1),
                -self.lam * self.act(self.delta_ss, m2))


def per_diff(c: PerCochain) -> PerCochain:
    """The total differential; raises degree by one."""
    ops = _Ops(c.params, c.module)
    n = c.degree
    if n == 0:
        (m,) = c.components
        return PerCochain(c.params, c.module, 1,
                          (ops.dv0(m),) + ops.dh00(m))
    if n == 1:
        m, u, v = c.components
        row1 = ops.dh01(m)
        dv = ops.dv_odd(u, v)
        top = ops.s0(m)
        dh = ops.dh_odd0(u, v)
        return PerCochain(c.params, c.module, 2,
                          (row1[0] + dv[0], row1[1] + dv[1],
                           top[0] + dh[0], top[1] + dh[1]))
    m1, m2, m3, m4 = c.components
    # (m1, m2) sits at column n-1 of row 1; (m3, m4) at column n of row 0.
    if (n - 1) % 2 == 1:
        row1 = ops.dh_odd1(m1, m2)
        s = ops.s_odd(m1, m2)
    else:
        row1 = ops.dh_even1(m1, m2)
        s = ops.s_even(m1, m2)
    if n % 2 == 1:
        dh = ops.dh_odd0(m3, m4)
        dv = ops.dv_odd(m3, m4)
    else:
        dh = ops.dh_even0(m3, m4)
        dv = ops.dv_even(m3, m4)
    return PerCochain(c.params, c.module, n + 1,
                      (row1[0] + dv[0], row1[1] + dv[1],
                       s[0] + dh[0], s[1] + dh[1]))


def is_cocycle(c: PerCochain) -> bool:
    return per_diff(c).is_zero()


def f_map(m: GwaElement, params: GwaParams, module: BimoduleSpec) -> PerCochain:
    """The degree-2 cocycle f(m) = (lam*m*x, -y*m, 0, -lam*(sDs(phi)).m)."""
    ops = _Ops(params, module)
    return PerCochain(params, module, 2, (
        ops.lam * ops.r(m, ops.x),
        -ops.l(ops.y, m),
        params.zero(),
        -ops.lam * ops.act(ops.delta_ss, m),
    ))


def _alpha_beta(params: GwaParams, bez: BezoutPair):
    alpha = params.from_poly(bez.alpha)
    beta = params.from_poly(bez.beta)
    sbeta = params.from_poly(params.sigma_pow(bez.beta, 1))
    return alpha, beta, sbeta


def _g(ops: _Ops, c: PerCochain, alpha, beta, sbeta) -> GwaElement:
    m1, _, m3, m4 = c.components
    return (ops.il * ops.r(m1, alpha * ops.y)
            + ops.r(m3, beta) - ops.il * ops.r(m4, sbeta))


def g_map(c: PerCochain, bez: BezoutPair) -> GwaElement:
    """g(m1, m2, m3, m4) = lam^{-1} m1 alpha y + m3 beta - lam^{-1} m4 sigma(beta)."""
    if c.degree != 2 or not is_cocycle(c):
        raise NotCocycleError("g is defined on degree-2 cocycles")
    return _g(_Ops(c.params, c.module), c, *_alpha_beta(c.params, bez))


def contract3(c: PerCochain, bez: BezoutPair) -> PerCochain:
    """A degree-2 preimage of a degree-3 cocycle under the differential."""
    if c.degree != 3:
        raise ValueError("contract3 expects a degree-3 cochain")
    if not is_cocycle(c):
        raise NotCocycleError("not a degree-3 cocycle")
    params, mod = c.params, c.module
    ops = _Ops(params, mod)
    alpha, beta, sbeta = _alpha_beta(params, bez)
    dD = twisted_delta(params, LEG_ID, _D, params.phi)
    dsD = twisted_delta(params, _SIG, _SIG_D, params.phi)
    m1, m2, m3, m4 = c.components
    n1 = -ops.r(m3, beta)
    n2 = -ops.il * ops.r(m1, alpha * ops.y) - ops.il * ops.r(m4, sbeta)
    n3 = -ops.r(ops.act(dD, m1), beta)
    n4 = (-ops.r(m3, alpha * ops.y)
          - ops.lam * ops.r(ops.act(dsD, m2), sbeta))
    return PerCochain(params, mod, 2, (n1, n2, n3, n4))


def split2(c: PerCochain, bez: BezoutPair):
    """Write a degree-2 cocycle as per_diff(u) + f_map(n2); returns (u, n2)."""
    if c.degree != 2:
        raise ValueError("split2 expects a degree-2 cochain")
    if not is_cocycle(c):
        raise NotCocycleError("not a degree-2 cocycle")
    params, mod = c.params, c.module
    ops = _Ops(params, mod)
    alpha, beta, sbeta = _alpha_beta(params, bez)
    dsD_l = twisted_delta(params, _SIG, _D, params.phi)   # sigma left, D right
    d_sD = twisted_delta(params, LEG_ID, _SIG_D, params.phi)
    m1, m2, m3, m4 = c.components
    n1 = -ops.r(m3, beta)
    n3 = -ops.r(ops.act(dsD_l, m1), beta)
    n4 = (ops.r(m3, alpha * ops.y)
          - ops.lam * ops.r(ops.act(d_sD, m2), sbeta))
    n2 = _g(ops, c, alpha, beta, sbeta)
    u = PerCochain(params, mod, 1, (n1, n3, n4))
    return u, n2


# ---------------------------------------------------------------------------
# Windowed coboundary solve
# ---------------------------------------------------------------------------

def _terms(c: PerCochain) -> dict:
    return {(slot, pq): v for slot, comp in enumerate(c.components)
            for pq, v in comp.terms.items()}


def per_solve_preimage(target: PerCochain, window: int):
    """Search a degree-(n-1) cochain u with per_diff(u) = target.

    The unknowns are the coefficients of u on the window, one per slot and
    basis monomial; a target term that no column reaches leaves the system
    inconsistent.  Returns u or None (a None at a given window is one-sided
    evidence, not a proof of non-exactness).
    """
    params, mod = target.params, target.module
    n = target.degree
    if n < 1:
        raise ValueError("target degree must be >= 1")
    nslots = PerCochain.slots(n - 1)
    index = [(slot, pq) for slot in range(nslots)
             for pq in basis_window(params, window)]
    columns = []
    for slot, pq in index:
        comps = [params.zero()] * nslots
        comps[slot] = params.monomial(*pq)
        columns.append(_terms(per_diff(PerCochain(params, mod, n - 1, tuple(comps)))))
    sol = linalg.solve_many(columns, [_terms(target)])[0]
    if sol is None:
        return None
    comps = [{} for _ in range(nslots)]
    for (slot, pq), coeff in zip(index, sol):
        _accumulate(comps[slot], {pq: coeff})
    return PerCochain(params, mod, n - 1,
                      tuple(GwaElement(params, t) for t in comps))
