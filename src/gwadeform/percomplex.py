"""The periodic cochain complex computing Hochschild cohomology H*(A, M).

Coefficients are twisted bimodules M given by a BimoduleSpec.  A degree-n
cochain is a map in Hom_{A^e}(T_n, M), kept as its values on the
generators of the total complex T of ``complexes``, in the order of
``complexes.tot_images``: (m) in degree 0, (m; m1, m2) in degree 1 and
(m1, m2; m3, m4) in degree n >= 2, where the part before the semicolon
is the value on the generators of P_{n-1,1} (row q = 1) and the rest on
those of P_{n,0} (row q = 0).  The differential is c -> c o d, read from
``complexes.tot_images``: the same table of generator images that is d
on T.

Also provided: the explicit degree-2 cocycle family f, its one-sided
inverse g, the constructive degree-3 contraction, and the splitting of a
degree-2 cocycle into a coboundary plus f-image.  Each is a table like
``tot_images``, a row of A (x) A term dicts per output slot, read by ``_pair``.
"""
from __future__ import annotations

from . import linalg
from .complexes import _1, _X, _Y, _delta_phi, _linear_extend, tot_images
from .core import (
    BimoduleSpec,
    DirectSum,
    GwaElement,
    GwaParams,
    LEG_ID,
    LegMap,
    _accumulate,
    basis_window,
    tensor_act,
)
from .errors import NotCocycleError
from .scalars import BezoutPair, Poly, div

_SIG = LegMap(1, 0)
_SIG_D = LegMap(1, 1)  # derivative, then sigma
_D = LegMap(0, 1)


class PerCochain(DirectSum):
    """A degree-n cochain with values in the bimodule ``module``."""

    __slots__ = ("params", "module", "degree", "components")

    def __init__(self, params: GwaParams, module: BimoduleSpec, degree: int,
                 components: tuple):
        if degree < 0:
            raise ValueError(f"cochain degree must be >= 0, got {degree}")
        if len(components) != self.slots(degree):
            raise ValueError("component count does not match the degree")
        DirectSum.__init__(self, params, module, degree, components)

    @staticmethod
    def slots(degree: int) -> int:
        """Number of module components of a degree-n cochain."""
        return {0: 1, 1: 3}.get(degree, 4)

    def to_json(self, elements: bool = False) -> dict:
        """The cochain as JSON; only the modules A and A^nu have a name.
        With ``elements`` the components stay GwaElements, for
        ``cli.json_text`` to write from their term dicts."""
        f, g = self.module.left_twist, self.module.right_twist
        # g is nu when it fixes z and scales x by lambda (then y by 1/lambda)
        right = ("id" if g.is_identity() else "nu" if g.z_image == Poly.z()
                 and g.x_scale == self.params.lam else None)
        if right is None or not f.is_identity():
            raise ValueError(f"no JSON name for the module {self.module!r}")
        return {"degree": self.degree, "module": {"left": "id", "right": right},
                "components": self.components if elements else
                [c.to_json() for c in self.components]}


def _pair(images, module: BimoduleSpec, comps) -> tuple:
    """(c o d)_t = sum_s images[t][s] . c_s for the cochain with components comps."""
    params = comps[0].algebra
    out = []
    for row in images:
        acc: dict = {}
        for T, m in zip(row, comps):
            if m and T:
                tensor_act(T, module, m, acc)
        out.append(GwaElement._of(params, acc))
    return tuple(out)


def per_diff(c: PerCochain) -> PerCochain:
    """The total differential c -> c o d; raises degree by one."""
    images = tot_images(c.params, c.degree + 1)
    return PerCochain(c.params, c.module, c.degree + 1,
                      _pair(images, c.module, c.components))


def is_cocycle(c: PerCochain) -> bool:
    return per_diff(c).is_zero()


def _then(params: GwaParams, T: dict, H: dict) -> dict:
    """T o h for H = 1 (x) h: each right leg R becomes R h.

    (T o h) . m = (T . m) g(h), since g is an algebra map.
    """
    return _linear_extend(params, [H], [[T]])[0]


def _f_table(params: GwaParams) -> list:
    """f as a one-column table: m -> (lam m x, -y m, 0, -lam (sDs(phi)) . m)."""
    lam = params.lam
    return [[{(_1, _X): lam}], [{(_Y, _1): -1}], [{}],
            [_delta_phi(params, _SIG, _SIG, -lam)]]


def f_map(m: GwaElement, params: GwaParams, module: BimoduleSpec) -> PerCochain:
    """The degree-2 cocycle f(m) = (lam*m*x, -y*m, 0, -lam*(sDs(phi)).m)."""
    return PerCochain(params, module, 2, _pair(_f_table(params), module, (m,)))


def _right_legs(params: GwaParams, bez: BezoutPair) -> tuple:
    """m -> m g(h) as the tensor 1 (x) h, for h = alpha y, beta and sigma(beta)."""
    return tuple({(_1, (p, q)): c for p, c in enumerate(h.coeffs) if c}
                 for h, q in ((bez.alpha, -1), (bez.beta, 0),
                              (params.sigma_pow(bez.beta, 1), 0)))


def _g_row(params: GwaParams, ay, beta, sbeta) -> list:
    il = div(1, params.lam)
    return [_accumulate({}, ay, il), {}, beta, _accumulate({}, sbeta, -il)]


def g_map(c: PerCochain, bez: BezoutPair) -> GwaElement:
    """g(m1, m2, m3, m4) = lam^{-1} m1 alpha y + m3 beta - lam^{-1} m4 sigma(beta)."""
    if c.degree != 2 or not is_cocycle(c):
        raise NotCocycleError("g is defined on degree-2 cocycles")
    g_row = _g_row(c.params, *_right_legs(c.params, bez))
    return _pair([g_row], c.module, c.components)[0]


def _h_table(params: GwaParams, bez: BezoutPair) -> list:
    """The homotopy h : T_2 -> T_3 that ``contract3`` pairs with, one row per
    generator of T_2; d_3 h d_3 = d_3 on T_3 when phi is squarefree."""
    ay, beta, sbeta = _right_legs(params, bez)
    il = div(1, params.lam)
    dD = _delta_phi(params, LEG_ID, _D, -1)
    dsD = _delta_phi(params, _SIG, _SIG_D, -params.lam)
    return [[{}, {}, _accumulate({}, beta, -1), {}],
            [_accumulate({}, ay, -il), {}, {}, _accumulate({}, sbeta, -il)],
            [_then(params, dD, beta), {}, {}, {}],
            [{}, _then(params, dsD, sbeta), _accumulate({}, ay, -1), {}]]


def contract3(c: PerCochain, bez: BezoutPair) -> PerCochain:
    """A degree-2 preimage of a degree-3 cocycle under the differential."""
    if c.degree != 3:
        raise ValueError("contract3 expects a degree-3 cochain")
    if not is_cocycle(c):
        raise NotCocycleError("not a degree-3 cocycle")
    return PerCochain(c.params, c.module, 2,
                      _pair(_h_table(c.params, bez), c.module, c.components))


def _split2_table(params: GwaParams, bez: BezoutPair) -> list:
    """The table ``split2`` pairs with: rows k : T_1 -> T_2, one per
    generator of T_1, then the row of g : T_0 -> T_2."""
    ay, beta, sbeta = _right_legs(params, bez)
    dsD_l = _delta_phi(params, _SIG, _D, -1)   # sigma left, D right
    d_sD = _delta_phi(params, LEG_ID, _SIG_D, -params.lam)
    return [[{}, {}, _accumulate({}, beta, -1), {}],
            [_then(params, dsD_l, beta), {}, {}, {}],
            [{}, _then(params, d_sD, sbeta), ay, {}],
            _g_row(params, ay, beta, sbeta)]


def split2(c: PerCochain, bez: BezoutPair):
    """Write a degree-2 cocycle as per_diff(u) + f_map(n2); returns (u, n2)."""
    if c.degree != 2:
        raise ValueError("split2 expects a degree-2 cochain")
    if not is_cocycle(c):
        raise NotCocycleError("not a degree-2 cocycle")
    n1, n3, n4, n2 = _pair(_split2_table(c.params, bez), c.module, c.components)
    return PerCochain(c.params, c.module, 1, (n1, n3, n4)), n2


# ---------------------------------------------------------------------------
# Windowed coboundary solve
# ---------------------------------------------------------------------------

def _terms(components) -> dict:
    return {(slot, pq): v for slot, comp in enumerate(components)
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
    images = tot_images(params, n)  # raises for a target of degree 0
    nslots = PerCochain.slots(n - 1)
    index = [(slot, pq) for slot in range(nslots)
             for pq in basis_window(params, window)]
    columns = []
    for slot, pq in index:
        comps = [params.zero()] * nslots
        comps[slot] = params.monomial(*pq)
        columns.append(_terms(_pair(images, mod, comps)))
    sol = linalg.solve_many(columns, [_terms(target.components)])[0]
    if sol is None:
        return None
    comps = [{} for _ in range(nslots)]
    for (slot, pq), coeff in zip(index, sol):
        _accumulate(comps[slot], {pq: coeff})
    return PerCochain(params, mod, n - 1,
                      tuple(GwaElement._of(params, t) for t in comps))
