"""Truncated star products deforming the algebra along its defining cocycle.

The product u * v = uv + F_1(u,v) tau + F_2(u,v) tau^2 + ... is cut off at
a fixed order N.  F_1 is pulled back from the degree-2 cocycle (f(z) in
the quantum case, f(1) in the classical case) and each higher F_n is
reconstructed from its generator values, the tau^n coefficients of x z,
x y, y z and y x in A_tau (below), together with the stage coboundary sum
circle(F_1, F_{n-1}) + ... + circle(F_{n-1}, F_1).

One routine, ``_series_into``, computes the tau-bilinear product
sum F_m(U_a, V_b) tau^(a+b+m) of two tau-series of term dicts, F_0 the
product; ``star``, ``star_mul``, ``check_assoc`` and the basis-pair table
``StarProduct.pair_values`` are all calls of it.

The star product is the deformed GWA.  Over R = k[tau]/(tau^{N+1}) let
A_tau = k[z; lambda_tau, eta_tau, phi], with lambda_tau = lambda (1 - tau)
and eta_tau = 0 in the quantum case, lambda_tau = 1 and eta_tau = eta - tau
in the classical case; it has the R-basis z^p x_q of A.  Then
``star(build_star(params, N), u, v)`` is the product u v in A_tau, proved
by uniqueness in ``determine_F``, checked on windows.  Both products, read
as sum F_n tau^n, are unit-normalized and z-left-linear and vanish on
(x^q, x^j) for q j >= 0; they have the same generator values F_n(x, z),
F_n(x, y), F_n(y, z), F_n(y, x): for n = 1 those of ``build_f1``, which
``check_relations`` compares with A_tau's, and for n >= 2 A_tau's own,
read off by ``build_star``; and both satisfy every stage identity below
(A_tau is associative).  So F_n is determined by F_1 .. F_{n-1} for both,
and they agree stage by stage.  A_tau is the image of the formal GWA
k[z; t, 0, phi] (quantum) or k[z; 1, t, phi] (classical) over k[t, 1/t]
under t -> lambda_tau or eta_tau.  ``_deformed_mul`` multiplies there with
``core._multiply_into`` (its scalars ``scalars.Laurent``s in t), then
substitutes t: ``build_star`` and ``check_relations`` read A_tau through
it, the CLI answers ``star`` with it, and tests compare it with
``pair_values`` and ``star``.

Verification helpers re-check what the construction promises:
associativity of the truncated product, the four presentation relations
of the deformed algebra (u * v against the product u v of A_tau on the
generator pairs), the stagewise obstruction identity, and preservation of
the filtration (local finiteness), read from the basis-pair values of
``StarProduct.pair_values``.

The stage-n identity is checked as the vanishing, on basis triples, of

    sum_{i+j=n} F_i(F_j(u,v), w) - F_i(u, F_j(v,w)),   F_0 the product,

the tau^n coefficient of (u*v)*w - u*(v*w).  Its terms with i, j >= 1 are
the circle products, those with i = 0 or j = 0 make up -b F_n.  Both the
inner values F_j(u,v), F_j(v,w) and the outer values F_i(a,w), F_i(u,b) on
their basis terms a, b are read from one table of basis-pair values per
star product; since each F_n preserves the filtration, the outer pairs stay
inside the triple's window.  One sweep of the triples checks every stage:
each outer value is looked up once and feeds every stage n >= max(j, 2)
through its index n - j, and each stage stops at its own fifth failure.
``check_assoc`` is the same sum over all n <= N on whole elements: the
series product (u * v) * w less u * (v * w), the second summed into the
first in place.
"""
from __future__ import annotations

from functools import cached_property, partial

from .core import (
    DirectSum,
    GwaElement,
    GwaParams,
    _accumulate,
    _multiply_into,
    basis_triples,
    basis_window,
    module_plain,
)
from .errors import CommutativeAlgebraError, MixedCaseError
from .hochschild import (
    Cochain2,
    circle,
    determine_F,
    theta2_pullback,
)
from .percomplex import PerCochain, f_map, per_solve_preimage
from .scalars import Laurent, div

# The largest order build_star accepts; orders 12 and 16 pass deform-verify
# on quantum and classical algebras.
MAX_ORDER = 16


class TruncatedElement(DirectSum):
    """An element of A[tau]/(tau^{N+1}): one coefficient per tau-power."""

    __slots__ = ("algebra", "coefficients")

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def to_json(self) -> list:
        return [c.to_json() for c in self.coefficients]


def _from_terms(params: GwaParams, coefficients: list) -> TruncatedElement:
    return TruncatedElement(params, tuple(GwaElement._of(params, t)
                                          for t in coefficients))


def lift(params: GwaParams, u: GwaElement, order: int) -> TruncatedElement:
    return TruncatedElement(params, (u,) + (params.zero(),) * order)


class StarProduct:
    def __init__(self, params: GwaParams, order: int, cochains: list):
        self.params = params
        self.order = order
        self.cochains = cochains  # F_1 .. F_N
        self._pairs: dict = {}
        # window -> _obstruction_scan(self, window), read by check_obstruction
        self._obstructions: dict = {}

    def f_n(self, n: int) -> Cochain2:
        return self.cochains[n - 1]

    @cached_property
    def _maps(self) -> list:
        """F_0 = product, F_1, ..., F_N as maps into(out, u, v, c) on term dicts."""
        return ([partial(_multiply_into, self.params)]
                + [self.f_n(m).evaluate_into for m in range(1, self.order + 1)])

    def pair_values(self, t1: tuple, t2: tuple) -> tuple:
        """(F_0, F_1, ..., F_N) on the basis pair (t1, t2) as term dicts.

        F_0 is the product.  Memoized per star product; the dicts are
        shared and must not be mutated.
        """
        vals = self._pairs.get((t1, t2))
        if vals is None:
            vals = self._pairs[(t1, t2)] = tuple(
                _series_into(self, [{t1: 1}], [{t2: 1}]))
        return vals


def _series_into(sp: StarProduct, U: list, V: list, out: list | None = None,
                 c=None) -> list:
    """out[a + b + m] += c * F_m(U[a], V[b]) for a + b + m <= N, in place.

    U, V and out are tau-series as lists of term dicts (out defaults to N + 1
    empty ones, c = None means 1); F_0 is the product.
    """
    if out is None:
        out = [{} for _ in range(sp.order + 1)]
    maps = sp._maps
    for a, ua in enumerate(U):
        if ua:
            # k = a + b; maps[m] adds into out[k + m] while k + m <= N
            for k, vb in enumerate(V, a):
                if vb:
                    for into, acc in zip(maps, out[k:]):
                        into(acc, ua, vb, c)
    return out


def _defining_cocycle(params: GwaParams) -> PerCochain:
    """The degree-2 cocycle f(z) (quantum case) or f(1) (classical case)."""
    seed = params.z() if params.is_quantum else params.one()
    return f_map(seed, params, module_plain(params))


def build_f1(params: GwaParams) -> Cochain2:
    """First-order cochain via the cocycle -> column-pullback -> rebuild path."""
    P = theta2_pullback(_defining_cocycle(params))
    x, y, z = params.x(), params.y(), params.z()
    return determine_F(params, None, P(x, z), P(x, y), P(y, z), P(y, x))


def _require_deformable(params: GwaParams, order: int) -> None:
    """Refuse what ``build_star`` and ``_deformed_mul`` do not construct."""
    if not params.is_noncommutative:
        raise CommutativeAlgebraError("the commutative case has no "
                                      "distinguished deformation here")
    if not (params.is_quantum or params.is_classical):
        raise MixedCaseError("lambda != 1 with eta != 0 is not handled; "
                             "normalize to the quantum form first")
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be between 1 and {MAX_ORDER}")


def build_star(params: GwaParams, order: int = 4) -> StarProduct:
    _require_deformable(params, order)
    cochains = [build_f1(params)]
    # F_n on (x, z), (x, y), (y, z), (y, x): the tau^n coefficient of the
    # product in A_tau
    x, y, z = (0, 1), (0, -1), (1, 0)
    datum = [_deformed_mul(params, order, {g: 1}, {h: 1})
             for g, h in ((x, z), (x, y), (y, z), (y, x))]
    for n in range(2, order + 1):
        target = circle(cochains[0], cochains[n - 2])
        for i in range(2, n):
            target = target + circle(cochains[i - 1], cochains[n - i - 1])
        cochains.append(determine_F(params, target, *(
            GwaElement._of(params, series[n]) for series in datum)))
    return StarProduct(params, order, cochains)


def star(sp: StarProduct, u: GwaElement, v: GwaElement) -> TruncatedElement:
    """u * v up to tau^N, N the truncation order of sp."""
    return star_mul(sp, lift(sp.params, u, 0), lift(sp.params, v, 0))


def star_mul(sp: StarProduct, U: TruncatedElement,
             V: TruncatedElement) -> TruncatedElement:
    """The tau-bilinear extension of the star product to truncated elements."""
    if not U.algebra == V.algebra == sp.params:
        raise ValueError("operands belong to different algebras")
    return _from_terms(sp.params, _series_into(
        sp, [u.terms for u in U.coefficients],
        [v.terms for v in V.coefficients]))


def check_assoc(sp: StarProduct, u: GwaElement, v: GwaElement,
                w: GwaElement) -> TruncatedElement:
    """(u * v) * w - u * (v * w); zero iff the truncated product associates."""
    if not u.algebra == v.algebra == w.algebra == sp.params:
        raise ValueError("operands belong to different algebras")
    U, V, W = [u.terms], [v.terms], [w.terms]
    out = _series_into(sp, _series_into(sp, U, V), W)
    return _from_terms(sp.params, _series_into(sp, U, _series_into(sp, V, W),
                                               out, -1))


def _deformed_mul(params: GwaParams, order: int, u_terms: dict,
                  v_terms: dict) -> list:
    """u v in A_tau = k[z; lambda_tau, eta_tau, phi] over k[tau]/(tau^{N+1}).

    u and v are term dicts of A, N = order; returns the N + 1
    tau-coefficients as term dicts under the ``_accumulate`` contract: u v
    in the formal algebra (module docstring), then each t^e expanded as
    t^e = c^e (1 - tau / s)^e = sum C(e, n) c^e (-s)^(-n) tau^n, where
    t = lambda (1 - tau) (c = lambda, s = 1) or eta - tau (c = s = eta).
    It equals ``star`` on ``build_star(params, order)``.
    """
    _require_deformable(params, order)
    t = Laurent({1: 1})
    formal = GwaParams._of(*((t, 0) if params.is_quantum else (1, t)), params.phi)
    at_power = {}  # e -> the term dict of the t^e part
    for key, a in _multiply_into(formal, {}, u_terms, v_terms).items():
        for e, v in (a.terms.items() if type(a) is Laurent else ((0, a),)):
            at_power.setdefault(e, {})[key] = v
    c, s = (params.lam, 1) if params.is_quantum else (params.eta, params.eta)
    out = [{} for _ in range(order + 1)]
    for e, terms in at_power.items():  # C(e, n) = 0 once n > e >= 0
        b = c**e if e >= 0 else div(1, c**-e)
        for n in range(order + 1 if e < 0 else min(e, order) + 1):
            _accumulate(out[n], terms, None if b == 1 else b)
            b = div(b * (e - n), -(n + 1) * s)
    return out


def check_relations(sp: StarProduct) -> dict:
    """Residuals u * v - u v of the four defining relations, u v in A_tau.

    f1..f4 are the pairs (x, z), (y, z), (x, y), (y, x), with u v from
    ``_deformed_mul``; each residual is zero exactly when the star product
    satisfies the corresponding relation of A_tau's presentation.
    """
    a, N = sp.params, sp.order
    x, y, z = a.x(), a.y(), a.z()
    return {name: star(sp, u, v) - _from_terms(
                a, _deformed_mul(a, N, u.terms, v.terms))
            for name, u, v in (("f1", x, z), ("f2", y, z), ("f3", x, y),
                               ("f4", y, x))}


class _NonemptyValues(dict):
    """(t1, t2) -> [(i, F_i(t1, t2)) for the nonempty ``pair_values``].

    Filled on first lookup; most F_i vanish on a basis pair, so a sweep
    that reads only these entries skips them without testing each one.
    """

    def __init__(self, sp: StarProduct):
        super().__init__()
        self.pair_values = sp.pair_values

    def __missing__(self, key):
        vals = self[key] = [(i, v) for i, v in
                            enumerate(self.pair_values(*key)) if v]
        return vals


def obstruction_residuals(sp: StarProduct, window: int):
    """Yield (triple, residuals) once for each of ``basis_triples(params, window)``.

    residuals[n - 2] is the term dict of
    sum_{i+j=n} F_i(F_j(u,v), w) - F_i(u, F_j(v,w)) on the basis triple
    (u, v, w), F_0 the product, for every stage n = 2..N; it is empty
    exactly when the stage-n identity holds there.  Every value, inner and
    outer, is a ``pair_values`` entry, and one outer lookup per term of
    F_j(u,v) or F_j(v,w) feeds every stage n >= max(j, 2) through its
    index n - j.
    """
    N = sp.order
    nonempty = _NonemptyValues(sp)
    # F_j and an outer F_i meet in stage n = i + j, residuals[i + j - 2],
    # for max(j, 2) - j <= i <= N - j
    plan = [(j - 2, max(j, 2) - j, N - j) for j in range(N + 1)]
    for t1, t2, t3 in basis_triples(sp.params, window):
        out = [{} for _ in range(N - 1)]
        # F_i(a, w) for each term c a of F_j(u, v) ...
        for j, uvj in nonempty[t1, t2]:
            shift, lo, hi = plan[j]
            for a, c in uvj.items():
                for i, val in nonempty[a, t3]:
                    if lo <= i <= hi:
                        _accumulate(out[i + shift], val, c)
        # ... less F_i(u, b) for each term c b of F_j(v, w)
        for j, vwj in nonempty[t2, t3]:
            shift, lo, hi = plan[j]
            for b, c in vwj.items():
                c = -c
                for i, val in nonempty[t1, b]:
                    if lo <= i <= hi:
                        _accumulate(out[i + shift], val, c)
        yield (t1, t2, t3), out


def _obstruction_scan(sp: StarProduct, window: int) -> tuple[int, list]:
    """(triples swept, [(index, triple) of each failure] per stage 2..N).

    Each stage keeps its first five failures, numbering triples from 1; the
    sweep ends once every stage has five or the triples run out.
    """
    fails = [[] for _ in range(2, sp.order + 1)]
    running = len(fails)
    k = 0
    for k, (triple, residuals) in enumerate(obstruction_residuals(sp, window), 1):
        for found, residual in zip(fails, residuals):
            if residual and len(found) < 5:
                found.append((k, triple))
                running -= len(found) == 5
        if not running:
            break
    return k, fails


def check_obstruction(sp: StarProduct, n: int, window: int) -> dict:
    """Stage-n identity sum_{i+j=n} circle(F_i, F_j) = 0, F_0 the product.

    Equivalently, the circle products of F_1 .. F_{n-1} sum to b F_n.
    Stage n stops at its own fifth failure; ``triples`` counts every
    triple it checked, the one that stopped it included.  All stages of a
    window come from one sweep of the triples (``obstruction_residuals``),
    memoized on the star product; each call returns a new report.
    """
    if not 2 <= n <= sp.order:
        raise ValueError("n must lie between 2 and the truncation order")
    if window not in sp._obstructions:
        sp._obstructions[window] = _obstruction_scan(sp, window)
    swept, stages = sp._obstructions[window]
    fails = stages[n - 2]
    return {"n": n, "window": window,
            "triples": fails[-1][0] if len(fails) == 5 else swept,
            "failures": [{"triple": list(t)} for _, t in fails],
            "pass": not fails}


def check_local_finiteness(sp: StarProduct, window: int) -> dict:
    """Every F_n keeps basis pairs inside their combined filtration level.

    The values are the memoized ``pair_values``; the scan stops at the
    fifth failure.
    """
    a = sp.params
    checked = 0
    failures = []
    pairs = ((pq1, pq2) for pq1 in basis_window(a, window)
             for pq2 in basis_window(a, window - a.weight(*pq1)))
    for pq1, pq2 in pairs:
        if len(failures) >= 5:
            break
        bound = a.weight(*pq1) + a.weight(*pq2)
        vals = sp.pair_values(pq1, pq2)
        for n in range(1, sp.order + 1):
            if any(a.weight(*pq) > bound for pq in vals[n]):
                failures.append({"pair": [pq1, pq2], "n": n})
                if len(failures) >= 5:
                    break
        checked += 1
    return {"window": window, "pairs": checked,
            "failures": failures, "pass": not failures}


def f1_noncoboundary_evidence(params: GwaParams) -> dict:
    """Search for a degree-1 preimage of the defining cocycle on window 2l+8.

    Finding none is one-sided evidence that the first-order deformation
    is nontrivial; a finite window cannot prove it outright.
    """
    window = 2 * params.l + 8
    found = per_solve_preimage(_defining_cocycle(params), window)
    return {"window": window, "preimage_found": found is not None,
            "one_sided": True, "pass": found is None}
