import argparse
import math
import random
from fractions import Fraction
from functools import partial

import pytest

from gwadeform import linalg
from gwadeform.complexes import _push_for, _standardize, c_diff
from gwadeform.core import (
    GwaElement,
    GwaParams,
    LEG_ID,
    LegMap,
    TensorElement,
    _accumulate,
    _multiply_into,
    _same_algebra,
    apply_automorphism,
    basis_window,
    module_nu,
    module_plain,
    multiply,
    tensor_act,
    twisted_delta,
)
from gwadeform.deform import TruncatedElement, _deformed_mul, lift, star
from gwadeform.errors import NotCocycleError, UnsupportedPatternError
from gwadeform.hochschild import Cochain2, Cochain3
from gwadeform.homology import commutator_span, predict_h0
from gwadeform.percomplex import PerCochain, _D, _SIG, _SIG_D, is_cocycle
from gwadeform.scalars import Poly, div, rat

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


def random_algebra(rng: random.Random) -> GwaParams:
    """A random algebra: quantum, classical, commutative or lambda != 1 with
    eta != 0, and phi of degree 0 to 3 with small rational coefficients."""
    lam = rng.choice([-1, Fraction(1, 3), 2, 1])
    eta = rng.choice([0, 1, Fraction(2, 3), Fraction(-1, 2)])
    coeffs = [Fraction(rng.randint(-2, 2), rng.randint(1, 3))
              for _ in range(rng.randint(0, 3))] + [rng.choice([-1, 1, 2])]
    return GwaParams(lam, eta, Poly(coeffs))


def random_element(rng: random.Random, params: GwaParams, window: int,
                   nterms: int = 3):
    """A small random element supported in the given filtration window."""
    basis = basis_window(params, window)
    el = params.zero()
    for _ in range(nterms):
        p, q = rng.choice(basis)
        el = el + params.monomial(p, q, rng.randint(-3, 3))
    return el


def closed_form_datum(params, n):
    """F_n(x, z), F_n(x, y), F_n(y, z), F_n(y, x) for n >= 2, from closed forms.

    With phi_bar = sum b_k z^k, the n-th derivative over n! times (-1)^n
    is sum_{k >= n} (-1)^n binom(k, n) b_k z^(k - n), zero once n > l;
    the quantum case multiplies it by z^n and pairs it with y z.
    """
    shift = 0 if params.is_quantum else n
    vxy = GwaElement(params, {
        (k - shift, 0): rat((-1) ** n * math.comb(k, n) * b)
        for k, b in enumerate(params.phi_bar.coeffs[n:], n) if b})
    zero = params.zero()
    if params.is_quantum:
        return (zero, vxy, GwaElement(params, params._mono_mul(0, -1, 1, 0)), zero)
    return (zero, vxy, zero, zero)


def reference_closed_form_datum(params, n):
    """closed_form_datum as it was first written: d^n phi_bar through
    LegMap(0, n) and y z through multiply."""
    c = div((-1) ** n, math.factorial(n))
    dn_phi_bar = LegMap(0, n).apply(params, params.phi_bar)
    if params.is_quantum:
        vxy = params.from_poly(Poly.monomial(n, c) * dn_phi_bar)
        return (params.zero(), vxy, params.y() * params.z(), params.zero())
    vxy = c * params.from_poly(dn_phi_bar)
    return (params.zero(), vxy, params.zero(), params.zero())


def reference_mono_mul(params, p, q, i, j):
    """(z^p x_q)(z^i x_j) by the Poly formula of the former _mono_mul miss path.

    sigma^q(z^i) as a Poly, times sigma^{q - s k + [s > 0]}(phi) for each
    cancelled pair k (x y or y x), s = sign(q).
    """
    b = params.sigma_pow(Poly.monomial(i), q) if i else Poly.one()
    if q * j < 0:
        s = 1 if q > 0 else -1
        for k in range(1, min(s * q, -s * j) + 1):
            b = b * params.sigma_pow(params.phi, q - s * k + (s > 0))
    return {(p + d, q + j): c for d, c in enumerate(b.coeffs) if c != 0}


def reference_multiply_into(params, out, u_terms, v_terms, c=None):
    """_multiply_into as it was: one _accumulate call per pair of terms."""
    for (p, q), cu in u_terms.items():
        if c is not None:
            cu = c * cu
        for (i, j), cv in v_terms.items():
            _accumulate(out, reference_mono_mul(params, p, q, i, j), cu * cv)
    return out


def reference_evaluate_into(F, out, u_terms, v_terms, c=None):
    """Cochain2.evaluate_into as it was: a shifted dict and one _accumulate
    call per pair of terms."""
    for (p, q), cu in u_terms.items():
        if q == 0:
            continue
        if c is not None:
            cu = c * cu
        for (i, j), cv in v_terms.items():
            terms = F.eval_basis(q, i, j).terms
            if p:
                terms = {(p + e, k): w for (e, k), w in terms.items()}
            _accumulate(out, terms, cu * cv)
    return out


def reference_circle(F, G):
    """circle(F, G) as it was written on elements: F(G(u,v),w) - F(u,G(v,w))."""
    return lambda u, v, w: F(G(u, v), w) - F(u, G(v, w))


def reference_hochschild_b(F):
    """b F as it was written on elements: u F(v,w) - F(uv,w) + F(u,vw) - F(u,v) w."""
    return lambda u, v, w: (u * F(v, w) - F(u * v, w)
                            + F(u, v * w) - F(u, v) * w)


# The Hochschild coboundary b and the comparison maps theta'_2 and
# theta'_3, from bar-side cochains back to the periodic grid.  The program
# runs none of them: they are the oracles that check that theta2 is a
# chain map (per_diff o theta'_2 = theta'_3 o b) and that read the
# obstruction cocycles on the grid.

def hochschild_b(F: Cochain2) -> Cochain3:
    """The coboundary u F(v,w) - F(uv,w) + F(u,vw) - F(u,v) w."""
    a = F.params

    def into(out, u, v, w, c=None):
        neg = -1 if c is None else -c
        _multiply_into(a, out, u, F.evaluate_into({}, v, w), c)
        F.evaluate_into(out, _multiply_into(a, {}, u, v), w, neg)
        F.evaluate_into(out, u, _multiply_into(a, {}, v, w), c)
        return _multiply_into(a, out, F.evaluate_into({}, u, v), w, neg)

    return Cochain3(a, into)


def _sigma_poly_elem(params: GwaParams, h: Poly, j: int) -> GwaElement:
    return params.from_poly(params.sigma_pow(h, j))


def thetaprime2(F: Cochain2, module=None) -> PerCochain:
    """Assemble the degree-2 cochain 4-tuple of F along the theta'_2 images."""
    a = F.params
    if module is None:
        module = module_plain(a)
    one, x, y, z = a.one(), a.x(), a.y(), a.z()
    lam = a.lam
    m1 = lam * F(z, x) - F(x, z)
    m2 = div(1, lam) * F(z, y) - F(y, z)
    m3 = dict((F(y, x) + F(one, one) * a.from_poly(a.phi)).terms)
    m4 = dict((F(x, y) + F(one, one) * a.from_poly(a.phi_bar)).terms)
    for i in range(1, a.l + 1):
        ai = a.phi[i]
        if ai == 0:
            continue
        for j in range(1, i + 1):
            _accumulate(m3, (F(a.z(i - j), z) * a.z(j - 1)).terms, -ai)
            _accumulate(m4, (F(_sigma_poly_elem(a, Poly.monomial(i - j), 1),
                               lam * z)
                             * _sigma_poly_elem(a, Poly.monomial(j - 1), 1)).terms,
                        -ai)
    return PerCochain(a, module, 2,
                      (m1, m2, GwaElement(a, m3), GwaElement(a, m4)))


def thetaprime3(G: Cochain3, module=None) -> PerCochain:
    """Assemble the degree-3 cochain 4-tuple of G along the theta'_3 images."""
    a = G.params
    if module is None:
        module = module_plain(a)
    one, x, y, z = a.one(), a.x(), a.y(), a.z()
    lam = a.lam
    phi_el = a.from_poly(a.phi)
    phibar_el = a.from_poly(a.phi_bar)
    m1 = (G(z, y, x) - lam * G(y, z, x) + G(y, x, z)
          + G(z, one, one) * phi_el + G(one, one, z) * phi_el)
    m2 = (G(z, x, y) - div(1, lam) * G(x, z, y) + G(x, y, z)
          + G(z, one, one) * phibar_el + G(one, one, z) * phibar_el)
    m3 = (G(x, y, x) + G(x, one, one) * phi_el + G(one, one, x) * phi_el)
    m4 = G(y, x, y)
    ms = [dict(m.terms) for m in (m1, m2, m3, m4)]
    for i in range(1, a.l + 1):
        ai = a.phi[i]
        if ai == 0:
            continue
        for j in range(1, i + 1):
            zij = a.z(i - j)
            zj1 = a.z(j - 1)
            sij = _sigma_poly_elem(a, Poly.monomial(i - j), 1)
            sj1 = _sigma_poly_elem(a, Poly.monomial(j - 1), 1)
            _accumulate(ms[0], (G(z, zij, z) * zj1).terms, -ai)
            _accumulate(ms[1], (G(z, sij, lam * z) * sj1).terms, -ai)
            _accumulate(ms[2], ((G(x, zij, z) - G(sij, x, z)
                                 + G(sij, lam * z, x)) * zj1).terms, -ai)
            _accumulate(ms[3], ((G(y, sij, lam * z) - G(zij, y, lam * z)
                                 + G(zij, z, y)) * sj1).terms, -ai)
    return PerCochain(a, module, 3, tuple(GwaElement(a, m) for m in ms))


def reference_star(sp, u, v):
    """deform.star as it was written on elements: u v, then F_n(u, v) for
    each order n = 1..N through Cochain2.evaluate."""
    coeffs = [u * v] + [sp.f_n(n).evaluate(u, v)
                        for n in range(1, sp.order + 1)]
    return TruncatedElement(sp.params, tuple(coeffs))


def reference_tau_times(U, tau_poly):
    """U times a polynomial in tau (a list of scalar coefficients), cut at
    U's order: the former ``TruncatedElement.tau_times``."""
    out = [{} for _ in U.coefficients]
    for k, ck in enumerate(tau_poly):
        ck = rat(ck)
        if ck == 0:
            continue
        for n, un in enumerate(U.coefficients):
            if k + n <= U.order:
                _accumulate(out[k + n], un.terms, ck)
    return TruncatedElement(U.algebra, tuple(GwaElement(U.algebra, t)
                                             for t in out))


def reference_check_relations(sp):
    """deform.check_relations as it was: lambda_tau = lambda (1 - tau) and
    eta_tau = eta - tau written out by hand, one branch per case."""
    a = sp.params
    x, y, z = a.x(), a.y(), a.z()
    N = sp.order
    out = {}
    if a.is_quantum:
        lam = a.lam
        out["f1"] = star(sp, x, z) - reference_tau_times(star(sp, z, x),
                                                         [lam, -lam])
        # (1 - tau) (y * z) = lambda^{-1} (z * y), the cleared form of f2
        out["f2"] = (reference_tau_times(star(sp, y, z), [1, -1])
                     - reference_tau_times(star(sp, z, y), [div(1, lam)]))
    else:
        # F_n(1, g) = 0, so (z +- (eta - tau)) * g = z * g +- (eta - tau) g
        eta_tau = [a.eta, -1]
        out["f1"] = (star(sp, x, z) - star(sp, z, x)
                     - reference_tau_times(lift(a, x, N), eta_tau))
        out["f2"] = (star(sp, y, z) - star(sp, z, y)
                     + reference_tau_times(lift(a, y, N), eta_tau))
    out["f3"] = star(sp, x, y) - TruncatedElement(a, tuple(
        GwaElement(a, t) for t in _deformed_mul(a, N, x.terms, y.terms)))
    out["f4"] = star(sp, y, x) - lift(a, a.from_poly(a.phi), N)
    return out


def _bimul(f: dict, g: dict) -> dict:
    """The product of two polynomials {(z-degree, t-degree): c}."""
    out = {}
    for (d1, e1), c1 in f.items():
        for (d2, e2), c2 in g.items():
            k = (d1 + d2, e1 + e2)
            out[k] = out.get(k, 0) + c1 * c2
    return out


class _DeformedRows(dict):
    """(q, i, m) -> the row R_tau(q, i, m) of A_tau, filled on first lookup.

    R_tau(q, i, m) = sigma_tau^q(z)^i prod_{k <= m} sigma_tau^{r_k}(phi) is
    the row of ``GwaParams._row`` with sigma_tau in place of sigma, r_k as
    in its rows of i = 0 (the pair factors).  It is built as a polynomial
    {(d, e): c} in z and the deformed parameter t, where sigma_tau^r(z) =
    t^r z with t = lambda_tau = lambda (1 - tau) (quantum) and
    sigma_tau^r(z) = z + r t with t = eta_tau = eta - tau (classical);
    then each t^e is expanded in tau.  A row is (z-offset, one list of
    z-coefficients per tau^n), cut at tau^N and normalized by ``rat``.
    Memoized per product only.
    """

    def __init__(self, params, order):
        super().__init__()
        self.params, self.order = params, order
        self._factors = {}   # (q, m) -> prod_{k <= m} sigma_tau^{r_k}(phi)
        self._t_powers = {}  # e -> tau-coefficients of t^e

    def _sigma(self, r, h):
        """sigma_tau^r(h) in z and t, by Horner in sigma_tau^r(z)."""
        lin = ({(1, r): 1} if self.params.is_quantum
               else {(1, 0): 1, (0, 1): r})
        out = {}
        for c in reversed(h.coeffs):
            out = _bimul(out, lin)
            if c:
                out[0, 0] = out.get((0, 0), 0) + c
        return out

    def _factor(self, q, m):
        """prod_{k <= m} sigma_tau^{r_k}(phi), built from (q, m - 1)."""
        if m == 0:
            return {(0, 0): 1}
        out = self._factors.get((q, m))
        if out is None:
            s = 1 if q > 0 else -1
            out = self._factors[q, m] = _bimul(
                self._factor(q, m - 1),
                self._sigma(q - s * m + (s > 0), self.params.phi))
        return out

    def _t_power(self, e):
        """The tau-coefficients of t^e up to tau^N; e < 0 only when quantum."""
        out = self._t_powers.get(e)
        if out is None:
            a, N = self.params, self.order
            if e < 0:  # (lambda (1 - tau))^(-k) = lambda^(-k) sum C(k+n-1, n) tau^n
                k = -e
                lk = div(1, a.lam ** k)
                out = [math.comb(k + n - 1, n) * lk for n in range(N + 1)]
            else:  # (c - d tau)^e = sum C(e, n) c^(e-n) (-d)^n tau^n
                c, d = (a.lam, a.lam) if a.is_quantum else (a.eta, 1)
                out = [math.comb(e, n) * c ** (e - n) * (-d) ** n
                       for n in range(min(e, N) + 1)]
            self._t_powers[e] = out
        return out

    def __missing__(self, key):
        q, i, m = key
        poly = _bimul(self._sigma(q, Poly.monomial(i)), self._factor(q, m))
        off = min(d for d, _ in poly)
        table = [[0] * (max(d for d, _ in poly) - off + 1)
                 for _ in range(self.order + 1)]
        for (d, e), c in poly.items():
            if c:
                for n, t in enumerate(self._t_power(e)):
                    table[n][d - off] += c * t
        while len(table) > 1 and not any(table[-1]):
            table.pop()
        row = self[key] = (off, [[*map(rat, r)] for r in table])
        return row


def reference_deformed_mul(params, order, u_terms, v_terms):
    """deform._deformed_mul as it was: the rows of A_tau built in z and t by
    ``_DeformedRows``, expanded in tau row by row, and a shift-or-row loop
    over the pairs of terms that repeated ``core._multiply_into``'s."""
    rows = _DeformedRows(params, order)
    out = [{} for _ in range(order + 1)]
    for (p, q), cu in u_terms.items():
        for (i, j), cv in v_terms.items():
            if q == 0 or (i == 0 and q * j >= 0):  # z^(p+i) x_(q+j)
                off, table = i, [[1]]
            else:
                off, table = rows[q, i, min(abs(q), abs(j)) if q * j < 0 else 0]
            s, qj, w = p + off, q + j, cu * cv
            for acc, coeffs in zip(out, table):
                _accumulate(acc, {(e, qj): r for e, r in enumerate(coeffs, s)
                                  if r}, w)
    return out


def reference_shift_series(params, order):
    """phi(sigma_tau(z)) = phi_bar((1-tau) z) (quantum) or phi_bar(z - tau)
    (classical) by binomial expansion: the tau^n coefficient of
    b_k ((1-tau) z)^k is (-1)^n C(k, n) b_k z^k, that of b_k (z - tau)^k is
    (-1)^n C(k, n) b_k z^(k-n).  One element per tau^n, n = 0..order."""
    shift = 0 if params.is_quantum else 1
    return [params.from_poly(sum(
        (Poly.monomial(k - shift * n, (-1) ** n * math.comb(k, n) * b)
         for k, b in enumerate(params.phi_bar.coeffs) if k >= n),
        Poly.zero())) for n in range(order + 1)]


def filtration_degree(u):
    """Max of p + (l+1)|q| over the support of u; -1 for the zero element."""
    if u.is_zero():
        return -1
    return max(u.algebra.weight(p, q) for (p, q) in u.terms)


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


def tensor_from_pair(u, v):
    """u (x) v in A (x) A, one term per pair of terms of u and v."""
    return TensorElement(_same_algebra(u, v),
                         {(L, R): cl * cr for L, cl in u.terms.items()
                          for R, cr in v.terms.items()})


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


def _c_terms(slots):
    return {(s, q, m, j): c for s, comp in enumerate(slots)
            for ((_, q), (m, j)), c in comp.items()}


def c_chain(params, degree, *summands):
    """The chain of C_degree whose slot s is the standard form of the sum of
    u (x) v over the (u, v) GwaElement pairs of summands[s]."""
    slots = []
    for s, pairs in enumerate(summands):
        uv: dict = {}
        for u, v in pairs:
            if _same_algebra(u, v) != params:
                raise ValueError("operands belong to different algebras")
            _accumulate(uv, tensor_from_pair(u, v).terms)
        slots.append(_standardize(params, uv, _push_for(degree, s)))
    return slots


def c_standard_monomial(degree, s, q, m, j):
    """x_q (x) z^m x_j in slot s of C_degree, zero in the other one."""
    slots = [{} for _ in range(1 if degree == 0 else 2)]
    slots[s] = {((0, q), (m, j)): 1}
    return slots


def c_solve_preimage(params, i, target, window):
    """Find e in C_{i+1} with d_{i+1}(e) = target by an exact windowed solve.

    The unknowns are the standard monomials of C_{i+1} in the window plus
    l + 1.  Returns None when the truncated system is inconsistent.
    """
    if i >= 1 and any(c_diff(params, i, target)):
        raise ValueError("target is not a cycle")
    src_index = _c_index_set(params, i + 1, window + params.l + 1)
    columns = [_c_terms(c_diff(params, i + 1, c_standard_monomial(i + 1, *k)))
               for k in src_index]
    sol = linalg.solve_many(columns, [_c_terms(target)])[0]
    if sol is None:
        return None
    slots = [{}, {}]
    for (s, q, m, j), c in zip(src_index, sol):
        if c:
            slots[s][((0, q), (m, j))] = c
    return slots


# ---------------------------------------------------------------------------
# The complex C as it was: its own generator images, and standard tensors
# x_q (x) b(z) x_j kept as {(q, j): b} with Poly coefficients
# ---------------------------------------------------------------------------

def reference_standardize(params, u, v, push):
    """complexes.standardize as it was: u (x) v over the B-balanced tensor
    with twist push, as {(q, j): b}, through one element product per term
    of u."""
    out = {}
    for (p, q), c in u.terms.items():
        # z^p x_q = x_q * sigma^{-q}(z^p); the middle factor crosses as
        # sigma^{push} of itself
        b = params.sigma_pow(Poly.monomial(p, c), -q + push)
        w = multiply(params.from_poly(b), v)
        for (m, j), cw in w.terms.items():
            _accumulate(out, {(q, j): Poly.monomial(m, cw)})
    return out


def reference_c_generator_images(params, i):
    """d_i on the two generators of C_i as it was written by hand: lists of
    (u, v) pairs per target summand."""
    one, x, y = params.one(), params.x(), params.y()
    if i == 1:
        return ([[(x, one), (-1 * one, x)]],
                [[(y, one), (-1 * one, y)]])
    if i % 2 == 0:
        return ([[(y, one)], [(one, x)]],
                [[(one, y)], [(x, one)]])
    return ([[(x, one)], [(-1 * one, x)]],
            [[(-1 * one, y)], [(y, one)]])


def reference_c_diff(params, i, comps):
    """complexes.c_diff as it was, on components {(q, j): b}: each image
    pair (u, v) of the generator sends x_q (x) b x_j to the standard form of
    (x_q u) (x) (v b x_j), through element products."""
    gens = reference_c_generator_images(params, i)
    out = [{} for _ in range(1 if i == 1 else 2)]
    for s, comp in enumerate(comps):
        for (q, j), b in comp.items():
            left = params.monomial(0, q)
            right = multiply(params.from_poly(b), params.monomial(0, j))
            for t, pairs in enumerate(gens[s]):
                for u, v in pairs:
                    _accumulate(out[t], reference_standardize(
                        params, multiply(left, u), multiply(v, right),
                        _push_for(i - 1, t)))
    return out


def c_to_reference(slots):
    """The slots of a chain of C as {(q, j): b}."""
    out = []
    for comp in slots:
        terms = {}
        for ((_, q), (m, j)), c in comp.items():
            _accumulate(terms, {(q, j): Poly.monomial(m, c)})
        out.append(terms)
    return out


def c_from_reference(comps):
    """The slots of the chain of C given as {(q, j): b}."""
    return [{((0, q), (m, j)): c for (q, j), b in comp.items()
             for m, c in enumerate(b.coeffs) if c}
            for comp in comps]


def reference_theta2(params, left, right):
    """theta2 as it was written with an x branch and a mirrored y branch.

    Image of 1|z^p x_q|z^i x_j|1 as a 4-tuple in the degree-2 columns.

    Mixed patterns x^q-vs-y or y^q-vs-x with q >= 2 are unsupported.
    """
    p, q = left
    i, j = right
    slots: list[dict] = [{} for _ in range(4)]
    if q == 0:
        return tuple(TensorElement(params, t) for t in slots)
    zp = Poly.monomial(p)
    if q > 0 and j >= 0:
        # x^q against z^i x^j
        for k in range(1, i + 1):
            lz = zp * params.sigma_pow(Poly.monomial(i - k), q)
            for s in range(1, q + 1):
                lhs = params.from_poly(lz, q - s)
                rz = params.sigma_pow(Poly.monomial(k - 1), s - 1)
                rhs = params.lam ** (s - 1) * params.from_poly(rz, s - 1 + j)
                _accumulate(slots[0], tensor_from_pair(lhs, rhs).terms, -1)
    elif q < 0 and j <= 0:
        # y^Q against z^i y^J
        Q, J = -q, -j
        for k in range(1, i + 1):
            lz = zp * params.sigma_pow(Poly.monomial(i - k), -Q)
            for s in range(1, Q + 1):
                lhs = params.from_poly(lz, -(Q - s))
                rz = params.sigma_pow(Poly.monomial(k - 1), -(s - 1))
                rhs = div(1, params.lam ** (s - 1)) * params.from_poly(rz, -(s - 1) - J)
                _accumulate(slots[1], tensor_from_pair(lhs, rhs).terms, -1)
    elif q == 1:
        # x against z^i y^J
        J = -j
        for k in range(1, i + 1):
            lhs = params.from_poly(zp * params.sigma_pow(Poly.monomial(i - k), 1))
            _accumulate(slots[0], tensor_from_pair(
                lhs, params.monomial(k - 1, -J)).terms, -1)
        slots[3] = tensor_from_pair(
            params.from_poly(zp * params.sigma_pow(Poly.monomial(i), 1)),
            params.y(J - 1)).terms
    elif q == -1:
        # y against z^i x^j
        for k in range(1, i + 1):
            lhs = params.from_poly(zp * params.sigma_pow(Poly.monomial(i - k), -1))
            _accumulate(slots[1], tensor_from_pair(
                lhs, params.monomial(k - 1, j)).terms, -1)
        slots[2] = tensor_from_pair(
            params.from_poly(zp * params.sigma_pow(Poly.monomial(i), -1)),
            params.x(j - 1)).terms
    else:
        raise UnsupportedPatternError(
            f"no displayed image for x_({q}) against z^{i} x_({j})")
    return tuple(TensorElement(params, t) for t in slots)


def reference_determine_F(params, target_b, vxz, vxy, vyz, vyx):
    """determine_F as it was written with an x branch and a mirrored y branch."""
    zero = params.zero()
    one, x, y, z = params.one(), params.x(), params.y(), params.z()
    memo: dict[tuple[int, int, int], GwaElement] = {}

    def tb(u, v, w):
        if target_b is None:
            return zero
        return target_b.evaluate(u, v, w)

    def ev_right(q, elem):
        out: dict = {}
        for (i, j), c in elem.terms.items():
            _accumulate(out, val(q, i, j).terms, c)
        return GwaElement(params, out)

    def val(q, i, j):
        if q == 0 or (i == 0 and (j == 0 or (j > 0) == (q > 0))):
            return zero
        key = (q, i, j)
        got = memo.get(key)
        if got is not None:
            return got
        if q == 1:
            if j == 0:  # F(x, z^i)
                if i == 1:
                    out = vxz
                else:
                    out = (tb(x, z, params.z(i - 1))
                           + _sigma_poly_elem(params, Poly.z(), 1)
                           * val(1, i - 1, 0)
                           + vxz * params.z(i - 1))
            elif j > 0:  # F(x, z^i x^j), i >= 1
                out = tb(x, params.z(i), params.x(j)) + val(1, i, 0) * params.x(j)
            elif i == 0:  # F(x, y^J)
                J = -j
                if J == 1:
                    out = vxy
                else:
                    out = tb(x, y, params.y(J - 1)) + vxy * params.y(J - 1)
            else:  # F(x, z^i y^J)
                J = -j
                out = (tb(x, params.z(i), params.y(J))
                       + _sigma_poly_elem(params, Poly.monomial(i), 1)
                       * val(1, 0, j)
                       + val(1, i, 0) * params.y(J))
        elif q > 1:
            xq1 = params.x(q - 1)
            if j >= 0:  # F(x^q, z^i x^j)
                shifted = params.from_poly(
                    params.sigma_pow(Poly.monomial(i), 1), j + 1)
                out = (xq1 * val(1, i, j) + ev_right(q - 1, shifted)
                       - tb(xq1, x, params.monomial(i, j)))
            else:  # F(x^q, z^i y^J)
                J = -j
                shifted = params.from_poly(
                    params.sigma_pow(Poly.monomial(i), 1) * params.phi_bar,
                    -(J - 1))
                out = (ev_right(q - 1, shifted) + xq1 * val(1, i, j)
                       - tb(xq1, x, params.monomial(i, j)))
        elif q == -1:
            if j == 0:  # F(y, z^i)
                if i == 1:
                    out = vyz
                else:
                    out = (tb(y, z, params.z(i - 1))
                           + _sigma_poly_elem(params, Poly.z(), -1)
                           * val(-1, i - 1, 0)
                           + vyz * params.z(i - 1))
            elif j < 0:  # F(y, z^i y^J), i >= 1
                J = -j
                out = tb(y, params.z(i), params.y(J)) + val(-1, i, 0) * params.y(J)
            elif i == 0:  # F(y, x^j)
                if j == 1:
                    out = vyx
                else:
                    out = tb(y, x, params.x(j - 1)) + vyx * params.x(j - 1)
            else:  # F(y, z^i x^j)
                out = (tb(y, params.z(i), params.x(j))
                       + _sigma_poly_elem(params, Poly.monomial(i), -1)
                       * val(-1, 0, j)
                       + val(-1, i, 0) * params.x(j))
        else:  # q < -1
            Q = -q
            yq1 = params.y(Q - 1)
            if j <= 0:  # F(y^Q, z^i y^J)
                J = -j
                shifted = params.from_poly(
                    params.sigma_pow(Poly.monomial(i), -1), -(J + 1))
                out = (yq1 * val(-1, i, j) + ev_right(-(Q - 1), shifted)
                       - tb(yq1, y, params.monomial(i, j)))
            else:  # F(y^Q, z^i x^j)
                shifted = params.from_poly(
                    params.sigma_pow(Poly.monomial(i), -1) * params.phi,
                    j - 1)
                out = (ev_right(-(Q - 1), shifted) + yq1 * val(-1, i, j)
                       - tb(yq1, y, params.monomial(i, j)))
        memo[key] = out
        return out

    return Cochain2(params, val)


class OneSidedOps:
    """One-sided actions and constants of the explicit maps f, g and contractions.

    The former ``percomplex._Ops``: each map applied one product at a time.
    """

    def __init__(self, params, module):
        self.a = params
        self.mod = module
        a = params
        self.x, self.y = a.x(), a.y()
        self.lam = a.lam
        self.il = div(1, a.lam)
        self.delta_ss = twisted_delta(a, _SIG, _SIG, a.phi)

    # a . m . 1 = f(a) m and 1 . m . a = m g(a): no product by g(1) = f(1) = 1
    def l(self, a, m):
        return multiply(apply_automorphism(self.mod.left_twist, a), m)

    def r(self, m, a):
        return multiply(m, apply_automorphism(self.mod.right_twist, a))

    def act(self, T, m):
        return tensor_act(T, self.mod, m)


def reference_f_map(m, params, module, ops=OneSidedOps):
    """f_map as it was written with one-sided actions."""
    ops = ops(params, module)
    return PerCochain(params, module, 2, (
        ops.lam * ops.r(m, ops.x),
        -ops.l(ops.y, m),
        params.zero(),
        -ops.lam * ops.act(ops.delta_ss, m),
    ))


def _alpha_beta(params, bez):
    alpha = params.from_poly(bez.alpha)
    beta = params.from_poly(bez.beta)
    sbeta = params.from_poly(params.sigma_pow(bez.beta, 1))
    return alpha, beta, sbeta


def _g(ops, c, alpha, beta, sbeta):
    m1, _, m3, m4 = c.components
    return (ops.il * ops.r(m1, alpha * ops.y)
            + ops.r(m3, beta) - ops.il * ops.r(m4, sbeta))


def reference_g_map(c, bez, ops=OneSidedOps):
    """g_map as it was written with one-sided actions."""
    if c.degree != 2 or not is_cocycle(c):
        raise NotCocycleError("g is defined on degree-2 cocycles")
    return _g(ops(c.params, c.module), c, *_alpha_beta(c.params, bez))


def reference_contract3(c, bez, ops=OneSidedOps):
    """contract3 as it was written with one-sided actions."""
    if c.degree != 3:
        raise ValueError("contract3 expects a degree-3 cochain")
    if not is_cocycle(c):
        raise NotCocycleError("not a degree-3 cocycle")
    params, mod = c.params, c.module
    ops = ops(params, mod)
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


def reference_split2(c, bez, ops=OneSidedOps):
    """split2 as it was written with one-sided actions."""
    if c.degree != 2:
        raise ValueError("split2 expects a degree-2 cochain")
    if not is_cocycle(c):
        raise NotCocycleError("not a degree-2 cocycle")
    params, mod = c.params, c.module
    ops = ops(params, mod)
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
# Generator tables as they were built on elements, through tensor_from_pair,
# from_poly and element arithmetic: == references for the term-dict tables
# ---------------------------------------------------------------------------

def table_terms(table):
    """A table of TensorElements as the table of their term dicts."""
    return [[t.terms for t in row] for row in table]


def reference_dv_gens(a, p):
    """d^v on the generators of P_{p,1}, per slot of P_{p,0}."""
    one, z = a.one(), a.z()

    def dv(j):  # sigma^j(z) (x) 1 - 1 (x) z
        return (tensor_from_pair(a.from_poly(a.sigma_z(j)), one)
                - tensor_from_pair(one, z))

    if p == 0:
        return [[dv(0)]]
    j = p % 2
    zero_t = TensorElement(a, {})
    return [[dv(j), zero_t], [zero_t, dv(-j)]]


def reference_dh_gens(a, p, q):
    """d^h on the generators of P_{p,q}, per slot of P_{p-1,q}."""
    one, x, y = a.one(), a.x(), a.y()
    sign, nx, ny = 1, x, y
    if q == 1:
        sign, nx, ny = -1, a.lam * x, div(1, a.lam) * y

    def t(u, v):
        return sign * tensor_from_pair(u, v)

    if p == 1:
        return [[t(x, one) - t(one, nx)], [t(y, one) - t(one, ny)]]
    if p % 2 == 0:
        return [[t(y, one), t(one, nx)], [t(one, ny), t(x, one)]]
    return [[t(x, one), -t(one, nx)], [-t(one, ny), t(y, one)]]


def reference_r_gens(a, p):
    """r on the generators of P_{p,0}, per slot of P_{p-2,1} (p >= 2)."""
    lam = a.lam
    sL, sR = LegMap(1, 0), LegMap(1, 0)
    d = twisted_delta(a, LEG_ID, LEG_ID, a.phi)
    ds_s = twisted_delta(a, sL, sR, a.phi).scale(lam)
    sd = twisted_delta(a, sL, LEG_ID, a.phi)
    d_s = twisted_delta(a, LEG_ID, sR, a.phi).scale(lam)
    zero_t = TensorElement(a, {})
    if p == 2:
        return [[-d], [-ds_s]]
    if p % 2 == 1:
        return [[-sd, zero_t], [zero_t, -d_s]]
    return [[-d, zero_t], [zero_t, -ds_s]]


def reference_tot_images(params, n):
    """tot_images assembled from the element-built generator tables."""
    dv, dh0 = reference_dv_gens(params, n - 1), reference_dh_gens(params, n, 0)
    if n == 1:
        return dv + dh0
    return ([h + v for h, v in zip(reference_dh_gens(params, n - 1, 1), dv)]
            + [r + h for r, h in zip(reference_r_gens(params, n), dh0)])


def reference_linear_extend(params, components, gen_images):
    """_linear_extend on elements: each term c L (x) R of slot s acts on
    image t of gen_images[s] through act_left by c L, then act_right by R."""
    out = [TensorElement(params, {}) for _ in gen_images[0]]
    for s, comp in enumerate(components):
        for (L, R), c in comp.terms.items():
            a = GwaElement(params, {L: c})
            b = GwaElement(params, {R: 1})
            out = [o + act_right(act_left(img, a), b)
                   for o, img in zip(out, gen_images[s])]
    return out


def reference_verify_hdc(params, max_p):
    """verify_hdc on the element-built tables, composed by act_left/act_right.

    Each identity is the sum of two composites (first, then second), and
    generator t passes when row t of that sum is zero.
    """
    a, report = params, []

    def then(first, second):
        return [reference_linear_extend(a, row, second) for row in first]

    def check(identity, p, q, one, other):
        for idx, (u, v) in enumerate(zip(then(*one), then(*other))):
            report.append({"identity": identity, "position": (p, q),
                           "generator": idx,
                           "pass": all((s + t).is_zero() for s, t in zip(u, v))})

    dv, dh, r = (partial(f, a) for f in (reference_dv_gens, reference_dh_gens,
                                         reference_r_gens))
    for p in range(max_p + 1):
        for identity in ("dv.dv", "r.r"):
            report.append({"identity": identity, "position": (p, 0),
                           "generator": None, "pass": True, "vacuous": True})
        if p >= 1:  # d^h d^v + d^v d^h on P_{p,1}
            check("dh.dv+dv.dh", p, 1, (dv(p), dh(p, 0)), (dh(p, 1), dv(p - 1)))
        if p >= 2:  # d^h d^h + d^v r on P_{p,0}; d^h d^h + r d^v on P_{p,1}
            check("dh.dh+dv.r", p, 0, (dh(p, 0), dh(p - 1, 0)), (r(p), dv(p - 2)))
            check("dh.dh+r.dv", p, 1, (dh(p, 1), dh(p - 1, 1)), (dv(p), r(p)))
        if p >= 3:  # d^h r + r d^h on P_{p,0}
            check("dh.r+r.dh", p, 0, (r(p), dh(p - 2, 1)), (dh(p, 0), r(p - 1)))
    return report


def reference_f_table(params):
    """The one-column table of f_map."""
    one, lam = params.one(), params.lam
    return [[lam * tensor_from_pair(one, params.x())],
            [-tensor_from_pair(params.y(), one)],
            [TensorElement(params, {})],
            [-lam * twisted_delta(params, _SIG, _SIG, params.phi)]]


def reference_right_legs(params, bez):
    """1 (x) h for h = alpha y, beta and sigma(beta)."""
    one = params.one()
    return tuple(tensor_from_pair(one, params.from_poly(h, q)) for h, q in (
        (bez.alpha, -1), (bez.beta, 0), (params.sigma_pow(bez.beta, 1), 0)))


def reference_compare_h0(params, window=None):
    """homology.compare_h0 as it was: spans and augmented spans cached per
    window behind two lazy closures, each monomial escalated on its own, and
    the survivors' independence checked in a copy of its own."""
    pred = predict_h0(params)
    if window is None:
        window = max(2 * params.l + 8, 12)
    mod = module_nu(params)
    escalations = [window, window + params.l + 2, window + 2 * params.l + 4]
    spans = {}

    def span_at(w):
        if w not in spans:
            below = [v for v in spans if v < w]
            base = spans[max(below)] if below else None
            spans[w] = commutator_span(params, mod, w, base)
        return spans[w]

    augmented_spans = {}

    def augmented_at(w):
        if w not in augmented_spans:
            aug = span_at(w).copy()
            for pq_s in pred.survivors_in_window(params, w):
                aug.add(params.monomial(*pq_s))
            augmented_spans[w] = aug
        return augmented_spans[w]

    base = span_at(escalations[0])
    survivors = pred.survivors_in_window(params, window)
    survivor_report = []
    independence = base.copy()
    for pq in survivors:
        u = params.monomial(*pq)
        survivor_report.append({"monomial": {"p": pq[0], "q": pq[1]},
                                "in_span": base.contains(u),
                                "independent": independence.add(u)})
    non_predicted = []
    predicted_set = set(survivors)
    for pq in basis_window(params, window):
        if pq in predicted_set:
            continue
        u = params.monomial(*pq)
        entry = {"monomial": {"p": pq[0], "q": pq[1]}, "certified": False,
                 "strictly_zero": False, "window": None}
        for w in escalations:
            if span_at(w).contains(u):
                entry.update(certified=True, strictly_zero=True, window=w)
                break
            if augmented_at(w).contains(u):
                entry.update(certified=True, strictly_zero=False, window=w)
                break
        non_predicted.append(entry)
    ok = (all(s["independent"] and not s["in_span"] for s in survivor_report)
          and all(n["certified"] for n in non_predicted))
    return {
        "prediction": pred.to_json(),
        "window": window,
        "survivors": survivor_report,
        "non_predicted": non_predicted,
        "dimension": {"window_dim": len(basis_window(params, window)),
                      "span_rank": base.rank,
                      "survivor_count": len(survivors)},
        "pass": ok,
    }


def reference_parser() -> argparse.ArgumentParser:
    """The CLI's former argparse parser; flags left out stay None."""
    parser = argparse.ArgumentParser(
        prog="gwadeform",
        description="verified computations in generalized Weyl algebras "
        "and their formal deformations")
    parser.add_argument("--config",
                        help="path to an algebra config JSON file")
    parser.add_argument("--json", action="store_true", default=None,
                        help="emit the full report as JSON")
    parser.add_argument("--seed", type=int,
                        help="seed for randomized sweeps (default 0)")
    parser.add_argument("--window", type=int,
                        help="filtration window for windowed checks")
    parser.add_argument("--order", type=int,
                        help="truncation order for star products (default 4)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("check-algebra")
    p = sub.add_parser("mul")
    p.add_argument("left")
    p.add_argument("right")
    p = sub.add_parser("star")
    p.add_argument("left")
    p.add_argument("right")
    p = sub.add_parser("cohomology")
    p.add_argument("operation",
                   choices=["f", "g", "contract3", "split2", "diff"])
    p.add_argument("payload")
    p.add_argument("--module", choices=["plain", "nu"])
    sub.add_parser("h0")
    sub.add_parser("deform-verify")
    return parser
