"""Zeroth Hochschild homology with twisted coefficients: M / [A, M].

The twisted-commutator span is truncated to a filtration window.  Every
generator b.m - m.b (actions through the module twists) is supported in a
single x-column, so the span decomposes as a direct sum over columns and
each column keeps its own small echelon basis of z-coefficient vectors.

Generator lemma.  Write [b, m] = f(b) m - m g(b), where f and g are the
left and right twists of the module.  The span of [b, m] over all basis
pairs with ||b|| + ||m|| <= w equals the span of [a, m] over the algebra
generators a in {z, x, y} and basis monomials m with ||a|| + ||m|| <= w.
Proof sketch: [bc, m] = [b, f(c) m] + [c, m g(b)].  Every basis monomial
of positive weight factors as z (z^{p-1} x_q), x x^{q-1} or y y^{|q|-1},
and the weights of the factors add up.  A product never raises the
filtration weight, and neither does a diagonal automorphism
(z -> c z + d), so f(c) m and m g(b) are combinations of monomials of
weight at most ||c|| + ||m|| and ||b|| + ||m||.  Induction on ||b||
(with [1, m] = 0) puts every all-pairs commutator inside the window in
the generator span; the converse inclusion is trivial.  The generator
span has O(w^2) generators instead of O(w^4), and the span at a wider
window w' is the span at w plus the pairs with w < ||a|| + ||m|| <= w'.

Closed-form predictions: the classical case keeps z^0 .. z^{l-2}; the
quantum case keeps z^{xi(i)} for i <= l - R together with a periodic
family z^{j+1} x_k governed by the multiplicative order e of lambda.
R counts the distinct e-th powers of the nonzero roots of phi: it is the
degree of the squarefree part of `scalars.root_power_poly(phi, e)`, whose
roots are those powers, less one if 0 is among them.  When lambda is not
a root of unity (e = 0) and l >= 2, the q = 0 column of the span is
(sigma - lambda)(phi k[z]), and sigma - lambda kills only z, so it keeps
exactly l classes: the cut is max(R, 1), since R = 0 there means
phi = c z^l.

lambda = -1 (e = 2).  By the generator lemma only [x, z^p y] =
(sigma - lambda)(z^p phi) and [y, z^p x] = -lambda^{-1} (sigma -
lambda)(sigma^{-1}(z^p) phi) land in column 0 ([z, z^p] = 0, as nu fixes
z), so its span is V = (sigma - lambda)(phi k[z]) for every quantum
lambda.  At lambda = -1, sigma + 1 sends z^k to (1 + (-1)^k) z^k, so V is
twice the even part of phi k[z].  With phi = phi_e(z^2) + z phi_o(z^2)
and h = h_e(z^2) + z h_o(z^2), the even part of phi h is phi_e h_e + z^2
phi_o h_o, so V = g(z^2) k[z^2] with g = gcd(phi_e(w), w phi_o(w)).
Column 0 keeps every odd power (the periodic family) and the finite part
1, z^2, .., z^{2(d-1)}, d = deg g.  For squarefree phi, g is squarefree
and its roots are 0 when phi(0) = 0 and r^2 for each pair of roots +-r of
phi, so d = l - R, the cut of the other cases.
"""
from __future__ import annotations

from .core import (
    BimoduleSpec,
    GwaElement,
    GwaParams,
    _BY_COLUMN,
    _accumulate,
    apply_automorphism,
    basis_window,
    module_nu,
)
from .errors import CommutativeAlgebraError, MixedCaseError
from .linalg import Echelon
from .scalars import Poly, Record, poly_ext_gcd, rat, root_power_poly, \
    squarefree_part


class TruncatedSubspace:
    """Windowed span of single-column vectors, echelonized per column."""

    def __init__(self, params: GwaParams, window: int):
        self.params = params
        self.window = window
        self.columns: dict[int, Echelon] = {}

    def _split(self, u: GwaElement | dict) -> dict[int, dict]:
        """The x-columns of u as sparse z-coefficient vectors {p: c}.

        u is an element or a term dict, as in ``core.tensor_act``; a term
        outside the window raises ``ValueError``.
        """
        parts: dict[int, dict] = {}
        terms = u.terms if isinstance(u, GwaElement) else u
        for (p, q), c in terms.items():
            if self.params.weight(p, q) > self.window:
                raise ValueError("element outside the window")
            parts.setdefault(q, {})[p] = c
        return parts

    def add(self, u: GwaElement | dict) -> bool:
        grew = False
        for q, vec in self._split(u).items():
            ech = self.columns.get(q)
            if ech is None:
                ech = self.columns[q] = Echelon()
            if ech.add(vec):
                grew = True
        return grew

    def contains(self, u: GwaElement | dict) -> bool:
        """Whether u lies in the span; a lookup never adds a column."""
        try:
            parts = self._split(u)
        except ValueError:
            return False
        return all(q in self.columns and self.columns[q].contains(vec)
                   for q, vec in parts.items())

    @property
    def rank(self) -> int:
        return sum(e.rank for e in self.columns.values())

    def copy(self, window: int | None = None) -> "TruncatedSubspace":
        """A copy, optionally embedded in a window at least as wide."""
        window = self.window if window is None else window
        if window < self.window:
            raise ValueError("cannot copy into a narrower window")
        out = TruncatedSubspace(self.params, window)
        out.columns = {q: ech.copy() for q, ech in self.columns.items()}
        return out


def commutator_span(params: GwaParams, module: BimoduleSpec, window: int,
                    base: TruncatedSubspace | None = None) -> TruncatedSubspace:
    """Span of b.m - m.b over basis pairs with ||b|| + ||m|| <= window.

    Built from the generators b in {z, x, y} only (see the generator
    lemma in the module docstring).  Given the span ``base`` at a window w <= ``window``, the
    result extends a copy of it by the pairs with ||b|| + ||m|| > w.  Each
    [b, m] is summed straight from the memoized basis products a m and m a'
    over the terms a of f(b) and a' of g(b), one term each unless the twist
    moves z.
    """
    if base is None:
        span, done = TruncatedSubspace(params, window), -1
    else:
        span, done = base.copy(window), base.window
    cache, mono = params._mono_cache, params._mono_mul
    for pq_g in ((1, 0), (0, 1), (0, -1)):
        wg = params.weight(*pq_g)
        if wg > window:
            continue
        g = params.monomial(*pq_g)
        left = apply_automorphism(module.left_twist, g).terms.items()
        right = [(b, -s) for b, s in
                 apply_automorphism(module.right_twist, g).terms.items()]
        for p, q in basis_window(params, window - wg):
            if params.weight(p, q) + wg <= done:
                continue
            c: dict = {}  # f(g) m - m g'(g) = sum s_a (a m) - sum s_b (m b)
            for (ap, aq), s in left:
                _accumulate(c, cache.get((ap, aq, p, q)) or mono(ap, aq, p, q), s)
            for (bp, bq), s in right:
                _accumulate(c, cache.get((p, q, bp, bq)) or mono(p, q, bp, bq), s)
            if c:
                span.add(c)
    return span


def compute_e(lam) -> int:
    """Multiplicative order of lambda over the rationals (0 if infinite)."""
    lam = rat(lam)
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    if lam == 1:
        return 1
    if lam == -1:
        return 2
    return 0


def compute_R(phi: Poly, e: int) -> int:
    """Number of distinct values among the e-th powers of nonzero roots."""
    if phi.degree == 0:
        return 0
    if e == 0:
        # z_i^0 = 1 for every nonzero root: R = 1 iff a nonzero root exists.
        s = squarefree_part(phi)
        return 0 if s in (Poly.one(), Poly.z()) else 1
    n = squarefree_part(root_power_poly(phi, e))
    if n.degree <= 0:
        return 0
    return n.degree - (1 if n(0) == 0 else 0)


def xi(i: int, e: int) -> int:
    """Exponent map for the quantum finite part."""
    if i < 1:
        raise ValueError("i must be positive")
    if i == 1:
        return 0
    if e == 0:
        return i
    if e == 1:
        raise ValueError("xi is undefined for i >= 2 when e = 1")
    k, c = divmod(i - 2, e - 1)
    c += 2
    return k * e + c


class H0Prediction(Record):
    """kind is "quantum" or "classical"; finite_basis lists z-exponents."""

    __slots__ = ("kind", "e", "R", "finite_basis", "periodic")

    def survivors_in_window(self, params: GwaParams, window: int):
        out = [(i, 0) for i in self.finite_basis if i <= window]
        if self.periodic:
            step = self.e if self.e else None
            if step is None:
                if 1 <= window:
                    out.append((1, 0))
            else:
                w = params.l + 1
                j = 0
                while j + 1 <= window:
                    kmax = (window - (j + 1)) // w
                    for k in range(-kmax, kmax + 1):
                        if k % step == 0:
                            out.append((j + 1, k))
                    j += step
        return sorted(set(out), key=_BY_COLUMN)

    def to_json(self) -> dict:
        return {"kind": self.kind, "e": self.e, "R": self.R,
                "finite_basis": self.finite_basis,
                "periodic": ({"j": f"{self.e}N", "k": f"{self.e}Z"}
                             if self.periodic and self.e else
                             ({"j": "{0}", "k": "{0}"} if self.periodic else None))}


def predict_h0(params: GwaParams) -> H0Prediction:
    if not params.is_noncommutative:
        raise CommutativeAlgebraError("no prediction for the commutative case")
    if params.is_classical:
        l = params.l
        return H0Prediction("classical", 1, 0,
                            list(range(l - 1)) if l >= 2 else [], False)
    if not params.is_quantum:
        raise MixedCaseError("lambda != 1 with eta != 0 is not normalized here")
    e = compute_e(params.lam)
    R = compute_R(params.phi, e)
    if e == 2:  # column 0 keeps d = deg gcd(phi_e(w), w phi_o(w)) classes
        phi = params.phi.coeffs
        d = poly_ext_gcd(Poly._of(list(phi[::2])),
                         Poly._of([0, *phi[1::2]]))[0].degree
    else:  # e = 0 keeps l classes once l >= 2 (module docstring)
        d = params.l - (max(R, 1) if e == 0 and params.l >= 2 else R)
    return H0Prediction("quantum", e, R, [xi(i, e) for i in range(1, d + 1)],
                        True)


def _certify(pending: list, space: TruncatedSubspace, window: int,
             strictly_zero: bool) -> list:
    """Mark the entries whose monomial lies in ``space``; return the rest."""
    rest = []
    for u, entry in pending:
        if space.contains(u):
            entry.update(certified=True, strictly_zero=strictly_zero,
                         window=window)
        else:
            rest.append((u, entry))
    return rest


def compare_h0(params: GwaParams, window: int | None = None) -> dict:
    """Predicted basis of M/[A, M^nu] against the windowed commutator span.

    Survivor checks are one-sided (non-membership at a finite window).
    A non-predicted monomial is certified once its class is expressible in
    the predicted basis modulo the span; "strictly_zero" marks the ones
    lying in the span itself.  One pass over the windows w0, w0 + l + 2 and
    w0 + 2l + 4 tests the open ones against one commutator span, widened at
    each window, then against the span plus the survivors in the window,
    built there only if some remain open.  At w0 that augmented span is the
    one the survivors' independence check fills: membership, rank and
    independence depend only on the subspace spanned, not on the order.
    """
    pred = predict_h0(params)
    if window is None:
        window = max(2 * params.l + 8, 12)
    mod = module_nu(params)
    span = commutator_span(params, mod, window)
    survivors = pred.survivors_in_window(params, window)
    augmented = span.copy()
    survivor_report = [{"monomial": {"p": p, "q": q},
                        "in_span": span.contains({(p, q): 1}),
                        "independent": augmented.add({(p, q): 1})}
                       for p, q in survivors]
    dimension = {"window_dim": len(basis_window(params, window)),
                 "span_rank": span.rank, "survivor_count": len(survivors)}
    predicted_set = set(survivors)
    pending = [({(p, q): 1}, {"monomial": {"p": p, "q": q}, "certified": False,
                              "strictly_zero": False, "window": None})
               for p, q in basis_window(params, window)
               if (p, q) not in predicted_set]
    non_predicted = [n for _, n in pending]
    for w in (window, window + params.l + 2, window + 2 * params.l + 4):
        if w > span.window:
            span = commutator_span(params, mod, w, span)
        pending = _certify(pending, span, w, True)
        if pending and w > augmented.window:
            augmented = span.copy()
            for pq in pred.survivors_in_window(params, w):
                augmented.add({pq: 1})
        pending = _certify(pending, augmented, w, False)
        if not pending:
            break
    ok = (all(s["independent"] and not s["in_span"] for s in survivor_report)
          and all(n["certified"] for n in non_predicted))
    return {
        "prediction": pred.to_json(),
        "window": window,
        "survivors": survivor_report,
        "non_predicted": non_predicted,
        "dimension": dimension,
        "pass": ok,
    }
