"""The generalized Weyl algebra A = k[z; lambda, eta, phi(z)] in normal form.

Generators x, y, z with relations

    x b(z) = b(sigma(z)) x,   y b(z) = b(sigma^{-1}(z)) y,
    y x = phi(z),             x y = phi(sigma(z)),

where sigma(z) = lambda*z + eta.  Every element is a finite combination of
basis monomials z^p x_q with x_q = x^q for q >= 0 and y^{-q} for q < 0.
The filtration weight of z^p x_q is p + (l+1)|q| with l = deg phi.

Shared arithmetic.  Every object of the package is a finite combination
over A or A (x) A, or a short tuple of such combinations:

* ``LinComb`` is a combination {key: coefficient} over one algebra, with
  scalar coefficients (an int when integral, else a ``scalars.Q``; see
  ``scalars``); a falsy coefficient means zero and is never stored.  It
  gives equality (the algebra is part of it), negation, sum, difference
  and scaling.  ``GwaElement`` and ``TensorElement`` subclass it.  The
  chains of T and C in ``complexes`` are plain lists of term dicts, one
  per slot, and carry no algebra.
* Scalars are normalised once, where a caller's value enters, by
  ``scalars.rat``: in the public constructors ``GwaElement(...)`` and
  ``TensorElement(...)`` (every value of the term dict, so a float is
  refused and "1/2" or Fraction(4, 2) is stored canonically, zeros
  dropped), ``GwaParams(...)``, ``GwaParams.monomial``, ``Automorphism``,
  ``LinComb.scale`` and every ``from_json``.  Every term dict the package
  builds itself is adopted by ``LinComb._of(algebra, terms)`` (and
  ``GwaParams._of``, ``scalars.Poly._of``): no ``rat``, no copy, no zero
  filter.  Its contract: the dict is zero-free, its values are canonical
  (int, Q, or Laurent in ``deform``'s formal algebras), and it is never
  mutated afterwards; every ``LinComb`` operation builds a new dict.
* ``DirectSum`` gives the records whose last field is a tuple (cochain
  components, truncated tau-series) componentwise zero test, negation,
  sum and difference; their equality is the ``scalars.Record`` one.
* ``_accumulate(out, terms, c)`` adds c * terms into the term dict ``out``
  in place.  Its contract: a falsy value is never stored (a key that
  cancels is deleted).  It keeps the canonical form it is given: int and
  Q arithmetic gives an int when the value is integral.
  Summing loops use it instead of rebuilding an element per term; it must
  only be given a dict that the caller owns.
  ``_multiply_into(alg, out, u, v, c)`` (out += c * u v on term dicts;
  ``multiply`` wraps it) and ``hochschild.Cochain2.evaluate_into`` keep
  the same contract, but add each basis value inline rather than through
  one ``_accumulate`` call per pair of terms.
* ``tensor_act(T, spec, m, out)`` adds T . m = sum c f(L) m g(R) into
  ``out`` in place, under the same contract.  A twist that fixes z (the
  identity, nu) sends a basis leg z^p x_q to x_scale^q or y_scale^(-q)
  times itself, so it only scales c: no leg element, no
  ``apply_automorphism`` call.  Other twists take that path.
* ``basis_window`` builds each window once per l + 1; callers get copies.

Basis products (also in ``deform``'s formal algebras, whose lambda or eta
is a ``scalars.Laurent``).  (z^p x_q)(z^i x_j) = z^p sigma^q(z)^i x_q x_j.
When q = 0, or i = 0 and no pair cancels, it is the key shift
z^(p+i) x_(q+j).  Otherwise it is the row R(q, i, m) shifted by z^p into
column q + j, where m = min(|q|, |j|) pairs cancel when q j < 0 and none
otherwise.  The row is sigma^q(z)^i = (c z + d)^i (binomial theorem;
c^i z^i when d = 0) times the factor that the m cancelled pairs leave.
``_row`` keeps one memo per algebra, keyed (q, i, m), of (z-offset,
coefficients), shared and never mutated; its rows of i = 0 are the pair
factors, each built from the one of m - 1.  ``complexes._standardize``
reads its m = 0 rows to move z^p across the balanced tensor.
``_multiply_into`` adds every pair of terms by this rule: a key shift
inline, any other product from the row, with no product memo in between.
``GwaParams._mono_mul(p, q, i, j)`` spells out the same rule as a term
dict memoized per (p, q, i, j), for callers that want one basis product
as a dict: the h0 commutator span, the linear extensions of ``complexes``
and ``hochschild.determine_F`` (g z^i x_j).
"""
from __future__ import annotations

import operator
from functools import lru_cache
from math import comb

from .errors import ZeroPhiError
from .scalars import Poly, Record, convolve, div, rat, rat_str

# the report order of monomial keys (p, q): by column q, then by p
_BY_COLUMN = operator.itemgetter(1, 0)


def _accumulate(out: dict, terms: dict, c=None) -> dict:
    """out += c * terms in place (c = None means 1); cancelled keys are dropped.

    Values keep the canonical form of their scalars (``scalars``): a sum
    or product of ints and Qs is an int when it is integral.
    """
    for k, v in terms.items():
        if c is not None:
            v = c * v
        old = out.get(k)
        if old is not None:
            v = old + v
        if v:
            out[k] = v
        elif old is not None:
            del out[k]
    return out


def _field(record: dict, key: str, what: str):
    """record[key]; a missing key is a ValueError naming it and the record."""
    try:
        return record[key]
    except KeyError:
        raise ValueError(f"{what} needs the key {key!r}, got {record!r}") \
            from None


def _same_algebra(u, v) -> GwaParams:
    if u.algebra is not v.algebra and u.algebra != v.algebra:
        raise ValueError("operands belong to different algebras")
    return u.algebra


class LinComb:
    """A finite combination sum c_k e_k over one algebra, as {key: c_k}."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms: dict):
        self.algebra = algebra
        self.terms = {k: c for k, v in terms.items() if (c := rat(v))}

    @classmethod
    def _of(cls, algebra, terms: dict):
        """Adopt a term dict that the package built (module docstring)."""
        self = object.__new__(cls)
        self.algebra, self.terms = algebra, terms
        return self

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return ((self.algebra is other.algebra or self.algebra == other.algebra)
                and self.terms == other.terms)

    def __neg__(self):
        return self._of(self.algebra, {k: -v for k, v in self.terms.items()})

    def _plus(self, other, c):
        """self + c * other for an operand of the same type and algebra."""
        if type(other) is not type(self):
            return NotImplemented
        alg = _same_algebra(self, other)
        return self._of(alg, _accumulate(dict(self.terms), other.terms, c))

    def __add__(self, other):
        return self._plus(other, None)

    def __sub__(self, other):
        return self._plus(other, -1)

    def scale(self, c):
        return self._of(self.algebra, _accumulate({}, self.terms, rat(c)))

    __rmul__ = scale


class DirectSum(Record):
    """Componentwise arithmetic for a record whose last field is a tuple.

    The first field is the algebra of every summand.  The other fields and
    the tuple's length fix the shape; both operands of a sum must agree on it.
    """

    __slots__ = ()

    def __init__(self, *fields):
        Record.__init__(self, *fields)
        if any(c.algebra is not fields[0] and c.algebra != fields[0]
               for c in fields[-1]):
            raise ValueError(f"{type(self).__name__} components belong to "
                             "different algebras")

    def _combine(self, other, op):
        if type(other) is not type(self):
            return NotImplemented
        (*head, mine), (*shape, theirs) = self._key(self), self._key(other)
        if head != shape or len(mine) != len(theirs):
            raise ValueError(f"{type(self).__name__} operands differ in shape")
        return type(self)(*head, tuple(map(op, mine, theirs)))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self._key(self)[-1])

    def __neg__(self):
        *head, summands = self._key(self)
        return type(self)(*head, tuple(-c for c in summands))

    def __add__(self, other):
        return self._combine(other, operator.add)

    def __sub__(self, other):
        return self._combine(other, operator.sub)


class GwaParams:
    """Defining data (lambda, eta, phi) plus cached basis-product tables."""

    def __init__(self, lam, eta, phi: Poly):
        self._adopt(rat(lam), rat(eta), phi if isinstance(phi, Poly) else Poly(phi))

    @classmethod
    def _of(cls, lam, eta, phi: Poly) -> "GwaParams":
        """The algebra of canonical scalars lam, eta and a Poly phi, no ``rat``."""
        self = object.__new__(cls)
        self._adopt(lam, eta, phi)
        return self

    def _adopt(self, lam, eta, phi: Poly):
        if lam == 0:
            raise ValueError("lambda must be nonzero")
        if phi.is_zero():
            raise ZeroPhiError("phi = 0 makes z a zero divisor")
        self.lam, self.eta, self.phi, self.l = lam, eta, phi, phi.degree
        self._sigma_z: dict[int, Poly] = {}
        self._sigma_cache: dict[tuple[Poly, int], Poly] = {}
        self._mono_cache: dict[tuple[int, int, int, int], dict] = {}
        self._row_cache: dict[tuple[int, int, int], tuple] = {}
        self._delta_cache: dict[tuple[LegMap, LegMap, Poly], dict] = {}
        self.phi_bar = self.sigma_pow(phi, 1)

    @property
    def is_quantum(self) -> bool:
        return self.lam != 1 and self.eta == 0

    @property
    def is_classical(self) -> bool:
        return self.lam == 1 and self.eta != 0

    @property
    def is_noncommutative(self) -> bool:
        return (self.lam, self.eta) != (1, 0)

    def __eq__(self, other):
        if self is other:
            return True
        if isinstance(other, GwaParams):
            return (self.lam, self.eta, self.phi) == (other.lam, other.eta, other.phi)
        return NotImplemented

    def __hash__(self):
        return hash((self.lam, self.eta, self.phi))

    def __repr__(self):
        return f"GwaParams(lam={self.lam}, eta={self.eta}, phi={self.phi!r})"

    # -- sigma -------------------------------------------------------------

    def sigma_z(self, j: int) -> Poly:
        """sigma^j(z) as a degree-1 polynomial; j may be negative."""
        cached = self._sigma_z.get(j)
        if cached is not None:
            return cached
        if self.lam == 1:
            p = Poly._of([j * self.eta, 1])
        else:
            lj = self.lam**j if j >= 0 else div(1, self.lam ** -j)
            p = Poly._of([div(self.eta * (lj - 1), self.lam - 1) if self.eta
                          else 0, lj])
        self._sigma_z[j] = p
        return p

    def sigma_pow(self, h: Poly, j: int) -> Poly:
        """sigma^j extended to k[z] as an algebra map (memoized per algebra).

        sigma^j(z) = c z + d, so a miss is one affine substitution h(c z + d).
        """
        if j == 0 or h.degree < 1:
            return h
        key = (h, j)
        out = self._sigma_cache.get(key)
        if out is None:
            d, c = self.sigma_z(j).coeffs
            out = h._affine(c, d)
            self._sigma_cache[key] = out
        return out

    # -- element constructors ----------------------------------------------

    def zero(self) -> "GwaElement":
        return GwaElement._of(self, {})

    def one(self) -> "GwaElement":
        return GwaElement._of(self, {(0, 0): 1})

    def monomial(self, p: int, q: int, c=1) -> "GwaElement":
        if type(p) is not int or type(q) is not int or p < 0:
            raise ValueError(f"monomial z^p x_q needs ints p >= 0 and q, "
                             f"got p={p!r}, q={q!r}")
        return GwaElement(self, {(p, q): c})

    def x(self, n: int = 1) -> "GwaElement":
        return self.monomial(0, n)

    def y(self, n: int = 1) -> "GwaElement":
        return self.monomial(0, -n if type(n) is int else n)

    def z(self, n: int = 1) -> "GwaElement":
        return self.monomial(n, 0)

    def from_poly(self, h: Poly, q: int = 0) -> "GwaElement":
        """h(z) * x_q as an element."""
        return GwaElement._of(self, {(p, q): c for p, c in enumerate(h.coeffs) if c})

    # -- basis product -----------------------------------------------------

    def weight(self, p: int, q: int) -> int:
        return p + (self.l + 1) * abs(q)

    def _row(self, q: int, i: int, m: int) -> tuple:
        """sigma^q(z)^i times the factor that m cancelled pairs leave, as
        (z-offset, coefficients), memoized per (q, i, m).

        Pair k (x y or y x) of x_q x_j leaves sigma^{q - s k + [s > 0]}(phi)
        with s = sign(q), so the row of i = 0 is the pair factor, the
        product for k = 1..m, built from the row of (q, 0, m - 1).  For
        i > 0, sigma^q(z) = c z + d and (c z + d)^i (binomial theorem; c^i
        z^i, offset i, when d = 0) is convolved with the row of (q, 0, m).
        This is the one memo of basis rows: ``_multiply_into`` reads it at
        every p and j with the same m.  The coefficients are products of
        canonical scalars, so canonical; shared, never mutated.  They are
        a list, not a tuple: tuples freed with the algebra stay on
        CPython's tuple free lists, which raised perfbench's peak RSS.
        """
        key = (q, i, m)
        row = self._row_cache.get(key)
        if row is None:
            d, c = self.sigma_z(q).coeffs
            if i == 0:
                off, b = 0, [1]
            elif d:
                off, b = 0, [comb(i, k) * c**k * d ** (i - k) for k in range(i + 1)]
            else:
                off, b = i, [c**i]
            if m and i:
                b = convolve(b, self._row(q, 0, m)[1])
            elif m:  # the pair factor of m pairs, from the one of m - 1
                s = 1 if q > 0 else -1
                b = convolve(self._row(q, 0, m - 1)[1],
                             self.sigma_pow(self.phi, q - s * m + (s > 0)).coeffs)
            row = (off, b)
            self._row_cache[key] = row
        return row

    def _mono_mul(self, p: int, q: int, i: int, j: int) -> dict:
        """(z^p x_q)(z^i x_j) = z^p sigma^q(z)^i x_q x_j as a term dict.

        A key shift when q = 0, or when i = 0 and no pair cancels.
        Otherwise the row of (q, i, m) shifted by z^p, where m = min(|q|, |j|)
        pairs cancel when q j < 0 and none otherwise.
        """
        key = (p, q, i, j)
        cached = self._mono_cache.get(key)
        if cached is not None:
            return cached
        if q == 0 or (i == 0 and q * j >= 0):
            terms = {(p + i, q + j): 1}
        else:
            off, row = self._row(q, i, min(abs(q), abs(j)) if q * j < 0 else 0)
            p, qj = p + off, q + j
            terms = {(p + e, qj): v for e, v in enumerate(row) if v}
        self._mono_cache[key] = terms
        return terms

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {"lambda": rat_str(self.lam), "eta": rat_str(self.eta),
                "phi": self.phi.to_json()}

    @staticmethod
    def from_json(data) -> "GwaParams":
        lam, eta, phi = (_field(data, k, "an algebra")
                         for k in ("lambda", "eta", "phi"))
        return GwaParams(lam, eta, Poly.from_json(phi))


class GwaElement(LinComb):
    """A finite combination sum c_{p,q} z^p x_q over a fixed algebra."""

    __slots__ = ()

    def __mul__(self, other):
        if isinstance(other, GwaElement):
            return multiply(self, other)
        return self.scale(other)

    def __repr__(self):
        if not self.terms:
            return "Gwa(0)"
        bits, terms = [], self.terms
        for p, q in sorted(terms, key=_BY_COLUMN):
            c, mono = terms[p, q], ""
            if p:
                mono += f"z^{p}" if p > 1 else "z"
            if q > 0:
                mono += f"x^{q}" if q > 1 else "x"
            elif q < 0:
                mono += f"y^{-q}" if q < -1 else "y"
            bits.append(f"{rat_str(c)}*{mono}" if mono else rat_str(c))
        return "Gwa(" + " + ".join(bits) + ")"

    def to_json(self) -> list:
        terms = self.terms
        return [{"p": p, "q": q, "c": rat_str(terms[p, q])}
                for p, q in sorted(terms, key=_BY_COLUMN)]

    @staticmethod
    def from_json(algebra: GwaParams, data) -> "GwaElement":
        """Records {"p": int >= 0, "q": int, "c": rational}, each (p, q) once."""
        if not isinstance(data, list):
            raise ValueError(f"an element is a list of records, got {data!r}")
        terms = {}
        for rec in data:
            if not isinstance(rec, dict):
                raise ValueError(f"a term is a record {{p, q, c}}, got {rec!r}")
            try:
                p, q, c = rec["p"], rec["q"], rec["c"]
            except KeyError:
                p, q, c = (_field(rec, k, "a term") for k in ("p", "q", "c"))
            if type(p) is not int or type(q) is not int or p < 0:
                raise ValueError(f"monomial z^p x_q needs ints p >= 0 and q, "
                                 f"got p={p!r}, q={q!r}")
            if (p, q) in terms:
                raise ValueError(f"monomial (p, q) = ({p}, {q}) given twice")
            terms[(p, q)] = c
        return GwaElement(algebra, terms)


def _multiply_into(alg: GwaParams, out: dict, u_terms: dict, v_terms: dict,
                   c=None) -> dict:
    """out += c * (u v) on term dicts of ``alg``, in place (c = None means 1).

    Each pair of terms (z^p x_q)(z^i x_j) is added by the rule of
    ``_mono_mul`` without its memo: a key shift is added inline, any other
    product straight from the shared row ``alg._row(q, i, m)``.  Every add
    keeps the ``_accumulate`` contract.
    """
    rows, row_of, get = alg._row_cache, alg._row, out.get
    for (p, q), cu in u_terms.items():
        if c is not None:
            cu = c * cu
        for (i, j), cv in v_terms.items():
            w = cu * cv
            if q == 0 or (i == 0 and q * j >= 0):  # w z^(p+i) x_(q+j)
                k = (p + i, q + j)
                old = get(k)
                v = w if old is None else old + w
                if v:
                    out[k] = v
                elif old is not None:
                    del out[k]
                continue
            m = min(abs(q), abs(j)) if q * j < 0 else 0
            off, row = rows.get((q, i, m)) or row_of(q, i, m)
            s, qj = p + off, q + j
            for e, r in enumerate(row):
                if not r:
                    continue
                k = (s + e, qj)
                v = w * r
                old = get(k)
                if old is not None:
                    v = old + v
                if v:
                    out[k] = v
                elif old is not None:
                    del out[k]
    return out


def multiply(u: GwaElement, v: GwaElement) -> GwaElement:
    """Product in A, in normal form."""
    alg = _same_algebra(u, v)
    return GwaElement._of(alg, _multiply_into(alg, {}, u.terms, v.terms))


@lru_cache(maxsize=1024)
def _window_cells(w: int, n: int) -> tuple[tuple[int, int], ...]:
    qmax = n // w
    return tuple((p, q) for q in range(-qmax, qmax + 1)
                 for p in range(n - w * abs(q) + 1))


def basis_window(params: GwaParams, n: int) -> list[tuple[int, int]]:
    """All (p, q) with p + (l+1)|q| <= n, ordered q ascending then p ascending.

    Cached per (l + 1, n); each call returns a fresh list.
    """
    return list(_window_cells(params.l + 1, n))


def basis_triples(params: GwaParams, window: int):
    """Basis triples (t1, t2, t3) whose weights sum to at most the window."""
    for t1 in basis_window(params, window):
        w1 = params.weight(*t1)
        for t2 in basis_window(params, window - w1):
            w2 = params.weight(*t2)
            for t3 in basis_window(params, window - w1 - w2):
                yield t1, t2, t3


class Automorphism(Record):
    """A diagonal algebra automorphism x -> a x, y -> b y, z -> c z + d.

    Validity (the images satisfy the four defining relations) is checked
    on construction, as scalar and polynomial identities.  With Z = c z + d
    and sigma(z) = lambda z + eta, x h(z) = h(sigma(z)) x and a, b, c != 0:

    * (a x) Z = (lambda Z + eta)(a x) reads c sigma(z) + d = lambda Z + eta,
      that is c eta + d = lambda d + eta;
    * (b y) Z = sigma^{-1}(Z)(b y) reads c sigma^{-1}(z) + d = sigma^{-1}(Z);
      times lambda, c (z - eta) + lambda d = c z + d - eta, the same
      condition;
    * (b y)(a x) = phi(Z) reads a b phi = phi(c z + d);
    * (a x)(b y) = phi_bar(Z) reads a b phi_bar = phi_bar(c z + d).

    Given the z-condition, z -> Z commutes with sigma and phi_bar = phi o
    sigma, so the two phi-conditions are equivalent; both are checked, one
    per relation, unless Z = z: then they read a b = 1 (phi != 0).
    """

    __slots__ = ("params", "x_scale", "y_scale", "z_image")

    def __init__(self, params: GwaParams, x_scale, y_scale, z_image: Poly):
        x_scale, y_scale, a = rat(x_scale), rat(y_scale), params
        if z_image.degree != 1 or x_scale == 0 or y_scale == 0:
            raise ValueError("automorphism must be invertible")
        d, c = z_image.coeffs
        ab = x_scale * y_scale
        if (ab != 1 if (d, c) == (0, 1) else c * a.eta + d != a.lam * d + a.eta
                or a.phi * ab != a.phi.affine(c, d)
                or a.phi_bar * ab != a.phi_bar.affine(c, d)):
            raise ValueError("images do not satisfy the defining relations")
        Record.__init__(self, params, x_scale, y_scale, z_image)

    def is_identity(self) -> bool:
        return (self.x_scale == 1 and self.y_scale == 1
                and self.z_image == Poly.z())


def identity_auto(params: GwaParams) -> Automorphism:
    return Automorphism(params, 1, 1, Poly.z())


def nakayama(params: GwaParams) -> Automorphism:
    """nu: x -> lambda x, y -> lambda^{-1} y, z -> z."""
    return Automorphism(params, params.lam, div(1, params.lam), Poly.z())


def apply_automorphism(rho: Automorphism, u: GwaElement) -> GwaElement:
    if rho.z_image.coeffs == (0, 1):  # z -> z: rescale x_q, or nothing at all
        if rho.x_scale == 1 and rho.y_scale == 1:
            return u
        return GwaElement._of(u.algebra, {
            (p, q): c * (rho.x_scale**q if q >= 0 else rho.y_scale ** (-q))
            for (p, q), c in u.terms.items()})
    alg = u.algebra
    out: dict = {}
    zpow: dict[int, Poly] = {0: Poly.one()}
    for (p, q), c in u.terms.items():
        if p not in zpow:
            zpow[p] = rho.z_image**p
        scale = c * (rho.x_scale**q if q >= 0 else rho.y_scale ** (-q))
        _accumulate(out, {(d, q): a for d, a in enumerate(zpow[p].coeffs) if a},
                    scale)
    return GwaElement._of(alg, out)


class BimoduleSpec(Record):
    """An A-bimodule structure on A itself: a.m.b = f(a) m g(b)."""

    __slots__ = ("left_twist", "right_twist")


def module_plain(params: GwaParams) -> BimoduleSpec:
    i = identity_auto(params)
    return BimoduleSpec(i, i)


def module_nu(params: GwaParams) -> BimoduleSpec:
    """A^nu: untwisted left action, right action through nu."""
    return BimoduleSpec(identity_auto(params), nakayama(params))


def bimodule_act(spec: BimoduleSpec, a_left: GwaElement, m: GwaElement,
                 a_right: GwaElement) -> GwaElement:
    return multiply(apply_automorphism(spec.left_twist, a_left),
                    multiply(m, apply_automorphism(spec.right_twist, a_right)))


class TensorElement(LinComb):
    """A combination of (basis monomial) tensor (basis monomial) in A (x) A."""

    __slots__ = ()

    def _leg(self, pq) -> GwaElement:
        return GwaElement(self.algebra, {pq: 1})

    def __repr__(self):
        if not self.terms:
            return "Tensor(0)"
        bits = []
        for (L, R), c in sorted(self.terms.items()):
            bits.append(f"{rat_str(c)}*{self._leg(L)!r}(x){self._leg(R)!r}")
        return "Tensor(" + " + ".join(bits) + ")"


class LegMap(Record):
    """h |-> sigma^j(d^d h / dz^d): derivative first, then sigma^j."""

    __slots__ = ("j", "d")

    def apply(self, params: GwaParams, h: Poly) -> Poly:
        for _ in range(self.d):
            h = h.derivative()
        return params.sigma_pow(h, self.j)


LEG_ID = LegMap(0, 0)


def _delta_terms(params: GwaParams, f_spec: LegMap, g_spec: LegMap,
                 h: Poly) -> dict:
    """The terms of ``twisted_delta``, memoized per algebra; never mutate them.

    The memo holds plain term dicts: an element in it would refer back to
    the algebra and keep it alive until the cyclic garbage collector runs.
    They may hold zeros: ``_accumulate`` and the ``LinComb`` constructor
    drop them.
    """
    key = (f_spec, g_spec, h)
    out = params._delta_cache.get(key)
    if out is not None:
        return out
    out = {}
    for k, c in enumerate(h.coeffs):
        if c == 0:
            continue
        for i in range(1, k + 1):
            left = f_spec.apply(params, Poly.monomial(k - i))
            right = g_spec.apply(params, Poly.monomial(i - 1))
            for pL, cL in enumerate(left.coeffs):
                if cL == 0:
                    continue
                for pR, cR in enumerate(right.coeffs):
                    if cR == 0:
                        continue
                    t = ((pL, 0), (pR, 0))
                    out[t] = out.get(t, 0) + c * cL * cR
    params._delta_cache[key] = out
    return out


def twisted_delta(params: GwaParams, f_spec: LegMap, g_spec: LegMap,
                  h: Poly) -> TensorElement:
    """(iota (x) iota) o (f (x) g) o Delta_0 applied to h, as a new element."""
    return TensorElement(params, _delta_terms(params, f_spec, g_spec, h))


def _twisted_leg(rho: Automorphism, alg: GwaParams, pq, c) -> tuple:
    """c rho(z^p x_q) as (terms, c'): a z-fixing rho only scales c."""
    if rho.z_image.coeffs != (0, 1):
        return apply_automorphism(rho, GwaElement._of(alg, {pq: 1})).terms, c
    s = rho.x_scale ** pq[1] if pq[1] >= 0 else rho.y_scale ** -pq[1]
    return {pq: 1}, c if s == 1 else c * s


def tensor_act(T, spec: BimoduleSpec, m: GwaElement, out: dict | None = None):
    """(a1 (x) a2) . m = f(a1) (m g(a2)); no product by a unit leg, f(1) = g(1) = 1.

    T may be a term dict over m's algebra; with ``out``, T . m is added
    into it in place and ``out`` is returned, else a new element.
    """
    alg, T = ((_same_algebra(T, m), T.terms) if isinstance(T, TensorElement)
              else (m.algebra, T))
    acc = {} if out is None else out
    for (L, R), c in T.items():
        v = m.terms
        if R != (0, 0):
            g, c = _twisted_leg(spec.right_twist, alg, R, c)
            if L == (0, 0):
                _multiply_into(alg, acc, v, g, c)
                continue
            v = _multiply_into(alg, {}, v, g)
        if L == (0, 0):
            _accumulate(acc, v, c)
        else:
            f, c = _twisted_leg(spec.left_twist, alg, L, c)
            _multiply_into(alg, acc, f, v, c)
    return acc if out is not None else GwaElement._of(alg, acc)
