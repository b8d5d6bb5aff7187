"""Exact rational scalars and dense univariate polynomials over them.

A scalar is an ``int`` when it is integral, else a ``Q``: a non-integral
rational in lowest terms, a ``fractions.Fraction`` whose +, -, * and **
keep that form.  It is never a float or a bool.  ``rat`` is the entry
point: it keeps ints and Qs, turns any other Fraction or string into one,
and refuses floats; it reads the canonical "n" and "n/d" that ``rat_str``
writes with ``int``, and any other string with Fraction's slower parser,
to the same result or error.  Every division goes through ``div``, which
keeps that form, so that no ``/`` between two ints can make a float.
A third type, ``Laurent`` in a formal parameter t, is the lambda or eta of
the formal algebras of ``deform`` and nothing else; ``rat`` passes it
through.

One boundary.  ``rat`` runs only where a value comes from a caller:
``Poly(...)`` (and so ``Poly.from_json`` and ``Poly.constant``), the scalar
of ``p * c``, ``affine`` and ``p(value)``, an operand of ``div`` that is
not an int or a Q, and the constructors listed in ``core``.  What the
package builds itself is adopted as it is: ``Poly._of`` keeps a list of
canonical scalars (int, Q or Laurent) after popping its trailing zeros,
with no ``rat`` and no copy, and the list is never mutated afterwards.

A polynomial in z is stored as a tuple of such scalars indexed by degree;
the zero polynomial has an empty tuple and degree -1.
"""
from __future__ import annotations

import operator
import re
from fractions import Fraction
from functools import partialmethod, reduce
from math import gcd

from .errors import MultipleRootError, ZeroPhiError


# rat_str's "n" and "n/d": ASCII digits, d > 0 without a leading zero
_CANONICAL = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")


class Q(Fraction):
    """A non-integral rational in lowest terms, made by ``_q`` only.  +, -, *
    and ** by an int, with an int, Q or Fraction on either side, give an int
    when integral, else a Q; all else (==, hash, order, str) is Fraction's.
    + and * test ``type(b) is Q`` before ``isinstance(b, Fraction)``, which
    goes through ``ABCMeta.__instancecheck__`` and costs ten times more."""

    __slots__ = ()

    def __add__(a, b):
        if type(b) is int:
            return _q(a._numerator + b * a._denominator, a._denominator)
        if type(b) is not Q and not isinstance(b, Fraction):
            return Fraction.__add__(a, b)
        da, db = a._denominator, b._denominator
        g = gcd(da, db)
        n = a._numerator * (db // g) + b._numerator * (da // g)
        h = gcd(n, g)
        return _q(n // h, da // g * (db // h))

    def __mul__(a, b):
        if type(b) is int:
            g = gcd(b, a._denominator)
            return _q(a._numerator * (b // g), a._denominator // g)
        if type(b) is Q or isinstance(b, Fraction):
            g = gcd(a._numerator, b._denominator)
            h = gcd(b._numerator, a._denominator)
            return _q((a._numerator // g) * (b._numerator // h),
                      (a._denominator // h) * (b._denominator // g))
        return Fraction.__mul__(a, b)

    __radd__, __rmul__ = __add__, __mul__

    def __sub__(a, b):
        return a + -b

    def __rsub__(a, b):
        return -a + b

    def __neg__(a):
        return _q(-a._numerator, a._denominator)

    def __pow__(a, b):
        if type(b) is not int:
            return Fraction.__pow__(a, b)
        return _q(a._numerator**b, a._denominator**b) if b >= 0 else div(1, a**-b)


def _q(n: int, d: int) -> int | Q:
    """n/d for coprime ints n and d > 0: n if d = 1, else a Q, unchecked."""
    if d == 1:
        return n
    q = object.__new__(Q)
    q._numerator, q._denominator = n, d
    return q


def rat(value) -> int | Q:
    """Coerce ints, strings like "3/2", or Fractions to an exact rational:
    an int when the value is integral, else a Q.

    Floats are refused (0.1 is not 1/10), and so are bools, other types
    and a zero denominator; each raises ValueError.
    """
    if type(value) is int or type(value) is Q or type(value) is Laurent:
        return value
    if type(value) is str and (canonical := _CANONICAL.fullmatch(value)):
        num, den = canonical.groups()
        return int(num) if den is None else div(int(num), int(den))
    if not isinstance(value, Fraction):
        if isinstance(value, (bool, float)):
            raise ValueError(f"inexact or non-numeric scalar {value!r}; "
                             "use an int or a rational string such as '1/10'")
        try:
            value = Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
        except TypeError:
            raise ValueError(f"not a rational scalar: {value!r}") from None
    return _q(value.numerator, value.denominator)


def div(a, b) -> int | Q:
    """The exact quotient a / b of two scalars: an int when it is integral,
    else a Q, or a Laurent if a or b is one.  The only division of the
    package; b = 0 raises ZeroDivisionError."""
    if type(a) is not int or type(b) is not int:
        if type(a) is Laurent or type(b) is Laurent:
            return a / b
        if type(a) not in (int, Q):
            a = rat(a)
        if type(b) not in (int, Q):
            b = rat(b)
        a, b = a.numerator * b.denominator, a.denominator * b.numerator
    if not b:
        raise ZeroDivisionError("division by zero")
    g = gcd(a, b) if b > 0 else -gcd(a, b)
    return _q(a // g, b // g)


def rat_str(value) -> str:
    """Serialize a rational as "p/q", or "p" when it is integral; anything
    but an int or a Fraction (a Q included) raises ValueError."""
    if type(value) is int or type(value) is Q or isinstance(value, Fraction):
        return str(value)
    raise ValueError(f"not a rational scalar: {value!r}")


class Record:
    """A frozen value record whose fields are its ``__slots__``, given
    positionally; records of one type are equal when their fields are."""

    __slots__ = ()

    def __init_subclass__(cls):
        if cls.__slots__:
            cls._key = operator.attrgetter(*cls.__slots__)
            cls._setters = tuple(cls.__dict__[n].__set__ for n in cls.__slots__)

    def __init__(self, *values):
        if len(values) != len(self._setters):
            raise TypeError(f"wrong number of fields for {type(self).__name__}")
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return type(self).__name__ + repr(self._key(self))


def _terms_of(value):
    """The {e: c} of a Laurent or a rational scalar; None for anything else."""
    if isinstance(value, (int, Fraction)):
        return {0: value} if value else {}
    return value.terms if type(value) is Laurent else None


class Laurent:
    """A Laurent polynomial sum c_e t^e, as {e: c} with rational c != 0; it
    mixes with rational scalars in +, -, * and ==.  ``div`` divides it by a
    nonzero monomial (or 0 by anything nonzero), else raises ValueError."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = {e: c for e, c in terms.items() if c}

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        b = _terms_of(other)
        return NotImplemented if b is None else self.terms == b

    def __hash__(self):  # a constant hashes as the scalar it equals
        t = self.terms
        return hash(t.get(0, 0) if t.keys() <= {0} else frozenset(t.items()))

    def __add__(self, other):
        b = _terms_of(other)
        if b is None:
            return NotImplemented
        out = self.terms.copy()
        for e, c in b.items():
            out[e] = out.get(e, 0) + c
        return Laurent(out)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Laurent({e: other * c for e, c in self.terms.items()})
        if type(other) is not Laurent:
            return NotImplemented
        out = {}
        for e, c in self.terms.items():
            for f, d in other.terms.items():
                out[e + f] = out.get(e + f, 0) + c * d
        return Laurent(out)

    __radd__, __rmul__ = __add__, __mul__
    __neg__ = partialmethod(__mul__, -1)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __pow__(self, n: int):
        if len(self.terms) == 1:  # (c t^e)^n = c^n t^(e n)
            ((e, c),) = self.terms.items()
            return Laurent({e * n: c**n if n >= 0 else div(1, c**-n)})
        if n < 0:
            raise (ValueError if self else ZeroDivisionError)(
                "only a nonzero monomial has an inverse in k[t, 1/t]")
        return reduce(operator.mul, [self] * n, Laurent({0: 1}))

    def __truediv__(self, other):
        b = _terms_of(other)
        return (NotImplemented if b is None else self if b and not self
                else self * Laurent(b)**-1)

    def __rtruediv__(self, other):
        a = _terms_of(other)
        return NotImplemented if a is None else Laurent(a).__truediv__(self)


def convolve(a, b) -> list:
    """Coefficients of the product of two polynomials given by coefficient
    sequences (constant term first); empty if either is empty."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                out[i + j] += u * v
    return out


class Poly:
    """A dense polynomial over the rationals.

    >>> p = Poly([1, 0, -2])   # 1 - 2z^2
    >>> p.degree
    2
    >>> (p * p).degree
    4
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = Poly._of([rat(c) for c in coeffs]).coeffs

    @staticmethod
    def _of(cs: list) -> "Poly":
        """Adopt canonical coefficients, trailing zeros popped (module docstring)."""
        while cs and not cs[-1]:
            cs.pop()
        p = object.__new__(Poly)
        p.coeffs = tuple(cs)
        return p

    @staticmethod
    def zero() -> "Poly":
        return Poly._of([])

    @staticmethod
    def one() -> "Poly":
        return Poly._of([1])

    @staticmethod
    def z() -> "Poly":
        return Poly._of([0, 1])

    @staticmethod
    def monomial(k: int, c=1) -> "Poly":
        return (Poly._of if type(c) is int else Poly)([0] * k + [c])

    @staticmethod
    def constant(c) -> "Poly":
        return Poly([c])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> int | Q:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, k: int) -> int | Q:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __neg__(self) -> "Poly":
        return Poly._of([-c for c in self.coeffs])

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly._of(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            return Poly._of(convolve(self.coeffs, other.coeffs))
        c = rat(other)
        return Poly._of([c * a for a in self.coeffs])

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "Poly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [0] * max(0, len(self.coeffs) - len(other.coeffs) + 1)
        r = list(self.coeffs)
        d = other.degree
        lead = other.lead
        while len(r) - 1 >= d and any(c != 0 for c in r):
            while r and r[-1] == 0:
                r.pop()
            if len(r) - 1 < d:
                break
            k = len(r) - 1 - d
            t = div(r[-1], lead)
            q[k] = t
            for i, c in enumerate(other.coeffs):
                r[k + i] -= t * c
            r.pop()
        return Poly._of(q), Poly._of(r)

    def exact_quo(self, other: "Poly") -> "Poly":
        """The quotient by a polynomial that divides this one exactly."""
        quo, rem = divmod(self, other)
        if not rem.is_zero():
            raise ValueError("inexact polynomial division")
        return quo

    def over(self, c) -> "Poly":
        """Every coefficient divided by the nonzero scalar c."""
        return Poly._of([div(a, c) for a in self.coeffs])

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.over(self.lead)

    def derivative(self) -> "Poly":
        return Poly._of([k * c for k, c in enumerate(self.coeffs)][1:])

    def compose(self, other: "Poly") -> "Poly":
        """Substitute ``other`` for z (Horner scheme)."""
        result = Poly()
        for c in reversed(self.coeffs):
            result = result * other + Poly.constant(c)
        return result

    def affine(self, c, d) -> "Poly":
        """h(c z + d) on the coefficient list: a scaling when d = 0, else Horner."""
        return self._affine(rat(c), rat(d))

    def _affine(self, c, d) -> "Poly":  # affine on canonical c and d
        if not d:
            out, ck = [], 1
            for a in self.coeffs:
                out.append(a * ck)
                ck *= c
            return Poly._of(out)
        out = []
        for a in reversed(self.coeffs):
            # out <- out * (c z + d) + a
            shifted = [a] + [c * u for u in out]
            for k, u in enumerate(out):
                shifted[k] += d * u
            out = shifted
        return Poly._of(out)

    def __call__(self, value) -> int | Q:
        acc = 0
        v = rat(value)
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def __repr__(self):
        if self.is_zero():
            return "Poly('0')"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self[k]
            if c == 0:
                continue
            mono = "" if k == 0 else ("z" if k == 1 else f"z^{k}")
            mag = abs(c)
            coeff = "" if (mag == 1 and mono) else rat_str(mag)
            sign = "-" if c < 0 else ("+" if parts else "")
            parts.append(f"{sign} {coeff}{mono}".strip() if parts else f"{sign}{coeff}{mono}")
        return f"Poly('{' '.join(parts)}')"

    def to_json(self) -> list[str]:
        return [rat_str(c) for c in self.coeffs]

    @staticmethod
    def from_json(data) -> "Poly":
        """A list of coefficients, constant term first."""
        if not isinstance(data, list):
            raise ValueError(f"polynomial must be a coefficient list, got {data!r}")
        return Poly(data)


def poly_ext_gcd(h1: Poly, h2: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended Euclid: return (g, c1, c2) with c1*h1 + c2*h2 = g, g monic."""
    if h1.is_zero() and h2.is_zero():
        raise ValueError("gcd of two zero polynomials")
    r0, r1 = h1, h2
    s0, s1 = Poly.one(), Poly.zero()
    t0, t1 = Poly.zero(), Poly.one()
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    lead = r0.lead
    return r0.over(lead), s0.over(lead), t0.over(lead)


class BezoutPair(Record):
    """Polynomials with alpha*phi + beta*phi' = 1 (checked on construction)."""

    __slots__ = ("alpha", "beta", "phi")

    def __init__(self, alpha: Poly, beta: Poly, phi: Poly):
        if alpha * phi + beta * phi.derivative() != Poly.one():
            raise ValueError("alpha*phi + beta*phi' != 1")
        Record.__init__(self, alpha, beta, phi)


def bezout_for_phi(phi: Poly) -> BezoutPair:
    """Return (alpha, beta) with alpha*phi + beta*phi' = 1, for squarefree phi."""
    if phi.is_zero():
        raise ZeroPhiError("phi = 0")
    g, c1, c2 = poly_ext_gcd(phi, phi.derivative())
    if g.degree > 0:
        raise MultipleRootError("phi(z) has a multiple root")
    # g is monic of degree 0, i.e. g = 1 already.
    return BezoutPair(c1, c2, phi)


def squarefree_part(h: Poly) -> Poly:
    """h / gcd(h, h'), made monic."""
    if h.is_zero():
        raise ValueError("squarefree part of the zero polynomial")
    g, _, _ = poly_ext_gcd(h, h.derivative())
    return h.exact_quo(g).monic()


def root_power_poly(phi: Poly, e: int) -> Poly:
    """The monic polynomial prod (w - z_i^e) over the roots z_i of phi,
    counted with multiplicity.  Newton's identities give the power sums s_k
    of the roots from phi's monic coefficients; the e-th powers have the
    power sums s_{e k}, and the identities solved the other way give the
    coefficients."""
    if phi.is_zero():
        raise ZeroPhiError("phi = 0")
    if e < 1:
        raise ValueError("e must be >= 1")
    l = phi.degree
    c = phi.monic().coeffs
    s = [l]  # s[k] is the k-th power sum of the roots
    for k in range(1, e * l + 1):
        s.append(-sum(c[l - j] * s[k - j] for j in range(1, min(k, l + 1)))
                 - (k * c[l - k] if k <= l else 0))
    b = [1]  # b[k] is the coefficient of w^(l-k)
    for k in range(1, l + 1):
        b.append(div(-sum(b[j] * s[e * (k - j)] for j in range(k)), k))
    return Poly._of(b[::-1])
