import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import gwadeform
from gwadeform.errors import MultipleRootError, ZeroPhiError
from gwadeform.scalars import (
    BezoutPair,
    Laurent,
    Poly,
    Q,
    bezout_for_phi,
    div,
    poly_ext_gcd,
    rat,
    rat_str,
    root_power_poly,
    squarefree_part,
)

# Imported here, not inside the first timed hypothesis example: the import
# alone takes longer than the default deadline.
try:
    import sympy
except ImportError:
    sympy = None
needs_sympy = pytest.mark.skipif(sympy is None, reason="sympy is not installed")

Z = Poly.z()

small_fracs = st.builds(
    Fraction,
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=1, max_value=5),
)
small_polys = st.lists(small_fracs, min_size=0, max_size=9).map(Poly)


def test_rat_roundtrip():
    assert rat_str(rat("3/2")) == "3/2"
    assert rat_str(rat(5)) == "5"
    assert rat("-7/14") == Fraction(-1, 2)


def test_rat_str_refuses_what_is_not_a_rational():
    # a float or a bool would otherwise print as a rational it never was
    assert rat_str(7) == "7" and rat_str(Fraction(6, 4)) == "3/2"
    for bad in (0.1, True, "1/2"):
        with pytest.raises(ValueError):
            rat_str(bad)


def _is_normal_scalar(v) -> bool:
    """An int (not a bool) or a Q that is not integral."""
    if type(v) is Q:
        return v.denominator != 1
    return type(v) is int


scalar_inputs = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(max_denominator=50),
    st.fractions(max_denominator=50).map(str),
    st.builds(lambda n, d: f"{n}/{d}", st.integers(-60, 60), st.integers(1, 12)),
)
scalars = st.one_of(st.integers(-10**6, 10**6), st.fractions(max_denominator=50)).map(rat)


@given(scalar_inputs)
def test_rat_is_int_when_integral(value):
    got = rat(value)
    assert _is_normal_scalar(got), (value, got)
    assert got == Fraction(value)


def reference_rat_str(text):
    """rat on a string through Fraction's parser alone."""
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    return value.numerator if value.denominator == 1 else value


# canonical "n" and "n/d" (leading zeros on n included), and the forms
# next to them that only Fraction's parser accepts or rejects: whitespace,
# "+", underscores, zero denominators, decimals, exponents and non-ASCII
# digits
canonical_rat_strings = st.one_of(
    st.integers(-10**30, 10**30).map(str),
    st.builds(lambda n, d: f"{n}/{d}", st.integers(-10**12, 10**12),
              st.integers(1, 10**6)),
    st.from_regex(r"\A-?0[0-9]{0,3}(/[1-9][0-9]{0,2})?\Z"),
)
noisy_rat_strings = st.builds(
    lambda *parts: "".join(parts),
    st.sampled_from(["", " ", "\t", "\n "]),
    st.sampled_from(["", "-", "+", "--"]),
    st.one_of(st.from_regex(r"\A0*[0-9]{0,4}(_[0-9]{1,2})?\Z"),
              st.sampled_from(["", "\u0663", "1\u0663", "\uff11", "\u00b2"])),
    st.one_of(st.just(""), st.from_regex(
        r"\A/(0|00|-3|\+2|0*[0-9]{1,4}(_[0-9])?|\u0663| 2)?\Z")),
    st.sampled_from(["", "", ".5", ".", "e3", "E-2", "1.0e1"]),
    st.sampled_from(["", " ", "\n"]),
)
rat_strings = st.one_of(canonical_rat_strings, noisy_rat_strings)


@given(rat_strings)
@example("3/00")
@example("-0/7")
@example("12/8")
@example("-12/6")
def test_rat_string_fast_path_matches_fraction_parser(text):
    try:
        want = reference_rat_str(text)
    except ValueError as exc:
        with pytest.raises(Exception) as got:
            rat(text)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return
    got = rat(text)
    assert got == want and type(got) is (int if type(want) is int else Q), text


def test_rat_normal_forms():
    assert type(rat(3)) is int and type(rat("3")) is int
    assert type(rat(Fraction(6, 3))) is int and rat(Fraction(6, 3)) == 2
    assert type(rat(Fraction(6, 4))) is Q and rat(Fraction(6, 4)) == Fraction(3, 2)


# plain Fractions too, integral ones included: div still returns an int or a Q
div_operands = st.one_of(scalars, st.fractions(max_denominator=50))


@given(div_operands, div_operands.filter(bool))
def test_div_is_exact(a, b):
    q = div(a, b)
    assert _is_normal_scalar(q), (a, b, q)
    assert q * b == a and q == Fraction(a) / Fraction(b)


@given(scalars)
def test_div_by_zero_raises(a):
    with pytest.raises(ZeroDivisionError):
        div(a, 0)
    with pytest.raises(ZeroDivisionError):
        div(a, Fraction(0))


# ---------------------------------------------------------------------------
# Q, the non-integral scalar, against plain Fraction arithmetic
# ---------------------------------------------------------------------------

def test_fraction_slot_layout():
    # Q builds its instances by setting these two slots of Fraction, and
    # must not grow a __dict__ of its own
    assert Fraction.__slots__ == ("_numerator", "_denominator")
    assert Q.__slots__ == () and not hasattr(rat("1/2"), "__dict__")
    half = rat("-1/2")
    assert (half.numerator, half.denominator) == (-1, 2)


q_values = st.fractions(-50, 50, max_denominator=40).filter(
    lambda f: f.denominator != 1).map(rat)
q_operands = st.one_of(st.integers(-10**4, 10**4), q_values,
                       st.fractions(-50, 50, max_denominator=40))


def _as_fraction(x):
    return Fraction(x.numerator, x.denominator)


def _same_scalar(got, want):
    """got is want's value in the package's form: an int exactly when it
    is integral, otherwise a Q; never a float or a plain Fraction."""
    assert type(got) is (int if want.denominator == 1 else Q), (got, want)
    assert got == want and want == got and not got != want
    assert hash(got) == hash(want) == hash(_as_fraction(got))
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


@given(q_values, q_operands)
@example(rat("1/2"), rat("1/2"))
@example(rat("1/2"), rat("-1/2"))
@example(rat("1/6"), rat("5/6"))
@example(rat("2/3"), 0)
@example(rat("2/3"), Fraction(3, 2))
@example(rat("2/3"), Fraction(0))
@example(rat("-3/4"), Fraction(-4, 3))
def test_q_arithmetic_matches_fraction(q, b):
    # a Q on either side, an int, a Q or a plain Fraction on the other
    fq, fb = _as_fraction(q), _as_fraction(b)
    for got, want in [(q + b, fq + fb), (b + q, fb + fq), (q - b, fq - fb),
                      (b - q, fb - fq), (q * b, fq * fb), (b * q, fb * fq),
                      (-q, -fq), (div(q, q), 1), (div(b, q), fb / fq)]:
        _same_scalar(got, Fraction(want))
    if b:
        _same_scalar(div(q, b), fq / fb)


@given(q_values, st.integers(-6, 6))
@example(rat("-1/2"), -3)
@example(rat("1/2"), 0)
@example(rat("-5/3"), -1)
def test_q_powers_match_fraction(q, n):
    _same_scalar(q**n, _as_fraction(q)**n)


def test_q_keeps_fractions_plain_results_elsewhere():
    # abs, //, % and round are Fraction's; mixing with a float or a Laurent
    # behaves as a Fraction does
    q = rat("-7/2")
    assert type(abs(q)) is Fraction and abs(q) == Fraction(7, 2)
    assert q // 1 == -4 and q % 1 == Fraction(1, 2) and round(q) == -4
    assert type(q * 0.5) is float and type(0.5 + q) is float
    assert q * Laurent({1: 2}) == Laurent({1: -7})
    assert str(q) == "-7/2" and rat_str(q) == "-7/2"
    with pytest.raises(TypeError):
        q + "1"


def test_only_scalars_div_divides():
    # with int scalars a stray `/` would give a float, so the package
    # divides in one place
    allowed, found = set(), []
    for path in sorted(Path(gwadeform.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        if path.name == "scalars.py":
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name == "div":
                    allowed = set(ast.walk(node))
        for node in ast.walk(tree):
            if (isinstance(node, (ast.BinOp, ast.AugAssign))
                    and isinstance(node.op, ast.Div)):
                found.append((f"{path.name}:{node.lineno}", node in allowed))
    assert [where for where, ok in found if not ok] == []
    assert [ok for _, ok in found] == [True]


def test_only_scalars_imports_fractions():
    # scalars alone decides the canonical form of a scalar; every other
    # module trusts it and needs no Fraction
    found = []
    for path in sorted(Path(gwadeform.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "fractions":
                found.append(path.name)
            elif isinstance(node, ast.Import):
                found += [path.name for a in node.names if a.name == "fractions"]
    assert found == ["scalars.py"]


def test_scalars_imports_only_errors():
    # the bottom layer: every other module may divide through scalars, so
    # scalars reaches into the package for its exceptions only
    tree = ast.parse((Path(gwadeform.__file__).parent / "scalars.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("gwadeform")):
            found.add((node.level, node.module))
        elif isinstance(node, ast.Import):
            found.update((0, a.name) for a in node.names if a.name.startswith("gwadeform"))
    assert found == {(1, "errors")}


# ---------------------------------------------------------------------------
# Laurent polynomials in t, against plain {e: c} dicts
# ---------------------------------------------------------------------------

laurent_dicts = st.dictionaries(st.integers(-4, 4), small_fracs, max_size=4)
laurent_operands = st.one_of(laurent_dicts.map(Laurent), small_fracs.map(rat))


def _plain(x) -> dict:
    """The {e: c} of a Laurent or a scalar, zeros dropped: the oracle's form."""
    terms = x.terms if isinstance(x, Laurent) else {0: x}
    return {e: c for e, c in terms.items() if c}


def _plain_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _plain_mul(a: dict, b: dict) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


@given(laurent_dicts.map(Laurent), laurent_operands)
def test_laurent_ring_operations_match_plain_dicts(f, g):
    # with a Laurent or a scalar on either side of +, - and *
    pf, pg = _plain(f), _plain(g)
    minus_g = {e: -c for e, c in pg.items()}
    for got, want in [(f + g, _plain_add(pf, pg)), (g + f, _plain_add(pf, pg)),
                      (f - g, _plain_add(pf, minus_g)),
                      (g - f, _plain_add(pg, {e: -c for e, c in pf.items()})),
                      (f * g, _plain_mul(pf, pg)), (g * f, _plain_mul(pf, pg)),
                      (-f, {e: -c for e, c in pf.items()})]:
        assert type(got) is Laurent and got.terms == want
        assert all(got.terms.values())
        assert bool(got) == bool(want)


@given(laurent_dicts.map(Laurent), laurent_dicts.map(Laurent),
       laurent_dicts.map(Laurent))
def test_laurent_ring_identities(f, g, h):
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f - f == 0 and not f - f
    assert f * 1 == f and f * 0 == 0


@given(laurent_dicts.map(Laurent), st.integers(0, 4))
def test_laurent_powers_are_repeated_products(f, n):
    want = {0: 1}
    for _ in range(n):
        want = _plain_mul(want, _plain(f))
    assert (f ** n).terms == want


@given(st.integers(-4, 4), small_fracs.filter(bool), st.integers(-3, 3),
       laurent_dicts.map(Laurent))
def test_laurent_divides_by_a_monomial(e, c, n, f):
    m = Laurent({e: c})
    assert (m ** n).terms == {e * n: rat(c ** n)}
    assert div(f, m) * m == f
    assert div(c, m) == Laurent({-e: 1})


def test_laurent_division():
    t = Laurent({1: 1})
    for k in range(1, 6):
        assert div(1, t ** k) == Laurent({-k: 1}) == t ** -k
    assert div(3, 2 * t ** 2) == Laurent({-2: Fraction(3, 2)})
    assert div(t ** 2 - 1, 2) == Laurent({2: Fraction(1, 2), 0: Fraction(-1, 2)})
    # zero divides by anything nonzero; nothing else leaves k[t, 1/t]
    assert div(0 * (t - 1), t - 1) == 0 and div(0, t - 1) == 0
    for num in (1, t, t - 1):
        with pytest.raises(ValueError, match="only a nonzero monomial"):
            div(num, t - 1)
    with pytest.raises(ValueError, match="only a nonzero monomial"):
        (t + 1) ** -1
    for zero in (0, Fraction(0), Laurent({})):
        with pytest.raises(ZeroDivisionError):
            div(t, zero)


@given(laurent_dicts, small_fracs)
def test_laurent_hash_agrees_with_equality(d, c):
    # equal values hash equal: zero terms dropped, a Q or an integral
    # Fraction against its int, and a constant against the scalar itself
    f = Laurent(d)
    same = Laurent({**{e: Fraction(x) for e, x in d.items()}, 9: 0})
    assert f == same and hash(f) == hash(same)
    assert hash(Laurent({0: c})) == hash(c) == hash(rat(c))
    assert hash(Laurent({0: rat(c)})) == hash(c)
    assert {Laurent({0: c}): "k"}.get(rat(c)) == "k"


def test_laurent_equality_and_rat():
    t = Laurent({1: 1})
    assert Laurent({0: 3, 2: 0}) == 3 == Laurent({0: Fraction(6, 2)})
    assert Laurent({0: 0}) == 0 == Laurent({}) and 1 != Laurent({})
    assert hash(Laurent({})) == 0 == hash(Laurent({0: 0}))
    assert hash(Laurent({0: 3})) == hash(3)
    assert len({t, Laurent({1: 1}), t * t, Laurent({2: 1}), t + 1}) == 3
    assert not Laurent({}) and t
    assert t != 1 and t != Laurent({1: 2}) and t != "t"
    assert rat(t) is t
    for bad in (0.5, 2.0, True, False):
        with pytest.raises(ValueError):
            rat(bad)
    with pytest.raises(TypeError):
        t + 0.5


def test_poly_basics():
    p = Poly([1, 0, -2])
    assert p.degree == 2
    assert p[5] == 0
    assert Poly().degree == -1
    assert (p - p).is_zero()
    assert p.to_json() == ["1", "0", "-2"]
    assert Poly.from_json(p.to_json()) == p


def test_divmod_exact():
    f = (Z - Poly.one()) * (Z**2 + Poly.constant(3))
    q, r = divmod(f, Z - Poly.one())
    assert r.is_zero()
    assert q == Z**2 + Poly.constant(3)


def test_compose_and_eval():
    p = Z**2 - Poly.one()
    assert p.compose(Z + Poly.one()) == Z**2 + 2 * Z
    assert p(3) == 8


nonzero_fracs = small_fracs.filter(bool)


@given(small_polys, st.one_of(st.just(Fraction(1)), nonzero_fracs),
       st.one_of(st.just(Fraction(0)), small_fracs))
def test_affine_matches_compose(h, c, d):
    # the general Horner composition is the reference for h(c z + d)
    assert h.affine(c, d) == h.compose(Poly([d, c]))


def test_derivative_examples():
    assert (Z**2 - Poly.one()).derivative() == 2 * Z
    assert Poly.one().derivative().is_zero()
    assert (Z**3 + 2 * Z).derivative() == 3 * Z**2 + Poly.constant(2)


@given(small_polys, small_polys)
def test_derivative_leibniz(f, g):
    assert (f * g).derivative() == f.derivative() * g + f * g.derivative()


@given(small_polys, small_polys)
def test_derivative_linear(f, g):
    assert (f + g).derivative() == f.derivative() + g.derivative()


def test_ext_gcd_examples():
    g, c1, c2 = poly_ext_gcd(Z**2, 2 * Z)
    assert g == Z and c1.is_zero() and c2 == Poly.constant(Fraction(1, 2))

    g, c1, c2 = poly_ext_gcd(Z**2 - Poly.one(), 2 * Z)
    assert g == Poly.one()
    assert c1 == Poly.constant(-1) and c2 == Z.over(2)

    h = 3 * Z + Poly.constant(6)
    g, c1, c2 = poly_ext_gcd(h, Poly.zero())
    assert g == h.monic() and c1 == Poly.constant(Fraction(1, 3)) and c2.is_zero()

    with pytest.raises(ValueError):
        poly_ext_gcd(Poly.zero(), Poly.zero())


@given(small_polys, small_polys)
def test_ext_gcd_identity(f, g):
    if f.is_zero() and g.is_zero():
        return
    d, c1, c2 = poly_ext_gcd(f, g)
    assert c1 * f + c2 * g == d
    assert d.is_zero() or d.lead == 1
    if not d.is_zero():
        if not f.is_zero():
            assert divmod(f, d)[1].is_zero()
        if not g.is_zero():
            assert divmod(g, d)[1].is_zero()


def test_bezout_examples():
    bz = bezout_for_phi(Z)
    assert (bz.alpha, bz.beta) == (Poly.zero(), Poly.one())
    bz = bezout_for_phi(Poly.one())
    assert (bz.alpha, bz.beta) == (Poly.one(), Poly.zero())
    with pytest.raises(MultipleRootError):
        bezout_for_phi(Z**2)
    with pytest.raises(ZeroPhiError):
        bezout_for_phi(Poly.zero())


def test_bezout_corpus():
    for phi in [Poly.one(), Z, Z - Poly.one(), Z**2 - Poly.one(),
                Z * (Z - Poly.one()) * (Z - Poly.constant(2))]:
        bz = bezout_for_phi(phi)
        assert bz.alpha * phi + bz.beta * phi.derivative() == Poly.one()


def test_bezout_pair_checked():
    with pytest.raises(ValueError):
        BezoutPair(Poly.one(), Poly.one(), Z)


def test_squarefree_part():
    assert squarefree_part(Z**2) == Z
    p = (Z - Poly.one()) * (Z - Poly.constant(2))
    assert squarefree_part(p) == p.monic()
    assert squarefree_part(Z**3 * (Z - Poly.one()) ** 2) == Z * (Z - Poly.one())
    with pytest.raises(ValueError):
        squarefree_part(Poly.zero())


@given(small_polys)
def test_squarefree_divides(h):
    if h.is_zero():
        return
    s = squarefree_part(h)
    assert divmod(h, s)[1].is_zero()
    g, _, _ = poly_ext_gcd(s, s.derivative())
    assert g == Poly.one()


def _roots_brute(p, bound=10):
    out = []
    for num in range(-bound, bound + 1):
        for den in range(1, 5):
            c = Fraction(num, den)
            if p(c) == 0 and c not in out:
                out.append(c)
    return out


def test_resultant_power_map_examples():
    n = root_power_poly(Z**2 - Poly.one(), 2)
    assert n.monic() == (Z - Poly.one()) ** 2
    assert root_power_poly(Z, 3).monic() == Z
    p = (Z - Poly.constant(2)) * (Z - Poly.constant(3))
    assert root_power_poly(p, 1).monic() == p.monic()
    assert root_power_poly(Poly.constant(4), 2) == Poly.one()


def test_resultant_power_map_root_multiset():
    rng = random.Random(7)
    for _ in range(20):
        roots = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))]
        phi = Poly.one()
        for c in roots:
            phi = phi * (Z - Poly.constant(c))
        for e in (1, 2, 3):
            n = root_power_poly(phi, e)
            expect = sorted(c**e for c in roots)
            got = []
            for c in set(expect):
                q = n
                while q(c) == 0:
                    q = q.exact_quo(Z - Poly.constant(c))
                    got.append(c)
            assert sorted(got) == expect
            # no stray rational roots beyond the expected ones
            for c in _roots_brute(n):
                assert c in expect


def test_root_power_poly_input_checks():
    with pytest.raises(ZeroPhiError):
        root_power_poly(Poly.zero(), 2)
    with pytest.raises(ValueError):
        root_power_poly(Z, 0)


@needs_sympy
@given(st.lists(small_fracs, min_size=1, max_size=6).map(Poly).filter(bool),
       st.integers(1, 4))
def test_root_power_poly_matches_sympy_resultant(phi, e):
    # Res_z(phi(z), w - z^e) is lead(phi)^e prod (w - z_i^e) up to sign
    z, w = sympy.symbols("z w")
    phi_z = sum(sympy.Rational(c.numerator, c.denominator) * z**k
                for k, c in enumerate(phi.coeffs))
    res = sympy.Poly(sympy.resultant(phi_z, w - z**e, z), w, domain="QQ")
    assert root_power_poly(phi, e) == _from_sympy(res.monic())


def _to_sympy(p: Poly):
    z = sympy.Symbol("z")
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(p.coeffs)] or [0], z, domain="QQ")


def _from_sympy(p) -> Poly:
    return Poly([Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())])


@needs_sympy
@given(small_polys, small_polys.filter(bool))
def test_divmod_matches_sympy(f, g):
    q, r = divmod(f, g)
    sq, sr = _to_sympy(f).div(_to_sympy(g))
    assert (q, r) == (_from_sympy(sq), _from_sympy(sr))


@needs_sympy
@given(small_polys, small_polys)
def test_gcd_matches_sympy(f, g):
    if f.is_zero() and g.is_zero():
        return
    d, _, _ = poly_ext_gcd(f, g)
    assert d == _from_sympy(_to_sympy(f).gcd(_to_sympy(g)).monic())
