import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from gwadeform import core
from gwadeform.core import (
    Automorphism,
    BimoduleSpec,
    GwaElement,
    GwaParams,
    LEG_ID,
    LegMap,
    _accumulate,
    _multiply_into,
    apply_automorphism,
    basis_window,
    bimodule_act,
    identity_auto,
    module_nu,
    module_plain,
    multiply,
    nakayama,
    tensor_act,
    twisted_delta,
)
from gwadeform.errors import ZeroPhiError
from gwadeform.hochschild import Cochain2
from gwadeform.percomplex import _then
from gwadeform.scalars import Laurent, Poly, Q, div, rat

from conftest import (
    act_left,
    act_right,
    delta_nu,
    filtration_degree,
    full_corpus,
    random_element,
    reference_evaluate_into,
    reference_mono_mul,
    reference_multiply_into,
    tensor_from_pair,
)
from free_oracle import oracle_multiply, oracle_normalize

Z = Poly.z()
ONE = Poly.one()
LEG_D = LegMap(0, 1)


def inverse(rho):
    """The inverse automorphism of rho."""
    c, d = rho.z_image[1], rho.z_image[0]
    return Automorphism(rho.params, div(1, rho.x_scale),
                        div(1, rho.y_scale), Poly([div(-d, c), div(1, c)]))


def test_params_flags():
    q = GwaParams(2, 0, Z)
    assert q.is_quantum and not q.is_classical and q.is_noncommutative
    c = GwaParams(1, 1, Z)
    assert c.is_classical and not c.is_quantum
    comm = GwaParams(1, 0, Z)
    assert not comm.is_noncommutative
    with pytest.raises(ZeroPhiError):
        GwaParams(2, 0, Poly.zero())
    with pytest.raises(ValueError):
        GwaParams(0, 0, Z)


def test_sigma_pow():
    a = GwaParams(2, 3, Z + ONE)
    assert a.sigma_pow(Z, 1) == 2 * Z + Poly.constant(3)
    assert a.sigma_pow(Z**2 - ONE, 0) == Z**2 - ONE
    # sigma^{-1} inverts sigma
    assert a.sigma_pow(a.sigma_pow(Z, -1), 1) == Z
    assert a.sigma_pow(Z, -1) == Poly([Fraction(-3, 2), Fraction(1, 2)])
    # composition law on a classical algebra
    c = GwaParams(1, 1, Z)
    assert c.sigma_pow(Z, 5) == Z + Poly.constant(5)
    assert c.sigma_pow(Z, -2) == Z - Poly.constant(2)


def test_sigma_pow_memo_composes_once(monkeypatch):
    # sigma_pow substitutes sigma^j(z) = c z + d through Poly._affine, the
    # substitution of Poly.affine without rat
    a = GwaParams(2, 3, Z + ONE)
    calls = []
    affine = Poly._affine

    def counted(h, c, d):
        calls.append((h, c, d))
        return affine(h, c, d)

    monkeypatch.setattr(Poly, "_affine", counted)
    h = Z**2 - ONE
    first = a.sigma_pow(h, -2)
    assert a.sigma_pow(Poly(h.coeffs), -2) is first
    assert first == h.compose(a.sigma_z(-2))
    assert len(calls) == 1
    # each (h, j) is its own entry; j = 0 and constants never substitute
    assert a.sigma_pow(h, 2) == h.compose(a.sigma_z(2))
    assert a.sigma_pow(h, 0) is h and a.sigma_pow(ONE, 5) is ONE
    assert len(calls) == 2


def test_defining_relations_corpus():
    for a in full_corpus():
        x, y, z = a.x(), a.y(), a.z()
        sz = a.from_poly(a.sigma_z(1))
        siz = a.from_poly(a.sigma_z(-1))
        assert (x * z - sz * x).is_zero()
        assert (y * z - siz * y).is_zero()
        assert y * x == a.from_poly(a.phi)
        assert x * y == a.from_poly(a.phi_bar)


def test_multiply_examples():
    a = GwaParams(2, 0, Z**2 - ONE)
    assert a.y() * a.x() == a.from_poly(a.phi)
    u = a.monomial(2, -1, 3) + a.monomial(0, 2)
    assert a.one() * u == u and u * a.one() == u
    # x^2 y^2 = sigma^2(phi) sigma(phi)
    expect = a.from_poly(a.sigma_pow(a.phi_bar, 1) * a.phi_bar)
    assert a.x(2) * a.y(2) == expect


def test_oracle_agreement():
    for a in full_corpus():
        deg = a.l + 3
        window = basis_window(a, deg)
        for pq1 in window:
            for pq2 in window:
                got = multiply(a.monomial(*pq1), a.monomial(*pq2))
                assert got == oracle_multiply(a, pq1, pq2), (a, pq1, pq2)


CORPUS = full_corpus()
coefficients = st.one_of(st.integers(-5, 5), st.fractions(max_denominator=6))
word = st.text("xyz", max_size=5)
words = st.lists(st.tuples(word, word, coefficients), min_size=1, max_size=3)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(range(len(CORPUS))), words)
def test_product_matches_free_oracle_on_random_words(k, combo):
    # sum c * (normal form of w1)(normal form of w2), against rewriting w1 w2
    a = CORPUS[k]
    gens = {"x": a.x(), "y": a.y(), "z": a.z()}

    def normal_form(w):
        u = a.one()
        for letter in w:
            u = u * gens[letter]
        return u

    got, want = a.zero(), {}
    for w1, w2, c in combo:
        got = got + c * (normal_form(w1) * normal_form(w2))
        want[w1 + w2] = want.get(w1 + w2, 0) + Fraction(c)
    assert got == oracle_normalize(a, want)


def test_phi_with_a_laurent_coefficient():
    # phi = z + s over k[s, 1/s]: the algebra hashes its phi, so it needs
    # a hashable Laurent, and its product rule runs unchanged
    s = Laurent({1: 1})
    a = GwaParams(2, 0, Poly([s, 1]))
    assert a.y() * a.x() == a.from_poly(a.phi)
    assert a == GwaParams(2, 0, Poly([Laurent({1: 1}), 1]))
    assert hash(a) == hash(GwaParams(2, 0, Poly([Laurent({1: 1}), 1])))


def test_sigma_z_negative_powers_are_exact():
    # sigma^j(z) = lam^j z + eta (lam^j - 1) / (lam - 1); j < 0 once gave floats
    for lam, want in ((2, Poly([Fraction(-7, 8), Fraction(1, 8)])),
                      (-1, Poly([1, -1]))):
        a = GwaParams(lam, 1, Z)
        got = a.sigma_z(-3)
        assert got == want
        assert all(type(c) is int or (type(c) is Q and c.denominator != 1)
                   for c in got.coeffs), got.coeffs
        assert got.compose(a.sigma_z(3)) == Z


def test_associativity_random():
    rng = random.Random(11)
    for a in full_corpus():
        for _ in range(25):
            u = random_element(rng, a, a.l + 3)
            v = random_element(rng, a, a.l + 3)
            w = random_element(rng, a, a.l + 3)
            assert (u * v) * w == u * (v * w)


def test_filtration():
    a = GwaParams(2, 0, Z**2 - ONE)  # l = 2
    assert filtration_degree(a.z(3)) == 3
    assert filtration_degree(a.zero()) == -1
    b = GwaParams(1, 1, Z)  # l = 1
    assert filtration_degree(b.monomial(1, 2)) == 5
    # multiplicative bound on random pairs
    rng = random.Random(5)
    for _ in range(40):
        u = random_element(rng, a, 6)
        v = random_element(rng, a, 6)
        if u.is_zero() or v.is_zero():
            continue
        assert filtration_degree(u * v) <= filtration_degree(u) + filtration_degree(v)


def test_basis_window():
    a = GwaParams(1, 1, Z)  # l = 1
    assert basis_window(a, 0) == [(0, 0)]
    assert set(basis_window(a, 2)) == {(0, 0), (1, 0), (2, 0), (0, 1), (0, -1)}
    assert (0, 1) in basis_window(a, a.l + 1)
    w = basis_window(a, 4)
    assert w == sorted(w, key=lambda t: (t[1], t[0]))


def reference_basis_window(params, n):
    """basis_window as it was: build the list, then sort it."""
    w = params.l + 1
    out = []
    qmax = n // w
    for q in range(-qmax, qmax + 1):
        for p in range(n - w * abs(q) + 1):
            out.append((p, q))
    out.sort(key=lambda t: (t[1], t[0]))
    return out


def test_basis_window_matches_reference_and_is_not_shared():
    for l in range(4):
        a = GwaParams(2, 0, Z**l if l else ONE)
        b = GwaParams(1, 1, Z**l if l else ONE)
        for n in range(13):
            got = basis_window(a, n)
            assert type(got) is list and got == reference_basis_window(a, n)
            # a caller may mutate its list without touching the next result
            got.append((99, 99))
            got.sort(reverse=True)
            assert basis_window(a, n) == reference_basis_window(a, n)
            # windows depend on l only, so another algebra reads the same entry
            hits = core._window_cells.cache_info().hits
            assert basis_window(b, n) == reference_basis_window(b, n)
            assert core._window_cells.cache_info().hits == hits + 1


def test_automorphism_nu():
    a = GwaParams(2, 0, Z**2 - ONE)
    nu = nakayama(a)
    assert apply_automorphism(nu, a.x()) == 2 * a.x()
    assert apply_automorphism(nu, a.y()) == Fraction(1, 2) * a.y()
    u = a.monomial(3, -2, 5)
    assert apply_automorphism(identity_auto(a), u) == u
    assert apply_automorphism(nu, u) == Fraction(5, 4) * a.monomial(3, -2)
    # algebra map on random pairs; nu o nu^{-1} = id
    rng = random.Random(3)
    inv = inverse(nu)
    for _ in range(20):
        u = random_element(rng, a, 5)
        v = random_element(rng, a, 5)
        assert apply_automorphism(nu, u * v) == (
            apply_automorphism(nu, u) * apply_automorphism(nu, v))
        assert apply_automorphism(inv, apply_automorphism(nu, u)) == u


def test_automorphism_validation():
    a = GwaParams(2, 0, Z)
    with pytest.raises(ValueError):
        Automorphism(a, 3, 1, Z)  # xy relation fails: 3*phi_bar != phi_bar
    with pytest.raises(ValueError):
        Automorphism(a, 1, 1, Poly.constant(2))  # not invertible
    # x -> cx, y -> y/c is always valid when z is fixed and phi unchanged
    Automorphism(a, 5, Fraction(1, 5), Z)


def reference_automorphism_ok(a, x_scale, y_scale, z_image) -> bool:
    """The former check: the four defining relations on the images, as elements."""
    if z_image.degree != 1 or x_scale == 0 or y_scale == 0:
        return False
    X = x_scale * a.x()
    Y = y_scale * a.y()
    Zi = a.from_poly(z_image)
    lam, eta = a.lam, a.eta
    checks = [
        X * Zi - (lam * Zi + eta * a.one()) * X,
        Y * Zi - ((Fraction(1) / lam) * Zi - (Fraction(eta) / lam) * a.one()) * Y,
        Y * X - a.from_poly(a.phi.compose(z_image)),
        X * Y - a.from_poly(a.phi_bar.compose(z_image)),
    ]
    return all(c.is_zero() for c in checks)


def test_automorphism_check_matches_element_relations():
    rng = random.Random(11)
    small = [Fraction(n, d) for n in range(-3, 4) for d in (1, 2)]
    phis = [ONE, Z, Z - ONE, Z**2, Z**2 - ONE, Z**2 + ONE, Z**3 - Z,
            Z * (Z - ONE), Poly.constant(3)]
    agreed = valid = 0
    for _ in range(3000):
        lam = rng.choice([1, 1, 2, -1, Fraction(1, 2), 3])
        eta = rng.choice([0, 0, 1, -1, 2])
        phi = rng.choice(phis + [Poly([rng.choice(small) for _ in range(3)])])
        if phi.is_zero():
            continue
        a = GwaParams(lam, eta, phi)
        # candidates near the valid ones: c from few values, d solving the
        # z-relation or random, a*b = 1, c^l or random
        c = rng.choice([1, 1, -1, a.lam, 2, 0])
        if a.lam != 1 and rng.random() < 0.7:
            d = Fraction(a.eta * (1 - c)) / (1 - a.lam)
        else:
            d = rng.choice([0, 0] + small)
        ab = rng.choice([1, 1, Fraction(c) ** max(a.l, 0), rng.choice(small)])
        xs = rng.choice([s for s in small if s] + [0])
        ys = ab / xs if xs and rng.random() < 0.8 else rng.choice(small)
        z_image = Poly([d, c])
        expect = reference_automorphism_ok(a, Fraction(xs), Fraction(ys), z_image)
        try:
            Automorphism(a, xs, ys, z_image)
            got = True
        except ValueError:
            got = False
        assert got == expect, (a, xs, ys, z_image)
        agreed += 1
        valid += got
    assert agreed > 2900 and 100 < valid < agreed - 1000


def test_bimodule_act():
    a = GwaParams(2, 0, Z)
    m = a.z()
    plain = module_plain(a)
    anu = module_nu(a)
    assert bimodule_act(plain, a.x(), m, a.one()) == a.x() * m
    assert bimodule_act(anu, a.x(), m, a.one()) == a.x() * m
    assert bimodule_act(anu, a.one(), m, a.x()) == m * (2 * a.x())


def delta0(a, k):
    """Delta_0(z^k) = sum_{i=1}^{k} z^{k-i} (x) z^{i-1}; Delta_0(1) = 0."""
    return twisted_delta(a, LEG_ID, LEG_ID, Poly.monomial(k))


def test_delta0():
    a = GwaParams(2, 0, Z)
    assert delta0(a, 0).is_zero()
    assert delta0(a, 1) == tensor_from_pair(a.one(), a.one())
    expect = (tensor_from_pair(a.z(2), a.one())
              + tensor_from_pair(a.z(), a.z())
              + tensor_from_pair(a.one(), a.z(2)))
    assert delta0(a, 3) == expect


def test_twisted_delta():
    a = GwaParams(2, 0, Z**2 - ONE)
    # sigma^q on both legs: Delta(sigma^q(z)^i) = lambda^q * (sigma-legs sum)
    q, i = 2, 3
    lhs = twisted_delta(a, LEG_ID, LEG_ID, a.sigma_pow(Z, q) ** i)
    sq = LegMap(q, 0)
    rhs = twisted_delta(a, sq, sq, Z**i).scale(a.lam**q)
    assert lhs == rhs
    # any spec on h = 1 gives 0
    assert twisted_delta(a, LEG_D, sq, ONE).is_zero()
    # z(Delta^D(phi).m) - (Delta^D(phi).m)z = Delta(phi).m - m phi'
    rng = random.Random(9)
    plain = module_plain(a)
    dD = twisted_delta(a, LEG_ID, LEG_D, a.phi)
    d = twisted_delta(a, LEG_ID, LEG_ID, a.phi)
    for _ in range(15):
        m = random_element(rng, a, 5)
        lhs = a.z() * tensor_act(dD, plain, m) - tensor_act(dD, plain, m) * a.z()
        rhs = tensor_act(d, plain, m) - m * a.from_poly(a.phi.derivative())
        assert lhs == rhs


def test_twisted_delta_memo():
    a = GwaParams(2, 0, Z**3 - Z)
    sig = LegMap(1, 0)
    first = twisted_delta(a, sig, LEG_D, a.phi)
    expect = twisted_delta(GwaParams(2, 0, Z**3 - Z), sig, LEG_D, a.phi)
    assert first == expect and not first.is_zero()
    # returned elements do not share the memo's dict, on a miss or a hit
    first.terms.clear()
    twisted_delta(a, sig, LEG_D, a.phi).terms.clear()
    assert twisted_delta(a, sig, LEG_D, a.phi) == expect
    # each (f, g, h) is its own entry
    assert twisted_delta(a, LEG_ID, LEG_D, a.phi) != expect
    assert twisted_delta(a, sig, LEG_D, Z**2) != expect
    assert len(a._delta_cache) == 3


def test_delta_nu():
    a = GwaParams(2, 0, Z)
    assert delta_nu(a, "x", 1) == tensor_from_pair(a.one(), a.one())
    assert delta_nu(a, "x", 0).is_zero()
    expect = (tensor_from_pair(a.y(), a.one())
              + tensor_from_pair(a.one(), a.y()).scale(Fraction(1, 2)))
    assert delta_nu(a, "y", 2) == expect


def test_tensor_act():
    a = GwaParams(2, 0, Z)
    plain = module_plain(a)
    m = a.monomial(1, 1, 2)
    assert tensor_act(tensor_from_pair(a.one(), a.one()), plain, m) == m
    assert tensor_act(delta0(a, 2), plain, m) == a.z() * m + m * a.z()
    assert tensor_act(delta0(a, 0), plain, m).is_zero()


def test_tensor_act_matches_bimodule_act_sum():
    # tensor_act skips the products by a unit leg; the reference multiplies
    # by every leg through bimodule_act, and the legs include the unit
    rng = random.Random(47)
    cases = []
    for a in full_corpus():
        cases += [(a, module_plain(a)), (a, module_nu(a))]
    # twists that move z as well: x -> 2x, y -> 3y, z -> 6z on lambda = 2, phi = z
    a = GwaParams(2, 0, Z)
    rho = Automorphism(a, 2, 3, Poly([0, 6]))
    cases.append((a, BimoduleSpec(rho, inverse(rho))))
    for a, spec in cases:
        for _ in range(3):
            T = tensor_from_pair(a.one() + random_element(rng, a, 3),
                                 a.one() + random_element(rng, a, 3))
            T = T + tensor_from_pair(a.one(), a.one())
            m = random_element(rng, a, 4)
            expect = a.zero()
            for (L, R), c in T.terms.items():
                expect = expect + bimodule_act(spec, GwaElement(a, {L: c}), m,
                                               GwaElement(a, {R: Fraction(1)}))
            assert tensor_act(T, spec, m) == expect, (a, spec)


def reference_tensor_act(T, spec, m):
    """tensor_act as it was: one element per leg product, units skipped."""
    out = {}
    for (L, R), c in T.terms.items():
        v = m
        if R != (0, 0):
            v = multiply(v, apply_automorphism(spec.right_twist, T._leg(R)))
        if L != (0, 0):
            v = multiply(apply_automorphism(spec.left_twist, T._leg(L)), v)
        _accumulate(out, v.terms, c)
    return GwaElement(T.algebra, out)


def test_tensor_act_matches_reference():
    rng = random.Random(53)
    a2 = GwaParams(2, 0, Z)
    rho = Automorphism(a2, 2, 3, Poly([0, 6]))
    cases = [(a2, BimoduleSpec(rho, inverse(rho)))]
    for a in full_corpus():
        cases += [(a, module_plain(a)), (a, module_nu(a))]
    for a, spec in cases:
        for _ in range(3):
            T = tensor_from_pair(a.one() + random_element(rng, a, 3),
                                 a.one() + random_element(rng, a, 3))
            m = random_element(rng, a, 4)
            assert tensor_act(T, spec, m) == reference_tensor_act(T, spec, m), a
            assert tensor_act(T, spec, a.zero()).is_zero()


def test_tensor_act_adds_into_out_in_place(monkeypatch):
    # with out, T . m is added into out and out is returned; T may be a
    # term dict.  Twists that fix z act on a leg as a scalar, with no call
    # to apply_automorphism; the general twist x -> 2x, y -> 3y, z -> 6z
    # still goes through it.
    rng = random.Random(71)
    a2 = GwaParams(2, 0, Z)
    rho = Automorphism(a2, 2, 3, Poly([0, 6]))
    cases = [(a2, BimoduleSpec(rho, inverse(rho)), True)]
    for a in full_corpus():
        cases += [(a, module_plain(a), False), (a, module_nu(a), False)]
    twisted = []
    real = core.apply_automorphism

    def counted(rho, u):
        twisted.append(rho)
        return real(rho, u)

    monkeypatch.setattr(core, "apply_automorphism", counted)
    for a, spec, general in cases:
        for _ in range(3):
            T = tensor_from_pair(a.one() + random_element(rng, a, 3),
                                 a.one() + random_element(rng, a, 3))
            U = tensor_from_pair(random_element(rng, a, 3),
                                 a.one() + random_element(rng, a, 2))
            m, n = random_element(rng, a, 4), random_element(rng, a, 3)
            expect = {}
            for S, e in ((T, m), (U, n)):
                for (L, R), c in S.terms.items():
                    _accumulate(expect, bimodule_act(
                        spec, GwaElement(a, {L: c}), e,
                        GwaElement(a, {R: 1})).terms)
            twisted.clear()
            out = {}
            assert tensor_act(T.terms, spec, m, out) is out
            assert tensor_act(U, spec, n, out) is out
            assert out == expect, (a, spec)
            assert bool(twisted) == general, (a, spec)
            # T . m and (-T) . m cancel down to an empty dict
            out = {}
            tensor_act(T, spec, m, out)
            tensor_act((-T).terms, spec, m, out)
            assert out == {}, (a, spec)
    a3 = GwaParams(3, 0, Z)
    with pytest.raises(ValueError):
        tensor_act(tensor_from_pair(a2.x(), a2.y()), module_plain(a2), a3.z(), {})


def test_right_leg_composition():
    # (T o h) . m = (T . m) g(h): replacing each right leg R by R h is the
    # right action by h, since g is an algebra map
    rng = random.Random(61)
    a2 = GwaParams(2, 0, Z)
    rho = Automorphism(a2, 2, 3, Poly([0, 6]))
    cases = [(a2, BimoduleSpec(rho, inverse(rho)))]
    for a in full_corpus():
        cases += [(a, module_plain(a)), (a, module_nu(a))]
    for a, spec in cases:
        for _ in range(3):
            T = tensor_from_pair(a.one() + random_element(rng, a, 3),
                                 a.one() + random_element(rng, a, 3))
            T = T + twisted_delta(a, LegMap(1, 0), LEG_D, Z**3)
            h = random_element(rng, a, 3) + a.one()
            m = random_element(rng, a, 4)
            H = tensor_from_pair(a.one(), h)
            got = tensor_act(_then(a, T.terms, H.terms), spec, m)
            expect = tensor_act(T, spec, m) * apply_automorphism(spec.right_twist, h)
            assert got == expect, (a, spec)


def test_tensor_algebra_ops():
    a = GwaParams(2, 0, Z)
    t = tensor_from_pair(a.x(), a.y())
    assert act_left(t, a.z()) == tensor_from_pair(a.z() * a.x(), a.y())
    assert act_right(t, a.z()) == tensor_from_pair(a.x(), a.y() * a.z())


def test_serialization_roundtrip():
    a = GwaParams(2, 0, Z**2 - ONE)
    assert GwaParams.from_json(a.to_json()) == a
    u = a.monomial(1, -2, Fraction(3, 7)) + a.monomial(0, 1, -2)
    data = u.to_json()
    assert data == sorted(data, key=lambda r: (r["q"], r["p"]))
    assert GwaElement.from_json(a, data) == u


scalars_st = st.one_of(st.integers(-6, 6), st.fractions(max_denominator=4))
term_dicts = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(-2, 2)),
                             scalars_st.map(rat), max_size=5)


def stores_no_integral_fraction(u):
    return not any(isinstance(c, Fraction) and c.denominator == 1
                   for c in u.terms.values())


@settings(max_examples=300, deadline=None)
@given(term_dicts, term_dicts, scalars_st)
def test_lincomb_stores_integral_values_as_ints(t1, t2, c):
    # scale, + and - keep the int-first form: an integral value is an int
    a = CORPUS[3]
    u, v = GwaElement(a, t1), GwaElement(a, t2)
    for w in (u.scale(c), c * u, u + v, u - v, u.scale(c) - v.scale(c)):
        assert stores_no_integral_fraction(w), w.terms
    assert u.scale(c) == GwaElement(a, {k: c * x for k, x in t1.items()})


# lambda = -1, 1/3, 2 and 1 against eta = 0, 1 and rational eta: quantum,
# classical, commutative and the mixed case lambda != 1 with eta != 0
random_algebras = st.builds(
    GwaParams,
    st.sampled_from([-1, Fraction(1, 3), 2, 1]),
    st.sampled_from([0, 1, Fraction(2, 3), Fraction(-1, 2)]),
    st.lists(st.one_of(st.integers(-2, 2), st.fractions(max_denominator=3)),
             min_size=1, max_size=4)
    .filter(any).map(Poly))
mono_keys = st.lists(st.tuples(st.integers(0, 2), st.integers(-3, 3),
                               st.integers(0, 4), st.integers(-3, 3)),
                     min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(random_algebras, mono_keys)
def test_mono_mul_matches_poly_formula_and_free_oracle(a, keys):
    for p, q, i, j in keys:
        got = a._mono_mul(p, q, i, j)
        assert got == reference_mono_mul(a, p, q, i, j), (a, p, q, i, j)
        assert GwaElement(a, got) == oracle_multiply(a, (p, q), (i, j))
        assert a._mono_mul(p, q, i, j) is got
    assert all(type(v) is not Fraction or v.denominator != 1
               for t in a._mono_cache.values() for v in t.values())


@pytest.mark.parametrize("a", [GwaParams(1, 1, Z**2 - ONE),
                               GwaParams(2, 0, Z**2 - ONE)],
                         ids=["classical", "quantum"])
def test_mono_mul_row_built_once_and_shared(a):
    # sigma^2(z)^3 times the factor of the two pairs that cancel in x^2 y^2
    # and in x^2 y^3: one row for both, at every shift z^p; the factor is
    # the row of i = 0, built from those of m = 0 and m = 1
    def miss(p, q, i, j):
        assert a._mono_mul(p, q, i, j) == reference_mono_mul(a, p, q, i, j)

    miss(0, 2, 3, -2)
    row = a._row_cache[(2, 3, 2)]
    miss(4, 2, 3, -3)
    miss(1, 2, 3, -2)
    factors = [(2, 0, 0), (2, 0, 1), (2, 0, 2)]
    assert list(a._row_cache) == factors + [(2, 3, 2)]
    assert a._row_cache[(2, 3, 2)] is row
    assert len(a._mono_cache) == 3
    # nothing cancels for j >= 0: the row of m = 0, whatever j is
    miss(0, 2, 3, 0)
    miss(2, 2, 3, 5)
    assert list(a._row_cache) == factors + [(2, 3, 2), (2, 3, 0)]
    # a key shift needs no row
    miss(0, 0, 3, -2)
    miss(1, 2, 0, 1)
    assert len(a._row_cache) == 5 and len(a._mono_cache) == 7


@pytest.mark.parametrize("lam", [-1, Fraction(1, 3), 2, 1])
@pytest.mark.parametrize("eta", [0, Fraction(2, 3), Fraction(-1, 2)])
def test_mono_mul_rows_match_reference(lam, eta):
    # every row serves several misses (other p, other j with the same m);
    # sigma^q(z) has no constant term when eta = 0 (and for even q when
    # lambda = -1), and then its row starts at z^i
    a = GwaParams(lam, eta, Poly([Fraction(1, 2), 0, 2]))
    for p in range(3):
        for q in range(-3, 4):
            for i in range(4):
                for j in range(-3, 4):
                    assert a._mono_mul(p, q, i, j) == \
                        reference_mono_mul(a, p, q, i, j), (p, q, i, j)
    assert len(a._mono_cache) == 3 * 7 * 4 * 7
    assert 0 < len(a._row_cache) < len(a._mono_cache) // 3
    assert any(off for off, _ in a._row_cache.values()) == (eta == 0 or lam == -1)
    assert all(type(v) is not Fraction or v.denominator != 1
               for _, row in a._row_cache.values() for v in row)



@pytest.mark.parametrize("lam", [-1, Fraction(1, 3), 2, 1])
@pytest.mark.parametrize("eta", [0, Fraction(2, 3), Fraction(-1, 2)])
def test_pair_factor_rows_match_poly_product(lam, eta):
    # the row of i = 0 is the factor that m cancelled pairs leave: the
    # product of sigma^{q - s k + [s > 0]}(phi) for k = 1..m, s = sign(q)
    a = GwaParams(lam, eta, Poly([Fraction(1, 2), 0, 2]))
    for q in range(-3, 4):
        s = 1 if q > 0 else -1
        want = Poly.one()
        for m in range(abs(q) + 1):
            if m:
                want = want * a.sigma_pow(a.phi, q - s * m + (s > 0))
            off, row = a._row(q, 0, m)
            assert off == 0 and Poly(row) == want, (q, m)


INLINE_ALGEBRAS = [CORPUS[3], CORPUS[5], CORPUS[9],
                   GwaParams(Fraction(1, 3), Fraction(1, 2), Z**2 - ONE)]
nonzero_terms = term_dicts.map(lambda t: {k: v for k, v in t.items() if v})


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(INLINE_ALGEBRAS), nonzero_terms, nonzero_terms,
       nonzero_terms, st.sampled_from([None, 0, 1, -1, div(3, 2)]))
def test_inline_product_and_evaluation_match_accumulate(a, out, u, v, c):
    # _multiply_into and evaluate_into add each basis value inline; they
    # must leave the same dict, key order included, as one _accumulate per
    # pair of terms, into a shared out and down to cancellation
    F = Cochain2(a, lambda q, i, j: GwaElement(
        a, {(i, q + j): Fraction(q, 2) + i, (i + 1, j): 1 - j}))
    pairs = ((partial(_multiply_into, a), partial(reference_multiply_into, a)),
             (F.evaluate_into, partial(reference_evaluate_into, F)))
    for fast, slow in pairs:
        want = slow(dict(out), u, v, c)
        got = fast(dict(out), u, v, c)
        assert got == want and list(got) == list(want)
        assert all(got.values())
        assert all(type(w) is not Fraction or w.denominator != 1
                   for w in got.values())
        # out holding -c u v cancels to nothing
        minus = -1 if c is None else -c
        assert fast(slow({}, u, v, minus), u, v, c) == {}
        if c == 0:
            assert got == out and list(got) == list(out)


# phi = z^2 - 1 has a zero coefficient, so some rows hold a zero
KERNEL_ALGEBRAS = {
    **{f"lam{lam}-eta{eta}".replace("/", "_"): GwaParams(lam, eta, Z**2 - ONE)
       for lam in (2, -1, Fraction(1, 3)) for eta in (0, Fraction(2, 3))},
    **{f"alg{k}": a for k, a in enumerate(CORPUS)}}


@pytest.mark.parametrize("a", KERNEL_ALGEBRAS.values(), ids=KERNEL_ALGEBRAS)
def test_multiply_into_matches_reference_without_the_memo(a):
    # _multiply_into spells out the row rule of _mono_mul: on one-term
    # operands it equals the memoized product, and a key shift (q = 0, or
    # i = 0 with no cancelled pair) reads no row
    cells = [(p, q) for q in range(-3, 4) for p in range(3)]
    for p, q in cells:
        for i, j in cells:
            rows = len(a._row_cache)
            got = _multiply_into(a, {}, {(p, q): 1}, {(i, j): 1})
            assert got == a._mono_mul(p, q, i, j) \
                == reference_mono_mul(a, p, q, i, j), (p, q, i, j)
            if q == 0 or (i == 0 and q * j >= 0):
                assert got == {(p + i, q + j): 1}
                assert len(a._row_cache) == rows, (p, q, i, j)
    # multi-term operands, into a fresh, a pre-filled and a cancelling out
    rng = random.Random(7)

    def terms(n):
        return {rng.choice(cells): div(rng.choice([-3, -1, 1, 2, 5]),
                                       rng.choice([1, 1, 2, 3]))
                for _ in range(n)}

    for _ in range(20):
        u, v, out = terms(4), terms(4), terms(3)
        for c in (None, 3, div(-2, 3)):
            want = reference_multiply_into(a, dict(out), u, v, c)
            got = _multiply_into(a, dict(out), u, v, c)
            assert got == want and list(got) == list(want)
            assert all(type(w) is not Fraction or w.denominator != 1
                       for w in got.values())
            minus = -1 if c is None else -c
            assert _multiply_into(
                a, reference_multiply_into(a, {}, u, v, minus), u, v, c) == {}
