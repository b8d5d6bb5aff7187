import random
from fractions import Fraction

import pytest

from gwadeform import deform
from gwadeform.complexes import _linear_extend, tot_images
from gwadeform.core import (
    GwaParams,
    LEG_ID,
    LegMap,
    LinComb,
    TensorElement,
    _accumulate,
    basis_triples,
    basis_window,
    module_plain,
    tensor_act,
    twisted_delta,
)
from gwadeform.deform import build_f1, build_star, check_local_finiteness
from gwadeform.errors import UnsupportedPatternError
from gwadeform.hochschild import (
    Cochain2,
    Cochain3,
    circle,
    determine_F,
    theta2,
)
from gwadeform.percomplex import PerCochain, f_map, is_cocycle, per_diff
from gwadeform.scalars import Poly, Q

from conftest import (
    cochain2_sum,
    delta_nu,
    full_corpus,
    hochschild_b,
    non_cocycle,
    random_algebra,
    random_element,
    reference_circle,
    reference_determine_F,
    reference_hochschild_b,
    reference_theta2,
    tensor_from_pair,
    thetaprime2,
    thetaprime3,
)

Z = Poly.z()
ONE = Poly.one()


def theta1(params, pattern):
    """Image of 1|z^i x_j|1 in the degree-1 column pair (z-, x-, y-slot)."""
    i, j = pattern
    z_slot: dict = {}
    x_slot: dict = {}
    y_slot: dict = {}
    for k in range(1, i + 1):
        _accumulate(z_slot, tensor_from_pair(params.z(i - k),
                                             params.monomial(k - 1, j)).terms)
    for k in range(1, abs(j) + 1):
        if j > 0:
            _accumulate(x_slot, tensor_from_pair(params.monomial(i, j - k),
                                                 params.x(k - 1)).terms)
        else:
            _accumulate(y_slot, tensor_from_pair(params.monomial(i, j + k),
                                                 params.y(k - 1)).terms)
    return tuple(TensorElement(params, t) for t in (z_slot, x_slot, y_slot))


def outer(params, t, a, b):
    """a . t . b for outer factors a, b of A."""
    return TensorElement(params, _linear_extend(
        params, [tensor_from_pair(a, b).terms], [[t.terms]])[0])


def theta2_elements(params, left, right):
    """theta2 with each slot as a TensorElement."""
    return tuple(TensorElement(params, t) for t in theta2(params, left, right))


def theta1_slots(params, u, a, b):
    """theta1 extended over outer factors a|u|b, as the three term dicts on
    the generators of T_1 (P_{0,1}, then the two of P_{1,0})."""
    acc = [{}, {}, {}]
    for (i, j), c in u.terms.items():
        for s0, s1 in zip(acc, theta1(params, (i, j))):
            _accumulate(s0, outer(params, s1, a, b).terms, c)
    return acc


def pattern_supported(q, j):
    return not ((q >= 2 and j < 0) or (q <= -2 and j > 0))


def test_theta1_is_chain_map():
    # d_1 applied to theta1(u) reproduces u|1 - 1|u
    for a in full_corpus()[:4]:
        for (i, j) in [(0, 0), (2, 0), (1, 2), (0, -1), (2, -2), (3, 1)]:
            u = a.monomial(i, j)
            slots = theta1_slots(a, u, a.one(), a.one())
            out = _linear_extend(a, slots, tot_images(a, 1))
            want = tensor_from_pair(u, a.one()) - tensor_from_pair(a.one(), u)
            assert out == [want.terms], (a, i, j)


def test_theta2_is_chain_map():
    # d_2(theta2(u,v)) = theta1(u|v|1) - theta1(1|uv|1) + theta1(1|u|v)
    pats = [(0, 0), (1, 0), (0, 1), (2, 1), (0, -1), (1, -2), (0, 2)]
    for a in full_corpus():
        for (p, q) in pats:
            for (i, j) in pats:
                if not pattern_supported(q, j):
                    continue
                u, v = a.monomial(p, q), a.monomial(i, j)
                lhs = _linear_extend(a, theta2(a, (p, q), (i, j)),
                                     tot_images(a, 2))
                want = theta1_slots(a, v, u, a.one())
                for s, t in zip(want, theta1_slots(a, u * v, a.one(), a.one())):
                    _accumulate(s, t, -1)
                for s, t in zip(want, theta1_slots(a, u, a.one(), v)):
                    _accumulate(s, t)
                assert lhs == want, (a, (p, q), (i, j))


def test_theta2_zero_and_display_cases():
    a = GwaParams(2, 0, Z**2 - ONE)
    # pure z-power on the left is sent to zero
    assert theta2(a, (3, 0), (2, 1)) == ({}, {}, {}, {})
    # x against z^i y^j matches the twisted-coproduct form
    p, i, j = 1, 2, 2
    slots = theta2_elements(a, (p, 1), (i, -j))
    want0 = -outer(a, twisted_delta(a, LegMap(1, 0), LEG_ID, Poly.monomial(i)),
                   a.z(p), a.y(j))
    assert slots[0] == want0
    assert slots[1].is_zero() and slots[2].is_zero()
    assert slots[3] == tensor_from_pair(
        a.from_poly(Poly.monomial(p) * a.sigma_pow(Poly.monomial(i), 1)),
        a.y(j - 1))


def test_theta2_y_branch_is_exact():
    # y^2 against z: slot 1 is -(y (x) 1 + lam^{-1} 1 (x) y), from lam^{1-s}
    for lam in (2, -1):
        a = GwaParams(lam, 0, Z)
        slots = theta2(a, (0, -2), (1, 0))
        inv = Fraction(1, lam)
        assert slots[1] == (-(tensor_from_pair(a.y(), a.one())
                              + inv * tensor_from_pair(a.one(), a.y()))).terms
        coeff = slots[1][((0, 0), (0, -1))]
        assert coeff == -inv and type(coeff) is (Q if lam == 2 else int)
        for slot in theta2(a, (1, -3), (2, -1)):
            assert not any(isinstance(c, float) for c in slot.values())


def mirror_algebras():
    """The corpus and two quantum algebras outside it, lambda = 3 and -2."""
    return full_corpus() + [GwaParams(3, 0, (Z - ONE) * (Z - 2 * ONE)),
                            GwaParams(-2, 0, Z * (Z + ONE))]


def test_theta2_matches_two_branch_reference():
    # the term-dict theta2, one formula read by s = sign(q), against the
    # element-built x branch and its mirror, on the corpus and on random
    # algebras: both signs of q, the opposite patterns and the unsupported
    rng = random.Random(73)
    seen = set()
    for a in mirror_algebras() + [random_algebra(rng) for _ in range(8)]:
        window = 3 * a.l + 8
        for left in basis_window(a, window):
            for right in basis_window(a, window - a.weight(*left)):
                try:
                    want = reference_theta2(a, left, right)
                except UnsupportedPatternError as exc:
                    with pytest.raises(UnsupportedPatternError) as got:
                        theta2(a, left, right)
                    assert str(got.value) == str(exc)
                    seen.add("unsupported")
                    continue
                got = theta2(a, left, right)
                assert got == tuple(t.terms for t in want), (a, left, right)
                if left[1]:
                    seen.add((left[1] > 0, left[1] * right[1] < 0))
    assert seen == {"unsupported", (True, False), (True, True),
                    (False, False), (False, True)}


def test_theta2_unsupported():
    a = GwaParams(2, 0, Z)
    with pytest.raises(UnsupportedPatternError):
        theta2(a, (0, 2), (1, -1))
    with pytest.raises(UnsupportedPatternError):
        theta2(a, (1, -3), (0, 2))


def f1_closed_quantum(a, p, q, i, j):
    """The four displayed closed-form families for the first-order cochain."""
    lam = a.lam
    dz = a.from_poly(Poly.monomial(i).derivative())
    if q > 0 and j >= 0:
        m = tensor_act(delta_nu(a, "x", q), module_plain(a), a.z())
        return -lam * (a.z(p) * m * a.x() * dz * a.x(j))
    if q == 1 and j < 0:
        J = -j
        first = -lam * (a.z(p + 1) * a.x() * dz * a.y(J))
        second = a.from_poly(Poly.monomial(p + 1) * a.phi_bar.derivative()
                             * Poly.monomial(i, lam**i)) * a.y(J - 1)
        return first - second
    if q == -1 and j > 0:
        return a.z(p) * a.y() * a.z() * dz * a.x(j)
    if q < 0 and j <= 0:
        m = tensor_act(delta_nu(a, "y", -q), module_plain(a), a.z())
        return a.z(p) * a.y() * m * dz * a.y(-j)
    raise AssertionError("outside the displayed families")


def test_quantum_f1_datum():
    a = GwaParams(2, 0, Z)
    F = build_f1(a)
    assert F(a.x(), a.z()) == -a.lam * (a.z() * a.x())
    assert F(a.y(), a.z()) == a.y() * a.z()
    assert F(a.x(), a.y()) == -a.from_poly(Z * a.phi_bar.derivative())
    assert F(a.y(), a.x()).is_zero()


def test_classical_f1_datum():
    a = GwaParams(1, 1, Z**2)
    F = build_f1(a)
    assert F(a.x(), a.z()) == -a.x()
    assert F(a.y(), a.z()) == a.y()
    assert F(a.x(), a.y()) == -a.from_poly(a.phi_bar.derivative())
    assert F(a.y(), a.x()).is_zero()


def test_quantum_f1_matches_closed_forms():
    for a in [alg for alg in full_corpus() if alg.is_quantum][:4]:
        F = build_f1(a)
        window = 2 * a.l + 6
        for pq1 in basis_window(a, window):
            w1 = a.weight(*pq1)
            for pq2 in basis_window(a, window - w1):
                if ((pq1[1] >= 2 and pq2[1] < 0)
                        or (pq1[1] <= -2 and pq2[1] > 0)):
                    continue  # mixed high powers have no displayed form
                got = F.evaluate(a.monomial(*pq1), a.monomial(*pq2))
                if pq1[1] == 0:
                    assert got.is_zero()
                    continue
                want = f1_closed_quantum(a, pq1[0], pq1[1], pq2[0], pq2[1])
                assert got == want, (a, pq1, pq2)


def test_f1_is_cocycle():
    for a in (GwaParams(2, 0, Z), GwaParams(2, 0, Z**2 - ONE),
              GwaParams(1, 1, Z**2)):
        bF = hochschild_b(build_f1(a))
        for t1, t2, t3 in basis_triples(a, a.l + 4):
            res = bF(a.monomial(*t1), a.monomial(*t2), a.monomial(*t3))
            assert res.is_zero(), (a, t1, t2, t3)


def test_determine_F_conditions_and_uniqueness():
    a = GwaParams(2, 0, Z**2 - ONE)
    F = build_f1(a)
    F2 = build_f1(a)  # rebuilt from scratch
    rng = random.Random(11)
    window = basis_window(a, 8)
    one = a.one()
    for _ in range(200):
        pq1, pq2 = rng.choice(window), rng.choice(window)
        u, v = a.monomial(*pq1), a.monomial(*pq2)
        assert F(u, one).is_zero() and F(one, v).is_zero()
        assert F(a.z() * u, v) == a.z() * F(u, v)
        assert F(u, v) == F2(u, v)
    for q, j in [(1, 2), (2, 1), (-1, -2), (-3, -1)]:
        assert F(a.monomial(0, q), a.monomial(0, j)).is_zero()


def test_evaluate_matches_left_z_product():
    # evaluate shifts the z-exponent of F(x_q, v) instead of multiplying by z^p
    for a in (GwaParams(2, 0, Z**2 - ONE), GwaParams(1, 1, Z)):
        F = build_f1(a)
        rng = random.Random(17)
        for _ in range(20):
            u = random_element(rng, a, 6, 4)
            v = random_element(rng, a, 4)
            expected = a.zero()
            for (p, q), cu in u.terms.items():
                if q == 0 and p > 0:
                    continue
                for (i, j), cv in v.terms.items():
                    expected = expected + (cu * cv) * (a.z(p) * F.eval_basis(q, i, j))
            assert F(u, v) == expected


def test_determine_F_matches_two_branch_reference():
    # every basis pair of the window, with random generator values, both
    # with no target and with the stage-2 target circle(F1, F1)
    rng = random.Random(29)
    for a in mirror_algebras():
        F1 = build_f1(a)
        window = 2 * a.l + 8
        keys = [(q, i, j) for _, q in basis_window(a, window)
                for i, j in basis_window(a, window - a.weight(0, q))]
        for target in (None, circle(F1, F1)):
            datum = [random_element(rng, a, 3, nterms=2) for _ in range(4)]
            F = determine_F(a, target, *datum)
            ref = reference_determine_F(a, target, *datum)
            for key in keys:
                assert F.eval_basis(*key) == ref.eval_basis(*key), (a, key)


def test_determine_F_zero_datum():
    a = GwaParams(2, 0, Z)
    F = determine_F(a, None, a.zero(), a.zero(), a.zero(), a.zero())
    rng = random.Random(5)
    for _ in range(20):
        u = random_element(rng, a, 4)
        v = random_element(rng, a, 4)
        assert F(u, v).is_zero()


def test_determine_F_builds_one_element_per_value(monkeypatch):
    # evaluating F_2 wraps each new value once: the recursion and the stage
    # target work on term dicts, so the elements built are at most the
    # values memoized by F_2 and by the F_1 its target reads
    given = []

    def recording(params, target_b, *datum):
        given.append([(v, dict(v.terms)) for v in datum])
        return determine_F(params, target_b, *datum)

    monkeypatch.setattr(deform, "determine_F", recording)
    built = [0]
    init = LinComb.__init__

    def counting(self, algebra, terms):
        built[0] += 1
        init(self, algebra, terms)

    for a in (GwaParams(2, 0, Z**2 - ONE), GwaParams(1, 1, Z**2)):
        given.clear()
        sp = build_star(a, 2)
        F1, F2 = sp.cochains
        window = 2 * a.l + 8
        built[0] = 0
        monkeypatch.setattr(LinComb, "__init__", counting)
        for t1 in basis_window(a, window):
            for t2 in basis_window(a, window - a.weight(*t1)):
                F2.evaluate_into({}, {t1: 1}, {t2: 1})
        monkeypatch.setattr(LinComb, "__init__", init)
        assert F2._memo and built[0] <= len(F1._memo) + len(F2._memo), a
        # the generator values are memo values themselves, never summed into
        assert len(given) == 2
        for v, terms in (pair for datum in given for pair in datum):
            assert v.terms == terms, a


def test_gamma_preservation():
    for a in (GwaParams(2, 0, Z**2 - ONE), GwaParams(1, 1, Z**2)):
        assert check_local_finiteness(build_star(a, 1), 2 * a.l + 4)["pass"]


def random_table_cochain(a, seed):
    rng = random.Random(seed)

    def base(q, i, j):
        return random_element(rng, a, 3, nterms=2)

    return Cochain2(a, base)


def test_circle_bilinear():
    a = GwaParams(2, 0, Z)
    F = random_table_cochain(a, 1)
    G = random_table_cochain(a, 2)
    H = random_table_cochain(a, 3)
    FG = cochain2_sum(F, G)
    rng = random.Random(7)
    for _ in range(10):
        u, v, w = (random_element(rng, a, 3) for _ in range(3))
        lhs = circle(FG, H)(u, v, w)
        assert lhs == circle(F, H)(u, v, w) + circle(G, H)(u, v, w)
        lhs = circle(H, FG)(u, v, w)
        assert lhs == circle(H, F)(u, v, w) + circle(H, G)(u, v, w)
    zero = Cochain2(a, lambda q, i, j: a.zero())
    assert circle(F, zero)(a.x(), a.y(), a.z()).is_zero()


def test_cochain3_matches_element_reference():
    # circle, hochschild_b and their sums against the element-level maps,
    # on the cochains of order-2, 4 and 8 star products and a non-cocycle
    rng = random.Random(37)
    for a in full_corpus():
        if not a.is_noncommutative:
            continue
        for order in (2, 4, 8):
            F = build_star(a, order).cochains
            N = non_cocycle(a)
            stage = circle(F[0], F[-2]) + circle(F[-2], F[0])
            r1, r2 = reference_circle(F[0], F[-2]), reference_circle(F[-2], F[0])
            cases = [
                (circle(F[0], F[-1]), reference_circle(F[0], F[-1])),
                (circle(F[-1], N), reference_circle(F[-1], N)),
                (hochschild_b(F[-1]), reference_hochschild_b(F[-1])),
                (hochschild_b(N), reference_hochschild_b(N)),
                (stage, lambda u, v, w: r1(u, v, w) + r2(u, v, w)),
            ]
            x, y = a.x(), a.y()
            triples = [(x, y, x)] + [
                tuple(random_element(rng, a, a.l + 2, nterms=3)
                      for _ in range(3)) for _ in range(2)]
            for G, ref in cases:
                for u, v, w in triples:
                    assert G(u, v, w) == ref(u, v, w), (a, order)
            assert not hochschild_b(N)(x, y, x).is_zero()
            # into adds in place: adding G and then -G leaves nothing
            for G, _ in cases:
                u, v, w = (t.terms for t in triples[-1])
                out = G.into({}, u, v, w)
                assert G.into(out, u, v, w, -1) == {}


def test_thetaprime2_roundtrip():
    # the first-order cochain maps back to the defining degree-2 cocycle
    for a in (GwaParams(2, 0, Z), GwaParams(2, 0, Z**2 - ONE)):
        assert thetaprime2(build_f1(a)) == f_map(a.z(), a, module_plain(a))
    for a in (GwaParams(1, 1, Z**2), GwaParams(1, 1, Z * (Z - ONE))):
        assert thetaprime2(build_f1(a)) == f_map(a.one(), a, module_plain(a))
    a = GwaParams(2, 0, Z)
    assert thetaprime2(Cochain2(a, lambda q, i, j: a.zero())).is_zero()


def test_thetaprime3_obstruction():
    # circle(F1, F1) assembles to the displayed degree-3 obstruction tuple
    for a in (GwaParams(2, 0, Z), GwaParams(2, 0, Z**2 - ONE)):
        F1 = build_f1(a)
        got = thetaprime3(circle(F1, F1))
        pb1 = a.phi_bar.derivative()
        pb2 = pb1.derivative()
        want = PerCochain(a, module_plain(a), 3, (
            a.z() * a.y() * a.x(),
            a.z() * a.x() * a.y(),
            Fraction(-1, 2) * (a.z(2) * a.from_poly(pb2) * a.x()),
            a.y() * a.z() * a.from_poly(pb1)
            + Fraction(1, 2) * (a.y() * a.z(2) * a.from_poly(pb2)),
        ))
        assert got == want, a
    a = GwaParams(2, 0, Z)
    assert thetaprime3(Cochain3(a, lambda out, u, v, w, c=None: out)).is_zero()


def test_chain_map_evidence():
    # per_diff after thetaprime2 agrees with thetaprime3 after the coboundary
    rng = random.Random(19)
    for a in (GwaParams(2, 0, Z**2 - ONE), GwaParams(1, 1, Z**2),
              GwaParams(-1, 0, Z**2 - ONE)):
        for _ in range(3):
            datum = [random_element(rng, a, 3, nterms=2) for _ in range(4)]
            F = determine_F(a, None, *datum)
            lhs = per_diff(thetaprime2(F))
            rhs = thetaprime3(hochschild_b(F))
            assert lhs == rhs, a
        F1 = build_f1(a)
        assert is_cocycle(thetaprime2(F1))
        assert per_diff(thetaprime2(F1)) == thetaprime3(hochschild_b(F1))
