import random
from fractions import Fraction

import pytest

from gwadeform.core import GwaParams, basis_window
from gwadeform.deform import (
    StarProduct,
    TruncatedElement,
    build_star,
    check_assoc,
    check_obstruction,
    check_local_finiteness,
    check_relations,
    discover_f2,
    f1_noncoboundary_evidence,
    lift,
    star,
    star_mul,
    truncated_zero,
)
from gwadeform.errors import CommutativeAlgebraError, MixedCaseError
from gwadeform.scalars import Poly

from conftest import full_corpus, random_element

Z = Poly.z()
ONE = Poly.one()


def noncommutative_corpus():
    return [a for a in full_corpus() if a.is_noncommutative]


def test_build_star_errors():
    with pytest.raises(CommutativeAlgebraError):
        build_star(GwaParams(1, 0, Z))
    with pytest.raises(MixedCaseError):
        build_star(GwaParams(2, 1, Z))
    with pytest.raises(ValueError):
        build_star(GwaParams(2, 0, Z), 0)
    with pytest.raises(ValueError):
        build_star(GwaParams(2, 0, Z), 9)


def test_star_examples():
    a = GwaParams(2, 0, Z)
    sp = build_star(a, 3)
    zz = star(sp, a.z(), a.z())
    assert zz.coefficients[0] == a.z(2)
    assert all(c.is_zero() for c in zz.coefficients[1:])
    yz = star(sp, a.y(), a.z())
    assert all(c == a.y() * a.z() for c in yz.coefficients)
    xz = star(sp, a.x(), a.z())
    assert xz.coefficients[0] == a.x() * a.z()
    assert xz.coefficients[1] == -(a.x() * a.z())
    assert all(c.is_zero() for c in xz.coefficients[2:])
    rng = random.Random(3)
    for _ in range(5):
        u = random_element(rng, a, 4)
        assert star(sp, u, a.one()) == lift(a, u, 3)
        assert star(sp, a.one(), u) == lift(a, u, 3)


def test_quantum_datum_example():
    # phi = z: the second derivative of the shifted polynomial vanishes
    a = GwaParams(2, 0, Z)
    sp = build_star(a, 3)
    assert sp.f_n(1)(a.x(), a.y()) == -2 * a.z()
    for n in (2, 3):
        assert sp.f_n(n)(a.x(), a.y()).is_zero()
        assert sp.f_n(n)(a.x(), a.z()).is_zero()
        assert sp.f_n(n)(a.y(), a.z()) == a.y() * a.z()


def test_classical_datum_example():
    # phi = z^2, eta = 1: Taylor coefficients of (z+1)^2
    a = GwaParams(1, 1, Z**2)
    sp = build_star(a, 3)
    assert sp.f_n(1)(a.x(), a.y()) == -2 * (a.z() + a.one())
    assert sp.f_n(2)(a.x(), a.y()) == a.one()
    assert sp.f_n(3)(a.x(), a.y()).is_zero()
    for n in (2, 3):
        assert sp.f_n(n)(a.y(), a.z()).is_zero()


def test_associativity():
    rng = random.Random(9)
    for a in noncommutative_corpus():
        sp = build_star(a, 3)
        gens = [a.x(), a.y(), a.z(), a.one()]
        for u in gens:
            for v in gens:
                for w in gens:
                    assert check_assoc(sp, u, v, w).is_zero(), (a, u, v, w)
        for _ in range(8):
            u, v, w = (random_element(rng, a, 2 * a.l + 2, nterms=2)
                       for _ in range(3))
            assert check_assoc(sp, u, v, w).is_zero(), a


def test_relations():
    for a in noncommutative_corpus():
        sp = build_star(a, 4)
        rel = check_relations(sp)
        assert set(rel) == {"f1", "f2", "f3", "f4"}
        for name, res in rel.items():
            assert res.is_zero(), (a, name)


def test_obstruction():
    for a in (GwaParams(2, 0, Z**2 - ONE), GwaParams(1, 1, Z**2),
              GwaParams(-1, 0, Z**2 - ONE)):
        sp = build_star(a, 4)
        for n in (2, 3, 4):
            rep = check_obstruction(sp, n, 3 * a.l + 6)
            assert rep["pass"] and rep["triples"] > 0, (a, n)
    sp = build_star(GwaParams(2, 0, Z), 3)
    with pytest.raises(ValueError):
        check_obstruction(sp, 5, 4)


def test_local_finiteness():
    for a in (GwaParams(2, 0, Z*(Z - ONE)*(Z - Poly.constant(2))),
              GwaParams(1, 1, Z * (Z - ONE))):
        sp = build_star(a, 4)
        rep = check_local_finiteness(sp, 3 * a.l + 6)
        assert rep["pass"] and rep["pairs"] > 0


def test_local_finiteness_stops_at_five_failures(monkeypatch):
    a = GwaParams(2, 0, Z)
    sp = build_star(a, 2)

    class Escaping:
        """An F_n whose value on every pair lies far above the filtration."""

        def evaluate(self, u, v):
            return a.monomial(100, 0)

    monkeypatch.setattr(StarProduct, "f_n", lambda self, n: Escaping())
    rep = check_local_finiteness(sp, 6)
    assert len(rep["failures"]) == 5 and not rep["pass"]
    assert rep["pairs"] == 3  # two failures (n = 1, 2) per pair


def test_taylor_series_identity():
    # x * y agrees with the shifted-argument series computed by substitution
    for a in noncommutative_corpus():
        sp = build_star(a, 4)
        assert check_relations(sp)["f3"].is_zero(), a


def test_truncated_element_ops():
    a = GwaParams(2, 0, Z)
    u = lift(a, a.x(), 2)
    v = TruncatedElement(a, (a.z(), a.one(), a.zero()))
    assert (u + v - v) == u
    assert (u - u).is_zero()
    w = v.tau_times([0, 1])
    assert w.coefficients[0].is_zero() and w.coefficients[1] == a.z()
    assert w.coefficients[2] == a.one()
    data = v.to_json()
    assert len(data) == 3 and data[0] == [{"p": 1, "q": 0, "c": "1"}]
    assert truncated_zero(a, 4).order == 4


def test_star_mul_against_scalar_expansion():
    # tau-bilinearity: (tau u) * v = tau (u * v) after truncation
    a = GwaParams(1, 1, Z**2)
    sp = build_star(a, 3)
    rng = random.Random(21)
    for _ in range(5):
        u = random_element(rng, a, 3)
        v = random_element(rng, a, 3)
        lhs = star_mul(sp, lift(a, u, 3).tau_times([0, 1]), lift(a, v, 3))
        rhs = star(sp, u, v).tau_times([0, 1])
        assert lhs == rhs


def test_discovery_mode():
    rep = discover_f2(GwaParams(2, 0, Z))
    assert rep["matches_closed_form"] and rep["coboundary_consistent"]
    # richer phi: the contraction picks a different (gauge-equivalent)
    # preimage, so only stagewise consistency is guaranteed
    rep = discover_f2(GwaParams(2, 0, Z**2 - ONE))
    assert rep["coboundary_consistent"]
    rep = discover_f2(GwaParams(1, 1, Z * (Z - ONE)))
    assert rep["coboundary_consistent"]


def test_f1_noncoboundary_evidence():
    for a in (GwaParams(2, 0, Z), GwaParams(2, 0, Z**2 - ONE),
              GwaParams(-1, 0, Z**2 - ONE), GwaParams(1, 1, Z * (Z - ONE))):
        rep = f1_noncoboundary_evidence(a)
        assert rep["pass"] and rep["one_sided"], a
    # with a repeated root the algebra is not homologically smooth and the
    # first-order cocycle does bound: the evidence is expected to fail there
    rep = f1_noncoboundary_evidence(GwaParams(1, 1, Z**2))
    assert rep["preimage_found"] and not rep["pass"]
