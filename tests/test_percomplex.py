import random
from fractions import Fraction

import pytest

from gwadeform import percomplex
from gwadeform.core import (
    GwaParams,
    LegMap,
    apply_automorphism,
    basis_window,
    bimodule_act,
    module_nu,
    module_plain,
    nakayama,
)
from gwadeform.errors import NotCocycleError
from gwadeform.homology import commutator_span
from gwadeform.percomplex import (
    PerCochain,
    _Ops,
    contract3,
    f_map,
    g_map,
    is_cocycle,
    per_diff,
    per_solve_preimage,
    per_zero,
    split2,
)
from gwadeform.scalars import Poly, bezout_for_phi

from conftest import full_corpus, random_element

Z = Poly.z()
ONE = Poly.one()


def squarefree_corpus():
    return [a for a in full_corpus()
            if a.l == 0 or bezout_is_ok(a)]


def bezout_is_ok(a):
    try:
        bezout_for_phi(a.phi)
        return True
    except Exception:
        return False


def random_cochain(rng, params, mod, degree, window=4):
    n = {0: 1, 1: 3}.get(degree, 4)
    comps = tuple(random_element(rng, params, window) for _ in range(n))
    return PerCochain(params, mod, degree, comps)


def obstruction_cocycle(a, mod):
    """The quantum degree-3 obstruction, with its stated degree-2 preimage."""
    pb = a.phi_bar
    pb1, pb2 = pb.derivative(), pb.derivative().derivative()
    c = PerCochain(a, mod, 3, (
        a.z() * a.y() * a.x(),
        a.z() * a.x() * a.y(),
        Fraction(-1, 2) * (a.z(2) * a.from_poly(pb2) * a.x()),
        a.y() * a.z() * a.from_poly(pb1)
        + Fraction(1, 2) * (a.y() * a.z(2) * a.from_poly(pb2)),
    ))
    pre = PerCochain(a, mod, 2, (
        a.zero(), -(a.y() * a.z()), a.zero(),
        Fraction(1, 2) * a.from_poly(Z**2 * pb2),
    ))
    return c, pre


def test_per_diff_degree0():
    a = GwaParams(2, 0, Z)
    mod = module_plain(a)
    d = per_diff(PerCochain(a, mod, 0, (a.z(),)))
    assert d.components[0].is_zero()  # z is central in its own row
    assert d.components[1] == a.x() * a.z() - a.z() * a.x()
    assert d.components[2] == a.y() * a.z() - a.z() * a.y()
    assert per_diff(PerCochain(a, mod, 0, (a.one(),))).is_zero()


def test_per_diff_squared():
    rng = random.Random(4)
    for a in full_corpus():
        for mod in (module_plain(a), module_nu(a)):
            for degree in range(4):
                c = random_cochain(rng, a, mod, degree)
                assert per_diff(per_diff(c)).is_zero(), (a, degree)


def test_not_cocycle_example():
    a = GwaParams(2, 0, Z**2 - ONE)
    mod = module_plain(a)
    c = PerCochain(a, mod, 2, (a.one(), a.zero(), a.zero(), a.zero()))
    assert not is_cocycle(c)


def test_f_map():
    a = GwaParams(2, 0, Z)
    mod = module_plain(a)
    assert f_map(a.zero(), a, mod).is_zero()
    fz = f_map(a.z(), a, mod)
    assert fz.components[0] == 2 * (a.z() * a.x())
    assert fz.components[1] == -(a.y() * a.z())
    assert fz.components[2].is_zero()
    assert fz.components[3] == -2 * a.z()
    rng = random.Random(17)
    for alg in full_corpus():
        for mod in (module_plain(alg), module_nu(alg)):
            for _ in range(5):
                assert is_cocycle(f_map(random_element(rng, alg, 4), alg, mod))


def twisted_commutator(a, b, m):
    nu = nakayama(a)
    return b * m - m * apply_automorphism(nu, b)


def test_g_map():
    a = GwaParams(2, 0, Z**2 - ONE)
    mod = module_plain(a)
    bez = bezout_for_phi(a.phi)
    assert g_map(per_zero(a, mod, 2), bez).is_zero()
    with pytest.raises(NotCocycleError):
        g_map(PerCochain(a, mod, 2, (a.one(), a.zero(), a.zero(), a.zero())), bez)
    # g(f(m)) - m lies in the twisted-commutator span
    window = 2 * a.l + 8
    span = commutator_span(a, module_nu(a), window)
    rng = random.Random(23)
    for _ in range(5):
        m = random_element(rng, a, 3)
        diff = g_map(f_map(m, a, mod), bez) - m
        assert span.contains(diff)
    # g on a coboundary lies in the twisted-commutator span as well
    for _ in range(3):
        u = random_cochain(rng, a, mod, 1, window=3)
        val = g_map(per_diff(u), bez)
        assert span.contains(val)


def test_contract3_roundtrip():
    rng = random.Random(31)
    for a in full_corpus():
        if not bezout_is_ok(a):
            continue
        bez = bezout_for_phi(a.phi)
        for mod in (module_plain(a), module_nu(a)):
            z = per_zero(a, mod, 3)
            assert per_diff(contract3(z, bez)).is_zero()
            for _ in range(4):
                c = per_diff(random_cochain(rng, a, mod, 2, window=3))
                n = contract3(c, bez)
                assert per_diff(n) == c, (a, mod)


def test_contract3_obstruction():
    for a in (GwaParams(2, 0, Z), GwaParams(2, 0, Z**2 - ONE),
              GwaParams(-1, 0, Z**2 - ONE)):
        mod = module_plain(a)
        c, pre = obstruction_cocycle(a, mod)
        assert is_cocycle(c)
        assert per_diff(pre) == c  # the stated preimage, checked independently
        bez = bezout_for_phi(a.phi)
        assert per_diff(contract3(c, bez)) == c


def test_contract3_rejects_non_cocycle():
    a = GwaParams(2, 0, Z)
    mod = module_plain(a)
    bad = PerCochain(a, mod, 3, (a.one(), a.zero(), a.zero(), a.zero()))
    with pytest.raises(NotCocycleError):
        contract3(bad, bezout_for_phi(a.phi))


def test_split2():
    rng = random.Random(37)
    for a in full_corpus():
        if not bezout_is_ok(a):
            continue
        bez = bezout_for_phi(a.phi)
        for mod in (module_plain(a), module_nu(a)):
            u, n2 = split2(per_zero(a, mod, 2), bez)
            assert u.is_zero() and n2.is_zero()
            for _ in range(4):
                m = random_element(rng, a, 3)
                c = per_diff(random_cochain(rng, a, mod, 1, window=3)) \
                    + f_map(m, a, mod)
                u, n2 = split2(c, bez)
                assert per_diff(u) + f_map(n2, a, mod) == c, (a, mod)
                assert n2 == g_map(c, bez)


def test_split2_computes_per_diff_once(monkeypatch):
    a = GwaParams(2, 0, Z**2 - ONE)
    bez = bezout_for_phi(a.phi)
    mod = module_nu(a)
    c = per_diff(random_cochain(random.Random(3), a, mod, 1, window=3)) \
        + f_map(a.z(), a, mod)
    calls = []
    real = percomplex.per_diff

    def counted(cochain):
        calls.append(cochain.degree)
        return real(cochain)

    monkeypatch.setattr(percomplex, "per_diff", counted)
    split2(c, bez)
    assert calls == [2]
    calls.clear()
    g_map(c, bez)
    assert calls == [2]


def test_per_solve_preimage():
    a = GwaParams(1, 1, Z)
    mod = module_plain(a)
    rng = random.Random(41)
    # a coboundary target is recovered
    u = random_cochain(rng, a, mod, 1, window=2)
    target = per_diff(u)
    found = per_solve_preimage(target, 4)
    assert found is not None and per_diff(found) == target
    # f of a twisted commutator is a coboundary
    c = twisted_commutator(a, a.x(), a.z())
    found = per_solve_preimage(f_map(c, a, mod), 5)
    assert found is not None and per_diff(found) == f_map(c, a, mod)


def test_per_solve_preimage_target_beyond_the_window():
    # the target reaches weight 7, past window 2 + 2(l + 1): no column
    # reaches those terms, so the truncated system is inconsistent
    a = GwaParams(1, 1, Z)
    mod = module_plain(a)
    target = per_diff(PerCochain(a, mod, 1, (a.monomial(6, 0), a.zero(), a.zero())))
    assert per_solve_preimage(target, 2) is None
    found = per_solve_preimage(target, 6)
    assert found is not None and per_diff(found) == target


def test_serialization():
    a = GwaParams(2, 0, Z)
    c = f_map(a.z(), a, module_nu(a))
    data = c.to_json()
    assert data["degree"] == 2
    assert data["module"]["right"] == "nu"
    assert len(data["components"]) == 4


def test_connecting_deltas_built_once_per_algebra(monkeypatch):
    # every per_diff call asks for four twisted deltas; each is computed
    # once per algebra, whatever the module and however many calls
    a = GwaParams(2, 0, Z**2 - ONE)
    rng = random.Random(5)
    cochains = [PerCochain(a, make(a), degree, tuple(
        random_element(rng, a, 4) for _ in range(PerCochain.slots(degree))))
        for make in (module_plain, module_nu) for degree in range(4)]
    applied = []
    real = LegMap.apply

    def counted(self, params, h):
        applied.append(self)
        return real(self, params, h)

    monkeypatch.setattr(LegMap, "apply", counted)
    first = [per_diff(c) for c in cochains]
    built = len(applied)
    assert built > 0 and len(a._delta_cache) == 4
    assert [per_diff(c) for c in cochains] == first
    assert len(applied) == built


class ReferenceOps(_Ops):
    """The former one-sided actions a . m . 1 and 1 . m . a, via bimodule_act."""

    def l(self, a, m):
        return bimodule_act(self.mod, a, m, self.a.one())

    def r(self, m, a):
        return bimodule_act(self.mod, self.a.one(), m, a)


def test_maps_match_bimodule_act_reference(monkeypatch):
    rng = random.Random(43)
    cases = []
    for a in full_corpus():
        bez = bezout_for_phi(a.phi) if bezout_is_ok(a) else None
        for mod in (module_plain(a), module_nu(a)):
            cochains = [random_cochain(rng, a, mod, d, window=3)
                        for d in range(4)]
            m = random_element(rng, a, 3)
            cases.append((a, mod, bez, cochains, m))

    def evaluate():
        out = []
        for a, mod, bez, cochains, m in cases:
            row = [per_diff(c) for c in cochains] + [f_map(m, a, mod)]
            if bez is not None:
                cocycle2 = per_diff(cochains[1]) + f_map(m, a, mod)
                row += [g_map(cocycle2, bez),
                        contract3(per_diff(cochains[2]), bez),
                        split2(cocycle2, bez)]
            out.append(row)
        return out

    got = evaluate()
    monkeypatch.setattr(percomplex, "_Ops", ReferenceOps)
    assert evaluate() == got
    assert len(cases) == 22 and sum(len(row) == 8 for row in got) == 18
