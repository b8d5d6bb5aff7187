import random
from fractions import Fraction

import pytest

from gwadeform import percomplex
from gwadeform.complexes import _1, _compose, tot_images
from gwadeform.core import (
    GwaParams,
    LEG_ID,
    LegMap,
    _accumulate,
    apply_automorphism,
    basis_window,
    bimodule_act,
    module_nu,
    module_plain,
    nakayama,
    tensor_act,
    twisted_delta,
)
from gwadeform.errors import NotCocycleError
from gwadeform.homology import commutator_span
from gwadeform.percomplex import (
    PerCochain,
    _h_table,
    contract3,
    f_map,
    g_map,
    is_cocycle,
    per_diff,
    per_solve_preimage,
    split2,
)
from gwadeform.scalars import Poly, bezout_for_phi

from conftest import (
    OneSidedOps,
    full_corpus,
    random_algebra,
    random_element,
    reference_contract3,
    reference_f_map,
    reference_g_map,
    reference_f_table,
    reference_right_legs,
    reference_split2,
    table_terms,
)

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


class ReferenceGrid(OneSidedOps):
    """The former hand-written duals of the grid maps, one per map and parity."""

    def __init__(self, params, module):
        super().__init__(params, module)
        a = params
        sig = LegMap(1, 0)
        self.z = a.z()
        self.sz = a.from_poly(a.sigma_z(1))
        self.delta = twisted_delta(a, LEG_ID, LEG_ID, a.phi)
        self.delta_sl = twisted_delta(a, sig, LEG_ID, a.phi)
        self.delta_sr = twisted_delta(a, LEG_ID, sig, a.phi)

    # horizontal maps, row 0
    def dh00(self, m):
        return (self.l(self.x, m) - self.r(m, self.x),
                self.l(self.y, m) - self.r(m, self.y))

    def dh_odd0(self, m1, m2):
        return (self.l(self.y, m1) + self.r(m2, self.x),
                self.r(m1, self.y) + self.l(self.x, m2))

    def dh_even0(self, m1, m2):
        return (self.l(self.x, m1) - self.r(m2, self.x),
                -self.r(m1, self.y) + self.l(self.y, m2))

    # horizontal maps, row 1
    def dh01(self, m):
        return (-self.l(self.x, m) + self.lam * self.r(m, self.x),
                -self.l(self.y, m) + self.il * self.r(m, self.y))

    def dh_odd1(self, m1, m2):
        return (-self.l(self.y, m1) - self.lam * self.r(m2, self.x),
                -self.il * self.r(m1, self.y) - self.l(self.x, m2))

    def dh_even1(self, m1, m2):
        return (-self.l(self.x, m1) + self.lam * self.r(m2, self.x),
                self.il * self.r(m1, self.y) - self.l(self.y, m2))

    # vertical maps
    def dv0(self, m):
        return self.l(self.z, m) - self.r(m, self.z)

    def dv_odd(self, m1, m2):
        return (self.l(self.sz, m1) - self.r(m1, self.z),
                self.il * self.l(self.z, m2) - self.il * self.r(m2, self.sz))

    def dv_even(self, m1, m2):
        return (self.l(self.z, m1) - self.r(m1, self.z),
                self.il * self.l(self.sz, m2) - self.il * self.r(m2, self.sz))

    # connecting maps
    def s0(self, m):
        return (-self.act(self.delta, m),
                -self.lam * self.act(self.delta_ss, m))

    def s_odd(self, m1, m2):
        return (-self.act(self.delta_sl, m1),
                -self.lam * self.act(self.delta_sr, m2))

    def s_even(self, m1, m2):
        return (-self.act(self.delta, m1),
                -self.lam * self.act(self.delta_ss, m2))


def reference_per_diff(c):
    """The former per_diff: the grid duals above, chosen by parity."""
    ops = ReferenceGrid(c.params, c.module)
    n = c.degree
    if n == 0:
        (m,) = c.components
        return PerCochain(c.params, c.module, 1,
                          (ops.dv0(m),) + ops.dh00(m))
    if n == 1:
        m, u, v = c.components
        row1 = ops.dh01(m)
        dv = ops.dv_odd(u, v)
        top = ops.s0(m)
        dh = ops.dh_odd0(u, v)
        return PerCochain(c.params, c.module, 2,
                          (row1[0] + dv[0], row1[1] + dv[1],
                           top[0] + dh[0], top[1] + dh[1]))
    m1, m2, m3, m4 = c.components
    # (m1, m2) sits at column n-1 of row 1; (m3, m4) at column n of row 0.
    if (n - 1) % 2 == 1:
        row1 = ops.dh_odd1(m1, m2)
        s = ops.s_odd(m1, m2)
    else:
        row1 = ops.dh_even1(m1, m2)
        s = ops.s_even(m1, m2)
    if n % 2 == 1:
        dh = ops.dh_odd0(m3, m4)
        dv = ops.dv_odd(m3, m4)
    else:
        dh = ops.dh_even0(m3, m4)
        dv = ops.dv_even(m3, m4)
    return PerCochain(c.params, c.module, n + 1,
                      (row1[0] + dv[0], row1[1] + dv[1],
                       s[0] + dh[0], s[1] + dh[1]))


def test_per_diff_matches_hand_written_duals():
    rng = random.Random(59)
    checked = 0
    for a in full_corpus():
        for mod in (module_plain(a), module_nu(a)):
            for degree in range(6):
                for _ in range(2):
                    c = random_cochain(rng, a, mod, degree)
                    assert per_diff(c) == reference_per_diff(c), (a, degree)
                    checked += 1
    assert checked == 264


def test_negative_degree_rejected():
    a = GwaParams(2, 0, Z)
    for degree in (-1, -2):
        with pytest.raises(ValueError):
            PerCochain(a, module_plain(a), degree, (a.one(),) * 4)
        with pytest.raises(ValueError):
            PerCochain(a, module_plain(a), degree,
                       (a.zero(),) * PerCochain.slots(degree))


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
    assert g_map(PerCochain(a, mod, 2, (a.zero(),) * 4), bez).is_zero()
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
            z = PerCochain(a, mod, 3, (a.zero(),) * 4)
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


def test_smoothness_identity():
    # the table h that contract3 pairs with splits d_3 exactly: d_3 h d_3
    # = d_3 on T_3 when phi is squarefree, and T is 2-periodic from T_3 on;
    # negating any one nonzero entry of h breaks the identity
    rng = random.Random(7)
    algebras = squarefree_corpus()
    count = len(algebras) + 30
    while len(algebras) < count:
        a = random_algebra(rng)
        if bezout_is_ok(a):
            algebras.append(a)
    for a in algebras:
        d3 = tot_images(a, 3)
        h = _h_table(a, bezout_for_phi(a.phi))
        assert _compose(a, _compose(a, d3, h), d3) == d3, a
        for n in range(5, 9):
            assert tot_images(a, n) == tot_images(a, n - 2), (a, n)
        for t, row in enumerate(h):
            for s, entry in enumerate(row):
                if entry:
                    bad = [list(r) for r in h]
                    bad[t][s] = {k: -c for k, c in entry.items()}
                    assert _compose(a, _compose(a, d3, bad), d3) != d3, (a, t, s)


def test_split2():
    rng = random.Random(37)
    for a in full_corpus():
        if not bezout_is_ok(a):
            continue
        bez = bezout_for_phi(a.phi)
        for mod in (module_plain(a), module_nu(a)):
            u, n2 = split2(PerCochain(a, mod, 2, (a.zero(),) * 4), bez)
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


def _mu_nu(a, T):
    """mu_nu(L (x) R) = R nu(L): the legs swapped, acting on 1 in A^nu."""
    return tensor_act({(R, L): c for (L, R), c in T.items()}, module_nu(a),
                      a.one())


def _table_identities(a, bez, F, G):
    """The identities (a), (b) and (c) behind H^2(A, M) = M / [A, M]_nu,
    with k the rows T_1 -> T_2 of split2's table and
    E = id - k d_2 - G F on T_2 (tables compose first row, then second)."""
    D2 = tot_images(a, 2)
    k = percomplex._split2_table(a, bez)[:3]
    E = [[_accumulate(_accumulate({(_1, _1): 1} if s == t else {}, dk, -1),
                      fg, -1)
          for s, (dk, fg) in enumerate(zip(dk_row, fg_row))]
         for t, (dk_row, fg_row) in enumerate(zip(_compose(a, D2, k),
                                                  _compose(a, F, G)))]
    return (all(not e for row in _compose(a, E, D2) for e in row),
            all(_mu_nu(a, e).is_zero() for e in _compose(a, G, D2)[0]),
            _mu_nu(a, _compose(a, G, F)[0][0]) == a.one())


def test_h2_table_identities():
    # for squarefree phi: (a) d_2 E = 0, (b) mu_nu(d_2 G) = 0 and
    # (c) mu_nu(F G) = 1; negating any one nonzero entry of F or G breaks
    # (a) or (c)
    rng = random.Random(11)
    algebras = squarefree_corpus() + [
        GwaParams(3, 0, Z**2 - ONE), GwaParams(-1, 0, Z**2 + ONE),
        GwaParams(1, 2, Z**3 - Z)]
    count = len(algebras) + 24
    while len(algebras) < count:
        a = random_algebra(rng)
        if bezout_is_ok(a):
            algebras.append(a)
    for a in algebras:
        bez = bezout_for_phi(a.phi)
        F = percomplex._f_table(a)
        G = [percomplex._g_row(a, *percomplex._right_legs(a, bez))]
        assert _table_identities(a, bez, F, G) == (True, True, True), a
        for name, table in (("F", F), ("G", G)):
            for t, row in enumerate(table):
                for s, entry in enumerate(row):
                    if not entry:
                        continue
                    bad = [list(r) for r in table]
                    bad[t][s] = {key: -c for key, c in entry.items()}
                    ident = (_table_identities(a, bez, bad, G) if name == "F"
                             else _table_identities(a, bez, F, bad))
                    assert not (ident[0] and ident[2]), (a, name, t, s)


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
    # a target over two x-degrees (x counts +1, y -1): the coboundary system
    # splits into one block per x-degree, and both blocks are solved
    zero = a.zero()
    u = (PerCochain(a, mod, 1, (a.monomial(1, 1), zero, zero))
         + PerCochain(a, mod, 1, (a.monomial(0, -2), zero, zero)))
    target = per_diff(u)
    found = per_solve_preimage(target, 4)
    assert found is not None and per_diff(found) == target
    # a term in a third block, which no unknown of the window reaches
    far = PerCochain(a, mod, 2, (a.monomial(0, 6), zero, zero, zero))
    assert per_solve_preimage(target + far, 4) is None


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
    # the per_diff calls of degrees 2 and 3 ask for four twisted deltas
    # between them; each is computed once per algebra, whatever the module
    # and however many calls
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


def test_f_table_and_right_legs_match_element_reference():
    # the term-dict f table and right legs 1 (x) h against the same tensors
    # built on elements, on the corpus and on random algebras
    rng = random.Random(79)
    for a in full_corpus() + [random_algebra(rng) for _ in range(12)]:
        assert percomplex._f_table(a) == table_terms(reference_f_table(a)), a
        if bezout_is_ok(a):
            bez = bezout_for_phi(a.phi)
            want = reference_right_legs(a, bez)
            assert (percomplex._right_legs(a, bez)
                    == tuple(t.terms for t in want)), a


class ReferenceOps(OneSidedOps):
    """The former one-sided actions a . m . 1 and 1 . m . a, via bimodule_act."""

    def l(self, a, m):
        return bimodule_act(self.mod, a, m, self.a.one())

    def r(self, m, a):
        return bimodule_act(self.mod, self.a.one(), m, a)


def test_maps_match_bimodule_act_reference():
    # the tables of f, g, contract3 and split2 against the same maps written
    # one product at a time, through multiply and through bimodule_act
    rng = random.Random(43)
    cases = []
    algebras = full_corpus() + [random_algebra(rng) for _ in range(8)]
    for a in algebras:
        bez = bezout_for_phi(a.phi) if bezout_is_ok(a) else None
        for mod in (module_plain(a), module_nu(a)):
            cochains = [random_cochain(rng, a, mod, d, window=3)
                        for d in (1, 2)]
            m = random_element(rng, a, 3)
            cases.append((a, mod, bez, cochains, m))
    for a, mod, bez, (c1, c2), m in cases:
        f = f_map(m, a, mod)
        cocycle2, cocycle3 = per_diff(c1) + f, per_diff(c2)
        for ops in (OneSidedOps, ReferenceOps):
            assert f == reference_f_map(m, a, mod, ops), (a, mod)
            if bez is None:
                continue
            assert g_map(cocycle2, bez) == reference_g_map(cocycle2, bez, ops)
            assert (contract3(cocycle3, bez)
                    == reference_contract3(cocycle3, bez, ops)), (a, mod)
            assert (split2(cocycle2, bez)
                    == reference_split2(cocycle2, bez, ops)), (a, mod)
    with_bez = [bez is not None for _, _, bez, _, _ in cases]
    assert len(cases) == 38 and sum(with_bez[:22]) == 18 and all(with_bez[22:])
