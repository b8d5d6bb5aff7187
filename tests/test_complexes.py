import random
from fractions import Fraction

import pytest

from gwadeform import complexes
from gwadeform.complexes import (
    _compose,
    _dh_gens,
    _dv_gens,
    _linear_extend,
    _r_gens,
    _standardize,
    c_diff,
    tot_images,
    verify_hdc,
)
from gwadeform.core import (
    GwaElement,
    GwaParams,
    TensorElement,
    LEG_ID,
    LegMap,
    _accumulate,
    multiply,
    twisted_delta,
)
from gwadeform.scalars import Poly

from conftest import (
    c_chain,
    c_from_reference,
    c_solve_preimage,
    c_to_reference,
    full_corpus,
    random_algebra,
    random_element,
    reference_c_diff,
    reference_c_generator_images,
    reference_dh_gens,
    reference_dv_gens,
    reference_linear_extend,
    reference_r_gens,
    reference_standardize,
    reference_tot_images,
    reference_verify_hdc,
    table_terms,
    tensor_from_pair,
)

Z = Poly.z()
ONE = Poly.one()


def small_corpus():
    # a quick cross-section: quantum generic, quantum root-of-unity, classical
    return [GwaParams(2, 0, Z**2 - ONE), GwaParams(-1, 0, Z**2 - ONE),
            GwaParams(1, 1, Z)]


def random_c_element(rng, params, degree, window, nterms=2, reach=1):
    """nterms random standard monomials c x_q (x) z^m x_j per slot, with
    |q|, |j| <= reach and m <= window."""
    slots = []
    for _ in range(1 if degree == 0 else 2):
        terms = {}
        for _ in range(nterms):
            q = rng.randint(-reach, reach)
            j = rng.randint(-reach, reach)
            m = rng.randint(0, window)
            c = Fraction(rng.randint(-3, 3))
            _accumulate(terms, {((0, q), (m, j)): c})
        slots.append(terms)
    return slots


def test_standardize_balanced():
    # ub (x) v and u (x) sigma^{push}(b) v standardize identically, into
    # the standard form x_q (x) z^m x_j
    rng = random.Random(2)
    for a in small_corpus():
        for push in (-1, 0, 1):
            for _ in range(10):
                u = a.monomial(rng.randint(0, 2), rng.randint(-2, 2))
                v = a.monomial(rng.randint(0, 2), rng.randint(-2, 2))
                b = Poly([rng.randint(-2, 2) for _ in range(3)])
                if b.is_zero():
                    continue
                lhs = _standardize(a, tensor_from_pair(u * a.from_poly(b), v).terms,
                                   push)
                rhs = _standardize(a, tensor_from_pair(
                    u, a.from_poly(a.sigma_pow(b, push)) * v).terms, push)
                assert lhs == rhs
                assert all(L[0] == 0 for L, _ in lhs)


def test_standardize_matches_reference():
    # _standardize against the former standardize, through element products
    rng = random.Random(3)
    for a in full_corpus() + [random_algebra(rng) for _ in range(12)]:
        for push in (-1, 0, 1):
            u = random_element(rng, a, 4)
            v = random_element(rng, a, 4)
            got = _standardize(a, tensor_from_pair(u, v).terms, push)
            want = reference_standardize(a, u, v, push)
            assert c_to_reference([got]) == [want], (a, push)


def test_c_images_are_dh_row_zero():
    # the hand-written images of the former c_diff are d^h's table on the
    # q = 0 row of P
    rng = random.Random(5)
    for a in full_corpus() + [random_algebra(rng) for _ in range(12)]:
        for i in range(1, 8):
            want = [[sum((tensor_from_pair(u, v) for u, v in pairs),
                         TensorElement(a, {})).terms for pairs in row]
                    for row in reference_c_generator_images(a, i)]
            assert _dh_gens(a, i, 0) == want, (a, i)


def test_c_diff_matches_reference():
    # random multi-term elements of degrees 1..7 against the former c_diff
    rng = random.Random(11)
    count = 0
    for a in full_corpus() + [random_algebra(rng) for _ in range(12)]:
        for i in [*range(1, 8)] * 3:
            e = random_c_element(rng, a, i, 3, nterms=3, reach=2)
            want = reference_c_diff(a, i, c_to_reference(e))
            got = c_diff(a, i, e)
            assert got == c_from_reference(want), (a, i)
            count += any(got)
    assert count > 400


def test_c_diff_generators():
    a = GwaParams(2, 0, Z**2 - ONE)
    one, x, y = a.one(), a.x(), a.y()
    d1s0 = c_diff(a, 1, c_chain(a, 1, [(one, one)], []))
    assert d1s0 == c_chain(a, 0, [(x, one), (-1 * one, x)])
    d2s0 = c_diff(a, 2, c_chain(a, 2, [(one, one)], []))
    assert d2s0 == c_chain(a, 1, [(y, one)], [(one, x)])
    d2s1 = c_diff(a, 2, c_chain(a, 2, [], [(one, one)]))
    assert d2s1 == c_chain(a, 1, [(one, y)], [(x, one)])
    d3s1 = c_diff(a, 3, c_chain(a, 3, [], [(one, one)]))
    assert d3s1 == c_chain(a, 2, [(-1 * one, y)], [(y, one)])


def test_c_diff_checks_degree_and_slots():
    # C_0 has no differential, and C_i (i >= 1) has exactly two slots
    a = GwaParams(2, 0, Z**2 - ONE)
    g = c_chain(a, 2, [(a.one(), a.one())], [])
    with pytest.raises(ValueError):
        c_diff(a, 0, g[:1])
    for slots in (g[:1], g + [{}]):
        with pytest.raises(ValueError):
            c_diff(a, 2, slots)


def test_c_diff_squared_zero():
    for a in small_corpus():
        for i in range(1, 7):
            for s in range(2):
                summands = [[(a.one(), a.one())] if t == s else [] for t in range(2)]
                g = c_chain(a, i + 1, *summands)
                assert not any(c_diff(a, i, c_diff(a, i + 1, g))), (a, i, s)


def test_c_diff_squared_on_random():
    rng = random.Random(6)
    for a in small_corpus():
        for i in range(1, 5):
            e = random_c_element(rng, a, i + 1, 3)
            assert not any(c_diff(a, i, c_diff(a, i + 1, e)))


def c_augment(params, slots):
    """Multiplication map A (x)_B A -> A on degree 0 (one slot)."""
    if len(slots) != 1:
        raise ValueError("augmentation is defined in degree 0 only")
    out: dict = {}
    for ((p, q), (m, j)), c in slots[0].items():
        _accumulate(out, multiply(params.monomial(p, q),
                                  params.monomial(m, j)).terms, c)
    return GwaElement(params, out)


def test_augmentation():
    a = GwaParams(2, 0, Z)
    e = c_chain(a, 0, [(a.x(), a.y()), (a.z(2), a.x())])
    assert c_augment(a, e) == a.x() * a.y() + a.z(2) * a.x()
    # augmentation kills boundaries
    rng = random.Random(8)
    for _ in range(10):
        e = random_c_element(rng, a, 1, 3)
        assert c_augment(a, c_diff(a, 1, e)).is_zero()


def test_c_solve_preimage_roundtrip():
    rng = random.Random(13)
    a = GwaParams(1, 1, Z)  # small l keeps the windowed solve quick
    for i in (1, 2, 3):
        for _ in range(5):
            e = random_c_element(rng, a, i + 1, 2, nterms=1)
            target = c_diff(a, i + 1, e)
            found = c_solve_preimage(a, i, target, 4)
            assert found is not None
            assert c_diff(a, i + 1, found) == target
    assert not any(c_solve_preimage(a, 1, c_chain(a, 1, [], []), 2))


def test_c_solve_rejects_non_cycle():
    a = GwaParams(1, 1, Z)
    bad = c_chain(a, 1, [(a.one(), a.one())], [])
    with pytest.raises(ValueError):
        c_solve_preimage(a, 1, bad, 3)


def test_p_dv_examples():
    # d^v as table rows: row t is the image of generator t of P_{p,1}
    a = GwaParams(2, 0, Z**2 - ONE)
    one, z = a.one(), a.z()
    sz = a.from_poly(a.sigma_z(1))
    siz = a.from_poly(a.sigma_z(-1))
    assert _dv_gens(a, 0) == [[(tensor_from_pair(z, one)
                                - tensor_from_pair(one, z)).terms]]
    g10, g11 = _dv_gens(a, 1)
    assert g10 == [(tensor_from_pair(sz, one) - tensor_from_pair(one, z)).terms, {}]
    assert g11 == [{}, (tensor_from_pair(siz, one) - tensor_from_pair(one, z)).terms]
    # the zero chain of P_{2,1} goes to zero
    assert _linear_extend(a, [{}, {}], _dv_gens(a, 2)) == [{}, {}]


def test_p_dh_examples():
    a = GwaParams(2, 0, Z**2 - ONE)
    one, x, y = a.one(), a.x(), a.y()
    assert _dh_gens(a, 1, 1)[1] == [(-tensor_from_pair(y, one)
                                     + tensor_from_pair(Fraction(1, 2) * one, y)).terms]
    assert _dh_gens(a, 2, 1)[0] == [(-tensor_from_pair(y, one)).terms,
                                    (-tensor_from_pair(2 * one, x)).terms]
    assert _dh_gens(a, 1, 0)[0] == [(tensor_from_pair(x, one)
                                     - tensor_from_pair(one, x)).terms]


def test_p_r_examples():
    a = GwaParams(2, 0, Z**2 - ONE)
    s = LegMap(1, 0)
    assert _r_gens(a, 2)[1] == [twisted_delta(a, s, s, a.phi).scale(-a.lam).terms]
    assert _r_gens(a, 3)[0] == [(-twisted_delta(a, s, LEG_ID, a.phi)).terms, {}]


def test_verify_hdc_corpus():
    for a in full_corpus():
        report = verify_hdc(a, 6)
        assert report and all(r["pass"] for r in report), a


def test_verify_hdc_matches_element_reference():
    # the composed term-dict tables against the element-built tables
    # composed through act_left/act_right: same records, same order
    rng = random.Random(71)
    for a in full_corpus() + [random_algebra(rng) for _ in range(12)]:
        assert verify_hdc(a, 6) == reference_verify_hdc(a, 6), a


@pytest.mark.parametrize("p0, k", [(2, 0), (2, 1), (3, 0), (4, 1), (5, 0)])
def test_verify_hdc_reports_a_negated_r_row(monkeypatch, p0, k):
    # negate row k of r on P_{p0,0}: exactly the records that read that row
    # fail, namely generator k of the identities with r(p0), and each
    # generator of P_{p0+1,0} whose d^h row reaches slot k before r(p0)
    a = GwaParams(2, 0, Z**2 - ONE)
    honest = complexes._r_gens

    def poisoned(params, p):
        rows = honest(params, p)
        if p == p0:
            rows[k] = [_accumulate({}, t, -1) for t in rows[k]]
        return rows

    monkeypatch.setattr(complexes, "_r_gens", poisoned)
    report = verify_hdc(a, 6)
    failed = {(rec["identity"], rec["position"], rec["generator"])
              for rec in report if not rec["pass"]}
    want = {("dh.dh+dv.r", (p0, 0), k), ("dh.dh+r.dv", (p0, 1), k)}
    if p0 >= 3:
        want.add(("dh.r+r.dh", (p0, 0), k))
    want |= {("dh.r+r.dh", (p0 + 1, 0), t)
             for t, row in enumerate(_dh_gens(a, p0 + 1, 0)) if row[k]}
    assert failed == want
    assert all(rec["pass"] for rec in report
               if rec["identity"] == "dh.dv+dv.dh")


def test_tot_diff_degree2_display():
    # rows of tot_images(a, 2) on T_1 = P_{0,1} + P_{1,0}
    a = GwaParams(2, 0, Z**2 - ONE)
    one, x, y, z = a.one(), a.x(), a.y(), a.z()
    sz = a.from_poly(a.sigma_z(1))
    images = tot_images(a, 2)
    # generator in the q=1 row, first slot
    assert images[0] == [(-tensor_from_pair(x, one) + tensor_from_pair(2 * one, x)).terms,
                         (tensor_from_pair(sz, one) - tensor_from_pair(one, z)).terms,
                         {}]
    # generator in the q=0 row, first slot
    assert images[2] == [(-twisted_delta(a, LEG_ID, LEG_ID, a.phi)).terms,
                         tensor_from_pair(y, one).terms,
                         tensor_from_pair(one, x).terms]


def test_tot_diff_squared_zero():
    # d o d = 0 on T: the composed table of d_{n-1} after d_n is zero
    for a in small_corpus():
        for n in range(2, 7):
            twice = _compose(a, tot_images(a, n), tot_images(a, n - 1))
            assert all(not t for row in twice for t in row), (a, n)


def test_tot_images_shape():
    # T_0 has 1 generator, T_1 has 3 and T_n has 4 for n >= 2
    a = GwaParams(2, 0, Z**2 - ONE)
    rank = [1, 3, 4, 4, 4, 4]
    for n in range(1, 6):
        images = tot_images(a, n)
        assert len(images) == rank[n]
        assert {len(row) for row in images} == {rank[n - 1]}
        # term dicts {(L, R): c} that store no zero
        assert all(type(t) is dict and all(t.values())
                   for row in images for t in row)
    for n in (0, -1):
        with pytest.raises(ValueError):
            tot_images(a, n)


def test_linear_extend_matches_element_reference():
    # every table of the total differential, on random multi-term tensors
    rng = random.Random(59)
    for a in full_corpus():
        for n in range(1, 7):
            images = tot_images(a, n)
            elements = [[TensorElement(a, t) for t in row] for row in images]
            for _ in range(2):
                comps = [tensor_from_pair(random_element(rng, a, 3, 2),
                                          random_element(rng, a, 3, 2))
                         + tensor_from_pair(random_element(rng, a, 2, 2),
                                            random_element(rng, a, 2, 2))
                         for _ in images]
                got = _linear_extend(a, [c.terms for c in comps], images)
                want = reference_linear_extend(a, comps, elements)
                assert got == [t.terms for t in want], (a, n)


def test_generator_tables_match_element_reference():
    # the term-dict tables against the same tables built on elements, on
    # the corpus and on random algebras
    rng = random.Random(67)
    for a in full_corpus() + [random_algebra(rng) for _ in range(12)]:
        for n in range(1, 6):
            assert (tot_images(a, n)
                    == table_terms(reference_tot_images(a, n))), (a, n)
        for p in range(6):
            assert _dv_gens(a, p) == table_terms(reference_dv_gens(a, p)), a
            for q in (0, 1) if p >= 1 else ():
                assert (_dh_gens(a, p, q)
                        == table_terms(reference_dh_gens(a, p, q))), a
            if p >= 2:
                assert _r_gens(a, p) == table_terms(reference_r_gens(a, p)), a


def test_augmentation_tot():
    # multiplication map after the degree-1 total differential is zero
    for a in small_corpus():
        for row in tot_images(a, 1):
            total = a.zero()
            for (L, R), c in row[0].items():
                total = total + GwaElement(a, {L: c}) * GwaElement(a, {R: 1})
            assert total.is_zero()
