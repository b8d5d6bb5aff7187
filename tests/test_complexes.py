import random
from fractions import Fraction

import pytest

from gwadeform.complexes import (
    CElement,
    PElement,
    StandardTensor,
    _dh_gens,
    _dv_gens,
    _linear_extend,
    _r_gens,
    c_diff,
    c_element,
    p_dh,
    p_dv,
    p_generators,
    p_r,
    p_zero,
    standardize,
    tot_diff,
    tot_generators,
    tot_images,
    TotElement,
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
    tensor_from_pair,
    twisted_delta,
)
from gwadeform.scalars import Poly

from conftest import (
    act_left,
    act_right,
    c_solve_preimage,
    full_corpus,
    random_algebra,
    random_element,
    reference_dh_gens,
    reference_dv_gens,
    reference_r_gens,
    reference_tot_images,
    table_terms,
)

Z = Poly.z()
ONE = Poly.one()


def small_corpus():
    # a quick cross-section: quantum generic, quantum root-of-unity, classical
    return [GwaParams(2, 0, Z**2 - ONE), GwaParams(-1, 0, Z**2 - ONE),
            GwaParams(1, 1, Z)]


def random_c_element(rng, params, degree, window, nterms=2):
    comps = []
    for _ in range(1 if degree == 0 else 2):
        terms = {}
        for _ in range(nterms):
            q = rng.randint(-1, 1)
            j = rng.randint(-1, 1)
            m = rng.randint(0, window)
            c = Fraction(rng.randint(-3, 3))
            cur = terms.get((q, j), Poly.zero())
            terms[(q, j)] = cur + Poly.monomial(m, c)
        comps.append(StandardTensor(params, terms))
    return CElement(degree, tuple(comps))


def test_standardize_balanced():
    # ub (x) v and u (x) sigma^{push}(b) v standardize identically
    rng = random.Random(2)
    for a in small_corpus():
        for push in (-1, 0, 1):
            for _ in range(10):
                u = a.monomial(rng.randint(0, 2), rng.randint(-2, 2))
                v = a.monomial(rng.randint(0, 2), rng.randint(-2, 2))
                b = Poly([rng.randint(-2, 2) for _ in range(3)])
                if b.is_zero():
                    continue
                lhs = standardize(a, u * a.from_poly(b), v, push)
                rhs = standardize(a, u, a.from_poly(a.sigma_pow(b, push)) * v, push)
                assert lhs == rhs


def test_c_diff_generators():
    a = GwaParams(2, 0, Z**2 - ONE)
    one, x, y = a.one(), a.x(), a.y()
    d1s0 = c_diff(1, c_element(a, 1, [(one, one)], []))
    assert d1s0 == c_element(a, 0, [(x, one), (-1 * one, x)])
    d2s0 = c_diff(2, c_element(a, 2, [(one, one)], []))
    assert d2s0 == c_element(a, 1, [(y, one)], [(one, x)])
    d2s1 = c_diff(2, c_element(a, 2, [], [(one, one)]))
    assert d2s1 == c_element(a, 1, [(one, y)], [(x, one)])
    d3s1 = c_diff(3, c_element(a, 3, [], [(one, one)]))
    assert d3s1 == c_element(a, 2, [(-1 * one, y)], [(y, one)])


def test_c_diff_squared_zero():
    for a in small_corpus():
        for i in range(1, 7):
            for s in range(2):
                summands = [[(a.one(), a.one())] if t == s else [] for t in range(2)]
                g = c_element(a, i + 1, *summands)
                assert c_diff(i, c_diff(i + 1, g)).is_zero(), (a, i, s)


def test_c_diff_squared_on_random():
    rng = random.Random(6)
    for a in small_corpus():
        for i in range(1, 5):
            e = random_c_element(rng, a, i + 1, 3)
            assert c_diff(i, c_diff(i + 1, e)).is_zero()


def c_augment(e):
    """Multiplication map A (x)_B A -> A on degree 0."""
    if e.degree != 0:
        raise ValueError("augmentation is defined in degree 0 only")
    params = e.algebra
    out: dict = {}
    for (q, j), b in e.components[0].terms.items():
        _accumulate(out, multiply(params.monomial(0, q),
                                  multiply(params.from_poly(b),
                                           params.monomial(0, j))).terms)
    return GwaElement(params, out)


def test_augmentation():
    a = GwaParams(2, 0, Z)
    e = c_element(a, 0, [(a.x(), a.y()), (a.z(2), a.x())])
    assert c_augment(e) == a.x() * a.y() + a.z(2) * a.x()
    # augmentation kills boundaries
    rng = random.Random(8)
    for _ in range(10):
        e = random_c_element(rng, a, 1, 3)
        assert c_augment(c_diff(1, e)).is_zero()


def test_c_solve_preimage_roundtrip():
    rng = random.Random(13)
    a = GwaParams(1, 1, Z)  # small l keeps the windowed solve quick
    for i in (1, 2, 3):
        for _ in range(5):
            e = random_c_element(rng, a, i + 1, 2, nterms=1)
            target = c_diff(i + 1, e)
            found = c_solve_preimage(i, target, 4)
            assert found is not None
            assert c_diff(i + 1, found) == target
    assert c_solve_preimage(1, c_element(a, 1, [], []), 2).is_zero()


def test_c_solve_rejects_non_cycle():
    a = GwaParams(1, 1, Z)
    bad = c_element(a, 1, [(a.one(), a.one())], [])
    with pytest.raises(ValueError):
        c_solve_preimage(1, bad, 3)


def test_p_dv_examples():
    a = GwaParams(2, 0, Z**2 - ONE)
    one, z = a.one(), a.z()
    sz = a.from_poly(a.sigma_z(1))
    siz = a.from_poly(a.sigma_z(-1))
    g0 = p_generators(a, 0, 1)[0]
    assert p_dv(0, g0).components[0] == (tensor_from_pair(z, one)
                                         - tensor_from_pair(one, z))
    g10, g11 = p_generators(a, 1, 1)
    out = p_dv(1, g10)
    assert out.components[0] == (tensor_from_pair(sz, one)
                                 - tensor_from_pair(one, z))
    assert out.components[1].is_zero()
    out = p_dv(1, g11)
    assert out.components[0].is_zero()
    assert out.components[1] == (tensor_from_pair(siz, one)
                                 - tensor_from_pair(one, z))
    assert p_dv(2, p_zero(a, 2, 1)).is_zero()


def test_p_dh_examples():
    a = GwaParams(2, 0, Z**2 - ONE)
    one, x, y = a.one(), a.x(), a.y()
    out = p_dh(1, 1, p_generators(a, 1, 1)[1])
    assert out.components[0] == (-tensor_from_pair(y, one)
                                 + tensor_from_pair(Fraction(1, 2) * one, y))
    out = p_dh(2, 1, p_generators(a, 2, 1)[0])
    assert out.components[0] == -tensor_from_pair(y, one)
    assert out.components[1] == -tensor_from_pair(2 * one, x)
    out = p_dh(1, 0, p_generators(a, 1, 0)[0])
    assert out.components[0] == tensor_from_pair(x, one) - tensor_from_pair(one, x)


def test_p_r_examples():
    a = GwaParams(2, 0, Z**2 - ONE)
    s = LegMap(1, 0)
    out = p_r(2, p_generators(a, 2, 0)[1])
    assert out.components[0] == twisted_delta(a, s, s, a.phi).scale(-a.lam)
    out = p_r(3, p_generators(a, 3, 0)[0])
    assert out.components[0] == -twisted_delta(a, s, LEG_ID, a.phi)
    assert out.components[1].is_zero()


def test_verify_hdc_corpus():
    for a in full_corpus():
        report = verify_hdc(a, 6)
        assert report and all(r["pass"] for r in report), a


def test_tot_diff_degree2_display():
    a = GwaParams(2, 0, Z**2 - ONE)
    one, x, y, z = a.one(), a.x(), a.y(), a.z()
    sz = a.from_poly(a.sigma_z(1))
    s = LegMap(1, 0)
    gens = tot_generators(a, 2)
    # generator in the q=1 row, first slot
    out = tot_diff(2, gens[0])
    assert out.parts[0].components[0] == (-tensor_from_pair(x, one)
                                          + tensor_from_pair(2 * one, x))
    assert out.parts[1].components[0] == (tensor_from_pair(sz, one)
                                          - tensor_from_pair(one, z))
    assert out.parts[1].components[1].is_zero()
    # generator in the q=0 row, first slot
    out = tot_diff(2, gens[2])
    assert out.parts[0].components[0] == -twisted_delta(a, LEG_ID, LEG_ID, a.phi)
    assert out.parts[1].components[0] == tensor_from_pair(y, one)
    assert out.parts[1].components[1] == tensor_from_pair(one, x)


def test_tot_diff_squared_zero():
    for a in small_corpus():
        for n in range(2, 7):
            for g in tot_generators(a, n):
                assert tot_diff(n - 1, tot_diff(n, g)).is_zero(), (a, n)


def reference_tot_diff(n, e):
    """The former componentwise assembly of d = d^v + d^h + r on T_n."""
    if n == 1:
        part01, part10 = e.parts
        return TotElement(0, (p_dv(0, part01) + p_dh(1, 0, part10),))
    up, right = e.parts  # up in P_{n-1,1}, right in P_{n,0}
    q1 = p_dh(n - 1, 1, up) + p_r(n, right)
    q0 = p_dv(n - 1, up) + p_dh(n, 0, right)
    return TotElement(n - 1, (q1, q0))


def random_tot_element(rng, a, n):
    def part(p, q):
        return PElement(p, q, tuple(
            tensor_from_pair(random_element(rng, a, 2), random_element(rng, a, 2))
            for _ in p_zero(a, p, q).components))
    return TotElement(n, (part(n - 1, 1), part(n, 0)))


def test_tot_diff_matches_componentwise_assembly():
    rng = random.Random(53)
    for a in full_corpus():
        for n in range(1, 7):
            for g in tot_generators(a, n):
                assert tot_diff(n, g) == reference_tot_diff(n, g), (a, n)
            for _ in range(2):
                e = random_tot_element(rng, a, n)
                assert tot_diff(n, e) == reference_tot_diff(n, e), (a, n)


def test_tot_images_shape():
    a = GwaParams(2, 0, Z**2 - ONE)
    for n in range(1, 6):
        images = tot_images(a, n)
        assert len(images) == len(tot_generators(a, n))
        assert {len(row) for row in images} == {len(tot_generators(a, n - 1))}
        # term dicts {(L, R): c} that store no zero
        assert all(type(t) is dict and all(t.values())
                   for row in images for t in row)
    for n in (0, -1):
        with pytest.raises(ValueError):
            tot_images(a, n)


def reference_linear_extend(params, components, gen_images):
    """_linear_extend on elements: each term c L (x) R acts on an image
    (a term dict) through act_left by c L and then act_right by R."""
    out = [{} for _ in gen_images[0]]
    for s, comp in enumerate(components):
        for (L, R), c in comp.terms.items():
            a = GwaElement(params, {L: c})
            b = GwaElement(params, {R: 1})
            for t, img in enumerate(gen_images[s]):
                img = TensorElement(params, img)
                _accumulate(out[t], act_right(act_left(img, a), b).terms)
    return out


def test_linear_extend_matches_element_reference():
    # every table of the total differential, on random multi-term tensors
    rng = random.Random(59)
    for a in full_corpus():
        for n in range(1, 7):
            images = tot_images(a, n)
            for _ in range(2):
                comps = [tensor_from_pair(random_element(rng, a, 3, 2),
                                          random_element(rng, a, 3, 2))
                         + tensor_from_pair(random_element(rng, a, 2, 2),
                                            random_element(rng, a, 2, 2))
                         for _ in images]
                got = _linear_extend(a, [c.terms for c in comps], images)
                assert got == reference_linear_extend(a, comps, images), (a, n)


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
        for g in tot_generators(a, 1):
            out = tot_diff(1, g)
            total = a.zero()
            for (L, R), c in out.parts[0].components[0].terms.items():
                from gwadeform.core import GwaElement
                total = total + GwaElement(a, {L: c}) * GwaElement(a, {R: Fraction(1)})
            assert total.is_zero()
