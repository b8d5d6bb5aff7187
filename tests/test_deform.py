import copy
import gc
import random
import sys
import weakref
from fractions import Fraction

import pytest

from gwadeform.core import (
    GwaElement,
    GwaParams,
    _accumulate,
    basis_triples,
    basis_window,
)
from gwadeform.deform import (
    MAX_ORDER,
    StarProduct,
    TruncatedElement,
    _deformed_mul,
    build_f1,
    build_star,
    check_assoc,
    check_obstruction,
    check_local_finiteness,
    check_relations,
    f1_noncoboundary_evidence,
    lift,
    obstruction_residuals,
    star,
    star_mul,
)
from gwadeform.errors import CommutativeAlgebraError, MixedCaseError
from gwadeform.hochschild import (
    Cochain2,
    circle,
    determine_F,
)
from gwadeform.percomplex import contract3
from gwadeform.scalars import Poly, bezout_for_phi

from conftest import (
    closed_form_datum,
    cochain2_sum,
    full_corpus,
    hochschild_b,
    non_cocycle,
    random_algebra,
    random_element,
    reference_check_relations,
    reference_circle,
    reference_closed_form_datum,
    reference_deformed_mul,
    reference_hochschild_b,
    reference_shift_series,
    reference_star,
    thetaprime3,
)

Z = Poly.z()
ONE = Poly.one()


def noncommutative_corpus():
    return [a for a in full_corpus() if a.is_noncommutative]


def test_deformed_generator_values_match_closed_forms():
    # the tau^n coefficients of x z, x y, y z and y x in A_tau, which
    # build_star reads as F_n's generator values, against both closed forms,
    # for every n from 2 to MAX_ORDER, so d^n phi_bar = 0 is met for n > l
    x, y, z = (0, 1), (0, -1), (1, 0)
    for a in noncommutative_corpus() + deformable_random_algebras(19, 49):
        series = [_deformed_mul(a, MAX_ORDER, {g: 1}, {h: 1})
                  for g, h in ((x, z), (x, y), (y, z), (y, x))]
        for n in range(2, MAX_ORDER + 1):
            got = tuple(GwaElement(a, s[n]) for s in series)
            want = closed_form_datum(a, n)
            assert got == want == reference_closed_form_datum(a, n), (a, n)
            assert all(type(v) is type(w.terms[k])
                       for u, w in zip(got, want)
                       for k, v in u.terms.items()), (a, n)


def test_build_star_errors():
    with pytest.raises(CommutativeAlgebraError):
        build_star(GwaParams(1, 0, Z))
    with pytest.raises(MixedCaseError):
        build_star(GwaParams(2, 1, Z))
    with pytest.raises(ValueError):
        build_star(GwaParams(2, 0, Z), 0)
    with pytest.raises(ValueError):
        build_star(GwaParams(2, 0, Z), 17)


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


def test_star_order_12():
    # above the former cap of 8: the order-8 series is a prefix, and the
    # truncated product still associates and satisfies the relations
    rng = random.Random(12)
    for a in (GwaParams(2, 0, Z**2 - ONE), GwaParams(1, 1, Z)):
        sp, sp8 = build_star(a, 12), build_star(a, 8)
        for _ in range(3):
            u, v, w = (random_element(rng, a, a.l + 2, 2) for _ in range(3))
            assert star(sp, u, v).coefficients[:9] == star(sp8, u, v).coefficients
            assert check_assoc(sp, u, v, w).is_zero()
        assert all(r.is_zero() for r in check_relations(sp).values())


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


def relation_verdicts(sp):
    """{name: residual is zero} from check_relations, after checking that
    the former hand-written relations give the same verdicts."""
    got = {k: r.is_zero() for k, r in check_relations(sp).items()}
    want = {k: r.is_zero() for k, r in reference_check_relations(sp).items()}
    assert got == want, sp.params
    return got


def test_relations():
    for a in noncommutative_corpus():
        for order in (1, 2, 4):
            verdicts = relation_verdicts(build_star(a, order))
            assert verdicts == dict.fromkeys(("f1", "f2", "f3", "f4"), True), (
                a, order)


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

        def evaluate_into(self, out, u, v, c=None):
            return _accumulate(out, {(100, 0): 1})

    monkeypatch.setattr(StarProduct, "f_n", lambda self, n: Escaping())
    rep = check_local_finiteness(sp, 6)
    assert len(rep["failures"]) == 5 and not rep["pass"]
    assert rep["pairs"] == 3  # two failures (n = 1, 2) per pair


def test_taylor_series_identity():
    # x * y agrees with phi(sigma_tau(z)), the A_tau product that f3 reads,
    # and that product with the series computed by substitution
    for a in noncommutative_corpus():
        sp = build_star(a, 4)
        assert check_relations(sp)["f3"].is_zero(), a
        xy = _deformed_mul(a, 4, a.x().terms, a.y().terms)
        assert [GwaElement(a, t) for t in xy] == reference_shift_series(a, 4), a


def test_relation_f3_sees_a_poisoned_f1():
    # each relation compares the cochains with A_tau on one generator pair:
    # F_n(g, h) + 1 for n = 1..3 fails exactly the relation of (g, h), as it
    # does the former hand-written relations
    pairs = {"f1": (1, 1, 0), "f2": (-1, 1, 0), "f3": (1, 0, -1),
             "f4": (-1, 0, 1)}  # (q, i, j) of (x_q, z^i x_j)
    for a in noncommutative_corpus():
        for n in (1, 2, 3):
            for name, key in pairs.items():
                sp = build_star(a, 3)
                F = sp.f_n(n)
                F._memo[key] = F.eval_basis(*key) + a.one()
                verdicts = relation_verdicts(sp)
                assert [k for k, ok in verdicts.items() if not ok] == [name], (
                    a, n, name)


def test_truncated_element_ops():
    a = GwaParams(2, 0, Z)
    u = lift(a, a.x(), 2)
    v = TruncatedElement(a, (a.z(), a.one(), a.zero()))
    assert (u + v - v) == u
    assert (u - u).is_zero()
    data = v.to_json()
    assert len(data) == 3 and data[0] == [{"p": 1, "q": 0, "c": "1"}]
    assert lift(a, a.zero(), 4).order == 4


def test_star_mul_against_scalar_expansion():
    # tau-bilinearity: (tau u) * v = tau (u * v) after truncation
    def tau_times(U):
        return TruncatedElement(U.algebra, (U.algebra.zero(),)
                                + U.coefficients[:-1])

    a = GwaParams(1, 1, Z**2)
    sp = build_star(a, 3)
    rng = random.Random(21)
    for _ in range(5):
        u = random_element(rng, a, 3)
        v = random_element(rng, a, 3)
        lhs = star_mul(sp, tau_times(lift(a, u, 3)), lift(a, v, 3))
        assert lhs == tau_times(star(sp, u, v))


def discover_f2(params: GwaParams, sample_window: int = 6) -> dict:
    """Stage-2 contraction oracle: the stage-2 generator values re-derived
    from the obstruction cocycle.

    The circle square of F_1 is assembled into a degree-3 cocycle,
    contracted to a degree-2 preimage (n1, n2, n3, n4), and the system
    forced by unit normalization and z-left-linearity is solved:
    F_2(x,z) = -n1, F_2(y,z) = -n2, F_2(y,x) = n3, F_2(x,y) = n4.
    Requires phi without multiple roots (the contraction needs it).
    """
    F1 = build_f1(params)
    obstruction = thetaprime3(circle(F1, F1))
    bez = bezout_for_phi(params.phi)
    n1, n2, n3, n4 = contract3(obstruction, bez).components
    derived = {"vxz": -n1, "vyz": -n2, "vyx": n3, "vxy": n4}
    tz, txy, tyz, tyx = closed_form_datum(params, 2)
    closed_form = {"vxz": tz, "vxy": txy, "vyz": tyz, "vyx": tyx}
    F2 = determine_F(params, circle(F1, F1), derived["vxz"], derived["vxy"],
                     derived["vyz"], derived["vyx"])
    target = circle(F1, F1)
    bF2 = hochschild_b(F2)
    consistent = all(
        (bF2(params.monomial(*t1), params.monomial(*t2), params.monomial(*t3))
         - target(params.monomial(*t1), params.monomial(*t2),
                  params.monomial(*t3))).is_zero()
        for t1, t2, t3 in basis_triples(params, sample_window))
    return {
        "derived": {k: v.to_json() for k, v in derived.items()},
        "closed_form": {k: v.to_json() for k, v in closed_form.items()},
        "matches_closed_form": all(derived[k] == closed_form[k] for k in derived),
        "coboundary_consistent": consistent,
    }


def test_star_product_leaves_no_reference_cycle():
    # determine_F's recursion reaches its cochain through a weak proxy, so
    # dropping the star product frees the algebra and its caches at once,
    # without waiting for the cyclic garbage collector
    gc.collect()
    gc.disable()
    try:
        for lam, eta, phi in ((2, 0, Z**2 - ONE), (1, 1, Z * (Z - ONE))):
            a = GwaParams(lam, eta, phi)
            sp = build_star(a, 3)
            assert star(sp, a.x(), a.y() * a.z()).order == 3
            ref = weakref.ref(a)
            del a, sp
            assert ref() is None, (lam, eta, phi)
    finally:
        gc.enable()


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


# ---------------------------------------------------------------------------
# The obstruction check against its former Cochain3 formulation
# ---------------------------------------------------------------------------

def reference_stage_cochains(sp, n):
    """lhs = circle(F_1, F_{n-1}) + ... + circle(F_{n-1}, F_1), rhs = b F_n.

    Both are element-level maps, independent of ``hochschild.Cochain3``.
    """
    circles = [reference_circle(sp.f_n(i), sp.f_n(n - i)) for i in range(1, n)]

    def lhs(u, v, w):
        out = circles[0](u, v, w)
        for c in circles[1:]:
            out = out + c(u, v, w)
        return out

    return lhs, reference_hochschild_b(sp.f_n(n))


def reference_check_obstruction(sp, n, window):
    """check_obstruction as it was written on Cochain3 objects."""
    if not 2 <= n <= sp.order:
        raise ValueError("n must lie between 2 and the truncation order")
    a = sp.params
    lhs, rhs = reference_stage_cochains(sp, n)
    checked = 0
    failures = []
    for t1, t2, t3 in basis_triples(a, window):
        u, v, w = a.monomial(*t1), a.monomial(*t2), a.monomial(*t3)
        checked += 1
        if not (lhs(u, v, w) - rhs(u, v, w)).is_zero():
            failures.append({"triple": [t1, t2, t3]})
            if len(failures) >= 5:
                break
    return {"n": n, "window": window, "triples": checked,
            "failures": failures, "pass": not failures}


def broken_star(a):
    """An order-4 star product whose F_2 is off by F_1.

    Stage 2 still holds, since F_1 is a cocycle; stages 3 and 4 fail.
    """
    F1, F2, F3, F4 = build_star(a, 4).cochains
    return StarProduct(a, 4, [F1, cochain2_sum(F2, F1), F3, F4])


def test_obstruction_matches_reference_on_corpus():
    for a in noncommutative_corpus():
        sp = build_star(a, 4)
        for n in (2, 3, 4):
            window = 2 * a.l + 4
            rep = check_obstruction(sp, n, window)
            assert rep == reference_check_obstruction(sp, n, window), (a, n)
            assert rep["pass"]


def test_obstruction_matches_reference_when_broken():
    for a in (GwaParams(2, 0, Z**2 - ONE), GwaParams(1, 1, Z * (Z - ONE))):
        sp = broken_star(a)
        for n in (2, 3, 4):
            window = 3 * a.l + 6
            rep = check_obstruction(sp, n, window)
            assert rep == reference_check_obstruction(sp, n, window), (a, n)
            assert rep["triples"] > 0
            if n == 2:
                assert rep["pass"]
            else:
                assert len(rep["failures"]) == 5 and not rep["pass"]


def test_obstruction_counts_the_triple_that_stops_it():
    # the scan stops at the fifth failure, which is the last triple counted
    a = GwaParams(2, 0, Z)
    F1, F2, F3 = build_star(a, 3).cochains
    sp = StarProduct(a, 3, [F1, cochain2_sum(F2, non_cocycle(a)), F3])
    rep = check_obstruction(sp, 2, 6)
    assert len(rep["failures"]) == 5 and not rep["pass"]
    triples = list(basis_triples(a, 6))
    last = triples.index(tuple(rep["failures"][-1]["triple"]))
    assert rep["triples"] == last + 1


def test_obstruction_residual_elements():
    # one sweep yields every triple once, in basis_triples order, with the
    # residual of every stage 2..N
    a = GwaParams(2, 0, Z**2 - ONE)
    sp = broken_star(a)
    stages = {n: reference_stage_cochains(sp, n) for n in (2, 3, 4)}
    triples = list(basis_triples(a, 2 * a.l + 4))
    seen = 0
    nonzero = dict.fromkeys(stages, 0)
    for (t1, t2, t3), residuals in obstruction_residuals(sp, 2 * a.l + 4):
        assert (t1, t2, t3) == triples[seen]
        assert len(residuals) == len(stages)
        u, v, w = a.monomial(*t1), a.monomial(*t2), a.monomial(*t3)
        for (n, (lhs, rhs)), terms in zip(stages.items(), residuals):
            assert GwaElement(a, terms) == lhs(u, v, w) - rhs(u, v, w), n
            nonzero[n] += bool(terms)
        seen += 1
    assert seen == len(triples)
    assert {n: k > 0 for n, k in nonzero.items()} == {2: False, 3: True, 4: True}


def test_obstruction_stages_stop_at_their_own_triples():
    # each stage stops at its own fifth failure while the others run on:
    # a broken F_4 stops stage 4 only, a broken F_2 stops stages 2, 3 and 4
    # at three different triples
    for a, k, broken in ((GwaParams(2, 0, Z**2 - ONE), 4, {4}),
                         (GwaParams(1, 1, Z * (Z - ONE)), 2, {2, 3, 4})):
        cochains = build_star(a, 4).cochains
        cochains[k - 1] = cochain2_sum(cochains[k - 1], non_cocycle(a))
        window = 3 * a.l + 6
        total = len(list(basis_triples(a, window)))
        reports = {}
        for order in ((2, 3, 4), (4, 3, 2)):
            sp = StarProduct(a, 4, cochains)
            for n in order:
                rep = check_obstruction(sp, n, window)
                assert rep == reference_check_obstruction(sp, n, window), (a, n)
                assert reports.setdefault(n, rep) == rep, (a, n)
        for n, rep in reports.items():
            if n in broken:
                assert len(rep["failures"]) == 5 and rep["triples"] < total
            else:
                assert rep["pass"] and rep["triples"] == total, (a, n)
        assert len({reports[n]["triples"] for n in broken}) == len(broken)
        # a report is the caller's own: mutating it leaves the memo intact
        rep = check_obstruction(sp, k, window)
        rep["failures"].clear()
        rep["triples"] = 0
        assert check_obstruction(sp, k, window) == reports[k]


def test_pair_values_are_memoized():
    a = GwaParams(2, 0, Z**2 - ONE)
    sp = build_star(a, 3)
    t1, t2 = (1, 1), (2, -1)
    vals = sp.pair_values(t1, t2)
    assert sp.pair_values(t1, t2) is vals and len(vals) == 4
    u, v = a.monomial(*t1), a.monomial(*t2)
    assert [GwaElement(a, t) for t in vals] == list(star(sp, u, v).coefficients)


def test_pair_values_match_reference_star():
    # each pair table entry is the series product of two unit elements
    for a in noncommutative_corpus():
        sp = build_star(a, 3)
        window = 2 * a.l + 2
        for t1 in basis_window(a, window):
            for t2 in basis_window(a, window - a.weight(*t1)):
                want = reference_star(sp, a.monomial(*t1), a.monomial(*t2))
                got = [GwaElement(a, t) for t in sp.pair_values(t1, t2)]
                assert got == list(want.coefficients), (a, t1, t2)


def test_pair_table_contract(monkeypatch):
    # the stage sweep reads its inner and outer values from the pair table:
    # the table stays inside the window that local finiteness fills, its
    # values never change, and the sweep evaluates no cochain itself
    callers = set()
    evaluate_into = Cochain2.evaluate_into

    def recording(self, *args, **kwargs):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):  # a comprehension
            frame = frame.f_back
        callers.add(frame.f_code.co_name)
        return evaluate_into(self, *args, **kwargs)

    monkeypatch.setattr(Cochain2, "evaluate_into", recording)
    rng = random.Random(13)
    for a in noncommutative_corpus():
        sp = build_star(a, 4)
        window = 3 * a.l + 6
        for n in (2, 3, 4):
            assert check_obstruction(sp, n, window)["pass"], (a, n)
            if n == 2:
                after_stage_2 = copy.deepcopy(sp._pairs)
        for _ in range(3):
            u, v, w = (random_element(rng, a, 2 * a.l + 4, nterms=2)
                       for _ in range(3))
            assert check_assoc(sp, u, v, w).is_zero(), a
        assert check_local_finiteness(sp, window)["pass"], a
        assert all(sp._pairs[key] == vals
                   for key, vals in after_stage_2.items()), a
        assert all(a.weight(*t1) + a.weight(*t2) <= window
                   for t1, t2 in sp._pairs), a
    assert "_series_into" in callers
    assert "obstruction_residuals" not in callers


# ---------------------------------------------------------------------------
# The truncated product
# ---------------------------------------------------------------------------

def reference_star_mul(sp, U, V):
    """star_mul as it was: every order of the element-level star, then drop
    those above N."""
    N = sp.order
    out = [{} for _ in range(N + 1)]
    for a, ua in enumerate(U.coefficients):
        if ua.is_zero():
            continue
        for b, vb in enumerate(V.coefficients):
            if vb.is_zero() or a + b > N:
                continue
            for m, w in enumerate(reference_star(sp, ua, vb).coefficients):
                if a + b + m <= N:
                    _accumulate(out[a + b + m], w.terms)
    return TruncatedElement(sp.params, tuple(GwaElement(sp.params, t)
                                             for t in out))


def random_truncated(rng, a, order, window):
    return TruncatedElement(a, tuple(
        random_element(rng, a, window, nterms=2) if rng.random() < 0.7
        else a.zero() for _ in range(order + 1)))


def test_star_truncated_prefix():
    # the order-k star product is the first k + 1 terms of the order-4 one,
    # and each equals the element-level reference
    rng = random.Random(17)
    for a in (GwaParams(2, 0, Z**2 - ONE), GwaParams(1, 1, Z * (Z - ONE))):
        stars = {k: build_star(a, k) for k in range(1, 5)}
        for _ in range(3):
            u = random_element(rng, a, 2 * a.l + 2)
            v = random_element(rng, a, 2 * a.l + 2)
            full = star(stars[4], u, v).coefficients
            for k, sp in stars.items():
                got = star(sp, u, v)
                assert got == reference_star(sp, u, v), (a, k)
                assert got.coefficients == full[:k + 1], (a, k)


def test_star_mul_matches_full_then_drop():
    rng = random.Random(23)
    for a in noncommutative_corpus():
        sp = build_star(a, 3)
        for _ in range(3):
            U = random_truncated(rng, a, 3, a.l + 2)
            V = random_truncated(rng, a, 3, a.l + 2)
            assert star_mul(sp, U, V) == reference_star_mul(sp, U, V), a


# ---------------------------------------------------------------------------
# The associativity check against its former star_mul formulation
# ---------------------------------------------------------------------------

def reference_check_assoc(sp, u, v, w):
    """check_assoc as it was: (u * v) * w - u * (v * w) through star_mul,
    both on the element-level star."""
    N = sp.order
    left = reference_star_mul(sp, reference_star(sp, u, v), lift(sp.params, w, N))
    right = reference_star_mul(sp, lift(sp.params, u, N), reference_star(sp, v, w))
    return left - right


def test_check_assoc_matches_reference_on_corpus():
    rng = random.Random(29)
    for a in noncommutative_corpus():
        for order in (2, 4, 8):
            sp = build_star(a, order)
            for _ in range(2):
                u, v, w = (random_element(rng, a, a.l + 2, nterms=3)
                           for _ in range(3))
                got = check_assoc(sp, u, v, w)
                assert got == reference_check_assoc(sp, u, v, w), (a, order)
                assert got.is_zero() and got.order == order


def test_check_assoc_matches_reference_when_not_associative():
    # F_1 plus a non-cocycle: the tau^1 coefficient of the associator is
    # b of the non-cocycle, which is nonzero on (x, y, x)
    rng = random.Random(31)
    for a in noncommutative_corpus():
        for order in (2, 4, 8):
            F = build_star(a, order).cochains
            sp = StarProduct(a, order, [cochain2_sum(F[0], non_cocycle(a))] + F[1:])
            x, y = a.x(), a.y()
            triples = [(x, y, x), (y, x, y)] + [
                tuple(random_element(rng, a, a.l + 2, nterms=3)
                      for _ in range(3)) for _ in range(2)]
            got = [check_assoc(sp, u, v, w) for u, v, w in triples]
            assert got == [reference_check_assoc(sp, u, v, w)
                           for u, v, w in triples], (a, order)
            assert not got[0].coefficients[1].is_zero(), (a, order)


# ---------------------------------------------------------------------------
# The product of A_tau against the cochain star product
# ---------------------------------------------------------------------------

def assert_pair_values_equal(a, order, window):
    """_deformed_mul == pair_values on every basis pair of the window, and
    its values hold no zero and no integral Fraction."""
    sp = build_star(a, order)
    pairs = 0
    for t1 in basis_window(a, window):
        for t2 in basis_window(a, window - a.weight(*t1)):
            got = _deformed_mul(a, order, {t1: 1}, {t2: 1})
            assert got == list(sp.pair_values(t1, t2)), (a, order, t1, t2)
            assert all(v and (type(v) is not Fraction or v.denominator != 1)
                       for t in got for v in t.values()), (a, order, t1, t2)
            pairs += 1
    return pairs


def test_deformed_mul_matches_pair_values_on_corpus():
    for a in noncommutative_corpus():
        assert assert_pair_values_equal(a, 8, 2 * a.l + 4) > 0


def deformable_random_algebras(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a = random_algebra(rng)
        if a.is_quantum or a.is_classical:
            out.append(a)
    assert {a.is_quantum for a in out} == {True, False}
    return out


def test_deformed_mul_matches_pair_values_on_random_algebras():
    for a in deformable_random_algebras(41, 8):
        for order in (1, 4):
            assert_pair_values_equal(a, order, 2 * a.l + 4)
        assert_pair_values_equal(a, MAX_ORDER, a.l + 4)


def test_deformed_mul_matches_reference_star():
    rng = random.Random(43)
    algebras = noncommutative_corpus() + deformable_random_algebras(47, 6)
    for a in algebras:
        for order in (1, 3, 6):
            sp = build_star(a, order)
            for _ in range(3):
                u, v = (random_element(rng, a, a.l + 3, nterms=4)
                        for _ in range(2))
                got = _deformed_mul(a, order, u.terms, v.terms)
                want = reference_star(sp, u, v)
                assert [GwaElement(a, t) for t in got] == list(
                    want.coefficients), (a, order)
                assert all(type(c) is not Fraction or c.denominator != 1
                           for t in got for c in t.values()), (a, order)


def reference_cases(seed):
    """The corpus, and random phi under lambda = 2, -1, 1/3, -2/5 (quantum)
    and under eta = 1, 2/3, -1/2 (classical), two algebras each."""
    rng = random.Random(seed)
    out = full_corpus()
    for lam in (2, -1, Fraction(1, 3), Fraction(-2, 5)):
        out += [GwaParams(lam, 0, random_algebra(rng).phi) for _ in range(2)]
    for eta in (1, Fraction(2, 3), Fraction(-1, 2)):
        out += [GwaParams(1, eta, random_algebra(rng).phi) for _ in range(2)]
    return out


def assert_matches_reference(a, order, u_terms, v_terms):
    got = _deformed_mul(a, order, u_terms, v_terms)
    assert got == reference_deformed_mul(a, order, u_terms, v_terms), (
        a, order, u_terms, v_terms)
    assert len(got) == order + 1
    assert all(v and (type(v) is not Fraction or v.denominator != 1)
               for t in got for v in t.values()), (a, order)


def test_deformed_mul_matches_reference_on_basis_windows():
    # the formal algebra over k[t, 1/t] against reference_deformed_mul, which
    # builds A_tau's rows in z and t itself, on every basis pair of a window
    cases = reference_cases(53)
    assert len(cases) == 11 + 8 + 6
    for a in cases:
        window = a.l + 3
        pairs = [(t1, t2) for t1 in basis_window(a, window)
                 for t2 in basis_window(a, window - a.weight(*t1))]
        for order in (1, 4, 8, MAX_ORDER):
            for t1, t2 in pairs:
                assert_matches_reference(a, order, {t1: 1}, {t2: 1})


def test_deformed_mul_matches_reference_on_random_elements():
    rng = random.Random(59)
    for a in reference_cases(61):
        for order in (1, 4, 8, MAX_ORDER):
            for _ in range(3):
                u, v = (random_element(rng, a, 2 * a.l + 4, nterms=5)
                        for _ in range(2))
                assert_matches_reference(a, order, u.terms, v.terms)


def test_deformed_mul_refuses_what_build_star_refuses():
    for a, order in ((GwaParams(1, 0, Z), 2), (GwaParams(2, 1, Z), 2),
                     (GwaParams(2, 0, Z), 0), (GwaParams(1, 1, Z), 17)):
        with pytest.raises(Exception) as built:
            build_star(a, order)
        with pytest.raises(type(built.value)) as multiplied:
            _deformed_mul(a, order, a.x().terms, a.y().terms)
        assert str(multiplied.value) == str(built.value)
