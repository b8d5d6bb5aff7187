"""Exactness and validity at the entry points, and algebra-aware arithmetic.

Malformed input must fail loudly instead of giving a silently wrong
algebra or element; elements of different algebras never mix.
"""
import json
import re
from fractions import Fraction
from functools import partial

import pytest

from gwadeform.cli import parse_cochain, run
from gwadeform.core import GwaElement, GwaParams, TensorElement, basis_window, \
    module_nu, module_plain, tensor_act
from gwadeform.deform import TruncatedElement, build_star, check_assoc, lift, \
    star, star_mul
from gwadeform.percomplex import PerCochain
from gwadeform.scalars import Poly, Q, rat

from conftest import tensor_from_pair

Z = Poly.z()


def write_config(tmp_path, data):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_rat_rejects_float_and_bool():
    for bad in (0.1, 2.0, True, False, "1/0", None, [1]):
        with pytest.raises(ValueError):
            rat(bad)
    assert rat("1/10") == Fraction(1, 10)
    assert rat(3) == 3 and rat(Fraction(2, 3)) == Fraction(2, 3)


@pytest.mark.parametrize("build", [
    lambda a, c: GwaElement(a, {(0, 0): c}),
    lambda a, c: TensorElement(a, {((0, 0), (0, 0)): c}),
], ids=["gwa", "tensor"])
def test_element_constructors_normalise_scalars(build):
    # the term dict of a caller enters here: every value goes through rat
    a = GwaParams(2, 0, Z)
    with pytest.raises(ValueError):
        build(a, 0.5)
    (two,) = build(a, Fraction(4, 2)).terms.values()
    assert type(two) is int and two == 2
    for half in (Fraction(1, 2), "1/2"):
        (c,) = build(a, half).terms.values()
        assert type(c) is Q and c == Fraction(1, 2)
    for zero in ("0", Fraction(0)):
        assert build(a, zero).terms == {}


@pytest.mark.parametrize("data", [
    {"lambda": 0.1, "eta": "0", "phi": ["1"]},
    {"lambda": "2", "eta": True, "phi": ["1"]},
    {"lambda": "2", "eta": "0", "phi": [0.5, "1"]},
    {"lambda": "2", "eta": "0", "phi": "12"},
], ids=["float-lambda", "bool-eta", "float-phi", "string-phi"])
def test_inexact_config_fails(tmp_path, capsys, data):
    cfg = write_config(tmp_path, data)
    x = json.dumps([{"p": 0, "q": 1, "c": "1"}])
    assert run(["--config", cfg, "mul", x, x]) == 2
    assert "error" in capsys.readouterr().err
    with pytest.raises(ValueError):
        GwaParams.from_json(data)


@pytest.mark.parametrize("record", [
    {"p": -1, "q": 1, "c": "1"},
    {"p": 1.7, "q": 0, "c": "1"},
    {"p": 1, "q": 1.0, "c": "1"},
    {"p": True, "q": 0, "c": "1"},
    {"p": 0, "q": 1, "c": 0.5},
], ids=["negative-p", "float-p", "float-q", "bool-p", "float-c"])
def test_element_records_validated(tmp_path, capsys, record):
    a = GwaParams(2, 0, Z)
    with pytest.raises(ValueError):
        GwaElement.from_json(a, [record])
    cfg = write_config(tmp_path, {"lambda": "2", "eta": "0", "phi": ["0", "1"]})
    x = json.dumps([{"p": 0, "q": 1, "c": "1"}])
    assert run(["--config", cfg, "mul", x, json.dumps([record])]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("p", [-1, -3, 1.0, True, Fraction(1)],
                         ids=["minus-1", "minus-3", "float", "bool", "fraction"])
def test_monomial_needs_nonnegative_int_exponent(p):
    a = GwaParams(2, 0, Z)
    with pytest.raises(ValueError):
        a.monomial(p, 1)
    if type(p) is int:
        with pytest.raises(ValueError):
            a.z(p)
    assert a.monomial(0, -2) == a.y(2) and a.z(0) == a.one()


@pytest.mark.parametrize("q", [1.5, 1.0, True, Fraction(1)],
                         ids=["float", "integral-float", "bool", "fraction"])
def test_monomial_needs_int_x_exponent(q):
    # the basis product reads q as a count of x or y factors
    a = GwaParams(2, 0, Z)
    for build in (partial(a.monomial, 0), a.x, a.y):
        with pytest.raises(ValueError, match=re.escape(f"q={q!r}")):
            build(q)


def test_equal_algebras_hash_equal():
    a, b = GwaParams(2, 0, Z**2 - Poly.one()), GwaParams("2", 0, [-1, 0, 1])
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert hash(module_nu(a)) == hash(module_nu(b))
    assert len({module_nu(a), module_nu(b)}) == 1


def test_repeated_monomial_rejected():
    a = GwaParams(2, 0, Z)
    data = [{"p": 1, "q": 0, "c": "1"}, {"p": 1, "q": 0, "c": "2"}]
    with pytest.raises(ValueError):
        GwaElement.from_json(a, data)


def test_parse_cochain_module_and_degree():
    a = GwaParams(2, 0, Z)
    comps = [[{"p": 1, "q": 0, "c": "1"}]]
    good = parse_cochain(a, json.dumps({"degree": 0, "module": "nu",
                                        "components": comps}))
    assert not good.module.right_twist.is_identity()
    # the dict form written by PerCochain.to_json round-trips
    again = parse_cochain(a, json.dumps(good.to_json()))
    assert again == good
    for bad in ({"degree": 0, "module": "nuu", "components": comps},
                {"degree": 0, "module": {"left": "nu", "right": "id"},
                 "components": comps},
                {"degree": 0.0, "components": comps},
                {"degree": 1.9, "components": comps * 3}):
        with pytest.raises(ValueError):
            parse_cochain(a, json.dumps(bad))


X = [{"p": 0, "q": 1, "c": "1"}]


@pytest.mark.parametrize("config, argv", [
    (None, ["mul", '[{"p": 0, "q": 1, "c": "1/0"}]', "[]"]),
    (None, ["mul", '[{"p": 0, "q": 1, "c": null}]', "[]"]),
    (None, ["mul", '{"p": 1}', "[]"]),
    (None, ["mul", "[1]", "[]"]),
    (None, ["cohomology", "diff", "[]"]),
    (None, ["cohomology", "diff", '{"degree": 2, "components": 5}']),
    (None, ["cohomology", "diff", json.dumps(
        {"degree": -2, "components": [X, [], [], []]})]),
    ([1, 2], ["mul", json.dumps(X), "[]"]),
    ({"lambda": "1/0", "eta": "0", "phi": ["0", "1"]},
     ["mul", json.dumps(X), "[]"]),
], ids=["zero-denominator", "null-coefficient", "element-object",
        "element-of-ints", "cochain-list", "components-int",
        "negative-degree", "config-list", "config-zero-denominator"])
def test_malformed_input_exits_2(tmp_path, capsys, config, argv):
    if config is None:
        config = {"lambda": "2", "eta": "0", "phi": ["0", "1"]}
    cfg = write_config(tmp_path, config)
    assert run(["--config", cfg] + argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_algebra_is_part_of_element_identity():
    a2, a3 = GwaParams(2, 0, Z), GwaParams(3, 0, Z)
    assert a2.x() != a3.x()
    assert a2.x() == GwaParams(2, 0, Z).x()  # equal algebras, equal elements
    for op in (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v):
        with pytest.raises(ValueError):
            op(a2.x(), a3.x())
    with pytest.raises(ValueError):
        TensorElement(a2, {((0, 0), (0, 0)): 1}) + TensorElement(a3, {})
    with pytest.raises(ValueError):
        lift(a2, a2.x(), 2) + lift(a3, a3.x(), 2)
    assert a2.x() + GwaParams(2, 0, Z).x() == 2 * a2.x()


def test_term_dict_checks_reject_another_algebra():
    # check_assoc and tensor_act work on term dicts, but still refuse
    # operands of a different algebra, as the element products they replace
    a2, a3 = GwaParams(2, 0, Z), GwaParams(3, 0, Z)
    sp = build_star(a2, 2)
    for u, v, w in [(a3.x(), a2.y(), a2.x()), (a2.x(), a2.y(), a3.x())]:
        with pytest.raises(ValueError):
            check_assoc(sp, u, v, w)
    with pytest.raises(ValueError):
        check_assoc(build_star(a3, 2), a2.x(), a2.y(), a2.x())
    with pytest.raises(ValueError):
        tensor_act(tensor_from_pair(a2.x(), a2.y()), module_plain(a2), a3.z())


def test_star_products_reject_another_algebra():
    # the series product reads term dicts, so star, star_mul and lift check
    # that every operand belongs to the star product's algebra
    a2, a3 = GwaParams(2, 0, Z), GwaParams(3, 0, Z)
    sp = build_star(a3, 2)
    for u, v in [(a2.x(), a2.y()), (a2.x(), a3.y()), (a3.x(), a2.y())]:
        with pytest.raises(ValueError, match="different algebras"):
            star(sp, u, v)
    with pytest.raises(ValueError, match="different algebras"):
        lift(a3, a2.x(), 2)
    for U, V in [(lift(a2, a2.x(), 2), lift(a3, a3.y(), 2)),
                 (lift(a3, a3.x(), 2), lift(a2, a2.y(), 2))]:
        with pytest.raises(ValueError, match="different algebras"):
            star_mul(sp, U, V)
    # an equal algebra built separately is the same algebra
    b3 = GwaParams(3, 0, Z)
    assert star(sp, b3.x(), b3.y()) == star(sp, a3.x(), a3.y())


def test_direct_sum_shapes_must_agree():
    a = GwaParams(2, 0, Z)

    def zero(degree, module=module_plain(a)):
        return PerCochain(a, module, degree,
                          (a.zero(),) * PerCochain.slots(degree))

    for u, v in [(zero(1), zero(2)), (zero(2), zero(2, module_nu(a)))]:
        with pytest.raises(ValueError):
            u + v
    assert (zero(2) - zero(2)).is_zero()
    assert -zero(1) == zero(1)


def test_direct_sum_lengths_must_agree():
    # zipping the two tuples cut the longer one: z + (z, x) gave 2 z
    a = GwaParams(2, 0, Z)
    short = TruncatedElement(a, (a.z(),))
    long = TruncatedElement(a, (a.z(), a.x()))
    for u, v in [(short, long), (long, short)]:
        for op in (lambda u, v: u + v, lambda u, v: u - v):
            with pytest.raises(ValueError, match="differ in shape"):
                op(u, v)
    assert short + short == TruncatedElement(a, (2 * a.z(),))


def test_direct_sums_reject_components_of_another_algebra():
    # a cochain labelled A with components of B was differentiated with B's
    # products under A's tables
    a, b = GwaParams(2, 0, Z), GwaParams(3, 0, Z)
    plain = module_plain(a)
    for comps in [(b.z(), b.x(), b.y()), (a.z(), b.x(), a.y())]:
        with pytest.raises(ValueError, match="different algebras"):
            PerCochain(a, plain, 1, comps)
    with pytest.raises(ValueError, match="different algebras"):
        TruncatedElement(a, (a.x(), b.x()))
    # an equal algebra built separately is the same algebra
    c = GwaParams(2, 0, Z)
    assert (PerCochain(a, plain, 1, (c.z(), c.x(), c.y()))
            == PerCochain(a, plain, 1, (a.z(), a.x(), a.y())))
    assert TruncatedElement(a, (c.x(),)) == lift(a, a.x(), 0)


def test_accumulate_in_place():
    from gwadeform.core import _accumulate

    out = {"a": Fraction(1), "b": Fraction(2)}
    src = {"a": Fraction(-1), "c": Fraction(3)}
    assert _accumulate(out, src) is out
    assert out == {"b": 2, "c": 3} and src == {"a": -1, "c": 3}
    _accumulate(out, {"b": Fraction(1)}, Fraction(-2))
    assert out == {"c": 3}
    polys = {"k": Z}
    _accumulate(polys, {"k": Z, "m": Z}, Fraction(-1))
    assert polys == {"m": -Z}


def test_products_leave_the_monomial_cache_alone():
    a = GwaParams(2, 0, Z**2 - Poly.one())
    u = a.x() + a.monomial(1, 1, 3)
    v = a.y() + a.z()
    first = u * v
    cached = {k: dict(t) for k, t in a._mono_cache.items()}
    assert u * v == first
    assert a._mono_cache == cached


def test_products_fill_no_monomial_memo_and_mutate_no_row():
    # the product kernel reads shared rows (the pair factors among them),
    # writes no per-monomial memo, and never changes a row that it has read
    a = GwaParams(2, 0, Z**2 - Poly.one())
    u = a.x(2) + a.monomial(1, 1, 3) + a.y() + a.z()
    v = a.y(3) + a.monomial(2, -1) + a.x() + a.z(2)
    first = u * v
    rows = {k: (off, list(row)) for k, (off, row) in a._row_cache.items()}
    assert rows and not a._mono_cache
    assert u * v == first and v * u * v == v * (u * v)
    assert not a._mono_cache
    assert all(a._row_cache[k] == row for k, row in rows.items())
    # a wrong memo entry for every pair of terms changes nothing: no read
    a._mono_cache.update({(*L, *R): {(0, 0): 7}
                          for L in u.terms for R in v.terms})
    assert u * v == first


def test_basis_triples_order():
    from gwadeform.core import basis_triples

    for a in (GwaParams(2, 0, Z), GwaParams(1, 1, Z**2)):
        window = 2 * a.l + 4
        want = []
        for t1 in basis_window(a, window):
            w1 = a.weight(*t1)
            for t2 in basis_window(a, window - w1):
                w2 = a.weight(*t2)
                for t3 in basis_window(a, window - w1 - w2):
                    want.append((t1, t2, t3))
        assert list(basis_triples(a, window)) == want
