"""The Record contract of the package's value records, and the start-up
imports of the CLI."""
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gwadeform
from gwadeform.cli import parse_cochain
from gwadeform.core import (
    Automorphism,
    BimoduleSpec,
    GwaParams,
    LegMap,
    module_nu,
    module_plain,
    nakayama,
    twisted_delta,
)
from gwadeform.deform import TruncatedElement
from gwadeform.homology import H0Prediction, predict_h0
from gwadeform.percomplex import PerCochain
from gwadeform.scalars import BezoutPair, Poly, bezout_for_phi

Z = Poly.z()
A = GwaParams(2, 0, Z)


def _cochain(degree=1, module=None, scale=1):
    comps = tuple(scale * A.monomial(i, i - 1)
                  for i in range(PerCochain.slots(degree)))
    return PerCochain(A, module or module_nu(A), degree, comps)


# each record class: (build one record, build an equal one afresh, build
# one that differs in the first field that differs)
RECORDS = {
    "BezoutPair": (lambda: bezout_for_phi(Z**2 - Poly.one()),
                   lambda: bezout_for_phi(Z**2 - Poly.constant(4))),
    "Automorphism": (lambda: nakayama(A), lambda: nakayama(GwaParams(3, 0, Z))),
    "BimoduleSpec": (lambda: module_nu(A), lambda: module_plain(A)),
    "LegMap": (lambda: LegMap(1, 0), lambda: LegMap(1, 1)),
    "PerCochain": (_cochain, lambda: _cochain(scale=2)),
    "TruncatedElement": (lambda: TruncatedElement(A, (A.z(), A.x())),
                         lambda: TruncatedElement(A, (A.z(), A.y()))),
    "H0Prediction": (lambda: predict_h0(GwaParams(2, 0, Z**3 - Z)),
                     lambda: predict_h0(GwaParams(1, 1, Z**3))),
}
HASHABLE = ("BezoutPair", "Automorphism", "BimoduleSpec", "LegMap")


def _fields(record) -> tuple:
    return tuple(getattr(record, name) for name in record.__slots__)


@pytest.mark.parametrize("name", RECORDS)
def test_equal_by_value_within_one_type(name):
    make, other = RECORDS[name]
    u, v = make(), make()
    assert u is not v and u == v and not u != v
    assert u != other()
    assert type(u).__name__ == name
    assert repr(u).startswith(name + "(")
    # another record type, or the same fields as a plain tuple, is not equal
    for stranger in (_fields(u), LegMap(0, 0), TruncatedElement(A, ())):
        if type(stranger) is not type(u):
            assert u.__eq__(stranger) is NotImplemented
            assert u != stranger and stranger != u


@pytest.mark.parametrize("name", HASHABLE)
def test_equal_records_hash_equal(name):
    make, _ = RECORDS[name]
    assert hash(make()) == hash(make())
    assert len({make(), make()}) == 1


def test_equal_leg_maps_share_one_delta_memo_entry():
    a = GwaParams(2, 0, Z**2 - Poly.one())
    first = twisted_delta(a, LegMap(1, 0), LegMap(0, 1), Z**3)
    again = twisted_delta(a, LegMap(1, 0), LegMap(0, 1), Z**3)
    assert first == again and len(a._delta_cache) == 1


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_frozen_and_positional(name):
    record = RECORDS[name][0]()
    fields = _fields(record)
    for field in record.__slots__:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert _fields(record) == fields
    assert type(record)(*fields) == record
    for wrong in (fields[:-1], fields + (None,)):
        with pytest.raises(TypeError):
            type(record)(*wrong)


@pytest.mark.parametrize("u, v", [
    (_cochain(2), _cochain(2, scale=3)),
    (TruncatedElement(A, (A.z(), A.x())), TruncatedElement(A, (A.y(), A.x()))),
], ids=["cochain", "truncated"])
def test_direct_sums_keep_type_and_shape(u, v):
    *head, _ = _fields(u)
    for w in (u + v, u - v, -u):
        assert type(w) is type(u) and list(_fields(w)[:-1]) == head
    assert (u + v).__slots__ == u.__slots__
    assert _fields(u + v)[-1] == tuple(
        p + q for p, q in zip(_fields(u)[-1], _fields(v)[-1]))
    assert (u - u).is_zero() and not u.is_zero()


def test_direct_sum_shape_mismatch_raises():
    # cochains of another degree or module: test_boundaries
    b = GwaParams(3, 0, Z)
    with pytest.raises(ValueError, match="operands differ in shape"):
        TruncatedElement(A, (A.z(),)) + TruncatedElement(b, (b.z(),))
    assert _cochain(1).__add__(TruncatedElement(A, ())) is NotImplemented


def test_validation_errors_unchanged():
    with pytest.raises(ValueError, match="automorphism must be invertible"):
        Automorphism(A, 1, 1, Poly.constant(2))
    with pytest.raises(ValueError, match="automorphism must be invertible"):
        Automorphism(A, 0, 1, Z)
    with pytest.raises(ValueError, match="defining relations"):
        Automorphism(A, 3, 1, Z)
    rho = Automorphism(A, "3", Fraction(2, 6), Z)  # scalars pass through rat
    assert (rho.x_scale, rho.y_scale) == (3, Fraction(1, 3))
    assert type(rho.x_scale) is int
    with pytest.raises(ValueError, match="cochain degree must be >= 0, got -1"):
        PerCochain(A, module_plain(A), -1, ())
    with pytest.raises(ValueError, match="component count does not match"):
        PerCochain(A, module_plain(A), 2, (A.one(),) * 3)
    with pytest.raises(ValueError, match=r"alpha\*phi \+ beta\*phi' != 1"):
        BezoutPair(Poly.one(), Poly.one(), Z)
    assert H0Prediction("quantum", 2, 0, [0], True).finite_basis == [0]


@pytest.mark.parametrize("params", [
    A, GwaParams(-1, 0, Z**2 - Poly.one()), GwaParams(1, 1, Poly.one()),
    GwaParams(Fraction(1, 3), 2, Z**3 + Z)], ids=["z", "lambda-1", "weyl",
                                                   "third"])
def test_z_fixing_twist_is_checked_by_its_scalar_condition(params):
    # for z -> z the relations read phi * ab = phi and phi_bar * ab = phi_bar,
    # so x_scale * y_scale = 1 decides them (phi != 0)
    for a, b in [(2, Fraction(1, 2)), (-3, Fraction(-1, 3)), (1, 1), (2, 2),
                 (3, 1), (Fraction(2, 3), Fraction(3, 2)), (-1, 1)]:
        ab = Fraction(a) * b
        if params.phi * ab == params.phi.affine(1, 0) and \
                params.phi_bar * ab == params.phi_bar.affine(1, 0):
            assert Automorphism(params, a, b, Z).x_scale == a
        else:
            with pytest.raises(ValueError, match="defining relations"):
                Automorphism(params, a, b, Z)


def test_cochain_json_names_only_plain_and_nu():
    # x -> 3x, y -> y/3 on both sides is neither A nor A^nu (nu: x -> 2x)
    rho = Automorphism(A, 3, Fraction(1, 3), Z)
    ident = module_plain(A).left_twist
    for module in (BimoduleSpec(rho, rho), BimoduleSpec(ident, rho),
                   BimoduleSpec(rho, ident), BimoduleSpec(nakayama(A), ident)):
        with pytest.raises(ValueError, match="no JSON name for the module"):
            _cochain(module=module).to_json()
    for module, right in [(module_plain(A), "id"), (module_nu(A), "nu")]:
        c = _cochain(module=module)
        data = c.to_json()
        assert data["module"] == {"left": "id", "right": right}
        assert parse_cochain(A, json.dumps(data)) == c
    # at lambda = 1, nu is the identity and A^nu is written as A
    weyl = GwaParams(1, 1, Poly.one())
    c = PerCochain(weyl, module_nu(weyl), 0, (weyl.z(),))
    assert c.to_json()["module"] == {"left": "id", "right": "id"}


def test_cli_imports_no_dataclasses_or_introspection():
    # dataclasses loads inspect, ast, dis and tokenize, about 14 ms of every
    # CLI start-up, and argparse is a slower parser than the CLI's flag
    # table; the package needs none of them
    src = Path(gwadeform.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    code = ("import sys, gwadeform.cli; print(' '.join(sorted(m for m in "
            "('dataclasses', 'inspect', 'ast', 'dis', 'tokenize', "
            "'argparse') "
            "if m in sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.split() == []
