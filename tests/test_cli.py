import ast
import contextlib
import io
import json
import random
from enum import IntEnum
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import gwadeform
import gwadeform.cli
import gwadeform.core
import gwadeform.deform
import gwadeform.hochschild
import gwadeform.homology
import gwadeform.scalars
from gwadeform.cli import json_text, load_config, run
from gwadeform.core import GwaElement, GwaParams, LinComb, module_nu, \
    module_plain
from gwadeform.deform import build_star, star
from gwadeform.errors import MultipleRootError
from gwadeform.percomplex import PerCochain, f_map, per_diff
from gwadeform.scalars import Laurent, Poly, Q, bezout_for_phi, div

from conftest import reference_parser

CORPUS = sorted((Path(__file__).resolve().parent.parent
                 / "perfbench" / "corpus").glob("alg*.json"))


def write_config(tmp_path, lam, eta, phi, label=""):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(
        {"lambda": lam, "eta": eta, "phi": phi, "label": label}))
    return str(path)


def run_json(capsys, argv):
    code = run(argv)
    report = json.loads(capsys.readouterr().out)
    return code, report


def test_check_algebra(tmp_path, capsys):
    cfg = write_config(tmp_path, "2", "0", ["0", "1"], "q")
    code, report = run_json(capsys, ["--config", cfg, "--json", "check-algebra"])
    assert code == 0 and report["pass"]
    assert report["command"] == "check-algebra"
    assert report["algebra"]["label"] == "q"
    checks = {r["check"] for r in report["results"]}
    assert "associativity" in checks and "homotopy-double-complex" in checks


def test_mul_and_star(tmp_path, capsys):
    cfg = write_config(tmp_path, "2", "0", ["0", "1"])
    x = json.dumps([{"p": 0, "q": 1, "c": "1"}])
    y = json.dumps([{"p": 0, "q": -1, "c": "1"}])
    code, report = run_json(capsys, ["--config", cfg, "--json", "mul", x, y])
    assert code == 0
    assert report["results"][0]["product"] == [{"p": 1, "q": 0, "c": "2"}]
    z = json.dumps([{"p": 1, "q": 0, "c": "1"}])
    code, report = run_json(
        capsys, ["--config", cfg, "--json", "--order", "3", "star", x, z])
    assert code == 0
    series = report["results"][0]["series"]
    assert series[0] == [{"p": 1, "q": 1, "c": "2"}]
    assert series[1] == [{"p": 1, "q": 1, "c": "-2"}]
    assert series[2] == []


@pytest.mark.parametrize("lam, eta, order", [
    ("2", "0", "0"), ("2", "0", "17"), ("1", "0", "2"), ("2", "1", "2")],
    ids=["order-0", "order-17", "commutative", "mixed"])
def test_star_refusals_match_deform_verify(tmp_path, capsys, lam, eta, order):
    # star refuses before it parses its operands, with deform-verify's message
    cfg = write_config(tmp_path, lam, eta, ["0", "1"])
    assert run(["--config", cfg, "--order", order, "deform-verify"]) == 2
    want = capsys.readouterr().err
    assert want.startswith("error: ")
    for operand in ('[{"p":0,"q":1,"c":"1"}]', "not json"):
        assert run(["--config", cfg, "--order", order, "star", operand,
                    operand]) == 2
        assert capsys.readouterr().err == want


def test_star_is_the_cochain_star_without_determine_F(tmp_path, capsys,
                                                      monkeypatch):
    # every corpus algebra: the report's series is star(build_star(...)), and
    # answering it reconstructs no cochain
    rng = random.Random(7)
    wanted = []
    for path in CORPUS:
        params, _ = load_config(str(path))
        sp = build_star(params, 5)
        u, v = (GwaElement(params, {
            (rng.randint(0, 2), rng.randint(-2, 2)): Fraction(
                rng.choice([1, -2, 3]), rng.choice([1, 2]))
            for _ in range(3)}) for _ in range(2))
        wanted.append((path, u, v, star(sp, u, v).to_json()))

    def refuse(*args, **kwargs):
        raise AssertionError("star reconstructed a cochain")

    monkeypatch.setattr(gwadeform.deform, "determine_F", refuse)
    monkeypatch.setattr(gwadeform.hochschild, "determine_F", refuse)
    for path, u, v, want in wanted:
        code, report = run_json(capsys, [
            "--config", str(path), "--json", "--order", "5", "star",
            json.dumps(u.to_json()), json.dumps(v.to_json())])
        assert code == 0 and report["results"][0]["series"] == want, path


def test_cohomology_roundtrips(tmp_path, capsys):
    cfg = write_config(tmp_path, "2", "0", ["0", "1"])
    m = json.dumps([{"p": 1, "q": 0, "c": "1"}])
    code, report = run_json(
        capsys, ["--config", cfg, "--json", "cohomology", "f", m,
                 "--module", "nu"])
    assert code == 0 and report["results"][0]["is_cocycle"]
    cochain = json.dumps(report["results"][0]["cochain"])
    for op in ("split2", "g"):
        code, report = run_json(
            capsys, ["--config", cfg, "--json", "cohomology", op, cochain])
        assert code == 0 and report["pass"], op
    code, report = run_json(
        capsys, ["--config", cfg, "--json", "cohomology", "diff", cochain])
    assert code == 0
    assert all(c == [] for c in report["results"][0]["cochain"]["components"])


def test_cohomology_multiple_root_message(tmp_path, capsys):
    cfg = write_config(tmp_path, "1", "1", ["0", "0", "1"])
    payload = json.dumps({"degree": 2, "module": "plain",
                          "components": [[], [], [], []]})
    code = run(["--config", cfg, "cohomology", "split2", payload])
    err = capsys.readouterr().err
    assert code == 2
    assert "no multiple roots" in err


BARE_COCHAIN = {"degree": 0, "components": [[{"p": 1, "q": 0, "c": "1"}]]}


def test_cohomology_module_flag_names_a_bare_payload(tmp_path, capsys):
    # a payload without "module" is a cochain of the --module module
    cfg = write_config(tmp_path, "2", "0", ["0", "1"])
    out = {}
    for flag in ((), ("--module", "plain"), ("--module", "nu")):
        code, report = run_json(
            capsys, ["--config", cfg, "--json", "cohomology", "diff",
                     json.dumps(BARE_COCHAIN), *flag])
        assert code == 0
        out[flag] = report["results"][0]["cochain"]
    assert out[()] == out[("--module", "plain")]
    assert out[()]["module"]["right"] == "id"
    assert out[("--module", "nu")]["module"]["right"] == "nu"
    assert out[("--module", "nu")]["components"] != out[()]["components"]


@pytest.mark.parametrize("algebra, flag, mod, right", [
    (("2", "0", ["0", "1"]), "plain", "plain", "id"),
    (("2", "0", ["0", "1"]), "nu", "nu", "nu"),
    (("2", "0", ["0", "1"]), "nu", {"left": "id", "right": "nu"}, "nu"),
    # nu is the identity on the classical phi = 1, so A^nu is plain there
    (("1", "1", ["1"]), "nu", "plain", "id"),
])
def test_cohomology_module_flag_agreeing_with_payload(tmp_path, capsys,
                                                      algebra, flag, mod,
                                                      right):
    cfg = write_config(tmp_path, *algebra)
    payload = json.dumps({**BARE_COCHAIN, "module": mod})
    code, report = run_json(capsys, ["--config", cfg, "--json", "cohomology",
                                     "diff", payload, "--module", flag])
    assert code == 0
    assert report["results"][0]["cochain"]["module"]["right"] == right


@pytest.mark.parametrize("mod, flag, specs", [
    (None, None, 1), (None, "nu", 1), ("nu", "nu", 1),
    ({"left": "id", "right": "nu"}, "nu", 1), ("plain", None, 1),
    ("plain", "nu", 2),
])
def test_parse_cochain_builds_one_module_per_request(monkeypatch, mod, flag,
                                                     specs):
    # every BimoduleSpec checks its twists' relations when it is built, so
    # a request builds a second one only for a flag naming another module
    # (here equal to the first: nu is plain when lambda = 1)
    params = GwaParams(1, 1, Poly([1]))
    real, built = gwadeform.cli._module, []

    def counted(params, name):
        built.append(name)
        return real(params, name)

    monkeypatch.setattr(gwadeform.cli, "_module", counted)
    payload = BARE_COCHAIN if mod is None else {**BARE_COCHAIN, "module": mod}
    c = gwadeform.cli.parse_cochain(params, json.dumps(payload), flag)
    assert c.module == module_plain(params) and len(built) == specs


@pytest.mark.parametrize("op", ["diff", "g"])
@pytest.mark.parametrize("flag, mod", [("nu", "plain"), ("plain", "nu")])
def test_cohomology_module_flag_disagreeing_with_payload_exits_2(
        tmp_path, capsys, op, flag, mod):
    cfg = write_config(tmp_path, "2", "0", ["0", "1"])
    payload = json.dumps({**BARE_COCHAIN, "module": mod})
    code = run(["--config", cfg, "--json", "cohomology", op, payload,
                "--module", flag])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"--module {flag}" in captured.err
    assert f"payload's module {mod}" in captured.err


@pytest.mark.parametrize("label", [1.5, ["a"]])
def test_non_string_label_exits_2(tmp_path, capsys, label):
    cfg = write_config(tmp_path, "2", "0", ["0", "1"], label)
    with pytest.raises(ValueError):
        load_config(cfg)
    code = run(["--config", cfg, "--json", "h0"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "label" in captured.err


def test_h0_examples(tmp_path, capsys):
    def survivors(lam, eta, phi):
        cfg = write_config(tmp_path, lam, eta, phi)
        code, report = run_json(capsys, ["--config", cfg, "--json", "h0"])
        assert code == 0 and report["pass"]
        return {(s["monomial"]["p"], s["monomial"]["q"])
                for s in report["results"][0]["survivors"]}

    assert survivors("1", "1", ["0", "0", "1"]) == {(0, 0)}
    assert survivors("1", "1", ["0", "1"]) == set()
    assert survivors("2", "0", ["0", "1"]) == {(0, 0), (1, 0)}
    # phi = z^2 has no nonzero root, and column q = 0 still keeps l classes
    assert survivors("2", "0", ["0", "0", "1"]) == {(0, 0), (1, 0)}


def test_deform_verify(tmp_path, capsys):
    cfg = write_config(tmp_path, "2", "0", ["-1", "0", "1"])
    code, report = run_json(
        capsys, ["--config", cfg, "--json", "--order", "3", "deform-verify"])
    assert code == 0 and report["pass"]
    checks = [r["check"] for r in report["results"]]
    assert "obstruction n=2" in checks and "local-finiteness" in checks
    nontriv = [r for r in report["results"]
               if r["check"] == "first-order nontriviality"][0]
    assert nontriv["applicable"] and not nontriv["preimage_found"]
    # degree-2 cohomology vanishes here, so the nontriviality check is waived
    cfg = write_config(tmp_path, "1", "1", ["1"])
    code, report = run_json(
        capsys, ["--config", cfg, "--json", "--order", "2", "deform-verify"])
    assert code == 0 and report["pass"]
    note = [r for r in report["results"]
            if r["check"] == "first-order nontriviality"][0]
    assert not note["applicable"] and "trivial" in note["note"]


def test_check_algebra_associativity_sweep_detects_a_wrong_product(
        capsys, monkeypatch):
    # one wrong cached coefficient row, sigma(z)^1 = 3 z instead of 2 z,
    # makes x z = 3 z x, so (x z) z differs from x (z z); the sweep must
    # report it over the same number of triples
    from gwadeform import cli

    argv = ["--config", str(CORPUS[4]), "--json", "--seed", "3",
            "check-algebra"]

    def sweep():
        _, report = run_json(capsys, argv)
        return [r for r in report["results"]
                if r["check"] == "associativity"][0]

    clean = sweep()
    assert clean["pass"]

    def poisoned(path):
        params, label = load_config(path)
        params._row_cache[(1, 1, 0)] = (1, [3])
        return params, label

    monkeypatch.setattr(cli, "load_config", poisoned)
    broken = sweep()
    assert broken["pass"] is False
    assert broken["triples"] == clean["triples"] > 200


@pytest.mark.parametrize("p0", range(2, 8))
def test_check_algebra_c_and_p_share_the_dh_table(capsys, monkeypatch, p0):
    # C's differential is d^h's table on row q = 0 of P, so one wrong sign
    # in that table (slot 1 of generator 0 of P_{p0,0}) fails both checks;
    # p0 = 7 fails only c_diff, since verify_hdc stops at p = 6
    from gwadeform import complexes

    honest = complexes._dh_gens

    def poisoned(params, p, q):
        rows = honest(params, p, q)
        if (p, q) == (p0, 0):
            rows[0][1] = {k: -c for k, c in rows[0][1].items()}
        return rows

    monkeypatch.setattr(complexes, "_dh_gens", poisoned)
    code, report = run_json(
        capsys, ["--config", str(CORPUS[1]), "--json", "check-algebra"])
    failed = {r["check"] for r in report["results"] if not r["pass"]}
    assert code == 1 and report["pass"] is False
    assert failed == ({"c_diff.c_diff = 0"} if p0 == 7 else
                      {"homotopy-double-complex", "c_diff.c_diff = 0"})


def test_json_report_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path, "2", "0", ["0", "1"])
    argv = ["--config", cfg, "--json", "--seed", "7", "check-algebra"]
    reports = []
    for _ in range(2):
        _, report = run_json(capsys, argv)
        report.pop("timing_ms")
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["seed"] == 7


def test_env_overrides(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, "2", "0", ["0", "1"], "env")
    monkeypatch.setenv("GWADEFORM_CONFIG", cfg)
    monkeypatch.setenv("GWADEFORM_JSON", "1")
    monkeypatch.setenv("GWADEFORM_SEED", "11")
    code, report = run_json(capsys, ["h0"])
    assert code == 0
    assert report["algebra"]["label"] == "env" and report["seed"] == 11


def test_missing_config_and_bad_input(tmp_path, capsys):
    assert run(["h0"]) == 2
    capsys.readouterr()
    cfg = write_config(tmp_path, "2", "1", ["0", "1"])
    assert run(["--config", cfg, "h0"]) == 2
    assert "error" in capsys.readouterr().err
    cfg = write_config(tmp_path, "2", "0", ["0", "1"])
    assert run(["--config", cfg, "mul", "not json", "[]"]) == 2


@pytest.mark.parametrize("config, request_, message", [
    ({"lambda": "2", "eta": "0", "phi": ["0", "1"]},
     ["mul", '[{"p":0,"q":1}]', "[]"],
     "a term needs the key 'c', got {'p': 0, 'q': 1}"),
    ({"lambda": "2", "eta": "0"}, ["mul", "[]", "[]"],
     "an algebra needs the key 'phi', got {'lambda': '2', 'eta': '0'}"),
    ({"lambda": "2", "eta": "0", "phi": ["0", "1"]},
     ["cohomology", "diff", '{"components": []}'],
     "a cochain needs the key 'degree', got {'components': []}"),
])
def test_missing_key_is_named_with_its_record(tmp_path, capsys, config,
                                              request_, message):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(config))
    assert run(["--config", str(path), *request_]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_key_error_inside_a_command_propagates(tmp_path, capsys, monkeypatch):
    # no input path raises KeyError (a missing key is a ValueError naming
    # it), so one from inside a command is a bug, not exit 2
    def broken(params, window=None):
        raise KeyError("k")

    monkeypatch.setattr(gwadeform.cli, "compare_h0", broken)
    cfg = write_config(tmp_path, "2", "0", ["0", "1"])
    with pytest.raises(KeyError):
        run(["--config", cfg, "h0"])
    assert run(["--config", cfg, "mul", '[{"p": 0', "[]"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_mixed_case_rejected_at_build(tmp_path, capsys):
    cfg = write_config(tmp_path, "2", "1", ["0", "1"])
    code = run(["--config", cfg, "--order", "2", "deform-verify"])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["SEED", "ORDER", "WINDOW"])
def test_malformed_env_value_exits_2(tmp_path, capsys, monkeypatch, name):
    cfg = write_config(tmp_path, "2", "0", ["0", "1"])
    monkeypatch.setenv("GWADEFORM_" + name, "x")
    assert run(["--config", cfg, "h0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "GWADEFORM_" + name in err
    # the variable is not read when its flag is given
    flag = "--" + name.lower()
    value = "3" if name == "ORDER" else "4"
    code, report = run_json(capsys, ["--config", cfg, "--json", flag, value,
                                     "h0"])
    assert code == 0 and report["pass"]


@pytest.mark.parametrize("command", ["h0", "deform-verify"])
def test_negative_window_exits_2(tmp_path, capsys, monkeypatch, command):
    cfg = write_config(tmp_path, "2", "0", ["0", "1"])
    assert run(["--config", cfg, "--window", "-5", command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "window" in err
    monkeypatch.setenv("GWADEFORM_WINDOW", "-5")
    assert run(["--config", cfg, command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "GWADEFORM_WINDOW" in err
    # window 0 is a window: the checks run on the unit alone
    monkeypatch.setenv("GWADEFORM_WINDOW", "0")
    code, report = run_json(capsys, ["--config", cfg, "--json", "--order", "2",
                                     command])
    assert code == 0 and report["pass"]
    code, report = run_json(capsys, ["--config", cfg, "--json", "--order", "2",
                                     "--window", "0", command])
    assert code == 0 and report["pass"]
    counted = [r.get("triples", r.get("pairs")) for r in report["results"]
               if r["check"].startswith(("obstruction", "local"))]
    assert counted == ([1, 1] if command == "deform-verify" else [])


@pytest.mark.parametrize("value", ["true", "yes", "2", "on"])
def test_json_env_accepts_only_0_or_1(tmp_path, capsys, monkeypatch, value):
    cfg = write_config(tmp_path, "2", "0", ["0", "1"])
    monkeypatch.setenv("GWADEFORM_JSON", value)
    assert run(["--config", cfg, "h0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "GWADEFORM_JSON" in err
    monkeypatch.setenv("GWADEFORM_JSON", "0")
    assert run(["--config", cfg, "h0"]) == 0
    assert capsys.readouterr().out.startswith("gwadeform h0")
    monkeypatch.setenv("GWADEFORM_JSON", "1")
    code, report = run_json(capsys, ["--config", cfg, "h0"])
    assert code == 0 and report["command"] == "h0"


def test_env_read_on_every_run(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, "2", "0", ["0", "1"])
    for seed in ("5", "6"):
        monkeypatch.setenv("GWADEFORM_SEED", seed)
        code, report = run_json(capsys, ["--config", cfg, "--json", "h0"])
        assert code == 0 and report["seed"] == int(seed)
    code, report = run_json(capsys, ["--config", cfg, "--json", "--seed", "2",
                                     "h0"])
    assert report["seed"] == 2


def test_star_and_deform_verify_at_order_12(tmp_path, capsys):
    cfg = write_config(tmp_path, "2", "0", ["0", "1"])
    x = json.dumps([{"p": 0, "q": 1, "c": "1"}])
    z = json.dumps([{"p": 1, "q": 0, "c": "1"}])
    code, report = run_json(
        capsys, ["--config", cfg, "--json", "--order", "12", "star", x, z])
    assert code == 0 and report["results"][0]["order"] == 12
    series = report["results"][0]["series"]
    assert len(series) == 13
    assert series[:2] == [[{"p": 1, "q": 1, "c": "2"}],
                          [{"p": 1, "q": 1, "c": "-2"}]]
    assert all(s == [] for s in series[2:])
    # the first Weyl algebra, [x, y] = 1
    cfg = write_config(tmp_path, "1", "1", ["0", "1"])
    code, report = run_json(
        capsys, ["--config", cfg, "--json", "--order", "12", "deform-verify"])
    assert code == 0 and report["pass"]
    checks = [r["check"] for r in report["results"]]
    assert "obstruction n=12" in checks
    assert run(["--config", cfg, "--order", "17", "deform-verify"]) == 2
    assert "between 1 and 16" in capsys.readouterr().err


def _floats(value):
    if isinstance(value, float):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [f for v in value for f in _floats(v)]
    return []


def _corpus_requests(path, rng):
    """One argv tail per command and cohomology operation the config admits."""
    params, _ = load_config(str(path))

    def element(nterms=3):
        return GwaElement(params, {
            (rng.randint(0, 3), rng.randint(-2, 2)):
            Fraction(rng.choice([1, -2, 3]), rng.choice([1, 2]))
            for _ in range(nterms)})

    def js(obj):
        return json.dumps(obj.to_json())

    def cochain(module, degree):
        return PerCochain(params, module, degree, tuple(
            element(2) for _ in range(PerCochain.slots(degree))))

    requests = [["mul", js(element()), js(element())], ["h0"],
                ["--order", "3", "star", js(element()), js(element())]]
    try:
        bezout_for_phi(params.phi)
        squarefree = True
    except MultipleRootError:
        squarefree = False
    for name, make in (("plain", module_plain), ("nu", module_nu)):
        module = make(params)
        m = element()
        requests.append(["cohomology", "f", js(m), "--module", name])
        for degree in range(4):
            requests.append(["cohomology", "diff", js(cochain(module, degree))])
        if squarefree:
            cocycle2 = per_diff(cochain(module, 1)) + f_map(m, params, module)
            requests.append(["cohomology", "g", js(cocycle2)])
            requests.append(["cohomology", "split2", js(cocycle2)])
            requests.append(["cohomology", "contract3",
                             js(per_diff(cochain(module, 2)))])
    return requests


def test_no_float_in_any_report(capsys):
    assert _floats({"a": [1, "0.5", {"b": 0.5}]}) == [0.5]
    rng = random.Random(19)
    reports = 0
    for k, path in enumerate(CORPUS):
        requests = _corpus_requests(path, rng)
        if k in (1, 7):
            requests += [["check-algebra"], ["deform-verify"]]
        for tail in requests:
            code, report = run_json(capsys, ["--config", str(path), "--json",
                                             *tail])
            assert code == 0, (path.name, tail[:2])
            assert _floats(report) == [], (path.name, tail[:2])
            reports += 1
    assert len(CORPUS) == 11 and reports > 150


_FRACTION_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
    "__mod__", "__rmod__", "__pow__", "__rpow__", "__neg__", "__pos__",
    "__abs__")


def count_plain_fractions(monkeypatch) -> list:
    """Wrap Fraction's constructor and arithmetic; the returned list gains
    one entry for each plain Fraction (not a Q) that they make."""
    made, new = [], Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        if cls is Fraction:
            made.append("__new__")
        return new(cls, *args, **kwargs)

    def counting(name, method):
        def wrapper(*args):
            out = method(*args)
            if type(out) is Fraction:
                made.append(name)
            return out
        return wrapper

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    for name in _FRACTION_ARITHMETIC:
        monkeypatch.setattr(Fraction, name,
                            counting(name, getattr(Fraction, name)))
    return made


def _fraction_guard_requests(params):
    """Small-window argv tails of every command, payloads built in code."""
    rng = random.Random(5)

    def element(nterms=3):
        return GwaElement(params, {
            (rng.randint(0, 2), rng.randint(-2, 2)):
            div(rng.choice([1, -2, 3]), rng.choice([1, 2, 3]))
            for _ in range(nterms)})

    def js(obj):
        return json.dumps(obj.to_json())

    def cochain(module, degree):
        return PerCochain(params, module, degree, tuple(
            element(2) for _ in range(PerCochain.slots(degree))))

    requests = [["mul", js(element()), js(element())],
                ["--order", "2", "star", js(element()), js(element())],
                ["--window", "4", "h0"], ["check-algebra"],
                ["--order", "2", "deform-verify"]]
    for name, make in (("plain", module_plain), ("nu", module_nu)):
        module, m = make(params), element()
        cocycle2 = per_diff(cochain(module, 1)) + f_map(m, params, module)
        requests += [["cohomology", "f", js(m), "--module", name],
                     ["cohomology", "diff", js(cochain(module, 2))],
                     ["cohomology", "g", js(cocycle2)],
                     ["cohomology", "split2", js(cocycle2)],
                     ["cohomology", "contract3",
                      js(per_diff(cochain(module, 2)))]]
    return requests


@pytest.mark.parametrize("lam, eta, phi", [
    ("1/3", "0", ["1", "0", "1"]), ("1", "2/3", ["-1", "0", "1"]),
    ("-1", "0", ["1", "0", "1"])], ids=["quantum-1_3", "classical-2_3",
                                        "quantum-minus-1"])
def test_no_plain_fraction_inside_run(tmp_path, capsys, monkeypatch,
                                      lam, eta, phi):
    # the package keeps every scalar an int or a Q, so no code downstream
    # of the entry points needs to normalise a plain Fraction
    cfg = write_config(tmp_path, lam, eta, phi)
    requests = _fraction_guard_requests(load_config(cfg)[0])
    made = count_plain_fractions(monkeypatch)
    for tail in requests:
        code = run(["--config", cfg, "--json", *tail])
        assert code == 0, (tail[:2], capsys.readouterr().err)
        assert made == [], tail[:2]
    capsys.readouterr()


def test_plain_fraction_counter_sees_a_plain_scale_factor(monkeypatch):
    # the positive control of the guard above
    a, half = GwaParams(2, 0, Poly([0, 1])), Fraction(1, 2)
    made = count_plain_fractions(monkeypatch)
    gwadeform.core._multiply_into(a, {}, {(0, 1): 1}, {(1, 0): 1}, half)
    assert made


def watch_adoptions(monkeypatch) -> list:
    """Wrap LinComb._of and Poly._of; the returned list gains a (container,
    copy) pair for each term dict or coefficient list that they adopt."""
    adopted, of_terms, of_coeffs = [], LinComb._of.__func__, Poly._of

    def terms(cls, algebra, d):
        adopted.append((d, dict(d)))
        return of_terms(cls, algebra, d)

    def coeffs(cs):
        p = of_coeffs(cs)
        adopted.append((cs, list(cs)))
        return p

    monkeypatch.setattr(LinComb, "_of", classmethod(terms))
    monkeypatch.setattr(Poly, "_of", staticmethod(coeffs))
    return adopted


def broken_adoptions(adopted) -> list:
    """The copies of the adopted containers that hold a value other than an
    int, a Q or a Laurent, a zero in a dict or at the end of a list, or that
    changed since they were adopted."""
    broken = []
    for box, copy in adopted:
        values = list(box.values() if isinstance(box, dict) else box)
        zero = (not all(values) if isinstance(box, dict)
                else bool(values) and not values[-1])
        if zero or box != copy or {type(v) for v in values} - {int, Q, Laurent}:
            broken.append(copy)
    return broken


def count_rat(monkeypatch) -> list:
    """Wrap scalars.rat wherever a module of the package holds it; the
    returned list gains each value that it is called on."""
    seen, rat = [], gwadeform.scalars.rat

    def counting(value):
        seen.append(value)
        return rat(value)

    for module in (gwadeform.scalars, gwadeform.core, gwadeform.homology):
        assert module.rat is rat
        monkeypatch.setattr(module, "rat", counting)
    return seen


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_adopted_terms_are_canonical(capsys, monkeypatch, path):
    # what LinComb._of and Poly._of adopt without rat: a zero-free dict or a
    # list without trailing zeros, of ints, Qs and Laurents only, and never
    # mutated afterwards
    params, _ = load_config(str(path))
    try:
        bezout_for_phi(params.phi)
        squarefree = True
    except MultipleRootError:
        squarefree = False
    requests = _fraction_guard_requests(params)
    adopted = watch_adoptions(monkeypatch)
    for tail in requests:
        code = run(["--config", str(path), "--json", *tail])
        assert code == 0 or (code == 2 and not squarefree), tail[:2]
    capsys.readouterr()
    assert len(adopted) > 1000 and broken_adoptions(adopted) == []


def test_adoption_guard_sees_a_broken_adoption(monkeypatch):
    # the positive control of the guard above
    a = GwaParams(2, 0, Poly([0, 1]))
    adopted = watch_adoptions(monkeypatch)
    GwaElement._of(a, {(0, 0): Fraction(1, 2)})
    GwaElement._of(a, {(0, 0): 0})
    Poly._of([1, 0.5])
    mutated = {(0, 0): 1}
    GwaElement._of(a, mutated)
    mutated[(1, 0)] = 2
    GwaElement._of(a, {(0, 1): div(1, 3)})
    assert len(broken_adoptions(adopted)) == 4 and len(adopted) == 5


def test_built_elements_make_no_rat_call(monkeypatch):
    # products, the cochain differential and the product of A_tau adopt
    # the dicts they build; the positive control: a caller's values do
    # go through rat
    for a in (GwaParams(Fraction(1, 3), 0, Poly([1, 0, 1])),
              GwaParams(1, Fraction(2, 3), Poly([-1, 0, 1]))):
        u = GwaElement(a, {(0, 1): Fraction(1, 2), (2, -1): 3, (1, 0): -2})
        v = GwaElement(a, {(1, -1): Fraction(-2, 3), (0, 2): 1})
        c = PerCochain(a, module_nu(a), 1, (u, v, u))
        seen = count_rat(monkeypatch)
        assert (u * v).terms and per_diff(c).components
        assert any(gwadeform.deform._deformed_mul(a, 4, u.terms, v.terms))
        assert seen == []
        monkeypatch.undo()
    seen = count_rat(monkeypatch)
    GwaElement.from_json(a, [{"p": 0, "q": 0, "c": "1/2"}])
    assert seen == ["1/2"]
    GwaElement(a, {(0, 0): "1/2"})
    assert seen == ["1/2", "1/2"]


# report-shaped values: strings with quotes, backslashes, control and
# non-ASCII characters, ints beyond 64 bits, and empty containers at depth
json_leaves = st.one_of(
    st.text(alphabet=st.characters(codec="utf-8"), max_size=8),
    st.sampled_from(['"', "\\", "\n\t\x00\x1f", "\u00e9\u2028\U0001f600"]),
    st.integers(min_value=-2**70, max_value=2**70),
    st.booleans(),
    st.none(),
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=30,
)


class Level(IntEnum):
    HIGH = 7


class Label(str):
    pass


@given(json_values)
@example({"a": [[], {}, ()], "": {"b": [{}]}, "c": -2**65})
# the inline str and int members of lists and dicts leave these to the
# recursion: bools and None, an IntEnum member, a str subclass (value or key)
@example([True, False, None, 0, "x", [None]])
@example({"t": True, "f": False, "n": None, "i": -1, "s": ""})
@example([Level.HIGH, Label("lab\u00e9l"), {"v": Level.HIGH, "w": Label("\n")}])
@example({Label("key"): [Label("v")], "k": Label("")})
def test_json_text_matches_stdlib_indent_2(obj):
    assert json_text(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("value, name", [
    (0.5, "float"), (Fraction(1, 3), "Fraction"), ({1, 2}, "set"),
    ({1: "int key"}, "int"), ([{"ok": [1, 2.0]}], "float"),
], ids=["float", "fraction", "set", "int-key", "nested-float"])
def test_json_text_rejects_non_report_values(value, name):
    # a report carries exact rationals as strings, so these are bugs
    with pytest.raises(TypeError, match=rf"\b{name}\b"):
        json_text(value)


def test_reports_have_one_encoder():
    # every report goes through json_text: a json.dumps call in the package
    # would be a second, slower encoding path
    found = []
    for path in sorted(Path(gwadeform.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("dumps", "dump"):
                found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "json" \
                    and any(a.name in ("dumps", "dump") for a in node.names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


# ---------------------------------------------------------------------------
# Term lists written from the term dicts
# ---------------------------------------------------------------------------

def _as_json(value):
    """The report value with every element and cochain read as its
    to_json(), the form that json.dumps accepts."""
    if isinstance(value, (GwaElement, PerCochain)):
        return value.to_json()
    if isinstance(value, dict):
        return {k: _as_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_json(v) for v in value]
    return value


def capture_reports(monkeypatch) -> list:
    """Wrap cli.json_text; the returned list gains each report that run
    writes (the outermost call, at the default indent)."""
    reports, write = [], gwadeform.cli.json_text

    def recording(obj, indent="\n"):
        if indent == "\n":
            reports.append(obj)
        return write(obj, indent)

    monkeypatch.setattr(gwadeform.cli, "json_text", recording)
    return reports


def _writer_requests(path, rng):
    """mul (one of them by 0), star at orders 1, 2 and 8, and every
    cohomology operation the config admits, under both modules."""
    tails = _corpus_requests(path, rng)
    star_tail = next(t for t in tails if "star" in t)
    tails = [t for t in tails if t[0] in ("mul", "cohomology")]
    tails.append(["mul", tails[0][1], "[]"])
    for order in ("1", "2", "8"):
        tails.append(["--order", order, *star_tail[2:]])
    return tails


@pytest.mark.parametrize("config", [*CORPUS, None],
                         ids=[p.stem for p in CORPUS] + ["third-z2+1"])
def test_term_lists_match_the_records(tmp_path, capsys, monkeypatch, config):
    # run's reports hold elements and cochains; written, they are the bytes
    # of json.dumps on the same report with every to_json() in its place
    path = config or write_config(tmp_path, "1/3", "0", ["1", "0", "1"])
    tails = _writer_requests(path, random.Random(23))
    reports = capture_reports(monkeypatch)
    kinds = set()
    for tail in tails:
        assert run(["--config", str(path), "--json", *tail]) == 0, tail[:2]
        out = capsys.readouterr().out
        report = reports.pop()
        want = json.dumps(_as_json(report), indent=2)
        assert json_text(report) == want and out == want + "\n", tail[:2]
        result = report["results"][0]
        kinds.add(result["check"])
        if result["check"] == "mul" and tail[2] == "[]":
            assert json.loads(out)["results"][0]["product"] == []
    assert kinds >= {"mul", "star", "f", "diff"}
    if config is None:
        assert kinds == {"mul", "star", "f", "diff", "g", "contract3",
                         "split2"}


_ALG = GwaParams(2, 0, Poly([0, 1]))
term_dicts = st.dictionaries(
    st.tuples(st.integers(0, 2**66), st.integers(-2**66, 2**66)),
    st.builds(div, st.integers(-2**70, 2**70).filter(bool),
              st.integers(1, 60)),
    max_size=8)


@given(term_dicts, st.lists(st.sampled_from([list, tuple, "key"]),
                            max_size=6))
@example({}, [list])
@example({(0, 0): 1, (1, -1): div(-1, 2), (0, -1): 3}, [])
def test_term_list_matches_stdlib_at_any_depth(terms, wrappers):
    u = GwaElement._of(_ALG, terms)
    obj, ref = u, u.to_json()
    for wrap in wrappers:
        obj, ref = ((obj,), (ref,)) if wrap is tuple else (
            ({"k": obj}, {"k": ref}) if wrap == "key" else ([obj], [ref]))
    assert json_text(obj) == json.dumps(ref, indent=2)


@pytest.mark.parametrize("value, name", [
    (0.5, "float"), (Laurent({1: 1}), "Laurent"), (Fraction(1, 3), "Fraction"),
], ids=["float", "laurent", "fraction"])
def test_term_writer_rejects_non_rational_scalars(value, name):
    # an adopted element breaking the scalar contract is a bug, named as one
    u = GwaElement._of(_ALG, {(0, 1): 1, (1, 0): value})
    for report in (u, {"product": u},
                   [PerCochain(_ALG, module_plain(_ALG), 0, (u,))]):
        with pytest.raises(TypeError, match=rf"\b{name}\b"):
            json_text(report)


def refuse_term_records(monkeypatch):
    """Make GwaElement.to_json raise: the output path must not call it."""
    def refuse(self):
        raise AssertionError("GwaElement.to_json called")

    monkeypatch.setattr(GwaElement, "to_json", refuse)


def test_run_builds_no_term_record(tmp_path, capsys, monkeypatch):
    # mul, star and every cohomology operation under both modules write
    # their term lists from the term dicts, with no record dict per term
    cfg = write_config(tmp_path, "1/3", "0", ["1", "0", "1"])
    tails = [t for t in _fraction_guard_requests(load_config(cfg)[0])
             if t[0] in ("mul", "cohomology") or "star" in t]
    assert len(tails) == 12
    refuse_term_records(monkeypatch)
    for tail in tails:
        assert run(["--config", cfg, "--json", *tail]) == 0, tail[:2]
    assert '"p": 0' in capsys.readouterr().out


def test_term_record_guard_sees_a_report_built_the_old_way(
        tmp_path, capsys, monkeypatch):
    # the positive control of the guard above: reports holding to_json()
    # values, as mul and diff once built them
    cfg = write_config(tmp_path, "1/3", "0", ["1", "0", "1"])
    x = json.dumps([{"p": 0, "q": 1, "c": "1"}])

    def old_mul(params, args):
        u, v = (GwaElement.from_json(params, json.loads(t))
                for t in (args.left, args.right))
        return [{"check": "mul", "product": (u * v).to_json(), "pass": True}]

    def old_diff(params, args):
        c = gwadeform.cli.parse_cochain(params, args.payload, args.module)
        return [{"check": "diff", "cochain": per_diff(c).to_json(),
                 "pass": True}]

    refuse_term_records(monkeypatch)
    commands = gwadeform.cli._COMMANDS
    for name, old, tail in (("mul", old_mul, ["mul", x, x]),
                            ("cohomology", old_diff,
                             ["cohomology", "diff", json.dumps(BARE_COCHAIN)])):
        monkeypatch.setitem(commands, name, (old, *commands[name][1:]))
        with pytest.raises(AssertionError, match="to_json called"):
            run(["--config", cfg, "--json", *tail])


# ---------------------------------------------------------------------------
# The argv parser against the former argparse parser
# ---------------------------------------------------------------------------

REFERENCE = reference_parser()
COMMANDS = ["check-algebra", "mul", "star", "cohomology", "h0",
            "deform-verify"]
OPERATIONS = ["f", "g", "contract3", "split2", "diff"]
# values never start with '-' unless they are negative ints, and no flag is
# abbreviated: argparse takes a unique prefix, the parser refuses it.  (It
# also refuses '-', '--', '-1.5' and '-a b', which argparse may read as
# values.)
ints = st.integers(-2**40, 2**40).map(str)
values = st.one_of(st.text(alphabet='ab./=[]{}":,0123', max_size=6), ints,
                   st.sampled_from(["h0", "mul", "f", "nu"]))


def _flag(draw, flag, value):
    """``--flag=value`` or ``--flag value``, as drawn."""
    if draw(st.booleans()):
        return [f"--{flag}={value}"]
    return [f"--{flag}", value]


@st.composite
def requests(draw):
    """(global flag groups, command, tail groups) of a well-formed argv."""
    head = []
    for flag in draw(st.lists(st.sampled_from(
            ["config", "json", "seed", "window", "order"]), max_size=7)):
        head.append(["--json"] if flag == "json" else _flag(
            draw, flag, draw(values if flag == "config" else ints)))
    command = draw(st.sampled_from(COMMANDS))
    positionals = {"mul": 2, "star": 2}.get(command, 0)
    tail = [[draw(values)] for _ in range(positionals)]
    if command == "cohomology":
        tail = [[draw(st.sampled_from(OPERATIONS))], [draw(values)]]
        for _ in range(draw(st.integers(0, 2))):
            module = draw(st.sampled_from(["plain", "nu"]))
            tail.insert(draw(st.integers(0, len(tail))),
                        _flag(draw, "module", module))
    return head, command, tail


def _argv(head, command, tail):
    return [t for group in head for t in group] + (
        [command] if command else []) + [t for group in tail for t in group]


MALFORMED = ["unknown flag", "unknown command", "missing positional",
             "extra positional", "bad choice", "non-int value",
             "global flag after the command", "value starting with -"]


@st.composite
def malformed(draw):
    head, command, tail = draw(requests())
    kind = draw(st.sampled_from(MALFORMED))
    positionals = [g for g in tail if not g[0].startswith("--module")]
    if kind == "unknown flag":
        bad = [draw(st.sampled_from(["--verbose", "--bogus", "-q", "--seeds",
                                     "--modules", "-config"]))]
        groups = draw(st.sampled_from([head, tail]))
        groups.insert(draw(st.integers(0, len(groups))), bad)
    elif kind == "unknown command":
        command = draw(st.sampled_from(["frobnicate", "Mul", "help", "h1"]))
    elif kind == "missing positional" and positionals:
        tail.remove(positionals[-1])
    elif kind == "missing positional":
        command = None
    elif kind == "extra positional":
        tail.append([draw(st.sampled_from(["extra", "-3", "h0"]))])
    elif kind == "bad choice" and command == "cohomology" and draw(
            st.booleans()):
        tail.append(_flag(draw, "module", draw(st.sampled_from(
            ["both", "Nu", ""]))))
    elif kind == "bad choice":
        command, tail = "cohomology", [["q"], ["{}"]]
    elif kind == "non-int value":
        head.insert(draw(st.integers(0, len(head))), _flag(
            draw, draw(st.sampled_from(["seed", "window", "order"])),
            draw(st.sampled_from(["x", "1.5", "", "0x10", "1e3"]))))
    elif kind == "global flag after the command":
        tail.insert(draw(st.integers(0, len(tail))), draw(st.sampled_from(
            [["--json"], ["--seed", "3"], ["--config=a.json"]])))
    elif draw(st.booleans()):  # a flag value starting with '-'
        flag = draw(st.sampled_from(["--config", "--seed", "--order"]))
        head.append([flag, draw(st.sampled_from(
            ["-x", "--json"] + (["-1.5"] if flag != "--config" else [])))])
    else:  # a positional starting with '-'
        tail.insert(0, ["-x"])
    return _argv(head, command, tail)


def _reference(argv):
    """The reference parse with its defaults, or None where it exits 2."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            parsed = vars(REFERENCE.parse_args(argv))
    except SystemExit as exc:
        assert exc.code == 2
        return None
    defaults = {"json": False, "seed": 0, "order": 4}
    return {k: defaults.get(k) if v is None else v for k, v in parsed.items()}


@given(requests())
@example(([["--seed", "-5"], ["--json"], ["--json"], ["--order=-1"]],
          "mul", [["-7"], ["[]"]]))
@example(([["--config="], ["--config", "a=b"]], "cohomology",
          [["--module", "nu"], ["diff"], ["--module=plain"], ["{}"]]))
def test_parser_matches_argparse_on_well_formed_argv(request_):
    argv = _argv(*request_)
    want = _reference(argv)
    assert want is not None, argv
    assert vars(gwadeform.cli._parse(argv, {})) == want


@given(malformed())
@example(["--conf", "a.json", "h0"])
@example(["--config", "a.json", "cohomology", "f", "[]", "--mod", "nu"])
@example(["--json=1", "h0"])
@example([])
def test_parser_refuses_what_argparse_refuses(argv):
    # abbreviations (the examples) are the one deliberate difference
    if "--conf" not in argv and "--mod" not in argv:
        assert _reference(argv) is None, argv
    with pytest.raises(ValueError):
        gwadeform.cli._parse(argv, {})
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(
            io.StringIO()) as out:
        assert run(argv) == 2, argv
    assert err.getvalue().startswith("error: ") and out.getvalue() == ""


@pytest.mark.parametrize("argv", [["--help"], ["-h"],
                                  ["--config", "a.json", "mul", "-h"]])
def test_help_names_every_command_and_flag(capsys, argv):
    assert run(argv) == 0
    out = capsys.readouterr().out
    for word in [*COMMANDS, *OPERATIONS, "--config", "--json", "--seed",
                 "--window", "--order", "--module", "GWADEFORM_"]:
        assert word in out, word


def test_equals_form_gives_the_same_report(tmp_path, capsys):
    cfg = write_config(tmp_path, "2", "0", ["0", "1"])
    reports = []
    for argv in (["--config", cfg, "--json", "--window", "6", "h0"],
                 [f"--config={cfg}", "--json", "--window=6", "h0"],
                 ["--window", "9", "--config", "x", "--json", "--config",
                  cfg, "--window=6", "h0"]):
        code, report = run_json(capsys, argv)
        assert code == 0
        report.pop("timing_ms")
        reports.append(report)
    assert reports[0] == reports[1] == reports[2]


def test_nu_cochain_request_builds_one_nu(tmp_path, capsys, monkeypatch):
    # parse_cochain builds A^nu (the identity and nu); to_json names the
    # module from nu itself, without building and checking a second nu
    cfg = write_config(tmp_path, "2", "0", ["0", "1"])
    real, built = gwadeform.core.Automorphism.__init__, []

    def counted(self, params, *images):
        built.append(images[0])
        real(self, params, *images)

    monkeypatch.setattr(gwadeform.core.Automorphism, "__init__", counted)
    payload = json.dumps({**BARE_COCHAIN, "module": "nu"})
    code, report = run_json(capsys, ["--config", cfg, "--json", "cohomology",
                                     "diff", payload])
    assert code == 0
    assert report["results"][0]["cochain"]["module"]["right"] == "nu"
    assert built == [1, 2]


@pytest.mark.parametrize("command", ["mul", "star", "cohomology", "h0"])
def test_seed_builds_no_generator_where_nothing_draws(tmp_path, capsys,
                                                      monkeypatch, command):
    # only check-algebra and deform-verify draw random triples
    cfg = write_config(tmp_path, "2", "0", ["0", "1"])
    built = []
    monkeypatch.setattr(gwadeform.cli.random, "Random",
                        lambda seed: built.append(seed))
    tail = {"mul": ["mul", "[]", "[]"], "star": ["star", "[]", "[]"],
            "cohomology": ["cohomology", "f", "[]"], "h0": ["h0"]}[command]
    code, report = run_json(capsys, ["--config", cfg, "--json", "--seed", "5",
                                     *tail])
    assert code == 0 and report["seed"] == 5 and built == []


@pytest.mark.parametrize("command", ["check-algebra", "deform-verify"])
def test_random_draws_share_one_pool(tmp_path, capsys, monkeypatch, command):
    # the random elements of a sweep are drawn from one basis window, built
    # once per command, not once per draw
    cfg = write_config(tmp_path, "2", "0", ["0", "1"])
    real, windows = gwadeform.cli.basis_window, []

    def counted(params, n):
        windows.append(n)
        return real(params, n)

    monkeypatch.setattr(gwadeform.cli, "basis_window", counted)
    code, report = run_json(capsys, ["--config", cfg, "--json", "--order", "2",
                                     command])
    assert code == 0 and report["pass"] and windows == [6]
