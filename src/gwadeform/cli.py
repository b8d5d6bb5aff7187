"""Command-line interface: every check and computation as a scriptable command.

Reports are dictionaries of JSON values, exact rational strings among
them, and of the computed objects themselves: a product or star series
holds its ``GwaElement``s and a cohomology result its ``PerCochain``s.
The process exits 0 exactly when every check in the invoked suite passed.
Random sweeps are driven by a seeded generator and the seed is echoed in
the report.  ``--json`` prints exactly the bytes of
``json.dumps(report, indent=2)`` for the report with every element and
cochain replaced by its ``to_json()``, through one writer, ``json_text``,
which writes an element's term list straight from its term dict; a
report never holds a float, and the writer raises TypeError on one.
"""
from __future__ import annotations

import json
import os
import random
import sys
import time
from functools import partial
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from types import SimpleNamespace

from . import __version__
from .complexes import c_diff, verify_hdc
from .core import (
    GwaElement,
    GwaParams,
    _BY_COLUMN,
    _field,
    _multiply_into,
    basis_triples,
    basis_window,
    module_nu,
    module_plain,
)
from .deform import (
    _deformed_mul,
    _require_deformable,
    build_star,
    check_assoc,
    check_local_finiteness,
    check_obstruction,
    check_relations,
    f1_noncoboundary_evidence,
)
from .errors import GwadeformError, MultipleRootError
from .homology import compare_h0
from .percomplex import (
    PerCochain,
    contract3,
    f_map,
    g_map,
    is_cocycle,
    per_diff,
    split2,
)
from .scalars import Q, bezout_for_phi, rat_str

def load_config(path: str) -> tuple[GwaParams, str]:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"config must be a JSON object, got {data!r}")
    label = data.get("label", "")
    if not isinstance(label, str):
        raise ValueError(f"config label must be a string, got {label!r}")
    return GwaParams.from_json(data), label


def parse_element(params: GwaParams, text: str) -> GwaElement:
    return GwaElement.from_json(params, json.loads(text))


def _module(params: GwaParams, name: str | None):
    return module_nu(params) if name == "nu" else module_plain(params)


def parse_cochain(params: GwaParams, text: str, flag=None) -> PerCochain:
    """A cochain payload; ``flag`` (--module, or None) names the module of a
    payload without one, and must give the payload's own (nu may be id)."""
    data = json.loads(text)
    if not isinstance(data, dict) or not isinstance(data.get("components"), list):
        raise ValueError("a cochain is an object with a 'components' list")
    mod = data.get("module", flag or "plain")
    if isinstance(mod, dict):
        # the form written by PerCochain.to_json
        if mod.get("left", "id") != "id":
            raise ValueError(f"unsupported left twist {mod['left']!r}")
        right = mod.get("right", "id")
        mod = "plain" if right == "id" else right
    if mod not in ("plain", "nu"):
        raise ValueError(f"unknown module {mod!r}; use 'plain' or 'nu'")
    # a second spec only for a flag naming another module; nu = id at lambda 1
    module = _module(params, mod)
    if flag is not None and flag != mod and _module(params, flag) != module:
        raise ValueError(f"--module {flag} disagrees with the payload's "
                         f"module {mod}")
    degree = _field(data, "degree", "a cochain")
    if type(degree) is not int:
        raise ValueError(f"cochain degree must be an int, got {degree!r}")
    comps = tuple(GwaElement.from_json(params, c) for c in data["components"])
    return PerCochain(params, module, degree, comps)


def _random_element(rng, params, pool, nterms=3):
    terms = {}
    for _ in range(nterms):
        pq = rng.choice(pool)
        terms[pq] = terms.get(pq, 0) + rng.randint(-4, 4)
    return GwaElement._of(params, {pq: c for pq, c in terms.items() if c})


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_check_algebra(params, args):
    results, rng = [], random.Random(args.seed)
    x, y, z = params.x(), params.y(), params.z()
    sz = params.from_poly(params.sigma_z(1))
    siz = params.from_poly(params.sigma_z(-1))
    relations = {
        "x.z = sigma(z).x": x * z - sz * x,
        "y.z = sigma_inv(z).y": y * z - siz * y,
        "y.x = phi": y * x - params.from_poly(params.phi),
        "x.y = phi_bar": x * y - params.from_poly(params.phi_bar),
    }
    for name, residual in relations.items():
        results.append({"check": name, "pass": residual.is_zero()})
    window = 2 * params.l + 4
    mul = partial(_multiply_into, params)
    basis = ([{t: 1} for t in triple]
             for triple in basis_triples(params, window))
    pool = basis_window(params, window)
    drawn = ([_random_element(rng, params, pool).terms for _ in range(3)]
             for _ in range(200))
    differ = [mul({}, mul({}, u, v), w) != mul({}, u, mul({}, v, w))
              for u, v, w in chain(basis, drawn)]
    results.append({"check": "associativity", "triples": len(differ),
                    "pass": not any(differ)})
    hdc = verify_hdc(params, 6)
    results.append({"check": "homotopy-double-complex", "identities": len(hdc),
                    "pass": all(r["pass"] for r in hdc)})
    ok = True
    for i in range(1, 7):
        for s in range(2):
            g = [{((0, 0), (0, 0)): 1} if t == s else {} for t in range(2)]
            if any(c_diff(params, i, c_diff(params, i + 1, g))):
                ok = False
    results.append({"check": "c_diff.c_diff = 0", "pass": ok})
    return results


def cmd_mul(params, args):
    u = parse_element(params, args.left)
    v = parse_element(params, args.right)
    return [{"check": "mul", "product": u * v, "pass": True}]


def cmd_star(params, args):
    """u * v as the product of A_tau, equal to ``deform.star`` on
    ``build_star(params, order)`` and built without the cochains."""
    _require_deformable(params, args.order)
    u = parse_element(params, args.left)
    v = parse_element(params, args.right)
    series = _deformed_mul(params, args.order, u.terms, v.terms)
    return [{"check": "star", "order": args.order,
             "series": [GwaElement._of(params, t) for t in series],
             "pass": True}]


def cmd_cohomology(params, args):
    sub = args.operation
    if sub == "f":
        m = parse_element(params, args.payload)
        out = f_map(m, params, _module(params, args.module))
        ok = is_cocycle(out)
        return [{"check": "f", "cochain": out,
                 "is_cocycle": ok, "pass": ok}]
    if sub == "diff":
        c = parse_cochain(params, args.payload, args.module)
        return [{"check": "diff", "cochain": per_diff(c),
                 "pass": True}]
    try:
        bez = bezout_for_phi(params.phi)
    except MultipleRootError as exc:
        raise MultipleRootError(
            f"{exc}; this operation needs phi(z) with no multiple roots") \
            from exc
    c = parse_cochain(params, args.payload, args.module)
    if sub == "g":
        out = g_map(c, bez)
        return [{"check": "g", "value": out, "pass": True}]
    if sub == "contract3":
        out = contract3(c, bez)
        ok = per_diff(out) == c
        return [{"check": "contract3", "preimage": out,
                 "roundtrip": ok, "pass": ok}]
    out, n2 = split2(c, bez)
    module = c.module
    ok = (per_diff(out) + f_map(n2, params, module)) == c
    return [{"check": "split2", "coboundary_part": out, "f_part": n2,
             "roundtrip": ok, "pass": ok}]


def cmd_h0(params, args):
    rep = compare_h0(params, args.window)
    return [{"check": "h0", **rep}]


def cmd_deform_verify(params, args):
    results, rng = [], random.Random(args.seed)
    sp = build_star(params, args.order)
    rel = check_relations(sp)
    for name, residual in rel.items():
        results.append({"check": f"relation {name}", "pass": residual.is_zero()})
    window = args.window if args.window is not None else 3 * params.l + 6
    for n in range(2, sp.order + 1):
        rep = check_obstruction(sp, n, window)
        results.append({"check": f"obstruction n={n}", **rep})
    ok, pool = True, basis_window(params, 2 * params.l + 4)
    for _ in range(100):
        u, v, w = (_random_element(rng, params, pool, nterms=2)
                   for _ in range(3))
        if not check_assoc(sp, u, v, w).is_zero():
            ok = False
    results.append({"check": "associativity", "triples": 100, "pass": ok})
    results.append({"check": "local-finiteness",
                    **check_local_finiteness(sp, window)})
    squarefree = True
    try:
        bezout_for_phi(params.phi)
    except GwadeformError:
        squarefree = False
    if params.is_classical and params.l < 2:
        results.append({"check": "first-order nontriviality",
                        "note": "trivial-equivalence case: the degree-2 "
                        "cohomology vanishes, every formal deformation is "
                        "equivalent to the trivial one",
                        "applicable": False, "pass": True})
    else:
        ev = f1_noncoboundary_evidence(params)
        entry = {"check": "first-order nontriviality", **ev,
                 "applicable": squarefree}
        if not squarefree:
            entry["note"] = ("phi has a multiple root; the duality argument "
                            "behind this evidence does not apply")
            entry["pass"] = True
        results.append(entry)
    return results


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def _terms_text(terms: dict, indent: str) -> str:
    """The text of ``GwaElement.to_json()`` at ``indent``, one f-string per
    term of the dict; a scalar other than an int or a Q raises TypeError."""
    if not terms:
        return "[]"
    inner = indent + "  "
    deep, out = inner + "  ", []
    for p, q in sorted(terms, key=_BY_COLUMN):
        c = terms[p, q]
        if type(c) is not int and type(c) is not Q:
            raise TypeError(f"Object of type {type(c).__name__} "
                            "is not a rational scalar")
        out.append(f'{{{deep}"p": {p},{deep}"q": {q},{deep}"c": "{c!s}"'
                   f'{inner}}}')
    return "[" + inner + ("," + inner).join(out) + indent + "]"


def json_text(obj, indent: str = "\n") -> str:
    """The bytes of ``json.dumps(obj, indent=2)``, for report values only,
    with every ``GwaElement`` and ``PerCochain`` read as its ``to_json()``.

    Reports hold dicts with str keys, lists, tuples, str, int, bool, None,
    elements and cochains; anything else (a float, a Fraction, a set, a
    non-str key) raises TypeError.  ``indent`` is the newline and
    indentation of the current level.  The stdlib encoder has no C path
    for ``indent`` and falls back to a pure-Python generator chain; this
    one recursion writes the same text with the same C string quoting, in
    well under half the time.  An element's term list is written from its
    term dict by ``_terms_text``, with no record dict per term, and a
    cochain's components likewise.  Elements, dicts and lists are tested
    first, and the str and int members of a dict or list are written
    inline.
    """
    if type(obj) is GwaElement:
        return _terms_text(obj.terms, indent)
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k, v in obj.items():
            if not isinstance(k, str):
                raise TypeError(f"report keys must be str, not "
                                f"{type(k).__name__}")
            items.append(_quote(k) + ": " + (
                _quote(v) if type(v) is str else int.__repr__(v)
                if type(v) is int else json_text(v, inner)))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_quote(v) if type(v) is str else int.__repr__(v)
                 if type(v) is int else json_text(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(obj, str):
        return _quote(obj)
    if type(obj) is PerCochain:
        return json_text(obj.to_json(elements=True), indent)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} "
                    "is not JSON serializable")


# flag -> (converter, default, accepted values, help).  Flags go before the
# command; each one left out is read from GWADEFORM_<FLAG> on every run (an
# empty variable is unset), else it takes its default.  --json is a switch.
_SWITCH = {"0": False, "1": True}.__getitem__
_FLAGS = {
    "config": (str, None, "a path", "path to an algebra config JSON file"),
    "json": (_SWITCH, False, "0 or 1", "emit the full report as JSON"),
    "seed": (int, 0, "an integer", "seed for randomized sweeps (default 0)"),
    "window": (int, None, "an integer", "window for windowed checks"),
    "order": (int, 4, "an integer", "star product order (default 4)"),
}
# command -> (function, positional -> its choices or None, flags after it)
_COMMANDS = {
    "check-algebra": (cmd_check_algebra, {}, {}),
    "mul": (cmd_mul, {"left": None, "right": None}, {}),
    "star": (cmd_star, {"left": None, "right": None}, {}),
    "cohomology": (cmd_cohomology, {
        "operation": ("f", "g", "contract3", "split2", "diff"),
        "payload": None,
    }, {"module": ({"plain": "plain", "nu": "nu"}.__getitem__, None,
                   "plain or nu", "module of a payload naming none")}),
    "h0": (cmd_h0, {}, {}),
    "deform-verify": (cmd_deform_verify, {}, {}),
}


def _convert(name: str, spec: tuple, raw: str):
    try:
        return spec[0](raw)
    except (KeyError, ValueError):
        raise ValueError(f"{name} must be {spec[2]}, got {raw!r}") from None


def _parse(argv, env) -> SimpleNamespace | None:
    """The request argv names, read in one pass, or None for --help; each
    flag left out is then read from ``env``.  A flag takes the next token or
    the text after '=', and a token starting with '-' is a flag unless it is
    a negative int."""
    args, flags, slots = {}, _FLAGS, iter([("command", _COMMANDS)])
    tokens = iter(argv)
    for token in tokens:
        if token[:1] != "-" or token[1:].isdecimal():
            name, choices = next(slots, ("argument", ()))
            if choices is not None and token not in choices:
                raise ValueError(f"unexpected {name} {token!r}" + (
                    "; use one of " + ", ".join(choices) if choices else ""))
            args[name] = token
            if name == "command":
                _, positionals, flags = _COMMANDS[token]
                slots = iter(positionals.items())
                args.update((flag, spec[1]) for flag, spec in flags.items())
        elif token in ("-h", "--help"):
            return None
        else:
            key, eq, raw = token.partition("=")
            spec = flags.get(key[2:]) if key[:2] == "--" else None
            if spec is None or eq and spec[0] is _SWITCH:
                raise ValueError(f"no flag {token!r} here (see --help)")
            if spec[0] is _SWITCH:
                raw = "1"
            elif not eq:
                raw = next(tokens, None)
                if raw is None or raw[:1] == "-" and not raw[1:].isdecimal():
                    raise ValueError(f"{key} needs a value ({spec[2]})")
            args[key[2:]] = _convert(key, spec, raw)
    missing = next(slots, None)
    if missing:
        raise ValueError(f"{args.get('command', 'gwadeform')}: missing "
                         + missing[0])
    for flag, spec in _FLAGS.items():
        if flag not in args:
            raw = env.get(name := "GWADEFORM_" + flag.upper())
            args[flag] = _convert(name, spec, raw) if raw else spec[1]
    return SimpleNamespace(**args)


def _help() -> str:
    """The usage text, built from the flag and command tables."""
    lines = ["usage: gwadeform [--FLAG VALUE ...] COMMAND [ARGUMENT ...]",
             "flags, before the command (or GWADEFORM_<FLAG>):"]
    lines += [f"  --{flag:<7} {spec[3]}" for flag, spec in _FLAGS.items()]
    lines.append("commands:")
    for command, (_, positionals, flags) in _COMMANDS.items():
        lines.append(" ".join(["  " + command, *(
            "{" + ",".join(c) + "}" if c else p.upper()
            for p, c in positionals.items()), *(
            f"[--{f} {s[2]}]: {s[3]}" for f, s in flags.items())]))
    return "\n".join(lines)


def run(argv=None) -> int:
    started = time.monotonic()
    try:
        args = _parse(sys.argv[1:] if argv is None else argv, os.environ)
        if args is None:
            print(_help())
            return 0
        if args.window is not None and args.window < 0:
            raise ValueError("the window (--window or GWADEFORM_WINDOW) must "
                             f"be >= 0, got {args.window}")
        if not args.config:
            raise ValueError("--config is required (or set GWADEFORM_CONFIG)")
        params, label = load_config(args.config)
        results = _COMMANDS[args.command][0](params, args)
        ok = all(r.get("pass", True) for r in results)
        report = {
            "command": args.command,
            "algebra": {"label": label, **params.to_json()},
            "seed": args.seed,
            "version": __version__,
            "results": results,
            "pass": ok,
            "timing_ms": int((time.monotonic() - started) * 1000),
        }
        # written here, so that a cochain whose module has no JSON name
        # (PerCochain.to_json) is an error like any other
        text = json_text(report) if args.json else "\n".join([
            f"gwadeform {args.command} "
            f"[{label or 'lambda=' + rat_str(params.lam)}]",
            *(f"  {'PASS' if r.get('pass', True) else 'FAIL'}  "
              f"{r.get('check', '?')}" for r in results),
            "overall: " + ("PASS" if ok else "FAIL")])
    except (GwadeformError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    return 0 if ok else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
