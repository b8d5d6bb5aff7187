"""``src/`` holds only code that the program runs.

Every name defined at module level in ``src/gwadeform`` must be read
somewhere in ``src/`` (as a name or an attribute), and every name defined
at class level must be read there as an attribute (``.name``), so that a
local variable of the same name does not count.  The only exception is a
span that ``perfbench/tracer.py`` wraps; there is no allowlist.  Oracles
and fixtures that only tests use live in ``tests/``.  The scan is by name,
so a name read anywhere in ``src/`` counts as reached wherever it is
defined.
"""
import ast
from pathlib import Path

from test_bench_contract import tracer_constant

SRC = Path(__file__).resolve().parent.parent / "src" / "gwadeform"


def _defined_names(tree):
    """(name, at class level) for each name a module defines."""
    def targets(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return [node.name]
        if isinstance(node, ast.Assign):
            return [t.id for t in node.targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            return [node.target.id]
        return []

    for node in tree.body:
        yield from ((n, False) for n in targets(node))
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                yield from ((n, True) for n in targets(sub))


def unreached_names():
    """Names defined in src/ and not read there as the docstring asks."""
    defined, names, attrs = set(), set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined.update(d for d in _defined_names(tree)
                       if not (d[0].startswith("__") and d[0].endswith("__")))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
    return {n for n, in_class in defined
            if n not in attrs and (in_class or n not in names)}


def test_src_defines_only_reached_names():
    spans = {path.split(".")[-1] for _, path in tracer_constant("SPANS").values()}
    unreached = unreached_names()
    assert unreached - spans == set()
