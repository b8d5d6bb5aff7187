"""The names that perfbench/tracer.py wraps from outside the package.

The tracer resolves its span table and cache attributes by name at run
time, so a rename in the package would only show when a traced benchmark
runs.  These tests read the tracer's tables (without importing or
editing it) and check that every name still resolves.
"""
import ast
import importlib
import inspect
from fractions import Fraction
from pathlib import Path

from gwadeform.core import GwaElement, GwaParams, identity_auto
from gwadeform.deform import build_star, check_obstruction
from gwadeform.hochschild import Cochain2
from gwadeform.homology import commutator_span
from gwadeform.linalg import Echelon, solve_many
from gwadeform.scalars import Poly

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_constant(name):
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not defined in {TRACER}")


def test_tracer_spans_resolve():
    spans = tracer_constant("SPANS")
    assert spans
    for name, (module, path) in spans.items():
        obj = importlib.import_module("gwadeform." + module)
        for part in path.split("."):
            assert hasattr(obj, part), f"{name}: gwadeform.{module}.{path}"
            obj = getattr(obj, part)
        assert callable(obj), name
    for layer in tracer_constant("LAYERS"):
        importlib.import_module("gwadeform." + layer)


def test_tracer_cache_and_hook_attributes():
    params = GwaParams(2, 0, Poly.z())
    assert isinstance(params._mono_cache, dict)
    assert isinstance(Cochain2(params, lambda q, i, j: params.zero())._memo, dict)
    # hooks read the operands of multiply and apply_automorphism
    assert isinstance(params.x().terms, dict)
    assert isinstance(GwaElement(params, {}).terms, dict)
    rho = identity_auto(params)
    assert (rho.x_scale, rho.y_scale, rho.z_image.coeffs) == (1, 1, (0, 1))


def test_commutator_span_window_is_third_positional():
    # the tracer's homology.span_windows counter reads args[2]
    params = list(inspect.signature(commutator_span).parameters.values())
    assert params[2].name == "window"
    assert params[2].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD


def test_linalg_entry_points_the_tracer_reads():
    # linalg.solve.cells/nnz read args[0] of solve_many: a list of sparse
    # images, one per unknown, so cells is unknowns x len(first image) and
    # nnz counts the keys of all images (the package's keys are tuples,
    # never 0); linalg.echelon.add.grew counts truthy results of Echelon.add
    one, two = Fraction(1), Fraction(2)
    columns = [{(0,): one}, {(1,): two}]
    assert solve_many(columns, [{(0,): one, (1,): two}, {(0,): two}]) == [
        [one, one], [two, 0]]
    assert len(columns) * len(columns[0]) == 2
    assert sum(1 for row in columns for v in row if v != 0) == 2
    ech = Echelon()
    assert ech.add({0: one, 1: two}) is True
    assert ech.add({0: two, 1: 2 * two}) is False
    copy = ech.copy()
    assert isinstance(copy, Echelon) and copy.rank == 1


def test_check_obstruction_reports_int_triples():
    # deform.check_obstruction.triples adds up result["triples"]
    params = GwaParams(2, 0, Poly.z())
    result = check_obstruction(build_star(params, 2), 2, 3)
    assert isinstance(result, dict)
    assert type(result["triples"]) is int and result["triples"] > 0


def test_evaluate_into_goes_through_eval_basis(monkeypatch):
    # hochschild.eval_basis.calls counts the wrapped Cochain2.eval_basis, so
    # evaluate_into must reach every basis value through that attribute
    params = GwaParams(2, 0, Poly.z())
    F = Cochain2(params, lambda q, i, j: params.monomial(i, q + j))
    seen = []
    inner = Cochain2.eval_basis

    def counted(self, q, i, j):
        seen.append((q, i, j))
        return inner(self, q, i, j)

    monkeypatch.setattr(Cochain2, "eval_basis", counted)
    u = {(1, 1): 1, (0, -1): 2, (3, 0): 5}
    v = {(1, 1): 1, (2, -1): 3}
    out = F.evaluate_into({}, u, v)
    # z^3 (q = 0) is skipped by unit normalization; the other four pairs are read
    want = [(-1, 1, 1), (-1, 2, -1), (1, 1, 1), (1, 2, -1)]
    assert sorted(seen) == want and out
    # memo hits are read through eval_basis too
    assert F.evaluate_into({}, u, v) == out
    assert sorted(seen) == sorted(want * 2)
