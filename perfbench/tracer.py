"""Per-layer tracing of gwadeform, installed from outside the package.

``Tracer.install()`` replaces selected public functions and methods with
wrappers and ``uninstall()`` puts the originals back; nothing under
``src/`` is edited.  A module-level function is replaced in every
gwadeform namespace that bound it (``from .core import multiply`` gives
``complexes.multiply`` its own binding); a method is replaced on its class.

Each wrapped call is one span (name, start, end, parent, job id), kept in
typed arrays and written out by ``write()``.  A span's self time is its
duration minus the part of it that its child spans cover.  Cache sizes
are read from ``GwaParams._mono_cache`` and ``Cochain2._memo`` after each
job, never by calling private code.
"""
from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter

# span name -> (module, attribute path); methods are "Class.method".
SPANS = {
    "cli.run": ("cli", "run"),
    "core.multiply": ("core", "multiply"),
    "core.bimodule_act": ("core", "bimodule_act"),
    "core.apply_automorphism": ("core", "apply_automorphism"),
    "core.twisted_delta": ("core", "twisted_delta"),
    "core.tensor_act": ("core", "tensor_act"),
    "scalars.poly_mul": ("scalars", "Poly.__mul__"),
    "scalars.compose": ("scalars", "Poly.compose"),
    "scalars.pow": ("scalars", "Poly.__pow__"),
    "scalars.bezout": ("scalars", "bezout_for_phi"),
    "linalg.solve": ("linalg", "solve_many"),
    "linalg.echelon.add": ("linalg", "Echelon.add"),
    "linalg.echelon.contains": ("linalg", "Echelon.contains"),
    "homology.compare_h0": ("homology", "compare_h0"),
    "homology.commutator_span": ("homology", "commutator_span"),
    "homology.copy": ("homology", "TruncatedSubspace.copy"),
    "homology.span_add": ("homology", "TruncatedSubspace.add"),
    "hochschild.evaluate": ("hochschild", "Cochain2.evaluate"),
    "hochschild.eval_basis": ("hochschild", "Cochain2.eval_basis"),
    "hochschild.determine_F": ("hochschild", "determine_F"),
    "percomplex.per_diff": ("percomplex", "per_diff"),
    "percomplex.per_solve_preimage": ("percomplex", "per_solve_preimage"),
    "percomplex.f_map": ("percomplex", "f_map"),
    "percomplex.g_map": ("percomplex", "g_map"),
    "percomplex.contract3": ("percomplex", "contract3"),
    "percomplex.split2": ("percomplex", "split2"),
    "complexes.verify_hdc": ("complexes", "verify_hdc"),
    "complexes.c_diff": ("complexes", "c_diff"),
    "deform.build_star": ("deform", "build_star"),
    "deform.star": ("deform", "star"),
    "deform.star_mul": ("deform", "star_mul"),
    "deform.check_assoc": ("deform", "check_assoc"),
    "deform.check_relations": ("deform", "check_relations"),
    "deform.check_obstruction": ("deform", "check_obstruction"),
    "deform.check_local_finiteness": ("deform", "check_local_finiteness"),
    "deform.f1_noncoboundary_evidence": ("deform", "f1_noncoboundary_evidence"),
}
LAYERS = ("cli", "core", "scalars", "linalg", "homology", "hochschild",
          "percomplex", "complexes", "deform")


def _resolve(module, path):
    obj = module
    for part in path.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, obj


class Tracer:
    def __init__(self):
        self.names = list(SPANS)
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.counts = Counter()
        self.job = -1
        self._stack = []
        self._params = []
        self._cochains = []
        self._restore = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        nid = self.names.index(name)
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, jobs, stack = self.span_parent, self.span_job, self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                starts[idx] = t0
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _on_init(self, cls, hook):
        init = cls.__init__

        def wrapper(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            hook(obj)

        self._patch(cls, "__init__", wrapper)

    def _hooks(self):
        c = self.counts

        def pairs(args):
            c["core.multiply.term_pairs"] += len(args[0].terms) * len(args[1].terms)

        def identity(args):
            rho = args[0]
            if (rho.x_scale == 1 and rho.y_scale == 1
                    and rho.z_image.coeffs == (0, 1)):
                c["core.apply_automorphism.identity"] += 1

        def shape(args):
            matrix = args[0]
            c["linalg.solve.cells"] += len(matrix) * (len(matrix[0]) if matrix else 0)
            c["linalg.solve.nnz"] += sum(1 for row in matrix for v in row if v != 0)

        def grew(key):
            def after(args, result):
                if result:
                    c[key] += 1
            return after

        def window(args):
            c["homology.span_windows"] += args[2]

        def triples(args, result):
            c["deform.check_obstruction.triples"] += result["triples"]

        return {
            "core.multiply": (pairs, None),
            "core.apply_automorphism": (identity, None),
            "linalg.solve": (shape, None),
            "linalg.echelon.add": (None, grew("linalg.echelon.add.grew")),
            "homology.span_add": (None, grew("homology.span_add.grew")),
            "homology.commutator_span": (window, None),
            "deform.check_obstruction": (None, triples),
        }

    def install(self):
        modules = {name: sys.modules["gwadeform." + name] for name in LAYERS}
        package = [m for n, m in sys.modules.items()
                   if n.startswith("gwadeform.")]
        hooks = self._hooks()
        for name, (mod, path) in SPANS.items():
            owner, orig = _resolve(modules[mod], path)
            wrapper = self._span(name, orig, *hooks.get(name, (None, None)))
            if "." in path:
                self._patch(owner, path.rsplit(".", 1)[1], wrapper)
                continue
            for m in package:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, attr, wrapper)
        counts = self.counts

        def built(_):
            counts["core.elements_built"] += 1

        self._on_init(modules["core"].GwaElement, built)
        self._on_init(modules["core"].GwaParams, self._params.append)
        self._on_init(modules["hochschild"].Cochain2, self._cochains.append)

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- jobs --------------------------------------------------------------

    def begin_job(self, job: int):
        self.job = job

    def end_job(self):
        """Read cache sizes left by the finished job, then drop the objects."""
        self.counts["core.mono_cache.misses"] += sum(
            len(p._mono_cache) for p in self._params)
        self.counts["hochschild.memo_entries"] += sum(
            len(c._memo) for c in self._cochains)
        self._params.clear()
        self._cochains.clear()
        self.job = -1

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Per span name: (calls, total self seconds)."""
        start, end, parent = self.span_start, self.span_end, self.span_parent
        covered = [0.0] * len(start)
        for idx, p in enumerate(parent):
            if p >= 0:
                covered[p] += end[idx] - start[idx]
        calls = Counter()
        selfs = Counter()
        for idx, nid in enumerate(self.span_name):
            name = self.names[nid]
            calls[name] += 1
            selfs[name] += end[idx] - start[idx] - covered[idx]
        return calls, selfs

    def write(self, path):
        """Spans as a JSON header line followed by the raw typed arrays."""
        header = {"names": self.names, "count": len(self.span_name),
                  "fields": ["name:H", "start:d", "end:d", "parent:i", "job:i"]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_start, self.span_end,
                        self.span_parent, self.span_job):
                arr.tofile(fh)
