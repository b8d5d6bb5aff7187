"""gwadeform benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 25 --trace 0

A job is one in-process ``gwadeform.cli.run(argv)`` call on a config loaded
afresh, so every job starts with cold caches, as a new CLI process does.
One client runs the jobs back to back (closed loop, one thread).  The job
list of a workload is one pass; passes repeat while another fits in
``--seconds``.  Times are scaled to a reference machine speed (see
``speed.py``).  ``--trace 1`` runs one untraced and one traced pass and
reports per-layer metrics instead.  The last stdout line is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; ``--workload
all`` runs every workload and exits nonzero if any job failed.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs
from speed import SpeedProbe
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 15


def measure_setup(configs, probe) -> float:
    """Median time of a fresh interpreter importing the CLI and loading configs.

    Each start-up is scaled to the reference speed by slices run just
    before and after it, on the same CPU: the process is pinned to one
    CPU meanwhile, and the child inherits the pinning.
    """
    samples = []
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        for _ in range(SETUP_SAMPLES):
            probe.sample()
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "probe.py"), *configs], cwd=ROOT,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                timeout=120)
            t1 = time.perf_counter()
            probe.sample()
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
            samples.append(probe.at_reference_speed(t0, t1, t1 - t0))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.median(samples)


def run_pass(cli, job_list, probe, tracer=None):
    """Run every job once; return (per-job seconds at reference speed, outputs).

    Untraced, the probe samples on its timer and the slices are taken out
    of the job times.  Traced, it samples only between jobs, so that no
    slice lands inside a span.
    """
    spans, outputs = [], []
    perf = time.perf_counter
    gc.collect()
    if tracer is None:
        probe.start()
    else:
        probe.sample()
    try:
        for k, job in enumerate(job_list):
            out, err = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.begin_job(k)
            t0 = perf()
            spent = probe.spent
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = cli.run(job.argv)
            except Exception as exc:  # a crashing job is a failed job
                code = f"{type(exc).__name__}: {exc}"
            t1 = perf()
            spans.append((t0, t1, t1 - t0 - (probe.spent - spent)))
            if tracer is not None:
                tracer.end_job()
                probe.sample()
            outputs.append((code, out.getvalue()))
    finally:
        if tracer is None:
            probe.stop()
    return [probe.at_reference_speed(*span) for span in spans], outputs


class Checker:
    """Checks every job's report; the same job must give the same digest."""

    def __init__(self, job_list, expected: dict):
        self.job_list = job_list
        self.expected = expected
        self.digests = [None] * len(job_list)
        self.attempted = 0
        self.errors = []
        self.escalations = 0

    def check(self, outputs):
        for k, (job, (code, out)) in enumerate(zip(self.job_list, outputs)):
            self.attempted += 1
            got, error = jobs.check_report(job, code, out)
            if error is None and self.digests[k] is None:
                self.digests[k] = got
                if job.argv[-1] == "h0":
                    self.escalations += _escalations(json.loads(out))
            if error is None and got != self.digests[k]:
                error = "report differs from an earlier run of the same job"
            if error is None and got != self.expected.get(job.key, got):
                error = "report digest differs from the recorded one"
            if error is not None:
                self.errors.append(f"{job.label}: {error}")

    @property
    def failed(self):
        return len(self.errors)


def _escalations(report) -> int:
    """Non-predicted monomials certified above the base window."""
    h0 = report["results"][0]
    return sum(1 for n in h0["non_predicted"]
               if n["window"] is not None and n["window"] > h0["window"])


def percentile(values, pct):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(cli, job_list, checker, seconds, probe):
    walls, times = [], []
    began = time.perf_counter()
    while True:
        lap = time.perf_counter()
        job_times, outputs = run_pass(cli, job_list, probe)
        checker.check(outputs)
        del outputs
        walls.append(sum(job_times))
        times.extend(job_times)
        now = time.perf_counter()
        if now - began + (now - lap) > seconds:
            break
    ms = [t * 1000 for t in times]
    return {
        "wall_s": statistics.median(walls),
        "job_ms_p50": statistics.median(ms),
        "job_ms_p99": percentile(ms, 99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, len(walls), len(times)


def per_layer(cli, job_list, checker, workload, seed, probe):
    plain, outputs = run_pass(cli, job_list, probe)
    checker.check(outputs)
    del outputs
    tracer = Tracer()
    tracer.install()
    try:
        traced, outputs = run_pass(cli, job_list, probe, tracer)
    finally:
        tracer.uninstall()
    checker.check(outputs)
    del outputs
    calls, selfs = tracer.self_times()
    c = tracer.counts
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload}-seed{seed}.bin")

    def ratio(num, den):  # 0 where nothing was attempted
        return num / den if den else 0.0

    layer_self = {layer: sum(v for k, v in selfs.items()
                             if k.split(".")[0] == layer)
                  for layer in ("core", "scalars", "homology", "hochschild",
                                "percomplex", "complexes", "deform")}
    m = {
        "linalg.echelon.add.calls": calls["linalg.echelon.add"],
        "linalg.echelon.add.grew_ratio": ratio(c["linalg.echelon.add.grew"],
                                               calls["linalg.echelon.add"]),
        "linalg.echelon.contains.calls": calls["linalg.echelon.contains"],
        "linalg.echelon.self_s": (selfs["linalg.echelon.add"]
                                  + selfs["linalg.echelon.contains"]),
        "linalg.solve.calls": calls["linalg.solve"],
        "linalg.solve.cells": c["linalg.solve.cells"],
        "linalg.solve.nnz": c["linalg.solve.nnz"],
        "linalg.solve.self_s": selfs["linalg.solve"],
        "homology.commutator_span.calls": calls["homology.commutator_span"],
        "homology.commutator_span.self_s": selfs["homology.commutator_span"],
        "homology.span_windows": c["homology.span_windows"],
        "homology.copy.calls": calls["homology.copy"],
        "homology.span_add.grew_ratio": ratio(c["homology.span_add.grew"],
                                              calls["homology.span_add"]),
        "homology.escalations": checker.escalations,
        "core.bimodule_act.calls": calls["core.bimodule_act"],
        "core.apply_automorphism.calls": calls["core.apply_automorphism"],
        "core.apply_automorphism.identity_ratio": ratio(
            c["core.apply_automorphism.identity"],
            calls["core.apply_automorphism"]),
        "core.multiply.calls": calls["core.multiply"],
        "core.multiply.term_pairs": c["core.multiply.term_pairs"],
        "core.multiply.self_s": selfs["core.multiply"],
        "core.elements_built": c["core.elements_built"],
        "core.mono_cache.misses": c["core.mono_cache.misses"],
        "core.mono_cache.hit_ratio": ratio(
            c["core.multiply.term_pairs"] - c["core.mono_cache.misses"],
            c["core.multiply.term_pairs"]),
        "core.twisted_delta.calls": calls["core.twisted_delta"],
        "core.tensor_act.calls": calls["core.tensor_act"],
        "scalars.poly_mul.calls": calls["scalars.poly_mul"],
        "scalars.compose.calls": calls["scalars.compose"],
        "scalars.pow.calls": calls["scalars.pow"],
        "scalars.bezout.calls": calls["scalars.bezout"],
        "hochschild.evaluate.calls": calls["hochschild.evaluate"],
        "hochschild.evaluate.self_s": selfs["hochschild.evaluate"],
        "hochschild.eval_basis.calls": calls["hochschild.eval_basis"],
        "hochschild.eval_basis.hit_ratio": ratio(
            calls["hochschild.eval_basis"] - c["hochschild.memo_entries"],
            calls["hochschild.eval_basis"]),
        "hochschild.determine_F.calls": calls["hochschild.determine_F"],
        "percomplex.per_diff.calls": calls["percomplex.per_diff"],
        "percomplex.per_diff.self_s": selfs["percomplex.per_diff"],
        "percomplex.per_solve_preimage.self_s": selfs["percomplex.per_solve_preimage"],
        "percomplex.contract3.calls": calls["percomplex.contract3"],
        "percomplex.split2.calls": calls["percomplex.split2"],
        "complexes.verify_hdc.self_s": selfs["complexes.verify_hdc"],
        "complexes.c_diff.calls": calls["complexes.c_diff"],
        "deform.build_star.self_s": selfs["deform.build_star"],
        "deform.star.calls": calls["deform.star"],
        "deform.check_assoc.calls": calls["deform.check_assoc"],
        "deform.check_obstruction.triples": c["deform.check_obstruction.triples"],
        "cli.run.calls": calls["cli.run"],
        "cli.run.self_s": selfs["cli.run"],
        "trace.overhead_ratio": sum(traced) / sum(plain),
    }
    m.update({f"{layer}.self_s": v for layer, v in layer_self.items()})
    return m


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    spec = json.loads(SPEC.read_text())
    probe = SpeedProbe()
    setup_s = measure_setup([str(p) for p in jobs.CORPUS], probe)
    job_list = jobs.GENERATORS[args.workload](args.seed)
    from gwadeform import cli

    record = args.record_digests
    if record and args.seed != jobs.DEFAULT_SEED:
        raise SystemExit("digests are recorded for the default seed only")
    expected = {} if record else jobs.recorded_digests(args.workload)
    if args.seed == jobs.DEFAULT_SEED and not record:
        missing = [job.label for job in job_list if job.key not in expected]
        if missing:
            raise SystemExit(f"no recorded digests for {missing[:3]}")
    checker = Checker(job_list, expected)
    if args.trace:
        values = per_layer(cli, job_list, checker, args.workload, args.seed,
                           probe)
        wanted = spec["per_layer"]
        info = f"{len(job_list)} jobs, one untraced and one traced pass"
    else:
        values, passes, samples = end_to_end(cli, job_list, checker,
                                             args.seconds, probe)
        values["setup_s"] = setup_s
        wanted = spec["end_to_end"]
        info = (f"{passes} passes of {len(job_list)} jobs, {samples} latency "
                f"samples, fail_ratio {checker.failed / checker.attempted:.4f}")
    if record:
        if checker.failed:
            raise SystemExit("not recording digests of failed jobs")
        data = json.loads(jobs.DIGESTS.read_text()) if jobs.DIGESTS.is_file() else {}
        data[args.workload] = {job.key: d for job, d in
                               zip(job_list, checker.digests)}
        jobs.DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(f"{args.workload} (seed {args.seed}): {info}")
    for error in checker.errors[:20]:
        print(f"  FAIL {error}")
    for name, m in metrics.items():
        print(f"  {args.workload}.{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": checker.failed == 0,
                      "attempted": checker.attempted,
                      "failed": checker.failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; metrics prefixed by workload name."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in jobs.GENERATORS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: benchmark process failed", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*jobs.GENERATORS, "all"])
    parser.add_argument("--seed", type=int, default=jobs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store report digests for the default seed")
    args = parser.parse_args(argv)
    if not (SRC / "gwadeform" / "cli.py").is_file():
        print(f"error: no gwadeform sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
