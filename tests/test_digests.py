"""Every seed-0 benchmark report is byte-identical to its recorded digest.

The jobs of ``perfbench/jobs.py`` (all three workloads at seed 0) run
through ``cli.run`` in process, and each report's digest (the report
without ``timing_ms``) must equal the one in ``perfbench/digests.json``.
Each printed report must also be, byte for byte, the
``json.dumps(report, indent=2)`` text of what it parses to.  A refactor
that changes any report fails here, without a benchmark run.
The test only reads ``perfbench/``.
"""
import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from gwadeform import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# jobs.py defines a dataclass, which needs its module registered in
# sys.modules; a plain import from perfbench/ does that.
sys.path.insert(0, str(PERFBENCH))
try:
    import jobs
finally:
    sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("workload", sorted(jobs.GENERATORS))
def test_reports_match_recorded_digests(workload):
    recorded = jobs.recorded_digests(workload)
    job_list = jobs.GENERATORS[workload](jobs.DEFAULT_SEED)
    assert job_list and len(recorded) == len(job_list)
    for job in job_list:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(job.argv)
        assert code == 0, job.label
        text = out.getvalue()
        report = json.loads(text)
        assert text == json.dumps(report, indent=2) + "\n", job.label
        assert jobs.digest(report) == recorded[job.key], (job.key, job.label)
