"""The benchmark's recorded reports, checked in the test suite: every job of
the three workloads whose input comes from `cases/` must pass
`perfbench/workloads.check_job`, which compares its `--json` report byte for
byte with `perfbench/reference/` and checks its closed-form answers.  The
goldens of `tests/golden/` cover each (case, command) pair at its default
options; these reports add `p1` along the window ladder and `koszul` one
weight at a time.  This test only reads the benchmark's files.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from liekoszul import cli  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_fixed_jobs_reproduce_their_reference(tmp_path, workload):
    jobs = [job for job in workloads.build(workload, 1, tmp_path) if job.fixed]
    assert jobs
    references = workloads.load_references(jobs)
    failures = {}
    for job in jobs:
        _, _, code, data = run.run_job(cli, job, tmp_path / "report.json")
        err = workloads.check_job(job, code, data, references)
        if err is not None:
            failures[job.id] = err
    assert failures == {}
