"""Record the reference `--json` reports of every job on a `cases/` input.

The benchmark compares each such report byte for byte with the file written
here, so run this only on a commit whose reports are known to be right, and
review the diff it produces:

    python3 perfbench/record.py
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(run.SRC))
    from liekoszul import cli

    workloads.REFERENCE.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="record-", dir=run.OUT))
    try:
        for workload in workloads.WORKLOADS:
            jobs = workloads.build(workload, 0, tmp)
            for job in sorted((j for j in jobs if j.fixed), key=lambda j: j.id):
                *_, code, data = run.run_job(cli, job, tmp / "report.json")
                if code != 0 or data is None:
                    print(f"error: {job.id} exited with {code}", file=sys.stderr)
                    return 1
                (workloads.REFERENCE / f"{job.id}.json").write_bytes(data)
                print(job.id)
    finally:
        shutil.rmtree(tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
