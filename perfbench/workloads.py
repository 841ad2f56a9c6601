"""The benchmark's workloads: job lists over `cases/` and generated inputs,
and the per-job output checks.

A job is one `liekoszul` command line.  Its check looks at the exit code,
at closed-form answers (Heisenberg Betti numbers, corollary match,
degeneration, formality, convergence with E-infinity totals equal to the
Betti numbers) and, for inputs from `cases/`, compares the `--json` report
byte for byte with the reference recorded in `perfbench/reference/`.
`vanishing` is never used as evidence: it cannot fail at present.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen

ROOT = Path(__file__).resolve().parent.parent
CASES = ROOT / "cases"
REFERENCE = Path(__file__).resolve().parent / "reference"

# p1: the twisted cases (3-row models) at windows 1-2, and the cheaper
# untwisted cases along a wider window ladder.  With 14 jobs the tail (the
# sixth slowest, see run.TAIL_JOBS) lies above the median.
P1_TWISTED = ("p1-euler-O0", "p1-O2-euler", "p1-Ominus2-zero")
P1_UNTWISTED = ("p1-euler-untwisted", "p1-twofixed-untwisted")
P1_TWISTED_WINDOWS = (1, 2)
P1_UNTWISTED_WINDOWS = (1, 2, 3, 4)

KOSZUL_CASES = ("euler-n2", "xline-n1")
KOSZUL_WEIGHTS = range(0, 8)

HS_CASES = ("abelian3", "aff1-module", "aff1-nilradical", "heisenberg-center",
            "nilpotent4-center", "nilpotent4-derived")
SPECSEQ_CASES = (("square-double", "column"), ("square-double", "row"),
                 ("twostep-filtered", None))

WORKLOADS = ("p1-window", "koszul-weight", "small-filtered")

Check = Callable[[dict], "str | None"]


@dataclass(frozen=True)
class Job:
    id: str                  # stable name; also the reference file stem
    argv: tuple[str, ...]    # command line without --json
    check: Check             # closed-form check of the parsed report
    fixed: bool              # input comes from cases/: compare with reference


def _expect(cond: bool, message: str) -> str | None:
    return None if cond else message


def _all(*checks: Check) -> Check:
    def run(report: dict) -> str | None:
        for c in checks:
            err = c(report)
            if err:
                return err
        return None
    return run


def check_p1(report: dict) -> str | None:
    r = report["report"]
    if not r["degeneration_ok"]:
        return "degeneration_ok is false"
    if r["assumption"] and r.get("corollary_match") is not True:
        return "corollary_match is not true"
    return None


def check_formality(report: dict) -> str | None:
    r = report["report"]
    return _expect(r["formality"] and all(r["formality_per_weight"].values()),
                   "formality failed")


def _concentrated_at_origin(table: dict, weights) -> str | None:
    """Each weight slice has cohomology only in degree 0 at weight 0, of
    dimension 1: the zero scheme (and the de Rham complex) of the origin."""
    if sorted(table, key=int) != [str(w) for w in weights]:
        return f"weights {sorted(table, key=int)} instead of {list(weights)}"
    for w, dims in table.items():
        for deg, dim in dims.items():
            want = 1 if (w == "0" and deg == "0") else 0
            if dim != want:
                return f"H^{deg} at weight {w} is {dim}, expected {want}"
    return None


def check_koszul_origin(weights) -> Check:
    return lambda report: _concentrated_at_origin(report["report"]["slice_cohomology"], weights)


def check_de_rham_origin(weights) -> Check:
    return lambda report: _concentrated_at_origin(report["report"]["betti_per_weight"], weights)


def check_hs(report: dict) -> str | None:
    r = report["report"]
    if not r["verdict"]:
        return "verdict is false"
    if r["infinity_totals"] != r["betti"]:
        return "E-infinity totals differ from the Betti numbers"
    return _expect(r["computed_e2"] == r["expected_e2"], "E2 differs from H(g/h, H(h))")


def check_betti(key: str, betti: dict) -> Check:
    return lambda report: _expect(report["report"][key] == betti,
                                  f"{key} {report['report'][key]} != {betti}")


def check_convergent(report: dict) -> str | None:
    return _expect(report["report"]["convergent"] is True, "not convergent")


def check_degeneration(page: int) -> Check:
    return lambda report: _expect(report["report"]["degeneration_page"] == page,
                                  f"degeneration page is not {page}")


def _case(name: str) -> str:
    return str(CASES / f"{name}.json")


def jobs_p1_window(generated) -> list[Job]:
    jobs = []
    for names, windows in ((P1_TWISTED, P1_TWISTED_WINDOWS),
                           (P1_UNTWISTED, P1_UNTWISTED_WINDOWS)):
        for name in names:
            for w in windows:
                jobs.append(Job(f"p1__{name}__window-{w}",
                                ("p1", _case(name), "--window", str(w)), check_p1, True))
    return jobs


def jobs_koszul_weight(generated) -> list[Job]:
    jobs = []
    inputs = [(name, _case(name), None) for name in KOSZUL_CASES]
    inputs += [(path.stem, str(path), facts) for path, facts in generated["lie_rinehart"]]
    for name, path, facts in inputs:
        fixed = facts is None
        for w in KOSZUL_WEIGHTS:
            check = check_formality if fixed else _all(check_formality,
                                                       check_koszul_origin(range(w, w + 1)))
            jobs.append(Job(f"koszul__{name}__weights-{w}",
                            ("koszul", path, "--weights", f"{w}..{w}"), check, fixed))
        check = (lambda report: None) if fixed else check_de_rham_origin(
            range(0, facts["w_max"] + 1))
        jobs.append(Job(f"cohomology__{name}", ("cohomology", path), check, fixed))
    return jobs


def jobs_small_filtered(generated) -> list[Job]:
    jobs = []
    for name in HS_CASES:
        check = check_hs
        if name == "heisenberg-center":
            check = _all(check_hs, check_betti("betti", gen.heisenberg_betti(1)))
        jobs.append(Job(f"hs__{name}", ("hs", _case(name)), check, True))
    for path, facts in generated["lie_algebra"]:
        jobs.append(Job(f"hs__{path.stem}", ("hs", str(path)),
                        _all(check_hs, check_betti("betti", facts["betti"])), False))
    for name, filtration in SPECSEQ_CASES:
        argv = ("specseq", _case(name)) + (("--filtration", filtration) if filtration else ())
        suffix = f"__{filtration}" if filtration else ""
        jobs.append(Job(f"specseq__{name}{suffix}", argv, check_convergent, True))
    for path, facts in generated["raw_complex"]:
        jobs.append(Job(f"specseq__{path.stem}", ("specseq", str(path)),
                        _all(check_convergent,
                             check_betti("infinity_totals", facts["betti"]),
                             check_degeneration(facts["degeneration_page"])), False))
    return jobs


BUILDERS = {
    "p1-window": (jobs_p1_window, 0),
    "koszul-weight": (jobs_koszul_weight, 0),
    "small-filtered": (jobs_small_filtered, gen.RANDOM_COMPLEXES),
}


def build(workload: str, seed: int, input_dir: Path) -> list[Job]:
    """Generate the workload's inputs for `seed` and return its job list, in
    an order drawn from the seed."""
    builder, n_random = BUILDERS[workload]
    generated = gen.generate(seed, input_dir, n_random)
    jobs = builder(generated)
    random.Random(seed).shuffle(jobs)
    return jobs


def load_references(jobs: list[Job]) -> dict[str, bytes]:
    """Recorded reports of the jobs on fixed inputs, keyed by job id."""
    return {job.id: (REFERENCE / f"{job.id}.json").read_bytes() for job in jobs if job.fixed}


def check_job(job: Job, code: int | str, report_bytes: bytes | None,
              references: dict[str, bytes]) -> str | None:
    """None if the job's output is correct, else the reason it is not."""
    if code != 0:
        return f"exit code {code}"
    if report_bytes is None:
        return "no report written"
    if job.fixed and report_bytes != references[job.id]:
        return "report differs from the recorded reference"
    report = json.loads(report_bytes)
    if report.get("ok") is not True:
        return "report says ok=false"
    return job.check(report)
