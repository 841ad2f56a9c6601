"""Benchmark of the liekoszul command line, run in process.

One client sends one job at a time (a closed loop, single process, single
thread): each job is one `liekoszul.cli.main(argv)` call on a JSON input
file, from `cases/` or generated from the seed.  Every job's output is
checked (see workloads.py).

    python3 perfbench/run.py --workload p1-window --seed 1 --seconds 40 --trace 0

prints, as its last line, one JSON object with the end-to-end metrics
(`--trace 0`, untraced) or the per-layer metrics (`--trace 1`, from passes
with every module's entry points wrapped, alternating with untraced passes
that give the tracing overhead).  The line before it carries the run's
metadata, including the raw wall-clock figures.  Times are seconds at a
reference speed (see speed.py).

With `--workload all` or `--repeat N` it instead runs each workload N times
in fresh processes, on seeds seed..seed+N-1, and prints each metric's
median, quartiles and spread against its bound.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Set-up is repeated in every run and its median reported, so that one slow
# import or file write does not decide setup_s.
SETUP_REPEATS = 15
# The tail is the slowest job but TAIL_JOBS - 1 of a pass: at least ten
# samples beyond it in two passes.
TAIL_JOBS = 6


@dataclass
class Setup:
    cli: object
    jobs: list
    references: dict
    input_dir: Path


@dataclass
class Pass:
    intervals: list = field(default_factory=list)  # (started, finished) of each cli.main
    failures: list = field(default_factory=list)   # (job id, reason)
    labels: list = field(default_factory=list)     # job label of each interval
    times: list = field(default_factory=list)      # seconds at reference speed

    @property
    def raw(self) -> list:
        return [finished - started for started, finished in self.intervals]


def _purge_package() -> None:
    for name in [n for n in sys.modules if n == "liekoszul" or n.startswith("liekoszul.")]:
        del sys.modules[name]


def setup(workload: str, seed: int) -> Setup:
    """Import the program afresh, generate the inputs, load the references."""
    _purge_package()
    cli = importlib.import_module("liekoszul.cli")
    if Path(cli.__file__).resolve().parent != (SRC / "liekoszul").resolve():
        raise RuntimeError(f"liekoszul imported from {cli.__file__}, not from {SRC}")
    input_dir = Path(tempfile.mkdtemp(prefix="inputs-", dir=OUT))
    jobs = workloads.build(workload, seed, input_dir)
    return Setup(cli, jobs, workloads.load_references(jobs), input_dir)


def run_job(cli, job, report_path: Path):
    """Run one job; return (started, finished, exit code, report bytes or None)."""
    if report_path.exists():
        report_path.unlink()
    argv = list(job.argv) + ["--json", str(report_path)]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        started = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed job, not a failed benchmark
            code = f"{type(exc).__name__}: {exc}"
        finished = time.perf_counter()
    data = report_path.read_bytes() if report_path.exists() else None
    return started, finished, code, data


def run_pass(state: Setup, probe: speed.SpeedProbe, tracer=None, label: str = "") -> Pass:
    report_path = state.input_dir / "report.json"
    result = Pass()
    for job in state.jobs:
        result.labels.append(f"{label}{job.id}")
        if tracer is not None:
            tracer.job = result.labels[-1]
        started, finished, code, data = run_job(state.cli, job, report_path)
        result.intervals.append((started, finished))
        try:
            err = workloads.check_job(job, code, data, state.references)
        except (KeyError, TypeError, ValueError) as exc:
            err = f"malformed report: {exc!r}"
        if err:
            result.failures.append((job.id, err))
    result.times = [probe.correct(*interval) for interval in result.intervals]
    return result


def _enough_time(started: float, seconds: float, per_round: list) -> bool:
    """Whether another round of the median length still ends in time."""
    return time.perf_counter() - started + statistics.median(per_round) <= seconds


def typical_pass(per_pass: list) -> list:
    """Each job's median time over the passes, in job-list order."""
    return [statistics.median(job) for job in zip(*per_pass)]


def tail(typical: list) -> tuple[float, float]:
    """(time, percentile) of the TAIL_JOBS-th slowest job of a typical pass."""
    ordered = sorted(typical)
    n = len(ordered)
    k = min(TAIL_JOBS, n)
    return ordered[n - k], 100.0 * (n - k + 1) / n


def measure_end_to_end(state: Setup, probe, seconds: float):
    started = time.perf_counter()
    passes, rounds = [], []
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(state, probe))
        rounds.append(time.perf_counter() - t0)
        if not _enough_time(started, seconds, rounds):
            break
    attempted = len(passes) * len(state.jobs)
    failed = sum(len(p.failures) for p in passes)
    correct_per_pass = (attempted - failed) / len(passes)

    def timings(per_pass):
        typical = typical_pass(per_pass)
        return (correct_per_pass / sum(typical), statistics.median(typical), *tail(typical))

    jobs_per_s, p50, tail_s, tail_pct = timings([p.times for p in passes])
    raw_jobs_per_s, raw_p50, raw_tail, _ = timings([p.raw for p in passes])
    metrics = {
        "jobs_per_s": (jobs_per_s, "jobs/s"),
        "job_s_p50": (p50, "s"),
        "job_s_tail": (tail_s, "s"),
        "ok_frac": (1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {"passes": len(passes), "jobs_per_pass": len(state.jobs), "samples": attempted,
            "tail_percentile": round(tail_pct, 2), "failed_frac": failed / attempted,
            "raw": {"jobs_per_s": raw_jobs_per_s, "job_s_p50": raw_p50, "job_s_tail": raw_tail}}
    return metrics, attempted, passes, info


def measure_layers(state: Setup, probe, seconds: float, trace_path: Path):
    """Alternate untraced and traced passes; per-layer metrics are medians
    over the traced passes, counts must repeat exactly.  The spans of the
    first traced pass are written to `trace_path`."""
    started = time.perf_counter()
    plain, traced, layers, rounds = [], [], [], []
    first = None
    while True:
        t0 = time.perf_counter()
        plain.append(run_pass(state, probe))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            p = run_pass(state, probe, tracer, label=f"{len(traced)}:")
        finally:
            tracer.uninstall()
        traced.append(p)
        if first is None:
            first = tracer
        # spans are scaled like their job's time
        scale = {label: t / raw for label, t, raw in zip(p.labels, p.times, p.raw)}
        layers.append(tracing.layer_metrics(tracer.spans(), tracer.counts, len(state.jobs),
                                            scale))
        rounds.append(time.perf_counter() - t0)
        if not _enough_time(started, seconds, rounds):
            break
    with open(trace_path, "w", encoding="utf-8") as fh:
        first.write_jsonl(fh)
    metrics = {}
    for key, value in layers[0].items():
        if key.endswith("_s"):
            metrics[key] = (statistics.median(layer[key] for layer in layers), "s")
        else:
            if any(layer[key] != value for layer in layers):
                print(f"warning: {key} differs between traced passes", file=sys.stderr)
            metrics[key] = (value, "count/job" if key.endswith("_per_job") else "count")
    metrics["trace.overhead_ratio"] = (
        sum(typical_pass([p.times for p in traced]))
        / sum(typical_pass([p.times for p in plain])), "ratio")
    everything = plain + traced
    attempted = len(everything) * len(state.jobs)
    info = {"passes": len(traced), "jobs_per_pass": len(state.jobs), "samples": attempted,
            "spans_per_pass": len(first.names),
            "trace_file": str(trace_path.relative_to(ROOT))}
    return metrics, attempted, everything, info


def git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "liekoszul").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def single_run(args) -> int:
    if not (SRC / "liekoszul" / "cli.py").is_file() or not workloads.CASES.is_dir():
        print(f"error: no liekoszul sources under {SRC} or no cases/ directory",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))
    setup_intervals = []
    state = None
    try:
        with speed.SpeedProbe() as probe:
            for _ in range(SETUP_REPEATS):
                if state is not None:
                    shutil.rmtree(state.input_dir)
                started = time.perf_counter()
                state = setup(args.workload, args.seed)
                setup_intervals.append((started, time.perf_counter()))
            if args.trace:
                trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
                metrics, attempted, passes, info = measure_layers(
                    state, probe, args.seconds, trace_path)
            else:
                metrics, attempted, passes, info = measure_end_to_end(
                    state, probe, args.seconds)
                metrics["setup_s"] = (statistics.median(
                    probe.correct(*interval) for interval in setup_intervals), "s")
                info["raw"]["setup_s"] = statistics.median(b - a for a, b in setup_intervals)
    finally:
        if state is not None:
            shutil.rmtree(state.input_dir, ignore_errors=True)
    failures = [f for p in passes for f in p.failures]
    for job_id, reason in sorted(set(failures)):
        print(f"FAILED {job_id}: {reason}", file=sys.stderr)
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **info,
            "host_speed": speed.REFERENCE_PROBE_S / statistics.median(probe.durations),
            "git_revision": git_revision(), "source_digest": source_digest(),
            "python": platform.python_version(), "cpu_count": os.cpu_count()}
    print(json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def report_mode(args) -> int:
    """Run workloads in fresh processes on consecutive seeds and summarise."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for workload in chosen:
        values: dict[str, list] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        for seed in range(args.seed, args.seed + args.repeat):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            *_, meta_line, result_line = proc.stdout.strip().splitlines()
            meta, result = json.loads(meta_line), json.loads(result_line)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"# {workload} seed {seed}: passes {meta['passes']}, "
                  f"samples {meta['samples']}, host speed {meta['host_speed']:.2f}"
                  + (f", tail p{meta['tail_percentile']}" if "tail_percentile" in meta else ""),
                  file=sys.stderr)
        print(f"== {workload}: {args.repeat} run(s), failed_frac {failed / attempted:.4f} "
              f"({failed} of {attempted})")
        print(f"  {'metric':<28} {'unit':<10} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name) if not args.trace else None
            verdict = ""
            if bound is not None and len(vals) > 1:
                verdict = "ok" if spread <= bound / 3 else ("WIDE" if spread > bound else "near")
                if spread > bound:
                    status = 1
            print(f"  {name:<28} {units[name]:<10} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {bound if bound is not None else '':>6} {verdict}")
        if failed:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the liekoszul CLI.")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, on consecutive seeds (summary mode)")
    args = parser.parse_args(argv)
    if args.workload == "all" or args.repeat > 1:
        return report_mode(args)
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
