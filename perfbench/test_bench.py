"""Tests of the benchmark itself:

    python3 -m pytest -q perfbench/test_bench.py
"""

import json
from collections import Counter
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from liekoszul import cli  # noqa: E402


def test_self_time_with_nested_and_sibling_children():
    spans = [
        ("cli.main", 0.0, 10.0, -1, "j"),
        ("specseq.run", 1.0, 4.0, 0, "j"),         # child of main
        ("exactla._rref", 2.0, 3.0, 1, "j"),       # grandchild, inside run
        ("exactla._rref", 3.0, 6.0, 0, "j"),       # sibling overlapping run
        ("complexes.total", 8.0, 12.0, 0, "j"),    # sibling reaching past main
    ]
    own = tracing.self_times(spans)
    # main: 10 minus the union [1,6] + [8,10] of its children
    assert own == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0])
    layers = tracing.layer_metrics(spans, Counter(), jobs=1)
    assert layers["cli.self_s"] == pytest.approx(3.0)
    assert layers["exactla.self_s"] == pytest.approx(4.0)
    assert layers["exactla.calls"] == 2
    assert layers["specseq.calls"] == 1


def test_hook_time_is_charged_to_no_module():
    spans = [
        ("cli.main", 0.0, 10.0, -1, "j"),
        ("exactla.Subspace.__init__", 1.0, 6.0, 0, "j"),
        ("exactla._rref", 1.0, 3.0, 1, "j"),
        (tracing.HOOK_SPAN, 3.0, 4.0, 1, "j"),     # counting the _rref call
    ]
    assert tracing.self_times(spans)[1] == pytest.approx(2.0)
    layers = tracing.layer_metrics(spans, Counter(), jobs=1)
    assert layers["exactla.self_s"] == pytest.approx(4.0)
    assert layers["exactla.calls"] == 2
    assert layers["cli.self_s"] == pytest.approx(5.0)
    assert not any(key.startswith("trace.") for key in layers)


def test_hook_spans_are_children_of_the_caller(tmp_path):
    jobs = [j for j in workloads.build("small-filtered", 1, tmp_path)
            if j.id.startswith("specseq__random")][:1]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _reports(jobs, tmp_path, tracer)
    finally:
        tracer.uninstall()
    hooks = [i for i, name in enumerate(tracer.names) if name == tracing.HOOK_SPAN]
    assert len(hooks) == sum(tracer.names.count(n) for n in tracing.COUNT_HOOKS)
    for i in hooks:
        parent = tracer.parents[i]
        assert parent >= 0
        assert tracer.starts[parent] <= tracer.starts[i] <= tracer.ends[i] <= tracer.ends[parent]


def test_p1_window_tail_lies_above_the_median(tmp_path):
    n = len(workloads.build("p1-window", 1, tmp_path))
    _, pct = run.tail([float(i) for i in range(n)])
    assert pct > 60


def test_tail_leaves_ten_samples_beyond_in_two_passes():
    passes = [[float(i) for i in range(1, 21)], [float(i) + 0.5 for i in range(1, 21)]]
    typical = run.typical_pass(passes)
    assert typical == [float(i) + 0.25 for i in range(1, 21)]
    value, pct = run.tail(typical)
    assert value == 15.25 and pct == 75.0
    assert sum(1 for p in passes for t in p if t > value) >= 10


def test_generator_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    gen.generate(5, a, 4)
    gen.generate(5, b, 4)
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    assert all((a / n).read_bytes() == (b / n).read_bytes() for n in names)


def test_heisenberg_betti_closed_form():
    assert gen.heisenberg_betti(1) == {"0": 1, "1": 2, "2": 2, "3": 1}
    assert gen.heisenberg_betti(2) == {"0": 1, "1": 4, "2": 5, "3": 5, "4": 4, "5": 1}


def test_checks_can_fail(tmp_path):
    jobs = workloads.build("small-filtered", 3, tmp_path)
    refs = workloads.load_references(jobs)
    fixed = next(j for j in jobs if j.fixed)
    generated = next(j for j in jobs if j.id.startswith("specseq__random"))
    report_path = tmp_path / "report.json"
    *_, code, data = run.run_job(cli, fixed, report_path)
    assert workloads.check_job(fixed, code, data, refs) is None
    assert workloads.check_job(fixed, 1, data, refs) == "exit code 1"
    assert "reference" in workloads.check_job(fixed, code, data + b" ", refs)
    *_, code, data = run.run_job(cli, generated, report_path)
    assert workloads.check_job(generated, code, data, refs) is None
    report = json.loads(data)
    report["report"]["infinity_totals"]["0"] += 1
    assert workloads.check_job(generated, code, json.dumps(report).encode(), refs)


def _reports(jobs, tmp: Path, tracer=None):
    out = {}
    for job in jobs:
        path = tmp / f"{job.id}.json"
        if tracer is not None:
            tracer.job = job.id
        *_, code, _ = run.run_job(cli, job, path)
        assert code == 0, job.id
        out[job.id] = path.read_bytes()
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reports_identical_with_tracing_on_and_off(workload):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        jobs = workloads.build(workload, 2, tmp)
        plain = _reports(jobs, tmp)
        originals = {name: getattr(cli, name) for name in ("main", "cmd_p1", "betti")}
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = _reports(jobs, tmp, tracer)
        finally:
            tracer.uninstall()
        assert {name: getattr(cli, name) for name in originals} == originals
        assert traced == plain
        assert tracer.names.count("cli.main") == len(jobs)
        layers = tracing.layer_metrics(tracer.spans(), tracer.counts, len(jobs))
        for module in tracing.MODULES:
            assert f"{module}.self_s" in layers
        if workload == "koszul-weight":
            assert layers["specseq.pages"] == 0
        else:
            assert layers["specseq.pages"] > 0
