"""The benchmark's tracer (`perfbench/tracing.py`) wraps named entry points
of every liekoszul module.  Installing and uninstalling it here makes a
rename or removal of a traced entry point fail the test suite instead of
the traced benchmark run.  The benchmark files are only read."""

import importlib.util
import sys
from pathlib import Path

import liekoszul.cli  # noqa: F401  (the tracer patches the cli command table)
from liekoszul.hochserre import GModule, LieAlgebra, ce_complex

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("liekoszul_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every attribute of the liekoszul modules, their classes and the cli table."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "liekoszul" or name.startswith("liekoszul.")):
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for meth, fn in vars(value).items():
                    out[(name, attr, meth)] = fn
    out.update({("COMMANDS", k): v for k, v in liekoszul.cli.COMMANDS.items()})
    return out


def test_tracer_installs_on_every_entry_point_and_restores_them():
    tracing = _load_tracing()
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = {(id(owner), key) for owner, key, _ in tracer._patches}
        wanted = sum(len(entries) for entries in tracing.ENTRY_POINTS.values())
        assert len(tracer._patches) >= wanted and len(patched) == len(tracer._patches)
        # a call through a rebound name is recorded
        heis = LieAlgebra(3, {(0, 1): [0, 0, 1]})
        sys.modules["liekoszul.hochserre"].ce_complex(heis, GModule.trivial(heis))
        assert tracer.counts["hochserre.complexes_built"] == 1
        assert "hochserre.LieAlgebra.__init__" in tracer.names
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert sys.modules["liekoszul.hochserre"].ce_complex is ce_complex
