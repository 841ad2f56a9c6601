"""Every function of the package runs when the commands run, or is named
here with the reason it stays.

The gate traces the frames of `src/liekoszul` with `sys.settrace` while
every `cases/*.json` file runs under every command of `cli.COMMANDS`, each
run writing its `--json` report, and compares the functions never entered
with `ALLOWLIST`.  Dunders are exempt, and so are the names the benchmark's tracer wraps
(`perfbench/tracing.ENTRY_POINTS`, read by `test_imports._entry_points`),
which stay until the benchmark drops them.  The check is equality, so a
stale entry fails as well as a new dead function.
"""

import ast
import contextlib
import importlib.util
import io
import sys
import tempfile
from pathlib import Path

import liekoszul
from liekoszul.cli import COMMANDS, main

from test_imports import _entry_points

ROOT = Path(__file__).resolve().parent.parent
CASES = sorted((ROOT / "cases").glob("*.json"))
PACKAGE = Path(liekoszul.__file__).resolve().parent

# Functions no case run enters, each with the reason it stays.
ALLOWLIST = {
    "cechp1._cech_dims": "helper of `cech_cohomology`, which ENTRY_POINTS wraps",
    "cli._bound": "reads a `--weights a..b` bound; no case run passes `--weights`, "
                  "and `tests/test_cli.py` runs it",
    "complexes._rank": "rank of a flag level in `FilteredComplex.from_flag`, needed only when "
                       "a level's rows are not all rows of the level below; the case flags "
                       "repeat their vectors, and `tests/test_complexes.py` and "
                       "`tests/test_cli.py` run it",
    "complexes._induced": "helper of `ChainMap.induced_on_cohomology`, which "
                          "ENTRY_POINTS wraps",
    "exactla.Subspace.zero_space": "helper of `Subspace.intersect` and `_induced`, "
                                   "which ENTRY_POINTS wraps",
    "exactla._dense": "helper of the dense views `solve_batch` and "
                      "`Subquotient.class_coordinates_batch`, which ENTRY_POINTS wraps",
    "lierinehart.tangent_algebroid": "API of the README quick start",
}

# Test-only API that left the package; the tests read sparse rows densely
# through `tests/helpers.py` and build the rest inline.
REMOVED = [
    "cechp1.zero_section",
    "complexes.CochainComplex.euler_characteristic",
    "complexes.DoubleComplex.cell_dim",
    "complexes.DoubleComplex.dh",
    "complexes.DoubleComplex.dv",
    "complexes.DoubleComplex.euler_characteristic",
    "complexes.DoubleComplex.from_single_row",
    "complexes.DoubleComplex.transpose",
    "complexes.compose",
    "exactla.ExactMatrix.apply",
    "exactla.ExactMatrix.column",
    "exactla.ExactMatrix.entries",
    "exactla.ExactMatrix.entry",
    "exactla.ExactMatrix.from_columns",
    "exactla.ExactMatrix.from_entries",
    "exactla.ExactMatrix.identity",
    "exactla.ExactMatrix.row",
    "exactla.Subquotient.class_coordinates",
    "exactla.Subquotient.representatives",
    "exactla.Subspace.add",
    "exactla.Subspace.basis",
    "exactla.Subspace.contains",
    "exactla.Subspace.full_space",
    "exactla.as_vector",
    "exactla.solve",
    "exactla.unit_vector",
    "koszul.FormalityResult.first_failure",
    "lierinehart.WeightedPolyRing.variable",
    "specseq.SpectralSequencePage.dims",
    "specseq.SpectralSequencePage.nonzero_dims",
    "specseq.SpectralSequencePage.entry_dim",
]


def definitions(source: str, module: str) -> dict[int, str]:
    """"module.f" for each top-level function and "module.Class.f" for each
    method of a top-level class, dunders left out, keyed by its first line:
    that of its first decorator, as in the `co_firstlineno` of its code."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, functions):
            found.append((node, node.name))
        elif isinstance(node, ast.ClassDef):
            found += [(item, f"{node.name}.{item.name}") for item in node.body
                      if isinstance(item, functions)]
    return {min([d.lineno for d in f.decorator_list] + [f.lineno]): f"{module}.{name}"
            for f, name in found if not (f.name.startswith("__") and f.name.endswith("__"))}


def never_entered(modules, run) -> list[str]:
    """The `definitions` of the given modules that `run()` never enters.

    A global trace function records the first line of each frame opened
    in one of their files and traces no lines; the tracer already set, if
    any, is put back afterwards."""
    files = {m.__file__: m.__name__.rsplit(".", 1)[-1] for m in modules}
    entered = set()

    def trace(frame, event, arg):
        if frame.f_code.co_filename in files:
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(previous)
    return sorted(name for path, module in files.items()
                  for line, name in definitions(Path(path).read_text(), module).items()
                  if (path, line) not in entered)


def _run_every_case():
    # each run writes its `--json` report, so that the report writer runs
    with (tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()),
          contextlib.redirect_stderr(io.StringIO())):
        for case in CASES:
            for command in COMMANDS:
                main([command, str(case), "--json", str(Path(tmp) / "report.json")])


def test_every_function_a_case_leaves_unrun_is_allowed():
    modules = [sys.modules[f"liekoszul.{p.stem}"] for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"]
    wrapped = set(_entry_points())
    unrun = [name for name in never_entered(modules, _run_every_case)
             if name.split(".", 1)[1] not in wrapped]
    assert unrun == sorted(ALLOWLIST)
    assert all(ALLOWLIST.values())


def test_scan_finds_a_function_no_run_enters(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("def used():\n    return K().size\n\n"
                    "def dead():\n    return 0\n\n"
                    "class K:\n    def __init__(self):\n        self.n = 1\n\n"
                    "    @property\n    def size(self):\n        return self.n\n\n"
                    "    def __repr__(self):\n        return 'K'\n")
    spec = importlib.util.spec_from_file_location("m", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # a tracer set before the scan is set again after it
    previous = sys.gettrace()
    outer = lambda frame, event, arg: None  # noqa: E731
    sys.settrace(outer)
    try:
        assert never_entered([module], module.used) == ["m.dead"]
        assert sys.gettrace() is outer
    finally:
        sys.settrace(previous)


def test_src_defines_no_removed_name():
    defined = {name for p in sorted(PACKAGE.glob("*.py"))
               for name in definitions(p.read_text(), p.stem).values()}
    assert sorted(defined & set(REMOVED)) == []
