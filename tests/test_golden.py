"""Golden `--json` reports: every (case, command) pair must reproduce the
report stored in tests/golden/ byte for byte, also with every dense view of
`exactla` made to raise, so that the drivers stay on sparse rows.

A pair the CLI rejects as an input error (exit 2) writes no report and has
no golden file.  To regenerate the reports from the repository root:

    rm -f tests/golden/*.json; for f in cases/*.json; do for c in validate cohomology specseq koszul hs p1; do PYTHONPATH=src python3 -m liekoszul.cli $c $f --json tests/golden/${c}__$(basename $f) >/dev/null 2>&1; done; done
"""

import json
import sys
from pathlib import Path

import pytest

from liekoszul import exactla
from liekoszul.cli import COMMANDS, main
from liekoszul.complexes import FilteredComplex
from liekoszul.exactla import ExactMatrix, Subquotient

ROOT = Path(__file__).resolve().parent.parent
CASES = sorted((ROOT / "cases").glob("*.json"))
GOLDEN = Path(__file__).resolve().parent / "golden"


def test_golden_files_name_existing_pairs():
    pairs = {f"{c}__{case.name}" for case in CASES for c in COMMANDS}
    stored = {p.name for p in GOLDEN.glob("*.json")}
    assert stored and stored <= pairs


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("case", CASES, ids=lambda p: p.stem)
def test_report_matches_golden(case, command, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main([command, str(case), "--json", str(out)])
    capsys.readouterr()
    golden = GOLDEN / f"{command}__{case.name}"
    written = out.read_bytes() if out.exists() else None
    expected = golden.read_bytes() if golden.exists() else None
    assert code in (0, 1, 2)
    assert written == expected


@pytest.mark.parametrize("golden", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.stem)
def test_text_report_states_each_report_value_once(golden, capsys):
    # between the header and `result:`, the unindented lines name the keys
    # of the JSON report, each once, and a scalar reads its JSON spelling
    command, case = golden.name.split("__", 1)
    main([command, str(ROOT / "cases" / case)])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"== {command} ")
    end = next(i for i, line in enumerate(lines) if line.startswith("result: "))
    entries = [line for line in lines[1:end] if not line.startswith(" ")]
    report = json.loads(golden.read_text())["report"]
    assert sorted(line.split(":", 1)[0] for line in entries) == sorted(report)
    for key, value in report.items():
        if not isinstance(value, dict) or not value:
            assert f"{key}: {json.dumps(value)}" in entries


def test_a_rational_section_reports_as_its_integral_form(tmp_path, capsys):
    # `euler-n2-rational` is `euler-n2` with the section (2/3 x, 5 y), which
    # `koszul` rescales to its primitive integral form (x, y)
    out = tmp_path / "report.json"
    assert main(["koszul", str(ROOT / "cases" / "euler-n2-rational.json"), "--json", str(out)]) == 0
    capsys.readouterr()
    integral = json.loads((GOLDEN / "koszul__euler-n2.json").read_text())["report"]
    assert json.loads(out.read_text())["report"] == integral


# Report keys that a check computes, and can compute as a failure.
VERDICT_KEYS = ("corollary_match", "formality", "verdict", "vanishing")


@pytest.mark.parametrize("golden", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.stem)
def test_a_pass_rests_on_a_check_that_can_fail(golden, capsys):
    # `result: pass` needs a verdict key in the report, and every verdict key
    # there reads true or "pass" (`validate` writes the string)
    command, case = golden.name.split("__", 1)
    main([command, str(ROOT / "cases" / case)])
    result = next(line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("result: "))
    report = json.loads(golden.read_text())["report"]
    verdicts = [report[key] for key in VERDICT_KEYS if key in report]
    if result == "result: pass":
        assert verdicts and all(v in (True, "pass") for v in verdicts), verdicts
    if golden.stem == "p1__p1-Ominus2-zero":
        assert result == "result: no verdict"


class DenseViewUsed(Exception):
    pass


def _refuse(*args, **kwargs):
    raise DenseViewUsed


def test_reports_use_no_dense_view(tmp_path, capsys, monkeypatch):
    # the dense views left in `exactla`: `solve_batch` and
    # `Subquotient.class_coordinates_batch`
    monkeypatch.setattr(Subquotient, "class_coordinates_batch", _refuse)
    original = exactla.solve_batch
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "liekoszul":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, _refuse)
    for _ in _run_goldens(tmp_path, capsys):
        pass


def _run_goldens(tmp_path, capsys):
    """Run every golden pair, checking its report byte for byte, and yield
    each pair's golden file name before its run."""
    goldens = sorted(GOLDEN.glob("*.json"))
    assert goldens
    for golden in goldens:
        yield golden.name
        command, case = golden.name.split("__", 1)
        out = tmp_path / golden.name
        main([command, str(ROOT / "cases" / case), "--json", str(out)])
        capsys.readouterr()
        assert out.read_bytes() == golden.read_bytes(), golden.name


def test_reports_call_checking_constructors_on_raw_input_only(tmp_path, capsys, monkeypatch):
    # Builders wrap canonical rows and store the filtration levels they
    # build; a checking constructor runs only on a raw flag, in `from_flag`.
    calls = []
    pair = None
    for cls in (ExactMatrix, FilteredComplex):
        def spy(self, *args, init=cls.__init__, name=cls.__name__):
            calls.append((name, pair))
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", spy)
    for pair in _run_goldens(tmp_path, capsys):
        pass
    assert calls == [("FilteredComplex", "specseq__twostep-filtered.json")]
