"""Golden `--json` reports: every (case, command) pair must reproduce the
report stored in tests/golden/ byte for byte.

A pair the CLI rejects as an input error (exit 2) writes no report and has
no golden file.  To regenerate the reports from the repository root:

    rm -f tests/golden/*.json; for f in cases/*.json; do for c in validate cohomology specseq koszul hs p1; do PYTHONPATH=src python3 -m liekoszul.cli $c $f --json tests/golden/${c}__$(basename $f) >/dev/null 2>&1; done; done
"""

from pathlib import Path

import pytest

from liekoszul.cli import COMMANDS, main

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
