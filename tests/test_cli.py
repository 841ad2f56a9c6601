import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from liekoszul.cli import main

CASES = Path(__file__).resolve().parent.parent / "cases"


def run_cli(args):
    return main([str(a) for a in args])


def test_validate_lie_algebra(capsys):
    code = run_cli(["validate", CASES / "heisenberg-center.json"])
    out = capsys.readouterr().out
    assert code == 0
    assert "all identities hold" in out


def test_hs_heisenberg(capsys, tmp_path):
    out_json = tmp_path / "report.json"
    code = run_cli(["hs", CASES / "heisenberg-center.json", "--json", out_json])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: pass" in out
    data = json.loads(out_json.read_text())
    assert data["ok"] is True
    assert data["report"]["infinity_totals"] == {"0": 1, "1": 2, "2": 2, "3": 1}


def test_p1_euler(capsys, tmp_path):
    out_json = tmp_path / "report.json"
    code = run_cli(["p1", CASES / "p1-euler-O0.json", "--window", "1",
                    "--json", out_json])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out_json.read_text())
    assert data["report"]["equivariant_h"] == {"-2": 0, "-1": 2, "0": 2, "1": 0}
    assert data["report"]["corollary_match"] is True
    assert data["report"]["degeneration_ok"] is True


def test_koszul_command(capsys):
    code = run_cli(["koszul", CASES / "euler-n2.json", "--weights", "0..3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "formality: pass" in out
    assert "vanishing below degree -dim Y (dim Y=0): pass" in out


def test_specseq_command(capsys):
    code = run_cli(["specseq", CASES / "twostep-filtered.json"])
    out = capsys.readouterr().out
    assert code == 0
    assert "convergent: True" in out


def test_cohomology_command(capsys):
    code = run_cli(["cohomology", CASES / "heisenberg-center.json"])
    out = capsys.readouterr().out
    assert code == 0
    assert "H^0=1 H^1=2 H^2=2 H^3=1" in out


def test_schema_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "lie_algebra"}')
    assert run_cli(["validate", bad]) == 2
    notjson = tmp_path / "corrupt.json"
    notjson.write_text("{nope")
    assert run_cli(["validate", notjson]) == 2
    missing = tmp_path / "nothere.json"
    assert run_cli(["validate", missing]) == 2


def test_math_failure_exit_1(tmp_path, capsys):
    bad = tmp_path / "nonjacobi.json"
    bad.write_text(json.dumps({
        "kind": "lie_algebra", "name": "broken", "dim": 3,
        "brackets": {"0,1": ["0", "0", "1"], "0,2": ["1", "0", "0"]},
    }))
    assert run_cli(["validate", bad]) == 1


def test_gluing_failure_exit_1(tmp_path, capsys):
    bad = tmp_path / "badglue.json"
    bad.write_text(json.dumps({
        "kind": "p1_bundle", "name": "badglue", "degree": 1,
        "vector_field": ["0", "0", "1"], "scalar_part": ["0", "5"],
        "window": 1,
    }))
    assert run_cli(["p1", bad]) == 1


def test_json_report_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run_cli(["hs", CASES / "aff1-nilradical.json", "--json", a]) == 0
    assert run_cli(["hs", CASES / "aff1-nilradical.json", "--json", b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_parser_reuse_keeps_reports_and_exit_codes(tmp_path, capsys):
    # One process runs koszul with and without --weights, then p1; each
    # report must equal the one a fresh process writes.
    runs = [["koszul", CASES / "euler-n2.json", "--weights", "2..2"],
            ["koszul", CASES / "euler-n2.json"],
            ["p1", CASES / "p1-euler-O0.json"]]
    for i, args in enumerate(runs):
        here, fresh = tmp_path / f"here{i}.json", tmp_path / f"fresh{i}.json"
        assert run_cli(args + ["--json", here]) == 0
        proc = subprocess.run(
            [sys.executable, "-m", "liekoszul.cli", *map(str, args), "--json", str(fresh)],
            capture_output=True, text=True, env={**os.environ})
        assert proc.returncode == 0
        assert here.read_bytes() == fresh.read_bytes()
    for bad in (["koszul"], ["nope", CASES / "euler-n2.json"],
                ["p1", CASES / "p1-euler-O0.json", "--window", "x"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(bad)
        assert exc.value.code == 2
    capsys.readouterr()
    assert run_cli(["koszul", CASES / "euler-n2.json", "--weights", "1..1"]) == 0


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "liekoszul.cli", "validate",
         str(CASES / "heisenberg-center.json")],
        capture_output=True, text=True,
        env={**os.environ},
    )
    assert proc.returncode == 0
    assert "pass" in proc.stdout


def test_specseq_double_complex_file(capsys):
    code = run_cli(["specseq", CASES / "square-double.json", "--filtration", "row",
                    "--max-page", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "convergent: True" in out
    code = run_cli(["specseq", CASES / "square-double.json", "--filtration", "column"])
    assert code == 0


def test_cohomology_lie_rinehart(capsys):
    code = run_cli(["cohomology", CASES / "euler-n2.json"])
    out = capsys.readouterr().out
    assert code == 0
    assert "weight 0: H^0=1" in out


def test_raw_complex_with_nonzero_square_exit_2(tmp_path, capsys):
    bad = tmp_path / "dd.json"
    bad.write_text(json.dumps({
        "kind": "raw_complex", "name": "dd-nonzero", "dims": [1, 1, 1],
        "differentials": [[["1"]], [["1"]]],
    }))
    assert run_cli(["cohomology", bad]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_window_zero_is_an_input_error(tmp_path, capsys):
    payload = json.loads((CASES / "p1-euler-untwisted.json").read_text())
    assert run_cli(["p1", CASES / "p1-euler-untwisted.json", "--window", "0"]) == 2
    payload["window"] = 0
    zero = tmp_path / "window0.json"
    zero.write_text(json.dumps(payload))
    assert run_cli(["p1", zero]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 2


def _koszul_line_section(tmp_path, dim_y):
    # section x d/dx on the plane: its zero locus is the line x = 0
    payload = json.loads((CASES / "euler-n2.json").read_text())
    payload["section"] = [{"1,0": 1}, {}]
    payload["dim_y"] = dim_y
    path = tmp_path / f"line-dim{dim_y}.json"
    path.write_text(json.dumps(payload))
    return path


def test_koszul_vanishing_fails_below_minus_dim_y(tmp_path, capsys):
    out_json = tmp_path / "report.json"
    code = run_cli(["koszul", _koszul_line_section(tmp_path, 0), "--json", out_json])
    assert code == 1
    report = json.loads(out_json.read_text())["report"]
    assert report["vanishing"] is False
    assert report["vanishing_violations"] == [[-1, w, 1] for w in (1, 2, 3, 4)]


def test_koszul_vanishing_passes_with_line_dimension(tmp_path, capsys):
    out_json = tmp_path / "report.json"
    code = run_cli(["koszul", _koszul_line_section(tmp_path, 1), "--json", out_json])
    assert code == 0
    report = json.loads(out_json.read_text())["report"]
    assert report["vanishing"] is True and report["vanishing_violations"] == []


def test_raw_filtration_not_d_stable_exit_2(tmp_path, capsys):
    # d(e) = f with e in F_1 but f only in F_0: the flag is not d-stable
    bad = tmp_path / "unstable.json"
    bad.write_text(json.dumps({
        "kind": "raw_complex", "name": "unstable", "dims": [1, 1],
        "differentials": [[["1"]]],
        "filtration": {"p_lo": 0, "p_hi": 1, "spaces": {
            "0,0": [["1"]], "0,1": [["1"]],
            "1,0": [["1"]], "1,1": [],
            "2,0": [], "2,1": []}},
    }))
    assert run_cli(["specseq", bad]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def _mutated(tmp_path, case, mutate):
    payload = json.loads((CASES / case).read_text())
    mutate(payload)
    path = tmp_path / f"mutated-{case}"
    path.write_text(json.dumps(payload))
    return path


def _exit_with_one_line(capsys, args, code, prefix):
    assert run_cli(args) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err
    return err


def test_bracket_vector_of_wrong_length_is_an_input_error(tmp_path, capsys):
    path = _mutated(tmp_path, "heisenberg-center.json",
                    lambda p: p["brackets"]["0,1"].pop())
    err = _exit_with_one_line(capsys, ["hs", path], 2, "error:")
    assert "bracket 0,1" in err and "expected 3" in err


def test_missing_anchor_row_is_an_input_error(tmp_path, capsys):
    path = _mutated(tmp_path, "euler-n2.json", lambda p: p["anchor"].pop())
    err = _exit_with_one_line(capsys, ["validate", path], 2, "error:")
    assert "anchor" in err


def test_short_anchor_row_is_an_input_error(tmp_path, capsys):
    path = _mutated(tmp_path, "euler-n2.json", lambda p: p["anchor"][1].pop())
    err = _exit_with_one_line(capsys, ["validate", path], 2, "error:")
    assert "anchor row 1" in err


def test_nonpositive_variable_weight_is_an_input_error(tmp_path, capsys):
    path = _mutated(tmp_path, "euler-n2.json",
                    lambda p: p.update(variable_weights=[0, 1]))
    err = _exit_with_one_line(capsys, ["validate", path], 2, "error:")
    assert "variable weights" in err


def test_jacobi_violation_is_a_verdict_failure(tmp_path, capsys):
    # [e0,e1] = e2 and [e0,e2] = e0: the Jacobiator of (e0, e1, e2) is -e2
    path = _mutated(tmp_path, "heisenberg-center.json", lambda p: p.update(
        brackets={"0,1": ["0", "0", "1"], "0,2": ["1", "0", "0"]}))
    err = _exit_with_one_line(capsys, ["hs", path], 1, "verdict failure:")
    assert "Jacobi" in err


def test_ideal_not_closed_is_a_verdict_failure(tmp_path, capsys):
    # span(e0) is not an ideal: [e0, e1] = e2 leaves it
    path = _mutated(tmp_path, "heisenberg-center.json",
                    lambda p: p.update(ideal=[["1", "0", "0"]]))
    err = _exit_with_one_line(capsys, ["hs", path], 1, "verdict failure:")
    assert "not an ideal" in err


def test_vector_field_of_wrong_length_names_the_field(tmp_path, capsys):
    for mutate in (lambda p: p["vector_field"].pop(),
                   lambda p: p["vector_field"].append("0")):
        path = _mutated(tmp_path, "p1-euler-untwisted.json", mutate)
        err = _exit_with_one_line(capsys, ["p1", path], 2, "error:")
        assert "'vector_field'" in err and "3 entries" in err


def test_long_scalar_part_names_the_field(tmp_path, capsys):
    path = _mutated(tmp_path, "p1-euler-O0.json",
                    lambda p: p.update(scalar_part=["0", "0", "0"]))
    err = _exit_with_one_line(capsys, ["p1", path], 2, "error:")
    assert "'scalar_part'" in err


def test_weight_range_of_wrong_length_names_the_field(tmp_path, capsys):
    path = _mutated(tmp_path, "euler-n2.json", lambda p: p["weights"].pop())
    err = _exit_with_one_line(capsys, ["koszul", path], 2, "error:")
    assert "'weights'" in err and "2 entries" in err


def test_cell_key_with_wrong_part_count_names_the_field(tmp_path, capsys):
    def rekey(block, old, new):
        block[new] = block.pop(old)

    path = _mutated(tmp_path, "square-double.json",
                    lambda p: rekey(p["double"]["dims"], "1,1", "1,1,0"))
    err = _exit_with_one_line(capsys, ["specseq", path], 2, "error:")
    assert "double.dims" in err and "'1,1,0'" in err
    path = _mutated(tmp_path, "square-double.json",
                    lambda p: rekey(p["double"]["vertical"], "1,0", "1"))
    err = _exit_with_one_line(capsys, ["specseq", path], 2, "error:")
    assert "double.vertical" in err
    path = _mutated(tmp_path, "twostep-filtered.json",
                    lambda p: rekey(p["filtration"]["spaces"], "3,1", "3"))
    err = _exit_with_one_line(capsys, ["specseq", path], 2, "error:")
    assert "filtration.spaces" in err


# A JSON `true` is not a rational, and neither is a zero denominator: each
# exits 2 with one line naming the value, in every place a rational is read.
BAD_RATIONALS = [True, "1/0"]


@pytest.mark.parametrize("bad", BAD_RATIONALS)
def test_bad_raw_complex_entry_is_an_input_error(tmp_path, capsys, bad):
    path = _mutated(tmp_path, "twostep-filtered.json",
                    lambda p: p.update(differentials=[[[bad]]]))
    err = _exit_with_one_line(capsys, ["cohomology", path], 2, "error:")
    assert repr(bad) in err


@pytest.mark.parametrize("bad", BAD_RATIONALS)
def test_bad_anchor_coefficient_is_an_input_error(tmp_path, capsys, bad):
    path = _mutated(tmp_path, "euler-n2.json",
                    lambda p: p["anchor"][0][0].update({"0,0": bad}))
    err = _exit_with_one_line(capsys, ["validate", path], 2, "error:")
    assert repr(bad) in err


@pytest.mark.parametrize("bad", BAD_RATIONALS)
def test_bad_section_coefficient_is_an_input_error(tmp_path, capsys, bad):
    path = _mutated(tmp_path, "euler-n2.json",
                    lambda p: p["section"][0].update({"1,0": bad}))
    err = _exit_with_one_line(capsys, ["koszul", path], 2, "error:")
    assert repr(bad) in err


@pytest.mark.parametrize("bad", BAD_RATIONALS)
def test_bad_filtration_vector_entry_is_an_input_error(tmp_path, capsys, bad):
    path = _mutated(tmp_path, "twostep-filtered.json",
                    lambda p: p["filtration"]["spaces"]["1,1"][0].__setitem__(0, bad))
    err = _exit_with_one_line(capsys, ["specseq", path], 2, "error:")
    assert repr(bad) in err


@pytest.mark.parametrize("bad", BAD_RATIONALS)
def test_bad_lie_bracket_coefficient_is_an_input_error(tmp_path, capsys, bad):
    path = _mutated(tmp_path, "heisenberg-center.json",
                    lambda p: p["brackets"]["0,1"].__setitem__(2, bad))
    err = _exit_with_one_line(capsys, ["hs", path], 2, "error:")
    assert repr(bad) in err


# A value that must be a JSON object but is not: exit 2 with one line.
NOT_OBJECTS = {
    "anchor-entry-list": ("euler-n2.json", lambda p: p["anchor"][0].__setitem__(0, [1])),
    "anchor-entry-number": ("euler-n2.json", lambda p: p["anchor"][0].__setitem__(0, 1)),
    "bracket-component": ("euler-n2.json",
                          lambda p: p["brackets"]["0,1"].__setitem__(0, 1)),
    "section-component": ("euler-n2.json", lambda p: p["section"].__setitem__(0, [1])),
    "lie-rinehart-brackets": ("euler-n2.json", lambda p: p.update(brackets=[[{}, {}]])),
    "lie-algebra-brackets": ("heisenberg-center.json",
                             lambda p: p.update(brackets=[["0", "0", "1"]])),
}


@pytest.mark.parametrize("case,mutate", NOT_OBJECTS.values(), ids=NOT_OBJECTS.keys())
def test_value_that_is_not_an_object_is_an_input_error(tmp_path, capsys, case, mutate):
    path = _mutated(tmp_path, case, mutate)
    err = _exit_with_one_line(capsys, ["validate", path], 2, "error:")
    assert "must be an object" in err


def _scalar_lists(node):
    """Every nonempty list of scalars inside a JSON value, in document order."""
    if isinstance(node, dict):
        for value in node.values():
            yield from _scalar_lists(value)
    elif isinstance(node, list):
        if node and not any(isinstance(e, (list, dict)) for e in node):
            yield node
        else:
            for value in node:
                yield from _scalar_lists(value)


def test_mutated_cases_exit_cleanly(tmp_path, capsys):
    # Drop the last element of each scalar list of each case, or append "0"
    # to it, and run every command: each run ends with exit 0, 1 or 2 and at
    # most one line on stderr, and no exception escapes `main`.
    path = tmp_path / "mutant.json"
    for case in sorted(CASES.glob("*.json")):
        original = json.loads(case.read_text())
        for index in range(len(list(_scalar_lists(original)))):
            for mutate in (list.pop, lambda xs: xs.append("0")):
                payload = json.loads(case.read_text())
                mutate(list(_scalar_lists(payload))[index])
                path.write_text(json.dumps(payload))
                for command in ("validate", "cohomology", "specseq", "koszul", "hs", "p1"):
                    code = run_cli([command, path])
                    err = capsys.readouterr().err
                    assert code in (0, 1, 2), (case.name, index, command)
                    assert err.count("\n") <= 1, (case.name, index, command, err)


# Integer and boolean fields: a JSON true or false in an integer field, a
# number with a fractional part, or a non-boolean in a boolean field exits 2
# with one line naming the field, instead of running as 1, 0 or a truncation.
INTEGER_FIELDS = {
    "dim": ("aff1-module.json", "hs", lambda p, x: p.update(dim=x)),
    "module.dim": ("aff1-module.json", "hs", lambda p, x: p["module"].update(dim=x)),
    "degree": ("p1-euler-O0.json", "p1", lambda p, x: p.update(degree=x)),
    "window": ("p1-euler-O0.json", "p1", lambda p, x: p.update(window=x)),
    "lo": ("twostep-filtered.json", "specseq", lambda p, x: p.update(lo=x)),
    "dims": ("twostep-filtered.json", "specseq", lambda p, x: p["dims"].__setitem__(1, x)),
    "variable_weights": ("euler-n2.json", "validate",
                         lambda p, x: p["variable_weights"].__setitem__(0, x)),
    "generator_weights": ("euler-n2.json", "validate",
                          lambda p, x: p["generator_weights"].__setitem__(0, x)),
    "weights": ("euler-n2.json", "koszul", lambda p, x: p["weights"].__setitem__(1, x)),
    "dim_y": ("euler-n2.json", "koszul", lambda p, x: p.update(dim_y=x)),
    "validate_weight": ("euler-n2.json", "validate", lambda p, x: p.update(validate_weight=x)),
    "double.p_hi": ("square-double.json", "specseq", lambda p, x: p["double"].update(p_hi=x)),
    "double.q_lo": ("square-double.json", "specseq", lambda p, x: p["double"].update(q_lo=x)),
    "double.dims": ("square-double.json", "specseq",
                    lambda p, x: p["double"]["dims"].update({"1,1": x})),
    "filtration.p_hi": ("twostep-filtered.json", "specseq",
                        lambda p, x: p["filtration"].update(p_hi=x)),
}
BOOLEAN_FIELDS = {
    "untwisted": ("p1-euler-O0.json", "p1", lambda p, x: p.update(untwisted=x)),
    "double.commuting": ("square-double.json", "specseq",
                         lambda p, x: p["double"].update(commuting=x)),
}


@pytest.mark.parametrize("bad", [True, 2.5])
@pytest.mark.parametrize("field", INTEGER_FIELDS)
def test_integer_field_that_is_not_an_integer_names_the_field(tmp_path, capsys, field, bad):
    case, command, mutate = INTEGER_FIELDS[field]
    path = _mutated(tmp_path, case, lambda p: mutate(p, bad))
    err = _exit_with_one_line(capsys, [command, path], 2, "error:")
    assert f"field {field!r} must be an integer" in err


@pytest.mark.parametrize("bad", ["false", 1])
@pytest.mark.parametrize("field", BOOLEAN_FIELDS)
def test_boolean_field_that_is_not_a_boolean_names_the_field(tmp_path, capsys, field, bad):
    case, command, mutate = BOOLEAN_FIELDS[field]
    path = _mutated(tmp_path, case, lambda p: mutate(p, bad))
    err = _exit_with_one_line(capsys, [command, path], 2, "error:")
    assert f"field {field!r} must be true or false" in err
