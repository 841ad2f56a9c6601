import importlib
import json
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import liekoszul
from liekoszul import cechp1, cli, complexes, exactla, koszul, lierinehart, specseq
from liekoszul.cli import build_lie_rinehart, main

CASES = Path(__file__).resolve().parent.parent / "cases"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(args):
    return main([str(a) for a in args])


def test_validate_lie_algebra(capsys):
    code = run_cli(["validate", CASES / "heisenberg-center.json"])
    out = capsys.readouterr().out
    assert code == 0
    assert 'verdict: "pass"' in out


def test_hs_heisenberg(capsys, tmp_path):
    out_json = tmp_path / "report.json"
    code = run_cli(["hs", CASES / "heisenberg-center.json", "--json", out_json])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: true" in out
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
    assert "\nformality: true\n" in out
    assert "\ndim_y: 0\n" in out and "\nvanishing: true\n" in out


def test_specseq_command(capsys):
    code = run_cli(["specseq", CASES / "twostep-filtered.json"])
    out = capsys.readouterr().out
    assert code == 0
    assert "\nconvergent: true\n" in out


def test_cohomology_command(capsys):
    code = run_cli(["cohomology", CASES / "heisenberg-center.json"])
    out = capsys.readouterr().out
    assert code == 0
    assert "\nbetti: 0=1 1=2 2=2 3=1\n" in out


# The `result:` line reads `pass` only where some check could fail; a
# command that checks nothing reads `no verdict`, exits 0 and keeps JSON ok.
RESULT_LINES = {
    "validate": (["validate", CASES / "heisenberg-center.json"], "pass"),
    "cohomology": (["cohomology", CASES / "heisenberg-center.json"], "no verdict"),
    "specseq": (["specseq", CASES / "square-double.json"], "no verdict"),
    "koszul": (["koszul", CASES / "euler-n2.json", "--weights", "0..2"], "pass"),
    "hs": (["hs", CASES / "heisenberg-center.json"], "pass"),
    "p1": (["p1", CASES / "p1-euler-O0.json"], "pass"),
}


@pytest.mark.parametrize("args,result", RESULT_LINES.values(), ids=RESULT_LINES.keys())
def test_result_line_reads_the_verdict(tmp_path, capsys, args, result):
    out_json = tmp_path / "report.json"
    assert run_cli([*args, "--json", out_json]) == 0
    assert f"\nresult: {result}\n" in capsys.readouterr().out
    assert json.loads(out_json.read_text())["ok"] is True


def test_filtration_option_without_a_double_block_is_an_input_error(capsys):
    for filtration in ("row", "column"):
        err = _exit_with_one_line(capsys, ["specseq", CASES / "twostep-filtered.json",
                                           "--filtration", filtration], 2, "error:")
        assert "--filtration" in err and "'double'" in err


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
    assert "\nconvergent: true\n" in out
    code = run_cli(["specseq", CASES / "square-double.json", "--filtration", "column"])
    assert code == 0


def test_cohomology_lie_rinehart(capsys):
    code = run_cli(["cohomology", CASES / "euler-n2.json"])
    out = capsys.readouterr().out
    assert code == 0
    assert "\nbetti_per_weight:\n  0: 0=1 1=0 2=0\n" in out


def test_raw_complex_with_nonzero_square_exit_2(tmp_path, capsys):
    bad = tmp_path / "dd.json"
    bad.write_text(json.dumps({
        "kind": "raw_complex", "name": "dd-nonzero", "dims": [1, 1, 1],
        "differentials": [[["1"]], [["1"]]],
    }))
    assert run_cli(["cohomology", bad]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


# rho[e0, e1] = rho(e0) = x0 d/dx0, but [rho e0, rho e1] = [x0 d/dx0, x1 d/dx1] = 0
ANCHOR_NOT_A_MORPHISM = {
    "kind": "lie_rinehart", "name": "anchor-not-a-morphism",
    "variable_weights": [1, 1], "generator_weights": [0, 0],
    "anchor": [[{"1,0": "1"}, {}], [{}, {"0,1": "1"}]],
    "brackets": {"0,1": [{"0,0": "1"}, {}]},
}


def test_cohomology_of_an_anchor_that_is_no_morphism_is_a_verdict_failure(tmp_path, capsys):
    # `cohomology` runs `validate` once and exits 1 on its first failure, as
    # `validate` does
    bad = tmp_path / "anchor.json"
    bad.write_text(json.dumps(ANCHOR_NOT_A_MORPHISM))
    assert run_cli(["validate", bad]) == 1
    out = capsys.readouterr().out
    assert ('failures: [{"identity": "anchor-morphism", '
            '"witness": "rho([e0,e1]) component d/dx0: residue 1*x0"}]') in out
    assert "\nresult: FAIL\n" in out
    err = _exit_with_one_line(capsys, ["cohomology", bad], 1, "verdict failure:")
    assert err == ("verdict failure: anchor-morphism fails: "
                   "rho([e0,e1]) component d/dx0: residue 1*x0\n")


def test_koszul_of_an_anchor_that_is_no_morphism_is_a_verdict_failure(tmp_path, capsys):
    # with a section (x0, x1) the Koszul slices exist and read formality:
    # pass, but they describe no Lie-Rinehart algebra; `koszul` fails as
    # `cohomology` does, after every input error
    bad = tmp_path / "anchor.json"
    bad.write_text(json.dumps({**ANCHOR_NOT_A_MORPHISM,
                               "section": [{"1,0": "1"}, {"0,1": "1"}]}))
    err = _exit_with_one_line(capsys, ["koszul", bad, "--weights", "0..2"], 1,
                              "verdict failure:")
    assert err == ("verdict failure: anchor-morphism fails: "
                   "rho([e0,e1]) component d/dx0: residue 1*x0\n")
    bad.write_text(json.dumps({**ANCHOR_NOT_A_MORPHISM,
                               "section": [{"1,0": "1"}, {"0,1": "1"}], "dim_y": -1}))
    _exit_with_one_line(capsys, ["koszul", bad], 2, "error:")


@pytest.mark.parametrize("case", ["twostep-filtered.json", "square-double.json"])
def test_negative_max_page_is_an_input_error(capsys, case):
    # as for `p1 --window 0`: exit 2 with one line, instead of printing no page
    err = _exit_with_one_line(capsys, ["specseq", CASES / case, "--max-page", "-1"], 2, "error:")
    assert "--max-page" in err


def _report(tmp_path, args):
    out = tmp_path / "report.json"
    assert run_cli([*args, "--json", out]) == 0
    return json.loads(out.read_text())["report"]


@pytest.mark.parametrize("case,filtrations", [("twostep-filtered.json", [[]]),
                                              ("square-double.json",
                                               [["--filtration", "row"],
                                                ["--filtration", "column"]])])
def test_cohomology_and_specseq_read_one_raw_complex(tmp_path, capsys, case, filtrations):
    # a raw file with a `double` block is its total complex for both commands
    betti = _report(tmp_path, ["cohomology", CASES / case])["betti"]
    for extra in filtrations:
        assert _report(tmp_path, ["specseq", CASES / case, *extra])["infinity_totals"] == betti
    capsys.readouterr()


PAIRED_RUNS = {
    "hs-heisenberg": ["hs", CASES / "heisenberg-center.json"],
    "hs-module": ["hs", CASES / "aff1-module.json"],
    "specseq-flag": ["specseq", CASES / "twostep-filtered.json"],
    "specseq-double-row": ["specseq", CASES / "square-double.json", "--filtration", "row"],
    "specseq-double-column": ["specseq", CASES / "square-double.json"],
    "p1-twisted": ["p1", CASES / "p1-euler-O0.json"],
    "p1-untwisted": ["p1", CASES / "p1-euler-untwisted.json"],
}


def _spied(monkeypatch, fn):
    """Every call of `fn` made through the package, as (args, result).  Each
    binding of `fn` in the liekoszul.* namespaces is found by identity, as
    `perfbench/tracing.install` finds it: `cli` holds `specseq.run` as `ss_run`."""
    calls = []

    def spy(*args, **kwargs):
        result = fn(*args, **kwargs)
        calls.append((args, result))
        return result

    bindings = [(module, attr) for name, module in list(sys.modules.items())
                if name == "liekoszul" or name.startswith("liekoszul.")
                for attr, value in list(vars(module).items()) if value is fn]
    assert bindings
    for module, attr in bindings:
        monkeypatch.setattr(module, attr, spy)
    return calls


@pytest.mark.parametrize("case", sorted(p.name for p in CASES.glob("p1-*.json")))
def test_a_p1_run_ranks_no_cech_block(monkeypatch, capsys, case):
    # the row grid is a closed form: a p1 run eliminates nothing outside
    # its pairings, which run on `exactla._insert`
    eliminated = _spied(monkeypatch, exactla._rref)
    ranked = _spied(monkeypatch, exactla.rank)
    assert run_cli(["p1", CASES / case]) == 0
    capsys.readouterr()
    assert (len(ranked), len(eliminated)) == (0, 0)


# the twisted degree-0 cases: D*(0) = O + O(-2) gives the row grid its only
# adjacent nonzero cells, the only place a page lists a d1 rank
D1_CASES = ("p1-conjugate-O0", "p1-euler-O0", "p1-euler-scalar-O0")


@pytest.mark.parametrize("case", sorted(p.name for p in CASES.glob("p1-*.json")))
def test_a_p1_run_pairs_the_wedge_degree_filtration_only_at_twisted_degree_0(
        monkeypatch, capsys, case):
    # two Cech-degree runs (windows D and D+1), and the wedge-degree run
    # only where the row grid lets a d1 be nonzero
    payload = json.loads((CASES / case).read_text())
    paired = _spied(monkeypatch, specseq.run)
    assert run_cli(["p1", CASES / case]) == 0
    capsys.readouterr()
    twisted_0 = payload["degree"] == 0 and not payload.get("untwisted", False)
    assert len(paired) == (3 if twisted_0 else 2)
    assert twisted_0 == (Path(case).stem in D1_CASES)


@pytest.mark.parametrize("args", PAIRED_RUNS.values(), ids=PAIRED_RUNS.keys())
def test_paired_differentials_are_eliminated_only_by_the_pairing(monkeypatch, capsys, args):
    # Every elimination goes through exactla._rref and every spectral sequence
    # through specseq.run; no differential of a paired complex may reach
    # _rref, since the pairing's ranks give its Betti numbers.
    eliminated = _spied(monkeypatch, exactla._rref)
    paired = _spied(monkeypatch, specseq.run)
    assert run_cli(args) == 0
    capsys.readouterr()
    diffs = [f.complex.d(n) for (f,), _ in paired for n in range(f.complex.lo, f.complex.hi)]
    assert any(not d.is_zero() for d in diffs)
    for d in diffs:
        assert not any(rows is d.row_maps for (rows, *_), _ in eliminated), d


def _page_runs():
    """(id, argv) of every p1 and hs job on the corpus, and of specseq on each
    raw case, filtration and a few --max-page values."""
    runs = {}
    for golden in sorted(GOLDEN.glob("*.json")):
        command, case = golden.name.split("__", 1)
        if command in ("p1", "hs"):
            runs[f"{command}-{Path(case).stem}"] = [command, CASES / case]
    for case, filtrations in (("twostep-filtered.json", [[]]),
                              ("square-double.json", [["--filtration", "row"],
                                                      ["--filtration", "column"]])):
        for extra in filtrations:
            for max_page in (None, 0, 1, 2, 9):
                flag = [] if max_page is None else ["--max-page", str(max_page)]
                name = "-".join([Path(case).stem, *extra[1:], *flag[1:]])
                runs[f"specseq-{name}"] = ["specseq", CASES / case, *extra, *flag]
    return runs


PAGE_RUNS = _page_runs()


@pytest.mark.parametrize("args", PAGE_RUNS.values(), ids=PAGE_RUNS.keys())
def test_each_command_builds_only_the_pages_it_reads(monkeypatch, capsys, args):
    # p1 reads page 1 of the wedge-degree run, and only where a d1 can be
    # nonzero (its E2 = E_inf is the Cech-degree run's unpaired vectors); hs
    # reads page 2; specseq prints pages 0..min(--max-page, width + 1).
    # E_inf is read off the pairing.
    runs = _spied(monkeypatch, specseq.run)
    pages = _spied(monkeypatch, specseq.compute_page)
    assert run_cli(args) in (0, 1)
    capsys.readouterr()
    built = sorted(r for (_, r), _ in pages)
    if args[0] == "p1":
        assert built == ([1] if Path(args[1]).stem in D1_CASES else [])
    elif args[0] == "hs":
        assert built == [2]
    else:
        (_, reduction), = runs
        p_lo, p_hi = reduction.p_range
        last = p_hi - p_lo + 2
        if "--max-page" in args:
            last = min(last, int(args[args.index("--max-page") + 1]))
        assert built == list(range(last + 1))


@pytest.mark.parametrize("case,extra", [("twostep-filtered.json", []),
                                        ("square-double.json", ["--filtration", "row"]),
                                        ("square-double.json", ["--filtration", "column"])])
def test_max_page_restricts_the_pages_only(tmp_path, capsys, case, extra):
    # without --max-page the report prints pages 0..width+1
    full = _report(tmp_path, ["specseq", CASES / case, *extra])
    width = len(full["pages"]) - 2
    assert list(full["pages"]) == [str(r) for r in range(width + 2)]
    for max_page in (0, 1, width + 1, width + 3):
        cut = _report(tmp_path, ["specseq", CASES / case, *extra, "--max-page", str(max_page)])
        assert cut["pages"] == {r: g for r, g in full["pages"].items() if int(r) <= max_page}
        assert {k: v for k, v in cut.items() if k != "pages"} == \
            {k: v for k, v in full.items() if k != "pages"}
    capsys.readouterr()


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
    assert "bracket 0,1 must be a list of 3 entries, got 2" in err


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


@pytest.mark.parametrize("case,degree,field,h", [
    ("p1-euler-untwisted.json", 0, ["1", "0", "1"], {"0": 2}),
    ("p1-O2-euler.json", 1, ["-2", "0", "1"], {}),
], ids=["untwisted-1+z^2", "twisted-O1--2+z^2"])
def test_p1_irrational_zeros_are_counted(tmp_path, capsys, case, degree, field, h):
    # untwisted, the conjugate pair of zeros of 1 + z^2 is two fixed points;
    # twisted on O(1), the scalar part -z vanishes at neither zero of
    # z^2 - 2, so there is none and H = 0
    path = _mutated(tmp_path, case, lambda p: p.update(degree=degree, vector_field=field))
    report = _report(tmp_path, ["p1", path])
    assert report["corollary_match"] is True
    assert {k: v for k, v in report["equivariant_h"].items() if v} == h
    assert len(report["fixed_points"]) == (2 if h else 0)


def test_weight_range_of_wrong_length_names_the_field(tmp_path, capsys):
    path = _mutated(tmp_path, "euler-n2.json", lambda p: p["weights"].pop())
    err = _exit_with_one_line(capsys, ["koszul", path], 2, "error:")
    assert "'weights'" in err and "2 entries" in err


def test_empty_weight_range_option_is_an_input_error(capsys):
    err = _exit_with_one_line(capsys, ["koszul", CASES / "euler-n2.json", "--weights", "3..1"],
                              2, "error:")
    assert "--weights" in err


@pytest.mark.parametrize("rng,bound", [("x..3", "'x'"), ("1..2.5", "'2.5'"), ("..3", "''"),
                                       ("0..y", "'y'")])
def test_non_integer_weight_bound_names_the_option(capsys, rng, bound):
    err = _exit_with_one_line(capsys, ["koszul", CASES / "euler-n2.json", "--weights", rng],
                              2, "error:")
    assert "--weights" in err and f"bound {bound}" in err


@pytest.mark.parametrize("command", ["koszul", "cohomology"])
def test_empty_weight_range_field_is_an_input_error(tmp_path, capsys, command):
    path = _mutated(tmp_path, "euler-n2.json", lambda p: p.update(weights=[4, 0]))
    err = _exit_with_one_line(capsys, [command, path], 2, "error:")
    assert "'weights'" in err


def test_anticommuting_square_given_as_commuting_names_the_first_cell(tmp_path, capsys):
    path = _mutated(tmp_path, "square-double.json",
                    lambda p: p["double"].update(commuting=False))
    err = _exit_with_one_line(capsys, ["specseq", path], 2, "error:")
    assert "d_h and d_v do not anticommute at (0, 0)" in err


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


# A value of the wrong shape that would otherwise be iterated or counted:
# exit 2 with one line naming the field.
WRONG_SHAPES = {
    "name-object": ("euler-n2.json", "koszul", lambda p: p.update(name={"x": 1}),
                    "error: field 'name' must be a string, got dict\n"),
    "name-number": ("heisenberg-center.json", "hs", lambda p: p.update(name=3),
                    "error: field 'name' must be a string, got int\n"),
    "module-actions": ("aff1-module.json", "hs",
                       lambda p: p["module"].update(actions=1), "'module.actions'"),
    "lie-bracket-vector": ("heisenberg-center.json", "hs",
                           lambda p: p["brackets"].update({"0,1": 1}), "bracket 0,1"),
    "empty-dims": ("twostep-filtered.json", "cohomology", lambda p: p.update(dims=[]), "'dims'"),
    "dims-number": ("twostep-filtered.json", "specseq", lambda p: p.update(dims=2), "'dims'"),
    "double-dims": ("square-double.json", "specseq",
                    lambda p: p["double"].update(dims=5), "'double.dims'"),
    "double-horizontal": ("square-double.json", "specseq",
                          lambda p: p["double"].update(horizontal=[1]), "'double.horizontal'"),
    "double-vertical": ("square-double.json", "cohomology",
                        lambda p: p["double"].update(vertical=[1]), "'double.vertical'"),
    "double-map": ("square-double.json", "specseq",
                   lambda p: p["double"]["vertical"].update({"0,0": 5}),
                   "'double.vertical[0,0]'"),
    "filtration-spaces": ("twostep-filtered.json", "specseq",
                          lambda p: p["filtration"].update(spaces=5), "'filtration.spaces'"),
    "filtration-space": ("twostep-filtered.json", "specseq",
                         lambda p: p["filtration"]["spaces"].update({"1,1": 5}),
                         "'filtration.spaces[1,1]'"),
    # twostep-filtered has levels 0..3 (p_lo..p_hi + 1) and degrees 0..1
    "filtration-level-above": ("twostep-filtered.json", "specseq",
                               lambda p: p["filtration"]["spaces"].update({"4,0": []}),
                               "key '4,0' is outside levels 0..3 and degrees 0..1"),
    "filtration-level-below": ("twostep-filtered.json", "specseq",
                               lambda p: p["filtration"]["spaces"].update({"-1,1": []}),
                               "key '-1,1'"),
    "filtration-degree-above": ("twostep-filtered.json", "specseq",
                                lambda p: p["filtration"]["spaces"].update({"0,2": []}),
                                "key '0,2'"),
    "filtration-degree-below": ("twostep-filtered.json", "specseq",
                                lambda p: p["filtration"]["spaces"].update({"0,-1": []}),
                                "key '0,-1'"),
    "filtration-degree-vectors": ("twostep-filtered.json", "specseq",
                                  lambda p: p["filtration"]["spaces"].update({"0,5": [[1]]}),
                                  "key '0,5'"),
    "filtration-empty-range": ("twostep-filtered.json", "specseq",
                               lambda p: p["filtration"].update(p_lo=3, p_hi=1),
                               "empty filtration range"),
    "module-action": ("aff1-module.json", "hs",
                      lambda p: p["module"]["actions"].__setitem__(0, 1), "'module.actions[0]'"),
    "module-action-row": ("aff1-module.json", "hs",
                          lambda p: p["module"]["actions"][1].__setitem__(0, 0),
                          "'module.actions[1]'"),
    "module-number": ("aff1-module.json", "hs", lambda p: p.update(module=5), "'module'"),
    "ideal-number": ("heisenberg-center.json", "hs", lambda p: p.update(ideal=5), "'ideal'"),
    "ideal-vector-number": ("heisenberg-center.json", "hs",
                            lambda p: p["ideal"].__setitem__(0, 5), "'ideal'"),
    "differential-number": ("twostep-filtered.json", "cohomology",
                            lambda p: p["differentials"].__setitem__(0, 5), "'differentials[0]'"),
    "differentials-number": ("twostep-filtered.json", "cohomology",
                             lambda p: p.update(differentials=5), "'differentials'"),
    "anchor-number": ("euler-n2.json", "validate", lambda p: p.update(anchor=5), "'anchor'"),
    "anchor-row-number": ("euler-n2.json", "validate",
                          lambda p: p["anchor"].__setitem__(0, 5), "anchor row 0"),
    "lr-bracket-number": ("euler-n2.json", "koszul",
                          lambda p: p["brackets"].update({"0,1": 5}), "bracket 0,1"),
    "section-number": ("euler-n2.json", "koszul", lambda p: p.update(section=5), "'section'"),
    "variable-weights-number": ("euler-n2.json", "validate",
                                lambda p: p.update(variable_weights=5), "'variable_weights'"),
    "generator-weights-number": ("euler-n2.json", "validate",
                                 lambda p: p.update(generator_weights=5), "'generator_weights'"),
    # square-double's rectangle is p 0..1, q 0..1: a key outside it was
    # ignored, or read as a map into a cell of dimension 0
    "double-dims-outside": ("square-double.json", "specseq",
                            lambda p: p["double"]["dims"].update({"9,9": 3}),
                            "double.dims key '9,9' is outside the rectangle p 0..1, q 0..1"),
    "double-horizontal-outside": ("square-double.json", "specseq",
                                  lambda p: p["double"]["horizontal"].update({"9,9": []}),
                                  "double.horizontal key '9,9' is outside the rectangle"),
    "double-vertical-outside": ("square-double.json", "cohomology",
                                lambda p: p["double"]["vertical"].update({"5,5": [[1]]}),
                                "double.vertical key '5,5' is outside the rectangle"),
    "double-empty-rectangle": ("square-double.json", "specseq",
                               lambda p: p["double"].update(p_lo=1, p_hi=0),
                               "double.p_hi 0 < double.p_lo 1"),
    "section-monomial-key": ("euler-n2.json", "koszul",
                             lambda p: p["section"][0].update({"a,0": 1}), "monomial key 'a,0'"),
    "anchor-monomial-key": ("euler-n2.json", "validate",
                            lambda p: p["anchor"][0][0].update({"1.5,0": 1}),
                            "monomial key '1.5,0'"),
    "module-actions-count": ("aff1-module.json", "hs", lambda p: p["module"]["actions"].pop(),
                             "module.actions must be a list of 2 entries, got 1"),
    "monomial-key-short": ("euler-n2.json", "validate",
                           lambda p: p["anchor"][0][0].update({"0": 1}),
                           "monomial key '0' must be 2 comma-separated integers"),
    "monomial-key-negative": ("euler-n2.json", "koszul",
                              lambda p: p["section"][0].update({"-1,2": 1}),
                              "monomial key '-1,2' has a negative exponent"),
    "section-count": ("euler-n2.json", "koszul", lambda p: p["section"].append({}),
                      "section must be a list of 2 entries, got 3"),
    # An entry that is not a rational: the reader of the entry names it.
    "differential-entry": ("twostep-filtered.json", "cohomology",
                           lambda p: p["differentials"][0][0].__setitem__(0, True),
                           "field 'differentials[0]': cannot interpret True as a rational"),
    "double-map-entry": ("square-double.json", "specseq",
                         lambda p: p["double"]["horizontal"]["0,0"][0].__setitem__(0, "1/0"),
                         "field 'double.horizontal[0,0]': cannot interpret '1/0'"),
    "filtration-space-entry": ("twostep-filtered.json", "specseq",
                               lambda p: p["filtration"]["spaces"]["1,1"][0].__setitem__(0, True),
                               "field 'filtration.spaces[1,1]': cannot interpret True"),
    "ideal-entry": ("heisenberg-center.json", "hs",
                    lambda p: p["ideal"][0].__setitem__(0, True),
                    "field 'ideal': cannot interpret True"),
    "module-action-entry": ("aff1-module.json", "hs",
                            lambda p: p["module"]["actions"][0][0].__setitem__(0, True),
                            "field 'module.actions[0]': cannot interpret True"),
    "lie-bracket-entry": ("heisenberg-center.json", "hs",
                          lambda p: p["brackets"]["0,1"].__setitem__(2, [1]),
                          "bracket 0,1: cannot interpret [1]"),
    "anchor-coefficient": ("euler-n2.json", "validate",
                           lambda p: p["anchor"][0][0].update({"0,0": "x"}),
                           "monomial key '0,0': cannot interpret 'x'"),
    "lr-bracket-coefficient": ("euler-n2.json", "koszul",
                               lambda p: p["brackets"]["0,1"][1].update({"0,0": True}),
                               "monomial key '0,0': cannot interpret True"),
    "section-coefficient": ("euler-n2.json", "koszul",
                            lambda p: p["section"][0].update({"1,0": True}),
                            "monomial key '1,0': cannot interpret True"),
    "vector-field-entry": ("p1-euler-untwisted.json", "p1",
                           lambda p: p["vector_field"].__setitem__(0, [1]),
                           "field 'vector_field': cannot interpret [1]"),
    "scalar-part-entry": ("p1-euler-O0.json", "p1",
                          lambda p: p["scalar_part"].__setitem__(0, True),
                          "field 'scalar_part': cannot interpret True"),
}


@pytest.mark.parametrize("case,command,mutate,field", WRONG_SHAPES.values(),
                         ids=WRONG_SHAPES.keys())
def test_value_of_wrong_shape_names_the_field(tmp_path, capsys, case, command, mutate, field):
    path = _mutated(tmp_path, case, mutate)
    err = _exit_with_one_line(capsys, [command, path], 2, "error:")
    assert field in err


@pytest.mark.parametrize("content", [b"{", b"\xff\xfe{}", b"[" * 100000],
                         ids=["json", "utf-8", "nesting"])
def test_an_unreadable_file_is_an_input_error(tmp_path, capsys, content):
    path = tmp_path / "unreadable.json"
    path.write_bytes(content)
    _exit_with_one_line(capsys, ["p1", path], 2, "error: cannot read example file:")


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


def _containers(node, path=()):
    """The path of each object and each list inside a JSON value, the value
    itself first, in document order."""
    if isinstance(node, (dict, list)):
        yield path
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield from _containers(value, (*path, key))


# The commands that apply to each kind of case.
KIND_COMMANDS = {
    "lie_algebra": ("validate", "cohomology", "hs"),
    "lie_rinehart": ("validate", "cohomology", "koszul"),
    "raw_complex": ("cohomology", "specseq"),
    "p1_bundle": ("p1",),
}


def test_type_mutated_cases_exit_cleanly(tmp_path, capsys):
    # Replace each object and each list of each case, one at a time, by the
    # number 5, and run the commands that apply to the case's kind: each run
    # ends with exit 0, 1 or 2 and at most one line on stderr, and no
    # exception escapes `main`.
    path = tmp_path / "mutant.json"
    for case in sorted(CASES.glob("*.json")):
        original = json.loads(case.read_text())
        for where in _containers(original):
            payload = json.loads(case.read_text())
            if where:
                parent = payload
                for key in where[:-1]:
                    parent = parent[key]
                parent[where[-1]] = 5
            else:
                payload = 5
            path.write_text(json.dumps(payload))
            for command in KIND_COMMANDS[original["kind"]]:
                code = run_cli([command, path])
                err = capsys.readouterr().err
                assert code in (0, 1, 2), (case.name, where, command)
                assert err.count("\n") <= 1, (case.name, where, command, err)


def _leaves(node, path=()):
    """The path of each leaf (a value that is no object and no list) of a
    JSON value, in document order."""
    if not isinstance(node, (dict, list)):
        yield path
        return
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        yield from _leaves(value, (*path, key))


CASE_LEAVES = [(case.name, where) for case in sorted(CASES.glob("*.json"))
               for where in _leaves(json.loads(case.read_text()))]

# Small JSON values of every type: integers stay in -3..3, so that a window,
# weight or dimension that lands in range keeps the run cheap.
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from([0.5, 2.0, -1.5]),
    st.sampled_from(["", "0", "-1", "1/2", "1/0", "x", "1,0", "nan"]),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.sampled_from(["0", "1,0", "0,1", "a"]), st.integers(-2, 2), max_size=2))


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(leaf=st.sampled_from(CASE_LEAVES), value=JSON_VALUES)
def test_fuzzed_case_leaves_exit_cleanly(tmp_path, capsys, leaf, value):
    # One leaf of one case replaced by a small JSON value, under the commands
    # of the case's kind: each run exits 0, 1 or 2, and a message is one
    # `error:` or `verdict failure:` line, never an internal error.
    name, where = leaf
    payload = json.loads((CASES / name).read_text())
    parent = payload
    for key in where[:-1]:
        parent = parent[key]
    kind = payload["kind"]
    parent[where[-1]] = value
    path = tmp_path / "fuzzed.json"
    path.write_text(json.dumps(payload))
    for command in KIND_COMMANDS[kind]:
        code = run_cli([command, path])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (name, where, value, command, err)
        assert err.count("\n") <= 1, (name, where, value, command, err)
        assert not err or err.startswith(("error:", "verdict failure:")), err
        assert code != 2 or err.startswith("error:"), err


@pytest.mark.parametrize("error", [ValueError("boom"), exactla.LinearAlgebraError("boom"),
                                   specseq.SpectralSequenceError("boom")],
                         ids=lambda e: type(e).__name__)
def test_an_engine_fault_is_an_internal_error(monkeypatch, capsys, error):
    # not an input error (exit 2) and not a traceback: one line and exit 3
    def fault(*args, **kwargs):
        raise error

    monkeypatch.setattr(cechp1, "window_checked", fault)
    err = _exit_with_one_line(capsys, ["p1", CASES / "p1-euler-O0.json"], 3, "internal error:")
    assert err == f"internal error: {type(error).__name__}: boom\n"


@pytest.mark.parametrize("command, case, module, builder", [
    ("p1", "p1-euler-O0.json", cechp1, "_delta_matrix"),
    ("koszul", "euler-n2.json", koszul, "contraction"),
], ids=["p1", "koszul"])
def test_a_misshaped_builder_matrix_is_an_internal_error(monkeypatch, capsys, command, case,
                                                         module, builder):
    # builder output is wrapped unchecked but for its shapes: a shape fault
    # there is the program's, so it exits 3, not 2 as a ComplexError of input
    monkeypatch.setattr(module, builder, lambda *args: exactla.ExactMatrix.zeros(1, 1))
    err = _exit_with_one_line(capsys, [command, CASES / case], 3, "internal error:")
    assert err.startswith("internal error: BuilderError: ") and "shape" in err, err


# The exit code of every exception class the package defines: 2 for input
# that cannot be read, 1 for a verdict that failed, 3 for a fault of the
# program.  A new class fails `test_every_exception_class_has_its_exit_code`
# until it is entered here.
EXIT_CODES = {
    "exactla.InputError": 2,
    "cli.SchemaError": 2,
    "complexes.ComplexError": 2,
    "lierinehart.MalformedPresentation": 2,
    "hochserre.MalformedLieAlgebra": 2,
    "exactla.VerdictError": 1,
    "lierinehart.PresentationError": 1,
    "hochserre.LieAlgebraError": 1,
    "cechp1.GluingError": 1,
    "cechp1.WindowError": 1,
    "complexes.BuilderError": 3,
    "exactla.LinearAlgebraError": 3,
    "exactla.OutsideCyclesError": 3,
    "exactla.NotFiltrationCompatibleError": 3,
    "specseq.SpectralSequenceError": 3,
}
PREFIXES = {2: "error: boom", 1: "verdict failure: boom", 3: "internal error: "}


def _package_exceptions():
    """{"module.Class": class} for every exception class a liekoszul module defines."""
    found = {}
    for info in pkgutil.iter_modules(liekoszul.__path__):
        module = importlib.import_module(f"liekoszul.{info.name}")
        for name, value in vars(module).items():
            if (isinstance(value, type) and issubclass(value, BaseException)
                    and value.__module__ == module.__name__):
                found[f"{info.name}.{name}"] = value
    return found


def test_every_exception_class_has_its_exit_code(monkeypatch, capsys):
    classes = _package_exceptions()
    assert sorted(classes) == sorted(EXIT_CODES)
    for name, cls in classes.items():
        def fail(payload, args):
            raise cls("boom")

        monkeypatch.setitem(cli.COMMANDS, "p1", fail)
        code = EXIT_CODES[name]
        err = _exit_with_one_line(capsys, ["p1", CASES / "p1-euler-O0.json"], code,
                                  PREFIXES[code])
        assert err.endswith("boom\n"), (name, err)


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


# Count fields: a negative dimension exits 2 with one line naming the field,
# instead of a Betti number of -3, a failed verdict or a message about
# matrix shapes.
NEGATIVE_COUNTS = [
    *(pytest.param(field, *INTEGER_FIELDS[field], id=field)
      for field in ("dim", "module.dim", "dims", "double.dims", "dim_y")),
    pytest.param("dims", None, "cohomology", None, id="raw-complex-dims"),
]


@pytest.mark.parametrize("field,case,command,mutate", NEGATIVE_COUNTS)
def test_negative_count_names_the_field(tmp_path, capsys, field, case, command, mutate):
    if case is None:
        path = tmp_path / "negative.json"
        path.write_text(json.dumps({"kind": "raw_complex", "dims": [-3], "differentials": []}))
    else:
        path = _mutated(tmp_path, case, lambda p: mutate(p, -1))
    err = _exit_with_one_line(capsys, [command, path], 2, "error:")
    assert f"field {field!r} must be a nonnegative integer, got -" in err


@pytest.mark.parametrize("bad", [-1, True, 2.5])
def test_bad_dim_y_exits_before_any_slice_is_built(tmp_path, capsys, monkeypatch, bad):
    calls = []
    monkeypatch.setattr(koszul, "formality_check", lambda *a: calls.append(a))
    path = _mutated(tmp_path, "euler-n2.json", lambda p: p.update(dim_y=bad))
    err = _exit_with_one_line(capsys, ["koszul", path, "--weights", "0..9"], 2, "error:")
    assert "field 'dim_y' must be" in err
    assert calls == []


@pytest.mark.parametrize("bad", ["false", 1])
@pytest.mark.parametrize("field", BOOLEAN_FIELDS)
def test_boolean_field_that_is_not_a_boolean_names_the_field(tmp_path, capsys, field, bad):
    case, command, mutate = BOOLEAN_FIELDS[field]
    path = _mutated(tmp_path, case, lambda p: mutate(p, bad))
    err = _exit_with_one_line(capsys, [command, path], 2, "error:")
    assert f"field {field!r} must be true or false" in err


def _rescaled_euler(tmp_path):
    """cases/euler-n2.json, same name, with the section (2/3 x, -7/2 y)."""
    return _mutated(tmp_path, "euler-n2.json",
                    lambda p: p.update(section=[{"1,0": "2/3"}, {"0,1": "-7/2"}]))


def test_koszul_report_does_not_see_a_rescaled_section(tmp_path, capsys, monkeypatch):
    sections = []
    real = koszul.reduction_map

    def reduction_map(lr, v, w):
        sections.append(v.components)
        return real(lr, v, w)

    monkeypatch.setattr(koszul, "reduction_map", reduction_map)
    reports = []
    for path in (CASES / "euler-n2.json", _rescaled_euler(tmp_path)):
        out = tmp_path / "report.json"
        assert run_cli(["koszul", path, "--json", out]) == 0
        reports.append(out.read_bytes())
    capsys.readouterr()
    assert reports[0] == reports[1]
    # the driver builds every slice on the primitive integral section
    weights = len(sections) // 2
    assert sections == ([({(1, 0): 1}, {(0, 1): 1})] * weights
                        + [({(1, 0): 1}, {(0, 1): -1})] * weights)


def test_a_koszul_run_builds_one_zero_locus_model(tmp_path, capsys, monkeypatch):
    # the rescaled section and its primitive form share one model, so the
    # run builds the slices of the integral section, once each
    models, slices = [], []
    real_init, real_slice = koszul.ZeroLocusModel.__init__, koszul.ZeroLocusModel.ideal_slice

    def init(self, lr, v):
        models.append(v)
        real_init(self, lr, v)

    def ideal_slice(self, w):
        if w not in self._slices:
            slices.append(w)
        return real_slice(self, w)

    monkeypatch.setattr(koszul.ZeroLocusModel, "__init__", init)
    monkeypatch.setattr(koszul.ZeroLocusModel, "ideal_slice", ideal_slice)
    for section in ([{"1,0": "1"}, {"0,1": "1"}], [{"1,0": "2/3"}, {"0,1": "-7/2"}]):
        path = _mutated(tmp_path, "euler-n2.json",
                        lambda p: p.update(section=section) or p.pop("dim_y"))
        models.clear(), slices.clear()
        assert run_cli(["koszul", path, "--weights", "0..4"]) == 0
        assert len(models) == 1 and sorted(slices) == [0, 1, 2, 3, 4], section
    capsys.readouterr()


def test_validate_checks_a_rescaled_presentation_as_given(tmp_path, capsys, monkeypatch):
    checked = []
    real = lierinehart.validate

    def validate(lr):
        checked.append(lr)
        return real(lr)

    def no_rescaling(*args):
        raise AssertionError("validate rescaled the section")

    monkeypatch.setattr(lierinehart, "validate", validate)
    monkeypatch.setattr(koszul, "_primitive_section", no_rescaling)
    path = _rescaled_euler(tmp_path)
    out = tmp_path / "report.json"
    assert run_cli(["validate", path, "--json", out]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / "validate__euler-n2.json").read_bytes()
    payload = json.loads(path.read_text())
    lr, section = build_lie_rinehart(payload)
    assert [c.anchor for c in checked] == [lr.anchor]
    assert section.components == ({(1, 0): Fraction(2, 3)}, {(0, 1): Fraction(-7, 2)})
