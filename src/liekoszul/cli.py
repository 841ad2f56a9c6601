"""Batch front end: read a structured example file, run computations,
print a text report and optionally write a machine-readable JSON report.

One file holds one example.  Exit codes: 0 all verdicts pass, 1 a
mathematical verdict failed (including gluing/validation failures),
2 input or schema error.  The JSON report is deterministic (sorted keys,
no timings); wall-clock timings go to stdout only.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import cechp1, hochserre, koszul, lierinehart
from .complexes import (
    CochainComplex,
    ComplexError,
    DoubleComplex,
    FilteredComplex,
    betti,
    column_filtration,
    row_filtration,
)
from .exactla import ExactMatrix, Subspace
from .specseq import check_convergence, run as ss_run


class SchemaError(Exception):
    pass


def _grid_key(pq) -> str:
    return f"{pq[0]},{pq[1]}"


def _grid_json(grid: dict) -> dict:
    return {_grid_key(k): v for k, v in sorted(grid.items())}


def _format_grid(grid: dict, title: str) -> list[str]:
    lines = [title]
    if not grid:
        lines.append("  (empty)")
        return lines
    ps = sorted({p for p, _ in grid})
    qs = sorted({q for _, q in grid}, reverse=True)
    header = "  q\\p " + " ".join(f"{p:>4}" for p in ps)
    lines.append(header)
    for q in qs:
        lines.append(f"  {q:>3} " + " ".join(f"{grid.get((p, q), 0):>4}" for p in ps))
    return lines


def _need(payload: dict, key: str):
    if key not in payload:
        raise SchemaError(f"missing field {key!r}")
    return payload[key]


def _sized(payload: dict, key: str, length: int) -> list:
    """The list field `key`, which must have `length` entries."""
    value = _need(payload, key)
    if not isinstance(value, list) or len(value) != length:
        got = len(value) if isinstance(value, list) else type(value).__name__
        raise SchemaError(f"field {key!r} must be a list of {length} entries, got {got}")
    return value


def _integer(value, field: str) -> int:
    """The value of the integer field `field`, a JSON number with no
    fractional part; `int` would read true as 1 and truncate 2.5."""
    if type(value) is int or type(value) is float and value.is_integer():
        return int(value)
    raise SchemaError(f"field {field!r} must be an integer, got {value!r}")


def _boolean(value, field: str) -> bool:
    """The value of the boolean field `field`, a JSON true or false."""
    if type(value) is bool:
        return value
    raise SchemaError(f"field {field!r} must be true or false, got {value!r}")


def _cell_key(key: str, field: str) -> tuple[int, int]:
    """(p, q) from a key "p,q" of the mapping `field`."""
    parts = key.split(",")
    try:
        if len(parts) != 2:
            raise ValueError
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise SchemaError(f"{field} key {key!r} must be two integers 'p,q'") from None


def _matrix(data, rows: int, cols: int) -> ExactMatrix:
    if len(data) != rows or any(len(r) != cols for r in data):
        raise SchemaError(f"matrix must be {rows}x{cols}")
    return ExactMatrix.from_rows(data)


def _subspace(vectors, dim: int, what: str) -> Subspace:
    if any(len(v) != dim for v in vectors):
        raise SchemaError(f"{what} vectors must have length {dim}")
    return Subspace(dim, vectors)


# -- builders per kind ---------------------------------------------------------


def build_lie_algebra(payload: dict):
    dim = _integer(_need(payload, "dim"), "dim")
    g = hochserre.LieAlgebra(dim, payload.get("brackets", {}))
    ideal = None
    if "ideal" in payload:
        ideal = hochserre.LieIdeal(g, _subspace(payload["ideal"], dim, "ideal"))
    if "module" in payload:
        mdata = payload["module"]
        mdim = _integer(_need(mdata, "dim"), "module.dim")
        actions = [_matrix(a, mdim, mdim) for a in _need(mdata, "actions")]
        if len(actions) != dim:
            raise SchemaError("module needs one action matrix per generator")
        module = hochserre.GModule(g, mdim, actions)
    else:
        module = hochserre.GModule.trivial(g)
    return g, ideal, module


def build_lie_rinehart(payload: dict):
    weights = tuple(_integer(w, "variable_weights") for w in _need(payload, "variable_weights"))
    ring = lierinehart.WeightedPolyRing(len(weights), weights)
    lr = lierinehart.LieRinehartPresentation(
        ring,
        [_integer(w, "generator_weights") for w in _need(payload, "generator_weights")],
        _need(payload, "anchor"),
        payload.get("brackets", {}),
    )
    section = None
    if "section" in payload:
        section = lierinehart.SectionV(lr, payload["section"])
    return lr, section


def build_p1(payload: dict):
    algebroid = cechp1.atiyah_algebroid(_integer(_need(payload, "degree"), "degree"))
    scalar = payload.get("scalar_part")
    if scalar is not None and (not isinstance(scalar, list) or len(scalar) > 2):
        raise SchemaError("field 'scalar_part' must be a list of at most 2 entries "
                          "(alpha + beta z)")
    section = cechp1.EquivariantSection(
        algebroid, tuple(_sized(payload, "vector_field", 3)), scalar)
    untwisted = _boolean(payload.get("untwisted", False), "untwisted")
    window = _integer(payload.get("window", 2), "window")
    return algebroid, section, untwisted, window


def build_raw_complex(payload: dict):
    dims = [_integer(d, "dims") for d in _need(payload, "dims")]
    lo = _integer(payload.get("lo", 0), "lo")
    hi = lo + len(dims) - 1
    mats = _need(payload, "differentials")
    if len(mats) != len(dims) - 1:
        raise SchemaError("need one differential per adjacent pair of degrees")
    diffs = [_matrix(mat, dims[i + 1], dims[i]) for i, mat in enumerate(mats)]
    return CochainComplex(lo, hi, dims, diffs)


def build_raw_double(payload: dict) -> DoubleComplex:
    block = _need(payload, "double")
    p_lo, p_hi, q_lo, q_hi = (_integer(_need(block, key), f"double.{key}")
                              for key in ("p_lo", "p_hi", "q_lo", "q_hi"))
    dims = {}
    for key, d in _need(block, "dims").items():
        dims[_cell_key(key, "double.dims")] = _integer(d, "double.dims")

    def read_maps(field, shape):
        out = {}
        for key, mat in block.get(field, {}).items():
            p, q = _cell_key(key, f"double.{field}")
            rows, cols = shape(p, q)
            out[(p, q)] = _matrix(mat, rows, cols)
        return out

    horiz = read_maps("horizontal",
                      lambda p, q: (dims.get((p + 1, q), 0), dims.get((p, q), 0)))
    vert = read_maps("vertical",
                     lambda p, q: (dims.get((p, q + 1), 0), dims.get((p, q), 0)))
    if _boolean(block.get("commuting", False), "double.commuting"):
        return DoubleComplex.from_commuting(p_lo, p_hi, q_lo, q_hi, dims, horiz, vert)
    return DoubleComplex(p_lo, p_hi, q_lo, q_hi, dims, horiz, vert)


def build_raw_filtration(payload: dict, cplx: CochainComplex) -> FilteredComplex:
    block = _need(payload, "filtration")
    p_lo, p_hi = (_integer(_need(block, key), f"filtration.{key}") for key in ("p_lo", "p_hi"))
    levels = {}
    for key, vectors in _need(block, "spaces").items():
        p, n = _cell_key(key, "filtration.spaces")
        levels[(p, n)] = _subspace(vectors, cplx.dim(n), f"filtration space {key}")
    return FilteredComplex.from_flag(cplx, p_lo, p_hi, levels)


# -- command handlers -----------------------------------------------------------


def cmd_validate(payload: dict, args) -> tuple[dict, bool, list[str]]:
    kind = payload["kind"]
    lines = []
    if kind == "lie_algebra":
        build_lie_algebra(payload)  # constructors check all identities
        lines.append("all identities hold (antisymmetry, Jacobi, ideal, module)")
        return {"verdict": "pass"}, True, lines
    if kind == "lie_rinehart":
        lr, _ = build_lie_rinehart(payload)
        # Still read so that a malformed value is an input error; the check
        # on generators proves the identities at every weight.
        _integer(payload.get("validate_weight", 0), "validate_weight")
        report = lierinehart.validate(lr)
        if report.ok:
            lines.append("all identities hold on all of L (checked on generators)")
        else:
            for f in report.failures:
                lines.append(f"FAILED {f.identity}: {f.witness}")
        return (
            {"verdict": "pass" if report.ok else "fail",
             "failures": [{"identity": f.identity, "witness": f.witness}
                          for f in report.failures]},
            report.ok,
            lines,
        )
    raise SchemaError(f"validate does not apply to kind {kind!r}")


def cmd_cohomology(payload: dict, args) -> tuple[dict, bool, list[str]]:
    kind = payload["kind"]
    lines = []
    if kind == "raw_complex":
        cplx = build_raw_complex(payload)
        dims = betti(cplx)
        lines.append("cohomology dims: " +
                     " ".join(f"H^{k}={v}" for k, v in sorted(dims.items())))
        return {"betti": {str(k): v for k, v in sorted(dims.items())}}, True, lines
    if kind == "lie_algebra":
        g, _, module = build_lie_algebra(payload)
        dims = betti(hochserre.ce_complex(g, module))
        lines.append("cohomology dims: " +
                     " ".join(f"H^{k}={v}" for k, v in sorted(dims.items())))
        return {"betti": {str(k): v for k, v in sorted(dims.items())}}, True, lines
    if kind == "lie_rinehart":
        lr, _ = build_lie_rinehart(payload)
        lo, hi = _weight_range(payload, args)
        table = {}
        for w in range(lo, hi + 1):
            dims = betti(lierinehart.omega_slice_complex(lr, w))
            table[str(w)] = {str(k): v for k, v in sorted(dims.items())}
            lines.append(f"weight {w}: " +
                         " ".join(f"H^{k}={v}" for k, v in sorted(dims.items())))
        return {"betti_per_weight": table}, True, lines
    raise SchemaError(f"cohomology does not apply to kind {kind!r}")


def _weight_range(payload: dict, args) -> tuple[int, int]:
    rng = getattr(args, "weights", None)
    if rng is not None:
        parts = rng.split("..")
        if len(parts) != 2:
            raise SchemaError(f"--weights must be a range 'a..b', got {rng!r}")
        return int(parts[0]), int(parts[1])
    if "weights" not in payload:
        return 0, 3
    lo, hi = _sized(payload, "weights", 2)
    return _integer(lo, "weights"), _integer(hi, "weights")


def cmd_specseq(payload: dict, args) -> tuple[dict, bool, list[str]]:
    if payload["kind"] != "raw_complex":
        raise SchemaError("specseq applies to kind 'raw_complex'")
    if "double" in payload:
        double = build_raw_double(payload)
        filt = (column_filtration(double) if args.filtration == "column"
                else row_filtration(double))
    else:
        cplx = build_raw_complex(payload)
        filt = build_raw_filtration(payload, cplx)
    result = ss_run(filt)
    convergent = check_convergence(result, betti(filt.complex))
    lines = []
    pages_out = {}
    max_page = args.max_page if args.max_page is not None else len(result.pages) - 1
    for page in result.pages:
        if page.r > max_page:
            break
        grid = page.nonzero_dims()
        pages_out[str(page.r)] = _grid_json(grid)
        lines.extend(_format_grid(grid, f"page r={page.r}:"))
    lines.append(f"stable page: {result.stable_page}; "
                 f"degeneration page: {result.degeneration_page}; "
                 f"convergent: {convergent}")
    report = {
        "pages": pages_out,
        "stable_page": result.stable_page,
        "degeneration_page": result.degeneration_page,
        "convergent": convergent,
        "infinity_totals": {str(k): v for k, v in sorted(result.infinity_totals().items())},
    }
    return report, convergent, lines


def cmd_koszul(payload: dict, args) -> tuple[dict, bool, list[str]]:
    if payload["kind"] != "lie_rinehart":
        raise SchemaError("koszul applies to kind 'lie_rinehart'")
    lr, section = build_lie_rinehart(payload)
    if section is None:
        raise SchemaError("koszul needs a 'section' field")
    lo, hi = _weight_range(payload, args)
    weights = range(lo, hi + 1)
    formality = koszul.formality_check(lr, section, weights)
    tables = {s.w: s.source_betti for s in formality.slices}
    lines = []
    slice_dims = {}
    for w, dims in tables.items():
        slice_dims[str(w)] = {str(k): v for k, v in sorted(dims.items())}
        lines.append(f"weight {w}: " +
                     " ".join(f"H^{k}={v}" for k, v in sorted(dims.items())))
    if "dim_y" in payload:
        dim_y = _integer(payload["dim_y"], "dim_y")
        dim_y_source = "asserted"
    else:
        try:
            dim_y = 0 if koszul.is_zero_dimensional(section, hi + 2) else None
        except koszul.InconclusiveError:
            dim_y = None
        dim_y_source = "certified" if dim_y == 0 else "unknown"
    lines.append(f"formality: {'pass' if formality.ok else 'fail'}")
    if not formality.ok:
        lines.append(f"  first failing weight: {formality.first_failure.w}")
    ok = formality.ok
    report = {
        "slice_cohomology": slice_dims,
        "dim_y": dim_y,
        "dim_y_source": dim_y_source,
        "formality": formality.ok,
        "formality_per_weight": {str(s.w): s.ok for s in formality.slices},
    }
    if dim_y is not None:
        vr = koszul.vanishing_check(tables, dim_y)
        report["vanishing"] = vr.ok
        report["vanishing_violations"] = [list(v) for v in vr.violations]
        lines.append(f"vanishing below degree -dim Y (dim Y={dim_y}): "
                     f"{'pass' if vr.ok else 'fail'}")
        ok = ok and vr.ok
    return report, ok, lines


def cmd_hs(payload: dict, args) -> tuple[dict, bool, list[str]]:
    if payload["kind"] != "lie_algebra":
        raise SchemaError("hs applies to kind 'lie_algebra'")
    g, ideal, module = build_lie_algebra(payload)
    if ideal is None:
        raise SchemaError("hs needs an 'ideal' field")
    hs = hochserre.verify(g, ideal, module)
    lines = _format_grid(hs.expected_e2, "expected E2 grid:")
    lines.extend(_format_grid(hs.computed_e2, "computed E2 grid:"))
    lines.append("limit totals:  " +
                 " ".join(f"H^{k}={v}" for k, v in sorted(hs.infinity_totals.items())))
    lines.append("direct betti:  " + " ".join(f"H^{k}={v}" for k, v in sorted(hs.betti.items())))
    lines.append(f"verdict: {'pass' if hs.ok else 'fail'}")
    report = {
        "expected_e2": _grid_json(hs.expected_e2),
        "computed_e2": _grid_json(hs.computed_e2),
        "infinity_totals": {str(k): v for k, v in sorted(hs.infinity_totals.items())},
        "betti": {str(k): v for k, v in sorted(hs.betti.items())},
        "verdict": hs.ok,
    }
    return report, hs.ok, lines


def cmd_p1(payload: dict, args) -> tuple[dict, bool, list[str]]:
    if payload["kind"] != "p1_bundle":
        raise SchemaError("p1 applies to kind 'p1_bundle'")
    algebroid, section, untwisted, window = build_p1(payload)
    if args.window is not None:
        window = args.window
    if window < 1:
        raise SchemaError(f"window must be at least 1, got {window}")
    model = cechp1.cech_koszul(algebroid, section, window, untwisted)
    nxt = cechp1.cech_koszul(algebroid, section, window + 1, untwisted)
    lines = [f"degree {algebroid.degree}, window {window}"
             + (", untwisted" if untwisted else "")]
    fp = cechp1.first_page(model)
    lines.extend(_format_grid({k: v for k, v in fp.grid.items() if v},
                              "first page (wedge p, cech q):"))
    d1 = {k: v for k, v in fp.d1_ranks.items() if v}
    lines.append(f"observed d1 ranks: {_grid_json(d1) if d1 else 'all zero'}")
    hdims = cechp1.equivariant_H(model, nxt)
    lines.append("equivariant cohomology: " +
                 " ".join(f"H^{k}={v}" for k, v in sorted(hdims.items())))
    assumption = cechp1.assumption_check(algebroid, section)
    lines.append(f"assumption (simple zeros): {assumption}")
    ok = fp.consistent
    report = {
        "degree": algebroid.degree,
        "untwisted": untwisted,
        "window": window,
        "first_page": _grid_json(fp.grid),
        "d1_ranks": _grid_json(fp.d1_ranks),
        "equivariant_h": {str(k): v for k, v in sorted(hdims.items())},
        "assumption": assumption,
    }
    if assumption:
        cor = cechp1.corollary_check(model, nxt)
        lines.append(f"fixed points: {[str(p) for p in cor.fixed_points]}")
        lines.append(f"fixed-point prediction: "
                     + " ".join(f"H^{k}={v}" for k, v in sorted(cor.predicted.items())))
        lines.append(f"corollary match: {cor.match}")
        report["fixed_points"] = [str(p) for p in cor.fixed_points]
        report["corollary_predicted"] = {str(k): v for k, v in sorted(cor.predicted.items())}
        report["corollary_match"] = cor.match
        ok = ok and cor.match
    degen = cechp1.second_page_degeneration(model, nxt)
    lines.append(f"degeneration page: {degen.degeneration_page}; "
                 f"E2 = Einf: {degen.e2_dims == degen.einf_dims}; "
                 f"convergent: {degen.convergent}")
    report["degeneration_page"] = degen.degeneration_page
    report["degeneration_ok"] = degen.ok
    report["e2"] = _grid_json(degen.e2_dims)
    ok = ok and degen.ok
    return report, ok, lines


COMMANDS = {
    "validate": cmd_validate,
    "cohomology": cmd_cohomology,
    "specseq": cmd_specseq,
    "koszul": cmd_koszul,
    "hs": cmd_hs,
    "p1": cmd_p1,
}

# Malformed input: exit 2.  Caught before MATH_ERRORS, which holds the base
# classes of MalformedPresentation and MalformedLieAlgebra.
INPUT_ERRORS = (
    SchemaError,
    ComplexError,
    lierinehart.MalformedPresentation,
    hochserre.MalformedLieAlgebra,
    KeyError,
    ValueError,
    TypeError,
)

# A mathematical verdict failed: exit 1.
MATH_ERRORS = (
    lierinehart.PresentationError,
    hochserre.LieAlgebraError,
    koszul.ZeroLocusError,
    cechp1.GluingError,
    cechp1.WindowError,
    cechp1.IrrationalZeroError,
)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liekoszul",
        description="Exact homological computations from structured example files.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("file")
        p.add_argument("--json", dest="json_out", default=None,
                       help="write the machine-readable report to this path")
        if name == "specseq":
            p.add_argument("--filtration", choices=["row", "column"], default="column")
            p.add_argument("--max-page", type=int, default=None)
        if name == "koszul":
            p.add_argument("--weights", default=None, help="weight range a..b")
        if name == "p1":
            p.add_argument("--window", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    started = time.monotonic()
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read example file: {exc}", file=sys.stderr)
        return 2
    if not isinstance(payload, dict) or "kind" not in payload:
        print("error: example file must be an object with a 'kind' field",
              file=sys.stderr)
        return 2

    try:
        report_body, ok, lines = COMMANDS[args.command](payload, args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MATH_ERRORS as exc:
        print(f"verdict failure: {exc}", file=sys.stderr)
        return 1

    name = payload.get("name", args.file)
    print(f"== {args.command} {name} ==")
    for line in lines:
        print(line)
    print(f"result: {'pass' if ok else 'FAIL'}")
    print(f"elapsed: {time.monotonic() - started:.3f}s")

    if args.json_out:
        report = {
            "tool": "liekoszul",
            "command": args.command,
            "example": name,
            "ok": ok,
            "report": report_body,
        }
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
