"""Batch front end: read a structured example file, run computations,
print a text report and optionally write a machine-readable JSON report.

One file holds one example.  Exit codes: 0 all verdicts pass, 1 a
mathematical verdict failed (including gluing/validation failures),
2 input or schema error, 3 an internal error (a bug).  The JSON report
is deterministic (sorted keys, no timings); wall-clock timings go to
stdout only.
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
    total,
)
from .exactla import ExactMatrix, Subspace, integer, integers, qq, sized
from .specseq import compute_page, run as ss_run


class SchemaError(Exception):
    pass


def _grid_key(pq) -> str:
    return f"{pq[0]},{pq[1]}"


def _grid_json(grid: dict) -> dict:
    return {_grid_key(k): v for k, v in sorted(grid.items())}


def _degree_json(dims: dict) -> dict:
    """A degree -> dim table for the JSON report: string keys, in degree order."""
    return {str(k): v for k, v in sorted(dims.items())}


def _h_line(dims: dict) -> str:
    """A degree -> dim table for the text report: "H^k=v ...", in degree order."""
    return " ".join(f"H^{k}={v}" for k, v in sorted(dims.items()))


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
    return sized(_need(payload, key), length, f"field {key!r}", SchemaError)


def _list(payload: dict, key: str, field: str) -> list:
    """The list field `key` of `payload`, named `field` in messages."""
    value = _need(payload, key)
    if not isinstance(value, list):
        raise SchemaError(f"field {field!r} must be a list, got {type(value).__name__}")
    return value


def _object(payload: dict, key: str, field: str) -> dict:
    """The object field `key` of `payload`, named `field` in messages."""
    value = _need(payload, key)
    if not isinstance(value, dict):
        raise SchemaError(f"field {field!r} must be an object, got {type(value).__name__}")
    return value


def _integer(value, field: str) -> int:
    """The value of the integer field `field`, a JSON number with no
    fractional part."""
    return integer(value, f"field {field!r}", SchemaError)


def _count(value, field: str) -> int:
    """The value of the count field `field`, an integer that is not negative."""
    n = _integer(value, field)
    if n < 0:
        raise SchemaError(f"field {field!r} must be a nonnegative integer, got {value!r}")
    return n


def _boolean(value, field: str) -> bool:
    """The value of the boolean field `field`, a JSON true or false."""
    if type(value) is bool:
        return value
    raise SchemaError(f"field {field!r} must be true or false, got {value!r}")


def _rationals(field: str, read, *args):
    """read(*args), with an entry that `qq` cannot read named as in the
    field `field`; `read` may be `list` over a lazy `map(qq, ...)`."""
    try:
        return read(*args)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"field {field!r}: {exc}") from None


def _matrix(data, rows: int, cols: int, field: str) -> ExactMatrix:
    """The matrix field `field`: a list of `rows` lists of `cols` entries."""
    if (not isinstance(data, list) or len(data) != rows
            or any(not isinstance(r, list) or len(r) != cols for r in data)):
        raise SchemaError(f"field {field!r} must be a {rows}x{cols} matrix, a list of rows")
    return _rationals(field, ExactMatrix.from_rows, data)


def _subspace(vectors, dim: int, field: str) -> Subspace:
    """The span of the field `field`: a list of vectors of length `dim`."""
    if not isinstance(vectors, list) or any(not isinstance(v, list) or len(v) != dim
                                            for v in vectors):
        raise SchemaError(f"field {field!r} must be a list of vectors of length {dim}")
    return _rationals(field, Subspace, dim, vectors)


# -- builders per kind ---------------------------------------------------------


def build_lie_algebra(payload: dict):
    dim = _count(_need(payload, "dim"), "dim")
    g = hochserre.LieAlgebra(dim, payload.get("brackets", {}))
    ideal = None
    if "ideal" in payload:
        ideal = hochserre.LieIdeal(g, _subspace(payload["ideal"], dim, "ideal"))
    if "module" in payload:
        mdata = _object(payload, "module", "module")
        mdim = _count(_need(mdata, "dim"), "module.dim")
        actions = [_matrix(a, mdim, mdim, f"module.actions[{i}]")
                   for i, a in enumerate(_list(mdata, "actions", "module.actions"))]
        module = hochserre.GModule(g, mdim, actions)
    else:
        module = hochserre.GModule.trivial(g)
    return g, ideal, module


def build_lie_rinehart(payload: dict):
    weights = tuple(_integer(w, "variable_weights")
                    for w in _list(payload, "variable_weights", "variable_weights"))
    ring = lierinehart.WeightedPolyRing(len(weights), weights)
    lr = lierinehart.LieRinehartPresentation(
        ring,
        [_integer(w, "generator_weights")
         for w in _list(payload, "generator_weights", "generator_weights")],
        _list(payload, "anchor", "anchor"),
        payload.get("brackets", {}),
    )
    section = None
    if "section" in payload:
        section = lierinehart.SectionV(lr, _list(payload, "section", "section"))
    return lr, section


def build_p1(payload: dict):
    algebroid = cechp1.atiyah_algebroid(_integer(_need(payload, "degree"), "degree"))
    scalar = payload.get("scalar_part")
    if scalar is not None:
        if not isinstance(scalar, list) or len(scalar) > 2:
            raise SchemaError("field 'scalar_part' must be a list of at most 2 entries "
                              "(alpha + beta z)")
        scalar = _rationals("scalar_part", list, map(qq, scalar))
    section = cechp1.EquivariantSection(
        algebroid, _rationals("vector_field", list, map(qq, _sized(payload, "vector_field", 3))),
        scalar)
    untwisted = _boolean(payload.get("untwisted", False), "untwisted")
    window = _integer(payload.get("window", 2), "window")
    return algebroid, section, untwisted, window


def build_raw_complex(payload: dict):
    dims = [_count(d, "dims") for d in _list(payload, "dims", "dims")]
    if not dims:
        raise SchemaError("field 'dims' must list at least one degree")
    lo = _integer(payload.get("lo", 0), "lo")
    hi = lo + len(dims) - 1
    mats = _list(payload, "differentials", "differentials")
    if len(mats) != len(dims) - 1:
        raise SchemaError("need one differential per adjacent pair of degrees")
    diffs = [_matrix(mat, dims[i + 1], dims[i], f"differentials[{i}]")
             for i, mat in enumerate(mats)]
    return CochainComplex(lo, hi, dims, diffs)


def build_raw_double(payload: dict) -> DoubleComplex:
    block = _object(payload, "double", "double")
    p_lo, p_hi, q_lo, q_hi = (_integer(_need(block, key), f"double.{key}")
                              for key in ("p_lo", "p_hi", "q_lo", "q_hi"))
    for axis, lo, hi in (("p", p_lo, p_hi), ("q", q_lo, q_hi)):
        if hi < lo:
            raise SchemaError(f"empty rectangle: double.{axis}_hi {hi} < double.{axis}_lo {lo}")

    def cell(key, field):
        p, q = integers(key, 2, f"{field} key", SchemaError)
        if not (p_lo <= p <= p_hi and q_lo <= q <= q_hi):
            raise SchemaError(f"{field} key {key!r} is outside the rectangle "
                              f"p {p_lo}..{p_hi}, q {q_lo}..{q_hi}")
        return p, q

    dims = {}
    for key, d in _object(block, "dims", "double.dims").items():
        dims[cell(key, "double.dims")] = _count(d, "double.dims")

    def read_maps(field, shape):
        out = {}
        maps = _object(block, field, f"double.{field}") if field in block else {}
        for key, mat in maps.items():
            p, q = cell(key, f"double.{field}")
            rows, cols = shape(p, q)
            out[(p, q)] = _matrix(mat, rows, cols, f"double.{field}[{key}]")
        return out

    horiz = read_maps("horizontal",
                      lambda p, q: (dims.get((p + 1, q), 0), dims.get((p, q), 0)))
    vert = read_maps("vertical",
                     lambda p, q: (dims.get((p, q + 1), 0), dims.get((p, q), 0)))
    if _boolean(block.get("commuting", False), "double.commuting"):
        return DoubleComplex.from_commuting(p_lo, p_hi, q_lo, q_hi, dims, horiz, vert)
    return DoubleComplex(p_lo, p_hi, q_lo, q_hi, dims, horiz, vert)


def _read_raw(payload: dict) -> tuple[CochainComplex, DoubleComplex | None]:
    """The complex of a raw_complex file: the total complex of its `double`
    block if it has one (returned too), else its `dims` and `differentials`."""
    if "double" in payload:
        double = build_raw_double(payload)
        return total(double), double
    return build_raw_complex(payload), None


def build_raw_filtration(payload: dict, cplx: CochainComplex) -> FilteredComplex:
    block = _object(payload, "filtration", "filtration")
    p_lo, p_hi = (_integer(_need(block, key), f"filtration.{key}") for key in ("p_lo", "p_hi"))
    if p_hi < p_lo:
        raise SchemaError(f"empty filtration range: filtration.p_hi {p_hi} < p_lo {p_lo}")
    levels = {}
    for key, vectors in _object(block, "spaces", "filtration.spaces").items():
        p, n = integers(key, 2, "filtration.spaces key", SchemaError)
        if not (p_lo <= p <= p_hi + 1 and cplx.lo <= n <= cplx.hi):
            raise SchemaError(f"filtration.spaces key {key!r} is outside levels "
                              f"{p_lo}..{p_hi + 1} and degrees {cplx.lo}..{cplx.hi}")
        levels[(p, n)] = _subspace(vectors, cplx.dim(n), f"filtration.spaces[{key}]")
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


def _require_valid(lr) -> None:
    """Raise PresentationError (exit 1) on the first identity that `lr`
    breaks, as `validate` reports it: a verdict failure, raised before any
    complex is built on an object that is no Lie-Rinehart algebra (a form
    complex would fail d.d = 0, and koszul would print verdicts about it)."""
    failures = lierinehart.validate(lr).failures
    if failures:
        raise lierinehart.PresentationError(
            f"{failures[0].identity} fails: {failures[0].witness}")


def cmd_cohomology(payload: dict, args) -> tuple[dict, bool, list[str]]:
    kind = payload["kind"]
    lines = []
    if kind == "raw_complex":
        dims = betti(_read_raw(payload)[0])
        lines.append("cohomology dims: " + _h_line(dims))
        return {"betti": _degree_json(dims)}, True, lines
    if kind == "lie_algebra":
        g, _, module = build_lie_algebra(payload)
        dims = betti(hochserre.ce_complex(g, module))
        lines.append("cohomology dims: " + _h_line(dims))
        return {"betti": _degree_json(dims)}, True, lines
    if kind == "lie_rinehart":
        lr, _ = build_lie_rinehart(payload)
        _require_valid(lr)
        lo, hi = _weight_range(payload, args)
        table = {}
        for w in range(lo, hi + 1):
            dims = betti(lierinehart.omega_slice_complex(lr, w))
            table[str(w)] = _degree_json(dims)
            lines.append(f"weight {w}: " + _h_line(dims))
        return {"betti_per_weight": table}, True, lines
    raise SchemaError(f"cohomology does not apply to kind {kind!r}")


def _bound(text: str, rng: str) -> int:
    """One bound of `--weights a..b`, read as `int` reads it."""
    try:
        return int(text)
    except ValueError:
        raise SchemaError(f"--weights bound {text!r} in {rng!r} is not an integer") from None


def _weight_range(payload: dict, args) -> tuple[int, int]:
    rng = getattr(args, "weights", None)
    if rng is not None:
        parts = rng.split("..")
        if len(parts) != 2:
            raise SchemaError(f"--weights must be a range 'a..b', got {rng!r}")
        lo, hi, field = _bound(parts[0], rng), _bound(parts[1], rng), "--weights"
    elif "weights" not in payload:
        return 0, 3
    else:
        lo, hi = _sized(payload, "weights", 2)
        lo, hi, field = _integer(lo, "weights"), _integer(hi, "weights"), "'weights'"
    if lo > hi:
        raise SchemaError(f"{field} range {lo}..{hi} is empty")
    return lo, hi


# E_inf totals are the Betti numbers by the pairing, so the report states
# convergence rather than checking it; the tests compare with `betti`.
_CONVERGENT = "convergent: True (an identity of the pairing)"


def cmd_specseq(payload: dict, args) -> tuple[dict, bool, list[str]]:
    if payload["kind"] != "raw_complex":
        raise SchemaError("specseq applies to kind 'raw_complex'")
    if args.max_page is not None and args.max_page < 0:
        raise SchemaError(f"--max-page must be nonnegative, got {args.max_page}")
    cplx, double = _read_raw(payload)
    if double is None:
        filt = build_raw_filtration(payload, cplx)
    else:
        filt = (column_filtration(double) if args.filtration == "column"
                else row_filtration(double))
    result = ss_run(filt)
    last = filt.width + 1 if args.max_page is None else min(args.max_page, filt.width + 1)
    lines = []
    pages_out = {}
    for r in range(last + 1):
        grid = compute_page(result, r).nonzero_dims()
        pages_out[str(r)] = _grid_json(grid)
        lines.extend(_format_grid(grid, f"page r={r}:"))
    degeneration = result.degeneration_page
    lines.append(f"stable page: {degeneration}; degeneration page: {degeneration}; "
                 f"{_CONVERGENT}")
    report = {
        "pages": pages_out,
        "stable_page": degeneration,
        "degeneration_page": degeneration,
        "convergent": True,
        "infinity_totals": _degree_json(result.infinity_totals()),
    }
    return report, True, lines


def cmd_koszul(payload: dict, args) -> tuple[dict, bool, list[str]]:
    if payload["kind"] != "lie_rinehart":
        raise SchemaError("koszul applies to kind 'lie_rinehart'")
    lr, section = build_lie_rinehart(payload)
    if section is None:
        raise SchemaError("koszul needs a 'section' field")
    lo, hi = _weight_range(payload, args)
    asserted = "dim_y" in payload
    dim_y = _count(payload["dim_y"], "dim_y") if asserted else None
    _require_valid(lr)
    formality = koszul.formality_check(lr, section, range(lo, hi + 1))
    tables = {s.w: s.source_betti for s in formality.slices}
    lines = []
    slice_dims = {}
    for w, dims in tables.items():
        slice_dims[str(w)] = _degree_json(dims)
        lines.append(f"weight {w}: " + _h_line(dims))
    if not asserted:
        try:
            dim_y = 0 if koszul.is_zero_dimensional(section, hi + 2) else None
        except koszul.InconclusiveError:
            pass
    dim_y_source = "asserted" if asserted else "certified" if dim_y == 0 else "unknown"
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
    lines.append("limit totals:  " + _h_line(hs.infinity_totals))
    lines.append(f"verdict: {'pass' if hs.ok else 'fail'}")
    report = {
        "expected_e2": _grid_json(hs.expected_e2),
        "computed_e2": _grid_json(hs.computed_e2),
        "infinity_totals": _degree_json(hs.infinity_totals),
        "betti": _degree_json(hs.infinity_totals),
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
    model = cechp1.window_checked(algebroid, section, window, untwisted)
    lines = [f"degree {algebroid.degree}, window {window}"
             + (", untwisted" if untwisted else "")]
    fp = cechp1.first_page(model)
    lines.extend(_format_grid({k: v for k, v in fp.grid.items() if v},
                              "first page (wedge p, cech q):"))
    d1 = {k: v for k, v in fp.d1_ranks.items() if v}
    lines.append(f"observed d1 ranks: {_grid_json(d1) if d1 else 'all zero'}")
    hdims = cechp1.equivariant_H(model)
    lines.append("equivariant cohomology: " + _h_line(hdims))
    assumption = cechp1.assumption_check(section)
    lines.append(f"assumption (simple zeros): {assumption}")
    match = True
    report = {
        "degree": algebroid.degree,
        "untwisted": untwisted,
        "window": window,
        "first_page": _grid_json(fp.grid),
        "d1_ranks": _grid_json(fp.d1_ranks),
        "equivariant_h": _degree_json(hdims),
        "assumption": assumption,
    }
    if assumption:
        cor = cechp1.corollary_check(model)
        lines.append(f"fixed points: {[str(p) for p in cor.fixed_points]}")
        lines.append("fixed-point prediction: " + _h_line(cor.predicted))
        lines.append(f"corollary match: {cor.match}")
        report["fixed_points"] = [str(p) for p in cor.fixed_points]
        report["corollary_predicted"] = _degree_json(cor.predicted)
        report["corollary_match"] = cor.match
        match = cor.match
    degen = cechp1.second_page_degeneration(model)
    lines.append(f"degeneration page (Cech degree): {degen.degeneration_page}; "
                 f"E2 = Einf; both by dimension (two Cech levels); {_CONVERGENT}")
    report["degeneration_page"] = degen.degeneration_page
    report["degeneration_ok"] = degen.ok
    report["e2"] = _grid_json(degen.e2_dims)
    return report, match and degen.ok, lines


COMMANDS = {
    "validate": cmd_validate,
    "cohomology": cmd_cohomology,
    "specseq": cmd_specseq,
    "koszul": cmd_koszul,
    "hs": cmd_hs,
    "p1": cmd_p1,
}

# Malformed input: exit 2.  Caught before MATH_ERRORS, which holds the base
# classes of MalformedPresentation and MalformedLieAlgebra.  Every input
# reader raises one of these, so a bare KeyError, ValueError or TypeError is
# a fault of the program (exit 3), not of the input.
INPUT_ERRORS = (
    SchemaError,
    ComplexError,
    lierinehart.MalformedPresentation,
    hochserre.MalformedLieAlgebra,
)

# A mathematical verdict failed: exit 1.
MATH_ERRORS = (
    lierinehart.PresentationError,
    hochserre.LieAlgebraError,
    koszul.ZeroLocusError,
    cechp1.GluingError,
    cechp1.WindowError,
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
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: invalid JSON or UTF-8; RecursionError: nesting too deep
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
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

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
