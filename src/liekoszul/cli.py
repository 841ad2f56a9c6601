"""Batch front end: read a structured example file, run computations,
print a text report and optionally write a machine-readable JSON report.

Each command returns its report once, as a dict of the library's values
and a verdict (True, False, or None where nothing could fail); the text
report and the JSON report are both rendered from that dict.

One file holds one example.  The class of an exception sets the exit
code: 1 a `VerdictError`, 2 an `InputError`, 3 any other (a bug); 0 when
nothing was raised and no verdict failed.  The JSON report is
deterministic (sorted keys, no timings); wall-clock timings go to stdout
only.
"""

from __future__ import annotations

import json
import sys
import time
from json.encoder import encode_basestring_ascii as _quote
from types import SimpleNamespace

from . import cechp1, hochserre, koszul, lierinehart
from .complexes import (
    CochainComplex,
    DoubleComplex,
    FilteredComplex,
    betti,
    column_filtration,
    row_filtration,
    total,
)
from .exactla import (ExactMatrix, InputError, Subspace, VerdictError, _built, _sparse, integer,
                      integers, qq, sized)
from .specseq import compute_page, run as ss_run


class SchemaError(InputError):
    pass


def _spell(value) -> str:
    """`value` in its JSON spelling.  Bools and ints are spelled directly:
    a json.dumps per scalar is a measurable share of a small job."""
    if type(value) is int:
        return str(value)
    if type(value) is bool:
        return "true" if value else "false"
    return json.dumps(value)


def _dump(value, indent: str = "\n") -> str:
    """`value` as `json.dumps(..., indent=2, sort_keys=True)` spells it once
    a (p, q) key becomes "p,q" and any other key its str, in every table,
    built in one pass: `json.dump` with an indent runs the pure-Python
    encoder and writes once per token.  `indent` is the newline and the
    indentation of `value`'s own line."""
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        table = {(f"{k[0]},{k[1]}" if type(k) is tuple else str(k)): v for k, v in value.items()}
        return ("{" + ",".join(f"{inner}{_quote(k)}: {_dump(v, inner)}"
                               for k, v in sorted(table.items())) + indent + "}")
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        return "[" + ",".join(inner + _dump(v, inner) for v in value) + indent + "]"
    if type(value) is str:
        return _quote(value)
    return _spell(value)


def _text(key, value, indent: str = "") -> str:
    """The text report's entry `key: value`: a (p, q) grid as a q\\p table,
    a table of tables one indented entry per key, a flat table as
    "k=v ..." in key order, and any other value in its JSON spelling."""
    head = f"{indent}{key}:"
    if not isinstance(value, dict) or not value:
        return f"{head} {_spell(value)}"
    indent += "  "
    first_key, first = next(iter(value.items()))
    if type(first_key) is tuple:
        ps = sorted({p for p, _ in value})
        rows = [head, f"{indent}q\\p " + " ".join(f"{p:>4}" for p in ps)]
        rows.extend(f"{indent}{q:>3} " + " ".join(f"{value.get((p, q), 0):>4}" for p in ps)
                    for q in sorted({q for _, q in value}, reverse=True))
        return "\n".join(rows)
    items = sorted(value.items())
    if isinstance(first, dict):
        return "\n".join([head, *(_text(k, v, indent) for k, v in items)])
    return f"{head} " + " ".join(f"{k}={_spell(v)}" for k, v in items)


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


def _rows(vectors, dim: int, field: str, parsed: dict) -> list:
    """The sparse rows of the field `field`: a list of vectors of length
    `dim`.  `parsed` maps the repr of each vector read so far to its row,
    so a vector repeated in one file is read once and a bad entry is named
    at its first key; a repr tells 1, 1.0 and true apart, which compare
    equal, and needs no hashable entry."""
    if not isinstance(vectors, list) or any(not isinstance(v, list) or len(v) != dim
                                            for v in vectors):
        raise SchemaError(f"field {field!r} must be a list of vectors of length {dim}")
    rows = []
    for v in vectors:
        text = repr(v)
        row = parsed.get(text)
        if row is None:
            row = parsed[text] = _rationals(field, _sparse, v)
        rows.append(row)
    return rows


def _subspace(vectors, dim: int, field: str) -> Subspace:
    """The span of the field `field`: a list of vectors of length `dim`."""
    return _built(Subspace, dim, _rows(vectors, dim, field, {}))


def _cell(key, field: str, seen: dict) -> tuple[int, int]:
    """The cell (a, b) that the key "a,b" of the object field `field`
    names.  `seen` maps each cell named so far to its key, so a second key
    for one cell, such as "0, 1" beside "0,1", raises naming both."""
    cell = integers(key, 2, f"{field} key", SchemaError)
    first = seen.setdefault(cell, key)
    if first != key:
        raise SchemaError(f"{field} keys {first!r} and {key!r} name the same cell {cell}")
    return cell


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


# The most cells a raw double's rectangle may have.  `cohomology` and
# `specseq` walk every cell of it, listed in `dims` or not: 2 x 8,192 cells
# run in at most 0.45 s and 22 MB (one job on 2 vCPUs, Python 3.11), and
# 2 x 10^6 would take minutes and gigabytes.
RAW_DOUBLE_CELL_CAP = 16384


def build_raw_double(payload: dict) -> DoubleComplex:
    block = _object(payload, "double", "double")
    p_lo, p_hi, q_lo, q_hi = (_integer(_need(block, key), f"double.{key}")
                              for key in ("p_lo", "p_hi", "q_lo", "q_hi"))
    for axis, lo, hi in (("p", p_lo, p_hi), ("q", q_lo, q_hi)):
        if hi < lo:
            raise SchemaError(f"empty rectangle: double.{axis}_hi {hi} < double.{axis}_lo {lo}")
    cells = (p_hi - p_lo + 1) * (q_hi - q_lo + 1)
    if cells > RAW_DOUBLE_CELL_CAP:
        raise SchemaError(f"double rectangle must have at most {RAW_DOUBLE_CELL_CAP} cells, "
                          f"got {cells}")

    def cell(key, field, seen):
        p, q = _cell(key, field, seen)
        if not (p_lo <= p <= p_hi and q_lo <= q <= q_hi):
            raise SchemaError(f"{field} key {key!r} is outside the rectangle "
                              f"p {p_lo}..{p_hi}, q {q_lo}..{q_hi}")
        return p, q

    dims, seen = {}, {}
    for key, d in _object(block, "dims", "double.dims").items():
        dims[cell(key, "double.dims", seen)] = _count(d, "double.dims")

    def read_maps(field, shape):
        out, seen = {}, {}
        maps = _object(block, field, f"double.{field}") if field in block else {}
        for key, mat in maps.items():
            p, q = cell(key, f"double.{field}", seen)
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
    spaces, seen, parsed = {}, {}, {}
    for key, vectors in _object(block, "spaces", "filtration.spaces").items():
        p, n = _cell(key, "filtration.spaces", seen)
        if not (p_lo <= p <= p_hi + 1 and cplx.lo <= n <= cplx.hi):
            raise SchemaError(f"filtration.spaces key {key!r} is outside levels "
                              f"{p_lo}..{p_hi + 1} and degrees {cplx.lo}..{cplx.hi}")
        spaces[(p, n)] = _rows(vectors, cplx.dim(n), f"filtration.spaces[{key}]", parsed)
    return FilteredComplex.from_flag(cplx, p_lo, p_hi, spaces)


# -- command handlers -----------------------------------------------------------


def cmd_validate(payload: dict, args) -> tuple[dict, bool]:
    kind = payload["kind"]
    if kind == "lie_algebra":
        build_lie_algebra(payload)  # constructors check all identities
        return {"verdict": True}, True
    if kind == "lie_rinehart":
        lr, _ = build_lie_rinehart(payload)
        report = lierinehart.validate(lr)
        failures = [{"identity": f.identity, "witness": f.witness} for f in report.failures]
        return {"verdict": report.ok, "failures": failures}, report.ok
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


def cmd_cohomology(payload: dict, args) -> tuple[dict, None]:
    """Betti numbers, which no verdict checks."""
    kind = payload["kind"]
    if kind == "raw_complex":
        return {"betti": betti(_read_raw(payload)[0])}, None
    if kind == "lie_algebra":
        g, _, module = build_lie_algebra(payload)
        return {"betti": betti(hochserre.ce_complex(g, module))}, None
    if kind == "lie_rinehart":
        lr, _ = build_lie_rinehart(payload)
        _require_valid(lr)
        lo, hi = _weight_range(payload, args)
        return {"betti_per_weight": {w: betti(lierinehart.omega_slice_complex(lr, w))
                                     for w in range(lo, hi + 1)}}, None
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


def cmd_specseq(payload: dict, args) -> tuple[dict, None]:
    """The pages of one pairing, which no verdict checks."""
    if payload["kind"] != "raw_complex":
        raise SchemaError("specseq applies to kind 'raw_complex'")
    if args.max_page is not None and args.max_page < 0:
        raise SchemaError(f"--max-page must be nonnegative, got {args.max_page}")
    if args.filtration not in (None, "row", "column"):
        raise SchemaError(f"--filtration must be row or column, got {args.filtration!r}")
    if args.filtration is not None and "double" not in payload:
        raise SchemaError("--filtration applies only to a file with a 'double' block")
    cplx, double = _read_raw(payload)
    if double is None:
        filt = build_raw_filtration(payload, cplx)
    else:
        filt = (row_filtration if args.filtration == "row" else column_filtration)(double)
    result = ss_run(filt)
    last = filt.width + 1 if args.max_page is None else min(args.max_page, filt.width + 1)
    degeneration = result.degeneration_page
    # E_inf totals are the Betti numbers by the pairing, so the report states
    # convergence rather than checking it; the tests compare with `betti`.
    return {
        "pages": {r: compute_page(result, r).grid for r in range(last + 1)},
        "stable_page": degeneration,
        "degeneration_page": degeneration,
        "convergent": True,
        "infinity_totals": result.infinity_totals(),
    }, None


def cmd_koszul(payload: dict, args) -> tuple[dict, bool]:
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
    if not asserted:
        dim_y = 0 if koszul.is_zero_dimensional(section, hi + 2) else None
    values = {
        "slice_cohomology": tables,
        "formality": formality.ok,
        "formality_per_weight": {s.w: s.ok for s in formality.slices},
        "dim_y": dim_y,
        "dim_y_source": "asserted" if asserted else "certified" if dim_y == 0 else "unknown",
    }
    if dim_y is None or lr.rank > lr.ring.nvars:
        # no vanishing theorem to check: `koszul.vanishing_check` needs dim Y
        # and at most as many generators as variables
        return values, formality.ok
    vr = koszul.vanishing_check(tables, dim_y)
    values["vanishing"] = vr.ok
    values["vanishing_violations"] = vr.violations
    return values, formality.ok and vr.ok


def cmd_hs(payload: dict, args) -> tuple[dict, bool]:
    if payload["kind"] != "lie_algebra":
        raise SchemaError("hs applies to kind 'lie_algebra'")
    g, ideal, module = build_lie_algebra(payload)
    if ideal is None:
        raise SchemaError("hs needs an 'ideal' field")
    hs = hochserre.verify(g, ideal, module)
    return {
        "expected_e2": hs.expected_e2,
        "computed_e2": hs.computed_e2,
        "infinity_totals": hs.infinity_totals,
        "betti": hs.infinity_totals,
        "verdict": hs.ok,
    }, hs.ok


# The largest `p1` window.  Window 4,096 runs in about 0.5 s and peaks near
# 90 MB (one job on 2 vCPUs, Python 3.11); window 10^6 runs out of memory.
P1_WINDOW_CAP = 4096


def cmd_p1(payload: dict, args) -> tuple[dict, bool | None]:
    if payload["kind"] != "p1_bundle":
        raise SchemaError("p1 applies to kind 'p1_bundle'")
    algebroid, section, untwisted, window = build_p1(payload)
    if args.window is not None:
        window = args.window
    if window < 1:
        raise SchemaError(f"window must be at least 1, got {window}")
    if window > P1_WINDOW_CAP:
        raise SchemaError(f"window must be at most {P1_WINDOW_CAP}, got {window}")
    model = cechp1.window_checked(algebroid, section, window, untwisted)
    cor = cechp1.corollary_check(model)
    values = {
        "degree": algebroid.degree,
        "window": window,
        "untwisted": untwisted,
        "first_page": algebroid.row_grid(untwisted),
        "d1_ranks": cechp1.first_page(model),
        "equivariant_h": cechp1.equivariant_H(model),
        "assumption": cor is not None,
    }
    match = None
    if cor is not None:
        values["fixed_points"] = [str(p) for p in cor.fixed_points]
        values["corollary_predicted"] = cor.predicted
        values["corollary_match"] = match = cor.match
    cech = cechp1.second_page_degeneration(model)
    values["degeneration_page"] = cech.degeneration_page
    values["degeneration_ok"] = cech.degeneration_page <= 2   # by dimension, not a verdict
    values["e2"] = dict(cech.unpaired)
    return values, match


COMMANDS = {
    "validate": cmd_validate,
    "cohomology": cmd_cohomology,
    "specseq": cmd_specseq,
    "koszul": cmd_koszul,
    "hs": cmd_hs,
    "p1": cmd_p1,
}


# The options of each command: option -> (attribute of `args`, reader of
# its value, the value in the usage).  Only `int` can refuse a value.
_JSON = ("json_out", str, "PATH")
OPTIONS = {
    "validate": {"--json": _JSON},
    "cohomology": {"--json": _JSON},
    "specseq": {"--json": _JSON, "--filtration": ("filtration", str, "row|column"),
                "--max-page": ("max_page", int, "N")},
    "koszul": {"--json": _JSON, "--weights": ("weights", str, "a..b")},
    "hs": {"--json": _JSON},
    "p1": {"--json": _JSON, "--window": ("window", int, "N")},
}


def _command_line(argv: list) -> tuple[str, str, SimpleNamespace]:
    """The command, the example file and the options of a command line:
    `--opt value` or `--opt=value`, before or after the file, the last of a
    repeated option winning.  An option is spelled out in full."""
    if not argv or argv[0] not in COMMANDS:
        got = repr(argv[0]) if argv else "none"
        raise SchemaError(f"the command must be one of {', '.join(COMMANDS)}, got {got} "
                          "(-h for usage)")
    command, words, table = argv[0], iter(argv[1:]), OPTIONS[argv[0]]
    args = SimpleNamespace(**{dest: None for dest, _, _ in table.values()})
    files = []
    for word in words:
        if not word.startswith("-"):
            files.append(word)
            continue
        option, eq, text = word.partition("=")
        if option not in table:
            raise SchemaError(f"{command} takes no option {option!r}; it takes {', '.join(table)}")
        if not eq and (text := next(words, None)) is None:
            raise SchemaError(f"option {option} needs a value")
        dest, read, _ = table[option]
        try:
            setattr(args, dest, read(text))
        except ValueError:
            raise SchemaError(f"option {option} takes an integer, got {text!r}") from None
    if len(files) != 1:
        raise SchemaError(f"{command} takes one example file, got {len(files)}")
    return command, files[0], args


def _unique(pairs: list) -> dict:
    """The object of the (key, value) pairs of a JSON object, which must not
    write a key twice: `json` alone would keep the last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        raise SchemaError(f"key {next(k for k in keys if keys.count(k) > 1)!r} "
                          "is written twice in one object")
    return obj


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print("usage: liekoszul COMMAND FILE [OPTION VALUE | OPTION=VALUE ...]")
        for command, table in OPTIONS.items():
            print(f"  liekoszul {command} FILE" + "".join(
                f" [{option} {meta}]" for option, (_, _, meta) in table.items()))
        return 0

    started = time.monotonic()
    try:
        command, path, args = _command_line(argv)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh, object_pairs_hook=_unique)
        except (OSError, ValueError, RecursionError) as exc:
            # ValueError: invalid JSON or UTF-8; RecursionError: nesting too deep
            raise SchemaError(f"cannot read example file: {exc}") from None
        if not isinstance(payload, dict) or "kind" not in payload:
            raise SchemaError("example file must be an object with a 'kind' field")
        name = payload.get("name", path)
        if not isinstance(name, str):
            raise SchemaError(f"field 'name' must be a string, got {type(name).__name__}")
        values, ok = COMMANDS[command](payload, args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerdictError as exc:
        print(f"verdict failure: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    print("\n".join([f"== {command} {name} ==",
                     *(_text(key, value) for key, value in values.items()),
                     f"result: {'no verdict' if ok is None else 'pass' if ok else 'FAIL'}",
                     f"elapsed: {time.monotonic() - started:.3f}s"]))

    if args.json_out:
        report = {
            "tool": "liekoszul",
            "command": command,
            "example": name,
            "ok": ok is not False,
            "report": values,
        }
        try:
            with open(args.json_out, "w", encoding="utf-8") as fh:
                fh.write(_dump(report) + "\n")
        except OSError as exc:
            print(f"error: cannot write the JSON report: {exc}", file=sys.stderr)
            return 2
    return 1 if ok is False else 0


if __name__ == "__main__":
    sys.exit(main())
