"""Spans and counts around the public entry points of every liekoszul module.

The program has no tracing of its own, so the benchmark wraps the coarse
entry points of each module from outside: a function is rebound in every
`liekoszul.*` namespace that holds it (the modules use `from .x import y`,
sometimes under another name) and a method is replaced on its class.
Fine-grained helpers such as `ExactMatrix.apply` stay unwrapped, so that the
overhead stays bounded.  Counts are computed from call arguments and
results, so they repeat exactly for the same inputs.  The time spent
computing them is recorded as a HOOK_SPAN child of the calling span, so it
is taken out of that span's self time and charged to no module.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

MODULES = ("exactla", "complexes", "specseq", "lierinehart", "koszul",
           "hochserre", "cechp1", "cli")

# Module -> entry points wrapped in the traced run ("func" or "Class.method").
# `exactla._rref` is private but is the one elimination kernel every public
# exactla routine goes through, so the elimination counts are taken there.
ENTRY_POINTS = {
    "exactla": (
        "_rref", "kernel_basis", "image_basis", "rank", "solve_batch", "induced_map",
        "Subspace.__init__", "Subspace.intersect", "Subspace.preimage_under",
        "Subquotient.__init__", "Subquotient.class_coordinates_batch",
        "ExactMatrix.__matmul__",
    ),
    "complexes": (
        "CochainComplex.__init__", "DoubleComplex.__init__", "FilteredComplex.__init__",
        "ChainMap.__init__", "ChainMap.induced_on_cohomology", "cohomology", "betti",
        "total", "column_filtration", "row_filtration", "is_quasi_isomorphism",
    ),
    "specseq": ("compute_page", "run", "check_convergence", "SpectralSequencePage.__init__"),
    "lierinehart": (
        "ce_d", "contraction", "lie_derivative", "omega_slice_complex", "validate",
        "LieRinehartPresentation.__init__", "LieRinehartPresentation.form_slice",
        "SectionV.__init__",
    ),
    "koszul": (
        "lie_koszul", "reduction_map", "formality_check", "vanishing_check",
        "is_zero_dimensional", "ZeroLocusModel.ideal_slice",
    ),
    "hochserre": (
        "ce_complex", "hs_filtered", "expected_e2", "verify",
        "LieAlgebra.__init__", "LieIdeal.__init__", "GModule.__init__",
    ),
    "cechp1": (
        "cech_koszul", "build_row", "cech_cohomology", "equivariant_H", "first_page",
        "assumption_check", "corollary_check", "second_page_degeneration",
        "atiyah_algebroid", "EquivariantSection.__init__",
    ),
    "cli": (
        "main", "build_lie_algebra", "build_lie_rinehart", "build_p1", "build_raw_complex",
        "build_raw_double", "build_raw_filtration", "cmd_validate", "cmd_cohomology",
        "cmd_specseq", "cmd_koszul", "cmd_hs", "cmd_p1",
    ),
}

# Name of the spans that time the count hooks; they belong to no module.
HOOK_SPAN = "trace.hook"

# Self time of these spans is the cost of checking invariants at construction.
CHECK_SPANS = frozenset({
    "complexes.CochainComplex.__init__", "complexes.DoubleComplex.__init__",
    "complexes.FilteredComplex.__init__", "complexes.ChainMap.__init__",
})


def _count_rref(counts, args, kwargs, result):
    rows = args[0]
    counts["exactla.elim_calls"] += 1
    if rows:
        counts["exactla.elim_cells"] += len(rows) * len(rows[0])
        counts["exactla.elim_nnz"] += sum(1 for row in rows for x in row if x)


def _count_matmul(counts, args, kwargs, result):
    a, b = args
    counts["exactla.matmul_cells"] += a.rows * a.cols * b.cols


def _count_built_matrix(counts, args, kwargs, result):
    counts["lierinehart.entries_built"] += result.rows * result.cols


def _counter(name):
    def hook(counts, args, kwargs, result):
        counts[name] += 1
    return hook


COUNT_HOOKS = {
    "exactla._rref": _count_rref,
    "exactla.ExactMatrix.__matmul__": _count_matmul,
    "specseq.compute_page": _counter("specseq.pages"),
    "specseq.run": _counter("specseq.runs"),
    "cechp1.cech_koszul": _counter("cechp1.models_built"),
    "lierinehart.ce_d": _count_built_matrix,
    "lierinehart.contraction": _count_built_matrix,
    "koszul.lie_koszul": _counter("koszul.slices"),
    "hochserre.ce_complex": _counter("hochserre.complexes_built"),
}


class Tracer:
    """Records spans (name, start, end, parent, job) while installed.

    Spans live in memory; `write_jsonl` writes them out at the end.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.jobs: list[str] = []
        self.counts: Counter = Counter()
        self.job = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        names, starts, ends = self.names, self.starts, self.ends
        parents, jobs, stack = self.parents, self.jobs, self._stack
        counts = self.counts
        hook = COUNT_HOOKS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook_started = clock()
                hook(counts, args, kwargs, result)
                names.append(HOOK_SPAN)
                parents.append(stack[-1] if stack else -1)
                jobs.append(self.job)
                starts.append(hook_started)
                ends.append(clock())
            return result

        return traced

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def install(self) -> None:
        """Wrap every entry point in ENTRY_POINTS of the imported package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if (n == "liekoszul" or n.startswith("liekoszul.")) and m is not None]
        for module, entries in ENTRY_POINTS.items():
            mod = sys.modules[f"liekoszul.{module}"]
            for entry in entries:
                name = f"{module}.{entry}"
                if "." in entry:
                    cls_name, meth = entry.split(".")
                    cls = getattr(mod, cls_name)
                    self._set(cls, meth, self._wrap(name, cls.__dict__[meth]))
                    continue
                original = getattr(mod, entry)
                wrapper = self._wrap(name, original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._set(ns, attr, wrapper)
                # cli dispatches through its COMMANDS table, not by name
                commands = sys.modules["liekoszul.cli"].COMMANDS
                for key, fn in list(commands.items()):
                    if fn is original:
                        self._set(commands, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- output ---------------------------------------------------------------

    def spans(self):
        """(name, start, end, parent index, job id) for every recorded span."""
        return list(zip(self.names, self.starts, self.ends, self.parents, self.jobs))

    def write_jsonl(self, fh) -> None:
        """Write one JSON line per span; `parent` is the parent's `id` or -1."""
        for i, (name, start, end, parent, job) in enumerate(self.spans()):
            fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                 "parent": parent, "job": job}) + "\n")


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for name, start, end, parent, job in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [(end - start) - _union_length(children.get(i, ()), start, end)
            for i, (name, start, end, parent, job) in enumerate(spans)]


def layer_metrics(spans, counts: Counter, jobs: int,
                  scale: dict | None = None) -> dict[str, float]:
    """Per-layer metrics of one pass: self time and calls per module, the
    construction-check self time, and the counts of COUNT_HOOKS.  Self times
    are multiplied by `scale[job]` when given (the speed correction).
    HOOK_SPAN spans only take their time out of their parent's."""
    out: dict[str, float] = {}
    for module in MODULES:
        out[f"{module}.self_s"] = 0.0
        out[f"{module}.calls"] = 0
    out["complexes.check_s"] = 0.0
    for (name, _, _, _, job), own in zip(spans, self_times(spans)):
        if name == HOOK_SPAN:
            continue
        if scale is not None:
            own *= scale[job]
        module = name.split(".", 1)[0]
        out[f"{module}.self_s"] += own
        out[f"{module}.calls"] += 1
        if name in CHECK_SPANS:
            out["complexes.check_s"] += own
    for key in ("exactla.elim_calls", "exactla.elim_cells", "exactla.elim_nnz",
                "exactla.matmul_cells", "specseq.pages", "specseq.runs",
                "cechp1.models_built", "lierinehart.entries_built", "koszul.slices",
                "hochserre.complexes_built"):
        out[key] = counts.get(key, 0)
    out["cechp1.models_per_job"] = out["cechp1.models_built"] / jobs if jobs else 0.0
    return out
