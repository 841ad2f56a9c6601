"""Spectral sequence of a bounded filtered cochain complex.

Serre cohomological convention: d_r has bidegree (r, 1-r).  Every page
comes from one persistence pairing (Edelsbrunner, Letscher & Zomorodian
2002; Zomorodian & Carlsson 2005) of the adapted basis of a
`FilteredComplex`, which gives each basis vector v a level l(v).  In the
order (level descending, degree descending) every prefix is a subcomplex,
so one low-pivot column reduction of d pairs vectors (i, j), dj hitting i,
with gap l(i) - l(j) >= 0; it runs on `exactla._insert`, the package's one
elimination kernel.  `run` is that reduction and returns the `Pairing`;
`compute_page` builds a page from it only when a caller reads that page.
dim E_r^{p,q} is the number of unpaired vectors at (p, q) plus the paired
ones there of gap >= r, and the rank of d_r out of (p, q) is the number of
pairs of gap exactly r starting there.  The stable and degeneration pages
are both max gap + 1 (0 with no pairs).  E_infinity is the unpaired
vectors, and rank d^n is the number of pairs whose lower end has degree n,
so the E_infinity totals are the Betti numbers: no driver eliminates d
again.  Explicit d_r matrices exist only in the test suite's reference
engine.
"""
from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .complexes import FilteredComplex
from .exactla import Value, _insert


class SpectralSequenceError(Exception):
    pass


class Pairing(NamedTuple):
    """Unpaired vectors per cell (p, q), and pairs per (p, q, gap) of their
    lower-degree end; p is the level and p + q the degree."""
    n_range: tuple[int, int]
    unpaired: Counter
    pairs: Counter

    @property
    def degeneration_page(self) -> int:
        """First page from which every d_r is zero: max gap + 1, 0 with no pairs."""
        return max((gap + 1 for _, _, gap in self.pairs), default=0)

    def infinity_totals(self) -> dict[int, int]:
        """dim of E_infinity along each antidiagonal, for every degree of
        `n_range`: the unpaired vectors of that degree."""
        totals = dict.fromkeys(range(self.n_range[0], self.n_range[1] + 1), 0)
        for (p, q), count in self.unpaired.items():
            totals[p + q] += count
        return totals


def run(f: FilteredComplex) -> Pairing:
    """The pairing of `f`: one low-pivot column reduction of d in the flag order, by `_insert`:
    targets are numbered from the end of the flag order, so a column's low
    is its leading entry.  A vector that is the low of a column has a
    column that reduces to zero, so it is skipped (clearing, Chen & Kerber 2011)."""
    cplx = f.complex
    unpaired: Counter = Counter()
    pairs: Counter = Counter()
    cleared: set[int] = set()   # vectors of degree n that are lows of d(n-1)
    for n in cplx.degrees():
        src_levels, dst_levels = f.levels[n], f.levels.get(n + 1, ())
        # Target vectors of degree n + 1, last in the flag order first.
        # Sorts are stable, also reversed, so ties stay in the order of
        # the range: (level, -i) for targets and (-level, j) for sources.
        dst_order = sorted(range(len(dst_levels) - 1, -1, -1), key=dst_levels.__getitem__)
        pos = [0] * len(dst_order)
        for k, i in enumerate(dst_order):
            pos[i] = k
        # d out of the top degree has no rows: no zero matrix is built for it
        columns: list[dict[int, object]] = [{} for _ in src_levels]
        for k, row in zip(pos, cplx.d(n).row_maps if n < cplx.hi else ()):
            for j, a in row.items():
                columns[j][k] = a
        reduced: dict[int, dict[int, object]] = {}   # low -> reduced column
        lows: set[int] = set()
        for j in sorted(range(len(src_levels)), key=src_levels.__getitem__, reverse=True):
            if j in cleared:
                continue
            p = src_levels[j]
            low = _insert(reduced, columns[j])
            if low is None:
                unpaired[(p, n - p)] += 1
                continue
            i = dst_order[low]
            lows.add(i)
            pairs[(p, n - p, dst_levels[i] - p)] += 1
        cleared = lows
    return Pairing((cplx.lo, cplx.hi), unpaired, pairs)


class SpectralSequencePage(Value):
    """Page E_r: `grid` holds dim E_r^{p,q} for every nonzero cell (p, q) and
    `ranks` the rank of d_r out of each (p, q) whose source and target are
    both nonzero."""

    __slots__ = ("grid", "ranks")
    grid: dict[tuple[int, int], int]
    ranks: dict[tuple[int, int], int]

    def __init__(self, grid, ranks):
        self._set(grid, ranks)


def compute_page(reduction: Pairing, r: int) -> SpectralSequencePage:
    """Page r from the cells that hold a vector, the unpaired ones and the
    two ends of each pair: its cost is that of the pairing's cells, not
    that of the level x degree rectangle around them."""
    if r < 0:
        raise SpectralSequenceError("page index must be nonnegative")
    dims = Counter(reduction.unpaired)
    for (p, q, gap), count in reduction.pairs.items():
        if gap >= r:
            dims[(p, q)] += count
            dims[(p + gap, q - gap + 1)] += count
    ranks = {(p, q): reduction.pairs.get((p, q, r), 0)
             for p, q in dims if (p + r, q - r + 1) in dims}
    return SpectralSequencePage(dict(dims), ranks)


def check_convergence(result: Pairing, betti: dict[int, int]) -> bool:
    """Sum of E_infinity dims along each antidiagonal equals dim H^n.

    An identity of the pairing, so no driver calls it; the tests pass it a
    `run` and `complexes.betti`, and `perfbench/tracing.ENTRY_POINTS` names it."""
    totals = result.infinity_totals()
    return all(totals.get(n, 0) == betti.get(n, 0) for n in set(totals) | set(betti))
