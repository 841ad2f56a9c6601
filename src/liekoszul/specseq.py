"""Spectral sequence of a bounded filtered cochain complex.

Serre cohomological convention: d_r has bidegree (r, 1-r).  Pages are
computed from scratch per r from the standard cycle/boundary subquotients

    Z_r^{p,q} = {x in F_p C^{p+q} : dx in F_{p+r} C^{p+q+1}}
    E_r^{p,q} = Z_r^{p,q} / (Z_{r-1}^{p+1,q-1} + d Z_{r-1}^{p-r+1,q+r-2})

so every page is independently checkable.  For a bounded filtration all
pages with r > width coincide, which is what certifies stability and
degeneration reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import FilteredComplex
from .exactla import ExactMatrix, Subquotient, Subspace, induced_map


class SpectralSequenceError(Exception):
    pass


def _z(f: FilteredComplex, p: int, n: int, r: int,
       cache: dict | None = None) -> Subspace:
    """Z_r at filtration level p, total degree n (r may be -1)."""
    # Levels clamp outside the support, so normalize the key for caching.
    pc = max(min(p, f.p_hi + 1), f.p_lo)
    tc = max(min(p + r, f.p_hi + 1), f.p_lo)
    key = (pc, n, tc)
    if cache is not None and key in cache:
        return cache[key]
    fp = f.level(p, n)
    target = f.level(p + r, n + 1)
    out = fp.intersect(target.preimage_under(f.complex.d(n)))
    if cache is not None:
        cache[key] = out
    return out


def _boundary_part(f: FilteredComplex, p: int, n: int, r: int,
                   cache: dict | None = None) -> Subspace:
    incoming = _z(f, p - r + 1, n - 1, r - 1, cache)
    dn1 = f.complex.d(n - 1)
    image = Subspace(f.complex.dim(n), [dn1.apply(b) for b in incoming.basis])
    return _z(f, p + 1, n, r - 1, cache).add(image)


class SpectralSequencePage:
    """One page E_r with entries and differentials keyed by (p, q)."""

    __slots__ = ("r", "entries", "differentials", "p_range", "n_range")

    def __init__(self, r: int, entries: dict[tuple[int, int], Subquotient],
                 differentials: dict[tuple[int, int], ExactMatrix],
                 p_range: tuple[int, int], n_range: tuple[int, int]):
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "entries", dict(entries))
        object.__setattr__(self, "differentials", dict(differentials))
        object.__setattr__(self, "p_range", p_range)
        object.__setattr__(self, "n_range", n_range)
        for (p, q), m in differentials.items():
            nxt = self.differentials.get((p + r, q - r + 1))
            if nxt is not None and m.rows and m.cols:
                if not (nxt @ m).is_zero():
                    raise SpectralSequenceError(f"d_r.d_r != 0 at {(p, q)}")

    def __setattr__(self, name, value):
        raise AttributeError("SpectralSequencePage is immutable")

    def entry_dim(self, p: int, q: int) -> int:
        e = self.entries.get((p, q))
        return e.dim if e is not None else 0

    def dims(self) -> dict[tuple[int, int], int]:
        return {pq: e.dim for pq, e in self.entries.items()}

    def nonzero_dims(self) -> dict[tuple[int, int], int]:
        return {pq: e.dim for pq, e in self.entries.items() if e.dim}

    def differentials_all_zero(self) -> bool:
        return all(m.is_zero() for m in self.differentials.values())

    def __repr__(self):
        return f"SpectralSequencePage(r={self.r}, nonzero={self.nonzero_dims()})"


def compute_page(f: FilteredComplex, r: int,
                 _cache: dict | None = None) -> SpectralSequencePage:
    if r < 0:
        raise SpectralSequenceError("page index must be nonnegative")
    cplx = f.complex
    entries: dict[tuple[int, int], Subquotient] = {}
    for p in range(f.p_lo, f.p_hi + 1):
        for n in cplx.degrees():
            q = n - p
            cycles = _z(f, p, n, r, _cache)
            boundaries = _boundary_part(f, p, n, r, _cache)
            entries[(p, q)] = Subquotient(cycles, boundaries)
    differentials: dict[tuple[int, int], ExactMatrix] = {}
    for (p, q), src in entries.items():
        n = p + q
        dst = entries.get((p + r, q - r + 1))
        if dst is None:
            # Outside the stored support the entry is zero; the containment
            # checks in induced_map still certify that d lands there.
            m = cplx.dim(n + 1)
            dst = Subquotient(Subspace.zero_space(m), Subspace.zero_space(m))
        differentials[(p, q)] = induced_map(cplx.d(n), src, dst)
    return SpectralSequencePage(r, entries, differentials,
                                (f.p_lo, f.p_hi), (cplx.lo, cplx.hi))


@dataclass(frozen=True)
class SpectralSequenceRun:
    pages: tuple[SpectralSequencePage, ...]
    stable_page: int
    degeneration_page: int

    @property
    def infinity(self) -> SpectralSequencePage:
        return self.pages[-1]

    def infinity_totals(self) -> dict[int, int]:
        totals: dict[int, int] = {}
        for (p, q), dim in self.infinity.dims().items():
            totals[p + q] = totals.get(p + q, 0) + dim
        return totals


def run(f: FilteredComplex) -> SpectralSequenceRun:
    """Pages 0..width+1; past that every page of a bounded filtration agrees."""
    r_max = f.width + 1
    cache: dict = {}
    pages = tuple(compute_page(f, r, _cache=cache) for r in range(r_max + 1))
    final = pages[-1].dims()
    for a, b in zip(pages, pages[1:]):
        for pq, dim in b.dims().items():
            if dim > a.dims().get(pq, 0):
                raise SpectralSequenceError(f"page dims increased at {pq}")
    stable = r_max
    for r in range(r_max, -1, -1):
        if pages[r].dims() == final:
            stable = r
        else:
            break
    degeneration = r_max + 1
    for r in range(r_max, -1, -1):
        if pages[r].differentials_all_zero():
            degeneration = r
        else:
            break
    return SpectralSequenceRun(pages, stable, degeneration)


def check_convergence(result: SpectralSequenceRun, betti: dict[int, int]) -> bool:
    """Sum of E_infinity dims along each antidiagonal equals dim H^n."""
    totals = result.infinity_totals()
    return all(totals.get(n, 0) == betti.get(n, 0) for n in set(totals) | set(betti))
