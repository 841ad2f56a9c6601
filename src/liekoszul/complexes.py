"""Bounded cochain complexes, double complexes, filtered complexes.

Every public constructor checks its invariants eagerly (d squared zero,
commuting squares, anticommutation, filtration range and d-stability,
integral dims and levels, double-complex keys inside the rectangle), so
raw input cannot become an invalid value.  A double complex is checked
cell by cell: d_h^2, d_v^2 and d_h d_v + d_v d_h in rectangle order, so the
first failing cell is named.  The package's builders construct through the
private `_built(cls, *args)` instead, which sets the same fields through
the same `_set` of each class and checks shapes only: their matrices are
canonical rows wrapped by `exactla._wrap`, their filtrations keep the level
tuples they build, and their invariants hold by construction once their
input is valid; the tests prove them on the corpora
(`tests/test_builders.py`).  A failed shape check there raises
BuilderError, a bug, not the ComplexError of raw input.  Filtrations are
stored as one level per vector of an adapted basis.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from .exactla import (
    ExactMatrix,
    InputError,
    Subquotient,
    Subspace,
    _insert,
    _rref,
    _wrap,
    coordinates,
    image_basis,
    induced_map,
    integer,
    kernel_basis,
    rank,
)


class ComplexError(InputError):
    pass


class BuilderError(Exception):
    """Builder output of the wrong shape: a fault of the program, not of its input."""


def _built(cls, *args):
    """A builder's `cls` value, whose invariant holds by construction: the
    fields and shape checks of `cls._set`, with no product or scan."""
    obj = object.__new__(cls)
    try:
        obj._set(*args)
    except ComplexError as exc:
        raise BuilderError(f"{cls.__name__} from a builder: {exc}") from exc
    return obj


class CochainComplex:
    """Complex C^lo -> ... -> C^hi with differentials d_k: C^k -> C^{k+1}."""

    __slots__ = ("lo", "hi", "_dims", "_diffs")

    def __init__(self, lo: int, hi: int, dims: Sequence[int], differentials: Sequence[ExactMatrix]):
        dims = [integer(d, "dim", ComplexError) for d in dims]
        if any(d < 0 for d in dims):
            raise ComplexError(f"dims must not be negative, got {dims}")
        self._set(lo, hi, dims, differentials)
        diffs = self._diffs
        for i in range(len(diffs) - 1):
            if not (diffs[i + 1] @ diffs[i]).is_zero():
                raise ComplexError(f"d.d != 0 at degree {lo + i}")

    def _set(self, lo: int, hi: int, dims: Sequence[int],
             differentials: Sequence[ExactMatrix]) -> None:
        if hi < lo:
            raise ComplexError("empty degree range")
        if len(dims) != hi - lo + 1:
            raise ComplexError("dims length does not match degree range")
        if len(differentials) != hi - lo:
            raise ComplexError("differential count does not match degree range")
        dims = tuple(dims)
        diffs = tuple(differentials)
        for i, d in enumerate(diffs):
            if d.cols != dims[i] or d.rows != dims[i + 1]:
                raise ComplexError(
                    f"differential at degree {lo + i} has shape {d.rows}x{d.cols}, "
                    f"expected {dims[i + 1]}x{dims[i]}"
                )
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "_dims", dims)
        object.__setattr__(self, "_diffs", diffs)

    def __setattr__(self, name, value):
        raise AttributeError("CochainComplex is immutable")

    def degrees(self) -> range:
        return range(self.lo, self.hi + 1)

    def dim(self, k: int) -> int:
        if self.lo <= k <= self.hi:
            return self._dims[k - self.lo]
        return 0

    def d(self, k: int) -> ExactMatrix:
        """Differential out of degree k (zero-shaped outside the range)."""
        if self.lo <= k < self.hi:
            return self._diffs[k - self.lo]
        return ExactMatrix.zeros(self.dim(k + 1), self.dim(k))

    def __repr__(self):
        dims = ", ".join(f"{k}:{self.dim(k)}" for k in self.degrees())
        return f"CochainComplex([{dims}])"


def cohomology(c: CochainComplex) -> dict[int, Subquotient]:
    """H^k = ker d_k / im d_{k-1} for every degree of the complex."""
    out: dict[int, Subquotient] = {}
    for k in c.degrees():
        cycles = kernel_basis(c.d(k))
        boundaries = image_basis(c.d(k - 1))
        out[k] = Subquotient(cycles, boundaries)
    return out


def betti(c: CochainComplex) -> dict[int, int]:
    """dim H^k = dim C^k - rank d_k - rank d_{k-1}; valid because d.d = 0."""
    return _betti(c, {k: rank(c.d(k)) for k in range(c.lo, c.hi)})


def _betti(c: CochainComplex, ranks: Mapping[int, int]) -> dict[int, int]:
    """The Betti numbers of c from the ranks of its differentials."""
    return {k: c.dim(k) - ranks.get(k, 0) - ranks.get(k - 1, 0) for k in c.degrees()}


class ChainMap:
    """Degreewise map of complexes commuting with the differentials."""

    __slots__ = ("source", "target", "_maps")

    def __init__(self, source: CochainComplex, target: CochainComplex,
                 maps: Mapping[int, ExactMatrix]):
        self._set(source, target, maps)
        for k in range(min(source.lo, target.lo), max(source.hi, target.hi) + 1):
            if self.component(k + 1) @ source.d(k) != target.d(k) @ self.component(k):
                raise ComplexError(f"square at degree {k} does not commute")

    def _set(self, source: CochainComplex, target: CochainComplex,
             maps: Mapping[int, ExactMatrix]) -> None:
        comps: dict[int, ExactMatrix] = {}
        for k in range(min(source.lo, target.lo), max(source.hi, target.hi) + 1):
            m = maps.get(k)
            if m is None:
                m = ExactMatrix.zeros(target.dim(k), source.dim(k))
            if m.rows != target.dim(k) or m.cols != source.dim(k):
                raise ComplexError(f"component at degree {k} has wrong shape")
            comps[k] = m
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "_maps", comps)

    def __setattr__(self, name, value):
        raise AttributeError("ChainMap is immutable")

    def component(self, k: int) -> ExactMatrix:
        m = self._maps.get(k)
        if m is None:
            return ExactMatrix.zeros(self.target.dim(k), self.source.dim(k))
        return m

    def induced_on_cohomology(self) -> dict[int, ExactMatrix]:
        return _induced(self, cohomology(self.source), cohomology(self.target))


def _induced(f: ChainMap, hs: dict[int, Subquotient],
             ht: dict[int, Subquotient]) -> dict[int, ExactMatrix]:
    """Maps induced by f between the given cohomology groups of its ends."""
    # A degree missing from hs or ht lies outside that end, where C^k = 0.
    empty = Subquotient(Subspace.zero_space(0), Subspace.zero_space(0))
    return {k: induced_map(f.component(k), hs.get(k, empty), ht.get(k, empty))
            for k in set(hs) | set(ht)}


def is_quasi_isomorphism(f: ChainMap) -> bool:
    """True if f: C -> D induces isomorphisms on cohomology, i.e. iff its
    mapping cone, cone^k = C^{k+1} + D^k with d(c, e) = (-d_C c, f c + d_D e),
    is acyclic (Weibel, An Introduction to Homological Algebra, 1994,
    Cor. 1.5.4): dim cone^k = rank d^k + rank d^{k-1} for every k.  The
    ranks come from `_cone_ranks`, one elimination per cone degree, which
    also yields the ranks of d_C."""
    return _cone_is_acyclic(f, _cone_ranks(f)[1])


def _cone_ranks(f: ChainMap) -> tuple[dict[int, int], dict[int, int]]:
    """rank d_C^k for every differential of the source C, and the rank of
    the mapping cone's differential out of every cone degree k.

    The rows of the cone differential out of degree k are -d_C^{k+1} on
    top of [f^{k+1} | d_D^k].  The top block spans what d_C^{k+1} spans, so
    it is eliminated first, as d_C^{k+1}, and its pivot count is
    rank d_C^{k+1}; the other rows are then inserted into that echelon.
    Every source differential is the top block of one cone degree, so d_C
    is eliminated once, and `betti` of the source is `_betti` of the first
    table."""
    c, t = f.source, f.target
    source: dict[int, int] = {}
    cone: dict[int, int] = {}
    for k in range(min(c.lo - 1, t.lo), max(c.hi - 1, t.hi)):
        n = c.dim(k + 1)
        rows, pivots = _rref(c.d(k + 1).row_maps, reduced=False)
        source[k + 1] = len(pivots)
        echelon = dict(zip(pivots, rows))
        for a, b in zip(f.component(k + 1).row_maps, t.d(k).row_maps):
            _insert(echelon, {**a, **{n + j: x for j, x in b.items()}})
        cone[k] = len(echelon)
    return source, cone


def _cone_is_acyclic(f: ChainMap, ranks: Mapping[int, int]) -> bool:
    """dim cone^k = rank d^k + rank d^{k-1} in every cone degree k, given the
    ranks of the cone differentials from `_cone_ranks`."""
    c, t = f.source, f.target
    return all(c.dim(k + 1) + t.dim(k) == ranks.get(k, 0) + ranks.get(k - 1, 0)
               for k in range(min(c.lo - 1, t.lo), max(c.hi - 1, t.hi) + 1))


class DoubleComplex:
    """Anticommuting bounded double complex.

    Cells K^{p,q} over a rectangle, with d_h: (p,q) -> (p+1,q) and
    d_v: (p,q) -> (p,q+1) satisfying d_h^2 = d_v^2 = d_h d_v + d_v d_h = 0.
    Builders starting from commuting data must bake signs in; see
    `from_commuting`, which twists the vertical maps on column p by (-1)^p.
    Only the given maps are stored (`dh`, `dv` are zero elsewhere).  The
    total complex is assembled once, with the fields; its d.d = 0 is the
    three cell identities (Weibel 1994, 1.2), which the constructor checks.
    """

    __slots__ = ("p_lo", "p_hi", "q_lo", "q_hi", "_dims", "_dh", "_dv", "_total")

    def __init__(self, p_lo: int, p_hi: int, q_lo: int, q_hi: int,
                 dims: Mapping[tuple[int, int], int],
                 horizontal: Mapping[tuple[int, int], ExactMatrix],
                 vertical: Mapping[tuple[int, int], ExactMatrix]):
        for name, given in (("dims", dims), ("horizontal", horizontal), ("vertical", vertical)):
            for p, q in given:
                if not (p_lo <= p <= p_hi and q_lo <= q <= q_hi):
                    raise ComplexError(f"{name} key {(p, q)} outside the rectangle "
                                       f"p {p_lo}..{p_hi}, q {q_lo}..{q_hi}")
        dims = {pq: integer(x, f"dim at {pq}", ComplexError) for pq, x in dims.items()}
        if any(x < 0 for x in dims.values()):
            raise ComplexError(f"dims must not be negative, got {dims}")
        self._set(p_lo, p_hi, q_lo, q_hi, dims, horizontal, vertical)
        for p, q in self._dims:
            if not (self.dh(p + 1, q) @ self.dh(p, q)).is_zero():
                raise ComplexError(f"d_h.d_h != 0 at {(p, q)}")
            if not (self.dv(p, q + 1) @ self.dv(p, q)).is_zero():
                raise ComplexError(f"d_v.d_v != 0 at {(p, q)}")
            anti = self.dv(p + 1, q) @ self.dh(p, q) + self.dh(p, q + 1) @ self.dv(p, q)
            if not anti.is_zero():
                raise ComplexError(f"d_h and d_v do not anticommute at {(p, q)}")

    def _set(self, p_lo: int, p_hi: int, q_lo: int, q_hi: int,
             dims: Mapping[tuple[int, int], int],
             horizontal: Mapping[tuple[int, int], ExactMatrix],
             vertical: Mapping[tuple[int, int], ExactMatrix]) -> None:
        if p_hi < p_lo or q_hi < q_lo:
            raise ComplexError("empty rectangle")
        cells = [(p, q) for p in range(p_lo, p_hi + 1) for q in range(q_lo, q_hi + 1)]
        object.__setattr__(self, "p_lo", p_lo)
        object.__setattr__(self, "p_hi", p_hi)
        object.__setattr__(self, "q_lo", q_lo)
        object.__setattr__(self, "q_hi", q_hi)
        object.__setattr__(self, "_dims", {pq: dims.get(pq, 0) for pq in cells})
        dh, dv = {}, {}
        for p, q in cells:
            for given, kept, target, name in ((horizontal, dh, (p + 1, q), "horizontal"),
                                              (vertical, dv, (p, q + 1), "vertical")):
                m = given.get((p, q))
                if m is None:
                    continue
                if m.rows != self.cell_dim(*target) or m.cols != self.cell_dim(p, q):
                    raise ComplexError(f"{name} map at {(p, q)} has wrong shape")
                kept[(p, q)] = m
        object.__setattr__(self, "_dh", dh)
        object.__setattr__(self, "_dv", dv)
        object.__setattr__(self, "_total", _assemble_total(self))

    def __setattr__(self, name, value):
        raise AttributeError("DoubleComplex is immutable")

    @classmethod
    def from_commuting(cls, p_lo: int, p_hi: int, q_lo: int, q_hi: int,
                       dims: Mapping[tuple[int, int], int],
                       horizontal: Mapping[tuple[int, int], ExactMatrix],
                       vertical: Mapping[tuple[int, int], ExactMatrix]) -> "DoubleComplex":
        """Build from commuting squares: d_v on column p is twisted by (-1)^p."""
        return cls(p_lo, p_hi, q_lo, q_hi, dims, horizontal, _twisted(vertical))

    def cell_dim(self, p: int, q: int) -> int:
        return self._dims.get((p, q), 0)

    def dh(self, p: int, q: int) -> ExactMatrix:
        m = self._dh.get((p, q))
        if m is None:
            return ExactMatrix.zeros(self.cell_dim(p + 1, q), self.cell_dim(p, q))
        return m

    def dv(self, p: int, q: int) -> ExactMatrix:
        m = self._dv.get((p, q))
        if m is None:
            return ExactMatrix.zeros(self.cell_dim(p, q + 1), self.cell_dim(p, q))
        return m

    def __repr__(self):
        return (f"DoubleComplex(p in [{self.p_lo},{self.p_hi}], "
                f"q in [{self.q_lo},{self.q_hi}])")


def _twisted(vertical: Mapping[tuple[int, int], ExactMatrix]) -> dict[tuple[int, int], ExactMatrix]:
    """The vertical maps of commuting squares with column p twisted by
    (-1)^p, which makes the squares anticommute."""
    return {(p, q): m if p % 2 == 0 else -m for (p, q), m in vertical.items()}


def total_layout(d: DoubleComplex) -> dict[int, list[tuple[int, int, int]]]:
    """Cells of each total degree as (p, q, offset), ordered by ascending p."""
    layout: dict[int, list[tuple[int, int, int]]] = {}
    for n in range(d.p_lo + d.q_lo, d.p_hi + d.q_hi + 1):
        cells = []
        off = 0
        for p in range(d.p_lo, d.p_hi + 1):
            q = n - p
            if d.q_lo <= q <= d.q_hi:
                cells.append((p, q, off))
                off += d.cell_dim(p, q)
        layout[n] = cells
    return layout


def total(d: DoubleComplex) -> CochainComplex:
    """Total complex T^n = direct sum of K^{p,q} with p+q = n, d = d_h + d_v,
    assembled once, with the double complex."""
    return d._total


def _assemble_total(d: DoubleComplex) -> CochainComplex:
    layout = total_layout(d)
    lo = d.p_lo + d.q_lo
    hi = d.p_hi + d.q_hi
    dims = [sum(d.cell_dim(p, q) for p, q, _ in layout[n]) for n in range(lo, hi + 1)]
    diffs = []
    for n in range(lo, hi):
        dst = {(p, q): off for p, q, off in layout[n + 1]}
        out: list[dict] = [{} for _ in range(dims[n + 1 - lo])]
        for p, q, off in layout[n]:
            for maps, tgt in ((d._dh, (p + 1, q)), (d._dv, (p, q + 1))):
                mat, toff = maps.get((p, q)), dst.get(tgt)
                if mat is None or toff is None:
                    continue
                for i, row in enumerate(mat.row_maps):
                    target = out[toff + i]
                    for j, a in row.items():
                        target[off + j] = a
        diffs.append(_wrap(dims[n + 1 - lo], dims[n - lo], tuple(out)))
    return _built(CochainComplex, lo, hi, dims, diffs)


class FilteredComplex:
    """Decreasing, d-stable, bounded filtration of a cochain complex, written
    in a basis adapted to it.

    `levels[n][i]` is the level of the i-th basis vector of C^n, and F_p C^n
    is spanned by the basis vectors of level >= p.  Levels lie in
    [p_lo, p_hi], so F_{p_lo} is the whole space and F_{p_hi + 1} is zero.
    d-stability is a condition on matrix entries: every nonzero d[i][j] out
    of degree n has levels[n + 1][i] >= levels[n][j].  A general flag of
    subspaces is validated and converted to this form once, by `from_flag`,
    whose adapted complex is a change of basis that `coordinates` checks.
    """

    __slots__ = ("complex", "p_lo", "p_hi", "levels")

    def __init__(self, cplx: CochainComplex, p_lo: int, p_hi: int,
                 levels: Mapping[int, Sequence[int]]):
        self._set(cplx, p_lo, p_hi,
                  {n: tuple(integer(x, f"level in degree {n}", ComplexError)
                            for x in levels.get(n, ())) for n in cplx.degrees()})
        for n, lv in self.levels.items():
            if any(not p_lo <= x <= p_hi for x in lv):
                raise ComplexError(f"level outside [{p_lo},{p_hi}] in degree {n}")
        for n in range(cplx.lo, cplx.hi):
            d, src, dst = cplx.d(n), self.levels[n], self.levels[n + 1]
            for i, row in enumerate(d.row_maps):
                for j in row:
                    if dst[i] < src[j]:
                        raise ComplexError(
                            f"differential leaves level {src[j]} at degree {n}")

    def _set(self, cplx: CochainComplex, p_lo: int, p_hi: int,
             levels: Mapping[int, Sequence[int]]) -> None:
        if p_hi < p_lo:
            raise ComplexError("empty filtration range")
        for n in cplx.degrees():
            if len(levels[n]) != cplx.dim(n):
                raise ComplexError(f"need one level per basis vector in degree {n}")
        object.__setattr__(self, "complex", cplx)
        object.__setattr__(self, "p_lo", p_lo)
        object.__setattr__(self, "p_hi", p_hi)
        object.__setattr__(self, "levels", levels)

    def __setattr__(self, name, value):
        raise AttributeError("FilteredComplex is immutable")

    @classmethod
    def from_flag(cls, cplx: CochainComplex, p_lo: int, p_hi: int,
                  spaces: Mapping[tuple[int, int], Subspace]) -> "FilteredComplex":
        """Filtration given by subspaces F_p C^n for p in [p_lo, p_hi + 1].

        The complex is rewritten in an adapted basis from one echelon per
        degree: walking p down from p_hi, the rows of F_p that add a pivot
        to it (it spans F_{p+1}) get level p, and F_{p+1} lies in F_p iff it
        then holds dim F_p rows.  Each adapted differential holds the
        coordinates of d applied to the adapted basis of C^n in that of
        C^{n+1}, from one checked `coordinates` solve per degree.
        """
        if p_hi < p_lo:
            raise ComplexError("empty filtration range")
        bases: dict[int, list] = {}
        levels: dict[int, list[int]] = {}
        for n in cplx.degrees():
            flag = []
            for p in range(p_lo, p_hi + 2):
                s = spaces.get((p, n))
                if s is None:
                    raise ComplexError(f"missing filtration subspace at level {p}, degree {n}")
                if s.ambient_dim != cplx.dim(n):
                    raise ComplexError(f"filtration subspace at ({p},{n}) has wrong ambient")
                flag.append(s)
            if flag[0].dim != cplx.dim(n):
                raise ComplexError(f"F_{p_lo} is not the whole space in degree {n}")
            if flag[-1].dim != 0:
                raise ComplexError(f"F_{p_hi + 1} is not zero in degree {n}")
            bases[n], levels[n], echelon = [], [], {}
            for p in range(p_hi, p_lo - 1, -1):
                space = flag[p - p_lo]
                reps = [r for r in space.sparse_basis if _insert(echelon, dict(r)) is not None]
                if len(echelon) != space.dim:
                    raise ComplexError(f"filtration not decreasing at ({p},{n})")
                bases[n].extend(reps)
                levels[n].extend([p] * len(reps))
        diffs = [coordinates(bases[n + 1], cplx.dim(n + 1), cplx.d(n).images(bases[n]))
                 for n in range(cplx.lo, cplx.hi)]
        # A change of basis of a complex: d.d = 0 carries over.
        adapted = _built(CochainComplex, cplx.lo, cplx.hi,
                         [cplx.dim(n) for n in cplx.degrees()], diffs)
        return cls(adapted, p_lo, p_hi, levels)

    @property
    def width(self) -> int:
        return self.p_hi - self.p_lo + 1

    def __repr__(self):
        return f"FilteredComplex(levels [{self.p_lo},{self.p_hi}], {self.complex!r})"


def _coordinate_filtration(d: DoubleComplex, index: Callable[[int, int], int],
                           f_lo: int, f_hi: int) -> FilteredComplex:
    """Filtration of the total complex giving each vector of cell (p, q) the
    level index(p, q); the coordinate basis is adapted to it.  d_h raises p
    by one and keeps q, d_v the other way round, so both coordinate
    filtrations are d-stable."""
    levels = {n: tuple(index(p, q) for p, q, _ in cells for _ in range(d.cell_dim(p, q)))
              for n, cells in total_layout(d).items()}
    return _built(FilteredComplex, total(d), f_lo, f_hi, levels)


def column_filtration(d: DoubleComplex) -> FilteredComplex:
    """Filtration by the first index: F_P = sum of cells with p >= P."""
    return _coordinate_filtration(d, lambda p, q: p, d.p_lo, d.p_hi)


def row_filtration(d: DoubleComplex) -> FilteredComplex:
    """Filtration by the second index: F_Q = sum of cells with q >= Q."""
    return _coordinate_filtration(d, lambda p, q: q, d.q_lo, d.q_hi)
