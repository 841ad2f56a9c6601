"""Bounded cochain complexes, double complexes, filtered complexes.

Every public constructor checks its invariants eagerly (d squared zero,
commuting squares, anticommutation, filtration range and d-stability,
integral dims and levels, double-complex keys inside the rectangle), so
raw input cannot become an invalid value.  A double complex is checked
cell by cell: d_h^2, d_v^2 and d_h d_v + d_v d_h in rectangle order, so the
first failing cell is named; an absent map is zero, so only products of
stored maps are formed.  Each class is an immutable `exactla.Value`
whose `_set` checks shapes and fills the fields: after the checks of
`__init__`, or alone when a builder makes the value through
`exactla._built`.  A builder's matrices are canonical rows, its
filtrations keep the level tuples it built, and its invariants hold by
construction once its input is valid; the tests prove them on the corpora
(`tests/test_builders.py`).  A failed shape check there raises
`exactla.BuilderError`, a bug, not the ComplexError of raw input.
Filtrations are stored as one level per vector of an adapted basis.

A `DoubleComplex` is made only from raw input, by its checking
constructor (the CLI's `double` block); the P^1 model writes its blocks
straight into a total complex instead (`cechp1.cech_koszul`).  Both lay
out their cells with `total_layout`, and both take their coordinate
filtrations, by the first or the second index, from one
`_coordinate_filtration` over the cell dimensions.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from .exactla import (
    ExactMatrix,
    InputError,
    Row,
    Subquotient,
    Subspace,
    Value,
    _axpy,
    _built,
    _insert,
    _rref,
    _transpose,
    image_basis,
    induced_map,
    integer,
    kernel_basis,
    rank,
)


class ComplexError(InputError):
    pass


class CochainComplex(Value):
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
        Value._set(self, lo, hi, dims, diffs)

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


class ChainMap(Value):
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
        Value._set(self, source, target, comps)

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


class DoubleComplex(Value):
    """Anticommuting bounded double complex.

    Cells K^{p,q} over a rectangle, with d_h: (p,q) -> (p+1,q) and
    d_v: (p,q) -> (p,q+1) satisfying d_h^2 = d_v^2 = d_h d_v + d_v d_h = 0.
    Builders starting from commuting data must bake signs in; see
    `from_commuting`, which twists the vertical maps on column p by (-1)^p.
    Only the given maps are stored, in `_dh` and `_dv`; every other map is
    zero.  The total complex is assembled once, with the fields; its d.d = 0
    is the three cell identities (Weibel 1994, 1.2), which the constructor
    checks, multiplying only maps that are stored.  Made from raw input
    only: no builder makes one.
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
        dh, dv = self._dh.get, self._dv.get
        for p, q in self._dims:
            if not _vanishes((dh((p + 1, q)), dh((p, q)))):
                raise ComplexError(f"d_h.d_h != 0 at {(p, q)}")
            if not _vanishes((dv((p, q + 1)), dv((p, q)))):
                raise ComplexError(f"d_v.d_v != 0 at {(p, q)}")
            if not _vanishes((dv((p + 1, q)), dh((p, q))), (dh((p, q + 1)), dv((p, q)))):
                raise ComplexError(f"d_h and d_v do not anticommute at {(p, q)}")

    def _set(self, p_lo: int, p_hi: int, q_lo: int, q_hi: int,
             dims: Mapping[tuple[int, int], int],
             horizontal: Mapping[tuple[int, int], ExactMatrix],
             vertical: Mapping[tuple[int, int], ExactMatrix]) -> None:
        if p_hi < p_lo or q_hi < q_lo:
            raise ComplexError("empty rectangle")
        cells = {(p, q): dims.get((p, q), 0)
                 for p in range(p_lo, p_hi + 1) for q in range(q_lo, q_hi + 1)}
        dh, dv = {}, {}
        for (p, q), dim in cells.items():
            for given, kept, target, name in ((horizontal, dh, (p + 1, q), "horizontal"),
                                              (vertical, dv, (p, q + 1), "vertical")):
                m = given.get((p, q))
                if m is None:
                    continue
                if m.rows != cells.get(target, 0) or m.cols != dim:
                    raise ComplexError(f"{name} map at {(p, q)} has wrong shape")
                kept[(p, q)] = m
        Value._set(self, p_lo, p_hi, q_lo, q_hi, cells, dh, dv, _assemble_total(cells, dh, dv))

    @classmethod
    def from_commuting(cls, p_lo: int, p_hi: int, q_lo: int, q_hi: int,
                       dims: Mapping[tuple[int, int], int],
                       horizontal: Mapping[tuple[int, int], ExactMatrix],
                       vertical: Mapping[tuple[int, int], ExactMatrix]) -> "DoubleComplex":
        """Build from commuting squares: d_v on column p is twisted by (-1)^p."""
        return cls(p_lo, p_hi, q_lo, q_hi, dims, horizontal, _twisted(vertical))

    def __repr__(self):
        return (f"DoubleComplex(p in [{self.p_lo},{self.p_hi}], "
                f"q in [{self.q_lo},{self.q_hi}])")


def _vanishes(*terms: tuple[ExactMatrix | None, ExactMatrix | None]) -> bool:
    """The sum of the products a @ b over the terms (a, b) is zero.  None is
    an absent map, which is zero, so a term with it is never multiplied."""
    total = None
    for a, b in terms:
        if a is not None and b is not None:
            total = a @ b if total is None else total + a @ b
    return total is None or total.is_zero()


def _twisted(vertical: Mapping[tuple[int, int], ExactMatrix]) -> dict[tuple[int, int], ExactMatrix]:
    """The vertical maps of commuting squares with column p twisted by
    (-1)^p, which makes the squares anticommute."""
    return {(p, q): m if p % 2 == 0 else -m for (p, q), m in vertical.items()}


def total_layout(cells: Mapping[tuple[int, int], int]) -> dict[int, list[tuple[int, int, int]]]:
    """Cells of each total degree as (p, q, offset), ordered by ascending p,
    from the dimensions of all cells of a rectangle in `DoubleComplex`'s
    order (p ascending, then q), so that the degrees ascend too."""
    layout: dict[int, list[tuple[int, int, int]]] = {}
    ends: dict[int, int] = {}
    for (p, q), dim in cells.items():
        off = ends.get(p + q, 0)
        layout.setdefault(p + q, []).append((p, q, off))
        ends[p + q] = off + dim
    return layout


def total(d: DoubleComplex) -> CochainComplex:
    """Total complex T^n = direct sum of K^{p,q} with p+q = n, d = d_h + d_v,
    assembled once, with the double complex."""
    return d._total


def _assemble_total(cells: Mapping[tuple[int, int], int],
                    dh: Mapping[tuple[int, int], ExactMatrix],
                    dv: Mapping[tuple[int, int], ExactMatrix]) -> CochainComplex:
    layout = total_layout(cells)
    lo, hi = min(layout), max(layout)
    dims = [sum(cells[(p, q)] for p, q, _ in layout[n]) for n in range(lo, hi + 1)]
    diffs = []
    for n in range(lo, hi):
        dst = {(p, q): off for p, q, off in layout[n + 1]}
        out: list[dict] = [{} for _ in range(dims[n + 1 - lo])]
        for p, q, off in layout[n]:
            for maps, tgt in ((dh, (p + 1, q)), (dv, (p, q + 1))):
                mat, toff = maps.get((p, q)), dst.get(tgt)
                if mat is None or toff is None:
                    continue
                if not off:
                    for i, row in enumerate(mat.row_maps, toff):
                        out[i].update(row)
                    continue
                for i, row in enumerate(mat.row_maps, toff):
                    target = out[i]
                    for j, a in row.items():
                        target[off + j] = a
        diffs.append(_built(ExactMatrix, dims[n + 1 - lo], dims[n - lo], tuple(out)))
    return _built(CochainComplex, lo, hi, dims, diffs)


class FilteredComplex(Value):
    """Decreasing, d-stable, bounded filtration of a cochain complex, written
    in a basis adapted to it.

    `levels[n][i]` is the level of the i-th basis vector of C^n, and F_p C^n
    is spanned by the basis vectors of level >= p.  Levels lie in
    [p_lo, p_hi], so F_{p_lo} is the whole space and F_{p_hi + 1} is zero.
    d-stability is a condition on matrix entries: every nonzero d[i][j] out
    of degree n has levels[n + 1][i] >= levels[n][j].  A general flag of
    subspaces, each given by spanning rows, is validated and converted to
    this form once, by `from_flag`, from one running echelon per degree.
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
        Value._set(self, cplx, p_lo, p_hi, levels)

    @classmethod
    def from_flag(cls, cplx: CochainComplex, p_lo: int, p_hi: int,
                  spaces: Mapping[tuple[int, int], Sequence[Row]]) -> "FilteredComplex":
        """Filtration given by spanning rows of F_p C^n for p in [p_lo, p_hi + 1]:
        canonical sparse rows, not necessarily independent.

        One running echelon (`_insert`) per degree gives the adapted basis:
        walking p down from p_hi, the rows of F_p that add a pivot to it (it
        spans F_{p+1}) are reduced there, and those reduced rows get level p.
        A row of F_p that is also a row of F_{p+1} (the same object, as the
        CLI's reader passes a vector repeated across levels) lies in the
        echelon already and is skipped.  F_{p+1} lies in F_p if each of its
        rows is a row of F_p; otherwise iff the echelon has rank F_p pivots,
        counted by a rank-only echelon of F_p's rows.  The checks raise in
        the order F_{p_lo} whole, F_{p_hi + 1} zero, F_{p+1} in F_p for p
        descending.  An echelon row has a 1 at its pivot and nothing left
        of it, so reducing d(b) forward against the echelon of C^{n+1}
        leaves nothing, and its multipliers are the coordinates of d(b) in
        the adapted basis.  d.d = 0 carries over; the checking constructor
        proves d-stability on the adapted matrices.
        """
        if p_hi < p_lo:
            raise ComplexError("empty filtration range")
        echelons: dict[int, dict[int, Row]] = {}
        levels: dict[int, list[int]] = {}
        for n in cplx.degrees():
            m, flag = cplx.dim(n), []
            for p in range(p_lo, p_hi + 2):
                rows = spaces.get((p, n))
                if rows is None:
                    raise ComplexError(f"missing filtration subspace at level {p}, degree {n}")
                if any(r and (min(r) < 0 or max(r) >= m) for r in rows):
                    raise ComplexError(f"filtration subspace at ({p},{n}) has wrong ambient")
                flag.append(rows)
            echelon: dict[int, Row] = {}
            levels[n], above, failed = [], set(), None
            for p in range(p_hi, p_lo - 1, -1):
                rows = flag[p - p_lo]
                here = {id(r) for r in rows}
                before = len(echelon)
                for r in rows:
                    if id(r) not in above:
                        _insert(echelon, dict(r))
                levels[n].extend([p] * (len(echelon) - before))
                # The echelon spans F_{p+1} until the first level that fails.
                if failed is None and not above <= here and len(echelon) != _rank(rows):
                    failed = p
                above = here
            # With every containment shown, the echelon spans F_{p_lo}.
            if (len(echelon) if failed is None else _rank(flag[0])) != m:
                raise ComplexError(f"F_{p_lo} is not the whole space in degree {n}")
            if any(flag[-1]):
                raise ComplexError(f"F_{p_hi + 1} is not zero in degree {n}")
            if failed is not None:
                raise ComplexError(f"filtration not decreasing at ({failed},{n})")
            echelons[n] = echelon
        diffs = []
        for n in range(cplx.lo, cplx.hi):
            target = echelons[n + 1]
            index = {c: i for i, c in enumerate(target)}
            columns = []
            for w in cplx.d(n).images(echelons[n].values()):
                column = {}
                while w:
                    c = min(w)
                    x = column[index[c]] = w[c]
                    _axpy(w, x, target[c])
                columns.append(column)
            diffs.append(_built(ExactMatrix, cplx.dim(n + 1), cplx.dim(n),
                                tuple(_transpose(columns, cplx.dim(n + 1)))))
        # A change of basis of a complex: d.d = 0 carries over.
        adapted = _built(CochainComplex, cplx.lo, cplx.hi,
                         [cplx.dim(n) for n in cplx.degrees()], diffs)
        return cls(adapted, p_lo, p_hi, levels)

    @property
    def width(self) -> int:
        return self.p_hi - self.p_lo + 1

    def __repr__(self):
        return f"FilteredComplex(levels [{self.p_lo},{self.p_hi}], {self.complex!r})"


def _rank(rows: Sequence[Row]) -> int:
    """The rank of canonical sparse rows, from a rank-only echelon."""
    echelon: dict[int, Row] = {}
    for r in rows:
        _insert(echelon, dict(r))
    return len(echelon)


def _coordinate_filtration(cells: Mapping[tuple[int, int], int], cplx: CochainComplex,
                           index: Callable[[int, int], int],
                           f_lo: int, f_hi: int) -> FilteredComplex:
    """Filtration of the total complex `cplx` of a double complex with the
    cell dimensions `cells` (every cell of its rectangle, in `total_layout`'s
    order), giving each vector of cell (p, q) the level index(p, q); the
    coordinate basis is adapted to it.  d_h raises p by one and keeps q, d_v
    the other way round, so both coordinate filtrations are d-stable.  The
    filtrations of a raw `DoubleComplex` and those of the P^1 model, which
    `cechp1.cech_koszul` writes straight into its total complex, come from
    here."""
    levels = {}
    for n, layout in total_layout(cells).items():
        lv: list[int] = []
        for p, q, _ in layout:
            lv += [index(p, q)] * cells[(p, q)]
        levels[n] = tuple(lv)
    return _built(FilteredComplex, cplx, f_lo, f_hi, levels)


def column_filtration(d: DoubleComplex) -> FilteredComplex:
    """Filtration by the first index: F_P = sum of cells with p >= P."""
    return _coordinate_filtration(d._dims, total(d), lambda p, q: p, d.p_lo, d.p_hi)


def row_filtration(d: DoubleComplex) -> FilteredComplex:
    """Filtration by the second index: F_Q = sum of cells with q >= Q."""
    return _coordinate_filtration(d._dims, total(d), lambda p, q: q, d.q_lo, d.q_hi)
