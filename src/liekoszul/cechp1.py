"""Two-chart Cech models on the projective line.

Charts U0 (coordinate z) and U1 (coordinate 1/z) with Laurent-polynomial
overlap data.  A sheaf is given by an invertible Laurent transition
matrix G(z) converting chart-1 coefficient columns (evaluated at 1/z)
into the chart-0 frame; the degree-d line bundle has G = [[z^d]].

Finite models: chart sections are truncated polynomials and the overlap
is a per-component exponent window.  Truncation bounds are fattened by a
margin derived from the exponent spread of the transition, and each
overlap window is extended to the exponent range of the transition's
images.  In the Cech-Koszul model each wedge row's radius is 2 more than
the row before it, so the contraction, which raises exponents by at most
2, lands inside its target.  Why every window D >= 1 is exact:
1. The model's total complex is a subcomplex of that of the infinite
   two-chart Cech-Koszul complex, cell by cell: every block is written by
   `_laurent_block` into the rows of its target cell and the columns of
   its source cell, and it raises BuilderError on an image that leaves
   its cell.
2. Each row includes into its full row quasi-isomorphically, so by the
   comparison theorem for the bounded wedge-degree filtration (Weibel
   1994, Thm 5.2.12) H and the wedge-degree pages from E1 on are exact.
3. For V != 0 the Koszul cohomology sheaves live on the finite zero
   scheme, so their Cech H^1 vanishes (Hartshorne III.4.5); the inclusion
   is injective on H, so the model's Cech-degree E_inf sits at Cech level
   0.  For V = 0 that E_inf is the row grid.
So the window-D and window-D+1 models cannot disagree; the tests check
steps 2 and 3 on seeded scans.  A `p1` run still compares their
Cech-degree E_inf grids once, in `window_checked` (WindowError if they
differ).  That grid determines all but the first page, a closed form; a
`p1` run builds two models, ranks no Cech block and runs two pairings, or
three at twisted degree 0, the one row grid where a d_1 can be nonzero.
The Cech-degree run has two levels, so its page <= 2 and E2 = E_inf hold
by dimension: reported facts, while the corollary is a run's one verdict.

The model is a `complexes.DoubleComplex`, made by `_built` around the
total complex that `complexes.total_complex` lays out and this module's
blocks fill: no block is a matrix of its own, and no block is checked
or copied into a total.  The cell (p, q) is wedge row p's C^q, placed
at an offset in its total degree p + q.  Every block of the
Cech-Koszul double complex is one Laurent matrix per open set: the Cech
differential is -I on chart 0 and the transition, with j -> -j, on chart
1, and the contraction i_V is a matrix in the section's scalar and vector
parts on each open set.  `_laurent_block` writes each Laurent term's
strided run of entries straight into the rows of d out of the source's
total degree, at the target cell's offset plus its basis index and the
source cell's offset plus its own.  Within a cell, bases are laid out by
arithmetic, not by keyed basis lists: a row's C^0 holds, per component
c, the chart-0 exponents [0, chart0_hi] and then the chart-1 exponents
[0, chart1_hi[c]], and its C^1 the overlap window of each component, so
each component of each open set is one range (offset, lo, hi) and
z^e e_c is basis vector offset + e - lo (`_layout`).  An image's row is
found the same way, after a range check that raises BuilderError for an
image outside its cell.  The squares of i_V and delta commute; the Cech
block of each odd column p is written times (-1)^p, the twist of
`DoubleComplex.from_commuting`, so that they anticommute with no negated
copy of a block.  The Cech-degree and wedge-degree filtrations are the
double complex's `row_filtration` and `column_filtration`.

The first-order-operator bundle of the degree-d line bundle is derived
by transforming f + v d/dz under the trivialization change: its
chart-1-to-chart-0 matrix is [[1, d z], [0, -z^2]], acting on (scalar
part, vector part) columns.  Its cocycle identity T(z) T(1/z) = I and its
symbol row (0, -z^2), the tangent transition, hold for every degree d, so
they are proved once by the tests rather than on every run, as are the
closed forms of D*(d), of det D*(d) = Omega^1 and of the row grid.  "All
zeros simple" is a discriminant test, and under it the fixed points are
read off the coefficients in closed form, over the algebraic closure: a
pair of irrational zeros is listed and counted, not located.
"""

from __future__ import annotations

import math
from fractions import Fraction as QQ
from typing import NamedTuple

from .complexes import DoubleComplex, column_filtration, row_filtration, total_complex
from .exactla import (BuilderError, ExactMatrix, VerdictError, _built, format_rational, integer,
                      qq, quotient, rank)
from .lierinehart import p_scale, p_sub
from .specseq import Pairing, compute_page, run

Laurent = dict[int, QQ]


class WindowError(VerdictError):
    """Window too small: reported dimensions did not stabilize."""


class GluingError(VerdictError):
    pass


# -- Laurent polynomial helpers ----------------------------------------------

def lp(data) -> Laurent:
    if isinstance(data, dict):
        return {integer(e, "Laurent exponent", ValueError): c
                for e, x in data.items() if (c := qq(x))}
    if isinstance(data, (int, str, QQ)):
        c = qq(data)
        return {0: c} if c else {}
    raise TypeError(f"cannot interpret {data!r} as a Laurent polynomial")


def lp_monomial(e: int, c=1) -> Laurent:
    c = qq(c)
    return {e: c} if c else {}


def lp_mul(a: Laurent, b: Laurent) -> Laurent:
    out: Laurent = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def lp_coeffs_poly(coeffs) -> Laurent:
    """Polynomial from ascending coefficient list [a0, a1, ...]."""
    return {e: qq(c) for e, c in enumerate(coeffs) if qq(c)}


LMatrix = tuple[tuple[Laurent, ...], ...]


def lmat(rows) -> LMatrix:
    return tuple(tuple(lp(e) for e in row) for row in rows)


def lmat_det(a: LMatrix) -> Laurent:
    n = len(a)
    if n == 1:
        return a[0][0]
    if n == 2:
        return p_sub(lp_mul(a[0][0], a[1][1]), lp_mul(a[0][1], a[1][0]))
    raise ValueError("determinants implemented for ranks 1 and 2 only")


# -- sheaves ------------------------------------------------------------------

class SheafOnP1:
    """Locally free sheaf given by its chart-1-to-chart-0 overlap matrix."""

    def __init__(self, rank: int, transition, name: str = ""):
        self.rank = rank = integer(rank, "rank", ValueError)
        self.transition = lmat(transition)
        self.name = name
        if len(self.transition) != rank or any(len(r) != rank for r in self.transition):
            raise ValueError("transition matrix shape does not match rank")
        det = lmat_det(self.transition)
        if len(det) != 1:
            raise ValueError("transition determinant must be a unit monomial")
        # A unit determinant leaves no column of the transition zero.
        self.col_min_exps = tuple(min(e for row in self.transition for e in row[c])
                                  for c in range(rank))
        es = [e for row in self.transition for ent in row for e in ent]
        hi, lo = max(0, max(es)), min(0, min(es))
        self.margin = hi + (hi - lo) + 1

    def __repr__(self):
        return f"SheafOnP1({self.name or 'rank %d' % self.rank})"


def line_bundle(d: int) -> SheafOnP1:
    return SheafOnP1(1, [[lp_monomial(d)]], name=f"O({d})")


def cotangent_sheaf() -> SheafOnP1:
    # dz frame on U0, d(1/z) frame on U1: d(1/z) = -z^{-2} dz.
    return SheafOnP1(1, [[lp_monomial(-2, -1)]], name="Omega1")


# -- finite Cech model of one sheaf ------------------------------------------

class RowModel(NamedTuple):
    """Finite section spaces of one sheaf: chart cells and overlap window.
    C^0 holds z^e e_c for each component c with e in [0, chart0_hi] on
    chart 0, then with e in [0, chart1_hi[c]] on chart 1; C^1 holds z^e e_c
    with e in window[c] on the overlap (`_layout`)."""

    sheaf: SheafOnP1
    chart0_hi: int                       # chart-0 exponents [0, chart0_hi]
    chart1_hi: tuple[int, ...]           # per component, -1 means empty
    window: tuple[tuple[int, int], ...]  # per component inclusive (lo, hi)


def build_row(sheaf: SheafOnP1, radius: int, margin: int) -> RowModel:
    """Section model at the given radius: chart-0 exponents up to
    radius + margin, chart-1 exponents of column c up to that plus the
    column's lowest transition exponent, and an overlap window holding
    [-radius, radius], the chart-0 cell and every chart-1 image."""
    g = sheaf.transition
    chart0_hi = radius + margin
    chart1_hi = [radius + low + margin for low in sheaf.col_min_exps]
    window = []
    for c in range(sheaf.rank):
        lo = -radius
        hi = max(radius, chart0_hi)
        for c2 in range(sheaf.rank):
            if chart1_hi[c2] < 0 or not g[c][c2]:
                continue
            lo = min(lo, min(g[c][c2]) - chart1_hi[c2])
            hi = max(hi, max(g[c][c2]))
        window.append((lo, hi))
    return RowModel(sheaf, chart0_hi, tuple(chart1_hi), tuple(window))


# One space's layout and its dimension.  The layout holds, per open set, one
# (offset, lo, hi) per component c: z^e e_c, lo <= e <= hi, is basis vector
# offset + e - lo.
Layout = tuple[dict[str, list[tuple[int, int, int]]], int]


def _layout(row: RowModel) -> tuple[Layout, Layout]:
    """The layouts of the row's C^0 (open sets "0" then "1") and C^1 ("01")."""
    bounds = {"0": [(0, row.chart0_hi)] * row.sheaf.rank,
              "1": [(0, hi) for hi in row.chart1_hi], "01": row.window}
    spaces = []
    for sides in (("0", "1"), ("01",)):
        cells, offset = {}, 0
        for side in sides:
            cells[side] = []
            for lo, hi in bounds[side]:
                cells[side].append((offset, lo, hi))
                offset += hi - lo + 1
        spaces.append((cells, offset))
    return spaces[0], spaces[1]


def _laurent_block(src: Layout, dst: Layout, maps: dict, rows: list[dict],
                   row_off: int = 0, col_off: int = 0) -> None:
    """Write into `rows` the map sending the basis vector z^j e_c of open set
    `side` in `src` to sum_r m[r][c] z^(flip j) e_r of open set `out` in
    `dst`, where (m, flip, out) = maps[side] and m is a Laurent matrix:
    basis vector i of `dst` is row row_off + i and basis vector j of `src`
    is column col_off + j.  An image outside its target cell is a fault of
    the builder (BuilderError), never a truncation.  Images are distinct
    and coefficients canonical, so the rows can be wrapped as written."""
    dst_cells = dst[0]
    for side, cells in src[0].items():
        m, flip, out = maps[side]
        target = dst_cells[out]
        for c, (offset, lo, hi) in enumerate(cells):
            if hi < lo:
                continue
            # the terms of column c of m, each with its target cell
            terms = [(r, e, x, *target[r]) for r, row in enumerate(m) for e, x in row[c].items()]
            size = hi - lo + 1
            offset += col_off
            for _, e, x, t_offset, t_lo, t_hi in terms:
                # the term's images run from that of z^lo to that of z^hi
                first = e + flip * lo
                if not (t_lo <= first <= t_hi and t_lo <= first + flip * (size - 1) <= t_hi):
                    # name the first image, in column order, that leaves its cell
                    raise BuilderError(next(
                        f"image {(out, r, e + flip * j)} leaves the target cell"
                        for j in range(lo, hi + 1) for r, e, _, _, t_lo, t_hi in terms
                        if not t_lo <= e + flip * j <= t_hi))
                first += t_offset - t_lo + row_off
                for i, col in zip(range(first, first + flip * size, flip),
                                  range(offset, offset + size)):
                    rows[i][col] = x


def _delta_matrix(row: RowModel, rows: list[dict], sign: int = 1,
                  layout: tuple[Layout, Layout] | None = None,
                  row_off: int = 0, col_off: int = 0) -> None:
    """Write into `rows`, as `_laurent_block` does, the Cech differential
    C^0 -> C^1 times `sign`: (s0, s1) -> iota1(s1) - iota0(s0), a chart-1
    section in 1/z written in z (j -> -j) and moved to chart 0 by the
    transition.  `layout` is the row's `_layout`, when the caller has it."""
    chart, overlap = layout or _layout(row)
    n = row.sheaf.rank
    minus = tuple(tuple({0: -sign} if r == c else {} for c in range(n)) for r in range(n))
    g = tuple(tuple({e: sign * x for e, x in ent.items()} for ent in r)
              for r in row.sheaf.transition)
    _laurent_block(chart, overlap, {"0": (minus, 1, "01"), "1": (g, -1, "01")},
                   rows, row_off, col_off)


def _cech_dims(sheaf: SheafOnP1, radius: int) -> tuple[int, int]:
    """(h0, h1) of the sheaf's row model: kernel and cokernel dims of delta."""
    row = build_row(sheaf, radius, sheaf.margin)
    chart, overlap = layout = _layout(row)
    rows: list[dict] = [{} for _ in range(overlap[1])]
    _delta_matrix(row, rows, layout=layout)
    rk = rank(_built(ExactMatrix, len(rows), chart[1], tuple(rows)))
    return chart[1] - rk, overlap[1] - rk


def _window_stable(what: str, window: int, first, second):
    """The window check: `first`, computed at window D, must equal `second`,
    computed at window D+1; returns `first`."""
    if first != second:
        raise WindowError(f"window too small: {what} {first} at window {window} "
                          f"vs {second} at window {window + 1}")
    return first


def cech_cohomology(sheaf: SheafOnP1, window: int) -> tuple[int, int]:
    """(h0, h1) of the two-chart model, verified stable at window+1."""
    window = integer(window, "window", ValueError)
    if window < 1:
        raise ValueError("window radius must be at least 1")
    return _window_stable("dims", window, _cech_dims(sheaf, window),
                          _cech_dims(sheaf, window + 1))


# -- the first-order-operator bundle and its wedge duals ----------------------

class AlgebroidOnP1:
    """Operators f + v d/dz on the degree-d line bundle, two-chart data.

    Chart columns are (scalar part, vector part).  The chart-1-to-chart-0
    matrix T = [[1, d z], [0, -z^2]] is derived from the transformation law;
    D*(d) has its inverse transpose [[1, 0], [d z^-1, -z^-2]], with det -z^-2.
    """

    def __init__(self, degree: int):
        d = self.degree = integer(degree, "degree", ValueError)
        self.transition = lmat([[1, lp_monomial(1, d)], [0, lp_monomial(2, -1)]])
        dual = lmat([[1, 0], [lp_monomial(-1, d), lp_monomial(-2, -1)]])
        self._duals = (line_bundle(0), SheafOnP1(2, dual, name=f"D*({d})"), cotangent_sheaf())

    def wedge_dual(self, p: int) -> SheafOnP1:
        """Lambda^p of the dual bundle (p in {0, 1, 2})."""
        p = integer(p, "wedge power", ValueError)
        if p not in (0, 1, 2):
            raise ValueError("wedge power must be 0, 1 or 2")
        return self._duals[p]

    def row_grid(self, untwisted: bool = False) -> dict[tuple[int, int], int]:
        """h^q(X, Lambda^{-p} D*) on every cell (p, q), zeros kept.  A row sheaf
        is a sum of O(a) (Grothendieck): a = 0 for O, -2 for Omega^1, -1, -1 for
        D*(d) and 0, -2 for D*(0); h^q O(a) is Hartshorne III.5.1."""
        splits = {-1: (-2,), 0: (0,)} if untwisted else {
            -2: (-2,), -1: (-1, -1) if self.degree else (0, -2), 0: (0,)}
        return {(p, q): sum(max(-a - 1, 0) if q else max(a + 1, 0) for a in split)
                for p, split in splits.items() for q in (0, 1)}


def atiyah_algebroid(d: int) -> AlgebroidOnP1:
    return AlgebroidOnP1(d)


class EquivariantSection:
    """Global operator section: vector field a + bz + cz^2 plus a scalar part.

    The chart-1 data (f1, w1) is solved from the gluing condition
    T(z) (f1, w1)(1/z) = (f0, v0)(z), so it glues for every input; a
    chart-0 scalar part is admissible only if it has the forced shape
    alpha - d*c*z.
    """

    def __init__(self, algebroid: AlgebroidOnP1, vf_coeffs, scalar0=None):
        self.algebroid = algebroid
        d = algebroid.degree
        a, b, c = (qq(x) for x in vf_coeffs)
        self.vf_coeffs = (a, b, c)
        self.v0 = lp_coeffs_poly([a, b, c])
        forced = -d * c
        if scalar0 is None:
            alpha = 0
        else:
            coeffs = [qq(x) for x in scalar0]
            if len(coeffs) > 2 or (len(coeffs) == 2 and coeffs[1] != forced):
                raise GluingError(
                    f"scalar part must be alpha + ({forced})*z to glue, got {coeffs}")
            alpha = coeffs[0] if coeffs else 0
        self.alpha = alpha
        self.f0 = lp_coeffs_poly([alpha, forced])
        self.w1 = lp_coeffs_poly([-c, -b, -a])
        self.f1 = lp_coeffs_poly([alpha + d * b, d * a])


# -- the Cech-Koszul double complex -------------------------------------------

class CechKoszulModel(NamedTuple):
    algebroid: AlgebroidOnP1
    section: EquivariantSection
    window: int
    untwisted: bool
    double: DoubleComplex    # cells (p, q): wedge row p's C^q
    cech: Pairing    # of the Cech-degree filtration; its E_inf totals are H


def _contraction_matrix(v: EquivariantSection, side: str, p: int, untwisted: bool) -> LMatrix:
    """Laurent matrix of i_V out of wedge row p on the open set `side`, where
    V is f + v d/dz: (f1, w1) on chart 1, (f0, v0) on chart 0 and the overlap
    (components ordered: Lambda^1 D* = (eps_sc, eps_vf))."""
    f, vf = (v.f1, v.w1) if side == "1" else (v.f0, v.v0)
    if untwisted:
        return ((vf,),)       # Omega^1 -> O by the vector part
    return ((p_scale(-1, vf),), (f,)) if p == -2 else ((f, vf),)


def cech_koszul(algebroid: AlgebroidOnP1, section: EquivariantSection,
                window: int, untwisted: bool = False) -> CechKoszulModel:
    """The double complex with first index the wedge degree p (differential
    i_V) and second index the Cech degree q (differential delta),
    anticommuting, and the pairing of its Cech-degree filtration.  Its
    D^2 = 0 holds by construction: i_V^2 = 0 on each open set, and i_V
    commutes with delta because the section and the transitions glue; the
    Cech blocks are written with the (-1)^p twist of
    `DoubleComplex.from_commuting`, which makes the squares anticommute.
    So the blocks are written straight into the total complex by
    `total_complex` and the value is made by `_built`, unchecked; the
    tests prove D^2 = 0 on the P^1 corpus, cutting the blocks out of the
    total again into a checked `DoubleComplex` (`tests/helpers.double`),
    and the gluing identities for every degree.  One window's model, for a
    window of at least 1, and a section of `algebroid`'s (ValueError
    otherwise): the complex and the row grid that `first_page` reads are
    `algebroid`'s."""
    if section.algebroid.degree != algebroid.degree:
        raise ValueError(f"section degree {section.algebroid.degree} differs from "
                         f"algebroid degree {algebroid.degree}")
    window = integer(window, "window", ValueError)
    if window < 1:
        raise ValueError("window radius must be at least 1")
    # untwisted, the rows are Omega^1 = Lambda^2 D* and O = Lambda^0 D*
    ps = [-1, 0] if untwisted else [-2, -1, 0]
    sheaves = {p: algebroid.wedge_dual(-2 * p if untwisted else -p) for p in ps}
    margin = max(sheaves[p].margin for p in ps)
    # Every component of a section (f0, v0, f1, w1) has degree <= 2 in its
    # chart coordinate, so i_V raises exponents by at most 2: each row's
    # radius is 2 more than the row it receives from.
    rows = {p: build_row(sheaves[p], window + 2 * (p - ps[0]), margin) for p in ps}
    layouts = {p: _layout(rows[p]) for p in ps}
    cells = {(p, q): layouts[p][q][1] for p in ps for q in (0, 1)}

    def write(out: dict[int, list[dict]], at: dict[tuple[int, int], int]) -> None:
        for p in ps:
            # the (-1)^p twist of `DoubleComplex.from_commuting`, built in
            _delta_matrix(rows[p], out[p], -1 if p % 2 else 1, layouts[p],
                          at[(p, 1)], at[(p, 0)])
        for p in ps[:-1]:
            i_v = {side: (_contraction_matrix(section, side, p, untwisted), 1, side)
                   for side in ("0", "1", "01")}
            for q in (0, 1):
                _laurent_block(layouts[p][q], layouts[p + 1][q], i_v, out[p + q],
                               at[(p + 1, q)], at[(p, q)])

    double = _built(DoubleComplex, ps[0], ps[-1], 0, 1, cells, total_complex(cells, write))
    return CechKoszulModel(algebroid, section, window, untwisted, double,
                           run(row_filtration(double)))


def window_checked(algebroid: AlgebroidOnP1, section: EquivariantSection,
                   window: int, untwisted: bool = False) -> CechKoszulModel:
    """The window check of a `p1` run: the model at window D, once it agrees
    with the same model at window D+1 on the E_inf grid of its Cech-degree
    run (WindowError otherwise).  That grid determines every reported
    dimension but the first page, a closed form: H is the antidiagonal
    totals of E_inf, and E2 = E_inf by dimension (two Cech levels).  The
    check cannot fail (module docstring): each model is a subcomplex of the
    infinite one whose rows include quasi-isomorphically, so H is exact,
    and E_inf sits at Cech level 0 for V != 0 and is the row grid for
    V = 0.  It still runs: dropping the D+1 model waits on a benchmark
    memory metric that does not grow with the pass count."""
    model = cech_koszul(algebroid, section, window, untwisted)
    nxt = cech_koszul(algebroid, section, model.window + 1, untwisted)
    _window_stable("dims (E_inf)", model.window, dict(model.cech.unpaired), dict(nxt.cech.unpaired))
    return model


def equivariant_H(model: CechKoszulModel) -> dict[int, int]:
    """H of the total complex (degrees k = cech - wedge), the E_inf totals of
    the Cech-degree run."""
    return model.cech.infinity_totals()


def first_page(model: CechKoszulModel) -> dict[tuple[int, int], int]:
    """The observed d_1 ranks of page 1 of the wedge-degree filtration, the
    `column_filtration` of `model.double` (no expectation asserted for
    them).  That page's E1 is the row grid
    h^q(X, Lambda^{-p} D*), the closed form `row_grid(model.untwisted)` of
    the model's algebroid; the tests prove it equal to each row sheaf's
    Cech cohomology and to that E1.  A page lists the rank of d_1:
    (p, q) -> (p + 1, q) only where both cells are nonzero, so the
    wedge-degree run is paired only when the grid has two such cells, which
    happens at twisted degree 0 alone (D*(0) = O + O(-2))."""
    grid = model.algebroid.row_grid(model.untwisted)
    if not any(dim and grid.get((p + 1, q)) for (p, q), dim in grid.items()):
        return {}
    return compute_page(run(column_filtration(model.double)), 1).ranks


# -- fixed points, assumption, corollary --------------------------------------

def _rational_sqrt(x: QQ) -> QQ | None:
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return QQ(rn, rd)
    return None


def assumption_check(section: EquivariantSection) -> bool:
    """All zeros of the symbol vector field a + b z + c z^2 are simple: a
    nonzero discriminant if c != 0, else b != 0 (infinity is then a zero of
    order 2 - degree).  No root is located."""
    a, b, c = section.vf_coeffs
    return b * b != 4 * a * c if c else b != 0


def fixed_point_set(section: EquivariantSection, untwisted: bool) -> list[object]:
    """Points of P^1, over the algebraic closure, where the section vanishes:
    the zeros of the vector part a + b z + c z^2 and, in the operator case,
    those where the scalar part vanishes too.  A closed form that holds
    where `assumption_check` does, so that the vector part has exactly two
    zeros:
    - c = 0: -a/b and "infinity", where the scalar parts are f0 = alpha and
      f1(0) = alpha + d b;
    - c != 0 with a rational square root of b^2 - 4ac: (-b +- root)/2c, an
      int or a Fraction x, where f0 = alpha - d c x;
    - c != 0 otherwise: a conjugate pair, written "(-b + sqrt(disc))/2c"
      and "(-b - sqrt(disc))/2c".  f0 has degree <= 1 and rational
      coefficients, so it vanishes at both iff alpha = d = 0, else at neither."""
    a, b, c = section.vf_coeffs
    alpha, d = section.alpha, section.algebroid.degree
    disc = b * b - 4 * a * c
    root = _rational_sqrt(disc)
    if not c:
        points = [(quotient(-a, b), alpha), ("infinity", alpha + d * b)]
    elif root is not None:
        points = [(x, alpha - d * c * x)
                  for x in (quotient(-b + root, 2 * c), quotient(-b - root, 2 * c))]
    else:
        points = [(f"({format_rational(-b)} {sign} sqrt({format_rational(disc)}))"
                   f"/{format_rational(2 * c)}", alpha or d) for sign in "+-"]
    return [x for x, scalar in points if untwisted or not scalar]


class CorollaryReport(NamedTuple):
    fixed_points: tuple
    predicted: dict[int, int]
    match: bool


def corollary_check(model: CechKoszulModel) -> CorollaryReport | None:
    """Fixed-point prediction against the equivariant cohomology of `model`,
    under the hypothesis of all zeros simple, which is also the one under
    which `fixed_point_set` holds; None where it fails (not covered).  The
    report holds the points, the predicted nonzero dimensions, and whether
    they are those of `equivariant_H(model)`, which the caller reads itself.

    Each vanishing point contributes one dimension in degree 0 and, in the
    operator-bundle case, one more in degree -1 (the operators on the
    restricted bundle at a point are its endomorphisms: a line)."""
    if not assumption_check(model.section):
        return None
    pts = fixed_point_set(model.section, model.untwisted)
    predicted = {0: len(pts)} if model.untwisted else {0: len(pts), -1: len(pts)}
    predicted = {k: v for k, v in predicted.items() if v}
    computed = {k: v for k, v in equivariant_H(model).items() if v}
    return CorollaryReport(tuple(pts), predicted, predicted == computed)


def second_page_degeneration(model: CechKoszulModel) -> Pairing:
    """The model's Cech-degree run (contraction first, then Cech): its
    `degeneration_page` is the page and its `unpaired` is E2 = E_inf.  With
    two levels (Cech degrees 0 and 1) every pairing gap is 0 or 1, so page
    <= 2 and E2 = E_inf hold by dimension: they are facts to report, not a
    verdict, and only the window check of `window_checked` can fail."""
    return model.cech
