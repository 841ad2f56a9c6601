"""Two-chart Cech models on the projective line.

Charts U0 (coordinate z) and U1 (coordinate 1/z) with Laurent-polynomial
overlap data.  A sheaf is given by an invertible Laurent transition
matrix G(z) converting chart-1 coefficient columns (evaluated at 1/z)
into the chart-0 frame; the degree-d line bundle has G = [[z^d]].

Finite models: chart sections are truncated polynomials and the overlap
is a per-component exponent window.  Truncation bounds are fattened by a
margin derived from the exponent spread of the transition, and each
overlap window is extended to the exact exponent range of the incoming
images, so no map is ever silently truncated (a map leaving its target
raises).  Cohomology of such a model can still be wrong when the window
is too small to see a stable answer, so every reported dimension is
recomputed at window D+1 and a mismatch raises WindowError.

Every block of the Cech-Koszul double complex is one Laurent matrix per
open set (`_laurent_block`): the Cech differential is -I on chart 0 and
the transition, with j -> -j, on chart 1, and the contraction i_V is a
matrix in the section's scalar and vector parts on each open set.

The first-order-operator bundle of the degree-d line bundle is derived
by transforming f + v d/dz under the trivialization change: its
chart-1-to-chart-0 matrix is [[1, d z], [0, -z^2]], acting on (scalar
part, vector part) columns; the machine verifies the cocycle identity
and that the symbol row intertwines with the tangent transition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as QQ

from .complexes import DoubleComplex, betti, column_filtration, row_filtration, total
from .exactla import ExactMatrix, qq, quotient, rank
from .specseq import check_convergence, compute_page, pairing, run

Laurent = dict[int, QQ]


class WindowError(Exception):
    """Window too small: reported dimensions did not stabilize."""


class GluingError(Exception):
    pass


class IrrationalZeroError(Exception):
    pass


# -- Laurent polynomial helpers ----------------------------------------------

def lp(data) -> Laurent:
    if isinstance(data, dict):
        out = {int(e): qq(c) for e, c in data.items() if qq(c)}
        return out
    if isinstance(data, (int, str, QQ)):
        c = qq(data)
        return {0: c} if c else {}
    raise TypeError(f"cannot interpret {data!r} as a Laurent polynomial")


def lp_monomial(e: int, c=1) -> Laurent:
    c = qq(c)
    return {e: c} if c else {}


def lp_add(a: Laurent, b: Laurent) -> Laurent:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def lp_scale(c, a: Laurent) -> Laurent:
    c = qq(c)
    return {e: c * v for e, v in a.items()} if c else {}


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


def lp_flip(a: Laurent) -> Laurent:
    """Substitute z -> 1/z."""
    return {-e: c for e, c in a.items()}


def lp_eval(a: Laurent, x: QQ) -> QQ:
    x = qq(x)
    total_ = 0
    for e, c in a.items():
        if e >= 0:
            total_ += c * x ** e
        else:
            if x == 0:
                raise ZeroDivisionError("negative exponent at zero")
            total_ += quotient(c, x ** (-e))
    return total_


def lp_coeffs_poly(coeffs) -> Laurent:
    """Polynomial from ascending coefficient list [a0, a1, ...]."""
    return {e: qq(c) for e, c in enumerate(coeffs) if qq(c)}


LMatrix = tuple[tuple[Laurent, ...], ...]


def lmat(rows) -> LMatrix:
    return tuple(tuple(lp(e) for e in row) for row in rows)


def lmat_mul(a: LMatrix, b: LMatrix) -> LMatrix:
    n, mid, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc: Laurent = {}
            for k in range(mid):
                acc = lp_add(acc, lp_mul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def lmat_flip(a: LMatrix) -> LMatrix:
    return tuple(tuple(lp_flip(e) for e in row) for row in a)


def lmat_identity(n: int) -> LMatrix:
    return tuple(tuple(lp(1 if i == j else 0) for j in range(n)) for i in range(n))


def lmat_det(a: LMatrix) -> Laurent:
    n = len(a)
    if n == 1:
        return a[0][0]
    if n == 2:
        return lp_add(lp_mul(a[0][0], a[1][1]), lp_scale(-1, lp_mul(a[0][1], a[1][0])))
    raise ValueError("determinants implemented for ranks 1 and 2 only")


def lmat_inverse(a: LMatrix) -> LMatrix:
    det = lmat_det(a)
    if len(det) != 1:
        raise ValueError("transition determinant is not a unit monomial")
    (e, c), = det.items()
    adj = ((lp(1),),) if len(a) == 1 else (
        (a[1][1], lp_scale(-1, a[0][1])), (lp_scale(-1, a[1][0]), a[0][0]))
    return tuple(tuple({k - e: quotient(x, c) for k, x in entry.items()}  # adj / (c z^e)
                       for entry in row) for row in adj)


def lmat_transpose(a: LMatrix) -> LMatrix:
    return tuple(tuple(a[j][i] for j in range(len(a))) for i in range(len(a[0])))


# -- sheaves ------------------------------------------------------------------

class SheafOnP1:
    """Locally free sheaf given by its chart-1-to-chart-0 overlap matrix."""

    def __init__(self, rank: int, transition, name: str = ""):
        self.rank = rank
        self.transition = lmat(transition)
        self.name = name
        if len(self.transition) != rank or any(len(r) != rank for r in self.transition):
            raise ValueError("transition matrix shape does not match rank")
        det = lmat_det(self.transition)
        if len(det) != 1:
            raise ValueError("transition determinant must be a unit monomial")

    def col_min_exp(self, c: int) -> int:
        exps = [e for r in range(self.rank) for e in self.transition[r][c]]
        return min(exps)

    def exps(self) -> list[int]:
        return [e for row in self.transition for ent in row for e in ent]

    def margin(self) -> int:
        es = self.exps()
        hi, lo = max(0, max(es)), min(0, min(es))
        return max(0, max(es)) + (hi - lo) + 1

    def __repr__(self):
        return f"SheafOnP1({self.name or 'rank %d' % self.rank})"


def line_bundle(d: int) -> SheafOnP1:
    return SheafOnP1(1, [[lp_monomial(d)]], name=f"O({d})")


def cotangent_sheaf() -> SheafOnP1:
    # dz frame on U0, d(1/z) frame on U1: d(1/z) = -z^{-2} dz.
    return SheafOnP1(1, [[lp_monomial(-2, -1)]], name="Omega1")


# -- finite Cech model of one sheaf ------------------------------------------

@dataclass
class RowModel:
    """Finite section spaces of one sheaf: chart cells and overlap window.
    Basis vectors z^e e_c are keyed (open set, c, e), open set "0", "1" or "01"."""

    sheaf: SheafOnP1
    radius: int
    chart0_hi: int                       # chart-0 exponents [0, chart0_hi]
    chart1_hi: tuple[int, ...]           # per component, -1 means empty
    window: tuple[tuple[int, int], ...]  # per component inclusive (lo, hi)

    def chart_entries(self) -> list[tuple[str, int, int]]:
        out = [("0", c, e) for c in range(self.sheaf.rank)
               for e in range(0, self.chart0_hi + 1)]
        out.extend(("1", c, e) for c in range(self.sheaf.rank)
                   for e in range(0, self.chart1_hi[c] + 1))
        return out

    def window_entries(self) -> list[tuple[str, int, int]]:
        return [("01", c, e) for c in range(self.sheaf.rank)
                for e in range(self.window[c][0], self.window[c][1] + 1)]


# Contraction by a section raises exponents by at most 2: every component
# of a section (f0, v0, f1, w1) has degree <= 2 in its chart coordinate.
_SHIFT = 2


def build_row(sheaf: SheafOnP1, radius: int, margin: int,
              prev: RowModel | None = None) -> RowModel:
    """Section model at the given radius.

    `prev` is the model one level below under a multiplication map that
    raises exponents by at most `_SHIFT`; its bounds force closure here.
    """
    g = sheaf.transition
    chart0_hi = radius + margin
    chart1_hi = []
    for c in range(sheaf.rank):
        chart1_hi.append(radius + sheaf.col_min_exp(c) + margin)
    if prev is not None:
        chart0_hi = max(chart0_hi, prev.chart0_hi + _SHIFT)
        need = max((j for j in prev.chart1_hi), default=-1)
        chart1_hi = [max(j, need + _SHIFT) if j >= 0 or need >= 0 else j
                     for j in chart1_hi]
    window = []
    for c in range(sheaf.rank):
        lo = -radius
        hi = max(radius, chart0_hi)
        for c2 in range(sheaf.rank):
            if chart1_hi[c2] < 0 or not g[c][c2]:
                continue
            lo = min(lo, min(g[c][c2]) - chart1_hi[c2])
            hi = max(hi, max(g[c][c2]))
        if prev is not None:
            plo = min(w[0] for w in prev.window)
            phi = max(w[1] for w in prev.window)
            lo = min(lo, plo)
            hi = max(hi, phi + _SHIFT)
        window.append((lo, hi))
    return RowModel(sheaf, radius, chart0_hi, tuple(chart1_hi), tuple(window))


def _laurent_block(src: list, dst: list, maps: dict) -> ExactMatrix:
    """Matrix of the map sending the basis vector z^j e_c at source key
    (side, c, j) to sum_r m[r][c] z^(flip j) e_r in the open set `out`,
    where (m, flip, out) = maps[side] and m is a Laurent matrix; raises
    WindowError if an image leaves the target cell `dst`."""
    index = {key: i for i, key in enumerate(dst)}
    # per open set, the terms (r, e, coefficient) of each column c of its matrix
    terms = {side: (flip, out, [[(r, e, x) for r, row in enumerate(m) for e, x in row[c].items()]
                                for c in range(len(m[0]))])
             for side, (m, flip, out) in maps.items()}
    entries = []
    for col, (side, c, j) in enumerate(src):
        flip, out, column = terms[side]
        j *= flip
        for r, e, coeff in column[c]:
            i = index.get((out, r, e + j))
            if i is None:
                raise WindowError(f"image {(out, r, e + j)} leaves the target cell")
            entries.append((i, col, coeff))
    return ExactMatrix.from_entries(len(dst), len(src), entries)


def _delta_matrix(row: RowModel) -> ExactMatrix:
    """Cech differential C^0 -> C^1: (s0, s1) -> iota1(s1) - iota0(s0), a chart-1
    section in 1/z written in z (j -> -j) and moved to chart 0 by the transition."""
    n = row.sheaf.rank
    minus_one = tuple(tuple({0: -1} if r == c else {} for c in range(n)) for r in range(n))
    return _laurent_block(row.chart_entries(), row.window_entries(),
                          {"0": (minus_one, 1, "01"), "1": (row.sheaf.transition, -1, "01")})


def _cech_dims(sheaf: SheafOnP1, radius: int) -> tuple[int, int]:
    row = build_row(sheaf, radius, sheaf.margin())
    delta = _delta_matrix(row)
    rk = rank(delta)
    return delta.cols - rk, delta.rows - rk


def _window_stable(what: str, window: int, next_window: int, first, second):
    """The window check: `first`, computed at window D, must equal `second`,
    computed at window D+1; returns `first`."""
    if next_window != window + 1:
        raise ValueError(f"window check needs windows {window} and {window + 1}, "
                         f"got {next_window}")
    if first != second:
        raise WindowError(f"window too small: {what} {first} at window {window} "
                          f"vs {second} at window {next_window}")
    return first


def cech_cohomology(sheaf: SheafOnP1, window: int) -> tuple[int, int]:
    """(h0, h1) of the two-chart model, verified stable at window+1."""
    if window < 1:
        raise WindowError("window radius must be at least 1")
    return _window_stable("dims", window, window + 1,
                          _cech_dims(sheaf, window), _cech_dims(sheaf, window + 1))


# -- the first-order-operator bundle and its wedge duals ----------------------

class AlgebroidOnP1:
    """Operators f + v d/dz on the degree-d line bundle, two-chart data.

    Chart columns are (scalar part, vector part).  The chart-1-to-chart-0
    matrix is derived from the transformation law and its two-chart
    cocycle identity and symbol compatibility are verified exactly.
    """

    def __init__(self, degree: int):
        self.degree = int(degree)
        d = self.degree
        self.transition = lmat([[lp(1), lp_monomial(1, d)],
                                [lp(0), lp_monomial(2, -1)]])
        other = lmat_flip(self.transition)  # the chart-1 copy, evaluated at 1/z
        prod = lmat_mul(self.transition, other)
        if prod != lmat_identity(2):
            raise GluingError("cocycle identity fails for the operator bundle")
        # symbol row (0 1): sigma(T u) must equal -z^2 sigma(u)
        sym = tuple(self.transition[1])
        if sym != (lp(0), lp_monomial(2, -1)):
            raise GluingError("symbol projection does not intertwine")

    def wedge_dual(self, p: int) -> SheafOnP1:
        """Lambda^p of the dual bundle (p in {0, 1, 2})."""
        if p == 0:
            return line_bundle(0)
        inv_t = lmat_transpose(lmat_inverse(self.transition))
        if p == 1:
            return SheafOnP1(2, inv_t, name=f"D*({self.degree})")
        if p == 2:
            return SheafOnP1(1, [[lmat_det(inv_t)]], name=f"det D*({self.degree})")
        raise ValueError("wedge power must be 0, 1 or 2")


def atiyah_algebroid(d: int) -> AlgebroidOnP1:
    return AlgebroidOnP1(d)


def wedge_dual(algebroid: AlgebroidOnP1, p: int) -> SheafOnP1:
    """Lambda^p of the dual of the operator bundle."""
    return algebroid.wedge_dual(p)


class EquivariantSection:
    """Global operator section: vector field a + bz + cz^2 plus a scalar part.

    The chart-1 data is solved from the gluing condition; a chart-0
    scalar part is admissible only if it has the forced shape
    alpha - d*c*z, and the resulting identity
    T(z) (f1, w1)(1/z) = (f0, v0)(z) is verified exactly.
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
        lhs0 = lp_add(lp_flip(self.f1),
                      lp_mul(lp_monomial(1, d), lp_flip(self.w1)))
        lhs1 = lp_mul(lp_monomial(2, -1), lp_flip(self.w1))
        if lhs0 != self.f0 or lhs1 != self.v0:
            raise GluingError(
                f"overlap mismatch: chart-1 data pulls back to ({lhs0}, {lhs1}), "
                f"chart-0 data is ({self.f0}, {self.v0})")

    def is_zero(self) -> bool:
        return not self.v0 and not self.f0


def zero_section(algebroid: AlgebroidOnP1) -> EquivariantSection:
    return EquivariantSection(algebroid, (0, 0, 0))


# -- the Cech-Koszul double complex -------------------------------------------

@dataclass
class CechKoszulModel:
    algebroid: AlgebroidOnP1
    section: EquivariantSection
    window: int
    untwisted: bool
    rows: dict[int, RowModel]
    double: DoubleComplex
    betti: dict[int, int]        # of the total complex, degrees k = cech - wedge


def _contraction_matrix(v: EquivariantSection, side: str, p: int, untwisted: bool) -> LMatrix:
    """Laurent matrix of i_V out of wedge row p on the open set `side`, where
    V is f + v d/dz: (f1, w1) on chart 1, (f0, v0) on chart 0 and the overlap
    (components ordered: Lambda^1 D* = (eps_sc, eps_vf))."""
    f, vf = (v.f1, v.w1) if side == "1" else (v.f0, v.v0)
    if untwisted:
        return ((vf,),)       # Omega^1 -> O by the vector part
    return ((lp_scale(-1, vf),), (f,)) if p == -2 else ((f, vf),)


def cech_koszul(algebroid: AlgebroidOnP1, section: EquivariantSection,
                window: int, untwisted: bool = False) -> CechKoszulModel:
    """Double complex with first index the wedge degree p (differential i_V)
    and second index the Cech degree q (differential delta), anticommuting."""
    if window < 1:
        raise WindowError("window radius must be at least 1")
    if untwisted:
        ps = [-1, 0]
        sheaves = {-1: cotangent_sheaf(), 0: line_bundle(0)}
    else:
        ps = [-2, -1, 0]
        sheaves = {p: algebroid.wedge_dual(-p) for p in ps}
    margin = max(sheaves[p].margin() for p in ps)
    rows: dict[int, RowModel] = {}
    prev = None
    for p in ps:
        radius = window + 2 * (p - ps[0])
        rows[p] = build_row(sheaves[p], radius, margin, prev=prev)
        prev = rows[p]
    dims = {}
    vertical = {}
    horizontal = {}
    for p in ps:
        delta = vertical[(p, 0)] = _delta_matrix(rows[p])
        dims[(p, 0)], dims[(p, 1)] = delta.cols, delta.rows
    for p in ps[:-1]:
        src, dst = rows[p], rows[p + 1]
        i_v = {side: (_contraction_matrix(section, side, p, untwisted), 1, side)
               for side in ("0", "1", "01")}
        horizontal[(p, 0)] = _laurent_block(src.chart_entries(), dst.chart_entries(), i_v)
        horizontal[(p, 1)] = _laurent_block(src.window_entries(), dst.window_entries(), i_v)
    double = DoubleComplex.from_commuting(ps[0], 0, 0, 1, dims, horizontal, vertical)
    return CechKoszulModel(algebroid, section, window, untwisted, rows, double,
                           betti(total(double)))


def equivariant_H(model: CechKoszulModel, nxt: CechKoszulModel) -> dict[int, int]:
    """Cohomology dims of the total complex, degrees k = cech - wedge,
    verified stable on `nxt`, the same model at window D+1."""
    return _window_stable("H dims", model.window, nxt.window, model.betti, nxt.betti)


@dataclass(frozen=True)
class FirstPageReport:
    window: int
    grid: dict[tuple[int, int], int]       # (p, q) -> h^q(X, Lambda^{-p} D*)
    engine_grid: dict[tuple[int, int], int]
    d1_ranks: dict[tuple[int, int], int]

    @property
    def consistent(self) -> bool:
        return self.grid == self.engine_grid


def first_page(model: CechKoszulModel) -> FirstPageReport:
    """Cech dims of each row sheaf, cross-checked against page 1 of the
    wedge-degree filtration of the double complex; reports observed d_1
    ranks (no expectation asserted for them)."""
    grid: dict[tuple[int, int], int] = {}
    for p, row in model.rows.items():
        grid[(p, 0)], grid[(p, 1)] = cech_cohomology(row.sheaf, model.window)
    page1 = compute_page(pairing(column_filtration(model.double)), 1)
    engine = {pq: dim for pq, dim in page1.dims().items() if pq in grid or dim}
    report = FirstPageReport(model.window, grid, engine, page1.ranks)
    if not report.consistent:
        raise WindowError(
            f"first-page grids disagree: cech {grid} vs engine {engine}")
    return report


# -- fixed points, assumption, corollary --------------------------------------

def _rational_sqrt(x: QQ) -> QQ | None:
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return QQ(rn, rd)
    return None


def vector_field_zeros(section: EquivariantSection) -> list[tuple[object, int]]:
    """Zeros of the vector part on the line plus the point at infinity,
    as (location, multiplicity); location is a rational or "infinity"."""
    a, b, c = section.vf_coeffs
    if a == 0 and b == 0 and c == 0:
        raise GluingError("vector part is identically zero; zero locus is not finite")
    zeros: list[tuple[object, int]] = []
    if c != 0:
        disc = b * b - 4 * a * c
        root = _rational_sqrt(disc) if disc >= 0 else None
        if disc != 0 and root is None:
            raise IrrationalZeroError(f"irrational zero: discriminant {disc}")
        if disc == 0:
            zeros.append((quotient(-b, 2 * c), 2))
        else:
            zeros.append((quotient(-b + root, 2 * c), 1))
            zeros.append((quotient(-b - root, 2 * c), 1))
        deg = 2
    elif b != 0:
        zeros.append((quotient(-a, b), 1))
        deg = 1
    else:
        deg = 0
    if deg < 2:
        zeros.append(("infinity", 2 - deg))
    return zeros


def assumption_check(algebroid: AlgebroidOnP1, section: EquivariantSection) -> bool:
    """All zeros of the symbol vector field are simple (nonzero linearization)."""
    try:
        zeros = vector_field_zeros(section)
    except GluingError:
        return False
    return all(mult == 1 for _, mult in zeros)


def fixed_point_set(section: EquivariantSection, untwisted: bool) -> list[object]:
    """Points where the section vanishes: for the operator case both the
    vector part and the scalar part; for the untwisted case the vector part."""
    pts = []
    for loc, _m in vector_field_zeros(section):
        if loc == "infinity":
            if untwisted or lp_eval(section.f1, 0) == 0:
                pts.append(loc)
        else:
            if untwisted or lp_eval(section.f0, loc) == 0:
                pts.append(loc)
    return pts


@dataclass(frozen=True)
class CorollaryReport:
    fixed_points: tuple
    predicted: dict[int, int]
    computed: dict[int, int]

    @property
    def match(self) -> bool:
        keys = set(self.predicted) | set(self.computed)
        return all(self.predicted.get(k, 0) == self.computed.get(k, 0) for k in keys)


def corollary_check(model: CechKoszulModel, nxt: CechKoszulModel) -> CorollaryReport:
    """Fixed-point prediction against the equivariant cohomology of `model`,
    verified stable on `nxt`, the same model at window D+1.

    Each vanishing point contributes one dimension in degree 0 and, in the
    operator-bundle case, one more in degree -1 (the operators on the
    restricted bundle at a point are its endomorphisms: a line)."""
    if not assumption_check(model.algebroid, model.section):
        raise GluingError("assumption fails: zeros of the vector part are not simple")
    pts = fixed_point_set(model.section, model.untwisted)
    predicted = {0: len(pts)} if model.untwisted else {0: len(pts), -1: len(pts)}
    predicted = {k: v for k, v in predicted.items() if v}
    computed = equivariant_H(model, nxt)
    return CorollaryReport(tuple(pts), predicted,
                           {k: v for k, v in computed.items() if v})


@dataclass(frozen=True)
class DegenerationReport:
    window: int
    degeneration_page: int
    e2_dims: dict[tuple[int, int], int]
    einf_dims: dict[tuple[int, int], int]
    convergent: bool

    @property
    def ok(self) -> bool:
        return (self.degeneration_page <= 2 and self.e2_dims == self.einf_dims
                and self.convergent)


def _degeneration_once(model: CechKoszulModel) -> DegenerationReport:
    res = run(row_filtration(model.double))
    e2 = res.pages[2].nonzero_dims()
    einf = res.infinity.nonzero_dims()
    return DegenerationReport(model.window, res.degeneration_page, e2, einf,
                              check_convergence(res, model.betti))


def second_page_degeneration(model: CechKoszulModel,
                             nxt: CechKoszulModel) -> DegenerationReport:
    """Run the Cech-degree filtration (contraction first, then Cech) and
    report degeneration at page <= 2; dims are verified stable on `nxt`,
    the same model at window D+1."""
    rep, rep2 = _degeneration_once(model), _degeneration_once(nxt)
    _window_stable("degeneration dims (E2, Einf)", model.window, nxt.window,
                   (rep.e2_dims, rep.einf_dims), (rep2.e2_dims, rep2.einf_dims))
    return rep
