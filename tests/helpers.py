"""Independent oracles for the test suite.

These deliberately avoid the package's echelon machinery: ranks come
from determinant expansion over minors, dimension counts from raw
enumeration.  Slow, but exact and independent of the code under test.
"""

from fractions import Fraction as QQ
from itertools import combinations

from liekoszul.cechp1 import _delta_matrix, _layout, lp, lp_mul
from liekoszul.complexes import DoubleComplex, total, total_layout
from liekoszul.exactla import ExactMatrix, Subspace, _built, _dense
from liekoszul.lierinehart import p_add


def det_expansion(rows):
    """Determinant by Laplace expansion along the first row."""
    n = len(rows)
    if n == 0:
        return QQ(1)
    if n == 1:
        return QQ(rows[0][0])
    total = QQ(0)
    for j, head in enumerate(rows[0]):
        if not head:
            continue
        minor = [[r[c] for c in range(n) if c != j] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * QQ(head) * det_expansion(minor)
    return total


def rank_by_minors(rows):
    """Rank as the size of the largest nonvanishing square minor."""
    if not rows or not rows[0]:
        return 0
    nr, nc = len(rows), len(rows[0])
    for size in range(min(nr, nc), 0, -1):
        for rsel in combinations(range(nr), size):
            for csel in combinations(range(nc), size):
                minor = [[rows[i][j] for j in csel] for i in rsel]
                if det_expansion(minor):
                    return size
    return 0


def dense(x):
    """Sparse rows of `exactla` as dense tuples of Fractions: the rows of an
    ExactMatrix, the basis of a Subspace, or the representatives of a
    Subquotient."""
    if isinstance(x, ExactMatrix):
        return tuple(_dense(r, x.cols) for r in x.row_maps)
    rows = x.sparse_basis if isinstance(x, Subspace) else x._rep_rows
    return tuple(_dense(r, x.ambient_dim) for r in rows)


def cell_dim(d, p, q):
    """dim K^{p,q} of a double complex: zero outside its rectangle."""
    return d._dims.get((p, q), 0)


def dh(d, p, q):
    """d_h out of cell (p, q) of a double complex: its stored map, or zero."""
    m = d._dh.get((p, q))
    return ExactMatrix.zeros(cell_dim(d, p + 1, q), cell_dim(d, p, q)) if m is None else m


def dv(d, p, q):
    """d_v out of cell (p, q) of a double complex: its stored map, or zero."""
    m = d._dv.get((p, q))
    return ExactMatrix.zeros(cell_dim(d, p, q + 1), cell_dim(d, p, q)) if m is None else m


def flag_rows(spaces):
    """The spanning rows that `FilteredComplex.from_flag` reads, for a flag
    given as `Subspace`s keyed by (p, n): the basis of each."""
    return {key: s.sparse_basis for key, s in spaces.items()}


def units(n):
    """The unit vectors of QQ^n: the rows of the identity, the basis of the
    full space."""
    return [[QQ(int(i == j)) for j in range(n)] for i in range(n)]


def apply(m, v):
    """M v for a dense vector v, as Fractions: each row of M is summed over
    the nonzero entries of v, an integral one as an int, so that the
    product does integer arithmetic wherever it can."""
    nonzero = {j: x.numerator if x.denominator == 1 else x for j, x in enumerate(v) if x}
    return tuple(QQ(sum(a * nonzero[j] for j, a in row.items() if j in nonzero))
                 for row in m.row_maps)


def from_columns(n, columns):
    """The n x len(columns) matrix whose column j is the dense vector columns[j]."""
    return ExactMatrix(n, len(columns), [{j: c[i] for j, c in enumerate(columns)}
                                         for i in range(n)])


def matrix_rows(m):
    return [list(r) for r in dense(m)]


def betti_by_minors(dims, diff_rows):
    """Cohomology dims of a complex from minor-ranks of its differentials.

    dims: list of dimensions per degree; diff_rows: list of row-lists, one
    per adjacent pair (entries may be anything QQ() accepts).
    """
    ranks = [rank_by_minors(m) for m in diff_rows]
    out = []
    for k, d in enumerate(dims):
        r_out = ranks[k] if k < len(ranks) else 0
        r_in = ranks[k - 1] if k >= 1 else 0
        out.append(d - r_out - r_in)
    return out


def count_monomials(weights, w):
    """Monomials of the given total weight, by raw box enumeration."""
    if w < 0:
        return 0
    if not weights:
        return 1 if w == 0 else 0
    total = 0
    for e in range(w // weights[0] + 1):
        total += count_monomials(weights[1:], w - e * weights[0])
    return total


def line_bundle_dims_by_counting(d):
    """(h0, h1) for the degree-d line bundle by Laurent exponent bookkeeping:
    chart-0 sections cover exponents 0,1,2,... and chart-1 sections cover
    d, d-1, d-2, ...; matched exponents give sections, missed ones classes."""
    matched = [e for e in range(0, d + 1)] if d >= 0 else []
    missed = [e for e in range(d + 1, 0)]
    return len(matched), len(missed)


def level_dim(f, p, n):
    """dim F_p C^n of a FilteredComplex, counted from its per-vector levels."""
    return sum(1 for x in f.levels.get(n, ()) if x >= p)


# -- Laurent matrices on the projective line: the gluing identities ----------

def lp_flip(a):
    """Substitute z -> 1/z."""
    return {-e: c for e, c in a.items()}


def lmat_mul(a, b):
    n, mid, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = {}
            for k in range(mid):
                acc = p_add(acc, lp_mul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def lmat_flip(a):
    return tuple(tuple(lp_flip(e) for e in row) for row in a)


def lmat_identity(n):
    return tuple(tuple(lp(1 if i == j else 0) for j in range(n)) for i in range(n))


def double(model):
    """The double complex of a P^1 model, whose builder writes straight into
    the total complex: each cell block cut out of `model.total` by the cell
    layout, with no entry of the total outside a d_h or d_v block, through
    the checking `DoubleComplex` constructor, whose total is the model's."""
    cells = model.cells
    layout = total_layout(cells)
    ps, qs = {p for p, _ in cells}, {q for _, q in cells}
    horizontal, vertical = {}, {}
    for n in range(model.total.lo, model.total.hi):
        rows = model.total.d(n).row_maps
        targets = {(p, q): off for p, q, off in layout[n + 1]}
        cut = 0
        for p, q, off in layout[n]:
            for maps, tgt in ((horizontal, (p + 1, q)), (vertical, (p, q + 1))):
                if tgt not in targets:
                    continue
                block = [{j - off: x for j, x in row.items() if off <= j < off + cells[(p, q)]}
                         for row in rows[targets[tgt]:targets[tgt] + cells[tgt]]]
                cut += sum(map(len, block))
                maps[(p, q)] = ExactMatrix(cells[tgt], cells[(p, q)], block)
        assert cut == sum(map(len, rows)), f"entries outside the blocks out of degree {n}"
    out = DoubleComplex(min(ps), max(ps), min(qs), max(qs), cells, horizontal, vertical)
    assert all(total(out).d(n).row_maps == model.total.d(n).row_maps
               for n in range(model.total.lo, model.total.hi))
    return out


def delta(row):
    """The untwisted Cech differential of a row model, as the matrix that
    `cechp1._cech_dims` wraps from the rows `_delta_matrix` writes."""
    chart, overlap = layout = _layout(row)
    rows = [{} for _ in range(overlap[1])]
    _delta_matrix(row, rows, layout=layout)
    return _built(ExactMatrix, overlap[1], chart[1], tuple(rows))
