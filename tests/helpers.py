"""Independent oracles for the test suite.

These deliberately avoid the package's echelon machinery: ranks come
from determinant expansion over minors, dimension counts from raw
enumeration.  Slow, but exact and independent of the code under test.
"""

from fractions import Fraction as QQ
from itertools import combinations

from liekoszul.cechp1 import lp, lp_mul
from liekoszul.exactla import ExactMatrix, Subspace, _dense
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


def units(n):
    """The unit vectors of QQ^n: the rows of the identity, the basis of the
    full space."""
    return [[QQ(int(i == j)) for j in range(n)] for i in range(n)]


def apply(m, v):
    """M v for a dense vector v, summed over the nonzeros of each row of M."""
    return tuple(QQ(sum(a * v[j] for j, a in row.items())) for row in m.row_maps)


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
