"""Reference engines: dense elimination, and every spectral-sequence page
built as explicit subquotients.

`dense_rref` is Gauss-Jordan elimination on a dense grid of Fractions, the
kernel the package used before it stored matrices as sparse rows; the
sparse kernel of `exactla` is cross-checked against it in
`tests/test_exactla.py`.

Pages are computed from scratch per r from the standard cycle/boundary
subquotients of a flag of subspaces F_p C^n,

    Z_r^{p,q} = {x in F_p C^{p+q} : dx in F_{p+r} C^{p+q+1}}
    E_r^{p,q} = Z_r^{p,q} / (Z_{r-1}^{p+1,q-1} + d Z_{r-1}^{p-r+1,q+r-2})

and d_r is the matrix induced by d on class representatives.  Slow, but
each page is checked on its own: d_r.d_r = 0 on every page, and page
dimensions never increase from one page to the next.  The package engine
(one persistence pairing) is cross-checked against this one.
"""

from dataclasses import dataclass
from fractions import Fraction as QQ

from liekoszul.exactla import Subquotient, Subspace, induced_map, rank, unit_vector


def dense_rref(rows):
    """Reduced row echelon form of dense rows: (nonzero rows, pivot columns).

    Pivot rule: first nonzero entry in column order."""
    mat = [[QQ(a) for a in r] for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, nrows) if mat[i][c] != 0), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [a * inv for a in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return [tuple(row) for row in mat[:r]], pivots


def dense_kernel(rows, ncols):
    """RREF basis of {v : Mv = 0} for the dense rows of M."""
    red, pivots = dense_rref(rows)
    vectors = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [QQ(0)] * ncols
        v[f] = QQ(1)
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        vectors.append(v)
    return dense_rref(vectors)[0]


def dense_solve(rows, ncols, b):
    """The solution of Mx = b with zeros at the free columns, or None."""
    red, pivots = dense_rref([list(r) + [QQ(x)] for r, x in zip(rows, b)])
    if ncols in pivots:
        return None
    x = [QQ(0)] * ncols
    for row, p in zip(red, pivots):
        x[p] = row[ncols]
    return tuple(x)


@dataclass(frozen=True)
class Flag:
    """Subspaces F_p C^n for p in [p_lo, p_hi + 1]; `level` clamps outside."""
    complex: object
    p_lo: int
    p_hi: int
    spaces: dict

    def level(self, p, n):
        p = min(max(p, self.p_lo), self.p_hi + 1)
        s = self.spaces.get((p, n))
        return s if s is not None else Subspace.zero_space(self.complex.dim(n))

    @property
    def width(self):
        return self.p_hi - self.p_lo + 1


def flag_of(f):
    """The flag of a FilteredComplex: coordinate subspaces of its adapted basis."""
    cplx = f.complex
    spaces = {}
    for n in cplx.degrees():
        dim = cplx.dim(n)
        for p in range(f.p_lo, f.p_hi + 2):
            spaces[(p, n)] = Subspace(dim, [unit_vector(dim, i)
                                            for i, lv in enumerate(f.levels[n]) if lv >= p])
    return Flag(cplx, f.p_lo, f.p_hi, spaces)


def _z(f, p, n, r, cache):
    """Z_r at filtration level p, total degree n (r may be -1)."""
    # Levels clamp outside the support, so normalize the key for caching.
    pc = max(min(p, f.p_hi + 1), f.p_lo)
    tc = max(min(p + r, f.p_hi + 1), f.p_lo)
    key = (pc, n, tc)
    if key not in cache:
        target = f.level(p + r, n + 1)
        cache[key] = f.level(p, n).intersect(target.preimage_under(f.complex.d(n)))
    return cache[key]


def _boundary_part(f, p, n, r, cache):
    incoming = _z(f, p - r + 1, n - 1, r - 1, cache)
    dn1 = f.complex.d(n - 1)
    image = Subspace(f.complex.dim(n), [dn1.apply(b) for b in incoming.basis])
    return _z(f, p + 1, n, r - 1, cache).add(image)


@dataclass(frozen=True)
class OraclePage:
    r: int
    entries: dict        # (p, q) -> Subquotient
    differentials: dict  # (p, q) -> ExactMatrix of d_r out of (p, q)

    def dims(self):
        return {pq: e.dim for pq, e in self.entries.items()}

    def ranks(self):
        """Rank of d_r out of each entry whose source and target are nonzero."""
        return {pq: rank(m) for pq, m in self.differentials.items() if m.rows and m.cols}


def oracle_page(f, r, cache):
    cplx = f.complex
    entries = {}
    for p in range(f.p_lo, f.p_hi + 1):
        for n in cplx.degrees():
            entries[(p, n - p)] = Subquotient(_z(f, p, n, r, cache),
                                              _boundary_part(f, p, n, r, cache))
    differentials = {}
    for (p, q), src in entries.items():
        n = p + q
        dst = entries.get((p + r, q - r + 1))
        if dst is None:
            # Outside the stored support the entry is zero; the containment
            # checks in induced_map still certify that d lands there.
            m = cplx.dim(n + 1)
            dst = Subquotient(Subspace.zero_space(m), Subspace.zero_space(m))
        differentials[(p, q)] = induced_map(cplx.d(n), src, dst)
    for (p, q), m in differentials.items():
        nxt = differentials.get((p + r, q - r + 1))
        if nxt is not None and m.rows and m.cols:
            assert (nxt @ m).is_zero(), f"d_r.d_r != 0 at {(p, q)} on page {r}"
    return OraclePage(r, entries, differentials)


@dataclass(frozen=True)
class OracleRun:
    pages: tuple
    stable_page: int
    degeneration_page: int


def oracle_run(f):
    """Pages 0..width+1 of a Flag, with the stable and degeneration pages."""
    r_max = f.width + 1
    cache = {}
    pages = tuple(oracle_page(f, r, cache) for r in range(r_max + 1))
    for a, b in zip(pages, pages[1:]):
        for pq, dim in b.dims().items():
            assert dim <= a.dims().get(pq, 0), f"page dims increased at {pq}"
    final = pages[-1].dims()
    stable = r_max
    for r in range(r_max, -1, -1):
        if pages[r].dims() != final:
            break
        stable = r
    degeneration = r_max + 1
    for r in range(r_max, -1, -1):
        if not all(m.is_zero() for m in pages[r].differentials.values()):
            break
        degeneration = r
    return OracleRun(pages, stable, degeneration)
