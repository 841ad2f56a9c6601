"""Reference engines: dense elimination, every spectral-sequence page
built as explicit subquotients, and the Chevalley-Eilenberg differentials
built by scanning every target cochain.

`dense_rref` is Gauss-Jordan elimination on a dense grid of Fractions, the
kernel the package used before it stored matrices as sparse rows; the
sparse kernel of `exactla` is cross-checked against it in
`tests/test_exactla.py`.

Pages are computed from scratch per r from the standard cycle/boundary
subquotients of a flag of subspaces F_p C^n,

    Z_r^{p,q} = {x in F_p C^{p+q} : dx in F_{p+r} C^{p+q+1}}
    E_r^{p,q} = Z_r^{p,q} / (Z_{r-1}^{p+1,q-1} + d Z_{r-1}^{p-r+1,q+r-2})

and d_r is the matrix induced by d on class representatives, by
`induced_map_dense`: dense images and one dense `solve_batch`, the induced
map the package computed before it stayed on sparse rows.  Slow, but each page is checked on its own: d_r.d_r = 0 on every
page, and page dimensions never increase from one page to the next.  The
package engine (one persistence pairing) is cross-checked against this
one, and `exactla.induced_map` against `induced_map_dense` on every page
entry.

`from_flag_dense` and `adapted_by_solves` are the changes of basis the
package made before `exactla.coordinates`: `FilteredComplex.from_flag`
with dense RREF representatives and a dense `solve_batch` per degree
(the package now keeps echelon rows, so the two agree on levels and on
everything the basis does not fix, not on the matrices), and
`hochserre._adapted` with one dense `solve_batch` per bracket pair, on
dense brackets (`la_bracket_vec`).  The dense views and builders they read
(`dense`, `apply`, `units`, `from_columns`) are in `tests/helpers.py`;
`from_entries` builds the scanned matrices below from (i, j, value)
triples.

`ce_d_scan`, `ce_complex_scan` and `action_on_h_cochains_scan` are the
builders the package used before it enumerated Chevalley-Eilenberg terms
(`lierinehart._ce_terms`) and placed coefficient blocks at subset offsets:
for every source cochain they scan all target subsets and evaluate each
term there, one basis element at a time, with signs from an inversion
count (`sort_sign`) rather than the package's insertion sign.  They index
their own flat bases of (subset, monomial) or (subset, module index)
pairs, built from `combinations` and `ring.monomials` (`flat_basis`), not
from the package's block layout (`FormSlice.blocks`).
`tests/test_oracle.py` compares their matrices with `lierinehart.ce_d`,
`hochserre.ce_complex` and the blocks of the adapted complex that
`hochserre._h_blocks` reads as C(h, M) and the action of g on it.

`qi_by_induced_maps` is the quasi-isomorphism test the package used before
the mapping-cone rank identity: both cohomologies as subquotients, the
induced maps on class representatives, and a dimension and rank check.
`reduction_matrix_by_solve` is the reduction matrix of `koszul` built the
old way, one class-coordinate solve per monomial in the subquotient
R_w / I_w; it pins the quotient basis that `exactla.normal_forms` reads off.

`formality_check_unnormalized` is `koszul.formality_check` as it was
before it rescaled the section to its primitive integral form: the slices
of V exactly as given, the verdict from `is_quasi_isomorphism` and the
source Betti numbers from a second elimination of d_C, by `betti`.

`contraction_by_products` and `ideal_rows_by_products` build the
contraction matrix and the ideal-slice rows the way the package did before
it shifted monomials directly: each entry is a polynomial product with the
monomial (`p_mul`), signed with `p_scale`.

`validate_by_sweep` is the Lie-Rinehart check the package made before it
proved the identities on generators: Jacobi and the anchor identity on
every triple and pair of decorated elements f e_i with deg f <= w_max,
through the Leibniz-extended bracket `elem_bracket`.  `jacobi_dense` is the
Jacobi check `LieAlgebra` made before it stored sparse structure
constants: every triple and component over a dense table.

`zero_scheme_length` is the length of the zero scheme of a P^1 section
by Euclid's algorithm (`poly_gcd_degree`), with no Cech model: the
`p1` corollary widened to zeros that are not simple.

`_json` is the key spelling the CLI applied before `json.dump` wrote a
report, until `cli._dump` wrote the report in one pass: a (p, q) key
becomes "p,q" and any other key its str, in every table (not inside a
list), and key order is left to `sort_keys`.

The oracle shares no polynomial arithmetic with the package: `p_add`,
`p_mul`, `p_scale` and `p_diff` are its own, the anchor acts by the product
rule (`anchor_apply`), and `lr_bracket` and `la_bracket` are its own dense,
antisymmetric views of the sparse tables `brackets` of a presentation and
of a Lie algebra.
"""

import math
from dataclasses import dataclass
from fractions import Fraction as QQ
from itertools import combinations

from liekoszul.complexes import (
    CochainComplex,
    FilteredComplex,
    _induced,
    betti,
    cohomology,
    is_quasi_isomorphism,
)
from liekoszul.exactla import (
    ExactMatrix,
    NotFiltrationCompatibleError,
    Subquotient,
    Subspace,
    rank,
    solve_batch,
)
from liekoszul.hochserre import GModule, LieAlgebra, LieAlgebraError
from liekoszul.koszul import FormalityResult, FormalitySliceResult, reduction_map
from liekoszul.lierinehart import Failure, ValidationReport, p_str

from helpers import apply, dense, from_columns, units


def p_add(a, b):
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def p_scale(c, a):
    return {m: c * v for m, v in a.items()} if c else {}


def p_sub(a, b):
    return p_add(a, p_scale(-1, b))


def p_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            s = out.get(m, 0) + ca * cb
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def p_diff(a, j):
    out = {}
    for m, c in a.items():
        if m[j]:
            mm = list(m)
            mm[j] -= 1
            out[tuple(mm)] = c * m[j]
    return out


def anchor_apply(lr, i, f):
    """rho(e_i) on a polynomial by the product rule: sum_j a_ij * df/dx_j."""
    out = {}
    for j in range(lr.ring.nvars):
        a = lr.anchor[i][j]
        if a:
            out = p_add(out, p_mul(a, p_diff(f, j)))
    return out


def lr_bracket(lr, i, j):
    """(c_ij^k)_k of a presentation, dense and antisymmetric in (i, j)."""
    if i > j:
        return tuple(p_scale(-1, c) for c in lr_bracket(lr, j, i))
    cs = lr.brackets.get((i, j), {})
    return tuple(cs.get(k, {}) for k in range(lr.rank))


def la_bracket(g, i, j):
    """(c_ij^k)_k of a Lie algebra, dense and antisymmetric in (i, j)."""
    if i > j:
        return tuple(-c for c in la_bracket(g, j, i))
    cs = g.brackets.get((i, j), {})
    return tuple(cs.get(k, 0) for k in range(g.dim))


def la_bracket_vec(g, u, v):
    """[u, v] of dense vectors, summed over every pair of basis vectors."""
    out = [QQ(0)] * g.dim
    for i in range(g.dim):
        for j in range(g.dim):
            x = u[i] * v[j]
            if x:
                out = [o + x * c for o, c in zip(out, la_bracket(g, i, j))]
    return tuple(out)


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


def _contains(s, vectors):
    """True if every dense vector lies in the Subspace s."""
    return Subspace(s.ambient_dim, [*dense(s), *vectors]) == s


def induced_map_dense(f, src, dst):
    """exactla.induced_map on dense vectors: the containment checks on
    dense images, then each class by a dense solve in the representatives
    of dst followed by its boundary basis."""
    if f.cols != src.ambient_dim or f.rows != dst.ambient_dim:
        raise ValueError("matrix shape does not match subquotients")
    if not _contains(dst.cycles, [apply(f, b) for b in dense(src.cycles)]):
        raise NotFiltrationCompatibleError("not filtration-compatible: cycles escape")
    if not _contains(dst.boundaries, [apply(f, b) for b in dense(src.boundaries)]):
        raise NotFiltrationCompatibleError("not filtration-compatible: boundaries escape")
    basis = from_columns(dst.ambient_dim, dense(dst) + dense(dst.boundaries))
    classes = solve_batch(basis, [apply(f, r) for r in dense(src)])
    assert None not in classes, "a cycle has no class"
    return from_columns(dst.dim, [x[: dst.dim] for x in classes])


def from_flag_dense(cplx, p_lo, p_hi, spaces):
    """FilteredComplex.from_flag through dense representatives, dense images
    and one dense solve_batch per degree (valid flags only)."""
    bases, levels = {}, {}
    for n in cplx.degrees():
        bases[n], levels[n] = [], []
        for p in range(p_hi, p_lo - 1, -1):
            reps = dense(Subquotient(spaces[(p, n)], spaces[(p + 1, n)]))
            bases[n].extend(reps)
            levels[n].extend([p] * len(reps))
    diffs = []
    for n in range(cplx.lo, cplx.hi):
        change = from_columns(cplx.dim(n + 1), bases[n + 1])
        images = [apply(cplx.d(n), b) for b in bases[n]]
        diffs.append(from_columns(cplx.dim(n + 1), solve_batch(change, images)))
    adapted = CochainComplex(cplx.lo, cplx.hi, [cplx.dim(n) for n in cplx.degrees()], diffs)
    return FilteredComplex(adapted, p_lo, p_hi, levels)


def adapted_by_solves(g, h, m):
    """hochserre._adapted with one dense solve per bracket pair."""
    n = g.dim
    cols = list(dense(h.subspace))
    pivots = set(h.subspace.pivots)
    cols.extend(e for i, e in enumerate(units(n)) if i not in pivots)
    pmat = from_columns(n, cols)
    new_brackets = {}
    for a in range(n):
        for b in range(a + 1, n):
            coords = solve_batch(pmat, [la_bracket_vec(g, cols[a], cols[b])])[0]
            if coords is None:
                raise LieAlgebraError("change of basis failed")
            if any(coords):
                new_brackets[(a, b)] = coords
    g2 = LieAlgebra(n, new_brackets)
    actions = []
    for a in range(n):
        act = ExactMatrix.zeros(m.dim, m.dim)
        for i, c in enumerate(cols[a]):
            if c:
                act = act + m.actions[i].scaled(c)
        actions.append(act)
    return g2, GModule(g2, m.dim, actions), h.dim


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
            spaces[(p, n)] = Subspace(dim, [e for e, lv in zip(units(dim), f.levels[n])
                                            if lv >= p])
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
    image = [apply(dn1, b) for b in dense(incoming)]
    return Subspace(f.complex.dim(n), [*dense(_z(f, p + 1, n, r - 1, cache)), *image])


@dataclass(frozen=True)
class OraclePage:
    r: int
    entries: dict        # (p, q) -> Subquotient
    differentials: dict  # (p, q) -> ExactMatrix of d_r out of (p, q)
    targets: dict        # (p, q) -> the Subquotient d_r out of (p, q) maps into

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
    differentials, targets = {}, {}
    for (p, q), src in entries.items():
        n = p + q
        dst = entries.get((p + r, q - r + 1))
        if dst is None:
            # Outside the stored support the entry is zero; the containment
            # checks in induced_map_dense still certify that d lands there.
            m = cplx.dim(n + 1)
            dst = Subquotient(Subspace.zero_space(m), Subspace.zero_space(m))
        differentials[(p, q)] = induced_map_dense(cplx.d(n), src, dst)
        targets[(p, q)] = dst
    for (p, q), m in differentials.items():
        nxt = differentials.get((p + r, q - r + 1))
        if nxt is not None and m.rows and m.cols:
            assert (nxt @ m).is_zero(), f"d_r.d_r != 0 at {(p, q)} on page {r}"
    return OraclePage(r, entries, differentials, targets)


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


def sort_sign(seq):
    """Sign of the permutation that sorts seq (distinct entries): (-1)^inversions."""
    sign = 1
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] > seq[b]:
                sign = -sign
    return sign


def _inserted(k, rest, subset):
    """Sign of eps_subset on (e_k, *rest), or 0 when that is not a reordering."""
    seq = (k,) + rest
    return sort_sign(seq) if tuple(sorted(seq)) == subset else 0


def flat_basis(lr, p, w):
    """The basis eps_S (x) m of the p-forms of total weight w, as (S, m)
    pairs: S in lexicographic order, then m in the order of
    `ring.monomials`, with m of weight w + the generator weights in S."""
    if not 0 <= p <= lr.rank:
        return []
    return [(s, m) for s in combinations(range(lr.rank), p)
            for m in lr.ring.monomials(w + sum(lr.gen_weights[i] for i in s))]


def from_entries(rows, cols, entries):
    """The rows x cols matrix of (i, j, value) triples; values at the same
    (i, j) add up."""
    data = [{} for _ in range(rows)]
    for i, j, x in entries:
        data[i][j] = data[i].get(j, 0) + x
    return ExactMatrix(rows, cols, data)


def ce_d_scan(lr, p, w):
    """lierinehart.ce_d by scanning every target subset per column."""
    src = flat_basis(lr, p, w)
    dst = flat_basis(lr, p + 1, w)
    dst_index = {b: i for i, b in enumerate(dst)}
    entries = []
    targets = list(combinations(range(lr.rank), p + 1))
    for col, (subset, mono) in enumerate(src):
        f = {mono: QQ(1)}
        for tsub in targets:
            value = {}
            for i, ti in enumerate(tsub):
                rest = tsub[:i] + tsub[i + 1:]
                if rest == subset:
                    term = anchor_apply(lr, ti, f)
                    value = p_add(value, term if i % 2 == 0 else p_scale(-1, term))
            for i in range(len(tsub)):
                for j in range(i + 1, len(tsub)):
                    rest = tuple(t for idx, t in enumerate(tsub) if idx not in (i, j))
                    cs = lr_bracket(lr, tsub[i], tsub[j])
                    for k in range(lr.rank):
                        sign = _inserted(k, rest, subset) if cs[k] else 0
                        if sign:
                            sign *= (-1) ** (i + j)
                            value = p_add(value, p_scale(sign, p_mul(cs[k], f)))
            for mono2, coeff in value.items():
                entries.append((dst_index[(tsub, mono2)], col, coeff))
    return from_entries(len(dst), len(src), entries)


def ce_complex_scan(g, m):
    """hochserre.ce_complex by scanning every target subset per column."""
    n = g.dim
    bases = [[(s, v) for s in combinations(range(n), p) for v in range(m.dim)]
             for p in range(n + 1)]
    act_cols = [a.transpose().row_maps for a in m.actions]
    diffs = []
    for p in range(n):
        src, dst = bases[p], bases[p + 1]
        index = {b: i for i, b in enumerate(dst)}
        entries = []
        for col, (subset, v) in enumerate(src):
            for tsub in combinations(range(n), p + 1):
                for i, ti in enumerate(tsub):
                    if tsub[:i] + tsub[i + 1:] != subset:
                        continue
                    sign = -1 if i % 2 else 1
                    for r, c in act_cols[ti][v].items():
                        entries.append((index[(tsub, r)], col, sign * c))
                for i in range(len(tsub)):
                    for j in range(i + 1, len(tsub)):
                        rest = tuple(t for idx, t in enumerate(tsub) if idx not in (i, j))
                        for k, ck in enumerate(la_bracket(g, tsub[i], tsub[j])):
                            sign = _inserted(k, rest, subset) if ck else 0
                            if sign:
                                entries.append((index[(tsub, v)], col,
                                                sign * (-1) ** (i + j) * ck))
        diffs.append(from_entries(len(dst), len(src), entries))
    return CochainComplex(0, n, [len(b) for b in bases], diffs)


def eval_sign(subset, tsub, i, s):
    """Sign of eps_subset evaluated on (t_1, .., e_s at slot i, .., t_q)."""
    seq = list(tsub)
    seq[i] = s
    return sort_sign(seq) if tuple(sorted(seq)) == subset else 0


def action_on_h_cochains_scan(g2, m2, k, x, q):
    """Matrix of e_x acting on C^q(h, M), by scanning every argument list."""
    basis = [(s, v) for s in combinations(range(k), q) for v in range(m2.dim)]
    index = {b: i for i, b in enumerate(basis)}
    entries = []
    act_cols = m2.actions[x].transpose().row_maps
    for col, (subset, v) in enumerate(basis):
        for r, c in act_cols[v].items():
            entries.append((index[(subset, r)], col, c))
        for tsub in combinations(range(k), q):
            for i, ti in enumerate(tsub):
                for s, c in enumerate(la_bracket(g2, x, ti)[:k]):
                    if c:
                        entries.append((index[(tsub, v)], col,
                                        -eval_sign(subset, tsub, i, s) * c))
    return from_entries(len(basis), len(basis), entries)


def qi_by_induced_maps(f):
    """complexes.is_quasi_isomorphism through the induced maps on cohomology."""
    hs, ht = cohomology(f.source), cohomology(f.target)
    induced = _induced(f, hs, ht)
    for k in set(hs) | set(ht):
        a = hs[k].dim if k in hs else 0
        b = ht[k].dim if k in ht else 0
        if a != b or rank(induced[k]) != a:
            return False
    return True


def reduction_matrix_by_solve(model, p, w, offsets, dim_target):
    """koszul._reduction_matrix on the p-forms of weight w, with one
    class-coordinate solve per monomial."""
    lr = model.lr
    forms = flat_basis(lr, p, w)
    entries = []
    for col, (subset, mono) in enumerate(forms):
        if subset in offsets:
            wf = w + sum(lr.gen_weights[i] for i in subset)
            monos = lr.ring.monomials(wf)
            basis = units(len(monos))
            quot = Subquotient(Subspace(len(monos), basis), model.ideal_slice(wf))
            coords = quot.class_coordinates_batch([basis[monos.index(mono)]])[0]
            entries.extend((offsets[subset] + i, col, c) for i, c in enumerate(coords))
    return from_entries(dim_target, len(forms), entries)


def formality_check_unnormalized(lr, v, weights):
    """koszul.formality_check on v as given, eliminating each d_C twice."""
    results = []
    for w in weights:
        chain = reduction_map(lr, v, w)
        results.append(FormalitySliceResult(w, is_quasi_isomorphism(chain),
                                            betti(chain.source)))
    return FormalityResult(all(r.ok for r in results), tuple(results))


def contraction_by_products(lr, v, p, w):
    """lierinehart.contraction with each term a p_mul product, signed by p_scale."""
    src = flat_basis(lr, p, w)
    dst = flat_basis(lr, p - 1, w + v.weight)
    dst_index = {b: i for i, b in enumerate(dst)}
    entries = []
    for col, (subset, mono) in enumerate(src):
        for pos, i in enumerate(subset):
            term = p_mul(v.components[i], {mono: 1})
            if pos % 2:
                term = p_scale(-1, term)
            rest = subset[:pos] + subset[pos + 1:]
            entries.extend((dst_index[(rest, m)], col, c) for m, c in term.items())
    return from_entries(len(dst), len(src), entries)


def ideal_rows_by_products(model, w):
    """The dense spanning rows of koszul.ZeroLocusModel.ideal_slice(w): every
    generator times every monomial of the complementary weight, by p_mul."""
    monos = model.ring.monomials(w)
    rows = []
    for gen, gw in zip(model.generators, model.gen_weights):
        for mult in model.ring.monomials(w - gw):
            prod = p_mul({mult: 1}, gen)
            rows.append([prod.get(m, 0) for m in monos])
    return rows


def elem_basis(lr, i, f=None):
    one = {(0,) * lr.ring.nvars: 1} if f is None else f
    return tuple(dict(one) if k == i else {} for k in range(lr.rank))


def elem_anchor_apply(lr, u, f):
    out = {}
    for i, ui in enumerate(u):
        if ui:
            out = p_add(out, p_mul(ui, anchor_apply(lr, i, f)))
    return out


def elem_bracket(lr, u, v):
    """Bracket extended by the Leibniz rule:
    [f e_i, g e_j] = fg [e_i,e_j] + f rho(e_i)(g) e_j - g rho(e_j)(f) e_i."""
    out = [dict() for _ in range(lr.rank)]
    for i, ui in enumerate(u):
        if not ui:
            continue
        for j, vj in enumerate(v):
            if not vj:
                continue
            fg = p_mul(ui, vj)
            cs = lr_bracket(lr, i, j)
            for k in range(lr.rank):
                if cs[k]:
                    out[k] = p_add(out[k], p_mul(fg, cs[k]))
            out[j] = p_add(out[j], p_mul(ui, anchor_apply(lr, i, vj)))
            out[i] = p_sub(out[i], p_mul(vj, anchor_apply(lr, j, ui)))
    return tuple(out)


def _elem_is_zero(u):
    return all(not c for c in u)


def validate_by_sweep(lr, w_max):
    """lierinehart.validate as a sweep: antisymmetry and the anchor identity
    on generators, then Jacobi on every triple and the anchor identity on
    every pair of decorated elements f e_i with f a monomial of weight
    <= w_max (the pair against a probe monomial per variable)."""
    failures = []
    m = lr.rank
    ring = lr.ring
    gens = [f"e{i}" for i in range(m)]

    for i in range(m):
        for j in range(i + 1, m):
            lhs = lr_bracket(lr, i, j)
            rhs = tuple(p_scale(-1, c) for c in lr_bracket(lr, j, i))
            if lhs != rhs:
                failures.append(Failure("antisymmetry", f"[{gens[i]},{gens[j]}]"))

    # anchor morphism on generator pairs: rho([e_i,e_j]) = [rho(e_i), rho(e_j)]
    for i in range(m):
        for j in range(i + 1, m):
            cs = lr_bracket(lr, i, j)
            for l in range(ring.nvars):
                lhs = {}
                for k in range(m):
                    if cs[k]:
                        lhs = p_add(lhs, p_mul(cs[k], lr.anchor[k][l]))
                rhs = {}
                for t in range(ring.nvars):
                    rhs = p_add(rhs, p_mul(lr.anchor[i][t], p_diff(lr.anchor[j][l], t)))
                    rhs = p_sub(rhs, p_mul(lr.anchor[j][t], p_diff(lr.anchor[i][l], t)))
                diff = p_sub(lhs, rhs)
                if diff:
                    failures.append(Failure(
                        "anchor-morphism",
                        f"rho([{gens[i]},{gens[j]}]) component d/dx{l}: residue {p_str(diff)}"))

    decorated = []
    monos = []
    for w in range(w_max + 1):
        monos.extend(ring.monomials(w))
    for i in range(m):
        for mono in monos:
            f = {mono: 1}
            name = f"{p_str(f)}*{gens[i]}" if mono != (0,) * ring.nvars else gens[i]
            decorated.append((name, elem_basis(lr, i, f)))

    for a in range(len(decorated)):
        for b in range(a + 1, len(decorated)):
            for c in range(b + 1, len(decorated)):
                (na, ua), (nb, ub), (nc, uc) = decorated[a], decorated[b], decorated[c]
                jac = elem_bracket(lr, elem_bracket(lr, ua, ub), uc)
                jac = tuple(p_add(x, y) for x, y in
                            zip(jac, elem_bracket(lr, elem_bracket(lr, ub, uc), ua)))
                jac = tuple(p_add(x, y) for x, y in
                            zip(jac, elem_bracket(lr, elem_bracket(lr, uc, ua), ub)))
                if not _elem_is_zero(jac):
                    bad = next(k for k in range(m) if jac[k])
                    failures.append(Failure(
                        "jacobi",
                        f"({na}, {nb}, {nc}): component e{bad} residue {p_str(jac[bad])}"))

    # anchor morphism on decorated pairs, against a probe monomial per weight
    probes = [{mono: 1} for mono in ring.monomials(1)] or [{(0,) * ring.nvars: 1}]
    for a in range(len(decorated)):
        for b in range(a + 1, len(decorated)):
            (na, ua), (nb, ub) = decorated[a], decorated[b]
            br = elem_bracket(lr, ua, ub)
            for probe in probes:
                lhs = elem_anchor_apply(lr, br, probe)
                rhs = p_sub(elem_anchor_apply(lr, ua, elem_anchor_apply(lr, ub, probe)),
                            elem_anchor_apply(lr, ub, elem_anchor_apply(lr, ua, probe)))
                diff = p_sub(lhs, rhs)
                if diff:
                    failures.append(Failure(
                        "anchor-morphism",
                        f"({na}, {nb}) on {p_str(probe)}: residue {p_str(diff)}"))
                    break

    return ValidationReport(not failures, tuple(failures))


def jacobi_dense(dim, brackets):
    """The message of the first Jacobi failure of the structure constants
    {(i, j): vector}, i < j, or None: every triple i < j < k and component
    s in order, each a sum over a dense table of both orders."""
    zero = (QQ(0),) * dim
    table = {}
    for (i, j), cs in brackets.items():
        table[(i, j)] = tuple(QQ(c) for c in cs)
        table[(j, i)] = tuple(-QQ(c) for c in cs)

    def c(i, j):
        return table.get((i, j), zero)

    for i, j, k in combinations(range(dim), 3):
        for s in range(dim):
            total = 0
            for l in range(dim):
                total += c(i, j)[l] * c(l, k)[s]
                total += c(j, k)[l] * c(l, i)[s]
                total += c(k, i)[l] * c(l, j)[s]
            if total:
                return f"Jacobi identity fails on (e{i}, e{j}, e{k}) in component e{s}"
    return None


def _poly_mod(a, b):
    """The remainder of a by b != 0, polynomials as {exponent: coefficient}."""
    a = dict(a)
    top, lead = max(b), b[max(b)]
    while a and max(a) >= top:
        shift = max(a) - top
        c = QQ(a[max(a)]) / lead
        for e, x in b.items():
            s = a.get(e + shift, 0) - c * x
            if s:
                a[e + shift] = s
            else:
                a.pop(e + shift, None)
    return a


def poly_gcd_degree(a, b):
    """deg gcd(a, b) of two polynomials over QQ, not both zero, by Euclid."""
    while b:
        a, b = b, _poly_mod(a, b)
    return max(a)


def zero_scheme_length(section, untwisted):
    """Length of the zero scheme of V = f + v d/dz on P^1, a section that
    does not vanish identically; untwisted, f is dropped.  Chart 0 holds
    every point but infinity, with length deg gcd(f0, v0); infinity is the
    origin of chart 1, with length min(ord_0 f1, ord_0 w1)."""
    f0, f1 = ({}, {}) if untwisted else (section.f0, section.f1)
    at_infinity = min(min(p, default=math.inf) for p in (f1, section.w1))
    return poly_gcd_degree(f0, section.v0) + at_infinity


def _json(value):
    """`value` for the JSON report: a (p, q) key becomes "p,q" and any other
    key its str, in every table; key order is left to `sort_keys`."""
    if isinstance(value, dict):
        return {(f"{k[0]},{k[1]}" if type(k) is tuple else str(k)): _json(v)
                for k, v in value.items()}
    return value
