"""Finite-dimensional Lie algebra cohomology and the ideal filtration.

The filtration of the exterior cochain complex by the number of
arguments allowed to lie in an ideal h gives a spectral sequence whose
second page is H^p(g/h, H^q(h, M)); `verify` checks that identification
on concrete instances, and its limit totals are the Betti numbers of H(g, M).

A complement to h is chosen once (the standard echelon complement), the
whole complex is rebuilt in the adapted basis, and each basis cochain
gets its number of complement factors as filtration level.  C(h, M) and
the action of g on it (`_h_blocks`) are read off that one complex, and the
Betti numbers of H(g, M) off its one pairing.  Results are compared as
dimensions, which are complement-independent.  Jacobi and the module
identity are proved once, on input: the adapted algebra and module, g/h and
each H^q(h, M) inherit them (Hochschild-Serre 1953), so they are made by
`exactla._built`, unchecked; `LieAlgebra`, `LieIdeal` and `GModule` are
immutable `exactla.Value`s like the complexes.  The complexes built here
are unchecked too: d^2 = 0 of a Chevalley-Eilenberg complex follows from
Jacobi and the module identity (Weibel 1994, 7.7), C(h, M) is a block of
it, and the ideal filtration is d-stable because [g, h] lies in h.  The
tests prove all three on the corpora.
"""

from __future__ import annotations

from fractions import Fraction as QQ
from itertools import combinations
from typing import Mapping, NamedTuple, Sequence

from .complexes import CochainComplex, FilteredComplex, betti, cohomology
from .exactla import (ExactMatrix, InputError, Subspace, Value, VerdictError, _axpy, _built,
                      coordinates, induced_map, integer, qq, sized)
from .lierinehart import _assemble, _bracket_entries, _ce_terms, _jacobi
from .specseq import compute_page, run


class LieAlgebraError(VerdictError):
    pass


class MalformedLieAlgebra(LieAlgebraError, InputError):
    """Input of the wrong shape (a dimension, a bracket key, coefficient
    vector or coefficient, the ambient of an ideal, the count or shape of
    action matrices), as opposed to data of the right shape that breaks an
    identity."""


class LieAlgebra(Value):
    """Structure constants c_ij^k, stored as {(i, j): {k: c}} with i < j and
    nonzero c only; Jacobi is checked exactly by `lierinehart._jacobi`, the
    check `validate` runs, which visits only the nonzero products."""

    __slots__ = ("dim", "brackets")

    def __init__(self, dim: int, brackets: Mapping):
        dim = integer(dim, "dim", MalformedLieAlgebra)
        if dim < 0:
            raise MalformedLieAlgebra(f"dim must not be negative, got {dim!r}")
        kept: dict[tuple[int, int], dict[int, QQ]] = {}
        for key, i, j, coeffs in _bracket_entries(brackets, dim, MalformedLieAlgebra):
            try:
                nonzero = {k: c for k, c in enumerate(map(qq, coeffs)) if c}
            except (TypeError, ValueError) as exc:
                raise MalformedLieAlgebra(f"bracket {key}: {exc}") from None
            if nonzero:
                kept[(i, j)] = nonzero
        self._set(dim, kept)
        constants = {pair: {s: {(): c} for s, c in cs.items()} for pair, cs in kept.items()}
        for (i, j, k), comps in _jacobi(constants, None, ()).items():
            raise LieAlgebraError(
                f"Jacobi identity fails on (e{i}, e{j}, e{k}) in component e{min(comps)}")

    def bracket(self, u: Mapping[int, QQ], v: Mapping[int, QQ]) -> dict[int, QQ]:
        """[u, v] of sparse vectors {i: u_i}, as a sparse vector."""
        out: dict[int, QQ] = {}
        for i, a in u.items():
            for j, b in v.items():
                if i < j:
                    cs, x = self.brackets.get((i, j)), a * b
                elif j < i:
                    cs, x = self.brackets.get((j, i)), -a * b
                else:
                    continue
                if cs:
                    _axpy(out, -x, cs)
        return out


class LieIdeal(Value):
    """Subspace h with [g, h] contained in h (checked on basis vectors)."""

    __slots__ = ("subspace",)

    def __init__(self, owner: LieAlgebra, subspace: Subspace):
        if subspace.ambient_dim != owner.dim:
            raise MalformedLieAlgebra("ideal lives in the wrong space")
        for i in range(owner.dim):
            for b in subspace.sparse_basis:
                if subspace._residual(owner.bracket({i: 1}, b)):
                    raise LieAlgebraError(
                        f"not an ideal: [e{i}, h-basis vector] leaves the subspace")
        self._set(subspace)

    @property
    def dim(self) -> int:
        return self.subspace.dim


class GModule(Value):
    """Finite-dimensional module given by one action matrix per basis vector,
    with rho[e_i, e_j] = [rho e_i, rho e_j] checked on the pairs where it can
    fail: a nonzero bracket, or two nonzero actions (elsewhere 0 = 0)."""

    __slots__ = ("dim", "actions")

    def __init__(self, algebra: LieAlgebra, dim: int, actions: Sequence[ExactMatrix]):
        dim = integer(dim, "module dim", MalformedLieAlgebra)
        if dim < 0:
            raise MalformedLieAlgebra(f"module dim must not be negative, got {dim!r}")
        for a in sized(actions, algebra.dim, "module.actions", MalformedLieAlgebra):
            if a.rows != dim or a.cols != dim:
                raise MalformedLieAlgebra("action matrix has wrong shape")
        zero = ExactMatrix.zeros(dim, dim)
        acting = [k for k, a in enumerate(actions) if not a.is_zero()]
        for i, j in sorted(set(algebra.brackets) | set(combinations(acting, 2))):
            lhs = sum((actions[k].scaled(c) for k, c in algebra.brackets.get((i, j), {}).items()),
                      zero)
            rhs = (actions[i] @ actions[j] + (-(actions[j] @ actions[i]))
                   if i in acting and j in acting else zero)
            if lhs != rhs:
                raise LieAlgebraError(
                    f"action does not respect the bracket on (e{i}, e{j})")
        self._set(dim, tuple(actions))

    @classmethod
    def trivial(cls, algebra: LieAlgebra) -> "GModule":
        return cls(algebra, 1, [ExactMatrix.zeros(1, 1)] * algebra.dim)


def _cochain_basis(n: int, dim_m: int, p: int) -> list[tuple[tuple[int, ...], int]]:
    """Basis eps_S (x) v of p-cochains on an n-dimensional algebra with values
    in a dim_m-dimensional module: S in lexicographic order, then v."""
    return [(s, v) for s in combinations(range(n), p) for v in range(dim_m)]


def ce_complex(g: LieAlgebra, m: GModule) -> CochainComplex:
    """Exterior cochain complex Lambda^. g* tensor M, assembled block by block
    from `lierinehart._ce_terms`, the Chevalley-Eilenberg enumerator shared
    with `lierinehart.ce_d`.  The block of eps_S is eps_S (x) M, at offset
    (index of S) * dim M in the order of `_cochain_basis`; e_k acts on it by
    its action matrix, and a structure constant c by c times the identity."""
    n, dim_m = g.dim, m.dim
    subsets = [list(combinations(range(n), p)) for p in range(n + 1)]
    act = [[(r, v, x) for r, row in enumerate(a.row_maps) for v, x in row.items()]
           for a in m.actions]
    acting = [k for k, block in enumerate(act) if block]
    scalar: dict = {}   # c -> c times the identity of M
    diffs = []
    for p in range(n):
        src = {s: i * dim_m for i, s in enumerate(subsets[p])}
        dst = {t: i * dim_m for i, t in enumerate(subsets[p + 1])}
        placed = []
        for s, t, sign, k, c in _ce_terms(n, src, g.brackets, acting):
            if c is None:
                block = act[k]
            else:
                block = scalar.get(c)
                if block is None:
                    block = scalar[c] = [(v, v, c) for v in range(dim_m)]
            placed.append((dst[t], src[s], sign, block))
        diffs.append(_assemble(len(dst) * dim_m, len(src) * dim_m, placed))
    return _built(CochainComplex, 0, n, [len(s) * dim_m for s in subsets], diffs)


def _adapted(g: LieAlgebra, h: LieIdeal, m: GModule):
    """Rebuild (g, m) in a basis listing h first, then the echelon complement;
    the brackets of all basis pairs get their coordinates from one
    `coordinates` solve."""
    n = g.dim
    pivots = set(h.subspace.pivots)
    basis = list(h.subspace.sparse_basis) + [{i: 1} for i in range(n) if i not in pivots]
    pairs = list(combinations(range(n), 2))
    coords = coordinates(basis, n, [g.bracket(basis[a], basis[b]) for a, b in pairs])
    g2 = _built(LieAlgebra, n, {
        pair: col for pair, col in zip(pairs, coords.transpose().row_maps) if col})
    zero = ExactMatrix.zeros(m.dim, m.dim)
    m2 = _built(GModule, m.dim, tuple(
        sum((m.actions[i].scaled(c) for i, c in row.items()), zero) for row in basis))
    return g2, m2, h.dim


def hs_filtered(g: LieAlgebra, h: LieIdeal, m: GModule) -> FilteredComplex:
    """Ideal filtration: level p keeps cochains with >= p complement factors."""
    g2, m2, k = _adapted(g, h, m)
    return _filtered(ce_complex(g2, m2), m2.dim, k)


def _filtered(cplx: CochainComplex, dim_m: int, k: int) -> FilteredComplex:
    """The ideal filtration of the adapted complex `cplx`, whose first k
    basis vectors span h: each cochain's level is its number of complement
    factors."""
    n = cplx.hi
    levels = {deg: tuple(sum(1 for i in s if i >= k) for s, _ in _cochain_basis(n, dim_m, deg))
              for deg in range(n + 1)}
    return _built(FilteredComplex, cplx, 0, n - k, levels)


def _quotient_algebra(g2: LieAlgebra, k: int) -> LieAlgebra:
    return _built(LieAlgebra, g2.dim - k, {
        (a - k, b - k): {s - k: c for s, c in cs.items() if s >= k}
        for (a, b), cs in g2.brackets.items() if a >= k and max(cs) >= k})


def _block(d: ExactMatrix, rows: Sequence[int], cols: Sequence[int]) -> ExactMatrix:
    """The submatrix of d on the given rows and columns, in those orders."""
    pos = {c: j for j, c in enumerate(cols)}
    return _built(ExactMatrix, len(rows), len(cols),
                  tuple({pos[c]: x for c, x in d.row_maps[r].items() if c in pos} for r in rows))


def _h_blocks(g2: LieAlgebra, cplx: CochainComplex, dim_m: int, k: int):
    """C(h, M) and, per q, the matrices of e_x (x = k..n-1) on C^q(h, M),
    read off the adapted complex `cplx` of (g2, M).

    The cochains eps_S (x) v with S in {0..k-1} are level 0 of the ideal
    filtration, so d among them is the differential of C(h, M) = F^0/F^1,
    in the order `ce_complex` of h lists them.  For om on h and x >= k,
    every term of (d om)(e_x, h_1..h_q) with e_x left as an argument of om
    vanishes, so
        (d om)(e_x, h_1..h_q) = e_x . om(h_1..h_q) - sum_i om(h_1..[e_x, h_i]..h_q)
                              = (e_x . om)(h_1..h_q).
    As x sorts last in T u {x}, the eps_{T u {x}} (x) w coefficient of d om
    is (-1)^q times the eps_T (x) w coefficient of e_x . om.
    """
    n = g2.dim
    index = [{b: i for i, b in enumerate(_cochain_basis(n, dim_m, p))}
             for p in range(min(k + 1, n) + 1)]
    bases = [_cochain_basis(k, dim_m, q) for q in range(k + 1)]
    cols = [[index[q][b] for b in basis] for q, basis in enumerate(bases)]
    hcomplex = _built(CochainComplex, 0, k, [len(c) for c in cols],
                      [_block(cplx.d(q), cols[q + 1], cols[q]) for q in range(k)])
    actions = [[_block(cplx.d(q), [index[q + 1][(s + (x,), v)] for s, v in bases[q]],
                       cols[q]).scaled(-1 if q % 2 else 1)
                for x in range(k, n)]
               for q in range(k + 1)]
    return hcomplex, actions


def expected_e2(g: LieAlgebra, h: LieIdeal, m: GModule) -> dict[tuple[int, int], int]:
    """Dimension grid H^p(g/h, H^q(h, M)): C(h, M) and the g-action on it are
    blocks of the adapted complex, and each H^p(g/h, H^q) is one small CE run."""
    g2, m2, k = _adapted(g, h, m)
    return _e2_grid(g2, ce_complex(g2, m2), m2.dim, k)


def _e2_grid(g2: LieAlgebra, cplx: CochainComplex, dim_m: int,
             k: int) -> dict[tuple[int, int], int]:
    hcomplex, actions = _h_blocks(g2, cplx, dim_m, k)
    quot = _quotient_algebra(g2, k)
    grid: dict[tuple[int, int], int] = {}
    for q, hq in cohomology(hcomplex).items():
        module = _built(GModule, hq.dim, tuple(induced_map(a, hq, hq) for a in actions[q]))
        for p, dim in betti(ce_complex(quot, module)).items():
            grid[(p, q)] = dim
    return grid


class HSReport(NamedTuple):
    expected_e2: dict[tuple[int, int], int]   # nonzero H^p(g/h, H^q(h, M))
    computed_e2: dict[tuple[int, int], int]   # nonzero page 2 of the ideal filtration
    infinity_totals: dict[int, int]           # the Betti numbers of H(g, M)
    ok: bool


def verify(g: LieAlgebra, h: LieIdeal, m: GModule) -> HSReport:
    """Page 2 of the ideal filtration matches H^p(g/h, H^q(h, M)).  Both
    sides read one adapted complex, which `coordinates` proved isomorphic
    to the complex in the original basis.  Its one pairing gives page 2, the
    only page built, and the limit totals, which are the Betti numbers of
    H(g, M)."""
    g2, m2, k = _adapted(g, h, m)
    cplx = ce_complex(g2, m2)
    reduction = run(_filtered(cplx, m2.dim, k))
    expected = {pq: d for pq, d in _e2_grid(g2, cplx, m2.dim, k).items() if d}
    computed = compute_page(reduction, 2).grid
    return HSReport(expected, computed, reduction.infinity_totals(), computed == expected)
