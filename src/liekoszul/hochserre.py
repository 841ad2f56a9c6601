"""Finite-dimensional Lie algebra cohomology and the ideal filtration.

The filtration of the exterior cochain complex by the number of
arguments allowed to lie in an ideal h gives a spectral sequence whose
second page is H^p(g/h, H^q(h, M)); `verify` checks that identification
and the convergence to H(g, M) on concrete instances.

A complement to h is chosen once (the standard echelon complement), the
whole complex is rebuilt in the adapted basis, and each basis cochain
gets its number of complement factors as filtration level.  C(h, M) and
the action of g on it are blocks of that same complex (`_h_blocks`).
Results are compared at the level of dimensions, which is
complement-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as QQ
from itertools import combinations
from typing import Mapping, Sequence

from .complexes import CochainComplex, FilteredComplex, betti, cohomology
from .exactla import ExactMatrix, Subspace, _axpy, coordinates, induced_map, qq
from .lierinehart import _bracket_entries, _ce_terms
from .specseq import check_convergence, run


class LieAlgebraError(Exception):
    pass


class MalformedLieAlgebra(LieAlgebraError):
    """Input of the wrong shape (a bracket key or coefficient vector, the
    ambient of an ideal, the count or shape of action matrices), as
    opposed to data of the right shape that breaks an identity."""


class LieAlgebra:
    """Structure constants c_ij^k, stored as {(i, j): {k: c}} with i < j and
    nonzero c only, with Jacobi checked exactly."""

    def __init__(self, dim: int, brackets: Mapping):
        self.dim = dim
        self.brackets: dict[tuple[int, int], dict[int, QQ]] = {}
        for key, i, j, coeffs in _bracket_entries(brackets, dim, MalformedLieAlgebra):
            cs = tuple(qq(c) for c in coeffs)
            if len(cs) != dim:
                raise MalformedLieAlgebra(
                    f"bracket {key} coefficient vector has length {len(cs)}, expected {dim}")
            nonzero = {k: c for k, c in enumerate(cs) if c}
            if nonzero:
                self.brackets[(i, j)] = nonzero
        # Jac(e_i, e_j, e_k), i < j < k, sums [[e_a, e_b], e_t] over the
        # nonzero products c_ab^l c_lt^s; of its three cyclic terms, the one
        # with a < t < b is -[[e_i, e_k], e_j].
        by_first: dict[int, list] = {}
        for (a, b), cs in self.brackets.items():
            by_first.setdefault(a, []).append((b, cs))
            by_first.setdefault(b, []).append((a, {k: -c for k, c in cs.items()}))
        jac: dict[tuple[int, int, int], dict[int, QQ]] = {}
        for (a, b), cs in self.brackets.items():
            for l, x in cs.items():
                for t, ct in by_first.get(l, ()):
                    if t == a or t == b:
                        continue
                    sign = -1 if a < t < b else 1
                    acc = jac.setdefault(tuple(sorted((a, b, t))), {})
                    for s, y in ct.items():
                        acc[s] = acc.get(s, 0) + sign * x * y
        bad = [(ijk, s) for ijk, acc in jac.items() for s, v in acc.items() if v]
        if bad:
            (i, j, k), s = min(bad)
            raise LieAlgebraError(
                f"Jacobi identity fails on (e{i}, e{j}, e{k}) in component e{s}")

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


class LieIdeal:
    """Subspace h with [g, h] contained in h (checked on basis vectors)."""

    def __init__(self, owner: LieAlgebra, subspace: Subspace):
        if subspace.ambient_dim != owner.dim:
            raise MalformedLieAlgebra("ideal lives in the wrong space")
        for i in range(owner.dim):
            for b in subspace.sparse_basis:
                if subspace._residual(owner.bracket({i: 1}, b)):
                    raise LieAlgebraError(
                        f"not an ideal: [e{i}, h-basis vector] leaves the subspace")
        self.owner = owner
        self.subspace = subspace

    @property
    def dim(self) -> int:
        return self.subspace.dim


class GModule:
    """Finite-dimensional module given by one action matrix per basis vector."""

    def __init__(self, algebra: LieAlgebra, dim: int, actions: Sequence[ExactMatrix]):
        if len(actions) != algebra.dim:
            raise MalformedLieAlgebra("need one action matrix per algebra basis vector")
        for a in actions:
            if a.rows != dim or a.cols != dim:
                raise MalformedLieAlgebra("action matrix has wrong shape")
        for i, j in combinations(range(algebra.dim), 2):
            lhs = ExactMatrix.zeros(dim, dim)
            for k, ck in algebra.brackets.get((i, j), {}).items():
                lhs = lhs + actions[k].scaled(ck)
            rhs = actions[i] @ actions[j] + (-(actions[j] @ actions[i]))
            if lhs != rhs:
                raise LieAlgebraError(
                    f"action does not respect the bracket on (e{i}, e{j})")
        self.algebra = algebra
        self.dim = dim
        self.actions = tuple(actions)

    @classmethod
    def trivial(cls, algebra: LieAlgebra, dim: int = 1) -> "GModule":
        return cls(algebra, dim, [ExactMatrix.zeros(dim, dim)] * algebra.dim)


def _cochain_basis(n: int, dim_m: int, p: int) -> list[tuple[tuple[int, ...], int]]:
    """Basis eps_S (x) v of p-cochains on an n-dimensional algebra with values
    in a dim_m-dimensional module: S in lexicographic order, then v."""
    return [(s, v) for s in combinations(range(n), p) for v in range(dim_m)]


def ce_complex(g: LieAlgebra, m: GModule) -> CochainComplex:
    """Exterior cochain complex Lambda^. g* tensor M, its differential from
    `lierinehart._ce_terms`, the Chevalley-Eilenberg builder shared with
    `lierinehart.ce_d`: g acts on module basis indices by the columns of
    the action matrices, and the structure constants are scalars."""
    n = g.dim
    bases = [_cochain_basis(n, m.dim, p) for p in range(n + 1)]
    # Column v of each action matrix: the image of the v-th module basis vector.
    act_cols = [a.transpose().row_maps for a in m.actions]
    acting = [k for k, a in enumerate(m.actions) if not a.is_zero()]
    diffs = []
    for p in range(n):
        src, dst = bases[p], bases[p + 1]
        index = {b: i for i, b in enumerate(dst)}
        terms = _ce_terms(n, src, g.brackets, acting,
                          lambda k, v: act_cols[k][v], lambda c, v: {v: c})
        entries = [(index[(tsub, r)], col, x) for col, tsub, r, x in terms]
        diffs.append(ExactMatrix.from_entries(len(dst), len(src), entries))
    return CochainComplex(0, n, [len(b) for b in bases], diffs)


def _adapted(g: LieAlgebra, h: LieIdeal, m: GModule):
    """Rebuild (g, m) in a basis listing h first, then the echelon complement;
    the brackets of all basis pairs get their coordinates from one
    `coordinates` solve."""
    n = g.dim
    pivots = set(h.subspace.pivots)
    basis = list(h.subspace.sparse_basis) + [{i: 1} for i in range(n) if i not in pivots]
    pairs = list(combinations(range(n), 2))
    coords = coordinates(basis, n, [g.bracket(basis[a], basis[b]) for a, b in pairs])
    new_brackets = {pair: [col.get(s, 0) for s in range(n)]
                    for pair, col in zip(pairs, coords.transpose().row_maps) if col}
    g2 = LieAlgebra(n, new_brackets)
    actions = []
    for row in basis:
        act = ExactMatrix.zeros(m.dim, m.dim)
        for i, c in row.items():
            act = act + m.actions[i].scaled(c)
        actions.append(act)
    m2 = GModule(g2, m.dim, actions)
    return g2, m2, h.dim


def hs_filtered(g: LieAlgebra, h: LieIdeal, m: GModule) -> FilteredComplex:
    """Ideal filtration: level p keeps cochains with >= p complement factors."""
    g2, m2, k = _adapted(g, h, m)
    return _filtered(ce_complex(g2, m2), m2.dim, k)


def _filtered(cplx: CochainComplex, dim_m: int, k: int) -> FilteredComplex:
    n = cplx.hi
    levels = {deg: [sum(1 for i in s if i >= k) for s, _ in _cochain_basis(n, dim_m, deg)]
              for deg in range(n + 1)}
    return FilteredComplex(cplx, 0, n - k, levels)


def _quotient_algebra(g2: LieAlgebra, k: int) -> LieAlgebra:
    n = g2.dim
    brackets = {}
    for (a, b), cs in g2.brackets.items():
        if a >= k and max(cs) >= k:
            brackets[(a - k, b - k)] = [cs.get(s, 0) for s in range(k, n)]
    return LieAlgebra(n - k, brackets)


def _block(d: ExactMatrix, rows: Sequence[int], cols: Sequence[int]) -> ExactMatrix:
    """The submatrix of d on the given rows and columns, in those orders."""
    pos = {c: j for j, c in enumerate(cols)}
    return ExactMatrix(len(rows), len(cols), [{pos[c]: x for c, x in d.row_maps[r].items()
                                               if c in pos} for r in rows])


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
    if any(a < k and max(cs) >= k for (a, _), cs in g2.brackets.items()):
        raise LieAlgebraError("ideal brackets leave the ideal in adapted basis")
    n = g2.dim
    index = [{b: i for i, b in enumerate(_cochain_basis(n, dim_m, p))}
             for p in range(min(k + 1, n) + 1)]
    bases = [_cochain_basis(k, dim_m, q) for q in range(k + 1)]
    cols = [[index[q][b] for b in basis] for q, basis in enumerate(bases)]
    hcomplex = CochainComplex(0, k, [len(c) for c in cols],
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
    hcoh = cohomology(hcomplex)
    quot = _quotient_algebra(g2, k)
    grid: dict[tuple[int, int], int] = {}
    for q in range(k + 1):
        hq = hcoh[q]
        module = GModule(quot, hq.dim, [induced_map(a, hq, hq) for a in actions[q]])
        for p, dim in betti(ce_complex(quot, module)).items():
            grid[(p, q)] = dim
    return grid


@dataclass(frozen=True)
class HSReport:
    expected_e2: dict[tuple[int, int], int]   # nonzero H^p(g/h, H^q(h, M))
    computed_e2: dict[tuple[int, int], int]   # nonzero page 2 of the ideal filtration
    infinity_totals: dict[int, int]
    betti: dict[int, int]                     # of the complex in the original basis
    ok: bool


def verify(g: LieAlgebra, h: LieIdeal, m: GModule) -> HSReport:
    """Page 2 of the ideal filtration matches H^p(g/h, H^q(h, M)) and the
    limit totals match the Betti numbers of the full complex.  Both sides
    read one adapted complex."""
    g2, m2, k = _adapted(g, h, m)
    cplx = ce_complex(g2, m2)
    result = run(_filtered(cplx, m2.dim, k))
    expected = {pq: d for pq, d in _e2_grid(g2, cplx, m2.dim, k).items() if d}
    computed = result.pages[2].nonzero_dims()
    target = betti(ce_complex(g, m))
    ok = computed == expected and check_convergence(result, target)
    return HSReport(expected, computed, result.infinity_totals(), target, ok)
