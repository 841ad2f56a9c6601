"""Koszul-type complexes of a Lie-Rinehart presentation with a section.

The complex has K^p = Omega^{-p} for p <= 0 with differential the
contraction i_V.  Contraction shifts the weight by weight(V), so the
weight-w slice uses FormSlice(-p, w + p*weight(V)) in degree p; every
slice is then an honest finite-dimensional complex.

The zero locus of V is modeled by the homogeneous ideal generated by the
components of V in the fixed generator frame.  The formality comparison
target is the restricted reduction: the exterior algebra on the
generators not involved in V, with coefficients in the quotient ring and
zero differential (the exterior directions consumed by V do not survive
restriction to the zero locus).  The reduction map onto it is a chain map
for every section (the tests prove it) and is checked to be a
quasi-isomorphism slice by slice; a quasi-iso failure signals that the
zero locus does not behave regularly.

`formality_check` works on the primitive integral form of V: each nonzero
component c_i is scaled by the lambda_i > 0 that makes its coefficients
coprime integers.  The diagonal map phi(eps_S g) = (prod_{i in S}
lambda_i)^{-1} eps_S g is an isomorphism of Koszul complexes from (K, i_V)
to (K, i_{lambda V}); it fixes the ideal, the target and the blocks the
reduction map reads, so every verdict and Betti number is that of V, while
rational or non-unit input is eliminated at integral cost.  Each slice's
contraction d_C is eliminated once: the mapping-cone ranks of the
quasi-isomorphism test eliminate it as the top block of each cone
differential, and the source Betti numbers are read off those pivots.
`lie_koszul`, `reduction_map` and `SectionV` keep the coefficients as given.

Normal forms come from one RREF of the spanning rows of each ideal slice
I_w, with each row's pivot at its last nonzero monomial (Lazard, EUROCAL
1983): the quotient basis is the monomials e_i not in I_w +
span(e_0..e_{i-1}), the non-pivots, and a pivot monomial reduces to minus
the rest of its row (`exactla.normal_forms`).  Each section keeps its one
model (`zero_locus_model`), which computes the primitive components once
and is shared with the primitive form built from them, so every slice is
eliminated once per command, whatever the weights asked for.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Mapping, NamedTuple

from .complexes import ChainMap, CochainComplex, _betti, _cone_is_acyclic, _cone_ranks
from .exactla import ExactMatrix, _built, _transpose, normal_forms
from .lierinehart import (
    LieRinehartPresentation,
    SectionV,
    contraction,
)


def lie_koszul(lr: LieRinehartPresentation, v: SectionV, w: int) -> CochainComplex:
    """Weight-w slice of (K^., i_V), in degrees -rank..0.  i_V^2 = 0 holds
    for every section, by the antisymmetry of contraction on an exterior
    algebra, so the slice is built unchecked; the tests prove it on the
    corpora and seeded sections."""
    m = lr.rank
    dims = [lr.form_slice(-p, w + p * v.weight).dim for p in range(-m, 1)]
    diffs = [contraction(lr, v, -p, w + p * v.weight) for p in range(-m, 0)]
    return _built(CochainComplex, -m, 0, dims, diffs)


class ZeroLocusModel:
    """Quotient slices of the ring by the ideal of the components of V,
    generated by their primitive integral multiples (the same ideal).
    `primitive` holds `_primitive` of every component, computed once, and
    each weight's normal forms and quotient dimension come from one
    elimination of its ideal slice."""

    def __init__(self, lr: LieRinehartPresentation, v: SectionV):
        self.lr = lr
        self.ring = lr.ring
        self.primitive = tuple(map(_primitive, v.components))
        self.generators = [c for c in self.primitive if c]
        self.gen_weights = [self.ring.weight_of(c) for c in self.generators]
        self._quotients: dict[int, tuple[list[dict], int]] = {}

    def ideal_slice(self, w: int) -> list[dict]:
        """Spanning rows of I_w: each generator times each monomial of the
        complementary weight, in that order, read off the columns of the
        presentation's multiplication blocks, which `contraction` shares."""
        rows: list[dict] = []
        for gen, gw in zip(self.generators, self.gen_weights):
            start = len(rows)
            rows += [{} for _ in self.ring.monomials(w - gw)]
            for r, col, x in self.lr.times_block(gen, w - gw):
                rows[start + col][r] = x
        return rows

    def _quotient(self, w: int) -> tuple[list[dict], int]:
        """`normal_forms` of I_w, from one elimination of `ideal_slice(w)`."""
        quotient = self._quotients.get(w)
        if quotient is None:
            quotient = self._quotients[w] = normal_forms(self.ideal_slice(w),
                                                         self.ring.slice_dim(w))
        return quotient

    def quotient_forms(self, w: int) -> list[dict]:
        """The class of each weight-w monomial in (R/I)_w."""
        return self._quotient(w)[0]

    def quotient_dim(self, w: int) -> int:
        return self._quotient(w)[1]


def zero_locus_model(v: SectionV) -> ZeroLocusModel:
    """The zero-locus model of v, built on first use and kept on v, so that
    a command builds one model, and one set of normal forms per weight, for
    each section it builds."""
    if v._zero_locus is None:
        v._zero_locus = ZeroLocusModel(v.owner, v)
    return v._zero_locus


def is_zero_dimensional(v: SectionV, w_max: int) -> bool | None:
    """Certify that the zero scheme of V is the origin, or that it is not.

    For a homogeneous ideal, a full window of zero quotient slices of
    length max(variable weights) forces all higher slices to vanish, so
    finding one below w_max proves True.  False needs a proof as well: a
    variable x_j none of whose pure powers x_j^e (e >= 0) occurs in any
    component of V, so that every component vanishes on the x_j axis and
    the zero locus contains that line; or a zero weight-0 quotient slice,
    which makes R/I = 0, so that V vanishes nowhere and its zero scheme is
    empty.  Without a proof the verdict is not visible at this w_max, and
    None is returned (undecided).
    """
    ring = v.owner.ring
    for j in range(ring.nvars):
        if not any(all(e == 0 for i, e in enumerate(mono) if i != j)
                   for c in v.components for mono in c):
            return False
    model = zero_locus_model(v)
    max_u = max(ring.weights, default=1)
    dims = [model.quotient_dim(0)]
    if not dims[0]:
        return False
    for w in range(1, w_max + 1):
        dims.append(model.quotient_dim(w))
        if len(dims) >= max_u and not any(dims[-max_u:]):
            return True
    return None


class FormalitySliceResult(NamedTuple):
    w: int
    ok: bool
    source_betti: dict[int, int]


class FormalityResult(NamedTuple):
    ok: bool
    slices: tuple[FormalitySliceResult, ...]


def untouched_generators(v: SectionV) -> tuple[int, ...]:
    """Generator indices whose component of V vanishes identically."""
    return tuple(i for i, c in enumerate(v.components) if not c)


def reduction_map(lr: LieRinehartPresentation, v: SectionV, w: int) -> ChainMap:
    """The reduction map from the weight-w slice `lie_koszul(lr, v, w)`, its
    `source`, to the restricted reduction target, its `target`.

    The target is the exterior algebra on the generators not involved in
    V, with coefficients in the quotient by the zero-locus ideal and zero
    differential: block (S, (R/I)_w(S)) for subsets S of the untouched
    generators.  (Exterior blocks meeting a nonzero component die in the
    quotient: their contraction terms are ideal multiples, which is what
    makes the reduction a chain map.)  That chain condition holds for every
    section, so the target and the map are built unchecked; the tests prove
    it on the Lie-Rinehart corpus and on seeded sections.  The quotient
    comes from v's own `zero_locus_model`, which every weight shares.
    """
    source = lie_koszul(lr, v, w)
    model = zero_locus_model(v)
    keep = set(untouched_generators(v))
    m = lr.rank
    dims = []
    maps: dict[int, ExactMatrix] = {}
    for p in range(-m, 1):
        fs = lr.form_slice(-p, w + p * v.weight)
        offsets = {}
        off = 0
        for s, (_, wf) in fs.blocks.items():
            if set(s) <= keep:
                offsets[s] = off
                off += model.quotient_dim(wf)
        dims.append(off)
        maps[p] = _reduction_matrix(model, fs, offsets, off)
    target = _built(CochainComplex, -m, 0, dims,
                    [ExactMatrix.zeros(dims[i + 1], dims[i]) for i in range(m)])
    return _built(ChainMap, source, target, maps)


def _reduction_matrix(model: ZeroLocusModel, fs, offsets: dict[tuple[int, ...], int],
                      dim_target: int) -> ExactMatrix:
    """The reduction map on FormSlice `fs`: the block of each subset S in
    `offsets` goes to its normal forms, at row offsets[S] of the target.
    Blocks are disjoint and normal forms canonical: the rows are wrapped."""
    cols: list[dict] = [{} for _ in range(fs.dim)]
    for s, base in offsets.items():
        col0, wf = fs.blocks[s]
        for col, form in enumerate(model.quotient_forms(wf), start=col0):
            cols[col] = {base + i: c for i, c in form.items()}
    return _built(ExactMatrix, dim_target, fs.dim, tuple(_transpose(cols, dim_target)))


def _primitive(c: dict) -> dict:
    """lambda c for the lambda > 0 that makes the coefficients of c coprime
    integers: the lcm of the denominators of c divided by the gcd of the
    numerators that gives."""
    scale = lcm(*(x.denominator for x in c.values()))
    ints = {m: x.numerator * (scale // x.denominator) for m, x in c.items()}
    g = gcd(*ints.values())
    return {m: x // g for m, x in ints.items()}


def _primitive_section(lr: LieRinehartPresentation, v: SectionV) -> SectionV:
    """V with each nonzero component c_i replaced by `_primitive(c_i)`, read
    from v's zero-locus model, which computed them.  The ideal (c_i) is
    unchanged, so the new section shares that model.  A section that is
    already primitive (every lambda_i = 1) is returned as it is."""
    model = zero_locus_model(v)
    if model.primitive == v.components:
        return v
    primitive = SectionV(lr, model.primitive)
    primitive._zero_locus = model
    return primitive


def formality_check(lr: LieRinehartPresentation, v: SectionV,
                    weights) -> FormalityResult:
    """Reduction mod the zero-locus ideal is a quasi-isomorphism, slicewise.

    The slices are built for `_primitive_section(lr, v)`: with lambda V =
    (lambda_i c_i), phi(eps_S g) = (prod_{i in S} lambda_i)^{-1} eps_S g
    satisfies i_{lambda V} phi = phi i_V and is the identity on the blocks
    over untouched generators, the only ones the reduction map reads, so
    f = f' phi and every verdict and Betti number is that of v.  One
    elimination per cone degree gives the verdict and the source ranks
    (`complexes._cone_ranks`).
    """
    v = _primitive_section(lr, v)
    results = []
    for w in weights:
        chain = reduction_map(lr, v, w)
        source_ranks, cone_ranks = _cone_ranks(chain)
        results.append(FormalitySliceResult(w, _cone_is_acyclic(chain, cone_ranks),
                                            _betti(chain.source, source_ranks)))
    return FormalityResult(all(r.ok for r in results), tuple(results))


class VanishingReport(NamedTuple):
    violations: tuple[tuple[int, int, int], ...]  # (m, w, dim) with m < -dim_y

    @property
    def ok(self) -> bool:
        return not self.violations


def vanishing_check(tables: Mapping[int, Mapping[int, int]], dim_y: int) -> VanishingReport:
    """Flags any nonzero H^m with m < -dim_y in the slice Betti tables
    (weight -> degree -> dim), e.g. `FormalitySliceResult.source_betti`;
    the tables themselves are the caller's.

    The slices are the Koszul complex K(c_1..c_m) of the m components of V
    over k[x_1..x_n], whose H^{-k} can be nonzero for every k <= m - n +
    dim Y (Eisenbud, Commutative Algebra, 1995, Ch. 17).  So a violation
    contradicts a theorem only when m <= n; the caller checks no vanishing
    otherwise."""
    return VanishingReport(tuple((m, w, h) for w, table in tables.items()
                                 for m, h in table.items() if m < -dim_y and h))
