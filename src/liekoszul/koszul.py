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
restriction to the zero locus).  The reduction map onto it is checked to
be a chain map and a quasi-isomorphism slice by slice; a quasi-iso
failure signals that the zero locus does not behave regularly.

Normal forms come from one RREF of each ideal slice I_w with each row's
pivot at its last nonzero monomial (Lazard, EUROCAL 1983): the quotient
basis is the monomials e_i not in I_w + span(e_0..e_{i-1}), the non-pivots,
and a pivot monomial reduces to minus the rest of its row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .complexes import ChainMap, CochainComplex, betti, is_quasi_isomorphism
from .exactla import ExactMatrix, Subspace, normal_forms
from .lierinehart import (
    LieRinehartPresentation,
    SectionV,
    contraction,
)


class ZeroLocusError(Exception):
    pass


class InconclusiveError(ZeroLocusError):
    """Window too small to certify or refute zero-dimensionality."""


@dataclass(frozen=True)
class LieKoszulSlice:
    lr: LieRinehartPresentation
    section: SectionV
    w: int
    complex: CochainComplex

    def term_weight(self, p: int) -> int:
        return self.w + p * self.section.weight


def lie_koszul(lr: LieRinehartPresentation, v: SectionV, w: int) -> LieKoszulSlice:
    """Weight-w slice of (K^., i_V); i_V^2 = 0 is verified on construction."""
    m = lr.rank
    dims = [lr.form_slice(-p, w + p * v.weight).dim for p in range(-m, 1)]
    diffs = [contraction(lr, v, -p, w + p * v.weight) for p in range(-m, 0)]
    cplx = CochainComplex(-m, 0, dims, diffs)
    return LieKoszulSlice(lr, v, w, cplx)


class ZeroLocusModel:
    """Quotient slices of the ring by the ideal of the components of V."""

    def __init__(self, lr: LieRinehartPresentation, v: SectionV):
        self.lr = lr
        self.ring = lr.ring
        self.generators = [c for c in v.components if c]
        self.gen_weights = [self.ring.weight_of(c) for c in self.generators]
        self._slices: dict[int, Subspace] = {}

    def ideal_slice(self, w: int) -> Subspace:
        if w not in self._slices:
            index = {m: i for i, m in enumerate(self.ring.monomials(w))}
            rows = [{index[tuple(a + b for a, b in zip(mono, mult))]: c
                     for mono, c in gen.items()}
                    for gen, gw in zip(self.generators, self.gen_weights)
                    for mult in self.ring.monomials(w - gw)]
            self._slices[w] = Subspace._span(len(index), rows)
        return self._slices[w]

    def quotient_dim(self, w: int) -> int:
        return self.ring.slice_dim(w) - self.ideal_slice(w).dim


def is_zero_dimensional(v: SectionV, w_max: int) -> bool:
    """Certify that the zero scheme of V is the origin, or that it is not.

    For a homogeneous ideal, a full window of zero quotient slices of
    length max(variable weights) forces all higher slices to vanish, so
    finding one below w_max proves True.  False needs a proof as well: a
    variable x_j none of whose pure powers x_j^e (e >= 0) occurs in any
    component of V, so that every component vanishes on the x_j axis and
    the zero locus contains that line.  Without either proof the verdict is
    not visible at this w_max and InconclusiveError is raised.
    """
    ring = v.owner.ring
    for j in range(ring.nvars):
        if not any(all(e == 0 for i, e in enumerate(mono) if i != j)
                   for c in v.components for mono in c):
            return False
    model = ZeroLocusModel(v.owner, v)
    max_u = max(ring.weights)
    if w_max < max_u - 1:
        raise InconclusiveError(f"w_max={w_max} smaller than one weight window")
    dims = []
    for w in range(w_max + 1):
        dims.append(model.quotient_dim(w))
        if len(dims) >= max_u and not any(dims[-max_u:]):
            return True
    raise InconclusiveError(
        f"quotient dims {dims} do not vanish on a full window, and no axis "
        f"lies in the zero locus")


@dataclass(frozen=True)
class FormalitySliceResult:
    w: int
    ok: bool
    source_betti: dict[int, int]
    target_betti: dict[int, int]


@dataclass(frozen=True)
class FormalityResult:
    ok: bool
    slices: tuple[FormalitySliceResult, ...]

    @property
    def first_failure(self) -> FormalitySliceResult | None:
        for s in self.slices:
            if not s.ok:
                return s
        return None


def untouched_generators(v: SectionV) -> tuple[int, ...]:
    """Generator indices whose component of V vanishes identically."""
    return tuple(i for i, c in enumerate(v.components) if not c)


def reduction_map(lr: LieRinehartPresentation, v: SectionV, w: int
                  ) -> tuple[LieKoszulSlice, CochainComplex, ChainMap]:
    """The slice complex, its restricted reduction target, and the map.

    The target is the exterior algebra on the generators not involved in
    V, with coefficients in the quotient by the zero-locus ideal and zero
    differential: block (S, (R/I)_w(S)) for subsets S of the untouched
    generators.  (Exterior blocks meeting a nonzero component die in the
    quotient: their contraction terms are ideal multiples, which is what
    makes the reduction a chain map.)  Building the ChainMap checks that
    chain condition as an exact matrix identity.
    """
    ks = lie_koszul(lr, v, w)
    model = ZeroLocusModel(lr, v)
    keep = set(untouched_generators(v))
    m = lr.rank
    dims = []
    maps: dict[int, ExactMatrix] = {}
    for p in range(-m, 1):
        fs = lr.form_slice(-p, ks.term_weight(p))
        subsets = [s for s in _subsets_in_order(fs) if set(s) <= keep]
        offsets = {}
        off = 0
        for s in subsets:
            offsets[s] = off
            off += model.quotient_dim(_subset_fn_weight(lr, ks.term_weight(p), s))
        dims.append(off)
        maps[p] = _reduction_matrix(lr, model, fs, ks.term_weight(p), offsets, off)
    target = CochainComplex(-m, 0, dims,
                            [ExactMatrix.zeros(dims[i + 1], dims[i]) for i in range(m)])
    chain = ChainMap(ks.complex, target, maps)
    return ks, target, chain


def _subsets_in_order(fs) -> list[tuple[int, ...]]:
    out = []
    for subset, _ in fs.basis:
        if not out or out[-1] != subset:
            out.append(subset)
    return out


def _subset_fn_weight(lr, w, subset) -> int:
    return w + sum(lr.gen_weights[i] for i in subset)


def _reduction_matrix(lr, model: ZeroLocusModel, fs, w,
                      offsets: dict[tuple[int, ...], int], dim_target: int) -> ExactMatrix:
    forms = {}  # subset -> monomial -> its normal form
    for s in offsets:
        wf = _subset_fn_weight(lr, w, s)
        forms[s] = dict(zip(lr.ring.monomials(wf), normal_forms(model.ideal_slice(wf))))
    entries = []
    for col, (subset, mono) in enumerate(fs.basis):
        if subset in offsets:
            base = offsets[subset]
            entries.extend((base + i, col, c) for i, c in forms[subset][mono].items())
    return ExactMatrix.from_entries(dim_target, fs.dim, entries)


def formality_check(lr: LieRinehartPresentation, v: SectionV,
                    weights) -> FormalityResult:
    """Reduction mod the zero-locus ideal is a quasi-isomorphism, slicewise."""
    results = []
    for w in weights:
        ks, target, chain = reduction_map(lr, v, w)
        ok = is_quasi_isomorphism(chain)
        results.append(FormalitySliceResult(w, ok, betti(ks.complex), betti(target)))
    return FormalityResult(all(r.ok for r in results), tuple(results))


@dataclass(frozen=True)
class VanishingReport:
    dim_y: int
    dims: dict[tuple[int, int], int]           # (degree m, weight w) -> dim H^m
    violations: tuple[tuple[int, int, int], ...]  # (m, w, dim) with m < -dim_y

    @property
    def ok(self) -> bool:
        return not self.violations


def vanishing_check(tables: Mapping[int, Mapping[int, int]], dim_y: int) -> VanishingReport:
    """Flags any nonzero H^m with m < -dim_y in the slice Betti tables
    (weight -> degree -> dim), e.g. `FormalitySliceResult.source_betti`.

    The full dimension table is reported so callers can assert the
    sharper closed forms known for their examples.
    """
    dims: dict[tuple[int, int], int] = {}
    violations = []
    for w, table in tables.items():
        for m, h in table.items():
            dims[(m, w)] = h
            if m < -dim_y and h:
                violations.append((m, w, h))
    return VanishingReport(dim_y, dims, tuple(violations))
