"""Weighted-homogeneous Lie-Rinehart algebras over a polynomial ring.

A presentation is a free module on generators e_1..e_m over a weighted
polynomial ring, with a homogeneous anchor rho(e_i) = sum_j a_ij d/dx_j
and a homogeneous bracket [e_i, e_j] = sum_k c_ij^k e_k.  Everything in
sight is graded, so the exterior-form complexes split into finite weight
slices and all cohomology is computed exactly, slice by slice.

A slice of p-forms of weight w is the direct sum of the blocks
eps_S (x) R_{w + weight(S)} over the p-subsets S of generators
(`FormSlice.blocks`), and every operator built here maps block S to block
T by a sign times one coefficient operator that depends on a generator or
a polynomial and on the source weight, never on S: rho(e_k), or
multiplication by c_ab^k or by a component V_i.  Each such block is built
once per presentation (`anchor_block`, `times_block`) and placed at the
offsets of (T, S) (`_assemble`); `_ce_terms` names the blocks of the
differential, and `hochserre.ce_complex` assembles its complex from it too.

Conventions: the generator dual basis eps_1..eps_m pairs as
<eps_i, e_j> = delta_ij, wedge monomials are ordered lexicographically
by index, a variable x_j has weight u_j >= 1, the symbol d/dx_j carries
weight -u_j, and generator weights may be negative (the tangent frame
d/dx_j has weight -u_j, so the Euler field has weight 0).
"""

from __future__ import annotations

from fractions import Fraction as QQ
from itertools import combinations
from operator import add
from typing import Mapping, NamedTuple, Sequence

from .complexes import CochainComplex
from .exactla import (ExactMatrix, InputError, Value, VerdictError, _built, _integral,
                      format_rational, integer, integers, qq, sized)

Monomial = tuple[int, ...]
Poly = dict[Monomial, QQ]


class PresentationError(VerdictError):
    pass


class MalformedPresentation(PresentationError, InputError):
    """Input of the wrong shape (counts, lengths, keys, monomials,
    coefficients, weights), as opposed to data of the right shape that
    breaks the grading or an identity."""


def _bracket_entries(brackets, n: int, error: type[Exception]):
    """(key, i, j, value) for each entry of a {"i,j": value} mapping, with
    0 <= i < j < n and value a list of n entries; a key may also be given
    as a pair.  A second key for one pair, such as "0, 1" beside "0,1",
    raises naming both."""
    if not isinstance(brackets, Mapping):
        raise error(f"brackets must be an object keyed 'i,j', got {type(brackets).__name__}")
    seen = {}
    for key, value in brackets.items():
        i, j = integers(key, 2, "bracket key", error)
        if not (0 <= i < j < n):
            raise error(f"bracket key ({i},{j}) must satisfy 0 <= i < j < {n}")
        first = seen.setdefault((i, j), key)
        if first != key:
            raise error(f"bracket keys {first!r} and {key!r} name the same pair ({i},{j})")
        yield key, i, j, sized(value, n, f"bracket {key}", error)


# -- polynomial helpers ------------------------------------------------------

def poly(data, nvars: int) -> Poly:
    """Normalize a {exponents: coeff} mapping into a clean Poly."""
    if not isinstance(data, Mapping):
        raise MalformedPresentation(
            f"polynomial {data!r} must be an object {{exponents: coefficient}}")
    out: Poly = {}
    for key, coeff in data.items():
        mono = integers(key, nvars, "monomial key", MalformedPresentation)
        if any(e < 0 for e in mono):
            raise MalformedPresentation(f"monomial key {key!r} has a negative exponent")
        try:
            c = qq(coeff)
        except (TypeError, ValueError) as exc:
            raise MalformedPresentation(f"monomial key {key!r}: {exc}") from None
        if c:
            out[mono] = out.get(mono, 0) + c
    return {m: c for m, c in out.items() if c}


def p_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def p_scale(c, a: Poly) -> Poly:
    c = qq(c)
    if not c:
        return {}
    return {m: c * v for m, v in a.items()}


def p_sub(a: Poly, b: Poly) -> Poly:
    return p_add(a, p_scale(-1, b))


def p_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            s = out.get(m, 0) + ca * cb
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def p_str(a: Poly, names: Sequence[str] | None = None) -> str:
    if not a:
        return "0"
    terms = []
    for m, c in sorted(a.items()):
        factors = []
        for j, e in enumerate(m):
            if e:
                name = names[j] if names else f"x{j}"
                factors.append(name if e == 1 else f"{name}^{e}")
        coeff = format_rational(c)
        terms.append(f"{coeff}*{'*'.join(factors)}" if factors else coeff)
    return " + ".join(terms)


def _exponents(weights: tuple[int, ...], w: int) -> list[Monomial]:
    """Exponent vectors of weight w, in lexicographic order: every prefix
    with its remaining weight, and the last exponent where it divides."""
    if w < 0 or not weights:
        return [()] if w == 0 else []
    parts = [((), w)]
    for u in weights[:-1]:
        parts = [(pre + (e,), r - e * u) for pre, r in parts for e in range(r // u + 1)]
    last = weights[-1]
    return [pre + (r // last,) for pre, r in parts if not r % last]


class WeightedPolyRing(Value):
    """Polynomial ring with positive integer weights on the variables."""

    __slots__ = ("nvars", "weights", "_monomials", "_indices")
    nvars: int
    weights: tuple[int, ...]

    def __init__(self, nvars: int, weights: Sequence[int]):
        nvars = integer(nvars, "variable count", MalformedPresentation)
        weights = tuple(integer(w, "variable weight", MalformedPresentation) for w in weights)
        if len(weights) != nvars:
            raise MalformedPresentation("weight count does not match variable count")
        if any(w < 1 for w in weights):
            raise MalformedPresentation(f"variable weights must be positive, got {list(weights)}")
        # Caches per ring, so that nothing computed for one input is reused by another.
        self._set(nvars, weights, {}, {})

    def monomials(self, w: int) -> tuple[Monomial, ...]:
        """The monomials of weight w, in lexicographic order."""
        monos = self._monomials.get(w)
        if monos is None:
            monos = self._monomials[w] = tuple(_exponents(self.weights, w))
        return monos

    def monomial_index(self, w: int) -> dict[Monomial, int]:
        """Position of each monomial of weight w in `monomials(w)`."""
        index = self._indices.get(w)
        if index is None:
            index = self._indices[w] = {m: i for i, m in enumerate(self.monomials(w))}
        return index

    def slice_dim(self, w: int) -> int:
        return len(self.monomials(w))

    def monomial_weight(self, m: Monomial) -> int:
        return sum(e * u for e, u in zip(m, self.weights))

    def weight_of(self, a: Poly) -> int | None:
        """Weight of a homogeneous polynomial (None for 0); raises if mixed."""
        ws = {self.monomial_weight(m) for m in a}
        if not ws:
            return None
        if len(ws) > 1:
            raise PresentationError(f"polynomial not homogeneous: weights {sorted(ws)}")
        return ws.pop()


class FormSlice(NamedTuple):
    """The p-forms of total weight w as a direct sum of blocks eps_S (x) R_wf,
    wf = w + sum of the generator weights in S.  `blocks` maps each subset S
    with a nonzero block, in lexicographic order, to (offset, wf): the basis
    vector eps_S (x) m sits at offset + the position of m in monomials(wf)."""

    blocks: dict[tuple[int, ...], tuple[int, int]]
    dim: int


class LieRinehartPresentation:
    """Free rank-m module with homogeneous anchor and bracket data."""

    def __init__(self, ring: WeightedPolyRing, gen_weights: Sequence[int],
                 anchor: Sequence[Sequence], brackets: Mapping):
        self.ring = ring
        gw = self.gen_weights = tuple(integer(g, "generator weight", MalformedPresentation)
                                      for g in gen_weights)
        m, n = len(gw), ring.nvars

        def entry(value, expected: int, name: str) -> Poly:
            """The polynomial `value`, homogeneous of weight `expected` unless 0."""
            a = poly(value, n)
            wt = ring.weight_of(a)
            if wt is not None and wt != expected:
                raise PresentationError(f"{name} has weight {wt}, expected {expected}")
            return a

        self.anchor: list[list[Poly]] = [
            [entry(a, gw[i] + ring.weights[j], f"anchor a[{i}][{j}]")
             for j, a in enumerate(sized(row, n, f"anchor row {i}", MalformedPresentation))]
            for i, row in enumerate(sized(anchor, m, "anchor", MalformedPresentation))]
        self.acting = tuple(k for k, row in enumerate(self.anchor) if any(row))
        # [e_i, e_j] for i < j as {k: c_ij^k}, nonzero components only.
        self.brackets: dict[tuple[int, int], dict[int, Poly]] = {}
        for _, i, j, comps in _bracket_entries(brackets, m, MalformedPresentation):
            cs = {k: c for k, value in enumerate(comps)
                  if (c := entry(value, gw[i] + gw[j] - gw[k], f"bracket c[{i},{j}]^{k}"))}
            if cs:
                self.brackets[(i, j)] = cs
        self._slices: dict[tuple[int, int], FormSlice] = {}
        # Coefficient blocks by ("anchor", k, wf) or ("times", polynomial, wf).
        self._blocks: dict[tuple, list[tuple[int, int, object]]] = {}

    @property
    def rank(self) -> int:
        return len(self.gen_weights)

    def anchor_apply(self, i: int, f: Poly) -> Poly:
        """rho(e_i) acting as a derivation on a polynomial: sum_j a_ij df/dx_j."""
        out: Poly = {}
        for j, a in enumerate(self.anchor[i]):
            if not a:
                continue
            for mono, c in f.items():
                e = mono[j]
                if not e:
                    continue
                lowered = mono[:j] + (e - 1,) + mono[j + 1:]
                for ma, ca in a.items():
                    m = tuple(x + y for x, y in zip(ma, lowered))
                    out[m] = out.get(m, 0) + e * c * ca
        return {m: c for m, c in out.items() if c}

    def form_slice(self, p: int, w: int) -> FormSlice:
        key = (p, w)
        cached = self._slices.get(key)
        if cached is not None:
            return cached
        blocks = {}
        dim = 0
        if 0 <= p <= self.rank:
            for subset in combinations(range(self.rank), p):
                wf = w + sum(self.gen_weights[i] for i in subset)
                size = len(self.ring.monomials(wf))
                if size:
                    blocks[subset] = (dim, wf)
                    dim += size
        fs = FormSlice(blocks, dim)
        self._slices[key] = fs
        return fs

    def anchor_block(self, k: int, wf: int) -> list[tuple[int, int, object]]:
        """rho(e_k): R_wf -> R_{wf + weight(e_k)} as (row, col, value), built
        once per presentation."""
        key = ("anchor", k, wf)
        block = self._blocks.get(key)
        if block is None:
            index = self.ring.monomial_index(wf + self.gen_weights[k])
            block = self._blocks[key] = [
                (index[m], col, _integral(x))
                for col, mono in enumerate(self.ring.monomials(wf))
                for m, x in self.anchor_apply(k, {mono: 1}).items()]
        return block

    def times_block(self, c: Poly, wf: int) -> list[tuple[int, int, object]]:
        """Multiplication by the nonzero homogeneous polynomial c on R_wf as
        (row, col, value), built once per presentation."""
        key = ("times", tuple(c.items()), wf)
        block = self._blocks.get(key)
        if block is None:
            index = self.ring.monomial_index(wf + self.ring.monomial_weight(next(iter(c))))
            block = self._blocks[key] = [
                (index[tuple(map(add, m, mono))], col, x)
                for col, mono in enumerate(self.ring.monomials(wf))
                for m, x in c.items()]
        return block


class SectionV:
    """Global section of the module, with homogeneous components."""

    def __init__(self, owner: LieRinehartPresentation, components: Sequence):
        self.owner = owner
        ring = owner.ring
        comps = [poly(entry, ring.nvars)
                 for entry in sized(components, owner.rank, "section", MalformedPresentation)]
        wt = None
        for i, c in enumerate(comps):
            wc = ring.weight_of(c)
            if wc is None:
                continue
            total = wc + owner.gen_weights[i]
            if wt is None:
                wt = total
            elif wt != total:
                raise PresentationError(
                    f"section components have mixed total weights {wt} and {total}")
        self.components = tuple(comps)
        self.weight = 0 if wt is None else wt
        self._zero_locus = None   # its koszul.ZeroLocusModel, built on first use


class Failure(NamedTuple):
    identity: str
    witness: str


class ValidationReport(NamedTuple):
    ok: bool
    failures: tuple[Failure, ...]


def _jacobi(brackets: Mapping, anchor_apply, acting: Sequence[int]) -> dict:
    """The one Jacobi check: the nonzero components {s: residue} of each
    Jac(e_i, e_j, e_k), keyed (i, j, k) with i < j < k, all in increasing order.
    `brackets` maps pairs a < b to {l: c_ab^l} (nonzero polynomials only);
    anchor_apply(t, f) = rho(e_t)(f) is called for the t in `acting` only.
    A pair a < b and a third t give the term -[[e_a, e_b], e_t] of Jac on
    sorted(a, b, t) if a < t < b, else +[[e_a, e_b], e_t], where
        [[e_a, e_b], e_t] = sum_l c_ab^l [e_l, e_t] - rho(e_t)(c_ab^l) e_l."""
    by_first: dict[int, list] = {}
    for (a, b), cs in brackets.items():
        by_first.setdefault(a, []).append((b, cs))
        by_first.setdefault(b, []).append((a, {k: p_scale(-1, c) for k, c in cs.items()}))
    jac: dict[tuple[int, int, int], dict[int, Poly]] = {}

    def add(a, b, t, s, value):
        acc = jac.setdefault(tuple(sorted((a, b, t))), {})
        acc[s] = p_add(acc.get(s, {}), p_scale(-1, value) if a < t < b else value)

    for (a, b), cs in brackets.items():
        for l, x in cs.items():
            for t, ct in by_first.get(l, ()):
                if t != a and t != b:
                    for s, y in ct.items():
                        add(a, b, t, s, p_mul(x, y))
            for t in acting:
                if t != a and t != b:
                    add(a, b, t, l, p_scale(-1, anchor_apply(t, x)))
    return {ijk: comps for ijk, acc in sorted(jac.items())
            if (comps := {s: v for s, v in sorted(acc.items()) if v})}


def validate(lr: LieRinehartPresentation) -> ValidationReport:
    """Exact check of the anchor-morphism identity on generator pairs and of
    Jacobi on generator triples (`_jacobi`, as in `hochserre.LieAlgebra`).

    These prove the axioms on all of L.  With D(y, z) = rho[y, z] -
    [rho y, rho z], the Leibniz extension gives (Rinehart 1963)

        Jac(f x, y, z) = f Jac(x, y, z) + D(y, z)(f) x,   D(f y, z) = f D(y, z),

    and Jac and D are antisymmetric, so both vanish on all of L once they
    vanish on generators.  Antisymmetry holds by construction: only
    [e_i, e_j] with i < j is stored.
    """
    failures: list[Failure] = []
    # rho([e_i, e_j]) = [rho(e_i), rho(e_j)], component d/dx_l
    for i, j in combinations(range(lr.rank), 2):
        cs = lr.brackets.get((i, j), {})
        for l in range(lr.ring.nvars):
            diff = p_sub(lr.anchor_apply(j, lr.anchor[i][l]), lr.anchor_apply(i, lr.anchor[j][l]))
            for k, c in cs.items():
                diff = p_add(diff, p_mul(c, lr.anchor[k][l]))
            if diff:
                failures.append(Failure(
                    "anchor-morphism",
                    f"rho([e{i},e{j}]) component d/dx{l}: residue {p_str(diff)}"))

    for (i, j, k), comps in _jacobi(lr.brackets, lr.anchor_apply, lr.acting).items():
        s, residue = next(iter(comps.items()))
        failures.append(Failure(
            "jacobi", f"(e{i}, e{j}, e{k}): component e{s} residue {p_str(residue)}"))

    return ValidationReport(not failures, tuple(failures))


def _wedge_insert_sign(k: int, rest: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Sort (k, *rest), rest strictly increasing and without k: the merged
    subset and the sign of the sort."""
    pos = 0
    while pos < len(rest) and rest[pos] < k:
        pos += 1
    return rest[:pos] + (k,) + rest[pos:], -1 if pos % 2 else 1


def _ce_terms(n: int, subsets, brackets: Mapping, acting: Sequence[int]):
    """The one Chevalley-Eilenberg enumerator: every term of

        (d om)(a_0..a_p) = sum_i (-1)^i a_i . om(..hat a_i..)
                         + sum_{i<j} (-1)^{i+j} om([a_i,a_j], ..hat a_i..hat a_j..)

    on the cochains eps_S (x) v of each S in `subsets`, as one (S, T, sign,
    k, c) per block: eps_S (x) v contributes sign * eps_T (x) (e_k . v) for
    an action term (c is None) and sign * eps_T (x) (c v) for a bracket term
    (k is None).  The operator on v depends on k or c only, never on S, so
    the caller builds it once and places it at every (T, S) it is named for;
    two terms may name the same (T, S), and their blocks add.  `brackets` maps pairs i < j to {k: c_ij^k} with
    nonzero c only, and `acting` lists, in increasing order, the k for which
    e_k may act by a nonzero map.
    The action sum inserts each acting k outside S; the bracket sum visits
    each nonzero c_ab^k with k in S and a, b outside S minus k.
    """
    by_k: list[list] = [[] for _ in range(n)]
    for (a, b), cs in brackets.items():
        for k, c in cs.items():
            by_k[k].append((a, b, c))
    for subset in subsets:
        for k in acting:
            if k not in subset:
                tsub, sign = _wedge_insert_sign(k, subset)
                yield subset, tsub, sign, k, None
        for pos, k in enumerate(subset):
            rest = subset[:pos] + subset[pos + 1:]
            for a, b, c in by_k[k]:
                if a in rest or b in rest:
                    continue
                # (-1)^pos moves k to the front of S; inserting a, then b,
                # gives (-1)^(i+j) for their slots i < j in T.
                with_a, sign_a = _wedge_insert_sign(a, rest)
                tsub, sign_b = _wedge_insert_sign(b, with_a)
                yield subset, tsub, (-1 if pos % 2 else 1) * sign_a * sign_b, None, c


def _assemble(rows: int, cols: int, placed) -> ExactMatrix:
    """The matrix that is the sum of the blocks in `placed`, each given as
    (row offset, column offset, sign, block) with block a list of (row,
    col, value) of distinct positions and canonical values.  Blocks at
    different offsets never overlap; the blocks at one offset are summed
    first, dropping zeros and storing an integral sum as an int."""
    at: dict[tuple[int, int], list] = {}
    for r0, c0, sign, block in placed:
        if block:
            at.setdefault((r0, c0), []).append((sign, block))
    data: list[dict] = [{} for _ in range(rows)]
    for (r0, c0), blocks in at.items():
        if len(blocks) > 1:
            acc: dict[tuple[int, int], object] = {}
            for sign, block in blocks:
                for r, c, x in block:
                    acc[(r, c)] = acc.get((r, c), 0) + sign * x
            blocks = [(1, [(r, c, _integral(x)) for (r, c), x in acc.items() if x])]
        for sign, block in blocks:
            if sign > 0:
                for r, c, x in block:
                    data[r0 + r][c0 + c] = x
            else:
                for r, c, x in block:
                    data[r0 + r][c0 + c] = -x
    return _built(ExactMatrix, rows, cols, tuple(data))


def ce_d(lr: LieRinehartPresentation, p: int, w: int) -> ExactMatrix:
    """Matrix of the algebroid differential FormSlice(p, w) -> FormSlice(p+1, w),
    assembled from the blocks `_ce_terms` names, the enumerator shared with
    `hochserre.ce_complex`: the anchor block of e_k and the multiplication
    block of each structure coefficient c_ab^k, on the source block's
    monomials.  A term whose target block is empty carries an empty block."""
    src = lr.form_slice(p, w)
    dst = lr.form_slice(p + 1, w)
    placed = []
    for s, t, sign, k, c in _ce_terms(lr.rank, src.blocks, lr.brackets, lr.acting):
        target = dst.blocks.get(t)
        if target is not None:
            offset, wf = src.blocks[s]
            block = lr.anchor_block(k, wf) if c is None else lr.times_block(c, wf)
            placed.append((target[0], offset, sign, block))
    return _assemble(dst.dim, src.dim, placed)


def contraction(lr: LieRinehartPresentation, v: SectionV, p: int, w: int) -> ExactMatrix:
    """Matrix of i_V: FormSlice(p, w) -> FormSlice(p-1, w + weight(V)):
    i_V(eps_S (x) f) = sum over positions i of S of (-1)^i eps_{S - s_i} (x) V_{s_i} f,
    placed block by block from the multiplication blocks of the components."""
    src = lr.form_slice(p, w)
    dst = lr.form_slice(p - 1, w + v.weight)
    placed = []
    for subset, (offset, wf) in src.blocks.items():
        for pos, i in enumerate(subset):
            c = v.components[i]
            target = dst.blocks.get(subset[:pos] + subset[pos + 1:]) if c else None
            if target is not None:
                placed.append((target[0], offset, -1 if pos % 2 else 1, lr.times_block(c, wf)))
    return _assemble(dst.dim, src.dim, placed)


def lie_derivative(lr: LieRinehartPresentation, v: SectionV, p: int, w: int) -> ExactMatrix:
    """Cartan homotopy d i_V + i_V d on the slice (p, w)."""
    first = ce_d(lr, p - 1, w + v.weight) @ contraction(lr, v, p, w)
    second = contraction(lr, v, p + 1, w) @ ce_d(lr, p, w)
    return first + second


def omega_slice_complex(lr: LieRinehartPresentation, w: int) -> CochainComplex:
    """The weight-w slice of the form complex (Omega^., d)."""
    dims = [lr.form_slice(p, w).dim for p in range(lr.rank + 1)]
    diffs = [ce_d(lr, p, w) for p in range(lr.rank)]
    return CochainComplex(0, lr.rank, dims, diffs)


def tangent_algebroid(ring: WeightedPolyRing) -> LieRinehartPresentation:
    """Free module on the coordinate frame d/dx_j with the identity anchor."""
    n = ring.nvars
    anchor = [[{(0,) * n: 1} if i == j else {} for j in range(n)] for i in range(n)]
    return LieRinehartPresentation(ring, [-u for u in ring.weights], anchor, {})
