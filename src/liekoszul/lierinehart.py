"""Weighted-homogeneous Lie-Rinehart algebras over a polynomial ring.

A presentation is a free module on generators e_1..e_m over a weighted
polynomial ring, with a homogeneous anchor rho(e_i) = sum_j a_ij d/dx_j
and a homogeneous bracket [e_i, e_j] = sum_k c_ij^k e_k.  Everything in
sight is graded, so the exterior-form complexes split into finite weight
slices and all cohomology is computed exactly, slice by slice.

Conventions: the generator dual basis eps_1..eps_m pairs as
<eps_i, e_j> = delta_ij, wedge monomials are ordered lexicographically
by index, a variable x_j has weight u_j >= 1, the symbol d/dx_j carries
weight -u_j, and generator weights may be negative (the tangent frame
d/dx_j has weight -u_j, so the Euler field has weight 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as QQ
from functools import lru_cache
from itertools import combinations
from typing import Mapping, Sequence

from .complexes import CochainComplex
from .exactla import ExactMatrix, format_rational, qq

Monomial = tuple[int, ...]
Poly = dict[Monomial, QQ]


class PresentationError(Exception):
    pass


class MalformedPresentation(PresentationError):
    """Input of the wrong shape (counts, lengths, keys, monomials, variable
    weights), as opposed to data of the right shape that breaks the
    grading or an identity."""


def _bracket_entries(brackets, n: int, error: type[Exception]):
    """(key, i, j, value) for each entry of a {"i,j": value} mapping, with
    0 <= i < j < n; a key may also be given as a pair."""
    if not isinstance(brackets, Mapping):
        raise error(f"brackets must be an object keyed 'i,j', got {type(brackets).__name__}")
    for key, value in brackets.items():
        parts = key.split(",") if isinstance(key, str) else key
        try:
            i, j = (int(t) for t in parts)
        except (TypeError, ValueError):
            raise error(f"bracket key {key!r} must be two integers 'i,j'") from None
        if not (0 <= i < j < n):
            raise error(f"bracket key ({i},{j}) must satisfy 0 <= i < j < {n}")
        yield key, i, j, value


# -- polynomial helpers ------------------------------------------------------

def poly(data, nvars: int) -> Poly:
    """Normalize a {exponents: coeff} mapping into a clean Poly."""
    if not isinstance(data, Mapping):
        raise MalformedPresentation(
            f"polynomial {data!r} must be an object {{exponents: coefficient}}")
    out: Poly = {}
    for mono, coeff in data.items():
        if isinstance(mono, str):
            mono = tuple(int(t) for t in mono.split(","))
        mono = tuple(int(e) for e in mono)
        if len(mono) != nvars or any(e < 0 for e in mono):
            raise MalformedPresentation(f"bad monomial {mono} for {nvars} variables")
        c = qq(coeff)
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
        body = "*".join(factors) if factors else "1"
        terms.append(f"{format_rational(c)}*{body}")
    return " + ".join(terms)


@lru_cache(maxsize=None)
def _monomials(weights: tuple[int, ...], w: int) -> tuple[Monomial, ...]:
    if w < 0:
        return ()
    if not weights:
        return ((),) if w == 0 else ()
    out = []
    head = weights[0]
    for e in range(w // head + 1):
        for rest in _monomials(weights[1:], w - e * head):
            out.append((e,) + rest)
    return tuple(sorted(out))


@dataclass(frozen=True)
class WeightedPolyRing:
    """Polynomial ring with positive integer weights on the variables."""

    nvars: int
    weights: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))
        if len(self.weights) != self.nvars:
            raise MalformedPresentation("weight count does not match variable count")
        if any(w < 1 for w in self.weights):
            raise MalformedPresentation(
                f"variable weights must be positive, got {list(self.weights)}")

    def monomials(self, w: int) -> tuple[Monomial, ...]:
        return _monomials(self.weights, w)

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

    def variable(self, j: int) -> Poly:
        m = [0] * self.nvars
        m[j] = 1
        return {tuple(m): 1}


@dataclass(frozen=True)
class FormSlice:
    """Ordered basis of p-forms of total weight w: pairs (subset, monomial)."""

    p: int
    w: int
    basis: tuple[tuple[tuple[int, ...], Monomial], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def index(self) -> dict[tuple[tuple[int, ...], Monomial], int]:
        return {b: i for i, b in enumerate(self.basis)}


class LieRinehartPresentation:
    """Free rank-m module with homogeneous anchor and bracket data."""

    def __init__(self, ring: WeightedPolyRing, gen_weights: Sequence[int],
                 anchor: Sequence[Sequence], brackets: Mapping):
        self.ring = ring
        self.gen_weights = tuple(int(g) for g in gen_weights)
        m = len(self.gen_weights)
        if len(anchor) != m:
            raise MalformedPresentation(
                f"anchor has {len(anchor)} rows, expected one per generator ({m})")
        self.anchor: list[list[Poly]] = []
        for i, row in enumerate(anchor):
            if len(row) != ring.nvars:
                raise MalformedPresentation(
                    f"anchor row {i} has length {len(row)}, expected {ring.nvars}")
            prow = []
            for j, entry in enumerate(row):
                a = poly(entry, ring.nvars)
                wt = ring.weight_of(a)
                expected = self.gen_weights[i] + ring.weights[j]
                if wt is not None and wt != expected:
                    raise PresentationError(
                        f"anchor a[{i}][{j}] has weight {wt}, expected {expected}")
                prow.append(a)
            self.anchor.append(prow)
        # [e_i, e_j] for i < j as {k: c_ij^k}, nonzero components only.
        self.brackets: dict[tuple[int, int], dict[int, Poly]] = {}
        for key, i, j, comps in _bracket_entries(brackets, m, MalformedPresentation):
            if len(comps) != m:
                raise MalformedPresentation(
                    f"bracket {key} has {len(comps)} components, expected {m}")
            cs = {}
            for k, entry in enumerate(comps):
                c = poly(entry, ring.nvars)
                wt = ring.weight_of(c)
                expected = self.gen_weights[i] + self.gen_weights[j] - self.gen_weights[k]
                if wt is not None and wt != expected:
                    raise PresentationError(
                        f"bracket c[{i},{j}]^{k} has weight {wt}, expected {expected}")
                if c:
                    cs[k] = c
            if cs:
                self.brackets[(i, j)] = cs
        self._slices: dict[tuple[int, int], FormSlice] = {}

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
        basis: list[tuple[tuple[int, ...], Monomial]] = []
        if 0 <= p <= self.rank:
            for subset in combinations(range(self.rank), p):
                wf = w + sum(self.gen_weights[i] for i in subset)
                for mono in self.ring.monomials(wf):
                    basis.append((subset, mono))
        fs = FormSlice(p, w, tuple(basis))
        self._slices[key] = fs
        return fs


class SectionV:
    """Global section of the module, with homogeneous components."""

    def __init__(self, owner: LieRinehartPresentation, components: Sequence):
        self.owner = owner
        ring = owner.ring
        comps = [poly(entry, ring.nvars) for entry in components]
        if len(comps) != owner.rank:
            raise MalformedPresentation(
                f"section has {len(comps)} components, expected {owner.rank}")
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

    def is_zero(self) -> bool:
        return all(not c for c in self.components)


@dataclass(frozen=True)
class Failure:
    identity: str
    witness: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    failures: tuple[Failure, ...]


def validate(lr: LieRinehartPresentation) -> ValidationReport:
    """Exact check of the anchor-morphism identity on generator pairs and of
    Jacobi on generator triples, each coefficientwise.

    These prove the axioms on all of L.  With D(y, z) = rho[y, z] -
    [rho y, rho z], the Leibniz extension gives (Rinehart 1963)

        Jac(f x, y, z) = f Jac(x, y, z) + D(y, z)(f) x,   D(f y, z) = f D(y, z),

    and Jac and D are antisymmetric, so both vanish on all of L once they
    vanish on generators.  Antisymmetry holds by construction: only
    [e_i, e_j] with i < j is stored.
    """
    failures: list[Failure] = []
    # [e_a, e_b] in both orders, so that [[e_a, e_b], e_c] is one lookup per l.
    table = dict(lr.brackets)
    table.update({(j, i): {k: p_scale(-1, c) for k, c in cs.items()}
                  for (i, j), cs in lr.brackets.items()})

    # rho([e_i, e_j]) = [rho(e_i), rho(e_j)], component d/dx_l
    for i, j in combinations(range(lr.rank), 2):
        cs = lr.brackets.get((i, j), {})
        for l in range(lr.ring.nvars):
            lhs: Poly = {}
            for k, c in cs.items():
                lhs = p_add(lhs, p_mul(c, lr.anchor[k][l]))
            rhs = p_sub(lr.anchor_apply(i, lr.anchor[j][l]),
                        lr.anchor_apply(j, lr.anchor[i][l]))
            diff = p_sub(lhs, rhs)
            if diff:
                failures.append(Failure(
                    "anchor-morphism",
                    f"rho([e{i},e{j}]) component d/dx{l}: residue {p_str(diff)}"))

    # Jacobi: sum over cyclic orders of [[e_a, e_b], e_c], where
    # [c_ab^l e_l, e_c] = c_ab^l [e_l, e_c] - rho(e_c)(c_ab^l) e_l.
    for i, j, k in combinations(range(lr.rank), 3):
        jac: dict[int, Poly] = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for l, x in table.get((a, b), {}).items():
                for s, y in table.get((l, c), {}).items():
                    jac[s] = p_add(jac.get(s, {}), p_mul(x, y))
                jac[l] = p_sub(jac.get(l, {}), lr.anchor_apply(c, x))
        bad = [s for s in sorted(jac) if jac[s]]
        if bad:
            failures.append(Failure(
                "jacobi",
                f"(e{i}, e{j}, e{k}): component e{bad[0]} residue {p_str(jac[bad[0]])}"))

    return ValidationReport(not failures, tuple(failures))


def _wedge_insert_sign(k: int, rest: tuple[int, ...]) -> tuple[tuple[int, ...], int] | None:
    """Sort (k, *rest) with rest strictly increasing; None if k collides."""
    if k in rest:
        return None
    pos = 0
    while pos < len(rest) and rest[pos] < k:
        pos += 1
    merged = rest[:pos] + (k,) + rest[pos:]
    return merged, -1 if pos % 2 else 1


def _ce_terms(n: int, basis, brackets: Mapping, acting: Sequence[int], act, times):
    """The one Chevalley-Eilenberg builder: every term of

        (d om)(a_0..a_p) = sum_i (-1)^i a_i . om(..hat a_i..)
                         + sum_{i<j} (-1)^{i+j} om([a_i,a_j], ..hat a_i..hat a_j..)

    on each basis cochain om = eps_S (x) v, as (column, T, value,
    coefficient) for coefficient * eps_T (x) value; the caller adds up terms
    at the same target.  `brackets` maps pairs i < j to {k: c_ij^k} with
    nonzero c only, and act(k, v) = e_k . v and times(c, v) = c v are
    {value: coefficient}; `acting` lists, in increasing order, the k for
    which e_k may act by a nonzero map.
    The action sum inserts each acting k outside S; the bracket sum visits
    each nonzero c_ab^k with k in S and a, b outside S minus k.
    """
    by_k: list[list] = [[] for _ in range(n)]
    for (a, b), cs in brackets.items():
        for k, c in cs.items():
            by_k[k].append((a, b, c))
    for col, (subset, v) in enumerate(basis):
        for k in acting:
            if k not in subset:
                terms = act(k, v)
                if terms:
                    tsub, sign = _wedge_insert_sign(k, subset)
                    for value, x in terms.items():
                        yield col, tsub, value, sign * x
        for pos, k in enumerate(subset):
            rest = subset[:pos] + subset[pos + 1:]
            for a, b, c in by_k[k]:
                if a in rest or b in rest:
                    continue
                # (-1)^pos moves k to the front of S; inserting a, then b,
                # gives (-1)^(i+j) for their slots i < j in T.
                with_a, sign_a = _wedge_insert_sign(a, rest)
                tsub, sign_b = _wedge_insert_sign(b, with_a)
                sign = (-1 if pos % 2 else 1) * sign_a * sign_b
                for value, x in times(c, v).items():
                    yield col, tsub, value, sign * x


def ce_d(lr: LieRinehartPresentation, p: int, w: int) -> ExactMatrix:
    """Matrix of the algebroid differential FormSlice(p, w) -> FormSlice(p+1, w)
    from `_ce_terms`, the Chevalley-Eilenberg builder shared with
    `hochserre.ce_complex`: the anchor acts on monomial values, and each
    polynomial structure coefficient is shifted by the monomial value."""
    src = lr.form_slice(p, w)
    dst = lr.form_slice(p + 1, w)
    dst_index = dst.index()
    entries = []
    acting = [k for k, row in enumerate(lr.anchor) if any(row)]
    terms = _ce_terms(lr.rank, src.basis, lr.brackets, acting,
                      lambda k, mono: lr.anchor_apply(k, {mono: 1}),
                      lambda c, mono: {tuple(a + b for a, b in zip(m, mono)): x
                                       for m, x in c.items()})
    for col, tsub, mono, x in terms:
        r = dst_index.get((tsub, mono))
        if r is None:
            raise PresentationError("differential left the weight slice")
        entries.append((r, col, x))
    return ExactMatrix.from_entries(dst.dim, src.dim, entries)


def contraction(lr: LieRinehartPresentation, v: SectionV, p: int, w: int) -> ExactMatrix:
    """Matrix of i_V: FormSlice(p, w) -> FormSlice(p-1, w + weight(V))."""
    src = lr.form_slice(p, w)
    dst = lr.form_slice(p - 1, w + v.weight)
    dst_index = dst.index()
    entries = []
    for col, (subset, mono) in enumerate(src.basis):
        for pos, i in enumerate(subset):
            rest = subset[:pos] + subset[pos + 1:]
            for m, c in v.components[i].items():
                r = dst_index.get((rest, tuple(a + b for a, b in zip(m, mono))))
                if r is None:
                    raise PresentationError("contraction left the weight slice")
                entries.append((r, col, -c if pos % 2 else c))
    return ExactMatrix.from_entries(dst.dim, src.dim, entries)


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
