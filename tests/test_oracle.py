"""The package against the reference engines in `oracle`.

The spectral-sequence engine (one persistence pairing) against the
subquotient engine: every page's dims, every d_r rank, and the stable and
degeneration pages must agree, and the sparse induced map equals the dense
one on every page entry.  The sparse changes of basis (`_adapted`,
`induced_map`) against the dense solves they replaced, on must-fail maps
as well; `from_flag`, whose basis is its echelon rows, against the dense
RREF one on what no basis fixes: the levels, d.d = 0 and the Betti
numbers.  The Chevalley-Eilenberg builders against
the scanning builders: the matrices must be equal, not just their ranks.
The mapping-cone quasi-isomorphism test against the induced maps on
cohomology, and the reduction matrix read off normal forms against one
class-coordinate solve per monomial.  The contraction matrix and the
ideal-slice rows against the same entries built as polynomial products.
Every block of the P^1 model, laid out by index arithmetic, against the
same block built over keyed bases and twisted by negation.

The Lie-Rinehart check on generators against the sweep over decorated
elements, with the two Leibniz identities that make the generator check a
proof tested on presentations where neither side vanishes; the sparse
Jacobi check of `LieAlgebra` against the dense one."""

import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import corpus
from liekoszul import koszul
from liekoszul.cechp1 import EquivariantSection, atiyah_algebroid, cech_koszul
from liekoszul.complexes import (
    ChainMap,
    CochainComplex,
    DoubleComplex,
    FilteredComplex,
    betti,
    column_filtration,
    is_quasi_isomorphism,
    row_filtration,
    total,
)
from liekoszul.cli import build_lie_algebra, build_lie_rinehart, build_p1
from liekoszul.exactla import (
    ExactMatrix,
    NotFiltrationCompatibleError,
    Subquotient,
    Subspace,
    _dense,
    induced_map,
    normal_forms,
    rank,
)
from liekoszul.hochserre import (
    GModule,
    LieAlgebra,
    LieAlgebraError,
    LieIdeal,
    _adapted,
    _h_blocks,
    ce_complex,
    hs_filtered,
)
from liekoszul.lierinehart import (
    LieRinehartPresentation,
    SectionV,
    WeightedPolyRing,
    ce_d,
    contraction,
    tangent_algebroid,
    validate,
)
from liekoszul.specseq import compute_page, run
from helpers import apply, blocks, dense, double, flag_rows, units
from oracle import (
    Flag,
    action_on_h_cochains_scan,
    adapted_by_solves,
    anchor_block_by_product_rule,
    ce_complex_scan,
    ce_d_scan,
    cech_koszul_keyed,
    contraction_by_products,
    elem_anchor_apply,
    elem_bracket,
    flag_of,
    formality_check_unnormalized,
    from_entries,
    from_flag_dense,
    ideal_rows_by_products,
    ideal_subspace,
    induced_map_dense,
    jacobi_dense,
    la_bracket,
    lr_bracket,
    normal_forms_two_step,
    oracle_run,
    p_add,
    p_mul,
    p_sub,
    qi_by_induced_maps,
    reduction_matrix_by_solve,
    total_dense,
    validate_by_sweep,
)
from test_specseq import random_flag


def assert_matches_oracle(f, flag):
    res, ref = run(f), oracle_run(flag)
    for ref_page in ref.pages:
        page = compute_page(res, ref_page.r)
        assert page.grid == {pq: d for pq, d in ref_page.dims().items() if d}, \
            f"dims differ on page {ref_page.r}"
        assert page.ranks == ref_page.ranks(), f"d_r ranks differ on page {ref_page.r}"
        for (p, q), src in ref_page.entries.items():
            d = flag.complex.d(p + q)
            assert (induced_map(d, src, ref_page.targets[(p, q)])
                    == ref_page.differentials[(p, q)]), f"d_r differs at {(p, q)}"
    assert res.degeneration_page == ref.stable_page == ref.degeneration_page
    assert dict(res.unpaired) == {pq: d for pq, d in ref.pages[-1].dims().items() if d}


def assert_same_adapted(f, ref, cplx):
    """`from_flag`'s adapted complex against `from_flag_dense`'s, on what does
    not depend on the adapted basis (the package keeps echelon rows, the
    reference RREF representatives): the same levels, d.d = 0 through the
    checking constructor, and the Betti numbers of the input complex `cplx`.
    The pages are compared by `assert_matches_oracle`."""
    assert f.levels == ref.levels
    adapted = CochainComplex(f.complex.lo, f.complex.hi,
                             [f.complex.dim(n) for n in f.complex.degrees()],
                             [f.complex.d(n) for n in range(f.complex.lo, f.complex.hi)])
    assert betti(adapted) == betti(ref.complex) == betti(cplx)


def test_random_flags_match_oracle():
    # The oracle runs on the original subspace flags, so the conversion to
    # an adapted basis in FilteredComplex.from_flag is checked as well.
    rng = random.Random(20240501)
    for _ in range(300):
        cplx, p_lo, p_hi, spaces = random_flag(rng)
        f = FilteredComplex.from_flag(cplx, p_lo, p_hi, flag_rows(spaces))
        assert_same_adapted(f, from_flag_dense(cplx, p_lo, p_hi, spaces), cplx)
        assert_matches_oracle(f, Flag(cplx, p_lo, p_hi, spaces))


def test_integer_complexes_with_non_unit_pivots_match_oracle():
    # d = A B with entries of A and B in {2, 3, -2, -3}: integer columns whose
    # lows are not units, and many columns that reduce to zero only if each
    # quotient col[low] / other[low] is exact (a float one mis-pairs them).
    rng = random.Random(20261018)
    for n in (3, 4, 5) * 20:
        a = [[rng.choice((2, 3, -2, -3)) for _ in range(2)] for _ in range(n)]
        b = [[rng.choice((2, 3, -2, -3)) for _ in range(n)] for _ in range(2)]
        d = ExactMatrix.from_rows([[a[i][0] * b[0][j] + a[i][1] * b[1][j]
                                    for j in range(n)] for i in range(n)])
        levels = {0: [rng.randrange(2) for _ in range(n)],
                  1: [rng.randrange(1, 3) for _ in range(n)]}
        f = FilteredComplex(CochainComplex(0, 1, [n, n], [d]), 0, 2, levels)
        flag = flag_of(f)
        adapted = FilteredComplex.from_flag(f.complex, 0, 2, flag_rows(flag.spaces))
        assert_same_adapted(adapted, from_flag_dense(f.complex, 0, 2, flag.spaces), f.complex)
        assert_matches_oracle(f, flag)
        assert_matches_oracle(adapted, flag)


@pytest.mark.parametrize("g,h,m", [pytest.param(*x[1:], id=x[0])
                                   for x in corpus.hs_instances()])
def test_hs_corpus_matches_oracle(g, h, m):
    f = hs_filtered(g, h, m)
    assert_matches_oracle(f, flag_of(f))


@pytest.mark.parametrize("window", [1, 2])
@pytest.mark.parametrize("algebroid,section,untwisted", [pytest.param(*x[1:], id=x[0])
                                                        for x in corpus.p1_instances()])
def test_p1_filtrations_match_oracle(algebroid, section, untwisted, window):
    cells = double(cech_koszul(algebroid, section, window, untwisted))
    for f in (column_filtration(cells), row_filtration(cells)):
        assert_matches_oracle(f, flag_of(f))


def _p1_models():
    """(algebroid, section, untwisted) of every cases/p1-* file and of the P^1
    corpus."""
    cases = Path(__file__).resolve().parent.parent / "cases"
    out = [pytest.param(*build_p1(json.loads(path.read_text()))[:3], id=path.stem)
           for path in sorted(cases.glob("p1-*.json"))]
    return out + [pytest.param(*x[1:], id=x[0]) for x in corpus.p1_instances()]


@pytest.mark.parametrize("algebroid,section,untwisted", _p1_models())
def test_p1_blocks_match_the_keyed_build(algebroid, section, untwisted):
    for window in (1, 2, 3):
        cells = double(cech_koszul(algebroid, section, window, untwisted))
        keyed = cech_koszul_keyed(algebroid, section, window, untwisted)
        assert blocks(cells) == keyed, window


def test_p1_total_matches_the_keyed_build_on_a_seeded_scan():
    # the total complex `cech_koszul` writes block by block against the one
    # the checking `DoubleComplex` assembles from the keyed blocks, on
    # seeded sections of degrees -3..3, twisted and untwisted, windows 1-3
    rng = random.Random(38)
    seen = set()
    for _ in range(240):
        degree, untwisted, window = rng.randint(-3, 3), rng.random() < 0.5, rng.randint(1, 3)
        algebroid = atiyah_algebroid(degree)
        coeffs = [rng.randint(-2, 2) for _ in range(3)]
        section = EquivariantSection(algebroid, coeffs, [rng.randint(-2, 2)])
        model = cech_koszul(algebroid, section, window, untwisted)
        horizontal, vertical = cech_koszul_keyed(algebroid, section, window, untwisted)
        ps = sorted(p for p, _ in vertical)
        dims = {}
        for (p, _), m in vertical.items():
            dims[(p, 0)], dims[(p, 1)] = m.cols, m.rows
        keyed = total(DoubleComplex(ps[0], ps[-1], 0, 1, dims, horizontal, vertical))
        where = (degree, coeffs, untwisted, window)
        written = total(model.double)
        assert model.double._dims == {(p, q): dims[(p, q)] for p in ps for q in (0, 1)}, where
        assert (written.lo, written.hi) == (keyed.lo, keyed.hi), where
        for n in keyed.degrees():
            assert written.dim(n) == keyed.dim(n), where
            assert written.d(n).row_maps == keyed.d(n).row_maps, where
        seen.add((degree, untwisted, window))
    assert len(seen) >= 35, len(seen)


def _random_complex(rng, lo, hi):
    """Dims and dense differentials of a random complex on degrees lo..hi:
    the coordinates of each A^k are split into those d_{k-1} may hit, which
    d_k kills, and the rest, which d_k sends among those hit in A^{k+1}, so
    d.d = 0."""
    dims = {k: rng.randint(0, 2) for k in range(lo, hi + 1)}
    hit = {k: set(rng.sample(range(n), rng.randint(0, n))) for k, n in dims.items()}
    return dims, {k: [[rng.randint(-2, 2) if i in hit[k + 1] and j not in hit[k] else 0
                       for j in range(dims[k])] for i in range(dims[k + 1])]
                  for k in range(lo, hi)}


def _random_double(rng):
    """A random double complex K^{p,q} = A^p (x) B^q on a rectangle of up to
    4 x 4 cells, as (rectangle, dims, horizontal, vertical): dense blocks,
    d_h = d_A (x) 1 and d_v = 1 (x) d_B, which commute.  Sometimes d_h out
    of the last column is given too, with no rows."""
    p_lo, q_lo = rng.randint(-2, 1), rng.randint(-2, 1)
    p_hi, q_hi = p_lo + rng.randint(0, 3), q_lo + rng.randint(0, 3)
    a_dims, d_a = _random_complex(rng, p_lo, p_hi)
    b_dims, d_b = _random_complex(rng, q_lo, q_hi)
    dims = {(p, q): a_dims[p] * b_dims[q] for p in a_dims for q in b_dims}
    horizontal, vertical = {}, {}
    for (p, q), n in dims.items():
        nb = b_dims[q]
        if p < p_hi:
            horizontal[(p, q)] = [[d_a[p][i // nb][j // nb] if i % nb == j % nb else 0
                                   for j in range(n)] for i in range(dims[(p + 1, q)])]
        elif rng.random() < 0.5:
            horizontal[(p, q)] = []
        if q < q_hi:
            vertical[(p, q)] = [[d_b[q][i % b_dims[q + 1]][j % nb]
                                 if i // b_dims[q + 1] == j // nb else 0
                                 for j in range(n)] for i in range(dims[(p, q + 1)])]
    return (p_lo, p_hi, q_lo, q_hi), dims, horizontal, vertical


def _matrices(blocks, dims, step):
    """Dense blocks as ExactMatrix values: the block out of cell (p, q) has
    dims[(p, q)] columns and, into the cell `step` away, its target's rows."""
    return {(p, q): ExactMatrix(dims.get((p + step[0], q + step[1]), 0), dims[(p, q)],
                                [{j: x for j, x in enumerate(row) if x} for row in rows])
            for (p, q), rows in blocks.items()}


def assert_total_is_dense(d, expected, where):
    t = total(d)
    assert list(t.degrees()) == sorted(expected), where
    for n, (size, rows) in expected.items():
        assert t.dim(n) == size, where
        assert dense(t.d(n)) == tuple(map(tuple, rows)), where


def test_raw_totals_match_a_dense_assembly_on_seeded_doubles():
    # the anticommuting input and the commuting one that `from_commuting`
    # twists both give the total the oracle assembles from the twisted blocks
    rng = random.Random(40)
    empty_cells = edge_maps = rowless = 0
    for trial in range(300):
        rect, dims, horizontal, vertical = _random_double(rng)
        twisted = {(p, q): [[-x for x in row] for row in rows] if p % 2 else rows
                   for (p, q), rows in vertical.items()}
        expected = total_dense(dims, horizontal, twisted)
        h = _matrices(horizontal, dims, (1, 0))
        assert_total_is_dense(DoubleComplex(*rect, dims, h, _matrices(twisted, dims, (0, 1))),
                              expected, trial)
        assert_total_is_dense(DoubleComplex.from_commuting(*rect, dims, h,
                                                           _matrices(vertical, dims, (0, 1))),
                              expected, trial)
        empty_cells += 0 in dims.values() and any(dims.values())
        edge_maps += any(any(map(any, rows)) for (p, q), rows in horizontal.items()
                         if p + 1 == rect[1]) or any(any(map(any, rows)) for (p, q), rows
                                                     in vertical.items() if q + 1 == rect[3])
        rowless += any(p == rect[1] for p, _ in horizontal)
    assert min(empty_cells, edge_maps, rowless) >= 40, (empty_cells, edge_maps, rowless)


@pytest.mark.parametrize("algebroid,section,untwisted", _p1_models())
def test_p1_total_matches_a_dense_assembly_of_the_keyed_blocks(algebroid, section, untwisted):
    for window in (1, 2):
        horizontal, vertical = cech_koszul_keyed(algebroid, section, window, untwisted)
        dims = {}
        for (p, _), m in vertical.items():
            dims[(p, 0)], dims[(p, 1)] = m.cols, m.rows
        expected = total_dense(dims, {c: dense(m) for c, m in horizontal.items()},
                               {c: dense(m) for c, m in vertical.items()})
        assert_total_is_dense(cech_koszul(algebroid, section, window, untwisted).double,
                              expected, window)


@pytest.mark.parametrize("lr", [pytest.param(lr, id=name)
                                for name, lr in corpus.ce_algebroids()])
def test_ce_d_matches_scanning_builder(lr):
    for w in range(-2, 7):
        for p in range(-1, lr.rank + 1):
            assert ce_d(lr, p, w) == ce_d_scan(lr, p, w), f"p={p}, w={w}"


def test_ce_d_applies_the_anchor_once_per_generator_and_monomial(monkeypatch):
    # The anchor blocks live on the presentation, so each (k, wf) is built
    # once over every (p, w) of it, not only within one call, straight from
    # the anchor's terms: no `anchor_apply`.  A second presentation shares
    # none of them and builds as many again.
    real = LieRinehartPresentation.anchor_block
    builds, applied = [], []

    def counting(self, k, wf):
        if ("anchor", k, wf) not in self._blocks:
            builds.append((k, wf))
        return real(self, k, wf)

    per_presentation = []
    for _ in range(2):
        lr = tangent_algebroid(WeightedPolyRing(3, (1, 1, 1)))
        assert not lr._blocks
        builds.clear()
        monkeypatch.setattr(LieRinehartPresentation, "anchor_block", counting)
        monkeypatch.setattr(LieRinehartPresentation, "anchor_apply",
                            lambda self, k, f: applied.append(k))
        built = {(p, w): ce_d(lr, p, w) for p in range(lr.rank) for w in range(-3, 4)}
        monkeypatch.undo()
        assert builds and len(builds) == len(set(builds)) and not applied
        for (p, w), d in built.items():
            assert d == ce_d_scan(lr, p, w), f"p={p}, w={w}"
        per_presentation.append(len(builds))
    assert per_presentation[0] == per_presentation[1]


def _anchor_blocks_agree(lr, weights):
    for k in range(lr.rank):
        for wf in weights:
            block = lr.anchor_block(k, wf)
            expected = anchor_block_by_product_rule(lr, k, wf)
            assert sorted(block) == sorted(expected), (k, wf)
            assert all(x and (type(x) is int or x.denominator != 1) for _, _, x in block)
            assert len({(r, c) for r, c, _ in block}) == len(block)


@pytest.mark.parametrize("lr", [pytest.param(lr, id=name)
                                for name, lr in corpus.ce_algebroids()])
def test_anchor_blocks_match_the_product_rule(lr):
    _anchor_blocks_agree(lr, range(-2, 7))


def test_anchor_blocks_match_the_product_rule_on_seeded_anchors():
    # random anchors over k[x, y]: several terms per entry, rational
    # coefficients, and terms of different entries that meet in one row
    rng = random.Random(39)
    for _ in range(30):
        _anchor_blocks_agree(_random_presentation(rng), range(-1, 6))


@pytest.mark.parametrize("g,m", [pytest.param(g, m, id=name)
                                 for name, g, m in corpus.ce_lie_algebras()])
def test_ce_complex_matches_scanning_builder(g, m):
    c, ref = ce_complex(g, m), ce_complex_scan(g, m)
    for p in range(g.dim):
        assert c.d(p) == ref.d(p), f"p={p}"


def _hs_action_instances():
    out = [x[1:] for x in corpus.hs_instances()]
    for _, payload in corpus.case_payloads("lie_algebra"):
        g, h, m = build_lie_algebra(payload)
        if h is not None:
            out.append((g, h, m))
    # the ideal (y_1, y_2, z) of heisenberg5, on which x_1 and x_2 act nontrivially
    heis5 = corpus.heisenberg(2)
    out.append((heis5, LieIdeal(heis5, Subspace(5, [[0, 0, 1, 0, 0], [0, 0, 0, 1, 0],
                                                    [0, 0, 0, 0, 1]])),
                GModule.trivial(heis5)))
    return out


def test_adapted_basis_matches_per_pair_solves():
    for g, h, m in _hs_action_instances():
        g2, m2, k = _adapted(g, h, m)
        ref_g2, ref_m2, ref_k = adapted_by_solves(g, h, m)
        assert k == ref_k
        assert g2.brackets == ref_g2.brackets
        assert m2.actions == ref_m2.actions


def test_action_on_h_cochains_matches_scanning_builder():
    # C(h, M) and the action of each e_x on it, read off the adapted
    # complex, against the scanning builders run on h and on e_x.
    for g, h, m in _hs_action_instances():
        g2, m2, k = _adapted(g, h, m)
        hcomplex, actions = _h_blocks(g2, ce_complex(g2, m2), m2.dim, k)
        hal = LieAlgebra(k, {(i, j): [cs.get(s, 0) for s in range(k)]
                             for (i, j), cs in g2.brackets.items() if j < k})
        ref = ce_complex_scan(hal, GModule(hal, m2.dim, m2.actions[:k]))
        assert [hcomplex.d(q) for q in range(k)] == [ref.d(q) for q in range(k)]
        for x in range(k, g.dim):
            for q in range(k + 1):
                assert actions[q][x - k] == action_on_h_cochains_scan(g2, m2, k, x, q), (x, q)


def _induced_outcome(fn, f, src, dst):
    try:
        return fn(f, src, dst)
    except NotFiltrationCompatibleError as exc:
        return str(exc)


def test_induced_map_must_fail_where_cycles_or_boundaries_escape():
    plane, line = Subspace(2, units(2)), Subspace(2, [[1, 0]])
    zero = Subspace.zero_space(2)
    cases = [
        # the cycle e_1 maps outside the target cycles <e_0>
        (ExactMatrix.from_rows(units(2)), Subquotient(plane, zero), Subquotient(line, zero),
         "cycles escape"),
        # every cycle lands in the target cycles, but the boundary e_0 is not
        # a target boundary
        (ExactMatrix.from_rows(units(2)), Subquotient(plane, line), Subquotient(plane, zero),
         "boundaries escape"),
    ]
    for f, src, dst, what in cases:
        for fn in (induced_map, induced_map_dense):
            with pytest.raises(NotFiltrationCompatibleError, match=what):
                fn(f, src, dst)


def _random_vectors(rng, n, count):
    return [[rng.choice((-2, -1, 0, 0, 1, 2, Fraction(1, 2))) for _ in range(n)]
            for _ in range(count)]


def _combination(rng, vectors, n):
    cs = [rng.choice((-1, 1, 2, Fraction(1, 3))) for _ in vectors]
    return [sum(c * v[i] for c, v in zip(cs, vectors)) for i in range(n)]


def test_induced_map_matches_dense_on_random_and_must_fail_maps():
    # dst is built from f(Z), f(B) and extra vectors.  With f(B) left out of
    # its boundaries only boundaries escape (or nothing, when f(B) lands in
    # the extra line); with cycles = boundaries = f(B) the cycles escape
    # unless f(Z) = f(B).
    rng = random.Random(20261021)
    outcomes = {"map": 0, "not filtration-compatible: cycles escape": 0,
                "not filtration-compatible: boundaries escape": 0}
    for _ in range(300):
        a, b = rng.randint(1, 5), rng.randint(1, 5)
        mode = rng.choice(("map", "cycles", "boundaries"))
        f = ExactMatrix.from_rows(_random_vectors(rng, a, b))
        cycles = Subspace(a, _random_vectors(rng, a, rng.randint(1, a)))
        boundaries = Subspace(a, [_combination(rng, dense(cycles), a)
                                  for _ in range(rng.randint(mode == "boundaries", 2))])
        src = Subquotient(cycles, boundaries)
        images = [apply(f, v) for v in dense(cycles)]
        extra = _random_vectors(rng, b, {"map": rng.randint(0, 2), "cycles": 0}.get(mode, 1))
        dst_bound = Subspace(b, extra if mode == "boundaries"
                             else [apply(f, v) for v in dense(boundaries)] + extra)
        dst_cyc = dst_bound if mode == "cycles" else Subspace(b, images + extra)
        dst = Subquotient(dst_cyc, dst_bound)
        got = _induced_outcome(induced_map, f, src, dst)
        assert got == _induced_outcome(induced_map_dense, f, src, dst)
        outcomes["map" if isinstance(got, ExactMatrix) else got] += 1
    assert min(outcomes.values()) >= 30, outcomes


FORMALITY = [pytest.param(lr, v, id=name) for name, lr, v in corpus.formality_instances()]


@pytest.mark.parametrize("lr,v", FORMALITY)
def test_formality_slices_match_oracles(lr, v, monkeypatch):
    built = []

    def checked(model, fs, offsets, dim_target):
        m = real(model, fs, offsets, dim_target)
        # the (degree, weight) under which the presentation keeps `fs`
        p, wt = next(key for key, s in model.lr._slices.items() if s is fs)
        assert m == reduction_matrix_by_solve(model, p, wt, offsets, dim_target)
        built.append(m)
        return m

    real = koszul._reduction_matrix
    monkeypatch.setattr(koszul, "_reduction_matrix", checked)
    for w in range(7):
        chain = koszul.reduction_map(lr, v, w)
        assert is_quasi_isomorphism(chain) == qi_by_induced_maps(chain), f"w={w}"
    assert built


def _scaled(lr, v):
    """v with its components multiplied by non-integral and non-unit rationals:
    every corpus section has unit coefficients, which hide a dropped or
    misplaced coefficient."""
    scales = (Fraction(2, 3), -5, Fraction(-7, 2))
    return SectionV(lr, [{m: c * scales[i % 3] for m, c in comp.items()}
                         for i, comp in enumerate(v.components)])


def _times(lr, v, scale):
    """v with every coefficient multiplied by one scalar."""
    return SectionV(lr, [{m: c * scale for m, c in comp.items()} for comp in v.components])


@pytest.mark.parametrize("lr,v", FORMALITY)
def test_formality_check_matches_unnormalized_oracle(lr, v):
    # formality_check rescales each component to its primitive integral
    # form; the chain isomorphism between the two Koszul complexes must
    # leave every verdict and Betti table of every slice as they are
    # for the section as given, and as they are for v itself.
    weights = range(6)
    expected = formality_check_unnormalized(lr, v, weights)
    sections = [v, _scaled(lr, v)] + [_times(lr, v, s)
                                      for s in (Fraction(2, 3), -5, Fraction(-7, 2))]
    for section in sections:
        assert koszul.formality_check(lr, section, weights) == expected
        assert formality_check_unnormalized(lr, section, weights) == expected


@pytest.mark.parametrize("lr,v", FORMALITY)
def test_contraction_and_ideal_rows_match_products(lr, v):
    for section in (v, _scaled(lr, v)):
        model = koszul.ZeroLocusModel(lr, section)
        for w in range(-2, 7):
            for p in range(1, lr.rank + 1):
                assert (contraction(lr, section, p, w)
                        == contraction_by_products(lr, section, p, w)), f"p={p}, w={w}"
            n = lr.ring.slice_dim(w)
            rows = [list(_dense(r, n)) for r in model.ideal_slice(w)]
            assert rows == ideal_rows_by_products(model, w), w


@pytest.mark.parametrize("lr,v", FORMALITY)
def test_normal_forms_differ_from_their_monomial_by_the_ideal(lr, v):
    model = koszul.ZeroLocusModel(lr, v)
    for w in range(7):
        ideal = ideal_subspace(model, w)
        n = ideal.ambient_dim
        e = units(n)

        def span(vectors):
            """dim of I + span(vectors)."""
            return Subspace(n, [*dense(ideal), *vectors]).dim

        # e_i is a quotient basis vector iff e_i is not in I + span(e_0..e_{i-1}).
        kept = [i for i in range(n) if span(e[: i + 1]) > span(e[:i])]
        assert len(kept) == model.quotient_dim(w)
        for j, form in enumerate(model.quotient_forms(w)):
            diff = [-x for x in e[j]]
            for i, c in form.items():
                diff[kept[i]] += c
            assert span([diff]) == ideal.dim, f"w={w}, e_{j}"


def _seeded_sections(rng, count):
    """Sections of the tangent algebroid over k[x, y] or k[x, y, z] whose
    components are random forms of one degree, most of them not monomial."""
    out = []
    for i in range(count):
        lr = tangent_algebroid(WeightedPolyRing(2 + i % 2, (1,) * (2 + i % 2)))
        monos = lr.ring.monomials(rng.choice((1, 2, 3)))
        comps = [_random_poly(rng, monos) if rng.random() < 0.8 else {}
                 for _ in range(lr.rank)]
        out.append((lr, SectionV(lr, comps)))
    return out


def test_one_elimination_gives_the_normal_forms_of_the_two_step():
    # the forms and quotient dimension from one elimination of the spanning
    # rows equal those read off the Subspace of the slice by a second RREF
    cases = {name: (lr, v) for name, lr, v in corpus.formality_instances()}
    cases["binomial-n2"] = build_lie_rinehart(
        dict(corpus.case_payloads("lie_rinehart"))["binomial-n2"])
    assert "euler-n2/shared-factor" in cases
    seeded = _seeded_sections(random.Random(20261022), 20)
    non_monomial = 0
    for lr, v in [*cases.values(), *seeded]:
        model = koszul.ZeroLocusModel(lr, v)
        for w in range(9):
            expected = normal_forms_two_step(ideal_subspace(model, w))
            assert (model.quotient_forms(w), model.quotient_dim(w)) == expected, w
            assert normal_forms(model.ideal_slice(w), lr.ring.slice_dim(w)) == expected, w
            non_monomial += any(len(f) > 1 for f in expected[0])
    assert non_monomial >= 20


def _random_matrix(rng, rows, cols, density):
    return from_entries(rows, cols, [
        (i, j, rng.choice([-2, -1, 1, 2]))
        for i in range(rows) for j in range(cols) if rng.random() < density])


def _basis_change(rng, n):
    """A random invertible n x n matrix and its inverse, as products of
    elementary matrices I + a e_ij."""
    q = qinv = ExactMatrix.from_rows(units(n))
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        a = rng.choice([-2, -1, 1, 2])
        ones = [(k, k, 1) for k in range(n)]
        q = from_entries(n, n, ones + [(i, j, a)]) @ q
        qinv = qinv @ from_entries(n, n, ones + [(i, j, -a)])
    return q, qinv


def _standard_complex(rng, lo, hi, h):
    """A complex in a random basis whose degree k is H^k (h[k] vectors) plus
    pairs e -> e' of a contractible part, with the H^k block first in the
    standard basis; returns it and the basis changes (Q_k, Q_k^-1)."""
    b = {k: rng.randint(0, 2) for k in range(lo, hi)}
    dims = [h.get(k, 0) + b.get(k, 0) + b.get(k - 1, 0) for k in range(lo, hi + 1)]
    changes = {k: _basis_change(rng, dims[k - lo]) for k in range(lo, hi + 1)}
    diffs = []
    for k in range(lo, hi):
        src = h.get(k, 0)                      # out-going pair ends in degree k
        dst = h.get(k + 1, 0) + b.get(k + 1, 0)  # in-coming pair ends in degree k+1
        d = from_entries(dims[k + 1 - lo], dims[k - lo],
                         [(dst + i, src + i, 1) for i in range(b[k])])
        diffs.append(changes[k + 1][0] @ d @ changes[k][1])
    return CochainComplex(lo, hi, dims, diffs), changes


def _random_chain_map(rng):
    """A chain map A + d h + h d between standard complexes in random bases,
    where A maps H_C^k to H_D^k, and the quasi-isomorphism verdict that
    follows from A alone."""
    lo_c, hi_c = rng.choice([(0, 1), (0, 2), (-1, 2)])
    lo_d, hi_d = rng.choice([(lo_c, hi_c), (lo_c, hi_c), (lo_c - 1, hi_c), (lo_c, hi_c + 1)])
    hc = {k: rng.randint(0, 2) for k in range(lo_c, hi_c + 1)}
    hd = {k: hc.get(k, 0) if rng.random() < 0.9 else rng.randint(0, 2)
          for k in range(lo_d, hi_d + 1)}
    c, qc = _standard_complex(rng, lo_c, hi_c, hc)
    d, qd = _standard_complex(rng, lo_d, hi_d, hd)
    lo, hi = min(lo_c, lo_d), max(hi_c, hi_d)
    homotopy = {k: _random_matrix(rng, d.dim(k - 1), c.dim(k), 0.3) for k in range(lo, hi + 2)}
    expected = True
    maps = {}
    for k in range(lo, hi + 1):
        a = _random_matrix(rng, hd.get(k, 0), hc.get(k, 0), 0.7)
        expected &= a.rows == a.cols == rank(a)
        core = from_entries(d.dim(k), c.dim(k), [
            (i, j, x) for i, row in enumerate(a.row_maps) for j, x in row.items()])
        if k in qc and k in qd:
            core = qd[k][0] @ core @ qc[k][1]
        maps[k] = core + d.d(k - 1) @ homotopy[k] + homotopy[k + 1] @ c.d(k)
    return ChainMap(c, d, maps), expected


def _nonzero_betti(c):
    return {k: h for k, h in betti(c).items() if h}


def test_random_chain_maps_match_oracle():
    rng = random.Random(20261018)
    verdicts = []
    for _ in range(200):
        f, expected = _random_chain_map(rng)
        assert is_quasi_isomorphism(f) == qi_by_induced_maps(f) == expected
        verdicts.append((expected, _nonzero_betti(f.source) == _nonzero_betti(f.target)))
    assert sum(e for e, _ in verdicts) >= 40
    # failures a dims-only comparison would pass
    assert sum(1 for e, same in verdicts if not e and same) >= 40


def test_maps_between_equal_betti_numbers_can_fail():
    flat = CochainComplex(0, 1, [1, 1], [ExactMatrix.zeros(1, 1)])
    one = ExactMatrix.from_rows([[1]])
    half = ChainMap(flat, flat, {0: one})  # zero on H^1
    # d e_0 = e_0': H^0 = <e_1>, H^1 = <e_1'>; the map sends e_1' to the boundary e_0'
    c = CochainComplex(0, 1, [2, 2], [ExactMatrix.from_rows([[1, 0], [0, 0]])])
    kill = ChainMap(c, c, {0: ExactMatrix.from_rows(units(2)),
                           1: ExactMatrix.from_rows([[1, 1], [0, 0]])})
    for f in (half, kill):
        assert betti(f.source) == betti(f.target)
        assert not is_quasi_isomorphism(f)
        assert not qi_by_induced_maps(f)
    identity = ChainMap(flat, flat, {0: one, 1: one})
    assert is_quasi_isomorphism(identity) and qi_by_induced_maps(identity)


def _random_poly(rng, monos):
    return {m: rng.choice((-2, -1, 1, 2, Fraction(1, 2))) for m in monos
            if rng.random() < 0.5}


def _random_presentation(rng):
    """Three generators of weight -1, 0 or 1 over k[x, y], with every anchor
    entry and structure coefficient a random homogeneous polynomial of the
    weight it must have: almost never a Lie-Rinehart algebra."""
    ring = WeightedPolyRing(2, (1, 1))
    g = [rng.choice((-1, 0, 1)) for _ in range(3)]
    anchor = [[_random_poly(rng, ring.monomials(g[i] + 1)) for _ in range(2)]
              for i in range(3)]
    brackets = {(i, j): [_random_poly(rng, ring.monomials(g[i] + g[j] - g[k]))
                         for k in range(3)]
                for i, j in combinations(range(3), 2)}
    return LieRinehartPresentation(ring, g, anchor, brackets)


def _jacobiator(lr, x, y, z):
    terms = (elem_bracket(lr, elem_bracket(lr, x, y), z),
             elem_bracket(lr, elem_bracket(lr, y, z), x),
             elem_bracket(lr, elem_bracket(lr, z, x), y))
    return tuple(p_add(p_add(a, b), c) for a, b, c in zip(*terms))


def _anchor_defect(lr, y, z, f):
    """D(y, z)(f) = rho[y, z](f) - [rho y, rho z](f)."""
    return p_sub(elem_anchor_apply(lr, elem_bracket(lr, y, z), f),
                 p_sub(elem_anchor_apply(lr, y, elem_anchor_apply(lr, z, f)),
                       elem_anchor_apply(lr, z, elem_anchor_apply(lr, y, f))))


def test_leibniz_identities_behind_the_generator_check():
    # Jac(f x, y, z) = f Jac(x, y, z) + D(y, z)(f) x and D(f y, z) = f D(y, z):
    # with both, Jac and D vanish on all of L once they vanish on generators.
    rng = random.Random(20261018)
    ring = WeightedPolyRing(2, (1, 1))
    low = [m for w in range(3) for m in ring.monomials(w)]
    probes = [{(1, 0): 1}, {(0, 1): 1}]   # x and y
    seen_jac = seen_defect = 0
    for _ in range(12):
        lr = _random_presentation(rng)
        x, y, z = (tuple(_random_poly(rng, low[:3]) for _ in range(3)) for _ in range(3))
        f = _random_poly(rng, low) or {(1, 0): 1}
        jac = _jacobiator(lr, x, y, z)
        fx = tuple(p_mul(f, c) for c in x)
        defect_f = _anchor_defect(lr, y, z, f)
        assert _jacobiator(lr, fx, y, z) == tuple(
            p_add(p_mul(f, a), p_mul(defect_f, b)) for a, b in zip(jac, x))
        fy = tuple(p_mul(f, c) for c in y)
        for probe in probes + [f]:
            defect = _anchor_defect(lr, y, z, probe)
            assert _anchor_defect(lr, fy, z, probe) == p_mul(f, defect)
            seen_defect += bool(defect)
        seen_jac += any(jac)
    assert seen_jac >= 6 and seen_defect >= 6


def _mutant(lr, rng):
    """lr with one anchor entry or one structure coefficient changed by a
    multiple of a monomial of the weight that entry must have."""
    ring, g, m = lr.ring, lr.gen_weights, lr.rank
    anchor = [list(row) for row in lr.anchor]
    brackets = {(i, j): list(lr_bracket(lr, i, j)) for i, j in combinations(range(m), 2)}
    slots = [(anchor[i], j, g[i] + ring.weights[j]) for i in range(m) for j in range(ring.nvars)]
    slots += [(brackets[pair], k, g[pair[0]] + g[pair[1]] - g[k])
              for pair in brackets for k in range(m)]
    row, index, w = rng.choice([s for s in slots if ring.monomials(s[2])])
    row[index] = p_add(row[index], {rng.choice(ring.monomials(w)): rng.choice((-1, 1, 2))})
    return LieRinehartPresentation(ring, g, anchor, brackets)


def test_generator_check_matches_sweep_over_decorated_elements():
    # Same verdict as the weight-2 sweep, and every failure found on
    # generators is one the sweep reports with the same witness.
    rng = random.Random(20261019)
    algebroids = dict(corpus.ce_algebroids())
    cheap = [algebroids[name] for name in ("aff1-line", "sl2-line", "tangent[1, 2]")]
    costly = [algebroids[name] for name in ("sl2-plane", "euler-frame")]
    mutants = [_mutant(rng.choice(cheap), rng) for _ in range(50)]
    mutants += [_mutant(rng.choice(costly), rng) for _ in range(6)]
    given = [lr for _, lr, _, _ in corpus.lie_rinehart_instances()]
    given += [corpus.sl2_on_plane()[0], algebroids["sl2-line"]]
    failed = 0
    for lr in given + mutants:
        fast, sweep = validate(lr), validate_by_sweep(lr, 2)
        assert fast.ok == sweep.ok
        assert set(fast.failures) <= set(sweep.failures)
        failed += not fast.ok
    assert failed >= len(mutants) // 3


def test_sparse_jacobi_check_matches_dense_loop():
    rng = random.Random(20261020)
    algebras = [g for _, g, _, _ in corpus.hs_instances()]
    algebras += [corpus.heisenberg(2), corpus.sl2_standard()[0]]
    failed = 0
    for _ in range(150):
        g = rng.choice(algebras)
        table = {(i, j): list(la_bracket(g, i, j)) for i, j in combinations(range(g.dim), 2)}
        for _ in range(rng.choice((1, 2))):
            pair = rng.choice(sorted(table))
            table[pair][rng.randrange(g.dim)] = rng.choice((-2, -1, 0, 1, Fraction(1, 2)))
        expected = jacobi_dense(g.dim, table)
        if expected is None:
            LieAlgebra(g.dim, table)
            continue
        with pytest.raises(LieAlgebraError) as exc:
            LieAlgebra(g.dim, table)
        assert str(exc.value) == expected
        failed += 1
    assert 40 <= failed <= 110
