import random
from fractions import Fraction as QQ

from liekoszul.complexes import (
    CochainComplex,
    DoubleComplex,
    FilteredComplex,
    betti,
    column_filtration,
    row_filtration,
    total,
)
from liekoszul.exactla import ExactMatrix, Subspace
from liekoszul.specseq import check_convergence, compute_page, run

from helpers import dense, flag_rows, from_columns, units


def pages(f):
    """Pages 0..width+1 of `f`; past width+1 every page of a bounded
    filtration agrees."""
    reduction = run(f)
    return [compute_page(reduction, r) for r in range(f.width + 2)]


def trivial_filtration(c):
    return FilteredComplex(c, 0, 0, {n: [0] * c.dim(n) for n in c.degrees()})


def test_trivial_filtration_page_one_is_cohomology():
    c = CochainComplex(0, 1, [2, 1], [ExactMatrix.from_rows([[1, 0]])])
    f = trivial_filtration(c)
    p1 = compute_page(run(f), 1)
    h = betti(c)
    for (p, q), dim in p1.grid.items():
        assert dim == (h.get(p + q, 0) if p == 0 else 0)
    # all later pages equal
    p2 = compute_page(run(f), 2)
    assert p2.grid == p1.grid


def test_column_filtration_page_one_is_column_cohomology():
    # columns: p=0 has d_v = identity (acyclic); p=1 has d_v = 0
    dims = {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}
    vert = {(0, 0): ExactMatrix.from_rows([[1]])}
    d = DoubleComplex.from_commuting(0, 1, 0, 1, dims, {}, vert)
    f = column_filtration(d)
    p1 = compute_page(run(f), 1)
    assert p1.grid == {(1, 0): 1, (1, 1): 1}


def test_handbuilt_nonzero_d2():
    # a at level 0 degree 0, b at level 2 degree 1, d(a) = b:
    # the class of a survives to page 2 and dies there.
    c = CochainComplex(0, 1, [1, 1], [ExactMatrix.from_rows([[1]])])
    full, zero = Subspace(1, units(1)), Subspace.zero_space(1)
    levels = {}
    for p in range(0, 4):
        levels[(p, 0)] = full if p <= 0 else zero
        levels[(p, 1)] = full if p <= 2 else zero
    f = FilteredComplex.from_flag(c, 0, 2, flag_rows(levels))
    res = run(f)
    page2, page3 = compute_page(res, 2), compute_page(res, 3)
    assert page2.grid != page3.grid
    assert any(page2.ranks.values())
    assert page2.ranks[(0, 0)] == 1
    assert page3.grid == {}
    assert res.degeneration_page == 3
    assert check_convergence(res, betti(f.complex))


def test_zero_differential_degenerates_immediately():
    c = CochainComplex(0, 1, [2, 2], [ExactMatrix.zeros(2, 2)])
    # two-level filtration splitting the coordinates
    full2 = Subspace(2, units(2))
    zero2 = Subspace.zero_space(2)
    half = Subspace(2, [[0, 1]])
    levels = {}
    for n in (0, 1):
        levels[(0, n)] = full2
        levels[(1, n)] = half
        levels[(2, n)] = zero2
    f = FilteredComplex.from_flag(c, 0, 1, flag_rows(levels))
    res = run(f)
    assert res.degeneration_page <= 1
    assert res.infinity_totals() == {0: 2, 1: 2}
    assert check_convergence(res, betti(f.complex))


def test_first_quadrant_collapse_onto_one_column():
    # rows surjective with kernel at the left edge only: page 1 of the
    # row filtration collapses onto the p = 0 column
    dims = {(0, 0): 2, (1, 0): 1, (0, 1): 2, (1, 1): 1}
    dh = ExactMatrix.from_rows([[1, 0]])
    dv0 = ExactMatrix.from_rows([[0, 0], [0, 1]])
    d = DoubleComplex.from_commuting(0, 1, 0, 1, dims,
                                     {(0, 0): dh, (0, 1): dh},
                                     {(0, 0): dv0})
    f = row_filtration(d)
    p1 = compute_page(run(f), 1)
    for (q, rest), dim in p1.grid.items():
        if rest:  # horizontal position > 0: the row cohomology vanished there
            assert dim == 0
    res = run(f)
    t = total(d)
    direct = betti(t)
    for n in t.degrees():
        assert res.infinity_totals().get(n, 0) == direct.get(n, 0)
    assert check_convergence(res, betti(f.complex))


def _random_core(rng, max_total_dim=12, max_width=4):
    """Dims, filtration level per basis vector, and a paired differential."""
    degrees = rng.randrange(2, 4)
    dims = [rng.randrange(0, max_total_dim // degrees + 1) for _ in range(degrees)]
    while sum(dims) == 0 or sum(dims) > max_total_dim:
        dims = [rng.randrange(0, max_total_dim // degrees + 1) for _ in range(degrees)]
    width = rng.randrange(1, max_width + 1)
    levels_of = [[rng.randrange(0, width) for _ in range(d)] for d in dims]
    # pair some basis vectors (i in degree k) -> (j in degree k+1) with
    # level(target) >= level(source); paired targets never used as sources
    diffs = []
    used_targets = [set() for _ in range(degrees)]
    for k in range(degrees - 1):
        flat = [[QQ(0)] * dims[k] for _ in range(dims[k + 1])]
        available = list(range(dims[k + 1]))
        rng.shuffle(available)
        for i in range(dims[k]):
            if i in used_targets[k] or not available:
                continue
            if rng.random() < 0.5:
                j = None
                for cand in available:
                    if levels_of[k + 1][cand] >= levels_of[k][i]:
                        j = cand
                        break
                if j is not None:
                    available.remove(j)
                    used_targets[k + 1].add(j)
                    flat[j][i] = QQ(rng.randrange(1, 4))
        diffs.append(flat)
    return dims, levels_of, diffs, width


def _random_change_of_basis(rng, dims, levels_of):
    """Filtration-preserving invertible map per degree: triangular with
    nonzero diagonal in the basis ordered by descending level, so P e_j may
    involve e_i only when level(i) >= level(j)."""
    mats = []
    for k in range(len(dims)):
        order = sorted(range(dims[k]), key=lambda i: (-levels_of[k][i], i))
        pos = {b: idx for idx, b in enumerate(order)}
        p = [[QQ(0)] * dims[k] for _ in range(dims[k])]
        for i in range(dims[k]):
            p[i][i] = QQ(rng.choice([1, 1, 2, -1]))
            for j in range(dims[k]):
                if pos[i] < pos[j] and rng.random() < 0.3:
                    p[i][j] = QQ(rng.randrange(-2, 3))
        mats.append(ExactMatrix.from_rows(p) if dims[k] else ExactMatrix.zeros(0, 0))
    return mats


def _build_flag(core, mats):
    """The complex of `core` moved by `mats`, with its flag of subspaces,
    as (complex, p_lo, p_hi, {(p, n): Subspace}); `flag_rows` turns the
    flag into the rows `FilteredComplex.from_flag` reads."""
    from liekoszul.exactla import solve_batch
    dims, levels_of, diffs, width = core
    degrees = len(dims)
    new_diffs = []
    for k in range(degrees - 1):
        d_raw = (ExactMatrix.from_rows(diffs[k]) if dims[k] and dims[k + 1]
                 else ExactMatrix.zeros(dims[k + 1], dims[k]))
        if dims[k]:
            p_inv = from_columns(dims[k], solve_batch(mats[k], units(dims[k])))
        else:
            p_inv = ExactMatrix.zeros(0, 0)
        new_diffs.append(mats[k + 1] @ d_raw @ p_inv if dims[k] and dims[k + 1]
                         else ExactMatrix.zeros(dims[k + 1], dims[k]))
    cplx = CochainComplex(0, degrees - 1, dims, new_diffs)
    levels = {}
    for k in range(degrees):
        for p in range(0, width + 1):
            vecs = [col for col, level in zip(dense(mats[k].transpose()), levels_of[k])
                    if level >= p]
            levels[(p, k)] = Subspace(dims[k], vecs)
    return cplx, 0, width - 1, levels


def _build_filtered(core, mats):
    return _from_subspaces(*_build_flag(core, mats))


def random_flag(rng, max_total_dim=12, max_width=4):
    core = _random_core(rng, max_total_dim, max_width)
    mats = _random_change_of_basis(rng, core[0], core[1])
    return _build_flag(core, mats)


def random_filtered_complex(rng, max_total_dim=12, max_width=4):
    return _from_subspaces(*random_flag(rng, max_total_dim, max_width))


def _from_subspaces(cplx, p_lo, p_hi, spaces):
    return FilteredComplex.from_flag(cplx, p_lo, p_hi, flag_rows(spaces))


def test_convergence_on_random_corpus():
    rng = random.Random(2024)
    for _ in range(30):
        f = random_filtered_complex(rng)
        assert check_convergence(run(f), betti(f.complex))


def test_page_dims_weakly_decrease():
    rng = random.Random(99)
    for _ in range(10):
        f = random_filtered_complex(rng)
        res = pages(f)
        for a, b in zip(res, res[1:]):
            for pq, dim in b.grid.items():
                assert dim <= a.grid.get(pq, 0)


def test_stable_page_bounded_by_width():
    rng = random.Random(5)
    for _ in range(10):
        f = random_filtered_complex(rng)
        assert run(f).degeneration_page <= f.width + 1


def test_functoriality_of_pages_under_filtered_iso():
    # a filtration-preserving isomorphism induces equal page dims at every r
    rng = random.Random(31)
    for _ in range(5):
        core = _random_core(rng)
        identity_mats = [ExactMatrix.from_rows(units(d)) for d in core[0]]
        plain = _build_filtered(core, identity_mats)
        twisted = _build_filtered(core, _random_change_of_basis(rng, core[0], core[1]))
        for a, b in zip(pages(plain), pages(twisted)):
            assert a.grid == b.grid
        assert run(plain).infinity_totals() == run(twisted).infinity_totals()


def test_a_page_holds_only_its_nonzero_cells():
    # a 2 x 2001 rectangle holding square-double's four cells: each of the
    # row filtration's 2003 pages lists at most those cells, not the grid
    dims = {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
    one = ExactMatrix.from_rows([[1]])
    d = DoubleComplex.from_commuting(0, 1, 0, 2000, dims, {(0, 0): one, (0, 1): one},
                                     {(0, 0): one, (1, 0): one})
    f = row_filtration(d)
    res = run(f)
    for r in range(f.width + 2):
        page = compute_page(res, r)
        assert set(page.grid) <= set(dims) and set(page.ranks) <= set(dims), r
    assert compute_page(res, 0).grid == dims and compute_page(res, 2).grid == {}


def test_infinity_is_read_off_the_unpaired_vectors():
    # E_inf is page width+1, and its totals list every degree, zeros included
    rng = random.Random(7)
    for _ in range(20):
        f = random_filtered_complex(rng)
        res = run(f)
        last = compute_page(res, f.width + 1)
        assert dict(res.unpaired) == last.grid
        totals = res.infinity_totals()
        assert list(totals) == list(f.complex.degrees())
        for n in f.complex.degrees():
            assert totals[n] == sum(dim for (p, q), dim in last.grid.items() if p + q == n)
        assert all(not any(compute_page(res, r).ranks.values())
                   for r in range(res.degeneration_page, f.width + 2))
