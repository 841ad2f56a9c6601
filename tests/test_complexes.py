import random
import re
from fractions import Fraction as QQ

import pytest

from liekoszul import complexes, exactla
from liekoszul.cechp1 import EquivariantSection, atiyah_algebroid, cech_koszul
from liekoszul.complexes import (
    ChainMap,
    CochainComplex,
    ComplexError,
    DoubleComplex,
    FilteredComplex,
    betti,
    cohomology,
    column_filtration,
    is_quasi_isomorphism,
    row_filtration,
    total,
)
from liekoszul.exactla import ExactMatrix, Subspace

from helpers import betti_by_minors, dh, dv, flag_rows, level_dim, matrix_rows, units
from test_specseq import random_flag

ONE = ExactMatrix.from_rows([[1]])   # the 1x1 identity


def mono_mult_complex(w):
    """0 -> R_{<=w} -x-> R_{<=w+1} -> 0 in one variable."""
    rows = [[QQ(1) if i == j + 1 else QQ(0) for j in range(w + 1)]
            for i in range(w + 2)]
    return CochainComplex(0, 1, [w + 1, w + 2], [ExactMatrix.from_rows(rows)])


def test_invalid_complex_rejected():
    with pytest.raises(ComplexError):
        CochainComplex(0, 2, [1, 1, 1], [ONE, ONE])  # d.d = identity != 0


def test_zero_differentials_cohomology():
    c = CochainComplex(0, 2, [2, 3, 1],
                       [ExactMatrix.zeros(3, 2), ExactMatrix.zeros(1, 3)])
    assert betti(c) == {0: 2, 1: 3, 2: 1}


def test_truncated_multiplication_cokernel():
    # multiplication by x: kernel 0; cokernel the constant monomial only
    for w in range(0, 3):
        c = mono_mult_complex(w)
        h = cohomology(c)
        assert h[0].dim == 0
        assert h[1].dim == 1
        # the class of the constant monomial generates; higher monomials die
        const = tuple(QQ(1) if i == 0 else QQ(0) for i in range(w + 2))
        assert any(h[1].class_coordinates_batch([const])[0])
        for i in range(1, w + 2):
            mono = tuple(QQ(1) if j == i else QQ(0) for j in range(w + 2))
            assert h[1].class_coordinates_batch([mono])[0] == (QQ(0),)


def test_koszul_x_y_weight_two_slice_acyclic():
    # weight-2 slice of the Koszul complex of (x, y):
    # Lambda^2 (dim 1) -> Lambda^1 (dim 4) -> Lambda^0 (dim 3)
    d2 = ExactMatrix.from_rows([[0], [1], [-1], [0]])   # x dy - y dx
    d1 = ExactMatrix.from_rows([
        [1, 0, 0, 0],
        [0, 1, 1, 0],
        [0, 0, 0, 1],
    ])  # (f,g) dx,dy -> xf + yg on basis x,y of weight-1 coefficients
    c = CochainComplex(-2, 0, [1, 4, 3], [d2, d1])
    assert betti(c) == {-2: 0, -1: 0, 0: 0}
    assert betti(c) == dict(zip([-2, -1, 0],
                                betti_by_minors([1, 4, 3],
                                                [matrix_rows(d2), matrix_rows(d1)])))


def test_chain_map_validation_and_quasi_iso():
    c = CochainComplex(0, 1, [1, 1], [ONE])
    zero = CochainComplex(0, 1, [0, 0], [ExactMatrix.zeros(0, 0)])
    proj = ChainMap(c, zero, {})
    assert is_quasi_isomorphism(proj)  # both sides acyclic

    same = ChainMap(c, c, {0: ONE, 1: ONE})
    assert is_quasi_isomorphism(same)

    flat = CochainComplex(0, 1, [1, 1], [ExactMatrix.zeros(1, 1)])
    z = ChainMap(flat, flat, {})
    assert not is_quasi_isomorphism(z)  # zero map, nonzero cohomology

    with pytest.raises(ComplexError):
        ChainMap(c, flat, {0: ONE, 1: ONE})


def test_quasi_iso_composition():
    c = CochainComplex(0, 1, [1, 1], [ONE])
    zero = CochainComplex(0, 1, [0, 0], [ExactMatrix.zeros(0, 0)])
    f = ChainMap(c, zero, {})
    g = ChainMap(zero, zero, {})
    gf = ChainMap(c, zero, {k: g.component(k) @ f.component(k) for k in c.degrees()})
    assert is_quasi_isomorphism(gf)


def square_double(exact_rows=True):
    """2x2 anticommuting square with exact rows."""
    dims = {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
    horiz = {(0, 0): ONE, (0, 1): ONE}
    vert = {(0, 0): ONE, (1, 0): ONE}
    return DoubleComplex.from_commuting(0, 1, 0, 1, dims, horiz, vert)


def test_total_single_cell():
    d = DoubleComplex(0, 0, 0, 0, {(0, 0): 2}, {}, {})
    t = total(d)
    assert betti(t) == {0: 2}


def test_total_cone_of_identity_acyclic():
    d = DoubleComplex(0, 1, 0, 0, {(0, 0): 1, (1, 0): 1},
                      {(0, 0): ONE}, {})
    assert betti(total(d)) == {0: 0, 1: 0}


def test_total_square_matches_direct_computation():
    d = square_double()
    t = total(d)
    dims = [t.dim(n) for n in t.degrees()]
    mats = [matrix_rows(t.d(n)) for n in range(t.lo, t.hi)]
    assert list(betti(t).values()) == betti_by_minors(dims, mats)


def test_rejects_non_anticommuting():
    dims = {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
    horiz = {(0, 0): ONE, (0, 1): ONE}
    vert = {(0, 0): ONE, (1, 0): ONE}
    with pytest.raises(ComplexError):
        DoubleComplex(0, 1, 0, 1, dims, horiz, vert)  # commuting, not anticommuting


def test_euler_characteristic_of_total():
    d = square_double()
    t = total(d)
    cells = sum((-1) ** (p + q) * d.cell_dim(p, q) for p in (0, 1) for q in (0, 1))
    assert cells == sum((-v if n % 2 else v) for n, v in betti(t).items())


def test_transpose_preserves_total_cohomology_dims():
    d = square_double()
    cells = [(p, q) for p in (0, 1) for q in (0, 1)]
    tt = total(DoubleComplex(0, 1, 0, 1, {(q, p): d.cell_dim(p, q) for p, q in cells},
                             {(q, p): dv(d, p, q) for p, q in cells},
                             {(q, p): dh(d, p, q) for p, q in cells}))
    t = total(d)
    assert {n: betti(t)[n] for n in t.degrees()} == {n: betti(tt)[n] for n in tt.degrees()}


def test_column_and_row_filtrations():
    d = square_double()
    col = column_filtration(d)
    assert level_dim(col, 0, 1) == 2  # everything in total degree 1
    assert level_dim(col, 1, 1) == 1  # only the (1, 0) cell
    assert level_dim(col, 2, 1) == 0
    row = row_filtration(d)
    assert level_dim(row, 1, 1) == 1  # only the (0, 1) cell


def test_filtration_quotient_dims_match_cells():
    d = square_double()
    col = column_filtration(d)
    for p in (0, 1):
        for n in (0, 1, 2):
            q = n - p
            expected = d.cell_dim(p, q)
            got = level_dim(col, p, n) - level_dim(col, p + 1, n)
            assert got == expected


def test_single_cell_filtration_trivial():
    d = DoubleComplex(0, 0, 0, 0, {(0, 0): 3}, {}, {})
    f = column_filtration(d)
    assert f.width == 1
    assert level_dim(f, 0, 0) == 3
    assert level_dim(f, 1, 0) == 0


def test_filtered_complex_validation():
    c = CochainComplex(0, 1, [1, 1], [ONE])
    full, zero = Subspace(1, units(1)), Subspace.zero_space(1)
    # differential leaves level 1: e in F_1 C^0 but d(e) not in F_1 C^1
    levels = {(0, 0): full, (0, 1): full,
              (1, 0): full, (1, 1): zero,
              (2, 0): zero, (2, 1): zero}
    with pytest.raises(ComplexError):
        FilteredComplex.from_flag(c, 0, 1, flag_rows(levels))


def test_filtered_complex_levels_must_not_drop_along_d():
    # d(e) = f with e at level 1 and f at level 0: the entry lowers the level
    c = CochainComplex(0, 1, [1, 1], [ONE])
    with pytest.raises(ComplexError):
        FilteredComplex(c, 0, 1, {0: [1], 1: [0]})
    FilteredComplex(c, 0, 1, {0: [0], 1: [1]})  # raising the level is fine


def test_filtered_complex_checks_and_coerces_raw_levels():
    # The public constructor keeps the level checks that builder output
    # skips: every level in [p_lo, p_hi], and an integral float read as int.
    c = CochainComplex(0, 1, [1, 1], [ONE])
    for levels, degree in (({0: [0], 1: [2]}, 1), ({0: [-1], 1: [0]}, 0)):
        with pytest.raises(ComplexError, match=re.escape(f"level outside [0,1] in degree {degree}")):
            FilteredComplex(c, 0, 1, levels)
    f = FilteredComplex(c, 0, 1, {0: [0.0], 1: (1.0,)})
    assert f.levels == {0: (0,), 1: (1,)}
    assert all(type(x) is int for lv in f.levels.values() for x in lv)
    with pytest.raises(ComplexError, match="one level per basis vector in degree 1"):
        FilteredComplex(c, 0, 1, {0: [0]})


def test_filtered_complex_rejects_a_fractional_level():
    c = CochainComplex(0, 1, [1, 1], [ExactMatrix.zeros(1, 1)])
    with pytest.raises(ComplexError, match="level in degree 0 must be an integer, got 0.5"):
        FilteredComplex(c, 0, 1, {0: [0.5], 1: [1.9]})


def test_cochain_complex_rejects_a_fractional_dim():
    with pytest.raises(ComplexError, match="dim must be an integer, got 2.5"):
        CochainComplex(0, 0, [2.5], [])
    assert CochainComplex(0, 0, [2.0], []).dim(0) == 2


def test_checking_constructors_reject_a_negative_dim():
    # a negative dim would build, and `betti` would report it as a Betti number
    with pytest.raises(ComplexError, match=re.escape("dims must not be negative, got [-3]")):
        CochainComplex(0, 0, [-3], [])
    with pytest.raises(ComplexError,
                       match=re.escape("dims must not be negative, got {(0, 0): -2}")):
        DoubleComplex(0, 0, 0, 0, {(0, 0): -2}, {}, {})
    assert CochainComplex(0, 0, [0], []).dim(0) == 0
    assert DoubleComplex(0, 0, 0, 0, {(0, 0): 0}, {}, {}).cell_dim(0, 0) == 0


def test_double_complex_rejects_keys_outside_its_rectangle():
    i2 = ExactMatrix.from_rows(units(2))
    for dims, horizontal, vertical, key in (
            ({(0, 0): 1, (5, 5): 3}, {}, {}, "dims key (5, 5)"),
            ({(0, 0): 1}, {(7, 7): i2}, {}, "horizontal key (7, 7)"),
            ({(0, 0): 1}, {}, {(0, -1): i2}, "vertical key (0, -1)")):
        with pytest.raises(ComplexError, match=re.escape(f"{key} outside the rectangle "
                                                         "p 0..0, q 0..0")):
            DoubleComplex(0, 0, 0, 0, dims, horizontal, vertical)
    with pytest.raises(ComplexError, match=re.escape("dim at (0, 0) must be an integer")):
        DoubleComplex(0, 0, 0, 0, {(0, 0): 1.5}, {}, {})


def _flag(spaces):
    """Flag on a complex with C^1 = 0, levels 0..len(spaces) - 1 of C^0, as
    the spanning rows `from_flag` reads."""
    return {**{(p, 0): s.sparse_basis for p, s in enumerate(spaces)},
            **{(p, 1): () for p in range(len(spaces))}}


def test_filtered_complex_flag_must_decrease():
    c = CochainComplex(0, 1, [2, 0], [ExactMatrix.zeros(0, 2)])
    full, zero = Subspace(2, units(2)), Subspace.zero_space(2)
    x, y = Subspace(2, [[1, 0]]), Subspace(2, [[0, 1]])
    FilteredComplex.from_flag(c, 0, 2, _flag([full, x, x, zero]))
    with pytest.raises(ComplexError, match=re.escape("(1,0)")):
        FilteredComplex.from_flag(c, 0, 2, _flag([full, x, y, zero]))
    # F_2 = <e2> is not inside F_1 = <e0, e1> in QQ^3
    c3 = CochainComplex(0, 1, [3, 0], [ExactMatrix.zeros(0, 3)])
    plane, line = Subspace(3, [[1, 0, 0], [0, 1, 0]]), Subspace(3, [[0, 0, 1]])
    flag = _flag([Subspace(3, units(3)), plane, line, Subspace.zero_space(3)])
    with pytest.raises(ComplexError, match=re.escape("not decreasing at (1,0)")):
        FilteredComplex.from_flag(c3, 0, 2, flag)


def test_from_flag_builds_no_subquotient(monkeypatch):
    # One running echelon per degree: no Subspace, Subquotient, `_rref` or
    # `coordinates` solve, also where the adapted d is not zero.
    c = CochainComplex(0, 1, [3, 2], [ExactMatrix.from_rows([[1, 2, 0], [0, 1, 1]])])
    whole3, whole2 = Subspace(3, units(3)), Subspace(2, units(2))
    spaces = flag_rows({(0, 0): whole3, (1, 0): Subspace(3, [[1, 1, 0], [0, 0, 1]]),
                        (2, 0): Subspace(3, [[0, 0, 1]]), (3, 0): Subspace.zero_space(3),
                        (0, 1): whole2, (1, 1): whole2, (2, 1): Subspace(2, [[0, 1]]),
                        (3, 1): Subspace.zero_space(2)})
    called = []

    def spy(name):
        def refuse(*args, **kwargs):
            called.append(name)
            raise AssertionError(f"from_flag called {name}")
        return refuse

    for owner, name in ((exactla, "_rref"), (complexes, "_rref"), (exactla, "coordinates"),
                        (exactla.Subspace, "__init__"), (exactla.Subspace, "_set"),
                        (exactla.Subquotient, "__init__")):
        monkeypatch.setattr(owner, name, spy(name))
    f = FilteredComplex.from_flag(c, 0, 2, spaces)
    assert called == []
    assert f.levels == {0: (2, 1, 0), 1: (2, 1)}
    assert not f.complex.d(0).is_zero()


def test_from_flag_skips_the_rows_a_level_shares_with_the_level_above(monkeypatch):
    # F_p given as the very row objects of F_{p+1} plus a complement, as the
    # reader passes a repeated vector: no rank-only echelon runs, and the
    # result equals that of copies of the same rows, which take the rank path.
    ranks = []

    def counting(rows):
        ranks.append(len(rows))
        return real(rows)

    real = complexes._rank
    monkeypatch.setattr(complexes, "_rank", counting)
    rng = random.Random(20261020)
    for _ in range(100):
        cplx, p_lo, p_hi, spaces = random_flag(rng)
        shared = {}
        for n in cplx.degrees():
            rows = shared[(p_hi + 1, n)] = []
            for p in range(p_hi, p_lo - 1, -1):
                rows = shared[(p, n)] = rows + list(spaces[(p, n)].sparse_basis)
        copied = {key: [dict(r) for r in rows] for key, rows in shared.items()}
        del ranks[:]
        fast = FilteredComplex.from_flag(cplx, p_lo, p_hi, shared)
        assert ranks == []
        slow = FilteredComplex.from_flag(cplx, p_lo, p_hi, copied)
        # a level whose upper neighbour has rows goes through `_rank`
        assert bool(ranks) == any(shared[(p, n)] for p in range(p_lo + 1, p_hi + 1)
                                  for n in cplx.degrees())
        assert fast.levels == slow.levels
        assert all(fast.complex.d(n) == slow.complex.d(n) for n in cplx.degrees())


def test_filtered_complex_flag_must_start_at_whole_space():
    c = CochainComplex(0, 1, [2, 0], [ExactMatrix.zeros(0, 2)])
    x, zero = Subspace(2, [[1, 0]]), Subspace.zero_space(2)
    with pytest.raises(ComplexError):
        FilteredComplex.from_flag(c, 0, 2, _flag([x, x, zero, zero]))


def test_filtered_complex_flag_must_end_at_zero():
    c = CochainComplex(0, 1, [2, 0], [ExactMatrix.zeros(0, 2)])
    full, x = Subspace(2, units(2)), Subspace(2, [[1, 0]])
    with pytest.raises(ComplexError):
        FilteredComplex.from_flag(c, 0, 2, _flag([full, x, x, x]))


def test_from_single_row_embedding():
    c = CochainComplex(0, 1, [1, 1], [ONE])
    d = DoubleComplex(0, 1, 0, 0, {(0, 0): 1, (1, 0): 1}, {(0, 0): c.d(0)}, {})
    t = total(d)
    assert betti(t) == betti(c)


# -- construction checks fail on one bad entry --------------------------------
# In each pair below the failing data makes the checked product nonzero in
# exactly one entry, which is a sum of two terms; every other entry cancels.

def test_dd_check_fails_on_one_entry():
    d1 = ExactMatrix.from_rows([[1, -1]])
    CochainComplex(0, 2, [2, 2, 1], [ExactMatrix.from_rows([[1, 1], [1, 1]]), d1])
    bad = ExactMatrix.from_rows([[1, 1], [1, -1]])
    assert (d1 @ bad).row_maps == ({1: QQ(2)},)
    with pytest.raises(ComplexError, match="d.d"):
        CochainComplex(0, 2, [2, 2, 1], [bad, d1])


def _square(dv00):
    # cells (0,0) of dim 2, the other three of dim 1
    dims = {(0, 0): 2, (1, 0): 1, (0, 1): 1, (1, 1): 1}
    horizontal = {(0, 0): ExactMatrix.from_rows([[1, 1]]),
                  (0, 1): ExactMatrix.from_rows([[-1]])}
    vertical = {(0, 0): ExactMatrix.from_rows([dv00]),
                (1, 0): ExactMatrix.from_rows([[1]])}
    return DoubleComplex(0, 1, 0, 1, dims, horizontal, vertical)


def test_anticommutation_check_fails_on_one_entry():
    _square([1, 1])
    with pytest.raises(ComplexError, match="anticommute"):
        _square([1, -1])   # d_v d_h + d_h d_v = [[0, 2]]


def _line(d0, vertical):
    # three cells of dims 2, 2, 1 along one axis; d_1 d_0 = [1 -1] d_0
    dims = {(0, 0): 2, (1, 0): 2, (2, 0): 1}
    maps = {(0, 0): ExactMatrix.from_rows(d0), (1, 0): ExactMatrix.from_rows([[1, -1]])}
    if not vertical:
        return DoubleComplex(0, 2, 0, 0, dims, maps, {})
    flip = lambda cells: {(q, p): x for (p, q), x in cells.items()}
    return DoubleComplex(0, 0, 0, 2, flip(dims), {}, flip(maps))


def test_horizontal_square_check_fails_on_one_entry():
    _line([[1, 1], [1, 1]], vertical=False)
    with pytest.raises(ComplexError, match=re.escape("d_h.d_h != 0 at (0, 0)")):
        _line([[1, 1], [1, -1]], vertical=False)   # d_h d_h = [[0, 2]]


def test_vertical_square_check_fails_on_one_entry():
    _line([[1, 1], [1, 1]], vertical=True)
    with pytest.raises(ComplexError, match=re.escape("d_v.d_v != 0 at (0, 0)")):
        _line([[1, 1], [1, -1]], vertical=True)   # d_v d_v = [[0, 2]]


def test_valid_double_complex_is_checked_cell_by_cell(monkeypatch):
    # the public constructor makes the products of each cell's three
    # identities, in rectangle order, and assembles a total it does not check;
    # every map is given here, zero or not, so a product is skipped only where
    # a factor would leave the rectangle: two per neighbour inside it
    a = atiyah_algebroid(0)
    model = cech_koszul(a, EquivariantSection(a, (0, 1, 0)), 2).double
    cells = [(p, q) for p in range(model.p_lo, model.p_hi + 1)
             for q in range(model.q_lo, model.q_hi + 1)]
    args = (model.p_lo, model.p_hi, model.q_lo, model.q_hi,
            {c: model.cell_dim(*c) for c in cells},
            {c: dh(model, *c) for c in cells}, {c: dv(model, *c) for c in cells})
    calls = []
    matmul = ExactMatrix.__matmul__
    monkeypatch.setattr(ExactMatrix, "__matmul__", lambda x, y: calls.append(1) or matmul(x, y))
    rebuilt = DoubleComplex(*args)
    t = total(rebuilt)
    inside = set(cells)
    assert len(calls) == sum(2 * ((p + 1, q) in inside) + 2 * ((p, q + 1) in inside)
                             for p, q in cells) == 14
    assert betti(t) == betti(total(model))


def test_chain_map_square_check_fails_on_one_entry():
    src = CochainComplex(0, 1, [2, 1], [ExactMatrix.from_rows([[1, 1]])])
    dst = CochainComplex(0, 1, [2, 1], [ExactMatrix.from_rows([[1, -1]])])
    f1 = ONE
    ChainMap(src, dst, {0: ExactMatrix.from_rows([[1, 0], [0, -1]]), 1: f1})
    bad = ExactMatrix.from_rows([[1, 1], [0, -1]])
    assert (dst.d(0) @ bad).row_maps == ({0: QQ(1), 1: QQ(2)},)
    with pytest.raises(ComplexError, match="commute"):
        ChainMap(src, dst, {0: bad, 1: f1})   # d f0 - f1 d = [[0, 1]]
