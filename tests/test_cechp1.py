import math
import random
from fractions import Fraction as QQ
from itertools import product

import pytest

from liekoszul import cechp1, cli, exactla
from liekoszul.cechp1 import (
    EquivariantSection,
    GluingError,
    RowModel,
    WindowError,
    _delta_matrix,
    assumption_check,
    atiyah_algebroid,
    build_row,
    cech_cohomology,
    cech_koszul,
    cotangent_sheaf,
    corollary_check,
    equivariant_H,
    first_page,
    fixed_point_set,
    line_bundle,
    lmat_det,
    lp_coeffs_poly,
    second_page_degeneration,
    window_checked,
)
from liekoszul.cli import build_p1
from liekoszul.complexes import BuilderError, betti, column_filtration, total
from liekoszul.exactla import ExactMatrix, Subspace, image_basis, rank
from liekoszul.specseq import check_convergence, compute_page, run

import corpus
from oracle import zero_scheme_length
from helpers import (
    level_dim,
    line_bundle_dims_by_counting,
    lmat_flip,
    lmat_identity,
    lmat_mul,
    lp_flip,
)


def test_line_bundle_cech_dims_match_counting_oracle():
    for d in range(-5, 5):
        assert cech_cohomology(line_bundle(d), 2) == line_bundle_dims_by_counting(d)


def test_cech_dims_stable_across_windows():
    for d in (-3, 0, 2):
        assert cech_cohomology(line_bundle(d), 1) == cech_cohomology(line_bundle(d), 4)


def test_window_guard_raises_on_truncated_image():
    # a window that cannot hold the chart-1 image must raise, never truncate;
    # `build_row` never makes one, so it is a fault of the builder
    sheaf = line_bundle(-2)
    bad = RowModel(sheaf, chart0_hi=1, chart1_hi=(1,), window=((-1, 1),))
    with pytest.raises(BuilderError, match="leaves the target cell"):
        _delta_matrix(bad)


def test_delta_vanishes_on_glued_sections():
    # on O(d), s0 = z^a and s1 = (1/z)^(d-a) glue: iota1(s1) = z^d z^(a-d) = z^a,
    # so delta = iota1(s1) - iota0(s0) sends (s0, s1) to zero
    for d in range(4):
        row = build_row(line_bundle(d), 2, line_bundle(d).margin())
        delta = _delta_matrix(row)
        index = {key: i for i, key in enumerate(row.chart_entries())}
        for a in range(d + 1):
            v = {index[("0", 0, a)]: 1, index[("1", 0, d - a)]: 1}
            assert not any(delta.images([v])), (d, a)


def test_random_rank_two_euler_characteristics():
    # h0 - h1 = degree + rank for any bundle on the line, an oracle that is
    # independent of the echelon machinery and of the window bookkeeping
    import random
    from liekoszul.cechp1 import SheafOnP1, lp_monomial
    rng = random.Random(17)
    for _ in range(40):
        a = rng.randrange(-3, 4)
        d = rng.randrange(-3, 4)
        b = rng.randrange(-3, 4)
        c = rng.choice([0, 1, -1, 2])
        sheaf = SheafOnP1(2, [[lp_monomial(a), lp_monomial(b, c)],
                              [lp_monomial(0, 0), lp_monomial(d)]])
        h0, h1 = cech_cohomology(sheaf, 2)
        assert h0 - h1 == a + d + 2


def test_operator_bundle_cocycle_and_symbol():
    # T(z) T(1/z) = I, and the symbol row (0, -z^2) is the tangent transition
    for d in range(-6, 7):
        a = atiyah_algebroid(d)
        assert lmat_mul(a.transition, lmat_flip(a.transition)) == lmat_identity(2)
        assert a.transition[1][0] == {} and a.transition[1][1] == {2: QQ(-1)}
        if d == 0:
            assert a.transition[0][1] == {}  # block diagonal: O + tangent


def test_section_glues_on_the_overlap():
    # T(z) (f1, w1)(1/z) = (f0, v0)(z): the solved chart-1 data pulls back to
    # the chart-0 data for every vector field, degree and admissible alpha
    for d in range(-3, 4):
        a = atiyah_algebroid(d)
        for (x, y, z), alpha in product(product(range(-2, 3), repeat=3),
                                        (0, 1, QQ(-5, 2))):
            v = EquivariantSection(a, (x, y, z), scalar0=[alpha, -d * z])
            chart1 = ((lp_flip(v.f1),), (lp_flip(v.w1),))
            assert lmat_mul(a.transition, chart1) == ((v.f0,), (v.v0,)), (d, x, y, z, alpha)
            assert v.v0 == lp_coeffs_poly([x, y, z])
            assert v.f0 == lp_coeffs_poly([alpha, -d * z])


def _transpose(a):
    return tuple(tuple(a[j][i] for j in range(len(a))) for i in range(len(a[0])))


def test_dual_bundle_is_the_inverse_transpose_in_closed_form():
    # D*(d) = [[1, 0], [d z^-1, -z^-2]]: T^T D*(d) = I, det D*(d) = -z^-2
    for d in range(-6, 7):
        a = atiyah_algebroid(d)
        dual, det = a.wedge_dual(1).transition, a.wedge_dual(2).transition
        assert lmat_mul(_transpose(a.transition), dual) == lmat_identity(2), d
        assert lmat_det(dual) == {-2: -1}, d
        assert det == (({-2: -1},),) == cotangent_sheaf().transition, d


def test_wedge_dual_dims():
    a0 = atiyah_algebroid(0)
    assert cech_cohomology(a0.wedge_dual(0), 2) == (1, 0)
    assert cech_cohomology(a0.wedge_dual(1), 2) == (1, 1)  # O + O(-2) pattern
    for d in range(-2, 4):
        det = atiyah_algebroid(d).wedge_dual(2)
        assert det.transition[0][0] == {-2: QQ(-1)}
        assert cech_cohomology(det, 2) == (0, 1)  # degree -2 regardless of d
        if d != 0:
            assert cech_cohomology(atiyah_algebroid(d).wedge_dual(1), 2) == (0, 0)


def test_equivariant_section_gluing():
    a1 = atiyah_algebroid(1)
    v = EquivariantSection(a1, (2, 3, 5))
    # chart-1 data is solved: w1 = -(2 z^2 + 3 z + 5), f1 = d*b + d*a*z
    assert v.w1 == {0: QQ(-5), 1: QQ(-3), 2: QQ(-2)}
    assert v.f1 == {0: QQ(3), 1: QQ(2)}
    assert v.f0 == {1: QQ(-5)}
    with pytest.raises(GluingError):
        EquivariantSection(a1, (0, 0, 1), scalar0=["0", "5"])  # forced -d*c = -1
    EquivariantSection(a1, (0, 0, 1), scalar0=["7", "-1"])  # admissible


def test_cech_koszul_zero_section_has_zero_contractions():
    a0 = atiyah_algebroid(0)
    model = cech_koszul(a0, EquivariantSection(a0, (0, 0, 0)), 1)
    for p in (-2, -1):
        for q in (0, 1):
            assert model.double.dh(p, q).is_zero()


def test_cech_koszul_double_complex_valid():
    # the builder does not check delta^2 = 0, i_V^2 = 0 or anticommutation:
    # test_builders.py::test_p1_models_and_their_filtrations_pass_the_checks
    # and acceptance criterion 8 prove them on every P^1 model
    a0 = atiyah_algebroid(0)
    model = cech_koszul(a0, EquivariantSection(a0, (0, 1, 0)), 1)
    assert model.double.p_lo == -2 and model.double.q_hi == 1
    assert not model.double.dh(-1, 0).is_zero()


def test_equivariant_h_zero_section_matches_first_page_sum():
    for d in (-2, 0, 3):
        a = atiyah_algebroid(d)
        model = cech_koszul(a, EquivariantSection(a, (0, 0, 0)), 1)
        hdims = equivariant_H(model)
        grid = first_page(model).grid
        for k in hdims:
            assert hdims[k] == sum(v for (p, q), v in grid.items() if p + q == k)


def test_equivariant_h_examples():
    a0 = atiyah_algebroid(0)
    zero = EquivariantSection(a0, (0, 0, 0))
    assert {k: v for k, v in equivariant_H(cech_koszul(a0, zero, 1)).items() if v} \
        == {0: 2, -1: 2}
    v = EquivariantSection(a0, (0, 1, 0))
    assert {k: v_ for k, v_ in equivariant_H(cech_koszul(a0, v, 1)).items() if v_} == {0: 2, -1: 2}
    assert {k: v_ for k, v_ in equivariant_H(cech_koszul(a0, v, 1, untwisted=True)).items() if v_} \
        == {0: 2}


def test_unit_scalar_section_is_acyclic():
    a0 = atiyah_algebroid(0)
    v = EquivariantSection(a0, (0, 1, 0), scalar0=["1"])
    assert all(d == 0 for d in equivariant_H(cech_koszul(a0, v, 1)).values())


def test_euler_characteristic_invariance_over_sections():
    a0 = atiyah_algebroid(0)
    sections = [
        EquivariantSection(a0, (0, 0, 0)),
        EquivariantSection(a0, (0, 1, 0)),
        EquivariantSection(a0, (0, 1, 0), scalar0=["1"]),
        EquivariantSection(a0, (-1, 0, 1)),
        EquivariantSection(a0, (0, 0, 1)),
        EquivariantSection(a0, (1, 0, 0)),
    ]
    chis = set()
    for s in sections:
        h = equivariant_H(cech_koszul(a0, s, 1))
        chis.add(sum((-v if k % 2 else v) for k, v in h.items()))
    assert len(chis) == 1


def test_euler_characteristic_invariance_other_degrees():
    for d in (1, -1, 3):
        a = atiyah_algebroid(d)
        chi = lambda h: sum((-v if k % 2 else v) for k, v in h.items())
        base = chi(equivariant_H(cech_koszul(a, EquivariantSection(a, (0, 0, 0)), 1)))
        assert chi(equivariant_H(cech_koszul(a, EquivariantSection(a, (0, 1, 0)), 1))) == base


def test_untwisted_matches_handbuilt_model():
    # independent construction: functions row (chart deg <= 3, window [-3,3])
    # and forms row (chart0 deg <= 2, chart1 deg <= 1, window [-3,2]),
    # with delta and contraction by z d/dz assembled directly.
    f_chart = [("0", e) for e in range(4)] + [("1", e) for e in range(4)]
    f_win = list(range(-3, 4))
    w_chart = [("0", e) for e in range(3)] + [("1", e) for e in range(2)]
    w_win = list(range(-3, 3))

    def mat(rows, cols, entries):
        m = [[QQ(0)] * len(cols) for _ in range(len(rows))]
        for (r, c), val in entries.items():
            m[rows.index(r)][cols.index(c)] += QQ(val)
        return ExactMatrix.from_rows(m) if rows and cols else ExactMatrix.zeros(
            len(rows), len(cols))

    # Cech differential on functions: (s0, s1) -> s1(1/z) - s0
    df = {}
    for side, e in f_chart:
        df[((-e if side == "1" else e), (side, e))] = 1 if side == "1" else -1
    delta_fun = mat(f_win, f_chart, df)
    # on forms: chart-1 g dz' pulls back via -z^{-2}
    dw = {}
    for side, e in w_chart:
        if side == "0":
            dw[(e, (side, e))] = -1
        else:
            dw[((-2 - e), (side, e))] = -1
    delta_form = mat(w_win, w_chart, dw)
    # contraction by z d/dz: chart0 multiply by z; chart1 by -zeta; window by z
    ch = {}
    for side, e in w_chart:
        ch[((side, e + 1), (side, e))] = 1 if side == "0" else -1
    iv_chart = mat(f_chart, w_chart, ch)
    iv_win = mat(f_win, w_win, {(e + 1, e): 1 for e in w_win})

    from liekoszul.complexes import DoubleComplex
    dims = {(-1, 0): len(w_chart), (-1, 1): len(w_win),
            (0, 0): len(f_chart), (0, 1): len(f_win)}
    hand = DoubleComplex.from_commuting(
        -1, 0, 0, 1, dims,
        {(-1, 0): iv_chart, (-1, 1): iv_win},
        {(-1, 0): delta_form, (0, 0): delta_fun})
    hand_betti = {k: v for k, v in betti(total(hand)).items() if v}

    a0 = atiyah_algebroid(0)
    v = EquivariantSection(a0, (0, 1, 0))
    engine = {k: v_ for k, v_ in equivariant_H(cech_koszul(a0, v, 1, untwisted=True)).items() if v_}
    assert hand_betti == engine == {0: 2}


def test_fixed_points_and_assumption():
    a0 = atiyah_algebroid(0)
    assert fixed_point_set(EquivariantSection(a0, (0, 1, 0)), untwisted=True) == [
        QQ(0), "infinity"]
    assert assumption_check(EquivariantSection(a0, (0, 1, 0)))
    assert not assumption_check(EquivariantSection(a0, (0, 0, 1)))  # double zero
    assert assumption_check(EquivariantSection(a0, (-1, 0, 1)))     # +-1 simple
    assert not assumption_check(EquivariantSection(a0, (1, 0, 0)))  # double at inf
    assert not assumption_check(EquivariantSection(a0, (0, 0, 0)))
    # roots +-sqrt(2): a conjugate pair, listed and not located
    assert fixed_point_set(EquivariantSection(a0, (-2, 0, 1)), untwisted=True) == [
        "(0 + sqrt(8))/2", "(0 - sqrt(8))/2"]


def _exact(x):
    """x is an int, or a Fraction that is not integral: never a float."""
    return type(x) is int or (type(x) is QQ and x.denominator != 1)


def test_vector_field_zeros_are_exact_fractions():
    # Integer coefficients with non-integral zeros: int / int would be a float.
    a0 = atiyah_algebroid(0)
    zeros = fixed_point_set(EquivariantSection(a0, (1, 2, 0)), untwisted=True)   # 2z + 1
    assert zeros == [QQ(-1, 2), "infinity"]
    assert type(zeros[0]) is QQ
    zeros = fixed_point_set(EquivariantSection(a0, (1, -3, 2)), untwisted=True)  # (2z - 1)(z - 1)
    assert zeros == [1, QQ(1, 2)]
    assert all(_exact(loc) for loc in zeros)


def test_assumption_is_the_discriminant_test():
    # every field v = a + b z + c z^2 with small coefficients, against an
    # oracle that shares nothing with the discriminant: for c != 0 a double
    # zero is a common zero of v and v', and v' = b + 2 c z vanishes only at
    # -b/2c; for c = 0, infinity is a zero of order 2 - deg v, so a double
    # zero means b = 0.  Where the zeros are simple, each listed rational
    # point is a zero of v.
    a0 = atiyah_algebroid(0)
    irrational = 0
    for coeffs in product(range(-3, 4), repeat=3):
        a, b, c = coeffs
        v = EquivariantSection(a0, coeffs)
        if c:
            x = QQ(-b, 2 * c)
            double = a + b * x + c * x * x == 0 and b + 2 * c * x == 0
        else:
            double = b == 0
        assert assumption_check(v) == (not double), coeffs
        if double:
            continue
        points = fixed_point_set(v, untwisted=True)
        assert len(set(points)) == 2, coeffs
        for p in points:
            if not isinstance(p, str):
                assert a + b * p + c * p * p == 0, coeffs
        irrational += all(isinstance(p, str) and "sqrt" in p for p in points)
    assert irrational


def test_fixed_points_respect_scalar_part():
    a0 = atiyah_algebroid(0)
    v = EquivariantSection(a0, (0, 1, 0))
    assert fixed_point_set(v, untwisted=False) == [QQ(0), "infinity"]
    lifted = EquivariantSection(a0, (0, 1, 0), scalar0=["1"])
    assert fixed_point_set(lifted, untwisted=False) == []
    assert fixed_point_set(lifted, untwisted=True) == [QQ(0), "infinity"]
    # twisting obstructs the lift at infinity
    a2 = atiyah_algebroid(2)
    v2 = EquivariantSection(a2, (0, 1, 0))
    assert fixed_point_set(v2, untwisted=False) == [QQ(0)]


def _irrational_zeros(coeffs):
    """a + b z + c z^2 (integers, c != 0) has zeros outside QQ: b^2 - 4ac is
    no integer square."""
    a, b, c = coeffs
    disc = b * b - 4 * a * c
    return c != 0 and (disc < 0 or math.isqrt(disc) ** 2 != disc)


def test_corollary_holds_on_a_seeded_scan_of_simple_zero_sections():
    # 120 seeded sections with simple zeros, twisted and untwisted, with and
    # without a scalar part: the closed-form count matches H on every one,
    # irrational zeros included
    rng = random.Random(25)
    scanned = irrational = 0
    while scanned < 120:
        d = rng.choice((-2, -1, 0, 1, 3))
        coeffs = tuple(rng.randint(-2, 2) for _ in range(3))
        alpha = rng.choice((0, 1, -2))
        scalar = rng.choice((None, [alpha], [alpha, -d * coeffs[2]]))
        untwisted = rng.random() < 0.5
        algebroid = atiyah_algebroid(d)
        section = EquivariantSection(algebroid, coeffs, scalar)
        if not assumption_check(section):
            continue
        rep = corollary_check(window_checked(algebroid, section, 2, untwisted))
        assert rep.match, (d, coeffs, scalar, untwisted, rep)
        scanned += 1
        irrational += _irrational_zeros(coeffs)
    assert irrational >= 40, irrational


def test_corollary_untwisted_and_twisted():
    a0 = atiyah_algebroid(0)
    v = EquivariantSection(a0, (0, 1, 0))
    rep = corollary_check(cech_koszul(a0, v, 1, untwisted=True))
    assert rep.predicted == {0: 2} and rep.match
    rep2 = corollary_check(cech_koszul(a0, v, 1))
    assert rep2.predicted == {0: 2, -1: 2} and rep2.match
    two = corollary_check(cech_koszul(a0, EquivariantSection(a0, (-1, 0, 1)), 1, untwisted=True))
    assert len(two.fixed_points) == 2 and two.match
    # a double zero: the hypothesis fails, so the corollary does not apply
    assert corollary_check(cech_koszul(a0, EquivariantSection(a0, (0, 0, 1)), 1)) is None


def test_corollary_scales_with_fixed_point_count():
    a0 = atiyah_algebroid(0)
    for coeffs in [(0, 1, 0), (-1, 0, 1), (0, 1, -1)]:
        rep = corollary_check(cech_koszul(a0, EquivariantSection(a0, coeffs), 1, untwisted=True))
        assert rep.predicted == {0: len(rep.fixed_points)}
        assert rep.match


def test_corollary_obstructed_lift():
    # d != 0: the canonical lift of z d/dz vanishes only at z = 0 because the
    # chart-1 scalar part is the nonzero constant d there
    for d in (2, 1, -1, 3):
        a = atiyah_algebroid(d)
        v = EquivariantSection(a, (0, 1, 0))
        rep = corollary_check(cech_koszul(a, v, 1))
        assert rep.fixed_points == (QQ(0),)
        assert rep.predicted == {0: 1, -1: 1}
        assert rep.match


def test_corollary_twisted_two_finite_fixed_points():
    a0 = atiyah_algebroid(0)
    v = EquivariantSection(a0, (-1, 0, 1))  # zeros at +-1, none at infinity
    rep = corollary_check(cech_koszul(a0, v, 1))
    assert set(rep.fixed_points) == {QQ(1), QQ(-1)}
    assert rep.predicted == {0: 2, -1: 2} and rep.match


def test_first_page_grids():
    a0 = atiyah_algebroid(0)
    grid0 = first_page(cech_koszul(a0, EquivariantSection(a0, (0, 0, 0)), 1)).grid
    assert {k: v for k, v in grid0.items() if v} == {
        (0, 0): 1, (-1, 0): 1, (-1, 1): 1, (-2, 1): 1}
    for d in (-2, 1, 3):
        a = atiyah_algebroid(d)
        grid = first_page(cech_koszul(a, EquivariantSection(a, (0, 0, 0)), 1)).grid
        assert {k: v for k, v in grid.items() if v} == {(0, 0): 1, (-2, 1): 1}


def test_first_page_untwisted():
    a0 = atiyah_algebroid(0)
    model = cech_koszul(a0, EquivariantSection(a0, (0, 0, 0)), 1, untwisted=True)
    rep = first_page(model)
    assert {k: v for k, v in rep.grid.items() if v} == {(0, 0): 1, (-1, 1): 1}
    assert rep.grid == _page1_grid(model)


def test_window_radius_must_be_positive():
    with pytest.raises(ValueError, match="at least 1"):
        cech_cohomology(line_bundle(0), 0)
    a0 = atiyah_algebroid(0)
    with pytest.raises(ValueError, match="at least 1"):
        cech_koszul(a0, EquivariantSection(a0, (0, 0, 0)), 0)


def _row_sheaves(algebroid, untwisted):
    if untwisted:
        return {-1: cotangent_sheaf(), 0: line_bundle(0)}
    return {p: algebroid.wedge_dual(-p) for p in (-2, -1, 0)}


def test_first_page_is_the_cech_cohomology_of_each_row_sheaf():
    for name, algebroid, section, untwisted in corpus.p1_instances():
        for window in range(1, 5):
            grid = first_page(window_checked(algebroid, section, window, untwisted)).grid
            expected = {}
            for p, sheaf in _row_sheaves(algebroid, untwisted).items():
                expected[(p, 0)], expected[(p, 1)] = cech_cohomology(sheaf, window)
            assert grid == expected, (name, window)


def test_row_grid_is_the_cech_cohomology_of_each_row_sheaf():
    # the closed form against the Cech blocks it replaced: h^q of each row
    # sheaf's two-chart model, for every degree, window and twist in range
    for d, window, untwisted in product(range(-6, 7), range(1, 5), (False, True)):
        algebroid = atiyah_algebroid(d)
        expected = {}
        for p, sheaf in _row_sheaves(algebroid, untwisted).items():
            expected[(p, 0)], expected[(p, 1)] = cech_cohomology(sheaf, window)
        assert algebroid.row_grid(untwisted) == expected, (d, window, untwisted)


def test_first_page_window_check_can_fail(monkeypatch):
    # the window check refuses a window-D+1 model whose Cech-degree E_inf
    # grid differs from the window-D one: the zero section of O(1) has other
    # cells than that of O(0), and the unit lift of z d/dz has E_inf = 0
    a0, a1 = atiyah_algebroid(0), atiyah_algebroid(1)
    real = cechp1.cech_koszul
    for swapped in ((a1, EquivariantSection(a1, (0, 0, 0))),
                    (a0, EquivariantSection(a0, (0, 1, 0), scalar0=["1"]))):
        def other_at_next_window(algebroid, section, window, untwisted=False):
            if window == 3:
                algebroid, section = swapped
            return real(algebroid, section, window, untwisted)

        monkeypatch.setattr(cechp1, "cech_koszul", other_at_next_window)
        with pytest.raises(WindowError, match="window too small: dims"):
            window_checked(a0, EquivariantSection(a0, (0, 0, 0)), 2)


def test_window_1_passes_the_window_check_on_a_seeded_scan():
    # evidence that window 1 suffices, not a proof: on 500 seeded
    # sections, twisted and untwisted, the window-1 and window-2 models agree
    # on the Cech-degree E_inf grid (`window_checked` raises WindowError else)
    rng = random.Random(29)
    for _ in range(500):
        d = rng.randint(-6, 6)
        coeffs = [rng.randint(-2, 2) for _ in range(3)]
        algebroid = atiyah_algebroid(d)
        section = EquivariantSection(algebroid, coeffs, [rng.choice((0, 1, -2)), -d * coeffs[2]])
        assert window_checked(algebroid, section, 1, rng.random() < 0.5).window == 1


def test_each_row_includes_quasi_isomorphically_into_a_wider_row(monkeypatch):
    # the second step of the window argument: every row of a model, at the
    # radius and margin `cech_koszul` gives it, is a subcomplex of the same
    # row 7 wider, with equal h^0 and h^1, and the wide boundaries that lie
    # in the small overlap window are the small boundaries, so the
    # inclusion is injective, hence an isomorphism, on h^1
    rows = []
    real = cechp1.build_row

    def recording(sheaf, radius, margin):
        rows.append((sheaf, radius, margin))
        return real(sheaf, radius, margin)

    monkeypatch.setattr(cechp1, "build_row", recording)
    for d, window, untwisted in product([*range(-6, 7), 97, -1000], (1, 2, 3), (False, True)):
        algebroid = atiyah_algebroid(d)
        cech_koszul(algebroid, EquivariantSection(algebroid, (0, 0, 0)), window, untwisted)
    assert len(rows) == 225
    for sheaf, radius, margin in rows:
        small, wide = real(sheaf, radius, margin), real(sheaf, radius + 7, margin)
        where = (sheaf, radius, margin)
        chart = {key: j for j, key in enumerate(wide.chart_entries())}
        overlap = {key: i for i, key in enumerate(wide.window_entries())}
        small_overlap = small.window_entries()
        d_small, d_wide = _delta_matrix(small), _delta_matrix(wide)
        wide_columns = exactla._transpose(d_wide.row_maps, d_wide.cols)
        embed = [{overlap[small_overlap[i]]: x for i, x in col.items()}
                 for col in exactla._transpose(d_small.row_maps, d_small.cols)]
        # a chain map: delta of the wide row restricts to delta of the small one
        assert [wide_columns[chart[key]] for key in small.chart_entries()] == embed, where
        r_small, r_wide = rank(d_small), rank(d_wide)
        assert (d_small.cols - r_small, d_small.rows - r_small) \
            == (d_wide.cols - r_wide, d_wide.rows - r_wide), where
        box = Subspace._span(d_wide.rows, [{overlap[key]: 1} for key in small_overlap])
        assert image_basis(d_wide).intersect(box) == Subspace._span(d_wide.rows, embed), where


def _p1_scan(rng, n):
    """n seeded (algebroid, section, untwisted, window) of the scan d in
    -6..6, (a, b, c) in {-2..2}^3, alpha in {0, 1, -2}, scalar part
    [alpha, -d c], twisted and untwisted, windows 1..3."""
    for _ in range(n):
        d = rng.randint(-6, 6)
        coeffs = [rng.randint(-2, 2) for _ in range(3)]
        algebroid = atiyah_algebroid(d)
        section = EquivariantSection(algebroid, coeffs, [rng.choice((0, 1, -2)), -d * coeffs[2]])
        yield algebroid, section, rng.random() < 0.5, rng.randint(1, 3)


def _vanishes(section, untwisted):
    """The contraction by `section` is zero: no vector part, and no scalar
    part either unless it is dropped (untwisted)."""
    return not section.v0 and (untwisted or not section.f0)


def test_the_cech_degree_e_inf_grid_lies_at_cech_level_0():
    # the last step of the window argument: for V != 0 the Koszul cohomology
    # sheaves live on the finite zero scheme, so their Cech H^1 vanishes and
    # E_inf sits at Cech level 0 in every cell; for V = 0 it is the row grid
    rng = random.Random(30)
    zero = 0
    for algebroid, section, untwisted, window in _p1_scan(rng, 600):
        unpaired = dict(cech_koszul(algebroid, section, window, untwisted).cech.unpaired)
        where = (algebroid.degree, section.vf_coeffs, section.alpha, untwisted, window)
        if _vanishes(section, untwisted):
            zero += 1
            grid = algebroid.row_grid(untwisted)
            assert unpaired == {(q, p): h for (p, q), h in grid.items() if h}, where
        else:
            assert all(level == 0 for level, _ in unpaired), where
    assert zero, "the scan holds no zero section"


def test_h_is_the_length_of_the_zero_scheme():
    # the corollary for every nonzero section, zeros simple or not: H is the
    # length l of the zero scheme in degree 0, and in degree -1 too twisted
    # (the endomorphisms of the restricted bundle), by a gcd oracle
    rng = random.Random(30)
    scanned = not_simple = 0
    for algebroid, section, untwisted, _ in _p1_scan(rng, 600):
        if _vanishes(section, untwisted):
            continue
        length = zero_scheme_length(section, untwisted)
        expected = {0: length} if untwisted else {0: length, -1: length}
        h = equivariant_H(cech_koszul(algebroid, section, 1, untwisted))
        assert {k: v for k, v in h.items() if v} == {k: v for k, v in expected.items() if v}, \
            (algebroid.degree, section.vf_coeffs, section.alpha, untwisted)
        scanned += 1
        not_simple += not assumption_check(section)
    assert scanned >= 500 and not_simple >= 50, (scanned, not_simple)


@pytest.mark.parametrize("case", sorted(p.stem for p in corpus.CASES.glob("p1-*.json")))
def test_p1_run_checks_the_window_once(monkeypatch, capsys, case):
    calls = []
    real = cechp1._window_stable

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(cechp1, "_window_stable", counting)
    assert cli.main(["p1", str(corpus.CASES / f"{case}.json")]) in (0, 1)
    capsys.readouterr()
    assert len(calls) == 1


@pytest.mark.parametrize("case, rows", [("p1-euler-O0", 3), ("p1-euler-untwisted", 2)])
def test_p1_builds_one_model_per_window(monkeypatch, capsys, case, rows):
    built = []
    original = cechp1.build_row

    def counting(*args, **kwargs):
        built.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(cechp1, "build_row", counting)
    code = cli.main(["p1", str(corpus.CASES / f"{case}.json"), "--window", "1"])
    capsys.readouterr()
    assert code == 0
    assert len(built) == 2 * rows  # one row model per row, at windows 1 and 2


def test_first_page_d1_ranks_are_page_1_of_the_wedge_degree_run_on_a_seeded_scan():
    # `first_page` pairs the wedge-degree run only where the row grid has a
    # d1 source and target both nonzero (twisted degree 0); everywhere else
    # page 1 of that run lists no rank.  At twisted degree 0 both d1 have
    # rank 1 exactly when the scalar part alpha is nonzero.
    rng = random.Random(27)
    twisted_0 = {False: 0, True: 0}
    for _ in range(240):
        degree = 0 if rng.random() < 0.5 else rng.randint(-6, 6)
        untwisted = rng.random() < 0.3
        algebroid = atiyah_algebroid(degree)
        alpha = rng.randint(-2, 2)
        section = EquivariantSection(algebroid, [rng.randint(-2, 2) for _ in range(3)], [alpha])
        model = cech_koszul(algebroid, section, rng.randint(1, 3), untwisted)
        ranks = first_page(model).d1_ranks
        assert ranks == compute_page(run(column_filtration(model.double)), 1).ranks
        if degree == 0 and not untwisted:
            assert ranks == dict.fromkeys([(-2, 1), (-1, 0)], int(alpha != 0))
            twisted_0[alpha != 0] += 1
        else:
            assert ranks == {}
    assert min(twisted_0.values()) >= 10, twisted_0


def test_a_section_of_another_algebroid_is_refused():
    # the model would read the row grid of `algebroid` while its contractions
    # glue over the section's own degree
    a0, a1 = atiyah_algebroid(0), atiyah_algebroid(1)
    with pytest.raises(ValueError, match="section degree 1 differs from algebroid degree 0"):
        window_checked(a0, EquivariantSection(a1, (0, 1, 0)), 2)


def test_first_page_engine_consistency_and_d1():
    a0 = atiyah_algebroid(0)
    model = cech_koszul(a0, EquivariantSection(a0, (0, 1, 0)), 1)
    rep = first_page(model)
    assert rep.grid == _page1_grid(model)
    assert all(r == 0 for r in rep.d1_ranks.values())


def _page1_grid(model):
    """The model's E1 grid from the engine: page 1 of the wedge-degree run,
    on the cells of the row grid and wherever it is nonzero."""
    page1 = compute_page(run(column_filtration(model.double)), 1)
    rows = model.algebroid.row_grid(model.untwisted)
    return {pq: dim for pq, dim in page1.grid.items() if pq in rows or dim}


def _p1_models(windows):
    """(name, model) for every cases/p1-* file and P^1 corpus instance."""
    inputs = [(name, *build_p1(payload)[:3]) for name, payload in corpus.case_payloads("p1_bundle")]
    inputs += corpus.p1_instances()
    return [(f"{name}@{w}", cech_koszul(algebroid, section, w, untwisted))
            for name, algebroid, section, untwisted in inputs for w in windows]


def test_row_grid_is_the_first_page_of_the_wedge_degree_run():
    # the identity `first_page` once checked on every run: the closed-form
    # row grid is E1 of the wedge-degree filtration
    for name, model in _p1_models((1, 2, 3)):
        assert model.algebroid.row_grid(model.untwisted) == _page1_grid(model), name
    assert not hasattr(model, "rows")


def test_cech_run_second_page_is_its_unpaired_grid():
    # E2 = E_inf of the Cech-degree run, which `second_page_degeneration`
    # reads off the unpaired vectors with no page built
    for name, model in _p1_models((1, 2, 3)):
        assert compute_page(model.cech, 2).nonzero_dims() == dict(model.cech.unpaired), name


def test_wedge_filtration_graded_pieces_are_cells():
    # quotients F_p / F_{p+1} in total degree p+q have the (p, q) cell dims
    a0 = atiyah_algebroid(0)
    model = cech_koszul(a0, EquivariantSection(a0, (0, 1, 0)), 1)
    filt = column_filtration(model.double)
    for p in range(-2, 1):
        for q in (0, 1):
            n = p + q
            got = level_dim(filt, p, n) - level_dim(filt, p + 1, n)
            assert got == model.double.cell_dim(p, q)


@pytest.mark.parametrize("window", [1, 2])
@pytest.mark.parametrize("algebroid,section,untwisted",
                         [pytest.param(*x[1:], id=x[0]) for x in corpus.p1_instances()])
def test_cech_run_totals_are_the_betti_numbers(algebroid, section, untwisted, window):
    # the E_inf totals the model stores against the rank path of `betti`
    model = cech_koszul(algebroid, section, window, untwisted)
    assert model.cech.infinity_totals() == betti(total(model.double))


def test_wedge_filtration_converges_for_zero_section():
    for d in (-2, 0, 2):
        a = atiyah_algebroid(d)
        model = cech_koszul(a, EquivariantSection(a, (0, 0, 0)), 1)
        filt = column_filtration(model.double)
        res = run(filt)
        assert check_convergence(res, betti(filt.complex))
        # and the limit totals are the zero-section cohomology of the remark
        totals = res.infinity_totals()
        h = equivariant_H(model)
        for k, v in h.items():
            assert totals.get(k, 0) == v


def test_second_page_degeneration_examples():
    a0 = atiyah_algebroid(0)
    v = EquivariantSection(a0, (0, 1, 0))
    rep = second_page_degeneration(cech_koszul(a0, v, 1))
    assert rep.degeneration_page <= 2
    rep0 = second_page_degeneration(cech_koszul(a0, EquivariantSection(a0, (0, 0, 0)), 1))
    assert rep0.degeneration_page <= 2
    repu = second_page_degeneration(cech_koszul(a0, v, 1, untwisted=True))
    assert repu.degeneration_page <= 2
    # limit totals agree with the equivariant cohomology
    h = equivariant_H(cech_koszul(a0, v, 1))
    totals = {}
    for (q, k_minus_q), dim in rep.unpaired.items():
        n = q + k_minus_q
        totals[n] = totals.get(n, 0) + dim
    assert totals == {k: v_ for k, v_ in h.items() if v_}


def test_a_p1_run_locates_the_zeros_at_most_once(monkeypatch, capsys):
    real, calls = cechp1.fixed_point_set, []

    def counting(section, untwisted):
        calls.append(section)
        return real(section, untwisted)

    monkeypatch.setattr(cechp1, "fixed_point_set", counting)
    paths = sorted(corpus.CASES.glob("p1-*.json"))
    assert len(paths) == 7
    counts = []
    for path in paths:
        calls.clear()
        assert cli.main(["p1", str(path)]) == 0
        counts.append(len(calls))
    assert max(counts) == 1, counts
    # no dual bundle is inverted: the closed forms are all there is
    assert not hasattr(cechp1, "lmat_inverse") and not hasattr(cechp1, "lmat_transpose")
    # and no zero is located: the fixed points are a closed form too
    for name in ("vector_field_zeros", "lp_eval", "IrrationalZeroError"):
        assert not hasattr(cechp1, name), name
