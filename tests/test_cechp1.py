from fractions import Fraction as QQ
from itertools import product

import pytest

from liekoszul import cechp1, cli
from liekoszul.cechp1 import (
    EquivariantSection,
    GluingError,
    IrrationalZeroError,
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
    lp_eval,
    second_page_degeneration,
    vector_field_zeros,
    window_checked,
    zero_section,
)
from liekoszul.cli import build_p1
from liekoszul.complexes import betti, column_filtration, total
from liekoszul.exactla import ExactMatrix
from liekoszul.specseq import check_convergence, compute_page, run

import corpus
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
    # a window that cannot hold the chart-1 image must raise, never truncate
    sheaf = line_bundle(-2)
    bad = RowModel(sheaf, 1, chart0_hi=1, chart1_hi=(1,), window=((-1, 1),))
    with pytest.raises(WindowError):
        _delta_matrix(bad)


def test_delta_vanishes_on_glued_sections():
    # on O(d), s0 = z^a and s1 = (1/z)^(d-a) glue: iota1(s1) = z^d z^(a-d) = z^a,
    # so delta = iota1(s1) - iota0(s0) sends (s0, s1) to zero
    for d in range(4):
        row = build_row(line_bundle(d), 2, line_bundle(d).margin())
        delta = _delta_matrix(row)
        index = {key: i for i, key in enumerate(row.chart_entries())}
        for a in range(d + 1):
            v = [0] * delta.cols
            v[index[("0", 0, a)]] = v[index[("1", 0, d - a)]] = 1
            assert not any(delta.apply(v)), (d, a)


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
        try:
            h0, h1 = cech_cohomology(sheaf, 2)
        except WindowError:
            h0, h1 = cech_cohomology(sheaf, 4)
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
    model = cech_koszul(a0, zero_section(a0), 1)
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
        model = cech_koszul(a, zero_section(a), 1)
        hdims = equivariant_H(model)
        grid = first_page(model).grid
        for k in hdims:
            assert hdims[k] == sum(v for (p, q), v in grid.items() if p + q == k)


def test_equivariant_h_examples():
    a0 = atiyah_algebroid(0)
    assert {k: v for k, v in equivariant_H(cech_koszul(a0, zero_section(a0), 1)).items() if v} \
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
        zero_section(a0),
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
        base = chi(equivariant_H(cech_koszul(a, zero_section(a), 1)))
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


def test_vector_field_zeros_and_assumption():
    a0 = atiyah_algebroid(0)
    assert vector_field_zeros(EquivariantSection(a0, (0, 1, 0))) == [
        (QQ(0), 1), ("infinity", 1)]
    assert assumption_check(EquivariantSection(a0, (0, 1, 0)))
    assert not assumption_check(EquivariantSection(a0, (0, 0, 1)))  # double zero
    assert assumption_check(EquivariantSection(a0, (-1, 0, 1)))     # +-1 simple
    assert not assumption_check(EquivariantSection(a0, (1, 0, 0)))  # double at inf
    assert not assumption_check(zero_section(a0))
    with pytest.raises(IrrationalZeroError):
        vector_field_zeros(EquivariantSection(a0, (-2, 0, 1)))  # roots sqrt(2)


def _exact(x):
    """x is an int, or a Fraction that is not integral: never a float."""
    return type(x) is int or (type(x) is QQ and x.denominator != 1)


def test_vector_field_zeros_are_exact_fractions():
    # Integer coefficients with non-integral zeros: int / int would be a float.
    a0 = atiyah_algebroid(0)
    zeros = vector_field_zeros(EquivariantSection(a0, (1, 2, 0)))        # 2z + 1
    assert zeros == [(QQ(-1, 2), 1), ("infinity", 1)]
    assert type(zeros[0][0]) is QQ
    zeros = vector_field_zeros(EquivariantSection(a0, (1, -3, 2)))       # (2z - 1)(z - 1)
    assert zeros == [(1, 1), (QQ(1, 2), 1)]
    assert all(_exact(loc) for loc, _ in zeros)
    zeros = vector_field_zeros(EquivariantSection(a0, (1, 4, 4)))        # (2z + 1)^2
    assert zeros == [(QQ(-1, 2), 2)] and type(zeros[0][0]) is QQ


def test_assumption_is_the_discriminant_test():
    # every field a + b z + c z^2 with small coefficients: where the zeros
    # are rational, "all simple" is every multiplicity 1; where they are
    # irrational they are simple, and the discriminant test says so
    a0 = atiyah_algebroid(0)
    irrational = 0
    for coeffs in product(range(-3, 4), repeat=3):
        v = EquivariantSection(a0, coeffs)
        try:
            zeros = vector_field_zeros(v)
        except IrrationalZeroError:
            irrational += 1
            assert assumption_check(v), coeffs
            continue
        except GluingError:
            assert coeffs == (0, 0, 0) and not assumption_check(v)
            continue
        assert assumption_check(v) == all(m == 1 for _, m in zeros), coeffs
    assert irrational


def test_fixed_points_respect_scalar_part():
    assert lp_eval({-1: 1, 0: 1}, 2) == QQ(3, 2) and type(lp_eval({-1: 1}, 2)) is QQ
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


def test_corollary_untwisted_and_twisted():
    a0 = atiyah_algebroid(0)
    v = EquivariantSection(a0, (0, 1, 0))
    rep = corollary_check(cech_koszul(a0, v, 1, untwisted=True))
    assert rep.predicted == {0: 2} and rep.match
    rep2 = corollary_check(cech_koszul(a0, v, 1))
    assert rep2.predicted == {0: 2, -1: 2} and rep2.match
    two = corollary_check(cech_koszul(a0, EquivariantSection(a0, (-1, 0, 1)), 1, untwisted=True))
    assert len(two.fixed_points) == 2 and two.match
    with pytest.raises(GluingError):
        corollary_check(cech_koszul(a0, EquivariantSection(a0, (0, 0, 1)), 1))


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
    grid0 = first_page(cech_koszul(a0, zero_section(a0), 1)).grid
    assert {k: v for k, v in grid0.items() if v} == {
        (0, 0): 1, (-1, 0): 1, (-1, 1): 1, (-2, 1): 1}
    for d in (-2, 1, 3):
        a = atiyah_algebroid(d)
        grid = first_page(cech_koszul(a, zero_section(a), 1)).grid
        assert {k: v for k, v in grid.items() if v} == {(0, 0): 1, (-2, 1): 1}


def test_first_page_untwisted():
    a0 = atiyah_algebroid(0)
    model = cech_koszul(a0, zero_section(a0), 1, untwisted=True)
    rep = first_page(model)
    assert {k: v for k, v in rep.grid.items() if v} == {(0, 0): 1, (-1, 1): 1}
    assert rep.grid == _page1_grid(model)


def test_window_radius_must_be_positive():
    with pytest.raises(WindowError):
        cech_cohomology(line_bundle(0), 0)
    a0 = atiyah_algebroid(0)
    with pytest.raises(WindowError):
        cech_koszul(a0, zero_section(a0), 0)


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


def test_first_page_window_check_can_fail(monkeypatch):
    # the window check refuses a window-D+1 model that differs from the
    # window-D one: O(1) has other row cohomology than O(0), and the unit
    # lift of z d/dz has the rows of the zero section but E_inf = 0
    a0, a1 = atiyah_algebroid(0), atiyah_algebroid(1)
    real = cechp1.cech_koszul
    for swapped in ((a1, zero_section(a1)),
                    (a0, EquivariantSection(a0, (0, 1, 0), scalar0=["1"]))):
        def other_at_next_window(algebroid, section, window, untwisted=False):
            if window == 3:
                algebroid, section = swapped
            return real(algebroid, section, window, untwisted)

        monkeypatch.setattr(cechp1, "cech_koszul", other_at_next_window)
        with pytest.raises(WindowError, match="window too small: dims"):
            window_checked(a0, zero_section(a0), 2)


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
    return {pq: dim for pq, dim in page1.dims().items() if pq in model.rows or dim}


def _p1_models(windows):
    """(name, model) for every cases/p1-* file and P^1 corpus instance."""
    inputs = [(name, *build_p1(payload)[:3]) for name, payload in corpus.case_payloads("p1_bundle")]
    inputs += corpus.p1_instances()
    return [(f"{name}@{w}", cech_koszul(algebroid, section, w, untwisted))
            for name, algebroid, section, untwisted in inputs for w in windows]


def test_row_grid_is_the_first_page_of_the_wedge_degree_run():
    # the identity `first_page` once checked on every run: the row grid read
    # off the Cech blocks is E1 of the wedge-degree filtration
    for name, model in _p1_models((1, 2, 3)):
        assert model.rows == _page1_grid(model), name


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
        model = cech_koszul(a, zero_section(a), 1)
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
    assert rep.ok and rep.degeneration_page <= 2
    rep0 = second_page_degeneration(cech_koszul(a0, zero_section(a0), 1))
    assert rep0.ok
    repu = second_page_degeneration(cech_koszul(a0, v, 1, untwisted=True))
    assert repu.ok
    # limit totals agree with the equivariant cohomology
    h = equivariant_H(cech_koszul(a0, v, 1))
    totals = {}
    for (q, k_minus_q), dim in rep.e2_dims.items():
        n = q + k_minus_q
        totals[n] = totals.get(n, 0) + dim
    assert totals == {k: v_ for k, v_ in h.items() if v_}


def test_a_p1_run_locates_the_zeros_at_most_once(monkeypatch, capsys):
    real, calls = cechp1.vector_field_zeros, []

    def counting(section):
        calls.append(section)
        return real(section)

    monkeypatch.setattr(cechp1, "vector_field_zeros", counting)
    paths = sorted(corpus.CASES.glob("p1-*.json"))
    assert len(paths) == 5
    counts = []
    for path in paths:
        calls.clear()
        assert cli.main(["p1", str(path)]) == 0
        counts.append(len(calls))
    assert max(counts) == 1, counts
    # no dual bundle is inverted: the closed forms are all there is
    assert not hasattr(cechp1, "lmat_inverse") and not hasattr(cechp1, "lmat_transpose")
