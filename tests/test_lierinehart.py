from fractions import Fraction as QQ

import pytest

from liekoszul.complexes import betti
from liekoszul.exactla import ExactMatrix
from liekoszul.hochserre import GModule, ce_complex
from liekoszul.lierinehart import (
    LieRinehartPresentation,
    PresentationError,
    SectionV,
    WeightedPolyRing,
    ce_d,
    contraction,
    lie_derivative,
    omega_slice_complex,
    tangent_algebroid,
    validate,
)

from corpus import sl2_on_plane
from helpers import count_monomials


RING2 = WeightedPolyRing(2, (1, 1))
TANGENT2 = tangent_algebroid(RING2)
EULER2 = SectionV(TANGENT2, [{(1, 0): 1}, {(0, 1): 1}])


def test_monomial_enumeration_matches_bruteforce():
    for weights in [(1, 1), (1, 2), (2, 3), (1, 1, 1)]:
        ring = WeightedPolyRing(len(weights), weights)
        for w in range(0, 7):
            assert ring.slice_dim(w) == count_monomials(list(weights), w)
            monos = ring.monomials(w)
            assert list(monos) == sorted(monos)  # deterministic order


def test_form_slice_dimension_counts():
    for p in range(0, 3):
        for w in range(0, 4):
            fs = TANGENT2.form_slice(p, w)
            from itertools import combinations
            expected = sum(
                count_monomials([1, 1], w + sum(TANGENT2.gen_weights[i] for i in s))
                for s in combinations(range(2), p))
            assert fs.dim == expected


def test_validate_tangent_algebroid():
    assert validate(TANGENT2).ok


def test_validate_abelian_weight_zero():
    ring = WeightedPolyRing(1, (1,))
    lr = LieRinehartPresentation(ring, [0, 0],
                                 [[{}], [{}]], {(0, 1): [{}, {}]})
    assert validate(lr).ok


def test_validate_detects_jacobi_failure():
    bad = LieRinehartPresentation(
        WeightedPolyRing(3, (1, 1, 1)), [0, 0, 0],
        [[{} for _ in range(3)] for _ in range(3)],
        {(0, 1): [{}, {}, {(0, 0, 0): 1}], (0, 2): [{(0, 0, 0): 1}, {}, {}]},
    )
    report = validate(bad)
    assert not report.ok
    assert any(f.identity == "jacobi" for f in report.failures)
    witness = next(f for f in report.failures if f.identity == "jacobi")
    assert "e0" in witness.witness and "e2" in witness.witness


def test_validate_detects_anchor_failure():
    # anchor with non-commuting images but zero bracket
    ring = WeightedPolyRing(2, (1, 1))
    bad = LieRinehartPresentation(
        ring, [0, 0],
        [[{(1, 0): 1}, {}], [{}, {(1, 0): "1"}]],
        {(0, 1): [{}, {}]},
    )
    report = validate(bad)
    assert not report.ok
    assert any(f.identity == "anchor-morphism" for f in report.failures)


def test_inhomogeneous_input_rejected():
    ring = WeightedPolyRing(2, (1, 1))
    with pytest.raises(PresentationError):
        LieRinehartPresentation(ring, [0, 0],
                                [[{(0, 0): 1}, {}], [{}, {}]],
                                {})  # anchor entry of weight 0, expected 1
    with pytest.raises(PresentationError):
        SectionV(TANGENT2, [{(1, 0): 1, (2, 0): 1}, {}])


def test_ce_d_one_variable_function():
    ring = WeightedPolyRing(1, (1,))
    t1 = tangent_algebroid(ring)
    m = ce_d(t1, 0, 1)
    assert (m.rows, m.cols) == (1, 1)
    assert m.entries == (QQ(1),)


def test_ce_d_trivial_anchor_is_zero():
    ring = WeightedPolyRing(2, (1, 1))
    lr = LieRinehartPresentation(ring, [0, 0],
                                 [[{}, {}], [{}, {}]], {(0, 1): [{}, {}]})
    for p in range(0, 2):
        for w in range(0, 3):
            assert ce_d(lr, p, w).is_zero()


def test_ce_d_squares_to_zero_and_rank():
    for w in range(0, 4):
        for p in range(0, 2):
            comp = ce_d(TANGENT2, p + 1, w) @ ce_d(TANGENT2, p, w)
            assert comp.is_zero()
    # p=1, w=2: gradient image is 3-dimensional, curl onto the top is onto
    d0 = ce_d(TANGENT2, 0, 2)
    d1 = ce_d(TANGENT2, 1, 2)
    from liekoszul.exactla import image_basis
    assert image_basis(d0).dim == 3
    assert image_basis(d1).dim == 1


def test_contraction_examples():
    vzero = SectionV(TANGENT2, [{}, {}])
    for p in range(0, 3):
        assert contraction(TANGENT2, vzero, p, 2).is_zero()
    assert contraction(TANGENT2, EULER2, 0, 2).rows == 0
    # i_V(dx_j) = x_j entrywise on the weight-1 slice of 1-forms
    m = contraction(TANGENT2, EULER2, 1, 1)
    fs1 = TANGENT2.form_slice(1, 1)
    fs0 = TANGENT2.form_slice(0, 1)
    assert fs1.dim == 2 and fs0.dim == 2
    # basis of fs1: ((0,), ()) = dx and ((1,), ()) = dy; targets x, y
    x_idx = fs0.basis.index(((), (1, 0)))
    y_idx = fs0.basis.index(((), (0, 1)))
    dx_idx = fs1.basis.index(((0,), (0, 0)))
    dy_idx = fs1.basis.index(((1,), (0, 0)))
    assert m.entry(x_idx, dx_idx) == 1 and m.entry(y_idx, dx_idx) == 0
    assert m.entry(y_idx, dy_idx) == 1 and m.entry(x_idx, dy_idx) == 0


def test_contraction_squares_to_zero():
    for w in range(0, 3):
        comp = contraction(TANGENT2, EULER2, 1, w) @ contraction(TANGENT2, EULER2, 2, w)
        assert comp.is_zero()


def test_lie_derivative_euler_scaling():
    # the weighted Euler field sum u_i x_i d/dx_i scales a monomial by its weight
    ring3 = WeightedPolyRing(3, (1, 2, 3))
    t3 = tangent_algebroid(ring3)
    euler3 = SectionV(t3, [{(1, 0, 0): 1}, {(0, 1, 0): 2}, {(0, 0, 1): 3}])
    for w in range(0, 5):
        ld = lie_derivative(t3, euler3, 0, w)
        assert ld == ExactMatrix.identity(ring3.slice_dim(w)).scaled(w)


def test_lie_derivative_zero_section():
    vzero = SectionV(TANGENT2, [{}, {}])
    for p in range(0, 3):
        assert lie_derivative(TANGENT2, vzero, p, 2).is_zero()


def test_lie_derivative_commutes_with_d():
    for w in range(0, 3):
        for p in range(0, 2):
            lhs = lie_derivative(TANGENT2, EULER2, p + 1, w) @ ce_d(TANGENT2, p, w)
            rhs = ce_d(TANGENT2, p, w) @ lie_derivative(TANGENT2, EULER2, p, w)
            assert lhs == rhs


def test_omega_slice_complex():
    c0 = omega_slice_complex(TANGENT2, 0)
    assert betti(c0) == {0: 1, 1: 0, 2: 0}
    for w in (1, 2, 3):
        assert betti(omega_slice_complex(TANGENT2, w)) == {0: 0, 1: 0, 2: 0}
    # trivial anchor and bracket: zero differential, H dims = slice dims
    ring = WeightedPolyRing(2, (1, 1))
    lr = LieRinehartPresentation(ring, [0, 0], [[{}, {}], [{}, {}]], {})
    c = omega_slice_complex(lr, 1)
    assert betti(c) == {p: lr.form_slice(p, 1).dim for p in range(3)}
    # one-variable tangent algebroid, w=1: two-term complex of rank 1
    t1 = tangent_algebroid(WeightedPolyRing(1, (1,)))
    c1 = omega_slice_complex(t1, 1)
    assert betti(c1) == {0: 0, 1: 0}


def test_ce_d_bracket_term_sl2_on_plane():
    # The action algebroid of sl2 on k[x,y] has constant nonzero brackets, so
    # ce_d's bracket sum runs.  Its weight-w slice is the Lie-algebra complex
    # of sl2 with coefficients in the weight-w monomials R_w, which is the
    # irreducible module of dimension w+1: by Whitehead's lemma only w = 0
    # has cohomology, H^0 = H^3 = k.
    lr, sl2 = sl2_on_plane()
    assert validate(lr).ok
    for w in range(5):
        monos = lr.ring.monomials(w)
        index = {mono: i for i, mono in enumerate(monos)}
        actions = [ExactMatrix.from_entries(
            len(monos), len(monos),
            [(index[m2], v, c) for v, mono in enumerate(monos)
             for m2, c in lr.anchor_apply(k, {mono: QQ(1)}).items()]) for k in range(3)]
        cplx = ce_complex(sl2, GModule(sl2, len(monos), actions))
        for p in range(3):
            assert ce_d(lr, p, w) == cplx.d(p), f"p={p}, w={w}"
        nonzero = {k: v for k, v in betti(omega_slice_complex(lr, w)).items() if v}
        assert nonzero == ({0: 1, 3: 1} if w == 0 else {})
