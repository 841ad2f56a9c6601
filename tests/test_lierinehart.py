import json
from fractions import Fraction as QQ

import pytest

from liekoszul import lierinehart
from liekoszul.cli import main
from liekoszul.complexes import betti
from liekoszul.exactla import ExactMatrix
from liekoszul.hochserre import GModule, ce_complex
from liekoszul.lierinehart import (
    LieRinehartPresentation,
    _ce_terms,
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

from corpus import case_payloads, collision_line, sl2_on_plane
from helpers import count_monomials
from oracle import ce_d_scan
from test_storage import assert_canonical


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
    # blocks of fs1: dx and dy, each times the constants; targets x, y
    assert fs1.blocks == {(0,): (0, 0), (1,): (1, 0)} and fs0.blocks == {(): (0, 1)}
    x_idx, y_idx = (RING2.monomials(1).index(m) for m in ((1, 0), (0, 1)))
    dx_idx, dy_idx = 0, 1
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


def test_fresh_presentation_and_ring_start_with_empty_caches():
    ring = WeightedPolyRing(2, (1, 1))
    lr = tangent_algebroid(ring)
    assert not lr._blocks and not lr._slices and not ring._monomials
    ce_d(lr, 0, 2)
    contraction(lr, SectionV(lr, [{(1, 0): 1}, {(0, 1): 1}]), 1, 2)
    assert lr._blocks and ring._monomials
    other = tangent_algebroid(WeightedPolyRing(2, (1, 1)))
    assert not other._blocks and not other.ring._monomials


def test_wedge_sign_runs_once_per_block_not_per_entry(monkeypatch):
    # sl2 on the plane: every generator has weight 0, so every block of
    # every slice is nonzero from w = 0 on, and a larger w only makes the
    # blocks larger.  The sign rule is called the same number of times at
    # every w, fewer times than there are entries at the larger w.
    lr = sl2_on_plane()[0]
    real, calls = lierinehart._wedge_insert_sign, []

    def counting(k, rest):
        calls.append((k, rest))
        return real(k, rest)

    monkeypatch.setattr(lierinehart, "_wedge_insert_sign", counting)
    for p in range(lr.rank):
        per_w = {}
        for w in (1, 6):
            calls.clear()
            d = ce_d(lr, p, w)
            per_w[w] = len(calls), sum(map(len, d.row_maps))
        assert per_w[1][0] == per_w[6][0] > 0, p
        assert per_w[6][1] > per_w[6][0], p


def test_colliding_blocks_sum_to_canonical_entries():
    # c_01^1 with 1 in {0, 1}: the anchor block of e_0 and the bracket block
    # of c_01^1 share their (T, S) = ({0, 1}, {1}); see corpus.collision_line.
    lr = collision_line()
    assert validate(lr).ok
    shared = [(s, t) for s, t, *_ in _ce_terms(lr.rank, [(1,)], lr.brackets, lr.acting)]
    assert shared == [((1,), (0, 1))] * 2
    for w in range(-1, 5):
        d = ce_d(lr, 1, w)
        assert d == ce_d_scan(lr, 1, w), w
        assert_canonical(d, w)
    col = lr.form_slice(1, 0).blocks[(1,)][0]
    assert col not in ce_d(lr, 1, 0).row_maps[0]            # 1/2 - 1/2 cancels
    entry = ce_d(lr, 1, 2).row_maps[0][lr.form_slice(1, 2).blocks[(1,)][0]]
    assert entry == 1 and type(entry) is int                # 3/2 - 1/2


def _over_k(dim, brackets):
    """A Lie algebra given as a lie_rinehart file over the ground field:
    no variables, generators of weight 0, empty anchor rows, and each
    structure constant a constant polynomial keyed by the empty monomial."""
    return {"kind": "lie_rinehart", "name": "over-k", "variable_weights": [],
            "generator_weights": [0] * dim, "anchor": [[] for _ in range(dim)],
            "brackets": {key: [{"": c} if c not in (0, "0") else {} for c in coeffs]
                         for key, coeffs in brackets.items()}}


def _cohomology(tmp_path, payload, name):
    path, out = tmp_path / f"{name}.json", tmp_path / f"{name}.out.json"
    path.write_text(json.dumps(payload))
    assert main(["cohomology", str(path), "--json", str(out)]) == 0
    return json.loads(out.read_text())["report"]


def test_lie_algebra_over_k_has_the_same_cohomology_both_ways(tmp_path):
    # Both callers of `_ce_terms` end to end: `ce_d` over a ring with no
    # variables, and `hochserre.ce_complex` on the same structure constants.
    heis = {"0,1": ["0", "0", "1"]}
    algebras = [("heisenberg", 3, heis)]
    algebras += [(name, p["dim"], p.get("brackets", {}))
                 for name, p in case_payloads("lie_algebra") if "module" not in p]
    algebras.append(("heisenberg5", 5, {"0,2": [0, 0, 0, 0, 1], "1,3": [0, 0, 0, 0, 1]}))
    seen = []
    for name, dim, brackets in algebras:
        expected = _cohomology(tmp_path, {"kind": "lie_algebra", "name": name, "dim": dim,
                                          "brackets": brackets}, name)["betti"]
        table = _cohomology(tmp_path, _over_k(dim, brackets), name + "-k")["betti_per_weight"]
        assert table["0"] == expected, name
        seen.append((name, expected))
        assert all(not any(table[w].values()) for w in ("1", "2", "3")), name
    assert seen[0] == ("heisenberg", {"0": 1, "1": 2, "2": 2, "3": 1})
    assert len(seen) == len(algebras) > 3
    assert main(["validate", str(tmp_path / "heisenberg-k.json")]) == 0
