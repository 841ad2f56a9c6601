from fractions import Fraction
from types import SimpleNamespace

import corpus
from liekoszul import complexes, exactla, koszul
from liekoszul.cli import build_lie_rinehart
from liekoszul.complexes import (
    DoubleComplex,
    _betti,
    _cone_ranks,
    betti,
    is_quasi_isomorphism,
    row_filtration,
)
from liekoszul.exactla import Subspace
from liekoszul.koszul import (
    ZeroLocusModel,
    _primitive_section,
    formality_check,
    is_zero_dimensional,
    lie_koszul,
    reduction_map,
    vanishing_check,
    zero_locus_model,
)
from liekoszul.lierinehart import (
    LieRinehartPresentation,
    SectionV,
    WeightedPolyRing,
    tangent_algebroid,
)
from liekoszul.specseq import run

from corpus import slice_betti
from oracle import ideal_rows_by_products, ideal_subspace


RING2 = WeightedPolyRing(2, (1, 1))
TANGENT2 = tangent_algebroid(RING2)
EULER2 = SectionV(TANGENT2, [{(1, 0): 1}, {(0, 1): 1}])

RING1 = WeightedPolyRing(1, (1,))
TANGENT1 = tangent_algebroid(RING1)
XDX = SectionV(TANGENT1, [{(1,): 1}])


def unit_setup():
    lr = LieRinehartPresentation(RING1, [0], [[{}]], {})
    return lr, SectionV(lr, [{(0,): 1}])


def test_lie_koszul_zero_section_has_slice_dims():
    vzero = SectionV(TANGENT2, [{}, {}])
    for w in range(0, 3):
        dims = betti(lie_koszul(TANGENT2, vzero, w))
        for p in range(-2, 1):
            assert dims[p] == TANGENT2.form_slice(-p, w).dim


def test_lie_koszul_unit_component_acyclic():
    lr, unit = unit_setup()
    for w in range(0, 3):
        assert betti(lie_koszul(lr, unit, w)) == {-1: 0, 0: 0}
    # weight 0 is an invertible map between two one-dimensional terms
    c0 = lie_koszul(lr, unit, 0)
    assert c0.dim(-1) == 1 and c0.dim(0) == 1
    assert not c0.d(-1).is_zero()


def test_lie_koszul_euler_classical():
    assert betti(lie_koszul(TANGENT2, EULER2, 0)) == {-2: 0, -1: 0, 0: 1}
    for w in (1, 2, 3):
        assert betti(lie_koszul(TANGENT2, EULER2, w)) == {-2: 0, -1: 0, 0: 0}


def test_euler_characteristic_independent_of_section():
    sections = [
        SectionV(TANGENT2, [{}, {}]),
        EULER2,
        SectionV(TANGENT2, [{(0, 1): 1}, {(1, 0): -1}]),   # rotation
        SectionV(TANGENT2, [{(1, 0): 1}, {}]),
    ]
    for w in range(0, 4):
        chis = set()
        for v in sections:
            dims = betti(lie_koszul(TANGENT2, v, w))
            chis.add(sum((-d if p % 2 else d) for p, d in dims.items()))
        assert len(chis) == 1


def test_quotient_slices():
    model = ZeroLocusModel(TANGENT2, EULER2)
    assert model.quotient_dim(0) == 1
    for w in (1, 2, 3):
        assert model.quotient_dim(w) == 0
    line = ZeroLocusModel(TANGENT2, SectionV(TANGENT2, [{(1, 0): 1}, {}]))
    for w in range(0, 4):
        assert line.quotient_dim(w) == 1  # k[y] slice by slice


def test_is_zero_dimensional():
    assert is_zero_dimensional(EULER2, 4) is True
    assert is_zero_dimensional(SectionV(TANGENT2, [{(1, 0): 1}, {}]), 5) is False
    lr, unit = unit_setup()
    # V = 1 vanishes nowhere: R/I = 0 already at weight 0, an empty zero
    # scheme, which is not the origin
    assert is_zero_dimensional(unit, 2) is False
    # weighted variables: full window of zeros required before certifying
    ring = WeightedPolyRing(2, (1, 2))
    t = tangent_algebroid(ring)
    v = SectionV(t, [{(1, 0): 1}, {(0, 1): 1}])
    assert is_zero_dimensional(v, 6) is True


def test_is_zero_dimensional_inconclusive():
    ring = WeightedPolyRing(1, (3,))
    lr = LieRinehartPresentation(ring, [-3], [[{(0,): 1}]], {})
    v = SectionV(lr, [{(1,): 1}])  # x d/dx: quotient dims 1,0,0,1? no: R/(x)
    # quotient is constants: dims 1, 0, 0, ... with max weight 3: window of
    # three zeros needs w_max >= 3
    assert is_zero_dimensional(v, 2) is None
    assert is_zero_dimensional(v, 3) is True


def test_is_zero_dimensional_false_needs_an_axis():
    # x^5 d/dx on the line: the zero scheme is the origin, but the quotient
    # slices only vanish from weight 5 on, so weights up to 4 prove nothing.
    ring = WeightedPolyRing(1, (1,))
    t1 = tangent_algebroid(ring)
    x5 = SectionV(t1, [{(5,): 1}])
    for w_max in (2, 3, 4):
        assert is_zero_dimensional(x5, w_max) is None
    assert is_zero_dimensional(x5, 5) is True
    # x d/dx on the plane: the y axis lies in the zero locus
    assert is_zero_dimensional(SectionV(TANGENT2, [{(1, 0): 1}, {}]), 1) is False
    # x^2 + y^2 has pure powers of both variables: no axis certificate
    assert is_zero_dimensional(SectionV(TANGENT2, [{(2, 0): 1, (0, 2): 1}, {}]), 4) is None


def test_formality_euler_fields():
    assert formality_check(TANGENT2, EULER2, range(6)).ok
    ring3 = WeightedPolyRing(3, (1, 1, 1))
    t3 = tangent_algebroid(ring3)
    euler3 = SectionV(t3, [{(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1}])
    assert formality_check(t3, euler3, range(6)).ok


def test_formality_euler_right_side_at_origin_only():
    # the reduction target is one-dimensional in weight 0 and vanishes above
    target = reduction_map(TANGENT2, EULER2, 0).target
    assert [target.dim(p) for p in range(-2, 1)] == [0, 0, 1]
    for w in (1, 2, 3):
        target = reduction_map(TANGENT2, EULER2, w).target
        assert all(target.dim(p) == 0 for p in range(-2, 1))


def test_formality_unit_component():
    lr, unit = unit_setup()
    assert formality_check(lr, unit, range(3)).ok


def test_formality_zero_section_identity_style():
    vzero = SectionV(TANGENT2, [{}, {}])
    res = formality_check(TANGENT2, vzero, range(3))
    assert res.ok
    for s in res.slices:
        assert s.source_betti == betti(reduction_map(TANGENT2, vzero, s.w).target)


def test_formality_failure_reported_with_first_slice():
    virr = SectionV(TANGENT2, [{(2, 0): 1}, {(1, 1): 1}])  # x^2, xy: not regular
    res = formality_check(TANGENT2, virr, range(5))
    assert not res.ok
    assert next(s.w for s in res.slices if not s.ok) == 3


def test_vanishing_euler():
    tables = slice_betti(TANGENT2, EULER2, range(5))
    assert vanishing_check(tables, 0).ok
    assert [tables[w][0] for w in range(5)] == [1, 0, 0, 0, 0]
    for w in range(5):
        assert tables[w][-1] == 0 and tables[w][-2] == 0


def test_vanishing_unit():
    lr, unit = unit_setup()
    tables = slice_betti(lr, unit, range(3))
    assert vanishing_check(tables, 0).ok
    assert all(d == 0 for table in tables.values() for d in table.values())


def test_vanishing_one_variable_closed_form():
    tables = slice_betti(TANGENT1, XDX, range(4))
    assert vanishing_check(tables, 0).ok
    assert tables[0][0] == 1
    for w in (1, 2, 3):
        assert tables[w][0] == 0
    for w in range(4):
        assert tables[w][-1] == 0


def test_weighted_ring_koszul_and_formality():
    # weights (1, 2): the weighted Euler pair (x, y) is still regular
    ring = WeightedPolyRing(2, (1, 2))
    t = tangent_algebroid(ring)
    v = SectionV(t, [{(1, 0): 1}, {(0, 1): 2}])
    assert is_zero_dimensional(v, 6) is True
    assert betti(lie_koszul(t, v, 0)) == {-2: 0, -1: 0, 0: 1}
    for w in (1, 2, 3, 4):
        assert betti(lie_koszul(t, v, w)) == {-2: 0, -1: 0, 0: 0}
    assert formality_check(t, v, range(5)).ok
    tables = slice_betti(t, v, range(5))
    assert vanishing_check(tables, 0).ok and tables[0][0] == 1


def test_slice_through_row_filtration_converges_to_its_betti_numbers():
    # a slice complex embedded as a single row: the pairing of its row
    # filtration and `betti` are two separate eliminations of the same
    # differentials, and the E_inf totals must be the Betti numbers
    for v in (EULER2, SectionV(TANGENT2, [{(2, 0): 1}, {(1, 1): 1}])):
        for w in range(0, 4):
            c = lie_koszul(TANGENT2, v, w)
            d = DoubleComplex(c.lo, c.hi, 0, 0, {(k, 0): c.dim(k) for k in c.degrees()},
                              {(k, 0): c.d(k) for k in range(c.lo, c.hi)}, {})
            assert run(row_filtration(d)).infinity_totals() == betti(c), (v.components, w)


def test_zero_dimensional_stops_at_the_first_full_window(monkeypatch):
    built = []
    real = ZeroLocusModel.ideal_slice

    def counting(self, w):
        built.append(w)
        return real(self, w)

    monkeypatch.setattr(ZeroLocusModel, "ideal_slice", counting)
    # a section of its own, so that no earlier test has built its model
    v = SectionV(TANGENT2, EULER2.components)
    assert is_zero_dimensional(v, 50) is True
    assert built == [0, 1]  # (x, y) vanishes from weight 1 on, each slice built once
    assert is_zero_dimensional(v, 50) is True and built == [0, 1]


def test_a_section_builds_one_model_and_one_set_of_normal_forms_per_weight(monkeypatch):
    slices, eliminations = [], []
    real_slice, real_forms = ZeroLocusModel.ideal_slice, koszul.normal_forms

    def ideal_slice(self, w):
        slices.append(w)
        return real_slice(self, w)

    def normal_forms(rows, n):
        eliminations.append(n)
        return real_forms(rows, n)

    monkeypatch.setattr(ZeroLocusModel, "ideal_slice", ideal_slice)
    monkeypatch.setattr(koszul, "normal_forms", normal_forms)
    t3 = tangent_algebroid(WeightedPolyRing(3, (1, 1, 1)))
    v = SectionV(t3, [{(1, 0, 0): 1}, {}, {}])    # x d/dx
    assert v._zero_locus is None
    assert formality_check(t3, v, range(8)).ok
    model = v._zero_locus
    # one model for the 8 weights: weight w reads the slices w, w-1, w-2,
    # and each is built and eliminated once
    assert sorted(slices) == list(range(8))
    assert eliminations == [t3.ring.slice_dim(w) for w in slices]
    assert reduction_map(t3, v, 3) and v._zero_locus is model and len(slices) == 8
    assert SectionV(t3, v.components)._zero_locus is None


def test_a_weight_is_eliminated_once(monkeypatch):
    # normal forms and quotient dimension of a slice come from one `_rref`
    # of its spanning rows, columns reversed; the slice is not reduced first
    calls = []
    real = exactla._rref

    def counting(rows, reduced=True):
        calls.append(rows)
        return real(rows, reduced)

    lr, v = build_lie_rinehart(dict(corpus.case_payloads("lie_rinehart"))["binomial-n2"])
    model = ZeroLocusModel(lr, v)
    monkeypatch.setattr(exactla, "_rref", counting)
    for w in range(6):
        calls.clear()
        n = lr.ring.slice_dim(w)
        assert model.quotient_dim(w) == (w == 0)   # (x + y, x - y) = (x, y)
        rows = model.ideal_slice(w)
        assert len(calls) == 1
        assert calls[0] == [{n - 1 - j: a for j, a in r.items()} for r in rows], w
        model.quotient_forms(w)
        assert len(calls) == 1, w


def test_primitive_section_is_coprime_integral_with_the_same_ideal():
    t3 = tangent_algebroid(WeightedPolyRing(3, (1, 1, 1)))
    given = SectionV(t3, [{(1, 0, 0): "1/2", (0, 1, 0): "-1/3"},
                          {(0, 1, 0): -4, (0, 0, 1): 6}, {}])
    v = _primitive_section(t3, given)
    assert v.components == ({(1, 0, 0): 3, (0, 1, 0): -2},
                            {(0, 1, 0): -2, (0, 0, 1): 3}, {})
    assert all(type(c) is int for comp in v.components for c in comp.values())
    assert v.weight == given.weight
    assert given.components[0] == {(1, 0, 0): Fraction(1, 2), (0, 1, 0): Fraction(-1, 3)}
    # the model of either section is built from the primitive components,
    # and its slices span the ideal of the components as given
    a, b = ZeroLocusModel(t3, given), ZeroLocusModel(t3, v)
    assert a.primitive == b.primitive == v.components
    assert a.generators == b.generators == [c for c in v.components if c]
    as_given = SimpleNamespace(ring=t3.ring, generators=[c for c in given.components if c],
                               gen_weights=a.gen_weights)
    for w in range(5):
        rows = ideal_rows_by_products(as_given, w)
        assert ideal_subspace(a, w) == ideal_subspace(b, w) == Subspace(t3.ring.slice_dim(w),
                                                                        rows)
    assert _primitive_section(t3, given)._zero_locus is zero_locus_model(given)


def test_primitive_section_is_returned_unchanged():
    for name in ("xline-n1", "euler-n2"):
        lr, v = build_lie_rinehart(dict(corpus.case_payloads("lie_rinehart"))[name])
        assert _primitive_section(lr, v) is v, name


def _slices_with_chains():
    """(name, w, reduction map) over the formality corpus and V = (x^2, xy)."""
    cases = corpus.formality_instances()
    cases.append(("plane/(x^2, xy)", TANGENT2,
                  SectionV(TANGENT2, [{(2, 0): 1}, {(1, 1): 1}])))
    for name, lr, v in cases:
        for w in range(6):
            yield name, w, koszul.reduction_map(lr, v, w)


def test_cone_elimination_gives_the_source_betti_numbers():
    verdicts = set()
    for name, w, chain in _slices_with_chains():
        source_ranks, _ = _cone_ranks(chain)
        assert _betti(chain.source, source_ranks) == betti(chain.source), (name, w)
        ok = is_quasi_isomorphism(chain)
        assert type(ok) is bool
        verdicts.add((name, w, ok))
    assert ("plane/(x^2, xy)", 3, False) in verdicts
    assert sum(ok for *_, ok in verdicts) > len(verdicts) // 2


def test_formality_check_eliminates_each_contraction_once(monkeypatch):
    # Every elimination goes through exactla._rref; the rows of each nonzero
    # contraction matrix of a slice must be handed to it exactly once.
    eliminated = []
    real = exactla._rref

    def spy(rows, reduced=True):
        eliminated.append(rows)
        return real(rows, reduced)

    built = []
    real_map = koszul.reduction_map

    def reduction_map(*args):
        built.append(real_map(*args))
        return built[-1]

    for module in (exactla, complexes):
        monkeypatch.setattr(module, "_rref", spy)
    monkeypatch.setattr(koszul, "reduction_map", reduction_map)
    virr = SectionV(TANGENT2, [{(2, 0): 1}, {(1, 1): 1}])
    res = formality_check(TANGENT2, virr, range(5))
    assert not res.ok and next(s.w for s in res.slices if not s.ok) == 3
    contractions = [chain.source.d(k) for chain in built
                    for k in range(chain.source.lo, chain.source.hi)]
    assert any(not d.is_zero() for d in contractions)
    for d in contractions:
        if not d.is_zero():
            assert sum(rows is d.row_maps for rows in eliminated) == 1, d
