"""The library's guards that no command reaches: each raise on a bad
argument, each arithmetic branch that only cancellation takes, the
immutability of the value classes, `Subquotient` equality and the text of
each `__repr__` that only a debugging session shows.  Every case names the
message it expects, so deleting its check fails it."""

import pytest

import corpus
from liekoszul import koszul
from liekoszul.cechp1 import AlgebroidOnP1, SheafOnP1, line_bundle, lmat, lmat_det, lp, lp_mul
from liekoszul.complexes import (
    ChainMap,
    CochainComplex,
    ComplexError,
    DoubleComplex,
    FilteredComplex,
    cohomology,
    row_filtration,
)
from liekoszul.exactla import (
    ExactMatrix,
    LinearAlgebraError,
    Subquotient,
    Subspace,
    induced_map,
    solve_batch,
)
from liekoszul.hochserre import GModule, LieAlgebra, LieIdeal, MalformedLieAlgebra
from liekoszul.lierinehart import MalformedPresentation, WeightedPolyRing, p_mul, p_scale
from liekoszul.specseq import SpectralSequenceError, SpectralSequencePage, compute_page, run

from oracle import induced_map_dense

POINT = CochainComplex(0, 0, [1], [])
LINE = Subspace(1, [[1]])
PLANE = Subspace(2, [[1, 0], [0, 1]])
ABELIAN2 = LieAlgebra(2, {})


def _pairing():
    return run(row_filtration(DoubleComplex(0, 0, 0, 0, {(0, 0): 1}, {}, {})))


GUARDS = {
    "ring weight count": (lambda: WeightedPolyRing(2, (1,)), MalformedPresentation,
                          "weight count does not match variable count"),
    "ideal ambient": (lambda: LieIdeal(ABELIAN2, LINE), MalformedLieAlgebra,
                      "ideal lives in the wrong space"),
    "module action shape": (lambda: GModule(ABELIAN2, 1, [ExactMatrix.zeros(1, 1),
                                                          ExactMatrix.zeros(2, 2)]),
                            MalformedLieAlgebra, "action matrix has wrong shape"),
    "complex degree range": (lambda: CochainComplex(1, 0, [], []), ComplexError,
                             "empty degree range"),
    "complex dims length": (lambda: CochainComplex(0, 1, [1], [ExactMatrix.zeros(1, 1)]),
                            ComplexError, "dims length does not match degree range"),
    "complex differential count": (lambda: CochainComplex(0, 1, [1, 1], []), ComplexError,
                                   "differential count does not match degree range"),
    "chain map shape": (lambda: ChainMap(POINT, POINT, {0: ExactMatrix.zeros(2, 1)}),
                        ComplexError, "component at degree 0 has wrong shape"),
    "double rectangle": (lambda: DoubleComplex(1, 0, 0, 0, {}, {}, {}), ComplexError,
                         "empty rectangle"),
    "filtration range": (lambda: FilteredComplex(POINT, 1, 0, {0: (0,)}), ComplexError,
                         "empty filtration range"),
    "flag range": (lambda: FilteredComplex.from_flag(POINT, 1, 0, {}), ComplexError,
                   "empty filtration range"),
    "flag missing subspace": (lambda: FilteredComplex.from_flag(
                                  POINT, 0, 0, {(0, 0): LINE.sparse_basis}),
                              ComplexError, "missing filtration subspace at level 1, degree 0"),
    "flag subspace ambient": (lambda: FilteredComplex.from_flag(
                                  POINT, 0, 0, {(0, 0): PLANE.sparse_basis, (1, 0): ()}),
                              ComplexError, r"filtration subspace at \(0,0\) has wrong ambient"),
    "matrix product shape": (lambda: ExactMatrix.zeros(1, 2) @ ExactMatrix.zeros(1, 1),
                             LinearAlgebraError, "shape mismatch in product"),
    "matrix sum shape": (lambda: ExactMatrix.zeros(1, 2) + ExactMatrix.zeros(2, 1),
                         LinearAlgebraError, "shape mismatch in sum"),
    "subspace ambient": (lambda: Subspace(2, [[1]]), LinearAlgebraError,
                         "basis vector has wrong ambient dimension"),
    "intersect ambient": (lambda: PLANE.intersect(LINE), LinearAlgebraError,
                          "ambient dimension mismatch"),
    "preimage ambient": (lambda: PLANE.preimage_under(ExactMatrix.zeros(1, 1)),
                         LinearAlgebraError, "matrix does not map into this ambient space"),
    "solve rhs length": (lambda: solve_batch(ExactMatrix.zeros(2, 1), [[1]]),
                         LinearAlgebraError, "rhs has wrong length"),
    "subquotient spaces": (lambda: Subquotient(PLANE, Subspace(1, [])), LinearAlgebraError,
                           "cycles and boundaries live in different spaces"),
    "class coordinates dimension": (lambda: Subquotient(PLANE, Subspace(2, []))
                                    .class_coordinates_batch([[1]]),
                                    LinearAlgebraError, "vector has wrong ambient dimension"),
    "induced map shape": (lambda: induced_map(ExactMatrix.zeros(1, 2), Subquotient(LINE, LINE),
                                              Subquotient(LINE, LINE)),
                          LinearAlgebraError, "matrix shape does not match subquotients"),
    "negative page": (lambda: compute_page(_pairing(), -1), SpectralSequenceError,
                      "page index must be nonnegative"),
    "sheaf shape": (lambda: SheafOnP1(2, [[1]]), ValueError,
                    "transition matrix shape does not match rank"),
    "sheaf determinant": (lambda: SheafOnP1(1, [[{0: 1, 1: 1}]]), ValueError,
                          "transition determinant must be a unit monomial"),
    "laurent input": (lambda: lp([1, 2]), TypeError, "as a Laurent polynomial"),
    "determinant rank": (lambda: lmat_det(lmat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])), ValueError,
                         "ranks 1 and 2 only"),
    "wedge power": (lambda: AlgebroidOnP1(0).wedge_dual(3), ValueError,
                    "wedge power must be 0, 1 or 2"),
}


@pytest.mark.parametrize("call,error,message", GUARDS.values(), ids=GUARDS.keys())
def test_a_bad_argument_raises_its_guard(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_products_drop_the_terms_that_cancel():
    # (1 + z)(1 - z) = 1 - z^2: the two z terms cancel, and no zero is kept
    assert lp_mul({0: 1, 1: 1}, {0: 1, 1: -1}) == {0: 1, 2: -1}
    assert p_mul({(0,): 1, (1,): 1}, {(0,): 1, (1,): -1}) == {(0,): 1, (2,): -1}
    assert p_scale(0, {(1,): 3}) == {}


def test_induced_on_cohomology_matches_the_dense_oracle():
    nonzero = 0
    for name, lr, v in corpus.formality_instances():
        for w in range(3):
            f = koszul.reduction_map(lr, v, w)
            hs, ht = cohomology(f.source), cohomology(f.target)
            got = f.induced_on_cohomology()
            assert sorted(got) == sorted(hs), (name, w)
            for k, m in got.items():
                assert m == induced_map_dense(f.component(k), hs[k], ht[k]), (name, w, k)
                nonzero += not m.is_zero()
    assert nonzero


VALUES = {
    "CochainComplex": (POINT, "lo"),
    "ChainMap": (ChainMap(POINT, POINT, {}), "source"),
    "DoubleComplex": (DoubleComplex(0, 0, 0, 0, {(0, 0): 1}, {}, {}), "p_lo"),
    "FilteredComplex": (FilteredComplex(POINT, 0, 0, {0: (0,)}), "levels"),
    "ExactMatrix": (ExactMatrix.zeros(1, 1), "rows"),
    "Subspace": (LINE, "pivots"),
    "Subquotient": (Subquotient(LINE, Subspace(1, [])), "cycles"),
    "SpectralSequencePage": (SpectralSequencePage({(0, 0): 1}, {}), "grid"),
    "WeightedPolyRing": (WeightedPolyRing(1, (1,)), "weights"),
    "LieAlgebra": (LieAlgebra(1, {}), "brackets"),
    "LieIdeal": (LieIdeal(LieAlgebra(1, {}), LINE), "subspace"),
    "GModule": (GModule.trivial(LieAlgebra(1, {})), "actions"),
}


@pytest.mark.parametrize("value,field", VALUES.values(), ids=VALUES.keys())
def test_a_value_class_is_immutable(value, field):
    before = getattr(value, field)
    for name in (field, "extra"):
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(value, name, None)
    assert getattr(value, field) is before


def test_subquotient_equality_and_hash_agree():
    # the same spaces from other spanning vectors are equal and hash alike
    a = Subquotient(PLANE, Subspace(2, [[1, 1]]))
    same = Subquotient(Subspace(2, [[1, 1], [0, 2]]), Subspace(2, [[-2, -2]]))
    assert a == same and hash(a) == hash(same) and len({a, same}) == 1
    for other in (Subquotient(PLANE, Subspace(2, [[1, 0]])),
                  Subquotient(PLANE, Subspace(2, [])),
                  Subquotient(Subspace(2, [[1, 1]]), Subspace(2, [[1, 1]]))):
        assert a != other and len({a, other}) == 2
    assert a != PLANE


REPRS = {
    "SheafOnP1 named": (line_bundle(-2), "SheafOnP1(O(-2))"),
    "SheafOnP1 unnamed": (SheafOnP1(2, [[1, 0], [0, {-1: 1}]]), "SheafOnP1(rank 2)"),
    "CochainComplex": (CochainComplex(-1, 0, [2, 1], [ExactMatrix.from_rows([[1, 0]])]),
                       "CochainComplex([-1:2, 0:1])"),
    "DoubleComplex": (DoubleComplex(-2, 0, 0, 1, {(0, 0): 1}, {}, {}),
                      "DoubleComplex(p in [-2,0], q in [0,1])"),
    "FilteredComplex": (FilteredComplex(POINT, 0, 1, {0: (1,)}),
                        "FilteredComplex(levels [0,1], CochainComplex([0:1]))"),
    "Subspace": (Subspace(3, [[1, 0, 0], [2, 0, 0], [0, 1, 0]]), "Subspace(dim 2 of QQ^3)"),
    "Subquotient": (Subquotient(PLANE, Subspace(2, [[1, 1]])),
                    "Subquotient(dim 1 = 2/1 in QQ^2)"),
}


@pytest.mark.parametrize("value,text", REPRS.values(), ids=REPRS.keys())
def test_repr_text_is_pinned(value, text):
    assert repr(value) == text
