"""Storage type of every matrix the builders produce on the shared corpora.

An integral value is stored as an int and only a value that is not
integral as a Fraction: no float, no bool and no integral Fraction in any
row of any builder's ExactMatrix.  The builders wrap their rows without a
check, so each matrix must also come back unchanged from the checking
constructor `ExactMatrix(rows, cols, row_maps)`."""

from fractions import Fraction as QQ

import pytest

import corpus
from helpers import dh, double, dv
from liekoszul import complexes, koszul
from liekoszul.cechp1 import cech_koszul
from liekoszul.complexes import is_quasi_isomorphism
from liekoszul.exactla import ExactMatrix, Subspace, image_basis, kernel_basis, qq
from liekoszul.hochserre import _adapted, _h_blocks, ce_complex
from liekoszul.lierinehart import (
    SectionV,
    WeightedPolyRing,
    ce_d,
    contraction,
    tangent_algebroid,
)


def assert_canonical_rows(rows, what):
    for row in rows:
        for x in row.values():
            assert type(x) is int or (type(x) is QQ and x.denominator != 1), (what, x)


def assert_canonical(m, what):
    """Canonical entries, and a matrix the checking constructor rebuilds
    unchanged: the row count, every column index in range, no stored zero."""
    assert_canonical_rows(m.row_maps, what)
    assert ExactMatrix(m.rows, m.cols, m.row_maps) == m, what


def _differentials(cplx):
    return [cplx.d(k) for k in range(cplx.lo, cplx.hi)]


def test_lie_rinehart_builders_store_canonical_entries():
    for name, lr in corpus.ce_algebroids():
        for p in range(lr.rank):
            for w in range(-2, 4):
                assert_canonical(ce_d(lr, p, w), (name, p, w))
    for name, lr, v in corpus.formality_instances():
        for p in range(1, lr.rank + 1):
            for w in range(-2, 4):
                assert_canonical(contraction(lr, v, p, w), (name, p, w))


def test_lie_algebra_builders_store_canonical_entries():
    for name, g, m in corpus.ce_lie_algebras():
        for d in _differentials(ce_complex(g, m)):
            assert_canonical(d, name)
    for name, g, h, m in corpus.hs_instances():
        g2, m2, k = _adapted(g, h, m)
        cplx = ce_complex(g2, m2)
        for d in _differentials(cplx):
            assert_canonical(d, name)
        hcomplex, actions = _h_blocks(g2, cplx, m2.dim, k)
        for d in _differentials(hcomplex):
            assert_canonical(d, name)
        for q, per_x in enumerate(actions):
            for x, a in enumerate(per_x, start=k):
                assert_canonical(a, (name, x, q))


@pytest.mark.parametrize("window", [1, 2])
def test_cech_koszul_cells_and_total_store_canonical_entries(window):
    for name, algebroid, section, untwisted in corpus.p1_instances():
        model = cech_koszul(algebroid, section, window, untwisted)
        cells = double(model)
        for p in range(cells.p_lo, cells.p_hi + 1):
            for q in range(cells.q_lo, cells.q_hi + 1):
                assert_canonical(dh(cells, p, q), (name, "dh", p, q))
                assert_canonical(dv(cells, p, q), (name, "dv", p, q))
        for d in _differentials(model.total):
            assert_canonical(d, (name, "total"))


def test_reduction_matrices_and_cones_store_canonical_entries(monkeypatch):
    built = []

    def reduction_matrix(*args):
        built.append(real_reduction_matrix(*args))
        return built[-1]

    def insert(echelon, row):   # inside is_quasi_isomorphism: the rows [f | d_D] of a cone
        cone_rows.append(dict(row))
        return real_insert(echelon, row)

    cone_rows = []
    real_reduction_matrix, real_insert = koszul._reduction_matrix, complexes._insert
    monkeypatch.setattr(koszul, "_reduction_matrix", reduction_matrix)
    monkeypatch.setattr(complexes, "_insert", insert)
    # (2x + z, 3y + 2z, 0): non-unit pivots in the ideal slices, so some normal
    # forms have entries that are not integral
    t3 = tangent_algebroid(WeightedPolyRing(3, (1, 1, 1)))
    rational = SectionV(t3, [{(1, 0, 0): 2, (0, 0, 1): 1}, {(0, 1, 0): 3, (0, 0, 1): 2}, {}])
    for name, lr, v in corpus.formality_instances() + [("tangent-n3/rational", t3, rational)]:
        for w in range(5):
            is_quasi_isomorphism(koszul.reduction_map(lr, v, w))
    assert built and cone_rows
    for m in built:
        assert_canonical(m, repr(m))
    assert_canonical_rows(cone_rows, "cone rows")
    assert any(type(x) is QQ for m in built for row in m.row_maps for x in row.values())


def test_integral_fraction_input_is_stored_as_int():
    assert [type(qq(x)) for x in (2, QQ(4, 2), "6/3", "1/2")] == [int, int, int, QQ]
    for bad in (True, "1/0", 0.5):
        with pytest.raises((TypeError, ValueError), match=repr(bad)):
            qq(bad)
    from_fraction = ExactMatrix.from_rows([[QQ(2), QQ(4, 2)], [QQ(1, 2), 0]])
    from_int = ExactMatrix.from_rows([[2, 2], ["1/2", 0]])
    assert from_fraction == from_int and hash(from_fraction) == hash(from_int)
    assert_canonical(from_int, "from_rows")
    assert type(from_fraction.row_maps[0][0]) is int
    assert_canonical(ExactMatrix(1, 2, [{0: QQ(6, 3), 1: QQ(1, 3)}]), "init")
    half = ExactMatrix.from_rows([[QQ(1, 2)]])
    assert_canonical(half @ ExactMatrix.from_rows([[2]]), "product")
    assert_canonical(half + half, "sum")
    assert_canonical(half.scaled(4), "scaled")
    # elimination divides by non-unit pivots: 4 / 2 is stored as 2, 3 / 2 as 3/2
    m = ExactMatrix.from_rows([[2, 4, 3], [6, 12, 8]])
    for rows in (Subspace(3, [[2, 4, 3], [6, 12, 8]]).sparse_basis,
                 kernel_basis(m).sparse_basis, image_basis(m.transpose()).sparse_basis):
        assert_canonical_rows(rows, "echelon rows")
    assert Subspace(3, [[2, 4, 3]]).sparse_basis == ({0: 1, 1: 2, 2: QQ(3, 2)},)
    rows = Subspace(3, [["1/2", 1, "3/4"]]).sparse_basis   # Fraction / Fraction
    assert rows == ({0: 1, 1: 2, 2: QQ(3, 2)},)
    assert_canonical_rows(rows, "Fraction pivot")
