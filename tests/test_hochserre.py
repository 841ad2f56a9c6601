import pytest

from liekoszul import hochserre
from liekoszul.complexes import betti
from liekoszul.exactla import ExactMatrix, Subspace
from liekoszul.hochserre import (
    GModule,
    LieAlgebra,
    LieAlgebraError,
    LieIdeal,
    ce_complex,
    expected_e2,
    hs_filtered,
    verify,
)
from liekoszul.specseq import compute_page, pairing, run

from helpers import betti_by_minors, level_dim, matrix_rows


HEIS = LieAlgebra(3, {(0, 1): [0, 0, 1]})
AFF1 = LieAlgebra(2, {(0, 1): [0, 1]})
FILIFORM4 = LieAlgebra(4, {(0, 1): [0, 0, 1, 0], (0, 2): [0, 0, 0, 1]})


def ideal(g, vectors):
    return LieIdeal(g, Subspace(g.dim, vectors))


def test_jacobi_rejected():
    with pytest.raises(LieAlgebraError):
        LieAlgebra(3, {(0, 1): [0, 0, 1], (0, 2): [1, 0, 0]})


def test_non_ideal_rejected():
    with pytest.raises(LieAlgebraError):
        ideal(AFF1, [[1, 0]])  # [e0, e1] = e1 escapes span(e0)


def test_module_validation():
    with pytest.raises(LieAlgebraError):
        # [e0,e1] = e1 must act as the commutator; constants cannot
        GModule(AFF1, 1, [ExactMatrix.from_rows([[1]]),
                          ExactMatrix.from_rows([[1]])])
    GModule(AFF1, 1, [ExactMatrix.from_rows([[1]]),
                      ExactMatrix.from_rows([[0]])])


def test_ce_complex_abelian():
    g = LieAlgebra(3, {})
    assert betti(ce_complex(g, GModule.trivial(g))) == {0: 1, 1: 3, 2: 3, 3: 1}


def test_ce_complex_two_dim_nonabelian():
    assert betti(ce_complex(AFF1, GModule.trivial(AFF1))) == {0: 1, 1: 1, 2: 0}
    c = ce_complex(AFF1, GModule.trivial(AFF1))
    dims = [c.dim(k) for k in c.degrees()]
    mats = [matrix_rows(c.d(k)) for k in range(c.lo, c.hi)]
    assert list(betti(c).values()) == betti_by_minors(dims, mats)


def test_ce_complex_heisenberg():
    c = ce_complex(HEIS, GModule.trivial(HEIS))
    assert betti(c) == {0: 1, 1: 2, 2: 2, 3: 1}
    dims = [c.dim(k) for k in c.degrees()]
    mats = [matrix_rows(c.d(k)) for k in range(c.lo, c.hi)]
    assert list(betti(c).values()) == betti_by_minors(dims, mats)


def test_ce_complex_sl2():
    # [h,e] = 2e, [h,f] = -2f, [e,f] = h on basis (h, e, f)
    sl2 = LieAlgebra(3, {(0, 1): [0, 2, 0], (0, 2): [0, 0, -2],
                         (1, 2): [1, 0, 0]})
    assert betti(ce_complex(sl2, GModule.trivial(sl2))) == {0: 1, 1: 0, 2: 0, 3: 1}
    std = GModule(sl2, 2, [
        ExactMatrix.from_rows([[1, 0], [0, -1]]),
        ExactMatrix.from_rows([[0, 1], [0, 0]]),
        ExactMatrix.from_rows([[0, 0], [1, 0]]),
    ])
    assert all(v == 0 for v in betti(ce_complex(sl2, std)).values())


def test_hs_filtration_levels():
    m = GModule.trivial(HEIS)
    h = ideal(HEIS, [[0, 0, 1]])
    f = hs_filtered(HEIS, h, m)
    # level dims: F_p Lambda^n = sum_{i <= n-p} C(dim h, i) C(dim g/h, n-i)
    from math import comb
    for n in range(0, 4):
        for p in range(0, 3):
            expected = sum(comb(1, i) * comb(2, n - i)
                           for i in range(0, n - p + 1) if n - i >= 0)
            assert level_dim(f, p, n) == expected


def test_hs_trivial_ideal():
    m = GModule.trivial(HEIS)
    h = ideal(HEIS, [])
    grid = expected_e2(HEIS, h, m)
    target = betti(ce_complex(HEIS, m))
    for (p, q), dim in grid.items():
        assert dim == (target.get(p, 0) if q == 0 else 0)
    assert verify(HEIS, h, m).ok


def test_hs_whole_algebra_ideal():
    m = GModule.trivial(HEIS)
    h = ideal(HEIS, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    f = hs_filtered(HEIS, h, m)
    page0 = compute_page(pairing(f), 0)
    from math import comb
    for n in range(0, 4):
        assert page0.entry_dim(0, n) == comb(3, n)
    assert verify(HEIS, h, m).ok


@pytest.mark.parametrize("vectors", [[], [[0, 0, 1]], [[0, 1, 0], [0, 0, 1]],
                                     [[1, 0, 0], [0, 1, 0], [0, 0, 1]]])
def test_verify_builds_each_complex_once(monkeypatch, vectors):
    # the adapted complex, one complex of g/h per q = 0..k and the original:
    # C(h, M) is a block of the adapted complex, never built on its own
    real, dims = hochserre.ce_complex, []

    def counting(g, m):
        dims.append(g.dim)
        return real(g, m)

    monkeypatch.setattr(hochserre, "ce_complex", counting)
    h = ideal(HEIS, vectors)
    assert verify(HEIS, h, GModule.trivial(HEIS)).ok
    k = h.dim
    assert dims == [3] + [3 - k] * (k + 1) + [3]


def test_heisenberg_center_grid_and_limit():
    m = GModule.trivial(HEIS)
    h = ideal(HEIS, [[0, 0, 1]])
    grid = expected_e2(HEIS, h, m)
    assert {k: v for k, v in grid.items() if v} == {
        (0, 0): 1, (1, 0): 2, (2, 0): 1,
        (0, 1): 1, (1, 1): 2, (2, 1): 1,
    }
    assert verify(HEIS, h, m).ok
    totals = run(hs_filtered(HEIS, h, m)).infinity_totals()
    assert {k: v for k, v in totals.items() if v} == {0: 1, 1: 2, 2: 2, 3: 1}
    # the transgression d_2 is nonzero here: page 2 differs from the limit
    page2 = compute_page(pairing(hs_filtered(HEIS, h, m)), 2)
    assert sum(page2.dims().values()) > sum(totals.values())


def test_aff1_nilradical():
    m = GModule.trivial(AFF1)
    h = ideal(AFF1, [[0, 1]])
    grid = expected_e2(AFF1, h, m)
    assert {k: v for k, v in grid.items() if v} == {(0, 0): 1, (1, 0): 1}
    assert verify(AFF1, h, m).ok


def test_aff1_nontrivial_module():
    mod = GModule(AFF1, 1, [ExactMatrix.from_rows([[1]]),
                            ExactMatrix.from_rows([[0]])])
    h = ideal(AFF1, [[0, 1]])
    grid = expected_e2(AFF1, h, mod)
    assert {k: v for k, v in grid.items() if v} == {(0, 1): 1, (1, 1): 1}
    assert betti(ce_complex(AFF1, mod)) == {0: 0, 1: 1, 2: 1}
    assert verify(AFF1, h, mod).ok


def test_filiform4_center_and_derived():
    m = GModule.trivial(FILIFORM4)
    assert verify(FILIFORM4, ideal(FILIFORM4, [[0, 0, 0, 1]]), m).ok
    assert verify(FILIFORM4, ideal(FILIFORM4, [[0, 0, 1, 0], [0, 0, 0, 1]]), m).ok


def test_limit_totals_equal_betti_always():
    instances = [
        (HEIS, [[0, 0, 1]], GModule.trivial(HEIS)),
        (AFF1, [[0, 1]], GModule.trivial(AFF1)),
        (FILIFORM4, [[0, 0, 0, 1]], GModule.trivial(FILIFORM4)),
    ]
    for g, hv, m in instances:
        totals = run(hs_filtered(g, ideal(g, hv), m)).infinity_totals()
        target = betti(ce_complex(g, m))
        for n in range(0, g.dim + 1):
            assert totals.get(n, 0) == target.get(n, 0)
