import pytest

from liekoszul import hochserre
from liekoszul.complexes import betti, cohomology
from liekoszul.exactla import ExactMatrix, Subspace, induced_map
from liekoszul.hochserre import (
    GModule,
    LieAlgebra,
    LieAlgebraError,
    LieIdeal,
    MalformedLieAlgebra,
    _adapted,
    _h_blocks,
    _quotient_algebra,
    ce_complex,
    expected_e2,
    hs_filtered,
    verify,
)
from liekoszul.specseq import compute_page, run

import corpus
from helpers import betti_by_minors, level_dim, matrix_rows


HEIS = LieAlgebra(3, {(0, 1): [0, 0, 1]})
AFF1 = LieAlgebra(2, {(0, 1): [0, 1]})
FILIFORM4 = LieAlgebra(4, {(0, 1): [0, 0, 1, 0], (0, 2): [0, 0, 0, 1]})


def ideal(g, vectors):
    return LieIdeal(g, Subspace(g.dim, vectors))


def test_jacobi_rejected():
    with pytest.raises(LieAlgebraError):
        LieAlgebra(3, {(0, 1): [0, 0, 1], (0, 2): [1, 0, 0]})


def test_negative_dimension_rejected():
    # a negative dim would build, and fail later in `GModule.trivial`
    with pytest.raises(MalformedLieAlgebra, match="dim must not be negative, got -2"):
        LieAlgebra(-2, {})
    assert LieAlgebra(0, {}).dim == 0


def test_module_negative_dimension_rejected():
    # a negative module dim would build, and `ce_complex` would give Betti {0: -3}
    with pytest.raises(MalformedLieAlgebra, match="module dim must not be negative, got -3"):
        GModule(LieAlgebra(0, {}), -3, [])
    assert GModule(LieAlgebra(0, {}), 0, []).dim == 0


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
    # the pairs checked are those that can fail: [e0, e1] = 0 with two
    # actions that do not commute
    with pytest.raises(LieAlgebraError, match=r"on \(e0, e1\)"):
        GModule(LieAlgebra(2, {}), 2, [ExactMatrix.from_rows([[0, 1], [0, 0]]),
                                       ExactMatrix.from_rows([[0, 0], [1, 0]])])
    # a bracket pair where only one side acts: rho[e0, e1] = rho(e1) != 0
    with pytest.raises(LieAlgebraError, match=r"on \(e0, e1\)"):
        GModule(AFF1, 1, [ExactMatrix.from_rows([[0]]), ExactMatrix.from_rows([[1]])])


def test_trivial_module_multiplies_no_matrices(monkeypatch):
    def no_product(a, b):
        raise AssertionError("GModule.trivial multiplied matrices")

    algebras = [HEIS, AFF1, FILIFORM4, corpus.sl2_standard()[0], corpus.heisenberg(3)]
    monkeypatch.setattr(ExactMatrix, "__matmul__", no_product)
    for g in algebras:
        assert GModule.trivial(g).actions == (ExactMatrix.zeros(1, 1),) * g.dim


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
    page0 = compute_page(run(f), 0)
    from math import comb
    for n in range(0, 4):
        assert page0.entry_dim(0, n) == comb(3, n)
    assert verify(HEIS, h, m).ok


@pytest.mark.parametrize("vectors", [[], [[0, 0, 1]], [[0, 1, 0], [0, 0, 1]],
                                     [[1, 0, 0], [0, 1, 0], [0, 0, 1]]])
def test_verify_builds_each_complex_once(monkeypatch, vectors):
    # the adapted complex and one complex of g/h per q = 0..k: C(h, M) is a
    # block of the adapted complex, and the Betti numbers are read off it
    real, dims = hochserre.ce_complex, []

    def counting(g, m):
        dims.append(g.dim)
        return real(g, m)

    monkeypatch.setattr(hochserre, "ce_complex", counting)
    h = ideal(HEIS, vectors)
    assert verify(HEIS, h, GModule.trivial(HEIS)).ok
    k = h.dim
    assert dims == [3] + [3 - k] * (k + 1)


@pytest.mark.parametrize("g,h,m", [pytest.param(*x[1:], id=x[0])
                                   for x in corpus.hs_instances()])
def test_verify_betti_is_that_of_the_original_complex(g, h, m):
    # the E_inf totals of the adapted complex's pairing against the rank path
    # of `betti` on the complex in the original basis
    assert verify(g, h, m).infinity_totals == betti(ce_complex(g, m))


@pytest.mark.parametrize("g,h,m", [pytest.param(*x[1:], id=x[0])
                                   for x in corpus.hs_instances()])
def test_adapted_brackets_of_the_ideal_stay_in_the_ideal(g, h, m):
    g2, _, k = _adapted(g, h, m)
    assert all(max(cs) < k for (a, _), cs in g2.brackets.items() if a < k)


def _checked(g):
    """g rebuilt through the checked constructor, from dense coefficient lists."""
    return LieAlgebra(g.dim, {pair: [cs.get(s, 0) for s in range(g.dim)]
                              for pair, cs in g.brackets.items()})


def _adjoint(g):
    """The adjoint module: e_i acts by [e_i, -], column j holding [e_i, e_j]."""
    def ad(i):
        cols = [g.bracket({i: 1}, {j: 1}) for j in range(g.dim)]
        return ExactMatrix.from_columns(g.dim, [[c.get(s, 0) for s in range(g.dim)]
                                                for c in cols])
    return GModule(g, g.dim, [ad(i) for i in range(g.dim)])


def _derived_instances():
    out = [pytest.param(*x[1:], id=x[0]) for x in corpus.hs_instances()]
    for name, g, vectors in [("heisenberg/center", HEIS, [[0, 0, 1]]),
                             ("aff1/nilradical", AFF1, [[0, 1]]),
                             ("filiform4/derived", FILIFORM4, [[0, 0, 1, 0], [0, 0, 0, 1]])]:
        out.append(pytest.param(g, ideal(g, vectors), _adjoint(g), id=f"{name}-adjoint"))
    return out


@pytest.mark.parametrize("g,h,m", _derived_instances())
def test_derived_algebras_and_modules_pass_the_checks(g, h, m):
    # hs does not re-prove these: the adapted algebra and module, g/h and
    # each H^q(h, M) satisfy Jacobi and the module identity because g and M do
    g2, m2, k = _adapted(g, h, m)
    assert _checked(g2).brackets == g2.brackets
    GModule(_checked(g2), m2.dim, m2.actions)
    quot = _checked(_quotient_algebra(g2, k))
    hcomplex, actions = _h_blocks(g2, ce_complex(g2, m2), m2.dim, k)
    for q, hq in cohomology(hcomplex).items():
        GModule(quot, hq.dim, [induced_map(a, hq, hq) for a in actions[q]])
    assert verify(g, h, m).ok


@pytest.mark.parametrize("driver", [verify, expected_e2, hs_filtered])
def test_hs_drivers_check_no_algebra_or_module_again(monkeypatch, driver):
    instances = [x[1:] for x in corpus.hs_instances()]
    checked = []
    for cls in (LieAlgebra, GModule):
        def spy(self, *args, real=cls.__init__, name=cls.__name__):
            checked.append(name)
            real(self, *args)

        monkeypatch.setattr(cls, "__init__", spy)
    for g, h, m in instances:
        driver(g, h, m)
    assert checked == []


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
    page2 = compute_page(run(hs_filtered(HEIS, h, m)), 2)
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
