import random
import re
from fractions import Fraction as QQ

import pytest

from liekoszul import cechp1, complexes, exactla, hochserre, lierinehart
from liekoszul.exactla import (
    ExactMatrix,
    LinearAlgebraError,
    NotFiltrationCompatibleError,
    OutsideCyclesError,
    Subquotient,
    Subspace,
    image_basis,
    induced_map,
    coordinates,
    integer,
    integers,
    kernel_basis,
    qq,
    rank,
    sized,
    solve_batch,
)

from helpers import apply, cell_dim, dense, from_columns, matrix_rows, rank_by_minors, units
from oracle import dense_kernel, dense_rref, dense_solve


def test_kernel_zero_matrix_is_full_space():
    k = kernel_basis(ExactMatrix.zeros(2, 2))
    assert k.dim == 2
    assert k == Subspace(2, units(2))


def test_kernel_identity_is_zero():
    assert kernel_basis(ExactMatrix.from_rows(units(2))).dim == 0


def test_kernel_rank_one_example():
    m = ExactMatrix.from_rows([[1, 2], [2, 4]])
    k = kernel_basis(m)
    assert k.dim == 1
    assert Subspace(2, [[-2, 1]]) == k
    # canonical echelon basis of the same line
    assert dense(k) == ((QQ(1), QQ(-1, 2)),)


def test_image_examples():
    assert image_basis(ExactMatrix.from_rows(units(3))) == Subspace(3, units(3))
    assert image_basis(ExactMatrix.zeros(3, 2)).dim == 0
    m = ExactMatrix.from_rows([[1, 2], [2, 4]])
    img = image_basis(m)
    assert img.dim == 1
    assert img.dim == rank_by_minors(matrix_rows(m))


def test_rank_nullity_on_random_matrices():
    rng = random.Random(7)
    for _ in range(25):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = ExactMatrix.from_rows([[QQ(rng.randrange(-3, 4)) for _ in range(cols)]
                                   for _ in range(rows)])
        assert kernel_basis(m).dim + image_basis(m).dim == cols
        assert image_basis(m).dim == rank_by_minors(matrix_rows(m))


def test_echelonization_idempotent_and_deterministic():
    rng = random.Random(11)
    for _ in range(20):
        vecs = [[QQ(rng.randrange(-3, 4)) for _ in range(4)] for _ in range(3)]
        s = Subspace(4, vecs)
        again = Subspace(4, dense(s))
        assert s == again
        assert list(s.pivots) == sorted(s.pivots)


def test_subspace_operations():
    a = Subspace(3, [[1, 0, 0], [0, 1, 0]])
    b = Subspace(3, [[0, 1, 0], [0, 0, 1]])
    inter = a.intersect(b)
    assert inter == Subspace(3, [[0, 1, 0]])
    m = ExactMatrix.from_rows([[1, 0], [0, 1], [0, 0]])
    pre = Subspace(3, [[1, 0, 0]]).preimage_under(m)
    assert pre == Subspace(2, [[1, 0]])


def test_solve_consistency():
    m = ExactMatrix.from_rows([[1, 2], [3, 4]])
    [x] = solve_batch(m, [[5, 11]])
    assert x is not None and apply(m, x) == (QQ(5), QQ(11))
    assert solve_batch(ExactMatrix.zeros(2, 2), [[1, 0]]) == [None]


class TestSubquotient:
    def plane_mod_line(self):
        cycles = Subspace(3, [[1, 0, 0], [0, 1, 0]])
        boundaries = Subspace(3, [[1, 1, 0]])
        return Subquotient(cycles, boundaries)

    def test_zero_class(self):
        s = self.plane_mod_line()
        assert s.dim == 1
        assert s.class_coordinates_batch([[0, 0, 0]]) == [(QQ(0),)]

    def test_boundary_is_zero_class(self):
        s = self.plane_mod_line()
        assert s.class_coordinates_batch([[1, 1, 0], [2, 2, 0]]) == [(QQ(0),)] * 2

    def test_off_line_class_is_nonzero(self):
        s = self.plane_mod_line()
        [coords] = s.class_coordinates_batch([[1, 0, 0]])
        assert coords != (QQ(0),)

    def test_outside_cycles_signalled(self):
        s = self.plane_mod_line()
        with pytest.raises(OutsideCyclesError):
            s.class_coordinates_batch([[0, 0, 1]])

    def test_boundaries_must_be_contained(self):
        for cycles, boundaries in [
            ([[1, 0, 0], [0, 1, 0]], [[0, 0, 1]]),             # dim B < dim C
            ([[1, 0, 0]], [[0, 1, 0]]),                        # dim B = dim C
            ([[1, 0, 0]], [[0, 1, 0], [0, 0, 1]]),             # dim B > dim C
            ([[1, 0, 0], [0, 1, 0]], [[1, 1, 0], [0, 1, 1]]),  # B meets C in a line
        ]:
            with pytest.raises(LinearAlgebraError,
                               match="boundaries are not contained in cycles"):
                Subquotient(Subspace(3, cycles), Subspace(3, boundaries))


class TestInducedMap:
    def test_identity(self):
        s = Subquotient(Subspace(3, [[1, 0, 0], [0, 1, 0]]),
                        Subspace(3, [[1, 1, 0]]))
        m = induced_map(ExactMatrix.from_rows(units(3)), s, s)
        assert m == ExactMatrix.from_rows(units(s.dim))

    def test_zero(self):
        s = Subquotient(Subspace(2, [[1, 0]]), Subspace.zero_space(2))
        m = induced_map(ExactMatrix.zeros(2, 2), s, s)
        assert m.is_zero()

    def test_two_one_onto_one_zero(self):
        # quotient map QQ^2 (cycles all, boundaries e1) -> QQ (all mod 0)
        src = Subquotient(Subspace(2, units(2)), Subspace(2, [[1, 0]]))
        dst = Subquotient(Subspace(1, units(1)), Subspace.zero_space(1))
        f = ExactMatrix.from_rows([[0, 1]])
        m = induced_map(f, src, dst)
        assert (m.rows, m.cols) == (1, 1)
        # brute force: the surviving representative of src maps to its image
        [rep] = dense(src)
        assert dense(m.transpose()) == tuple(dst.class_coordinates_batch([apply(f, rep)]))

    def test_rejects_incompatible(self):
        src = Subquotient(Subspace(2, units(2)), Subspace.zero_space(2))
        dst = Subquotient(Subspace(2, [[1, 0]]), Subspace.zero_space(2))
        with pytest.raises(NotFiltrationCompatibleError):
            induced_map(ExactMatrix.from_rows(units(2)), src, dst)

    def test_composition_functorial(self):
        rng = random.Random(3)
        for _ in range(10):
            f = ExactMatrix.from_rows([[QQ(rng.randrange(-2, 3)) for _ in range(3)]
                                       for _ in range(3)])
            g = ExactMatrix.from_rows([[QQ(rng.randrange(-2, 3)) for _ in range(3)]
                                       for _ in range(3)])
            s = Subquotient(Subspace(3, units(3)), Subspace.zero_space(3))
            lhs = induced_map(g @ f, s, s)
            rhs = induced_map(g, s, s) @ induced_map(f, s, s)
            assert lhs == rhs


# -- the sparse kernel against the dense reference ----------------------------

def _random_rows(rng, nrows, ncols, density):
    entries = (-3, -2, -1, 1, 2, 3)
    return [[QQ(rng.choice(entries), rng.choice((1, 1, 2, 3)))
             if rng.random() < density else QQ(0) for _ in range(ncols)]
            for _ in range(nrows)]


def _matrix(rows, ncols):
    if not rows:
        return ExactMatrix.zeros(0, ncols)
    return ExactMatrix.from_rows(rows)


def kernel_corpus(seed=20261018, count=120, max_side=5):
    """(dense rows, column count) of seeded random matrices, sparse and dense:
    empty shapes, zero rows and columns, and rows that are combinations of
    others, whose entries cancel to 0 during elimination."""
    rng = random.Random(seed)
    out = [([], 0), ([], 4), ([[QQ(0)] * 0] * 3, 0), ([[QQ(0)] * 3] * 2, 3)]
    for _ in range(count):
        nrows, ncols = rng.randrange(0, max_side + 1), rng.randrange(0, max_side + 1)
        rows = _random_rows(rng, nrows, ncols, rng.choice((0.2, 0.5, 1.0)))
        if nrows >= 3 and rng.random() < 0.6:
            a, b = rng.sample(range(nrows - 1), 2)
            c = QQ(rng.choice((-2, -1, 1, 2)), rng.choice((1, 3)))
            rows[-1] = [x + c * y for x, y in zip(rows[a], rows[b])]
        if nrows and rng.random() < 0.3:
            rows[rng.randrange(nrows)] = [QQ(0)] * ncols
        if ncols and rng.random() < 0.3:
            j = rng.randrange(ncols)
            for row in rows:
                row[j] = QQ(0)
        out.append((rows, ncols))
    return out


def dense_corpus(seed=20261019, count=40, max_side=5):
    """(dense rows, column count) of seeded matrices with no zero entry and
    denominators up to 97; some last rows are combinations of others."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        nrows, ncols = rng.randrange(1, max_side + 1), rng.randrange(1, max_side + 1)
        rows = [[QQ(rng.choice((-1, 1)) * rng.randrange(1, 100), rng.randrange(1, 98))
                 for _ in range(ncols)] for _ in range(nrows)]
        if nrows >= 3 and rng.random() < 0.5:
            a, b = rng.sample(range(nrows - 1), 2)
            c = QQ(rng.randrange(1, 10), rng.randrange(1, 98))
            rows[-1] = [x + c * y for x, y in zip(rows[a], rows[b])]
        out.append((rows, ncols))
    return out


def _columns(rows, ncols):
    return [[row[j] for row in rows] for j in range(ncols)]


def test_rank_kernel_image_match_dense_reference_and_minors():
    for rows, ncols in kernel_corpus() + dense_corpus():
        m = _matrix(rows, ncols)
        red, _ = dense_rref(rows)
        assert rank(m) == len(red) == rank_by_minors(rows)
        ker = kernel_basis(m)
        assert dense(ker) == tuple(dense_kernel(rows, ncols))
        assert not any(m.images(ker.sparse_basis))
        img = image_basis(m)
        assert dense(img) == tuple(dense_rref(_columns(rows, ncols))[0])
        assert ker.dim + img.dim == ncols


def _fractions(values):
    return all(type(x) is QQ for x in values)


def test_dense_views_return_fractions():
    # Entries are stored as int where integral; every dense view converts them.
    rng = random.Random(31)
    for rows, ncols in kernel_corpus():
        m = _matrix(rows, ncols)
        b = apply(m, tuple(rng.randrange(-2, 3) for _ in range(ncols)))
        assert all(_fractions(x) for x in solve_batch(m, [b, (0,) * m.rows]))
        sq = Subquotient(Subspace(ncols, units(ncols)), kernel_basis(m))
        v = [rng.randrange(-2, 3) for _ in range(ncols)]
        assert all(_fractions(c) for c in sq.class_coordinates_batch([v, (0,) * ncols]))


def test_larger_sparse_matrices_match_dense_reference():
    rng = random.Random(5)
    for _ in range(15):
        nrows, ncols = rng.randrange(8, 16), rng.randrange(8, 16)
        rows = _random_rows(rng, nrows, ncols, 0.15)
        rows.append([x - y for x, y in zip(rows[0], rows[1])])
        m = ExactMatrix.from_rows(rows)
        assert rank(m) == len(dense_rref(rows)[0])
        assert dense(kernel_basis(m)) == tuple(dense_kernel(rows, ncols))
        assert dense(image_basis(m)) == tuple(dense_rref(_columns(rows, ncols))[0])


def test_solve_batch_matches_dense_reference():
    rng = random.Random(17)
    for rows, ncols in kernel_corpus(seed=99, count=80):
        m = _matrix(rows, ncols)
        consistent = apply(m, tuple(QQ(rng.randrange(-2, 3)) for _ in range(ncols)))
        arbitrary = tuple(QQ(rng.randrange(-2, 3)) for _ in range(m.rows))
        zero = (QQ(0),) * m.rows
        rhs = [consistent, arbitrary, zero]
        sols = solve_batch(m, rhs)
        for b, x in zip(rhs, sols):
            assert x == dense_solve(rows, ncols, b)
            if x is not None:
                assert apply(m, x) == b
        assert sols[0] is not None and sols[2] == (QQ(0),) * ncols


def test_subspace_basis_is_the_dense_rref():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randrange(1, 7)
        vecs = _random_rows(rng, rng.randrange(0, 6), n, rng.choice((0.3, 1.0)))
        s = Subspace(n, vecs)
        assert dense(s) == tuple(dense_rref(vecs)[0])
        assert s.pivots == tuple(dense_rref(vecs)[1])


def test_equality_and_hash_ignore_explicit_zeros():
    a = ExactMatrix(2, 3, [{0: 1, 1: 0}, {2: QQ(0)}])
    b = ExactMatrix(2, 3, [{0: QQ(1)}, {}])
    c = ExactMatrix.from_rows([[1, 0, 0], [0, 0, 0]])
    assert a == b == c
    assert hash(a) == hash(b) == hash(c)
    assert a.row_maps == ({0: QQ(1)}, {})
    assert a != ExactMatrix.from_rows([[1, 0, 0], [0, 0, 1]])
    assert a != ExactMatrix.zeros(2, 4)
    assert ExactMatrix.zeros(2, 3) == ExactMatrix(2, 3, [{1: "0"}, {0: 0, 2: QQ(0)}])
    # the same nonzeros given in another order
    d = ExactMatrix(1, 3, [{2: 1, 0: "1/2"}])
    assert d == ExactMatrix.from_rows([["1/2", 0, 1]])
    assert hash(d) == hash(ExactMatrix.from_rows([["1/2", 0, 1]]))
    assert Subspace(2, [[1, 0], [0, 0]]) == Subspace(2, [[2, 0]])
    assert hash(Subspace(2, [[1, 0], [0, 0]])) == hash(Subspace(2, [[2, 0]]))


def test_constructor_rejects_bad_shapes():
    with pytest.raises(Exception):
        ExactMatrix(2, 2, [{0: 1}])          # one row short
    with pytest.raises(Exception):
        ExactMatrix(1, 2, [{2: 1}])          # column index out of range
    with pytest.raises(Exception):
        ExactMatrix.from_rows([[1, 2], [3]])


def test_product_with_cancelling_terms_is_zero():
    a = ExactMatrix.from_rows([[1, 1], [2, -1]])
    b = ExactMatrix.from_rows([[1, 0], [-1, 0]])
    prod = ExactMatrix.from_rows([[1, 1]]) @ b
    assert prod.is_zero() and prod == ExactMatrix.zeros(1, 2)
    assert prod.row_maps == ({},)
    assert not (a @ b).is_zero()
    assert (a @ b) == ExactMatrix.from_rows([[0, 0], [3, 0]])
    assert (a + (-a)).is_zero()
    half = ExactMatrix.from_rows([[0, 0], [1, 2]])
    assert a + half == half + a == ExactMatrix.from_rows([[1, 1], [3, 1]])
    assert ExactMatrix.zeros(2, 2) + half == half + ExactMatrix.zeros(2, 2) == half
    assert (a + a.scaled(-1)).row_maps == ({}, {})
    assert a.transpose().transpose() == a
    assert a.scaled(0).is_zero()


# -- parsing rationals --------------------------------------------------------

PARSER_CORPUS = ["0", "-0", "+3", " 3 ", "6/3", "0/7", "-3/4", "1/0", "-1/00", "3/-4",
                 "--3", "-", "/3", "3/", "1_0", "\u0661\u0662", "\u00b2", "1.5", "1e3"]


def seeded_ratios(seed=20261022, count=500):
    """'a/b' strings: signed numerators up to 12 digits, denominators 0..40."""
    rng = random.Random(seed)
    return [f"{rng.choice(('', '-'))}{rng.randrange(10 ** rng.randint(1, 12))}"
            f"/{rng.randrange(41)}" for _ in range(count)]


def test_qq_parses_strings_as_fraction_does():
    # qq(s) == Fraction(s.strip()), an int when integral; where Fraction
    # raises (ValueError, or ZeroDivisionError for a zero denominator) qq
    # raises ValueError naming the string.
    refused = 0
    for s in PARSER_CORPUS + seeded_ratios():
        try:
            expected = QQ(s.strip())
        except (ValueError, ZeroDivisionError):
            with pytest.raises(ValueError, match=re.escape(repr(s))) as exc:
                qq(s)
            assert type(exc.value) is ValueError
            refused += 1
            continue
        got = qq(s)
        assert got == expected, s
        assert type(got) is (int if expected.denominator == 1 else QQ), s
    assert refused >= 15


# -- the integer, key and list readers -----------------------------------------

# Each library constructor that takes an integer, with the error class of its
# layer and a reader of the integer it stored.  `int` reads 1.5, True and "1"
# all as 1; each site refuses all three.
ONE_VARIABLE = lierinehart.WeightedPolyRing(1, (1,))
DEGREE_0 = cechp1.AlgebroidOnP1(0)
ZERO_SECTION = cechp1.EquivariantSection(DEGREE_0, (0, 0, 0))
INTEGER_SITES = {
    "laurent-exponent": (ValueError, lambda x: cechp1.SheafOnP1(1, [[{x: 1}]]),
                         lambda s: next(iter(s.transition[0][0]))),
    "degree": (ValueError, cechp1.AlgebroidOnP1, lambda a: a.degree),
    "window": (ValueError,
               lambda x: cechp1.window_checked(DEGREE_0, ZERO_SECTION, x),
               lambda model: model.window),
    # h^0 O(1) = 2 at every window: the stored read is the returned count
    "row-window": (ValueError, lambda x: cechp1.cech_cohomology(cechp1.line_bundle(1), x),
                   lambda dims: dims[0]),
    "sheaf-rank": (ValueError, lambda x: cechp1.SheafOnP1(x, [[1, 0], [0, 1]]),
                   lambda sheaf: sheaf.rank),
    # Lambda^2 D* read back as its position among the wedge duals
    "wedge-power": (ValueError, DEGREE_0.wedge_dual,
                    lambda sheaf: DEGREE_0._duals.index(sheaf)),
    "variable-count": (lierinehart.MalformedPresentation,
                       lambda x: lierinehart.WeightedPolyRing(x, (1, 1)), lambda r: r.nvars),
    "lie-algebra-dim": (hochserre.MalformedLieAlgebra, lambda x: hochserre.LieAlgebra(x, {}),
                        lambda g: g.dim),
    "module-dim": (hochserre.MalformedLieAlgebra,
                   lambda x: hochserre.GModule(hochserre.LieAlgebra(0, {}), x, []),
                   lambda m: m.dim),
    "variable-weight": (lierinehart.MalformedPresentation,
                        lambda x: lierinehart.WeightedPolyRing(1, (x,)), lambda r: r.weights[0]),
    "generator-weight": (lierinehart.MalformedPresentation,
                         lambda x: lierinehart.LieRinehartPresentation(ONE_VARIABLE, [x],
                                                                       [[{}]], {}),
                         lambda lr: lr.gen_weights[0]),
    "bracket-key": (ValueError,
                    lambda x: list(lierinehart._bracket_entries({(0, x): [0, 0, 0]}, 3,
                                                                ValueError)),
                    lambda entries: entries[0][2]),
    "monomial-exponent": (lierinehart.MalformedPresentation,
                          lambda x: lierinehart.poly({(x,): 1}, 1), lambda p: next(iter(p))[0]),
    "dim": (complexes.ComplexError, lambda x: complexes.CochainComplex(0, 0, [x], []),
            lambda c: c.dim(0)),
    "double-dim": (complexes.ComplexError,
                   lambda x: complexes.DoubleComplex(0, 0, 0, 0, {(0, 0): x}, {}, {}),
                   lambda d: cell_dim(d, 0, 0)),
    "level": (complexes.ComplexError,
              lambda x: complexes.FilteredComplex(complexes.CochainComplex(0, 0, [1], []),
                                                  0, 2, {0: [x]}),
              lambda f: f.levels[0][0]),
}


@pytest.mark.parametrize("bad", [1.5, True, "1"], ids=["fraction", "bool", "string"])
@pytest.mark.parametrize("site", INTEGER_SITES)
def test_every_integer_site_refuses_what_int_would_truncate(site, bad):
    error, build, stored = INTEGER_SITES[site]
    with pytest.raises(error, match=re.escape(repr(bad))):
        build(bad)
    value = stored(build(2.0))
    assert value == 2 and type(value) is int


def test_integer_reads_integral_numbers_only():
    assert [integer(x, "w", ValueError) for x in (3, -2.0, QQ(4, 2))] == [3, -2, 2]
    for bad in (True, False, 2.5, "2", QQ(1, 2), None, float("inf"), float("nan")):
        with pytest.raises(KeyError, match=re.escape(f"w must be an integer, got {bad!r}")):
            integer(bad, "w", KeyError)


def test_integers_read_a_key_of_n_integers():
    assert integers("1,-2", 2, "key", ValueError) == (1, -2)
    assert integers((3, 4.0), 2, "key", ValueError) == (3, 4)
    assert integers("", 0, "key", ValueError) == ()
    for short in ("1", (1,), ""):
        with pytest.raises(ValueError, match=re.escape(f"key {short!r} must be 2 ")):
            integers(short, 2, "key", ValueError)
    for bad in ("1,a", "1,1.5", (1, 0.5), (1, True), ("1", "2"), 5, None):
        with pytest.raises(ValueError, match=re.escape(f"key {bad!r} must be 2 comma-separated")):
            integers(bad, 2, "key", ValueError)


def test_sized_reads_a_list_of_n_entries():
    assert sized([1, 2], 2, "v", ValueError) == [1, 2]
    assert sized((1, 2), 2, "v", ValueError) == (1, 2)
    for bad, got in (([1], 1), ((1, 2, 3), 3), (5, "int"), ("ab", "str"), ({0: 1, 1: 2}, "dict")):
        with pytest.raises(ValueError, match=f"v must be a list of 2 entries, got {got}$"):
            sized(bad, 2, "v", ValueError)


# -- coordinates in a sparse basis --------------------------------------------

def test_coordinates_solve_and_check():
    # basis (1, 2, 0), (0, 1, 1) of a plane in QQ^3; X column j = coords of target j
    basis = [{0: 1, 1: 2}, {1: 1, 2: 1}]
    x = coordinates(basis, 3, [{0: 2, 1: 5, 2: 1}, {}, {1: QQ(1, 2), 2: QQ(1, 2)}])
    assert x == ExactMatrix.from_rows([[2, 0, 0], [1, 0, QQ(1, 2)]])
    assert coordinates([], 0, []) == ExactMatrix.zeros(0, 0)
    with pytest.raises(LinearAlgebraError):
        coordinates(basis, 3, [{2: 1}])                   # outside the span
    with pytest.raises(LinearAlgebraError):
        coordinates(basis + [{0: 1, 1: 3, 2: 1}], 3, [])  # dependent basis


def test_coordinates_check_their_product(monkeypatch):
    # An elimination that returns a wrong target block must not go unnoticed.
    real = exactla._rref

    def off_by_one(rows, reduced=True):
        out, pivots = real(rows, reduced)
        out[0] = {**out[0], 2: out[0].get(2, 0) + 1}
        return out, pivots

    basis = [{0: 1}, {1: 1}]
    assert coordinates(basis, 2, [{0: 1}]) == ExactMatrix.from_rows([[1], [0]])
    monkeypatch.setattr(exactla, "_rref", off_by_one)
    with pytest.raises(LinearAlgebraError, match="B X = T"):
        coordinates(basis, 2, [{0: 1}])


def test_coordinates_match_dense_solve():
    rng = random.Random(29)
    for rows, ncols in kernel_corpus(seed=41, count=80):
        basis = Subspace(ncols, rows)
        if not basis.dim:
            continue
        m = from_columns(ncols, dense(basis))
        targets = [apply(m, [QQ(rng.randrange(-2, 3), rng.choice((1, 2)))
                             for _ in range(basis.dim)]) for _ in range(3)]
        x = coordinates(basis.sparse_basis, ncols,
                        [{i: qq(c) for i, c in enumerate(t) if c} for t in targets])
        for j, t in enumerate(targets):
            ref = dense_solve(dense(m), m.cols, t)
            assert dense(x.transpose())[j] == ref
