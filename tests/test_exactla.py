import random
from fractions import Fraction as QQ

import pytest

from liekoszul.exactla import (
    ExactMatrix,
    NotFiltrationCompatibleError,
    OutsideCyclesError,
    Subquotient,
    Subspace,
    image_basis,
    induced_map,
    kernel_basis,
    solve,
)

from helpers import rank_by_minors, matrix_rows


def test_kernel_zero_matrix_is_full_space():
    k = kernel_basis(ExactMatrix.zeros(2, 2))
    assert k.dim == 2
    assert k == Subspace.full_space(2)


def test_kernel_identity_is_zero():
    assert kernel_basis(ExactMatrix.identity(2)).dim == 0


def test_kernel_rank_one_example():
    m = ExactMatrix.from_rows([[1, 2], [2, 4]])
    k = kernel_basis(m)
    assert k.dim == 1
    assert k.contains([-2, 1])
    # canonical echelon basis of the same line
    assert k.basis == ((QQ(1), QQ(-1, 2)),)


def test_image_examples():
    assert image_basis(ExactMatrix.identity(3)) == Subspace.full_space(3)
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
        m = ExactMatrix(rows, cols,
                        [QQ(rng.randrange(-3, 4)) for _ in range(rows * cols)])
        assert kernel_basis(m).dim + image_basis(m).dim == cols
        assert image_basis(m).dim == rank_by_minors(matrix_rows(m))


def test_echelonization_idempotent_and_deterministic():
    rng = random.Random(11)
    for _ in range(20):
        vecs = [[QQ(rng.randrange(-3, 4)) for _ in range(4)] for _ in range(3)]
        s = Subspace(4, vecs)
        again = Subspace(4, list(s.basis))
        assert s == again
        assert list(s.pivots) == sorted(s.pivots)


def test_subspace_operations():
    a = Subspace(3, [[1, 0, 0], [0, 1, 0]])
    b = Subspace(3, [[0, 1, 0], [0, 0, 1]])
    assert a.add(b).dim == 3
    inter = a.intersect(b)
    assert inter.dim == 1
    assert inter.contains([0, 1, 0])
    m = ExactMatrix.from_rows([[1, 0], [0, 1], [0, 0]])
    pre = Subspace(3, [[1, 0, 0]]).preimage_under(m)
    assert pre.dim == 1
    assert pre.contains([1, 0])


def test_solve_consistency():
    m = ExactMatrix.from_rows([[1, 2], [3, 4]])
    x = solve(m, [5, 11])
    assert x is not None and m.apply(x) == (QQ(5), QQ(11))
    assert solve(ExactMatrix.zeros(2, 2), [1, 0]) is None


class TestSubquotient:
    def plane_mod_line(self):
        cycles = Subspace(3, [[1, 0, 0], [0, 1, 0]])
        boundaries = Subspace(3, [[1, 1, 0]])
        return Subquotient(cycles, boundaries)

    def test_zero_class(self):
        s = self.plane_mod_line()
        assert s.dim == 1
        assert s.class_coordinates([0, 0, 0]) == (QQ(0),)

    def test_boundary_is_zero_class(self):
        s = self.plane_mod_line()
        assert s.class_coordinates([1, 1, 0]) == (QQ(0),)
        assert s.class_coordinates([2, 2, 0]) == (QQ(0),)

    def test_off_line_class_is_nonzero(self):
        s = self.plane_mod_line()
        coords = s.class_coordinates([1, 0, 0])
        assert coords != (QQ(0),)

    def test_outside_cycles_signalled(self):
        s = self.plane_mod_line()
        with pytest.raises(OutsideCyclesError):
            s.class_coordinates([0, 0, 1])

    def test_boundaries_must_be_contained(self):
        with pytest.raises(Exception):
            Subquotient(Subspace(2, [[1, 0]]), Subspace(2, [[0, 1]]))


class TestInducedMap:
    def test_identity(self):
        s = Subquotient(Subspace(3, [[1, 0, 0], [0, 1, 0]]),
                        Subspace(3, [[1, 1, 0]]))
        m = induced_map(ExactMatrix.identity(3), s, s)
        assert m == ExactMatrix.identity(s.dim)

    def test_zero(self):
        s = Subquotient(Subspace(2, [[1, 0]]), Subspace.zero_space(2))
        m = induced_map(ExactMatrix.zeros(2, 2), s, s)
        assert m.is_zero()

    def test_two_one_onto_one_zero(self):
        # quotient map QQ^2 (cycles all, boundaries e1) -> QQ (all mod 0)
        src = Subquotient(Subspace.full_space(2), Subspace(2, [[1, 0]]))
        dst = Subquotient(Subspace.full_space(1), Subspace.zero_space(1))
        f = ExactMatrix.from_rows([[0, 1]])
        m = induced_map(f, src, dst)
        assert (m.rows, m.cols) == (1, 1)
        # brute force: the surviving representative of src maps to its image
        rep = src.representatives[0]
        assert m.column(0) == dst.class_coordinates(f.apply(rep))

    def test_rejects_incompatible(self):
        src = Subquotient(Subspace.full_space(2), Subspace.zero_space(2))
        dst = Subquotient(Subspace(2, [[1, 0]]), Subspace.zero_space(2))
        with pytest.raises(NotFiltrationCompatibleError):
            induced_map(ExactMatrix.identity(2), src, dst)

    def test_composition_functorial(self):
        rng = random.Random(3)
        for _ in range(10):
            f = ExactMatrix(3, 3, [QQ(rng.randrange(-2, 3)) for _ in range(9)])
            g = ExactMatrix(3, 3, [QQ(rng.randrange(-2, 3)) for _ in range(9)])
            s = Subquotient(Subspace.full_space(3), Subspace.zero_space(3))
            lhs = induced_map(g @ f, s, s)
            rhs = induced_map(g, s, s) @ induced_map(f, s, s)
            assert lhs == rhs
