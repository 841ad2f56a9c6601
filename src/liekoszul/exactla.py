"""Exact linear algebra over the rationals.

Kernels, images, canonical echelon bases, subquotients, and the maps a
linear map induces on subquotients.  Every cohomology group computed by
this package is ultimately a Subquotient produced here, so everything is
exact: entries are `fractions.Fraction` (arbitrary precision) and bases
are reduced row echelon form, which makes results canonical and lets
tests compare bases instead of just dimensions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

QQ = Fraction

Vector = tuple[QQ, ...]


class LinearAlgebraError(Exception):
    pass


class OutsideCyclesError(LinearAlgebraError):
    """Raised when a vector is not in the cycle space of a subquotient."""


class NotFiltrationCompatibleError(LinearAlgebraError):
    """Raised when a map does not respect cycles/boundaries of subquotients."""


def qq(x) -> QQ:
    """Coerce an int, string like "3/4", or Fraction to an exact rational."""
    if isinstance(x, QQ):
        return x
    if isinstance(x, int):
        return QQ(x)
    if isinstance(x, str):
        return QQ(x.strip())
    raise TypeError(f"cannot interpret {x!r} as a rational")


def format_rational(x: QQ) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def as_vector(entries: Iterable) -> Vector:
    return tuple(qq(e) for e in entries)


def vec_is_zero(v: Vector) -> bool:
    return all(e == 0 for e in v)


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c: QQ, v: Vector) -> Vector:
    return tuple(c * a for a in v)


def unit_vector(n: int, i: int) -> Vector:
    return tuple(QQ(1) if j == i else QQ(0) for j in range(n))


class ExactMatrix:
    """Immutable rational matrix, stored row-major."""

    __slots__ = ("rows", "cols", "entries", "_sparse")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        ent = tuple(qq(e) for e in entries)
        if len(ent) != rows * cols:
            raise LinearAlgebraError(
                f"entry count {len(ent)} does not match shape {rows}x{cols}"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", ent)
        object.__setattr__(self, "_sparse", None)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "ExactMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat = []
        for r in rows:
            if len(r) != ncols:
                raise LinearAlgebraError("ragged rows")
            flat.extend(r)
        return cls(nrows, ncols, flat)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(rows, cols, [QQ(0)] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(n, n, [QQ(1) if i == j else QQ(0) for i in range(n) for j in range(n)])

    @classmethod
    def from_columns(cls, rows: int, columns: Sequence[Vector]) -> "ExactMatrix":
        cols = len(columns)
        flat = [columns[j][i] for i in range(rows) for j in range(cols)]
        return cls(rows, cols, flat)

    def entry(self, i: int, j: int) -> QQ:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> Vector:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_list(self) -> list[list[QQ]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def _sparse_rows(self):
        cached = self._sparse
        if cached is None:
            cached = []
            for i in range(self.rows):
                base = i * self.cols
                cached.append([(j, self.entries[base + j]) for j in range(self.cols)
                               if self.entries[base + j]])
            object.__setattr__(self, "_sparse", cached)
        return cached

    def apply(self, v: Sequence) -> Vector:
        if len(v) != self.cols:
            raise LinearAlgebraError("vector length does not match column count")
        out = []
        for row in self._sparse_rows():
            acc = QQ(0)
            for j, c in row:
                if v[j]:
                    acc += c * v[j]
            out.append(acc)
        return tuple(out)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise LinearAlgebraError(
                f"shape mismatch in product: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        flat = []
        for i in range(self.rows):
            base = i * self.cols
            for j in range(other.cols):
                s = QQ(0)
                for k in range(self.cols):
                    a = self.entries[base + k]
                    if a:
                        s += a * other.entries[k * other.cols + j]
                flat.append(s)
        return ExactMatrix(self.rows, other.cols, flat)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinearAlgebraError("shape mismatch in sum")
        return ExactMatrix(
            self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)]
        )

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix(self.rows, self.cols, [-a for a in self.entries])

    def scaled(self, c) -> "ExactMatrix":
        c = qq(c)
        return ExactMatrix(self.rows, self.cols, [c * a for a in self.entries])

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            self.cols,
            self.rows,
            [self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)],
        )

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(
            " ".join(format_rational(e) for e in self.row(i)) for i in range(self.rows)
        )
        return f"ExactMatrix({self.rows}x{self.cols}: [{body}])"


def _rref(rows: list[list[QQ]]) -> tuple[list[Vector], list[int]]:
    """Reduced row echelon form; returns nonzero rows and pivot columns.

    Pivot rule: first nonzero entry in column order.  The output is the
    canonical form, so echelonization is idempotent.
    """
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        sel = None
        for i in range(r, nrows):
            if mat[i][c] != 0:
                sel = i
                break
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        pv = mat[r][c]
        if pv != 1:
            inv = QQ(1) / pv
            mat[r] = [a * inv for a in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return [tuple(row) for row in mat[:r]], pivots


class Subspace:
    """Subspace of QQ^n with a canonical reduced-row-echelon basis."""

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, basis: Sequence[Sequence]):
        vectors = [as_vector(v) for v in basis]
        for v in vectors:
            if len(v) != ambient_dim:
                raise LinearAlgebraError("basis vector has wrong ambient dimension")
        rows, pivots = _rref([list(v) for v in vectors]) if vectors else ([], [])
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", tuple(rows))
        object.__setattr__(self, "pivots", tuple(pivots))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def zero_space(cls, n: int) -> "Subspace":
        return cls(n, [])

    @classmethod
    def full_space(cls, n: int) -> "Subspace":
        return cls(n, [unit_vector(n, i) for i in range(n)])

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, v: Sequence) -> Vector:
        """Residual of v after subtracting its projection onto the basis."""
        w = list(as_vector(v))
        if len(w) != self.ambient_dim:
            raise LinearAlgebraError("vector has wrong ambient dimension")
        for row, p in zip(self.basis, self.pivots):
            c = w[p]
            if c:
                for j in range(p, self.ambient_dim):
                    w[j] -= c * row[j]
        return tuple(w)

    def contains(self, v: Sequence) -> bool:
        return vec_is_zero(self.reduce(v))

    def coordinates(self, v: Sequence) -> Vector:
        """Coordinates of v in the echelon basis; raises if v is outside."""
        v = as_vector(v)
        if not self.contains(v):
            raise LinearAlgebraError("vector not in subspace")
        return tuple(v[p] for p in self.pivots)

    def add(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise LinearAlgebraError("ambient dimension mismatch")
        return Subspace(self.ambient_dim, list(self.basis) + list(other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise LinearAlgebraError("ambient dimension mismatch")
        if not self.basis or not other.basis:
            return Subspace.zero_space(self.ambient_dim)
        # Solve sum a_i u_i = sum b_j w_j; intersection vectors come from the
        # kernel of [U^T | -W^T].
        k, l = self.dim, other.dim
        cols = []
        for u in self.basis:
            cols.append(u)
        for w in other.basis:
            cols.append(tuple(-a for a in w))
        m = ExactMatrix.from_columns(self.ambient_dim, cols)
        ker = kernel_basis(m)
        vectors = []
        for sol in ker.basis:
            coeffs = sol[:k]
            vec = [QQ(0)] * self.ambient_dim
            for c, u in zip(coeffs, self.basis):
                if c:
                    for j in range(self.ambient_dim):
                        vec[j] += c * u[j]
            vectors.append(tuple(vec))
        return Subspace(self.ambient_dim, vectors)

    def preimage_under(self, m: ExactMatrix) -> "Subspace":
        """The subspace {v : Mv in self} of the domain of M."""
        if m.rows != self.ambient_dim:
            raise LinearAlgebraError("matrix does not map into this ambient space")
        reduced_cols = [self.reduce(m.column(j)) for j in range(m.cols)]
        residual = ExactMatrix.from_columns(self.ambient_dim, reduced_cols)
        return kernel_basis(residual)

    def is_subspace_of(self, other: "Subspace") -> bool:
        return all(other.contains(b) for b in self.basis)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of QQ^{self.ambient_dim})"


def kernel_basis(m: ExactMatrix) -> Subspace:
    """Canonical echelon basis of {v : Mv = 0}."""
    rows, pivots = _rref(m.row_list())
    pivset = set(pivots)
    free = [c for c in range(m.cols) if c not in pivset]
    vectors = []
    for f in free:
        v = [QQ(0)] * m.cols
        v[f] = QQ(1)
        for row, p in zip(rows, pivots):
            v[p] = -row[f]
        vectors.append(tuple(v))
    return Subspace(m.cols, vectors)


def image_basis(m: ExactMatrix) -> Subspace:
    """Canonical echelon basis of the column span of M."""
    return Subspace(m.rows, [m.column(j) for j in range(m.cols)])


def rank(m: ExactMatrix) -> int:
    return image_basis(m).dim


def solve(m: ExactMatrix, v: Sequence) -> Vector | None:
    """One solution x of Mx = v, or None if inconsistent.

    When the columns of M are independent the solution is unique.
    """
    sols = solve_batch(m, [as_vector(v)])
    return sols[0]


def solve_batch(m: ExactMatrix, vectors: Sequence[Vector]) -> list[Vector | None]:
    """Solve Mx = v for several right-hand sides with one elimination."""
    for v in vectors:
        if len(v) != m.rows:
            raise LinearAlgebraError("rhs has wrong length")
    k = len(vectors)
    aug = [list(m.row(i)) + [v[i] for v in vectors] for i in range(m.rows)]
    rows, pivots = _rref(aug)
    out: list[Vector | None] = []
    for j in range(k):
        x = [QQ(0)] * m.cols
        ok = True
        for row, p in zip(rows, pivots):
            if p >= m.cols:
                if p == m.cols + j and row[m.cols + j]:
                    ok = False
                continue
            x[p] = row[m.cols + j]
        if not ok or m.apply(x) != vectors[j]:
            out.append(None)
        else:
            out.append(tuple(x))
    return out


class Subquotient:
    """cycles/boundaries with a fixed complement basis for representatives.

    Representatives are chosen deterministically: walk the echelon basis
    of the cycle space and keep each vector that is independent of the
    boundaries plus the representatives already kept.
    """

    __slots__ = ("cycles", "boundaries", "representatives")

    def __init__(self, cycles: Subspace, boundaries: Subspace):
        if cycles.ambient_dim != boundaries.ambient_dim:
            raise LinearAlgebraError("cycles and boundaries live in different spaces")
        if not boundaries.is_subspace_of(cycles):
            raise LinearAlgebraError("boundaries are not contained in cycles")
        # Forward elimination with a pivot table selects, in order, the cycle
        # basis vectors independent of the boundaries and of each other.
        n = cycles.ambient_dim
        pivot_rows: dict[int, Vector] = {}
        for row, p in zip(boundaries.basis, boundaries.pivots):
            pivot_rows[p] = row
        reps: list[Vector] = []
        for b in cycles.basis:
            w = list(b)
            for p in sorted(pivot_rows):
                c = w[p]
                if c:
                    row = pivot_rows[p]
                    for j in range(p, n):
                        if row[j]:
                            w[j] -= c * row[j]
            lead = next((j for j in range(n) if w[j]), None)
            if lead is not None:
                inv = QQ(1) / w[lead]
                pivot_rows[lead] = tuple(x * inv for x in w)
                reps.append(b)
        object.__setattr__(self, "cycles", cycles)
        object.__setattr__(self, "boundaries", boundaries)
        object.__setattr__(self, "representatives", tuple(reps))

    def __setattr__(self, name, value):
        raise AttributeError("Subquotient is immutable")

    @property
    def ambient_dim(self) -> int:
        return self.cycles.ambient_dim

    @property
    def dim(self) -> int:
        return self.cycles.dim - self.boundaries.dim

    def class_coordinates(self, v: Sequence) -> Vector:
        """Coordinates of [v] in the representative basis.

        Raises OutsideCyclesError when v is not a cycle.
        """
        return self.class_coordinates_batch([as_vector(v)])[0]

    def class_coordinates_batch(self, vectors: Sequence[Vector]) -> list[Vector]:
        """Class coordinates for several vectors with one elimination."""
        vectors = [as_vector(v) for v in vectors]
        for v in vectors:
            if not self.cycles.contains(v):
                raise OutsideCyclesError("outside-cycles")
        cols = list(self.representatives) + list(self.boundaries.basis)
        if not cols:
            return [() for _ in vectors]
        m = ExactMatrix.from_columns(self.ambient_dim, cols)
        out = []
        for x in solve_batch(m, vectors):
            if x is None:  # unreachable for a valid subquotient
                raise LinearAlgebraError("inconsistent subquotient solve")
            out.append(x[: len(self.representatives)])
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subquotient)
            and self.cycles == other.cycles
            and self.boundaries == other.boundaries
        )

    def __hash__(self):
        return hash((self.cycles, self.boundaries))

    def __repr__(self):
        return (
            f"Subquotient(dim {self.dim} = {self.cycles.dim}/{self.boundaries.dim}"
            f" in QQ^{self.ambient_dim})"
        )


def induced_map(f: ExactMatrix, src: Subquotient, dst: Subquotient) -> ExactMatrix:
    """Matrix of the map src -> dst induced by f on class representatives.

    Requires f(cycles) within cycles and f(boundaries) within boundaries;
    anything else raises NotFiltrationCompatibleError.
    """
    if f.cols != src.ambient_dim or f.rows != dst.ambient_dim:
        raise LinearAlgebraError("matrix shape does not match subquotients")
    for b in src.cycles.basis:
        if not dst.cycles.contains(f.apply(b)):
            raise NotFiltrationCompatibleError("not filtration-compatible: cycles escape")
    for b in src.boundaries.basis:
        if not dst.boundaries.contains(f.apply(b)):
            raise NotFiltrationCompatibleError("not filtration-compatible: boundaries escape")
    cols = dst.class_coordinates_batch([f.apply(r) for r in src.representatives])
    return ExactMatrix.from_columns(dst.dim, cols)
