"""Exact linear algebra over the rationals, on sparse rows.

Kernels, images, canonical echelon bases, subquotients, and the maps a
linear map induces on subquotients.  Every cohomology group computed by
this package is ultimately a Subquotient produced here, so everything is
exact.  An integral entry is stored as an `int`, any other as a
`fractions.Fraction` (`qq` and `quotient` keep this rule).

Input is read here once per format, by `qq` (a rational) and three
readers beside it: `integer` (an integer, never truncated), `integers`
(the integers of a key "a,b,...") and `sized` (a list of n entries).
Every layer reads through them with its own error class, which names
the field.  Beside them sit the bases that say whose fault an error is:
`InputError` (input, exit 2) and `VerdictError` (a failed verdict, exit 1).

Storage is sparse and canonical.  An `ExactMatrix` keeps, per row, a dict
from column index to nonzero entry, and never stores a zero or an integral
`Fraction`, so two equal matrices have equal storage whatever they were
built from.  Builders write canonical rows and wrap them (`_wrap`); the
checking constructors serve raw input and the tests.
Products, sums, zero tests, equality and elimination touch nonzeros only.
A `Subspace` keeps the rows of its reduced row echelon form (RREF) the
same way.  The RREF of a row space is unique, so the elimination result,
and with it every basis, is canonical whatever order the elimination
works in; tests compare bases, not just dimensions.

`_insert` is the one elimination kernel, shared by `_rref` (every kernel,
image, rank and solve), `Subquotient`, `from_flag` and `specseq.run`.

Every change of basis is one call of `coordinates`: the coordinates of
sparse target rows in an independent sparse basis, from one RREF of
[basis | targets], checked by the sparse product B X = T.

Dense tuples of `Fraction`s (`Vector`) are test and `repr` edges only:
`solve_batch` and `Subquotient.class_coordinates_batch`, which the
benchmark's tracer (`perfbench/tracing.ENTRY_POINTS`) still names.  The
package's drivers stay on sparse rows from input to verdict; the golden
tests run every report with these views made to raise.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

QQ = Fraction

Vector = tuple[QQ, ...]
Row = dict[int, "int | QQ"]   # column index -> nonzero entry, an int if integral

ZERO = QQ(0)


class LinearAlgebraError(Exception):
    pass


class OutsideCyclesError(LinearAlgebraError):
    """Raised when a vector is not in the cycle space of a subquotient."""


class NotFiltrationCompatibleError(LinearAlgebraError):
    """Raised when a map does not respect cycles/boundaries of subquotients."""


class InputError(Exception):
    """Input that cannot be read as the object it names: exit 2."""


class VerdictError(Exception):
    """A mathematical verdict failed on input that was read: exit 1."""


def qq(x) -> "int | QQ":
    """Coerce an int, a string like "3/4" or a Fraction to an exact rational,
    an int if it is integral; a bool or a bad string such as "1/0" raises.

    A string -?digits or -?digits/digits (decimal digits, by
    `str.isdecimal`) is read with `int`; any other goes to `Fraction`, so
    the accepted strings and the errors are those of `Fraction`."""
    if x.__class__ is int:
        return x
    if isinstance(x, str):
        try:
            num, slash, den = x.partition("/")
            if ((num[1:] if num[:1] == "-" else num).isdecimal()
                    and (den.isdecimal() or not slash)):
                return quotient(int(num), int(den)) if slash else int(num)
            return _integral(QQ(x.strip()))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"cannot interpret {x!r} as a rational") from None
    if isinstance(x, bool) or not isinstance(x, (int, QQ)):
        raise TypeError(f"cannot interpret {x!r} as a rational")
    return _integral(x)


def integer(x, what: str, error: type[Exception]) -> int:
    """x as an int: an int, or a float or Fraction with no fractional part
    (2.0 is 2).  A bool, a string or a fractional value raises `error`
    naming `what`, where `int` would read True as 1 and truncate 2.5."""
    if x.__class__ is int:
        return x
    if isinstance(x, float) and x.is_integer() or isinstance(x, QQ) and x.denominator == 1:
        return int(x)
    raise error(f"{what} must be an integer, got {x!r}")


def integers(key, n: int, what: str, error: type[Exception]) -> tuple[int, ...]:
    """The n integers of a key: a string "a,b,..." ("" is the empty key) or
    a sequence of values that `integer` reads.  Anything else raises
    `error` naming `what` and the key."""
    try:
        if isinstance(key, str):
            parts = tuple(int(t) for t in key.split(",")) if key else ()
        else:
            parts = tuple(integer(t, what, ValueError) for t in key)
    except (TypeError, ValueError):
        parts = None
    if parts is None or len(parts) != n:
        raise error(f"{what} {key!r} must be {n} comma-separated integers")
    return parts


def sized(value, n: int, what: str, error: type[Exception]):
    """value, which must be a list or tuple of n entries; anything else
    raises `error` naming `what`, the length and what was given."""
    if not isinstance(value, (list, tuple)) or len(value) != n:
        got = len(value) if isinstance(value, (list, tuple)) else type(value).__name__
        raise error(f"{what} must be a list of {n} entries, got {got}")
    return value


def quotient(a, b) -> "int | QQ":
    """a / b exactly (`int / int` would be a float), an int if it is integral."""
    if a.__class__ is int and b.__class__ is int and not a % b:
        return a // b
    return _integral(QQ(a, b))


def format_rational(x: QQ) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _integral(x):
    """x, with an integral Fraction turned into its int."""
    return x if x.__class__ is int or x.denominator != 1 else x.numerator


def _sparse(v: Sequence) -> Row:
    """The nonzero entries of a dense vector, coerced by `qq`."""
    out = {}
    for j, e in enumerate(v):
        x = qq(e)
        if x:
            out[j] = x
    return out


def _dense(row: Mapping[int, QQ], n: int) -> Vector:
    v = [ZERO] * n
    for j, x in row.items():
        v[j] = QQ(x)
    return tuple(v)


def _transpose(rows: Sequence[Mapping[int, QQ]], ncols: int) -> list[Row]:
    out: list[Row] = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            out[j][i] = x
    return out


def _axpy(w: Row, f: QQ, row: Mapping[int, QQ]) -> None:
    """w -= f * row, in place, keeping w canonical."""
    for j, a in row.items():
        y = w.get(j)
        if y is None:
            y = -f * a
        else:
            y -= f * a
            if not y:
                del w[j]
                continue
        w[j] = y if y.__class__ is int or y.denominator != 1 else y.numerator


def _wrap(rows: int, cols: int, row_maps: tuple) -> "ExactMatrix":
    """An ExactMatrix over rows that are already canonical."""
    m = object.__new__(ExactMatrix)
    object.__setattr__(m, "rows", rows)
    object.__setattr__(m, "cols", cols)
    object.__setattr__(m, "row_maps", row_maps)
    return m


class ExactMatrix:
    """Immutable rational matrix stored as sparse rows.

    `row_maps[i]` maps the column index of each nonzero entry of row i to
    that entry.  The dicts are shared between matrices (a sum may reuse a
    row of a summand), so they are read-only by convention.
    """

    __slots__ = ("rows", "cols", "row_maps")

    def __init__(self, rows: int, cols: int, row_maps: Iterable[Mapping]):
        data = []
        for r in row_maps:
            out = {}
            for j, e in r.items():
                if not 0 <= j < cols:
                    raise LinearAlgebraError(f"column index {j} outside a {rows}x{cols} matrix")
                x = e if e.__class__ is int else qq(e)
                if x:
                    out[j] = x
            data.append(out)
        if len(data) != rows:
            raise LinearAlgebraError(f"row count {len(data)} does not match shape {rows}x{cols}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "row_maps", tuple(data))

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "ExactMatrix":
        """Matrix from dense rows (input files and tests)."""
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        if any(len(r) != ncols for r in rows):
            raise LinearAlgebraError("ragged rows")
        return _wrap(nrows, ncols, tuple(_sparse(r) for r in rows))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return _wrap(rows, cols, tuple({} for _ in range(rows)))

    # -- arithmetic on nonzeros ------------------------------------------------

    def images(self, vectors: Iterable[Mapping[int, QQ]]) -> list[Row]:
        """M v for each sparse vector v, as a sparse row."""
        cols = _transpose(self.row_maps, self.cols)
        out = []
        for v in vectors:
            w: Row = {}
            for j, c in v.items():
                _axpy(w, -c, cols[j])
            out.append(w)
        return out

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise LinearAlgebraError(
                f"shape mismatch in product: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        right = other.row_maps
        out = []
        for row in self.row_maps:
            acc: Row = {}
            for k, a in row.items():
                for j, b in right[k].items():
                    x = acc.get(j)
                    acc[j] = a * b if x is None else x + a * b
            out.append({j: _integral(x) for j, x in acc.items() if x})
        return _wrap(self.rows, other.cols, tuple(out))

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinearAlgebraError("shape mismatch in sum")
        out = []
        for a, b in zip(self.row_maps, other.row_maps):
            if not b or not a:
                out.append(a or b)
                continue
            s = dict(a)
            _axpy(s, -1, b)
            out.append(s)
        return _wrap(self.rows, self.cols, tuple(out))

    def __neg__(self) -> "ExactMatrix":
        return _wrap(self.rows, self.cols,
                     tuple({j: -x for j, x in r.items()} for r in self.row_maps))

    def scaled(self, c) -> "ExactMatrix":
        c = qq(c)
        if not c:
            return ExactMatrix.zeros(self.rows, self.cols)
        return _wrap(self.rows, self.cols,
                     tuple({j: _integral(c * x) for j, x in r.items()} for r in self.row_maps))

    def transpose(self) -> "ExactMatrix":
        return _wrap(self.cols, self.rows, tuple(_transpose(self.row_maps, self.cols)))

    def is_zero(self) -> bool:
        return not any(self.row_maps)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.row_maps == other.row_maps
        )

    def __hash__(self):
        return hash((self.rows, self.cols,
                     tuple(tuple(sorted(r.items())) for r in self.row_maps)))

    def __repr__(self):
        body = "; ".join(
            " ".join(format_rational(e) for e in _dense(r, self.cols)) for r in self.row_maps
        )
        return f"ExactMatrix({self.rows}x{self.cols}: [{body}])"


def _insert(echelon: dict[int, Row], r: Row) -> int | None:
    """Reduce the row r (a fresh dict, consumed) against `echelon`, which maps
    pivot columns to rows with a 1 there and nothing left of it.  If a
    nonzero remainder is left it is divided by its leading entry (a pivot
    of 1 or -1 builds no Fraction) and added under its leading column,
    which is returned; None means r reduced to zero."""
    while r:
        c = min(r)
        p = echelon.get(c)
        if p is None:
            x = r[c]
            if x == -1:
                r = {j: -a for j, a in r.items()}
            elif x != 1:
                r = {j: quotient(a, x) for j, a in r.items()}
            echelon[c] = r
            return c
        _axpy(r, r[c], p)
    return None


def _rref(rows: Sequence[Mapping[int, QQ]], reduced: bool = True
          ) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form of the span of sparse rows: its nonzero rows
    in pivot order, and their pivot columns.

    Rows are inserted one at a time into an echelon form whose pivot is
    each row's leading column, then back substitution, right to left,
    clears every pivot column above its pivot.  The RREF is unique, so the
    result is canonical and echelonization is idempotent.  With
    `reduced=False` the back substitution is skipped; the rows are then an
    echelon form with the same pivots, which is all a rank needs.  The
    input rows are not modified.
    """
    echelon: dict[int, Row] = {}
    for row in rows:
        if row:
            _insert(echelon, dict(row))
    pivots = sorted(echelon)
    if reduced:
        for k in range(len(pivots) - 1, -1, -1):
            row = echelon[pivots[k]]
            # Rows right of this pivot are already reduced, so clearing one
            # pivot column leaves the others untouched.
            for c in [c for c in row if c != pivots[k] and c in echelon]:
                _axpy(row, row[c], echelon[c])
    return [echelon[p] for p in pivots], pivots


class Subspace:
    """Subspace of QQ^n with a canonical reduced-row-echelon basis.

    `sparse_basis` holds the RREF rows as sparse rows and `pivots` their
    pivot columns.
    """

    __slots__ = ("ambient_dim", "sparse_basis", "pivots")

    def __init__(self, ambient_dim: int, basis: Sequence[Sequence]):
        rows = []
        for v in basis:
            if len(v) != ambient_dim:
                raise LinearAlgebraError("basis vector has wrong ambient dimension")
            rows.append(_sparse(v))
        self._set(ambient_dim, rows)

    def _set(self, ambient_dim: int, rows: Sequence[Row]) -> None:
        echelon, pivots = _rref(rows) if rows else ([], [])
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "sparse_basis", tuple(echelon))
        object.__setattr__(self, "pivots", tuple(pivots))

    @classmethod
    def _span(cls, ambient_dim: int, rows: Sequence[Row]) -> "Subspace":
        """Span of canonical sparse rows (no zeros, ints where integral, in range)."""
        s = object.__new__(cls)
        s._set(ambient_dim, rows)
        return s

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def zero_space(cls, n: int) -> "Subspace":
        return cls._span(n, [])

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def _residual(self, v: Mapping[int, QQ]) -> Row:
        """Sparse residual of a sparse vector after subtracting its projection.
        The basis is fully reduced, so the pivots can be cleared in any order."""
        w = dict(v)
        for row, p in zip(self.sparse_basis, self.pivots):
            c = w.get(p)
            if c:
                _axpy(w, c, row)
        return w

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise LinearAlgebraError("ambient dimension mismatch")
        n = self.ambient_dim
        if not self.pivots or not other.pivots:
            return Subspace.zero_space(n)
        # A kernel vector (a, b) of [U^T | W^T] gives sum a_i u_i = -sum b_j w_j,
        # a vector of the intersection, and every one arises this way.
        k = self.dim
        cols = self.sparse_basis + other.sparse_basis
        ker = kernel_basis(_wrap(n, len(cols), tuple(_transpose(cols, n))))
        vectors = []
        for sol in ker.sparse_basis:
            vec: Row = {}
            for i, c in sol.items():
                if i < k:
                    _axpy(vec, -c, self.sparse_basis[i])
            vectors.append(vec)
        return Subspace._span(n, vectors)

    def preimage_under(self, m: ExactMatrix) -> "Subspace":
        """The subspace {v : Mv in self} of the domain of M."""
        if m.rows != self.ambient_dim:
            raise LinearAlgebraError("matrix does not map into this ambient space")
        reduced_cols = [self._residual(c) for c in _transpose(m.row_maps, m.cols)]
        residual = _wrap(m.rows, m.cols, tuple(_transpose(reduced_cols, m.rows)))
        return kernel_basis(residual)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.sparse_basis == other.sparse_basis
        )

    def __hash__(self):
        return hash((self.ambient_dim,
                     tuple(tuple(sorted(r.items())) for r in self.sparse_basis)))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of QQ^{self.ambient_dim})"


def kernel_basis(m: ExactMatrix) -> Subspace:
    """Canonical echelon basis of {v : Mv = 0}."""
    rows, pivots = _rref(m.row_maps)
    pivset = set(pivots)
    # One kernel vector per free column f: 1 at f, minus column f of the
    # RREF at the pivots.
    free: dict[int, Row] = {f: {f: 1} for f in range(m.cols) if f not in pivset}
    for row, p in zip(rows, pivots):
        for j, a in row.items():
            v = free.get(j)
            if v is not None:
                v[p] = -a
    return Subspace._span(m.cols, list(free.values()))


def image_basis(m: ExactMatrix) -> Subspace:
    """Canonical echelon basis of the column span of M."""
    return Subspace._span(m.rows, _transpose(m.row_maps, m.cols))


def normal_forms(s: Subspace) -> list[Row]:
    """The class of each unit vector e_j in QQ^n / s, in coordinates of the
    quotient basis: the e_i not in s + span(e_0..e_{i-1}), as picked by a
    `Subquotient` of QQ^n by s.  They are the non-pivots of the
    RREF of s with each row's pivot at its last nonzero column, and a pivot
    e_p is minus the rest of its row."""
    n = s.ambient_dim
    rows, pivots = _rref([{n - 1 - j: a for j, a in r.items()} for r in s.sparse_basis])
    pivset = {n - 1 - p for p in pivots}
    index = {j: i for i, j in enumerate(j for j in range(n) if j not in pivset)}
    forms: list[Row] = [{index[j]: 1} if j in index else {} for j in range(n)]
    for row, p in zip(rows, pivots):
        forms[n - 1 - p] = {index[n - 1 - c]: -a for c, a in row.items() if c != p}
    return forms


def rank(m: ExactMatrix) -> int:
    """Number of pivots of an echelon form of the rows of M."""
    return len(_rref(m.row_maps, reduced=False)[1])


def coordinates(basis: Sequence[Mapping[int, QQ]], n: int,
                targets: Sequence[Mapping[int, QQ]]) -> ExactMatrix:
    """The k x m matrix X whose column j holds the coordinates of targets[j]
    in `basis`, so that sum_i X[i][j] basis[i] = targets[j], for k
    independent canonical sparse rows of QQ^n and m in their span.

    One `_rref` of the n x (k + m) matrix [B | T], whose columns are the
    basis and the target rows, must have the pivots 0..k-1 and no other: a
    missing one is a dependent basis, one in a target column a target
    outside the span.  X is then the target block of its rows, and the
    sparse product B X is checked against T.  A failure raises
    LinearAlgebraError."""
    k = len(basis)
    rows, pivots = _rref(_transpose([*basis, *targets], n))
    if pivots != list(range(k)):
        raise LinearAlgebraError("targets outside the span of an independent basis")
    x = tuple({j - k: a for j, a in row.items() if j >= k} for row in rows)
    residual = [dict(t) for t in targets]
    for b, row in zip(basis, x):
        for j, c in row.items():
            _axpy(residual[j], c, b)
    if any(residual):
        raise LinearAlgebraError("coordinate check B X = T failed")
    return _wrap(k, len(targets), x)


def solve_batch(m: ExactMatrix, vectors: Sequence[Vector]) -> list[Vector | None]:
    """Solve Mx = v for several dense right-hand sides with one elimination
    (a test edge; the drivers use `coordinates`)."""
    for v in vectors:
        if len(v) != m.rows:
            raise LinearAlgebraError("rhs has wrong length")
    n = m.cols
    aug = []
    for i, row in enumerate(m.row_maps):
        r = dict(row)
        for j, v in enumerate(vectors):
            x = qq(v[i])
            if x:
                r[n + j] = x
        aug.append(r)
    rows, pivots = _rref(aug)
    # A pivot in column n + j makes v_j inconsistent; otherwise x_j is read
    # off the pivot rows and checked by the sparse product M x_j = v_j.
    sols = [{p: row[n + j] for row, p in zip(rows, pivots) if p < n and n + j in row}
            for j in range(len(vectors))]
    return [_dense(x, n) if n + j not in pivots and image == _sparse(v) else None
            for j, (v, x, image) in enumerate(zip(vectors, sols, m.images(sols)))]


class Subquotient:
    """cycles/boundaries with a fixed complement basis for representatives.

    Representatives are chosen deterministically: walk the echelon basis
    of the cycle space and keep each vector that is independent of the
    boundaries plus the representatives already kept, dim(C + B) - dim B
    of them, so B lies in C iff that is dim C - dim B.  `_rep_rows` holds
    them as sparse rows.
    """

    __slots__ = ("cycles", "boundaries", "_rep_rows")

    def __init__(self, cycles: Subspace, boundaries: Subspace):
        if cycles.ambient_dim != boundaries.ambient_dim:
            raise LinearAlgebraError("cycles and boundaries live in different spaces")
        echelon = dict(zip(boundaries.pivots, boundaries.sparse_basis))
        reps = tuple(row for row in cycles.sparse_basis if _insert(echelon, dict(row)) is not None)
        if len(reps) != cycles.dim - boundaries.dim:
            raise LinearAlgebraError("boundaries are not contained in cycles")
        object.__setattr__(self, "cycles", cycles)
        object.__setattr__(self, "boundaries", boundaries)
        object.__setattr__(self, "_rep_rows", reps)

    def __setattr__(self, name, value):
        raise AttributeError("Subquotient is immutable")

    @property
    def ambient_dim(self) -> int:
        return self.cycles.ambient_dim

    @property
    def dim(self) -> int:
        return self.cycles.dim - self.boundaries.dim

    def class_coordinates_batch(self, vectors: Sequence[Sequence]) -> list[Vector]:
        """Class coordinates of several dense vectors, from one `coordinates`
        solve in the representatives followed by the boundary basis."""
        rows = []
        for v in vectors:
            if len(v) != self.ambient_dim:
                raise LinearAlgebraError("vector has wrong ambient dimension")
            row = _sparse(v)
            if self.cycles._residual(row):
                raise OutsideCyclesError("outside-cycles")
            rows.append(row)
        x = coordinates(self._rep_rows + self.boundaries.sparse_basis, self.ambient_dim, rows)
        return [_dense(c, self.dim) for c in _transpose(x.row_maps[: self.dim], len(rows))]

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

    Requires f(cycles) within cycles and f(boundaries) within boundaries,
    checked on the sparse image of every basis row; anything else raises
    NotFiltrationCompatibleError.  Column j holds the class of f applied to
    representative j of src: its first dst.dim coordinates in dst's
    representatives followed by dst's boundary basis, from one
    `coordinates` solve.
    """
    if f.cols != src.ambient_dim or f.rows != dst.ambient_dim:
        raise LinearAlgebraError("matrix shape does not match subquotients")
    c, b = src.cycles.dim, src.boundaries.dim
    images = f.images(src.cycles.sparse_basis + src.boundaries.sparse_basis + src._rep_rows)
    if any(dst.cycles._residual(v) for v in images[:c]):
        raise NotFiltrationCompatibleError("not filtration-compatible: cycles escape")
    if any(dst.boundaries._residual(v) for v in images[c:c + b]):
        raise NotFiltrationCompatibleError("not filtration-compatible: boundaries escape")
    x = coordinates(dst._rep_rows + dst.boundaries.sparse_basis, dst.ambient_dim,
                    images[c + b:])
    return _wrap(dst.dim, src.dim, x.row_maps[: dst.dim])
