"""Exact rational linear algebra substrate.

Everything downstream runs on top of this module: vectors and matrices
over arbitrary-precision rationals, reduced row echelon form, kernels,
affine solves and canonical subspaces.

There is one eliminator, `_eliminate`, and it takes sparse rows: each row
is a {column: value} map and only nonzero entries are ever touched,
because the systems built here (the (e, f)-inverse system in particular)
are almost entirely zero.  Callers that build their rows sparsely hand
them over as they are (`solve_affine_sparse`, `Subspace.from_sparse`);
`rref`, `kernel`, `solve_affine` and `invert` read the rows of a `Mat`
off its column terms.  Kernels and particular solutions are read off the
sparse echelon, never off a dense reduced matrix.  The order in which
rows meet pivots is an implementation detail: the RREF of a matrix is
unique, so the result does not depend on it.

Conventions fixed library-wide:
  * public scalars are `fractions.Fraction` (canonical reduced form,
    positive denominator come for free): vectors, dense matrices and
    tensors, and subspace bases hold nothing else, and a dense reader
    (`exact_terms`) raises the TypeError of `as_scalar` on any other;
  * vectors are plain tuples of Fraction; inside computations a sparse
    vector is a {index: nonzero value} dict;
  * structure constants are stored as term tables, never as dense
    tensors: the table of an algebra or action lists, for each pair of
    basis indices, the (index, nonzero value) pairs of their product in
    ascending index order, with integral values as `int` (`term_value`,
    applied by `nonzero`): mixed arithmetic is exact and compares and
    hashes by value, so only speed depends on it.  A dense tensor given
    to a constructor is read once (`dense_table`); a table built in the
    library is checked in O(nnz) (`check_terms`); the dense tensor of
    Fractions is a view computed on demand (`dense_tensor`).  A matrix is
    born sparse too: `Mat` stores the term list of each column, and its
    dense rows and columns are views for the boundary (documents, the
    CLI, tests).  Maps are composed and summed through their column terms
    where they are used; there is no dense matrix arithmetic;
  * `as_scalar` turns a value back into a Fraction where it leaves the
    core: in `densify` and `solve_affine_sparse` (a failure side is
    printed by `report.render`, which needs no Fraction);
  * a coproduct is a term list of (left, right, coefficient) triples,
    ascending in (left, right), and a Sweedler sum over one is a
    `sweedler`, or one `lincomb` over its terms;
  * a law on basis tuples is evaluated a row at a time (see `report`):
    `apply_each`, `combine_each` and `sweedler_each` below give the
    `lincomb` or `sweedler` of every entry of a row in one call, as a
    {index: row} dict of the nonzero rows only, and read a table through
    its support (`table_support`: per outer index, the pairs whose term
    list is not empty), so an empty row is never built or compared;
  * tensor index convention: basis vector i of the left factor tensor
    basis vector j of the right factor sits at index i * dim_right + j;
  * a subspace stores the canonical term lists of its RREF rows, so subspace
    equality is literal comparison of rows; its dense basis is a view.

Every value type of the library (`Mat`, `Subspace`, the structures,
maps, reports and batteries) is a `Record`, defined here at the bottom of
the import graph: the annotated fields of a class are its one
declaration, as in a frozen dataclass, and the behaviour is shared code,
with nothing generated or exec'd per class.  `dataclasses` is not used:
importing it pulls in `inspect` (with `ast`, `dis` and `tokenize`), and
each decorated class compiles and execs five methods.  For the library's
value types that was two thirds of `import whk.cli`, which every `whk`
command pays.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

from .errors import DimensionError, ShapeError

Vec = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)

_set_field = object.__setattr__


class Record:
    """Immutable value whose fields are the annotations of its class, in order.

    Behaves as a frozen dataclass: construction by position or keyword, a
    field's class attribute as its default, then `__post_init__`; equality
    and hash by the tuple of fields, for instances of the very same class
    only; the dataclass repr; assigning or deleting an attribute raises
    AttributeError (`cached_property` writes `__dict__` and still works).
    Fields are not inherited from a Record subclass.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(cls.__dict__.get("__annotations__", ()))
        key = attrgetter(*fields)
        cls._key = key if len(fields) > 1 else staticmethod(lambda self: (key(self),))

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        # object.__setattr__, as a frozen dataclass does: CPython 3.11 then keeps the
        # values inline, where field reads are 2-3x faster than once __dict__ is touched
        for field, value in zip(fields, args):
            _set_field(self, field, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values, in order, from arguments and class-attribute defaults."""
        name, fields = cls.__qualname__, cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for field, value in kwargs.items():
            if field not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {field!r}")
            if field in values:
                raise TypeError(f"{name}() got multiple values for argument {field!r}")
            values[field] = value
        missing = [repr(f) for f in fields if f not in values and f not in cls.__dict__]
        if missing:
            raise TypeError(f"{name}() missing required arguments: {', '.join(missing)}")
        return [values[f] if f in values else cls.__dict__[f] for f in fields]

    @classmethod
    def _of_fields(cls, *values) -> "Record":
        """The instance with these field values, for a class whose `__init__` takes others."""
        self = cls.__new__(cls)
        Record.__init__(self, *values)
        return self

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


# one shared Fraction per small int value, so that a dense view does not build one per entry
_SHARED_SCALARS = {i: Fraction(i) for i in range(-64, 65)} | {0: ZERO, 1: ONE}


def as_scalar(value: int | Fraction) -> Fraction:
    """value as a public scalar: an int becomes a Fraction (shared for small values), a Fraction is kept."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        shared = _SHARED_SCALARS.get(value)
        return Fraction(value) if shared is None else shared
    raise TypeError(f"exact scalar expected, got {type(value).__name__}")


def vec(entries: Iterable[int | Fraction]) -> Vec:
    return tuple(as_scalar(e) for e in entries)


def zero_vec(n: int) -> Vec:
    return (ZERO,) * n


def unit_vec(n: int, i: int) -> Vec:
    out = [ZERO] * n
    out[i] = ONE
    return tuple(out)


def basis_terms(i: int) -> tuple[tuple[int, int], ...]:
    """The basis vector e_i as a term list."""
    return ((i, 1),)


def is_zero_vec(a: Vec) -> bool:
    return all(x == 0 for x in a)


Exact = int | Fraction
SparseVec = dict[int, Exact]
Terms = Iterable[tuple[int, Exact]]
SparseRows = dict[int, SparseVec]  # the nonzero rows of a law's side, by index
Support = Sequence[Iterable[tuple[int, Terms]]]  # per outer index, the (index, nonempty terms) pairs of a table


def term_value(x: Exact) -> Exact:
    """x as a term list holds it: an int when x is integral, else the Fraction."""
    return x.numerator if x.denominator == 1 else x


def nonzero(v: Vec) -> tuple[tuple[int, Exact], ...]:
    """The (index, value) pairs of the nonzero entries of v, values by `term_value`."""
    # the shared ZERO is skipped by identity before the slower truth test; a list
    # comprehension, which is faster than a generator here
    return tuple([(i, term_value(x)) for i, x in enumerate(v) if x is not ZERO and x])


_EXACT_TYPES = frozenset((int, Fraction))


def exact_terms(row: Sequence) -> tuple[tuple[int, Exact], ...]:
    """`nonzero` of a dense row given to a constructor; TypeError, as from `as_scalar`, on an inexact scalar."""
    if not _EXACT_TYPES.issuperset(map(type, row)):
        for x in row:
            as_scalar(x)
    return nonzero(row)


def densify(s: SparseVec, n: int) -> Vec:
    out = [ZERO] * n
    for i, x in s.items():
        out[i] = as_scalar(x)
    return tuple(out)


def sorted_terms(s: SparseVec) -> tuple[tuple[int, Exact], ...]:
    """s as a canonical term list: indices ascending, values by `term_value`."""
    return tuple((i, term_value(s[i])) for i in sorted(s))


TermTable = tuple[tuple[tuple[tuple[int, Exact], ...], ...], ...]


def dense_table(tensor: Sequence[Sequence[Vec]], outer: int, n: int, error: str) -> TermTable:
    """The term lists of the rows of a dense rank-3 tensor of `outer` slices of n rows of
    length n, in one read of its rows (`exact_terms`); ShapeError(error) on any other shape."""
    if len(tensor) != outer:
        raise ShapeError(error)
    table = []
    for slice_ in tensor:
        if len(slice_) != n:
            raise ShapeError(error)
        rows = []
        for row in slice_:
            if len(row) != n:
                raise ShapeError(error)
            rows.append(exact_terms(row))
        table.append(tuple(rows))
    return tuple(table)


def dense_tensor(table: TermTable, n: int) -> tuple[tuple[Vec, ...], ...]:
    """The dense tensor of Fractions whose rows, each of length n, have these term lists."""
    return tuple(tuple(densify(dict(terms), n) for terms in slice_) for slice_ in table)


def check_terms(terms: Terms, n: int, error: str) -> None:
    """ShapeError(error) unless terms is a canonical term list over range(n): int
    indices ascending, values nonzero and in `term_value` form. A dense row given
    instead is a ShapeError too, or `as_scalar`'s TypeError if it holds a float."""
    last = -1
    try:
        for i, x in terms:
            if type(i) is not int or not last < i < n or not (
                type(x) is int and x or type(x) is Fraction and x.denominator != 1
            ):
                break
            last = i
        else:
            return
    except (TypeError, ValueError):  # entries that are not (index, value) pairs: a dense row, say
        for x in terms:
            if type(x) is float:
                as_scalar(x)  # the TypeError of every dense reader
    raise ShapeError(error)


def check_table(table: TermTable, outer: int, n: int, shape_error: str, term_error: str) -> None:
    """`check_terms` on every row of a term table of `outer` slices of n rows."""
    if len(table) != outer or any(len(row) != n for row in table):
        raise ShapeError(shape_error)
    for row in table:
        for terms in row:
            check_terms(terms, n, term_error)


def lincomb(pairs: Iterable[tuple[Exact, Terms]]) -> SparseVec:
    """Sum of c * t over (c, t) pairs of a scalar and a term list; zeros dropped.

    The scalars and the values of the term lists are nonzero, as in every
    term list of the library, so only a key met twice can cancel: a sum with
    no such key is kept without the zero check.
    """
    acc: SparseVec = {}
    met_twice = False
    for c, ts in pairs:
        for k, x in ts:
            if k in acc:
                acc[k] += c * x
                met_twice = True
            else:
                acc[k] = c * x
    return {k: x for k, x in acc.items() if x} if met_twice else acc


def apply_each(rows: Iterable[tuple[int, Terms]], vectors: Sequence[Terms]) -> SparseRows:
    """{m: sum of c * vectors[t] over (t, c) in cs} over the pairs (m, cs) of rows, each row what
    `lincomb` returns for it (same keys in the same order, values, types); zero rows left out."""
    out: SparseRows = {}
    for m, cs in rows:
        acc: SparseVec = {}
        met_twice = False
        for t, c in cs:
            for k, x in vectors[t]:
                if k in acc:
                    acc[k] += c * x
                    met_twice = True
                else:
                    acc[k] = c * x
        if met_twice:
            acc = {k: x for k, x in acc.items() if x}
        if acc:
            out[m] = acc
    return out


def combine_each(coeffs: Terms, support: Support) -> SparseRows:
    """{m: sum of c * terms over (t, c) in coeffs and (m, terms) in support[t]}, reading coeffs
    once, as for `apply_each`; support[t] lists only the nonempty entries of a table's row t."""
    out: SparseRows = {}
    met_twice = False
    for t, c in coeffs:
        for m, ts in support[t]:
            acc = out.get(m)
            if acc is None:
                out[m] = acc = {}
            for k, x in ts:
                if k in acc:
                    acc[k] += c * x
                    met_twice = True
                else:
                    acc[k] = c * x
    if met_twice:
        out = {m: row for m, acc in out.items() if (row := {k: x for k, x in acc.items() if x})}
    return out


def sweedler_each(delta: Sequence[tuple[int, int, Exact]], fn) -> SparseRows:
    """The nonzero rows m of sum c * fn(p, q) over the terms (p, q, c) of a coproduct, each what
    `sweedler` returns for it, where fn(p, q) returns a support list of (m, terms) pairs."""
    return combine_each([(t, c) for t, (_, _, c) in enumerate(delta)], [fn(p, q) for p, q, _ in delta])


def table_support(table: Sequence[Sequence[Terms]]) -> tuple[tuple[tuple[int, Terms], ...], ...]:
    """For each row t of a table of term lists, its (m, terms) pairs with terms not empty, m ascending."""
    return tuple(tuple((m, terms) for m, terms in enumerate(row) if terms) for row in table)


def support_of(rows: SparseRows) -> list[tuple[int, Terms]]:
    """The nonzero rows a kernel returned, as a support list for the next kernel."""
    return [(m, v.items()) for m, v in rows.items()]


def row_terms(rows: SparseRows, n: int) -> list[Terms]:
    """The nonzero rows a kernel returned as the term lists of rows 0..n-1, for `apply_each`."""
    out: list[Terms] = [()] * n
    for m, v in rows.items():
        out[m] = v.items()
    return out


def nonzero_rows(rows: Iterable[SparseVec]) -> SparseRows:
    """The nonzero vectors of a sequence, keyed by position: a row as a law's sides hold it."""
    return {m: v for m, v in enumerate(rows) if v}


def sweedler(delta: Iterable[tuple[int, int, Exact]], fn) -> SparseVec:
    """Sum of c * fn(p, q) over the terms (p, q, c) of a coproduct; fn returns a SparseVec."""
    return lincomb((c, fn(p, q).items()) for p, q, c in delta)


def bilinear(table: Sequence[Sequence[Terms]], xs: Terms, ys: Terms) -> SparseVec:
    """Sum of x_i y_j table[i][j] for sparse x, y and a table of term lists."""
    ys = tuple(ys)
    return lincomb((a * b, table[i][j]) for i, a in xs for j, b in ys)


def sparse_kron(xs: Terms, ys: Terms, n: int) -> SparseVec:
    """Kronecker product of sparse vectors, the right factor of length n."""
    ys = tuple(ys)
    return {i * n + j: x * y for i, x in xs for j, y in ys}


ColumnTerms = tuple[tuple[tuple[int, Exact], ...], ...]


def transposed(lines: Iterable[Terms], n: int) -> ColumnTerms:
    """The term lists of the n lines across these: term (i, x) of line j is term (j, x) of line i."""
    out: list[list[tuple[int, Exact]]] = [[] for _ in range(n)]
    for j, terms in enumerate(lines):
        for i, x in terms:
            out[i].append((j, x))
    return tuple(map(tuple, out))


class Mat(Record):
    """A rows x cols matrix stored by the canonical term list of each column (`check_terms`)."""

    rows: int
    cols: int
    column_terms: ColumnTerms

    def __init__(self, rows: int, cols: int, entries: Sequence[Sequence[Exact]]) -> None:
        """The matrix with these dense rows, read once into its column terms (`exact_terms`)."""
        if rows < 0 or cols < 0:
            raise ShapeError("negative matrix dimensions")
        if len(entries) != rows:
            raise ShapeError(f"expected {rows} rows, got {len(entries)}")
        for row in entries:
            if len(row) != cols:
                raise ShapeError(f"expected row length {cols}, got {len(row)}")
        Record.__init__(self, rows, cols, tuple(map(exact_terms, zip(*entries))) if rows else ((),) * cols)

    @classmethod
    def from_terms(cls, rows: int, cols: int, column_terms: ColumnTerms) -> "Mat":
        """The matrix with these canonical column term lists."""
        return cls._of_fields(rows, cols, column_terms)

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ShapeError("negative matrix dimensions")
        if len(self.column_terms) != self.cols:
            raise ShapeError(f"expected {self.cols} columns, got {len(self.column_terms)}")
        for terms in self.column_terms:
            check_terms(terms, self.rows, "matrix column terms are not canonical")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int | Fraction]], cols: int | None = None) -> "Mat":
        if cols is None:
            if not rows:
                raise ShapeError("cannot infer column count of an empty matrix")
            cols = len(rows[0])
        return cls(len(rows), cols, rows)

    @classmethod
    def from_columns(cls, columns: Sequence[Vec], rows: int | None = None) -> "Mat":
        if not columns:
            if rows is None:
                raise ShapeError("cannot infer row count of an empty matrix")
            return cls.zero(rows, 0)
        return cls(len(columns[0]), len(columns), tuple(zip(*columns)))

    @classmethod
    def from_sparse_columns(cls, columns: Sequence[SparseVec], rows: int) -> "Mat":
        """The matrix with these sparse columns; zero values are dropped."""
        terms = tuple(tuple([(i, term_value(x)) for i, x in sorted(col.items()) if x]) for col in columns)
        return cls._of_fields(rows, len(columns), terms)

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls._of_fields(n, n, tuple(map(basis_terms, range(n))))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Mat":
        return cls._of_fields(rows, cols, ((),) * cols)

    @cached_property
    def columns(self) -> tuple[Vec, ...]:
        """The dense columns, a view for the boundary."""
        return tuple(densify(dict(terms), self.rows) for terms in self.column_terms)

    @cached_property
    def entries(self) -> tuple[Vec, ...]:
        """The dense rows, a view for the boundary."""
        return tuple(zip(*self.columns)) if self.cols else ((),) * self.rows

    def col(self, j: int) -> Vec:
        return self.columns[j]

    def apply(self, v: Vec) -> Vec:
        if len(v) != self.cols:
            raise DimensionError(f"matrix has {self.cols} columns, vector has {len(v)}")
        cols = self.column_terms
        return densify(lincomb((x, cols[j]) for j, x in nonzero(v)), self.rows)


def _clear(row: SparseVec, echelon: dict[int, SparseVec], own: int | None = None) -> None:
    """Subtract pivot rows from `row` until it is zero in every pivot column but `own`."""
    # A pivot row starts at its pivot, so subtracting it only adds entries to
    # its right: taking pivots in increasing order (a heap) never revisits a
    # column already cleared.
    todo = [j for j in row if j in echelon and j != own]
    if not todo:
        return
    heapify(todo)
    while todo:
        p = heappop(todo)
        c = row.get(p)
        if c is None:
            continue
        for j, y in echelon[p].items():
            x = row.get(j)
            if x is None:
                row[j] = -c * y
                if j in echelon:
                    heappush(todo, j)
            else:
                x -= c * y
                if x:
                    row[j] = x
                else:
                    del row[j]


def echelon_insert(row: SparseVec, echelon: dict[int, SparseVec]) -> int | None:
    """Reduce `row` (zero-free; changed in place) against a forward echelon and add it
    under its leading column, which is returned; None when it lies in the echelon's span."""
    _clear(row, echelon)
    if not row:
        return None
    lead = min(row)
    if row[lead] != 1:  # a -1 pivot is normalised by negation, so integer rows stay integer
        inv = -1 if row[lead] == -1 else ONE / row[lead]
        row = {j: x * inv for j, x in row.items()}
    echelon[lead] = row
    return lead


def _eliminate(rows: Iterable[SparseVec]) -> dict[int, SparseVec]:
    """Nonzero rows of the RREF of the given rows, keyed by pivot; the inputs are not modified."""
    echelon: dict[int, SparseVec] = {}
    for given in rows:
        if given:
            echelon_insert({j: x for j, x in given.items() if x}, echelon)
    # Back-substitute from the largest pivot down, so that every pivot row
    # used is already reduced; a row that holds only its pivot has nothing to clear.
    for p in sorted(echelon, reverse=True):
        if len(row := echelon[p]) > 1:
            _clear(row, echelon, p)
    return echelon


def _sparse_rows(m: Mat) -> Iterator[SparseVec]:
    return map(dict, transposed(m.column_terms, m.rows))


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column list; row space preserved."""
    echelon = _eliminate(_sparse_rows(m))
    pivots = tuple(sorted(echelon))
    return Mat.from_terms(m.rows, m.cols, transposed((sorted_terms(echelon[p]) for p in pivots), m.cols)), pivots


class Subspace(Record):
    """Subspace of the coordinate space, stored by the canonical term lists of its RREF rows."""

    ambient_dim: int
    sparse_basis: tuple[tuple[tuple[int, Exact], ...], ...]

    def __post_init__(self) -> None:
        # O(nnz): canonical rows (`check_terms`), pivots ascending, leading 1s, zero at other pivots
        error, pivots = "subspace basis is not a canonical RREF", [-1]
        for row in self.sparse_basis:
            check_terms(row, self.ambient_dim, error)
            if not row or row[0][0] <= pivots[-1] or row[0][1] != 1:
                raise ShapeError(error)
            pivots.append(row[0][0])
        if not set(pivots).isdisjoint(j for row in self.sparse_basis for j, _ in row[1:]):
            raise ShapeError(error)

    @classmethod
    def spanned_by(cls, ambient_dim: int, vectors: Sequence[Vec]) -> "Subspace":
        for v in vectors:
            if len(v) != ambient_dim:
                raise DimensionError("spanning vector length differs from ambient dimension")
        return cls.from_sparse(ambient_dim, (dict(exact_terms(v)) for v in vectors))

    @classmethod
    def from_sparse(cls, ambient_dim: int, rows: Iterable[SparseVec]) -> "Subspace":
        """Span of sparse vectors, every index below ambient_dim."""
        echelon = _eliminate(rows)
        return cls(ambient_dim, tuple(sorted_terms(echelon[p]) for p in sorted(echelon)))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, tuple(map(basis_terms, range(ambient_dim))))

    @property
    def dim(self) -> int:
        return len(self.sparse_basis)

    @cached_property
    def basis(self) -> tuple[Vec, ...]:
        """The dense RREF rows, a view for the boundary."""
        return tuple(densify(dict(row), self.ambient_dim) for row in self.sparse_basis)

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        return tuple(row[0][0] for row in self.sparse_basis)

    def complement_coords(self) -> tuple[int, ...]:
        """Coordinates not pivotal for this subspace, in increasing order."""
        piv = set(self.pivots)
        return tuple(j for j in range(self.ambient_dim) if j not in piv)

    @cached_property
    def _echelon(self) -> dict[int, SparseVec]:
        """The rows as a {pivot: row} echelon, which `_clear` reads and never changes."""
        return {row[0][0]: dict(row) for row in self.sparse_basis}

    def reduce(self, v: Vec) -> Vec:
        """Canonical representative of v modulo this subspace (zero on pivots)."""
        if len(v) != self.ambient_dim:
            raise DimensionError("vector length differs from ambient dimension")
        row = dict(exact_terms(v))
        _clear(row, self._echelon)
        return densify(row, self.ambient_dim)

    def contains(self, v: Vec) -> bool:
        if len(v) != self.ambient_dim:
            raise DimensionError("vector length differs from ambient dimension")
        return self.contains_sparse(dict(exact_terms(v)))

    def contains_sparse(self, v: SparseVec) -> bool:
        """`contains` of a zero-free sparse vector, which is not changed."""
        row = dict(v)
        _clear(row, self._echelon)
        return not row

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise DimensionError("ambient dimensions differ")
        return all(self.contains_sparse(dict(row)) for row in other.sparse_basis)

    def coordinates(self, v: Vec) -> Vec:
        """Coefficients of v in the RREF basis; v must be a member."""
        if not self.contains(v):
            raise DimensionError("vector is not a member of the subspace")
        return tuple(v[p] for p in self.pivots)

    def sum(self, other: "Subspace") -> "Subspace":
        if other.ambient_dim != self.ambient_dim:
            raise DimensionError("ambient dimensions differ")
        return Subspace.from_sparse(self.ambient_dim, map(dict, self.sparse_basis + other.sparse_basis))

    def annihilator(self) -> "Subspace":
        """Functionals vanishing on the subspace, in dual-basis coordinates."""
        # the basis is already an echelon, so its null space is read off directly
        return _null_space(self._echelon, self.ambient_dim)

    def intersect(self, other: "Subspace") -> "Subspace":
        return self.annihilator().sum(other.annihilator()).annihilator()

    def quotient_map(self) -> Mat:
        """Matrix of v -> complement coordinates of reduce(v).

        Its kernel is exactly this subspace, so it doubles as a membership
        test and as the projection used for quotient constructions.
        """
        # read off the RREF: reduce(e_j) is e_j, or e_j - basis[r] if j is row r's pivot
        rows = {c: {c: 1} for c in self.complement_coords()}
        for p, b in zip(self.pivots, self.sparse_basis):
            for c, x in b:
                if c != p:
                    rows[c][p] = -x
        n = self.ambient_dim
        return Mat.from_terms(len(rows), n, transposed(map(sorted_terms, rows.values()), n))


def _null_space(echelon: dict[int, SparseVec], cols: int) -> Subspace:
    """Null space of the first `cols` columns of the RREF rows `echelon`.

    The RREF of [A | b] restricted to A's columns is the RREF of A plus at
    most one zero row, so this reads A's null space off either reduction.
    """
    basis = {f: {f: 1} for f in range(cols) if f not in echelon}  # an int, so integral rows stay integral
    for p, row in echelon.items():
        for f, x in row.items():
            if f in basis:
                basis[f][p] = -x
    return Subspace.from_sparse(cols, basis.values())


def kernel(m: Mat) -> Subspace:
    """Null space of m as a canonical Subspace of the column coordinate space."""
    return column_kernel(m.column_terms, m.rows)


def kernel_sparse(rows: Iterable[SparseVec], cols: int) -> Subspace:
    """`kernel` of the matrix with these sparse rows and `cols` columns."""
    return _null_space(_eliminate(rows), cols)


def column_kernel(columns: Sequence[Terms], rows: int) -> Subspace:
    """`kernel` of the matrix with these sparse columns and `rows` rows."""
    return kernel_sparse(map(dict, transposed(columns, rows)), len(columns))


def solve_affine(a: Mat, b: Vec) -> tuple[Vec | None, Subspace]:
    """Particular solution of a*x = b (free variables zero) plus the full
    solution space of a*x = 0; the particular part is None when inconsistent."""
    if len(b) != a.rows:
        raise DimensionError("right-hand side length differs from row count")
    rows = _sparse_rows(a)
    return solve_affine_sparse((row | {a.cols: bi} if bi else row for row, bi in zip(rows, b)), a.cols)


def solve_affine_sparse(rows: Iterable[SparseVec], cols: int) -> tuple[Vec | None, Subspace]:
    """`solve_affine` on sparse rows of [A | b]: A in columns below `cols`, b at column `cols`."""
    echelon = _eliminate(rows)
    homogeneous = _null_space(echelon, cols)
    if cols in echelon:
        return None, homogeneous
    return densify({p: row[cols] for p, row in echelon.items() if cols in row}, cols), homogeneous


def invert(m: Mat) -> Mat | None:
    """Inverse of a square matrix, or None when singular."""
    if m.rows != m.cols:
        raise DimensionError("only square matrices can be inverted")
    n = m.rows
    reduced, pivots = rref(Mat.from_terms(n, 2 * n, m.column_terms + tuple(map(basis_terms, range(n)))))
    if tuple(range(n)) != pivots[:n] or len(pivots) != n:
        return None
    return Mat.from_terms(n, n, reduced.column_terms[n:])
