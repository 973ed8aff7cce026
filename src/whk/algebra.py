"""Finite-dimensional associative unital algebras given by structure constants.

An algebra is stored by its term table: mult_terms[i][j] lists the nonzero
structure constants (k, m[i][j][k]) of e_i * e_j = sum_k m[i][j][k] e_k,
k ascending, together with the coordinates of the unit.  The dense tensor
m[i][j][k] is what the constructor takes and `FiniteAlgebra.mult` gives
back; `FiniteAlgebra.from_terms` takes the table itself.  Every check is
exact; nothing is sampled.  A law in three arguments is decided on algebra
generators (`FiniteAlgebra.generators`, whose right-normed words span the
algebra) wherever the elements that satisfy it form a subalgebra, so a
passing verdict costs n^2 |S| evaluations rather than n^3; when that test
fails, the law is evaluated on every basis tuple and every failing tuple
is listed, in order; the centre of an associative algebra is likewise the
centraliser of its generators.  Each law is a `report.Law`, declared once
with its premise and spanning sets, and `Law.failures` the one procedure
that decides it.  A law is taken by rows: both sides at once along its
last index, so associativity at (x, s) is two dicts of nonzero rows over
y, one `linalg.combine_each` for (e_x e_s) e_y through the table's support
(`FiniteAlgebra.mult_support`) and one `linalg.apply_each` for
e_x (e_s e_y)."""

from __future__ import annotations

from functools import cached_property, partial
from itertools import product

from .errors import InvariantViolation, PreconditionError, ShapeError
from .linalg import (
    Exact, Mat, Record, SparseRows, SparseVec, Subspace, TermTable, Terms, Vec, apply_each, basis_terms,
    bilinear, check_table, combine_each, dense_table, dense_tensor, densify, echelon_insert, kernel_sparse, lincomb,
    nonzero, row_terms, table_support, vec,
)
from . import report
from .report import Law, Report, ReportBuilder, law

Tensor3 = tuple[tuple[Vec, ...], ...]


_MULT_SHAPE = "multiplication tensor has wrong shape"


class FiniteAlgebra(Record):
    dim: int
    mult_terms: TermTable
    unit: Vec

    def __init__(self, dim: int, mult: Tensor3, unit: Vec) -> None:
        """The algebra with the dense structure tensor mult, read once into its term table."""
        Record.__init__(self, dim, dense_table(mult, dim, dim, _MULT_SHAPE) if dim > 0 else mult, vec(unit))

    @classmethod
    def from_terms(cls, dim: int, mult_terms: TermTable, unit: Vec) -> "FiniteAlgebra":
        """The algebra with this canonical term table (see `linalg.check_terms`)."""
        return cls._of_fields(dim, mult_terms, vec(unit))

    def __post_init__(self) -> None:
        if self.dim <= 0:
            raise ShapeError("algebra dimension must be positive")
        check_table(self.mult_terms, self.dim, self.dim, _MULT_SHAPE, "multiplication term table is not canonical")
        if len(self.unit) != self.dim:
            raise ShapeError("unit vector has wrong length")

    @cached_property
    def mult(self) -> Tensor3:
        """The dense structure tensor, read off `mult_terms`."""
        return dense_tensor(self.mult_terms, self.dim)

    @cached_property
    def mult_support(self) -> tuple[tuple[tuple[int, Terms], ...], ...]:
        """mult_support[i]: the (j, terms of e_i e_j) with e_i e_j nonzero, for `linalg.combine_each`."""
        return table_support(self.mult_terms)

    @cached_property
    def transposed_support(self) -> tuple[tuple[tuple[int, Terms], ...], ...]:
        """transposed_support[j]: the (i, terms of e_i e_j) with e_i e_j nonzero, i ascending."""
        return table_support(zip(*self.mult_terms))

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """Basis indices, taken greedily in index order, whose span's closure under left
        multiplication by them, the span of their right-normed words s_1 (s_2 (... s_k)),
        is the whole algebra; in an associative algebra, the subalgebra they generate."""
        n, mt = self.dim, self.mult_terms
        echelon: dict[int, SparseVec] = {}
        spanning: list[Terms] = []  # the rows added to the echelon: a basis of the closure so far

        def add(row: SparseVec) -> bool:
            lead = echelon_insert(row, echelon)
            if lead is not None:
                spanning.append(tuple(echelon[lead].items()))
            return lead is not None

        chosen = []
        for i in range(n):
            k = len(spanning)
            if k == n:
                break
            if not add({i: 1}):
                continue
            chosen.append(i)
            # e_i times every earlier row, then each chosen e_s times every new row, until none is new
            for w in spanning[:k]:
                add(lincomb((c, mt[i][j]) for j, c in w))
            while k < len(spanning) < n:
                v = spanning[k]
                for s in chosen:
                    add(lincomb((c, mt[s][j]) for j, c in v))
                k += 1
        return tuple(chosen)

    @cached_property
    def is_associative(self) -> bool:
        """(e_x e_s) e_y = e_x (e_s e_y) for every generator s and all basis x, y.

        Exact by Light's test: the a with (x a) y = x (a y) for all x, y form a
        subalgebra, since (w, ab, z) = (wa, b, z) + (w, a, bz) - w (a, b, z) - (w, a, b) z
        holds in every algebra and each associator on the right has a or b in the middle;
        it holds every right-normed word in the generators, so the whole algebra.
        """
        return report.holds_on(partial(_associativity_rows, self), product(range(self.dim), self.generators))

    def multiply(self, x: Vec, y: Vec) -> Vec:
        if len(x) != self.dim or len(y) != self.dim:
            raise ShapeError("operand length differs from algebra dimension")
        return densify(bilinear(self.mult_terms, nonzero(x), nonzero(y)), self.dim)

    def left_mult_matrix(self, x: Vec) -> Mat:
        """The matrix of y -> x y: column j is x e_j."""
        xs, n = nonzero(x), self.dim
        return Mat.from_sparse_columns([bilinear(self.mult_terms, xs, basis_terms(j)) for j in range(n)], n)

    @cached_property
    def center(self) -> Subspace:
        """Solutions of x*e_i - e_i*x = 0 for the generators i if associative (x commuting with a
        and b commutes with ab), else every i; row (r, k), i the r-th, has (e_j e_i - e_i e_j)_k at j."""
        n, mt = self.dim, self.mult_terms
        gens = self.generators if self.is_associative else range(n)
        rows: list[SparseVec] = [{} for _ in range(len(gens) * n)]
        for r, i in enumerate(gens):
            for j in range(n):
                for k, c in mt[j][i]:
                    rows[r * n + k][j] = rows[r * n + k].get(j, 0) + c
                for k, c in mt[i][j]:
                    rows[r * n + k][j] = rows[r * n + k].get(j, 0) - c
        return kernel_sparse(rows, n)


def _associativity_rows(a: FiniteAlgebra, i: int, j: int) -> tuple[SparseRows, SparseRows]:
    """(e_i e_j) e_k and e_i (e_j e_k) over every k."""
    mt, support = a.mult_terms, a.mult_support
    return combine_each(mt[i][j], support), apply_each(support[j], mt[i])


def _associativity(a: FiniteAlgebra) -> Law:
    """(e_i e_j) e_k = e_i (e_j e_k), by rows over k; it holds when `FiniteAlgebra.is_associative` does
    (Light's test on the generators, exact in every algebra)."""
    n = a.dim
    return law("associativity", partial(_associativity_rows, a), (n, n, n), lambda: a.is_associative)


def validate_algebra(a: FiniteAlgebra) -> Report:
    """Associativity on every basis triple, and both unit laws; each failing triple is recorded."""
    rb = ReportBuilder()
    n = a.dim

    def unit_law():  # 1 e_i and e_i 1, as two rows over i, against e_i
        unit = nonzero(a.unit)
        left, right = combine_each(unit, a.mult_support), combine_each(unit, a.transposed_support)
        for i in range(n):
            sides = left.get(i, {}), right.get(i, {})
            if sides != ({i: 1}, {i: 1}):
                yield (i,), sides, {i: 1}

    rb.decide(_associativity(a))
    rb.check("unit_law", unit_law())
    return rb.build()


def center(a: FiniteAlgebra) -> Subspace:
    """`FiniteAlgebra.center`, computed once per algebra."""
    return a.center


def _commutation_rows(a: FiniteAlgebra, s: Subspace, t: Subspace, r: int) -> tuple[SparseRows, SparseRows]:
    """x y and y x over the basis y of t, for the basis vector x = s.sparse_basis[r],
    each applied to the products of x with every basis vector of A."""
    x, n = s.sparse_basis[r], a.dim
    return (
        apply_each(enumerate(t.sparse_basis), row_terms(combine_each(x, a.mult_support), n)),  # x e_j over j
        apply_each(enumerate(t.sparse_basis), row_terms(combine_each(x, a.transposed_support), n)),  # e_j x over j
    )


def centralizes(a: FiniteAlgebra, s: Subspace, t: Subspace) -> bool:
    """True iff every basis vector of s commutes with every basis vector of t, by rows over t."""
    if s.ambient_dim != a.dim or t.ambient_dim != a.dim:
        raise ShapeError("subspace ambient dimension differs from algebra dimension")
    return report.holds_on(partial(_commutation_rows, a, s, t), ((r,) for r in range(s.dim)))


def _trace_form(mt, n: int) -> list[SparseVec]:
    """Rows of the Gram matrix of (x, y) -> tr(L_x L_y) on the basis, for the term table mt.

    tr(L_i L_j) = sum over p, q of L_i[p][q] L_j[q][p], where L_i[p][q] = m[i][q][p];
    each entry (p, q) of some L_i meets only the L_j with an entry at (q, p).
    """
    at: dict[tuple[int, int], list[tuple[int, Exact]]] = {}  # (p, q) -> (i, L_i[p][q]) for each i
    for i, slice_ in enumerate(mt):
        for q, terms in enumerate(slice_):
            for p, c in terms:
                at.setdefault((p, q), []).append((i, c))
    rows: list[SparseVec] = [{} for _ in range(n)]
    for (p, q), column in at.items():
        for j, d in at.get((q, p), ()):
            for i, c in column:
                rows[i][j] = rows[i].get(j, 0) + c * d
    return rows


def jacobson_radical(a: FiniteAlgebra) -> Subspace:
    """Radical as the kernel of the trace form (Dickson's criterion).

    Over Q, for an associative unital algebra, the kernel I of
    (x, y) -> tr(L_x L_y) is the radical: I is a two-sided ideal because
    tr(L_{zxy}) = tr(L_{xyz}); for x in I, tr(L_x^k) = tr(L_x L_{x^(k-1)}) = 0
    for every k >= 1, so L_x is nilpotent; and rad A lies in I because xy is
    nilpotent for x in rad A.  The two-sided-ideal verification below
    therefore fails only on corrupt (non-associative) input.  The form is
    tr(L_i L_j) on basis vectors, not tr(L_{e_i e_j}), which agrees with it
    only where the algebra is associative.
    """
    n, mt = a.dim, a.mult_terms
    space = kernel_sparse(_trace_form(mt, n), n)
    for i in range(n):
        e = basis_terms(i)
        for r in space.sparse_basis:
            for product in (bilinear(mt, e, r), bilinear(mt, r, e)):
                if not space.contains_sparse(product):
                    raise InvariantViolation("radical candidate is not a two-sided ideal")
    return space


def _product_space(mt, n: int, s: Subspace, t: Subspace) -> Subspace:
    """Span of the products of basis vectors of s by basis vectors of t, for the table mt."""
    return Subspace.from_sparse(n, (bilinear(mt, v, w) for v in s.sparse_basis for w in t.sparse_basis))


def subspace_power(a: FiniteAlgebra, s: Subspace, n: int) -> Subspace:
    """Span of all n-fold products of basis vectors of s; n must be positive."""
    if n < 1:
        raise PreconditionError("subspace power requires n >= 1 (use the unit span for n = 0)")
    if s.ambient_dim != a.dim:
        raise ShapeError("subspace ambient dimension differs from algebra dimension")
    current = s
    for _ in range(n - 1):
        current = _product_space(a.mult_terms, a.dim, s, current)
    return current


def opposite_algebra(a: FiniteAlgebra) -> FiniteAlgebra:
    return FiniteAlgebra.from_terms(a.dim, tuple(zip(*a.mult_terms)), a.unit)


def unital_subalgebra_report(a: FiniteAlgebra, s: Subspace, label: str) -> Report:
    """Check that s contains the unit and is closed under multiplication."""
    rb = ReportBuilder()
    rb.add(f"{label}_contains_unit", s.contains_sparse(dict(nonzero(a.unit))))

    def closure():
        for i, x in enumerate(s.sparse_basis):
            for j, y in enumerate(s.sparse_basis):
                product = bilinear(a.mult_terms, x, y)
                if not s.contains_sparse(product):
                    yield (i, j), product, "member"

    rb.check(f"{label}_closed_under_product", closure())
    return rb.build()
