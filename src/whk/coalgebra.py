"""Finite-dimensional coalgebras by structure constants.

Comultiplication is stored by its terms: delta_terms[i] lists the nonzero
(j, k, d[i][j][k]) of Delta(e_i) = sum d[i][j][k] e_j (x) e_k, ascending in
(j, k), with the counit stored as a covector.  The dense tensor d[i][j][k]
is what the constructor takes and `FiniteCoalgebra.comult` gives back;
`FiniteCoalgebra.from_terms` takes the terms themselves.  The coradical
filtration is computed twice, by genuinely different routes:

  * the preimage chain C_n = Delta^{-1}(C (x) C_{n-1} + C_0 (x) C), iterated
    until it stabilises, with C_0 the annihilator of the dual algebra's
    radical; each step reduces every Delta(e_i) modulo a sparse forward
    echelon of that window and takes the kernel of the residues;
  * the dual chain C_n = annihilator(J^{n+1}) for J the dual radical, each
    power J^{k+1} = J J^k grown from the one before,

and `filtration_crosscheck` compares them layer by layer.  The dual radical
J is computed once per coalgebra (`FiniteCoalgebra.dual_radical`) and both
chains start from it; the dual algebra's term table is the coproduct's,
transposed, so neither chain reads a dense tensor.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial
from itertools import chain
from typing import Sequence

from .algebra import FiniteAlgebra, Tensor3, _product_space, jacobson_radical
from .errors import InvariantViolation, PreconditionError, ShapeError
from .linalg import (
    ZERO, Exact, Record, SparseVec, Subspace, TermTable, Terms, Vec, _clear, basis_terms, check_terms, dense_table,
    dense_tensor, echelon_insert, kernel_sparse, lincomb, nonzero, nonzero_rows, sparse_kron, term_value, vec,
)
from .report import Report, ReportBuilder, holds_on, law_failures


_COMULT_SHAPE = "comultiplication tensor has wrong shape"


class FiniteCoalgebra(Record):
    dim: int
    delta_terms: tuple[tuple[tuple[int, int, Exact], ...], ...]
    counit: Vec

    def __init__(self, dim: int, comult: Tensor3, counit: Vec) -> None:
        """The coalgebra with the dense comultiplication tensor, read once into its terms."""
        if dim > 0:
            table = dense_table(comult, dim, dim, _COMULT_SHAPE)
            comult = tuple(tuple((j, k, x) for j, terms in enumerate(rows) for k, x in terms) for rows in table)
        Record.__init__(self, dim, comult, vec(counit))

    @classmethod
    def from_terms(cls, dim: int, delta_terms: Sequence, counit: Vec) -> "FiniteCoalgebra":
        """The coalgebra with these canonical coproduct terms: (j, k) ascending, values as
        `linalg.check_terms` requires."""
        return cls._of_fields(dim, delta_terms, vec(counit))

    def __post_init__(self) -> None:
        n = self.dim
        if n <= 0:
            raise ShapeError("coalgebra dimension must be positive")
        if len(self.delta_terms) != n:
            raise ShapeError(_COMULT_SHAPE)
        for terms in self.delta_terms:
            # (j, k) ascending is the flat index j * n + k ascending, for 0 <= k < n
            flat = ((j * n + k if 0 <= k < n else -1, x) for j, k, x in terms)
            check_terms(flat, n * n, "comultiplication term table is not canonical")
        if len(self.counit) != n:
            raise ShapeError("counit covector has wrong length")

    @cached_property
    def comult(self) -> Tensor3:
        """The dense comultiplication tensor, read off `delta_terms`."""
        n = self.dim
        table: list[list[list]] = [[[] for _ in range(n)] for _ in range(n)]
        for i, terms in enumerate(self.delta_terms):
            for j, k, x in terms:
                table[i][j].append((k, x))
        return dense_tensor(table, n)

    @cached_property
    def delta_columns(self) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        """Delta(e_i) as a term list over the flat index j * dim + k, per basis vector."""
        n = self.dim
        return tuple(tuple((j * n + k, c) for j, k, c in terms) for terms in self.delta_terms)

    @cached_property
    def is_coassociative(self) -> bool:
        """(Delta (x) id) Delta = (id (x) Delta) Delta on every basis vector."""
        return holds_on(partial(_coassociativity_rows, self.delta_terms), [()])

    @cached_property
    def coradical_coalgebra(self) -> FiniteCoalgebra:
        """The coalgebra structure on the RREF basis of the coradical, built once."""
        return subcoalgebra_restriction(self, self.coradical_filtration.coradical)

    def counit_value(self, x: Vec) -> Fraction:
        return self.counit_of_terms(nonzero(x))

    def counit_of_terms(self, terms: Terms) -> Fraction:
        return sum((self.counit[i] * x for i, x in terms), ZERO)

    @cached_property
    def dual_radical(self) -> Subspace:
        """The radical of the dual algebra, computed once: the coradical is its
        annihilator, and its powers give the dual chain."""
        return jacobson_radical(dual_algebra(self))

    @cached_property
    def coradical_filtration(self) -> CoradicalFiltration:
        """Increasing chain from the coradical to the whole space.

        Each next layer is the preimage of W = C (x) C_{n-1} + C_0 (x) C under
        the comultiplication: reducing each Delta(e_i) modulo a forward echelon
        of W is linear in e_i and zero exactly on W, so the layer is the kernel
        of the residues.  Stabilisation before reaching the full space is
        impossible for a valid coalgebra and raises.
        """
        n = self.dim
        c0 = coradical(self)
        layers = [c0]
        while layers[-1].dim < n:
            prev = layers[-1]
            window: dict[int, SparseVec] = {}
            for row in chain(
                (sparse_kron(basis_terms(i), b, n) for i in range(n) for b in prev.sparse_basis),
                (sparse_kron(a, basis_terms(i), n) for a in c0.sparse_basis for i in range(n)),
            ):
                echelon_insert(row, window)
            residues: dict[int, SparseVec] = {}  # row t holds entry t of each residue
            for i, column in enumerate(self.delta_columns):
                residue = dict(column)
                _clear(residue, window)
                for t, x in residue.items():
                    residues.setdefault(t, {})[i] = x
            nxt = kernel_sparse(residues.values(), n)
            if not nxt.contains_subspace(prev):
                raise InvariantViolation("filtration layer failed to contain its predecessor")
            if nxt == prev:
                raise InvariantViolation("filtration stabilised below the full space")
            layers.append(nxt)
        return CoradicalFiltration(tuple(layers))


def _coassociativity_rows(dt) -> tuple[dict[int, dict], dict[int, dict]]:
    """(Delta (x) id) Delta(e_i) and (id (x) Delta) Delta(e_i) over every i, keyed by
    index triples, for the coproduct terms dt."""
    left = (lincomb((c, [((p, q, k), x) for p, q, x in dt[j]]) for j, k, c in d) for d in dt)
    right = (lincomb((c, [((j, p, q), x) for p, q, x in dt[k]]) for j, k, c in d) for d in dt)
    return nonzero_rows(left), nonzero_rows(right)


def validate_coalgebra(c: FiniteCoalgebra) -> Report:
    """Coassociativity and both counit laws, per basis vector; coassociativity
    passes when `FiniteCoalgebra.is_coassociative` holds."""
    n, dt, counit = c.dim, c.delta_terms, dict(nonzero(c.counit))
    coassociativity = law_failures(partial(_coassociativity_rows, dt), (n,), lambda: c.is_coassociative)

    def counit_law():
        for i in range(n):
            # (eps (x) id) Delta(e_i) and (id (x) eps) Delta(e_i), against e_i
            left = lincomb((x * counit[j], basis_terms(k)) for j, k, x in dt[i] if j in counit)
            right = lincomb((x * counit[k], basis_terms(j)) for j, k, x in dt[i] if k in counit)
            if (left, right) != ({i: 1}, {i: 1}):
                yield (i,), (left, right), {i: 1}

    rb = ReportBuilder()
    rb.check("coassociativity", coassociativity)
    rb.check("counit_law", counit_law())
    return rb.build()


def _dual_terms(c: FiniteCoalgebra) -> TermTable:
    """The dual algebra's term table, m[i][j] = ((k, d[k][i][j]), ...) with k ascending."""
    n = c.dim
    table: list[list[list]] = [[[] for _ in range(n)] for _ in range(n)]
    for k, terms in enumerate(c.delta_terms):
        for i, j, x in terms:
            table[i][j].append((k, x))
    return tuple(tuple(map(tuple, row)) for row in table)


def dual_algebra(c: FiniteCoalgebra) -> FiniteAlgebra:
    """Algebra on the dual basis: m[i][j][k] = d[k][i][j], unit = counit."""
    return FiniteAlgebra.from_terms(c.dim, _dual_terms(c), c.counit)


def coopposite(c: FiniteCoalgebra) -> FiniteCoalgebra:
    flipped = tuple(tuple(sorted((k, j, x) for j, k, x in terms)) for terms in c.delta_terms)
    return FiniteCoalgebra.from_terms(c.dim, flipped, c.counit)


def coradical(c: FiniteCoalgebra) -> Subspace:
    """Sum of the simple subcoalgebras, as the dual radical's annihilator."""
    return c.dual_radical.annihilator()


def subcoalgebra_restriction(c: FiniteCoalgebra, s: Subspace) -> FiniteCoalgebra:
    """Coalgebra structure induced on the RREF basis of a subcoalgebra s."""
    if s.ambient_dim != c.dim:
        raise ShapeError("subspace ambient dimension differs from coalgebra dimension")
    if s.dim == 0:
        raise PreconditionError("zero subspace carries no coalgebra structure")
    n, rows = c.dim, s.sparse_basis
    position = {p: r for r, p in enumerate(s.pivots)}
    delta_terms = []
    for b in rows:
        image = lincomb((x, c.delta_columns[i]) for i, x in b)
        # a_j (x) a_k is 1 at index p_j * n + p_k and 0 at every other such
        # index (RREF), so the coordinates d[b][j][k] of a member are read there
        pairs = ((divmod(t, n), x) for t, x in image.items())
        terms = sorted(
            (position[p], position[q], term_value(x)) for (p, q), x in pairs if p in position and q in position
        )
        if lincomb((x, sparse_kron(rows[j], rows[k], n).items()) for j, k, x in terms) != image:
            raise PreconditionError("subspace is not a subcoalgebra")
        delta_terms.append(tuple(terms))
    counit = tuple(map(c.counit_of_terms, rows))
    return FiniteCoalgebra.from_terms(s.dim, tuple(delta_terms), counit)


class CoradicalFiltration(Record):
    layers: tuple[Subspace, ...]

    @property
    def length(self) -> int:
        return len(self.layers) - 1

    @property
    def coradical(self) -> Subspace:
        return self.layers[0]


def coradical_filtration(c: FiniteCoalgebra) -> CoradicalFiltration:
    """`FiniteCoalgebra.coradical_filtration`, computed once per structure."""
    return c.coradical_filtration


def dual_radical_filtration(c: FiniteCoalgebra) -> CoradicalFiltration:
    """Independent chain: annihilators of the powers R^(k+1) = R R^k of the dual radical R."""
    table = _dual_terms(c)
    radical = power = c.dual_radical
    layers = [power.annihilator()]
    while layers[-1].dim < c.dim:
        nxt = _product_space(table, c.dim, radical, power)
        if nxt == power:
            raise InvariantViolation("dual radical power chain stabilised below zero")
        power = nxt
        layers.append(power.annihilator())
    return CoradicalFiltration(tuple(layers))


def filtration_crosscheck(c: FiniteCoalgebra) -> bool:
    """True iff the preimage chain and the dual-annihilator chain coincide."""
    return coradical_filtration(c).layers == dual_radical_filtration(c).layers
