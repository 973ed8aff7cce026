"""Finite-dimensional coalgebras by structure constants.

Comultiplication is the tensor d[i][j][k]: Delta(e_i) = sum d[i][j][k] e_j (x) e_k,
with the counit stored as a covector.  The coradical filtration is computed
twice, by genuinely different routes:

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

from .algebra import FiniteAlgebra, Tensor3, _product_space, jacobson_radical, tensor3
from .errors import InvariantViolation, PreconditionError, ShapeError
from .linalg import (
    ZERO, Record, SparseVec, Subspace, Vec, _clear, basis_terms, collect, densify, echelon_insert, kernel_sparse,
    lincomb, nonzero, sparse_kron, sweedler_terms, unit_vec, vec,
)
from .report import Report, ReportBuilder, holds_on, law_failures


class FiniteCoalgebra(Record):
    dim: int
    comult: Tensor3
    counit: Vec

    def __post_init__(self) -> None:
        if self.dim <= 0:
            raise ShapeError("coalgebra dimension must be positive")
        if len(self.comult) != self.dim:
            raise ShapeError("comultiplication tensor has wrong shape")
        for slice_ in self.comult:
            if len(slice_) != self.dim or any(len(r) != self.dim for r in slice_):
                raise ShapeError("comultiplication tensor has wrong shape")
        if len(self.counit) != self.dim:
            raise ShapeError("counit covector has wrong length")

    @classmethod
    def from_lists(cls, dim: int, comult: Sequence, counit: Sequence[int | Fraction]) -> "FiniteCoalgebra":
        return cls(dim, tensor3(comult, dim), vec(counit))

    @cached_property
    def delta_terms(self) -> tuple[tuple[tuple[int, int, Fraction], ...], ...]:
        """Nonzero (left index, right index, coefficient) triples per basis vector."""
        return tuple(
            tuple((j, k, c) for j, row in enumerate(slice_) for k, c in nonzero(row)) for slice_ in self.comult
        )

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
        return sum((self.counit[i] * xi for i, xi in nonzero(x)), ZERO)

    def delta_vec(self, x: Vec) -> Vec:
        """Delta(x) as a flat vector of length dim^2 (left index major)."""
        return densify(lincomb((xi, self.delta_columns[i]) for i, xi in nonzero(x)), self.dim * self.dim)

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


def _coassociativity_rows(dt) -> tuple[list[dict], list[dict]]:
    """(Delta (x) id) Delta(e_i) and (id (x) Delta) Delta(e_i) over every i, keyed by
    index triples, for the coproduct terms dt."""
    # each side is summed once, so its keys keep the order of one flat loop
    left = [collect(sweedler_terms(d, lambda j, k: sweedler_terms(dt[j], lambda p, q: (((p, q, k), 1),)))) for d in dt]
    right = [collect(sweedler_terms(d, lambda j, k: sweedler_terms(dt[k], lambda p, q: (((j, p, q), 1),)))) for d in dt]
    return left, right


def validate_coalgebra(c: FiniteCoalgebra) -> Report:
    """Coassociativity and both counit laws, per basis vector; coassociativity
    passes when `FiniteCoalgebra.is_coassociative` holds."""
    n, dt, counit = c.dim, c.delta_terms, dict(nonzero(c.counit))
    coassociativity = law_failures(
        partial(_coassociativity_rows, dt), (n,), lambda side: side, lambda: c.is_coassociative
    )

    def counit_law():
        for i in range(n):
            # (eps (x) id) Delta(e_i) and (id (x) eps) Delta(e_i)
            left = lincomb((x * counit[j], basis_terms(k)) for j, k, x in dt[i] if j in counit)
            right = lincomb((x * counit[k], basis_terms(j)) for j, k, x in dt[i] if k in counit)
            for side in (left, right):
                if side != {i: 1}:
                    yield (i,), densify(side, n), unit_vec(n, i)

    rb = ReportBuilder()
    rb.check("coassociativity", coassociativity)
    rb.check("counit_law", counit_law())
    return rb.build()


def _dual_terms(c: FiniteCoalgebra) -> tuple:
    """The dual algebra's term table, m[i][j] = ((k, d[k][i][j]), ...) with k ascending,
    which is what `nonzero` reads off the dense tensor."""
    n = c.dim
    table: list[list[list]] = [[[] for _ in range(n)] for _ in range(n)]
    for k, terms in enumerate(c.delta_terms):
        for i, j, x in terms:
            table[i][j].append((k, x))
    return tuple(tuple(map(tuple, row)) for row in table)


def dual_algebra(c: FiniteCoalgebra) -> FiniteAlgebra:
    """Algebra on the dual basis: m[i][j][k] = d[k][i][j], unit = counit."""
    n, cm = c.dim, c.comult
    a = FiniteAlgebra(n, tuple(tuple(zip(*(cm[k][i] for k in range(n)))) for i in range(n)), c.counit)
    vars(a)["mult_terms"] = _dual_terms(c)  # the cached property, known already
    return a


def coopposite(c: FiniteCoalgebra) -> FiniteCoalgebra:
    comult = tuple(
        tuple(tuple(c.comult[i][k][j] for k in range(c.dim)) for j in range(c.dim))
        for i in range(c.dim)
    )
    return FiniteCoalgebra(c.dim, comult, c.counit)


def coradical(c: FiniteCoalgebra) -> Subspace:
    """Sum of the simple subcoalgebras, as the dual radical's annihilator."""
    return c.dual_radical.annihilator()


def subcoalgebra_restriction(c: FiniteCoalgebra, s: Subspace) -> FiniteCoalgebra:
    """Coalgebra structure induced on the RREF basis of a subcoalgebra s."""
    if s.ambient_dim != c.dim:
        raise ShapeError("subspace ambient dimension differs from coalgebra dimension")
    if s.dim == 0:
        raise PreconditionError("zero subspace carries no coalgebra structure")
    n, m, rows, pivots = c.dim, s.dim, s.sparse_basis, s.pivots
    comult = []
    for b in rows:
        image = lincomb((x, c.delta_columns[i]) for i, x in b)
        # a_j (x) a_k is 1 at index p_j * n + p_k and 0 at every other such
        # index (RREF), so the coordinates d[b][j][k] of a member are read there
        d = tuple(densify({k: image[p * n + q] for k, q in enumerate(pivots) if p * n + q in image}, m) for p in pivots)
        terms = ((x, sparse_kron(rows[j], rows[k], n).items()) for j, dj in enumerate(d) for k, x in enumerate(dj) if x)
        if lincomb(terms) != image:
            raise PreconditionError("subspace is not a subcoalgebra")
        comult.append(d)
    counit = tuple(c.counit_value(b) for b in s.basis)
    return FiniteCoalgebra(s.dim, tuple(comult), counit)


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
