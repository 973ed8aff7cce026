"""The convolution algebra Hom(C, A) and generalized counital inverses.

A linear map C -> A is stored by its matrix (target dim x source dim),
built and read a column at a time through its column terms.  Every
Sweedler product of two maps is one of two kernels: `conv_columns`, the
columns of (p * q)(c) = p(c_1) q(c_2) as one flat sum, and `twisted_rows`,
c L_p(x) r(e_q) summed over the terms (p, q, c) of Delta(e_i) as a row over
the basis x of A.  Conjugation u(h_1) x v(h_2) (`conjugation_rows`), the
one-sided criterion (h_1 . x) u(h_2) and counital commutation
h_1 g eps_s(h_2) are rows of the second.

For idempotents e, f the map u is (e, f)-invertible when some v satisfies

    u * v = e,   v * u = f,   u * f = u,   f * v = v,

and that v is unique when it exists.  The antipode is the (eps_t,
eps_s)-inverse of the identity, and `weakhopf` checks its laws as these
convolutions: id * S = eps_t, S * id = eps_s and (S * id) * S = S.  Two
constructions are provided: a direct affine solve over the matrix
entries, and the coradical series that lifts an inverse of the
restriction to the coradical through the filtration.  They must agree;
the series asserts that.

The direct solve's system has one row per condition, source basis vector
e_i and target coordinate p.  The products u(e_j) e_b, e_b u(e_k) and
f(e_j) e_b are tabulated once per leg index (`linalg.combine_each`), and
the rows at e_i are summed from them over the terms of Delta(e_i).  A row
of u * v = e or v * u = f is made only when a term or a right-hand side
reaches it.  A row of f * v = v is summed from its terms before it takes
its -v entry, and it is dropped when that cancels it.  So a row reaches
the eliminator empty only when its own terms cancel: on c3_o3 it gets 972
of the system's 2,187 rows, none of them empty.  Preconditions are
checked once per public call: `ef_inverse_solve` and `ef_inverse_series`
check theirs and hand over to private cores, and `ef_inverse_via_series`
checks (u, e, f) and their restrictions to the coradical, once each.

One elimination is shared per (context, u, e, f): a command solves and
then runs the series, which solves on the coradical (on a cosemisimple
source, the full context again) and cross-checks against a second full
solve.  `_solution_space` takes the source, the target and the column
terms of u, e and f, and keeps its last two results in an `lru_cache`
keyed by value, so that maps built afresh but equal share an entry; two
is what a solve and then a series hold live at once.  Every check still
runs on every call: the preconditions, the solve's v * e = v and the
series' comparison with the direct solve.
"""

from __future__ import annotations

from functools import cache, lru_cache
from typing import Callable, Iterable, Sequence

from .algebra import FiniteAlgebra
from .coalgebra import FiniteCoalgebra, coradical_filtration
from .errors import DimensionError, InvariantViolation, PreconditionError, ShapeError
from .linalg import (
    ColumnTerms, Exact, Mat, Record, SparseRows, SparseVec, Subspace, Terms, Vec, apply_each, basis_terms,
    combine_each, invert, lincomb, nonzero, row_terms, solve_affine_sparse, support_of, sweedler_each,
)
from .report import Report, ReportBuilder


class ConvMap(Record):
    source: FiniteCoalgebra
    target: FiniteAlgebra
    matrix: Mat

    def __post_init__(self) -> None:
        if self.matrix.rows != self.target.dim or self.matrix.cols != self.source.dim:
            raise ShapeError("convolution map matrix has wrong shape")

    def __call__(self, x: Vec) -> Vec:
        return self.matrix.apply(x)

    def is_zero(self) -> bool:
        return not any(self.matrix.column_terms)

    def same_context(self, other: "ConvMap") -> bool:
        return self.source == other.source and self.target == other.target


def _require_context(*maps: ConvMap) -> None:
    first = maps[0]
    for m in maps[1:]:
        if not first.same_context(m):
            raise DimensionError("convolution operands live in different Hom contexts")


def conv_columns(src: FiniteCoalgebra, tgt: FiniteAlgebra, pc: Sequence[Terms], qc: Sequence[Terms]) -> list[SparseVec]:
    """The sparse columns of p * q, from the column terms pc of p and qc of q: column i sums c x y e_j e_k over
    the terms (p, q, c) of Delta(e_i), (j, x) of p(e_p) and (k, y) of q(e_q), as one flat `lincomb`."""
    mt, dt = tgt.mult_terms, src.delta_terms
    return [lincomb((c * x * y, mt[j][k]) for p, q, c in d for j, x in pc[p] for k, y in qc[q]) for d in dt]


def _conv_columns(p: ConvMap, q: ConvMap) -> list[SparseVec]:
    """The sparse columns of p * q, for maps in the same context."""
    return conv_columns(p.source, p.target, p.matrix.column_terms, q.matrix.column_terms)


def convolve(p: ConvMap, q: ConvMap) -> ConvMap:
    """(p * q)(c) = p(c_1) q(c_2), pushed through the comultiplication tensor."""
    _require_context(p, q)
    return ConvMap(p.source, p.target, Mat.from_sparse_columns(_conv_columns(p, q), p.target.dim))


def _conv_is(p: ConvMap, q: ConvMap, r: ConvMap) -> bool:
    """Whether p * q = r (same context), column by column against r's cached column terms."""
    return all(col == dict(terms) for col, terms in zip(_conv_columns(p, q), r.matrix.column_terms))


def twisted_rows(left: Callable[[int], Iterable[tuple[int, Terms]]], r: ConvMap) -> Callable[[int], SparseRows]:
    """row(i): the sum of c L_p(x) r(e_q) over the terms (p, q, c) of Delta(e_i), for every basis vector x
    of r's target, left(p) listing the nonzero (x, terms of L_p(x)); x_k r(e_q) over k is tabulated once per q."""
    target, rc, dt = r.target, r.matrix.column_terms, r.source.delta_terms

    @cache
    def times_r(q: int) -> list[Terms]:  # x_k r(e_q) over k
        return row_terms(combine_each(rc[q], target.transposed_support), target.dim)

    return lambda i: sweedler_each(dt[i], lambda p, q: support_of(apply_each(left(p), times_r(q))))


def conjugation_rows(u: ConvMap, v: ConvMap) -> Callable[[int], SparseRows]:
    """`twisted_rows` with L_p(x) = u(e_p) x, tabulated once per p: row(i) is u(h_1) x v(h_2) for h = e_i."""
    uc, support = u.matrix.column_terms, u.target.mult_support
    return twisted_rows(cache(lambda p: support_of(combine_each(uc[p], support))), v)


def conv_unit(c: FiniteCoalgebra, a: FiniteAlgebra) -> ConvMap:
    """Unit of the convolution algebra: x -> counit(x) 1_A."""
    unit = nonzero(a.unit)
    return ConvMap(c, a, Mat.from_sparse_columns([{k: x * u for k, u in unit} for x in c.counit], a.dim))


def _conv_add(p: ConvMap, q: ConvMap, c: int = 1) -> ConvMap:
    """p + c q, for maps in the same context."""
    columns = [lincomb(((1, s), (c, t))) for s, t in zip(p.matrix.column_terms, q.matrix.column_terms)]
    return ConvMap(p.source, p.target, Mat.from_sparse_columns(columns, p.target.dim))


def conv_power(p: ConvMap, n: int) -> ConvMap:
    """n-fold convolution power of p, n >= 1."""
    if n < 1:
        raise PreconditionError("convolution power requires n >= 1")
    acc = p
    for _ in range(n - 1):
        acc = convolve(acc, p)
    return acc


def is_idempotent(p: ConvMap) -> bool:
    return _conv_is(p, p, p)


class EFWitness(Record):
    u: ConvMap
    v: ConvMap
    e: ConvMap
    f: ConvMap

    def __post_init__(self) -> None:
        _require_context(self.u, self.v, self.e, self.f)

    @property
    def source(self) -> FiniteCoalgebra:
        return self.u.source

    @property
    def target(self) -> FiniteAlgebra:
        return self.u.target


def check_ef_witness(w: EFWitness) -> Report:
    """Verify every identity a counital inverse pair must satisfy."""
    rb = ReportBuilder()
    rb.add("e_nonzero", not w.e.is_zero())
    rb.add("f_nonzero", not w.f.is_zero())
    rb.add("e_idempotent", is_idempotent(w.e))
    rb.add("f_idempotent", is_idempotent(w.f))
    rb.add("u_conv_v_equals_e", _conv_is(w.u, w.v, w.e))
    rb.add("v_conv_u_equals_f", _conv_is(w.v, w.u, w.f))
    rb.add("u_absorbs_f", _conv_is(w.u, w.f, w.u))
    rb.add("f_absorbs_v", _conv_is(w.f, w.v, w.v))
    # derived identities; failures here with the above passing indicate
    # inconsistent inputs rather than a bad pair
    rb.add("v_absorbs_e", _conv_is(w.v, w.e, w.v))
    rb.add("e_absorbs_u", _conv_is(w.e, w.u, w.u))
    return rb.build()


def require_witness(w: EFWitness, error: type[Exception], what: str) -> EFWitness:
    """w itself when it passes `check_ef_witness`; otherwise raise error with what and the failed names."""
    report = check_ef_witness(w)
    if not report.ok:
        raise error(f"{what}: " + ", ".join(report.failed_names()))
    return w


def _solver_preconditions(u: ConvMap, e: ConvMap, f: ConvMap) -> None:
    _require_context(u, e, f)
    if e.is_zero() or f.is_zero():
        raise PreconditionError("e and f must be nonzero")
    if not is_idempotent(e) or not is_idempotent(f):
        raise PreconditionError("e and f must be convolution idempotents")
    if not _conv_is(e, u, u):
        raise PreconditionError("e does not absorb u on the left")
    if not _conv_is(u, f, u):
        raise PreconditionError("f does not absorb u on the right")


def ef_inverse_solution_space(u: ConvMap, e: ConvMap, f: ConvMap) -> tuple[Vec | None, Subspace]:
    """Affine solution set of {u*v = e, v*u = f, f*v = v} over v's entries.

    Unknowns are the entries of v's matrix flattened as (row, col) ->
    row * source_dim + col.  Exposed separately so uniqueness (a zero
    homogeneous space whenever consistent) can be tested directly.
    """
    return _solution_space(u.source, u.target, u.matrix.column_terms, e.matrix.column_terms, f.matrix.column_terms)


@lru_cache(maxsize=2)
def _solution_space(
    src: FiniteCoalgebra, tgt: FiniteAlgebra, u_cols: ColumnTerms, e_cols: ColumnTerms, f_cols: ColumnTerms
) -> tuple[Vec | None, Subspace]:
    """`ef_inverse_solution_space` on the context and the column terms of u, e and f."""
    n_c, n_a, dt = src.dim, tgt.dim, src.delta_terms
    unknowns = n_a * n_c

    def tabulate(cols: ColumnTerms, support) -> list[dict[int, list[tuple[int, Exact]]]]:
        """Per j, the products m(e_j) e_b under a table's support, by entry: p maps to (b * n_c, value)."""
        out = [{} for _ in range(n_c)]
        for by_row, terms in zip(out, cols):
            for b, product in sorted(combine_each(terms, support).items()):
                for p, y in product.items():
                    by_row.setdefault(p, []).append((b * n_c, y))
        return out

    u_left = tabulate(u_cols, tgt.mult_support)  # u(e_j) e_b
    u_right = tabulate(u_cols, tgt.transposed_support)  # e_b u(e_k)
    f_left = tabulate(f_cols, tgt.mult_support)  # f(e_j) e_b
    rows: list[SparseVec] = []
    for i in range(n_c):
        # condition -> p -> row p of that condition at e_i; the coefficient of
        # v[b][k] sits at b * n_c + k, the right-hand side at `unknowns`
        uv: dict[int, SparseVec] = {p: {unknowns: y} for p, y in e_cols[i]}  # u * v = e
        vu: dict[int, SparseVec] = {p: {unknowns: y} for p, y in f_cols[i]}  # v * u = f
        fv: dict[int, SparseVec] = {}  # f * v - v = 0, its -v entries added after the terms
        for j, k, c in dt[i]:
            for block, table, leg in ((uv, u_left[j], k), (vu, u_right[k], j), (fv, f_left[j], k)):
                for p, entries in table.items():
                    row = block.setdefault(p, {})
                    for t, y in entries:
                        t += leg
                        row[t] = row.get(t, 0) + c * y
        rows += [*uv.values(), *vu.values()]
        for p in range(n_a):
            row, t = fv.get(p, {}), p * n_c + i
            if x := row.get(t, 0) - 1:
                row[t] = x
            else:
                del row[t]
            if row:  # f * v = v holds at (p, i) on every v when the row cancels
                rows.append(row)

    return solve_affine_sparse(rows, unknowns)


def _conv_from_flat(u: ConvMap, flat: Vec) -> ConvMap:
    """The map whose entry (b, k) is flat[b * n_c + k]: column k is every n_c-th entry from k."""
    n_c = u.source.dim
    columns = tuple(nonzero(flat[k::n_c]) for k in range(n_c))
    return ConvMap(u.source, u.target, Mat.from_terms(u.target.dim, n_c, columns))


def ef_inverse_solve(u: ConvMap, e: ConvMap, f: ConvMap) -> ConvMap | None:
    """Direct construction of the (e, f)-inverse of u, or None.

    Imposes exactly the three defining linear conditions; the identity
    v * e = v is verified afterwards rather than imposed, so a solver bug
    cannot hide behind an over-constrained system.
    """
    _solver_preconditions(u, e, f)
    return _solve(u, e, f)


def _solve(u: ConvMap, e: ConvMap, f: ConvMap) -> ConvMap | None:
    """`ef_inverse_solve` on arguments whose preconditions are already checked."""
    particular, homogeneous = ef_inverse_solution_space(u, e, f)
    if particular is None:
        return None
    if homogeneous.dim != 0:
        raise InvariantViolation("inverse solution space has positive dimension")
    v = _conv_from_flat(u, particular)
    if not _conv_is(v, e, v):
        raise InvariantViolation("solved inverse fails the derived identity v * e = v")
    return v


def restrict_conv(p: ConvMap, sub: FiniteCoalgebra, basis: Subspace) -> ConvMap:
    """Restriction of p to a subcoalgebra presented by its RREF basis."""
    cols = p.matrix.column_terms
    columns = [lincomb((x, cols[j]) for j, x in b) for b in basis.sparse_basis]
    return ConvMap(sub, p.target, Mat.from_sparse_columns(columns, p.target.dim))


def extend_by_zero(psi0: ConvMap, source: FiniteCoalgebra, c0: Subspace, complement: Subspace) -> ConvMap:
    """Map equal to psi0 on the coradical and zero on the chosen complement: column j is the
    sum of B^-1[i][j] psi0(b_i) over the coradical basis b_i, for B = [coradical | complement]."""
    basis = Mat.from_sparse_columns([dict(b) for b in c0.sparse_basis + complement.sparse_basis], source.dim)
    inv = invert(basis)
    if inv is None:
        raise PreconditionError("coradical and complement do not span the space")
    values, k = psi0.matrix.column_terms, c0.dim
    columns = [lincomb((x, values[i]) for i, x in terms if i < k) for terms in inv.column_terms]
    return ConvMap(source, psi0.target, Mat.from_sparse_columns(columns, psi0.target.dim))


def ef_inverse_series(u: ConvMap, e: ConvMap, f: ConvMap, psi0: ConvMap, complement: Subspace | None = None) -> ConvMap:
    """Coradical-series construction of the (e, f)-inverse.

    psi0 must be the (e_0, f_0)-inverse of u restricted to the coradical;
    it is extended by zero on a complement (canonical RREF pivot
    complement unless one is supplied), and the finite geometric series

        Theta = gamma^0 + gamma + ... + gamma^L,   gamma^0 := the idempotent,

    with gamma_e = e - u * Psi and gamma_f = f - Psi * u closes at the
    filtration length L because gamma vanishes on the coradical.  Returns
    Theta_f * Psi * e after asserting it matches the direct solve.
    """
    _solver_preconditions(u, e, f)
    u0, e0, f0 = _on_coradical(u, e, f)
    if psi0.source != u0.source or psi0.target != u.target:
        raise PreconditionError("psi0 does not live on the coradical of the source")
    require_witness(
        EFWitness(u0, psi0, e0, f0), PreconditionError, "psi0 is not the counital inverse of u on the coradical"
    )
    return _series(u, e, f, psi0, complement)


def _on_coradical(*maps: ConvMap) -> tuple[ConvMap, ...]:
    """Each map restricted to the coradical of its source."""
    source = maps[0].source
    return tuple(restrict_conv(m, source.coradical_coalgebra, coradical_filtration(source).coradical) for m in maps)


def _series(u: ConvMap, e: ConvMap, f: ConvMap, psi0: ConvMap, complement: Subspace | None) -> ConvMap:
    """`ef_inverse_series` on arguments already checked: (u, e, f) and the witness psi0."""
    filtration = coradical_filtration(u.source)
    c0 = filtration.coradical
    if complement is None:
        complement = Subspace(u.source.dim, tuple(map(basis_terms, c0.complement_coords())))
    elif complement.ambient_dim != u.source.dim:
        raise DimensionError("complement ambient dimension differs from the source")
    elif complement.dim + c0.dim != u.source.dim or complement.intersect(c0).dim != 0:
        raise PreconditionError("supplied complement does not complement the coradical")

    psi = extend_by_zero(psi0, u.source, c0, complement)
    gamma_e = _conv_add(e, convolve(u, psi), -1)
    gamma_f = _conv_add(f, convolve(psi, u), -1)
    if any(apply_each(enumerate(c0.sparse_basis), gamma.matrix.column_terms) for gamma in (gamma_e, gamma_f)):
        raise InvariantViolation("series increments do not vanish on the coradical")

    theta_f = power = f
    for _ in range(filtration.length):
        power = convolve(power, gamma_f)
        theta_f = _conv_add(theta_f, power)

    result = convolve(convolve(theta_f, psi), e)

    direct = _solve(u, e, f)
    if direct is None or direct != result:
        raise InvariantViolation("series inverse disagrees with the direct solve")
    return result


def ef_inverse_via_series(u: ConvMap, e: ConvMap, f: ConvMap) -> ConvMap | None:
    """Series construction with the coradical-level inverse found by a
    direct solve on the restricted context; None when no inverse exists
    there (and hence none exists at all).  psi0 is not checked again as a
    witness: the check of (u_0, e_0, f_0) and the solve, which imposes or
    verifies the rest, establish every identity of `check_ef_witness`."""
    _solver_preconditions(u, e, f)
    u0, e0, f0 = _on_coradical(u, e, f)
    _solver_preconditions(u0, e0, f0)
    psi0 = _solve(u0, e0, f0)
    if psi0 is None:
        return None
    return _series(u, e, f, psi0, None)


def normalized_pseudo_inverse_check(u: ConvMap, v: ConvMap) -> bool:
    """True iff u * v * u = u and v * u * v = v."""
    _require_context(u, v)
    return _conv_is(convolve(u, v), u, u) and _conv_is(convolve(v, u), v, v)


def drazin_index_one_check(u: ConvMap, v: ConvMap, e: ConvMap) -> bool:
    """Commuting pseudo-inverse conditions for the two-sided (e, e) case."""
    require_witness(EFWitness(u, v, e, e), PreconditionError, "(u, v, e, e) is not a verified witness")
    uv = convolve(u, v)
    vu = convolve(v, u)
    return (
        uv == vu
        and _conv_is(convolve(u, u), v, u)
        and _conv_is(convolve(v, v), u, v)
    )
