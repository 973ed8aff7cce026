"""Weak Hopf algebra structure and its axiom battery.

A weak Hopf algebra couples an algebra and a coalgebra on the same basis
with an antipode matrix.  Comultiplication is multiplicative but the unit
is not required to be grouplike; the failure of that Hopf axiom is
measured by the target/source counital idempotents whose fixed spaces
replace the scalar line of ordinary Hopf theory.

Axioms hold or fail on basis tuples, and are evaluated a row of tuples at
a time (see `report`): Delta multiplicative and S anti-multiplicative as a
row over j for each algebra generator i (each i if H is not associative or
that test fails); weak multiplicativity of the counit as three rows over g
for each a, each entry a vector over b; the antipode laws as the
(eps_t, eps_s)-inverse identities id * S = eps_t, S * id = eps_s and
(S * id) * S = S, each a `convolution.conv_columns` read as one row over
the basis; and the six eps_s/eps_t laws of `counital_identities` as six
rows over b for each a.  Weak comultiplicativity of the unit is one
identity, evaluated once, and the one-sided coproduct forms run over the
bases of H_s and H_t.  eps_t and eps_s are stored once, as the two
matrices of `WeakHopfAlgebra.counital_columns`.
"""

from __future__ import annotations

from functools import cache, cached_property, partial
from typing import Callable, Iterator

from .algebra import FiniteAlgebra, centralizes, validate_algebra, unital_subalgebra_report
from .coalgebra import FiniteCoalgebra, validate_coalgebra
from .convolution import ConvMap, conv_columns, twisted_rows
from .errors import DimensionError, InvariantViolation, ShapeError
from .linalg import (
    ZERO, ColumnTerms, Exact, Mat, Record, SparseRows, SparseVec, Subspace, Vec, apply_each, basis_terms, bilinear,
    combine_each, column_kernel, echelon_insert, invert, lincomb, nonzero, nonzero_rows, row_terms, sparse_kron,
    sorted_terms, support_of, sweedler,
)
from .report import Failure, Report, ReportBuilder, Rows, holds_on, interleaved_failures, law_failures


class WeakHopfAlgebra(Record):
    alg: FiniteAlgebra
    coalg: FiniteCoalgebra
    antipode: Mat

    def __post_init__(self) -> None:
        if self.alg.dim != self.coalg.dim:
            raise DimensionError("algebra and coalgebra dimensions differ")
        if self.antipode.rows != self.alg.dim or self.antipode.cols != self.alg.dim:
            raise ShapeError("antipode matrix has wrong shape")

    @property
    def dim(self) -> int:
        return self.alg.dim

    @property
    def unit(self) -> Vec:
        return self.alg.unit

    def multiply(self, x: Vec, y: Vec) -> Vec:
        return self.alg.multiply(x, y)

    def antipode_col(self, i: int) -> Vec:
        return self.antipode.col(i)

    @cached_property
    def unit_delta_terms(self) -> tuple[tuple[int, int, Exact], ...]:
        """Nonzero terms of Delta(1), read off the coproduct columns."""
        delta = lincomb((x, self.coalg.delta_columns[i]) for i, x in nonzero(self.unit))
        return tuple((*divmod(t, self.dim), c) for t, c in sorted_terms(delta))

    @cached_property
    def eps_rows(self) -> tuple[SparseVec, ...]:
        """The table eps(e_a e_b) as sparse rows: eps_rows[a] maps b to its nonzero value."""
        counit, mt, n = dict(nonzero(self.coalg.counit)), self.alg.mult_terms, self.dim
        rows = ({b: sum(counit.get(k, 0) * c for k, c in mt[a][b]) for b in range(n)} for a in range(n))
        return tuple({b: x for b, x in row.items() if x} for row in rows)

    @cached_property
    def antipode_inverse(self) -> Mat | None:
        return invert(self.antipode)

    @cached_property
    def counital_columns(self) -> tuple[Mat, Mat]:
        """The matrices of eps_t(e_i) = eps(1_1 e_i) 1_2 and eps_s(e_i) = 1_1 eps(e_i 1_2), read off `eps_rows`
        and the terms c 1_j (x) 1_k of Delta(1); unchecked, so that corrupted structures can be validated.  The
        one form of both maps: `counital_data` holds these objects."""
        n, eps, d1 = self.dim, self.eps_rows, self.unit_delta_terms
        et = [lincomb((c * eps[j][i], basis_terms(k)) for j, k, c in d1 if i in eps[j]) for i in range(n)]
        es = [lincomb((c * eps[i][k], basis_terms(j)) for j, k, c in d1 if k in eps[i]) for i in range(n)]
        return Mat.from_sparse_columns(et, n), Mat.from_sparse_columns(es, n)

    @cached_property
    def counital_commutation(self) -> Callable[[int], tuple[SparseRows, SparseRows]]:
        """The rows of `counital_commutation_rows`, each computed at most once, for both its readers."""
        support = self.alg.mult_support
        lhs = twisted_rows(support.__getitem__, eps_s_conv(self))
        return cache(lambda i: (lhs(i), {g: dict(terms) for g, terms in support[i]}))

    @cached_property
    def counital_data(self) -> CounitalData:
        """Counital idempotents and their fixed subalgebras, the kernels of id - P: idempotence
        and the unital-subalgebra facts are verified rather than assumed."""
        et, es = self.counital_columns
        for p in (et.column_terms, es.column_terms):
            if apply_each(enumerate(p), p) != nonzero_rows(map(dict, p)):  # P P = P, a column at a time
                raise InvariantViolation("counital maps are not idempotent")
        h_t, h_s = _fixed_space(et.column_terms), _fixed_space(es.column_terms)
        for label, space in (("target", h_t), ("source", h_s)):
            report = unital_subalgebra_report(self.alg, space, label)
            if not report.ok:
                raise InvariantViolation(f"{label} counital space is not a unital subalgebra")
        return CounitalData(et, es, h_t, h_s)


def _fixed_space(columns: ColumnTerms) -> Subspace:
    """The kernel of id - P, for the square matrix P with these column terms."""
    return column_kernel([lincomb(((1, basis_terms(i)), (-1, p))).items() for i, p in enumerate(columns)], len(columns))


def eps_t_matrix(h: WeakHopfAlgebra) -> Mat:
    """Column i is eps_t(e_i) = eps(1_1 e_i) 1_2."""
    return h.counital_columns[0]


def eps_s_matrix(h: WeakHopfAlgebra) -> Mat:
    """Column i is eps_s(e_i) = 1_1 eps(e_i 1_2)."""
    return h.counital_columns[1]


def _holds_on_generators(h: WeakHopfAlgebra, rows: Rows) -> bool:
    """Whether H is associative and the law with rows(i) over j holds at every algebra generator i.
    For `_comult_mult_rows` and `_anti_algebra_rows` that decides every (i, j): in an associative H
    the x at which the law holds for all y form a subalgebra, as their docstrings show."""
    return h.alg.is_associative and holds_on(rows, ((i,) for i in h.alg.generators))


def _comult_mult_rows(h: WeakHopfAlgebra) -> Rows:
    """rows(i): Delta(e_i e_j) and Delta(e_i) Delta(e_j) over j.  The x with Delta(x y) = Delta(x) Delta(y)
    for all y form a subspace, and for two of them a, b, Delta((a b) y) = Delta(a) Delta(b y) = Delta(a)
    Delta(b) Delta(y) = Delta(a b) Delta(y) when H, and so H (x) H, is associative: a subalgebra."""
    n, mt, dt, delta = h.dim, h.alg.mult_terms, h.coalg.delta_terms, h.coalg.delta_columns

    def product(i: int, j: int) -> SparseVec:  # Delta(e_i) Delta(e_j)
        return lincomb(
            (c1 * c2, sparse_kron(mt[p1][p2], mt[q1][q2], n).items()) for p1, q1, c1 in dt[i] for p2, q2, c2 in dt[j]
        )

    def rows(i: int) -> tuple[SparseRows, SparseRows]:
        return apply_each(h.alg.mult_support[i], delta), nonzero_rows(product(i, j) for j in range(n))

    return rows


def _comult_mult_failures(h: WeakHopfAlgebra) -> Iterator[Failure]:
    """Delta(e_i e_j) = Delta(e_i) Delta(e_j) on all pairs, decided on algebra generators."""
    n, rows = h.dim, _comult_mult_rows(h)
    return law_failures(rows, (n, n), partial(_holds_on_generators, h, rows))


def _unit_comult_failures(h: WeakHopfAlgebra) -> Iterator[Failure]:
    """Delta^2(1) = (Delta(1) (x) 1)(1 (x) Delta(1)) = (1 (x) Delta(1))(Delta(1) (x) 1)."""
    mt, dt, d1 = h.alg.mult_terms, h.coalg.delta_terms, h.unit_delta_terms
    direct = lincomb((c, [((p, q, k), x) for p, q, x in dt[j]]) for j, k, c in d1)
    left = lincomb((c * c2, [((j, m, q), x) for m, x in mt[k][p]]) for j, k, c in d1 for p, q, c2 in d1)
    right = lincomb((c * c2, [((j, m, q), x) for m, x in mt[p][k]]) for j, k, c in d1 for p, q, c2 in d1)
    if not direct == left == right:
        yield (), direct, (left, right)


def _counit_mult_failures(h: WeakHopfAlgebra) -> Iterator[Failure]:
    """eps(e_a e_g e_b) = eps(e_a g_1) eps(g_2 e_b) = eps(e_a g_2) eps(g_1 e_b).

    Each a is evaluated as three rows over g, each entry a sparse vector
    over b combined from `eps_rows`; an entry g whose three vectors differ
    is read b by b.
    """
    n, dt, support, eps = h.dim, h.coalg.delta_terms, h.alg.mult_support, h.eps_rows
    rows = [row.items() for row in eps]  # rows[q] is eps(e_q e_b) over b
    for a in range(n):
        ea = eps[a]
        lhs = apply_each(support[a], rows)
        first = apply_each(enumerate([(q, c * ea[p]) for p, q, c in dt[g] if p in ea] for g in range(n)), rows)
        second = apply_each(enumerate([(p, c * ea[q]) for p, q, c in dt[g] if q in ea] for g in range(n)), rows)
        for g in range(n):
            value, one, two = lhs.get(g, {}), first.get(g, {}), second.get(g, {})
            if value == one == two:
                continue
            for b in range(n):
                left, pair = value.get(b, ZERO), (one.get(b, ZERO), two.get(b, ZERO))
                if left != pair[0] or left != pair[1]:
                    yield (a, g, b), left, pair


_ANTIPODE_LAWS = ("antipode_left_cancel", "antipode_right_cancel", "antipode_triple")


def _antipode_rows(h: WeakHopfAlgebra) -> tuple[tuple[SparseRows, SparseRows], ...]:
    """S as the (eps_t, eps_s)-inverse of id: id * S = eps_t, S * id = eps_s and (S * id) * S = S,
    each a convolution of column terms, as rows over the basis."""
    conv, s = partial(conv_columns, h.coalg, h.alg), h.antipode.column_terms
    ids, (et, es) = tuple(map(basis_terms, range(h.dim))), h.counital_columns
    right = conv(s, ids)  # S * id
    sides = ((conv(ids, s), et.column_terms), (right, es.column_terms), (conv([c.items() for c in right], s), s))
    return tuple((nonzero_rows(lhs), nonzero_rows(map(dict, rhs))) for lhs, rhs in sides)


def _antipode_failures(h: WeakHopfAlgebra) -> Iterator[tuple[str, tuple[int, ...], SparseVec, SparseVec]]:
    """The three antipode laws, failures interleaved per basis vector."""
    return interleaved_failures(_ANTIPODE_LAWS, partial(_antipode_rows, h), (h.dim,))


def validate_wha(h: WeakHopfAlgebra) -> Report:
    """Full axiom battery: constituent structures plus the six couplings."""
    rb = ReportBuilder()
    rb.extend(validate_algebra(h.alg))
    rb.extend(validate_coalgebra(h.coalg))
    rb.check("comult_multiplicative", _comult_mult_failures(h))
    rb.check("unit_comult_compatibility", _unit_comult_failures(h))
    rb.check("counit_mult_compatibility", _counit_mult_failures(h))
    # the three antipode laws record their failures interleaved per basis vector
    rb.check_laws(_ANTIPODE_LAWS, _antipode_failures(h))
    return rb.build()


class CounitalData(Record):
    eps_t: Mat
    eps_s: Mat
    h_t: Subspace
    h_s: Subspace


def counital_data(h: WeakHopfAlgebra) -> CounitalData:
    """`WeakHopfAlgebra.counital_data`, computed once per structure."""
    return h.counital_data


_EPS_LAWS = (
    "eps_s_absorbs",
    "eps_s_translates",
    "eps_s_multiplicative",
    "eps_t_absorbs",
    "eps_t_translates",
    "eps_t_multiplicative",
)


def counital_identities(h: WeakHopfAlgebra) -> Report:
    """Identity suite for the counital maps and subalgebras.

    Checks, on every basis tuple: Delta(1) sits inside H_s (x) H_t; the
    coproduct of source/target elements takes its one-sided forms; and the
    six absorption/translation identities for eps_s and eps_t.
    """
    rb = ReportBuilder()
    cd = h.counital_data
    n, nn, mt, e = h.dim, h.dim * h.dim, h.alg.mult_terms, basis_terms
    delta = h.coalg.delta_columns

    pair_space = Subspace.from_sparse(
        nn, [sparse_kron(a, b, n) for a in cd.h_s.sparse_basis for b in cd.h_t.sparse_basis]
    )
    rb.add("delta_unit_in_source_target", pair_space.contains_sparse({j * n + k: c for j, k, c in h.unit_delta_terms}))

    def one_sided(rows, forms):  # Delta(x) against forms(x, j, k) summed over Delta(1) = 1_j (x) 1_k
        for r, xs in enumerate(rows):
            actual = lincomb((c, delta[t]) for t, c in xs)
            sides = [sweedler(h.unit_delta_terms, lambda j, k: form(xs, j, k)) for form in forms]
            if any(side != actual for side in sides):
                yield (r,), actual, tuple(sides)

    # Delta(x) = 1_1 (x) x 1_2 = 1_1 (x) 1_2 x for x in H_s
    rb.check("delta_on_source_elements", one_sided(cd.h_s.sparse_basis, (
        lambda x, j, k: sparse_kron(e(j), bilinear(mt, x, e(k)).items(), n),
        lambda x, j, k: sparse_kron(e(j), bilinear(mt, e(k), x).items(), n),
    )))
    # Delta(x) = 1_1 x (x) 1_2 = x 1_1 (x) 1_2 for x in H_t
    rb.check("delta_on_target_elements", one_sided(cd.h_t.sparse_basis, (
        lambda x, j, k: sparse_kron(bilinear(mt, e(j), x).items(), e(k), n),
        lambda x, j, k: sparse_kron(bilinear(mt, x, e(j)).items(), e(k), n),
    )))

    rb.check_laws(_EPS_LAWS, interleaved_failures(_EPS_LAWS, _eps_rows(h), (n, n)))
    return rb.build()


def _eps_rows(h: WeakHopfAlgebra) -> Callable[[int], tuple[tuple[SparseRows, SparseRows], ...]]:
    """rows(a): the six laws of `_EPS_LAWS` at every (a, b), in that order, as rows over b."""
    cd, n, mt, dt, eps = h.counital_data, h.dim, h.alg.mult_terms, h.coalg.delta_terms, h.eps_rows
    support, units = h.alg.mult_support, [basis_terms(k) for k in range(n)]
    es, et = cd.eps_s.column_terms, cd.eps_t.column_terms

    def rows(a: int) -> tuple[tuple[SparseRows, SparseRows], ...]:
        es_a = combine_each(es[a], support)  # eps_s(e_a) e_b
        et_a = combine_each(et[a], support)  # eps_t(e_a) e_b
        a_es = apply_each(enumerate(es), mt[a])  # e_a eps_s(e_b)
        a_et = apply_each(enumerate(et), mt[a])  # e_a eps_t(e_b)
        ea = eps[a]
        s_translated = ([(p, c * ea[q]) for p, q, c in d if q in ea] for d in dt)  # b_1 eps(e_a b_2) over b
        t_translated = ([(q, c * eps[p][b]) for p, q, c in dt[a] if b in eps[p]] for b in range(n))  # eps(a_1 e_b) a_2
        return (
            (apply_each(support_of(es_a), es), apply_each(support[a], es)),
            (es_a, apply_each(enumerate(s_translated), units)),
            (apply_each(support_of(a_es), es), apply_each(enumerate(es), row_terms(es_a, n))),
            (apply_each(support_of(a_et), et), apply_each(support[a], et)),
            (a_et, apply_each(enumerate(t_translated), units)),
            (apply_each(support_of(et_a), et), apply_each(enumerate(et), row_terms(et_a, n))),
        )

    return rows


def _anti_algebra_rows(h: WeakHopfAlgebra) -> Rows:
    """rows(i): S(e_i e_j) and S(e_j) S(e_i) over j.  The x with S(x y) = S(y) S(x) for all y form
    a subspace, and for two of them a, b, S((a b) y) = S(b y) S(a) = S(y) S(b) S(a) = S(y) S(a b)
    when H is associative: a subalgebra."""
    n, mt, s, support = h.dim, h.alg.mult_terms, h.antipode.column_terms, h.alg.mult_support

    def rows(i: int) -> tuple[SparseRows, SparseRows]:
        return apply_each(support[i], s), nonzero_rows(bilinear(mt, s[j], s[i]) for j in range(n))

    return rows


def _anti_morphism_laws(h: WeakHopfAlgebra) -> dict[str, Iterator[Failure]]:
    """S(e_i e_j) = S(e_j) S(e_i) on all pairs, decided on algebra generators, and
    Delta(S(e_i)) = S(e_i2) (x) S(e_i1)."""
    n, dt, s, delta = h.dim, h.coalg.delta_terms, h.antipode.column_terms, h.coalg.delta_columns
    rows = _anti_algebra_rows(h)

    def anti_coalgebra() -> tuple[SparseRows, SparseRows]:  # over i
        rhs = nonzero_rows(sweedler(dt[i], lambda p, q: sparse_kron(s[q], s[p], n)) for i in range(n))
        return apply_each(enumerate(s), delta), rhs

    return {
        "anti_algebra_morphism": law_failures(rows, (n, n), partial(_holds_on_generators, h, rows)),
        "anti_coalgebra_morphism": law_failures(anti_coalgebra, (n,)),
    }


def antipode_props(h: WeakHopfAlgebra) -> Report:
    """Anti-homomorphism properties, invertibility and counital swaps; the anti-algebra law is
    decided on algebra generators, after Light's test (cached by `validate_wha`, else run once
    here), invertibility by an echelon of S's sparse columns, and the swaps S eps_t = eps_s S,
    S eps_s = eps_t S a nonzero column at a time."""
    rb = ReportBuilder()
    for name, failures in _anti_morphism_laws(h).items():
        rb.check(name, failures)
    s, echelon = h.antipode.column_terms, {}
    rb.add("antipode_invertible", all(echelon_insert(dict(col), echelon) is not None for col in s))

    cd = h.counital_data
    et, es = cd.eps_t.column_terms, cd.eps_s.column_terms
    rb.add("antipode_swaps_target_to_source", apply_each(enumerate(et), s) == apply_each(enumerate(s), es))
    rb.add("antipode_swaps_source_to_target", apply_each(enumerate(es), s) == apply_each(enumerate(s), et))
    return rb.build()


def counital_commutation_rows(h: WeakHopfAlgebra) -> Callable[[int], tuple[SparseRows, SparseRows]]:
    """rows(i): h_1 g eps_s(h_2) and h g for h = e_i, over every basis vector g: the left side is
    `convolution.twisted_rows` with L_p(g) = e_p g and r = eps_s, kept on h."""
    return h.counital_commutation


def is_quantum_commutative(h: WeakHopfAlgebra) -> tuple[bool, bool]:
    """Both characterisations, evaluated independently.

    First: h_1 g eps_s(h_2) = h g on all basis pairs, by rows over g.
    Second: the source counital subalgebra is central.  They agree on every
    valid input; the caller asserts that.
    """
    n = h.dim
    first = holds_on(counital_commutation_rows(h), ((i,) for i in range(n)))
    second = centralizes(h.alg, h.counital_data.h_s, Subspace.full(n))
    return first, second


def identity_conv(h: WeakHopfAlgebra) -> ConvMap:
    return ConvMap(h.coalg, h.alg, Mat.identity(h.dim))


def antipode_conv(h: WeakHopfAlgebra) -> ConvMap:
    return ConvMap(h.coalg, h.alg, h.antipode)


def eps_t_conv(h: WeakHopfAlgebra) -> ConvMap:
    return ConvMap(h.coalg, h.alg, h.counital_data.eps_t)


def eps_s_conv(h: WeakHopfAlgebra) -> ConvMap:
    return ConvMap(h.coalg, h.alg, h.counital_data.eps_s)
