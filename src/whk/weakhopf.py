"""Weak Hopf algebra structure and its axiom battery.

A weak Hopf algebra couples an algebra and a coalgebra on the same basis
with an antipode matrix.  Comultiplication is multiplicative but the unit
is not required to be grouplike; the failure of that Hopf axiom is
measured by the target/source counital idempotents whose fixed spaces
replace the scalar line of ordinary Hopf theory.

Axioms hold or fail on basis tuples, and are evaluated a row of tuples at
a time; each law evaluated by rows is a `report.Law`, declared once with
the premise and spans that decide it, and walked over every tuple when one
fails (see `report`).  Delta multiplicative and S anti-multiplicative are
rows over j, spanned by the algebra generators i; weak multiplicativity of
the counit is three rows over g for each a, each entry a vector over b,
whose coefficients meet only the nonzero eps(e_a e_p) (`_counit_join`);
the antipode laws are the (eps_t, eps_s)-inverse identities id * S = eps_t,
S * id = eps_s and (S * id) * S = S, each a `convolution.conv_columns`
read as one row over the basis; and the six eps_s/eps_t laws of
`counital_identities` are six rows over b for each a, spanned by the bases
of H_t and H_s, the algebra generators, and every a for the two
translation laws.  Weak comultiplicativity of the unit is one identity,
evaluated once, and the one-sided coproduct forms run over the bases of
H_s and H_t.  eps_t and eps_s are stored once, as the two matrices of
`WeakHopfAlgebra.counital_columns`.
"""

from __future__ import annotations

from functools import cache, cached_property, partial
from typing import Callable, Iterator

from .algebra import FiniteAlgebra, centralizes, validate_algebra, unital_subalgebra_report
from .coalgebra import FiniteCoalgebra, validate_coalgebra
from .convolution import ConvMap, conv_columns, twisted_rows
from .errors import DimensionError, InvariantViolation, ShapeError
from .linalg import (
    ZERO, ColumnTerms, Exact, Mat, Record, SparseRows, SparseVec, Subspace, Support, Terms, Vec, apply_each,
    basis_terms, bilinear, combine_each, column_kernel, echelon_insert, invert, lincomb, nonzero, nonzero_rows,
    row_terms, sparse_kron, sorted_terms, support_of, sweedler, sweedler_each,
)
from .report import Failure, Law, Report, ReportBuilder, holds_on, law


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


def _comult_multiplicative(h: WeakHopfAlgebra) -> Law:
    """Delta(e_i e_j) = Delta(e_i) Delta(e_j), rows(i) over j.  When H is associative it holds once it holds at
    every algebra generator i: the x with Delta(x y) = Delta(x) Delta(y) for all y form a subspace, and for two of
    them a, b, Delta((a b) y) = Delta(a) Delta(b y) = Delta(a) Delta(b) Delta(y) = Delta(a b) Delta(y), since H,
    and so H (x) H, is associative: a subalgebra, which holds every right-normed word in the generators."""
    n, mt, dt, delta = h.dim, h.alg.mult_terms, h.coalg.delta_terms, h.coalg.delta_columns

    def product(i: int, j: int) -> SparseVec:  # Delta(e_i) Delta(e_j)
        return lincomb(
            (c1 * c2, sparse_kron(mt[p1][p2], mt[q1][q2], n).items()) for p1, q1, c1 in dt[i] for p2, q2, c2 in dt[j]
        )

    def rows(i: int) -> tuple[SparseRows, SparseRows]:
        return apply_each(h.alg.mult_support[i], delta), nonzero_rows(product(i, j) for j in range(n))

    gens = [(i,) for i in h.alg.generators]
    return law("comult_multiplicative", rows, (n, n), lambda: h.alg.is_associative, [(rows, gens)])


def _unit_comult_failures(h: WeakHopfAlgebra) -> Iterator[Failure]:
    """Delta^2(1) = (Delta(1) (x) 1)(1 (x) Delta(1)) = (1 (x) Delta(1))(Delta(1) (x) 1)."""
    mt, dt, d1 = h.alg.mult_terms, h.coalg.delta_terms, h.unit_delta_terms
    direct = lincomb((c, [((p, q, k), x) for p, q, x in dt[j]]) for j, k, c in d1)
    left = lincomb((c * c2, [((j, m, q), x) for m, x in mt[k][p]]) for j, k, c in d1 for p, q, c2 in d1)
    right = lincomb((c * c2, [((j, m, q), x) for m, x in mt[p][k]]) for j, k, c in d1 for p, q, c2 in d1)
    if not direct == left == right:
        yield (), direct, (left, right)


def _counit_join(h: WeakHopfAlgebra) -> tuple[list[dict[int, list]], list[dict[int, list]]]:
    """first[a][g] and second[a][g]: the coefficients (q, c eps(e_a e_p)) and (p, c eps(e_a e_q)) over the
    terms (p, q, c) of Delta(e_g), in their order, of eps(e_a g_1) eps(g_2 .) and eps(e_a g_2) eps(g_1 .).
    A term meets only the a with a nonzero coefficient, through the column index cols[p] = [(a, eps(e_a e_p))]."""
    n, cols = h.dim, [[] for _ in range(h.dim)]
    for a, row in enumerate(h.eps_rows):
        for p, x in row.items():
            cols[p].append((a, x))
    first, second = [{} for _ in range(n)], [{} for _ in range(n)]
    for g, terms in enumerate(h.coalg.delta_terms):
        for p, q, c in terms:
            for joined, leg, other in ((first, p, q), (second, q, p)):
                for a, x in cols[leg]:
                    joined[a].setdefault(g, []).append((other, c * x))
    return first, second


def _counit_mult_failures(h: WeakHopfAlgebra) -> Iterator[Failure]:
    """eps(e_a e_g e_b) = eps(e_a g_1) eps(g_2 e_b) = eps(e_a g_2) eps(g_1 e_b).

    Each a is evaluated as three rows over g, each entry a sparse vector
    over b combined from `eps_rows` with the coefficients of `_counit_join`;
    an a whose three rows are equal is passed over whole, and an entry g
    whose three vectors differ is read b by b.
    """
    n, support, rows = h.dim, h.alg.mult_support, [row.items() for row in h.eps_rows]  # rows[q]: eps(e_q e_b)
    first, second = _counit_join(h)
    for a in range(n):
        lhs, one, two = (apply_each(coeffs, rows) for coeffs in (support[a], first[a].items(), second[a].items()))
        if lhs == one == two:
            continue
        for g in range(n):
            value, one_g, two_g = lhs.get(g, {}), one.get(g, {}), two.get(g, {})
            if value == one_g == two_g:
                continue
            for b in range(n):
                left, pair = value.get(b, ZERO), (one_g.get(b, ZERO), two_g.get(b, ZERO))
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


def validate_wha(h: WeakHopfAlgebra) -> Report:
    """Full axiom battery: constituent structures plus the six couplings."""
    rb = ReportBuilder()
    rb.extend(validate_algebra(h.alg))
    rb.extend(validate_coalgebra(h.coalg))
    rb.decide(_comult_multiplicative(h))
    rb.check("unit_comult_compatibility", _unit_comult_failures(h))
    rb.check("counit_mult_compatibility", _counit_mult_failures(h))
    # the three antipode laws, their failures interleaved per basis vector
    rb.decide(Law(_ANTIPODE_LAWS, partial(_antipode_rows, h), (h.dim,)))
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
    six absorption/translation identities for eps_s and eps_t, decided on
    the spans of `_eps_laws` and listed pair by pair when one fails.
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

    rb.decide(_eps_laws(h))
    return rb.build()


def _eps_laws(h: WeakHopfAlgebra) -> Law:
    """The six laws of `_EPS_LAWS` at every (a, b), by the rows of `_eps_rows`.  When H is associative
    they hold once these spans do: eps_t multiplicative on H_t's basis and absorbing on the generators,
    the same for eps_s on H_s, and the translation laws at every a, by the same row function as the walk.

    eps_t(eps_t(a) b) = eps_t(a) eps_t(b) is linear in v = eps_t(a) and depends on a through v only; eps_t is
    idempotent (`counital_data` checks it), so its image is its fixed space H_t (x = P y gives P x = P P y = x),
    and a basis of H_t decides the law.  eps_s(a eps_s(b)) = eps_s(a) eps_s(b) is the mirror, on H_s.
    The a with eps_t(a eps_t(Y)) = eps_t(a Y) for all Y form a subalgebra when H is associative:
    eps_t(a a' eps_t(Y)) = eps_t(a eps_t(a' eps_t(Y))) = eps_t(a eps_t(a' Y)) = eps_t(a a' Y); so the algebra
    generators decide eps_t_absorbs.  Mirror, for the b of eps_s_absorbs: eps_s(eps_s(X) b b') =
    eps_s(eps_s(eps_s(X) b) b') = eps_s(eps_s(X b) b') = eps_s(X b b')."""
    cd, alg, translations, spans = h.counital_data, h.alg, _translation_rows(h), []
    for products, p, space in ((alg.mult_support, cd.eps_t, cd.h_t), (alg.transposed_support, cd.eps_s, cd.h_s)):
        side = partial(_factor_rows, h.dim, products, p.column_terms)
        spans += [(partial(side, False), [(v,) for v in space.sparse_basis])]
        spans += [(partial(side, True), [(basis_terms(g),) for g in alg.generators])]
    spans += [(translations, [(a,) for a in range(h.dim)])]
    return Law(_EPS_LAWS, _eps_rows(h, translations), (h.dim, h.dim), lambda: alg.is_associative, spans)


def _factor_rows(n: int, products: Support, p: ColumnTerms, absorbed: bool, v: Terms) -> tuple[SparseRows, ...]:
    """P = p(v e_b) and Q = v p(e_b) over b for a left factor v (products = `mult_support`), or p(e_a v) and
    p(e_a) v over a for a right factor v (`transposed_support`); p(Q) in place of Q if absorbed.  p is the
    column terms of eps_t or eps_s."""
    vx = combine_each(v, products)  # v e_b over b, or e_a v over a
    values, moved = apply_each(support_of(vx), p), apply_each(enumerate(p), row_terms(vx, n))
    return values, apply_each(support_of(moved), p) if absorbed else moved


def _translation_rows(h: WeakHopfAlgebra) -> Callable[[int], tuple[tuple[SparseRows, SparseRows], ...]]:
    """rows(a): the left sides (eps_s(e_a) e_b, e_a eps_t(e_b)) and the right sides (b_1 eps(e_a b_2),
    eps(a_1 e_b) a_2) of the two translation laws over b: the first is `_counit_join`'s second list at a,
    the second reads each term of Delta(e_a) against the nonzero entries of `eps_rows`."""
    cd, mt, support, dt, eps = h.counital_data, h.alg.mult_terms, h.alg.mult_support, h.coalg.delta_terms, h.eps_rows
    es, et, second = cd.eps_s.column_terms, cd.eps_t.column_terms, _counit_join(h)[1]
    units = [basis_terms(k) for k in range(h.dim)]

    def rows(a: int) -> tuple[tuple[SparseRows, SparseRows], ...]:
        translated = sweedler_each(dt[a], lambda p, q: [(b, ((q, x),)) for b, x in eps[p].items()])
        lhs = combine_each(es[a], support), apply_each(enumerate(et), mt[a])
        return lhs, (apply_each(second[a].items(), units), translated)

    return rows


def _eps_rows(h: WeakHopfAlgebra, translations: Callable) -> Callable[[int], tuple[tuple[SparseRows, SparseRows], ...]]:
    """rows(a): the six laws of `_EPS_LAWS` at every (a, b), in that order, as rows over b: the sides of
    `_factor_rows` at the left factors e_a, eps_s(e_a) and eps_t(e_a), and the translation laws by `translations`."""
    cd, support = h.counital_data, h.alg.mult_support
    es, et = cd.eps_s.column_terms, cd.eps_t.column_terms
    s_side, t_side = partial(_factor_rows, h.dim, support, es), partial(_factor_rows, h.dim, support, et)

    def rows(a: int) -> tuple[tuple[SparseRows, SparseRows], ...]:
        (es_a, a_et), (s_translated, t_translated) = translations(a)  # eps_s(e_a) e_b and e_a eps_t(e_b)
        s_ab, s_absorbed = s_side(True, basis_terms(a))  # eps_s(e_a e_b) and eps_s(e_a eps_s(e_b))
        t_ab, t_absorbed = t_side(True, basis_terms(a))
        s_values, s_products = s_side(False, es[a])  # eps_s(eps_s(e_a) e_b) and eps_s(e_a) eps_s(e_b)
        t_values, t_products = t_side(False, et[a])
        return (
            (s_values, s_ab), (es_a, s_translated), (s_absorbed, s_products),
            (t_absorbed, t_ab), (a_et, t_translated), (t_values, t_products),
        )

    return rows


def _anti_algebra_morphism(h: WeakHopfAlgebra) -> Law:
    """S(e_i e_j) = S(e_j) S(e_i), rows(i) over j.  When H is associative it holds once it holds at every
    algebra generator i: the x with S(x y) = S(y) S(x) for all y form a subspace, and for two of them a, b,
    S((a b) y) = S(b y) S(a) = S(y) S(b) S(a) = S(y) S(a b): a subalgebra."""
    n, mt, s, support = h.dim, h.alg.mult_terms, h.antipode.column_terms, h.alg.mult_support

    def rows(i: int) -> tuple[SparseRows, SparseRows]:
        return apply_each(support[i], s), nonzero_rows(bilinear(mt, s[j], s[i]) for j in range(n))

    gens = [(i,) for i in h.alg.generators]
    return law("anti_algebra_morphism", rows, (n, n), lambda: h.alg.is_associative, [(rows, gens)])


def antipode_props(h: WeakHopfAlgebra) -> Report:
    """Anti-homomorphism properties, invertibility and counital swaps; the anti-algebra law is
    decided on algebra generators, after Light's test (cached by `validate_wha`, else run once
    here), invertibility by an echelon of S's sparse columns, and the swaps S eps_t = eps_s S,
    S eps_s = eps_t S a nonzero column at a time."""
    n, dt, s, delta, echelon = h.dim, h.coalg.delta_terms, h.antipode.column_terms, h.coalg.delta_columns, {}

    def anti_coalgebra() -> tuple[SparseRows, SparseRows]:  # Delta(S(e_i)) and S(e_i2) (x) S(e_i1) over i
        rhs = nonzero_rows(sweedler(dt[i], lambda p, q: sparse_kron(s[q], s[p], n)) for i in range(n))
        return apply_each(enumerate(s), delta), rhs

    rb = ReportBuilder()
    rb.decide(_anti_algebra_morphism(h))
    rb.decide(law("anti_coalgebra_morphism", anti_coalgebra, (n,)))
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
