"""Left module-algebra actions and inner actions implemented by counital
invertible maps.

An action is stored by its term table: act_terms[i][j] lists the nonzero
(k, a[i][j][k]) of e_i . x_j = sum_k a[i][j][k] x_k, k ascending, for e_i
in the weak Hopf algebra and x_j in the target algebra.  The dense tensor
a[i][j][k] is what the constructor takes and `ModuleAction.act` gives back;
`ModuleAction.from_terms` and `ModuleAction.from_sparse` build from the
table and from sparse images.  The validator checks the action laws that
survive the weak setting (associativity over products, multiplicativity
through the coproduct and compatibility of unit images), each a `report.Law`
whose verdict is kept on the action (`ModuleAction.law_holds`); the first
two are spanned by range(dim H) and the generators of H or of A, the sets
`report.holds_on` forms their leads from, so no lead is stored; whether the
algebra unit acts as the identity is a separate question, tracked by
`acts_unitally`, because for inner candidates it holds exactly under
centrality hypotheses that the battery below evaluates side by side.
"""

from __future__ import annotations

from functools import cache, cached_property, partial
from typing import TYPE_CHECKING, Callable, Sequence

from .algebra import FiniteAlgebra
from .convolution import ConvMap, EFWitness, conjugation_rows, require_witness, twisted_rows
from .errors import DimensionError, InvariantViolation, PreconditionError, ShapeError
from .linalg import (
    Record,
    SparseRows,
    SparseVec,
    Subspace,
    TermTable,
    Terms,
    Vec,
    apply_each,
    basis_terms,
    bilinear,
    check_table,
    column_kernel,
    combine_each,
    dense_table,
    dense_tensor,
    densify,
    lincomb,
    nonzero,
    nonzero_rows,
    row_terms,
    sorted_terms,
    sparse_kron,
    support_of,
    sweedler,
    sweedler_each,
    table_support,
    term_value,
)
from .report import Law, Report, ReportBuilder, holds_on, law
from .weakhopf import WeakHopfAlgebra, antipode_conv, eps_s_conv, eps_t_conv, identity_conv

if TYPE_CHECKING:
    from .smash import SmashProduct

_ACT_OUTER = "action tensor has wrong outer dimension"
_ACT_SHAPE = "action tensor has wrong shape"


class ModuleAction(Record):
    hopf: WeakHopfAlgebra
    alg: FiniteAlgebra
    act_terms: TermTable

    def __init__(self, hopf: WeakHopfAlgebra, alg: FiniteAlgebra, act: Sequence[Sequence[Vec]]) -> None:
        """The action with the dense tensor act, read once into its term table."""
        if len(act) != hopf.dim:
            raise ShapeError(_ACT_OUTER)
        Record.__init__(self, hopf, alg, dense_table(act, hopf.dim, alg.dim, _ACT_SHAPE))

    @classmethod
    def from_terms(cls, hopf: WeakHopfAlgebra, alg: FiniteAlgebra, act_terms: TermTable) -> "ModuleAction":
        """The action with this canonical term table (see `linalg.check_terms`)."""
        return cls._of_fields(hopf, alg, act_terms)

    def __post_init__(self) -> None:
        if len(self.act_terms) != self.hopf.dim:
            raise ShapeError(_ACT_OUTER)
        check_table(self.act_terms, self.hopf.dim, self.alg.dim, _ACT_SHAPE, "action term table is not canonical")

    @classmethod
    def from_sparse(
        cls, hopf: WeakHopfAlgebra, alg: FiniteAlgebra, images: Sequence[SparseRows]
    ) -> "ModuleAction":
        """The action with e_h . x_x = images[h][x], zero where x is missing from images[h]."""
        rows = (tuple(sorted_terms(row[x]) if x in row else () for x in range(alg.dim)) for row in images)
        return cls.from_terms(hopf, alg, tuple(rows))

    @cached_property
    def act(self) -> tuple[tuple[Vec, ...], ...]:
        """The dense action tensor, read off `act_terms`."""
        return dense_tensor(self.act_terms, self.alg.dim)

    @cached_property
    def act_support(self) -> tuple[tuple[tuple[int, Terms], ...], ...]:
        """act_support[h]: the (x, terms of e_h . x_x) with e_h . x_x nonzero, for `linalg.combine_each`."""
        return table_support(self.act_terms)

    @cached_property
    def smash(self) -> SmashProduct:
        """The smash product A # H, constructed once per action; see `smash.build_smash`."""
        from .smash import _construct_smash  # smash imports this module
        return _construct_smash(self)

    @cached_property
    def _law_verdicts(self) -> dict[str, bool]:
        return {}

    def law_holds(self, name: str) -> bool:
        """Whether the action law `name` (see `validate_module_algebra`) holds, decided once
        per action: later calls, and the report, read the kept verdict."""
        if name not in self._law_verdicts:
            self._law_verdicts[name] = _ACTION_LAWS[name](self).holds()
        return self._law_verdicts[name]

    def apply(self, h: Vec, x: Vec) -> Vec:
        if len(h) != self.hopf.dim or len(x) != self.alg.dim:
            raise DimensionError("operand lengths differ from the action context")
        return densify(bilinear(self.act_terms, nonzero(h), nonzero(x)), self.alg.dim)


def _associativity_rows(m: ModuleAction, g: int, h: int) -> tuple[SparseRows, SparseRows]:
    """(e_g e_h) . x and e_g . (e_h . x) over every basis x of A."""
    support = m.act_support
    return combine_each(m.hopf.alg.mult_terms[g][h], support), apply_each(support[h], m.act_terms[g])


def _associativity(m: ModuleAction) -> Law:
    """(g h) . x = g . (h . x), by rows over x.

    When H is associative it suffices that the law holds for every generator
    h of H: the h for which it holds form a subalgebra, as (g h h') . x =
    (g h) . (h' . x) = g . (h . (h' . x)) = g . ((h h') . x).
    """
    nh, na, rows = m.hopf.dim, m.alg.dim, partial(_associativity_rows, m)
    spans = [(rows, range(nh), m.hopf.alg.generators)]
    return law("action_associativity", rows, (nh, nh, na), lambda: m.hopf.alg.is_associative, spans)


def _multiplicativity_rows(m: ModuleAction, h: int, x: int) -> tuple[SparseRows, SparseRows]:
    """e_h . (x_x x_y) and (h_1 . x_x)(h_2 . x_y) over every basis y of A.

    For each Sweedler leg (p, q) the left factor e_p . x_x is expanded once,
    as its products with every basis vector of A, and e_q . x_y is applied to them.
    """
    at, support, amt_support, na = m.act_terms, m.act_support, m.alg.mult_support, m.alg.dim

    def leg(p: int, q: int) -> list[tuple[int, Terms]]:  # (e_p . x_x)(e_q . x_y) over y
        left = row_terms(combine_each(at[p][x], amt_support), na)  # (e_p . x_x) x_j over j
        return support_of(apply_each(support[q], left))

    return apply_each(amt_support[x], at[h]), sweedler_each(m.hopf.coalg.delta_terms[h], leg)


def _multiplicativity(m: ModuleAction) -> Law:
    """h . (x y) = (h_1 . x)(h_2 . y), by rows over y.

    When A is associative and Delta coassociative it suffices that the law
    holds for every generator x of A: the x for which it holds form a
    subalgebra, as h . (x x' y) = (h_1 . x)(h_2 . x')(h_3 . y) = (h_1 . (x x'))(h_2 . y).
    """
    nh, na, rows = m.hopf.dim, m.alg.dim, partial(_multiplicativity_rows, m)
    spans = [(rows, range(nh), m.alg.generators)]
    return law("action_multiplicative", rows, (nh, na, na),
               lambda: m.alg.is_associative and m.hopf.coalg.is_coassociative, spans)


def _unit_compatibility(m: ModuleAction) -> Law:
    """h . 1 = eps_t(h) . 1 for every basis vector h, one row over h."""
    at, nh, unit = m.act_terms, m.hopf.dim, nonzero(m.alg.unit)
    et = m.hopf.counital_data.eps_t  # read eagerly: a corrupt input raises here

    def rows() -> tuple[SparseRows, SparseRows]:
        return (
            nonzero_rows(lincomb((c, at[h][j]) for j, c in unit) for h in range(nh)),
            nonzero_rows(bilinear(at, et.column_terms[h], unit) for h in range(nh)),
        )

    return law("action_unit_compatibility", rows, (nh,))


_ACTION_LAWS: dict[str, Callable[[ModuleAction], Law]] = {
    "action_associativity": _associativity,
    "action_multiplicative": _multiplicativity,
    "action_unit_compatibility": _unit_compatibility,
}


def validate_module_algebra(m: ModuleAction) -> Report:
    """Action laws, with every failing basis tuple recorded.

    Checked: (g h) . x = g . (h . x); h . (x y) = (h_1 . x)(h_2 . y);
    h . 1 = eps_t(h) . 1.  The first two pass on generators when their
    premises hold (see `_associativity` and `_multiplicativity`).  Each
    law's verdict is the one kept on m (`ModuleAction.law_holds`); its
    failures are enumerated only when it fails.  Whether 1 . x = x is
    deliberately not part of this report; see `acts_unitally`.
    """
    m.hopf.counital_data  # a corrupt structure raises here, before any law
    rb = ReportBuilder()
    for name, declare in _ACTION_LAWS.items():
        rb.check_laws((name,), () if m.law_holds(name) else declare(m).failures())
    return rb.build()


def acts_unitally(m: ModuleAction) -> bool:
    """True iff the unit of the weak Hopf algebra acts as the identity."""
    one = nonzero(m.hopf.unit)
    at = m.act_terms
    return all(lincomb((c, at[i][x]) for i, c in one) == {x: 1} for x in range(m.alg.dim))


def is_module(m: ModuleAction) -> bool:
    """Module laws only: associativity plus unital action."""
    return m.law_holds("action_associativity") and acts_unitally(m)


def is_module_algebra(m: ModuleAction) -> bool:
    """Full notion: validated action laws plus the unit acting as identity."""
    m.hopf.counital_data  # a corrupt structure raises here, before any law
    return all(map(m.law_holds, _ACTION_LAWS)) and acts_unitally(m)


def ht_module_action(h: WeakHopfAlgebra) -> ModuleAction:
    """The canonical action of H on its target counital subalgebra.

    The target space H_t becomes an algebra on its RREF basis and H acts by
    h . z = eps_t(h z); for ordinary Hopf inputs this degenerates to the
    one-dimensional trivial module.  Both tables are read at the pivots of
    H_t: `counital_data` has verified that H_t is a unital subalgebra and
    that eps_t is an idempotent, so its image, and every product, lies in H_t.
    """
    cd = h.counital_data
    space = cd.h_t
    basis, pivots, mt = space.sparse_basis, space.pivots, h.alg.mult_terms
    et = cd.eps_t.column_terms

    def coordinates(v: SparseVec) -> tuple:
        return tuple((r, term_value(v[p])) for r, p in enumerate(pivots) if p in v)

    mult = tuple(tuple(coordinates(bilinear(mt, x, y)) for y in basis) for x in basis)
    alg = FiniteAlgebra.from_terms(space.dim, mult, tuple(h.unit[p] for p in pivots))
    act = tuple(
        tuple(coordinates(lincomb((c, et[k]) for k, c in bilinear(mt, basis_terms(i), z).items())) for z in basis)
        for i in range(h.dim)
    )
    return ModuleAction.from_terms(h, alg, act)


class InnerData(Record):
    hopf: WeakHopfAlgebra
    witness: EFWitness

    def __post_init__(self) -> None:
        if self.witness.source != self.hopf.coalg:
            raise DimensionError("witness source differs from the weak Hopf coalgebra")


def adjoint_data(h: WeakHopfAlgebra) -> InnerData:
    """The identity map with the antipode as inverse, in Hom(H, H)."""
    witness = EFWitness(identity_conv(h), antipode_conv(h), eps_t_conv(h), eps_s_conv(h))
    return InnerData(h, witness)


def _conjugation_images(hopf: WeakHopfAlgebra, u: ConvMap, v: ConvMap) -> list[SparseRows]:
    """h . x = u(h_1) x v(h_2) on the basis of the common target: entry [i] is the nonzero e_i . x_j by j,
    the rows of `convolution.conjugation_rows`."""
    return list(map(conjugation_rows(u, v), range(hopf.dim)))


def inner_action_from(data: InnerData) -> ModuleAction:
    """Candidate action h . a = u(h_1) a v(h_2).

    The witness pair must be genuine; the resulting ACTION is returned
    unvalidated, since deciding whether it is a module algebra is exactly
    what the battery below does.
    """
    require_witness(data.witness, PreconditionError, "witness fails the inverse-pair identities")
    return conjugation_action(data.hopf, data.witness)


def conjugation_action(hopf: WeakHopfAlgebra, witness: EFWitness) -> ModuleAction:
    """h . a = u(h_1) a v(h_2) for a witness the caller has already verified."""
    return ModuleAction.from_sparse(hopf, witness.target, _conjugation_images(hopf, witness.u, witness.v))


def adjoint_action(h: WeakHopfAlgebra) -> ModuleAction:
    """Conjugation candidate h . g = h_1 g S(h_2) on the algebra itself."""
    return inner_action_from(adjoint_data(h))


def _unit_image_matches(data: InnerData, m: ModuleAction) -> bool:
    """e(h) = h . 1 on every basis vector h."""
    at, unit, e_cols = m.act_terms, nonzero(data.witness.target.unit), data.witness.e.matrix.column_terms
    return all(lincomb((c, at[h][j]) for j, c in unit) == dict(e_cols[h]) for h in range(data.hopf.dim))


def _unit_image_rows(data: InnerData, m: ModuleAction, g: int) -> tuple[SparseRows, SparseRows]:
    """g . e(h) and e(g h) over every basis vector h."""
    e_cols = data.witness.e.matrix.column_terms
    return apply_each(enumerate(e_cols), m.act_terms[g]), apply_each(data.hopf.alg.mult_support[g], e_cols)


def _unit_image_translates(data: InnerData, m: ModuleAction) -> bool:
    """g . e(h) = e(g h) on every basis pair (g, h), by rows over h."""
    return holds_on(partial(_unit_image_rows, data, m), range(data.hopf.dim))


def unit_image_check(data: InnerData, m: ModuleAction) -> bool:
    """e(h) must equal h . 1; for a genuine module also g . e(h) = e(g h)."""
    if not _unit_image_matches(data, m):
        return False
    return not m.law_holds("action_associativity") or _unit_image_translates(data, m)


def _t_rows(data: InnerData) -> Callable[[int], SparseRows]:
    """row(i): t(e_i, e_j) = v(e_j1) v(e_i1) u(e_i2 e_j2) over every basis vector e_j, sparse.

    Each term is the product of v(e_r) v(e_p) by u(e_q e_s), for a leg (p, q)
    of Delta(e_i) and a leg (r, s) of Delta(e_j).  The factors v(e_r) v(e_p)
    over r are tabulated once per p, and u(e_q e_s) over s once per q, when a
    row first meets p or q; the products of their coordinates are then read
    off the structure constants in one combination per row.
    """
    hopf, target, w = data.hopf, data.witness.target, data.witness
    dt, mt, nh, na = hopf.coalg.delta_terms, target.mult_terms, hopf.dim, target.dim
    uc, vc = w.u.matrix.column_terms, w.v.matrix.column_terms
    products = [terms for row in mt for terms in row]  # x_k x_l at k * na + l

    @cache
    def v_products(p: int) -> list[Terms]:  # v(e_r) v(e_p) over r
        times_v = row_terms(combine_each(vc[p], target.transposed_support), na)  # x_k v(e_p) over k
        return row_terms(apply_each(enumerate(vc), times_v), nh)

    @cache
    def u_products(q: int) -> list[Terms]:  # u(e_q e_s) over s
        return row_terms(apply_each(hopf.alg.mult_support[q], uc), nh)

    def row(i: int) -> SparseRows:
        legs = [(c, v_products(p), u_products(q)) for p, q, c in dt[i]]
        coeffs = (  # the coordinates of v(e_r) v(e_p) times those of u(e_q e_s), summed over both coproducts
            [(k * na + m, c * d * x * y) for c, vv, uu in legs for r, s, d in dt[j] for k, x in vv[r] for m, y in uu[s]]
            for j in range(nh)
        )
        return apply_each(enumerate(coeffs), products)

    return row


def bilinear_t(data: InnerData, x: Vec, y: Vec) -> Vec:
    """The obstruction pairing t(x, y) = v(y_1) v(x_1) u(x_2 y_2)."""
    hopf = data.hopf
    if len(x) != hopf.dim or len(y) != hopf.dim:
        raise DimensionError("arguments must live in the weak Hopf algebra")
    row, ys = _t_rows(data), nonzero(y)
    rows = [(xi, row(i)) for i, xi in nonzero(x)]
    out = lincomb((xi * yj, t[j].items()) for xi, t in rows for j, yj in ys if j in t)
    return densify(out, data.witness.target.dim)


def t_image_central(data: InnerData) -> bool:
    """Whether every t(e_i, e_j) lands in the centre of the target, by rows over j,
    stopping at the first row with a non-central entry."""
    row, central = _t_rows(data), data.witness.target.center
    return all(all(map(central.contains_sparse, row(i).values())) for i in range(data.hopf.dim))


def image_subspace(p: ConvMap, of: Subspace | None = None) -> Subspace:
    """Image of a convolution map, optionally restricted to a subspace, spanned from sparse columns."""
    cols = p.matrix.column_terms
    if of is None:
        return Subspace.from_sparse(p.target.dim, map(dict, cols))
    if of.dim and of.ambient_dim != p.source.dim:
        raise DimensionError(f"matrix has {p.source.dim} columns, vector has {of.ambient_dim}")
    return Subspace.from_sparse(p.target.dim, apply_each(enumerate(of.sparse_basis), cols).values())


def _central_in_tensor_square(alg: FiniteAlgebra, y: SparseVec, generators: Sequence[Terms]) -> bool:
    """(s (x) 1) y = y (1 (x) s) in A (x) A for every generator s."""
    n, mt = alg.dim, alg.mult_terms
    pairs = [divmod(i, n) + (v,) for i, v in y.items()]
    for st in generators:
        left = lincomb(
            (v, sparse_kron(bilinear(mt, st, basis_terms(a)).items(), basis_terms(b), n).items())
            for a, b, v in pairs
        )
        right = lincomb(
            (v, sparse_kron(basis_terms(a), bilinear(mt, basis_terms(b), st).items(), n).items())
            for a, b, v in pairs
        )
        if left != right:
            return False
    return True


class InnerActionBattery(Record):
    """Side-by-side evaluation of the inner-action equivalences.

    Fields come in matched groups; `violations` lists every equivalence or
    implication among them that fails, which on a verified witness
    indicates a library bug.
    """

    multiplicative_law: bool          # h.(ab) = (h_1.a)(h_2.b)
    phi_multiplicative: bool          # f-conjugation comultiplicativity
    unit_compat_law: bool             # h.1 = eps_t(h).1
    e_absorbs_eps_t: bool             # e o eps_t = e
    eps_t_kernel_contained: bool      # ker eps_t inside ker e
    f_image_central: bool             # hypothesis: f(H) central in A
    associativity_law: bool           # g.(h.a) = (gh).a
    unit_image_translates: bool       # g.e(h) = e(gh)
    t_image_central: bool             # t(H x H) central in A
    u_source_image_central: bool      # u(H_s) central in A
    e_unit_is_one: bool               # e(1) = 1
    unital_law: bool                  # 1.a = a
    lambda_unit_centralizes: bool     # (u (x) v)(Delta 1) centralizes u(H_s)

    def violations(self) -> tuple[str, ...]:
        out = []
        if self.multiplicative_law != self.phi_multiplicative:
            out.append("multiplicativity equivalence broken")
        if not (self.unit_compat_law == self.e_absorbs_eps_t == self.eps_t_kernel_contained):
            out.append("unit compatibility equivalence broken")
        if self.f_image_central and self.associativity_law != (
            self.unit_image_translates and self.t_image_central
        ):
            out.append("associativity equivalence broken under central f-image")
        if self.u_source_image_central and self.e_unit_is_one and not self.unital_law:
            out.append("central u(H_s) with e(1)=1 failed to force a unital action")
        if self.lambda_unit_centralizes and self.unital_law and not (
            self.e_unit_is_one and self.u_source_image_central
        ):
            out.append("unital action failed to force e(1)=1 and central u(H_s)")
        return tuple(out)

    def to_dict(self) -> dict:
        return {**{f: getattr(self, f) for f in self._fields}, "violations": list(self.violations())}


def inner_action_battery(data: InnerData) -> InnerActionBattery:
    """Evaluate both sides of every inner-action criterion independently,
    on the conjugation candidate built from the verified witness."""
    hopf = data.hopf
    witness = data.witness
    target = witness.target
    m = inner_action_from(data)

    na = target.dim
    cd = hopf.counital_data
    central = target.center

    multiplicative_law = m.law_holds("action_multiplicative")
    # phi(h, x) = f(h_1) x f(h_2) is linear in x, so it is tabulated once on the basis
    f = witness.f
    phi = ModuleAction.from_sparse(hopf, target, _conjugation_images(hopf, f, f))
    phi_multiplicative = phi.law_holds("action_multiplicative")

    unit_compat_law = m.law_holds("action_unit_compatibility")
    e = witness.e
    e_cols, et_cols = e.matrix.column_terms, cd.eps_t.column_terms
    e_absorbs_eps_t = apply_each(enumerate(et_cols), e_cols) == {h: dict(c) for h, c in enumerate(e_cols) if c}
    eps_t_kernel_contained = column_kernel(e_cols, na).contains_subspace(column_kernel(et_cols, hopf.dim))

    f_image_central = central.contains_subspace(image_subspace(f))

    associativity_law = m.law_holds("action_associativity")
    unit_image_translates = _unit_image_translates(data, m)
    t_central = t_image_central(data)

    u = witness.u
    u_hs_image = image_subspace(u, cd.h_s)
    u_source_image_central = central.contains_subspace(u_hs_image)
    e_unit_is_one = e(hopf.unit) == target.unit
    unital_law = acts_unitally(m)

    uc, vc = u.matrix.column_terms, witness.v.matrix.column_terms
    lam = sweedler(hopf.unit_delta_terms, lambda j, k: sparse_kron(uc[j], vc[k], na))
    lambda_unit_centralizes = _central_in_tensor_square(target, lam, u_hs_image.sparse_basis)

    return InnerActionBattery(
        multiplicative_law=multiplicative_law,
        phi_multiplicative=phi_multiplicative,
        unit_compat_law=unit_compat_law,
        e_absorbs_eps_t=e_absorbs_eps_t,
        eps_t_kernel_contained=eps_t_kernel_contained,
        f_image_central=f_image_central,
        associativity_law=associativity_law,
        unit_image_translates=unit_image_translates,
        t_image_central=t_central,
        u_source_image_central=u_source_image_central,
        e_unit_is_one=e_unit_is_one,
        unital_law=unital_law,
        lambda_unit_centralizes=lambda_unit_centralizes,
    )


def second_form_check(data: InnerData, m: ModuleAction) -> bool:
    """Decide innerness by the one-sided criterion (h_1 . a) u(h_2) = u(h) a.

    Preconditions checked first: m is a validated module algebra, e(h)
    equals h . 1, and u(h_1) a f(h_2) = u(h) a.  The direct tensor
    comparison and the criterion must agree; disagreement raises.
    """
    hopf = data.hopf
    witness = data.witness
    target = witness.target
    if m.alg != target or m.hopf != hopf:
        raise DimensionError("action context differs from the witness context")
    if not is_module_algebra(m):
        raise PreconditionError("action is not a module algebra")
    if not _unit_image_matches(data, m):
        raise PreconditionError("e does not match the unit image of the action")
    u, f = witness.u, witness.f
    u_times = [combine_each(terms, target.mult_support) for terms in u.matrix.column_terms]
    if _conjugation_images(hopf, u, f) != u_times:  # u(e_h) x_a over a, for each h
        raise PreconditionError("u(h_1) a f(h_2) = u(h) a fails")

    direct = m.act_terms == inner_action_from(data).act_terms
    criterion = holds_on(_one_sided_rows(data, m), range(hopf.dim))
    if direct != criterion:
        raise InvariantViolation("one-sided innerness criterion disagrees with the tensor comparison")
    return direct


def _one_sided_rows(data: InnerData, m: ModuleAction) -> Callable[[int], tuple[SparseRows, SparseRows]]:
    """rows(h): (h_1 . x_a) u(h_2) and u(h) x_a for h = e_h, over every basis vector x_a: the left
    side is `convolution.twisted_rows` with L_p(x) = e_p . x and r = u."""
    u = data.witness.u
    lhs, support = twisted_rows(m.act_support.__getitem__, u), u.target.mult_support

    def rows(h: int) -> tuple[SparseRows, SparseRows]:
        return lhs(h), combine_each(u.matrix.column_terms[h], support)

    return rows
