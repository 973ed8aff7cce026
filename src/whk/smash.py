"""Smash products as explicit quotients of the tensor square.

For a validated left module algebra the space A (x) H is divided by the
balance relations (x . z) (x) h - x (x) (z h) over the target counital
subalgebra, where x . z is the induced right action.  The quotient basis
is the canonical pivot complement of the relation space, the product is
induced from

    (x # h)(y # g) = x (h_1 . y) # h_2 g

on representatives, one row of right factors per left tensor basis
element (`_product_rows`).  The premises that make the relations a
two-sided ideal under this product (`_failed_premise`) are the
construction's precondition, tested before any relation is built: they
follow from the weak Hopf axioms, so a structure on which one fails is
refused.  Associativity and the unit of the quotient are then verified.
"""

from __future__ import annotations

from functools import cache, cached_property
from typing import Callable, Sequence

from .actions import ModuleAction, conjugation_action, is_module_algebra
from .algebra import FiniteAlgebra, validate_algebra
from .convolution import ConvMap, EFWitness, require_witness
from .errors import InvariantViolation, PreconditionError
from .linalg import (
    Mat,
    Record,
    SparseRows,
    SparseVec,
    Subspace,
    Terms,
    Vec,
    apply_each,
    basis_terms,
    bilinear,
    combine_each,
    densify,
    lincomb,
    nonzero,
    nonzero_rows,
    row_terms,
    sorted_terms,
    sparse_kron,
    support_of,
    sweedler,
    unit_vec,
)
from .report import Law, Rows, holds_on, law
from .weakhopf import WeakHopfAlgebra, is_quantum_commutative


def right_ht_action(m: ModuleAction, x: Vec, z: Vec) -> Vec:
    """Right action of the target counital subalgebra on the module algebra.

    Both published expressions, the inverse-antipode twist S^{-1}(z) . x and
    the product x (z . 1), are evaluated and must agree; z is required to be
    a member of the target counital subalgebra.
    """
    hopf = m.hopf
    if len(z) != hopf.dim or not hopf.counital_data.h_t.contains(z):
        raise PreconditionError("right action is only defined for target counital elements")
    s_inv = hopf.antipode_inverse
    if s_inv is None:
        raise InvariantViolation("antipode is not invertible")
    twisted = m.apply(s_inv.apply(z), x)
    direct = m.alg.multiply(x, m.apply(z, m.alg.unit))
    if twisted != direct:
        raise InvariantViolation("the two right-action expressions disagree")
    return direct


def _project(columns: tuple[Terms, ...], v: Terms) -> SparseVec:
    """Quotient coordinates of a sparse A (x) H vector, given the projection's columns."""
    return lincomb((x, columns[j]) for j, x in v)


class SmashProduct(Record):
    base_action: ModuleAction
    relation_space: Subspace
    quotient_coords: tuple[int, ...]
    projection: Mat
    algebra: FiniteAlgebra

    @property
    def hopf(self) -> WeakHopfAlgebra:
        return self.base_action.hopf

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def _classes(self, pairs) -> tuple[SparseVec, ...]:
        """Sparse classes of the tensors x (x) h, for term lists x, h in pairs."""
        cols, nh = self.projection.column_terms, self.hopf.dim
        return tuple(_project(cols, sparse_kron(x, h, nh).items()) for x, h in pairs)

    @cached_property
    def algebra_classes(self) -> tuple[SparseVec, ...]:
        """Sparse class of x_x (x) 1_H for each basis vector x_x of A."""
        unit = nonzero(self.hopf.unit)
        return self._classes((basis_terms(x), unit) for x in range(self.base_action.alg.dim))

    @cached_property
    def hopf_classes(self) -> tuple[SparseVec, ...]:
        """Sparse class of 1_A (x) e_h for each basis vector e_h of H."""
        unit = nonzero(self.base_action.alg.unit)
        return self._classes((unit, basis_terms(h)) for h in range(self.hopf.dim))

    def algebra_class(self, x: Terms) -> SparseVec:
        """Sparse class of x (x) 1_H."""
        return lincomb((c, self.algebra_classes[k].items()) for k, c in x)

    def hopf_class(self, h: Terms) -> SparseVec:
        """Sparse class of 1_A (x) h."""
        return lincomb((c, self.hopf_classes[k].items()) for k, c in h)

    def embed_algebra(self, x: Vec) -> Vec:
        """Class of x (x) 1_H."""
        return densify(self.algebra_class(nonzero(x)), self.dim)

    def embed_hopf(self, h: Vec) -> Vec:
        """Class of 1_A (x) h."""
        return densify(self.hopf_class(nonzero(h)), self.dim)

    @cached_property
    def inner_candidate(self) -> ModuleAction:
        """Conjugation candidate h . w = u(h_1) w v(h_2), its structure maps verified once."""
        return conjugation_action(self.hopf, smash_action_maps(self))


def build_smash(m: ModuleAction) -> SmashProduct:
    """The quotient algebra A # H of a validated module algebra, kept on the action once built."""
    return m.smash


def _failed_premise(m: ModuleAction) -> str | None:
    """The first premise that fails, or None: associativity of A, of H, then
    P1, P2 and P3 below, which make the balance relations R a two-sided ideal
    of A (x) H under the representative product.

    R is spanned by rho = (x . z) (x) h - x (x) z h for basis x, h and z in
    the basis of H_t, where x . z = x (z . 1).  Suppose m is a module algebra
    (the constructor's precondition), A and H are associative, and for every
    z in the H_t basis, h, g in the basis of H and w in the basis of A:

        (P1) Delta(z h) = z h_1 (x) h_2,
        (P2) z . w = (z . 1) w,
        (P3) g_1 (x) eps_t(g_2 z) g_3 = g_1 (x) g_2 z,

    the legs of P3 being (Delta (x) id) Delta(g).  Each is linear in every
    argument, so it then holds for all z in H_t, h, g in H and w in A.

    rho (y # g) = 0: by P1 and action associativity its second term is
    x (z . (h_1 . y)) (x) h_2 g, by P2 and associativity of A that is
    (x (z . 1))(h_1 . y) (x) h_2 g, which is its first term.

    (y # g) rho lies in R: its first term is y (g_1 . (x (z . 1))) (x) g_2 h.
    By multiplicativity g_1 . (x (z . 1)) (x) g_2 = (g_1 . x)(g_2 . (z . 1)) (x) g_3,
    and g_2 . (z . 1) = (g_2 z) . 1 = eps_t(g_2 z) . 1 by action
    associativity and unit compatibility.  As eps_t(g_2 z) lies in H_t (eps_t
    is an idempotent onto H_t, verified by `counital_data`) and A is
    associative, the first term is (y (g_1 . x)) . eps_t(g_2 z) (x) g_3 h,
    congruent modulo R to y (g_1 . x) (x) eps_t(g_2 z) g_3 h.  By P3 and
    associativity of H that is y (g_1 . x) (x) g_2 z h, the second term.

    Each holds for a module algebra over a weak Hopf algebra.  The cost is
    O(dim H_t * (dim H + dim A)) Sweedler sums and products.
    """
    if not (m.alg.is_associative and m.hopf.alg.is_associative):
        return "associativity of " + ("H" if m.alg.is_associative else "A")
    return next((name for name, rows in zip(("P1", "P2", "P3"), _premise_rows(m))
                 if not holds_on(rows, range(m.hopf.counital_data.h_t.dim))), None)


def _premise_rows(m: ModuleAction) -> tuple[Rows, Rows, Rows]:
    """The rows of P1, P2 and P3 of `_failed_premise`, each at the index of
    z in the H_t basis, over h, w and g respectively."""
    hopf, alg = m.hopf, m.alg
    nh, na = hopf.dim, alg.dim
    hmt, at, dt = hopf.alg.mult_terms, m.act_terms, hopf.coalg.delta_terms
    dcols, eps_t = hopf.coalg.delta_columns, hopf.counital_data.eps_t.column_terms
    ht = hopf.counital_data.h_t.sparse_basis
    z_left = [[bilinear(hmt, z, basis_terms(h)) for h in range(nh)] for z in ht]  # z e_h
    z_right = [[bilinear(hmt, basis_terms(h), z) for h in range(nh)] for z in ht]  # e_h z
    eps_right = [[lincomb((c, eps_t[k]) for k, c in v.items()) for v in row] for row in z_right]  # eps_t(e_h z)
    z_one = [bilinear(at, z, nonzero(alg.unit)) for z in ht]  # z . 1

    def left_leg(r: int, v: SparseVec) -> SparseVec:  # e_r (x) v
        return sparse_kron(basis_terms(r), v.items(), nh)

    def comult(zi: int) -> tuple[SparseRows, SparseRows]:  # P1
        lhs = apply_each(enumerate(v.items() for v in z_left[zi]), dcols)
        return lhs, nonzero_rows(
            sweedler(dt[h], lambda p, q: sparse_kron(z_left[zi][p].items(), basis_terms(q), nh)) for h in range(nh)
        )

    def action(zi: int) -> tuple[SparseRows, SparseRows]:  # P2
        return combine_each(ht[zi], m.act_support), combine_each(z_one[zi].items(), alg.mult_support)

    def target(zi: int) -> tuple[SparseRows, SparseRows]:  # P3
        eps = eps_right[zi]
        lhs = nonzero_rows(
            sweedler(dt[g], lambda p, q: sweedler(
                dt[p], lambda r, s: left_leg(r, bilinear(hmt, eps[s].items(), basis_terms(q)))
            ))
            for g in range(nh)
        )
        return lhs, nonzero_rows(sweedler(dt[g], lambda p, q: left_leg(p, z_right[zi][q])) for g in range(nh))

    return comult, action, target


def _product_rows(m: ModuleAction, cols: tuple[Terms, ...], wanted: Sequence[int]) -> Callable[[int], SparseRows]:
    """row(i): the nonzero classes of (x # h)(y # g) = x (h_1 . y) # h_2 g over the tensor
    basis elements j = (y, g) in `wanted`, keyed by j, for the tensor basis element
    i = (x, h), given the projection's columns.

    The products x (e_p . y) over y are tabulated once per (x, p), and the
    classes of x_a (x) e_q e_g over the wanted g of each y once per (a, q, y);
    for each y the legs of Delta(e_h) give the coefficients of these classes.
    """
    amt, hmt, dt = m.alg.mult_terms, m.hopf.alg.mult_terms, m.hopf.coalg.delta_terms
    nh = m.hopf.dim
    wanted_g: list[list[int]] = [[] for _ in range(m.alg.dim)]  # the wanted g of each y
    for j in wanted:
        y, g = divmod(j, nh)
        wanted_g[y].append(g)

    @cache
    def times_action(x: int, p: int) -> SparseRows:  # x (e_p . y) over y
        return apply_each(m.act_support[p], amt[x])

    @cache
    def classes(t: int, y: int) -> list[tuple[int, Terms]]:  # x_a (x) e_q e_g over the wanted g, t = a nh + q
        a, q = divmod(t, nh)
        return support_of(apply_each(((g, hmt[q][g]) for g in wanted_g[y]), cols[a * nh:(a + 1) * nh]))

    def row(i: int) -> SparseRows:
        x, h = divmod(i, nh)
        legs = [(q, c, times_action(x, p)) for p, q, c in dt[h]]  # x (e_p . y) over y, per leg
        out: SparseRows = {}
        for y, gs in enumerate(wanted_g):
            if gs:
                coeffs = [(a * nh + q, c * v) for q, c, xp in legs if y in xp for a, v in xp[y].items()]
                block = combine_each(coeffs, {t: classes(t, y) for t, _ in coeffs})
                out.update((y * nh + g, v) for g, v in block.items())
        return out

    return row


def _construct_smash(m: ModuleAction) -> SmashProduct:
    if not is_module_algebra(m):
        raise PreconditionError("smash products require a validated module algebra")
    if premise := _failed_premise(m):
        raise PreconditionError(f"smash product premise fails: {premise}")
    hopf = m.hopf
    alg = m.alg
    na, nh = alg.dim, hopf.dim

    # (x . z) (x) e_h - x (x) (z e_h) for basis x, h and z in the target basis
    hmt = hopf.alg.mult_terms
    generators = []
    for x in range(na):
        for z in hopf.counital_data.h_t.basis:
            xz = nonzero(right_ht_action(m, unit_vec(na, x), z))
            zt = nonzero(z)
            for h in range(nh):
                left = ((a * nh + h, v) for a, v in xz)
                right = ((x * nh + b, v) for b, v in lincomb((c, hmt[k][h]) for k, c in zt).items())
                generators.append(lincomb(((1, left), (-1, right))))
    relation_space = Subspace.from_sparse(na * nh, generators)
    quotient_coords = relation_space.complement_coords()
    dim = len(quotient_coords)
    if dim == 0:
        raise InvariantViolation("relations collapsed the whole tensor space")
    projection = relation_space.quotient_map()

    # projected representative products, one row of the tensor basis at a time
    product_row = _product_rows(m, projection.column_terms, quotient_coords)
    table = tuple(tuple(sorted_terms(r.get(j, {})) for j in quotient_coords) for r in map(product_row, quotient_coords))
    unit_rep = sparse_kron(nonzero(alg.unit), nonzero(hopf.unit), nh)
    unit = densify(_project(projection.column_terms, unit_rep.items()), dim)
    algebra = FiniteAlgebra.from_terms(dim, table, unit)
    if not validate_algebra(algebra).ok:
        raise InvariantViolation("induced product is not an associative unital algebra")
    return SmashProduct(m, relation_space, quotient_coords, projection, algebra)


def _embedding_laws(s: SmashProduct) -> tuple[Law, Law]:
    """c(x) c(y) = c(x y) for the embedding c of A and for that of H into A # H, rows(x) over y: c_x e_w
    over the basis of A # H is one combination, and c_x c_y over y applies the classes to it.

    Each holds once it holds at the generators x of its source when the source and A # H are associative:
    if c(x) c(y) = c(xy) for all y holds at x and x', then c(xx') c(y) = c(x) c(x') c(y) = c(x(x'y)) =
    c((xx')y), a subalgebra.
    """
    def declare(name: str, classes: tuple[SparseVec, ...], source: FiniteAlgebra) -> Law:
        terms, support = [c.items() for c in classes], source.mult_support

        def rows(x: int) -> tuple[SparseRows, SparseRows]:  # c_x c_y and the class of e_x e_y
            products = row_terms(combine_each(terms[x], s.algebra.mult_support), s.dim)  # c_x e_w over w
            return apply_each(enumerate(terms), products), apply_each(support[x], terms)

        return law(name, rows, (source.dim,) * 2, lambda: source.is_associative and s.algebra.is_associative,
                   [(rows, source.generators)])

    return (
        declare("algebra_embedding_multiplicative", s.algebra_classes, s.base_action.alg),
        declare("hopf_embedding_multiplicative", s.hopf_classes, s.hopf.alg),
    )


def embeddings_check(s: SmashProduct) -> bool:
    """Injectivity and multiplicativity (`_embedding_laws`) of both canonical embeddings, and
    compatibility of the conjugation candidate with the algebra leg."""
    m = s.base_action
    for classes, multiplicative in zip((s.algebra_classes, s.hopf_classes), _embedding_laws(s)):
        if Subspace.from_sparse(s.dim, classes).dim != len(classes) or not multiplicative.holds():
            return False
    at, terms = s.inner_candidate.act_terms, [c.items() for c in s.algebra_classes]
    return all(apply_each(enumerate(terms), at[h]) == apply_each(m.act_support[h], terms) for h in range(s.hopf.dim))


def smash_action_maps(s: SmashProduct) -> EFWitness:
    """The four structure maps from H into A # H, verified as a witness."""
    m, hopf = s.base_action, s.hopf
    unit = nonzero(m.alg.unit)

    def conv(columns) -> ConvMap:
        return ConvMap(hopf.coalg, s.algebra, Mat.from_sparse_columns(tuple(columns), s.dim))

    witness = EFWitness(
        conv(s.hopf_classes),
        conv(map(s.hopf_class, hopf.antipode.column_terms)),
        conv(s.algebra_class(bilinear(m.act_terms, basis_terms(h), unit).items()) for h in range(hopf.dim)),
        conv(map(s.hopf_class, hopf.counital_data.eps_s.column_terms)),
    )
    return require_witness(witness, InvariantViolation, "smash structure maps fail the witness identities")


class SmashBattery(Record):
    """The five equivalent conditions, each evaluated on its own."""

    module_algebra: bool            # conjugation candidate is a module algebra
    unit_conjugation: bool          # 1 # 1_1 g S(1_2) = 1 # g
    counital_commutation: bool      # 1 # h_1 g eps_s(h_2) = 1 # h g
    source_image_central: bool      # 1 # H_s central in A # H
    quantum_commutative: bool       # the weak Hopf algebra itself

    def booleans(self) -> tuple[bool, ...]:
        return self._key(self)

    def all_equal(self) -> bool:
        b = self.booleans()
        return all(x == b[0] for x in b)

    def to_dict(self) -> dict:
        return {**{f: getattr(self, f) for f in self._fields}, "all_equal": self.all_equal()}


def _commutes_counitally(s: SmashProduct) -> bool:
    """1 # h_1 g eps_s(h_2) = 1 # h g on every basis pair (h, g), by rows over g."""
    commutation, classes = s.hopf.counital_commutation, [c.items() for c in s.hopf_classes]

    def rows(h: int) -> tuple[SparseRows, SparseRows]:
        return tuple(apply_each(support_of(side), classes) for side in commutation(h))

    return holds_on(rows, range(s.hopf.dim))


def _source_image_central(s: SmashProduct) -> bool:
    """Whether 1 # H_s is central in A # H: the class of each basis vector of H_s times
    every basis vector of A # H, on either side, as two rows."""
    left, right = s.algebra.mult_support, s.algebra.transposed_support
    return all(
        combine_each(image, left) == combine_each(image, right)
        for image in (s.hopf_class(b).items() for b in s.hopf.counital_data.h_s.sparse_basis)
    )


def smash_inner_battery(s: SmashProduct) -> SmashBattery:
    """Evaluate the five-way equivalence for conjugation on A # H."""
    hopf = s.hopf
    nh = hopf.dim
    hopf.counital_data  # a corrupt structure raises here, before any check
    hmt, antipode = hopf.alg.mult_terms, hopf.antipode.column_terms

    def conjugated(g: int) -> SparseVec:  # 1_1 g S(1_2)
        return sweedler(hopf.unit_delta_terms, lambda j, k: bilinear(hmt, hmt[j][g], antipode[k]))

    module_algebra = is_module_algebra(s.inner_candidate)
    unit_conjugation = all(
        s.hopf_class(conjugated(g).items()) == s.hopf_classes[g] for g in range(nh)
    )
    counital_commutation = _commutes_counitally(s)
    source_image_central = _source_image_central(s)

    qc_pair = is_quantum_commutative(hopf)
    if qc_pair[0] != qc_pair[1]:
        raise InvariantViolation("quantum commutativity criteria disagree")

    return SmashBattery(
        module_algebra=module_algebra,
        unit_conjugation=unit_conjugation,
        counital_commutation=counital_commutation,
        source_image_central=source_image_central,
        quantum_commutative=qc_pair[0],
    )
