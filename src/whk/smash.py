"""Smash products as explicit quotients of the tensor square.

For a validated left module algebra the space A (x) H is divided by the
balance relations (x . z) (x) h - x (x) (z h) over the target counital
subalgebra, where x . z is the induced right action.  The quotient basis
is the canonical pivot complement of the relation space, the product is
induced from

    (x # h)(y # g) = x (h_1 . y) # h_2 g

on representatives, and well-definedness plus associativity are verified
during construction rather than assumed.
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass
from functools import cached_property

from .actions import ModuleAction, conjugation_action, is_module_algebra
from .algebra import FiniteAlgebra, validate_algebra
from .convolution import ConvMap, EFWitness, require_witness
from .errors import InvariantViolation, PreconditionError
from .linalg import (
    Mat,
    SparseVec,
    Subspace,
    Terms,
    Vec,
    basis_terms,
    bilinear,
    densify,
    lincomb,
    nonzero,
    rank,
    sparse_kron,
    sweedler,
    unit_vec,
)
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


@dataclass(frozen=True)
class SmashProduct:
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

    def project(self, v: Vec) -> Vec:
        return self.project_sparse(dict(nonzero(v)))

    def project_sparse(self, sparse: SparseVec) -> Vec:
        return densify(_project(self.projection.column_terms, sparse.items()), self.dim)

    def embed_algebra(self, x: Vec) -> Vec:
        """Class of x (x) 1_H."""
        return self.project_sparse(sparse_kron(nonzero(x), nonzero(self.hopf.unit), self.hopf.dim))

    def embed_hopf(self, h: Vec) -> Vec:
        """Class of 1_A (x) h."""
        return self.project_sparse(sparse_kron(nonzero(self.base_action.alg.unit), nonzero(h), self.hopf.dim))

    @cached_property
    def inner_candidate(self) -> ModuleAction:
        """Conjugation candidate h . w = u(h_1) w v(h_2), its structure maps verified once."""
        return conjugation_action(self.hopf, smash_action_maps(self))

    @cached_property
    def inner_candidate_is_module_algebra(self) -> bool:
        """Whether the conjugation candidate is a module algebra, decided once."""
        return is_module_algebra(self.inner_candidate)


def _representative_product(
    m: ModuleAction, x_idx: int, h_idx: int, y_idx: int, g_idx: int
) -> SparseVec:
    """(e_x # e_h)(e_y # e_g) expanded in A (x) H coordinates."""
    amt, hmt, at = m.alg.mult_terms, m.hopf.alg.mult_terms, m.act_terms

    def leg(p: int, q: int) -> SparseVec:
        left = lincomb((c, amt[x_idx][k]) for k, c in at[p][y_idx])
        return sparse_kron(left.items(), hmt[q][g_idx], m.hopf.dim)

    return sweedler(m.hopf.coalg.delta_terms[h_idx], leg)


def _representative_bilinear(m: ModuleAction, xv: Vec, yv: Vec) -> SparseVec:
    """Bilinear extension of the representative product to A (x) H."""
    nh = m.hopf.dim
    ys = nonzero(yv)
    return lincomb(
        (vi * vj, _representative_product(m, *divmod(i, nh), *divmod(j, nh)).items())
        for i, vi in nonzero(xv)
        for j, vj in ys
    )


def build_smash(m: ModuleAction) -> SmashProduct:
    """The quotient algebra A # H of a validated module algebra, kept on the action once built."""
    return m.smash


def _construct_smash(m: ModuleAction) -> SmashProduct:
    if not is_module_algebra(m):
        raise PreconditionError("smash products require a validated module algebra")
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

    # projected representative products of tensor basis pairs, each computed once
    classes: dict[tuple[int, int], SparseVec] = {}

    def product_class(i: int, j: int) -> SparseVec:
        if (i, j) not in classes:
            rep = _representative_product(m, *divmod(i, nh), *divmod(j, nh))
            classes[i, j] = _project(projection.column_terms, rep.items())
        return classes[i, j]

    mult = tuple(
        tuple(densify(product_class(c1, c2), dim) for c2 in quotient_coords) for c1 in quotient_coords
    )
    unit_rep = sparse_kron(nonzero(alg.unit), nonzero(hopf.unit), nh)
    unit = densify(_project(projection.column_terms, unit_rep.items()), dim)
    algebra = FiniteAlgebra(dim, mult, unit)

    # well-definedness: the representative product must kill the relations
    for r in relation_space.basis:
        rt = nonzero(r)
        for b in range(na * nh):
            if lincomb((x, product_class(i, b).items()) for i, x in rt):
                raise InvariantViolation("induced product is not well defined (left factor)")
            if lincomb((x, product_class(b, i).items()) for i, x in rt):
                raise InvariantViolation("induced product is not well defined (right factor)")
    if not validate_algebra(algebra).ok:
        raise InvariantViolation("induced product is not an associative unital algebra")
    return SmashProduct(m, relation_space, quotient_coords, projection, algebra)


def embeddings_check(s: SmashProduct) -> bool:
    """Injectivity and multiplicativity of both canonical embeddings, and
    compatibility of the conjugation candidate with the algebra leg."""
    m = s.base_action
    alg, hopf = m.alg, s.hopf
    na, nh = alg.dim, hopf.dim
    a_cols = [s.embed_algebra(unit_vec(na, x)) for x in range(na)]
    h_cols = [s.embed_hopf(unit_vec(nh, h)) for h in range(nh)]
    if rank(Mat.from_columns(a_cols, s.dim)) != na:
        return False
    if rank(Mat.from_columns(h_cols, s.dim)) != nh:
        return False
    for x in range(na):
        for y in range(na):
            prod = s.algebra.multiply(a_cols[x], a_cols[y])
            if prod != s.embed_algebra(alg.basis_product(x, y)):
                return False
    for g in range(nh):
        for h in range(nh):
            prod = s.algebra.multiply(h_cols[g], h_cols[h])
            if prod != s.embed_hopf(hopf.alg.basis_product(g, h)):
                return False
    candidate = s.inner_candidate
    for h in range(nh):
        for x in range(na):
            lhs = candidate.apply(unit_vec(nh, h), a_cols[x])
            if lhs != s.embed_algebra(m.act_basis(h, x)):
                return False
    return True


def smash_action_maps(s: SmashProduct) -> EFWitness:
    """The four structure maps from H into A # H, verified as a witness."""
    m = s.base_action
    hopf = s.hopf
    cd = hopf.counital_data
    na, nh = m.alg.dim, hopf.dim
    e_cols = []
    f_cols = []
    u_cols = []
    v_cols = []
    for h in range(nh):
        eh = unit_vec(nh, h)
        e_cols.append(s.embed_algebra(m.apply(eh, m.alg.unit)))
        f_cols.append(s.embed_hopf(cd.eps_s.col(h)))
        u_cols.append(s.embed_hopf(eh))
        v_cols.append(s.embed_hopf(hopf.antipode_col(h)))
    coalg = hopf.coalg
    target = s.algebra
    witness = EFWitness(
        ConvMap(coalg, target, Mat.from_columns(u_cols, s.dim)),
        ConvMap(coalg, target, Mat.from_columns(v_cols, s.dim)),
        ConvMap(coalg, target, Mat.from_columns(e_cols, s.dim)),
        ConvMap(coalg, target, Mat.from_columns(f_cols, s.dim)),
    )
    return require_witness(witness, InvariantViolation, "smash structure maps fail the witness identities")


@dataclass(frozen=True)
class SmashBattery:
    """The five equivalent conditions, each evaluated on its own."""

    module_algebra: bool            # conjugation candidate is a module algebra
    unit_conjugation: bool          # 1 # 1_1 g S(1_2) = 1 # g
    counital_commutation: bool      # 1 # h_1 g eps_s(h_2) = 1 # h g
    source_image_central: bool      # 1 # H_s central in A # H
    quantum_commutative: bool       # the weak Hopf algebra itself

    def booleans(self) -> tuple[bool, ...]:
        return astuple(self)

    def all_equal(self) -> bool:
        b = self.booleans()
        return all(x == b[0] for x in b)

    def to_dict(self) -> dict:
        return {**asdict(self), "all_equal": self.all_equal()}


def smash_inner_battery(s: SmashProduct) -> SmashBattery:
    """Evaluate the five-way equivalence for conjugation on A # H."""
    hopf = s.hopf
    nh = hopf.dim
    cd = hopf.counital_data
    hmt, dt = hopf.alg.mult_terms, hopf.coalg.delta_terms
    antipode, eps_s = hopf.antipode.column_terms, cd.eps_s.column_terms

    def conjugated(g: int) -> Vec:  # 1_1 g S(1_2)
        return densify(sweedler(hopf.unit_delta_terms, lambda j, k: bilinear(hmt, hmt[j][g], antipode[k])), nh)

    def commuted(h: int, g: int) -> Vec:  # h_1 g eps_s(h_2)
        return densify(sweedler(dt[h], lambda p, q: bilinear(hmt, hmt[p][g], eps_s[q])), nh)

    module_algebra = s.inner_candidate_is_module_algebra
    unit_conjugation = all(
        s.embed_hopf(conjugated(g)) == s.embed_hopf(unit_vec(nh, g)) for g in range(nh)
    )
    counital_commutation = all(
        s.embed_hopf(commuted(h, g)) == s.embed_hopf(hopf.alg.basis_product(h, g))
        for h in range(nh)
        for g in range(nh)
    )
    smt = s.algebra.mult_terms
    source_image_central = all(
        bilinear(smt, image, basis_terms(w)) == bilinear(smt, basis_terms(w), image)
        for image in (nonzero(s.embed_hopf(b)) for b in cd.h_s.basis)
        for w in range(s.dim)
    )

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
