"""Test-only helpers on smash products: the projection of an A (x) H vector,
the representative product extended bilinearly to A (x) H, and the
per-pair references of the checks the library evaluates by rows.

The library builds and checks smash products on basis elements only, and
multiplies out a row of basis pairs at a time.  The tests use the helpers
to multiply arbitrary representatives, and the references (the product
table, the embeddings and the centrality of 1 # H_s, each one pair at a
time) as oracles for the rows (`test_smash_rows`).  The every-pair loop
(`relations_form_ideal`) is the reference for the premise test that the
library takes as the construction's precondition (`test_oracles`).
"""

from functools import cache

from whk import smash
from whk.algebra import FiniteAlgebra, validate_algebra
from whk.errors import InvariantViolation, PreconditionError
from whk.linalg import (
    Subspace, basis_terms, bilinear, densify, lincomb, nonzero, sorted_terms, sparse_kron, sweedler, unit_vec,
)
from whk.smash import _project


def representative_product(m, x_idx, h_idx, y_idx, g_idx):
    """(e_x # e_h)(e_y # e_g) expanded in A (x) H coordinates, one Sweedler sum per pair."""
    amt, hmt, at = m.alg.mult_terms, m.hopf.alg.mult_terms, m.act_terms

    def leg(p, q):
        left = lincomb((c, amt[x_idx][k]) for k, c in at[p][y_idx])
        return sparse_kron(left.items(), hmt[q][g_idx], m.hopf.dim)

    return sweedler(m.hopf.coalg.delta_terms[h_idx], leg)


def project_sparse(smash, sparse):
    """Quotient coordinates, as a dense vector, of the sparse A (x) H vector `sparse`."""
    return densify(_project(smash.projection.column_terms, sparse.items()), smash.dim)


def project(smash, v):
    """Quotient coordinates of the dense A (x) H vector v."""
    return project_sparse(smash, dict(nonzero(v)))


def representative_bilinear(m, xv, yv):
    """The representative product of dense A (x) H vectors, as a sparse vector."""
    nh = m.hopf.dim
    ys = nonzero(yv)
    return lincomb(
        (vi * vj, representative_product(m, *divmod(i, nh), *divmod(j, nh)).items())
        for i, vi in nonzero(xv)
        for j, vj in ys
    )


# --- the per-pair bodies the smash layer evaluates by rows ---


def product_class(m, columns, i, j):
    """The class of the representative product of the tensor basis elements i and j."""
    return _project(columns, representative_product(m, *divmod(i, m.hopf.dim), *divmod(j, m.hopf.dim)).items())


def construct_algebra(m):
    """The algebra of A # H as `smash._construct_smash` builds it, with every product
    class multiplied out one pair of tensor basis elements at a time; the same
    precondition and premise test (both read through `smash`, so that a test can
    replace them) and the same errors."""
    if not smash.is_module_algebra(m):
        raise PreconditionError("smash products require a validated module algebra")
    if premise := smash._failed_premise(m):
        raise PreconditionError(f"smash product premise fails: {premise}")
    alg, hopf = m.alg, m.hopf
    na, nh = alg.dim, hopf.dim
    hmt = hopf.alg.mult_terms
    generators = []
    for x in range(na):
        for z in hopf.counital_data.h_t.basis:
            xz = nonzero(smash.right_ht_action(m, unit_vec(na, x), z))
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
    columns = relation_space.quotient_map().column_terms
    table = tuple(
        tuple(sorted_terms(product_class(m, columns, i, j)) for j in quotient_coords) for i in quotient_coords
    )
    unit = densify(_project(columns, sparse_kron(nonzero(alg.unit), nonzero(hopf.unit), nh).items()), dim)
    algebra = FiniteAlgebra.from_terms(dim, table, unit)
    if not validate_algebra(algebra).ok:
        raise InvariantViolation("induced product is not an associative unital algebra")
    return algebra


def relations_form_ideal(s):
    """Whether the relation space of s is a two-sided ideal of A (x) H under the representative
    product, by multiplying every relation basis vector with every tensor basis element on both sides."""
    m, columns = s.base_action, s.projection.column_terms
    product = cache(lambda i, j: product_class(m, columns, i, j))
    return not any(
        lincomb((x, product(i, b).items()) for i, x in r) or lincomb((x, product(b, i).items()) for i, x in r)
        for r in s.relation_space.sparse_basis
        for b in range(s.relation_space.ambient_dim)
    )


def embeddings_check(s):
    """`smash.embeddings_check` with each product of embedded classes, and each image
    under the conjugation candidate, computed one pair at a time."""
    m = s.base_action
    smt = s.algebra.mult_terms
    for classes, embed, mt in (
        (s.algebra_classes, s.algebra_class, m.alg.mult_terms),
        (s.hopf_classes, s.hopf_class, s.hopf.alg.mult_terms),
    ):
        if Subspace.from_sparse(s.dim, classes).dim != len(classes):
            return False
        if any(
            bilinear(smt, cx.items(), cy.items()) != embed(mt[x][y])
            for x, cx in enumerate(classes)
            for y, cy in enumerate(classes)
        ):
            return False
    at = s.inner_candidate.act_terms
    return all(
        bilinear(at, basis_terms(h), cx.items()) == s.algebra_class(m.act_terms[h][x])
        for h in range(s.hopf.dim)
        for x, cx in enumerate(s.algebra_classes)
    )


def source_image_central(s):
    """Whether 1 # H_s is central in A # H, one basis element of A # H at a time."""
    smt = s.algebra.mult_terms
    return all(
        bilinear(smt, image, basis_terms(w)) == bilinear(smt, basis_terms(w), image)
        for image in (tuple(s.hopf_class(b).items()) for b in s.hopf.counital_data.h_s.sparse_basis)
        for w in range(s.dim)
    )
