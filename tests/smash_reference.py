"""Test-only helpers on smash products: the projection of an A (x) H vector
and the representative product extended bilinearly to A (x) H.

The library builds and checks smash products on basis elements only, so
neither is part of it; the tests use both to multiply arbitrary
representatives.
"""

from whk.linalg import densify, lincomb, nonzero
from whk.smash import _project, _representative_product


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
        (vi * vj, _representative_product(m, *divmod(i, nh), *divmod(j, nh)).items())
        for i, vi in nonzero(xv)
        for j, vj in ys
    )
