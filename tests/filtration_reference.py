"""Dense reference routes for the radical and both coradical-filtration chains.

The library computes the dual algebra, the trace-form radical, the preimage
chain and the radical powers on sparse term tables.  These are the dense
constructions they replaced, kept as test oracles: the dual tensor read
back entry by entry, the Gram matrix of the trace form and its kernel, the
preimage step as the kernel of `quotient_map()` times `delta_matrix` (a
product taken by sympy), and every power of the radical rebuilt from
scratch with dense products.  Each raises the same library errors, with
the same messages, on corrupt input.
"""

from whk.algebra import FiniteAlgebra
from whk.coalgebra import CoradicalFiltration
from whk.errors import InvariantViolation, PreconditionError, ShapeError
from whk.linalg import ZERO, Mat, Subspace, basis_terms, kernel, sparse_kron, unit_vec

from test_linalg import of_dm, to_dm


def dual_algebra(c):
    """Algebra on the dual basis, m[i][j][k] = d[k][i][j], its term table left to `nonzero`."""
    mult = tuple(tuple(tuple(c.comult[k][i][j] for k in range(c.dim)) for j in range(c.dim)) for i in range(c.dim))
    return FiniteAlgebra(c.dim, mult, c.counit)


def delta_matrix(c):
    """The comultiplication as a dim^2 x dim matrix, left index major."""
    return Mat.from_sparse_columns([dict(col) for col in c.delta_columns], c.dim * c.dim)


def trace_form_matrix(a):
    """Gram matrix of (x, y) -> trace(L_x L_y) on the basis."""
    # trace(L_i L_j) = sum_{p,q} m[i][q][p] m[j][p][q]
    entries = []
    for i in range(a.dim):
        row = []
        for j in range(a.dim):
            acc = ZERO
            for q in range(a.dim):
                for p, c in a.mult_terms[i][q]:
                    cjq = a.mult[j][p][q]
                    if cjq:
                        acc += c * cjq
            row.append(acc)
        entries.append(tuple(row))
    return Mat(a.dim, a.dim, tuple(entries))


def jacobson_radical(a):
    """Kernel of the trace-form Gram matrix, verified a two-sided ideal with dense products."""
    space = kernel(trace_form_matrix(a))
    for i in range(a.dim):
        e = unit_vec(a.dim, i)
        for r in space.basis:
            if not space.contains(a.multiply(e, r)) or not space.contains(a.multiply(r, e)):
                raise InvariantViolation("radical candidate is not a two-sided ideal")
    return space


def subspace_power(a, s, n):
    """Span of all n-fold products of basis vectors of s, rebuilt from scratch."""
    if n < 1:
        raise PreconditionError("subspace power requires n >= 1 (use the unit span for n = 0)")
    if s.ambient_dim != a.dim:
        raise ShapeError("subspace ambient dimension differs from algebra dimension")
    current = Subspace.spanned_by(a.dim, s.basis)
    for _ in range(n - 1):
        products = [a.multiply(v, w) for v in s.basis for w in current.basis]
        current = Subspace.spanned_by(a.dim, products)
    return current


def coradical(c):
    return jacobson_radical(dual_algebra(c)).annihilator()


def coradical_filtration(c):
    """The preimage chain, each layer the kernel of the window's quotient map after Delta."""
    n = c.dim
    full = Subspace.full(n)
    c0 = coradical(c)
    layers = [c0]
    delta = to_dm(delta_matrix(c))
    standard = [basis_terms(i) for i in range(n)]
    while layers[-1] != full:
        prev = layers[-1]
        window = Subspace.from_sparse(
            n * n,
            [sparse_kron(e, b, n) for e in standard for b in prev.sparse_basis]
            + [sparse_kron(a, e, n) for a in c0.sparse_basis for e in standard],
        )
        nxt = kernel(of_dm(to_dm(window.quotient_map()) * delta))
        if not nxt.contains_subspace(prev):
            raise InvariantViolation("filtration layer failed to contain its predecessor")
        if nxt == prev:
            raise InvariantViolation("filtration stabilised below the full space")
        layers.append(nxt)
    return CoradicalFiltration(tuple(layers))


def dual_radical_filtration(c):
    """Annihilators of the powers of the dual radical, each power from scratch."""
    dual = dual_algebra(c)
    radical = jacobson_radical(dual)
    full = Subspace.full(c.dim)
    layers = []
    power = radical
    while True:
        layers.append(power.annihilator())
        if layers[-1] == full:
            break
        nxt = subspace_power(dual, radical, len(layers) + 1)
        if nxt == power:
            raise InvariantViolation("dual radical power chain stabilised below zero")
        power = nxt
    return CoradicalFiltration(tuple(layers))
