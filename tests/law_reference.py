"""Every-tuple reference routes for the eleven basis-tuple laws.

The library evaluates each law by rows, both sides at once along its last
basis index, with the batched kernels `linalg.apply_each` and
`linalg.combine_each`.  These are the per-tuple bodies the rows replaced,
kept as test oracles: each law's two sides at one basis tuple, built from
`lincomb`, `bilinear` and `sweedler` one tuple at a time, and one loop that
evaluates them at every tuple of the law's shape in lexicographic order,
with no generator test in front.  Each function returns the full list of
(tuple, lhs, rhs) failures of one law, the sides rendered as the library
renders them.
"""

from functools import partial
from itertools import product

from whk.linalg import basis_terms, bilinear, collect, densify, lincomb, nonzero, sparse_kron, sweedler, sweedler_terms
from whk.weakhopf import _pair_keyed


def every_tuple(sides, shape, show):
    """(t, show(lhs), show(rhs)) for every basis tuple t of `shape`, in
    lexicographic order, at which the two sides of sides(*t) differ."""
    out = []
    for t in product(*map(range, shape)):
        lhs, rhs = sides(*t)
        if lhs != rhs:
            out.append((t, show(lhs), show(rhs)))
    return out


def _same(side):
    return side


# --- algebra, coalgebra and weak Hopf algebra laws ---


def algebra_associativity(a):
    """(e_i e_j) e_k = e_i (e_j e_k)."""
    n, mt = a.dim, a.mult_terms

    def sides(i, j, k):
        return lincomb((c, mt[t][k]) for t, c in mt[i][j]), lincomb((c, mt[i][t]) for t, c in mt[j][k])

    return every_tuple(sides, (n, n, n), partial(densify, n=n))


def coassociativity(c):
    """(Delta (x) id) Delta(e_i) = (id (x) Delta) Delta(e_i), keyed by index triples."""
    dt = c.delta_terms

    def sides(i):
        left = sweedler_terms(dt[i], lambda j, k: sweedler_terms(dt[j], lambda p, q: (((p, q, k), 1),)))
        right = sweedler_terms(dt[i], lambda j, k: sweedler_terms(dt[k], lambda p, q: (((j, p, q), 1),)))
        return collect(left), collect(right)

    return every_tuple(sides, (c.dim,), _same)


def comult_multiplicative(h):
    """Delta(e_i e_j) = Delta(e_i) Delta(e_j)."""
    n, mt, dt, delta = h.dim, h.alg.mult_terms, h.coalg.delta_terms, h.coalg.delta_columns

    def times_delta(p1, q1, j):
        return sweedler_terms(dt[j], lambda p2, q2: sparse_kron(mt[p1][p2], mt[q1][q2], n).items())

    def sides(i, j):
        lhs = lincomb((c, delta[k]) for k, c in mt[i][j])
        return lhs, collect(sweedler_terms(dt[i], lambda p1, q1: times_delta(p1, q1, j)))

    return every_tuple(sides, (n, n), partial(_pair_keyed, n=n))


def anti_algebra_morphism(h):
    """S(e_i e_j) = S(e_j) S(e_i)."""
    n, mt, s = h.dim, h.alg.mult_terms, h.antipode.column_terms

    def sides(i, j):
        return lincomb((c, s[t]) for t, c in mt[i][j]), bilinear(mt, s[j], s[i])

    return every_tuple(sides, (n, n), partial(densify, n=n))


def anti_coalgebra_morphism(h):
    """Delta(S(e_i)) = S(e_i2) (x) S(e_i1)."""
    n, dt, s, delta = h.dim, h.coalg.delta_terms, h.antipode.column_terms, h.coalg.delta_columns

    def sides(i):
        return lincomb((c, delta[t]) for t, c in s[i]), sweedler(dt[i], lambda p, q: sparse_kron(s[q], s[p], n))

    return every_tuple(sides, (n,), partial(densify, n=n * n))


# --- action laws ---


def action_associativity(m):
    """(e_g e_h) . x_x = e_g . (e_h . x_x)."""
    at, hmt, nh, na = m.act_terms, m.hopf.alg.mult_terms, m.hopf.dim, m.alg.dim

    def sides(g, h, x):
        return lincomb((c, at[k][x]) for k, c in hmt[g][h]), lincomb((c, at[g][j]) for j, c in at[h][x])

    return every_tuple(sides, (nh, nh, na), partial(densify, n=na))


def action_multiplicativity(m):
    """e_h . (x_x x_y) = (h_1 . x_x)(h_2 . x_y)."""
    at, amt, dt, nh, na = m.act_terms, m.alg.mult_terms, m.hopf.coalg.delta_terms, m.hopf.dim, m.alg.dim

    def sides(h, x, y):
        lhs = lincomb((c, at[h][k]) for k, c in amt[x][y])
        return lhs, sweedler(dt[h], lambda p, q: bilinear(amt, at[p][x], at[q][y]))

    return every_tuple(sides, (nh, na, na), partial(densify, n=na))


def action_unit_compatibility(m):
    """e_h . 1 = eps_t(e_h) . 1."""
    at, na, unit = m.act_terms, m.alg.dim, nonzero(m.alg.unit)
    et = m.hopf.counital_data.eps_t

    def sides(h):
        return lincomb((c, at[h][j]) for j, c in unit), bilinear(at, et.column_terms[h], unit)

    return every_tuple(sides, (m.hopf.dim,), partial(densify, n=na))


# --- the smash product's premises P1-P3 (see smash._relations_form_ideal) ---


def smash_premises(m):
    """The failures of P1, P2 and P3, each over (index of z in the H_t basis, h, w or g)."""
    hopf, alg = m.hopf, m.alg
    nh, na = hopf.dim, alg.dim
    hmt, amt, at, dt = hopf.alg.mult_terms, alg.mult_terms, m.act_terms, hopf.coalg.delta_terms
    dcols, eps_t = hopf.coalg.delta_columns, hopf.counital_data.eps_t.column_terms
    ht = hopf.counital_data.h_t.sparse_basis
    z_left = [[bilinear(hmt, z, basis_terms(h)) for h in range(nh)] for z in ht]  # z e_h
    z_right = [[bilinear(hmt, basis_terms(h), z) for h in range(nh)] for z in ht]  # e_h z
    eps_right = [[lincomb((c, eps_t[k]) for k, c in v.items()) for v in row] for row in z_right]  # eps_t(e_h z)
    z_one = [bilinear(at, z, nonzero(alg.unit)) for z in ht]  # z . 1

    def left_leg(r, v):  # e_r (x) v
        return sparse_kron(basis_terms(r), v.items(), nh)

    def comult(zi, h):  # P1
        lhs = lincomb((c, dcols[k]) for k, c in z_left[zi][h].items())
        return lhs, sweedler(dt[h], lambda p, q: sparse_kron(z_left[zi][p].items(), basis_terms(q), nh))

    def action(zi, w):  # P2
        return bilinear(at, ht[zi], basis_terms(w)), bilinear(amt, z_one[zi].items(), basis_terms(w))

    def target(zi, g):  # P3
        eps = eps_right[zi]
        lhs = sweedler(dt[g], lambda p, q: sweedler(
            dt[p], lambda r, s: left_leg(r, bilinear(hmt, eps[s].items(), basis_terms(q)))
        ))
        return lhs, sweedler(dt[g], lambda p, q: left_leg(p, z_right[zi][q]))

    nz = len(ht)
    return [every_tuple(sides, (nz, last), _same) for sides, last in ((comult, nh), (action, na), (target, nh))]
