"""Every-tuple reference routes for the laws the library evaluates by rows.

The library evaluates each law by rows, both sides at once along its last
basis index, with the batched kernels `linalg.apply_each`,
`linalg.combine_each` and `linalg.sweedler_each`, which return the nonzero
rows only, as a dict, and read each table through its support.  The
list-form kernels they replaced, which build and return every row, zero
or not, are kept below as references (`test_row_kernels` runs the library
on both).  Next come the per-tuple bodies the rows replaced, kept as test
oracles: each law's two sides at one
basis tuple, built from `lincomb`, `bilinear` and `sweedler` one tuple at a
time, and one loop that evaluates them at every tuple of the law's shape in
lexicographic order, with no generator test in front.  Each function
returns the full list of failures of one law (or of several laws whose
failures interleave), with both sides as sparse dicts, as the library
hands them to its report; the dense conjugation tensor and the inner-action battery's dense subspace
tests are kept too.  This is the one every-tuple
reference: `test_law_rows` checks every law by rows against it, and
`test_oracles` the generator route of the three triple laws, on the
corpus, its corruptions, the bench inputs and generated structures.
"""

from itertools import product

from whk.linalg import ZERO, Subspace, basis_terms, bilinear, densify, kernel, lincomb, nonzero, sparse_kron, sweedler
from whk.weakhopf import eps_s_matrix, eps_t_matrix

from test_linalg import to_dm


# --- the list-form kernels: every row of the last index, a zero one as {} ---


def apply_each(coeff_lists, vectors):
    """[sum of c * vectors[t] over (t, c) in cs, for cs in coeff_lists], each what `lincomb` returns."""
    out = []
    for cs in coeff_lists:
        acc = {}
        met_twice = False
        for t, c in cs:
            for k, x in vectors[t]:
                if k in acc:
                    acc[k] += c * x
                    met_twice = True
                else:
                    acc[k] = c * x
        out.append({k: x for k, x in acc.items() if x} if met_twice else acc)
    return out


def combine_each(coeffs, table, n):
    """[sum of c * table[t][m] over (t, c) in coeffs, for m < n], each what `lincomb` returns."""
    out = [{} for _ in range(n)]
    met_twice = False
    for t, c in coeffs:
        for acc, ts in zip(out, table[t]):
            for k, x in ts:
                if k in acc:
                    acc[k] += c * x
                    met_twice = True
                else:
                    acc[k] = c * x
    return [{k: x for k, x in acc.items() if x} for acc in out] if met_twice else out


def sweedler_each(delta, fn, n):
    """[sweedler(delta, lambda p, q: fn(p, q)[m]) for m < n], where fn(p, q) returns a row of n term lists."""
    return combine_each([(t, c) for t, (_, _, c) in enumerate(delta)], [fn(p, q) for p, q, _ in delta], n)


# --- nested Sweedler sums, summed once ---


def collect(terms):
    """Sum of the values of equal keys, in first-seen key order; zeros dropped at the end."""
    acc = {}
    for k, x in terms:
        old = acc.get(k)
        acc[k] = x if old is None else old + x
    return {k: x for k, x in acc.items() if x}


def sweedler_terms(delta, fn):
    """The terms (k, c * x) of a Sweedler sum before summing; fn(p, q) returns terms."""
    return ((k, c * x) for p, q, c in delta for k, x in fn(p, q))


# --- every-tuple evaluation ---


def every_tuple(sides, shape):
    """(t, lhs, rhs) for every basis tuple t of `shape`, in lexicographic
    order, at which the two sides of sides(*t) differ."""
    out = []
    for t in product(*map(range, shape)):
        lhs, rhs = sides(*t)
        if lhs != rhs:
            out.append((t, lhs, rhs))
    return out


# --- algebra, coalgebra and weak Hopf algebra laws ---


def algebra_associativity(a):
    """(e_i e_j) e_k = e_i (e_j e_k)."""
    n, mt = a.dim, a.mult_terms

    def sides(i, j, k):
        return lincomb((c, mt[t][k]) for t, c in mt[i][j]), lincomb((c, mt[i][t]) for t, c in mt[j][k])

    return every_tuple(sides, (n, n, n))


def coassociativity(c):
    """(Delta (x) id) Delta(e_i) = (id (x) Delta) Delta(e_i), keyed by index triples."""
    dt = c.delta_terms

    def sides(i):
        left = sweedler_terms(dt[i], lambda j, k: sweedler_terms(dt[j], lambda p, q: (((p, q, k), 1),)))
        right = sweedler_terms(dt[i], lambda j, k: sweedler_terms(dt[k], lambda p, q: (((j, p, q), 1),)))
        return collect(left), collect(right)

    return every_tuple(sides, (c.dim,))


def comult_multiplicative(h):
    """Delta(e_i e_j) = Delta(e_i) Delta(e_j)."""
    n, mt, dt, delta = h.dim, h.alg.mult_terms, h.coalg.delta_terms, h.coalg.delta_columns

    def times_delta(p1, q1, j):
        return sweedler_terms(dt[j], lambda p2, q2: sparse_kron(mt[p1][p2], mt[q1][q2], n).items())

    def sides(i, j):
        lhs = lincomb((c, delta[k]) for k, c in mt[i][j])
        return lhs, collect(sweedler_terms(dt[i], lambda p1, q1: times_delta(p1, q1, j)))

    return every_tuple(sides, (n, n))


def anti_algebra_morphism(h):
    """S(e_i e_j) = S(e_j) S(e_i)."""
    n, mt, s = h.dim, h.alg.mult_terms, h.antipode.column_terms

    def sides(i, j):
        return lincomb((c, s[t]) for t, c in mt[i][j]), bilinear(mt, s[j], s[i])

    return every_tuple(sides, (n, n))


def anti_coalgebra_morphism(h):
    """Delta(S(e_i)) = S(e_i2) (x) S(e_i1)."""
    n, dt, s, delta = h.dim, h.coalg.delta_terms, h.antipode.column_terms, h.coalg.delta_columns

    def sides(i):
        return lincomb((c, delta[t]) for t, c in s[i]), sweedler(dt[i], lambda p, q: sparse_kron(s[q], s[p], n))

    return every_tuple(sides, (n,))


def counit_mult_compatibility(h):
    """eps(e_a e_g e_b) = eps(e_a g_1) eps(g_2 e_b) = eps(e_a g_2) eps(g_1 e_b), failures
    as ((a, g, b), value, (first, second)), one (a, g) pair at a time."""
    n, mt, dt = h.dim, h.alg.mult_terms, h.coalg.delta_terms
    rows = h.eps_rows
    out = []
    for a in range(n):
        ea = rows[a]
        for g in range(n):
            lhs = lincomb((c, rows[t].items()) for t, c in mt[a][g])
            first = sweedler(dt[g], lambda p, q: {b: ea[p] * x for b, x in rows[q].items()} if p in ea else {})
            second = sweedler(dt[g], lambda p, q: {b: ea[q] * x for b, x in rows[p].items()} if q in ea else {})
            for b in range(n):
                value, pair = lhs.get(b, ZERO), (first.get(b, ZERO), second.get(b, ZERO))
                if value != pair[0] or value != pair[1]:
                    out.append(((a, g, b), value, pair))
    return out


def antipode_laws(h):
    """h_1 S(h_2) = eps_t(h), S(h_1) h_2 = eps_s(h) and S(h_1) h_2 S(h_3) = S(h), failures
    as (name, (i,), lhs, rhs), interleaved per basis vector."""
    n, mt, dt, s, e = h.dim, h.alg.mult_terms, h.coalg.delta_terms, h.antipode.column_terms, basis_terms
    right_cancel = [sweedler(dt[p], lambda p2, q2: bilinear(mt, s[p2], e(q2))) for p in range(n)]
    targets = (eps_t_matrix(h), eps_s_matrix(h), h.antipode)
    names = ("antipode_left_cancel", "antipode_right_cancel", "antipode_triple")
    out = []
    for i in range(n):
        left_cancel = sweedler(dt[i], lambda p, q: bilinear(mt, e(p), s[q]))
        triple = sweedler(dt[i], lambda p, q: bilinear(mt, right_cancel[p].items(), s[q]))
        for name, side, target in zip(names, (left_cancel, right_cancel[i], triple), targets):
            if side != dict(target.column_terms[i]):
                out.append((name, (i,), side, dict(target.column_terms[i])))
    return out


def eps_laws(h):
    """The six absorption, translation and multiplicativity laws of eps_s and eps_t, failures
    as (name, (a, b), lhs, rhs), all six on one pair (a, b) before the next."""
    cd = h.counital_data
    n, mt, dt, e = h.dim, h.alg.mult_terms, h.coalg.delta_terms, basis_terms
    es, et, eps = cd.eps_s.column_terms, cd.eps_t.column_terms, h.eps_rows

    def on(cols, x):  # the map with these columns, applied to x
        return lincomb((c, cols[j]) for j, c in x.items())

    out = []
    for a in range(n):
        for b in range(n):
            ab = dict(mt[a][b])
            es_a_b, a_et_b = bilinear(mt, es[a], e(b)), bilinear(mt, e(a), et[b])
            laws = (
                ("eps_s_absorbs", on(es, es_a_b), on(es, ab)),
                ("eps_s_translates", es_a_b, sweedler(dt[b], lambda p, q: {p: eps[a][q]} if q in eps[a] else {})),
                ("eps_s_multiplicative", on(es, bilinear(mt, e(a), es[b])), bilinear(mt, es[a], es[b])),
                ("eps_t_absorbs", on(et, a_et_b), on(et, ab)),
                ("eps_t_translates", a_et_b, sweedler(dt[a], lambda p, q: {q: eps[p][b]} if b in eps[p] else {})),
                ("eps_t_multiplicative", on(et, bilinear(mt, et[a], e(b))), bilinear(mt, et[a], et[b])),
            )
            for name, lhs, rhs in laws:
                if lhs != rhs:
                    out.append((name, (a, b), lhs, rhs))
    return out


def counital_commutation(h):
    """h_1 g eps_s(h_2) = h g, the first quantum-commutativity criterion, over (h, g)."""
    n, mt, dt, eps_s = h.dim, h.alg.mult_terms, h.coalg.delta_terms, h.counital_data.eps_s.column_terms

    def sides(i, g):
        return sweedler(dt[i], lambda p, q: bilinear(mt, mt[p][g], eps_s[q])), dict(mt[i][g])

    return every_tuple(sides, (n, n))


def noncommuting_pairs(a, s, t):
    """The pairs (r, c) of basis vectors s_r, t_c with s_r t_c != t_c s_r, by dense products."""
    return [
        (r, c) for r, x in enumerate(s.basis) for c, y in enumerate(t.basis) if a.multiply(x, y) != a.multiply(y, x)
    ]


# --- action laws ---


def action_associativity(m):
    """(e_g e_h) . x_x = e_g . (e_h . x_x)."""
    at, hmt, nh, na = m.act_terms, m.hopf.alg.mult_terms, m.hopf.dim, m.alg.dim

    def sides(g, h, x):
        return lincomb((c, at[k][x]) for k, c in hmt[g][h]), lincomb((c, at[g][j]) for j, c in at[h][x])

    return every_tuple(sides, (nh, nh, na))


def action_multiplicativity(m):
    """e_h . (x_x x_y) = (h_1 . x_x)(h_2 . x_y)."""
    at, amt, dt, nh, na = m.act_terms, m.alg.mult_terms, m.hopf.coalg.delta_terms, m.hopf.dim, m.alg.dim

    def sides(h, x, y):
        lhs = lincomb((c, at[h][k]) for k, c in amt[x][y])
        return lhs, sweedler(dt[h], lambda p, q: bilinear(amt, at[p][x], at[q][y]))

    return every_tuple(sides, (nh, na, na))


def action_unit_compatibility(m):
    """e_h . 1 = eps_t(e_h) . 1."""
    at, na, unit = m.act_terms, m.alg.dim, nonzero(m.alg.unit)
    et = m.hopf.counital_data.eps_t

    def sides(h):
        return lincomb((c, at[h][j]) for j, c in unit), bilinear(at, et.column_terms[h], unit)

    return every_tuple(sides, (m.hopf.dim,))


# --- the smash product's premises P1-P3 (see smash._failed_premise) ---


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
    return [every_tuple(sides, (nz, last)) for sides, last in ((comult, nh), (action, na), (target, nh))]


# --- the embeddings of A and H into A # H ---


def embedding_multiplicative(s, classes, embed, mt):
    """c(e_x) c(e_y) = c(e_x e_y) for the embedding c with these classes, over (x, y), one product at a time."""
    smt = s.algebra.mult_terms

    def sides(x, y):
        return bilinear(smt, classes[x].items(), classes[y].items()), embed(mt[x][y])

    return every_tuple(sides, (len(classes), len(classes)))


def algebra_embedding_multiplicative(s):
    return embedding_multiplicative(s, s.algebra_classes, s.algebra_class, s.base_action.alg.mult_terms)


def hopf_embedding_multiplicative(s):
    return embedding_multiplicative(s, s.hopf_classes, s.hopf_class, s.hopf.alg.mult_terms)


# --- inner actions and the smash battery ---


def conjugation_tensor(hopf, u, v):
    """The dense tensor of h . x = u(h_1) x v(h_2) on the basis of the common target."""
    mt, na = u.target.mult_terms, u.target.dim
    uc, vc = u.matrix.column_terms, v.matrix.column_terms

    def image(i, j):
        def leg(p, q):  # u(e_p) x_j v(e_q)
            return bilinear(mt, lincomb((c, mt[k][j]) for k, c in uc[p]).items(), vc[q])

        return densify(sweedler(hopf.coalg.delta_terms[i], leg), na)

    return tuple(tuple(image(i, j) for j in range(na)) for i in range(hopf.dim))


def unit_image_translates(data, m):
    """g . e(h) = e(g h), over (g, h)."""
    nh, at, hmt = data.hopf.dim, m.act_terms, data.hopf.alg.mult_terms
    e_cols = data.witness.e.matrix.column_terms

    def sides(g, h):
        return lincomb((c, at[g][k]) for k, c in e_cols[h]), lincomb((c, e_cols[k]) for k, c in hmt[g][h])

    return every_tuple(sides, (nh, nh))


def t_basis(data, i, j):
    """t(e_i, e_j) = v(e_j1) v(e_i1) u(e_i2 e_j2), one nested Sweedler sum per pair, dense."""
    hopf, w = data.hopf, data.witness
    mt, hmt, dt = w.target.mult_terms, hopf.alg.mult_terms, hopf.coalg.delta_terms
    uc, vc = w.u.matrix.column_terms, w.v.matrix.column_terms

    def term(p, q, r, s):  # v(e_r) v(e_p) u(e_q e_s)
        u_qs = lincomb((c, uc[k]) for k, c in hmt[q][s])
        return bilinear(mt, bilinear(mt, vc[r], vc[p]).items(), u_qs.items())

    return densify(sweedler(dt[i], lambda p, q: sweedler(dt[j], lambda r, s: term(p, q, r, s))), w.target.dim)


def smash_counital_commutation(s):
    """1 # h_1 g eps_s(h_2) = 1 # h g on the classes of A # H, over (h, g)."""
    hopf = s.hopf
    hmt, dt, eps_s = hopf.alg.mult_terms, hopf.coalg.delta_terms, hopf.counital_data.eps_s.column_terms

    def sides(h, g):
        commuted = sweedler(dt[h], lambda p, q: bilinear(hmt, hmt[p][g], eps_s[q]))
        return s.hopf_class(commuted.items()), s.hopf_class(hmt[h][g])

    return every_tuple(sides, (hopf.dim, hopf.dim))


def one_sided_criterion(data, m):
    """(h_1 . x_a) u(h_2) = u(h) x_a, over (h, a): `actions.second_form_check`'s criterion."""
    target, dt = data.witness.target, data.hopf.coalg.delta_terms
    mt, uc, at = target.mult_terms, data.witness.u.matrix.column_terms, m.act_terms

    def sides(h, a):
        lhs = sweedler(dt[h], lambda p, q: bilinear(mt, at[p][a], uc[q]))
        return lhs, lincomb((c, mt[k][a]) for k, c in uc[h])

    return every_tuple(sides, (data.hopf.dim, target.dim))


def inner_battery_subspaces(data):
    """The inner-action battery's four subspace tests, on dense matrices and bases:
    e o eps_t = e, ker eps_t inside ker e, f(H) central and u(H_s) central."""
    cd, w = data.hopf.counital_data, data.witness
    central, e = w.target.center, w.e.matrix
    f_image = Subspace.spanned_by(w.target.dim, list(w.f.matrix.columns))
    u_image = Subspace.spanned_by(w.target.dim, [w.u(b) for b in cd.h_s.basis])
    return (
        to_dm(e) * to_dm(cd.eps_t) == to_dm(e),
        kernel(e).contains_subspace(kernel(cd.eps_t)),
        central.contains_subspace(f_image),
        central.contains_subspace(u_image),
    )
