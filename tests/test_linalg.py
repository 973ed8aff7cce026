from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whk.errors import DimensionError, ShapeError
from whk.linalg import (
    ZERO,
    Mat,
    Subspace,
    Vec,
    apply_each,
    basis_terms,
    bilinear,
    combine_each,
    densify,
    kernel,
    kernel_sparse,
    invert,
    lincomb,
    nonzero,
    nonzero_rows,
    row_terms,
    rref,
    solve_affine,
    solve_affine_sparse,
    sparse_kron,
    support_of,
    sweedler,
    sweedler_each,
    table_support,
    unit_vec,
    vec,
)

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=7)
# Mostly zero, with both the shared ZERO and separate zero objects.
sparse_entries = st.one_of(st.just(ZERO), st.just(ZERO), st.builds(Fraction), rationals)


def small_matrix(max_dim: int = 4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(rationals, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(lambda rows: Mat.from_rows(rows, c))
        )
    )


@st.composite
def oracle_matrices(draw):
    """Mostly-zero matrices: square, tall, wide or all-zero, some with repeated rows."""
    shape = draw(st.sampled_from(["square", "tall", "wide", "zero"]))
    n = draw(st.integers(1, 6))
    r, c = {"square": (n, n), "tall": (n + 3, n), "wide": (n, n + 3), "zero": (n, n + 1)}[shape]
    entries = st.just(ZERO) if shape == "zero" else sparse_entries
    rows = draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r))
    repeats = draw(st.lists(st.integers(0, r - 1), max_size=3))
    return Mat.from_rows(rows + [rows[i] for i in repeats], c)


def test_rref_identity():
    m = Mat.identity(2)
    reduced, pivots = rref(m)
    assert reduced == m
    assert pivots == (0, 1)


def test_rref_hand_elimination():
    m = Mat.from_rows([[2, 4], [1, 2]])
    reduced, pivots = rref(m)
    assert reduced == Mat.from_rows([[1, 2], [0, 0]])
    assert pivots == (0,)


def test_rref_zero_matrix():
    m = Mat.zero(2, 3)
    reduced, pivots = rref(m)
    assert reduced == m
    assert pivots == ()


@settings(deadline=None)
@given(small_matrix())
def test_rref_idempotent(m):
    reduced, _ = rref(m)
    again, _ = rref(reduced)
    assert again == reduced


def to_dm(m: Mat):
    """m as a sparse sympy DomainMatrix over QQ: matrix arithmetic from outside the library."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    rows = ({j: sympy.QQ(x.numerator, x.denominator) for j, x in enumerate(row) if x} for row in m.entries)
    return DomainMatrix({i: row for i, row in enumerate(rows) if row}, (m.rows, m.cols), sympy.QQ)


def of_dm(d) -> Mat:
    """The Mat with the entries of a DomainMatrix over QQ."""
    rows = tuple(tuple(Fraction(int(q.numerator), int(q.denominator)) for q in row) for row in d.to_list())
    return Mat(*d.shape, rows)


def sympy_kron(a: Vec, b: Vec) -> Vec:
    """The Kronecker product of two vectors: sympy's outer product a b^T, read row by row."""
    return sum(of_dm(to_dm(Mat.from_columns([a], len(a))) * to_dm(Mat.from_rows([b], len(b)))).entries, ())


def delta_vec(c, x: Vec) -> Vec:
    """Delta(x) for a coalgebra c, read off its dense tensor: a flat vector of length dim^2, left index major."""
    n = c.dim
    return tuple(sum((xi * c.comult[i][j][k] for i, xi in enumerate(x) if xi), ZERO) for j in range(n) for k in range(n))


def sympy_rref(m: Mat):
    """RREF rows and pivots of m computed by sympy's DomainMatrix over QQ."""
    expected, expected_pivots = to_dm(m).rref()
    return of_dm(expected).entries, tuple(expected_pivots)


@settings(deadline=None)
@given(small_matrix())
def test_rank_nullity(m):
    assert kernel(m).dim + to_dm(m).rank() == m.cols


@settings(deadline=None)
@given(oracle_matrices())
def test_rref_matches_sympy(m):
    expected, expected_pivots = sympy_rref(m)
    reduced, pivots = rref(m)
    assert pivots == expected_pivots
    assert all(isinstance(x, Fraction) for row in reduced.entries for x in row)
    assert reduced.entries == expected


@st.composite
def sparse_systems(draw):
    """Sparse rows {column: value} over `cols` columns plus a right-hand side at column `cols`:
    mostly zero, with empty rows, repeated rows and rows that hold only a right-hand side, in any
    order, then some of the eliminator's edge cases, each a run of rows in the order that makes it one."""
    cols = draw(st.integers(1, 6))
    row = st.dictionaries(st.integers(0, cols), sparse_entries, max_size=cols + 1)
    rows = draw(st.lists(row, min_size=1, max_size=cols + 3))
    rows += [{}] * draw(st.integers(0, 2))
    rows += [{cols: x} for x in draw(st.lists(rationals.filter(bool), max_size=1))]
    rows += [rows[i] for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3))]
    rows = draw(st.permutations(rows))
    j, k = draw(st.integers(0, cols - 1)), draw(st.integers(0, cols - 1))
    x, y = draw(rationals.filter(bool)), draw(rationals.filter(bool))
    edge_cases = (
        [{}, {j: ZERO, k: Fraction(0)}],  # an empty row and one of explicit zeros
        [{j: x}, {j: y, k: x}],  # a row that holds only its pivot, whose column the next row reaches
        [{j: x, k: y}, {j: 2 * x, k: 2 * y}],  # the second reduces to empty against the first
        [{j: x, cols: y}, {j: x, cols: y + 1}],  # one unknown, two right-hand sides: inconsistent
    )
    return rows + [r for case in edge_cases if draw(st.booleans()) for r in case], cols


def homogeneous_part(rows, cols):
    return [{j: x for j, x in row.items() if j < cols} for row in rows]


def check_rows_match_mat_route_and_sympy(rows, cols):
    """rref, Subspace.from_sparse and kernel_sparse on sparse rows against the Mat route and sympy;
    every public scalar is a Fraction whatever the rows hold."""
    before = [dict(r) for r in rows]
    for width, sparse in ((cols, homogeneous_part(rows, cols)), (cols + 1, rows)):
        m = Mat(len(sparse), width, tuple(densify(r, width) for r in sparse))
        expected, expected_pivots = sympy_rref(m)
        reduced, pivots = rref(m)
        space = Subspace.from_sparse(width, sparse)
        assert pivots == space.pivots == expected_pivots
        assert reduced.entries == expected
        assert space.basis == expected[: len(expected_pivots)]
        assert all(type(x) is Fraction for b in reduced.entries + space.basis for x in b)
        assert kernel_sparse(sparse, width) == kernel(m)
    assert rows == before  # the eliminator copies its input rows


def check_affine_solve_matches_mat_route(rows, cols):
    """solve_affine_sparse against solve_affine and sympy; the particular solution holds Fractions."""
    a = Mat(len(rows), cols, tuple(densify(r, cols) for r in homogeneous_part(rows, cols)))
    b = tuple(Fraction(r.get(cols, 0)) for r in rows)
    particular, homogeneous = solve_affine_sparse(rows, cols)
    assert (particular, homogeneous) == solve_affine(a, b)
    assert homogeneous == kernel(a)
    augmented = Mat(a.rows, cols + 1, tuple(densify(r, cols + 1) for r in rows))
    consistent = len(sympy_rref(augmented)[1]) == len(sympy_rref(a)[1])
    assert (particular is not None) == consistent
    if particular is not None:
        assert a.apply(particular) == b
        assert all(type(x) is Fraction for x in particular)
    if any(set(r) == {cols} and r[cols] for r in rows):  # a row 0 = nonzero
        assert particular is None


@settings(deadline=None)
@given(sparse_systems())
def test_sparse_rows_match_mat_route_and_sympy(system):
    check_rows_match_mat_route_and_sympy(*system)


@settings(deadline=None)
@given(sparse_systems())
def test_sparse_affine_solve_matches_mat_route(system):
    check_affine_solve_matches_mat_route(*system)


def test_kernel_identity_is_zero():
    assert kernel(Mat.identity(3)).dim == 0


def test_kernel_one_row():
    space = kernel(Mat.from_rows([[1, 1]]))
    assert space.basis == (vec([1, -1]),)


def test_kernel_zero_matrix_full():
    assert kernel(Mat.zero(2, 2)) == Subspace.full(2)


def test_subspace_intersect_disjoint_lines():
    a = Subspace.spanned_by(2, [unit_vec(2, 0)])
    b = Subspace.spanned_by(2, [unit_vec(2, 1)])
    assert a.intersect(b).dim == 0


def test_annihilator_dual_basis_case():
    a = Subspace.spanned_by(2, [unit_vec(2, 0)])
    assert a.annihilator().basis == (unit_vec(2, 1),)


def test_sum_spans_plane():
    a = Subspace.spanned_by(2, [vec([1, 1])])
    b = Subspace.spanned_by(2, [vec([1, -1])])
    assert a.sum(b) == Subspace.full(2)


@settings(deadline=None)
@given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=0, max_size=4))
def test_annihilator_involution(rows):
    s = Subspace.spanned_by(3, [vec(r) for r in rows])
    assert s.annihilator().annihilator() == s


@settings(deadline=None)
@given(
    st.lists(st.lists(rationals, min_size=3, max_size=3).map(vec), min_size=1, max_size=4),
    st.lists(st.integers(0, 3), max_size=4),
    st.integers(0, 3),
)
def test_spanned_by_ignores_repeats_and_zeros(vectors, repeats, zeros):
    noisy = vectors + [vectors[i % len(vectors)] for i in repeats] + [vec([0, 0, 0])] * zeros
    distinct = [v for i, v in enumerate(vectors) if v not in vectors[:i] and any(v)]
    assert Subspace.spanned_by(3, noisy) == Subspace.spanned_by(3, distinct)


def test_subspace_dimension_mismatch():
    a = Subspace.spanned_by(2, [unit_vec(2, 0)])
    b = Subspace.spanned_by(3, [unit_vec(3, 0)])
    with pytest.raises(DimensionError):
        a.sum(b)
    with pytest.raises(DimensionError):
        a.contains(unit_vec(3, 0))


E0 = unit_vec(2, 0)
NOT_RREF = [
    # dense rows: each is accepted by the view's constructor no more
    ("leading value 2, dense", lambda: Subspace(2, ((Fraction(2), 0),))),
    ("repeated row, dense", lambda: Subspace(2, (E0, E0))),
    ("index out of range", lambda: Subspace.from_sparse(2, [{5: 1}])),
    ("negative index", lambda: Subspace.from_sparse(2, [{-1: 1}])),
    # term lists
    ("leading value 2", lambda: Subspace(2, (((0, 2),),))),
    ("leading value -1", lambda: Subspace(2, (((0, -1), (1, 1)),))),
    ("repeated row", lambda: Subspace(2, (((0, 1),), ((0, 1),)))),
    ("descending pivots", lambda: Subspace(2, (((1, 1),), ((0, 1),)))),
    ("nonzero at a later pivot", lambda: Subspace(2, (((0, 1), (1, 3)), ((1, 1),)))),
    ("empty row", lambda: Subspace(2, ((),))),
    ("zero value", lambda: Subspace(2, (((0, 1), (1, 0)),))),
    ("integral Fraction", lambda: Subspace(2, (((0, 1), (1, Fraction(2))),))),
    ("unsorted row", lambda: Subspace(3, (((0, 1), (2, 1), (1, 1)),))),
    ("row beyond the ambient space", lambda: Subspace(1, (((0, 1), (1, 1)),))),
    ("float value", lambda: Subspace(1, (((0, 0.5),),))),
    ("dense row", lambda: Subspace(1, ((Fraction(1),),))),
]


@pytest.mark.parametrize("build", [b for _, b in NOT_RREF], ids=[name for name, _ in NOT_RREF])
def test_subspace_rejects_rows_that_are_not_a_canonical_rref(build):
    with pytest.raises(ShapeError, match="^subspace basis is not a canonical RREF$"):
        build()


def test_subspace_stores_canonical_rref_rows():
    s = Subspace.spanned_by(3, [vec([2, 2, 0]), vec([0, Fraction(1, 2), 1]), vec([2, 3, 2])])
    assert s.sparse_basis == (((0, 1), (2, -2)), ((1, 1), (2, 2)))
    assert s == Subspace(3, s.sparse_basis) == Subspace(3, tuple(map(nonzero, s.basis)))
    assert s.basis == (vec([1, 0, -2]), vec([0, 1, 2])) and s.pivots == (0, 1)
    assert Subspace.full(2) == Subspace(2, (((0, 1),), ((1, 1),))) and Subspace.zero(2) == Subspace(2, ())
    assert s.contains_sparse({0: 1, 1: 1}) and not s.contains_sparse({2: 1}) and s.contains_sparse({})


def test_solve_affine_identity():
    particular, homogeneous = solve_affine(Mat.identity(2), vec([3, 5]))
    assert particular == vec([3, 5])
    assert homogeneous.dim == 0


def test_solve_affine_underdetermined():
    particular, homogeneous = solve_affine(Mat.from_rows([[1, 1]]), vec([2]))
    assert particular == vec([2, 0])
    assert homogeneous.basis == (vec([1, -1]),)


def test_solve_affine_inconsistent():
    particular, homogeneous = solve_affine(Mat.from_rows([[1], [1]]), vec([1, 2]))
    assert particular is None
    assert homogeneous.dim == 0
    a = Mat.from_rows([[1, 1, 0], [1, 1, 0]])
    particular, homogeneous = solve_affine(a, vec([1, 2]))
    assert particular is None
    assert homogeneous == kernel(a)
    assert homogeneous.dim == 2


@st.composite
def affine_systems(draw):
    """a*x = b with a mostly zero (often rank-deficient); b is either a*x0,
    or arbitrary, which makes tall systems mostly inconsistent."""
    a = draw(oracle_matrices())
    if draw(st.booleans()):
        b = a.apply(vec(draw(st.lists(sparse_entries, min_size=a.cols, max_size=a.cols))))
    else:
        b = vec(draw(st.lists(sparse_entries, min_size=a.rows, max_size=a.rows)))
    return a, b


@settings(deadline=None)
@given(affine_systems())
def test_solve_affine_matches_kernel_and_solves(system):
    a, b = system
    particular, homogeneous = solve_affine(a, b)
    assert homogeneous == kernel(a)
    augmented = Mat(a.rows, a.cols + 1, tuple(row + (bi,) for row, bi in zip(a.entries, b)))
    consistent = to_dm(augmented).rank() == to_dm(a).rank()
    assert (particular is not None) == consistent
    if particular is not None:
        assert a.apply(particular) == b


def test_kron_identities():
    for i in range(2):
        for j in range(3):
            assert sympy_kron(unit_vec(2, i), unit_vec(3, j)) == unit_vec(6, i * 3 + j)
            assert sparse_kron(basis_terms(i), basis_terms(j), 3) == {i * 3 + j: 1}


def test_kron_index_convention():
    assert sympy_kron(vec([0, 1]), vec([1, 0])) == vec([0, 0, 1, 0])
    assert sparse_kron([(1, Fraction(2))], [(0, Fraction(3))], 2) == {2: 6}


def test_kron_with_zero():
    a = vec([1, 2])
    assert sympy_kron(a, vec([0, 0])) == vec([0, 0, 0, 0])
    assert sparse_kron(nonzero(a), (), 2) == {}


kron_vectors = st.lists(sparse_entries, min_size=1, max_size=3).map(tuple)


@settings(deadline=None)
@given(kron_vectors, kron_vectors, kron_vectors)
def test_kron_associative(a, b, c):
    assert sympy_kron(sympy_kron(a, b), c) == sympy_kron(a, sympy_kron(b, c))
    nb, nc = len(b), len(c)
    left = sparse_kron(sparse_kron(nonzero(a), nonzero(b), nb).items(), nonzero(c), nc)
    right = sparse_kron(nonzero(a), sparse_kron(nonzero(b), nonzero(c), nc).items(), nb * nc)
    assert left == right
    assert densify(left, len(a) * nb * nc) == sympy_kron(sympy_kron(a, b), c)


@settings(deadline=None)
@given(rationals, rationals)
def test_scalar_arithmetic_exact(a, b):
    assert (a + b) - b == a


def test_vec_kron_matches_matrix_kron():
    """The Kronecker product of column vectors, literally and through sparse_kron."""
    a = vec([1, 2])
    b = vec([3, 0, 5])
    assert sympy_kron(a, b) == vec([3, 0, 5, 6, 0, 10])
    assert sympy_kron(a, b) == densify(sparse_kron(nonzero(a), nonzero(b), 3), 6)


@st.composite
def square_matrices(draw):
    """Small mostly-integral rational square matrices; a row repeated or scaled on a coin toss, so
    that singular ones come often."""
    n = draw(st.integers(1, 4))
    entry = st.one_of(st.just(0), integers, rationals)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        rows[-1] = [draw(integers) * x for x in rows[0]]
    return Mat.from_rows(rows)


@settings(deadline=None, derandomize=True, max_examples=100, database=None)
@given(square_matrices())
def test_invert_round_trip(m):
    inv = invert(m)
    if to_dm(m).rank() < m.rows:
        assert inv is None
    else:
        identity = to_dm(Mat.identity(m.rows))
        assert to_dm(m) * to_dm(inv) == identity == to_dm(inv) * to_dm(m)


def test_quotient_map_kernel_is_subspace():
    s = Subspace.spanned_by(3, [vec([1, 1, 0]), vec([0, 1, 1])])
    q = s.quotient_map()
    assert kernel(q) == s
    assert q.rows == 1


def reference_quotient_map(s):
    """The reduce-based construction: column j is reduce(e_j) on the complement coordinates."""
    comp = s.complement_coords()
    cols = [s.reduce(unit_vec(s.ambient_dim, j)) for j in range(s.ambient_dim)]
    return Mat(len(comp), s.ambient_dim, tuple(tuple(cols[j][c] for j in range(s.ambient_dim)) for c in comp))


@st.composite
def subspaces(draw):
    """Zero, full or spanned by mostly-zero vectors, some repeated or zero."""
    n = draw(st.integers(1, 7))
    shape = draw(st.sampled_from(["zero", "full", "spanned"]))
    if shape == "zero":
        return Subspace.zero(n)
    if shape == "full":
        return Subspace.full(n)
    vectors = draw(st.lists(st.lists(sparse_entries, min_size=n, max_size=n).map(tuple), max_size=n + 2))
    return Subspace.spanned_by(n, vectors)


@settings(deadline=None)
@given(subspaces())
def test_quotient_map_matches_reduce_construction(s):
    q = s.quotient_map()
    assert q == reference_quotient_map(s)
    assert kernel(q) == s


@settings(deadline=None)
@given(sparse_systems(), st.lists(rationals, min_size=7, max_size=7), st.lists(rationals, min_size=7, max_size=7))
def test_subspace_from_sparse_matches_spanned_by(system, coeffs, probe):
    rows, cols = system
    n = cols + 1
    dense = [densify(r, n) for r in rows]
    sparse = Subspace.from_sparse(n, rows)
    spanned = Subspace.spanned_by(n, dense)
    rebuilt = Subspace(n, tuple(map(nonzero, spanned.basis)))  # rebuilt from the rows of the dense view
    assert sparse == spanned == rebuilt
    assert sparse.basis == spanned.basis
    assert sparse.pivots == spanned.pivots == rebuilt.pivots
    assert sparse.sparse_basis == rebuilt.sparse_basis == tuple(nonzero(b) for b in spanned.basis)
    v = tuple(probe[:n])
    assert sparse.reduce(v) == spanned.reduce(v) == rebuilt.reduce(v)
    member = tuple(sum((c * b[j] for c, b in zip(coeffs, sparse.basis)), ZERO) for j in range(n))
    assert sparse.coordinates(member) == spanned.coordinates(member) == tuple(coeffs[: sparse.dim])
    assert sparse.quotient_map() == spanned.quotient_map() == reference_quotient_map(spanned)


# Integral values as term lists hold them, with +-1 (the pivots normalised by
# negation) more likely than the other pivots.
integers = st.sampled_from([1, -1, 1, -1, 2, -2, 3, -6])


@st.composite
def integer_systems(draw):
    """Sparse int-valued rows over `cols` columns plus a right-hand side at column `cols`."""
    cols = draw(st.integers(1, 6))
    row = st.dictionaries(st.integers(0, cols), integers, max_size=cols + 1)
    rows = draw(st.lists(row, min_size=1, max_size=cols + 3))
    return draw(st.permutations(rows)), cols


@settings(deadline=None)
@given(integer_systems())
def test_integer_rows_match_sympy(system):
    check_rows_match_mat_route_and_sympy(*system)
    check_affine_solve_matches_mat_route(*system)


@settings(deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(st.lists(st.one_of(st.just(0), integers, rationals),
                                                             min_size=n, max_size=n), min_size=n, max_size=n)))
def test_invert_matches_sympy(rows):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError

    m = Mat.from_rows(rows)
    n = m.rows
    qq = sympy.QQ
    dm = DomainMatrix([[qq(x.numerator, x.denominator) for x in row] for row in m.entries], (n, n), qq)
    try:
        expected = tuple(tuple(Fraction(int(q.numerator), int(q.denominator)) for q in row) for row in dm.inv().to_list())
    except DMNonInvertibleMatrixError:
        expected = None
    inv = invert(m)
    assert (None if inv is None else inv.entries) == expected
    if inv is not None:
        assert all(type(x) is Fraction for row in inv.entries for x in row)


def mixed(draw, value):
    """value as a term list may hold it: an integral Fraction becomes an int when a coin says so."""
    return value.numerator if value.denominator == 1 and draw(st.booleans()) else value


@st.composite
def term_list_pairs(draw, keys=st.integers(0, 5), values=st.one_of(rationals, st.integers(-4, 4).map(Fraction))):
    """The same term lists twice: all values Fraction, and integral values mixed with int."""
    terms = draw(st.lists(st.tuples(keys, values), max_size=6))
    return terms, [(k, mixed(draw, x)) for k, x in terms]


def same_dict(a: dict, b: dict) -> bool:
    """Equal values under equal keys, in the same key order."""
    return list(a.items()) == list(b.items())


@settings(deadline=None)
@given(st.data())
def test_lincomb_mixes_int_and_fraction(data):
    pairs = [(data.draw(term_list_pairs()), data.draw(rationals)) for _ in range(data.draw(st.integers(0, 4)))]
    exact = [(c, t) for (t, _), c in pairs]
    mixture = [(mixed(data.draw, c), m) for (_, m), c in pairs]
    assert same_dict(lincomb(mixture), lincomb(exact))


@settings(deadline=None, max_examples=50)
@given(st.data())
def test_bilinear_and_sweedler_mix_int_and_fraction(data):
    n = 3
    table = [[data.draw(term_list_pairs(st.integers(0, n - 1))) for _ in range(n)] for _ in range(n)]
    exact = [[t for t, _ in row] for row in table]
    mixture = [[m for _, m in row] for row in table]
    xs, xs_mixed = data.draw(term_list_pairs(st.integers(0, n - 1)))
    ys, ys_mixed = data.draw(term_list_pairs(st.integers(0, n - 1)))
    assert same_dict(bilinear(mixture, xs_mixed, ys_mixed), bilinear(exact, xs, ys))
    delta = [(p, q, c) for (p, c), (q, _) in zip(xs, ys)]
    delta_mixed = [(p, q, c) for (p, c), (q, _) in zip(xs_mixed, ys_mixed)]
    assert same_dict(
        sweedler(delta_mixed, lambda p, q: bilinear(mixture, basis_terms(p), basis_terms(q))),
        sweedler(delta, lambda p, q: bilinear(exact, ((p, Fraction(1)),), ((q, Fraction(1)),))),
    )


def lincomb_before_fast_path(pairs):
    """`lincomb` as it was written before its fast path: get-or-add per term, zeros always dropped in a copy."""
    acc = {}
    for c, ts in pairs:
        for k, x in ts:
            old = acc.get(k)
            acc[k] = c * x if old is None else old + c * x
    return {k: x for k, x in acc.items() if x}


def lincomb_with_zero_scan(pairs):
    """`lincomb` as it was written before it skipped the zero scan of a sum in which no key repeats."""
    acc = {}
    for c, ts in pairs:
        for k, x in ts:
            if k in acc:
                acc[k] += c * x
            else:
                acc[k] = c * x
    return acc if all(acc.values()) else {k: x for k, x in acc.items() if x}


nonzero_rationals = st.one_of(rationals, st.integers(-4, 4).map(Fraction)).filter(bool)


@settings(deadline=None)
@given(st.data())
def test_lincomb_matches_its_former_body_on_cancelling_terms(data):
    # scalars and term-list values are nonzero, as lincomb requires; each term list
    # comes back once more with the opposite scalar on a coin toss, so keys cancel
    # to zero mid-sum and at the end
    pairs = []
    for _ in range(data.draw(st.integers(0, 4))):
        terms, terms_mixed = data.draw(term_list_pairs(st.integers(0, 3), nonzero_rationals))
        c = mixed(data.draw, data.draw(nonzero_rationals))
        pairs.append((c, data.draw(st.sampled_from((terms, terms_mixed)))))
        if data.draw(st.booleans()):
            pairs.append((-c, terms_mixed))
    got = lincomb(pairs)
    for former in (lincomb_before_fast_path, lincomb_with_zero_scan):
        want = former(pairs)
        assert same_dict(got, want)
        assert [type(x) for x in got.values()] == [type(x) for x in want.values()]
    assert all(got.values())


# nonzero, as the values of a term list are; int and Fraction, integral or not,
# with opposite signs, so that sums over few keys cancel often
term_values = st.sampled_from([1, -1, 2, -2, Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2)])


def term_lists(keys: int, size: int = 3):
    return st.lists(st.tuples(st.integers(0, keys - 1), term_values), max_size=size).map(tuple)


def items_and_types(d: dict) -> list:
    return [(k, x, type(x)) for k, x in d.items()]


def nonzero_typed(rows) -> dict:
    """The nonzero rows of a list, keyed by position, each with its keys, order, values and types."""
    return {m: items_and_types(d) for m, d in enumerate(rows) if d}


@settings(deadline=None)
@given(st.data())
def test_apply_each_and_combine_each_are_one_lincomb_per_entry(data):
    vectors = data.draw(st.lists(term_lists(3), max_size=4))
    # each vector comes back negated on a coin toss, so that a sum may cancel to zero
    vectors += [tuple((k, -x) for k, x in v) for v in vectors if data.draw(st.booleans())]
    coefficients = term_lists(len(vectors), 4) if vectors else st.just(())
    coeff_lists = data.draw(st.lists(coefficients, max_size=4))
    got = apply_each(enumerate(coeff_lists), vectors)
    want = [lincomb((c, vectors[t]) for t, c in cs) for cs in coeff_lists]
    assert {m: items_and_types(d) for m, d in got.items()} == nonzero_typed(want)

    width = data.draw(st.integers(0, 4))
    table = data.draw(st.lists(st.lists(term_lists(3), min_size=width, max_size=width), max_size=4))
    table += [[tuple((k, -x) for k, x in ts) for ts in row] for row in table if data.draw(st.booleans())]
    coeffs = data.draw(term_lists(len(table), 4)) if table else ()
    got = combine_each(coeffs, table_support(table))
    want = [lincomb((c, table[t][m]) for t, c in coeffs) for m in range(width)]
    assert {m: items_and_types(d) for m, d in got.items()} == nonzero_typed(want)

    # a coproduct's legs (p, q) each pick a row of the table, as a support list
    delta = [(t % max(len(table), 1), t, c) for t, c in coeffs]
    legs = {(p, q): table_support(table)[p] for p, q, _ in delta}
    got = sweedler_each(delta, lambda p, q: legs[p, q])
    want = [lincomb((c, table[p][m]) for p, _, c in delta) for m in range(width)]  # sweedler on term lists
    assert {m: items_and_types(d) for m, d in got.items()} == nonzero_typed(want)


def test_apply_each_and_combine_each_cancel_and_take_empty_input():
    v, w = ((0, 1), (1, Fraction(1, 2))), ((1, Fraction(-1, 2)), (2, 3))
    # v + w cancels at key 1; 2 v - 2 v cancels everywhere, so its row is dropped, as is the empty sum
    assert apply_each(enumerate([((0, 1), (1, 1)), ((0, 2), (0, -2)), ()]), [v, w]) == {0: {0: 1, 2: 3}}
    assert combine_each(((0, 1), (1, 1)), table_support([[v, v], [w, ()]])) == {0: {0: 1, 2: 3}, 1: dict(v)}
    # row 0 is v - v and is dropped; row 1 is w - 0
    assert combine_each(((0, 1), (1, -1)), table_support([[v, w], [v, ()]])) == {1: dict(w)}
    assert apply_each([], [v]) == {} and combine_each((), []) == {}
    assert combine_each(((0, 1),), table_support([[(), ()]])) == {}
    assert table_support([[(), v, w], [(), (), ()]]) == (((1, v), (2, w)), ())


def test_rows_move_between_kernels_as_support_lists_and_term_lists():
    rows = {2: {0: 1}, 0: {1: Fraction(1, 2), 0: -1}}
    assert support_of(rows) == [(2, rows[2].items()), (0, rows[0].items())]
    assert [list(terms) for terms in row_terms(rows, 4)] == [[(1, Fraction(1, 2)), (0, -1)], [], [(0, 1)], []]
    assert nonzero_rows([{}, {0: 1}, {}, {2: 3}]) == {1: {0: 1}, 3: {2: 3}}
