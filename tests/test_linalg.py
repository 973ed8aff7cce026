from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whk.errors import DimensionError
from whk.linalg import (
    ZERO,
    Mat,
    Subspace,
    kernel,
    kron,
    invert,
    rank,
    rref,
    solve_affine,
    unit_vec,
    vec,
    vec_kron,
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


@settings(deadline=None)
@given(small_matrix())
def test_rank_nullity(m):
    assert kernel(m).dim + rank(m) == m.cols


@settings(deadline=None)
@given(oracle_matrices())
def test_rref_matches_sympy(m):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    qq = sympy.QQ
    rows = [[qq(x.numerator, x.denominator) for x in row] for row in m.entries]
    expected, expected_pivots = DomainMatrix(rows, (m.rows, m.cols), qq).rref()
    reduced, pivots = rref(m)
    assert pivots == tuple(expected_pivots)
    assert all(isinstance(x, Fraction) for row in reduced.entries for x in row)
    assert reduced.entries == tuple(
        tuple(Fraction(int(q.numerator), int(q.denominator)) for q in row)
        for row in expected.to_list()
    )


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
    consistent = rank(augmented) == rank(a)
    assert (particular is not None) == consistent
    if particular is not None:
        assert a.apply(particular) == b


def test_kron_identities():
    assert kron(Mat.identity(2), Mat.identity(2)) == Mat.identity(4)


def test_kron_index_convention():
    a = Mat.from_rows([[0, 1], [0, 0]])
    product = kron(a, Mat.identity(2))
    expected = Mat.zero(4, 4).entries
    expected = [list(r) for r in expected]
    expected[0][2] = Fraction(1)
    expected[1][3] = Fraction(1)
    assert product == Mat(4, 4, tuple(tuple(r) for r in expected))


def test_kron_with_zero():
    assert kron(Mat.from_rows([[1, 2], [3, 4]]), Mat.zero(2, 2)).is_zero()


@settings(deadline=None)
@given(small_matrix(3), small_matrix(3), small_matrix(3))
def test_kron_associative(a, b, c):
    assert kron(kron(a, b), c) == kron(a, kron(b, c))


@settings(deadline=None)
@given(rationals, rationals)
def test_scalar_arithmetic_exact(a, b):
    assert (a + b) - b == a


def test_vec_kron_matches_matrix_kron():
    a = vec([1, 2])
    b = vec([3, 0, 5])
    col_a = Mat.from_columns([a], 2)
    col_b = Mat.from_columns([b], 3)
    assert vec_kron(a, b) == kron(col_a, col_b).col(0)


def test_invert_round_trip():
    m = Mat.from_rows([[1, 2], [3, 5]])
    inv = invert(m)
    assert inv is not None
    assert m @ inv == Mat.identity(2)
    assert invert(Mat.from_rows([[1, 2], [2, 4]])) is None


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
