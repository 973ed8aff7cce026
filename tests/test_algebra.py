import random
from fractions import Fraction

import pytest

from whk.algebra import (
    FiniteAlgebra,
    center,
    centralizes,
    jacobson_radical,
    subspace_power,
    validate_algebra,
)
from whk.coalgebra import dual_algebra
from whk.corpus import corpus_entry
from whk.errors import PreconditionError, ShapeError
from whk.linalg import Subspace, unit_vec, vec


def c2_algebra() -> FiniteAlgebra:
    # basis (1, g), g^2 = 1
    return FiniteAlgebra(
        2,
        [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
        [1, 0],
    )


def nonassociative_algebra() -> FiniteAlgebra:
    # basis (1, a, b): a*a = b, a*b = 1, b*a = a, b*b = b; (aa)b != a(ab)
    return FiniteAlgebra(
        3,
        [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
            [[0, 0, 1], [0, 1, 0], [0, 0, 1]],
        ],
        [1, 0, 0],
    )


def test_validate_group_algebra():
    assert validate_algebra(c2_algebra()).ok


def test_validate_lists_nonassociative_triples():
    report = validate_algebra(nonassociative_algebra())
    assert not report.ok
    assert "associativity" in report.failed_names()
    assert any(item.counterexample is not None for item in report.failures())


def test_validate_one_dimensional():
    a = FiniteAlgebra(1, [[[1]]], [1])
    assert validate_algebra(a).ok


def test_malformed_tensor_shape():
    with pytest.raises(ShapeError):
        FiniteAlgebra(2, [[[1, 0], [0, 1]]], [1, 0])


def test_multiply_unit_and_square():
    a = c2_algebra()
    g = unit_vec(2, 1)
    assert a.multiply(a.unit, g) == g
    assert a.multiply(g, g) == a.unit
    assert a.multiply(vec([0, 0]), g) == vec([0, 0])


def test_center_commutative_full():
    a = c2_algebra()
    assert center(a) == Subspace.full(2)


def test_center_matrix_algebra_is_scalar():
    a = corpus_entry("p2").wha.alg
    central = center(a)
    assert central.dim == 1
    assert central.contains(a.unit)


def test_center_contains_unit_everywhere():
    for name in ("qc2", "qs3", "p2", "c2c1", "h4"):
        a = corpus_entry(name).wha.alg
        assert center(a).contains(a.unit)


def test_center_is_commutative_subalgebra():
    for name in ("qs3", "p2", "h4"):
        a = corpus_entry(name).wha.alg
        central = center(a)
        for x in central.basis:
            for y in central.basis:
                product = a.multiply(x, y)
                assert central.contains(product)
                assert product == a.multiply(y, x)


def test_centralizes_cases():
    a = corpus_entry("p2").wha.alg
    zero = Subspace.zero(4)
    assert centralizes(a, Subspace.full(4), zero)
    # E11-like and E12-like basis elements of the pair groupoid algebra
    idem = Subspace.spanned_by(4, [unit_vec(4, 0)])
    arrow_index = next(
        i for i in range(4) if a.multiply(unit_vec(4, i), unit_vec(4, i)) == vec([0, 0, 0, 0])
    )
    arrow = Subspace.spanned_by(4, [unit_vec(4, arrow_index)])
    assert not centralizes(a, idem, arrow)
    assert centralizes(a, center(a), Subspace.full(4))


def test_radical_semisimple_matrix_algebra():
    assert jacobson_radical(corpus_entry("p2").wha.alg).dim == 0


def test_radical_one_dimensional():
    a = FiniteAlgebra(1, [[[1]]], [1])
    assert jacobson_radical(a).dim == 0


def test_radical_of_dual_of_h4_coalgebra():
    dual = dual_algebra(corpus_entry("h4").wha.coalg)
    radical = jacobson_radical(dual)
    assert radical.dim == 2
    # brute-force nilpotency oracle: all pairwise products of radical basis
    # vectors are again radical members, and squares vanish quickly
    for x in radical.basis:
        for y in radical.basis:
            assert radical.contains(dual.multiply(x, y))
    assert subspace_power(dual, radical, dual.dim + 1).dim == 0


def test_radical_is_two_sided_ideal():
    for name in ("qc2", "p2", "h4"):
        a = corpus_entry(name).wha.alg
        radical = jacobson_radical(a)
        for i in range(a.dim):
            e = unit_vec(a.dim, i)
            for r in radical.basis:
                assert radical.contains(a.multiply(e, r))
                assert radical.contains(a.multiply(r, e))


def test_subspace_power_cases():
    dual = dual_algebra(corpus_entry("h4").wha.coalg)
    radical = jacobson_radical(dual)
    assert subspace_power(dual, radical, 2).dim < radical.dim or radical.dim == 0
    a = c2_algebra()
    assert subspace_power(a, center(a), 1) == center(a)
    assert subspace_power(a, Subspace.full(2), 2) == Subspace.full(2)
    with pytest.raises(PreconditionError):
        subspace_power(a, center(a), 0)


def test_square_zero_subspace_power():
    # the dual radical here has all pairwise products zero, so its
    # subspace square collapses immediately
    dual = dual_algebra(corpus_entry("h4").wha.coalg)
    radical = jacobson_radical(dual)
    assert radical.dim == 2
    for x in radical.basis:
        for y in radical.basis:
            assert dual.multiply(x, y) == tuple(Fraction(0) for _ in range(dual.dim))
    assert subspace_power(dual, radical, 2).dim == 0


def test_random_triples_agree_with_basis_check():
    rng = random.Random(7)

    def random_vec(n):
        return vec([rng.randint(-3, 3) for _ in range(n)])

    for algebra, expected in ((c2_algebra(), True), (nonassociative_algebra(), False)):
        basis_verdict = validate_algebra(algebra).ok
        assert basis_verdict is expected
        random_verdict = True
        for _ in range(1000):
            x, y, z = (random_vec(algebra.dim) for _ in range(3))
            if algebra.multiply(algebra.multiply(x, y), z) != algebra.multiply(
                x, algebra.multiply(y, z)
            ):
                random_verdict = False
                break
        assert random_verdict is basis_verdict
