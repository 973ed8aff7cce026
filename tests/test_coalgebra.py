import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whk.algebra import opposite_algebra
from whk.coalgebra import (
    FiniteCoalgebra,
    coopposite,
    coradical,
    coradical_filtration,
    dual_algebra,
    filtration_crosscheck,
    subcoalgebra_restriction,
    validate_coalgebra,
)
from whk.convolution import ConvMap, conv_power
from whk.corpus import MUTATIONS, WHA_NAMES, apply_mutation, corpus_entry, sw2_coalgebra
from whk.linalg import Mat, Subspace, unit_vec, vec, zero_vec

from test_linalg import delta_vec, of_dm, sympy_kron, to_dm


def grouplike(n: int) -> FiniteCoalgebra:
    comult = []
    for i in range(n):
        rows = [[0] * n for _ in range(n)]
        rows[i][i] = 1
        comult.append(rows)
    return FiniteCoalgebra(n, comult, [1] * n)


def test_validate_grouplike():
    assert validate_coalgebra(grouplike(3)).ok


def test_validate_sw2_hand_check():
    # both counit laws and coassociativity were checked by hand for
    # Delta g = g(x)g, Delta x = x(x)g + g(x)x
    assert validate_coalgebra(sw2_coalgebra()).ok


def test_counit_violation_detected():
    bad = FiniteCoalgebra(
        1, [[[2]]], [1]
    )  # (eps (x) id) Delta(e0) = 2 e0
    report = validate_coalgebra(bad)
    assert not report.ok
    assert "counit_law" in report.failed_names()
    assert report.failures()[0].counterexample.indices == (0,)


def test_coassociativity_violation_detected():
    # Delta(e1) = e0 (x) e1 fails coassociativity against Delta(e0) = e0 (x) e0
    bad = FiniteCoalgebra(
        2,
        [
            [[1, 0], [0, 0]],
            [[0, 1], [0, 0]],
        ],
        [1, 1],
    )
    report = validate_coalgebra(bad)
    assert not report.ok


def coassociativity_verdicts(c: FiniteCoalgebra) -> tuple[bool, bool, bool]:
    """`is_coassociative`, the coassociativity item of `validate_coalgebra` and
    associativity of the dual algebra (which holds exactly when c is
    coassociative), each on a fresh copy so that no cached verdict is shared."""
    def fresh():
        return FiniteCoalgebra(c.dim, c.comult, c.counit)

    item = "coassociativity" not in validate_coalgebra(fresh()).failed_names()
    return fresh().is_coassociative, item, dual_algebra(fresh()).is_associative


def test_is_coassociative_agrees_with_validate_on_corpus_mutants_and_coopposites():
    coalgebras = [corpus_entry(name).wha.coalg for name in WHA_NAMES] + [sw2_coalgebra()]
    coalgebras += [apply_mutation(corpus_entry(name).wha, m).coalg for name in WHA_NAMES for m in MUTATIONS]
    for c in coalgebras + [coopposite(c) for c in coalgebras]:
        verdicts = coassociativity_verdicts(c)
        assert len(set(verdicts)) == 1, (c, verdicts)


@st.composite
def sparse_coalgebras(draw):
    """Mostly-zero comultiplications, rarely coassociative."""
    n = draw(st.integers(1, 4))
    entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2, Fraction(1, 2)])
    comult = [[[draw(entry) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    return FiniteCoalgebra(n, comult, [draw(entry) for _ in range(n)])


@settings(deadline=None, max_examples=80)
@given(sparse_coalgebras())
def test_is_coassociative_agrees_with_validate_on_sparse_comultiplications(c):
    assert len(set(coassociativity_verdicts(c))) == 1


def test_dual_of_grouplike_is_diagonal():
    dual = dual_algebra(grouplike(3))
    for i in range(3):
        for j in range(3):
            expected = unit_vec(3, i) if i == j else zero_vec(3)
            assert dual.mult[i][j] == expected
    assert dual.unit == vec([1, 1, 1])


def test_dual_of_sw2_has_nilpotent_generator():
    dual = dual_algebra(sw2_coalgebra())
    x_star = unit_vec(2, 1)
    assert dual.multiply(x_star, x_star) == zero_vec(2)
    assert dual.unit == vec([1, 0])


def test_duality_roundtrip():
    for c in (grouplike(2), sw2_coalgebra(), corpus_entry("h4").wha.coalg):
        assert dual_algebra(coopposite(c)) == opposite_algebra(dual_algebra(c))


def test_filtration_grouplike_length_zero():
    filtration = coradical_filtration(grouplike(4))
    assert filtration.length == 0
    assert filtration.layers[0] == Subspace.full(4)


def test_filtration_sw2():
    filtration = coradical_filtration(sw2_coalgebra())
    assert filtration.coradical == Subspace.spanned_by(2, [unit_vec(2, 0)])
    assert filtration.length == 1
    assert filtration.layers[1] == Subspace.full(2)


def test_filtration_h4():
    filtration = coradical_filtration(corpus_entry("h4").wha.coalg)
    expected = Subspace.spanned_by(4, [unit_vec(4, 0), unit_vec(4, 1)])
    assert filtration.coradical == expected
    assert filtration.length == 1


def test_filtration_exhaustive_below_dimension():
    for c in (grouplike(3), sw2_coalgebra(), corpus_entry("h4").wha.coalg):
        filtration = coradical_filtration(c)
        assert filtration.layers[-1] == Subspace.full(c.dim)
        assert filtration.length < c.dim


def test_crosscheck_corpus():
    for name in ("qc2", "qs3", "h4", "p2", "c2c1"):
        assert filtration_crosscheck(corpus_entry(name).wha.coalg)
    assert filtration_crosscheck(sw2_coalgebra())
    assert filtration_crosscheck(grouplike(5))


def test_coradical_is_subcoalgebra():
    for c in (sw2_coalgebra(), corpus_entry("h4").wha.coalg):
        c0 = coradical(c)
        pair = Subspace.spanned_by(
            c.dim * c.dim, [sympy_kron(a, b) for a in c0.basis for b in c0.basis]
        )
        for b in c0.basis:
            assert pair.contains(delta_vec(c, b))
        # the restriction exists and is again a valid coalgebra
        assert validate_coalgebra(subcoalgebra_restriction(c, c0)).ok


def test_restriction_rejects_non_subcoalgebra():
    c = sw2_coalgebra()
    not_closed = Subspace.spanned_by(2, [unit_vec(2, 1)])
    with pytest.raises(Exception):
        subcoalgebra_restriction(c, not_closed)


def random_vanishing_map(c: FiniteCoalgebra, target, rng: random.Random) -> ConvMap:
    """Random map killing the coradical: zero there, junk on a complement."""
    c0 = coradical(c)
    n = c.dim
    comp = c0.complement_coords()
    basis_mat = Mat.from_columns(list(c0.basis) + [unit_vec(n, j) for j in comp], n)
    values = [zero_vec(target.dim)] * c0.dim + [
        tuple(Fraction(rng.randint(-3, 3)) for _ in range(target.dim)) for _ in comp
    ]
    matrix = of_dm(to_dm(Mat.from_columns(values, target.dim)) * to_dm(basis_mat).inv())
    return ConvMap(c, target, matrix)


def test_vanishing_powers_kill_filtration_layers():
    rng = random.Random(3)
    for c in (sw2_coalgebra(), corpus_entry("h4").wha.coalg):
        target = dual_algebra(c)
        filtration = coradical_filtration(c)
        for _ in range(20):
            gamma = random_vanishing_map(c, target, rng)
            for b in filtration.coradical.basis:
                assert gamma(b) == zero_vec(target.dim)
            for n in range(1, filtration.length + 2):
                power = conv_power(gamma, n)
                layer = filtration.layers[min(n - 1, filtration.length)]
                if n - 1 <= filtration.length:
                    for b in layer.basis:
                        assert power(b) == zero_vec(target.dim)
