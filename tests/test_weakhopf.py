import pytest

from whk.algebra import FiniteAlgebra
from whk.coalgebra import FiniteCoalgebra
from whk.corpus import MUTATIONS, apply_mutation, corpus_entry
from whk.errors import DimensionError, InvariantViolation
from whk.linalg import Mat, Subspace, unit_vec
from whk.weakhopf import (
    WeakHopfAlgebra,
    antipode_props,
    counital_data,
    counital_identities,
    eps_s_matrix,
    eps_t_matrix,
    is_quantum_commutative,
    validate_wha,
)

from test_linalg import to_dm


def one_dim_wha() -> WeakHopfAlgebra:
    alg = FiniteAlgebra.from_lists(1, [[[1]]], [1])
    coalg = FiniteCoalgebra.from_lists(1, [[[1]]], [1])
    return WeakHopfAlgebra(alg, coalg, Mat.identity(1))


def test_validate_corpus_members(corpus):
    for entry in corpus:
        assert validate_wha(entry.wha).ok, entry.name


def test_validate_one_dimensional():
    assert validate_wha(one_dim_wha()).ok


def test_dimension_mismatch_rejected():
    alg = FiniteAlgebra.from_lists(1, [[[1]]], [1])
    coalg = corpus_entry("qc2").wha.coalg
    with pytest.raises(DimensionError):
        WeakHopfAlgebra(alg, coalg, Mat.identity(1))


def test_identity_antipode_breaks_cancellation():
    wha = corpus_entry("qs3").wha
    broken = WeakHopfAlgebra(wha.alg, wha.coalg, Mat.identity(wha.dim))
    report = validate_wha(broken)
    assert not report.ok
    failed = set(report.failed_names())
    assert failed & {"antipode_left_cancel", "antipode_right_cancel"}


def test_counital_maps_idempotent(corpus):
    for entry in corpus:
        et = to_dm(eps_t_matrix(entry.wha))
        es = to_dm(eps_s_matrix(entry.wha))
        assert et * et == et
        assert es * es == es


def test_hopf_counitals_collapse_to_scalar_line():
    for name in ("qc2", "qs3", "h4"):
        wha = corpus_entry(name).wha
        cd = counital_data(wha)
        assert cd.h_t.dim == 1
        assert cd.h_s.dim == 1
        assert cd.h_t.contains(wha.unit)
        # eps_t(h) = eps(h) 1 in the ordinary Hopf case
        for i in range(wha.dim):
            expected = tuple(wha.coalg.counit[i] * u for u in wha.unit)
            assert cd.eps_t.col(i) == expected


def test_groupoid_counitals_span_object_identities():
    entry = corpus_entry("c2c1")
    cd = counital_data(entry.wha)
    identities = [
        unit_vec(entry.wha.dim, entry.groupoid.index(entry.groupoid.identities[o]))
        for o in entry.groupoid.objects
    ]
    expected = Subspace.spanned_by(entry.wha.dim, identities)
    assert cd.h_t == expected
    assert cd.h_s == expected


def test_pair_groupoid_target_map_picks_target_identity():
    entry = corpus_entry("p2")
    g = entry.groupoid
    cd = counital_data(entry.wha)
    for m in g.morphisms:
        expected = unit_vec(entry.wha.dim, g.index(g.identities[g.tgt[m]]))
        assert cd.eps_t.col(g.index(m)) == expected
        expected_s = unit_vec(entry.wha.dim, g.index(g.identities[g.src[m]]))
        assert cd.eps_s.col(g.index(m)) == expected_s


def test_counital_identity_suite_passes(corpus):
    for entry in corpus:
        assert counital_identities(entry.wha).ok, entry.name


def test_counital_identities_one_dim():
    assert counital_identities(one_dim_wha()).ok


def test_counital_identities_catch_corrupt_antipode():
    wha = corpus_entry("p2").wha
    broken = WeakHopfAlgebra(wha.alg, wha.coalg, Mat.identity(wha.dim))
    # the identity suite itself is antipode-free, so corruption must be
    # caught by the axiom battery or the antipode property suite instead
    assert not validate_wha(broken).ok or not antipode_props(broken).ok


def test_antipode_props_corpus(corpus):
    for entry in corpus:
        assert antipode_props(entry.wha).ok, entry.name


def test_antipode_order_four_on_h4():
    s = to_dm(corpus_entry("h4").wha.antipode)
    s2 = s * s
    s4 = s2 * s2
    assert s2 != to_dm(Mat.identity(4))
    assert s4 == to_dm(Mat.identity(4))


def test_identity_antipode_breaks_anti_coalgebra_on_h4():
    wha = corpus_entry("h4").wha
    broken = WeakHopfAlgebra(wha.alg, wha.coalg, Mat.identity(4))
    report = antipode_props(broken)
    assert not report.ok
    assert "anti_coalgebra_morphism" in report.failed_names()


def test_quantum_commutativity_examples():
    assert is_quantum_commutative(corpus_entry("qc2").wha) == (True, True)
    assert is_quantum_commutative(corpus_entry("qs3").wha) == (True, True)
    assert is_quantum_commutative(corpus_entry("p2").wha) == (False, False)
    assert is_quantum_commutative(corpus_entry("c2c1").wha) == (True, True)


def test_quantum_commutativity_criteria_agree(corpus, family):
    for entry in corpus:
        a, b = is_quantum_commutative(entry.wha)
        assert a == b
    for member in family:
        a, b = is_quantum_commutative(member.wha)
        assert a == b


def test_counital_maps_have_one_stored_form(corpus):
    # eps_t_matrix, eps_s_matrix and counital_data hand out the very matrices of counital_columns
    for entry in corpus:
        h = entry.wha
        assert eps_t_matrix(h) is h.counital_data.eps_t is h.counital_columns[0], entry.name
        assert eps_s_matrix(h) is h.counital_data.eps_s is h.counital_columns[1], entry.name


def test_validate_reports_where_counital_data_raises(corpus):
    # the unchecked counital matrices let validate_wha report on structures whose counital data is corrupt
    raising = []
    for entry in corpus:
        for mutation in MUTATIONS:
            h = apply_mutation(entry.wha, mutation)
            try:
                h.counital_data
            except InvariantViolation:
                raising.append((entry.name, mutation))
                report = validate_wha(h)
                assert not report.ok, (entry.name, mutation)
                assert eps_t_matrix(h) is h.counital_columns[0] and eps_s_matrix(h) is h.counital_columns[1]
    assert len(raising) == 12
    assert {("c2c1", "comult_scale"), ("c2c1", "counit_zero"), ("c2c1", "unit_shift")} <= set(raising)
