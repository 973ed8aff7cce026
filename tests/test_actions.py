import random
from fractions import Fraction

import pytest

from whk.actions import (
    InnerData,
    acts_unitally,
    adjoint_action,
    adjoint_data,
    bilinear_t,
    inner_action_battery,
    inner_action_from,
    is_module,
    is_module_algebra,
    second_form_check,
    t_image_central,
    unit_image_check,
    validate_module_algebra,
)
from whk.algebra import FiniteAlgebra, centralizes
from whk.convolution import ConvMap, EFWitness, check_ef_witness, conv_unit
from whk.corpus import corpus_entry
from whk.errors import PreconditionError
from whk.linalg import Mat, Subspace, unit_vec, vec
from whk.weakhopf import counital_data

from test_linalg import of_dm, to_dm


def test_target_subalgebra_action_is_module_algebra(corpus):
    for entry in corpus:
        assert validate_module_algebra(entry.ht_action).ok, entry.name
        assert acts_unitally(entry.ht_action), entry.name


def test_adjoint_action_on_pair_groupoid_fails_module_law():
    report = validate_module_algebra(adjoint_action(corpus_entry("p2").wha))
    assert not report.ok
    assert "action_multiplicative" in report.failed_names()


def test_adjoint_action_on_isotropy_union_is_module_algebra():
    candidate = adjoint_action(corpus_entry("c2c1").wha)
    assert validate_module_algebra(candidate).ok
    assert acts_unitally(candidate)


def test_adjoint_tensor_is_conjugation_on_groupoid_bases():
    for name in ("qc2", "p2", "c2c1"):
        wha = corpus_entry(name).wha
        candidate = adjoint_action(wha)
        for i in range(wha.dim):
            si = wha.antipode_col(i)
            for j in range(wha.dim):
                expected = wha.multiply(wha.alg.basis_product(i, j), si)
                assert candidate.act_basis(i, j) == expected


def test_adjoint_tensor_h4_hand_value():
    # x acting on g: x g S(1) + g g S(x) = xg - gx = -2 gx
    candidate = adjoint_action(corpus_entry("h4").wha)
    assert candidate.act_basis(2, 1) == vec([0, 0, 0, -2])


def test_one_dimensional_target_scalar_action():
    wha = corpus_entry("qs3").wha
    scalars = FiniteAlgebra.from_lists(1, [[[1]]], [1])
    eps = ConvMap(wha.coalg, scalars, Mat(1, wha.dim, (wha.coalg.counit,)))
    witness = EFWitness(eps, eps, eps, eps)
    assert check_ef_witness(witness).ok
    candidate = inner_action_from(InnerData(wha, witness))
    for i in range(wha.dim):
        assert candidate.act_basis(i, 0) == (wha.coalg.counit[i],)
    assert is_module_algebra(candidate)


def test_unit_image_check_adjoint(corpus):
    for entry in corpus:
        data = adjoint_data(entry.wha)
        assert unit_image_check(data, inner_action_from(data)), entry.name


def test_unit_image_check_detects_wrong_idempotent():
    wha = corpus_entry("p2").wha
    good = adjoint_data(wha)
    bad_witness = EFWitness(
        good.witness.u, good.witness.v, conv_unit(wha.coalg, wha.alg), good.witness.f
    )
    data = InnerData(wha, bad_witness)
    assert not unit_image_check(data, inner_action_from(good))


def test_unit_image_check_one_dim():
    wha = corpus_entry("qc2").wha
    scalars = FiniteAlgebra.from_lists(1, [[[1]]], [1])
    eps = ConvMap(wha.coalg, scalars, Mat(1, wha.dim, (wha.coalg.counit,)))
    data = InnerData(wha, EFWitness(eps, eps, eps, eps))
    assert unit_image_check(data, inner_action_from(data))


def test_bilinear_t_unit_values():
    wha = corpus_entry("qs3").wha
    data = adjoint_data(wha)
    assert bilinear_t(data, wha.unit, wha.unit) == wha.unit
    qc2 = corpus_entry("qc2").wha
    g = unit_vec(2, 1)
    assert bilinear_t(adjoint_data(qc2), g, g) == qc2.unit


def test_bilinear_t_central_on_quantum_commutative(corpus):
    for entry in corpus:
        if entry.name == "p2":
            continue
        assert t_image_central(adjoint_data(entry.wha)), entry.name


def test_bilinear_t_is_bilinear():
    rng = random.Random(17)
    wha = corpus_entry("h4").wha
    data = adjoint_data(wha)

    def rand_vec():
        return vec([rng.randint(-3, 3) for _ in range(wha.dim)])

    for _ in range(10):
        x, x2, y = rand_vec(), rand_vec(), rand_vec()
        c = Fraction(rng.randint(-3, 3))
        left = bilinear_t(data, tuple(c * a + b for a, b in zip(x, x2)), y)
        expected = tuple(
            c * p + q
            for p, q in zip(bilinear_t(data, x, y), bilinear_t(data, x2, y))
        )
        assert left == expected
        left = bilinear_t(data, y, tuple(c * a + b for a, b in zip(x, x2)))
        expected = tuple(
            c * p + q
            for p, q in zip(bilinear_t(data, y, x), bilinear_t(data, y, x2))
        )
        assert left == expected


def test_battery_has_no_violations_on_corpus(corpus):
    for entry in corpus:
        battery = inner_action_battery(adjoint_data(entry.wha))
        assert not battery.violations(), (entry.name, battery)


def test_battery_isotropy_union_all_conditions_hold():
    battery = inner_action_battery(adjoint_data(corpus_entry("c2c1").wha))
    assert not battery.violations()
    report = battery.to_dict()
    report.pop("violations")
    assert all(report.values())


def test_battery_pair_groupoid_details():
    battery = inner_action_battery(adjoint_data(corpus_entry("p2").wha))
    assert not battery.violations()
    assert battery.u_source_image_central is False
    assert battery.unital_law is False
    assert battery.associativity_law is True  # conjugation is always associative
    assert battery.t_image_central is False
    assert battery.lambda_unit_centralizes is True


def test_battery_one_dimensional_all_true():
    wha = corpus_entry("qc2").wha
    scalars = FiniteAlgebra.from_lists(1, [[[1]]], [1])
    eps = ConvMap(wha.coalg, scalars, Mat(1, wha.dim, (wha.coalg.counit,)))
    battery = inner_action_battery(InnerData(wha, EFWitness(eps, eps, eps, eps)))
    assert not battery.violations()
    assert all(battery.to_dict()[key] for key in (
        "multiplicative_law", "unital_law", "e_unit_is_one", "u_source_image_central",
    ))


def test_central_f_image_forces_multiplicativity(corpus):
    # one direction of the equivalence battery, asserted on its own
    for entry in corpus:
        battery = inner_action_battery(adjoint_data(entry.wha))
        if battery.f_image_central:
            assert battery.multiplicative_law, entry.name


def test_adjoint_module_iff_central_source(family):
    for member in family:
        candidate = adjoint_action(member.wha)
        cd = counital_data(member.wha)
        central = centralizes(member.wha.alg, cd.h_s, Subspace.full(member.wha.dim))
        assert is_module(candidate) == central


def _corestricted_target_witness(name: str):
    """Witness in Hom(H, H_t) built from the counital projections."""
    entry = corpus_entry(name)
    wha = entry.wha
    action = entry.ht_action
    cd = counital_data(wha)
    space = cd.h_t

    def corestrict(matrix: Mat) -> Mat:
        return Mat.from_columns(
            [space.coordinates(matrix.col(h)) for h in range(wha.dim)], space.dim
        )

    eps_t_s = of_dm(to_dm(cd.eps_t) * to_dm(wha.antipode))
    u = ConvMap(wha.coalg, action.alg, corestrict(cd.eps_t))
    v = ConvMap(wha.coalg, action.alg, corestrict(eps_t_s))
    e = ConvMap(wha.coalg, action.alg, corestrict(cd.eps_t))
    f = ConvMap(wha.coalg, action.alg, corestrict(eps_t_s))
    return InnerData(wha, EFWitness(u, v, e, f)), action


def test_second_form_target_action_isotropy_union():
    data, action = _corestricted_target_witness("c2c1")
    assert check_ef_witness(data.witness).ok
    assert second_form_check(data, action) is True


def test_second_form_adjoint_on_quantum_commutative():
    for name in ("qc2", "qs3", "c2c1"):
        wha = corpus_entry(name).wha
        data = adjoint_data(wha)
        assert second_form_check(data, inner_action_from(data)) is True


def test_second_form_one_dimensional():
    wha = corpus_entry("qc2").wha
    scalars = FiniteAlgebra.from_lists(1, [[[1]]], [1])
    eps = ConvMap(wha.coalg, scalars, Mat(1, wha.dim, (wha.coalg.counit,)))
    data = InnerData(wha, EFWitness(eps, eps, eps, eps))
    assert second_form_check(data, inner_action_from(data)) is True


def test_second_form_hypothesis_failure_is_not_false():
    data, action = _corestricted_target_witness("p2")
    with pytest.raises(PreconditionError):
        second_form_check(data, action)


def test_second_form_rejects_invalid_module():
    wha = corpus_entry("p2").wha
    data = adjoint_data(wha)
    with pytest.raises(PreconditionError):
        second_form_check(data, inner_action_from(data))
