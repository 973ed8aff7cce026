import random

import pytest

from whk.actions import ModuleAction, adjoint_action, inner_action_from
from whk.corpus import corpus_entry
from whk.errors import PreconditionError
from whk.linalg import is_zero_vec, unit_vec
from whk.smash import (
    build_smash,
    embeddings_check,
    right_ht_action,
    smash_action_maps,
    smash_inner_battery,
)
from whk.weakhopf import counital_data

from smash_reference import project, project_sparse, representative_bilinear
from test_linalg import sympy_kron


def test_right_action_by_unit_is_identity(corpus):
    for entry in corpus:
        m = entry.ht_action
        for x in range(m.alg.dim):
            ex = unit_vec(m.alg.dim, x)
            assert right_ht_action(m, ex, m.hopf.unit) == ex


def test_right_action_pair_groupoid_case():
    entry = corpus_entry("p2")
    m = entry.ht_action
    cd = counital_data(entry.wha)
    z0, z1 = cd.h_t.basis
    x = unit_vec(m.alg.dim, 0)
    # both published expressions agree; the cross-object product vanishes
    assert right_ht_action(m, x, z1) == (0, 0)
    assert right_ht_action(m, x, z0) == x


def test_right_action_rejects_non_members():
    entry = corpus_entry("p2")
    m = entry.ht_action
    arrow = next(
        i
        for i in range(4)
        if is_zero_vec(entry.wha.alg.mult[i][i])
    )
    with pytest.raises(PreconditionError):
        right_ht_action(m, unit_vec(2, 0), unit_vec(4, arrow))


def test_right_action_scalar_for_hopf_inputs():
    entry = corpus_entry("qs3")
    m = entry.ht_action
    for i in range(entry.wha.dim):
        z = counital_data(entry.wha).eps_t.col(i)
        value = right_ht_action(m, unit_vec(1, 0), z)
        assert value == (entry.wha.coalg.counit[i],)


def test_build_requires_module_algebra():
    m = adjoint_action(corpus_entry("p2").wha)
    for _ in range(2):  # a failed construction is not remembered
        with pytest.raises(PreconditionError):
            build_smash(m)


def test_build_smash_is_kept_on_the_action():
    entry = corpus_entry("qs3")
    m = ModuleAction(entry.wha, entry.ht_action.alg, entry.ht_action.act)
    smash = build_smash(m)
    assert build_smash(m) is smash
    twin = ModuleAction(m.hopf, m.alg, m.act)
    assert build_smash(twin) is not smash
    assert build_smash(twin).algebra == smash.algebra


def test_hopf_smash_has_product_dimension(corpus):
    for entry in corpus:
        smash = build_smash(entry.ht_action)
        cd = counital_data(entry.wha)
        product_dim = entry.ht_action.alg.dim * entry.wha.dim
        assert smash.dim <= product_dim
        hopf_input = cd.h_t.dim == 1
        assert (smash.dim == product_dim) == hopf_input
        assert (smash.relation_space.dim == 0) == hopf_input


def test_pair_groupoid_smash_dimension():
    assert build_smash(corpus_entry("p2").ht_action).dim == 4


def test_embedded_products_multiply(corpus):
    for entry in corpus:
        smash = build_smash(entry.ht_action)
        alg = entry.ht_action.alg
        for x in range(alg.dim):
            cx = smash.embed_algebra(unit_vec(alg.dim, x))
            for y in range(alg.dim):
                cy = smash.embed_algebra(unit_vec(alg.dim, y))
                assert smash.algebra.multiply(cx, cy) == smash.embed_algebra(
                    alg.mult[x][y]
                )


def test_unit_class_is_two_sided_unit(corpus):
    for entry in corpus:
        smash = build_smash(entry.ht_action)
        expected = project(smash, sympy_kron(entry.ht_action.alg.unit, entry.wha.unit))
        assert smash.algebra.unit == expected
        for w in range(smash.dim):
            ew = unit_vec(smash.dim, w)
            assert smash.algebra.multiply(smash.algebra.unit, ew) == ew
            assert smash.algebra.multiply(ew, smash.algebra.unit) == ew


def test_embeddings_check(corpus):
    for entry in corpus:
        assert embeddings_check(build_smash(entry.ht_action)), entry.name


def test_products_independent_of_representative():
    rng = random.Random(13)
    entry = corpus_entry("p2")
    m = entry.ht_action
    smash = build_smash(m)
    n = m.alg.dim * entry.wha.dim
    for _ in range(20):
        w = unit_vec(n, rng.randrange(n))
        r = smash.relation_space.basis[rng.randrange(smash.relation_space.dim)]
        shifted = tuple(a + b for a, b in zip(w, r))
        y = unit_vec(n, rng.randrange(n))
        lhs = project_sparse(smash, representative_bilinear(m, w, y))
        rhs = project_sparse(smash, representative_bilinear(m, shifted, y))
        assert lhs == rhs
        lhs = project_sparse(smash, representative_bilinear(m, y, w))
        rhs = project_sparse(smash, representative_bilinear(m, y, shifted))
        assert lhs == rhs


def test_structure_maps_pass_witness(corpus):
    for entry in corpus:
        smash = build_smash(entry.ht_action)
        witness = smash_action_maps(smash)
        assert witness.u.target == smash.algebra


def test_structure_maps_hopf_collapse():
    entry = corpus_entry("qs3")
    smash = build_smash(entry.ht_action)
    witness = smash_action_maps(smash)
    for h in range(entry.wha.dim):
        expected = tuple(
            entry.wha.coalg.counit[h] * x for x in smash.algebra.unit
        )
        assert witness.e.matrix.col(h) == expected


def test_structure_map_f_on_pair_groupoid():
    entry = corpus_entry("p2")
    g = entry.groupoid
    smash = build_smash(entry.ht_action)
    witness = smash_action_maps(smash)
    e1_index = g.index(g.identities[g.objects[0]])
    expected = smash.embed_hopf(unit_vec(4, e1_index))
    assert witness.f.matrix.col(e1_index) == expected


def test_candidate_action_matches_direct_formula():
    entry = corpus_entry("c2c1")
    smash = build_smash(entry.ht_action)
    witness = smash_action_maps(smash)
    candidate = smash.inner_candidate
    from whk.actions import InnerData

    rebuilt = inner_action_from(InnerData(entry.wha, witness))
    assert candidate.act == rebuilt.act


def test_conjugation_candidate_matches_sweedler_expansion():
    # u(h_1) w v(h_2) must coincide with class((h_1 . a) (x) h_2 g S(h_3))
    # for w = class(a (x) g); this re-derives the action tensor through the
    # comultiplication square instead of products in the quotient algebra
    for name in ("p2", "c2c1", "h4"):
        entry = corpus_entry(name)
        m = entry.ht_action
        smash = build_smash(m)
        candidate = smash.inner_candidate
        hopf = entry.wha
        nh, na = hopf.dim, m.alg.dim
        dt = hopf.coalg.delta_terms
        for i in range(nh):
            cube = []
            for p, q, c in dt[i]:
                for p2, q2, c2 in dt[p]:
                    cube.append((p2, q2, q, c * c2))
            for pos, coord in enumerate(smash.quotient_coords):
                a, g = divmod(coord, nh)
                acc = [0] * (na * nh)
                for p2, q2, r, c in cube:
                    acted = m.act[p2][a]
                    leg = hopf.alg.multiply(
                        hopf.alg.mult[q2][g], hopf.antipode.col(r)
                    )
                    for ai, av in enumerate(acted):
                        if av:
                            for hi, hv in enumerate(leg):
                                if hv:
                                    acc[ai * nh + hi] += c * av * hv
                expected = project(smash, tuple(acc))
                assert candidate.act[i][pos] == expected


def test_battery_pinned_verdicts():
    assert smash_inner_battery(build_smash(corpus_entry("p2").ht_action)).booleans() == (
        False,
        False,
        False,
        False,
        False,
    )
    assert smash_inner_battery(build_smash(corpus_entry("c2c1").ht_action)).booleans() == (
        True,
        True,
        True,
        True,
        True,
    )
    assert smash_inner_battery(build_smash(corpus_entry("qs3").ht_action)).all_equal()
