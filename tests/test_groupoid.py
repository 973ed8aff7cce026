import re

import pytest

from whk.actions import ModuleAction, conjugation_action, is_module_algebra
from whk.corpus import corpus_entry
from whk.errors import PreconditionError, ShapeError
from whk.groupoid import (
    FiniteGroupoid,
    component_groupoid,
    disjoint_union,
    groupoid_algebra,
    is_isotropy_disjoint_union,
    isotropy_action_check,
    validate_groupoid,
)
from whk.linalg import ONE, unit_vec
from whk.smash import build_smash, smash_action_maps
from whk.weakhopf import counital_data, validate_wha


def pair_groupoid() -> FiniteGroupoid:
    return component_groupoid("", 2, 1)


def test_validate_pair_groupoid():
    assert validate_groupoid(pair_groupoid()).ok


def test_validate_one_object_group():
    assert validate_groupoid(corpus_entry("qs3").groupoid).ok


def test_broken_inverse_table_detected():
    g = pair_groupoid()
    # redirect f o f^{-1} to the wrong identity
    f = next(m for m in g.morphisms if g.src[m] != g.tgt[m])
    finv = g.inv[f]
    comp = dict(g.comp)
    comp[(f, finv)] = g.identities[g.src[f]]
    broken = FiniteGroupoid(
        g.objects, g.morphisms, dict(g.src), dict(g.tgt), comp, dict(g.inv), dict(g.identities)
    )
    report = validate_groupoid(broken)
    assert not report.ok
    failed = set(report.failed_names())
    assert failed & {"inverse_laws", "composition_endpoints"}


def test_missing_composition_entry_is_shape_error():
    g = pair_groupoid()
    comp = dict(g.comp)
    comp.pop(next(iter(comp)))
    with pytest.raises(ShapeError):
        FiniteGroupoid(
            g.objects, g.morphisms, dict(g.src), dict(g.tgt), comp, dict(g.inv), dict(g.identities)
        )


@pytest.mark.parametrize("table", ["src", "tgt", "inv", "identities", "comp"])
def test_stray_table_key_is_shape_error(table):
    g = pair_groupoid()
    m, o = g.morphisms[0], g.objects[0]
    tables = {"src": dict(g.src), "tgt": dict(g.tgt), "inv": dict(g.inv), "identities": dict(g.identities),
              "comp": dict(g.comp)}
    tables[table][("x", "y") if table == "comp" else "stray"] = o if table in ("src", "tgt") else m
    with pytest.raises(ShapeError, match=f"^{table} table has an entry for"):
        FiniteGroupoid(g.objects, g.morphisms, tables["src"], tables["tgt"], tables["comp"], tables["inv"],
                       tables["identities"])


def test_a_comp_key_that_is_not_a_pair_of_morphisms_is_shape_error():
    g = pair_groupoid()
    m = g.morphisms[0]
    for key in ((m, "y"), ("y", m), (m, m, m), (m,), m):
        comp = {**g.comp, key: m}
        message = f"comp table has an entry for {key!r}, which is not a pair of morphisms"
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            FiniteGroupoid(g.objects, g.morphisms, dict(g.src), dict(g.tgt), comp, dict(g.inv), dict(g.identities))


def test_algebra_of_invalid_groupoid_rejected():
    g = pair_groupoid()
    f = next(m for m in g.morphisms if g.src[m] != g.tgt[m])
    comp = dict(g.comp)
    comp[(f, g.inv[f])] = g.identities[g.src[f]]
    broken = FiniteGroupoid(
        g.objects, g.morphisms, dict(g.src), dict(g.tgt), comp, dict(g.inv), dict(g.identities)
    )
    with pytest.raises(PreconditionError):
        groupoid_algebra(broken)


def test_one_object_group_gives_hopf_structure():
    entry = corpus_entry("qc2")
    wha = entry.wha
    # the unit is grouplike exactly in the one-object case
    assert wha.unit_delta_terms == ((0, 0, ONE),) or len(wha.unit_delta_terms) == 1
    assert counital_data(wha).h_t.dim == 1


def test_pair_groupoid_algebra_formulas():
    entry = corpus_entry("p2")
    g = entry.groupoid
    wha = entry.wha
    identities = [g.index(g.identities[o]) for o in g.objects]
    expected_unit = [0] * 4
    for i in identities:
        expected_unit[i] = 1
    assert list(wha.unit) == expected_unit
    f = next(m for m in g.morphisms if g.src[m] != g.tgt[m])
    cd = counital_data(wha)
    assert cd.eps_t.col(g.index(f)) == unit_vec(4, g.index(g.identities[g.tgt[f]]))


def test_counital_maps_read_endpoints(family):
    for member in family[:6]:
        g = member.groupoid
        cd = counital_data(member.wha)
        for m in g.morphisms:
            i = g.index(m)
            assert cd.eps_t.col(i) == unit_vec(len(g.morphisms), g.index(g.identities[g.tgt[m]]))
            assert cd.eps_s.col(i) == unit_vec(len(g.morphisms), g.index(g.identities[g.src[m]]))


def test_family_algebras_are_weak_hopf(family):
    from whk.weakhopf import counital_identities

    for member in family:
        assert validate_wha(member.wha).ok
        assert counital_identities(member.wha).ok


def test_isotropy_predicate():
    assert not is_isotropy_disjoint_union(corpus_entry("p2").groupoid)
    assert is_isotropy_disjoint_union(corpus_entry("qs3").groupoid)
    assert is_isotropy_disjoint_union(corpus_entry("c2c1").groupoid)


def test_isotropy_action_check_pinned():
    p2 = corpus_entry("p2")
    assert isotropy_action_check(p2.groupoid, p2.ht_action) == (False, False)
    c2c1 = corpus_entry("c2c1")
    assert isotropy_action_check(c2c1.groupoid, c2c1.ht_action) == (True, True)
    qc2 = corpus_entry("qc2")
    assert isotropy_action_check(qc2.groupoid, qc2.ht_action) == (True, True)


def test_isotropy_action_check_matches_a_fresh_smash_product(corpus):
    checked = 0
    for entry in corpus:
        if entry.groupoid is None:
            continue
        m = entry.ht_action
        fresh = build_smash(ModuleAction(m.hopf, m.alg, m.act))
        candidate = conjugation_action(fresh.hopf, smash_action_maps(fresh))
        assert isotropy_action_check(entry.groupoid, m)[0] == is_module_algebra(candidate), entry.name
        checked += 1
    assert checked >= 3


def test_family_covers_both_verdicts(family):
    verdicts = [is_isotropy_disjoint_union(member.groupoid) for member in family]
    assert len(verdicts) >= 20
    assert any(verdicts) and not all(verdicts)


def test_disjoint_union_objects_add_up():
    g = disjoint_union([component_groupoid("a_", 1, 2), component_groupoid("b_", 1, 1)])
    assert len(g.objects) == 2
    assert len(g.morphisms) == 3
    assert validate_groupoid(g).ok


def test_algebra_of_groupoid_without_morphisms_rejected():
    empty = FiniteGroupoid((), (), {}, {}, {}, {}, {})
    assert validate_groupoid(empty).ok
    with pytest.raises(PreconditionError, match="no morphisms"):
        groupoid_algebra(empty)
