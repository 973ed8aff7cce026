"""The smash layer by rows, against the per-pair references.

The product table of A # H, the embeddings check, the centrality of
1 # H_s, the t pairing, the one-sided innerness criterion and the
inner-action battery's subspace tests are evaluated a row at a time.
Each must equal its per-pair reference (`smash_reference`,
`law_reference`): the table as a canonical term table, with the same value
types, and every check as a verdict.  The cases are the corpus, its
corruptions, `groupoid_family(3, 2)`, the bench inputs at seeds 7 and 12
and c3_o4 (dim 48, above the bench ladder); a corrupt structure must raise
the same error on both routes.
"""

from fractions import Fraction
from itertools import product

from whk import actions, smash
from whk.actions import (
    ModuleAction, adjoint_data, bilinear_t, conjugation_action, ht_module_action, inner_action_battery,
)
from whk.corpus import MUTATIONS, WHA_NAMES, apply_mutation, corpus_entry
from whk.errors import DimensionError, InvariantViolation, PreconditionError, ShapeError
from whk.groupoid import component_groupoid, groupoid_algebra, groupoid_family
from whk.linalg import Mat, vec
from whk.smash import SmashProduct, build_smash

import law_reference
import smash_reference as reference
from test_oracles import load_bench_inputs
from test_law_rows import every_row
from test_linalg import of_dm, to_dm

LIBRARY_ERRORS = (DimensionError, InvariantViolation, PreconditionError, ShapeError)


def outcome(fn, *args):
    """fn(*args), or the type and message of the library error it raises."""
    try:
        return "value", fn(*args)
    except LIBRARY_ERRORS as exc:
        return type(exc).__name__, str(exc)


def typed(algebra):
    """The term table and unit of an algebra, with the type of every value."""
    return [[[(k, type(x), x) for k, x in terms] for terms in row] for row in algebra.mult_terms], algebra.unit


def construction(m):
    """The outcome of building m's smash algebra, which must equal the per-pair one,
    value types included, or raise the same error."""
    got = outcome(lambda: typed(smash._construct_smash(m).algebra))
    assert got == outcome(lambda: typed(reference.construct_algebra(m)))
    return got


def same_construction(m):
    """`construction`, and whether an algebra was built."""
    return construction(m)[0] == "value"


def valid_cases():
    """(label, weak Hopf algebra): the corpus, groupoid_family(3, 2), the bench inputs at seeds 7 and 12
    and c3_o4."""
    bench = load_bench_inputs()
    cases = [(name, corpus_entry(name).wha) for name in WHA_NAMES]
    cases += [(f"family{i}", groupoid_algebra(g)) for i, g in enumerate(groupoid_family(3, 2))]
    cases += [(f"{name}@{seed}", bench.build(name, seed).wha) for seed in (7, 12) for name in bench.FACTS]
    return cases + [("c3_o4", groupoid_algebra(component_groupoid("x_", 4, 3)))]


def broken_cases():
    """(label, broken structure, the H_t action of the intact one read over it, its smash
    product read over it): the corpus's 30 corruptions."""
    for name in WHA_NAMES:
        h = corpus_entry(name).wha
        ht = ht_module_action(h)
        s = build_smash(ht)
        for mutation in MUTATIONS:
            broken = apply_mutation(h, mutation)
            m = ModuleAction(broken, ht.alg, ht.act)
            yield f"{name}.{mutation}", m, SmashProduct(
                ModuleAction(broken, ht.alg, ht.act), s.relation_space, s.quotient_coords, s.projection, s.algebra
            )


def shifted_actions():
    """Each corpus H_t action with one entry of its tensor shifted by the first basis vector."""
    for name in WHA_NAMES:
        ht = ht_module_action(corpus_entry(name).wha)
        for i, j in product(range(ht.hopf.dim), range(ht.alg.dim)):
            act = [[list(row) for row in slice_] for slice_ in ht.act]
            act[i][j][0] += 1
            yield ModuleAction(ht.hopf, ht.alg, act)


def check_smash(label, s):
    """Embeddings and the centrality of 1 # H_s against the references; returns the number of failing checks."""
    got = outcome(smash.embeddings_check, s), outcome(smash._source_image_central, s)
    want = outcome(reference.embeddings_check, s), outcome(reference.source_image_central, s)
    assert got == want, label
    return sum(verdict == ("value", False) for verdict in got)


def check_inner(label, h):
    """The t pairing, the one-sided criterion and the battery's subspace tests on h's
    adjoint data against the references; returns the number of failing checks."""
    try:
        data = adjoint_data(h)
    except InvariantViolation:
        return 0
    n, m = h.dim, conjugation_action(h, data.witness)  # the adjoint action, its witness not required to hold
    want = law_reference.one_sided_criterion(data, m)
    assert every_row(actions._one_sided_rows(data, m), (n, n)) == want, label
    failing = bool(want)
    try:
        battery = inner_action_battery(data)
    except LIBRARY_ERRORS:
        return failing
    subspaces = (
        battery.e_absorbs_eps_t, battery.eps_t_kernel_contained, battery.f_image_central, battery.u_source_image_central
    )
    assert subspaces == law_reference.inner_battery_subspaces(data), label
    central = data.witness.target.center
    t_central = all(central.contains(law_reference.t_basis(data, i, j)) for i in range(n) for j in range(n))
    assert battery.t_image_central == t_central, label
    return failing + subspaces.count(False) + (not t_central)


def test_smash_rows_match_the_per_pair_references_on_valid_inputs():
    failing = 0
    for label, h in valid_cases():
        m = ht_module_action(h)
        assert same_construction(m), label
        failing += check_smash(label, build_smash(m))
        failing += check_inner(label, h)
    assert failing >= 10  # the non-quantum-commutative inputs fail some checks on both routes


def test_smash_rows_match_the_per_pair_references_on_the_corruptions():
    built = failing = 0
    for label, m, s in broken_cases():
        built += same_construction(m)
        failing += check_smash(label, s)
        failing += check_inner(label, m.hopf)
    assert built == 5 and failing >= 10  # A # H is built on the five antipode_identity corruptions


def test_a_failing_premise_refuses_the_structure_before_any_relation_is_built(monkeypatch):
    def no_relations(*args):
        raise AssertionError("a balance relation was built")

    monkeypatch.setattr(smash, "_failed_premise", lambda m: "P2")
    monkeypatch.setattr(smash, "right_ht_action", no_relations)
    for label, h in valid_cases():
        assert construction(ht_module_action(h)) == ("PreconditionError", "smash product premise fails: P2"), label
    # the module-algebra precondition is tested first
    assert construction(next(shifted_actions())) == (
        "PreconditionError", "smash products require a validated module algebra"
    )


def test_bilinear_t_is_the_sum_of_the_per_pair_values():
    for name in WHA_NAMES:
        h = corpus_entry(name).wha
        data, n = adjoint_data(h), h.dim
        x = vec(Fraction(i + 1, 2) for i in range(n))
        y = vec(i or 1 for i in range(n))  # range(n) + e_0
        pairs = [(i, j) for i in range(n) for j in range(n)]
        per_pair = Mat.from_columns([law_reference.t_basis(data, i, j) for i, j in pairs], data.witness.target.dim)
        coefficients = Mat.from_columns([tuple(x[i] * y[j] for i, j in pairs)])
        assert bilinear_t(data, x, y) == of_dm(to_dm(per_pair) * to_dm(coefficients)).col(0), name
