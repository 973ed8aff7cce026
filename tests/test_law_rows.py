"""The eleven basis-tuple laws, evaluated by rows, against the every-tuple reference.

Each law's rows are walked over its whole shape, with no generator test in
front, and the failure list must equal `law_reference`'s, tuple by tuple,
with dict sides in the same key order.  Where the library decides a law on
generators first, the failures it reports must equal that list too.  A
corrupt structure may stop a law before any row is evaluated; both routes
must then raise the same error.
"""

from functools import partial

from whk import actions, algebra, coalgebra, smash, weakhopf
from whk.actions import ModuleAction, adjoint_action, ht_module_action
from whk.corpus import MUTATIONS, WHA_NAMES, apply_mutation, corpus_entry
from whk.errors import DimensionError, InvariantViolation, PreconditionError, ShapeError
from whk.linalg import densify
from whk.report import ReportBuilder, law_failures
from whk.smash import build_smash

import law_reference as reference
from test_oracles import load_bench_inputs


def ordered(value):
    """value with every dict replaced by its list of items, so that key order counts."""
    if isinstance(value, dict):
        return [(k, ordered(x)) for k, x in value.items()]
    if isinstance(value, (list, tuple)):
        return type(value)(ordered(x) for x in value)
    return value


def outcome(fn, *args):
    """ordered(fn(*args)), or the type and message of the library error it raises."""
    try:
        return "value", ordered(fn(*args))
    except (DimensionError, InvariantViolation, PreconditionError, ShapeError) as exc:
        return type(exc).__name__, str(exc)


def every_row(rows, shape, show=lambda side: side):
    return list(law_failures(rows, shape, show))


def reported(report, name):
    return [item for item in report.items if item.name == name]


def recorded(name, failures):
    rb = ReportBuilder()
    rb.check(name, failures)
    return list(rb.build().items)


def check_algebra(label, a):
    n, want = a.dim, reference.algebra_associativity(a)
    rows = partial(algebra._associativity_rows, a.mult_terms)
    assert every_row(rows, (n, n, n), partial(densify, n=n)) == want, label
    assert a.is_associative == (not want), label
    assert reported(algebra.validate_algebra(a), "associativity") == recorded("associativity", want), label
    return bool(want)


def check_wha(label, h):
    c, failing = h.coalg, 0
    want = reference.coassociativity(c)
    assert ordered(every_row(partial(coalgebra._coassociativity_rows, c.delta_terms), (c.dim,))) == ordered(want), label
    assert c.is_coassociative == (not want), label
    assert reported(coalgebra.validate_coalgebra(c), "coassociativity") == recorded("coassociativity", want), label
    failing += bool(want)
    want = reference.comult_multiplicative(h)
    assert ordered(list(weakhopf._comult_mult_failures(h))) == ordered(want), label
    failing += bool(want)
    laws = weakhopf._anti_morphism_laws(h)
    for name in ("anti_algebra_morphism", "anti_coalgebra_morphism"):
        want = getattr(reference, name)(h)
        assert list(laws[name]) == want, (label, name)
        failing += bool(want)
    return failing


def check_action(label, m):
    nh, na, failing = m.hopf.dim, m.alg.dim, 0
    for rows, law, want, shape in (
        (actions._associativity_rows, actions._associativity_failures, reference.action_associativity, (nh, nh, na)),
        (actions._multiplicativity_rows, actions._multiplicativity_failures, reference.action_multiplicativity,
         (nh, na, na)),
    ):
        want = want(m)
        assert every_row(partial(rows, m), shape, partial(densify, n=na)) == want, (label, law.__name__)
        assert list(law(m)) == want, (label, law.__name__)
        failing += bool(want)
    unit = outcome(lambda: list(actions._unit_compat_failures(m)))
    assert unit == outcome(reference.action_unit_compatibility, m), label
    failing += unit[0] == "value" and bool(unit[1])

    def premises():
        nz = m.hopf.counital_data.h_t.dim
        return [every_row(rows, (nz, last)) for rows, last in zip(smash._premise_rows(m), (nh, na, nh))]

    got = outcome(premises)
    assert got == outcome(reference.smash_premises, m), label
    if got[0] == "value" and m.alg.is_associative and m.hopf.alg.is_associative:
        assert smash._relations_form_ideal(m) == (not any(got[1])), label
    return failing


def check_case(label, h, algebras, actions_):
    failing = check_wha(label, h)
    failing += sum(check_algebra(label, a) for a in algebras)
    return failing + sum(check_action(label, m) for m in actions_)


def member_case(label, h):
    """h, its algebra and the algebras of its H_t action and smash candidate, and the
    H_t, adjoint and smash-candidate actions."""
    ht = ht_module_action(h)
    candidate = build_smash(ht).inner_candidate
    return label, h, (h.alg, ht.alg, candidate.alg), (ht, adjoint_action(h), candidate)


def test_laws_by_rows_match_every_tuple_on_the_corpus_and_its_mutations():
    failing = 0
    for name in WHA_NAMES:
        label, h, algebras, (ht, adjoint, candidate) = member_case(name, corpus_entry(name).wha)
        failing += check_case(label, h, algebras, (ht, adjoint, candidate))
        for mutation in MUTATIONS:
            broken = apply_mutation(h, mutation)
            # the tensors of h's actions, read over the broken structure
            acts = [ModuleAction(broken, m.alg, m.act) for m in (ht, candidate)]
            acts.append(ModuleAction(broken, broken.alg, adjoint.act))
            failing += check_case(f"{name}.{mutation}", broken, (broken.alg,), acts)
    assert failing >= 90  # failure lists are compared, not only passes


def test_laws_by_rows_match_every_tuple_on_the_bench_inputs():
    bench = load_bench_inputs()
    failing = 0
    for seed in (7, 12):
        for name in bench.FACTS:
            failing += check_case(*member_case(f"{name}@{seed}", bench.build(name, seed).wha))
    assert failing >= 12  # the adjoint and smash candidates of the non-quantum-commutative inputs, among others
