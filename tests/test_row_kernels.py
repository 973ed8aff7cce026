"""The row kernels against the list-form kernels they replaced.

`linalg.apply_each`, `combine_each` and `sweedler_each` return the nonzero
rows of a law only, keyed by the last index, and read each table through
its support.  Here every module that calls them is run a second time with
the kernels swapped for the list-form references of `law_reference`, which
build every row, zero or not, over the whole last index, and whose zero
rows are then dropped.  Every report (failure lists and rendered sides
included), verdict, battery, smash table and (e, f)-inverse must be the
same on both, or both must raise the same library error.  The cases are
the corpus, its 30 corruptions, `groupoid_family(3, 2)` and the bench
inputs at seeds 7 and 12, each built afresh for each route, so that no
cached verdict crosses from one to the other; one algebra has a row that
cancels on one side of its associativity law only.
"""

from fractions import Fraction

import pytest

from whk import actions, algebra, convolution, smash, weakhopf
from whk.actions import (
    ModuleAction, adjoint_action, adjoint_data, ht_module_action, inner_action_battery, validate_module_algebra,
)
from whk.algebra import FiniteAlgebra, validate_algebra
from whk.coalgebra import FiniteCoalgebra
from whk.convolution import ef_inverse_solve
from whk.corpus import MUTATIONS, WHA_NAMES, apply_mutation, corpus_entry
from whk.errors import DimensionError, InvariantViolation, PreconditionError, ShapeError
from whk.groupoid import groupoid_algebra, groupoid_family
from whk.linalg import Mat
from whk.smash import build_smash, embeddings_check, smash_inner_battery
from whk.weakhopf import (
    WeakHopfAlgebra, antipode_props, counital_identities, eps_s_conv, eps_t_conv, identity_conv,
    is_quantum_commutative, validate_wha,
)

import law_reference as reference
from test_oracles import load_bench_inputs

LIBRARY_ERRORS = (DimensionError, InvariantViolation, PreconditionError, ShapeError)
CALLERS = (algebra, actions, weakhopf, smash, convolution)


def outcome(fn, *args):
    """fn(*args), or the type and message of the library error it raises."""
    try:
        return "value", fn(*args)
    except LIBRARY_ERRORS as exc:
        return type(exc).__name__, str(exc)


# --- the row kernels' contract, computed by the list-form kernels ---


def nonzero(rows):
    return {m: v for m, v in enumerate(rows) if v}


def width(supports):
    """One past the largest row index of these support lists."""
    return 1 + max((m for support in supports for m, _ in support), default=-1)


def dense(support, n):
    """A support list as the row of n term lists it stands for."""
    row = [()] * n
    for m, terms in support:
        row[m] = terms
    return row


def listed_apply_each(rows, vectors):
    rows = list(rows)
    return {m: v for (m, _), v in zip(rows, reference.apply_each([cs for _, cs in rows], vectors)) if v}


def listed_combine_each(coeffs, support):
    coeffs = list(coeffs)
    supports = {t: list(support[t]) for t, _ in coeffs}
    n = width(supports.values())
    return nonzero(reference.combine_each(coeffs, {t: dense(s, n) for t, s in supports.items()}, n))


def listed_sweedler_each(delta, fn):
    legs = {(p, q): list(fn(p, q)) for p, q, _ in delta}
    n = width(legs.values())
    return nonzero(reference.sweedler_each(delta, lambda p, q: dense(legs[p, q], n), n))


def with_listed_kernels(monkeypatch):
    for module in CALLERS:
        for name, kernel in (
            ("apply_each", listed_apply_each), ("combine_each", listed_combine_each),
            ("sweedler_each", listed_sweedler_each),
        ):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, kernel)


# --- everything the library decides on one structure ---


def fresh(h):
    """A copy of h that shares no cached value with it."""
    a, c, s = h.alg, h.coalg, h.antipode
    return WeakHopfAlgebra(
        FiniteAlgebra.from_terms(a.dim, a.mult_terms, a.unit), FiniteCoalgebra.from_terms(c.dim, c.delta_terms, c.counit),
        Mat(s.rows, s.cols, s.entries),
    )


def smash_results(m):
    s = build_smash(m)
    return s.algebra.mult_terms, s.algebra.unit, embeddings_check(s), smash_inner_battery(s).to_dict()


def results(build, mutation):
    """Every report, verdict and construction of the library on a fresh build(), corrupted
    by `mutation` if one is given, and on the H_t and adjoint actions read over it."""
    h = fresh(build())
    ht = ht_module_action(h)
    target = h if mutation is None else apply_mutation(h, mutation)
    m = ht if mutation is None else ModuleAction(target, ht.alg, ht.act)
    adjoint = adjoint_action(h) if mutation is None else ModuleAction(target, target.alg, adjoint_action(h).act)
    checks = {
        "validate_wha": lambda: validate_wha(target).to_dict(),
        "counital_identities": lambda: counital_identities(target).to_dict(),
        "antipode_props": lambda: antipode_props(target).to_dict(),
        "is_quantum_commutative": lambda: is_quantum_commutative(target),
        "ht_action": lambda: validate_module_algebra(m).to_dict(),
        "adjoint_action": lambda: validate_module_algebra(adjoint).to_dict(),
        "smash": lambda: smash_results(m),
        "inner_action_battery": lambda: inner_action_battery(adjoint_data(target)).to_dict(),
        "ef_inverse_solve": lambda: ef_inverse_solve(identity_conv(target), eps_t_conv(target), eps_s_conv(target)),
    }
    return {name: outcome(check) for name, check in checks.items()}


def cases():
    """(label, build, mutation): the corpus, its corruptions, groupoid_family(3, 2) and the bench inputs."""
    bench = load_bench_inputs()
    out = []
    for name in WHA_NAMES:
        build = lambda name=name: corpus_entry(name).wha
        out += [(name, build, None)] + [(f"{name}.{mutation}", build, mutation) for mutation in MUTATIONS]
    out += [(f"family{i}", lambda g=g: groupoid_algebra(g), None) for i, g in enumerate(groupoid_family(3, 2))]
    return out + [
        (f"{name}@{seed}", lambda name=name, seed=seed: bench.build(name, seed).wha, None)
        for seed in (7, 12) for name in bench.FACTS
    ]


@pytest.mark.parametrize("label, build, mutation", cases(), ids=[label for label, _, _ in cases()])
def test_the_library_decides_the_same_under_the_list_form_kernels(label, build, mutation, monkeypatch):
    got = results(build, mutation)
    with_listed_kernels(monkeypatch)
    assert results(build, mutation) == got, label


def cancelling_algebra():
    """e0 e0 = e0 + e1, e1 e0 = -e0 - e1 and every other product zero: (e0 e0) e0 = e0 e0 + e1 e0
    cancels to zero while e0 (e0 e0) = e0 e0 + e0 e1 = e0 + e1 does not."""
    table = ((((0, 1), (1, 1)), ()), (((0, -1), (1, -1)), ()))
    return FiniteAlgebra.from_terms(2, table, (Fraction(1), Fraction(0)))


def test_a_row_that_cancels_on_one_side_only_is_reported_the_same_under_both_kernels(monkeypatch):
    report = validate_algebra(cancelling_algebra())
    first = next(item for item in report.items if item.name == "associativity").counterexample
    assert (first.indices, first.lhs, first.rhs) == ((0, 0, 0), "{}", "{0: 1, 1: 1}")
    with_listed_kernels(monkeypatch)
    assert validate_algebra(cancelling_algebra()) == report
