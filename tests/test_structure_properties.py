"""Structure properties of random groupoid weak Hopf algebras.

A draw is a disjoint union of one to three `component_groupoid`s, each with
one to three objects and cyclic isotropy of order one to three, of total
dimension at most 27.  On every draw the library's independent routes must
agree: the direct solve, the coradical series and the antipode; the two
coradical-filtration chains; the two quantum-commutativity criteria and the
groupoid's isotropy shape; the embeddings check and the centrality of
1 # H_s against their per-pair references; the smash battery's five
conditions; and the adjoint inner-action battery's equivalences.  Deterministic and bounded:
derandomized, no example database, 25 examples.

A second property guards the smash product's precondition: a corpus member
or a small groupoid draw, with one entry of its product, coproduct, antipode
or H_t action table moved by one, is refused with the premise that fails,
and wherever A # H is built the every-pair loop of `smash_reference` finds
the balance relations a two-sided ideal and the embeddings check agrees
with its per-pair reference (150 examples).

A third property runs every law the library declares with a premise
(`law_registry.LAWS`) on a corpus member or a small groupoid draw, with
one entry of its product, coproduct, counit or antipode, or of the
product of its target algebra H_t, moved by one, or none: the algebras,
the coalgebra, the weak Hopf algebra, the H_t and adjoint actions and
the smash product read over the moved structure.  Each law's failures
must equal its walk with the premise removed and the every-tuple
reference, and `counit_mult_compatibility` its reference (300 examples);
a tally checks that the draws reach every law with its premise failing
and with its spans holding, and every span failing but the two eps
multiplicative ones, which no such move breaks.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from whk import smash
from whk.actions import (
    ModuleAction, adjoint_action, adjoint_data, ht_module_action, inner_action_battery, is_module_algebra,
)
from whk.coalgebra import FiniteCoalgebra, filtration_crosscheck
from whk.convolution import ef_inverse_solve, ef_inverse_via_series
from whk.corpus import WHA_NAMES, corpus_entry
from whk.errors import InvariantViolation, PreconditionError
from whk.groupoid import component_groupoid, disjoint_union, groupoid_algebra, is_isotropy_disjoint_union
from whk.linalg import Mat
from whk.report import holds_on
from whk.smash import SmashProduct, build_smash, smash_inner_battery
from whk.weakhopf import _EPS_LAWS
from whk.weakhopf import (
    WeakHopfAlgebra, antipode_props, counital_identities, eps_s_conv, eps_t_conv, identity_conv,
    is_quantum_commutative, validate_wha,
)

import law_reference
import smash_reference
from law_registry import LAWS, LIBRARY_ERRORS, check_declared
from test_law_rows import recorded, reported
from test_oracles import bumped_algebra, bumped_coalgebra, moved
from test_smash_rows import check_smash

MAX_DIM = 27


@st.composite
def groupoids(draw, max_dim=MAX_DIM):
    """A disjoint union of 1-3 components (objects, isotropy) in 1-3 x 1-3, dimension at most max_dim."""
    parts, budget = [], max_dim
    for i in range(draw(st.integers(1, 3))):
        shapes = [(o, k) for o in range(1, 4) for k in range(1, 4) if o * o * k <= budget]
        if not shapes:
            break
        objects, isotropy = draw(st.sampled_from(shapes))
        budget -= objects * objects * isotropy
        parts.append(component_groupoid(f"c{i}_", objects, isotropy))
    return disjoint_union(parts)


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(groupoids())
def test_random_groupoid_algebras_agree_on_every_route(g):
    h = groupoid_algebra(g)
    assert 1 <= h.dim <= MAX_DIM

    maps = (identity_conv(h), eps_t_conv(h), eps_s_conv(h))
    solved = ef_inverse_solve(*maps)
    assert solved is not None and solved.matrix == h.antipode
    assert ef_inverse_via_series(*maps) == solved
    assert filtration_crosscheck(h.coalg)

    first, second = is_quantum_commutative(h)
    assert first == second == is_isotropy_disjoint_union(g)

    assert validate_wha(h).ok
    assert counital_identities(h).ok
    assert antipode_props(h).ok

    s = build_smash(ht_module_action(h))
    check_smash("draw", s)  # the embeddings and 1 # H_s against the per-pair references
    battery = smash_inner_battery(s)
    assert battery.all_equal()
    assert battery.module_algebra == battery.quantum_commutative == first

    assert inner_action_battery(adjoint_data(h)).violations() == ()


@st.composite
def corrupted_ht_actions(draw):
    """The H_t action of a corpus member or a groupoid draw of dimension at most 8, read over
    a copy of the structure with one entry of mult, comult, the antipode or the action moved by one."""
    h = draw(st.one_of(
        st.sampled_from(WHA_NAMES).map(lambda name: corpus_entry(name).wha),
        groupoids(max_dim=8).map(groupoid_algebra),
    ))
    ht = ht_module_action(h)
    n, amount = h.dim, draw(st.sampled_from((1, -1)))
    index = st.integers(0, n - 1)
    i, j, k = draw(index), draw(index), draw(index)
    table = draw(st.sampled_from(("mult", "comult", "antipode", "act")))
    if table == "mult":
        h = WeakHopfAlgebra(bumped_algebra(h.alg, i, j, k, amount), h.coalg, h.antipode)
    elif table == "comult":
        h = WeakHopfAlgebra(h.alg, bumped_coalgebra(h.coalg, i, j, k, amount), h.antipode)
    elif table == "antipode":
        columns = [list(column) for column in h.antipode.columns]
        columns[i][j] += amount
        h = WeakHopfAlgebra(h.alg, h.coalg, Mat.from_columns(columns))
    act = ht.act
    if table == "act":
        x, y = draw(st.integers(0, ht.alg.dim - 1)), draw(st.integers(0, ht.alg.dim - 1))
        act = moved(act, [(i, x, y, amount)])
    return ModuleAction(h, ht.alg, act)


def outcome(fn, m):
    """fn(m), or the type and message of the library error it raises."""
    try:
        return fn(m)
    except (InvariantViolation, PreconditionError) as exc:
        return type(exc).__name__, str(exc)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(corrupted_ht_actions())
def test_a_smash_product_is_built_only_where_the_relations_form_an_ideal(m):
    built = outcome(build_smash, m)
    if outcome(is_module_algebra, m) is True:
        premise = outcome(smash._failed_premise, m)
        if isinstance(premise, str):  # the first failing premise refuses the structure
            assert built == ("PreconditionError", f"smash product premise fails: {premise}")
    if not isinstance(built, tuple):
        assert smash_reference.relations_form_ideal(built)
        check_smash("corrupted draw", built)


@st.composite
def law_draws(draw):
    """(H, H', A'): a corpus member or a groupoid draw H of dimension at most 8, its H_t action's target
    A = H_t, and a copy H' of H or A' of A with one entry of its product, or of H's coproduct, counit or
    antipode, moved by one."""
    h = draw(st.one_of(
        st.sampled_from(WHA_NAMES).map(lambda name: corpus_entry(name).wha),
        groupoids(max_dim=8).map(groupoid_algebra),
    ))
    a = ht_module_action(h).alg
    n, amount = h.dim, draw(st.sampled_from((1, -1)))
    i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
    table = draw(st.sampled_from((None, "mult", "comult", "counit", "antipode", "target")))
    if table == "mult":
        return h, WeakHopfAlgebra(bumped_algebra(h.alg, i, j, k, amount), h.coalg, h.antipode), a
    if table == "comult":
        return h, WeakHopfAlgebra(h.alg, bumped_coalgebra(h.coalg, i, j, k, amount), h.antipode), a
    if table == "counit":
        counit = list(h.coalg.counit)
        counit[i] += amount
        return h, WeakHopfAlgebra(h.alg, FiniteCoalgebra(n, h.coalg.comult, counit), h.antipode), a
    if table == "antipode":
        columns = [list(column) for column in h.antipode.columns]
        columns[i][j] += amount
        return h, WeakHopfAlgebra(h.alg, h.coalg, Mat.from_columns(columns)), a
    if table == "target":
        return h, h, bumped_algebra(a, *(draw(st.integers(0, a.dim - 1)) for _ in range(3)), amount)
    return h, h, a


def failing_spans(law):
    """The indices of the spans of a declared law that fail, or "premise fails"."""
    if not law.premise():
        return "premise fails"
    return frozenset(i for i, span in enumerate(law.spans) if not holds_on(*span))


def test_every_law_with_a_premise_matches_its_walk_and_the_reference():
    tally = Counter()  # (names, failing spans) over the laws declared on the draws
    spans = {}  # names: the number of spans of the law

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(law_draws())
    def check(draw):
        intact, h, a = draw
        ht = ht_module_action(intact)
        s = build_smash(ht)
        m = ModuleAction(h, a, ht.act)
        structures = (
            ("algebra", h.alg), ("algebra", a), ("coalgebra", h.coalg), ("wha", h), ("action", m),
            ("action", ModuleAction(h, h.alg, adjoint_action(intact).act)),
            ("smash", SmashProduct(m, s.relation_space, s.quotient_coords, s.projection, s.algebra)),
        )
        for kind, x in structures:
            check_declared("draw", kind, x)
            for names, (of, declare, _) in LAWS.items():
                if of != kind:
                    continue
                try:
                    law = declare(x)
                except LIBRARY_ERRORS:
                    tally[names, "raises"] += 1
                    continue
                spans[names] = len(law.spans)
                tally[names, failing_spans(law)] += 1
        counit = reported(validate_wha(h), "counit_mult_compatibility")
        assert counit == recorded("counit_mult_compatibility", law_reference.counit_mult_compatibility(h))

    check()
    # every law is met with its premise failing, and with its premise and every span holding
    met = {result: {names for names, got in tally if got == result} for result in ("premise fails", frozenset())}
    assert met == {"premise fails": set(LAWS), frozenset(): set(LAWS)}, tally
    # every span is met failing, where the walk runs behind it, but the two eps multiplicative spans (0 and 2)
    # that no single-entry move breaks; associativity and coassociativity have no span
    failed = {names: set() for names in LAWS}
    for (names, got), _ in tally.items():
        if isinstance(got, frozenset):
            failed[names] |= got
    unreached = {names: set(range(spans[names])) - failed[names] for names in LAWS}
    assert unreached == {names: {0, 2} if names == _EPS_LAWS else set() for names in LAWS}, unreached
