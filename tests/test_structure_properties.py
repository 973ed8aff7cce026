"""Structure properties of random groupoid weak Hopf algebras.

A draw is a disjoint union of one to three `component_groupoid`s, each with
one to three objects and cyclic isotropy of order one to three, of total
dimension at most 27.  On every draw the library's independent routes must
agree: the direct solve, the coradical series and the antipode; the two
coradical-filtration chains; the two quantum-commutativity criteria and the
groupoid's isotropy shape; the smash battery's five conditions; and the
adjoint inner-action battery's equivalences.  Deterministic and bounded:
derandomized, no example database, 25 examples.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from whk.actions import adjoint_data, ht_module_action, inner_action_battery
from whk.coalgebra import filtration_crosscheck
from whk.convolution import ef_inverse_solve, ef_inverse_via_series
from whk.groupoid import component_groupoid, disjoint_union, groupoid_algebra, is_isotropy_disjoint_union
from whk.smash import build_smash, smash_inner_battery
from whk.weakhopf import (
    antipode_props, counital_identities, eps_s_conv, eps_t_conv, identity_conv, is_quantum_commutative, validate_wha,
)

MAX_DIM = 27


@st.composite
def groupoids(draw):
    """A disjoint union of 1-3 components (objects, isotropy) in 1-3 x 1-3, dimension at most MAX_DIM."""
    parts, budget = [], MAX_DIM
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

    battery = smash_inner_battery(build_smash(ht_module_action(h)))
    assert battery.all_equal()
    assert battery.module_algebra == battery.quantum_commutative == first

    assert inner_action_battery(adjoint_data(h)).violations() == ()
