from dataclasses import dataclass

import pytest

from whk.actions import ModuleAction, ht_module_action
from whk.corpus import all_entries
from whk.groupoid import FiniteGroupoid, component_groupoid, groupoid_algebra, groupoid_family
from whk.smash import SmashBattery, SmashProduct, build_smash, smash_inner_battery
from whk.weakhopf import WeakHopfAlgebra


@dataclass(frozen=True, eq=False)
class FamilyMember:
    groupoid: FiniteGroupoid
    wha: WeakHopfAlgebra
    action: ModuleAction
    smash: SmashProduct
    battery: SmashBattery


@pytest.fixture(scope="session")
def corpus():
    return all_entries()


def member(g: FiniteGroupoid) -> FamilyMember:
    wha = groupoid_algebra(g)
    action = ht_module_action(wha)
    smash = build_smash(action)
    return FamilyMember(g, wha, action, smash, smash_inner_battery(smash))


@pytest.fixture(scope="session")
def family():
    return [member(g) for g in groupoid_family()]


@pytest.fixture(scope="session")
def ladder():
    """Above the bench ladder: c3_o4, c4_o4 and c4_o5, component_groupoid("x_", objects,
    isotropy) of dims 48, 64 and 100."""
    return [member(component_groupoid("x_", objects, isotropy)) for objects, isotropy in ((4, 3), (4, 4), (5, 4))]
