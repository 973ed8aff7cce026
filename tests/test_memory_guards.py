"""Peak-RSS guards above the bench ladder, each in a fresh interpreter.

Structures are stored by their term tables, and no linear system or structure
tensor is densified on the way: densifying the 3n^2 x n^2 (e, f) system again
takes ~300 MB at dim 48, and with dense structure tensors stored the dim-196
inner-action battery peaked at 271 MB.  Each test runs this file as a script
with the name of a guard, in a fresh interpreter started by `test_imports.fresh`;
the script runs the guard's asserts and then prints its own peak RSS in MB,
which the test bounds.  The peak is Linux's VmHWM, which starts afresh at
exec: `ru_maxrss` would count the memory of the test process that started
the script too.  One guard can be run by hand:

    PYTHONPATH=src python tests/test_memory_guards.py ef_systems
"""

import sys
from fractions import Fraction
from pathlib import Path

from whk.actions import adjoint_data, inner_action_battery
from whk.convolution import _solution_space, ef_inverse_solve, ef_inverse_via_series
from whk.groupoid import component_groupoid, groupoid_algebra
from whk.weakhopf import counital_data, eps_s_conv, eps_t_conv, identity_conv


def ef_systems():
    """Solve and series on component_groupoid("x_", 4, 3) and ("x_", 4, 4), dims 48
    and 64: each gives the antipode, with Fraction entries only (integral scalars
    inside the sparse core are ints, and no int may leak into a public matrix).  The
    series right after the solve finds the solve's elimination in the convolution
    module's cache, so the cache is cleared and the series run again: the bound then
    covers a cold series elimination too."""
    for objects, isotropy in ((4, 3), (4, 4)):
        h = groupoid_algebra(component_groupoid("x_", objects, isotropy))
        counital_data(h)
        maps = (identity_conv(h), eps_t_conv(h), eps_s_conv(h))
        v = ef_inverse_solve(*maps)
        assert v is not None and v.matrix == h.antipode, h.dim
        warm = ef_inverse_via_series(*maps)
        _solution_space.cache_clear()
        cold = ef_inverse_via_series(*maps)
        assert warm == v and cold == v, h.dim
        types = {type(x).__name__ for m in (v, warm, cold) for row in m.matrix.entries for x in row}
        assert types == {"Fraction"}, (h.dim, sorted(types))


def battery_at_dim_196():
    """The inner-action battery of component_groupoid("x_", 7, 4) reports no violation."""
    h = groupoid_algebra(component_groupoid("x_", 7, 4))
    assert inner_action_battery(adjoint_data(h)).violations() == (), h.dim


GUARDS = {"ef_systems": ef_systems, "battery_at_dim_196": battery_at_dim_196}


def peak_rss_mb(guard: str) -> float:
    """The peak RSS of a fresh interpreter that ran the guard, in MB."""
    from test_imports import fresh  # here, so that the script itself does not import pytest

    result = fresh(__file__, guard)
    assert result.returncode == 0, result.stderr
    return float(result.stdout)


def test_the_dim_48_and_dim_64_ef_systems_stay_within_150_mb():
    peak = peak_rss_mb("ef_systems")
    assert peak <= 150, f"peak RSS {peak:.1f} MB over 150 MB: is a linear system densified again?"


def test_the_dim_196_inner_action_battery_stays_within_100_mb():
    peak = peak_rss_mb("battery_at_dim_196")
    assert peak <= 100, f"peak RSS {peak:.1f} MB over 100 MB: is a dense structure tensor built again?"


if __name__ == "__main__":
    GUARDS[sys.argv[1]]()
    status = Path("/proc/self/status").read_text(encoding="ascii")
    print(next(int(line.split()[1]) for line in status.splitlines() if line.startswith("VmHWM:")) / 1024)  # kB
