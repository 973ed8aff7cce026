"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import replace

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import inputs  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from whk.weakhopf import validate_wha  # noqa: E402


@pytest.mark.parametrize("seed", [1, 2])
def test_generated_inputs_are_weak_hopf(seed):
    for name, facts in inputs.FACTS.items():
        inp = inputs.build(name, seed)
        assert inp.wha.dim == facts.dim
        assert validate_wha(inp.wha).ok, name


def test_seeds_permute_the_basis_but_not_the_verdicts():
    digests = set()
    matrices = set()
    for seed in (1, 2):
        ins = [inputs.build(name, seed) for name in ("h4xp2", "h4xh4")]
        p = workloads.Pass(speed.Meter())
        workloads.axioms_pass(p, ins)
        assert all(op.ok for op in p.ops)
        digests.add(p.verdict_digest())
        matrices.add(ins[0].wha.antipode)
    assert len(digests) == 1
    assert len(matrices) == 2


def test_wrong_pin_is_reported_as_failed_op(monkeypatch):
    wrong = replace(inputs.FACTS["h4xh4"], quantum_commutative=False)
    monkeypatch.setitem(inputs.FACTS, "h4xh4", wrong)
    p = workloads.Pass(speed.Meter())
    workloads.axioms_pass(p, [inputs.build("h4xh4", 1)])
    failed = [op for op in p.ops if not op.ok]
    assert [op.name for op in failed] == ["is_quantum_commutative"]


def test_self_times_fit_in_traced_wall_time():
    ins = [inputs.build("h4xp2", 5)]
    tracer = Tracer()
    tracer.install()
    try:
        p = workloads.Pass(speed.Meter(), tracer)
        start = time.perf_counter()
        workloads.ef_inverse_pass(p, ins)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    names = tracer.summary()["names"]
    assert names["linalg.rref"]["calls"] > 0
    assert sum(row["self_s"] for row in names.values()) <= wall
    assert all(row["failed"] == 0 for row in names.values())


def test_meter_samples_during_an_interval_and_discounts_its_samples():
    with speed.Meter() as meter:
        mark = meter.mark()
        end = time.monotonic() + 0.3
        while time.monotonic() < end:
            pass
        seconds = meter.since(mark)
    assert meter.ticked_s > 0
    assert len(meter.speeds) > 4
    wall = 0.3 - meter.ticked_s
    assert 0.2 * wall < seconds < 5 * wall


def _traced_cli_rep():
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--workload", "cli_verdicts",
         "--seed", "3", "--trace", "1", "--launched", repr(time.monotonic())],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_exact_counts_repeat_across_traced_runs():
    first, second = _traced_cli_rep(), _traced_cli_rep()
    assert first["failures"] == [] and second["failures"] == []
    counts = [{k: v for k, v in run.layer_metrics(rep).items() if k in run.EXACT} for rep in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["linalg.rref.cells"] > 0
    assert counts[0]["cli.stdout_bytes"] > 0
    assert first["cli_stdout"] == second["cli_stdout"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "axioms_ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
