"""The whk benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs repetitions of the workload's pass, each in a fresh interpreter
(bench/worker.py), one at a time, until S seconds have passed (at least
MIN_REPS of them); it does not start a repetition that would likely end
after S seconds.  Every operation's verdict is checked against pinned
facts; verdicts and CLI stdout must also be identical across repetitions.

--trace 0 reports the end-to-end metrics (medians over repetitions), with
times rescaled to the speed of a fixed reference loop (speed.py).
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones, plus the tracing overhead.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("axioms_ladder", "ef_inverse", "smash_battery", "cli_verdicts")
MIN_REPS = 2
MAX_REP_SECONDS = 80
END_TO_END = (("pass_s", "s"), ("largest_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
CLI_COMMANDS = ("validate", "analyze", "ef-inverse", "smash", "corpus")

# Per-layer metrics: (metric name, span name, summary field).
SPAN_METRICS = (
    ("linalg.rref.calls", "linalg.rref", "calls"),
    ("linalg.rref.self_s", "linalg.rref", "self_s"),
    ("linalg.kernel.calls", "linalg.kernel", "calls"),
    ("linalg.solve_affine.total_s", "linalg.solve_affine", "total_s"),
    ("linalg.invert.calls", "linalg.invert", "calls"),
    ("weakhopf.validate_wha.self_s", "weakhopf.validate_wha", "self_s"),
    ("algebra.validate_algebra.self_s", "algebra.validate_algebra", "self_s"),
    ("coalgebra.validate_coalgebra.self_s", "coalgebra.validate_coalgebra", "self_s"),
    ("weakhopf.counital_identities.self_s", "weakhopf.counital_identities", "self_s"),
    ("weakhopf.antipode_props.self_s", "weakhopf.antipode_props", "self_s"),
    ("weakhopf.is_quantum_commutative.self_s", "weakhopf.is_quantum_commutative", "self_s"),
    ("coalgebra.coradical_filtration.total_s", "coalgebra.coradical_filtration", "total_s"),
    ("coalgebra.dual_radical_filtration.total_s", "coalgebra.dual_radical_filtration", "total_s"),
    ("algebra.jacobson_radical.total_s", "algebra.jacobson_radical", "total_s"),
    ("weakhopf.counital_data.calls", "weakhopf.counital_data", "calls"),
    ("weakhopf.counital_data.total_s", "weakhopf.counital_data", "total_s"),
    ("convolution.ef_inverse_solution_space.self_s", "convolution.ef_inverse_solution_space", "self_s"),
    ("convolution.ef_inverse_solve.total_s", "convolution.ef_inverse_solve", "total_s"),
    ("convolution.ef_inverse_via_series.total_s", "convolution.ef_inverse_via_series", "total_s"),
    ("convolution.convolve.calls", "convolution.convolve", "calls"),
    ("convolution.convolve.self_s", "convolution.convolve", "self_s"),
    ("actions.validate_module_algebra.self_s", "actions.validate_module_algebra", "self_s"),
    ("actions.inner_action_battery.self_s", "actions.inner_action_battery", "self_s"),
    ("actions.inner_action_from.total_s", "actions.inner_action_from", "total_s"),
    ("smash.build_smash.self_s", "smash.build_smash", "self_s"),
    ("smash.right_ht_action.calls", "smash.right_ht_action", "calls"),
    ("smash.right_ht_action.total_s", "smash.right_ht_action", "total_s"),
    ("smash.smash_inner_battery.self_s", "smash.smash_inner_battery", "self_s"),
    ("smash.embeddings_check.total_s", "smash.embeddings_check", "total_s"),
    ("groupoid.groupoid_algebra.total_s", "groupoid.groupoid_algebra", "total_s"),
    ("fileio.dumps.total_s", "fileio.dumps", "total_s"),
    ("fileio.load_path.total_s", "fileio.load_path", "total_s"),
    ("report.ReportBuilder.record_failure.calls", "report.ReportBuilder.record_failure", "calls"),
)
# Per-layer metrics that must repeat exactly from one traced repetition to the next.
EXACT = tuple(name for name, _, field in SPAN_METRICS if field == "calls") + (
    "linalg.rref.cells",
    "cli.stdout_bytes",
    "trace.failed_spans",
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def repetition(workload: str, seed: int, traced: bool) -> dict:
    """One fresh-interpreter pass; raises if the worker itself breaks."""
    launched = time.monotonic()
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(int(traced)), "--launched", repr(launched)],
        cwd=ROOT, capture_output=True, text=True, timeout=MAX_REP_SECONDS,
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker exited {done.returncode}:\n{done.stderr[-4000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def layer_metrics(rep: dict) -> dict[str, float]:
    names = rep["layers"]["names"]
    zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "failed": 0}
    out = {metric: names.get(span, zero)[field] for metric, span, field in SPAN_METRICS}
    out["linalg.rref.cells"] = rep["layers"]["rref_cells"]
    for command in CLI_COMMANDS:
        out[f"cli.{command}.wall_s"] = rep.get("cli_wall_s", {}).get(command, 0.0)
    out["cli.stdout_bytes"] = rep.get("cli_stdout_bytes", 0)
    out["trace.failed_spans"] = sum(row["failed"] for row in names.values())
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_bytes"):
        return "B"
    return "count" if name in EXACT else "s"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "whk", "__init__.py")):
        print(f"error: no whk sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    compileall.compile_dir(BENCH_DIR, quiet=1, maxlevels=0)
    # One CPU for this process and every child, so that the reference samples
    # (speed.py) see the speed of the CPU the operations run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    plain: list[dict] = []
    traced: list[dict] = []
    durations: list[float] = []
    start = time.monotonic()
    # Stop before a repetition that would likely end after --seconds.
    while len(durations) < (1 if args.trace else MIN_REPS) or (
        time.monotonic() - start + statistics.median(durations) <= args.seconds
    ):
        began = time.monotonic()
        try:
            plain.append(repetition(args.workload, args.seed, False))
            if args.trace:
                traced.append(repetition(args.workload, args.seed, True))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        durations.append(time.monotonic() - began)

    reps = plain + traced
    failures = [f for rep in reps for f in rep["failures"]]
    attempted = sum(rep["attempted"] for rep in reps)
    problems = [f"failed op: {json.dumps(f, sort_keys=True)}" for f in failures[:20]]
    if len({rep["verdict_digest"] for rep in reps}) != 1:
        problems.append("verdicts differ between repetitions")
    if len({tuple(rep.get("cli_stdout", ())) for rep in reps}) != 1:
        problems.append("CLI stdout differs between repetitions")

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced"
          f"{f' and {len(traced)} traced' if traced else ''} repetitions, one fresh interpreter each;"
          f" verdict digest {plain[0]['verdict_digest'][:16]}")
    if args.trace:
        layers = [layer_metrics(rep) for rep in traced]
        for name in EXACT:
            if len({m[name] for m in layers}) != 1:
                problems.append(f"exact count {name} differs between traced repetitions")
        metrics = {
            name: {"value": layers[0][name] if name in EXACT else statistics.median(m[name] for m in layers),
                   "unit": layer_unit(name)}
            for name in layers[0]
        }
        overhead = statistics.median(r["pass_s"] for r in traced) - statistics.median(r["pass_s"] for r in plain)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        shares = sorted(((v["value"], k) for k, v in metrics.items() if k.endswith(".self_s")), reverse=True)
        print("  largest self times: " + ", ".join(f"{k} {v:.3f} s" for v, k in shares[:5]))
        print(f"  tracing overhead: {overhead:.3f} s on an untraced pass of "
              f"{statistics.median(r['pass_s'] for r in plain):.3f} s")
    else:
        metrics = {}
        for name, unit in END_TO_END:
            values = [rep[name] for rep in plain]
            q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
            metrics[name] = {"value": med, "unit": unit}
            print(f"  {name:<12} median {med:.4f} {unit}  q1 {q1:.4f}  q3 {q3:.4f}  (n={len(values)})")
        raw = {name: statistics.median(rep[name] for rep in plain) for name in ("pass_wall_s", "setup_wall_s", "speed")}
        print(f"  unscaled wall time: pass {raw['pass_wall_s']:.4f} s, setup {raw['setup_wall_s']:.4f} s;"
              f" machine speed {raw['speed']:.3f} of reference")
    print(f"  failed_ops   {len(failures)}/{attempted} = {len(failures) / attempted:.4f}")
    for line in problems:
        print(f"  PROBLEM {line}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
