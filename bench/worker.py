"""One timed repetition of one workload, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --trace 0|1 --launched T

T is the parent's time.monotonic() just before it started this process,
so setup_s runs from interpreter start until the inputs are ready.  Times
named *_s are rescaled to reference speed (speed.py); *_wall_s are raw.  A
fresh interpreter per repetition keeps the library's process-wide caches
cold without touching them.  The result is one JSON line on stdout.
"""

import argparse
import json
import os
import resource
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = os.path.join(ROOT, ".bench_build", "whk-bench")


def parse_args(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched", type=float, required=True)
    return parser.parse_args(argv)


def run(workload: str, seed: int, traced: bool, launched: float) -> dict:
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]
    import speed

    with speed.Meter() as meter:
        return measure(workload, seed, traced, launched, meter, meter.mark())


def measure(workload: str, seed: int, traced: bool, launched: float, meter, setup_mark) -> dict:
    """Set up and run one pass while meter samples the machine's speed."""
    import whk

    if not os.path.abspath(whk.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"whk was imported from {whk.__file__}, not from this checkout")
    tracer = None
    if traced:
        from spans import Tracer, merge

        tracer = Tracer()
        tracer.install()
    import inputs
    import workloads

    ins = [inputs.build(name, seed) for name in workloads.WORKLOAD_INPUTS[workload]]
    ctx = None
    if workload == "cli_verdicts":
        spans_dir = os.path.join(WORK_DIR, "cli-spans") if traced else None
        if spans_dir:
            os.makedirs(spans_dir, exist_ok=True)
        ctx = workloads.CliContext(ROOT, os.path.join(WORK_DIR, "docs"), spans_dir)
        workloads.write_cli_documents(ctx, ins)
    setup_wall_s = time.monotonic() - launched
    setup_s = meter.since(setup_mark, began=launched)

    p = workloads.Pass(meter, tracer)
    start = time.perf_counter()
    if ctx is None:
        workloads.PASSES[workload](p, ins)
    else:
        workloads.cli_pass(p, ins, ctx)
    pass_wall_s = time.perf_counter() - start

    who = resource.RUSAGE_SELF if ctx is None else resource.RUSAGE_CHILDREN
    result = {
        "setup_s": setup_s,
        "pass_s": p.seconds(),
        "largest_s": p.seconds_on(workloads.LARGEST[workload]),
        "setup_wall_s": setup_wall_s,
        "pass_wall_s": pass_wall_s,
        "speed": sum(meter.speeds) / len(meter.speeds),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "attempted": len(p.ops),
        "failures": [
            {"input": o.input, "op": o.name, "verdict": o.verdict, "expected": o.expected, "error": o.error}
            for o in p.ops if not o.ok
        ],
        "verdict_digest": p.verdict_digest(),
    }
    if ctx is not None:
        wall: dict[str, float] = {}
        for r in ctx.runs:
            wall[r.command] = wall.get(r.command, 0.0) + r.seconds
        result["cli_wall_s"] = wall
        result["cli_stdout_bytes"] = sum(len(r.stdout) for r in ctx.runs)
        result["cli_stdout"] = [workloads.sha256(r.stdout) for r in ctx.runs]
    if tracer is not None:
        tracer.uninstall()
        summaries = [tracer.summary()]
        if ctx is not None:
            for i in range(len(ctx.runs)):
                with open(ctx.spans_path(i), encoding="utf-8") as fh:
                    summaries.append(json.load(fh)["summary"])
        result["layers"] = merge(summaries)
        with open(os.path.join(WORK_DIR, f"spans-{workload}.json"), "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return result


def main() -> int:
    args = parse_args()
    os.makedirs(WORK_DIR, exist_ok=True)
    result = run(args.workload, args.seed, bool(args.trace), args.launched)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
