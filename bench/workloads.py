"""The four workloads: which operations run on which inputs, and the gate.

Each operation is timed on its own and its result is reduced to a small
verdict, which is compared with the value the pinned facts of the input
imply (see inputs.FACTS).  Only mathematical facts are pinned, never law
names or rendered text.  An operation that raises, whose verdict differs,
or whose CLI process prints a traceback counts as failed.

Library functions are reached through their modules (``wh.validate_wha``)
so that a Tracer installed after import sees these calls too.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

from whk import actions, coalgebra, convolution, corpus, fileio, groupoid, smash
from whk import weakhopf as wh

import inputs
import speed

WORKLOAD_INPUTS = {
    "axioms_ladder": ("c2_o3", "c3_o3", "h4xp2", "h4xh4"),
    "ef_inverse": ("c2_o3", "h4xp2", "h4xh4", "c3_o3"),
    "smash_battery": ("c2_o3", "c3_o3", "h4xh4", "iso_union"),
    "cli_verdicts": ("h4xp2", "c2_o3"),
}

# The top rung of each workload's ladder, timed on its own as largest_s.
LARGEST = {
    "axioms_ladder": "c3_o3",
    "ef_inverse": "c3_o3",
    "smash_battery": "c3_o3",
    "cli_verdicts": "c2_o3",
}

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(BENCH_DIR, "cli_launcher.py")


@dataclass
class Op:
    input: str
    name: str
    seconds: float  # wall time rescaled to reference speed (speed.py)
    verdict: object
    expected: object
    error: str | None

    @property
    def ok(self) -> bool:
        return self.error is None and self.verdict == self.expected


@dataclass
class Pass:
    """Runs operations one at a time and records each against its pin."""

    meter: speed.Meter
    tracer: object = None
    ops: list[Op] = field(default_factory=list)

    def op(self, input_name: str, name: str, fn, verdict_of, expected):
        if self.tracer is not None:
            self.tracer.input_id = input_name
        error = None
        value = None
        mark = self.meter.mark()
        try:
            value = fn() if self.tracer is None else self.tracer.span(f"op.{name}", fn)
        except Exception as exc:  # a raising operation is a failed operation
            error = f"{type(exc).__name__}: {exc}"
        seconds = self.meter.since(mark)
        verdict = None
        if error is None:
            try:
                verdict = _jsonable(verdict_of(value))
            except Exception as exc:
                error = f"verdict {type(exc).__name__}: {exc}"
        self.ops.append(Op(input_name, name, seconds, verdict, _jsonable(expected), error))
        return value

    def verdict_digest(self) -> str:
        rows = [[o.input, o.name, o.verdict] for o in self.ops]
        return sha256(json.dumps(rows, sort_keys=True).encode())

    def seconds(self) -> float:
        return sum(o.seconds for o in self.ops)

    def seconds_on(self, input_name: str) -> float:
        return sum(o.seconds for o in self.ops if o.input == input_name)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _jsonable(value):
    return json.loads(json.dumps(value))


def _cold_caches_first(p: Pass, inp: inputs.Input) -> None:
    """Fill the cached layers explicitly, so their work is attributed to them."""
    f = inp.facts
    p.op(inp.name, "counital_data", lambda: wh.counital_data(inp.wha),
         lambda cd: (cd.h_t.dim, cd.h_s.dim), (f.h_t_dim, f.h_s_dim))
    p.op(inp.name, "coradical_filtration", lambda: coalgebra.coradical_filtration(inp.wha.coalg),
         lambda fl: fl.length, f.filtration_length)


def axioms_pass(p: Pass, ins: list[inputs.Input]) -> None:
    for inp in ins:
        h, f = inp.wha, inp.facts
        _cold_caches_first(p, inp)
        p.op(inp.name, "validate_wha", lambda: wh.validate_wha(h), lambda r: r.ok, True)
        p.op(inp.name, "counital_identities", lambda: wh.counital_identities(h), lambda r: r.ok, True)
        p.op(inp.name, "antipode_props", lambda: wh.antipode_props(h), lambda r: r.ok, True)
        p.op(inp.name, "is_quantum_commutative", lambda: wh.is_quantum_commutative(h),
             lambda qc: qc, (f.quantum_commutative, f.quantum_commutative))
        p.op(inp.name, "filtration_crosscheck", lambda: coalgebra.filtration_crosscheck(h.coalg),
             lambda same: same, True)


def ef_inverse_pass(p: Pass, ins: list[inputs.Input]) -> None:
    for inp in ins:
        h = inp.wha
        _cold_caches_first(p, inp)
        maps = lambda: (wh.identity_conv(h), wh.eps_t_conv(h), wh.eps_s_conv(h))
        is_antipode = lambda v: v is not None and v.matrix == h.antipode
        p.op(inp.name, "ef_inverse_solve", lambda: convolution.ef_inverse_solve(*maps()), is_antipode, True)
        if inp.name != LARGEST["ef_inverse"]:
            p.op(inp.name, "ef_inverse_via_series", lambda: convolution.ef_inverse_via_series(*maps()),
                 is_antipode, True)


def smash_pass(p: Pass, ins: list[inputs.Input]) -> None:
    for inp in ins:
        h, f = inp.wha, inp.facts
        _cold_caches_first(p, inp)
        m = p.op(inp.name, "ht_module_action", lambda: actions.ht_module_action(h),
                 lambda m: m.alg.dim, f.h_t_dim)
        p.op(inp.name, "validate_module_algebra", lambda: actions.validate_module_algebra(m),
             lambda r: r.ok, True)
        s = p.op(inp.name, "build_smash", lambda: smash.build_smash(m), lambda s: True, True)
        p.op(inp.name, "embeddings_check", lambda: smash.embeddings_check(s), lambda ok: ok, True)
        p.op(inp.name, "smash_inner_battery", lambda: smash.smash_inner_battery(s),
             lambda b: (b.all_equal(), b.module_algebra), (True, f.quantum_commutative))
        p.op(inp.name, "inner_action_battery",
             lambda: actions.inner_action_battery(actions.adjoint_data(h)),
             lambda b: list(b.violations()), [])
        if inp.groupoid is not None:
            p.op(inp.name, "isotropy_action_check",
                 lambda: groupoid.isotropy_action_check(inp.groupoid, m),
                 lambda pair: pair, (f.isotropy_union, f.isotropy_union))


@dataclass
class CliRun:
    command: str
    exit_code: int
    stdout: bytes
    stderr: bytes
    seconds: float


@dataclass
class CliContext:
    """What cli_verdicts needs beyond the inputs: where documents live,
    how to start the CLI, and what each command printed."""

    root: str
    docs: str
    spans_dir: str | None
    runs: list[CliRun] = field(default_factory=list)

    def path(self, name: str) -> str:
        return os.path.join(self.docs, name)

    def spans_path(self, i: int) -> str:
        return os.path.join(self.spans_dir, f"cli-{i}.json")

    def run(self, argv: list[str]) -> CliRun:
        spans = "-" if self.spans_dir is None else self.spans_path(len(self.runs))
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, LAUNCHER, spans, *argv, "--format", "json"],
            cwd=self.root, env=env, capture_output=True, timeout=120,
        )
        run = CliRun(argv[0], done.returncode, done.stdout, done.stderr, time.perf_counter() - start)
        self.runs.append(run)
        return run


def write_cli_documents(ctx: CliContext, ins: list[inputs.Input]) -> None:
    """Serialise each input, its target action and the c2_o3 mutants."""
    os.makedirs(ctx.docs, exist_ok=True)
    docs = {}
    for inp in ins:
        docs[f"{inp.name}.json"] = inp.wha
        docs[f"{inp.name}-action.json"] = actions.ht_module_action(inp.wha)
        if inp.groupoid is not None:
            docs[f"{inp.name}-groupoid.json"] = inp.groupoid
    c2 = next(inp for inp in ins if inp.name == "c2_o3")
    for mutation in corpus.MUTATIONS:
        docs[f"c2_o3-{mutation}.json"] = corpus.apply_mutation(c2.wha, mutation)
    for name, obj in docs.items():
        with open(ctx.path(name), "w", encoding="utf-8") as fh:
            fh.write(fileio.dumps(obj))


def _cli_verdict(extra):
    def verdict(run: CliRun):
        payload = json.loads(run.stdout)
        return [run.exit_code, b"Traceback" in run.stderr, *extra(payload)]
    return verdict


def cli_pass(p: Pass, ins: list[inputs.Input], ctx: CliContext) -> None:
    for inp in ins:
        f = inp.facts
        doc = ctx.path(f"{inp.name}.json")
        action = ctx.path(f"{inp.name}-action.json")
        smash_base = ctx.path(f"{inp.name}-groupoid.json") if inp.groupoid is not None else doc
        antipode = [[fileio.scalar_str(x) for x in row] for row in inp.wha.antipode.entries]
        p.op(inp.name, "cli.validate", lambda: ctx.run(["validate", doc]),
             _cli_verdict(lambda d: []), [0, False])
        p.op(inp.name, "cli.analyze", lambda: ctx.run(["analyze", doc]),
             _cli_verdict(lambda d: [d["target_subalgebra_dim"], d["source_subalgebra_dim"],
                                     d["quantum_commutative_pairwise"], d["quantum_commutative_central"],
                                     d["coradical_filtration_length"]]),
             [0, False, f.h_t_dim, f.h_s_dim, f.quantum_commutative, f.quantum_commutative,
              f.filtration_length])
        p.op(inp.name, "cli.ef-inverse",
             lambda: ctx.run(["ef-inverse", doc, "--u", "id", "--e", "eps_t", "--f", "eps_s",
                              "--method", "both"]),
             _cli_verdict(lambda d: [d["inverse"] == antipode]), [0, False, True])
        p.op(inp.name, "cli.smash", lambda: ctx.run(["smash", smash_base, action, "--battery"]),
             _cli_verdict(lambda d: [d["battery"]["all_equal"], d["battery"]["module_algebra"],
                                     d.get("isotropy_disjoint_union")]),
             [0, False, True, f.quantum_commutative, f.isotropy_union])
    p.op("corpus", "cli.corpus", lambda: ctx.run(["corpus", "--run-all"]),
         _cli_verdict(lambda d: []), [0, False])
    for mutation in corpus.MUTATIONS:
        p.op(f"c2_o3-{mutation}", "cli.validate",
             lambda: ctx.run(["validate", ctx.path(f"c2_o3-{mutation}.json")]),
             _cli_verdict(lambda d: []), [1, False])


PASSES = {
    "axioms_ladder": axioms_pass,
    "ef_inverse": ef_inverse_pass,
    "smash_battery": smash_pass,
}
