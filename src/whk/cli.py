"""Command-line front end.

    whk validate <file>
    whk analyze <file>
    whk ef-inverse <file> --u <map> --e <map> --f <map> [--method solve|series|both]
    whk smash <wha> <action> [--battery]
    whk corpus --run-all [--only filter] [--format json]

File arguments are paths to JSON documents or builtin:<name> tokens.
Exit codes: 0 all checks pass, 1 a mathematical check fails (including an
internal consistency condition that corrupt input breaks), 2 unusable input
or usage error; a reader that closes the output pipe early ends the run
quietly with exit code 1.  The environment variable WHK_THREADS is validated as a
positive integer and otherwise unused: evaluation is single-threaded and
deterministic.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import corpus as corpus_mod
from .actions import adjoint_data, inner_action_battery, is_module_algebra, validate_module_algebra
from .algebra import validate_algebra
from .coalgebra import coradical_filtration, filtration_crosscheck, validate_coalgebra
from .convolution import (
    ConvMap,
    conv_unit,
    ef_inverse_solve,
    ef_inverse_via_series,
)
from .errors import InvariantViolation, ParseError, PreconditionError
from .fileio import load_path, parse_conv_matrix, read_json, scalar_str
from .groupoid import (
    FiniteGroupoid,
    groupoid_algebra,
    is_isotropy_disjoint_union,
    validate_groupoid,
)
from .linalg import Mat
from .report import Report, ReportBuilder
from .smash import build_smash, smash_inner_battery
from .weakhopf import (
    WeakHopfAlgebra,
    antipode_conv,
    antipode_props,
    counital_data,
    counital_identities,
    eps_s_conv,
    eps_t_conv,
    identity_conv,
    is_quantum_commutative,
    validate_wha,
)

EXIT_PASS = 0
EXIT_MATH_FAIL = 1
EXIT_USAGE = 2


def thread_cap() -> int:
    raw = os.environ.get("WHK_THREADS")
    if raw is None:
        return 1
    try:
        cap = int(raw)
    except ValueError:
        raise ParseError(f"WHK_THREADS must be a positive integer, got {raw!r}") from None
    if cap < 1:
        raise ParseError(f"WHK_THREADS must be a positive integer, got {raw!r}")
    return cap


def resolve_input(token: str):
    if token.startswith("builtin:"):
        return corpus_mod.resolve_builtin(token[len("builtin:") :])
    return load_path(token)


def emit(payload: dict, report: Report | None, fmt: str) -> None:
    if fmt == "json":
        doc = dict(payload)
        if report is not None:
            doc.update(report.to_dict())
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        return
    for key, value in payload.items():
        print(f"{key}: {value}")
    if report is not None:
        print(report.render())


def cmd_validate(args: argparse.Namespace) -> int:
    kind, obj = resolve_input(args.file)
    if kind == "algebra":
        report = validate_algebra(obj)
    elif kind == "coalgebra":
        report = validate_coalgebra(obj)
    elif kind == "weak_hopf":
        report = validate_wha(obj)
        if report.ok:
            report = report.merged(counital_identities(obj)).merged(antipode_props(obj))
    elif kind == "module_action":
        _weak_hopf(obj.hopf)
        report = validate_module_algebra(obj)
    elif kind == "groupoid":
        report = validate_groupoid(obj)
    else:
        raise ParseError(f"cannot validate documents of kind {kind!r}")
    emit({"command": "validate", "kind": kind}, report, args.format)
    return EXIT_PASS if report.ok else EXIT_MATH_FAIL


def _weak_hopf(wha: WeakHopfAlgebra) -> WeakHopfAlgebra:
    """wha itself if it passes the axiom battery; otherwise exit 1 with the failed axioms."""
    axioms = validate_wha(wha)
    if not axioms.ok:
        raise InvariantViolation("not a weak Hopf algebra: " + ", ".join(axioms.failed_names()))
    return wha


def _weak_hopf_input(token: str, wrong_kind: str) -> tuple[FiniteGroupoid | None, WeakHopfAlgebra]:
    """The groupoid, if any, and the weak Hopf algebra of a weak_hopf or groupoid
    document that passes the axiom battery."""
    kind, obj = resolve_input(token)
    if kind == "groupoid":
        if not obj.morphisms:  # a valid table, but no weak Hopf algebra: unusable input, as "dim": 0 is
            raise ParseError("groupoid has no morphisms: its algebra would have dimension 0")
        return obj, _weak_hopf(groupoid_algebra(obj))
    if kind == "weak_hopf":
        return None, _weak_hopf(obj)
    raise ParseError(wrong_kind)


def cmd_analyze(args: argparse.Namespace) -> int:
    _, wha = _weak_hopf_input(args.file, "analyze expects a weak_hopf or groupoid document")
    cd = counital_data(wha)
    qc = is_quantum_commutative(wha)
    filtration = coradical_filtration(wha.coalg)
    payload = {
        "command": "analyze",
        "dim": wha.dim,
        "target_subalgebra_dim": cd.h_t.dim,
        "source_subalgebra_dim": cd.h_s.dim,
        "center_dim": wha.alg.center.dim,
        "quantum_commutative_pairwise": qc[0],
        "quantum_commutative_central": qc[1],
        "coradical_filtration_length": filtration.length,
    }
    rb = ReportBuilder()
    rb.add("quantum_commutativity_criteria_agree", qc[0] == qc[1])
    report = rb.build()
    emit(payload, report, args.format)
    return EXIT_PASS if report.ok else EXIT_MATH_FAIL


_NAMED_MAPS = ("id", "antipode", "eps_t", "eps_s", "conv_unit", "zero")


def _conv_map_for(token: str, wha: WeakHopfAlgebra) -> ConvMap:
    if token == "id":
        return identity_conv(wha)
    if token == "antipode":
        return antipode_conv(wha)
    if token == "eps_t":
        return eps_t_conv(wha)
    if token == "eps_s":
        return eps_s_conv(wha)
    if token == "conv_unit":
        return conv_unit(wha.coalg, wha.alg)
    if token == "zero":
        return ConvMap(wha.coalg, wha.alg, Mat.zero(wha.dim, wha.dim))
    try:
        doc = read_json(token)
    except ParseError as exc:
        raise ParseError(
            f"{token!r} is neither a named map ({', '.join(_NAMED_MAPS)}) nor a readable conv_map file: {exc}"
        ) from None
    if not isinstance(doc, dict) or doc.get("kind") != "conv_map":
        raise ParseError(f"{token!r} must contain a conv_map document")
    return parse_conv_matrix(doc, wha.coalg, wha.alg)


def cmd_ef_inverse(args: argparse.Namespace) -> int:
    _, wha = _weak_hopf_input(args.file, "ef-inverse expects a weak_hopf or groupoid context document")
    u = _conv_map_for(args.u, wha)
    e = _conv_map_for(args.e, wha)
    f = _conv_map_for(args.f, wha)

    try:
        if args.method == "solve":
            result = ef_inverse_solve(u, e, f)
        elif args.method == "series":
            result = ef_inverse_via_series(u, e, f)
        else:
            solved = ef_inverse_solve(u, e, f)
            result = ef_inverse_via_series(u, e, f)
            if (solved is None) != (result is None) or (
                solved is not None and solved != result
            ):
                raise PreconditionError("solve and series disagree")
    except PreconditionError as exc:
        emit({"command": "ef-inverse", "error": str(exc)}, None, args.format)
        return EXIT_MATH_FAIL

    rb = ReportBuilder()
    rb.add("ef_invertible", result is not None)
    report = rb.build()
    if result is None:
        payload = {"command": "ef-inverse", "inverse": "none"}
    else:
        payload = {
            "command": "ef-inverse",
            "inverse": [[scalar_str(x) for x in row] for row in result.matrix.entries],
        }
    emit(payload, report, args.format)
    return EXIT_PASS if report.ok else EXIT_MATH_FAIL


def cmd_smash(args: argparse.Namespace) -> int:
    grp, wha = _weak_hopf_input(args.wha, "smash expects a weak_hopf or groupoid document first")
    name = args.wha[len("builtin:") :] if args.wha.startswith("builtin:") else None
    if grp is None and name in corpus_mod.WHA_NAMES:
        grp = corpus_mod.corpus_entry(name).groupoid
    akind, action = resolve_input(args.action)
    if akind != "module_action":
        raise ParseError("smash expects a module_action document second")
    if action.hopf != wha:
        raise ParseError("the action is not defined over the given weak Hopf algebra")

    try:
        smash = build_smash(action)
    except PreconditionError as exc:
        emit({"command": "smash", "error": str(exc)}, None, args.format)
        return EXIT_MATH_FAIL

    payload: dict = {"command": "smash", "quotient_dim": smash.dim}
    rb = ReportBuilder()
    rb.add("well_defined_quotient", True)
    if args.battery:
        battery = smash_inner_battery(smash)
        payload["battery"] = battery.to_dict() if args.format == "json" else str(battery.booleans())
        rb.add("five_way_coherence", battery.all_equal())
        if grp is not None:
            isotropy = is_isotropy_disjoint_union(grp)
            payload["isotropy_disjoint_union"] = isotropy
            rb.add("conjugation_matches_isotropy_shape", battery.module_algebra == isotropy)
    report = rb.build()
    emit(payload, report, args.format)
    return EXIT_PASS if report.ok else EXIT_MATH_FAIL


def corpus_member_report(entry: corpus_mod.CorpusEntry, wha: WeakHopfAlgebra | None = None) -> Report:
    """The full per-member battery used by `whk corpus --run-all`."""
    rb = ReportBuilder()
    name = entry.name
    wha = wha if wha is not None else entry.wha
    axioms = validate_wha(wha)
    rb.add(f"{name}.axioms", axioms.ok)
    if not axioms.ok:
        for item in axioms.failures()[:3]:
            rb.add(f"{name}.axioms.{item.name}", False, item.counterexample)
        return rb.build()

    rb.add(f"{name}.counital_identities", counital_identities(wha).ok)
    rb.add(f"{name}.antipode_properties", antipode_props(wha).ok)

    solved = ef_inverse_solve(identity_conv(wha), eps_t_conv(wha), eps_s_conv(wha))
    rb.add(f"{name}.antipode_is_counital_inverse", solved is not None and solved.matrix == wha.antipode)

    qc = is_quantum_commutative(wha)
    rb.add(f"{name}.quantum_commutativity_criteria_agree", qc[0] == qc[1])

    rb.add(f"{name}.filtration_crosscheck", filtration_crosscheck(wha.coalg))

    action = entry.ht_action if wha == entry.wha else None
    if action is not None:
        rb.add(f"{name}.target_action_valid", is_module_algebra(action))
        smash = build_smash(action)
        battery = smash_inner_battery(smash)
        rb.add(f"{name}.five_way_coherence", battery.all_equal())
        rb.add(f"{name}.smash_matches_quantum_commutativity", battery.module_algebra == qc[0])
        adj = inner_action_battery(adjoint_data(wha))
        rb.add(f"{name}.inner_action_battery_coherent", not adj.violations())
    return rb.build()


def cmd_corpus(args: argparse.Namespace) -> int:
    if not args.run_all:
        raise ParseError("corpus requires --run-all")
    names = [n for n in corpus_mod.WHA_NAMES if args.only is None or args.only in n]
    rb = ReportBuilder()
    if not names:
        print("warning: corpus filter matched nothing; vacuous pass", file=sys.stderr)
    for name in names:
        entry = corpus_mod.corpus_entry(name)
        wha = entry.wha
        if args.mutate is not None:
            wha = corpus_mod.apply_mutation(wha, args.mutate)
        rb.extend(corpus_member_report(entry, wha))
    if args.only is None and args.mutate is None:
        rb.add("sw2.filtration_crosscheck", filtration_crosscheck(corpus_mod.sw2_coalgebra()))
    report = rb.build()
    emit({"command": "corpus", "members": ",".join(names)}, report, args.format)
    return EXIT_PASS if report.ok else EXIT_MATH_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="whk",
        description="Exact computations with finite-dimensional weak Hopf algebras.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="run the axiom battery for a document")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", parents=[common], help="counital subalgebras, centre, commutativity, filtration")
    p.add_argument("file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("ef-inverse", parents=[common], help="counital inverse of a convolution map")
    p.add_argument("file")
    p.add_argument("--u", required=True)
    p.add_argument("--e", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--method", choices=("solve", "series", "both"), default="solve")
    p.set_defaults(func=cmd_ef_inverse)

    p = sub.add_parser("smash", parents=[common], help="build a smash product and run its battery")
    p.add_argument("wha")
    p.add_argument("action")
    p.add_argument("--battery", action="store_true")
    p.set_defaults(func=cmd_smash)

    p = sub.add_parser("corpus", parents=[common], help="run the builtin corpus suite")
    p.add_argument("--run-all", action="store_true")
    p.add_argument("--only", default=None)
    p.add_argument("--mutate", default=None, choices=corpus_mod.MUTATIONS)
    p.set_defaults(func=cmd_corpus)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        thread_cap()
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader has gone (`whk ... | head`): point stdout at devnull so the
        # flush at exit stays quiet, and exit 1 as Python does on EPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_MATH_FAIL
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InvariantViolation, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH_FAIL


if __name__ == "__main__":
    sys.exit(main())
