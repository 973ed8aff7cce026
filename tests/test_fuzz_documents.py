"""Mutated documents never crash the CLI.

A hypothesis strategy edits the JSON of corpus documents: it drops or
duplicates object keys, changes "dim" or "kind", swaps a value for a
random JSON value, and nests or truncates lists.  Every subcommand that
reads a document then runs on the result through `cli.main`, and each run
must exit 0, 1 or 2, raise nothing but `SystemExit` (argparse's way out),
print no traceback, print at most one stderr line when it exits 2, and
print at most `report.SHOWN` counterexamples of any one check.
The `corpus` subcommand reads no document and is not run here.

The documents are corpus members and two bench inputs at seed 7, h4xp2
(dim 16) and c2_o3 (dim 18), with their H_t actions.  A command that reads
a second structure beside the mutated document reads the corpus builtin,
or for a bench input its written, unmutated document.
"""

import io
import json
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from whk.actions import ht_module_action
from whk.cli import main
from whk.corpus import WHA_NAMES, corpus_entry
from whk.fileio import KINDS, document_for, dumps
from whk.report import SHOWN
from whk.weakhopf import antipode_conv

from test_oracles import load_bench_inputs


class Obj(list):
    """A JSON object as its list of [key, value] pairs, so that a key can occur twice."""


def tree(value):
    if isinstance(value, dict):
        return Obj([k, tree(v)] for k, v in value.items())
    if isinstance(value, list):
        return [tree(v) for v in value]
    return value


def render(node) -> str:
    if isinstance(node, Obj):
        return "{" + ",".join(f"{json.dumps(k)}:{render(v)}" for k, v in node) + "}"
    if isinstance(node, list):
        return "[" + ",".join(map(render, node)) + "]"
    return json.dumps(node)


def slots(node):
    """(container, position) of every value below node, its own included, depth first."""
    out = []
    if isinstance(node, Obj):
        for pair in node:
            out.append((pair, 1))
            out.extend(slots(pair[1]))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            out.append((node, i))
            out.extend(slots(v))
    return out


LITERALS = st.sampled_from(["0", "1", "-1", "2", "1/2", "-2/3"])  # a swap to one of these still parses
SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(["1/0", "01", " 1", *KINDS]) | LITERALS
)
JSON_VALUES = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def mutate(data, doc: Obj) -> None:
    """One edit of doc, in place."""
    found = slots(doc)
    objects = [o for o in [doc] + [c[p] for c, p in found] if isinstance(o, Obj) and o]
    lists = [(c, p) for c, p in found if type(c[p]) is list]
    leaves = [(c, p) for c, p in found if not isinstance(c[p], list)]
    edit = data.draw(st.sampled_from(["drop", "duplicate", "dim", "kind", "swap", "nest", "truncate"]))
    if edit in ("drop", "duplicate") and objects:
        obj = data.draw(st.sampled_from(objects))
        i = data.draw(st.integers(0, len(obj) - 1))
        if edit == "drop":
            del obj[i]
        else:
            value = data.draw(st.sampled_from([obj[i][1]]) | JSON_VALUES.map(tree))
            obj.insert(data.draw(st.integers(0, len(obj))), [obj[i][0], value])
    elif edit in ("dim", "kind"):
        pairs = [c for c, _ in found if isinstance(c, list) and len(c) == 2 and c[0] == edit] or [None]
        pair = data.draw(st.sampled_from(pairs))
        value = tree(data.draw(JSON_VALUES | (st.integers() if edit == "dim" else st.sampled_from(KINDS))))
        if pair is None:
            doc.append([edit, value])
        else:
            pair[1] = value
    elif edit == "swap" and leaves:
        c, p = data.draw(st.sampled_from(leaves))
        c[p] = tree(data.draw(LITERALS | JSON_VALUES))
    elif edit in ("nest", "truncate") and lists:
        c, p = data.draw(st.sampled_from(lists))
        c[p] = [c[p]] if edit == "nest" else c[p][: data.draw(st.integers(0, max(len(c[p]) - 1, 0)))]


def run(argv) -> None:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    err, out = err.getvalue(), out.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err and "Traceback" not in out, (argv, err)
    shown = Counter(line.split(": FAIL at (")[0] for line in out.splitlines() if ": FAIL at (" in line)
    assert max(shown.values(), default=0) <= SHOWN, (argv, shown)
    if code == 2:
        assert err.count("\n") <= 1, (argv, err)


def commands(kind: str, path: str, wha: str, action: str) -> list[list[str]]:
    """Every run of a subcommand that reads the mutated document at path, with wha and
    action as the references of the weak Hopf algebra and its H_t action."""
    if kind == "conv_map":
        return [["validate", path], ["ef-inverse", wha, "--u", path, "--e", "eps_t", "--f", "eps_s",
                                     "--method", "both"]]
    if kind == "module_action":
        return [["validate", path], ["smash", wha, path, "--battery"]]
    return [
        ["validate", path],
        ["analyze", path],
        ["ef-inverse", path, "--u", "id", "--e", "eps_t", "--f", "eps_s", "--method", "both"],
        ["smash", path, action, "--battery"],
    ]


def bench_wha(name: str):
    return load_bench_inputs().build(name, 7).wha


def references(name: str, directory) -> tuple[str, str]:
    """The weak Hopf algebra and H_t action read beside a mutated document: builtins for a
    corpus member, the written documents of the seed-7 input for a bench input."""
    if name in WHA_NAMES:
        return f"builtin:{name}", f"builtin:{name}-ht-action"
    h = bench_wha(name)
    paths = directory / f"{name}.json", directory / f"{name}-ht-action.json"
    for path, structure in zip(paths, (h, ht_module_action(h))):
        path.write_text(dumps(structure), encoding="utf-8")
    return str(paths[0]), str(paths[1])


DOCUMENTS = {  # label: (kind, corpus or bench name, structure, max_examples)
    "p2-weak_hopf": ("weak_hopf", "p2", lambda: corpus_entry("p2").wha, 40),
    "qc2-weak_hopf": ("weak_hopf", "qc2", lambda: corpus_entry("qc2").wha, 40),
    # dim 6: a corruption here can fail a law on more than SHOWN tuples
    "qs3-weak_hopf": ("weak_hopf", "qs3", lambda: corpus_entry("qs3").wha, 40),
    "p2-groupoid": ("groupoid", "p2", lambda: corpus_entry("p2").groupoid, 40),
    "qc2-groupoid": ("groupoid", "qc2", lambda: corpus_entry("qc2").groupoid, 40),
    "p2-module_action": ("module_action", "p2", lambda: corpus_entry("p2").ht_action, 40),
    "p2-conv_map": ("conv_map", "p2", lambda: antipode_conv(corpus_entry("p2").wha), 40),
    # dims 16 and 18: 10 examples, about 0.5 s per document (2-vCPU host, Python 3.11)
    "h4xp2-weak_hopf": ("weak_hopf", "h4xp2", lambda: bench_wha("h4xp2"), 10),
    "h4xp2-module_action": ("module_action", "h4xp2", lambda: ht_module_action(bench_wha("h4xp2")), 10),
    "c2_o3-weak_hopf": ("weak_hopf", "c2_o3", lambda: bench_wha("c2_o3"), 10),
    "c2_o3-module_action": ("module_action", "c2_o3", lambda: ht_module_action(bench_wha("c2_o3")), 10),
}


@pytest.mark.parametrize("label", list(DOCUMENTS))
def test_mutated_documents_never_crash_the_cli(tmp_path_factory, label):
    kind, name, build, examples = DOCUMENTS[label]
    original = render(tree(document_for(build())))
    directory = tmp_path_factory.mktemp("fuzz")
    path = directory / f"{label}.json"
    wha, action = references(name, directory)

    @settings(max_examples=examples, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(st.data())
    def check(data):
        doc = tree(json.loads(original))
        for _ in range(data.draw(st.integers(1, 3))):
            mutate(data, doc)
        path.write_text(render(doc), encoding="utf-8")
        for argv in commands(kind, str(path), wha, action):
            run(argv)

    check()
