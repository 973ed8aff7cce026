import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from whk.actions import ht_module_action
from whk.cli import main
from whk.coalgebra import FiniteCoalgebra
from whk.corpus import MUTATIONS, WHA_NAMES, apply_mutation, corpus_entry
from whk.errors import InvariantViolation, PreconditionError
from whk.fileio import dumps
from whk.groupoid import component_groupoid, groupoid_algebra
from whk.report import SHOWN
from whk.weakhopf import WeakHopfAlgebra

from test_fileio import hostile_documents


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_builtin_passes(capsys):
    code, out, _ = run(capsys, "validate", "builtin:qs3")
    assert code == 0
    assert "verdict: pass" in out


def test_exit_code_contract(capsys, tmp_path):
    # pass
    assert run(capsys, "validate", "builtin:qc2")[0] == 0
    # mathematical failure
    broken = apply_mutation(corpus_entry("p2").wha, "antipode_identity")
    bad_file = tmp_path / "broken.json"
    bad_file.write_text(dumps(broken), encoding="utf-8")
    code, out, _ = run(capsys, "validate", str(bad_file))
    assert code == 1
    assert "verdict: fail" in out
    # parse failure
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{{{", encoding="utf-8")
    code, _, err = run(capsys, "validate", str(garbage))
    assert code == 2
    assert "error" in err


def test_a_failing_dim_100_document_prints_a_bounded_report(capsys, tmp_path):
    # every basis vector fails all three antipode laws: 300 failures, 975 KB of output when all were printed
    broken = apply_mutation(groupoid_algebra(component_groupoid("x_", 5, 4)), "antipode_scale")
    path = tmp_path / "broken.json"
    path.write_text(dumps(broken), encoding="utf-8")
    laws = ("antipode_left_cancel", "antipode_right_cancel", "antipode_triple")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1 and err == "" and len(out.encode()) < 4096
    lines = out.splitlines()
    for law in laws:
        assert sum(line.startswith(f"check {law}: FAIL at (") for line in lines) == SHOWN
        assert f"check {law}: FAIL, 100 failures, {SHOWN} shown" in lines
    code, out, err = run(capsys, "validate", str(path), "--format", "json")
    assert code == 1 and err == "" and len(out.encode()) < 4096
    items = json.loads(out)["items"]
    for law in laws:
        assert sum(item["name"] == law and item["counterexample"] is not None for item in items) == SHOWN
        assert {"name": law, "passed": False, "counterexample": None, "total": 100, "shown": SHOWN} in items


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "validate", "no/such/file.json")
    assert code == 2
    assert "error" in err


def test_analyze_pair_groupoid(capsys):
    code, out, _ = run(capsys, "analyze", "builtin:p2")
    assert code == 0
    assert "target_subalgebra_dim: 2" in out
    assert "center_dim: 1" in out
    assert "quantum_commutative_pairwise: False" in out
    assert "coradical_filtration_length: 0" in out


def test_analyze_h4(capsys):
    code, out, _ = run(capsys, "analyze", "builtin:h4")
    assert code == 0
    assert "target_subalgebra_dim: 1" in out
    assert "coradical_filtration_length: 1" in out


def test_analyze_rejects_plain_algebra(capsys, tmp_path):
    doc = tmp_path / "alg.json"
    doc.write_text(dumps(corpus_entry("qc2").wha.alg), encoding="utf-8")
    code, _, err = run(capsys, "analyze", str(doc))
    assert code == 2


def test_ef_inverse_prints_antipode(capsys):
    code, out, _ = run(
        capsys, "ef-inverse", "builtin:qs3", "--u", "id", "--e", "eps_t", "--f", "eps_s",
        "--method", "both",
    )
    assert code == 0
    entry = corpus_entry("qs3")
    for row in entry.wha.antipode.entries:
        assert str([str(x) for x in row]).replace('"', "'") in out


def test_ef_inverse_conv_map_file_context(capsys, tmp_path):
    # the antipode is (eps_s, eps_t)-invertible with inverse the identity
    entry = corpus_entry("qc2")
    wha_file = tmp_path / "qc2.json"
    wha_file.write_text(dumps(entry.wha), encoding="utf-8")
    anti = tmp_path / "antipode.json"
    anti.write_text(
        json.dumps(
            {
                "kind": "conv_map",
                "matrix": [[str(x) for x in row] for row in entry.wha.antipode.entries],
            }
        ),
        encoding="utf-8",
    )
    code, out, _ = run(
        capsys, "ef-inverse", str(wha_file), "--u", str(anti), "--e", "eps_s",
        "--f", "eps_t", "--method", "both",
    )
    assert code == 0
    assert "[['1', '0'], ['0', '1']]" in out


def test_ef_inverse_zero_map_reports_none(capsys):
    code, out, _ = run(
        capsys, "ef-inverse", "builtin:qc2", "--u", "zero", "--e", "eps_t", "--f", "eps_s"
    )
    assert code == 1
    assert "none" in out


def test_ef_inverse_precondition_diagnostic(capsys):
    # eps_s does not absorb the identity on the left for the pair groupoid
    code, out, _ = run(
        capsys, "ef-inverse", "builtin:p2", "--u", "id", "--e", "eps_s", "--f", "eps_s"
    )
    assert code == 1
    assert "error" in out


def test_smash_battery_outputs(capsys):
    code, out, _ = run(capsys, "smash", "builtin:p2", "builtin:p2-ht-action", "--battery")
    assert code == 0
    assert "quotient_dim: 4" in out
    assert "(False, False, False, False, False)" in out
    code, out, _ = run(capsys, "smash", "builtin:c2c1", "builtin:c2c1-ht-action", "--battery")
    assert code == 0
    assert "(True, True, True, True, True)" in out
    code, out, _ = run(capsys, "smash", "builtin:qs3", "builtin:qs3-ht-action", "--battery")
    assert code == 0
    assert "quotient_dim: 6" in out
    assert "(True, True, True, True, True)" in out


def test_corpus_run_all_passes(capsys):
    code, out, _ = run(capsys, "corpus", "--run-all")
    assert code == 0
    assert "verdict: pass" in out


def test_corpus_requires_run_all(capsys):
    code, _, err = run(capsys, "corpus")
    assert code == 2


def test_corpus_mutation_fails_with_named_check(capsys):
    code, out, _ = run(capsys, "corpus", "--run-all", "--mutate", "antipode_identity")
    assert code == 1
    assert "FAIL" in out or "fail" in out
    assert ".axioms" in out


def test_corpus_empty_filter_vacuous_pass(capsys):
    code, out, err = run(capsys, "corpus", "--run-all", "--only", "zzz")
    assert code == 0
    assert "warning" in err


def test_json_output_deterministic(capsys):
    code1, out1, _ = run(capsys, "corpus", "--run-all", "--format", "json")
    code2, out2, _ = run(capsys, "corpus", "--run-all", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["verdict"] == "pass"


def test_threads_env_validation(capsys, monkeypatch):
    monkeypatch.setenv("WHK_THREADS", "4")
    assert run(capsys, "validate", "builtin:qc2")[0] == 0
    monkeypatch.setenv("WHK_THREADS", "zero")
    assert run(capsys, "validate", "builtin:qc2")[0] == 2
    monkeypatch.setenv("WHK_THREADS", "0")
    assert run(capsys, "validate", "builtin:qc2")[0] == 2


def test_usage_error_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


@pytest.mark.parametrize("mutation", ["counit_zero", "unit_shift"])
@pytest.mark.parametrize(
    "command", [["analyze"], ["ef-inverse", "--u", "id", "--e", "eps_t", "--f", "eps_s"]]
)
def test_broken_counital_data_is_a_one_line_error(capsys, tmp_path, mutation, command):
    # these corruptions break the counital maps themselves, which raises
    # deep inside the library; the CLI reports it as a mathematical failure
    broken = tmp_path / "broken.json"
    broken.write_text(dumps(apply_mutation(corpus_entry("qs3").wha, mutation)), encoding="utf-8")
    code, out, err = run(capsys, command[0], str(broken), *command[1:])
    assert code == 1
    assert "Traceback" not in out + err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("mutation", ["antipode_identity", "antipode_scale"])
def test_analyze_refuses_a_structure_that_is_not_weak_hopf(capsys, tmp_path, mutation):
    # the counital data of these corruptions is intact, so only the axiom
    # battery can tell that the antipode is wrong
    broken = tmp_path / "broken.json"
    broken.write_text(dumps(apply_mutation(corpus_entry("qs3").wha, mutation)), encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(broken))
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: not a weak Hopf algebra: ") and err.count("\n") == 1
    assert "antipode_" in err


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_ef_inverse_refuses_a_structure_that_is_not_weak_hopf(capsys, tmp_path, mutation):
    # with the identity antipode the (e, f) system still has a solution,
    # so without the axiom battery this printed an inverse and a pass
    broken = tmp_path / "broken.json"
    broken.write_text(dumps(apply_mutation(corpus_entry("qs3").wha, mutation)), encoding="utf-8")
    code, out, err = run(capsys, "ef-inverse", str(broken), "--u", "id", "--e", "eps_t", "--f", "eps_s")
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: not a weak Hopf algebra: ") and err.count("\n") == 1


def corrupted_comult(name, i, j, k):
    """A corpus member with comult[i][j][k] raised by one."""
    h = corpus_entry(name).wha
    comult = [[list(row) for row in slice_] for slice_ in h.coalg.comult]
    comult[i][j][k] += 1
    return WeakHopfAlgebra(h.alg, FiniteCoalgebra.from_lists(h.dim, comult, h.coalg.counit), h.antipode)


def write_with_action(tmp_path, wha):
    """wha and its target action, written as documents; their paths."""
    paths = tmp_path / "wha.json", tmp_path / "action.json"
    paths[0].write_text(dumps(wha), encoding="utf-8")
    paths[1].write_text(dumps(ht_module_action(wha)), encoding="utf-8")
    return tuple(str(p) for p in paths)


@pytest.mark.parametrize("command", ["smash", "validate"])
def test_smash_and_action_validate_refuse_a_structure_that_is_not_weak_hopf(capsys, tmp_path, command):
    # the target action of this corruption is built without error, and both
    # commands used to print "verdict: pass" on it
    wha, action = write_with_action(tmp_path, corrupted_comult("h4", 0, 2, 2))
    argv = [command, wha, action, "--battery"] if command == "smash" else [command, action]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == "error: not a weak Hopf algebra: coassociativity, comult_multiplicative, unit_comult_compatibility\n"


def test_smash_passes_no_single_entry_corruption_of_a_corpus_comultiplication(capsys, tmp_path):
    refused = 0
    for name in WHA_NAMES:
        n = corpus_entry(name).wha.dim
        for i, j, k in itertools.product(range(n), repeat=3):
            wha = corrupted_comult(name, i, j, k)
            try:
                paths = write_with_action(tmp_path, wha)
            except (InvariantViolation, PreconditionError):
                continue  # no target action to smash with
            code, out, err = run(capsys, "smash", *paths, "--battery")
            assert (code, out) == (1, ""), (name, i, j, k)
            assert err.startswith("error: not a weak Hopf algebra: ")
            refused += 1
    assert refused >= 28


def groupoid_doc():
    return json.loads(dumps(corpus_entry("p2").groupoid))


def stray_comp_key(doc):
    doc["comp"].append(["x", "y", "z"])


def list_comp_entry(doc):
    doc["comp"].append([["e"], "e", "e"])


def list_src_entry(doc):
    doc["src"][doc["morphisms"][0]] = [doc["objects"][0]]


def stray_identity_key(doc):
    doc["identities"]["nowhere"] = doc["morphisms"][0]


def contradicting_comp_entry(doc):
    # a second, different result for the first composable pair, listed before the true one
    g, h, gh = doc["comp"][0]
    doc["comp"].insert(0, [g, h, next(m for m in doc["morphisms"] if m != gh)])


@pytest.mark.parametrize(
    "corrupt", [list_comp_entry, list_src_entry, stray_comp_key, stray_identity_key, contradicting_comp_entry]
)
def test_malformed_groupoid_document_is_a_usage_error(capsys, tmp_path, corrupt):
    doc = groupoid_doc()
    corrupt(doc)
    path = tmp_path / "groupoid.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("literal", ["1\n", "\u0663"])
def test_rational_literal_outside_ascii_digits_is_a_usage_error(capsys, tmp_path, literal):
    doc = json.loads(dumps(corpus_entry("qc2").wha))
    doc["counit"][0] = literal
    path = tmp_path / "wha.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "bad rational literal" in err and "Traceback" not in err


@pytest.mark.parametrize("case", ["long_literal", "long_integer", "deep_nesting"])
def test_hostile_document_is_a_usage_error(capsys, tmp_path, case):
    doc = json.loads(dumps(corpus_entry("p2").wha))
    path = tmp_path / "wha.json"
    path.write_text(hostile_documents(doc, doc["counit"])[case], encoding="utf-8")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command", [["validate"], ["analyze"], ["ef-inverse", "--u", "id", "--e", "eps_t", "--f", "eps_s"]], ids=lambda c: c[0]
)
@pytest.mark.parametrize("kind", [{}, []], ids=["object", "list"])
def test_unhashable_kind_is_a_usage_error(capsys, tmp_path, command, kind):
    doc = json.loads(dumps(corpus_entry("p2").wha)) | {"kind": kind}
    path = tmp_path / "wha.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, *command, str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: unknown or missing document kind: {kind!r}\n"


@pytest.mark.parametrize("case", ["long_literal", "long_integer", "deep_nesting"])
def test_hostile_conv_map_file_is_a_usage_error(capsys, tmp_path, case):
    antipode = corpus_entry("qc2").wha.antipode
    doc = {"kind": "conv_map", "matrix": [[str(x) for x in row] for row in antipode.entries]}
    path = tmp_path / "map.json"
    path.write_text(hostile_documents(doc, doc["matrix"][0])[case], encoding="utf-8")
    code, out, err = run(capsys, "ef-inverse", "builtin:qc2", "--u", str(path), "--e", "eps_s", "--f", "eps_t")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command",
    [["analyze"], ["ef-inverse", "--u", "id", "--e", "eps_t", "--f", "eps_s"], ["smash", "builtin:p2-ht-action"]],
)
def test_invalid_groupoid_table_is_a_one_line_error(capsys, tmp_path, command):
    # o0 -> o1 composed with its inverse is redirected to the wrong identity
    doc = groupoid_doc()
    g = corpus_entry("p2").groupoid
    f = next(m for m in g.morphisms if g.src[m] != g.tgt[m])
    doc["comp"] = [[a, b, g.identities[g.src[f]] if (a, b) == (f, g.inv[f]) else c] for a, b, c in doc["comp"]]
    path = tmp_path / "groupoid.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert code == 1
    assert out == ""
    assert err.startswith("error: groupoid table is invalid: ") and err.count("\n") == 1


@pytest.mark.parametrize("unbuffered", [True, False])
def test_closed_output_pipe_exits_quietly(unbuffered):
    # the reader closes the pipe before whk has written a byte, as `whk ... | head` can
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "whk", "corpus", "--run-all"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


EMPTY_GROUPOID = {"kind": "groupoid", "objects": [], "morphisms": [], "src": {}, "tgt": {}, "inv": {}, "identities": {},
                  "comp": []}


@pytest.mark.parametrize(
    "command",
    [["analyze"], ["ef-inverse", "--u", "id", "--e", "eps_t", "--f", "eps_s"], ["smash", "builtin:p2-ht-action"]],
)
def test_groupoid_without_morphisms_is_a_one_line_error(capsys, tmp_path, command):
    # its table is valid, but its algebra would have dimension 0
    path = tmp_path / "groupoid.json"
    path.write_text(json.dumps(EMPTY_GROUPOID), encoding="utf-8")
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert code == 2
    assert out == ""
    assert err == "error: groupoid has no morphisms: its algebra would have dimension 0\n"


def test_groupoid_without_morphisms_validates(capsys, tmp_path):
    path = tmp_path / "groupoid.json"
    path.write_text(json.dumps(EMPTY_GROUPOID), encoding="utf-8")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 0
    assert out.endswith("verdict: pass\n") and err == ""
