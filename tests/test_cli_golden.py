"""Golden CLI transcript: exit code, stdout and stderr of fixed commands.

Every argv below runs in-process through `whk.cli.main`; the result must
match `cli_golden.json` byte for byte.  A refactor that promises identical
output proves it here.  After a change that alters output on purpose,
regenerate the file with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of `tests/cli_golden.json` like any other change.
"""

import difflib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from whk.cli import main
from whk.corpus import MUTATIONS, WHA_NAMES

GOLDEN = Path(__file__).with_name("cli_golden.json")

EF_MAPS = (("id", "eps_t", "eps_s"), ("antipode", "eps_s", "eps_t"))


def argv_lists() -> list[list[str]]:
    out = []
    for fmt in ("text", "json"):
        out.append(["corpus", "--run-all", "--format", fmt])
        out.extend(["corpus", "--run-all", "--mutate", mut, "--format", fmt] for mut in MUTATIONS)
        for name in WHA_NAMES:
            member = f"builtin:{name}"
            action = f"builtin:{name}-ht-action"
            out.append(["validate", member, "--format", fmt])
            out.append(["analyze", member, "--format", fmt])
            for u, e, f in EF_MAPS:
                out.append(["ef-inverse", member, "--u", u, "--e", e, "--f", f, "--method", "both", "--format", fmt])
            out.append(["smash", member, action, "--battery", "--format", fmt])
            out.append(["validate", action, "--format", fmt])
        out.append(["validate", "builtin:sw2", "--format", fmt])
    return out


def transcript(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_argv_lists_match_the_golden_file():
    assert [entry["argv"] for entry in json.loads(GOLDEN.read_text(encoding="utf-8"))] == argv_lists()


@pytest.mark.parametrize("index", range(len(argv_lists())))
def test_cli_output_matches_golden_transcript(index, capsys):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[index]
    argv = expected["argv"]
    code = main(argv)
    captured = capsys.readouterr()
    actual = {"argv": argv, "exit": code, "stdout": captured.out, "stderr": captured.err}
    if actual != expected:
        diff = "\n".join(
            difflib.unified_diff(
                json.dumps(expected, indent=1).splitlines(),
                json.dumps(actual, indent=1).splitlines(),
                "golden",
                "actual",
                lineterm="",
            )
        )
        pytest.fail(f"whk {' '.join(argv)} differs from the golden transcript:\n{diff}")


if __name__ == "__main__":
    runs = [transcript(argv) for argv in argv_lists()]
    GOLDEN.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(runs)} transcripts to {GOLDEN}", file=sys.stderr)
