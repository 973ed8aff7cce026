"""The CI workflow runs the suite and the bench; it holds no checks of its own.

Every gate lives in a test, where the suite runs it on every machine.  So no
step of `.github/workflows/tests.yml` may hold an inline Python script
(`python - <<`) or an `assert`.
"""

import re
from pathlib import Path

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"
STEP = re.compile(r"^\s*- (?:name|uses):", re.M)
INLINE_CHECK = re.compile(r"\bpython3?\b[^\n]* - *<<|\bassert\b")  # a script on stdin, or an assert


def steps_with_inline_checks(text: str) -> list[str]:
    """The first line of every step that holds an inline Python script or an assert."""
    starts = [m.start() for m in STEP.finditer(text)] + [len(text)]
    steps = (text[a:b] for a, b in zip(starts, starts[1:]))
    return [step.strip().splitlines()[0] for step in steps if INLINE_CHECK.search(step)]


def test_no_workflow_step_holds_an_inline_check():
    assert steps_with_inline_checks(WORKFLOW.read_text(encoding="utf-8")) == []


def test_an_inline_check_is_found():
    text = """steps:
      - uses: actions/checkout@v4
      - name: Guard
        run: |
          PYTHONPATH=src python - <<'EOF'
          print(1)
          EOF
      - name: Check
        run: python3 -c "assert True"
      - name: Tier-1 tests
        run: python -m pytest -q
"""
    assert steps_with_inline_checks(text) == ["- name: Guard", "- name: Check"]
