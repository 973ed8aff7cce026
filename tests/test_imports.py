"""Imports of the library.

No dead imports: every name a module of `src/whk` imports at module level
(inside a module-level `if`, such as `if TYPE_CHECKING:`, too) must occur
elsewhere in that module, as a name in its code, a name in a quoted annotation
or an entry of `__all__`.

In a fresh interpreter with warnings as errors: each module imports on its
own, so no import cycle hides behind the order of the test run, and the
corpus suite raises no warning at run time either: `whk corpus --run-all`
exits 0 as it is and 1 with a corrupted coproduct.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "whk"


def module_imports(body: list[ast.stmt]):
    """(name bound, line) of every import statement at module level, `__future__` left out."""
    for node in body:
        if isinstance(node, ast.If):
            yield from module_imports(node.body + node.orelse)
        elif isinstance(node, ast.Import):
            yield from (((a.asname or a.name).split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((a.asname or a.name, node.lineno) for a in node.names)


def used_names(tree: ast.Module) -> set[str]:
    """The names read anywhere in the module, also inside strings that parse as an expression."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    dead = [f"{name} (line {line})" for name, line in module_imports(tree.body) if name not in used]
    assert not dead, f"{path.name} imports names it never uses: {', '.join(dead)}"


def test_a_dead_import_is_found():
    tree = ast.parse("from .linalg import bilinear, lincomb\n\nx = lincomb\n")
    assert [name for name, _ in module_imports(tree.body) if name not in used_names(tree)] == ["bilinear"]


def fresh(*args: str) -> subprocess.CompletedProcess:
    """`python -S -W error` with args in a new interpreter that finds `src` first.  The
    library needs only the standard library, so `site` (and the start-up cost of the
    installation's .pth files) is left out."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-S", "-W", "error", *args], env=env, capture_output=True, text=True)


# __main__ is left out: importing it runs the CLI
@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.stem != "__main__"), ids=lambda p: p.name)
def test_each_module_imports_alone_with_warnings_as_errors(path):
    result = fresh("-c", "import whk" if path.stem == "__init__" else f"import whk.{path.stem}")
    assert result.returncode == 0, result.stderr


def test_the_corpus_suite_raises_no_warning_and_exits_by_its_verdict():
    for extra, code in (((), 0), (("--mutate", "comult_scale"), 1)):
        result = fresh("-m", "whk", "corpus", "--run-all", *extra)
        # a warning raised as an error would exit 1 too, so stderr must stay empty
        assert (result.returncode, result.stderr) == (code, ""), extra
