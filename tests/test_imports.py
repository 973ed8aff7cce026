"""No dead imports in the library: every name a module of `src/whk` imports at
module level (inside a module-level `if`, such as `if TYPE_CHECKING:`, too) must
occur elsewhere in that module, as a name in its code, a name in a quoted
annotation or an entry of `__all__`."""

import ast
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
