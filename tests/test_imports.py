"""No module under src/ or tests/ imports a name it never reads.

An import left behind by a deletion keeps a dead dependency looking live.
A name in the module's `__all__`, or imported on a line marked
`# noqa: F401`, counts as read.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
        if "# noqa: F401" not in lines[alias.lineno - 1]
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read - _exported(tree))


def test_every_imported_name_is_read():
    unused = {}
    for path in sorted(p for directory in ("src", "tests") for p in (ROOT / directory).rglob("*.py")):
        if names := _unused_imports(path.read_text(encoding="utf-8")):
            unused[str(path.relative_to(ROOT))] = names
    assert unused == {}


def test_the_guard_sees_an_unused_import():
    assert _unused_imports("import os\nfrom typing import Any, List\nx: List[int] = []\n") == ["Any", "os"]
    assert _unused_imports("from a import b  # noqa: F401\n__all__ = ['c']\nfrom d import c\n") == []
