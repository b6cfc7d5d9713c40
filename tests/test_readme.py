"""The README's Library-use example runs against the package's public API."""

import ast
import re
from pathlib import Path

import oametrics

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_use_block_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    imported = {
        alias.name
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "oametrics"
        for alias in node.names
    }
    assert imported and imported <= set(oametrics.__all__)
    exec(compile(block, str(README), "exec"), {})
