"""The names perfbench's tracer looks up in oametrics exist.

`perfbench/tracing.py` skips a traced name the program no longer has, so
a refactor that drops one would silently turn its metric absent, and a
missing kernel import would break `perfbench/run.py --trace 1`.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

from oametrics import cli

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kernel_imports_exist():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    (kernels,) = (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "run_kernels")
    imported = [
        (node.module, alias.name)
        for node in ast.walk(kernels)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert ("oametrics.repositories", "normalize_url") in imported
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_traced_generators_and_counters_exist():
    tracing = _load_tracing()
    for attr, _ in tracing.GENERATORS:
        assert hasattr(cli, attr), f"oametrics.cli.{attr}"
    for module, attr, _ in tracing.COUNTERS:
        assert hasattr(importlib.import_module(f"oametrics.{module}"), attr), f"oametrics.{module}.{attr}"
