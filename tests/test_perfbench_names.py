"""The names perfbench's tracer looks up in oametrics exist.

`perfbench/tracing.py` skips a traced name the program no longer has, so
a refactor that drops one would silently turn its metric absent, and a
missing kernel import would break `perfbench/run.py --trace 1`. A traced
report run must fire each table builder's span once.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from oametrics import cli
from oametrics.models import PipelineConfig

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


#: The table builders run_pipeline calls by these names, each one perfbench span.
TABLE_BUILDER_SPANS = {
    "count_full": "indicators.count_full",
    "overlap_matrix": "indicators.overlap_matrix",
    "repo_share_bounds": "repositories.repo_share_bounds",
    "pmc_overlap_table": "repositories.pmc_overlap_table",
    "gold_country_model": "gold_models.gold_country_model",
}


@pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="the tracer reads /proc/self/statm")
def test_a_traced_report_run_fires_every_table_builder_span(golden_input, tmp_path, monkeypatch):
    tracing = _load_tracing()
    assert TABLE_BUILDER_SPANS.items() <= dict(tracing.SPANS).items()
    # instrument() replaces names in place; registering each with monkeypatch first restores them.
    for attr, _ in tracing.SPANS + tracing.GENERATORS:
        if hasattr(cli, attr):
            monkeypatch.setattr(cli, attr, getattr(cli, attr))
    monkeypatch.setattr(cli.ReportBundle, "write", cli.ReportBundle.write)
    for module, attr, _ in tracing.COUNTERS:
        module = importlib.import_module(f"oametrics.{module}")
        monkeypatch.setattr(module, attr, getattr(module, attr))
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    cli.run_pipeline(
        PipelineConfig(min_universities_country=2, min_universities_gold_model=2),
        *(golden_input / name for name in ("publications.csv", "evidence.jsonl", "institutions.csv", "journals.csv")),
        out_dir=tmp_path, shards=1,
    )
    assert all(tracer.spans[span] == 1 for span in TABLE_BUILDER_SPANS.values()), dict(tracer.spans)
    assert tracer.counts["indicators.count_keys"] > 0
