"""Outside-in traced run and kernel micro-timings, each in its own process.

The benchmark starts this script as a child with ``PYTHONPATH`` pointing
at the checkout's ``src``. Nothing under ``src`` is edited: the names
``oametrics.cli`` imports from each module, and ``ReportBundle.write``,
are replaced by span recorders before ``run_pipeline`` runs.

    python3 perfbench/tracing.py spans SPEC.json RESULT.json
    python3 perfbench/tracing.py kernels SPEC.json RESULT.json

SPEC.json is written by ``run.py``: the corpus directory, its input files,
the CLI subcommand, the report format and the output directory.

Span rules:

* a plain function is one span per call;
* a generator function (``parse_publications``, ``parse_evidence_stream``,
  ``classify_stream``) is one span per ``next()``, so the consumer's work
  between items stays in the caller's span;
* self time is a span's duration minus the durations of the spans it
  contains, and RSS growth is read from ``/proc/self/statm`` at each span
  edge;
* the hot helpers ``normalize_doi`` (as bound in ``ingest``),
  ``normalize_url`` (as bound in ``repositories``) and ``classify`` (as
  bound in ``classifier``) are call counters, not spans.

A span that never fired is missing from the result; ``run.py`` decides
how to report it.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import io
import json
import os
import random
import statistics
import sys
import time
import timeit
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path


class Tracer:
    """Nested span recorder: self time, span count and RSS growth per name."""

    def __init__(self) -> None:
        self._statm = os.open("/proc/self/statm", os.O_RDONLY)
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.spans: Counter[str] = Counter()
        self.rss_bytes: dict[str, int] = defaultdict(int)
        self.counts: Counter[str] = Counter()

    def _rss(self) -> int:
        return int(os.pread(self._statm, 64, 0).split()[1]) * self._page

    def begin(self, name: str) -> None:
        entered = time.perf_counter()
        rss = self._rss()
        self._stack.append([name, entered, rss, 0.0, time.perf_counter()])

    def end(self) -> None:
        stopped = time.perf_counter()
        name, entered, rss, children, started = self._stack.pop()
        self.self_s[name] += stopped - started - children
        self.spans[name] += 1
        self.rss_bytes[name] += self._rss() - rss
        if self._stack:
            # The parent is charged the whole bracket, tracer cost included,
            # so tracing cost never shows up as the parent's self time.
            self._stack[-1][3] += time.perf_counter() - entered

    def span(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def span_each_next(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            try:
                while True:
                    self.begin(name)
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        self.end()
                    self.counts[f"{name}.yielded"] += 1
                    yield item
            finally:
                items.close()
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper


# Names in oametrics.cli timed as one span per call, and the span they feed.
SPANS = (
    ("parse_registries", "ingest.parse_registries"),
    ("count_full", "indicators.count_full"),
    ("merge_counts", "indicators.merge_counts"),
    ("university_indicators", "indicators.university_indicators"),
    ("field_summary", "indicators.field_summary"),
    ("median_share_by_country", "indicators.medians"),
    ("region_rollup", "indicators.medians"),
    ("overlap_matrix", "indicators.overlap_matrix"),
    ("field_profile", "indicators.field_profile"),
    ("repo_share_bounds", "repositories.repo_share_bounds"),
    ("pmc_overlap_table", "repositories.pmc_overlap_table"),
    ("gold_country_model", "gold_models.gold_country_model"),
    ("emit_report", "cli.emit_report"),
)
# Generator functions in oametrics.cli, timed one span per next().
GENERATORS = (
    ("parse_publications", "ingest.parse_publications"),
    ("parse_evidence_stream", "ingest.parse_evidence_stream"),
    ("classify_stream", "classifier.classify_stream"),
)
# (module, name) call counters, bound where the calling layer looks them up.
COUNTERS = (
    ("ingest", "normalize_doi", "ingest.normalize_doi.calls"),
    ("repositories", "normalize_url", "repositories.normalize_url.calls"),
    ("classifier", "classify", "classifier.classify.calls"),
)


def instrument(tracer: Tracer) -> None:
    """Replace the layer entry points ``oametrics.cli`` calls with recorders.

    A name the program no longer has is skipped, so its metric reads as
    absent rather than breaking the traced run.
    """
    from oametrics import cli

    on_result = {
        "count_full": lambda counts: tracer.counts.update({"indicators.count_keys": len(counts)}),
        "emit_report": lambda data: tracer.counts.update({"cli.emit_report.bytes": len(data)}),
    }
    for attr, name in SPANS:
        if hasattr(cli, attr):
            setattr(cli, attr, tracer.span(name, getattr(cli, attr), on_result.get(attr)))
    for attr, name in GENERATORS:
        if hasattr(cli, attr):
            setattr(cli, attr, tracer.span_each_next(name, getattr(cli, attr)))
    if hasattr(cli, "ReportBundle"):
        cli.ReportBundle.write = tracer.span("cli.write", cli.ReportBundle.write)
    for module_name, attr, name in COUNTERS:
        module = importlib.import_module(f"oametrics.{module_name}")
        if hasattr(module, attr):
            setattr(module, attr, tracer.counter(name, getattr(module, attr)))


def run_spans(spec: dict) -> dict:
    """Run ``run_pipeline`` traced, as the CLI would with default options."""
    tracer = Tracer()
    instrument(tracer)
    from oametrics import cli
    from oametrics.models import PipelineConfig

    files = {k: str(Path(spec["corpus"]) / v) for k, v in spec["files"].items()}
    tables = cli.REPORT_TABLES if spec["command"] == "report" else ("classified",)
    tracer.begin("cli.run_pipeline")
    cli.run_pipeline(
        PipelineConfig(),  # the CLI's defaults; the bundle is compared to the CLI's own
        publications_path=files["publications"],
        evidence_path=files["evidence"],
        institutions_path=files.get("institutions"),
        journals_path=files.get("journals"),
        out_dir=spec["out_dir"],
        report_format=spec["format"],
        tables=tables,
    )
    tracer.end()
    return {
        "self_s": dict(tracer.self_s),
        "spans": dict(tracer.spans),
        "rss_bytes": dict(tracer.rss_bytes),
        "counts": dict(tracer.counts),
    }


def _per_call_ns(stmt: str, inputs: list, env: dict) -> float:
    times = timeit.repeat(stmt, number=1, repeat=7, globals={**env, "inputs": inputs})
    return statistics.median(times) / len(inputs) * 1e9


def run_kernels(spec: dict) -> dict:
    """Per-call cost of the hot helpers on inputs sampled from the corpus."""
    from oametrics.classifier import classify
    from oametrics.cli import format_pct
    from oametrics.ingest import parse_evidence_stream, parse_registries
    from oametrics.models import normalize_doi
    from oametrics.repositories import normalize_url

    corpus = Path(spec["corpus"])
    rng = random.Random(spec["seed"])
    with open(corpus / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)
    lines = _sample_lines(corpus / spec["files"]["evidence"], 5_000)

    raw_dois, urls = [], []
    for line in lines:
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if isinstance(obj.get("doi"), str):
            raw_dois.append(obj["doi"])
        urls.extend(loc["url"] for loc in obj.get("oa_locations", ()) if isinstance(loc.get("url"), str))
    records = list(parse_evidence_stream(io.BytesIO(b"\n".join(lines))))
    _, journals = parse_registries(None, corpus / spec["files"]["journals"])
    journal_list = list(journals.values())
    pairs = [(r, rng.choice(journal_list)) for r in records]
    shares = [
        Fraction(rng.randint(0, n), n)
        for n in rng.choices(list(reference["all_sciences_denominators"].values()), k=20_000)
    ]
    env = {"normalize_doi": normalize_doi, "normalize_url": normalize_url,
           "classify": classify, "format_pct": format_pct}
    return {
        "models.normalize_doi.ns": _per_call_ns("for x in inputs: normalize_doi(x)", raw_dois, env),
        "repositories.normalize_url.ns": _per_call_ns("for x in inputs: normalize_url(x)", urls, env),
        "classifier.classify.ns": _per_call_ns("for e, j in inputs: classify(e, j)", pairs, env),
        "cli.format_pct.ns": _per_call_ns("for x in inputs: format_pct(x)", shares, env),
    }


def _sample_lines(path: Path, n: int) -> list[bytes]:
    """The first `n` lines of a (possibly gzipped) dump; line order is random."""
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rb") as fh:
        return [line.rstrip(b"\n") for _, line in zip(range(n), fh)]


def main() -> None:
    mode, spec_path, result_path = sys.argv[1:4]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result = {"spans": run_spans, "kernels": run_kernels}[mode](spec)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
