"""Command-line pipeline: parse inputs, classify, aggregate, emit reports.

All tables are computed with exact rational shares and sorted by their
canonical key before emission; formatting (percent, one decimal) is the
single rounding point. Two runs over the same inputs and configuration
produce byte-identical output files, whatever the shard count.

Exit codes: 0 success, 1 fatal I/O, 2 configuration error, 3 schema
violation rate above the configured ceiling.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import tempfile
import zlib
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from pathlib import Path

import click

from . import __version__
from .classifier import classified_table, classify_stream
from .gold_models import GOLD_MODELS_COLUMNS, gold_country_model
from .indicators import (
    COUNTRY_MEDIANS_COLUMNS,
    count_full,
    field_profile,
    field_summary,
    median_share_by_country,
    overlap_matrix,
    region_rollup,
    universities_table,
    university_indicators,
)
from .ingest import (
    IssueSummary,
    ParseStats,
    parse_evidence_stream,
    parse_publications,
    parse_registries,
)
from .models import PipelineConfig, Table
from .repositories import pmc_overlap_table, repo_share_bounds

#: Tables computed from the per-university indicator cells.
CELL_TABLES = (
    "universities",
    "field_summary",
    "country_medians",
    "country_medians_full",
    "region_medians",
    "profiles",
)
AGGREGATE_TABLES = ("overlap",) + CELL_TABLES
REPORT_TABLES = AGGREGATE_TABLES + (
    "repo_bounds",
    "pmc_overlap",
    "gold_models",
    "gold_models_full",
    "issues",
)


class PipelineError(Exception):
    """Fatal pipeline failure with a CLI exit code."""

    exit_code = 1


class FatalInputError(PipelineError):
    exit_code = 1


class ConfigurationError(PipelineError):
    exit_code = 2


class SchemaCeilingError(PipelineError):
    exit_code = 3


def format_pct(value: Fraction | int | None) -> str:
    """Render a share as a percentage with one decimal, half-up, exactly."""
    if value is None:
        return ""
    scaled = Fraction(value) * 1000
    tenths = (2 * scaled.numerator + scaled.denominator) // (2 * scaled.denominator)
    return f"{tenths // 10}.{tenths % 10}"


def _csv_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return format_pct(value)
    return str(value)


def _jsonl_value(value):
    if isinstance(value, Fraction):
        return float(format_pct(value))
    return value


def _write_table(fh, table: Table, report_format: str) -> None:
    """Write a table to a text file row by row (RFC-4180 CSV or JSON lines).

    No whole-table string is built, so memory does not grow with the
    table. `fh` should be opened with newline="" and encoding="utf-8".
    """
    if report_format == "csv":
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(table.columns)
        for row in table.rows:
            writer.writerow([_csv_value(v) for v in row])
    elif report_format == "jsonl":
        for row in table.rows:
            record = {col: _jsonl_value(v) for col, v in zip(table.columns, row)}
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
    else:
        raise ValueError(f"unknown report format: {report_format!r}")


def emit_report(table: Table, report_format: str = "csv") -> bytes:
    """Serialize a table to UTF-8 bytes, exactly as ReportBundle.write writes it."""
    buffer = io.StringIO()
    _write_table(buffer, table, report_format)
    return buffer.getvalue().encode("utf-8")


def _write_tables(targets: list[tuple[Path, Table]], report_format: str) -> None:
    """Write each (path, table), or leave every path as it was.

    Every table is first written into a fresh hidden temporary directory
    inside its path's directory, so on that path's filesystem. Only when
    all are complete is each file moved into place with os.replace. If
    any table fails, the temporary directories are removed and the
    error re-raised; no target has been touched.
    """
    with ExitStack() as stack:
        staging: dict[Path, Path] = {}
        for path, table in targets:
            if path.parent not in staging:
                tmp = tempfile.TemporaryDirectory(dir=path.parent, prefix=".oametrics-")
                staging[path.parent] = Path(stack.enter_context(tmp))
            with open(staging[path.parent] / path.name, "w", encoding="utf-8", newline="") as fh:
                _write_table(fh, table, report_format)
        for path, _ in targets:
            os.replace(staging[path.parent] / path.name, path)


@dataclass
class ReportBundle:
    """The pipeline's output tables, writable as one report directory."""

    tables: dict[str, Table] = field(default_factory=dict)

    def write(self, out_dir: Path, report_format: str = "csv", extra=()) -> list[Path]:
        """Write every table into out_dir, and each (path, table) of `extra`, in one step.

        On failure out_dir and every `extra` path are left as they were.
        Returns the bundle's paths.
        """
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        paths = {name: out_dir / f"{name}.{report_format}" for name in sorted(self.tables)}
        targets = [(path, self.tables[name]) for name, path in paths.items()]
        _write_tables(targets + list(extra), report_format)
        return list(paths.values())


def _displayed(full: Table, columns: tuple[str, ...]) -> Table:
    """The display table of a `_full` table: its rows flagged displayed, cut to `columns`."""
    flag = full.columns.index("displayed")
    picks = [full.columns.index(column) for column in columns]
    rows = tuple(tuple(row[i] for i in picks) for row in full.rows if row[flag])
    return Table(full.name.removesuffix("_full"), columns, rows)


@contextmanager
def _reading(path):
    """Turn an unreadable, truncated or mis-shaped input into a FatalInputError."""
    try:
        yield
    except (OSError, ValueError, EOFError, zlib.error, csv.Error) as exc:
        raise FatalInputError(f"{path}: {exc}") from exc


def _usable_cpus() -> int:
    """The number of CPUs this process may run on: the default `shards`."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_pipeline(
    config: PipelineConfig,
    publications_path,
    evidence_path,
    institutions_path=None,
    journals_path=None,
    out_dir=None,
    report_format: str = "csv",
    shards: int | None = None,
    max_issue_rate: float = 1.0,
    issue_log_path=None,
    tables: tuple[str, ...] = REPORT_TABLES,
) -> ReportBundle:
    """Run ingest -> classify -> analytics and emit the requested tables.

    The evidence dump is streamed once with a DOI filter, so memory is
    bounded by the publication table, not the dump size. It is scanned
    with up to `shards` processes (default: `_usable_cpus()`); the output
    is the same for any count. The bundle and the issue log are written
    in one step (ReportBundle.write).

    Raises, before any input is read, ConfigurationError when the issue
    log would overwrite a bundle file and FatalInputError for a missing
    input or issue-log directory. Raises FatalInputError for an
    unreadable input, and SchemaCeilingError when any source's issue
    rate exceeds `max_issue_rate`, before any publication is classified.
    """
    if issue_log_path is not None and out_dir is not None:
        log = Path(issue_log_path).resolve()
        if any(log == (Path(out_dir) / f"{name}.{report_format}").resolve() for name in tables):
            raise ConfigurationError(f"{issue_log_path}: the issue log would overwrite a report table")
    for path in (publications_path, evidence_path, institutions_path, journals_path):
        if path is not None and not Path(path).exists():
            raise FatalInputError(f"input file not found: {path}")
    if issue_log_path is not None and not Path(issue_log_path).parent.is_dir():
        raise FatalInputError(f"{issue_log_path}: directory not found")

    sink = IssueSummary(keep_all=issue_log_path is not None)
    stats = {name: ParseStats() for name in ("publications", "evidence", "institutions", "journals")}

    with _reading(institutions_path):
        institutions, _ = parse_registries(
            institutions_path, None, on_issue=sink, institution_stats=stats["institutions"]
        )
    with _reading(journals_path):
        _, journals = parse_registries(
            None, journals_path, on_issue=sink, journal_stats=stats["journals"]
        )
    with _reading(publications_path):
        publications = list(
            parse_publications(publications_path, config, on_issue=sink, stats=stats["publications"])
        )
    # Evidence is built, keyed and stored under each publication's own DOI object.
    needed_dois = {pub.doi: pub.doi for pub in publications if pub.doi is not None}
    with _reading(evidence_path):
        evidence_by_doi = {
            record.doi: record
            for record in parse_evidence_stream(
                evidence_path,
                on_issue=sink,
                keep=needed_dois.get,
                stats=stats["evidence"],
                processes=shards if shards is not None else _usable_cpus(),
            )
        }

    for source, source_stats in stats.items():
        if source_stats.lines == 0:
            continue
        rate = sink.total(source) / source_stats.lines
        if rate > max_issue_rate:
            raise SchemaCeilingError(
                f"{source}: issue rate {rate:.3f} exceeds ceiling {max_issue_rate:.3f}"
            )

    classified = list(classify_stream(publications, evidence_by_doi, journals))
    wanted = set(tables)
    cells = None
    if wanted & set(CELL_TABLES):
        # Only roster institutions are in scope; an unknown id in a
        # publication's affiliations gets no cells.
        cells = [
            c for c in university_indicators(count_full(classified), config)
            if c.scope_id in institutions
        ]

    country_medians = cache(
        lambda: median_share_by_country(cells, institutions, config.min_universities_country)
    )
    gold_models = cache(
        lambda: gold_country_model(classified, journals, institutions, config.min_universities_gold_model)
    )
    builders = {
        "classified": lambda: classified_table(classified),
        "overlap": lambda: overlap_matrix(classified),
        "universities": lambda: universities_table(cells, institutions),
        "field_summary": lambda: field_summary(cells),
        "country_medians": lambda: _displayed(country_medians(), COUNTRY_MEDIANS_COLUMNS),
        "country_medians_full": country_medians,
        "region_medians": lambda: region_rollup(cells, institutions),
        "profiles": lambda: field_profile(cells),
        "repo_bounds": lambda: repo_share_bounds(classified, institutions, config.handle_pattern),
        "pmc_overlap": lambda: pmc_overlap_table(classified, institutions, config),
        "gold_models": lambda: _displayed(gold_models(), GOLD_MODELS_COLUMNS),
        "gold_models_full": gold_models,
        "issues": sink.table,
    }
    bundle = ReportBundle({name: build() for name, build in builders.items() if name in wanted})

    if out_dir is not None:
        log = [] if issue_log_path is None else [(Path(issue_log_path), sink.log_table())]
        bundle.write(Path(out_dir), report_format, extra=log)
    return bundle


def _parse_period(ctx, param, value) -> tuple[int, int]:
    match = re.fullmatch(r"(\d{4})(?:-(\d{4}))?", value.strip())
    if not match:
        raise click.BadParameter("expected YYYY or YYYY-YYYY")
    first, last = int(match.group(1)), int(match.group(2) or match.group(1))
    if first > last:
        raise click.BadParameter("period start is after its end")
    return first, last


def _config_from_options(opts) -> PipelineConfig:
    try:
        return PipelineConfig(
            min_universities_country=opts["min_universities"],
            min_universities_gold_model=opts["min_universities_gold"],
            denominator_mode="all_pubs" if opts["denominator"] == "all" else "doi_pubs",
            pmc_url_patterns=opts["pmc_pattern"] or PipelineConfig.pmc_url_patterns,
            handle_pattern=opts["handle_pattern"],
            period=opts["period"],
        )
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


def _common_options(with_registries: bool = True):
    def wrap(f):
        options = [
            click.option("--publications", "-p", envvar="OAMETRICS_PUBLICATIONS", required=True,
                         help="Publication table (CSV or JSON lines)."),
            click.option("--evidence", "-e", envvar="OAMETRICS_EVIDENCE", required=True,
                         help="Per-DOI evidence dump (JSON lines, optionally gzipped)."),
            click.option("--min-universities", envvar="OAMETRICS_MIN_UNIVERSITIES",
                         type=int, default=10, show_default=True,
                         help="Display threshold for country median tables."),
            click.option("--min-universities-gold", envvar="OAMETRICS_MIN_UNIVERSITIES_GOLD",
                         type=int, default=5, show_default=True,
                         help="Display threshold for the gold-model table."),
            click.option("--denominator", envvar="OAMETRICS_DENOMINATOR",
                         type=click.Choice(["all", "doi"]), default="all", show_default=True,
                         help="Share denominators: all publications or DOI-bearing only."),
            click.option("--pmc-pattern", envvar="OAMETRICS_PMC_PATTERN", multiple=True,
                         help="Repository URL substring identifying PMC (repeatable)."),
            click.option("--handle-pattern", envvar="OAMETRICS_HANDLE_PATTERN",
                         default="hdl.handle.net", show_default=True,
                         help="URL substring for handle-resolver links (upper bound)."),
            click.option("--period", envvar="OAMETRICS_PERIOD", default="2014-2017",
                         show_default=True, callback=_parse_period,
                         help="Publication year range, YYYY or YYYY-YYYY."),
            click.option("--format", "report_format", envvar="OAMETRICS_FORMAT",
                         type=click.Choice(["csv", "jsonl"]), default="csv", show_default=True),
            click.option("--out-dir", "-o", envvar="OAMETRICS_OUT_DIR", required=True,
                         type=click.Path(file_okay=False)),
            click.option("--shards", envvar="OAMETRICS_SHARDS", type=int, default=_usable_cpus,
                         show_default="usable CPUs",
                         help="Scan the evidence dump with up to N processes."),
            click.option("--max-issue-rate", envvar="OAMETRICS_MAX_ISSUE_RATE",
                         type=float, default=1.0, show_default=True,
                         help="Fatal ceiling on per-source parse issue rate."),
            click.option("--issue-log", envvar="OAMETRICS_ISSUE_LOG", default=None,
                         type=click.Path(dir_okay=False),
                         help="Also write every parse issue to this file."),
        ]
        if with_registries:
            options += [
                click.option("--institutions", "-i", envvar="OAMETRICS_INSTITUTIONS", required=True,
                             help="Institution roster (CSV or JSON lines)."),
                click.option("--journals", "-j", envvar="OAMETRICS_JOURNALS", required=True,
                             help="Journal registry (CSV or JSON lines)."),
            ]
        else:
            options.append(
                click.option("--journals", "-j", envvar="OAMETRICS_JOURNALS", default=None,
                             help="Optional journal registry for the fully-OA flag."),
            )
        for option in reversed(options):
            f = option(f)
        return f
    return wrap


def _invoke(tables: tuple[str, ...], opts) -> None:
    if opts["shards"] < 1:
        raise click.UsageError("--shards must be >= 1")
    config = _config_from_options(opts)
    try:
        bundle = run_pipeline(
            config,
            publications_path=opts["publications"],
            evidence_path=opts["evidence"],
            institutions_path=opts.get("institutions"),
            journals_path=opts.get("journals"),
            out_dir=opts["out_dir"],
            report_format=opts["report_format"],
            shards=opts["shards"],
            max_issue_rate=opts["max_issue_rate"],
            issue_log_path=opts["issue_log"],
            tables=tables,
        )
    except PipelineError as exc:
        click.echo(f"error: {exc}", err=True)
        raise SystemExit(exc.exit_code)
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        raise SystemExit(1)
    click.echo(f"wrote {len(bundle.tables)} table(s) to {opts['out_dir']}", err=True)


@click.group()
@click.version_option(__version__, prog_name="oametrics")
def main() -> None:
    """Classify open-access status and compute institutional OA indicators."""


@main.command()
@_common_options(with_registries=False)
def classify(**opts) -> None:
    """Emit per-publication OA type labels."""
    _invoke(("classified",), opts)


@main.command()
@_common_options()
def aggregate(**opts) -> None:
    """Emit indicator tables: universities, fields, countries, regions."""
    _invoke(AGGREGATE_TABLES, opts)


@main.command("repo-match")
@_common_options()
def repo_match(**opts) -> None:
    """Emit per-university repository-hosting bounds."""
    _invoke(("repo_bounds",), opts)


@main.command("pmc-report")
@_common_options()
def pmc_report(**opts) -> None:
    """Emit the per-country PMC overlap table."""
    _invoke(("pmc_overlap",), opts)


@main.command("gold-model")
@_common_options()
def gold_model(**opts) -> None:
    """Emit per-country gold OA publishing models."""
    _invoke(("gold_models", "gold_models_full"), opts)


@main.command()
@_common_options()
def report(**opts) -> None:
    """Emit the full report bundle."""
    _invoke(REPORT_TABLES, opts)


if __name__ == "__main__":
    main()
