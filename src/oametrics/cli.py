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
import zlib
from contextlib import contextmanager
from dataclasses import astuple, dataclass, field, replace
from fractions import Fraction
from functools import cache
from pathlib import Path

import click

from . import __version__
from .classifier import ClassifiedPublication, classify_stream
from .gold_models import gold_country_model
from .indicators import (
    count_full,
    field_profile,
    field_summary,
    median_share_by_country,
    overlap_matrix,
    region_rollup,
    university_indicators,
)
from .ingest import (
    IssueSummary,
    ParseStats,
    parse_evidence_stream,
    parse_publications,
    parse_registries,
)
from .models import ALL_SCIENCES, OA_TYPES, TYPE_ORDER, PipelineConfig
from .repositories import normalize_url, pmc_overlap_table, repo_share_bounds

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


@dataclass(frozen=True)
class Table:
    """One report table: a name, a header and canonically ordered rows."""

    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]


def emit_report(table: Table, report_format: str = "csv") -> bytes:
    """Serialize a table to UTF-8 bytes (RFC-4180 CSV or JSON lines)."""
    if report_format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\r\n")
        writer.writerow(table.columns)
        for row in table.rows:
            writer.writerow([_csv_value(v) for v in row])
        return buffer.getvalue().encode("utf-8")
    if report_format == "jsonl":
        lines = [
            json.dumps(
                {col: _jsonl_value(v) for col, v in zip(table.columns, row)},
                ensure_ascii=False,
            )
            for row in table.rows
        ]
        return "".join(line + "\n" for line in lines).encode("utf-8")
    raise ValueError(f"unknown report format: {report_format!r}")


@dataclass
class ReportBundle:
    """The pipeline's output tables, writable as one report directory."""

    tables: dict[str, Table] = field(default_factory=dict)

    def write(self, out_dir: Path, report_format: str = "csv") -> list[Path]:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        extension = "csv" if report_format == "csv" else "jsonl"
        written = []
        for name in sorted(self.tables):
            path = out_dir / f"{name}.{extension}"
            path.write_bytes(emit_report(self.tables[name], report_format))
            written.append(path)
        return written


def _classified_table(classified: list[ClassifiedPublication]) -> Table:
    rows = sorted(
        (
            cp.publication.pub_id,
            cp.publication.doi,
            cp.types.gold,
            cp.types.green,
            cp.types.hybrid,
            cp.types.bronze,
            cp.types.any_oa,
        )
        for cp in classified
    )
    return Table(
        name="classified",
        columns=("pub_id", "doi", "gold", "green", "hybrid", "bronze", "any_oa"),
        rows=tuple(rows),
    )


def _overlap_table(classified: list[ClassifiedPublication]) -> Table:
    matrix = overlap_matrix(classified)
    total = matrix.total_oa

    def of_total(count: int) -> Fraction | None:
        return Fraction(count, total) if total else None

    rows = [("total_oa", total, of_total(total))]
    for oa_type in OA_TYPES:
        rows.append((oa_type, matrix.per_type_count[oa_type], of_total(matrix.per_type_count[oa_type])))
    for oa_type in ("gold", "hybrid", "bronze"):
        overlap = matrix.pairwise_green[oa_type]
        marginal = matrix.per_type_count[oa_type]
        rows.append(
            (f"green_and_{oa_type}", overlap, Fraction(overlap, marginal) if marginal else None)
        )
    for bucket in ("gold", "hybrid", "bronze", "green_only"):
        count = matrix.exclusive_partition[bucket]
        rows.append((f"exclusive_{bucket}", count, of_total(count)))
    return Table(name="overlap", columns=("metric", "count", "pct"), rows=tuple(rows))


def _universities_table(cells, institutions) -> Table:
    rows = tuple(
        (
            c.scope_id, institutions[c.scope_id].country, c.field, c.oa_type,
            c.numerator, c.denominator, c.share,
        )
        for c in cells
    )
    return Table(
        name="universities",
        columns=("university", "country", "field", "oa_type", "numerator", "denominator", "share_pct"),
        rows=rows,
    )


def _field_summary_table(cells) -> Table:
    rows = tuple(
        (r.field, r.oa_type, r.n_universities, r.median, r.mean) for r in field_summary(cells)
    )
    return Table(
        name="field_summary",
        columns=("field", "oa_type", "n_universities", "median_pct", "mean_pct"),
        rows=rows,
    )


def _all_sciences_medians(cells, rollup) -> list[tuple]:
    """Rows of `rollup` over each OA type's all-sciences cells as (group, oa_type, ...)."""
    all_sciences = [c for c in cells if c.field == ALL_SCIENCES]
    collected = []
    for oa_type in TYPE_ORDER:
        for row in rollup([c for c in all_sciences if c.oa_type == oa_type]):
            group, *rest = astuple(row)
            collected.append((group, oa_type, *rest))
    collected.sort(key=lambda r: (r[0], TYPE_ORDER.index(r[1])))
    return collected


def _country_median_tables(cells, institutions, config: PipelineConfig) -> tuple[Table, Table]:
    collected = _all_sciences_medians(
        cells, lambda s: median_share_by_country(s, institutions, config.min_universities_country)
    )
    display = Table(
        name="country_medians",
        columns=("country", "oa_type", "n_universities", "median_pct"),
        rows=tuple(r[:4] for r in collected if r[4]),
    )
    full = Table(
        name="country_medians_full",
        columns=("country", "oa_type", "n_universities", "median_pct", "displayed"),
        rows=tuple(collected),
    )
    return display, full


def _region_table(cells, institutions) -> Table:
    return Table(
        name="region_medians",
        columns=("region", "oa_type", "n_universities", "median_pct"),
        rows=tuple(_all_sciences_medians(cells, lambda s: region_rollup(s, institutions))),
    )


def _profiles_table(cells) -> Table:
    by_university: dict[str, list] = {}
    for cell in cells:
        by_university.setdefault(cell.scope_id, []).append(cell)
    rows = []
    for university in sorted(by_university):
        profile = field_profile(by_university[university])
        for field_name, shares in profile.items():
            for oa_type in OA_TYPES:
                rows.append((university, field_name, oa_type, shares[oa_type]))
    return Table(
        name="profiles",
        columns=("university", "field", "oa_type", "share_pct"),
        rows=tuple(rows),
    )


def _repo_table(classified, institutions, counts, config: PipelineConfig) -> Table:
    by_inst: dict[str, list[ClassifiedPublication]] = {}
    for cp in classified:
        for inst_id in cp.publication.institution_ids:
            if inst_id in institutions:
                by_inst.setdefault(inst_id, []).append(cp)
    rows = []
    for inst_id in sorted(by_inst):
        inst = institutions[inst_id]
        bounds = repo_share_bounds(by_inst[inst_id], inst, config.handle_pattern)
        rows.append(
            (
                inst_id,
                inst.name,
                inst.country,
                counts.get((inst_id, ALL_SCIENCES, "pubs"), 0),
                bounds.green_count,
                bounds.matched_lower,
                bounds.matched_upper,
                bounds.share_lower,
                bounds.share_upper,
            )
        )
    return Table(
        name="repo_bounds",
        columns=(
            "university", "name", "country", "pubs", "green_pubs",
            "matched_lower", "matched_upper", "pct_repo_lower", "pct_repo_upper",
        ),
        rows=tuple(rows),
    )


def _pmc_table(classified, institutions, config: PipelineConfig) -> Table:
    rows = tuple(
        (
            r.country, r.green_count, r.pmc_count, r.pmc_only_count,
            r.pct_gold, r.pct_bronze, r.pct_hybrid,
        )
        for r in pmc_overlap_table(classified, institutions, config)
    )
    return Table(
        name="pmc_overlap",
        columns=("country", "green_oa", "pmc", "pmc_only", "pct_gold", "pct_bronze", "pct_hybrid"),
        rows=rows,
    )


def _gold_tables(classified, journals, institutions, config: PipelineConfig) -> tuple[Table, Table]:
    model = gold_country_model(
        classified, journals, institutions, config.min_universities_gold_model
    )
    full_rows = tuple(
        (
            r.country, r.gold_total, r.national_share, r.apc_share, r.english_share,
            r.apc_known, r.n_universities, r.displayed,
        )
        for r in model
    )
    display = Table(
        name="gold_models",
        columns=("country", "gold_total", "national_share", "apc_share", "english_share", "apc_known"),
        rows=tuple(r[:6] for r in full_rows if r[7]),
    )
    full = Table(
        name="gold_models_full",
        columns=(
            "country", "gold_total", "national_share", "apc_share", "english_share",
            "apc_known", "n_universities", "displayed",
        ),
        rows=full_rows,
    )
    return display, full


def _issues_table(sink: IssueSummary) -> Table:
    return Table(
        name="issues",
        columns=("source", "kind", "count"),
        rows=tuple(sink.rows()),
    )


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
    is the same for any count. Raises FatalInputError for unreadable
    inputs and SchemaCeilingError when any source's issue rate exceeds
    `max_issue_rate`, before any publication is classified.
    """
    for path in (publications_path, evidence_path, institutions_path, journals_path):
        if path is not None and not Path(path).exists():
            raise FatalInputError(f"input file not found: {path}")

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
    # Evidence is keyed and stored under each publication's own DOI object.
    needed_dois = {pub.doi: pub.doi for pub in publications if pub.doi is not None}
    evidence_by_doi = {}
    with _reading(evidence_path):
        for record in parse_evidence_stream(
            evidence_path,
            on_issue=sink,
            keep=needed_dois.__contains__,
            stats=stats["evidence"],
            processes=shards if shards is not None else _usable_cpus(),
        ):
            doi = needed_dois[record.doi]
            evidence_by_doi[doi] = replace(record, doi=doi)

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
    counts = cells = None
    if wanted & {*CELL_TABLES, "repo_bounds"}:
        counts = count_full(classified)
    if wanted & set(CELL_TABLES):
        # Only roster institutions are in scope; an unknown id in a
        # publication's affiliations gets no cells.
        cells = [c for c in university_indicators(counts, config) if c.scope_id in institutions]

    country_medians = cache(lambda: _country_median_tables(cells, institutions, config))
    gold_models = cache(lambda: _gold_tables(classified, journals, institutions, config))
    builders = {
        "classified": lambda: _classified_table(classified),
        "overlap": lambda: _overlap_table(classified),
        "universities": lambda: _universities_table(cells, institutions),
        "field_summary": lambda: _field_summary_table(cells),
        "country_medians": lambda: country_medians()[0],
        "country_medians_full": lambda: country_medians()[1],
        "region_medians": lambda: _region_table(cells, institutions),
        "profiles": lambda: _profiles_table(cells),
        "repo_bounds": lambda: _repo_table(classified, institutions, counts, config),
        "pmc_overlap": lambda: _pmc_table(classified, institutions, config),
        "gold_models": lambda: gold_models()[0],
        "gold_models_full": lambda: gold_models()[1],
        "issues": lambda: _issues_table(sink),
    }
    bundle = ReportBundle({name: build() for name, build in builders.items() if name in wanted})

    if out_dir is not None:
        bundle.write(Path(out_dir), report_format)
        if issue_log_path is not None:
            log_table = Table(
                name="issue_log",
                columns=("source", "line_no", "kind", "detail"),
                rows=tuple((i.source, i.line_no, i.kind, i.detail) for i in sink.issues or ()),
            )
            Path(issue_log_path).write_bytes(emit_report(log_table, report_format))
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
    pmc_patterns = tuple(normalize_url(p) for p in opts["pmc_pattern"]) or ("ncbi.nlm.nih.gov/pmc",)
    try:
        return PipelineConfig(
            min_universities_country=opts["min_universities"],
            min_universities_gold_model=opts["min_universities_gold"],
            denominator_mode="all_pubs" if opts["denominator"] == "all" else "doi_pubs",
            pmc_url_patterns=pmc_patterns,
            handle_pattern=normalize_url(opts["handle_pattern"]),
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
