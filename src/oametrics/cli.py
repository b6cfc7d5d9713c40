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
import json
import os
import re
import tempfile
import zlib
from contextlib import ExitStack, closing, contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import islice, repeat
from json.encoder import encode_basestring
from pathlib import Path

import click

from . import __version__
from .classifier import ClassifiedRows, classify_stream
from .gold_models import GOLD_MODELS_COLUMNS, gold_country_model
from .indicators import (
    COUNTRY_MEDIANS_COLUMNS,
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
from .models import PipelineConfig, PublicationRecord, Table
from .repositories import pmc_overlap_table, repo_share_bounds

#: The universities table and the tables computed from its rows.
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
    # floor(1000 * n / d + 1/2), in integers.
    n, d = value.numerator, value.denominator
    tenths = (2000 * n + d) // (2 * d)
    if tenths < 0:  # the sign, then the magnitude's digits: // and % floor toward -infinity
        return f"-{-tenths // 10}.{-tenths % 10}"
    return f"{tenths // 10}.{tenths % 10}"


#: The CSV text of each special cell type, looked up by exact type, as
#: isinstance(v, Fraction) goes through ABCMeta. Any other value is str(value).
_CSV_CELLS = {type(None): lambda _: "", bool: lambda v: "true" if v else "false", Fraction: format_pct}


def _csv_value(value) -> str:
    return _CSV_CELLS.get(type(value), str)(value)


def _jsonl_value(value):
    """The JSON-lines value of a cell the encoder has no form for (its `default` hook)."""
    if type(value) is Fraction:
        return float(format_pct(value))
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


#: The rows `_write_table` renders at a time: enough that each column's
#: passes in C outweigh their set-up, few enough to hold little memory.
_WRITE_BATCH = 256

_BOOL_TEXT = {True: "true", False: "false"}
_NULL_CELL = {None: ""}
_JSON_NULL = {None: "null"}

#: For a column of a batch whose cells' exact types are the key, a function
#: that renders all of them in passes in C; csv.writer itself writes text,
#: None as "" and an int as str() does. Any other column is rendered
#: cell by cell, with `_csv_value` or with the JSON encoder. In JSON that
#: includes shares: the encoder writes a share's float past the float range
#: as Infinity, where float.__repr__ gives inf.
_CSV_COLUMNS = {
    frozenset({str}): lambda cells: cells,
    frozenset({str, type(None)}): lambda cells: cells,
    frozenset({bool}): lambda cells: map(_BOOL_TEXT.__getitem__, cells),
    frozenset({int}): lambda cells: cells,
    frozenset({Fraction}): lambda cells: map(format_pct, cells),
    frozenset({Fraction, type(None)}): lambda cells: map(format_pct, cells),
}
_JSONL_COLUMNS = {
    frozenset({str}): lambda cells: map(encode_basestring, cells),
    frozenset({str, type(None)}): lambda cells: map(
        _JSON_NULL.get, cells, map(encode_basestring, map(_NULL_CELL.get, cells, cells))
    ),
    frozenset({bool}): _CSV_COLUMNS[frozenset({bool})],
    frozenset({int}): lambda cells: map(int.__repr__, cells),
}


def _write_table(fh, table: Table, report_format: str) -> None:
    """Write a table to a text file a batch of rows at a time (RFC-4180 CSV or JSON lines).

    Each batch of `_WRITE_BATCH` rows is rendered a column at a time, by
    the types its cells hold, into the text a row-by-row writer gives; a
    JSON line is joined from its cells and the pieces '{"column": ' and
    ', "column": '. No whole-table string is built, so memory does not
    grow with the table. `fh` should be opened with newline="" and
    encoding="utf-8".
    """
    if report_format == "csv":
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(table.columns)
        by_kinds, each = _CSV_COLUMNS, _csv_value
    elif report_format == "jsonl":
        # One encoder per table: json.dumps(..., ensure_ascii=False) builds one per call.
        by_kinds, each = _JSONL_COLUMNS, json.JSONEncoder(ensure_ascii=False, default=_jsonl_value).encode
        keys = [("{" if k == 0 else ", ") + encode_basestring(c) + ": " for k, c in enumerate(table.columns)]
        end = "}\n" if keys else "{}\n"
    else:
        raise ValueError(f"unknown report format: {report_format!r}")
    per_cell = partial(map, each)
    rows = iter(table.rows)
    while batch := list(islice(rows, _WRITE_BATCH)):
        columns = [by_kinds.get(frozenset(map(type, cells)), per_cell)(cells) for cells in zip(*batch)]
        if report_format == "csv":
            writer.writerows(zip(*columns) if columns else batch)
        else:
            n, pieces = len(batch), []
            for key, cells in zip(keys, columns):
                pieces += repeat(key, n), cells
            fh.write("".join(map("".join, zip(*pieces, repeat(end, n)))))


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


#: The publications a report run's store holds at most before it tallies them.
_TALLY_EVERY = 1024


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
    is the same for any count. Each publication is classified as its DOI's
    evidence record arrives, so no record outlives its line, and added to
    one store (ClassifiedRows), which keeps it in the list of its outcome.
    Unless `classified` is requested, the store tallies its lists in C
    every `_TALLY_EVERY` publications, so it holds few of them. After the
    scan every table is built from the store, which is dropped before the
    write. A request for any of CELL_TABLES builds all of them, as they
    are read from one `universities` table; the bundle holds only the
    requested tables. The bundle and the issue log are written in one
    step (ReportBundle.write), the log alone without `out_dir`.

    Only the counts and the roster tables read affiliations, so a run
    that requests no table but `classified` and `issues` (the classify
    command) parses its publications with `affiliations=False`.

    Raises, before any input is read, ConfigurationError for an unknown
    table name or report format, a `max_issue_rate` that is not >= 0
    (NaN included), a bundle file that would overwrite an input or an
    issue log that would overwrite an input, a bundle file or a
    directory, and FatalInputError for a missing input or issue-log
    directory. Raises FatalInputError for an unreadable input, and
    SchemaCeilingError for an issue rate above `max_issue_rate`: that of
    the registries and publications before anything is classified, that
    of the evidence before any table is built or written.
    """
    if unknown := [name for name in tables if name not in (*REPORT_TABLES, "classified")]:
        raise ConfigurationError(f"unknown table: {unknown[0]!r}")
    if report_format not in ("csv", "jsonl"):
        raise ConfigurationError(f"unknown report format: {report_format!r}")
    if not max_issue_rate >= 0:  # also false for NaN, which no rate would ever exceed
        raise ConfigurationError(f"max issue rate must be >= 0, got {max_issue_rate!r}")
    inputs = [p for p in (publications_path, evidence_path, institutions_path, journals_path) if p is not None]
    read = {Path(path).resolve() for path in inputs}
    dirs = [] if out_dir is None else [Path(out_dir)]
    targets = [d / f"{name}.{report_format}" for d in dirs for name in tables]
    if overwritten := [path for path in targets if path.resolve() in read]:
        raise ConfigurationError(f"{overwritten[0]}: a table would overwrite an input")
    if issue_log_path is not None:
        log = Path(issue_log_path).resolve()
        if log.is_dir() or log in read or any(log == path.resolve() for path in dirs + targets):
            raise ConfigurationError(f"{issue_log_path}: issue log would overwrite a directory, a table or an input")
    for path in inputs:
        if not Path(path).exists():
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
    # The parse's own set of pub_ids holds each record, so no list of them grows beside it; the
    # list is made once the parse has freed its other tables.
    by_id: dict[str, PublicationRecord] = {}
    affiliations = not set(tables) <= {"classified", "issues"}
    with _reading(publications_path):
        for _ in parse_publications(publications_path, config, sink, stats["publications"],
                                    by_id=by_id, affiliations=affiliations):
            pass
    publications = list(by_id.values())
    del by_id

    def check_issue_rates(*sources):
        for source in sources:
            if stats[source].lines and (rate := sink.total(source) / stats[source].lines) > max_issue_rate:
                raise SchemaCeilingError(
                    f"{source}: issue rate {rate:.3f} exceeds ceiling {max_issue_rate:.3f}"
                )

    check_issue_rates("publications", "institutions", "journals")
    # One DOI map, each DOI to its publication or to the list of those sharing it, built
    # after the parse's pub-id dict is freed.
    by_doi, without_doi = {}, [pub for pub in publications if pub.doi is None]
    for pub in publications:
        if pub.doi is not None and (first := by_doi.setdefault(pub.doi, pub)) is not pub:
            if type(first) is not list:
                first = by_doi[pub.doi] = [first]
            first.append(pub)
    del publications

    # One store takes one add per publication. It has the roster, and so reads URLs, only for the
    # repository, PMC and gold tables, and it keeps its lists until the end only for `classified`.
    roster = {"repo_bounds", "pmc_overlap", "gold_models", "gold_models_full"} & set(tables)
    store = ClassifiedRows(institutions if roster else None, config.handle_pattern, config.pmc_url_patterns,
                           tally_every=0 if "classified" in tables else _TALLY_EVERY)
    add = store.add
    # Each publication is classified and added as its record arrives; an add that raises closes the scan.
    with _reading(evidence_path), closing(parse_evidence_stream(
        evidence_path, on_issue=sink, keep=by_doi, stats=stats["evidence"],
        processes=shards if shards is not None else _usable_cpus(),
    )) as records:
        for pub, types, urls in classify_stream(records, by_doi, journals, without_doi):
            add(pub, types, urls)
    check_issue_rates("evidence")
    # Free the DOI map, which no table reads, before any table is built or written.
    del by_doi, without_doi

    # The classified view keeps the lists; every other table reads the counters of their tally.
    built = {"classified": store.table()} if "classified" in tables else {}
    if "overlap" in tables:
        built["overlap"] = overlap_matrix(store)
    if set(CELL_TABLES) & set(tables):
        universities = university_indicators(count_full(store), institutions, config)
        built["universities"] = universities
        built["field_summary"] = field_summary(universities)
        built["country_medians_full"] = median_share_by_country(universities, config.min_universities_country)
        built["country_medians"] = _displayed(built["country_medians_full"], COUNTRY_MEDIANS_COLUMNS)
        built["region_medians"] = region_rollup(universities, institutions)
        built["profiles"] = field_profile(universities)
    if "repo_bounds" in tables:
        built["repo_bounds"] = repo_share_bounds(store)
    if "pmc_overlap" in tables:
        built["pmc_overlap"] = pmc_overlap_table(store)
    if {"gold_models", "gold_models_full"} & set(tables):
        gold = gold_country_model(store, journals, config.min_universities_gold_model)
        built["gold_models_full"], built["gold_models"] = gold, _displayed(gold, GOLD_MODELS_COLUMNS)
    del store
    built["issues"] = sink.table()
    bundle = ReportBundle({name: table for name, table in built.items() if name in tables})

    log = [] if issue_log_path is None else [(Path(issue_log_path), sink.log_table())]
    if out_dir is not None:
        bundle.write(Path(out_dir), report_format, extra=log)
    elif log:
        _write_tables(log, report_format)
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


def _common_options(with_registries: bool):
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


def _invoke(tables: tuple[str, ...], **opts) -> None:
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
    except (PipelineError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        raise SystemExit(getattr(exc, "exit_code", 1))
    click.echo(f"wrote {len(bundle.tables)} table(s) to {opts['out_dir']}", err=True)


@click.group()
@click.version_option(__version__, prog_name="oametrics")
def main() -> None:
    """Classify open-access status and compute institutional OA indicators."""


#: Each subcommand: the tables it writes and its help line. All but
#: `classify` read the institution roster and the journal registry.
_COMMANDS = {
    "classify": (("classified",), "Emit per-publication OA type labels."),
    "aggregate": (AGGREGATE_TABLES, "Emit indicator tables: universities, fields, countries, regions."),
    "repo-match": (("repo_bounds",), "Emit per-university repository-hosting bounds."),
    "pmc-report": (("pmc_overlap",), "Emit the per-country PMC overlap table."),
    "gold-model": (("gold_models", "gold_models_full"), "Emit per-country gold OA publishing models."),
    "report": (REPORT_TABLES, "Emit the full report bundle."),
}
for _name, (_tables, _help) in _COMMANDS.items():
    main.command(_name, help=_help)(_common_options(_name != "classify")(partial(_invoke, _tables)))


if __name__ == "__main__":
    main()
