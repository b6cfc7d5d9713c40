"""Streaming parsers and validators for the four input datasets.

All parsers are single-pass and skip-and-report: a defective line never
aborts the stream, it yields exactly one ParseIssue through the
`on_issue` callback. Without a DOI filter, the evidence parser holds
one line in memory at a time, so arbitrarily large dumps process in
constant space; with one, it also remembers the DOIs it kept.

Input formats (see README for the field-by-field schema):

* evidence dump: line-delimited JSON, UTF-8, optionally gzipped
* publications, institutions, journals: CSV with a header row, or
  line-delimited JSON with the same keys; optionally gzipped
"""

from __future__ import annotations

import csv
import gzip
import io
import json
from collections import Counter
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

from .models import (
    APC_STATES,
    CITABLE_DOC_TYPES,
    MAIN_FIELDS,
    Institution,
    JournalRecord,
    OAEvidenceRecord,
    OALocation,
    PipelineConfig,
    PublicationRecord,
    normalize_doi,
)
from .repositories import normalize_url

ISSUE_KINDS = frozenset({"malformed", "missing_required_field", "duplicate_key"})

_TRUE_WORDS = frozenset({"true", "t", "1", "yes", "y"})
_FALSE_WORDS = frozenset({"false", "f", "0", "no", "n", ""})


@dataclass(frozen=True)
class ParseIssue:
    """One rejected or dropped input line."""

    source: str
    line_no: int
    kind: str
    detail: str

    def __post_init__(self) -> None:
        if self.kind not in ISSUE_KINDS:
            raise ValueError(f"unknown issue kind: {self.kind!r}")
        if self.line_no < 1:
            raise ValueError("line_no must be >= 1")


@dataclass
class ParseStats:
    """Mutable per-source tallies a parser fills in while streaming."""

    lines: int = 0
    records: int = 0


class IssueSummary:
    """Issue collector that counts per (source, kind) in constant space.

    Callable so it can be passed directly as an `on_issue` callback.
    With `keep_all=True` the individual issues are retained for a full
    issue log.
    """

    def __init__(self, keep_all: bool = False):
        self.counts: Counter[tuple[str, str]] = Counter()
        self.issues: list[ParseIssue] | None = [] if keep_all else None

    def __call__(self, issue: ParseIssue) -> None:
        self.counts[(issue.source, issue.kind)] += 1
        if self.issues is not None:
            self.issues.append(issue)

    def total(self, source: str) -> int:
        return sum(n for (src, _), n in self.counts.items() if src == source)

    def rows(self) -> list[tuple[str, str, int]]:
        return [(src, kind, n) for (src, kind), n in sorted(self.counts.items())]


@contextmanager
def _open_stream(source) -> Iterator[io.BufferedIOBase]:
    """Open a path or binary file object, transparently unwrapping gzip.

    What is opened here is closed on exit; a caller's file object stays open.
    """
    with ExitStack() as stack:
        fh = source if hasattr(source, "read") else stack.enter_context(open(source, "rb"))
        if not hasattr(fh, "peek"):
            fh = io.BufferedReader(fh)
        if fh.peek(2)[:2] == b"\x1f\x8b":
            fh = stack.enter_context(gzip.GzipFile(fileobj=fh))
        yield fh


def _interner() -> Callable:
    """A per-parse cache that maps each value to the first equal one seen.

    Repeated cell values (years, doc types, journal ids, affiliation
    sets, ...) then share one object across all records of a parse.
    """
    cache: dict = {}
    return lambda value: cache.setdefault(value, value)


def _report(on_issue, source: str, line_no: int, kind: str, detail: str) -> None:
    if on_issue is not None:
        on_issue(ParseIssue(source=source, line_no=line_no, kind=kind, detail=detail))


def parse_evidence_stream(
    source,
    on_issue: Callable[[ParseIssue], None] | None = None,
    keep: Callable[[str], bool] | None = None,
    stats: ParseStats | None = None,
    source_name: str = "evidence",
) -> Iterator[OAEvidenceRecord]:
    """Yield evidence records from a line-delimited dump, one line at a time.

    `keep`, when given, is a predicate on the normalized DOI; lines
    whose DOI fails it are dropped silently before any record object is
    built (they are neither records nor issues). With `keep`, the DOIs
    already yielded are remembered, so a later line for the same DOI is
    reported as duplicate_key and the first record wins; without it the
    parser holds constant space and yields every valid line. Malformed
    lines are reported and skipped, never fatal.
    """
    intern = _interner()
    seen: set[str] | None = set() if keep is not None else None
    with _open_stream(source) as fh:
        for line_no, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            if stats is not None:
                stats.lines += 1
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError:
                _report(on_issue, source_name, line_no, "malformed", "undecodable bytes")
                continue
            try:
                obj = json.loads(text)
            except (ValueError, RecursionError):
                _report(on_issue, source_name, line_no, "malformed", "invalid JSON")
                continue
            if not isinstance(obj, dict):
                _report(on_issue, source_name, line_no, "malformed", "line is not an object")
                continue

            missing = [k for k in ("doi", "journal_is_oa", "oa_locations") if k not in obj]
            if missing:
                _report(
                    on_issue, source_name, line_no,
                    "missing_required_field", f"missing {missing[0]}",
                )
                continue
            doi = normalize_doi(obj["doi"]) if isinstance(obj["doi"], str) else None
            if doi is None:
                _report(on_issue, source_name, line_no, "malformed", f"invalid doi: {obj['doi']!r}")
                continue
            if keep is not None and not keep(doi):
                continue
            journal_is_oa = obj["journal_is_oa"]
            if not isinstance(journal_is_oa, bool):
                _report(on_issue, source_name, line_no, "malformed", "journal_is_oa is not a boolean")
                continue
            raw_locations = obj["oa_locations"]
            if not isinstance(raw_locations, list):
                _report(on_issue, source_name, line_no, "malformed", "oa_locations is not a list")
                continue
            locations = []
            bad_location = None
            for loc in raw_locations:
                if not isinstance(loc, dict):
                    bad_location = "location is not an object"
                    break
                host_type = loc.get("host_type")
                url = loc.get("url")
                license_ = loc.get("license")
                if host_type not in ("publisher", "repository"):
                    bad_location = f"invalid host_type: {host_type!r}"
                    break
                if not url or not isinstance(url, str):
                    bad_location = "location url missing or empty"
                    break
                if license_ is not None and not isinstance(license_, str):
                    bad_location = "license is not a string"
                    break
                locations.append(
                    OALocation(host_type=intern(host_type), url=url, license=intern(license_))
                )
            if bad_location is not None:
                _report(on_issue, source_name, line_no, "malformed", bad_location)
                continue

            if seen is not None:
                if doi in seen:
                    _report(on_issue, source_name, line_no, "duplicate_key", f"duplicate doi: {doi}")
                    continue
                seen.add(doi)
            if stats is not None:
                stats.records += 1
            yield OAEvidenceRecord(doi=doi, journal_is_oa=journal_is_oa, locations=tuple(locations))


def _iter_rows(source, source_name: str, on_issue, required: tuple[str, ...]):
    """Yield (line_no, dict) rows from a CSV or line-delimited JSON table.

    The format is sniffed from the first byte ("{" means JSON lines).
    A CSV header missing a required column is a file-level defect and
    raises ValueError rather than producing per-line issues.
    """
    with _open_stream(source) as fh:
        head = fh.peek(64).lstrip()
        if head[:1] == b"{":
            for line_no, raw in enumerate(fh, start=1):
                if not raw.strip():
                    continue
                try:
                    obj = json.loads(raw.decode("utf-8"))
                except (ValueError, RecursionError):
                    _report(on_issue, source_name, line_no, "malformed", "invalid JSON")
                    continue
                if not isinstance(obj, dict):
                    _report(on_issue, source_name, line_no, "malformed", "line is not an object")
                    continue
                yield line_no, obj
        else:
            text = io.TextIOWrapper(fh, encoding="utf-8-sig", newline="")
            reader = csv.DictReader(text)
            if reader.fieldnames is None:
                return
            missing = [c for c in required if c not in reader.fieldnames]
            if missing:
                raise ValueError(f"{source_name}: missing required columns: {', '.join(missing)}")
            for row in reader:
                yield reader.line_num, row


def _text(obj: dict, key: str) -> str:
    value = obj.get(key)
    if value is None:
        return ""
    return str(value).strip()


def _multi(obj: dict, key: str) -> list[str]:
    """Read a multi-valued column: a JSON list or a ';'-separated cell."""
    value = obj.get(key)
    if value is None:
        return []
    if isinstance(value, (list, tuple)):
        parts = [str(v).strip() for v in value]
    else:
        parts = [p.strip() for p in str(value).split(";")]
    return [p for p in parts if p]


def _parse_flag(value) -> bool | None:
    if isinstance(value, bool):
        return value
    word = str(value).strip().lower() if value is not None else ""
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    return None


def parse_publications(
    source,
    config: PipelineConfig,
    on_issue: Callable[[ParseIssue], None] | None = None,
    stats: ParseStats | None = None,
    source_name: str = "publications",
) -> Iterator[PublicationRecord]:
    """Yield publication records, dropping non-citable and out-of-period rows.

    Every dropped or rejected row is reported as exactly one issue.
    Duplicate pub_ids keep the first occurrence. Equal years, doc types,
    languages, journal ids and affiliation and field sets share one
    object across the yielded records.
    """
    intern = _interner()
    seen: set[str] = set()
    for line_no, row in _iter_rows(
        source, source_name, on_issue,
        required=("pub_id", "year", "doc_type", "journal_id", "field_ids"),
    ):
        if stats is not None:
            stats.lines += 1
        pub_id = _text(row, "pub_id")
        if not pub_id:
            _report(on_issue, source_name, line_no, "missing_required_field", "missing pub_id")
            continue
        doc_type = _text(row, "doc_type").lower()
        if not doc_type:
            _report(on_issue, source_name, line_no, "missing_required_field", "missing doc_type")
            continue
        if doc_type not in CITABLE_DOC_TYPES:
            _report(
                on_issue, source_name, line_no,
                "malformed", f"non-citable doc_type: {doc_type!r}",
            )
            continue
        try:
            year = int(_text(row, "year"))
        except ValueError:
            _report(on_issue, source_name, line_no, "malformed", f"invalid year: {_text(row, 'year')!r}")
            continue
        if not config.year_in_period(year):
            _report(
                on_issue, source_name, line_no,
                "malformed",
                f"year {year} outside period {config.period[0]}-{config.period[1]}",
            )
            continue
        journal_id = _text(row, "journal_id")
        if not journal_id:
            _report(on_issue, source_name, line_no, "missing_required_field", "missing journal_id")
            continue
        field_ids = _multi(row, "field_ids")
        if not field_ids:
            _report(on_issue, source_name, line_no, "missing_required_field", "missing field_ids")
            continue
        unknown = sorted(set(field_ids) - set(MAIN_FIELDS))
        if unknown:
            _report(on_issue, source_name, line_no, "malformed", f"unknown field: {unknown[0]!r}")
            continue
        if pub_id in seen:
            _report(on_issue, source_name, line_no, "duplicate_key", f"duplicate pub_id: {pub_id}")
            continue
        seen.add(pub_id)
        language = _text(row, "language").lower() or "unknown"
        if stats is not None:
            stats.records += 1
        yield PublicationRecord(
            pub_id=pub_id,
            doi=normalize_doi(_text(row, "doi") or None),
            year=intern(year),
            doc_type=intern(doc_type),
            language=intern(language),
            journal_id=intern(journal_id),
            institution_ids=intern(frozenset(map(intern, _multi(row, "institution_ids")))),
            field_ids=intern(frozenset(field_ids)),
        )


def parse_registries(
    institutions_source,
    journals_source,
    on_issue: Callable[[ParseIssue], None] | None = None,
    institution_stats: ParseStats | None = None,
    journal_stats: ParseStats | None = None,
) -> tuple[dict[str, Institution], dict[str, JournalRecord]]:
    """Parse the institution roster and journal registry into lookup tables.

    Duplicate keys keep the first occurrence and report a
    duplicate_key issue. Journals with no APC information get
    has_apc="unknown". Repository URL patterns are normalized here so
    matching downstream can assume normalized input. Either source may
    be None, yielding an empty table.
    """
    institutions: dict[str, Institution] = {}
    for line_no, row in _iter_rows(
        institutions_source, "institutions", on_issue,
        required=("inst_id", "country", "regions"),
    ) if institutions_source is not None else ():
        if institution_stats is not None:
            institution_stats.lines += 1
        inst_id = _text(row, "inst_id")
        if not inst_id:
            _report(on_issue, "institutions", line_no, "missing_required_field", "missing inst_id")
            continue
        country = _text(row, "country").upper()
        if not country:
            _report(on_issue, "institutions", line_no, "missing_required_field", "missing country")
            continue
        regions = _multi(row, "regions")
        if not regions:
            _report(on_issue, "institutions", line_no, "missing_required_field", "missing regions")
            continue
        if inst_id in institutions:
            _report(on_issue, "institutions", line_no, "duplicate_key", f"duplicate inst_id: {inst_id}")
            continue
        patterns = tuple(
            p for p in (normalize_url(raw) for raw in _multi(row, "repo_url_patterns")) if p
        )
        if institution_stats is not None:
            institution_stats.records += 1
        institutions[inst_id] = Institution(
            inst_id=inst_id,
            name=_text(row, "name") or inst_id,
            country=country,
            regions=frozenset(regions),
            repo_url_patterns=patterns,
        )

    journals: dict[str, JournalRecord] = {}
    for line_no, row in _iter_rows(
        journals_source, "journals", on_issue, required=("journal_id",),
    ) if journals_source is not None else ():
        if journal_stats is not None:
            journal_stats.lines += 1
        journal_id = _text(row, "journal_id")
        if not journal_id:
            _report(on_issue, "journals", line_no, "missing_required_field", "missing journal_id")
            continue
        if journal_id in journals:
            _report(on_issue, "journals", line_no, "duplicate_key", f"duplicate journal_id: {journal_id}")
            continue
        is_fully_oa = _parse_flag(row.get("is_fully_oa"))
        if is_fully_oa is None:
            _report(
                on_issue, "journals", line_no,
                "malformed", f"invalid is_fully_oa: {_text(row, 'is_fully_oa')!r}",
            )
            continue
        has_apc = _text(row, "has_apc").lower() or "unknown"
        if has_apc not in APC_STATES:
            _report(on_issue, "journals", line_no, "malformed", f"invalid has_apc: {has_apc!r}")
            continue
        if journal_stats is not None:
            journal_stats.records += 1
        journals[journal_id] = JournalRecord(
            journal_id=journal_id,
            country=_text(row, "country").upper() or None,
            is_fully_oa=is_fully_oa,
            has_apc=has_apc,
            publisher_address=_text(row, "publisher_address") or None,
        )
    return institutions, journals
