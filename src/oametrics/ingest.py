"""Streaming parsers and validators for the four input datasets.

All parsers are single-pass and skip-and-report: a defective line never
aborts the stream, it yields exactly one ParseIssue through the
`on_issue` callback. Without a DOI filter, the evidence parser holds
one line in memory at a time in one process, so arbitrarily large
dumps process in constant space. With one, it also remembers the DOIs
it kept, and it may fork to scan byte ranges of an uncompressed dump in
parallel; the result is the same as a scan in one process.

Input formats (see README for the field-by-field schema):

* evidence dump: line-delimited JSON, UTF-8, optionally gzipped
* publications, institutions, journals: CSV with a header row, or
  line-delimited JSON with the same keys; optionally gzipped
"""

from __future__ import annotations

import codecs
import csv
import gzip
import io
import json
import marshal
import os
import signal
import stat
import threading
import traceback
from collections import Counter
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NoReturn

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
    Table,
    normalize_doi,
)

ISSUE_KINDS = frozenset({"malformed", "missing_required_field", "duplicate_key"})
ISSUES_COLUMNS = ("source", "kind", "count")
ISSUE_LOG_COLUMNS = ("source", "line_no", "kind", "detail")

_TRUE_WORDS = frozenset({"true", "t", "1", "yes", "y"})
_FALSE_WORDS = frozenset({"false", "f", "0", "no", "n", ""})

_GZIP_MAGIC = b"\x1f\x8b"

#: The smallest byte range of a dump that gets its own process. Forking,
#: sending a range's results back and merging them cost more than
#: scanning a small range in parallel saves.
_MIN_RANGE_BYTES = 8 << 20


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

    def table(self) -> Table:
        """The issues table: the issue count per (source, kind), sorted."""
        rows = tuple((src, kind, n) for (src, kind), n in sorted(self.counts.items()))
        return Table("issues", ISSUES_COLUMNS, rows)

    def log_table(self) -> Table:
        """Every retained issue in arrival order (needs keep_all=True)."""
        rows = tuple((i.source, i.line_no, i.kind, i.detail) for i in self.issues or ())
        return Table("issue_log", ISSUE_LOG_COLUMNS, rows)


@contextmanager
def _open_stream(source) -> Iterator[io.BufferedIOBase]:
    """Open a path or binary file object, unwrapping gzip and skipping a UTF-8 BOM.

    What is opened here is closed on exit; a caller's file object stays open.
    """
    with ExitStack() as stack:
        fh = source if hasattr(source, "read") else stack.enter_context(open(source, "rb"))
        if not hasattr(fh, "peek"):
            fh = io.BufferedReader(fh)
        if fh.peek(2)[:2] == _GZIP_MAGIC:
            fh = stack.enter_context(gzip.GzipFile(fileobj=fh))
        if fh.peek(3)[:3] == codecs.BOM_UTF8:
            fh.read(3)
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
    keep: Callable[[str], str | None] | None = None,
    stats: ParseStats | None = None,
    processes: int = 1,
) -> Iterator[OAEvidenceRecord]:
    """Yield evidence records from a line-delimited dump, one line at a time.

    `keep`, when given, maps the normalized DOI to the DOI object the
    record is built under (so a caller can store every record under a
    string it already holds), or to None; a line it maps to None is
    dropped silently before any record object is built (it is neither a
    record nor an issue). With `keep`, the DOIs
    already yielded are remembered, so a later line for the same DOI is
    reported as duplicate_key and the first record wins; without it the
    parser holds constant space and yields every valid line. Malformed
    lines are reported and skipped, never fatal.

    With `keep` and `processes` > 1, an uncompressed dump given by path
    may be scanned in byte ranges by forked processes (see
    `_byte_ranges`). The records, issues and stats are exactly those of
    a scan in one process, in the same order.
    """
    if stats is None:
        stats = ParseStats()
    intern = _interner()
    seen: set[str] | None = set() if keep is not None else None
    ranges = _byte_ranges(source, processes) if keep is not None else []
    with ExitStack() as stack:
        if len(ranges) > 1:
            events = _scan_ranges(source, ranges, keep, stats)
        else:
            events = _scan_evidence(stack.enter_context(_open_stream(source)), keep, stats)
        for line_no, kind, value in events:
            if kind is not None:
                _report(on_issue, "evidence", line_no, kind, value)
                continue
            doi, journal_is_oa, locations = value
            if seen is not None:
                doi = keep(doi)
                if doi in seen:
                    _report(on_issue, "evidence", line_no, "duplicate_key", f"duplicate doi: {doi}")
                    continue
                seen.add(doi)
            stats.records += 1
            yield OAEvidenceRecord(
                doi,
                journal_is_oa,
                [OALocation(intern(host), url, intern(license_)) for host, url, license_ in locations],
            )


def _scan_evidence(lines: Iterable[bytes], keep, stats: ParseStats):
    """Validate each line of a dump or of one byte range of it.

    This is the one per-line check, shared by every range and by the
    stream path. For each non-blank line `keep` does not drop it yields
    (line number, issue kind, detail) or, for a valid line, (line
    number, None, (doi, journal_is_oa, [(host_type, url, license), ...])),
    plain values a forked scan can marshal. Lines are numbered from 1
    at the start of `lines`; returns the number of lines read.
    """
    line_no = 0
    for line_no, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        stats.lines += 1
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            yield line_no, "malformed", "undecodable bytes"
            continue
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError):
            yield line_no, "malformed", "invalid JSON"
            continue
        if not isinstance(obj, dict):
            yield line_no, "malformed", "line is not an object"
            continue

        missing = [k for k in ("doi", "journal_is_oa", "oa_locations") if k not in obj]
        if missing:
            yield line_no, "missing_required_field", f"missing {missing[0]}"
            continue
        doi = normalize_doi(obj["doi"]) if isinstance(obj["doi"], str) else None
        if doi is None:
            yield line_no, "malformed", f"invalid doi: {obj['doi']!r}"
            continue
        if keep is not None and keep(doi) is None:
            continue
        journal_is_oa = obj["journal_is_oa"]
        if not isinstance(journal_is_oa, bool):
            yield line_no, "malformed", "journal_is_oa is not a boolean"
            continue
        raw_locations = obj["oa_locations"]
        if not isinstance(raw_locations, list):
            yield line_no, "malformed", "oa_locations is not a list"
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
            locations.append((host_type, url, license_))
        if bad_location is not None:
            yield line_no, "malformed", bad_location
            continue
        yield line_no, None, (doi, journal_is_oa, locations)
    return line_no


def _byte_ranges(source, processes: int) -> list[tuple[int, int]]:
    """Split an uncompressed dump into up to `processes` byte ranges.

    Each cut is moved to the next line start, so a range owns every line
    that starts inside it. Returns fewer than two ranges, meaning "scan
    in this process", for a file object, anything but a regular file (a
    pipe must be read once, from its start), a gzip file, a dump under
    two `_MIN_RANGE_BYTES`, a platform without `os.fork` and a process
    that runs other threads, one of which may hold a lock a forked
    child would inherit held.
    """
    if (
        processes < 2
        or hasattr(source, "read")
        or not hasattr(os, "fork")
        or threading.active_count() > 1
    ):
        return []
    info = os.stat(source)
    size = info.st_size
    count = min(processes, size // _MIN_RANGE_BYTES)
    if not stat.S_ISREG(info.st_mode) or count < 2:
        return []
    with open(source, "rb") as fh:
        head = fh.read(len(codecs.BOM_UTF8))
        if head.startswith(_GZIP_MAGIC):
            return []
        cuts = [len(head) if head == codecs.BOM_UTF8 else 0]
        for k in range(1, count):
            fh.seek(k * size // count - 1)
            fh.readline()
            cuts.append(fh.tell())
        cuts.append(size)
    return [(start, end) for start, end in zip(cuts, cuts[1:]) if start < end]


def _read_lines(fh, size: int) -> Iterator[bytes]:
    """Yield the lines in the next `size` bytes of fh, which end at a line start."""
    while size > 0:
        raw = fh.readline()
        if not raw:
            return
        size -= len(raw)
        yield raw


def _scan_range(path, start: int, end: int, keep) -> tuple[list, int, int]:
    """Scan the lines that start in bytes [start, end) of an uncompressed dump.

    Returns the events with line numbers counted from the range's first
    line, the number of lines read, and the number of non-blank lines.
    """
    stats = ParseStats()
    events = []
    with open(path, "rb") as fh:
        fh.seek(start)
        scan = _scan_evidence(_read_lines(fh, end - start), keep, stats)
        while True:
            try:
                events.append(next(scan))
            except StopIteration as done:
                return events, done.value, stats.lines


def _range_child(write_fd: int, path, start: int, end: int, keep) -> NoReturn:
    """Body of a forked child: scan one range and marshal the result into the pipe.

    It ends in os._exit whatever happens, so it never unwinds into the
    parent's stack or runs the parent's cleanup; a failure is printed
    and shows as a non-zero exit status.
    """
    status = 1
    try:
        with open(write_fd, "wb") as out:
            marshal.dump(_scan_range(path, start, end, keep), out)
        status = 0
    except BaseException:
        traceback.print_exc()
    finally:
        os._exit(status)


def _scan_ranges(path, ranges: list[tuple[int, int]], keep, stats: ParseStats):
    """Scan ranges[0] here and each later range in a forked child.

    Yields the events of all ranges in line order, numbered from the
    start of the dump. A child that fails, exits non-zero or sends
    truncated data raises OSError. Every child is reaped before the
    first event is yielded; on an error the remaining ones are killed
    first.
    """
    children: dict[int, io.BufferedReader] = {}  # pid -> read end of its pipe, in range order
    try:
        for start, end in ranges[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                os.close(read_fd)
                _range_child(write_fd, path, start, end, keep)
            os.close(write_fd)
            children[pid] = open(read_fd, "rb")
        parts = [_scan_range(path, *ranges[0], keep)]
        for (start, end), pid in zip(ranges[1:], list(children)):
            with children[pid] as pipe:
                payload = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            if status != 0:
                raise OSError(
                    f"scan of bytes {start}-{end} failed in a child process "
                    f"(exit status {os.waitstatus_to_exitcode(status)})"
                )
            try:
                parts.append(marshal.loads(payload))
            except (EOFError, ValueError) as exc:
                raise OSError(f"scan of bytes {start}-{end} sent truncated data") from exc
    finally:
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    offset = 0
    for events, n_lines, non_blank in parts:
        stats.lines += non_blank
        for line_no, kind, value in events:
            yield offset + line_no, kind, value
        offset += n_lines


def _iter_rows(source, source_name: str, on_issue, stats: ParseStats, required: tuple[str, ...]):
    """Yield (line_no, dict) rows from a CSV or line-delimited JSON table.

    The format is sniffed from the first byte after any UTF-8 BOM ("{"
    means JSON lines). Every non-blank line read counts in `stats.lines`,
    also one reported here as malformed, so an issue rate never exceeds 1.
    A CSV header missing a required column is a file-level defect and
    raises ValueError rather than producing per-line issues.
    """
    with _open_stream(source) as fh:
        head = fh.peek(64).lstrip()
        if head[:1] == b"{":
            for line_no, raw in enumerate(fh, start=1):
                if not raw.strip():
                    continue
                stats.lines += 1
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
            text = io.TextIOWrapper(fh, encoding="utf-8", newline="")
            reader = csv.DictReader(text)
            if reader.fieldnames is None:
                return
            missing = [c for c in required if c not in reader.fieldnames]
            if missing:
                raise ValueError(f"{source_name}: missing required columns: {', '.join(missing)}")
            for row in reader:
                stats.lines += 1
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
) -> Iterator[PublicationRecord]:
    """Yield publication records, dropping non-citable and out-of-period rows.

    Every dropped or rejected row is reported as exactly one issue.
    Duplicate pub_ids keep the first occurrence. Equal years, doc types,
    languages, journal ids and affiliation and field sets share one
    object across the yielded records.
    """
    if stats is None:
        stats = ParseStats()
    intern = _interner()
    seen: set[str] = set()
    for line_no, row in _iter_rows(
        source, "publications", on_issue, stats,
        required=("pub_id", "year", "doc_type", "journal_id", "field_ids"),
    ):
        pub_id = _text(row, "pub_id")
        if not pub_id:
            _report(on_issue, "publications", line_no, "missing_required_field", "missing pub_id")
            continue
        doc_type = _text(row, "doc_type").lower()
        if not doc_type:
            _report(on_issue, "publications", line_no, "missing_required_field", "missing doc_type")
            continue
        if doc_type not in CITABLE_DOC_TYPES:
            _report(
                on_issue, "publications", line_no,
                "malformed", f"non-citable doc_type: {doc_type!r}",
            )
            continue
        try:
            year = int(_text(row, "year"))
        except ValueError:
            _report(on_issue, "publications", line_no, "malformed", f"invalid year: {_text(row, 'year')!r}")
            continue
        if not config.year_in_period(year):
            _report(
                on_issue, "publications", line_no,
                "malformed",
                f"year {year} outside period {config.period[0]}-{config.period[1]}",
            )
            continue
        journal_id = _text(row, "journal_id")
        if not journal_id:
            _report(on_issue, "publications", line_no, "missing_required_field", "missing journal_id")
            continue
        field_ids = _multi(row, "field_ids")
        if not field_ids:
            _report(on_issue, "publications", line_no, "missing_required_field", "missing field_ids")
            continue
        unknown = sorted(set(field_ids) - set(MAIN_FIELDS))
        if unknown:
            _report(on_issue, "publications", line_no, "malformed", f"unknown field: {unknown[0]!r}")
            continue
        if pub_id in seen:
            _report(on_issue, "publications", line_no, "duplicate_key", f"duplicate pub_id: {pub_id}")
            continue
        seen.add(pub_id)
        language = _text(row, "language").lower() or "unknown"
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
    has_apc="unknown". Either source may be None, yielding an empty
    table.
    """
    if institution_stats is None:
        institution_stats = ParseStats()
    if journal_stats is None:
        journal_stats = ParseStats()
    institutions: dict[str, Institution] = {}
    for line_no, row in _iter_rows(
        institutions_source, "institutions", on_issue, institution_stats,
        required=("inst_id", "country", "regions"),
    ) if institutions_source is not None else ():
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
        institution_stats.records += 1
        institutions[inst_id] = Institution(
            inst_id=inst_id,
            name=_text(row, "name") or inst_id,
            country=country,
            regions=frozenset(regions),
            repo_url_patterns=_multi(row, "repo_url_patterns"),
        )

    journals: dict[str, JournalRecord] = {}
    for line_no, row in _iter_rows(
        journals_source, "journals", on_issue, journal_stats, required=("journal_id",),
    ) if journals_source is not None else ():
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
        journal_stats.records += 1
        journals[journal_id] = JournalRecord(
            journal_id=journal_id,
            country=_text(row, "country").upper() or None,
            is_fully_oa=is_fully_oa,
            has_apc=has_apc,
            publisher_address=_text(row, "publisher_address") or None,
        )
    return institutions, journals
