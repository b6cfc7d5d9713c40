"""Streaming parsers and validators for the four input datasets.

All parsers are single-pass and skip-and-report: a defective line never
aborts the stream, it yields exactly one ParseIssue through the
`on_issue` callback, unless it is an evidence line the DOI filter drops
undecoded. The evidence parser reads a dump in blocks of lines of at
most `_BLOCK_BYTES` (64 KiB) plus one line, and holds one block in
memory at a time in one process, so arbitrarily large dumps process in
constant space. With a `keep` dict of the needed DOIs, it yields
each DOI's first record and then sets its value to None, drops most
lines of other DOIs before decoding them (see `_scan_evidence`),
and it may fork to scan byte ranges of an uncompressed dump in
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
import operator
import os
import re
import signal
import stat
import threading
import traceback
from collections import Counter
from contextlib import ExitStack, closing, contextmanager
from dataclasses import dataclass
from itertools import chain, compress, count, islice, repeat
from typing import Callable, Iterable, Iterator, NoReturn

from .models import (
    APC_STATES,
    CITABLE_DOC_TYPES,
    DOI_RESOLVER_PREFIX,
    MAIN_FIELD_SET,
    Institution,
    JournalRecord,
    OAEvidenceRecord,
    PipelineConfig,
    PublicationRecord,
    Table,
    _checked_publication,
    normalize_doi,
    normalize_url,
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

#: The bytes of dump lines the evidence scan reads and checks as one
#: block: it reads lines until they hold more than this. Each block
#: costs a few passes in C, so a larger block saves little time and
#: raises the scan's peak memory.
_BLOCK_BYTES = 64 << 10
#: The bytes of JSON lines a table is read and checked in at a time. A
#: block's decoded objects and cells live until its last row is used: of
#: 4 to 64 KiB, 8 KiB raised peak RSS least, within 1% of the fastest.
_ROW_BLOCK_BYTES = 8 << 10

#: The scanner of `_json_object`, and the blanks json.loads allows around
#: a value, which alone make a line blank (str.strip's and bytes.strip's
#: defaults also strip \x0b and \x0c, and str.strip Unicode blanks).
_DECODER = json.JSONDecoder()
_JSON_BLANKS = " \t\n\r"
_JSON_BLANK_BYTES = _JSON_BLANKS.encode()
#: The JSON escape of a UTF-16 surrogate, the one escape that can decode to
#: a string UTF-8 cannot encode.
_SURROGATE_ESCAPE = re.compile(rb"\\u[dD][89a-fA-F]")
#: `_BACKSLASH in raw` is a memchr. `b"\\" in raw` first tries its operand
#: as an int and raises, about 150 ns against 17 per line.
_BACKSLASH = ord("\\")

#: A line that opens with a "doi" key whose string value has no escape.
_FIRST_DOI = re.compile(rb'[ \t\r]*\{[ \t\r]*"doi"[ \t\r]*:[ \t\r]*"([^"\\]*)"')

#: In "\n"-joined DOI values, each lowercased and stripped, one or more
#: resolver prefixes at the start of a value, as normalize_doi strips
#: them, with a blank that is not a line end for its `\s`.
_LINE_RESOLVER_PREFIXES = re.compile(rf"\n(?:{DOI_RESOLVER_PREFIX}[^\S\n]*)+")

#: In "\n"-joined DOIs whose prefixes are stripped, the start of one that
#: normalize_doi rejects: it lacks "10.", a registrant, the "/" or a suffix.
_LINE_BAD_DOI = re.compile(r"\n(?!10\.[^/\n]+/.)")


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
            stack.callback(fh.detach)  # else collecting the wrapper would close the caller's object
        if fh.peek(2)[:2] == _GZIP_MAGIC:
            # Lines from a BufferedReader's C readline, not GzipFile's Python one,
            # and 64 KiB per call into the decompressor.
            fh = stack.enter_context(io.BufferedReader(gzip.GzipFile(fileobj=fh), 1 << 16))
        if fh.peek(3)[:3] == codecs.BOM_UTF8:
            fh.read(3)
        yield fh


def _report(on_issue, source: str, line_no: int, kind: str, detail: str) -> None:
    if on_issue is not None:
        on_issue(ParseIssue(source=source, line_no=line_no, kind=kind, detail=detail))


def parse_evidence_stream(
    source,
    on_issue: Callable[[ParseIssue], None] | None = None,
    keep: dict[str, object] | None = None,
    stats: ParseStats | None = None,
    processes: int = 1,
) -> Iterator[OAEvidenceRecord]:
    """Yield evidence records from a line-delimited dump, read a block of lines at a time.

    Each record is built once, from the checked tuple `_scan_evidence`
    yields. `keep`, when given, maps each needed normalized DOI to any
    value but None. A line for any other DOI is dropped silently before
    any record is built (it is neither a record nor an issue). A record's
    DOI keeps its value while the record is consumed and maps to None from
    the next one on, so a later line for it is a duplicate_key issue and
    the first record wins; at the end, a DOI still mapping to its value
    had no record. Without `keep` the parser holds constant space and
    yields every valid line. Malformed lines are reported and skipped, never fatal.

    With `keep` and `processes` > 1, an uncompressed dump given by path
    may be scanned in byte ranges by forked processes (see
    `_byte_ranges`). The records, issues, stats and updated `keep` are
    exactly those of a scan in one process, in the same order; closing
    the stream early reaps every child.
    """
    if stats is None:
        stats = ParseStats()
    ranges = _byte_ranges(source, processes) if keep is not None else []
    with ExitStack() as stack:
        if len(ranges) > 1:
            events = stack.enter_context(closing(_scan_ranges(source, ranges, keep, stats)))
        else:
            blocks = _stream_blocks(stack.enter_context(_open_stream(source)), _BLOCK_BYTES)
            events = _scan_evidence(blocks, keep, stats)
        for line_no, kind, value in events:
            if kind is not None:
                _report(on_issue, "evidence", line_no, kind, value)
                continue
            doi = value[0]
            if keep is not None and keep[doi] is None:
                _report(on_issue, "evidence", line_no, "duplicate_key", f"duplicate doi: {doi}")
                continue
            stats.records += 1
            yield OAEvidenceRecord._make(value)
            if keep is not None:
                keep[doi] = None


def _scan_evidence(blocks: Iterable[list[bytes]], keep, stats: ParseStats):
    """Validate each line of a dump or of one byte range of it, a block of lines at a time.

    This is the one scan, shared by every range and by the stream path.
    A line is blank when it holds only JSON blanks (space, tab, CR, LF).
    For each non-blank line `keep` does not drop it yields (line number,
    issue kind, detail) or, for a valid line, (line number, None, (doi,
    journal_is_oa, repository_urls, publisher_copy, licensed_copy)):
    OAEvidenceRecord's fields in final form, the DOI and each repository
    URL normalized, as plain values a forked scan can marshal. A license
    counts only when it is not blank. Lines are numbered from 1 at the
    start of `blocks`; returns the number of lines read.

    With `keep`, a valid UTF-8 line that opens with a "doi" key whose
    unescaped value is a valid DOI `keep` does not hold is counted in
    `stats.lines` and dropped undecoded if it has no other "doi" and no
    `\\u` escape, names both other required keys and ends with "}"; a
    defect elsewhere in it goes unreported. The rule is per line, but
    `_triage` checks it for a whole block at once. Every other line is
    parsed in full by `_check_line`, which reuses the DOI normalized for
    the block if the parsed value is equal. The `_FIRST_DOI` of the
    module at call time finds the "doi" keys, so a pattern that never
    matches turns the drop off.
    """
    first_doi = _FIRST_DOI
    line_no = 0
    for block in blocks:
        if keep is None:
            rest = zip(range(len(block)), repeat(None), repeat(None))
        else:
            dropped, rest = _triage(block, keep, first_doi)
            stats.lines += dropped
        for i, value, doi in rest:
            raw = block[i]
            if not raw.strip(_JSON_BLANK_BYTES):
                continue
            stats.lines += 1
            event = _check_line(line_no + i + 1, raw, keep, value, doi)
            if event is not None:
                yield event
        line_no += len(block)
        del block, rest  # before the next block is read
    return line_no


def _triage(block: list[bytes], keep, first_doi: re.Pattern) -> tuple[int, Iterable[tuple]]:
    """Drop the lines of a block that the rule of `_scan_evidence` drops.

    Returns the number of dropped lines and, in line order, (index in the
    block, value, doi) of every other line: the value of its first "doi"
    key decoded and what normalize_doi makes of it, or None and None for
    a line `first_doi` does not match. Each step is a pass in C over the
    block, and the byte checks run only on the lines a DOI would let drop.
    """
    found = list(map(first_doi.match, block))
    if None in found:
        where = list(_where(found))
        unmatched = zip(_where(map(operator.not_, found)), repeat(None), repeat(None))
        matched = list(compress(block, found))
        found = list(filter(None, found))
    else:
        where, unmatched, matched = range(len(block)), None, block
    if not found:
        return 0, unmatched
    raw_values = list(map(operator.itemgetter(1), found))
    del found  # before the values' copies are made
    dois, invalid = _block_dois(raw_values)
    # A line of a needed or invalid DOI is parsed in full, as is one the byte checks keep.
    parse = list(map(keep.__contains__, dois))
    for k in invalid:
        parse[k] = True
    if not all(parse):
        droppable = list(map(operator.not_, parse))
        undroppable = _undroppable(list(compress(matched, droppable)))
        if undroppable:
            positions = list(_where(droppable))
            for j in undroppable:
                parse[positions[j]] = True
    rest = zip(
        compress(where, parse),
        map(bytes.decode, compress(raw_values, parse), repeat("utf-8"), repeat("replace")),
        compress(dois, parse),
    )
    if unmatched is not None:
        rest = sorted(chain(rest, unmatched))  # by index: every index is distinct
    return len(matched) - parse.count(True), rest


def _where(flags: Iterable) -> Iterator[int]:
    """The positions of the true items of `flags`."""
    return compress(count(), flags)


def _block_dois(raw_values: list[bytes]) -> tuple[list[str | None], Iterable[int]]:
    """What normalize_doi makes of each raw "doi" value, and the positions of those it rejects.

    Values that are all ASCII are lowercased, stripped and rid of their
    resolver prefixes in a few passes over all of them; only when one of
    the results is not a valid DOI, or a value is not ASCII, does every
    value go through normalize_doi.
    """
    joined = b"\n".join(raw_values)
    if joined.isascii():
        # A leading "\n" starts the first value as it does the others.
        text = "\n" + "\n".join(map(str.strip, joined.lower().decode().split("\n")))
        text = _LINE_RESOLVER_PREFIXES.sub("\n", text)
        if not _LINE_BAD_DOI.search(text):
            return text[1:].split("\n"), ()
    dois = list(map(normalize_doi, map(bytes.decode, raw_values, repeat("utf-8"), repeat("replace"))))
    return dois, _where(map(operator.not_, dois))


def _undroppable(lines: list[bytes]) -> set[int]:
    """The positions in `lines` of those the byte checks of the drop rule keep.

    Each check is a pass in C over all of `lines` or over their join
    (no pattern spans a line's end); a check that fails for the join is
    made line by line, only to find the lines it fails for. Lines are
    searched with bytes.find, as `in` first tries its operand as an int
    and raises.
    """
    joined = b"".join(lines)
    kept: set[int] = set()
    # Each line holds the "doi" key `_FIRST_DOI` matched, so a total above
    # one per line means a second "doi" somewhere.
    if joined.count(b'"doi"') != len(lines):
        kept.update(_where(map(operator.ne, map(bytes.count, lines, repeat(b'"doi"')), repeat(1))))
    # A memchr for the backslash first: most dumps hold no escape at all.
    if joined.find(b"\\") >= 0 and joined.find(b"\\u") >= 0:
        kept.update(_where(map(operator.ge, map(bytes.find, lines, repeat(b"\\u")), repeat(0))))
    for key in (b'"journal_is_oa"', b'"oa_locations"'):
        at = list(map(bytes.find, lines, repeat(key)))
        if min(at) <= 0:
            kept.update(_where(map(operator.le, at, repeat(0))))
    ends = list(map(bytes.endswith, lines, repeat(b"}\n")))
    if not all(ends):
        kept.update(j for j in _where(map(operator.not_, ends)) if not lines[j].rstrip().endswith(b"}"))
    if not (joined.isascii() or _is_utf8(joined)):
        kept.update(j for j, raw in enumerate(lines) if not (raw.isascii() or _is_utf8(raw)))
    return kept


def _check_line(line_no: int, raw: bytes, keep, value: str | None, doi: str | None) -> tuple | None:
    """The event `_scan_evidence` yields for one non-blank line it did not drop, if any.

    `doi` is what normalize_doi makes of `value`, the line's first "doi"
    value as `_triage` read it (None and None when it read none); it is
    used as the line's DOI if the parsed "doi" value equals `value`.
    """
    obj = _json_object(raw)
    if type(obj) is str:
        return line_no, "malformed", obj
    missing = [k for k in ("doi", "journal_is_oa", "oa_locations") if k not in obj]
    if missing:
        return line_no, "missing_required_field", f"missing {missing[0]}"
    if obj["doi"] != value:
        doi = normalize_doi(obj["doi"]) if isinstance(obj["doi"], str) else None
    if doi is None:
        return line_no, "malformed", f"invalid doi: {obj['doi']!r}"
    if keep is not None and doi not in keep:
        return None
    journal_is_oa = obj["journal_is_oa"]
    if not isinstance(journal_is_oa, bool):
        return line_no, "malformed", "journal_is_oa is not a boolean"
    raw_locations = obj["oa_locations"]
    if not isinstance(raw_locations, list):
        return line_no, "malformed", "oa_locations is not a list"
    repository_urls = []
    publisher_copy = licensed_copy = False
    for loc in raw_locations:
        if not isinstance(loc, dict):
            return line_no, "malformed", "location is not an object"
        host_type = loc.get("host_type")
        url = loc.get("url")
        license_ = loc.get("license")
        if host_type not in ("publisher", "repository"):
            return line_no, "malformed", f"invalid host_type: {host_type!r}"
        if not url or not isinstance(url, str):
            return line_no, "malformed", "location url missing or empty"
        if license_ is not None and not isinstance(license_, str):
            return line_no, "malformed", "license is not a string"
        if host_type == "repository":
            repository_urls.append(normalize_url(url))
        else:
            publisher_copy = True
            licensed_copy = licensed_copy or bool(license_ and license_.strip())
    # The license is kept only as a flag, so a surrogate in it is never written.
    if _BACKSLASH in raw and not _utf8_encodable(raw, (doi, *repository_urls)):
        return line_no, "malformed", "unpaired surrogate escape"
    return line_no, None, (doi, journal_is_oa, tuple(repository_urls), publisher_copy, licensed_copy)


def _json_object(raw: bytes) -> dict | str:
    """The JSON object a line holds, or the detail of the malformed issue it is instead.

    The line is read exactly as json.loads reads its UTF-8 text: one value
    with only JSON blanks (space, tab, CR, LF) around it, and `NaN` and
    `Infinity` accepted. The decoder's scanner is called directly, which
    skips json.loads's per-call wrapper.
    """
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        return "undecodable bytes"
    try:
        obj, end = _DECODER.scan_once(text, len(text) - len(text.lstrip(_JSON_BLANKS)))
    except (StopIteration, ValueError, RecursionError):
        return "invalid JSON"
    if text[end:].strip(_JSON_BLANKS):
        return "invalid JSON"
    return obj if type(obj) is dict else "line is not an object"


def _utf8_encodable(raw: bytes, texts) -> bool:
    """Whether the texts read from JSON line `raw` can be written as UTF-8.

    `texts` holds strings, tuples of strings and booleans (skipped). Only
    a `\\u` escape of a surrogate (U+D800 to U+DFFF) can decode to a string
    UTF-8 cannot encode, an unpaired one, so a line without such an escape
    is passed without the encode. Callers skip the call for a line, or a
    block of lines, that holds no backslash or no such escape.
    """
    if not _SURROGATE_ESCAPE.search(raw):
        return True
    try:
        "".join([t if type(t) is str else "".join(t) for t in texts if type(t) is not bool]).encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _is_utf8(raw: bytes) -> bool:
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


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


def _stream_blocks(fh: io.BufferedIOBase, size: int) -> Iterator[list[bytes]]:
    """Yield the lines of a stream in blocks of a little over `size` bytes."""
    while block := fh.readlines(size):
        yield block


def _read_blocks(path, start: int, end: int) -> Iterator[list[bytes]]:
    """Yield, in blocks, the lines that start in bytes [start, end) of a file; `end` is a line start."""
    with open(path, "rb") as fh:
        fh.seek(start)
        left = end - start
        while left > 0:
            # readlines reads on until its lines hold more than the hint, so a
            # hint of left - 1 ends the block at `end`; a hint of 0 means "all".
            hint = min(left - 1, _BLOCK_BYTES)
            block = fh.readlines(hint) if hint > 0 else [fh.readline()]
            size = sum(map(len, block))
            if not size:
                return
            left -= size
            yield block


def _scan_range(path, start: int, end: int, keep) -> tuple[list, int, int]:
    """Scan the lines that start in bytes [start, end) of an uncompressed dump.

    Returns the events with line numbers counted from the range's first
    line, the number of lines read, and the number of non-blank lines.
    """
    stats = ParseStats()
    events = []
    scan = _scan_evidence(_read_blocks(path, start, end), keep, stats)
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
    start of the dump: those of ranges[0] as this process scans them,
    while the children scan theirs, then each child's once it has exited.
    A child that fails, exits non-zero or sends truncated data raises
    OSError. Every child is reaped or killed before the scan returns,
    raises or is closed.
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
        offset = yield from _scan_evidence(_read_blocks(path, *ranges[0]), keep, stats)
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
                events, n_lines, non_blank = marshal.loads(payload)
            except (EOFError, ValueError) as exc:
                raise OSError(f"scan of bytes {start}-{end} sent truncated data") from exc
            stats.lines += non_blank
            for line_no, kind, value in events:
                yield offset + line_no, kind, value
            offset += n_lines
    finally:
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _iter_rows(
    source, source_name: str, on_issue, stats: ParseStats, required: tuple[str, ...], optional: tuple[str, ...],
):
    """Yield (line_no, cells) rows from a CSV or line-delimited JSON table.

    `cells` holds the row's values of `required + optional`, in that
    order, so a parser reads them by position. Every value is text, ""
    where the row has none, except that a JSON list in a list column
    arrives as a tuple of texts and a JSON boolean in a flag column as a
    bool (see `_json_column`). The format is sniffed from the first
    non-blank byte after any UTF-8 BOM ("{" means JSON lines), however far
    into the file it is. JSON lines are read and checked a block of
    `_ROW_BLOCK_BYTES` at a time (see `_json_rows`), CSV rows one by one
    by csv.reader. Every non-blank line read counts in `stats.lines`
    (a JSON line is blank when it holds only JSON blanks), also one
    reported here as malformed, so an issue rate never exceeds 1: a JSON
    line that is not UTF-8, not JSON, not an object, holding a value
    `_json_column` cannot read or a read value UTF-8 cannot encode (an
    unpaired surrogate escape), and a CSV row with more cells than its header. A CSV header missing a required
    column or naming a column twice is a file-level defect and raises
    ValueError rather than producing per-line issues.
    """
    columns = required + optional
    with ExitStack() as stack:
        fh = stack.enter_context(_open_stream(source))
        head, skipped = fh.peek(64).lstrip(), []
        while not head and (line := fh.readline()):  # peek sees only the buffer: read on past blank lines
            skipped.append(line)
            head = line.lstrip()
        if head[:1] == b"{":
            blocks = chain([skipped], _stream_blocks(fh, _ROW_BLOCK_BYTES))
            yield from _json_rows(blocks, source_name, on_issue, stats, columns)
        else:
            lines = text = io.TextIOWrapper(fh, encoding="utf-8", newline="")
            stack.callback(text.detach)  # else collecting it would close fh, maybe the caller's object
            if skipped:  # the lines read above are read again, as if they had not been
                lines = chain(io.StringIO(b"".join(skipped).decode("utf-8"), newline=""), text)
            reader = csv.reader(lines)
            header = next(reader, None)
            if header is None:
                return
            missing = [c for c in required if c not in header]
            if missing:
                raise ValueError(f"{source_name}: missing required columns: {', '.join(missing)}")
            if twice := [c for c, n in Counter(header).items() if c and n > 1]:
                raise ValueError(f"{source_name}: column named twice: {', '.join(twice)}")
            width = len(header)
            # A column the header lacks reads the "" padded after the last cell.
            cells = operator.itemgetter(*(header.index(c) if c in header else width for c in columns))
            padding = [""] * (width + 1)
            for row in reader:
                if not row:  # a blank line
                    continue
                stats.lines += 1
                if len(row) > width:
                    detail = f"row has {len(row)} cells, header has {width}"
                    _report(on_issue, source_name, reader.line_num, "malformed", detail)
                    continue
                row += padding[len(row):]
                yield reader.line_num, cells(row)


#: Columns that hold several values: a JSON list or a ';'-separated cell.
_LIST_COLUMNS = frozenset({"institution_ids", "field_ids", "regions", "repo_url_patterns"})
#: Columns read as a flag, where a JSON boolean is accepted.
_FLAG_COLUMNS = frozenset({"is_fully_oa"})
#: The types of the items a JSON list cell may hold.
_TEXT_ITEMS = frozenset({str, int, float})
#: The types a column may hold to be converted in passes in C: with a
#: boolean only in a flag column, and never beside a number.
_SCALARS = frozenset({str, type(None), int, float})
_FLAG_SCALARS = frozenset({str, type(None), bool})
#: `_NULL_CELL.get(value, value)` is "" for a null and the value itself otherwise.
_NULL_CELL = {None: ""}


def _json_rows(blocks: Iterable[list[bytes]], source_name: str, on_issue, stats: ParseStats, columns):
    """The JSON-lines rows of `_iter_rows`, read and checked a block of lines at a time.

    Each non-blank line of a block is decoded by `_json_object`, then each
    column is taken from all of the block's objects at once and converted
    by `_json_column`. A line that is not a valid row is reported once, for
    its first defect: the line itself, then each column in order, then an
    unpaired surrogate escape. Rows and issues come out in line order, and
    the decoded objects are dropped before a block's first row is yielded.
    """
    line_no = 0
    for block in blocks:
        lines, numbers = block, range(line_no + 1, line_no + len(block) + 1)
        line_no += len(block)
        if any(map(bytes.isspace, block)):  # a line of blanks, maybe of some that are not JSON blanks
            kept = list(map(bytes.strip, block, repeat(_JSON_BLANK_BYTES)))
            lines, numbers = list(compress(block, kept)), list(compress(numbers, kept))
        stats.lines += len(lines)
        objs = list(map(_json_object, lines))
        # position in `lines` -> the detail of its line's issue; a line that is not an object reads as {}
        bad = {i: objs[i] for i in _where(map(operator.is_not, map(type, objs), repeat(dict)))}
        for i in bad:
            objs[i] = {}
        by_column = []
        for column in columns:
            values, rejected = _json_column(column, list(map(dict.get, objs, repeat(column))))
            by_column.append(values)
            for i in rejected:
                bad.setdefault(i, f"{column} holds a value that is not text or a number")
        del objs
        if _SURROGATE_ESCAPE.search(b"".join(lines)):
            for i, raw in enumerate(lines):
                if i not in bad and not _utf8_encodable(raw, [values[i] for values in by_column]):
                    bad[i] = "unpaired surrogate escape"
        rows = zip(numbers, zip(*by_column))
        done = 0
        for i in sorted(bad):
            yield from islice(rows, i - done)
            next(rows)
            _report(on_issue, source_name, numbers[i], "malformed", bad[i])
            done = i + 1
        yield from rows


def _json_column(column: str, values: list) -> tuple[list, Iterable[int]]:
    """A column of a block of JSON rows as `_iter_rows` yields it, and the positions of the values it rejects.

    Text stays, a number becomes its text and null "". Only a list column
    may hold a list (of texts and numbers), which becomes a tuple of
    texts, and only a flag column a boolean. A column of the types
    `_SCALARS`, or of lists of texts, is converted in passes in C; any
    other is walked value by value.
    """
    kinds = set(map(type, values))
    if kinds <= _SCALARS or column in _FLAG_COLUMNS and kinds <= _FLAG_SCALARS:
        if type(None) in kinds:
            values = list(map(_NULL_CELL.get, values, values))
        if int in kinds or float in kinds:
            values = list(map(str, values))
        return values, ()
    if kinds == {list} and column in _LIST_COLUMNS:
        items = set(map(type, chain.from_iterable(values)))
        if items <= _TEXT_ITEMS:
            return list(map(tuple, values if items <= {str} else map(map, repeat(str), values))), ()
    cells, rejected = [], []
    for i, value in enumerate(values):
        kind = type(value)
        if kind is str or kind is bool and column in _FLAG_COLUMNS:
            pass
        elif value is None:
            value = ""
        elif kind is int or kind is float:
            value = str(value)
        elif kind is list and column in _LIST_COLUMNS and _TEXT_ITEMS.issuperset(map(type, value)):
            value = tuple(map(str, value))
        else:
            rejected.append(i)
        cells.append(value)
    return cells, rejected


def _multi(cell: str | tuple[str, ...]) -> list[str]:
    """The non-blank items of a list cell, stripped: a JSON list's, or a ';'-separated text's."""
    parts = cell.split(";") if type(cell) is str else cell
    return [p for p in map(str.strip, parts) if p]


def _parse_flag(value: str | bool) -> bool | None:
    if type(value) is bool:
        return value
    word = value.strip().lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    return None


def _field_set(cell: str | tuple[str, ...]) -> frozenset[str] | tuple[str, str]:
    """The main fields a field_ids cell names, or the (kind, detail) of the issue it is instead."""
    fields = frozenset(_multi(cell))
    if not fields:
        return "missing_required_field", "missing field_ids"
    if not fields <= MAIN_FIELD_SET:
        return "malformed", f"unknown field: {min(fields - MAIN_FIELD_SET)!r}"
    return fields


def parse_publications(
    source,
    config: PipelineConfig,
    on_issue: Callable[[ParseIssue], None] | None = None,
    stats: ParseStats | None = None,
    by_id: dict[str, PublicationRecord] | None = None,
) -> Iterator[PublicationRecord]:
    """Yield publication records, dropping non-citable and out-of-period rows.

    The year and doc_type columns only select rows; records omit them.
    A year is ASCII digits. Every dropped or rejected row is reported as
    exactly one issue. A kept row whose non-empty doi cell normalize_doi
    rejects is reported as one malformed issue and kept as a publication
    without a DOI. Duplicate pub_ids keep the first occurrence. Equal
    languages, journal ids, affiliation tuples (sorted distinct ids) and
    field sets share one object across the yielded records. With `by_id`,
    each record is also stored under its pub_id in that dict, which is the
    parse's own set of pub_ids, so a caller that keeps every record needs
    no list of them.
    """
    if stats is None:
        stats = ParseStats()
    # intern(value, value) returns the first value equal to it seen in this parse, so
    # equal languages, journal ids, affiliation ids and tuples share one object.
    intern = {}.setdefault
    # Each distinct field_ids cell is split, checked and interned once.
    field_sets: dict[str | tuple[str, ...], frozenset[str]] = {}
    # A dict, not a set: a set under 50k entries grows x4, so 20k ids take 2.1 MB, not 0.4 MB.
    seen: dict[str, PublicationRecord | None] = {} if by_id is None else by_id
    rows = _iter_rows(
        source, "publications", on_issue, stats,
        required=("pub_id", "year", "doc_type", "journal_id", "field_ids"),
        optional=("doi", "language", "institution_ids"),
    )
    for line_no, (pub_id, year, doc_type, journal_id, field_cell, raw_doi, language, affiliations) in rows:
        pub_id = pub_id.strip()
        if not pub_id:
            _report(on_issue, "publications", line_no, "missing_required_field", "missing pub_id")
            continue
        doc_type = doc_type.strip().lower()
        if not doc_type:
            _report(on_issue, "publications", line_no, "missing_required_field", "missing doc_type")
            continue
        if doc_type not in CITABLE_DOC_TYPES:
            _report(
                on_issue, "publications", line_no,
                "malformed", f"non-citable doc_type: {doc_type!r}",
            )
            continue
        year_text = year.strip()
        try:
            year = int(year_text) if year_text.isascii() and year_text.isdigit() else None
        except ValueError:  # more digits than int() converts
            year = None
        if year is None:
            _report(on_issue, "publications", line_no, "malformed", f"invalid year: {year_text!r}")
            continue
        if not config.year_in_period(year):
            _report(
                on_issue, "publications", line_no,
                "malformed",
                f"year {year} outside period {config.period[0]}-{config.period[1]}",
            )
            continue
        journal_id = journal_id.strip()
        if not journal_id:
            _report(on_issue, "publications", line_no, "missing_required_field", "missing journal_id")
            continue
        fields = field_sets.get(field_cell)
        if fields is None:
            fields = _field_set(field_cell)
            if type(fields) is tuple:
                _report(on_issue, "publications", line_no, *fields)
                continue
            fields = field_sets[field_cell] = intern(fields, fields)
        if pub_id in seen:
            _report(on_issue, "publications", line_no, "duplicate_key", f"duplicate pub_id: {pub_id}")
            continue
        raw_doi = raw_doi.strip()
        doi = normalize_doi(raw_doi) if raw_doi else None
        if raw_doi and doi is None:
            _report(on_issue, "publications", line_no, "malformed", f"invalid doi: {raw_doi!r}")
        language = language.strip().lower() or "unknown"
        ids = _multi(affiliations)
        ids = tuple(sorted(set(map(intern, ids, ids))))
        stats.records += 1
        pub = _checked_publication(
            pub_id, doi, intern(language, language), intern(journal_id, journal_id), intern(ids, ids), fields,
        )
        seen[pub_id] = None if by_id is None else pub
        yield pub


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
    for line_no, (inst_id, country, regions, name, patterns) in _iter_rows(
        institutions_source, "institutions", on_issue, institution_stats,
        required=("inst_id", "country", "regions"), optional=("name", "repo_url_patterns"),
    ) if institutions_source is not None else ():
        inst_id = inst_id.strip()
        if not inst_id:
            _report(on_issue, "institutions", line_no, "missing_required_field", "missing inst_id")
            continue
        country = country.strip().upper()
        if not country:
            _report(on_issue, "institutions", line_no, "missing_required_field", "missing country")
            continue
        regions = _multi(regions)
        if not regions:
            _report(on_issue, "institutions", line_no, "missing_required_field", "missing regions")
            continue
        if inst_id in institutions:
            _report(on_issue, "institutions", line_no, "duplicate_key", f"duplicate inst_id: {inst_id}")
            continue
        institution_stats.records += 1
        institutions[inst_id] = Institution(
            inst_id=inst_id,
            name=name.strip() or inst_id,
            country=country,
            regions=frozenset(regions),
            repo_url_patterns=_multi(patterns),
        )

    journals: dict[str, JournalRecord] = {}
    for line_no, (journal_id, is_fully_oa, has_apc, country, address) in _iter_rows(
        journals_source, "journals", on_issue, journal_stats,
        required=("journal_id",), optional=("is_fully_oa", "has_apc", "country", "publisher_address"),
    ) if journals_source is not None else ():
        journal_id = journal_id.strip()
        if not journal_id:
            _report(on_issue, "journals", line_no, "missing_required_field", "missing journal_id")
            continue
        if journal_id in journals:
            _report(on_issue, "journals", line_no, "duplicate_key", f"duplicate journal_id: {journal_id}")
            continue
        flag = _parse_flag(is_fully_oa)
        if flag is None:
            _report(on_issue, "journals", line_no, "malformed", f"invalid is_fully_oa: {is_fully_oa.strip()!r}")
            continue
        has_apc = has_apc.strip().lower() or "unknown"
        if has_apc not in APC_STATES:
            _report(on_issue, "journals", line_no, "malformed", f"invalid has_apc: {has_apc!r}")
            continue
        journal_stats.records += 1
        journals[journal_id] = JournalRecord(
            journal_id=journal_id,
            country=country.strip().upper() or None,
            is_fully_oa=flag,
            has_apc=has_apc,
            publisher_address=address.strip() or None,
        )
    return institutions, journals
