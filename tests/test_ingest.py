import contextlib
import gzip
import io
import json
import os
import signal
import subprocess
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oametrics import ingest
from oametrics.cli import FatalInputError, _reading
from oametrics.ingest import (
    IssueSummary,
    ParseIssue,
    ParseStats,
    parse_evidence_stream,
    parse_publications,
    parse_registries,
)
from oametrics.models import MAIN_FIELDS, PipelineConfig

BIO = MAIN_FIELDS[0]
SSH = MAIN_FIELDS[4]

PUB_HEADER = "pub_id,doi,year,doc_type,language,journal_id,institution_ids,field_ids"


def _evidence_bytes(*lines: str) -> io.BytesIO:
    return io.BytesIO("".join(line + "\n" for line in lines).encode("utf-8"))


def _parse_evidence(source, **kwargs):
    issues = []
    records = list(parse_evidence_stream(source, on_issue=issues.append, **kwargs))
    return records, issues


def test_evidence_direct_mapping():
    line = json.dumps(
        {
            "doi": "10.1/a",
            "journal_is_oa": True,
            "oa_locations": [{"host_type": "publisher", "url": "u", "license": "cc-by"}],
        }
    )
    records, issues = _parse_evidence(_evidence_bytes(line))
    assert issues == []
    (record,) = records
    assert record.doi == "10.1/a"
    assert record.journal_is_oa is True
    assert len(record.locations) == 1
    assert record.locations[0].license == "cc-by"


def test_evidence_missing_doi_is_reported():
    records, issues = _parse_evidence(
        _evidence_bytes(json.dumps({"journal_is_oa": False, "oa_locations": []}))
    )
    assert records == []
    assert len(issues) == 1
    assert issues[0].kind == "missing_required_field"
    assert issues[0].line_no == 1


def test_evidence_three_line_fixture_skips_malformed():
    ok = json.dumps({"doi": "10.1/a", "journal_is_oa": False, "oa_locations": []})
    ok2 = json.dumps({"doi": "10.1/b", "journal_is_oa": False, "oa_locations": []})
    records, issues = _parse_evidence(_evidence_bytes(ok, "{broken", ok2))
    assert [r.doi for r in records] == ["10.1/a", "10.1/b"]
    assert len(issues) == 1
    assert issues[0].kind == "malformed"
    assert issues[0].line_no == 2


def test_evidence_doi_is_normalized():
    line = json.dumps(
        {"doi": "https://doi.org/10.1/A", "journal_is_oa": False, "oa_locations": []}
    )
    records, _ = _parse_evidence(_evidence_bytes(line))
    assert records[0].doi == "10.1/a"


def test_evidence_invalid_doi_is_malformed():
    line = json.dumps({"doi": "not-a-doi", "journal_is_oa": False, "oa_locations": []})
    records, issues = _parse_evidence(_evidence_bytes(line))
    assert records == [] and issues[0].kind == "malformed"


def test_evidence_bad_location_rejects_line():
    bad_host = json.dumps(
        {"doi": "10.1/a", "journal_is_oa": False,
         "oa_locations": [{"host_type": "mirror", "url": "u"}]}
    )
    empty_url = json.dumps(
        {"doi": "10.1/b", "journal_is_oa": False,
         "oa_locations": [{"host_type": "publisher", "url": ""}]}
    )
    records, issues = _parse_evidence(_evidence_bytes(bad_host, empty_url))
    assert records == []
    assert [i.kind for i in issues] == ["malformed", "malformed"]


def test_evidence_gzip_and_plain_agree(tmp_path):
    lines = [
        json.dumps({"doi": f"10.1/{i}", "journal_is_oa": False, "oa_locations": []})
        for i in range(5)
    ]
    plain = tmp_path / "dump.jsonl"
    plain.write_text("\n".join(lines) + "\n", encoding="utf-8")
    zipped = tmp_path / "dump.jsonl.gz"
    zipped.write_bytes(gzip.compress(plain.read_bytes()))
    from_plain, _ = _parse_evidence(plain)
    from_gzip, _ = _parse_evidence(zipped)
    assert from_plain == from_gzip
    assert len(from_plain) == 5


def test_evidence_parse_is_deterministic(tmp_path):
    path = tmp_path / "dump.jsonl"
    path.write_text(
        json.dumps({"doi": "10.1/a", "journal_is_oa": True, "oa_locations": []}) + "\n"
    )
    assert _parse_evidence(path) == _parse_evidence(path)


def test_evidence_keep_filter_drops_silently():
    lines = [
        json.dumps({"doi": f"10.1/{c}", "journal_is_oa": False, "oa_locations": []})
        for c in "abc"
    ]
    stats = ParseStats()
    records, issues = _parse_evidence(
        _evidence_bytes(*lines), keep={"10.1/b": "10.1/b"}.get, stats=stats
    )
    assert [r.doi for r in records] == ["10.1/b"]
    assert issues == []
    assert stats.lines == 3 and stats.records == 1


def test_evidence_blank_lines_skipped():
    line = json.dumps({"doi": "10.1/a", "journal_is_oa": False, "oa_locations": []})
    records, issues = _parse_evidence(_evidence_bytes("", line, ""))
    assert len(records) == 1 and issues == []


def test_evidence_unknown_keys_ignored():
    line = json.dumps(
        {"doi": "10.1/a", "journal_is_oa": False, "oa_locations": [], "updated": "2019-04-01"}
    )
    records, issues = _parse_evidence(_evidence_bytes(line))
    assert len(records) == 1 and issues == []


def _pub_rows(*rows: str) -> io.BytesIO:
    return io.BytesIO(("\n".join((PUB_HEADER,) + rows) + "\n").encode("utf-8"))


def _parse_pubs(source, config=None):
    issues = []
    records = list(
        parse_publications(source, config or PipelineConfig(), on_issue=issues.append)
    )
    return records, issues


def test_publications_drop_non_citable():
    records, issues = _parse_pubs(_pub_rows(f"P1,10.1/a,2015,editorial,en,J1,U1,{BIO}"))
    assert records == []
    assert len(issues) == 1 and "editorial" in issues[0].detail


def test_publications_drop_out_of_period():
    records, issues = _parse_pubs(_pub_rows(f"P1,10.1/a,2013,article,en,J1,U1,{BIO}"))
    assert records == []
    assert len(issues) == 1 and "2013" in issues[0].detail


def test_publications_valid_row():
    records, issues = _parse_pubs(
        _pub_rows(f"P1,https://doi.org/10.1/A,2015,article,EN,J1,U1;U2,{BIO};{SSH}")
    )
    assert issues == []
    (pub,) = records
    assert pub.doi == "10.1/a"
    assert pub.language == "en"
    assert pub.institution_ids == frozenset({"U1", "U2"})
    assert pub.field_ids == frozenset({BIO, SSH})


def test_publications_missing_doi_and_language_defaults():
    records, issues = _parse_pubs(_pub_rows(f"P1,,2015,article,,J1,,{BIO}"))
    (pub,) = records
    assert issues == []
    assert pub.doi is None
    assert pub.language == "unknown"
    assert pub.institution_ids == frozenset()


def test_publications_duplicate_pub_id_first_wins():
    records, issues = _parse_pubs(
        _pub_rows(
            f"P1,10.1/a,2015,article,en,J1,U1,{BIO}",
            f"P1,10.1/b,2016,article,en,J1,U2,{BIO}",
        )
    )
    assert len(records) == 1 and records[0].doi == "10.1/a"
    assert len(issues) == 1 and issues[0].kind == "duplicate_key"


def test_publications_unknown_field_rejected():
    records, issues = _parse_pubs(_pub_rows("P1,10.1/a,2015,article,en,J1,U1,Alchemy"))
    assert records == [] and issues[0].kind == "malformed"


def test_publications_jsonl_input():
    line = json.dumps(
        {
            "pub_id": "P1", "doi": "10.1/a", "year": 2015, "doc_type": "article",
            "language": "en", "journal_id": "J1",
            "institution_ids": ["U1"], "field_ids": [BIO],
        }
    )
    records, issues = _parse_pubs(io.BytesIO((line + "\n").encode()))
    assert issues == [] and records[0].pub_id == "P1"


def test_publications_missing_header_column_is_fatal():
    stream = io.BytesIO(b"pub_id,year\nP1,2015\n")
    with pytest.raises(ValueError, match="missing required columns"):
        list(parse_publications(stream, PipelineConfig()))


INST_HEADER = "inst_id,name,country,regions,repo_url_patterns"
JOURNAL_HEADER = "journal_id,issns,country,is_fully_oa,has_apc,publisher_address"


def _registry_streams(inst_rows=(), journal_rows=()):
    inst = io.BytesIO(("\n".join((INST_HEADER,) + tuple(inst_rows)) + "\n").encode())
    jour = io.BytesIO(("\n".join((JOURNAL_HEADER,) + tuple(journal_rows)) + "\n").encode())
    return inst, jour


def test_registries_missing_apc_becomes_unknown():
    inst, jour = _registry_streams(journal_rows=("J1,1111-1111,,true,,",))
    issues = []
    _, journals = parse_registries(inst, jour, on_issue=issues.append)
    assert journals["J1"].has_apc == "unknown"
    assert journals["J1"].is_fully_oa is True
    assert issues == []


def test_registries_duplicate_inst_first_wins():
    inst, jour = _registry_streams(
        inst_rows=("U1,Alpha,TR,Europe,repo.alpha.edu", "U1,Other,GB,Europe,other.ac.uk")
    )
    issues = []
    institutions, _ = parse_registries(inst, jour, on_issue=issues.append)
    assert institutions["U1"].name == "Alpha"
    assert len(issues) == 1 and issues[0].kind == "duplicate_key"


def test_registries_empty_files_yield_empty_tables():
    issues = []
    institutions, journals = parse_registries(
        io.BytesIO(b""), io.BytesIO(b""), on_issue=issues.append
    )
    assert institutions == {} and journals == {} and issues == []


def test_registries_accept_missing_sources():
    institutions, journals = parse_registries(None, None)
    assert institutions == {} and journals == {}


def test_registries_normalize_repo_patterns():
    inst, jour = _registry_streams(
        inst_rows=("U1,Alpha,TR,Europe;Asia,HTTPS://www.Repo.Alpha.EDU/;hdl.handle.net",)
    )
    institutions, _ = parse_registries(inst, jour)
    assert institutions["U1"].repo_url_patterns == ("repo.alpha.edu", "hdl.handle.net")
    assert institutions["U1"].regions == frozenset({"Europe", "Asia"})


def test_registries_invalid_journal_flag_reported():
    inst, jour = _registry_streams(journal_rows=("J1,,,'maybe',no,",))
    issues = []
    _, journals = parse_registries(inst, jour, on_issue=issues.append)
    assert journals == {}
    assert issues[0].kind == "malformed"


def test_issue_summary_counts_by_source_and_kind():
    sink = IssueSummary()
    kept = list(
        parse_publications(
            _pub_rows(
                f"P1,10.1/a,2013,article,en,J1,U1,{BIO}",
                f"P2,10.1/b,2015,article,en,J1,U1,{BIO}",
            ),
            PipelineConfig(),
            on_issue=sink,
        )
    )
    assert len(kept) == 1
    assert sink.total("publications") == 1
    assert sink.table().rows == (("publications", "malformed", 1),)


def test_evidence_duplicate_doi_reported_first_wins():
    first = json.dumps({"doi": "10.1/A", "journal_is_oa": True, "oa_locations": []})
    spelled = json.dumps(
        {"doi": "https://doi.org/10.1/a", "journal_is_oa": False, "oa_locations": []}
    )
    records, issues = _parse_evidence(
        _evidence_bytes(first, spelled, first), keep={"10.1/a": "10.1/a"}.get
    )
    assert [(r.doi, r.journal_is_oa) for r in records] == [("10.1/a", True)]
    assert [(i.kind, i.line_no) for i in issues] == [("duplicate_key", 2), ("duplicate_key", 3)]


def test_evidence_deeply_nested_line_is_malformed():
    ok = json.dumps({"doi": "10.1/a", "journal_is_oa": False, "oa_locations": []})
    records, issues = _parse_evidence(_evidence_bytes("[" * 100_000, ok))
    assert [r.doi for r in records] == ["10.1/a"]
    assert [(i.kind, i.line_no, i.detail) for i in issues] == [("malformed", 1, "invalid JSON")]


def test_json_rows_deeply_nested_line_is_malformed():
    line = json.dumps(
        {
            "pub_id": "P1", "doi": "10.1/a", "year": 2015, "doc_type": "article",
            "language": "en", "journal_id": "J1",
            "institution_ids": ["U1"], "field_ids": [BIO],
        }
    )
    records, issues = _parse_pubs(io.BytesIO(f"{line}\n{'[' * 100_000}\n".encode()))
    assert [r.pub_id for r in records] == ["P1"]
    assert [(i.kind, i.line_no, i.detail) for i in issues] == [("malformed", 2, "invalid JSON")]


_JSON_ROWS = {
    "publications": {
        "pub_id": "P1", "doi": "10.1/a", "year": 2015, "doc_type": "article",
        "journal_id": "J1", "field_ids": [BIO],
    },
    "institutions": {"inst_id": "U1", "country": "NL", "regions": ["Europe"]},
    "journals": {"journal_id": "J1", "is_fully_oa": False},
}


@pytest.mark.parametrize("source", sorted(_JSON_ROWS))
def test_json_rows_count_every_non_blank_line(source):
    # A line rejected while the row is read counts like one the parser rejects.
    data = io.BytesIO(f"{json.dumps(_JSON_ROWS[source])}\n{{bad\n\n[1]\n".encode())
    stats = ParseStats()
    sink = IssueSummary()
    if source == "publications":
        list(parse_publications(data, PipelineConfig(), on_issue=sink, stats=stats))
    elif source == "institutions":
        parse_registries(data, None, on_issue=sink, institution_stats=stats)
    else:
        parse_registries(None, data, on_issue=sink, journal_stats=stats)
    assert (stats.lines, stats.records, sink.total(source)) == (3, 1, 2)


def test_publications_csv_with_utf8_bom():
    stream = _pub_rows(f"P1,10.1/a,2015,article,en,J1,U1,{BIO}")
    records, issues = _parse_pubs(io.BytesIO(b"\xef\xbb\xbf" + stream.getvalue()))
    assert issues == [] and [r.pub_id for r in records] == ["P1"]


def test_ignored_columns_are_accepted():
    line = json.dumps(
        {"doi": "10.1/a", "journal_is_oa": False, "journal_issn": "1234-5678",
         "oa_locations": [{"host_type": "repository", "url": "u", "endpoint_id": "e1"}]}
    )
    records, issues = _parse_evidence(_evidence_bytes(line))
    assert issues == [] and len(records[0].locations) == 1
    inst, jour = _registry_streams(journal_rows=("J1,1111-1111;2222-2222,GB,false,no,",))
    _, journals = parse_registries(inst, jour)
    assert journals["J1"].country == "GB"


def test_publications_jsonl_with_utf8_bom():
    line = json.dumps(
        {"pub_id": "P1", "doi": "10.1/a", "year": 2015, "doc_type": "article",
         "journal_id": "J1", "institution_ids": ["U1"], "field_ids": [BIO]}
    )
    records, issues = _parse_pubs(io.BytesIO(b"\xef\xbb\xbf" + line.encode() + b"\n"))
    assert issues == [] and [r.pub_id for r in records] == ["P1"]


@pytest.mark.parametrize("processes", [1, 2])
def test_evidence_dump_with_utf8_bom(tmp_path, monkeypatch, processes):
    monkeypatch.setattr(ingest, "_MIN_RANGE_BYTES", 1)
    lines = [
        json.dumps({"doi": f"10.1/{i}", "journal_is_oa": False, "oa_locations": []})
        for i in range(4)
    ]
    dump = tmp_path / "dump.jsonl"
    dump.write_bytes(b"\xef\xbb\xbf" + "".join(line + "\n" for line in lines).encode())
    assert len(ingest._byte_ranges(dump, processes)) == (processes if processes > 1 else 0)
    stats = ParseStats()
    records, issues = _parse_evidence(
        dump, keep=lambda doi: doi, stats=stats, processes=processes
    )
    assert issues == []
    assert [r.doi for r in records] == [f"10.1/{i}" for i in range(4)]
    assert (stats.lines, stats.records) == (4, 4)


_DUMP_DOIS = ("10.5/a", "10.5/b", "10.5/c", "10.5/d")


def _spelled(doi: str, spelling: int) -> str:
    return (doi, doi.upper(), f"https://doi.org/{doi}", f" doi:{doi.upper()} ")[spelling]


_DUMP_LINE = st.one_of(
    st.builds(
        lambda doi, spelling, oa, host: json.dumps({
            "doi": _spelled(doi, spelling),
            "journal_is_oa": oa,
            "oa_locations": [{"host_type": host, "url": f"https://x.example/{doi}"}],
        }),
        st.sampled_from(_DUMP_DOIS), st.integers(0, 3), st.booleans(),
        st.sampled_from(["publisher", "repository", "archive"]),
    ),
    st.builds(
        lambda doi: json.dumps({"doi": doi, "journal_is_oa": True}),
        st.sampled_from(_DUMP_DOIS),
    ),
    st.sampled_from(["", "   ", "{not json", "[1, 2]", '{"doi": "nope", "journal_is_oa": true, '
                     '"oa_locations": []}']),
).map(str.encode) | st.just(b"\xff\xfe")


@settings(max_examples=60, deadline=None)
@given(
    lines=st.lists(_DUMP_LINE, max_size=14),
    endings=st.lists(st.sampled_from([b"\n", b"\r\n"]), min_size=14, max_size=14),
    final_newline=st.booleans(),
    bom=st.booleans(),
    kept=st.sets(st.sampled_from(_DUMP_DOIS)),
    min_range=st.integers(1, 64),
)
def test_range_scan_matches_one_range_scan(lines, endings, final_newline, bom, kept, min_range):
    data = b"".join(line + end for line, end in zip(lines, endings))
    if lines and not final_newline:
        data = data[: -len(endings[len(lines) - 1])]
    if bom:
        data = b"\xef\xbb\xbf" + data

    def scan(path, processes):
        stats = ParseStats()
        records, issues = _parse_evidence(
            path, keep={doi: doi for doi in kept}.get, stats=stats, processes=processes
        )
        return records, issues, stats

    with tempfile.TemporaryDirectory() as tmp:
        dump = Path(tmp) / "dump.jsonl"
        dump.write_bytes(data)
        expected = scan(dump, 1)
        with mock.patch.object(ingest, "_MIN_RANGE_BYTES", min_range):
            for processes in (2, 3, 4):
                ranges = ingest._byte_ranges(dump, processes)
                if ranges:
                    assert ranges[0][0] == (3 if bom else 0) and ranges[-1][1] == len(data)
                assert all(data[start - 1:start] == b"\n" for start, _ in ranges[1:])
                assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
                assert scan(dump, processes) == expected
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_evidence_from_a_pipe_is_read_once_from_its_start(tmp_path, monkeypatch):
    monkeypatch.setattr(ingest, "_MIN_RANGE_BYTES", 1)
    dump = tmp_path / "dump.jsonl"
    dump.write_text(
        "".join(
            json.dumps({"doi": f"10.1/{i}", "journal_is_oa": False, "oa_locations": []}) + "\n"
            for i in range(3)
        ),
        encoding="utf-8",
    )
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)

    def blocked(signum, frame):
        raise TimeoutError("reopened the pipe after its writer left")

    previous = signal.signal(signal.SIGALRM, blocked)
    signal.alarm(10)
    writer = subprocess.Popen(["cp", str(dump), str(fifo)])
    try:
        records, issues = _parse_evidence(fifo, keep=lambda doi: doi, processes=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        writer.wait(timeout=10)
    assert issues == [] and [r.doi for r in records] == ["10.1/0", "10.1/1", "10.1/2"]


@pytest.mark.parametrize("processes", [1, 3])
def test_records_are_built_under_the_doi_keep_returns(tmp_path, monkeypatch, processes):
    monkeypatch.setattr(ingest, "_MIN_RANGE_BYTES", 32)
    dump = tmp_path / "dump.jsonl"
    dump.write_text(
        "".join(
            json.dumps({"doi": f"https://doi.org/10.1/{i}", "journal_is_oa": False, "oa_locations": []})
            + "\n"
            for i in range(6)
        ),
        encoding="utf-8",
    )
    assert len(ingest._byte_ranges(dump, processes)) == (processes if processes > 1 else 0)
    # Equal strings that are not the parser's own objects.
    canonical = {doi: "".join(["10.1/", doi[5:]]) for doi in (f"10.1/{i}" for i in range(0, 6, 2))}
    records, issues = _parse_evidence(dump, keep=canonical.get, processes=processes)
    assert issues == []
    assert [r.doi for r in records] == ["10.1/0", "10.1/2", "10.1/4"]
    for record in records:
        assert record.doi is canonical[record.doi]


def test_range_scan_splits_a_dump_at_line_starts(tmp_path, monkeypatch):
    monkeypatch.setattr(ingest, "_MIN_RANGE_BYTES", 10)
    dump = tmp_path / "dump.jsonl"
    # Line starts 0, 8, 19, 27; 41 bytes cut near 10, 20 and 30.
    dump.write_bytes(b"aaaaaaa\nbbbbbbbbbb\nccccccc\nddddddddddddd\n")
    assert ingest._byte_ranges(dump, 4) == [(0, 19), (19, 27), (27, 41)]
    assert ingest._byte_ranges(dump, 1) == []
    dump.write_bytes(gzip.compress(dump.read_bytes()))
    assert ingest._byte_ranges(dump, 4) == []


_COLUMNS = (
    "pub_id", "doi", "year", "doc_type", "language", "journal_id", "institution_ids",
    "field_ids", "inst_id", "name", "country", "regions", "repo_url_patterns",
    "is_fully_oa", "has_apc", "publisher_address", "journal_is_oa", "oa_locations",
    "host_type", "url", "license",
)
_KEY = st.sampled_from(_COLUMNS) | st.text(max_size=4)
_JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12)
    | st.sampled_from(["10.1/a", "article", "2015", BIO, "repository", "publisher", "yes"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEY, inner, max_size=4),
    max_leaves=10,
)
_CSV_SHAPED = st.builds(
    lambda header, rows: "\n".join(
        ",".join(cells) for cells in [header, *rows]
    ).encode("utf-8", "surrogatepass"),
    st.lists(st.sampled_from(_COLUMNS), max_size=10) | st.just(list(_COLUMNS)),
    st.lists(st.lists(st.text(max_size=10) | st.sampled_from(['"', '""', "\r", ";"]), max_size=10),
             max_size=6),
)
_JSONL_SHAPED = st.lists(
    st.dictionaries(_KEY, _JSON_VALUE, max_size=8).map(json.dumps)
    | st.text(max_size=20) | st.sampled_from(["{", "[1]", "null", '{"doi": NaN}']),
    max_size=6,
).map(lambda lines: "\n".join(lines).encode("utf-8", "surrogatepass"))


@st.composite
def _wrapped(draw, payload):
    data = draw(payload)
    how = draw(st.sampled_from(["plain", "bom", "gzip", "truncated gzip"]))
    if how == "bom":
        return b"\xef\xbb\xbf" + data
    if how == "gzip":
        return gzip.compress(data)
    if how == "truncated gzip":
        packed = gzip.compress(data)
        return packed[: draw(st.integers(0, len(packed) - 1))]
    return data


@settings(max_examples=150, deadline=None)
@given(data=_wrapped(_CSV_SHAPED | _JSONL_SHAPED | st.binary(max_size=200)))
@example(data=b"pub_id,year,doc_type,journal_id,field_ids\n" + b"x" * 131_073)
def test_parsers_raise_nothing_reading_does_not_convert(data):
    """Any bytes give records and issues, or an error that ends as FatalInputError."""
    parsers = (
        lambda fh, on_issue: list(parse_publications(fh, PipelineConfig(), on_issue=on_issue)),
        lambda fh, on_issue: parse_registries(fh, None, on_issue=on_issue),
        lambda fh, on_issue: parse_registries(None, fh, on_issue=on_issue),
        lambda fh, on_issue: list(parse_evidence_stream(fh, on_issue=on_issue)),
        lambda fh, on_issue: list(
            parse_evidence_stream(fh, on_issue=on_issue, keep=lambda doi: doi)
        ),
    )
    for parse in parsers:
        issues = []
        with contextlib.suppress(FatalInputError), _reading("fuzz input"):
            parse(io.BytesIO(data), issues.append)
        assert all(isinstance(issue, ParseIssue) for issue in issues)
