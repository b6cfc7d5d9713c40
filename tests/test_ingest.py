import contextlib
import csv
import dataclasses
import gc
import gzip
import io
import itertools
import json
import os
import re
import signal
import subprocess
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oametrics import ingest, models
from oametrics.cli import FatalInputError, _reading
from oametrics.ingest import (
    IssueSummary,
    ParseIssue,
    ParseStats,
    parse_evidence_stream,
    parse_publications,
    parse_registries,
)
from oametrics.models import MAIN_FIELDS, PipelineConfig, PublicationRecord, normalize_doi

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
    assert record.repository_urls == ()
    assert record.publisher_copy and record.licensed_copy


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


def test_evidence_doi_without_suffix_is_malformed():
    lines = [
        json.dumps({"doi": doi, "journal_is_oa": False, "oa_locations": []})
        for doi in ("10.5", "10.", "https://doi.org/10./x", "10.1/")
    ]
    records, issues = _parse_evidence(_evidence_bytes(*lines))
    assert records == []
    assert [(i.line_no, i.kind, i.detail) for i in issues] == [
        (1, "malformed", "invalid doi: '10.5'"),
        (2, "malformed", "invalid doi: '10.'"),
        (3, "malformed", "invalid doi: 'https://doi.org/10./x'"),
        (4, "malformed", "invalid doi: '10.1/'"),
    ]


def test_evidence_bad_location_rejects_line():
    bad_host = json.dumps(
        {"doi": "10.1/a", "journal_is_oa": False,
         "oa_locations": [{"host_type": "mirror", "url": "u"}]}
    )
    empty_url = json.dumps(
        {"doi": "10.1/b", "journal_is_oa": False,
         "oa_locations": [{"host_type": "publisher", "url": ""}]}
    )
    others = [
        json.dumps({"doi": f"10.1/{doi}", "journal_is_oa": False, "oa_locations": locations})
        for doi, locations in (
            ("c", ["u"]),
            ("d", [{"host_type": "repository", "url": 7}]),
            ("e", [{"host_type": "publisher", "url": "u", "license": 1}]),
            ("f", [{"host_type": "repository", "url": "u"}, {"url": "u"}]),
        )
    ] + [
        json.dumps({"doi": "10.1/g", "journal_is_oa": "yes", "oa_locations": []}),
        json.dumps({"doi": "10.1/h", "journal_is_oa": False, "oa_locations": {}}),
    ]
    records, issues = _parse_evidence(_evidence_bytes(bad_host, empty_url, *others))
    assert records == []
    assert [(i.kind, i.detail) for i in issues] == [
        ("malformed", "invalid host_type: 'mirror'"),
        ("malformed", "location url missing or empty"),
        ("malformed", "location is not an object"),
        ("malformed", "location url missing or empty"),
        ("malformed", "license is not a string"),
        ("malformed", "invalid host_type: None"),
        ("malformed", "journal_is_oa is not a boolean"),
        ("malformed", "oa_locations is not a list"),
    ]


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
    keep = {"10.1/b": "P2", "10.1/z": "P9"}
    records, issues = _parse_evidence(_evidence_bytes(*lines), keep=keep, stats=stats)
    assert [r.doi for r in records] == ["10.1/b"]
    assert issues == []
    assert stats.lines == 3 and stats.records == 1
    # The map is updated in place: a DOI with a record maps to None, one without a line keeps its value.
    assert keep == {"10.1/b": None, "10.1/z": "P9"}


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
    assert pub.institution_ids == ("U1", "U2")
    assert pub.field_ids == frozenset({BIO, SSH})


def test_publications_missing_doi_and_language_defaults():
    records, issues = _parse_pubs(_pub_rows(f"P1,,2015,article,,J1,,{BIO}"))
    (pub,) = records
    assert issues == []
    assert pub.doi is None
    assert pub.language == "unknown"
    assert pub.institution_ids == ()


def test_publications_invalid_doi_is_reported_and_the_row_kept():
    records, issues = _parse_pubs(
        _pub_rows(
            f"P1,doi.org/10.1/x,2015,article,en,J1,U1,{BIO}",
            f"P2,hdl:123,2015,article,en,J1,U1,{BIO}",
            f"P3,hdl:123,2015,editorial,en,J1,U1,{BIO}",
            f"P4,  ,2015,article,en,J1,U1,{BIO}",
            f"P1,hdl:9,2015,article,en,J1,U1,{BIO}",
            f"P5,hdl:5,20x5,article,en,J1,U1,{BIO}",
            f"P6,hdl:6,2015,article,en,,U1,{BIO}",
            f"P7,hdl:7,2015,article,en,J1,U1, ; ",
        )
    )
    # A dropped row gets only the issue that drops it; a blank cell is no DOI.
    assert [(r.pub_id, r.doi) for r in records] == [("P1", None), ("P2", None), ("P4", None)]
    assert [(i.line_no, i.kind, i.detail) for i in issues] == [
        (2, "malformed", "invalid doi: 'doi.org/10.1/x'"),
        (3, "malformed", "invalid doi: 'hdl:123'"),
        (4, "malformed", "non-citable doc_type: 'editorial'"),
        (6, "duplicate_key", "duplicate pub_id: P1"),
        (7, "malformed", "invalid year: '20x5'"),
        (8, "missing_required_field", "missing journal_id"),
        (9, "missing_required_field", "missing field_ids"),
    ]


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
    records, issues = _parse_pubs(_pub_rows(
        "P1,10.1/a,2015,article,en,J1,U1,Alchemy",
        f'P2,10.1/b,2015,article,en,J1,U1,"Zoology;{BIO};Alchemy"',
    ))
    assert records == [] and issues[0].kind == "malformed"
    # The detail names the first unknown field in sorted order.
    assert [i.detail for i in issues] == ["unknown field: 'Alchemy'"] * 2


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


def test_publications_doi_without_suffix_is_reported_and_the_row_kept():
    rows = [
        {"pub_id": f"P{n}", "doi": doi, "year": 2015, "doc_type": "article",
         "language": "en", "journal_id": "J1", "institution_ids": ["U1"], "field_ids": [BIO]}
        for n, doi in enumerate((10.5, "10.", "10.1/a"), start=1)
    ]
    stream = io.BytesIO("".join(json.dumps(row) + "\n" for row in rows).encode())
    records, issues = _parse_pubs(stream)
    assert [(r.pub_id, r.doi) for r in records] == [("P1", None), ("P2", None), ("P3", "10.1/a")]
    assert [(i.line_no, i.kind, i.detail) for i in issues] == [
        (1, "malformed", "invalid doi: '10.5'"),
        (2, "malformed", "invalid doi: '10.'"),
    ]


def test_publications_missing_header_column_is_fatal():
    stream = io.BytesIO(b"pub_id,year\nP1,2015\n")
    with pytest.raises(ValueError, match="missing required columns"):
        list(parse_publications(stream, PipelineConfig()))


def test_csv_header_naming_a_column_twice_is_fatal():
    # Read cell by cell, the later cell would win: country 'NL', doi 10.1/b.
    inst = io.BytesIO(b"inst_id,name,country,regions,country\nU1,A,ES,Europe,NL\n")
    with pytest.raises(ValueError, match="institutions: column named twice: country"):
        parse_registries(inst, None)
    pubs = io.BytesIO(
        f"pub_id,doi,year,doc_type,journal_id,field_ids,doi\nP1,10.1/a,2015,article,J1,{BIO},10.1/b\n".encode()
    )
    with pytest.raises(ValueError, match="publications: column named twice: doi"):
        list(parse_publications(pubs, PipelineConfig()))
    # Unnamed columns hold nothing that is read, so two of them are not a defect.
    jour = io.BytesIO(b"journal_id,is_fully_oa,,\nJ1,true,x,y\n")
    assert list(parse_registries(None, jour)[1]) == ["J1"]


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
        inst_rows=("U1,Alpha,TR,Europe,repo.alpha.edu", "U1,Other,GB,Europe,other.ac.uk"),
        journal_rows=("J1,,GB,true,no,", "J1,,TR,false,yes,"),
    )
    issues = []
    institutions, journals = parse_registries(inst, jour, on_issue=issues.append)
    assert institutions["U1"].name == "Alpha" and journals["J1"].country == "GB"
    assert [(i.source, i.kind, i.detail) for i in issues] == [
        ("institutions", "duplicate_key", "duplicate inst_id: U1"),
        ("journals", "duplicate_key", "duplicate journal_id: J1"),
    ]


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


@pytest.mark.parametrize(
    "inst_rows,journal_rows,issue",
    [
        (("U1,Alpha, ,Europe,",), (), ("institutions", 2, "missing_required_field", "missing country")),
        ((), ("J1,,GB,true,Maybe,",), ("journals", 2, "malformed", "invalid has_apc: 'maybe'")),
    ],
    ids=["blank_country", "invalid_has_apc"],
)
def test_registries_drop_a_row_with_a_bad_required_value(inst_rows, journal_rows, issue):
    inst, jour = _registry_streams(inst_rows, journal_rows)
    issues = []
    institutions, journals = parse_registries(inst, jour, on_issue=issues.append)
    assert institutions == {} and journals == {}
    assert [(i.source, i.line_no, i.kind, i.detail) for i in issues] == [issue]


@pytest.mark.parametrize(
    "kind,line_no,message",
    [("misspelled", 1, "unknown issue kind: 'misspelled'"), ("malformed", 0, "line_no must be >= 1")],
)
def test_parse_issue_rejects_an_unknown_kind_or_a_line_before_the_first(kind, line_no, message):
    with pytest.raises(ValueError, match=message):
        ParseIssue(source="publications", line_no=line_no, kind=kind, detail="")


_EVIDENCE_LINE = b'{"doi": "10.1/a", "journal_is_oa": false, "oa_locations": []}\n'
_ROSTER = f"{INST_HEADER}\nU1,Alpha,TR,Europe,\n".encode()


@pytest.mark.parametrize("opener", ["bytesio", "gzip_bytesio", "file"])
@pytest.mark.parametrize(
    "parse, data",
    [
        (lambda fh: parse_registries(fh, None), _ROSTER),
        (lambda fh: parse_registries(None, fh), b'{"journal_id": "J1"}\n'),
        (lambda fh: list(parse_publications(fh, PipelineConfig())), f"{PUB_HEADER}\n".encode()),
        (lambda fh: list(parse_evidence_stream(fh)), _EVIDENCE_LINE),
    ],
    ids=["csv_roster", "jsonl_journals", "csv_publications", "evidence"],
)
def test_parsers_leave_a_callers_file_object_open(tmp_path, opener, parse, data):
    if opener == "gzip_bytesio":
        data = gzip.compress(data)
    path = tmp_path / "input"
    path.write_bytes(data)
    with (io.BytesIO(data) if opener != "file" else open(path, "rb")) as fh:
        parse(fh)
        gc.collect()  # a wrapper left to the collector would close fh here
        assert not fh.closed
        fh.seek(0)
        assert fh.read() == data


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
    keep = {"10.1/a": "P1"}
    issues = []
    stream = parse_evidence_stream(_evidence_bytes(first, spelled, first), on_issue=issues.append, keep=keep)
    record = next(stream)
    assert (record.doi, record.journal_is_oa) == ("10.1/a", True)
    assert keep == {"10.1/a": "P1"}  # still there to read while the record is consumed
    assert list(stream) == []
    assert [(i.kind, i.line_no) for i in issues] == [("duplicate_key", 2), ("duplicate_key", 3)]
    assert keep == {"10.1/a": None}


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


@pytest.mark.parametrize("blank", [b"\x0b", b"\x0c", b" \x0c\t"])
def test_a_json_line_of_other_blanks_is_invalid_json(blank):
    """Only space, tab, CR and LF make a JSON line blank; json.loads rejects a vertical tab or form feed."""
    table = f"{json.dumps(_JSON_ROWS['journals'])}\n".encode() + blank + b"\n\r\n"
    stats, issues = ParseStats(), []
    parse_registries(None, io.BytesIO(table), on_issue=issues.append, journal_stats=stats)
    assert (stats.lines, stats.records) == (2, 1)
    assert [(i.line_no, i.kind, i.detail) for i in issues] == [(2, "malformed", "invalid JSON")]

    line = json.dumps({"doi": "10.1/a", "journal_is_oa": False, "oa_locations": []}).encode()
    for keep in (None, {"10.1/a": "P1"}):
        stats = ParseStats()
        records, issues = _parse_evidence(io.BytesIO(line + b"\n" + blank + b"\n \t\n"), keep=keep, stats=stats)
        assert (len(records), stats.lines) == (1, 2)
        assert [(i.line_no, i.kind, i.detail) for i in issues] == [(2, "malformed", "invalid JSON")]


def test_csv_row_with_more_cells_than_its_header_is_malformed():
    # An unquoted comma in a name would otherwise shift every later cell.
    inst, _ = _registry_streams(inst_rows=("U1,Univ of A, Madrid,ES,Europe,repo.a.es", "U2,B,NL,Europe,"))
    issues, stats = [], ParseStats()
    institutions, _ = parse_registries(inst, None, on_issue=issues.append, institution_stats=stats)
    assert list(institutions) == ["U2"]
    assert [(i.line_no, i.kind, i.detail) for i in issues] == [
        (2, "malformed", "row has 6 cells, header has 5"),
    ]
    assert (stats.lines, stats.records) == (2, 1)

    records, issues = _parse_pubs(_pub_rows(
        f"P1,10.1/a,2015,article,en,J1,U1,{BIO},extra",
        f"P2,10.1/b,2015,article,en,J1,U1,{BIO}",
        f"P3,10.1/c,2015,article,en,J1",  # short rows are left to the column checks
    ))
    assert [r.pub_id for r in records] == ["P2"]
    assert [(i.line_no, i.kind, i.detail) for i in issues] == [
        (2, "malformed", "row has 9 cells, header has 8"),
        (4, "missing_required_field", "missing field_ids"),
    ]


@pytest.mark.parametrize("source", sorted(_JSON_ROWS))
def test_json_rows_with_invalid_utf8_are_undecodable_bytes(source):
    # The same defect is reported with the same detail as in the evidence dump.
    data = io.BytesIO(json.dumps(_JSON_ROWS[source]).encode() + b'\n{"x": "\xff"}\n')
    issues = []
    if source == "publications":
        list(parse_publications(data, PipelineConfig(), on_issue=issues.append))
    elif source == "institutions":
        parse_registries(data, None, on_issue=issues.append)
    else:
        parse_registries(None, data, on_issue=issues.append)
    assert [(i.line_no, i.kind, i.detail) for i in issues] == [(2, "malformed", "undecodable bytes")]


@pytest.mark.parametrize("source", sorted(_JSON_ROWS))
def test_json_rows_with_an_unpaired_surrogate_escape_in_a_read_value_are_malformed(source):
    # UTF-8 cannot encode "\ud800", so no table could hold a cell with it. A key or value not read is ignored.
    key, listed = {"publications": ("pub_id", "field_ids"), "institutions": ("inst_id", "regions"),
                   "journals": ("journal_id", "note")}[source]
    rows = [
        {key: "X0\U0001f600"},  # an escaped pair is one character
        {key: "X1\ud800"},
        {key: "X2", "note": "\ud800", "\udfff": 1},  # not read
        {key: "X3", listed: ["\udfff"]},  # read unless the table has no such list column
        {key: "X4\\ud800"},  # a backslash, then "ud800"
    ]
    lines = [json.dumps({**_JSON_ROWS[source], **row}) for row in rows]
    assert "\\ud83d\\ude00" in lines[0] and "\\ud800" in lines[1]
    data = io.BytesIO("".join(f"{line}\n" for line in lines).encode())
    issues, stats = [], ParseStats()
    if source == "publications":
        list(parse_publications(data, PipelineConfig(), on_issue=issues.append, stats=stats))
    elif source == "institutions":
        parse_registries(data, None, on_issue=issues.append, institution_stats=stats)
    else:
        parse_registries(None, data, on_issue=issues.append, journal_stats=stats)
    malformed = [2] if source == "journals" else [2, 4]
    assert [(i.line_no, i.kind, i.detail) for i in issues] == [
        (n, "malformed", "unpaired surrogate escape") for n in malformed
    ]
    assert (stats.lines, stats.records) == (5, 5 - len(malformed))


def test_evidence_line_with_an_unpaired_surrogate_escape_in_a_kept_value_is_malformed():
    def line(doi: str, url: str = "https://r.org/x", **extra) -> str:
        location = {"host_type": "repository", "url": url, "license": None}
        return json.dumps({"doi": doi, "journal_is_oa": False, "oa_locations": [location], **extra})

    data = _evidence_bytes(
        line("10.1/a", title="\U0001f600"),
        line("10.1/b", title="\ud800", authors=[{"\ud800": "x"}]),  # not read
        line("10.1/c\ud800"),
        line("10.1/d", url="https://r.org/\udfff"),
        line("10.9/z", url="https://r.org/\udfff"),  # an unneeded DOI keeps nothing
        line("10.1/e", url="https://r.org/\\ud800"),  # a backslash, then "ud800"
    )
    keep = {doi: doi for doi in ("10.1/a", "10.1/b", "10.1/c\ud800", "10.1/d", "10.1/e")}
    records, issues = _parse_evidence(data, keep=keep)
    assert [r.doi for r in records] == ["10.1/a", "10.1/b", "10.1/e"]
    assert records[2].repository_urls == ("r.org/\\ud800",)
    assert [(i.line_no, i.kind, i.detail) for i in issues] == [
        (3, "malformed", "unpaired surrogate escape"),
        (4, "malformed", "unpaired surrogate escape"),
    ]


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
    assert issues == [] and records[0].repository_urls == ("u",)
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


@pytest.mark.parametrize("compressed", [False, True], ids=["plain", "gzip"])
@pytest.mark.parametrize("blank_lines", [10, 10_000, 100_000])
def test_jsonl_table_after_many_blank_lines_is_read_as_jsonl(tmp_path, blank_lines, compressed):
    # The first "{" lies beyond the 8 KiB a plain file's reader buffers (and, at 100k, the 64 KiB of a gzipped one).
    rows = [
        {"pub_id": "P1", "doi": "10.1/a", "year": 2015, "doc_type": "article", "journal_id": "J1", "field_ids": [BIO]},
        {"pub_id": "P2", "year": 2015, "doc_type": "editorial", "journal_id": "J1", "field_ids": [BIO]},
    ]
    data = b"\n" * blank_lines + "".join(json.dumps(row) + "\n" for row in rows).encode()
    path = tmp_path / "publications.jsonl"
    path.write_bytes(gzip.compress(data) if compressed else data)
    records, issues = _parse_pubs(path)
    assert [(r.pub_id, r.doi) for r in records] == [("P1", "10.1/a")]
    # Line numbers count the blank lines.
    assert [(i.line_no, i.kind) for i in issues] == [(blank_lines + 2, "malformed")]


@pytest.mark.parametrize("compressed", [False, True], ids=["plain", "gzip"])
@pytest.mark.parametrize("count", [10, 100_000])
def test_csv_table_after_leading_blanks_reads_as_before(tmp_path, count, compressed):
    path = tmp_path / "institutions.csv"

    def parse(data: bytes):
        path.write_bytes(gzip.compress(data) if compressed else data)
        issues = []
        institutions, _ = parse_registries(path, None, on_issue=issues.append)
        return institutions, [(i.line_no, i.kind) for i in issues]

    # Blanks before the header's first cell stay in it, so its (optional) name column is not found.
    institutions, issues = parse(b" " * count + b"name,inst_id,country,regions\nUniv,U1,tr,Europe\n,U2,tr,\n")
    assert [(i.inst_id, i.name, i.country) for i in institutions.values()] == [("U1", "U1", "TR")]
    assert issues == [(3, "missing_required_field")]
    # A blank line before the header is read as the header.
    with pytest.raises(ValueError, match="missing required columns: inst_id, country, regions"):
        parse(b" \r\n" * count + b"inst_id,country,regions\nU1,tr,Europe\n")


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
        dump, keep={f"10.1/{i}": f"10.1/{i}" for i in range(4)}, stats=stats, processes=processes
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
        keep = {doi: doi for doi in kept}
        records, issues = _parse_evidence(path, keep=keep, stats=stats, processes=processes)
        return records, issues, stats, keep

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
        records, issues = _parse_evidence(
            fifo, keep={f"10.1/{i}": f"10.1/{i}" for i in range(3)}, processes=2
        )
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        writer.wait(timeout=10)
    assert issues == [] and [r.doi for r in records] == ["10.1/0", "10.1/1", "10.1/2"]


@pytest.mark.parametrize("processes", [1, 3])
def test_keep_maps_each_doi_to_none_once_its_record_is_consumed(tmp_path, monkeypatch, processes):
    monkeypatch.setattr(ingest, "_MIN_RANGE_BYTES", 32)
    dump = tmp_path / "dump.jsonl"
    dois = [f"10.1/{i}" for i in (0, 1, 2, 3, 4, 5, 2, 0)]
    dump.write_text(
        "".join(
            json.dumps({"doi": f"https://doi.org/{doi}", "journal_is_oa": False, "oa_locations": []}) + "\n"
            for doi in dois
        ),
        encoding="utf-8",
    )
    assert len(ingest._byte_ranges(dump, processes)) == (processes if processes > 1 else 0)
    keep = {"10.1/0": "P0", "10.1/2": "P2", "10.1/4": "P4", "10.1/9": "P9"}
    issues, consumed = [], []
    for record in parse_evidence_stream(dump, on_issue=issues.append, keep=keep, processes=processes):
        consumed.append((record.doi, keep[record.doi]))
    # Each record's value is still there while it is consumed; a later line for its DOI is a duplicate.
    assert consumed == [("10.1/0", "P0"), ("10.1/2", "P2"), ("10.1/4", "P4")]
    assert [(i.line_no, i.kind) for i in issues] == [(7, "duplicate_key"), (8, "duplicate_key")]
    assert keep == {"10.1/0": None, "10.1/2": None, "10.1/4": None, "10.1/9": "P9"}


def _two_range_dump(tmp_path, monkeypatch, n: int = 400):
    """A dump of `n` kept lines that `_byte_ranges` cuts in two, and its keep map."""
    dump = tmp_path / "dump.jsonl"
    dump.write_text(
        "".join(
            json.dumps({"doi": f"10.1/{i}", "journal_is_oa": False, "oa_locations": []}) + "\n"
            for i in range(n)
        ),
        encoding="utf-8",
    )
    monkeypatch.setattr(ingest, "_MIN_RANGE_BYTES", dump.stat().st_size // 2)
    assert len(ingest._byte_ranges(dump, 2)) == 2
    return dump, {f"10.1/{i}": i for i in range(n)}


def test_range_scan_yields_the_first_range_as_it_reads_it(tmp_path, monkeypatch):
    dump, keep = _two_range_dump(tmp_path, monkeypatch)
    stats = ParseStats()
    # Closed on the way out, so that a failed check leaves no child and no frozen object to later tests.
    with contextlib.closing(parse_evidence_stream(dump, keep=keep, stats=stats, processes=2)) as records:
        assert next(records).doi == "10.1/0"
        # Only the first line is counted: the other lines of range 0 are not read yet, nor any child's added.
        assert stats.lines == 1
        # The objects the child inherited stay frozen while it may run.
        assert gc.get_freeze_count() > 0
        # They are unfrozen once the child is reaped, before its events are yielded.
        first = dump.read_bytes()[:ingest._byte_ranges(dump, 2)[0][1]].count(b"\n")
        rest = [(r.doi, gc.get_freeze_count() > 0) for r in records]
        assert rest == [(f"10.1/{i}", i < first) for i in range(1, 400)]
    assert (stats.lines, stats.records) == (400, 400)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert gc.get_freeze_count() == 0


def test_range_scan_leaves_a_callers_freeze_in_place(tmp_path, monkeypatch):
    dump, keep = _two_range_dump(tmp_path, monkeypatch)
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert frozen > 0
        assert len(list(parse_evidence_stream(dump, keep=keep, processes=2))) == 400
        assert gc.get_freeze_count() >= frozen
    finally:
        gc.unfreeze()


def test_closing_a_range_scan_leaves_no_child(tmp_path, monkeypatch):
    dump, keep = _two_range_dump(tmp_path, monkeypatch)
    records = parse_evidence_stream(dump, keep=keep, processes=2)
    assert next(records).doi == "10.1/0"
    records.close()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert gc.get_freeze_count() == 0


def test_range_scan_splits_a_dump_at_line_starts(tmp_path, monkeypatch):
    monkeypatch.setattr(ingest, "_MIN_RANGE_BYTES", 10)
    dump = tmp_path / "dump.jsonl"
    # Line starts 0, 8, 19, 27; 41 bytes cut near 10, 20 and 30.
    dump.write_bytes(b"aaaaaaa\nbbbbbbbbbb\nccccccc\nddddddddddddd\n")
    assert ingest._byte_ranges(dump, 4) == [(0, 19), (19, 27), (27, 41)]
    assert ingest._byte_ranges(dump, 1) == []
    dump.write_bytes(gzip.compress(dump.read_bytes()))
    assert ingest._byte_ranges(dump, 4) == []


@settings(max_examples=100, deadline=None)
@given(
    lines=st.lists(st.binary(max_size=5).map(lambda b: b.replace(b"\n", b"") + b"\n"), min_size=1, max_size=10),
    final_newline=st.booleans(),
    cuts=st.sets(st.integers(1, 9)),
    block_bytes=st.integers(1, 12),
)
# The first range ends with a one-byte line read on its own, after a block that stops one byte short.
@example(lines=[b"ab\n", b"\n", b"c\n"], final_newline=True, cuts={2}, block_bytes=1)
# The first range's four bytes end exactly where a block of hint 3 (its size less one) ends.
@example(lines=[b"abc\n", b"de\n"], final_newline=True, cuts={1}, block_bytes=4)
def test_block_reader_yields_exactly_the_lines_of_each_range(lines, final_newline, cuts, block_bytes):
    data = b"".join(lines)
    if not final_newline:
        lines[-1] = lines[-1][:-1]
        data = data[:-1]
    starts = [0, *itertools.accumulate(map(len, lines))][: len(lines)]
    cuts = [0, *sorted(starts[k] for k in cuts if k < len(lines)), len(data)]
    ranges = [(start, end) for start, end in zip(cuts, cuts[1:]) if start < end]
    read = []
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(ingest, "_BLOCK_BYTES", block_bytes):
        dump = Path(tmp) / "dump.jsonl"
        dump.write_bytes(data)
        for start, end in ranges:
            blocks = list(ingest._read_blocks(dump, start, end))
            assert all(blocks)
            assert b"".join(itertools.chain.from_iterable(blocks)) == data[start:end]
            read += itertools.chain.from_iterable(blocks)
    assert read == [line for line in lines if line]


_NEVER = re.compile(rb"(?!)")


def _pinned_scan(lines: list[bytes], prefilter: bool = True):
    stats = ParseStats()
    keep = {doi: doi for doi in ("10.5/p", "10.5/e")}
    with mock.patch.object(ingest, "_FIRST_DOI", ingest._FIRST_DOI if prefilter else _NEVER):
        records, issues = _parse_evidence(io.BytesIO(b"\n".join(lines) + b"\n"), keep=keep, stats=stats)
    return records, [(i.line_no, i.kind, i.detail) for i in issues], stats.lines


def test_prefilter_still_counts_these_unneeded_lines():
    golden_bad = b'{"doi": "10.9/bad", "journal_is_oa":'
    assert golden_bad in (Path(__file__).parent / "data/golden_input/evidence.jsonl").read_bytes()
    # Every DOI but the second "doi" keys' 10.5/p and 10.5/e is unneeded.
    lines = [
        b'{"doi": "10.7/u", "journal_is_oa": true, "oa_locations": [], "t": "\xff"}',
        b'{"doi": "10.7/n", "journal_is_oa": true}',
        b'{"doi": "10.7/j", "oa_locations": []}',
        b'{"doi": "nope", "journal_is_oa": true, "oa_locations": []}',
        b'{"doi": 10.7, "journal_is_oa": true, "oa_locations": []}',
        golden_bad,
        b'{"doi": "10.7/t", "journal_is_oa": true, "oa_locations": []',
        b'{"doi": "10.7/x", "journal_is_oa": true, "oa_locations": [], "doi": "10.5/p"}',
        b'{"doi": "10.7/x", "journal_is_oa": false, "oa_locations": [], "d\\u006fi": "10.5/e"}',
    ]
    counted = [
        (1, "malformed", "undecodable bytes"),
        (2, "missing_required_field", "missing oa_locations"),
        (3, "missing_required_field", "missing journal_is_oa"),
        (4, "malformed", "invalid doi: 'nope'"),
        (5, "malformed", "invalid doi: 10.7"),
        (6, "malformed", "invalid JSON"),
        (7, "malformed", "invalid JSON"),
    ]
    narrowed = [
        b'{"doi": "10.7/x", "journal_is_oa": tru, "oa_locations": []}',
        b'{"doi": "10.7/y", "oa_locations": [{"host_type": "publisher", "url": "u", "journal_is_oa": true}]}',
    ]
    records, issues, n_lines = _pinned_scan(lines + narrowed)
    # A needed second "doi" key, plain or escaped, overrides the first and keeps its record.
    assert [(r.doi, r.journal_is_oa) for r in records] == [("10.5/p", True), ("10.5/e", False)]
    assert issues == counted and n_lines == 11
    # The narrowed lines are counted only when every line is parsed.
    assert _pinned_scan(lines + narrowed, prefilter=False) == (records, counted + [
        (10, "malformed", "invalid JSON"),
        (11, "missing_required_field", "missing journal_is_oa"),
    ], 11)


_PREFILTER_DOIS = ("10.5/a", "10.5/b", "10.7/x", "10.7/y")
_PREFILTER_NEEDED = ("10.5/a", "10.5/b")
_TITLE = st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=4)


@st.composite
def _prefilter_line(draw) -> bytes:
    """One dump line, built from the parts the prefilter reads, often valid."""
    ascii_only = draw(st.booleans())
    doi = draw(st.builds(_spelled, st.sampled_from(_PREFILTER_DOIS), st.integers(0, 3)))
    first = draw(st.sampled_from(['"doi": ', ' "doi" :\t', '"doi":'])) + draw(st.sampled_from(
        [json.dumps(doi, ensure_ascii=ascii_only)] * 3 + ['"nope"', "10.5", '"10.5/\\u0061"']
    ))
    location = {"host_type": draw(st.sampled_from(["publisher", "repository"])), "url": "u"}
    entries = [
        entry for entry in ('"journal_is_oa": false', '"oa_locations": []') if draw(st.integers(0, 4))
    ] + draw(st.lists(st.sampled_from([
        '"doi": "10.5/a"', '"d\\u006fi": "10.5/b"', '"\\u0064oi": "10.7/y"', '"doi": 7',
        '"journal_is_oa": true', '"journal_is_oa": tru', f'"oa_locations": [{json.dumps(location)}]',
        '"x": {"journal_is_oa": true, "oa_locations": []}', "title",
    ]), min_size=1, max_size=2))
    entries = [
        '"title": ' + json.dumps(draw(_TITLE), ensure_ascii=ascii_only) if e == "title" else e
        for e in entries
    ]
    entries.insert(draw(st.integers(0, len(entries))) if draw(st.integers(0, 3)) == 0 else 0, first)
    line = draw(st.sampled_from(["", " ", "\t", " \r"])) + "{" + ", ".join(entries) + "}"
    data = line.encode("utf-8") + draw(st.sampled_from([b"", b" ", b"\r"]))
    cut = draw(st.integers(0, len(data)))
    damage = draw(st.sampled_from(["truncate", "invalid UTF-8", None, None, None, None]))
    if damage == "truncate":
        return data[:cut]
    return data[:cut] + b"\xff" + data[cut:] if damage else data


def _droppable(line: bytes) -> bool:
    """The README's rule for dropping a line undecoded, checked on the line alone."""
    first = ingest._FIRST_DOI.match(line)
    doi = normalize_doi(first[1].decode("utf-8", "replace")) if first else None
    try:
        line.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return (
        doi is not None
        and doi not in _PREFILTER_NEEDED
        and line.count(b'"doi"') == 1
        and b"\\u" not in line
        and line.find(b'"journal_is_oa"') > 0
        and line.find(b'"oa_locations"') > 0
        and line.rstrip().endswith(b"}")
    )


#: Pieces of the "doi" values `_FIRST_DOI` reads: no quote, backslash or line end.
_DOI_PIECE = st.sampled_from([
    b"10.", b"10.5", b"/", b"a", b"B", b".", b" ", b"\t", b"\r", b"\x1c", b"doi:", b"DOI: ",
    b"https://doi.org/", b"HTTP://DX.DOI.ORG/", b"http://dx.doi.org/ ", "\u00e9".encode(), b"\xff",
])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_DOI_PIECE, max_size=6).map(b"".join), min_size=1, max_size=8))
def test_block_dois_are_what_normalize_doi_makes_of_each_value(values):
    dois, rejected = ingest._block_dois(values)
    expected = [normalize_doi(value.decode("utf-8", "replace")) for value in values]
    assert dois == expected
    assert list(rejected) == [k for k, doi in enumerate(expected) if doi is None]


@settings(max_examples=100, deadline=None)
@given(
    lines=st.lists(
        st.one_of(*[_prefilter_line()] * 3, st.sampled_from([b"", b"  ", b"[1]", b"{not json"])),
        max_size=16,
    ),
    ending=st.sampled_from([b"\n", b"\r\n"]),
    final_newline=st.booleans(),
)
# Lines of an invalid or unneeded DOI that each fail one check of the rule, so none may be dropped.
@example(lines=[
    b'{"doi": "nope", "journal_is_oa": true, "oa_locations": []}',
    b'{"doi": "10.7/x", "journal_is_oa": true, "oa_locations": [], "doi": "10.5/a"}',
    b'{"doi": "10.7/x", "journal_is_oa": true, "oa_locations": [], "d\\u006fi": "10.5/b"}',
    b'{"doi": "10.7/x", "oa_locations": []}',
    b'{"doi": "10.7/x", "journal_is_oa": true}',
    b'{"doi": "10.7/x", "journal_is_oa": true, "oa_locations": [',
    b'{"doi": "10.7/x", "journal_is_oa": true, "oa_locations": ["\xff"]}',
], ending=b"\n", final_newline=True)
def test_prefilter_drops_only_lines_a_full_parse_would_not_keep(lines, ending, final_newline):
    data = b"".join(line + ending for line in lines)
    if lines and not final_newline:
        data = data[: -len(ending)]

    def scan(path, processes, pattern):
        stats = ParseStats()
        keep = {doi: doi for doi in _PREFILTER_NEEDED}
        with mock.patch.object(ingest, "_FIRST_DOI", pattern):
            records, issues = _parse_evidence(path, keep=keep, stats=stats, processes=processes)
        return records, {i.line_no: i for i in issues}, (stats.lines, stats.records), keep

    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(ingest, "_MIN_RANGE_BYTES", 16):
        dump = Path(tmp) / "dump.jsonl"
        dump.write_bytes(data)
        # The reference parses every non-blank line in full.
        with mock.patch.object(ingest, "_check_line", wraps=ingest._check_line) as check_line:
            expected_records, expected_issues, expected_counts, expected_keep = scan(dump, 1, _NEVER)
        assert check_line.call_count == sum(1 for line in lines if line.strip())
        # Blocks of one line, of a few lines and of the whole dump, in one range and in several.
        for block_bytes, processes in itertools.product((1, 128, ingest._BLOCK_BYTES), (1, 3)):
            with mock.patch.object(ingest, "_BLOCK_BYTES", block_bytes):
                records, issues, counts, keep = scan(dump, processes, ingest._FIRST_DOI)
            assert (records, counts, keep) == (expected_records, expected_counts, expected_keep)
            assert issues.items() <= expected_issues.items()
            for line_no in expected_issues.keys() - issues.keys():
                issue = expected_issues[line_no]
                assert (issue.kind, issue.detail) == ("malformed", "invalid JSON") or (
                    issue.kind == "missing_required_field"
                )
                assert _droppable(lines[line_no - 1])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
            parse_evidence_stream(fh, on_issue=on_issue, keep={"10.1/a": "10.1/a"})
        ),
    )
    for parse in parsers:
        issues = []
        with contextlib.suppress(FatalInputError), _reading("fuzz input"):
            parse(io.BytesIO(data), issues.append)
        assert all(isinstance(issue, ParseIssue) for issue in issues)


def _parses_with_and_without_affiliations(data: bytes) -> list[tuple[list | str, list[ParseIssue]]]:
    """(records or the fatal error, issues) of the default publications parse and of one with affiliations=False."""
    results = []
    for affiliations in (True, False):
        records, issues = [], []
        try:
            with _reading("publications"):
                records.extend(parse_publications(
                    io.BytesIO(data), PipelineConfig(), issues.append, affiliations=affiliations,
                ))
        except FatalInputError as exc:
            records = str(exc)
        results.append((records, issues))
    return results


def _but_affiliations(records: list | str) -> list | str:
    """Each record's fields but institution_ids."""
    if type(records) is str:
        return records
    return [(pub.pub_id, pub.doi, pub.language, pub.journal_id, pub.field_ids) for pub in records]


@settings(max_examples=100, deadline=None)
@given(data=_wrapped(_CSV_SHAPED | _JSONL_SHAPED))
def test_a_parse_without_affiliations_differs_from_the_default_only_in_them(data):
    (records, issues), (without, issues_without) = _parses_with_and_without_affiliations(data)
    assert issues_without == issues
    assert _but_affiliations(without) == _but_affiliations(records)
    assert type(without) is str or {pub.institution_ids for pub in without} <= {()}


@pytest.mark.parametrize("gz", [False, True], ids=["plain", "gzip"])
@pytest.mark.parametrize("table_format", ["csv", "jsonl", "jsonl_lists"])
def test_a_parse_without_affiliations_keeps_the_golden_rows_and_issues(golden_input, table_format, gz):
    # In JSON lines each CSV row becomes an object of its string cells; in
    # jsonl_lists its institution_ids become a JSON list, which arrives as a tuple.
    data = (golden_input / "publications.csv").read_bytes()
    if table_format != "csv":
        with (golden_input / "publications.csv").open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if table_format == "jsonl_lists":
            for row in rows:
                row["institution_ids"] = row["institution_ids"].split(";")
        data = "".join(json.dumps(row) + "\n" for row in rows).encode("utf-8")
    (records, issues), (without, issues_without) = _parses_with_and_without_affiliations(
        gzip.compress(data) if gz else data
    )
    assert [issue.detail for issue in issues] == [
        "non-citable doc_type: 'editorial'", "year 2013 outside period 2014-2017",
    ]
    assert issues_without == issues
    assert len(records) == 20 and ("U2", "U4") in {pub.institution_ids for pub in records}
    assert _but_affiliations(without) == _but_affiliations(records)
    assert [pub.institution_ids for pub in without] == [()] * 20


def test_a_parse_without_affiliations_still_checks_their_cell():
    row = {"year": 2015, "doc_type": "article", "journal_id": "J1", "field_ids": [BIO]}
    lines = [
        {"pub_id": "P1", "institution_ids": {"U1": 1}, **row},
        {"pub_id": "P2", "institution_ids": ["U1", None], **row},
        {"pub_id": "P3", "institution_ids": ["U2", "U1", "U2"], **row},
        {"pub_id": "P4", "institution_ids": "U1; U3", **row},
    ]
    data = "".join(json.dumps(line) + "\n" for line in lines).encode("utf-8")
    (records, issues), (without, issues_without) = _parses_with_and_without_affiliations(data)
    assert [(issue.line_no, issue.kind, issue.detail) for issue in issues] == [
        (1, "malformed", "institution_ids holds a value that is not text or a number"),
        (2, "malformed", "institution_ids holds a value that is not text or a number"),
    ]
    assert issues_without == issues
    assert [(pub.pub_id, pub.institution_ids) for pub in records] == [("P3", ("U1", "U2")), ("P4", ("U1", "U3"))]
    assert [(pub.pub_id, pub.institution_ids) for pub in without] == [("P3", ()), ("P4", ())]


def _json_object_reference(raw: bytes) -> dict | str:
    """`ingest._json_object` as written on json.loads, before it called the scanner itself."""
    try:
        obj = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError:
        return "undecodable bytes"
    except (ValueError, RecursionError):
        return "invalid JSON"
    return obj if type(obj) is dict else "line is not an object"


#: Pieces of lines that are often JSON: tokens, escapes, JSON and other blanks, a BOM, invalid UTF-8.
_JSON_LINE_PIECE = st.sampled_from([
    "{", "}", "[", "]", ",", ":", '"a"', '"doi"', "1", "-2.5e3", "NaN", "Infinity", "-Infinity", "true",
    "null", '"\\u00e9"', '"\\ud800"', '"\\udc00"', '"\\ud83d\\ude00"', '"\\\\ud800"', '"\\"', " ", "\t",
    "\r", "\n", "\x0b", "\x0c", "\x1c", "\u00a0", "\u2028", "\ufeff", "x", "\u00e9",
]).map(str.encode) | st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])
_JSON_BLANK_PIECES = st.lists(st.sampled_from([b" ", b"\t", b"\r", b"\n", b"\x0b", b"\x0c"]), max_size=3)


@settings(max_examples=300, deadline=None)
@given(raw=st.one_of(
    st.lists(_JSON_LINE_PIECE, max_size=12).map(b"".join),
    st.builds(
        lambda head, obj, tail: b"".join(head) + json.dumps(obj).encode() + b"".join(tail),
        _JSON_BLANK_PIECES, st.dictionaries(_KEY, _JSON_VALUE, max_size=4), _JSON_BLANK_PIECES,
    ),
))
@example(raw=b"")
@example(raw=b" {} ")
@example(raw=b"\x0c{}")
@example(raw=b"{}\x0c")
@example(raw="\ufeff{}".encode())
@example(raw=b"{}{}")
@example(raw=b"{} x")
@example(raw=b"[]")
@example(raw=b"1")
@example(raw=b"NaN")
@example(raw=b'{"a": NaN}')
@example(raw=b"[" * 100_000)
@example(raw=b'{"a":1')
@example(raw=b"{}\r\n")
def test_json_object_reads_a_line_as_json_loads_does(raw):
    got, expected = ingest._json_object(raw), _json_object_reference(raw)
    assert type(got) is type(expected)
    assert repr(got) == repr(expected)  # repr, since NaN != NaN



def _json_cells_reference(obj: dict, columns: tuple[str, ...]) -> list | str:
    """The cells of one JSON-lines row, or the first column that cannot be read: the per-row reader's rule."""
    cells = []
    for column, value in zip(columns, map(obj.get, columns)):
        kind = type(value)
        if kind is str or kind is bool and column in ingest._FLAG_COLUMNS:
            pass
        elif value is None:
            value = ""
        elif kind is int or kind is float:
            value = str(value)
        elif kind is list and column in ingest._LIST_COLUMNS and all(
            type(item) in (str, int, float) for item in value
        ):
            value = tuple(map(str, value))
        else:
            return column
        cells.append(value)
    return cells


def _json_rows_reference(data: bytes, columns: tuple[str, ...]):
    """Rows, issues and the non-blank line count of a JSON-lines table, read one line at a time."""
    rows, issues, lines = [], [], 0
    for line_no, raw in enumerate(io.BytesIO(data), start=1):
        if not raw.strip(b" \t\r\n"):
            continue
        lines += 1
        obj = _json_object_reference(raw)
        if type(obj) is str:
            issues.append((line_no, "malformed", obj))
            continue
        cells = _json_cells_reference(obj, columns)
        if type(cells) is str:
            issues.append((line_no, "malformed", f"{cells} holds a value that is not text or a number"))
            continue
        texts = [cell if type(cell) is str else "".join(cell) for cell in cells if type(cell) is not bool]
        try:
            "".join(texts).encode("utf-8")
        except UnicodeEncodeError:
            issues.append((line_no, "malformed", "unpaired surrogate escape"))
            continue
        rows.append((line_no, tuple(cells)))
    return rows, issues, lines


#: A text column, a flag column and a list column, each read as `_iter_rows` reads them.
_ROW_COLUMNS = ("name", "is_fully_oa", "institution_ids")
_ROW_TEXT = st.text(max_size=4) | st.sampled_from(["\ud800", "a\udc00", "\U0001f600", "\u00e9"])
_ROW_SCALAR = _ROW_TEXT | st.integers() | st.floats() | st.none() | st.booleans()
_ROW_VALUE = (
    _ROW_SCALAR | st.lists(_ROW_SCALAR, max_size=3) | st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)
)
#: The values one column may hold through a whole table, so that most blocks hold one or two types.
_COLUMN_VALUES = st.sampled_from([
    _ROW_TEXT, st.integers() | st.floats(), st.none() | _ROW_TEXT, st.booleans(), st.booleans() | st.none(),
    st.lists(_ROW_TEXT, max_size=3), st.lists(_ROW_TEXT | st.integers() | st.floats(), max_size=3),
    st.lists(_ROW_SCALAR, max_size=3), _ROW_VALUE,
])
_OTHER_LINES = st.sampled_from([
    b"", b" ", b"\t\r", b"\x0b", b"\x0c", b" \x0c ", b"{", b"{bad", b"[1]", b"null", b"\xff{}", b'{"name": NaN}',
])


@st.composite
def _json_table(draw):
    kinds = [draw(_COLUMN_VALUES) for _ in _ROW_COLUMNS]
    lines = []
    for _ in range(draw(st.integers(0, 40))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(_OTHER_LINES))
            continue
        # Now and then a value of any type, and a missing key.
        obj = {c: draw(_ROW_VALUE if draw(st.integers(0, 19)) == 0 else kind) for c, kind in zip(_ROW_COLUMNS, kinds)}
        obj = {c: v for c, v in obj.items() if draw(st.integers(0, 9))}
        text = json.dumps(obj, ensure_ascii=draw(st.booleans()))
        lines.append(text.encode("utf-8", "surrogatepass"))
    # The first non-blank byte is "{", so the table is read as JSON lines.
    head = draw(st.sampled_from([b"", b"\n", b"\x0c\n", b" \n\n"]))
    return head + b'{"name": "first"}\n' + b"\n".join(lines) + draw(st.sampled_from([b"", b"\n", b"\r\n"]))


@settings(max_examples=150, deadline=None)
@given(data=_json_table())
# Blocks of many rows whose reader issues fall between valid rows: invalid JSON and a surrogate escape.
@example(data=b'{"name": "first"}\n' + b"\n".join(
    json.dumps({"name": "a\ud800" if k % 7 == 3 else k, "is_fully_oa": k % 5 == 0, "institution_ids": ["U", k]})
    .encode() if k % 11 else b"{bad" for k in range(60)
))
def test_block_reader_matches_a_per_row_reference(data):
    expected_rows, expected_issues, expected_lines = _json_rows_reference(data, _ROW_COLUMNS)
    for block_bytes in (1, 128, ingest._ROW_BLOCK_BYTES):
        stats, issues = ParseStats(), []
        with mock.patch.object(ingest, "_ROW_BLOCK_BYTES", block_bytes):
            rows = ingest._iter_rows(io.BytesIO(data), "t", issues.append, stats, _ROW_COLUMNS[:1], _ROW_COLUMNS[1:])
            rows = list(rows)
        assert rows == expected_rows
        assert [(i.line_no, i.kind, i.detail) for i in issues] == expected_issues
        assert (stats.lines, stats.records) == (expected_lines, 0)


def test_reader_and_parser_issues_interleave_in_line_order():
    """Issues of the block reader and of the parser, from lines of one block, come in line order."""
    good = {"pub_id": "P", "year": 2015, "doc_type": "article", "journal_id": "J1", "field_ids": [BIO]}
    lines = [
        {**good, "pub_id": "P1"},
        "{bad",
        {**good, "pub_id": "P3", "doc_type": "editorial"},
        {**good, "pub_id": "P4", "language": ["en"]},
        {**good, "pub_id": " "},
        {**good, "pub_id": "P6", "doi": "\ud800"},
        {**good, "pub_id": "P1"},
        {**good, "pub_id": "P8"},
    ]
    data = "\n".join(line if type(line) is str else json.dumps(line) for line in lines).encode()
    stats = ParseStats()
    records, issues = [], []
    for record in parse_publications(io.BytesIO(data), PipelineConfig(), on_issue=issues.append, stats=stats):
        records.append((record.pub_id, len(issues)))
    assert records == [("P1", 0), ("P8", 6)]
    assert [(i.line_no, i.kind, i.detail) for i in issues] == [
        (2, "malformed", "invalid JSON"),
        (3, "malformed", "non-citable doc_type: 'editorial'"),
        (4, "malformed", "language holds a value that is not text or a number"),
        (5, "missing_required_field", "missing pub_id"),
        (6, "malformed", "unpaired surrogate escape"),
        (7, "duplicate_key", "duplicate pub_id: P1"),
    ]
    assert (stats.lines, stats.records) == (8, 2)

def test_json_values_that_are_not_text_or_numbers_make_the_row_malformed():
    pubs = [
        {"pub_id": "P1", "year": 2015, "doc_type": "article", "journal_id": "J1",
         "institution_ids": ["U1", None, {"a": 1}], "field_ids": [BIO]},
        {"pub_id": "P2", "doi": ["10.1/b"], "year": 2015, "doc_type": "article",
         "journal_id": "J1", "field_ids": [BIO]},
        {"pub_id": True, "year": 2015, "doc_type": "article", "journal_id": "J1", "field_ids": [BIO]},
        {"pub_id": "P4", "year": 2015, "doc_type": "article", "journal_id": "J1", "field_ids": [BIO],
         "language": {"code": "en"}},
        # Numbers are read as their text and a scalar null as missing.
        {"pub_id": 5, "doi": None, "year": 2015, "doc_type": "article", "journal_id": 7,
         "institution_ids": ["U1", 3], "field_ids": BIO, "language": None},
        # A boolean is not a number, also inside a list.
        {"pub_id": "P6", "year": 2015, "doc_type": "article", "journal_id": "J1", "field_ids": [BIO, True]},
    ]
    records, issues = _parse_pubs(io.BytesIO("".join(json.dumps(p) + "\n" for p in pubs).encode()))
    assert [(i.line_no, i.kind, i.detail) for i in issues] == [
        (1, "malformed", "institution_ids holds a value that is not text or a number"),
        (2, "malformed", "doi holds a value that is not text or a number"),
        (3, "malformed", "pub_id holds a value that is not text or a number"),
        (4, "malformed", "language holds a value that is not text or a number"),
        (6, "malformed", "field_ids holds a value that is not text or a number"),
    ]
    (pub,) = records
    assert (pub.pub_id, pub.doi, pub.journal_id, pub.institution_ids, pub.language) == (
        "5", None, "7", ("3", "U1"), "unknown",
    )

    inst = io.BytesIO(
        b'{"inst_id": "U1", "country": "ES", "regions": ["Europe", null], "repo_url_patterns": [null]}\n'
        b'{"inst_id": "U2", "country": "ES", "regions": ["Europe"], "repo_url_patterns": [null]}\n'
        b'{"inst_id": "U3", "country": "ES", "regions": [["Europe"]]}\n'
        b'{"inst_id": "U4", "country": "ES", "regions": ["Europe"], "name": false}\n'
        b'{"inst_id": "U5", "country": "ES", "regions": "Europe", "name": null}\n'
    )
    jour = io.BytesIO(
        b'{"journal_id": "J1", "is_fully_oa": true}\n'
        b'{"journal_id": "J2", "is_fully_oa": {}}\n'
        b'{"journal_id": "J3", "is_fully_oa": false, "has_apc": true}\n'
        b'{"journal_id": "J4", "is_fully_oa": 1, "country": null}\n'
    )
    issues = []
    institutions, journals = parse_registries(inst, jour, on_issue=issues.append)
    assert [(i.source, i.line_no, i.detail) for i in issues] == [
        ("institutions", 1, "regions holds a value that is not text or a number"),
        ("institutions", 2, "repo_url_patterns holds a value that is not text or a number"),
        ("institutions", 3, "regions holds a value that is not text or a number"),
        ("institutions", 4, "name holds a value that is not text or a number"),
        ("journals", 2, "is_fully_oa holds a value that is not text or a number"),
        ("journals", 3, "has_apc holds a value that is not text or a number"),
    ]
    assert {i.kind for i in issues} == {"malformed"}
    assert list(institutions) == ["U5"] and institutions["U5"].name == "U5"
    assert {j: (r.is_fully_oa, r.country) for j, r in journals.items()} == {
        "J1": (True, None), "J4": (True, None),
    }


def test_publications_year_is_ascii_digits():
    records, issues = _parse_pubs(_pub_rows(
        f"P1,10.1/a,2_015,article,en,J1,U1,{BIO}",
        f"P2,10.1/b,２０１５,article,en,J1,U1,{BIO}",
        f"P3,10.1/c,+2015,article,en,J1,U1,{BIO}",
        f"P4,10.1/d, 2015 ,article,en,J1,U1,{BIO}",
        f"P5,10.1/e,02015,article,en,J1,U1,{BIO}",
        f"P6,10.1/f,{'2' * 5000},article,en,J1,U1,{BIO}",  # more digits than int() converts
    ))
    assert [r.pub_id for r in records] == ["P4", "P5"]
    assert [(i.line_no, i.kind, i.detail) for i in issues] == [
        (2, "malformed", "invalid year: '2_015'"),
        (3, "malformed", "invalid year: '２０１５'"),
        (4, "malformed", "invalid year: '+2015'"),
        (7, "malformed", f"invalid year: '{'2' * 5000}'"),
    ]


_ID_TEXT = st.text(st.characters(blacklist_characters=";,\"\r\n\x00", blacklist_categories=("Cs",)), max_size=6)
_PUBLICATION_ROWS = st.lists(
    st.fixed_dictionaries({
        "pub_id": _ID_TEXT.filter(str.strip),
        "doi": st.sampled_from(["", " ", "10.1/A", " https://doi.org/10.5/x ", "doi:10.2/Y", "hdl:1", "10."]),
        "year": st.sampled_from(["2014", "2017", " 2016 "]),
        "doc_type": st.sampled_from(["article", " Review", "LETTER"]),
        "language": st.sampled_from(["", "EN", " de ", "unknown"]),
        "journal_id": _ID_TEXT.filter(str.strip),
        "institution_ids": st.lists(_ID_TEXT, max_size=4),
        "field_ids": st.lists(st.sampled_from(MAIN_FIELDS + (" " + BIO, "")), max_size=4).filter(
            lambda fields: any(f.strip() for f in fields)
        ),
    }),
    max_size=12,
)


def _as_csv(rows) -> bytes:
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(PUB_HEADER.split(","))
    for row in rows:
        writer.writerow(
            ";".join(row[c]) if c in ("institution_ids", "field_ids") else row[c]
            for c in PUB_HEADER.split(",")
        )
    return text.getvalue().encode("utf-8")


@settings(max_examples=100, deadline=None)
@given(_PUBLICATION_ROWS, st.booleans())
def test_parsed_records_equal_checked_records(rows, as_jsonl):
    data = b"".join(json.dumps(r).encode() + b"\n" for r in rows) if as_jsonl else _as_csv(rows)
    records, _ = _parse_pubs(io.BytesIO(data))
    first_rows, seen = [], set()  # a duplicate pub_id keeps its first row
    for row in rows:
        if row["pub_id"].strip() not in seen:
            seen.add(row["pub_id"].strip())
            first_rows.append(row)
    assert len(records) == len(first_rows)
    for record, row in zip(records, first_rows):
        checked = PublicationRecord(
            pub_id=row["pub_id"].strip(),
            doi=normalize_doi(row["doi"]) if row["doi"].strip() else None,
            language=row["language"].strip().lower() or "unknown",
            journal_id=row["journal_id"].strip(),
            institution_ids=[i.strip() for i in row["institution_ids"] if i.strip()],
            field_ids={f.strip() for f in row["field_ids"] if f.strip()},
        )
        for field in dataclasses.fields(PublicationRecord):
            got, want = getattr(record, field.name), getattr(checked, field.name)
            assert (type(got), got) == (type(want), want), field.name


def test_normalize_doi_runs_once_per_row_with_a_doi_cell(monkeypatch):
    rows = _pub_rows(
        f"P1,https://doi.org/10.1/A,2015,article,en,J1,U1,{BIO}",
        f"P2,,2015,article,en,J1,U1,{BIO}",
        f"P3,  ,2015,article,en,J1,U1,{BIO}",
        f"P4,10.1/b,2015,article,en,J1,U1,{BIO}",
        f"P5,hdl:1,2015,article,en,J1,U1,{BIO}",
    )
    calls = []

    def counting(raw):
        calls.append(raw)
        return normalize_doi(raw)

    monkeypatch.setattr(models, "normalize_doi", counting)
    monkeypatch.setattr(ingest, "normalize_doi", counting)
    records, _ = _parse_pubs(rows)
    assert [r.doi for r in records] == ["10.1/a", None, None, "10.1/b", None]
    assert calls == ["https://doi.org/10.1/A", "10.1/b", "hdl:1"]
