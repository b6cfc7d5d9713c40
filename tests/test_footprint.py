"""Memory footprint of the parsed record store.

Deterministic: sizes come from tracemalloc over a seeded table, never
from timing or RSS, so the bound holds on any machine. The one exception
is a range scan's forked child, whose memory tracemalloc cannot see: it
is read from the kernel's /proc/self/smaps_rollup, where that exists.
"""

import gc
import io
import json
import random
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest

from oametrics import ingest
from oametrics.classifier import ClassifiedRows, classify_stream
from oametrics.cli import REPORT_TABLES, run_pipeline
from oametrics.indicators import (
    count_full,
    field_profile,
    field_summary,
    median_share_by_country,
    region_rollup,
    university_indicators,
)
from oametrics.ingest import parse_evidence_stream, parse_publications
from oametrics.models import MAIN_FIELDS, OA_TYPES, Institution, OATypeSet, PipelineConfig, PublicationRecord

PUB_HEADER = "pub_id,doi,year,doc_type,language,journal_id,institution_ids,field_ids"

#: Live bytes allowed per parsed publication. Records with a __dict__ and
#: private copies of every repeated value take about 1,130 B; a private
#: frozenset of affiliations per publication, about 350 B; storing the
#: year and doc type in each record, about 263 B. Now about 247 B.
MAX_BYTES_PER_PUB = 255

#: Bytes a scan may hold per kept evidence line: retained once the scan
#: ends, and at its peak. Records that keep every location as an object
#: took about 340 B; the digest, 308 B at the peak while the scan kept its
#: own set of DOIs and a second map; filling the one map in place, about
#: 158 B retained and 159 B at the peak. Now each DOI's value becomes None
#: once its record is consumed, so no record outlives its line: under
#: 0.1 B retained, and about 1 B at the peak over 20k lines (the buffers
#: of one line, not a term per line); reading blocks of 64 KiB, about 9 B
#: (the buffers of one block).
MAX_RETAINED_BYTES_PER_EVIDENCE_LINE = 1
MAX_PEAK_BYTES_PER_EVIDENCE_LINE = 20

#: Peak bytes a scan may add per further line of a dump whose lines are
#: mostly dropped undecoded. The scan holds one block of lines and what
#: it derives from them (about 245 kB in blocks of 64 KiB), whatever the
#: dump's size: about 0 B per line.
MAX_PEAK_BYTES_PER_DROPPED_LINE = 1

#: Peak bytes a run_pipeline call may add per further publication (with
#: its evidence line). Keeping a classified list for five table rescans,
#: and every input until the bundle is written, takes about 630 B; one
#: pass that frees its inputs early, about 430 B; classifying each
#: publication as its evidence line arrives, with the parse's pub-id set a
#: dict, about 261 B. With one store that tallies its lists every 1,024
#: publications, the fold no longer sets the peak, the publications parse
#: does (about 306 B with a list of records beside the pub-id dict); with
#: the records kept in that dict, about 297 B.
MAX_PEAK_BYTES_PER_PUB = 300

#: The same for a classify run that writes its table, whose ClassifiedRows
#: holds every publication until then (tracemalloc, Python 3.11.7).
#: Building its rows while the evidence is held took about 534 B; after it
#: is freed, about 447 B; with the fold during the scan, about 356 B (csv)
#: and 365 B (jsonl). Building each row only as it is written, about 307 B
#: in both formats: the publications parse sets the peak. With the records
#: kept in the parse's pub-id dict, not in a list beside it, about 295 B.
MAX_PEAK_BYTES_PER_PUB_CLASSIFIED = 330

#: The same for a report run whose dump is scanned in two byte ranges
#: (tracemalloc, Python 3.11.7). Holding every event of the first range
#: until the child's arrived took about 674 B (227 B in one range);
#: yielding the first range's events as they are read, about 387 B; with
#: one store that holds every publication until the scan ends, about
#: 468 B; with one that tallies its lists every 1,024 publications, about
#: 404 B. The child's memory is its own and is not traced.
MAX_PEAK_BYTES_PER_PUB_TWO_RANGES = 450

#: Private bytes (Private_Dirty) the forked child of a two-range scan may
#: hold per further publication once its scan is done and it has run a
#: full collection (Linux, 64-bit CPython 3.11.7). The collection writes
#: to the header of every object the child inherited and so copies its
#: page: the publication store and the DOI map. With the child's events
#: held in a list, about 330-440 B; the headroom is about 20%, for the
#: page granularity and the allocator.
MAX_CHILD_PRIVATE_BYTES_PER_PUB = 540

#: Peak bytes per further universities row of building that table and the
#: four read from it (field_summary, both medians, profiles), all held, as
#: run_pipeline holds them (tracemalloc, Python 3.11.7). With a Fraction
#: for every cell, summed and sorted as Fractions, and a per-university
#: dict of tuple keys for the profiles, about 265 B. With one share per
#: distinct (numerator, denominator) and the statistics computed on those
#: columns, about 174 B.
MAX_PEAK_BYTES_PER_UNIVERSITIES_ROW = 180

#: The most bytes per further universities row one of those builders may
#: hold at its peak beyond what it returns. With the profiles' dicts of
#: tuple keys, about 60 B; with lists of row references only, at most
#: about 18 B (field_summary). One whole-table list of (numerator,
#: denominator) tuples alone would add about 64 B.
MAX_WORKING_BYTES_PER_UNIVERSITIES_ROW = 24


def _publication_rows(n: int, seed: int = 5) -> list[dict]:
    rng = random.Random(seed)
    institutions = [f"U{i:03d}" for i in range(150)]
    rows = []
    for i in range(n):
        affiliations = rng.sample(institutions, rng.randint(0, 4))
        fields = rng.sample(MAIN_FIELDS, rng.randint(1, 2))
        rows.append({
            "pub_id": f"P{i:06d}",
            "doi": f"https://doi.org/10.{rng.randint(1000, 9999)}/X{i}",
            "year": rng.randint(2014, 2017),
            "doc_type": rng.choice(["article", "review", "letter"]),
            "language": rng.choice(["EN", "en", "de", ""]),
            "journal_id": f"J{rng.randrange(800)}",
            "institution_ids": affiliations,
            "field_ids": fields,
        })
    return rows


def _publication_table(n: int, seed: int = 5) -> bytes:
    lines = [PUB_HEADER]
    for row in _publication_rows(n, seed):
        lines.append(
            f"{row['pub_id']},{row['doi']},{row['year']},{row['doc_type']},{row['language']},"
            f"{row['journal_id']},{';'.join(row['institution_ids'])},\"{';'.join(row['field_ids'])}\""
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


def _publication_jsonl(n: int, seed: int = 5) -> bytes:
    return "".join(json.dumps(row) + "\n" for row in _publication_rows(n, seed)).encode("utf-8")


def test_parsed_records_have_no_instance_dict():
    pubs = list(parse_publications(io.BytesIO(_publication_table(3)), PipelineConfig()))
    line = json.dumps(
        {"doi": pubs[0].doi, "journal_is_oa": False,
         "oa_locations": [{"host_type": "repository", "url": "https://r.example/1"}]}
    )
    (record,) = parse_evidence_stream(io.BytesIO(line.encode()))
    classified = list(classify_stream([record], {pub.doi: pub for pub in pubs}))
    for obj in (pubs[0], record, classified[0][1]):
        assert not hasattr(obj, "__dict__"), type(obj).__name__


def test_equal_values_share_one_object():
    stream = io.BytesIO(
        (
            f"{PUB_HEADER}\n"
            f'P1,10.1/a,2015,article,EN,J1,U1;U2,"{MAIN_FIELDS[0]};{MAIN_FIELDS[1]}"\n'
            f'P2,10.1/b,2015,article,en,J1,U2;U1,"{MAIN_FIELDS[1]};{MAIN_FIELDS[0]}"\n'
        ).encode("utf-8")
    )
    first, second = parse_publications(stream, PipelineConfig())
    for name in ("field_ids", "institution_ids", "language", "journal_id"):
        assert getattr(first, name) is getattr(second, name), name


def _live_bytes_per_publication(table: bytes, n: int) -> float:
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pubs = list(parse_publications(io.BytesIO(table), PipelineConfig()))
        gc.collect()
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(pubs) == n
    return live / n


def test_live_bytes_per_publication_bounded():
    n = 20_000
    per_pub = _live_bytes_per_publication(_publication_table(n), n)
    assert per_pub <= MAX_BYTES_PER_PUB, f"{per_pub:.0f} B per publication"


def test_live_bytes_per_jsonl_publication_bounded():
    # The same rows as JSON lines, whose list cells arrive as lists.
    n = 20_000
    per_pub = _live_bytes_per_publication(_publication_jsonl(n), n)
    assert per_pub <= MAX_BYTES_PER_PUB, f"{per_pub:.0f} B per publication"


def _evidence_dump(n: int, seed: int = 5, for_dois=()) -> tuple[bytes, list[str]]:
    """A dump of `n` lines with 0-3 locations each, half of them repository copies.

    Line i is for for_dois[i] when `for_dois` is given, else for a generated DOI.
    """
    rng = random.Random(seed)
    lines, dois = [], []
    for i in range(n):
        doi = for_dois[i] if for_dois else f"10.{rng.randint(1000, 9999)}/e{i}"
        locations = []
        for k in range(rng.randint(0, 3)):
            if rng.random() < 0.5:
                host = rng.choice(["repo.example.edu", "www.ncbi.nlm.nih.gov/pmc", "hdl.handle.net"])
                locations.append({"host_type": "repository", "url": f"https://{host}/item/{i}-{k}"})
            else:
                locations.append({
                    "host_type": "publisher",
                    "url": f"https://publisher{rng.randrange(50)}.example.com/article/{i}",
                    "license": rng.choice([None, "cc-by", "cc-by-nc", ""]),
                })
        dois.append(doi)
        lines.append(json.dumps({"doi": doi, "journal_is_oa": rng.random() < 0.2, "oa_locations": locations}))
    return ("\n".join(lines) + "\n").encode("utf-8"), dois


def test_live_bytes_per_evidence_record_bounded():
    n = 20_000
    dump, dois = _evidence_dump(n)
    # As in run_pipeline, the DOI strings and their map are already held for the publications.
    needed = {doi: doi for doi in dois}
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in parse_evidence_stream(io.BytesIO(dump), keep=needed):
            pass
        gc.collect()
        retained, peak = (size - before for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert all(value is None for value in needed.values())  # every line was kept
    per_line = retained / n
    assert per_line <= MAX_RETAINED_BYTES_PER_EVIDENCE_LINE, f"{per_line:.1f} B retained per kept line"
    per_line_peak = peak / n
    assert per_line_peak <= MAX_PEAK_BYTES_PER_EVIDENCE_LINE, f"{per_line_peak:.1f} B per kept line at the peak"


def test_peak_of_a_mostly_dropped_scan_does_not_grow_with_the_dump():
    def scan(n: int) -> int:
        dump, dois = _evidence_dump(n)
        needed = {doi: doi for doi in dois[::50]}  # 2% of the lines are needed
        source, stats = io.BytesIO(dump), ingest.ParseStats()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in parse_evidence_stream(source, keep=needed, stats=stats):
                pass
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert (stats.lines, stats.records) == (n, len(needed))
        return peak

    # Only the needed lines are parsed: the others take the path under test.
    dump, dois = _evidence_dump(1_000)
    with mock.patch.object(ingest, "_check_line", wraps=ingest._check_line) as check_line:
        assert len(list(parse_evidence_stream(io.BytesIO(dump), keep={doi: doi for doi in dois[::50]}))) == 20
    assert check_line.call_count == 20
    small, large = 10_000, 40_000
    per_line = (scan(large) - scan(small)) / (large - small)
    assert per_line <= MAX_PEAK_BYTES_PER_DROPPED_LINE, f"{per_line:.2f} B per further dropped line at the peak"


def _write_run_inputs(directory, n: int, shards: int) -> None:
    """`n` seeded publications and a dump for their DOIs, which `shards` > 1 cuts into that many ranges."""
    table = _publication_table(n)
    dois = [pub.doi for pub in parse_publications(io.BytesIO(table), PipelineConfig())]
    (directory / "publications.csv").write_bytes(table)
    (directory / "evidence.jsonl").write_bytes(_evidence_dump(n, for_dois=dois)[0])
    assert len(ingest._byte_ranges(directory / "evidence.jsonl", shards)) == (shards if shards > 1 else 0)


def _pipeline_peak(directory, n: int, tables=REPORT_TABLES, shards: int = 1, report_format=None) -> int:
    """Peak traced bytes of run_pipeline over `n` seeded publications and a dump for their DOIs.

    With a `report_format`, the run also writes its tables, in that format, to `directory / "out"`.
    """
    _write_run_inputs(directory, n, shards)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run_pipeline(
            PipelineConfig(), directory / "publications.csv", directory / "evidence.jsonl",
            shards=shards, tables=tables, report_format=report_format or "csv",
            out_dir=None if report_format is None else directory / "out",
        )
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_peak_bytes_per_publication_of_a_run_bounded(tmp_path):
    # The difference of two scales cancels what a run holds whatever its size.
    small, large = 4_000, 8_000
    per_pub = (_pipeline_peak(tmp_path, large) - _pipeline_peak(tmp_path, small)) / (large - small)
    assert per_pub <= MAX_PEAK_BYTES_PER_PUB, f"{per_pub:.0f} B per publication"


def test_peak_bytes_per_publication_of_a_classify_run_bounded(tmp_path):
    # The run writes its table, as its rows are built only as they are written.
    small, large = 4_000, 8_000
    for report_format in ("csv", "jsonl"):
        peaks = [_pipeline_peak(tmp_path, n, ("classified",), report_format=report_format) for n in (small, large)]
        per_pub = (peaks[1] - peaks[0]) / (large - small)
        assert per_pub <= MAX_PEAK_BYTES_PER_PUB_CLASSIFIED, f"{report_format}: {per_pub:.0f} B per publication"


def test_peak_bytes_per_publication_of_a_range_scanned_run_bounded(tmp_path, monkeypatch):
    # Both dumps (808 KB and 1.6 MB) are cut into two ranges.
    monkeypatch.setattr(ingest, "_MIN_RANGE_BYTES", 64 << 10)
    small, large = 4_000, 8_000
    peaks = [_pipeline_peak(tmp_path, n, shards=2) for n in (small, large)]
    per_pub = (peaks[1] - peaks[0]) / (large - small)
    assert per_pub <= MAX_PEAK_BYTES_PER_PUB_TWO_RANGES, f"{per_pub:.0f} B per publication"


def _child_private_bytes(directory, n: int, monkeypatch) -> int:
    """Private_Dirty bytes of the child of a two-range run_pipeline over `n` seeded publications.

    They are read in the child, from /proc/self/smaps_rollup, once its scan
    has returned and a full collection has run.
    """
    _write_run_inputs(directory, n, shards=2)
    scan_range, report = ingest._scan_range, directory / "child_private_dirty"

    def measured_scan_range(*args):
        result = scan_range(*args)
        gc.collect()
        rollup = Path("/proc/self/smaps_rollup").read_text(encoding="ascii").splitlines()
        (kib,) = (int(line.split()[1]) for line in rollup if line.startswith("Private_Dirty:"))
        report.write_text(str(kib * 1024), encoding="ascii")
        return result

    monkeypatch.setattr(ingest, "_scan_range", measured_scan_range)
    report.unlink(missing_ok=True)
    gc.collect()
    run_pipeline(PipelineConfig(), directory / "publications.csv", directory / "evidence.jsonl", shards=2)
    return int(report.read_text(encoding="ascii"))


@pytest.mark.skipif(not Path("/proc/self/smaps_rollup").exists(), reason="no /proc/self/smaps_rollup")
def test_private_bytes_per_publication_of_a_range_scan_child_bounded(tmp_path, monkeypatch):
    monkeypatch.setattr(ingest, "_MIN_RANGE_BYTES", 64 << 10)
    small, large = 4_000, 8_000
    private = [_child_private_bytes(tmp_path, n, monkeypatch) for n in (small, large)]
    per_pub = (private[1] - private[0]) / (large - small)
    assert per_pub <= MAX_CHILD_PRIVATE_BYTES_PER_PUB, f"{per_pub:.0f} B per publication"


def _cell_table_footprint(n_institutions: int, seed: int = 7) -> tuple[int, dict[str, int], int]:
    """(peak, {builder: bytes it held at its peak beyond its result}, universities rows) of the cell tables.

    The roster is seeded. Each university has about 40 publications with
    1-3 affiliations and 1-2 fields; countries are shared by about 25
    universities at 1,000.
    """
    rng = random.Random(seed)
    institutions = {
        inst_id: Institution(inst_id, inst_id, f"C{rng.randrange(40):02d}",
                             frozenset(rng.sample(["Europe", "Asia", "Africa"], rng.choice((1, 2)))))
        for inst_id in (f"U{i:04d}" for i in range(n_institutions))
    }
    ids = sorted(institutions)
    outcomes = [OATypeSet(**{t: True}) for t in OA_TYPES] + [OATypeSet(), OATypeSet(gold=True, green=True)]
    store = ClassifiedRows()
    for i in range(20 * n_institutions):
        pub = PublicationRecord(f"P{i}", f"10.1/{i}", "en", "J1", rng.sample(ids, rng.randint(1, 3)),
                                frozenset(rng.sample(MAIN_FIELDS, rng.choice((1, 2)))))
        store.add(pub, rng.choice(outcomes), ())
    counts, config = count_full(store), PipelineConfig()
    working, peaks = {}, []

    def build(builder, *args):
        tracemalloc.reset_peak()
        table = builder(*args)
        held, peak = tracemalloc.get_traced_memory()
        working[builder.__name__] = peak - held
        peaks.append(peak)
        assert table.rows
        return table

    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        universities = build(university_indicators, counts, institutions, config)
        tables = [
            build(field_summary, universities), build(region_rollup, universities, institutions),
            build(median_share_by_country, universities, config.min_universities_country),
            build(field_profile, universities),
        ]
    finally:
        tracemalloc.stop()
    assert len(tables) == 4
    return max(peaks) - before, working, len(universities.rows)


def test_peak_bytes_per_universities_row_of_the_cell_tables_bounded():
    # The difference of two roster sizes cancels what the build holds whatever its size.
    (small_peak, small_working, small_rows), (large_peak, large_working, large_rows) = (
        _cell_table_footprint(500), _cell_table_footprint(1_000)
    )
    assert (small_rows, large_rows) == (15_000, 30_000)
    per_row = (large_peak - small_peak) / (large_rows - small_rows)
    assert per_row <= MAX_PEAK_BYTES_PER_UNIVERSITIES_ROW, f"{per_row:.0f} B per universities row"
    for name, large in large_working.items():
        per_row = (large - small_working[name]) / (large_rows - small_rows)
        assert per_row <= MAX_WORKING_BYTES_PER_UNIVERSITIES_ROW, f"{name}: {per_row:.1f} B per universities row"
