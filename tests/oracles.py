"""Test-side builders, a table reader and an independent classification oracle.

`records` reads a report table as one column -> value dict per row,
`materialized` reads its rows into a tuple, so that tables compare by
value, and `fold` feeds (publication, outcome, repository URLs) items to
a `ClassifiedRows` store, as run_pipeline's one pass does.

`repo_loc` and `pub_loc` build the location objects of an evidence dump
line; `evidence` builds the record the scan reduces such a line to, so
every test that classifies through it also checks that reduction.

The oracle walks the decision tree over case counts instead of flag
extraction, so it shares no code path with the implementation it checks.
`cell_tables_oracle` builds the universities table and the four tables
read from it by brute force, on `Fraction` sums and `statistics.median`.
"""

import dataclasses
import io
import json
import statistics
from fractions import Fraction

from oametrics.ingest import parse_evidence_stream
from oametrics.models import ALL_SCIENCES, MAIN_FIELDS, OA_TYPES, OAEvidenceRecord, Table


def records(table: Table) -> list[dict]:
    return [dict(zip(table.columns, row)) for row in table.rows]


def materialized(table: Table) -> Table:
    """The table with its rows read into a tuple, so that tables compare by value."""
    return dataclasses.replace(table, rows=tuple(table.rows))


def fold(store, items):
    """Feed every (pub, types, repository_urls) item to ``store.add``; return the store."""
    for item in items:
        store.add(*item)
    return store


def repo_loc(url: str = "https://repo.example.org/item/1") -> dict:
    return {"host_type": "repository", "url": url}


def pub_loc(license: str | None = None, url: str = "https://publisher.example.com/a") -> dict:
    return {"host_type": "publisher", "url": url, "license": license}


def evidence(doi: str = "10.1/x", journal_is_oa: bool = False, locations=()) -> OAEvidenceRecord:
    """The one record parse_evidence_stream yields, with no issue, for this dump line."""
    line = json.dumps({"doi": doi, "journal_is_oa": journal_is_oa, "oa_locations": list(locations)})
    issues = []
    (record,) = parse_evidence_stream(io.BytesIO(line.encode("utf-8")), on_issue=issues.append)
    assert issues == [], issues
    return record


def classify_oracle(
    journal_is_oa: bool,
    publisher_licensed: tuple[bool, ...],
    n_repo: int,
) -> tuple[bool, bool, bool, bool]:
    """Expected (gold, green, hybrid, bronze) for one evidence shape."""
    if len(publisher_licensed) + n_repo == 0:
        return (False, False, False, False)
    green = n_repo > 0
    if journal_is_oa:
        return (True, green, False, False)
    if len(publisher_licensed) == 0:
        return (False, green, False, False)
    if True in publisher_licensed:
        return (False, green, True, False)
    return (False, green, False, True)


CELL_FIELDS = MAIN_FIELDS + (ALL_SCIENCES,)
CELL_TYPES = OA_TYPES + ("any",)


def cell_tables_oracle(counts, institutions, config) -> dict[str, list[tuple]]:
    """The rows of universities, field_summary, country_medians_full, region_medians and profiles.

    Built cell by cell from `counts` with Fraction arithmetic: a share is
    numerator / denominator, or None over a zero denominator; a mean is
    the Fraction sum over the count of shares; a median is
    statistics.median's.
    """
    metric = "pubs" if config.denominator_mode == "all_pubs" else "doi_pubs"
    universities = []
    for inst_id in sorted({key[0] for key in counts if key[0] in institutions}):
        for field_name in CELL_FIELDS:
            denominator = counts.get((inst_id, field_name, metric), 0)
            for oa_type in CELL_TYPES:
                numerator = counts.get((inst_id, field_name, oa_type), 0)
                share = Fraction(numerator, denominator) if denominator else None
                universities.append((inst_id, institutions[inst_id].country, field_name, oa_type,
                                     numerator, denominator, share))

    def shares(field_name, oa_type, in_group=lambda row: True):
        return [row[6] for row in universities
                if row[2] == field_name and row[3] == oa_type and row[6] is not None and in_group(row)]

    summary = []
    for field_name in CELL_FIELDS:
        for oa_type in CELL_TYPES:
            values = shares(field_name, oa_type)
            summary.append((field_name, oa_type, len(values),
                            statistics.median(values) if values else None,
                            sum(values, Fraction(0)) / len(values) if values else None))

    def medians(group_of):
        groups = sorted({group for row in universities for group in group_of(row)})
        rows = []
        for group in groups:
            for oa_type in CELL_TYPES:
                values = shares(ALL_SCIENCES, oa_type, lambda row: group in group_of(row))
                if values:
                    rows.append((group, oa_type, len(values), statistics.median(values)))
        return rows

    country_medians = [row + (row[2] >= config.min_universities_country,) for row in medians(lambda row: (row[1],))]
    region_medians = medians(lambda row: institutions[row[0]].regions)
    by_cell = {(row[0], row[2], row[3]): row[6] for row in universities}
    profiles = [(inst_id, field_name, oa_type, by_cell[(inst_id, field_name, oa_type)])
                for inst_id in sorted({row[0] for row in universities})
                for field_name in MAIN_FIELDS for oa_type in OA_TYPES]
    return {"universities": universities, "field_summary": summary, "country_medians_full": country_medians,
            "region_medians": region_medians, "profiles": profiles}
