"""Test-side builders, a table reader and an independent classification oracle.

`records` reads a report table as one column -> value dict per row,
`materialized` reads its rows into a tuple, so that tables compare by
value, and `fold` feeds (publication, outcome, repository URLs) items to
a table accumulator, as run_pipeline's one pass does.

`repo_loc` and `pub_loc` build the location objects of an evidence dump
line; `evidence` builds the record the scan reduces such a line to, so
every test that classifies through it also checks that reduction.

The oracle walks the decision tree over case counts instead of flag
extraction, so it shares no code path with the implementation it checks.
"""

import dataclasses
import io
import json

from oametrics.ingest import parse_evidence_stream
from oametrics.models import OAEvidenceRecord, Table


def records(table: Table) -> list[dict]:
    return [dict(zip(table.columns, row)) for row in table.rows]


def materialized(table: Table) -> Table:
    """The table with its rows read into a tuple, so that tables compare by value."""
    return dataclasses.replace(table, rows=tuple(table.rows))


def fold(accumulator, items):
    """Feed every (pub, types, repository_urls) item to ``accumulator.add``; return the accumulator."""
    for item in items:
        accumulator.add(*item)
    return accumulator


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
