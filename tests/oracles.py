"""Test-side builders, a table reader and an independent classification oracle.

`records` reads a report table as one column -> value dict per row.

The oracle walks the decision tree over case counts instead of flag
extraction, so it shares no code path with the implementation it checks.
"""

from oametrics.models import OAEvidenceRecord, OALocation, Table


def records(table: Table) -> list[dict]:
    return [dict(zip(table.columns, row)) for row in table.rows]


def repo_loc(url: str = "https://repo.example.org/item/1") -> OALocation:
    return OALocation(host_type="repository", url=url)


def pub_loc(license: str | None = None, url: str = "https://publisher.example.com/a") -> OALocation:
    return OALocation(host_type="publisher", url=url, license=license)


def evidence(doi: str = "10.1/x", journal_is_oa: bool = False, locations=()) -> OAEvidenceRecord:
    return OAEvidenceRecord(doi=doi, journal_is_oa=journal_is_oa, locations=tuple(locations))


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
