"""Open-access type assignment from per-DOI evidence.

The decision reads the evidence digest for one DOI: a repository copy
makes the publication green; the publisher side resolves to exactly one
of gold (fully-OA journal), hybrid (licensed copy in a toll journal) or
bronze (free-to-read, no license). An OA-journal signal overrides hybrid
and bronze.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from itertools import chain
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Sequence

from .models import (
    NO_OA,
    JournalRecord,
    OAEvidenceRecord,
    OATypeSet,
    PublicationRecord,
    Table,
)

CLASSIFIED_COLUMNS = ("pub_id", "doi", "gold", "green", "hybrid", "bronze", "any_oa")


#: The eight possible outcomes, keyed by (publisher-side type, green) and
#: built once, so every classified publication shares one of them.
_OUTCOMES = {
    (side, green): OATypeSet(green=green, **({side: True} if side else {}))
    for side in (None, "gold", "hybrid", "bronze")
    for green in (False, True)
}
_OUTCOMES[(None, False)] = NO_OA


def classify(
    evidence: OAEvidenceRecord | None,
    journal: JournalRecord | None = None,
) -> OATypeSet:
    """Assign OA types for one publication's evidence.

    Total and pure: no evidence, or evidence with no copy, is not OA. The
    journal registry flag is OR-ed with the dump's own flag, so either
    source alone can establish the fully-OA-journal signal.
    """
    if evidence is None or not (evidence.repository_urls or evidence.publisher_copy):
        return NO_OA
    green = bool(evidence.repository_urls)
    if evidence.journal_is_oa or (journal is not None and journal.is_fully_oa):
        # At least one copy exists, so availability is evidenced.
        return _OUTCOMES[("gold", green)]
    side = "hybrid" if evidence.licensed_copy else "bronze" if evidence.publisher_copy else None
    return _OUTCOMES[(side, green)]


def classify_stream(
    evidence: Iterable[OAEvidenceRecord],
    publications_by_doi: dict[str, PublicationRecord | list[PublicationRecord] | None],
    journals: Mapping[str, JournalRecord] | None = None,
    without_doi: Iterable[PublicationRecord] = (),
) -> Iterator[tuple[PublicationRecord, OATypeSet, tuple[str, ...]]]:
    """Classify every publication exactly once, as (publication, outcome, repository URLs).

    `publications_by_doi` maps each DOI to its publication or a list of
    those sharing it; `evidence` yields records of its DOIs, as
    `parse_evidence_stream(..., keep=publications_by_doi)` does. A record's
    publications are classified, each against its own journal, as it
    arrives; its DOI then maps to None, so a later record classifies
    nothing. Then `without_doi` and the DOIs without a record come out
    all-false with no URLs.
    """
    journals = journals or {}
    for record in evidence:
        for pub in _listed(publications_by_doi[record.doi]):
            yield pub, classify(record, journals.get(pub.journal_id)), record.repository_urls
        publications_by_doi[record.doi] = None
    for pub in chain(without_doi, chain.from_iterable(map(_listed, publications_by_doi.values()))):
        yield pub, classify(None), ()


def _listed(value) -> Sequence[PublicationRecord]:
    """The publications a DOI maps to: one, a list, or none once its record is classified."""
    return () if value is None else value if type(value) is list else (value,)


class ClassifiedRows:
    """The classified table: each publication's OA flags, in pub_id order.

    `add(pub, types, repository_urls)` appends the publication to the list
    of its outcome and ignores the URLs; there are at most eight such
    lists. `table()`, which may be called again, sorts each list by pub_id
    in place and returns a table whose rows merge them as they are
    iterated, so no row outlives its turn. pub_ids must be unique, as
    parse_publications leaves them.
    """

    def __init__(self) -> None:
        self.runs: defaultdict[OATypeSet, list[PublicationRecord]] = defaultdict(list)

    def add(self, pub: PublicationRecord, types: OATypeSet, repository_urls=()) -> None:
        self.runs[types].append(pub)

    def table(self) -> Table:
        for pubs in self.runs.values():
            pubs.sort(key=attrgetter("pub_id"))
        return Table("classified", CLASSIFIED_COLUMNS, _MergedRuns(self.runs))


class _MergedRuns:
    """The classified rows of per-outcome runs sorted by pub_id, merged anew on each iteration."""

    def __init__(self, runs: Mapping[OATypeSet, list[PublicationRecord]]) -> None:
        self.runs = runs

    def __iter__(self) -> Iterator[tuple]:
        return heapq.merge(*(_rows(pubs, types) for types, pubs in self.runs.items()))


def _rows(pubs: list[PublicationRecord], types: OATypeSet) -> Iterator[tuple]:
    """The classified row of each publication sharing one outcome, built as it is asked for."""
    gold, green, hybrid, bronze, any_oa = types.gold, types.green, types.hybrid, types.bronze, types.any_oa
    for pub in pubs:
        yield pub.pub_id, pub.doi, gold, green, hybrid, bronze, any_oa
