"""Open-access type assignment from per-DOI evidence.

The decision works over the evidence locations for one DOI: a
repository copy anywhere makes the publication green; the publisher
side resolves to exactly one of gold (fully-OA journal), hybrid
(licensed copy in a toll journal) or bronze (free-to-read, no license).
An OA-journal signal overrides hybrid and bronze.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .models import (
    NO_OA,
    JournalRecord,
    OAEvidenceRecord,
    OALocation,
    OATypeSet,
    PublicationRecord,
    Table,
)

CLASSIFIED_COLUMNS = ("pub_id", "doi", "gold", "green", "hybrid", "bronze", "any_oa")


@dataclass(frozen=True, slots=True)
class ClassifiedPublication:
    """A publication together with its OA outcome and the evidence used."""

    publication: PublicationRecord
    types: OATypeSet
    locations_used: tuple[OALocation, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "locations_used", tuple(self.locations_used))
        if self.publication.doi is None and self.types.any_oa:
            raise ValueError("a publication without a DOI cannot be OA")


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

    Total and pure: no evidence, or evidence with no locations, is not
    OA. The journal registry flag is OR-ed with the dump's own flag, so
    either source alone can establish the fully-OA-journal signal. The
    result never depends on location order.
    """
    if evidence is None or not evidence.locations:
        return NO_OA

    green = any(loc.host_type == "repository" for loc in evidence.locations)
    is_oa_journal = evidence.journal_is_oa or (journal is not None and journal.is_fully_oa)
    if is_oa_journal:
        # At least one location exists, so availability is evidenced.
        return _OUTCOMES[("gold", green)]

    publisher_locations = [loc for loc in evidence.locations if loc.host_type == "publisher"]
    licensed = any(loc.license and loc.license.strip() for loc in publisher_locations)
    if licensed:
        return _OUTCOMES[("hybrid", green)]
    if publisher_locations:
        return _OUTCOMES[("bronze", green)]
    return _OUTCOMES[(None, green)]


def classify_stream(
    publications: Iterable[PublicationRecord],
    evidence_by_doi: Mapping[str, OAEvidenceRecord],
    journals: Mapping[str, JournalRecord] | None = None,
) -> Iterator[ClassifiedPublication]:
    """Classify every publication exactly once.

    Publications without a DOI, or whose DOI has no evidence record,
    come out all-false. Evidence must be keyed by normalized DOI.
    """
    journals = journals or {}
    for pub in publications:
        evidence = evidence_by_doi.get(pub.doi) if pub.doi is not None else None
        types = classify(evidence, journals.get(pub.journal_id))
        locations = evidence.locations if evidence is not None else ()
        yield ClassifiedPublication(publication=pub, types=types, locations_used=locations)


def classified_table(classified: Iterable[ClassifiedPublication]) -> Table:
    """The classified table: each publication's OA flags, sorted by pub_id."""
    rows = sorted(
        (
            cp.publication.pub_id, cp.publication.doi, cp.types.gold, cp.types.green,
            cp.types.hybrid, cp.types.bronze, cp.types.any_oa,
        )
        for cp in classified
    )
    return Table("classified", CLASSIFIED_COLUMNS, tuple(rows))
