"""Open-access type assignment from per-DOI evidence.

The decision reads the evidence digest for one DOI: a repository copy
makes the publication green; the publisher side resolves to exactly one
of gold (fully-OA journal), hybrid (licensed copy in a toll journal) or
bronze (free-to-read, no license). An OA-journal signal overrides hybrid
and bronze.
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict
from itertools import chain, compress, product, repeat
from operator import attrgetter, contains, is_not, not_
from typing import Iterable, Iterator, Mapping, Sequence

from .models import (
    ALL_SCIENCES,
    MAIN_FIELDS,
    NO_OA,
    Institution,
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


def _matches(urls: Sequence[str], patterns: Iterable[str]) -> bool:
    """True iff some URL contains some non-empty pattern."""
    for pattern in patterns:
        if pattern:
            for url in urls:
                if pattern in url:
                    return True
    return False


def _pmc_flags(urls: Iterable[str], patterns: tuple[str, ...]) -> tuple[bool, bool]:
    """(some repository URL contains a PMC pattern, some other repository URL does not)."""
    via_pmc = [_matches((url,), patterns) for url in urls]
    return any(via_pmc), not all(via_pmc)


_DOI, _IDS, _FIELDS = attrgetter("doi"), attrgetter("institution_ids"), attrgetter("field_ids")
_VENUE = attrgetter("journal_id", "language")


class ClassifiedRows:
    """The classified publications, each in the list of its outcome: the store every table is counted from.

    `add(pub, types, repository_urls)` appends the publication to the list
    of its outcome and, without a roster, reads no URL. With one
    (`institutions`), a green publication's list is also keyed by its URL
    facts (some URL contains the handle pattern, some a PMC pattern, some
    none), and its roster institutions whose own patterns some URL
    contains are counted in `lower`, and in `lower_handle` too if the
    handle pattern matched. With `tally_every`, `add` tallies the lists
    whenever that many publications are pending. `table()`, the classified
    table, sorts each list by pub_id in place and merges them as its rows
    are iterated; pub_ids must be unique. A tally drops the lists, so
    `table()` raises ValueError once any publication has been tallied.
    """

    def __init__(self, institutions: Mapping[str, Institution] | None = None, handle_pattern: str = "",
                 pmc_url_patterns: tuple[str, ...] = (), tally_every: int = 0) -> None:
        self.institutions, self.handle_patterns = institutions, (handle_pattern,)
        self.pmc_url_patterns, self.tally_every = pmc_url_patterns, tally_every or -1
        self.country_of = {inst_id: inst.country for inst_id, inst in (institutions or {}).items()}
        self.pending = self.tally_every  # adds until the next tally; from -1, never 0
        # outcome, or (outcome, handle, via PMC, other repository) for a green publication with a roster
        self.runs: defaultdict[object, list[PublicationRecord]] = defaultdict(list)
        self.lower, self.lower_handle, self.handle, self.sizes, self.gold = (Counter() for _ in range(5))
        self.ids_by_field: defaultdict[tuple[OATypeSet, bool], dict[str, Counter[str]]] = defaultdict(
            lambda: {field_name: Counter() for field_name in (*MAIN_FIELDS, ALL_SCIENCES)}
        )
        self.greens: defaultdict[tuple[OATypeSet, bool, bool], Counter[str | None]] = defaultdict(Counter)

    def add(self, pub: PublicationRecord, types: OATypeSet, repository_urls=()) -> None:
        institutions = self.institutions
        if institutions is None or not types.green:
            self.runs[types].append(pub)
        else:
            handle = _matches(repository_urls, self.handle_patterns)
            for inst_id in pub.institution_ids:
                institution = institutions.get(inst_id)
                if institution is not None and _matches(repository_urls, institution.repo_url_patterns):
                    self.lower[inst_id] += 1
                    self.lower_handle[inst_id] += handle
            self.runs[(types, handle, *_pmc_flags(repository_urls, self.pmc_url_patterns))].append(pub)
        self.pending -= 1
        if not self.pending:
            self.tally()

    def table(self) -> Table:
        if self.sizes:
            raise ValueError(f"no classified table: {sum(self.sizes.values())} publications were already tallied")
        runs = [(key[0] if type(key) is tuple else key, pubs) for key, pubs in self.runs.items()]
        for _, pubs in runs:
            pubs.sort(key=attrgetter("pub_id"))
        return Table("classified", CLASSIFIED_COLUMNS, _MergedRuns(runs))

    def tally(self) -> ClassifiedRows:
        """Count each list in passes in C and drop it; return the store.

        `sizes` counts the publications of each outcome; `ids_by_field`, per
        outcome and DOI presence, the institution ids of those in each main
        field and in the all-sciences rollup. With a roster, `greens` counts
        the green ones once per distinct affiliation country (None off the
        roster) by (outcome, via PMC, other repository), `gold` the gold ones
        as ((journal_id, language), country), and `handle` the institution
        ids of the green ones with a handle URL.
        """
        while self.runs:
            key, pubs = self.runs.popitem()
            types, *facts = key if type(key) is tuple else (key,)
            self.sizes[types] += len(pubs)
            with_doi = list(map(is_not, map(_DOI, pubs), repeat(None)))
            for has_doi, part in (True, compress(pubs, with_doi)), (False, compress(pubs, map(not_, with_doi))):
                if part := list(part):
                    by_field, ids = self.ids_by_field[types, has_doi], list(map(_IDS, part))
                    by_field[ALL_SCIENCES].update(chain.from_iterable(ids))
                    fields = list(map(_FIELDS, part))
                    for name in MAIN_FIELDS:
                        in_field = compress(ids, map(contains, fields, repeat(name)))
                        by_field[name].update(chain.from_iterable(in_field))
            if self.institutions is not None and (types.green or types.gold):
                countries = list(map(frozenset, map(map, repeat(self.country_of.get), map(_IDS, pubs))))
                if types.green:
                    self.greens[(types, *facts[1:])].update(chain.from_iterable(countries))
                    self.handle.update(chain.from_iterable(map(_IDS, pubs)) if facts[0] else ())
                if types.gold:
                    self.gold.update(chain.from_iterable(map(product, zip(map(_VENUE, pubs)), countries)))
        self.pending = self.tally_every
        return self

    def seen_countries(self) -> set[str]:
        """The roster countries of every tallied publication's institutions."""
        ids = {i for by_field in self.tally().ids_by_field.values() for i in by_field[ALL_SCIENCES]}
        return {self.country_of[i] for i in ids if i in self.country_of}


class _MergedRuns:
    """The classified rows of per-outcome runs sorted by pub_id, merged anew on each iteration."""

    def __init__(self, runs: list[tuple[OATypeSet, list[PublicationRecord]]]) -> None:
        self.runs = runs

    def __iter__(self) -> Iterator[tuple]:
        return heapq.merge(*(_rows(pubs, types) for types, pubs in self.runs))


def _rows(pubs: list[PublicationRecord], types: OATypeSet) -> Iterator[tuple]:
    """The classified row of each publication sharing one outcome, built as it is asked for."""
    gold, green, hybrid, bronze, any_oa = types.gold, types.green, types.hybrid, types.bronze, types.any_oa
    for pub in pubs:
        yield pub.pub_id, pub.doi, gold, green, hybrid, bronze, any_oa
