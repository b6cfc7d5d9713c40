"""Core domain types for the open-access indicators pipeline.

Everything downstream (parsing, classification, aggregation, report
emission) passes these values around. All types are immutable after
construction, so they can be shared freely between concurrent workers. All
but OAEvidenceRecord, which the evidence scan checks, validate their own
invariants.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

MAIN_FIELDS = (
    "Biomedical and Health Sciences",
    "Life and Earth Sciences",
    "Mathematics and Computer Science",
    "Physical Sciences & Engineering",
    "Social Sciences and Humanities",
)
#: The five main fields as a set, for membership checks on each row.
MAIN_FIELD_SET = frozenset(MAIN_FIELDS)

#: Rollup bucket spanning the five main fields.
ALL_SCIENCES = "All sciences"

#: Canonical field emission order: the five main fields, then the rollup.
FIELD_ORDER = MAIN_FIELDS + (ALL_SCIENCES,)

OA_TYPES = ("gold", "green", "hybrid", "bronze")

#: Rollup OA bucket: open through any route.
ANY_OA = "any"

#: Canonical OA-type emission order.
TYPE_ORDER = OA_TYPES + (ANY_OA,)

CITABLE_DOC_TYPES = frozenset({"article", "review", "letter"})
APC_STATES = frozenset({"yes", "no", "unknown"})

#: The pattern of one DOI resolver prefix, lowercased.
DOI_RESOLVER_PREFIX = r"(?:doi:|https?://(?:dx\.)?doi\.org/)"

#: A run of DOI resolver prefixes, each with the whitespace after it, or "".
_RESOLVER_PREFIXES = re.compile(rf"(?:{DOI_RESOLVER_PREFIX}\s*)*")


def normalize_doi(raw: str | None) -> str | None:
    """Normalize a DOI string: lowercase, trim, strip resolver prefixes.

    Returns None unless the stripped value reads "10.<registrant>/<suffix>"
    with both parts non-empty, so a failed parse reads as "no DOI".
    Idempotent on every accepted value.
    """
    if raw is None:
        return None
    doi = raw.strip().lower()
    if not doi.startswith("10."):  # no resolver prefix starts with "10."
        doi = doi[_RESOLVER_PREFIXES.match(doi).end():]
    slash = doi.find("/", 3)  # the registrant before it and the suffix after it are non-empty
    return doi if 3 < slash < len(doi) - 1 and doi.startswith("10.") else None


# Leading whitespace, schemes and "www." labels, in any number and order.
_URL_PREFIX = re.compile(r"(?:\s*(?:[a-z][a-z0-9+.-]*://|www\.))*\s*")


def normalize_url(url: str) -> str:
    """Lowercase a URL and strip scheme, leading "www." and trailing slashes.

    Prefixes and trailing slashes are stripped together with the
    whitespace around them until none is left, so the result is a fixed
    point: normalizing it again returns it unchanged.
    """
    out = url.lower()
    out = out[_URL_PREFIX.match(out).end():]
    trimmed = out.rstrip().rstrip("/")
    while trimmed != out:
        out, trimmed = trimmed, trimmed.rstrip().rstrip("/")
    return out


def exact_share(numerator: int, denominator: int) -> Fraction | None:
    """numerator / denominator as an exact Fraction, or None when the denominator is zero."""
    return Fraction(numerator, denominator) if denominator else None


class OAEvidenceRecord(NamedTuple):
    """Per-DOI availability evidence, reduced to what the pipeline reads.

    ``repository_urls`` holds one URL per repository copy, normalized by
    the scan (one that normalizes to "" still evidences a copy).
    ``publisher_copy`` says some publisher copy exists, ``licensed_copy``
    that one carries a non-blank license. The evidence scan checks what a
    record holds; one built by hand stores its fields as given.
    """

    doi: str
    journal_is_oa: bool
    repository_urls: tuple[str, ...] = ()
    publisher_copy: bool = False
    licensed_copy: bool = False


@dataclass(frozen=True, slots=True)
class OATypeSet:
    """Classification outcome for one publication.

    Gold, hybrid and bronze describe publisher-side access and are
    mutually exclusive; green (repository copy) may overlap with any of
    them. ``any_oa`` is derived, never stored.
    """

    gold: bool = False
    green: bool = False
    hybrid: bool = False
    bronze: bool = False

    def __post_init__(self) -> None:
        if self.gold + self.hybrid + self.bronze > 1:
            raise ValueError("gold, hybrid and bronze are mutually exclusive")

    def __hash__(self) -> int:
        # Agrees with __eq__, as equal outcomes have equal flags, and builds
        # no tuple of the flags, as the generated hash does on every call.
        return self.gold + 2 * self.green + 4 * self.hybrid + 8 * self.bronze

    @property
    def any_oa(self) -> bool:
        return self.gold or self.green or self.hybrid or self.bronze

    def has(self, oa_type: str) -> bool:
        """Flag lookup by type name; accepts the four types and "any"."""
        if oa_type == ANY_OA:
            return self.any_oa
        if oa_type not in OA_TYPES:
            raise ValueError(f"unknown OA type: {oa_type!r}")
        return getattr(self, oa_type)


#: Shared all-false outcome for publications with no usable evidence.
NO_OA = OATypeSet()


@dataclass(frozen=True, slots=True)
class PublicationRecord:
    """One citable in-period item: identifiers, venue, affiliations (sorted distinct ids) and fields."""

    pub_id: str
    doi: str | None
    language: str
    journal_id: str
    institution_ids: tuple[str, ...]
    field_ids: frozenset[str]

    def __post_init__(self) -> None:
        ids = self.institution_ids  # a sorted distinct tuple is kept, so an interned one stays shared
        if type(ids) is not tuple or len(ids) > 1 and not all(map(operator.lt, ids, ids[1:])):
            object.__setattr__(self, "institution_ids", tuple(sorted(set(ids))))
        object.__setattr__(self, "field_ids", frozenset(self.field_ids))
        if not self.pub_id:
            raise ValueError("pub_id must be non-empty")
        if not self.field_ids:
            raise ValueError("field_ids must be non-empty")
        unknown = self.field_ids - MAIN_FIELD_SET
        if unknown:
            raise ValueError(f"unknown fields: {sorted(unknown)}")
        if self.doi is not None and normalize_doi(self.doi) != self.doi:
            raise ValueError(f"doi is not normalized: {self.doi!r}")


_set_pub_id, _set_doi, _set_language, _set_journal_id, _set_institution_ids, _set_field_ids = (
    getattr(PublicationRecord, name).__set__
    for name in ("pub_id", "doi", "language", "journal_id", "institution_ids", "field_ids")
)


def _checked_publication(
    pub_id: str, doi: str | None, language: str, journal_id: str,
    institution_ids: tuple[str, ...], field_ids: frozenset[str],
) -> PublicationRecord:
    """A PublicationRecord from values that already pass its checks, without checking them again.

    The caller guarantees what __post_init__ would check or convert: a
    non-empty pub_id, a normalized DOI or None, a sorted tuple of distinct
    ids and a non-empty frozenset of main fields. Only parse_publications,
    which checks each of them per row, calls it. Setting the slots skips
    the frozen dataclass's __init__ and its second normalize_doi.
    """
    pub = object.__new__(PublicationRecord)
    _set_pub_id(pub, pub_id)
    _set_doi(pub, doi)
    _set_language(pub, language)
    _set_journal_id(pub, journal_id)
    _set_institution_ids(pub, institution_ids)
    _set_field_ids(pub, field_ids)
    return pub


@dataclass(frozen=True, slots=True)
class Institution:
    """Roster entry for one university."""

    inst_id: str
    name: str
    country: str
    regions: frozenset[str]
    #: Normalized with normalize_url; patterns that normalize to "" are dropped.
    repo_url_patterns: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "regions", frozenset(self.regions))
        patterns = tuple(p for p in map(normalize_url, self.repo_url_patterns) if p)
        object.__setattr__(self, "repo_url_patterns", patterns)
        if not self.regions:
            raise ValueError("institution must belong to at least one region")


@dataclass(frozen=True, slots=True)
class JournalRecord:
    """Registry entry for one journal.

    ``has_apc`` is tri-state because APC coverage is partial; "unknown"
    is never silently coerced to "no".
    """

    journal_id: str
    country: str | None = None
    is_fully_oa: bool = False
    has_apc: str = "unknown"
    publisher_address: str | None = None

    def __post_init__(self) -> None:
        if self.has_apc not in APC_STATES:
            raise ValueError(f"has_apc must be yes/no/unknown, got {self.has_apc!r}")


@dataclass(frozen=True)
class PipelineConfig:
    """Tunable knobs shared across the pipeline.

    The PMC and handle URL patterns are stored normalized (normalize_url),
    so they match the normalized repository URLs they are compared with.
    """

    min_universities_country: int = 10
    min_universities_gold_model: int = 5
    denominator_mode: str = "all_pubs"
    pmc_url_patterns: tuple[str, ...] = ("ncbi.nlm.nih.gov/pmc",)
    handle_pattern: str = "hdl.handle.net"
    period: tuple[int, int] = (2014, 2017)

    def __post_init__(self) -> None:
        object.__setattr__(self, "pmc_url_patterns", tuple(map(normalize_url, self.pmc_url_patterns)))
        object.__setattr__(self, "handle_pattern", normalize_url(self.handle_pattern))
        object.__setattr__(self, "period", tuple(self.period))
        if self.min_universities_country < 1 or self.min_universities_gold_model < 1:
            raise ValueError("university thresholds must be >= 1")
        if self.denominator_mode not in ("all_pubs", "doi_pubs"):
            raise ValueError(f"unknown denominator_mode: {self.denominator_mode!r}")
        if len(self.period) != 2 or self.period[0] > self.period[1]:
            raise ValueError(f"period must be a non-empty year range, got {self.period!r}")

    def year_in_period(self, year: int) -> bool:
        return self.period[0] <= year <= self.period[1]


@dataclass(frozen=True)
class Table:
    """One report table: a name, a header and canonically ordered rows.

    `rows` is an iterable of row tuples in column order that gives the same
    rows each time it is iterated: a tuple of them, or for `classified` a
    view that builds each row as it is asked for. Every table builder, and
    the `table()` of the store (ClassifiedRows), returns one; a module
    constant names its columns.
    """

    name: str
    columns: tuple[str, ...]
    rows: Iterable[tuple]
