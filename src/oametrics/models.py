"""Core domain types for the open-access indicators pipeline.

Everything downstream (parsing, classification, aggregation, report
emission) passes these values around. All types are immutable after
construction and validate their own invariants, so they can be shared
freely between concurrent workers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

MAIN_FIELDS = (
    "Biomedical and Health Sciences",
    "Life and Earth Sciences",
    "Mathematics and Computer Science",
    "Physical Sciences & Engineering",
    "Social Sciences and Humanities",
)

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
HOST_TYPES = frozenset({"publisher", "repository"})
APC_STATES = frozenset({"yes", "no", "unknown"})

_RESOLVER_PREFIXES = (
    "doi:",
    "https://doi.org/",
    "http://doi.org/",
    "https://dx.doi.org/",
    "http://dx.doi.org/",
)


def normalize_doi(raw: str | None) -> str | None:
    """Normalize a DOI string: lowercase, trim, strip resolver prefixes.

    Returns None for values that do not start with "10." after
    stripping, so a failed parse reads as "no DOI". Idempotent on every
    accepted value.
    """
    if raw is None:
        return None
    doi = raw.strip().lower()
    if doi.startswith("10."):  # no resolver prefix starts with "10."
        return doi
    stripped = True
    while stripped:
        stripped = False
        for prefix in _RESOLVER_PREFIXES:
            if doi.startswith(prefix):
                doi = doi[len(prefix):].strip()
                stripped = True
    if not doi.startswith("10."):
        return None
    return doi


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


@dataclass(frozen=True, slots=True)
class OALocation:
    """One piece of open-availability evidence: where a copy can be read."""

    host_type: str
    url: str
    license: str | None = None

    def __post_init__(self) -> None:
        if self.host_type not in HOST_TYPES:
            raise ValueError(f"unknown host_type: {self.host_type!r}")
        if not self.url:
            raise ValueError("location url must be non-empty")


@dataclass(frozen=True, slots=True)
class OAEvidenceRecord:
    """Per-DOI availability evidence: journal OA flag plus locations."""

    doi: str
    journal_is_oa: bool
    locations: tuple[OALocation, ...] = ()

    def __post_init__(self) -> None:
        if not self.doi:
            raise ValueError("evidence doi must be non-empty")
        object.__setattr__(self, "locations", tuple(self.locations))


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
    """One citable item: identifiers, venue, affiliations and fields."""

    pub_id: str
    doi: str | None
    year: int
    doc_type: str
    language: str
    journal_id: str
    institution_ids: frozenset[str]
    field_ids: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "institution_ids", frozenset(self.institution_ids))
        object.__setattr__(self, "field_ids", frozenset(self.field_ids))
        if not self.pub_id:
            raise ValueError("pub_id must be non-empty")
        if self.doc_type not in CITABLE_DOC_TYPES:
            raise ValueError(f"doc_type must be citable, got {self.doc_type!r}")
        if not self.field_ids:
            raise ValueError("field_ids must be non-empty")
        unknown = self.field_ids - set(MAIN_FIELDS)
        if unknown:
            raise ValueError(f"unknown fields: {sorted(unknown)}")
        if self.doi is not None and normalize_doi(self.doi) != self.doi:
            raise ValueError(f"doi is not normalized: {self.doi!r}")


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


def roster_countries(pub: PublicationRecord, institutions: Mapping[str, Institution]) -> set[str]:
    """The distinct countries of a publication's affiliations that are on the roster."""
    return {institutions[i].country for i in pub.institution_ids if i in institutions}


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


@dataclass(frozen=True, slots=True)
class IndicatorCell:
    """One aggregation result: university x field x OA type with exact share."""

    scope_id: str
    field: str
    oa_type: str
    numerator: int
    denominator: int

    def __post_init__(self) -> None:
        if not 0 <= self.numerator <= self.denominator:
            raise ValueError(
                f"need 0 <= numerator <= denominator, got "
                f"{self.numerator}/{self.denominator}"
            )

    @property
    def share(self) -> Fraction | None:
        """Exact share, or None when the denominator is zero."""
        return exact_share(self.numerator, self.denominator)


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

    Each row is a tuple in column order. Every table builder returns one,
    next to a module constant that names its columns.
    """

    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
