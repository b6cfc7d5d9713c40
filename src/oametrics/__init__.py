"""Open-access classification and institutional OA indicators."""

__version__ = "0.1.0"

from .classifier import ClassifiedRows, classify, classify_stream
from .gold_models import resolve_journal_country
from .indicators import (
    field_profile,
    field_summary,
    median_share_by_country,
    region_rollup,
    university_indicators,
)
from .ingest import (
    IssueSummary,
    ParseIssue,
    ParseStats,
    parse_evidence_stream,
    parse_publications,
    parse_registries,
)
from .models import (
    ALL_SCIENCES,
    ANY_OA,
    MAIN_FIELDS,
    OA_TYPES,
    TYPE_ORDER,
    Institution,
    JournalRecord,
    OAEvidenceRecord,
    OATypeSet,
    PipelineConfig,
    PublicationRecord,
    Table,
    normalize_doi,
    normalize_url,
)

__all__ = [
    "ALL_SCIENCES",
    "ANY_OA",
    "MAIN_FIELDS",
    "OA_TYPES",
    "TYPE_ORDER",
    "ClassifiedRows",
    "Institution",
    "IssueSummary",
    "JournalRecord",
    "OAEvidenceRecord",
    "OATypeSet",
    "ParseIssue",
    "ParseStats",
    "PipelineConfig",
    "PublicationRecord",
    "Table",
    "classify",
    "classify_stream",
    "field_profile",
    "field_summary",
    "median_share_by_country",
    "normalize_doi",
    "normalize_url",
    "parse_evidence_stream",
    "parse_publications",
    "parse_registries",
    "region_rollup",
    "resolve_journal_country",
    "university_indicators",
]
