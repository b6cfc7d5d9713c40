"""Open-access classification and institutional OA indicators."""

__version__ = "0.1.0"

from .classifier import ClassifiedPublication, classified_table, classify, classify_stream
from .gold_models import gold_country_model, resolve_journal_country
from .indicators import (
    count_full,
    field_profile,
    field_summary,
    median_share_by_country,
    overlap_matrix,
    region_rollup,
    universities_table,
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
    IndicatorCell,
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
from .repositories import pmc_overlap_table, repo_share_bounds

__all__ = [
    "ALL_SCIENCES",
    "ANY_OA",
    "MAIN_FIELDS",
    "OA_TYPES",
    "TYPE_ORDER",
    "ClassifiedPublication",
    "IndicatorCell",
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
    "classified_table",
    "classify",
    "classify_stream",
    "count_full",
    "field_profile",
    "field_summary",
    "gold_country_model",
    "median_share_by_country",
    "normalize_doi",
    "normalize_url",
    "overlap_matrix",
    "parse_evidence_stream",
    "parse_publications",
    "parse_registries",
    "pmc_overlap_table",
    "region_rollup",
    "repo_share_bounds",
    "resolve_journal_country",
    "universities_table",
    "university_indicators",
]
