"""Full-counting aggregation into indicator tables, medians and overlaps.

Counting is full: a publication contributes once to every distinct
affiliated institution, in each of its fields plus the all-sciences
rollup. Shares stay exact rationals until report emission.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .classifier import ClassifiedPublication
from .models import (
    ALL_SCIENCES,
    FIELD_ORDER,
    MAIN_FIELDS,
    OA_TYPES,
    TYPE_ORDER,
    IndicatorCell,
    Institution,
    PipelineConfig,
)

#: Count keys tracked per (institution, field): the two denominators
#: plus one numerator per OA bucket.
COUNT_METRICS = ("pubs", "doi_pubs") + TYPE_ORDER

CountKey = tuple[str, str, str]


def count_full(classified_pubs: Iterable[ClassifiedPublication]) -> Counter[CountKey]:
    """Tally (institution, field, metric) counts under full counting.

    Duplicate affiliations to one institution count once (affiliations
    are a set); publications with no institutions contribute nothing.
    """
    counts: Counter[CountKey] = Counter()
    for cp in classified_pubs:
        pub = cp.publication
        if not pub.institution_ids:
            continue
        metrics = ["pubs"]
        if pub.doi is not None:
            metrics.append("doi_pubs")
        metrics.extend(t for t in TYPE_ORDER if cp.types.has(t))
        fields = tuple(pub.field_ids) + (ALL_SCIENCES,)
        for inst_id in pub.institution_ids:
            for field_name in fields:
                for metric in metrics:
                    counts[(inst_id, field_name, metric)] += 1
    return counts


def university_indicators(
    counts: Mapping[CountKey, int],
    config: PipelineConfig,
) -> list[IndicatorCell]:
    """Expand counts into the full university x field x type cell grid.

    Every university seen in the counts gets a cell for all six fields
    and five OA buckets; fields the university never published in carry
    a zero denominator (null share). The denominator follows
    config.denominator_mode.
    """
    denominator_metric = "pubs" if config.denominator_mode == "all_pubs" else "doi_pubs"
    universities = sorted({inst_id for (inst_id, _, _) in counts})
    cells = []
    for inst_id in universities:
        for field_name in FIELD_ORDER:
            denominator = counts.get((inst_id, field_name, denominator_metric), 0)
            for oa_type in TYPE_ORDER:
                cells.append(
                    IndicatorCell(
                        scope_id=inst_id,
                        field=field_name,
                        oa_type=oa_type,
                        numerator=counts.get((inst_id, field_name, oa_type), 0),
                        denominator=denominator,
                    )
                )
    return cells


def median_exact(values: Iterable[Fraction]) -> Fraction:
    """Median with the middle element (odd) or mean of the middle two (even)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of empty sequence")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return Fraction(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2


def _group_medians(
    cells: Iterable[IndicatorCell],
    institutions: Mapping[str, Institution],
    groups_of: Callable[[Institution], Iterable[str]],
) -> list[tuple[str, int, Fraction]]:
    """(group, n_universities, median share) for each group, sorted by group.

    A cell's share counts in every group `groups_of` gives its
    institution. Null shares and institutions off the roster are skipped.
    """
    shares_by_group: dict[str, list[Fraction]] = defaultdict(list)
    for cell in cells:
        share = cell.share
        if share is None:
            continue
        inst = institutions.get(cell.scope_id)
        if inst is None:
            continue
        for group in groups_of(inst):
            shares_by_group[group].append(share)
    return [
        (group, len(shares), median_exact(shares))
        for group, shares in sorted(shares_by_group.items())
    ]


@dataclass(frozen=True)
class CountryMedianRow:
    """Median university share for one country and one (field, type)."""

    country: str
    n_universities: int
    median: Fraction
    displayed: bool


def median_share_by_country(
    cells: Iterable[IndicatorCell],
    institutions: Mapping[str, Institution],
    min_universities: int,
) -> list[CountryMedianRow]:
    """Group one (field, type) slice of university cells into country medians.

    Callers pass cells for a single field and OA type. Cells with a
    null share are skipped; countries with fewer contributing
    universities than `min_universities` stay in the output but are
    flagged as not displayed, so display filtering never loses data.
    """
    return [
        CountryMedianRow(country, n, median, displayed=n >= min_universities)
        for country, n, median in _group_medians(cells, institutions, lambda i: (i.country,))
    ]


@dataclass(frozen=True)
class RegionMedianRow:
    """Median university share for one region and one (field, type)."""

    region: str
    n_universities: int
    median: Fraction


def region_rollup(
    cells: Iterable[IndicatorCell],
    institutions: Mapping[str, Institution],
) -> list[RegionMedianRow]:
    """Country-median logic rolled up to regions.

    A university contributes its share to every region its country is
    assigned to, so dual-region countries appear in both medians.
    """
    return [
        RegionMedianRow(*row) for row in _group_medians(cells, institutions, lambda i: i.regions)
    ]


@dataclass(frozen=True)
class OverlapMatrix:
    """Distinct-publication OA totals, per-type counts and green overlaps.

    exclusive_partition splits the OA total into green-only plus the
    three mutually exclusive publisher-side types (each of which may
    also be green); the four counts always sum to total_oa.
    """

    total_oa: int
    per_type_count: dict[str, int]
    pairwise_green: dict[str, int]
    exclusive_partition: dict[str, int]

    def __post_init__(self) -> None:
        for oa_type, count in self.per_type_count.items():
            if count > self.total_oa:
                raise ValueError(f"{oa_type} count exceeds total OA")
        green = self.per_type_count.get("green", 0)
        for oa_type, count in self.pairwise_green.items():
            if count > min(green, self.per_type_count.get(oa_type, 0)):
                raise ValueError(f"green overlap with {oa_type} exceeds its marginals")
        if sum(self.exclusive_partition.values()) != self.total_oa:
            raise ValueError("exclusive partition does not sum to total OA")


def overlap_matrix(classified_pubs: Iterable[ClassifiedPublication]) -> OverlapMatrix:
    """Count OA types and their green overlaps over distinct publications."""
    total = 0
    per_type = dict.fromkeys(OA_TYPES, 0)
    pairwise = {t: 0 for t in OA_TYPES if t != "green"}
    exclusive = {"green_only": 0, "gold": 0, "hybrid": 0, "bronze": 0}
    for cp in classified_pubs:
        types = cp.types
        if not types.any_oa:
            continue
        total += 1
        for oa_type in OA_TYPES:
            if types.has(oa_type):
                per_type[oa_type] += 1
        if types.green:
            for oa_type in pairwise:
                if types.has(oa_type):
                    pairwise[oa_type] += 1
        if types.gold:
            exclusive["gold"] += 1
        elif types.hybrid:
            exclusive["hybrid"] += 1
        elif types.bronze:
            exclusive["bronze"] += 1
        else:
            exclusive["green_only"] += 1
    return OverlapMatrix(
        total_oa=total,
        per_type_count=per_type,
        pairwise_green=pairwise,
        exclusive_partition=exclusive,
    )


def field_profile(cells: Iterable[IndicatorCell]) -> dict[str, dict[str, Fraction | None]]:
    """Field x type share table for one university's cells (radar data).

    Rows follow the declared field order; the all-sciences rollup and
    the "any" bucket are left out, matching the per-type profile shape.
    """
    profile: dict[str, dict[str, Fraction | None]] = {
        field_name: {oa_type: None for oa_type in OA_TYPES} for field_name in MAIN_FIELDS
    }
    for cell in cells:
        if cell.field in profile and cell.oa_type in OA_TYPES:
            profile[cell.field][cell.oa_type] = cell.share
    return profile


@dataclass(frozen=True)
class FieldSummaryRow:
    """Distribution summary of university shares for one (field, type)."""

    field: str
    oa_type: str
    n_universities: int
    median: Fraction | None
    mean: Fraction | None


def field_summary(cells: Iterable[IndicatorCell]) -> list[FieldSummaryRow]:
    """Median and mean university share per (field, type), both emitted.

    Medians and means answer different questions; downstream reports
    carry both so the caller decides which to quote.
    """
    shares: dict[tuple[str, str], list[Fraction]] = defaultdict(list)
    for cell in cells:
        share = cell.share
        if share is None:
            continue
        shares[(cell.field, cell.oa_type)].append(share)
    rows = []
    for field_name in FIELD_ORDER:
        for oa_type in TYPE_ORDER:
            values = shares.get((field_name, oa_type), [])
            rows.append(
                FieldSummaryRow(
                    field=field_name,
                    oa_type=oa_type,
                    n_universities=len(values),
                    median=median_exact(values) if values else None,
                    mean=sum(values, Fraction(0)) / len(values) if values else None,
                )
            )
    return rows
