"""Full-counting aggregation into indicator tables, medians and overlaps.

Counting is full: a publication contributes once to every distinct
affiliated institution, in each of its fields plus the all-sciences
rollup. Shares stay exact rationals until report emission.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction
from functools import cache
from itertools import product
from typing import Callable, Iterable, Mapping

from .models import (
    ALL_SCIENCES,
    FIELD_ORDER,
    MAIN_FIELDS,
    OA_TYPES,
    TYPE_ORDER,
    IndicatorCell,
    Institution,
    OATypeSet,
    PipelineConfig,
    PublicationRecord,
    Table,
    exact_share,
)

CountKey = tuple[str, str, str]


@cache
def _count_metrics(types: OATypeSet, has_doi: bool) -> tuple[str, ...]:
    """The metrics a publication adds to: pubs, doi_pubs with a DOI, its OA buckets (16 keys at most)."""
    return ("pubs",) + ("doi_pubs",) * has_doi + tuple(t for t in TYPE_ORDER if types.has(t))


class FullCounts:
    """Tally (institution, field, metric) counts under full counting, in `counts`.

    Duplicate affiliations to one institution count once (affiliations
    are distinct ids); publications with no institutions contribute nothing.
    """

    def __init__(self) -> None:
        self.counts: Counter[CountKey] = Counter()

    def add(self, pub: PublicationRecord, types: OATypeSet, repository_urls=()) -> None:
        metrics = _count_metrics(types, pub.doi is not None)
        self.counts.update(product(pub.institution_ids, (*pub.field_ids, ALL_SCIENCES), metrics))


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


def _all_sciences_medians(
    cells: Iterable[IndicatorCell],
    institutions: Mapping[str, Institution],
    groups_of: Callable[[Institution], Iterable[str]],
) -> list[tuple[str, str, int, Fraction]]:
    """(group, oa_type, n_universities, median share) over the all-sciences cells.

    A cell's share counts in every group `groups_of` gives its
    institution. Null shares and institutions off the roster are skipped.
    Rows are sorted by group, then OA type in TYPE_ORDER.
    """
    shares: dict[tuple[str, int], list[Fraction]] = defaultdict(list)
    for cell in cells:
        if cell.field != ALL_SCIENCES or cell.oa_type not in TYPE_ORDER:
            continue
        share = cell.share
        inst = institutions.get(cell.scope_id)
        if share is None or inst is None:
            continue
        for group in groups_of(inst):
            shares[(group, TYPE_ORDER.index(cell.oa_type))].append(share)
    return [
        (group, TYPE_ORDER[type_index], len(values), median_exact(values))
        for (group, type_index), values in sorted(shares.items())
    ]


COUNTRY_MEDIANS_COLUMNS = ("country", "oa_type", "n_universities", "median_pct")
COUNTRY_MEDIANS_FULL_COLUMNS = COUNTRY_MEDIANS_COLUMNS + ("displayed",)


def median_share_by_country(
    cells: Iterable[IndicatorCell],
    institutions: Mapping[str, Institution],
    min_universities: int,
) -> Table:
    """The country_medians_full table: median university share per country and OA type.

    Medians are over the all-sciences cells; cells with a null share
    are skipped. Countries with fewer contributing universities than
    `min_universities` stay in the table but are flagged as not
    displayed, so display filtering never loses data.
    """
    rows = tuple(
        (country, oa_type, n, median, n >= min_universities)
        for country, oa_type, n, median in _all_sciences_medians(
            cells, institutions, lambda inst: (inst.country,)
        )
    )
    return Table("country_medians_full", COUNTRY_MEDIANS_FULL_COLUMNS, rows)


REGION_MEDIANS_COLUMNS = ("region", "oa_type", "n_universities", "median_pct")


def region_rollup(
    cells: Iterable[IndicatorCell],
    institutions: Mapping[str, Institution],
) -> Table:
    """The region_medians table: the country-median logic rolled up to regions.

    A university contributes its share to every region its country is
    assigned to, so dual-region countries appear in both medians. There
    is no display threshold.
    """
    rows = _all_sciences_medians(cells, institutions, lambda inst: inst.regions)
    return Table("region_medians", REGION_MEDIANS_COLUMNS, tuple(rows))


OVERLAP_COLUMNS = ("metric", "count", "pct")

#: The publisher-side types; each is exclusive of the other two.
_PUBLISHER_SIDE = ("gold", "hybrid", "bronze")


class OverlapTally:
    """The overlap table: distinct-publication OA totals, per-type counts and green overlaps.

    Per-type counts are shares of all OA publications; each green
    overlap is a share of its publisher-side type. The exclusive rows
    split the OA total into the three mutually exclusive publisher-side
    types (each of which may also be green) plus green-only, so their
    counts sum to total_oa.
    """

    def __init__(self) -> None:
        self.outcomes: Counter[OATypeSet] = Counter()

    def add(self, pub: PublicationRecord, types: OATypeSet, repository_urls=()) -> None:
        self.outcomes[types] += 1

    def table(self) -> Table:
        def count(test: Callable[[OATypeSet], bool]) -> int:
            return sum(n for types, n in self.outcomes.items() if test(types))

        total = count(lambda types: types.any_oa)
        per_type = {t: count(lambda types: types.has(t)) for t in OA_TYPES}
        rows = [("total_oa", total, exact_share(total, total))]
        rows += [(t, n, exact_share(n, total)) for t, n in per_type.items()]
        for t in _PUBLISHER_SIDE:
            both = count(lambda types: types.green and types.has(t))
            rows.append((f"green_and_{t}", both, exact_share(both, per_type[t])))
        exclusive = {t: per_type[t] for t in _PUBLISHER_SIDE}
        exclusive["green_only"] = count(
            lambda types: types.green and not any(types.has(t) for t in _PUBLISHER_SIDE)
        )
        rows += [(f"exclusive_{t}", n, exact_share(n, total)) for t, n in exclusive.items()]
        return Table("overlap", OVERLAP_COLUMNS, tuple(rows))


PROFILES_COLUMNS = ("university", "field", "oa_type", "share_pct")


def field_profile(cells: Iterable[IndicatorCell]) -> Table:
    """The profiles table: each university's field x type shares (radar plot-data).

    Every university with a cell gets one row per main field and OA
    type, in declared order; the all-sciences rollup and the "any"
    bucket are left out. A share no cell gives is null.
    """
    shares: dict[str, dict[tuple[str, str], Fraction | None]] = defaultdict(dict)
    for cell in cells:
        profile = shares[cell.scope_id]
        if cell.field in MAIN_FIELDS and cell.oa_type in OA_TYPES:
            profile[(cell.field, cell.oa_type)] = cell.share
    rows = tuple(
        (university, field_name, oa_type, shares[university].get((field_name, oa_type)))
        for university in sorted(shares)
        for field_name in MAIN_FIELDS
        for oa_type in OA_TYPES
    )
    return Table("profiles", PROFILES_COLUMNS, rows)


FIELD_SUMMARY_COLUMNS = ("field", "oa_type", "n_universities", "median_pct", "mean_pct")


def field_summary(cells: Iterable[IndicatorCell]) -> Table:
    """The field_summary table: median and mean university share per (field, type).

    Medians and means answer different questions; the table carries
    both so the caller decides which to quote. Null shares are skipped;
    a (field, type) with no share has null statistics.
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
            rows.append((
                field_name,
                oa_type,
                len(values),
                median_exact(values) if values else None,
                sum(values, Fraction(0)) / len(values) if values else None,
            ))
    return Table("field_summary", FIELD_SUMMARY_COLUMNS, tuple(rows))


UNIVERSITIES_COLUMNS = (
    "university", "country", "field", "oa_type", "numerator", "denominator", "share_pct",
)


def universities_table(
    cells: Iterable[IndicatorCell],
    institutions: Mapping[str, Institution],
) -> Table:
    """The universities table: every indicator cell with its university's country."""
    rows = tuple(
        (
            c.scope_id, institutions[c.scope_id].country, c.field, c.oa_type,
            c.numerator, c.denominator, c.share,
        )
        for c in cells
    )
    return Table("universities", UNIVERSITIES_COLUMNS, rows)
