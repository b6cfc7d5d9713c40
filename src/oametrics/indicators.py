"""Full-counting aggregation into indicator tables, medians and overlaps.

Counting is full: a publication contributes once to every distinct
affiliated institution, in each of its fields plus the all-sciences
rollup. Shares stay exact rationals until report emission.
"""

from __future__ import annotations

import operator
from collections import Counter, defaultdict
from fractions import Fraction
from functools import cache
from itertools import compress, islice, repeat
from typing import Callable, Iterable, Mapping

from .classifier import ClassifiedRows
from .models import (
    ALL_SCIENCES,
    ANY_OA,
    FIELD_ORDER,
    MAIN_FIELDS,
    OA_TYPES,
    TYPE_ORDER,
    Institution,
    OATypeSet,
    PipelineConfig,
    Table,
    exact_share,
)

CountKey = tuple[str, str, str]


@cache
def _count_metrics(types: OATypeSet, has_doi: bool) -> tuple[str, ...]:
    """The metrics a publication adds to: pubs, doi_pubs with a DOI, its OA buckets (16 keys at most)."""
    return ("pubs",) + ("doi_pubs",) * has_doi + tuple(t for t in TYPE_ORDER if types.has(t))


def count_full(store: ClassifiedRows) -> Counter[CountKey]:
    """The (institution, field, metric) counts of every publication added to `store`, under full counting.

    A publication adds one to each of its metrics (pubs, doi_pubs with a
    DOI, its OA buckets) for each of its distinct institutions, in each
    of its fields and in the all-sciences rollup; one with no
    institutions adds nothing. Each counted group is expanded once.
    """
    groups = [(_count_metrics(*key), by_field) for key, by_field in store.tally().ids_by_field.items()]
    counts: Counter[CountKey] = Counter()
    for field_name in FIELD_ORDER:
        ids = list(set().union(*(by_field[field_name] for _, by_field in groups)))
        columns = [(metrics, [*map(by_field[field_name].get, ids, repeat(0))]) for metrics, by_field in groups]
        for metric in ("pubs", "doi_pubs", *TYPE_ORDER):  # the sum of the columns of the groups with it
            values = list(map(sum, zip(*(column for metrics, column in columns if metric in metrics))))
            dict.update(counts, compress(zip(zip(ids, repeat(field_name), repeat(metric)), values), values))
    return counts


class FullCounts(ClassifiedRows):
    """A store without a roster whose `counts` are count_full's, read afresh each time."""
    counts = property(count_full)


UNIVERSITIES_COLUMNS = (
    "university", "country", "field", "oa_type", "numerator", "denominator", "share_pct",
)


def university_indicators(
    counts: Mapping[CountKey, int],
    institutions: Mapping[str, Institution],
    config: PipelineConfig,
) -> Table:
    """The universities table: the roster university x field x type grid with exact shares.

    Every roster university seen in the counts gets a row, with its
    country, for all six fields and five OA buckets; fields the
    university never published in carry a zero denominator (null share).
    An id the roster does not list gets no rows. The denominator follows
    config.denominator_mode. The other cell tables read these rows.
    """
    denominator_metric = "pubs" if config.denominator_mode == "all_pubs" else "doi_pubs"
    rows = []
    for inst_id in sorted({inst_id for (inst_id, _, _) in counts if inst_id in institutions}):
        country = institutions[inst_id].country
        for field_name in FIELD_ORDER:
            denominator = counts.get((inst_id, field_name, denominator_metric), 0)
            for oa_type in TYPE_ORDER:
                numerator = counts.get((inst_id, field_name, oa_type), 0)
                rows.append((
                    inst_id, country, field_name, oa_type,
                    numerator, denominator, exact_share(numerator, denominator),
                ))
    return Table("universities", UNIVERSITIES_COLUMNS, tuple(rows))


def median_exact(values: Iterable[Fraction]) -> Fraction:
    """Median with the middle element (odd) or mean of the middle two (even).

    The values are sorted by their floats, which compare in C, and the
    order is then checked exactly, one adjacent pair at a time; only when
    distinct values share a float does the exact sort run. Each value
    must be within float's range, as every share is.
    """
    values = list(values)
    ordered = sorted(values, key=float)
    if not all(map(operator.le, ordered, islice(ordered, 1, None))):
        ordered = sorted(values)
    if not ordered:
        raise ValueError("median of empty sequence")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return Fraction(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2


def _all_sciences_medians(
    universities: Table,
    groups_of: Callable[[str, str], Iterable[str]],
) -> list[tuple[str, str, int, Fraction]]:
    """(group, oa_type, n_universities, median share) over the all-sciences rows.

    A row's share counts in every group `groups_of(university, country)`
    gives. Null shares are skipped. Rows are sorted by group, then OA
    type in TYPE_ORDER.
    """
    shares: dict[tuple[str, int], list[Fraction]] = defaultdict(list)
    for university, country, field_name, oa_type, _, _, share in universities.rows:
        if field_name != ALL_SCIENCES or share is None:
            continue
        for group in groups_of(university, country):
            shares[(group, TYPE_ORDER.index(oa_type))].append(share)
    return [
        (group, TYPE_ORDER[type_index], len(values), median_exact(values))
        for (group, type_index), values in sorted(shares.items())
    ]


COUNTRY_MEDIANS_COLUMNS = ("country", "oa_type", "n_universities", "median_pct")
COUNTRY_MEDIANS_FULL_COLUMNS = COUNTRY_MEDIANS_COLUMNS + ("displayed",)


def median_share_by_country(universities: Table, min_universities: int) -> Table:
    """The country_medians_full table: median university share per country and OA type.

    Medians are over the all-sciences rows of the universities table;
    rows with a null share are skipped. Countries with fewer
    contributing universities than `min_universities` stay in the table
    but are flagged as not displayed, so display filtering never loses
    data.
    """
    rows = tuple(
        (country, oa_type, n, median, n >= min_universities)
        for country, oa_type, n, median in _all_sciences_medians(
            universities, lambda university, country: (country,)
        )
    )
    return Table("country_medians_full", COUNTRY_MEDIANS_FULL_COLUMNS, rows)


REGION_MEDIANS_COLUMNS = ("region", "oa_type", "n_universities", "median_pct")


def region_rollup(universities: Table, institutions: Mapping[str, Institution]) -> Table:
    """The region_medians table: the country-median logic rolled up to regions.

    A university of the universities table contributes its share to
    every region the roster assigns it, so dual-region countries appear
    in both medians. There is no display threshold.
    """
    rows = _all_sciences_medians(universities, lambda university, _: institutions[university].regions)
    return Table("region_medians", REGION_MEDIANS_COLUMNS, tuple(rows))


OVERLAP_COLUMNS = ("metric", "count", "pct")

#: The publisher-side types; each is exclusive of the other two.
_PUBLISHER_SIDE = ("gold", "hybrid", "bronze")


def overlap_matrix(store: ClassifiedRows) -> Table:
    """The overlap table: distinct-publication OA totals, per-type counts and green overlaps.

    Per-type counts are shares of all OA publications; each green
    overlap is a share of its publisher-side type. The exclusive rows
    split the OA total into the three mutually exclusive publisher-side
    types (each of which may also be green) plus green-only, so their
    counts sum to total_oa.
    """
    sizes = store.tally().sizes

    def count(*oa_types: str) -> int:
        return sum(n for types, n in sizes.items() if all(map(types.has, oa_types)))

    total, per_type = count(ANY_OA), {t: count(t) for t in OA_TYPES}
    both = {t: count("green", t) for t in _PUBLISHER_SIDE}
    exclusive = {t: per_type[t] for t in _PUBLISHER_SIDE}
    exclusive["green_only"] = per_type["green"] - sum(both.values())
    rows = [("total_oa", total, exact_share(total, total))]
    rows += [(t, n, exact_share(n, total)) for t, n in per_type.items()]
    rows += [(f"green_and_{t}", n, exact_share(n, per_type[t])) for t, n in both.items()]
    rows += [(f"exclusive_{t}", n, exact_share(n, total)) for t, n in exclusive.items()]
    return Table("overlap", OVERLAP_COLUMNS, tuple(rows))


class OverlapTally(ClassifiedRows):
    """A store without a roster whose `table()` is overlap_matrix's."""
    table = overlap_matrix


PROFILES_COLUMNS = ("university", "field", "oa_type", "share_pct")


def field_profile(universities: Table) -> Table:
    """The profiles table: each university's field x type shares (radar plot-data).

    Every university of the universities table gets one row per main
    field and OA type, in declared order; the all-sciences rollup and
    the "any" bucket are left out. A share no row gives is null.
    """
    shares: dict[str, dict[tuple[str, str], Fraction | None]] = defaultdict(dict)
    for university, _, field_name, oa_type, _, _, share in universities.rows:
        profile = shares[university]
        if field_name in MAIN_FIELDS and oa_type in OA_TYPES:
            profile[(field_name, oa_type)] = share
    rows = tuple(
        (university, field_name, oa_type, shares[university].get((field_name, oa_type)))
        for university in sorted(shares)
        for field_name in MAIN_FIELDS
        for oa_type in OA_TYPES
    )
    return Table("profiles", PROFILES_COLUMNS, rows)


FIELD_SUMMARY_COLUMNS = ("field", "oa_type", "n_universities", "median_pct", "mean_pct")


def field_summary(universities: Table) -> Table:
    """The field_summary table: median and mean university share per (field, type).

    The shares are the universities table's. Medians and means answer
    different questions; the table carries both so the caller decides
    which to quote. Null shares are skipped; a (field, type) with no
    share has null statistics.
    """
    shares: dict[tuple[str, str], list[Fraction]] = defaultdict(list)
    for _, _, field_name, oa_type, _, _, share in universities.rows:
        if share is not None:
            shares[(field_name, oa_type)].append(share)
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
