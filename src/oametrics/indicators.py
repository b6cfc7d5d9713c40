"""Full-counting aggregation into indicator tables, medians and overlaps.

Counting is full: a publication contributes once to every distinct
affiliated institution, in each of its fields plus the all-sciences
rollup. Shares stay exact rationals until report emission.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from fractions import Fraction
from functools import cache
from itertools import compress, product, repeat
from math import lcm
from operator import eq, floordiv, itemgetter, le, mul, truediv
from typing import Callable, Iterable, Mapping, Sequence

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


UNIVERSITIES_COLUMNS = ("university", "country", "field", "oa_type", "numerator", "denominator", "share_pct")
#: The (field, oa_type) of each of a university's universities rows, in row order.
_CELL_FIELDS = tuple(field_name for field_name in FIELD_ORDER for _ in TYPE_ORDER)
_CELL_TYPES = TYPE_ORDER * len(FIELD_ORDER)


def university_indicators(counts: Mapping[CountKey, int], institutions: Mapping[str, Institution],
                          config: PipelineConfig) -> Table:
    """The universities table: the roster university x field x type grid with exact shares.

    Every roster university seen in the counts gets a row, with its
    country, for all six fields and five OA buckets; fields the
    university never published in carry a zero denominator (null share).
    An id the roster does not list gets no rows. The denominator follows
    config.denominator_mode. Each share is computed once per distinct
    (numerator, denominator) pair, so equal cells may hold the same
    Fraction. The other cell tables read these rows' numerator and
    denominator, so a table built by hand must hold share == numerator /
    denominator, and None exactly when the denominator is 0.
    """
    denominator_metric = "pubs" if config.denominator_mode == "all_pubs" else "doi_pubs"
    share_of = cache(exact_share)  # one share per distinct (numerator, denominator), for this table
    rows: list[tuple] = []
    for inst_id in sorted(set(map(itemgetter(0), counts)).intersection(institutions)):
        numerators = [*map(counts.get, zip(repeat(inst_id), _CELL_FIELDS, _CELL_TYPES), repeat(0))]
        denominators = [*map(counts.get, zip(repeat(inst_id), _CELL_FIELDS, repeat(denominator_metric)), repeat(0))]
        rows.extend(zip(repeat(inst_id), repeat(institutions[inst_id].country), _CELL_FIELDS, _CELL_TYPES,
                        numerators, denominators, map(share_of, numerators, denominators)))
    return Table("universities", UNIVERSITIES_COLUMNS, tuple(rows))


def _grouped(rows: Sequence[tuple], key: Callable[[tuple], object]) -> defaultdict[object, list[tuple]]:
    """The rows in one list per key(row), each in the rows' order: one pass in C."""
    groups: defaultdict[object, list[tuple]] = defaultdict(list)
    deque(map(list.append, map(groups.__getitem__, map(key, rows)), rows), maxlen=0)
    return groups


def _median(numerators: Sequence[int], denominators: Sequence[int]) -> Fraction:
    """The median of the ratios n / d (at least one, each d > 0): the middle one, or the mean of the middle two.

    They are sorted by their floats, which compare in C, and the order is checked exactly by
    cross-multiplying each adjacent pair; only if distinct ratios share a float does the exact sort run.
    """
    if not denominators:
        raise ValueError("median of no ratios")
    order = sorted(range(len(denominators)), key=[*map(truediv, numerators, denominators)].__getitem__)
    ns, ds = [*map(numerators.__getitem__, order)], [*map(denominators.__getitem__, order)]
    if not all(map(le, map(mul, ns, ds[1:]), map(mul, ns[1:], ds))):
        ns, ds = zip(*sorted(zip(ns, ds), key=lambda pair: Fraction(*pair)))
    mid = len(ns) // 2
    if len(ns) % 2:
        return Fraction(ns[mid], ds[mid])
    return Fraction(ns[mid - 1] * ds[mid] + ns[mid] * ds[mid - 1], 2 * ds[mid - 1] * ds[mid])


def _mean(numerators: Sequence[int], denominators: Sequence[int]) -> Fraction:
    """The mean of the ratios n / d (at least one, each d > 0), over their least common denominator."""
    common = lcm(*set(denominators))
    return Fraction(sum(map(mul, numerators, map(floordiv, repeat(common), denominators))), common * len(denominators))


def _all_sciences_medians(universities: Table, groups_of: Callable[[str, str], Iterable[str]]) -> list[tuple]:
    """(group, oa_type, n_universities, median share) over the all-sciences rows.

    A row's share counts in every group `groups_of(university, country)`
    gives. Null shares are skipped. Rows are sorted by group, then OA
    type in TYPE_ORDER.
    """
    rows = [*compress(universities.rows, map(eq, map(itemgetter(2), universities.rows), repeat(ALL_SCIENCES)))]
    members: dict[tuple[str, int], list[tuple]] = defaultdict(list)
    for row in compress(rows, map(itemgetter(5), rows)):
        for group in groups_of(row[0], row[1]):
            members[(group, TYPE_ORDER.index(row[3]))].append(row)
    return [
        (group, TYPE_ORDER[type_index], len(group_rows), _median(*zip(*map(itemgetter(4, 5), group_rows))))
        for (group, type_index), group_rows in sorted(members.items())
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
    medians = _all_sciences_medians(universities, lambda university, country: (country,))
    return Table("country_medians_full", COUNTRY_MEDIANS_FULL_COLUMNS, tuple(
        (*median, median[2] >= min_universities) for median in medians
    ))


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


PROFILES_COLUMNS = ("university", "field", "oa_type", "share_pct")
_PROFILE_KEYS = tuple(product(MAIN_FIELDS, OA_TYPES))
_PROFILE_FIELDS, _PROFILE_TYPES = zip(*_PROFILE_KEYS)


def field_profile(universities: Table) -> Table:
    """The profiles table: each university's field x type shares (radar plot-data).

    Every university of the universities table gets one row per main
    field and OA type, in declared order; the all-sciences rollup and
    the "any" bucket are left out. A share no row gives is null.
    """
    by_university = _grouped(universities.rows, itemgetter(0))
    rows: list[tuple] = []
    for university, group in sorted(by_university.items()):
        profile = dict(zip(map(itemgetter(2, 3), group), map(itemgetter(6), group)))
        rows.extend(zip(repeat(university), _PROFILE_FIELDS, _PROFILE_TYPES, map(profile.get, _PROFILE_KEYS)))
    return Table("profiles", PROFILES_COLUMNS, tuple(rows))


FIELD_SUMMARY_COLUMNS = ("field", "oa_type", "n_universities", "median_pct", "mean_pct")


def field_summary(universities: Table) -> Table:
    """The field_summary table: median and mean university share per (field, type).

    The statistics are computed from the universities rows' numerator
    and denominator, whose ratio each share is. Medians and means answer
    different questions; the table carries both so the caller decides
    which to quote. Null shares are skipped; a (field, type) with no
    share has null statistics.
    """
    rows = universities.rows
    groups = _grouped([*compress(rows, map(itemgetter(5), rows))], itemgetter(2, 3))
    summary = []
    for key in product(FIELD_ORDER, TYPE_ORDER):
        ns, ds = zip(*map(itemgetter(4, 5), groups[key])) if key in groups else ((), ())
        summary.append((*key, len(ds), _median(ns, ds) if ds else None, _mean(ns, ds) if ds else None))
    return Table("field_summary", FIELD_SUMMARY_COLUMNS, tuple(summary))
