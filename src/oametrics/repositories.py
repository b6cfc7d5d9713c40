"""Institutional-repository matching and PubMed Central accounting.

Matching is normalized-substring containment against repository URLs
(classifier._matches, run once per green publication as the store takes
it): no regexes, no DNS, no liveness checks. The institutional match
gives a lower bound; adding handle-resolver URLs gives an upper bound.
"""

from __future__ import annotations

from collections import Counter

from .classifier import ClassifiedRows
from .models import ALL_SCIENCES, Table, exact_share
from .models import normalize_url  # noqa: F401  (unused here; perfbench traces repositories.normalize_url)

REPO_BOUNDS_COLUMNS = (
    "university", "name", "country", "pubs", "green_pubs",
    "matched_lower", "matched_upper", "pct_repo_lower", "pct_repo_upper",
)
PMC_OVERLAP_COLUMNS = (
    "country", "green_oa", "pmc", "pmc_only", "pct_gold", "pct_bronze", "pct_hybrid",
)

#: Publisher-side types whose share of PMC publications pmc_overlap reports.
_PMC_FLAGGED = ("gold", "bronze", "hybrid")


def repo_share_bounds(store: ClassifiedRows) -> Table:
    """The repo_bounds table: each roster institution's green output held in its repository.

    For every roster institution with at least one publication added to
    `store` (which has the roster), it counts its publications, its
    green publications and the green ones matched to its repository:
    lower, some repository URL contains one of its own URL patterns;
    upper, lower or some repository URL contains the handle pattern.
    Publisher copies never match. The share interval is null for an
    institution with no green output. Rows are sorted by institution id.
    """
    institutions, pubs, green = store.institutions, Counter(), Counter()
    for (types, _), by_field in store.tally().ids_by_field.items():
        pubs.update(by_field[ALL_SCIENCES])
        if types.green:
            green.update(by_field[ALL_SCIENCES])
    lower, upper = store.lower, store.handle + store.lower - store.lower_handle
    rows = tuple(
        (
            i, institutions[i].name, institutions[i].country, pubs[i], green[i], lower[i],
            upper[i], exact_share(lower[i], green[i]), exact_share(upper[i], green[i]),
        )
        for i in sorted(pubs) if i in institutions
    )
    return Table("repo_bounds", REPO_BOUNDS_COLUMNS, rows)


def pmc_overlap_table(store: ClassifiedRows) -> Table:
    """The pmc_overlap table: green/PMC overlap per country of affiliation.

    A publication added to `store` (which has the roster) counts once per
    distinct affiliated roster country. pct_* columns are shares of the
    PMC publications that also carry the publisher-side flag; they are
    null when the country has no PMC publication. Rows are sorted by PMC
    share of green output, descending, ties and zero-green countries by
    country code.
    """
    greens, pmc, pmc_only = Counter(), Counter(), Counter()
    flagged = {t: Counter() for t in _PMC_FLAGGED}
    for (types, via_pmc, other_repo), by_country in store.tally().greens.items():
        countries = {country: n for country, n in by_country.items() if country is not None}
        greens.update(countries)
        if via_pmc:
            pmc.update(countries)
            pmc_only.update({} if other_repo else countries)
            for oa_type, counter in flagged.items():
                counter.update(countries if getattr(types, oa_type) else {})

    def order(country: str):
        share = exact_share(pmc[country], greens[country])
        return (0 if greens[country] else 1, -(share or 0), country)

    rows = tuple(
        (
            country, greens[country], pmc[country], pmc_only[country],
            *(exact_share(flagged[t][country], pmc[country]) for t in _PMC_FLAGGED),
        )
        for country in sorted(store.seen_countries(), key=order)
    )
    return Table("pmc_overlap", PMC_OVERLAP_COLUMNS, rows)
