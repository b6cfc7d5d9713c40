"""Institutional-repository matching and PubMed Central accounting.

Matching is normalized-substring containment against repository URLs:
no regexes, no DNS, no liveness checks. The institutional match gives a
lower bound; adding handle-resolver URLs gives an upper bound.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping

from .models import (
    Institution,
    OALocation,
    PipelineConfig,
    Table,
    exact_share,
    normalize_url,
    roster_countries,
)

REPO_BOUNDS_COLUMNS = (
    "university", "name", "country", "pubs", "green_pubs",
    "matched_lower", "matched_upper", "pct_repo_lower", "pct_repo_upper",
)
PMC_OVERLAP_COLUMNS = (
    "country", "green_oa", "pmc", "pmc_only", "pct_gold", "pct_bronze", "pct_hybrid",
)

#: Publisher-side types whose share of PMC publications pmc_overlap reports.
_PMC_FLAGGED = ("gold", "bronze", "hybrid")


def _repository_urls(locations: Iterable[OALocation]) -> list[str]:
    """The normalized URL of each repository location; publisher copies never match."""
    return [normalize_url(loc.url) for loc in locations if loc.host_type == "repository"]


def _matches(urls: Iterable[str], patterns: Iterable[str]) -> bool:
    """True iff some URL contains some non-empty pattern."""
    return any(pattern and pattern in url for url in urls for pattern in patterns)


def match_repository(
    locations: Iterable[OALocation],
    inst: Institution,
    handle_pattern: str,
) -> tuple[bool, bool]:
    """Match repository locations against an institution's URL patterns.

    Returns (lower, upper). lower: some repository URL contains one of
    the institution's patterns. upper: lower, or some repository URL
    contains the (normalized) handle resolver pattern. Publisher
    locations never match.
    """
    urls = _repository_urls(locations)
    lower = _matches(urls, inst.repo_url_patterns)
    return lower, lower or _matches(urls, (handle_pattern,))


def repo_share_bounds(
    classified_pubs,
    institutions: Mapping[str, Institution],
    handle_pattern: str,
) -> Table:
    """The repo_bounds table: each roster institution's green output held in its repository.

    One pass over the classified publications counts, for every roster
    institution with at least one publication, its publications, its
    green publications and the green ones matched to its repository
    (lower: its own URL patterns; upper: also the handle pattern). Each
    green publication's repository URLs are normalized once, whatever
    its number of affiliations. The share interval is null for an
    institution with no green output. Rows are sorted by institution id.
    """
    pubs: Counter[str] = Counter()
    green: Counter[str] = Counter()
    lower: Counter[str] = Counter()
    upper: Counter[str] = Counter()
    for cp in classified_pubs:
        inst_ids = [i for i in cp.publication.institution_ids if i in institutions]
        pubs.update(inst_ids)
        if not inst_ids or not cp.types.green:
            continue
        urls = _repository_urls(cp.locations_used)
        handle = _matches(urls, (handle_pattern,))
        for inst_id in inst_ids:
            matched = _matches(urls, institutions[inst_id].repo_url_patterns)
            green[inst_id] += 1
            lower[inst_id] += matched
            upper[inst_id] += matched or handle
    rows = []
    for inst_id in sorted(pubs):
        inst = institutions[inst_id]
        rows.append((
            inst_id, inst.name, inst.country, pubs[inst_id], green[inst_id],
            lower[inst_id], upper[inst_id],
            exact_share(lower[inst_id], green[inst_id]), exact_share(upper[inst_id], green[inst_id]),
        ))
    return Table("repo_bounds", REPO_BOUNDS_COLUMNS, tuple(rows))


def _pmc_flags(locations: Iterable[OALocation], patterns: tuple[str, ...]) -> tuple[bool, bool]:
    """(some repository URL contains a PMC pattern, some other repository URL does not)."""
    via_pmc = other_repo = False
    for url in _repository_urls(locations):
        if _matches((url,), patterns):
            via_pmc = True
        else:
            other_repo = True
    return via_pmc, other_repo


def pmc_overlap_table(
    classified_pubs,
    institutions: Mapping[str, Institution],
    config: PipelineConfig,
) -> Table:
    """The pmc_overlap table: green/PMC overlap per country of affiliation.

    A publication counts once per distinct affiliated roster country.
    pct_* columns are shares of the PMC publications that also carry
    the publisher-side flag; they are null when the country has no PMC
    publication. Rows are sorted by PMC share of green output,
    descending, ties and zero-green countries by country code.
    """
    greens: Counter[str] = Counter()
    pmc: Counter[str] = Counter()
    pmc_only: Counter[str] = Counter()
    flagged = {t: Counter() for t in _PMC_FLAGGED}
    seen_countries: set[str] = set()

    for cp in classified_pubs:
        countries = roster_countries(cp.publication, institutions)
        seen_countries.update(countries)
        if not countries or not cp.types.green:
            continue
        greens.update(countries)
        via_pmc, has_other_repo = _pmc_flags(cp.locations_used, config.pmc_url_patterns)
        if not via_pmc:
            continue
        pmc.update(countries)
        if not has_other_repo:
            pmc_only.update(countries)
        for oa_type, counter in flagged.items():
            if cp.types.has(oa_type):
                counter.update(countries)

    def order(country: str):
        share = exact_share(pmc[country], greens[country])
        return (0 if greens[country] else 1, -(share or 0), country)

    rows = tuple(
        (
            country, greens[country], pmc[country], pmc_only[country],
            *(exact_share(flagged[t][country], pmc[country]) for t in _PMC_FLAGGED),
        )
        for country in sorted(seen_countries, key=order)
    )
    return Table("pmc_overlap", PMC_OVERLAP_COLUMNS, rows)
