"""Institutional-repository matching and PubMed Central accounting.

Matching is normalized-substring containment against repository URLs:
no regexes, no DNS, no liveness checks. The institutional match gives a
lower bound; adding handle-resolver URLs gives an upper bound.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping, Sequence

from .models import Institution, PipelineConfig, Table, exact_share
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


def _matches(urls: Sequence[str], patterns: Iterable[str]) -> bool:
    """True iff some URL contains some non-empty pattern."""
    for pattern in patterns:
        if pattern:
            for url in urls:
                if pattern in url:
                    return True
    return False


class RepoBounds:
    """The repo_bounds table: each roster institution's green output held in its repository.

    One pass over the classified publications counts, for every roster
    institution with at least one publication, its publications, its
    green publications and the green ones matched to its repository:
    lower, some repository URL contains one of its own URL patterns;
    upper, lower or some repository URL contains the handle pattern.
    Publisher copies never match. The share interval is null for an
    institution with no green output. Rows are sorted by institution id.
    """

    def __init__(self, institutions: Mapping[str, Institution], handle_pattern: str) -> None:
        self.institutions, self.handle_pattern = institutions, handle_pattern
        self.pubs, self.green, self.lower, self.upper = Counter(), Counter(), Counter(), Counter()

    def add(self, pub, types, repository_urls) -> None:
        institutions, handle = self.institutions, None
        for inst_id in pub.institution_ids:
            institution = institutions.get(inst_id)
            if institution is None:
                continue
            self.pubs[inst_id] += 1
            if not types.green:
                continue
            if handle is None:
                handle = _matches(repository_urls, (self.handle_pattern,))
            matched = _matches(repository_urls, institution.repo_url_patterns)
            self.green[inst_id] += 1
            self.lower[inst_id] += matched
            self.upper[inst_id] += matched or handle

    def table(self) -> Table:
        pubs, green, lower, upper = self.pubs, self.green, self.lower, self.upper
        rows = tuple(
            (
                i, self.institutions[i].name, self.institutions[i].country, pubs[i], green[i], lower[i],
                upper[i], exact_share(lower[i], green[i]), exact_share(upper[i], green[i]),
            )
            for i in sorted(pubs)
        )
        return Table("repo_bounds", REPO_BOUNDS_COLUMNS, rows)


def _pmc_flags(urls: Iterable[str], patterns: tuple[str, ...]) -> tuple[bool, bool]:
    """(some repository URL contains a PMC pattern, some other repository URL does not)."""
    via_pmc = other_repo = False
    for url in urls:
        if _matches((url,), patterns):
            via_pmc = True
        else:
            other_repo = True
    return via_pmc, other_repo


class PmcOverlap:
    """The pmc_overlap table: green/PMC overlap per country of affiliation.

    A publication counts once per distinct affiliated roster country.
    pct_* columns are shares of the PMC publications that also carry
    the publisher-side flag; they are null when the country has no PMC
    publication. Rows are sorted by PMC share of green output,
    descending, ties and zero-green countries by country code.
    """

    def __init__(self, institutions: Mapping[str, Institution], config: PipelineConfig) -> None:
        self.institutions, self.pmc_url_patterns = institutions, config.pmc_url_patterns
        self.greens, self.pmc, self.pmc_only = Counter(), Counter(), Counter()
        self.flagged = {t: Counter() for t in _PMC_FLAGGED}
        self.seen_countries: set[str] = set()

    def add(self, pub, types, repository_urls) -> None:
        countries = set()
        for inst_id in pub.institution_ids:
            institution = self.institutions.get(inst_id)
            if institution is not None:
                countries.add(institution.country)
        self.seen_countries.update(countries)
        if not countries or not types.green:
            return
        for country in countries:
            self.greens[country] += 1
        via_pmc, has_other_repo = _pmc_flags(repository_urls, self.pmc_url_patterns)
        if not via_pmc:
            return
        flagged = [counter for oa_type, counter in self.flagged.items() if getattr(types, oa_type)]
        for country in countries:
            self.pmc[country] += 1
            self.pmc_only[country] += not has_other_repo
            for counter in flagged:
                counter[country] += 1

    def table(self) -> Table:
        greens, pmc = self.greens, self.pmc

        def order(country: str):
            share = exact_share(pmc[country], greens[country])
            return (0 if greens[country] else 1, -(share or 0), country)

        rows = tuple(
            (
                country, greens[country], pmc[country], self.pmc_only[country],
                *(exact_share(self.flagged[t][country], pmc[country]) for t in _PMC_FLAGGED),
            )
            for country in sorted(self.seen_countries, key=order)
        )
        return Table("pmc_overlap", PMC_OVERLAP_COLUMNS, rows)
