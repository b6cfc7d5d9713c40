"""Institutional-repository matching and PubMed Central accounting.

Matching is normalized-substring containment against repository URLs:
no regexes, no DNS, no liveness checks. The institutional match gives a
lower bound; adding handle-resolver URLs gives an upper bound.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .models import Institution, OALocation, PipelineConfig

# Leading whitespace, schemes and "www." labels, in any number and order.
_PREFIX = re.compile(r"(?:\s*(?:[a-z][a-z0-9+.-]*://|www\.))*\s*")


def normalize_url(url: str) -> str:
    """Lowercase a URL and strip scheme, leading "www." and trailing slashes.

    Prefixes and trailing slashes are stripped together with the
    whitespace around them until none is left, so the result is a fixed
    point: normalizing it again returns it unchanged.
    """
    out = url.lower()
    out = out[_PREFIX.match(out).end():]
    trimmed = out.rstrip().rstrip("/")
    while trimmed != out:
        out, trimmed = trimmed, trimmed.rstrip().rstrip("/")
    return out


@dataclass(frozen=True)
class RepoMatch:
    """Did a publication's repository copies match an institution's URLs?"""

    lower: bool
    upper: bool

    def __post_init__(self) -> None:
        if self.lower and not self.upper:
            raise ValueError("lower-bound match implies upper-bound match")


def match_repository(
    locations: Iterable[OALocation],
    inst: Institution,
    handle_pattern: str,
) -> RepoMatch:
    """Match repository locations against an institution's URL patterns.

    lower: some repository URL contains one of the institution's
    patterns. upper: lower, or some repository URL contains the handle
    resolver pattern. Publisher locations never match.
    """
    lower = False
    handle = False
    for loc in locations:
        if loc.host_type != "repository":
            continue
        url = normalize_url(loc.url)
        if any(pattern and pattern in url for pattern in inst.repo_url_patterns):
            lower = True
        if handle_pattern and handle_pattern in url:
            handle = True
    return RepoMatch(lower=lower, upper=lower or handle)


@dataclass(frozen=True)
class RepoShareRow:
    """Green totals and repository-match bounds for one institution."""

    green_count: int
    matched_lower: int
    matched_upper: int

    def __post_init__(self) -> None:
        if not 0 <= self.matched_lower <= self.matched_upper <= self.green_count:
            raise ValueError("need matched_lower <= matched_upper <= green_count")

    @property
    def share_lower(self) -> Fraction | None:
        if self.green_count == 0:
            return None
        return Fraction(self.matched_lower, self.green_count)

    @property
    def share_upper(self) -> Fraction | None:
        if self.green_count == 0:
            return None
        return Fraction(self.matched_upper, self.green_count)


def repo_share_bounds(classified_pubs, inst: Institution, handle_pattern: str) -> RepoShareRow:
    """Count an institution's green publications matched to its repository.

    Callers pass the classified publications affiliated with `inst`;
    the share interval is null when the institution has no green output.
    """
    green = matched_lower = matched_upper = 0
    for cp in classified_pubs:
        if not cp.types.green:
            continue
        green += 1
        match = match_repository(cp.locations_used, inst, handle_pattern)
        matched_lower += match.lower
        matched_upper += match.upper
    return RepoShareRow(green, matched_lower, matched_upper)


def detect_pmc(locations: Iterable[OALocation], pmc_url_patterns: Iterable[str]) -> bool:
    """True iff some repository location URL contains a PMC pattern."""
    patterns = tuple(pmc_url_patterns)
    for loc in locations:
        if loc.host_type != "repository":
            continue
        url = normalize_url(loc.url)
        if any(pattern and pattern in url for pattern in patterns):
            return True
    return False


@dataclass(frozen=True)
class PMCRow:
    """Per-country accounting of green OA arriving through PMC.

    pct_* columns are shares of the PMC publications that also carry
    the publisher-side flag; they are null when no PMC publication
    exists for the country.
    """

    country: str
    green_count: int
    pmc_count: int
    pmc_only_count: int
    pct_gold: Fraction | None
    pct_bronze: Fraction | None
    pct_hybrid: Fraction | None

    def __post_init__(self) -> None:
        if not 0 <= self.pmc_only_count <= self.pmc_count <= self.green_count:
            raise ValueError("need pmc_only <= pmc <= green")

    @property
    def pmc_share(self) -> Fraction | None:
        if self.green_count == 0:
            return None
        return Fraction(self.pmc_count, self.green_count)


def pmc_overlap_table(
    classified_pubs,
    institutions: Mapping[str, Institution],
    config: PipelineConfig,
) -> list[PMCRow]:
    """Aggregate green/PMC overlap per country of affiliation.

    A publication counts once per distinct affiliated country. Rows are
    sorted by PMC share of green output, descending, ties and
    zero-green countries by country code.
    """
    greens: dict[str, int] = defaultdict(int)
    pmc: dict[str, int] = defaultdict(int)
    pmc_only: dict[str, int] = defaultdict(int)
    flagged = {t: defaultdict(int) for t in ("gold", "bronze", "hybrid")}
    seen_countries: set[str] = set()

    for cp in classified_pubs:
        countries = {
            institutions[i].country
            for i in cp.publication.institution_ids
            if i in institutions
        }
        seen_countries.update(countries)
        if not countries or not cp.types.green:
            continue
        via_pmc = detect_pmc(cp.locations_used, config.pmc_url_patterns)
        has_other_repo = any(
            loc.host_type == "repository"
            and not detect_pmc([loc], config.pmc_url_patterns)
            for loc in cp.locations_used
        )
        for country in countries:
            greens[country] += 1
            if via_pmc:
                pmc[country] += 1
                if not has_other_repo:
                    pmc_only[country] += 1
                for oa_type, counter in flagged.items():
                    if cp.types.has(oa_type):
                        counter[country] += 1

    rows = []
    for country in seen_countries:
        n_pmc = pmc[country]
        pct = {
            t: Fraction(flagged[t][country], n_pmc) if n_pmc else None
            for t in ("gold", "bronze", "hybrid")
        }
        rows.append(
            PMCRow(
                country=country,
                green_count=greens[country],
                pmc_count=n_pmc,
                pmc_only_count=pmc_only[country],
                pct_gold=pct["gold"],
                pct_bronze=pct["bronze"],
                pct_hybrid=pct["hybrid"],
            )
        )
    rows.sort(
        key=lambda r: (
            0 if r.green_count else 1,
            -(r.pmc_share if r.pmc_share is not None else Fraction(0)),
            r.country,
        )
    )
    return rows
