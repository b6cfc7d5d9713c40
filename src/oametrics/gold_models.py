"""Country-level characterization of gold OA publishing.

Each country's gold output is described by three shares: publications
in national journals, in English, and in journals known to charge an
APC. Journal country falls back to parsing the publisher address when
the registry has no country code.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping

from .classifier import ClassifiedRows
from .models import JournalRecord, Table, exact_share

#: Constituent countries that resolve to the United Kingdom.
UK_CONSTITUENTS = {
    "ENGLAND": "GB",
    "SCOTLAND": "GB",
    "WALES": "GB",
    "NORTHERN IRELAND": "GB",
    "NORTH IRELAND": "GB",
}

#: Common publisher-address country spellings -> ISO 3166-1 alpha-2.
DEFAULT_COUNTRY_LOOKUP = {
    "ARGENTINA": "AR",
    "AUSTRALIA": "AU",
    "AUSTRIA": "AT",
    "BELGIUM": "BE",
    "BRAZIL": "BR",
    "CANADA": "CA",
    "CHILE": "CL",
    "CHINA": "CN",
    "COLOMBIA": "CO",
    "CROATIA": "HR",
    "CZECH REPUBLIC": "CZ",
    "DENMARK": "DK",
    "EGYPT": "EG",
    "ESTONIA": "EE",
    "FINLAND": "FI",
    "FRANCE": "FR",
    "GERMANY": "DE",
    "GREECE": "GR",
    "HUNGARY": "HU",
    "INDIA": "IN",
    "IRAN": "IR",
    "IRELAND": "IE",
    "ISRAEL": "IL",
    "ITALY": "IT",
    "JAPAN": "JP",
    "LEBANON": "LB",
    "LITHUANIA": "LT",
    "MALAYSIA": "MY",
    "MEXICO": "MX",
    "NETHERLANDS": "NL",
    "NEW ZEALAND": "NZ",
    "NORWAY": "NO",
    "PAKISTAN": "PK",
    "PEOPLES R CHINA": "CN",
    "POLAND": "PL",
    "PORTUGAL": "PT",
    "ROMANIA": "RO",
    "RUSSIA": "RU",
    "SAUDI ARABIA": "SA",
    "SERBIA": "RS",
    "SINGAPORE": "SG",
    "SLOVAKIA": "SK",
    "SLOVENIA": "SI",
    "SOUTH AFRICA": "ZA",
    "SOUTH KOREA": "KR",
    "SPAIN": "ES",
    "SWEDEN": "SE",
    "SWITZERLAND": "CH",
    "TAIWAN": "TW",
    "THAILAND": "TH",
    "TURKEY": "TR",
    "U ARAB EMIRATES": "AE",
    "UK": "GB",
    "UKRAINE": "UA",
    "UNITED KINGDOM": "GB",
    "UNITED STATES": "US",
    "USA": "US",
}
DEFAULT_COUNTRY_LOOKUP.update(UK_CONSTITUENTS)


def resolve_journal_country(publisher_address: str | None) -> str | None:
    """Resolve a publisher address to a country code, or None.

    Takes the last comma-separated token, drops words carrying digits
    (postal codes), then matches the longest word suffix against
    DEFAULT_COUNTRY_LOOKUP, case-insensitively. UK constituent countries
    map to GB.
    """
    if not publisher_address:
        return None
    token = publisher_address.rsplit(",", 1)[-1].strip().upper()
    words = [w for w in token.split() if not any(ch.isdigit() for ch in w)]
    for start in range(len(words)):
        candidate = " ".join(words[start:])
        if candidate in DEFAULT_COUNTRY_LOOKUP:
            return DEFAULT_COUNTRY_LOOKUP[candidate]
    return None


GOLD_MODELS_COLUMNS = (
    "country", "gold_total", "national_share", "apc_share", "english_share", "apc_known",
)
GOLD_MODELS_FULL_COLUMNS = GOLD_MODELS_COLUMNS + ("n_universities", "displayed")


def gold_country_model(
    store: ClassifiedRows, journals: Mapping[str, JournalRecord], min_universities: int,
) -> Table:
    """The gold_models_full table: each country's gold OA publishing (full counting).

    A gold publication added to `store` (which has the roster) counts
    once per distinct affiliated roster country. The shares are of the
    country's gold total and are null when it is zero. Journals with
    unknown country are non-national; journals with unknown APC status
    are non-APC, so apc_share is a lower bound. The display threshold
    counts roster institutions per country; rows below it are retained
    but flagged. Rows are sorted by country.
    """
    total, national, english, apc_yes, apc_known = Counter(), Counter(), Counter(), Counter(), Counter()
    journal_country: dict[str, str | None] = {}
    for ((journal_id, language), country), n in store.tally().gold.items():
        if country is None:
            continue
        journal = journals.get(journal_id)
        if journal_id not in journal_country:
            journal_country[journal_id] = None if journal is None else (
                journal.country or resolve_journal_country(journal.publisher_address)
            )
        apc = journal.has_apc if journal is not None else "unknown"
        total[country] += n
        national[country] += n if journal_country[journal_id] == country else 0
        english[country] += n if language == "en" else 0
        apc_known[country] += n if apc != "unknown" else 0
        apc_yes[country] += n if apc == "yes" else 0
    roster = Counter(inst.country for inst in store.institutions.values())
    rows = tuple(
        (
            c, total[c], exact_share(national[c], total[c]), exact_share(apc_yes[c], total[c]),
            exact_share(english[c], total[c]), apc_known[c], roster[c], roster[c] >= min_universities,
        )
        for c in sorted(store.seen_countries())
    )
    return Table("gold_models_full", GOLD_MODELS_FULL_COLUMNS, rows)
