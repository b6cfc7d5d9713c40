"""Country-level characterization of gold OA publishing.

Each country's gold output is described by three shares: publications
in national journals, in English, and in journals known to charge an
APC. Journal country falls back to parsing the publisher address when
the registry has no country code.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Iterable, Mapping

from .classifier import ClassifiedPublication
from .models import Institution, JournalRecord, Table, exact_share, roster_countries

#: Constituent countries that resolve to the United Kingdom.
UK_CONSTITUENTS = {
    "ENGLAND": "GB",
    "SCOTLAND": "GB",
    "WALES": "GB",
    "NORTHERN IRELAND": "GB",
    "NORTH IRELAND": "GB",
}

#: Common publisher-address country spellings -> ISO 3166-1 alpha-2.
#: Callers with richer address data can pass their own table.
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


def resolve_journal_country(
    publisher_address: str | None,
    lookup: Mapping[str, str] | None = None,
) -> str | None:
    """Resolve a publisher address to a country code, or None.

    Takes the last comma-separated token, drops words carrying digits
    (postal codes), then matches the longest word suffix against the
    lookup table, case-insensitively. UK constituent countries always
    map to GB.
    """
    if not publisher_address:
        return None
    table = DEFAULT_COUNTRY_LOOKUP if lookup is None else lookup
    token = publisher_address.rsplit(",", 1)[-1].strip().upper()
    words = [w for w in token.split() if not any(ch.isdigit() for ch in w)]
    for start in range(len(words)):
        candidate = " ".join(words[start:])
        if candidate in UK_CONSTITUENTS:
            return UK_CONSTITUENTS[candidate]
        if candidate in table:
            return table[candidate]
    return None


GOLD_MODELS_COLUMNS = (
    "country", "gold_total", "national_share", "apc_share", "english_share", "apc_known",
)
GOLD_MODELS_FULL_COLUMNS = GOLD_MODELS_COLUMNS + ("n_universities", "displayed")


def gold_country_model(
    classified_pubs: Iterable[ClassifiedPublication],
    journals: Mapping[str, JournalRecord],
    institutions: Mapping[str, Institution],
    min_universities: int,
) -> Table:
    """The gold_models_full table: each country's gold OA publishing (full counting).

    A gold publication counts once per distinct affiliated roster
    country. The shares are of the country's gold total and are null
    when it is zero. Journals with unknown country are non-national;
    journals with unknown APC status are non-APC, so apc_share is a
    lower bound. The display threshold counts roster institutions per
    country; rows below it are retained but flagged. Rows are sorted by
    country.
    """
    journal_country: dict[str, str | None] = {}

    def country_of_journal(journal_id: str) -> str | None:
        if journal_id not in journal_country:
            journal = journals.get(journal_id)
            if journal is None:
                journal_country[journal_id] = None
            else:
                journal_country[journal_id] = journal.country or resolve_journal_country(
                    journal.publisher_address
                )
        return journal_country[journal_id]

    gold_total: dict[str, int] = defaultdict(int)
    national: dict[str, int] = defaultdict(int)
    english: dict[str, int] = defaultdict(int)
    apc_yes: dict[str, int] = defaultdict(int)
    apc_known: dict[str, int] = defaultdict(int)
    seen_countries: set[str] = set()

    for cp in classified_pubs:
        countries = roster_countries(cp.publication, institutions)
        seen_countries.update(countries)
        if not countries or not cp.types.gold:
            continue
        pub = cp.publication
        journal = journals.get(pub.journal_id)
        jc = country_of_journal(pub.journal_id)
        is_english = pub.language == "en"
        apc = journal.has_apc if journal is not None else "unknown"
        for country in countries:
            gold_total[country] += 1
            if jc is not None and jc == country:
                national[country] += 1
            if is_english:
                english[country] += 1
            if apc != "unknown":
                apc_known[country] += 1
            if apc == "yes":
                apc_yes[country] += 1

    roster = Counter(inst.country for inst in institutions.values())
    rows = tuple(
        (
            country,
            gold_total[country],
            exact_share(national[country], gold_total[country]),
            exact_share(apc_yes[country], gold_total[country]),
            exact_share(english[country], gold_total[country]),
            apc_known[country],
            roster[country],
            roster[country] >= min_universities,
        )
        for country in sorted(seen_countries)
    )
    return Table("gold_models_full", GOLD_MODELS_FULL_COLUMNS, rows)
