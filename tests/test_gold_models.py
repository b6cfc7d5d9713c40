import random
from fractions import Fraction

import pytest

from oracles import records

from oametrics.classifier import ClassifiedPublication
from oametrics.gold_models import (
    DEFAULT_COUNTRY_LOOKUP,
    gold_country_model,
    resolve_journal_country,
)
from oametrics.models import (
    MAIN_FIELDS,
    Institution,
    JournalRecord,
    OATypeSet,
    PublicationRecord,
)

BIO = MAIN_FIELDS[0]


def test_resolve_us_address_with_postal_code():
    assert resolve_journal_country("NEW YORK, NY 10013 USA") == "US"


def test_resolve_uk_constituent():
    assert resolve_journal_country("LONDON, ENGLAND") == "GB"


def test_resolve_unknown_place():
    assert resolve_journal_country("UNKNOWN PLACE") is None


@pytest.mark.parametrize(
    "address,expected",
    [
        ("london, england", "GB"),
        ("EDINBURGH, SCOTLAND", "GB"),
        ("SAO PAULO, BRAZIL", "BR"),
        ("BEIJING, PEOPLES R CHINA", "CN"),
        ("Oxford, UK", "GB"),
        ("", None),
        (None, None),
    ],
)
def test_resolve_variants(address, expected):
    assert resolve_journal_country(address) == expected


def test_resolve_with_custom_lookup():
    assert resolve_journal_country("SOMEWHERE, RURITANIA", {"RURITANIA": "RT"}) == "RT"
    # The constituent rule holds even when the table omits it.
    assert resolve_journal_country("CARDIFF, WALES", {"RURITANIA": "RT"}) == "GB"


def test_resolve_is_deterministic():
    for _ in range(3):
        assert resolve_journal_country("PARIS, FRANCE") == "FR"


def _inst(inst_id, country):
    return Institution(
        inst_id=inst_id, name=inst_id, country=country, regions=frozenset({"Europe"})
    )


def _gold_pub(pub_id, journal_id, language="en", insts=("U1",)):
    pub = PublicationRecord(
        pub_id=pub_id,
        doi=f"10.1/{pub_id.lower()}",
        year=2015,
        doc_type="article",
        language=language,
        journal_id=journal_id,
        institution_ids=frozenset(insts),
        field_ids=frozenset({BIO}),
    )
    return ClassifiedPublication(publication=pub, types=OATypeSet(gold=True))


def _plain_pub(pub_id, insts=("U1",)):
    pub = PublicationRecord(
        pub_id=pub_id,
        doi=f"10.1/{pub_id.lower()}",
        year=2015,
        doc_type="article",
        language="en",
        journal_id="J9",
        institution_ids=frozenset(insts),
        field_ids=frozenset({BIO}),
    )
    return ClassifiedPublication(publication=pub, types=OATypeSet())


def test_national_share_by_hand():
    institutions = {"U1": _inst("U1", "BR")}
    journals = {
        "JN": JournalRecord(journal_id="JN", country="BR", is_fully_oa=True, has_apc="no"),
        "JF": JournalRecord(journal_id="JF", country="US", is_fully_oa=True, has_apc="yes"),
    }
    pubs = [
        _gold_pub("A", "JN"),
        _gold_pub("B", "JN"),
        _gold_pub("C", "JF"),
        _gold_pub("D", "JF"),
    ]
    (row,) = records(gold_country_model(pubs, journals, institutions, min_universities=1))
    assert row["gold_total"] == 4
    assert row["national_share"] == Fraction(1, 2)
    assert row["apc_share"] == Fraction(1, 2)
    assert row["apc_known"] == 4


def test_zero_gold_country_has_null_shares():
    institutions = {"U1": _inst("U1", "BR")}
    (row,) = records(gold_country_model([_plain_pub("A")], {}, institutions, min_universities=1))
    assert row["gold_total"] == 0
    assert row["national_share"] is None and row["english_share"] is None
    assert row["apc_share"] is None


def test_collaboration_counts_for_both_countries():
    institutions = {"U1": _inst("U1", "BR"), "U2": _inst("U2", "TR")}
    journals = {"JN": JournalRecord(journal_id="JN", country="BR", is_fully_oa=True)}
    rows = records(gold_country_model(
        [_gold_pub("A", "JN", insts=("U1", "U2"))], journals, institutions, min_universities=1
    ))
    by_country = {r["country"]: r for r in rows}
    assert by_country["BR"]["gold_total"] == 1 and by_country["BR"]["national_share"] == 1
    assert by_country["TR"]["gold_total"] == 1 and by_country["TR"]["national_share"] == 0


def test_journal_country_falls_back_to_publisher_address():
    institutions = {"U1": _inst("U1", "BR")}
    journals = {
        "JN": JournalRecord(
            journal_id="JN", is_fully_oa=True, publisher_address="SAO PAULO, BRAZIL"
        )
    }
    (row,) = records(gold_country_model([_gold_pub("A", "JN")], journals, institutions, 1))
    assert row["national_share"] == 1


def test_unknown_journal_is_non_national_non_apc():
    institutions = {"U1": _inst("U1", "BR")}
    (row,) = records(gold_country_model([_gold_pub("A", "JX")], {}, institutions, 1))
    assert row["national_share"] == 0
    assert row["apc_share"] == 0
    assert row["apc_known"] == 0


def test_english_share():
    institutions = {"U1": _inst("U1", "PL")}
    journals = {"JN": JournalRecord(journal_id="JN", country="PL", is_fully_oa=True)}
    pubs = [
        _gold_pub("A", "JN", language="en"),
        _gold_pub("B", "JN", language="pl"),
    ]
    (row,) = records(gold_country_model(pubs, journals, institutions, 1))
    assert row["english_share"] == Fraction(1, 2)


def test_display_threshold_counts_roster_universities():
    institutions = {
        "U1": _inst("U1", "BR"),
        "U2": _inst("U2", "GB"),
        "U3": _inst("U3", "GB"),
    }
    journals = {"JN": JournalRecord(journal_id="JN", is_fully_oa=True)}
    pubs = [_gold_pub("A", "JN", insts=("U1",)), _gold_pub("B", "JN", insts=("U2",))]
    rows = records(gold_country_model(pubs, journals, institutions, min_universities=2))
    by_country = {r["country"]: r for r in rows}
    assert not by_country["BR"]["displayed"] and by_country["BR"]["n_universities"] == 1
    assert by_country["GB"]["displayed"] and by_country["GB"]["n_universities"] == 2


def test_unknown_apc_never_inflates_apc_share():
    rng = random.Random(29)
    institutions = {"U1": _inst("U1", "BR")}
    for _ in range(30):
        journals = {}
        pubs = []
        yes = known = 0
        for i in range(rng.randrange(1, 40)):
            apc = rng.choice(["yes", "no", "unknown"])
            journals[f"J{i}"] = JournalRecord(
                journal_id=f"J{i}", is_fully_oa=True, has_apc=apc
            )
            pubs.append(_gold_pub(f"P{i}", f"J{i}"))
            yes += apc == "yes"
            known += apc != "unknown"
        (row,) = records(gold_country_model(pubs, journals, institutions, 1))
        assert row["apc_share"] == Fraction(yes, len(pubs))
        assert row["apc_known"] == known
        if known:
            # Lower bound: unknown-APC journals only shrink the share.
            assert row["apc_share"] <= Fraction(yes, known)
        assert row["national_share"] <= 1 and row["english_share"] <= 1
