import dataclasses
import io
import itertools
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import classify_oracle, evidence, fold, pub_loc, records, repo_loc

from oametrics import cli
from oametrics.classifier import CLASSIFIED_COLUMNS, ClassifiedRows, classify, classify_stream
from oametrics.indicators import count_full, overlap_matrix
from oametrics.models import (
    MAIN_FIELDS,
    NO_OA,
    Institution,
    JournalRecord,
    OATypeSet,
    PipelineConfig,
    PublicationRecord,
    Table,
    normalize_url,
)
from oametrics.repositories import pmc_overlap_table

BIO = MAIN_FIELDS[0]


def _flags(types: OATypeSet) -> tuple[bool, bool, bool, bool]:
    return (types.gold, types.green, types.hybrid, types.bronze)


def test_oa_journal_overrides_hybrid_and_bronze():
    types = classify(evidence(journal_is_oa=True, locations=[pub_loc("cc-by")]))
    assert _flags(types) == (True, False, False, False)


def test_no_evidence_is_not_oa():
    assert not classify(None).any_oa


def test_gold_can_overlap_green():
    types = classify(evidence(journal_is_oa=True, locations=[pub_loc("cc-by"), repo_loc()]))
    assert _flags(types) == (True, True, False, False)


def test_unlicensed_publisher_copy_is_bronze():
    types = classify(evidence(locations=[pub_loc(None)]))
    assert _flags(types) == (False, False, False, True)


def test_licensed_copy_in_toll_journal_is_hybrid():
    types = classify(evidence(locations=[pub_loc("cc-by-nc")]))
    assert _flags(types) == (False, False, True, False)


def test_registry_flag_or_evidence_flag():
    fully_oa = JournalRecord(journal_id="J1", is_fully_oa=True)
    toll = JournalRecord(journal_id="J2", is_fully_oa=False)
    ev = evidence(journal_is_oa=False, locations=[pub_loc(None)])
    assert classify(ev, fully_oa).gold
    assert classify(ev, toll).bronze
    assert classify(ev, None).bronze


def test_oa_journal_with_only_repository_copy_is_gold_and_green():
    types = classify(evidence(journal_is_oa=True, locations=[repo_loc()]))
    assert _flags(types) == (True, True, False, False)


def test_oa_journal_flag_without_locations_is_not_oa():
    assert not classify(evidence(journal_is_oa=True, locations=[])).any_oa


def test_blank_license_counts_as_unlicensed():
    assert classify(evidence(locations=[pub_loc("")])).bronze
    assert classify(evidence(locations=[pub_loc("  ")])).bronze


def _enumerate_cases():
    """Journal flag x <=2 publisher locations (license on/off) x <=2 repo."""
    license_values = {True: "cc-by", False: None}
    for journal_is_oa in (False, True):
        for n_pub in range(3):
            for licensed in itertools.product((False, True), repeat=n_pub):
                for n_repo in range(3):
                    locations = [
                        pub_loc(license_values[flag], url=f"https://pub.example.com/{i}")
                        for i, flag in enumerate(licensed)
                    ] + [
                        repo_loc(f"https://repo{i}.example.org/x") for i in range(n_repo)
                    ]
                    yield journal_is_oa, licensed, n_repo, locations


def test_truth_table_matches_oracle_for_all_orderings():
    for journal_is_oa, licensed, n_repo, locations in _enumerate_cases():
        expected = classify_oracle(journal_is_oa, licensed, n_repo)
        for ordering in itertools.permutations(locations):
            got = classify(evidence(journal_is_oa=journal_is_oa, locations=ordering))
            assert _flags(got) == expected, (journal_is_oa, licensed, n_repo, ordering)


@st.composite
def _random_evidence(draw):
    """(journal_is_oa, locations) of one random dump line."""
    n_pub = draw(st.integers(0, 3))
    licenses = draw(
        st.lists(
            st.sampled_from([None, "", "cc-by", "cc-by-nc", "publisher-specific"]),
            min_size=n_pub,
            max_size=n_pub,
        )
    )
    n_repo = draw(st.integers(0, 3))
    locations = [
        pub_loc(license, url=f"https://pub.example.com/{i}")
        for i, license in enumerate(licenses)
    ] + [repo_loc(f"https://repo{i}.example.org/x") for i in range(n_repo)]
    return draw(st.booleans()), locations


@given(_random_evidence(), st.randoms())
def test_classification_is_order_invariant(case, rng):
    journal_is_oa, locations = case
    shuffled = list(locations)
    rng.shuffle(shuffled)
    assert classify(evidence(journal_is_oa=journal_is_oa, locations=shuffled)) == classify(
        evidence(journal_is_oa=journal_is_oa, locations=locations)
    )


@given(_random_evidence())
def test_adding_repository_copy_only_turns_green_on(case):
    journal_is_oa, locations = case
    before = classify(evidence(journal_is_oa=journal_is_oa, locations=locations))
    after = classify(
        evidence(
            journal_is_oa=journal_is_oa,
            locations=locations + [repo_loc("https://extra.example.org/x")],
        )
    )
    assert after.green
    if locations:
        assert (after.gold, after.hybrid, after.bronze) == (before.gold, before.hybrid, before.bronze)


@given(_random_evidence())
def test_publisher_types_are_exclusive(case):
    journal_is_oa, locations = case
    types = classify(evidence(journal_is_oa=journal_is_oa, locations=locations))
    assert types.gold + types.hybrid + types.bronze <= 1


PMC_URL = "https://www.ncbi.nlm.nih.gov/pmc/articles/PMC1"
_locations = st.lists(
    st.builds(
        lambda host, url, license: {"host_type": host, "url": url, "license": license},
        st.sampled_from(("publisher", "repository")),
        st.sampled_from(("https://", "WWW.X/", "https://repo.example.org/1", PMC_URL)),
        st.sampled_from((None, "", "  ", "cc-by")),
    ),
    max_size=4,
)


@given(_locations)
@example([repo_loc("https://"), repo_loc(PMC_URL)])
def test_scan_reduces_locations_to_the_digest(locations):
    record = evidence(locations=locations)
    repository = [normalize_url(loc["url"]) for loc in locations if loc["host_type"] == "repository"]
    publisher = [loc for loc in locations if loc["host_type"] == "publisher"]
    assert record.repository_urls == tuple(repository)
    assert record.publisher_copy == bool(publisher)
    assert record.licensed_copy == any(loc["license"] and loc["license"].strip() for loc in publisher)

    # Every repository copy, also one whose URL normalizes to "", makes the
    # publication green, and any non-PMC copy rules out pmc_only.
    types = classify(record)
    assert types.green == bool(repository)
    config = PipelineConfig()
    via_pmc = ["ncbi.nlm.nih.gov/pmc" in url for url in repository]
    inst = Institution(inst_id="U1", name="U1", country="TR", regions={"Europe"})
    classified = (_pub("P1", record.doi), types, record.repository_urls)
    store = ClassifiedRows({"U1": inst}, config.handle_pattern, config.pmc_url_patterns)
    (row,) = records(pmc_overlap_table(fold(store, [classified])))
    assert (row["green_oa"], row["pmc"], row["pmc_only"]) == (
        int(types.green), int(any(via_pmc)), int(any(via_pmc) and all(via_pmc)),
    )


def _pub(pub_id, doi, journal_id="J1"):
    return PublicationRecord(
        pub_id=pub_id,
        doi=doi,
        language="en",
        journal_id=journal_id,
        institution_ids=frozenset({"U1"}),
        field_ids=frozenset({BIO}),
    )


def test_stream_classifies_every_publication_once():
    pubs = [_pub(f"P{i}", f"10.1/{i}") for i in range(4)] + [_pub("P9", None)]
    by_doi = {pub.doi: pub for pub in pubs[:4]}
    records = [
        evidence(doi="10.1/1", locations=[repo_loc()]),
        evidence(doi="10.1/0", journal_is_oa=True, locations=[pub_loc("cc-by")]),
    ]
    classified = list(classify_stream(records, by_doi, without_doi=pubs[4:]))
    # Each record's publications as it arrives, then those without a DOI or without a record.
    assert [pub.pub_id for pub, _, _ in classified] == ["P1", "P0", "P9", "P2", "P3"]
    assert sum(1 for _, types, _ in classified if not types.any_oa) == 3
    assert classified[0][1].green and classified[1][1].gold
    # No record outlives its turn: its DOI maps to None once its publications are classified.
    assert by_doi == {"10.1/0": None, "10.1/1": None, "10.1/2": pubs[2], "10.1/3": pubs[3]}


def test_stream_classifies_publications_sharing_a_doi_against_their_own_journals():
    pubs = [_pub("P1", "10.1/a", "J1"), _pub("P2", "10.1/a", "J2"), _pub("P3", "10.1/b")]
    journals = {"J1": JournalRecord(journal_id="J1", is_fully_oa=True)}
    record = evidence(doi="10.1/a", locations=[pub_loc("cc-by"), repo_loc()])
    later = evidence(doi="10.1/a")  # a second record for the DOI classifies nothing
    by_doi = {"10.1/a": pubs[:2], "10.1/b": pubs[2]}
    classified = list(classify_stream([record, later], by_doi, journals))
    assert [(pub.pub_id, _flags(types), urls) for pub, types, urls in classified] == [
        ("P1", (True, True, False, False), record.repository_urls),
        ("P2", (False, True, True, False), record.repository_urls),
        ("P3", (False, False, False, False), ()),
    ]


def test_stream_empty_locations_not_oa():
    records = [evidence(doi="10.1/a", journal_is_oa=True, locations=[])]
    ((_, types, urls),) = classify_stream(records, {"10.1/a": _pub("P1", "10.1/a")})
    assert not types.any_oa
    assert urls == ()


def test_stream_without_doi_never_oa():
    ((_, types, urls),) = classify_stream([], {}, without_doi=[_pub("P1", None)])
    assert types is NO_OA and urls == ()
    # Not even a gold, green record in the stream is read for it.
    gold = evidence(journal_is_oa=True, locations=[pub_loc("cc-by"), repo_loc()])
    assert classify(gold).gold and gold.repository_urls
    ((_, types, urls),) = classify_stream([gold], {gold.doi: None}, without_doi=[_pub("P1", None)])
    assert types is NO_OA and urls == ()


def _written(table: Table, report_format: str) -> str:
    fh = io.StringIO(newline="")
    cli._write_table(fh, table, report_format)
    return fh.getvalue()


def test_classified_rows_come_out_in_the_order_of_the_sorted_rows():
    # pub_ids of mixed length and beyond ASCII, in all eight outcomes, fed out of order.
    pub_ids = ["P9", "P10", "Pé", "P1", "P100", "P09", "p2", "Z", "Ä", "日本", "P", "P9a", "😀", "P10é"]
    pub_ids += [f"P{n}" for n in range(11, 60)]
    random.Random(3).shuffle(pub_ids)
    outcomes = [
        OATypeSet(green=green, **({side: True} if side else {}))
        for side in (None, "gold", "hybrid", "bronze")
        for green in (False, True)
    ]
    accumulator, rows = ClassifiedRows(), []
    for n, pub_id in enumerate(pub_ids):
        types = outcomes[n % len(outcomes)]
        doi = None if n % 5 == 0 else f"10.1/{n}"
        # Every other publication gets an equal outcome that is not the shared object.
        accumulator.add(_pub(pub_id, doi), types if n % 2 else dataclasses.replace(types), ())
        rows.append((pub_id, doi, types.gold, types.green, types.hybrid, types.bronze, types.any_oa))
    oracle = Table("classified", CLASSIFIED_COLUMNS, tuple(sorted(rows)))

    table = accumulator.table()
    assert (table.name, table.columns) == (oracle.name, oracle.columns)
    assert tuple(table.rows) == oracle.rows
    assert tuple(table.rows) == oracle.rows  # the same rows on a second iteration
    assert len({row[2:] for row in table.rows}) == 8
    for report_format in ("csv", "jsonl"):
        assert _written(table, report_format) == _written(oracle, report_format), report_format


@pytest.mark.parametrize(
    "tally", [count_full, overlap_matrix, ClassifiedRows.seen_countries],
    ids=["count_full", "overlap_matrix", "seen_countries"],
)
def test_classified_table_refuses_a_tallied_store(tally):
    pubs = [(_pub(f"P{n}", f"10.1/{n}"), OATypeSet(green=n == 1), ()) for n in range(3)]
    store = fold(ClassifiedRows(), pubs)
    assert len(tuple(store.table().rows)) == 3
    tally(store)
    with pytest.raises(ValueError, match="3 publications were already tallied"):
        store.table()
    # A store that tallies as it is fed refuses too, though it still holds the publications not yet tallied.
    store = fold(ClassifiedRows(tally_every=2), pubs)
    with pytest.raises(ValueError, match="2 publications were already tallied"):
        store.table()
