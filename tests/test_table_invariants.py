"""Row invariants of the report tables on generated classified corpora.

Each invariant must hold on every row a table builder emits, whatever
the affiliations (on or off the roster), countries and evidence
locations.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import evidence, pub_loc, records, repo_loc

from oametrics.classifier import ClassifiedPublication, classify
from oametrics.gold_models import gold_country_model
from oametrics.indicators import overlap_matrix
from oametrics.models import (
    MAIN_FIELDS,
    OA_TYPES,
    Institution,
    JournalRecord,
    PipelineConfig,
    PublicationRecord,
)
from oametrics.repositories import pmc_overlap_table, repo_share_bounds

INST_IDS = ("U1", "U2", "U3", "U4")
LOCATIONS = (
    repo_loc("https://repo.u1.example.edu/item/1"),
    repo_loc("https://repo.u2.example.edu/item/2"),
    repo_loc("https://hdl.handle.net/20.500/3"),
    repo_loc("https://www.ncbi.nlm.nih.gov/pmc/articles/PMC4"),
    repo_loc("https://zenodo.org/5"),
    pub_loc(None),
    pub_loc("cc-by"),
)
JOURNALS = {
    "J1": JournalRecord(journal_id="J1", country="AA", is_fully_oa=True, has_apc="yes"),
    "J2": JournalRecord(journal_id="J2", is_fully_oa=True, has_apc="no", publisher_address="X, BRAZIL"),
    "J3": JournalRecord(journal_id="J3"),
}
CONFIG = PipelineConfig()

roster = st.dictionaries(st.sampled_from(INST_IDS), st.sampled_from(("AA", "BB", "BR")))
publications = st.lists(
    st.tuples(
        st.frozensets(st.sampled_from(INST_IDS + ("ZZ9",)), max_size=3),  # ZZ9 is never on the roster
        st.lists(st.sampled_from(LOCATIONS), max_size=4),
        st.booleans(),
        st.sampled_from(("J1", "J2", "J3", "J4")),  # J4 is not in the registry
        st.sampled_from(("en", "pt")),
    ),
    max_size=40,
)


def _classified(rows):
    classified = []
    for n, (inst_ids, locations, journal_is_oa, journal_id, language) in enumerate(rows):
        pub = PublicationRecord(
            pub_id=f"P{n}",
            doi=f"10.1/{n}",
            year=2015,
            doc_type="article",
            language=language,
            journal_id=journal_id,
            institution_ids=inst_ids,
            field_ids=frozenset({MAIN_FIELDS[n % len(MAIN_FIELDS)]}),
        )
        record = evidence(doi=pub.doi, journal_is_oa=journal_is_oa, locations=locations)
        types = classify(record, JOURNALS.get(journal_id))
        classified.append(ClassifiedPublication(publication=pub, types=types, locations_used=locations))
    return classified


@settings(max_examples=150, deadline=None)
@given(roster, publications)
def test_every_table_row_keeps_its_invariants(countries, rows):
    institutions = {
        inst_id: Institution(
            inst_id=inst_id,
            name=inst_id,
            country=country,
            regions=frozenset({"Europe"}),
            repo_url_patterns=(f"https://repo.{inst_id.lower()}.example.edu/",),
        )
        for inst_id, country in countries.items()
    }
    classified = _classified(rows)

    for row in records(repo_share_bounds(classified, institutions, CONFIG.handle_pattern)):
        assert 0 <= row["matched_lower"] <= row["matched_upper"] <= row["green_pubs"] <= row["pubs"]

    for row in records(pmc_overlap_table(classified, institutions, CONFIG)):
        assert 0 <= row["pmc_only"] <= row["pmc"] <= row["green_oa"]

    for row in records(gold_country_model(classified, JOURNALS, institutions, 1)):
        for share in ("national_share", "english_share", "apc_share"):
            assert (row[share] is None) == (row["gold_total"] == 0)
        assert row["apc_known"] <= row["gold_total"]

    count = {row["metric"]: row["count"] for row in records(overlap_matrix(classified))}
    for oa_type in OA_TYPES:
        assert count[oa_type] <= count["total_oa"]
    for oa_type in ("gold", "hybrid", "bronze"):
        assert count[f"green_and_{oa_type}"] <= min(count["green"], count[oa_type])
    exclusive = ("gold", "hybrid", "bronze", "green_only")
    assert sum(count[f"exclusive_{bucket}"] for bucket in exclusive) == count["total_oa"]
