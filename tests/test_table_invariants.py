"""Row invariants of the report tables on generated classified corpora.

Each invariant must hold on every row a table builder emits, whatever
the affiliations (on or off the roster), countries and evidence
locations. No table may depend on the order its store is fed the
publications in. On the same corpora written as input files, the tables
of run_pipeline's one pass must equal each builder over a separately
fed store and the cell tables built from its counts, in one process
and in three, with shared DOIs, publications without a DOI or without a
dump line, and duplicate and unneeded lines in any order.
"""

import csv
import json
import random
import tempfile
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import evidence, fold, materialized, pub_loc, records, repo_loc

from oametrics import cli
from oametrics.classifier import ClassifiedRows, classify
from oametrics.cli import REPORT_TABLES, run_pipeline
from oametrics.gold_models import gold_country_model, resolve_journal_country
from oametrics.indicators import (
    count_full,
    field_profile,
    field_summary,
    median_share_by_country,
    overlap_matrix,
    region_rollup,
    university_indicators,
)
from oametrics import ingest
from oametrics.ingest import (
    IssueSummary,
    ParseIssue,
    parse_evidence_stream,
    parse_publications,
    parse_registries,
)
from oametrics.models import (
    ALL_SCIENCES,
    MAIN_FIELDS,
    OA_TYPES,
    Institution,
    JournalRecord,
    OATypeSet,
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
            language=language,
            journal_id=journal_id,
            institution_ids=inst_ids,
            field_ids=frozenset({MAIN_FIELDS[n % len(MAIN_FIELDS)]}),
        )
        record = evidence(doi=pub.doi, journal_is_oa=journal_is_oa, locations=locations)
        types = classify(record, JOURNALS.get(journal_id))
        classified.append((pub, types, record.repository_urls))
    return classified


def _institutions(countries):
    return {
        inst_id: Institution(
            inst_id=inst_id,
            name=inst_id,
            country=country,
            regions=frozenset({"Europe"}),
            repo_url_patterns=(f"https://repo.{inst_id.lower()}.example.edu/",),
        )
        for inst_id, country in countries.items()
    }


@settings(max_examples=150, deadline=None)
@given(roster, publications)
def test_every_table_row_keeps_its_invariants(countries, rows):
    institutions = _institutions(countries)
    classified = _classified(rows)

    for row in records(repo_share_bounds(fold(ClassifiedRows(institutions, CONFIG.handle_pattern), classified))):
        assert 0 <= row["matched_lower"] <= row["matched_upper"] <= row["green_pubs"] <= row["pubs"]

    pmc_store = fold(ClassifiedRows(institutions, CONFIG.handle_pattern, CONFIG.pmc_url_patterns), classified)
    for row in records(pmc_overlap_table(pmc_store)):
        assert 0 <= row["pmc_only"] <= row["pmc"] <= row["green_oa"]

    for row in records(gold_country_model(fold(ClassifiedRows(institutions), classified), JOURNALS, 1)):
        for share in ("national_share", "english_share", "apc_share"):
            assert (row[share] is None) == (row["gold_total"] == 0)
        assert row["apc_known"] <= row["gold_total"]

    counts = count_full(fold(ClassifiedRows(), classified))
    for mode in ("all_pubs", "doi_pubs"):
        universities = university_indicators(counts, institutions, PipelineConfig(denominator_mode=mode))
        for row in records(universities):
            assert row["university"] in institutions  # so ZZ9 never appears
            assert 0 <= row["numerator"] <= row["denominator"]
            if row["denominator"] == 0:
                assert row["share_pct"] is None
            else:
                assert row["share_pct"] == Fraction(row["numerator"], row["denominator"])

    count = {row["metric"]: row["count"] for row in records(overlap_matrix(fold(ClassifiedRows(), classified)))}
    for oa_type in OA_TYPES:
        assert count[oa_type] <= count["total_oa"]
    for oa_type in ("gold", "hybrid", "bronze"):
        assert count[f"green_and_{oa_type}"] <= min(count["green"], count[oa_type])
    exclusive = ("gold", "hybrid", "bronze", "green_only")
    assert sum(count[f"exclusive_{bucket}"] for bucket in exclusive) == count["total_oa"]


@settings(max_examples=100, deadline=None)
@given(roster, publications, st.data())
def test_tables_do_not_depend_on_publication_order(countries, rows, data):
    institutions = _institutions(countries)
    classified = _classified(rows)
    shuffled = data.draw(st.permutations(classified))
    builders = (
        (ClassifiedRows, ClassifiedRows.table),
        (ClassifiedRows, overlap_matrix),
        (lambda: ClassifiedRows(institutions, CONFIG.handle_pattern), repo_share_bounds),
        (lambda: ClassifiedRows(institutions, CONFIG.handle_pattern, CONFIG.pmc_url_patterns), pmc_overlap_table),
        (lambda: ClassifiedRows(institutions), lambda store: gold_country_model(store, JOURNALS, 1)),
    )
    for make, build in builders:
        assert materialized(build(fold(make(), shuffled))) == materialized(build(fold(make(), classified)))
    assert count_full(fold(ClassifiedRows(), shuffled)) == count_full(fold(ClassifiedRows(), classified))


#: A publication's DOI: none, or one of 10.1/0..10.1/11, which other publications may share.
publication_dois = st.one_of(st.none(), st.integers(0, 11))
#: Dump lines in any order: a DOI, its locations and its journal flag. A DOI may have no line or
#: several, with different content, and 10.1/12..10.1/15 are needed by no publication.
dump_lines = st.lists(
    st.tuples(st.integers(0, 15), st.lists(st.sampled_from(LOCATIONS), max_size=4), st.booleans()),
    max_size=50,
)


def _write_corpus(directory: Path, countries, rows, dois, lines) -> dict[str, Path]:
    """The roster, the journal registry, the publications and a dump as input files."""
    paths = {name: directory / f"{name}.{ext}" for name, ext in (
        ("institutions", "csv"), ("journals", "csv"), ("publications", "csv"), ("evidence", "jsonl"),
    )}
    tables = {
        "institutions": [("inst_id", "name", "country", "regions", "repo_url_patterns")] + [
            (i, i, country, "Europe", f"https://repo.{i.lower()}.example.edu/")
            for i, country in countries.items()
        ],
        "journals": [("journal_id", "country", "is_fully_oa", "has_apc", "publisher_address")] + [
            (j.journal_id, j.country or "", j.is_fully_oa, "" if j.has_apc == "unknown" else j.has_apc,
             j.publisher_address or "")
            for j in JOURNALS.values()
        ],
        "publications": [
            ("pub_id", "doi", "year", "doc_type", "language", "journal_id", "institution_ids", "field_ids")
        ] + [
            # Publications sharing a DOI spell it in two ways.
            (f"P{n}", "" if doi is None else ("10.1/{}", "https://doi.org/10.1/{}")[n % 2].format(doi),
             2015, "article", language, journal_id, ";".join(sorted(inst_ids)),
             MAIN_FIELDS[n % len(MAIN_FIELDS)])
            for n, ((inst_ids, _, _, journal_id, language), doi) in enumerate(zip(rows, dois))
        ],
    }
    for name, table in tables.items():
        with open(paths[name], "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(table)
    with open(paths["evidence"], "w", encoding="utf-8") as fh:
        for doi, locations, journal_is_oa in lines:
            line = {"doi": f"10.1/{doi}", "journal_is_oa": journal_is_oa, "oa_locations": locations}
            fh.write(json.dumps(line) + "\n")
    return paths


@settings(max_examples=60, deadline=None)
@given(roster, publications, st.lists(publication_dois, min_size=40, max_size=40), dump_lines)
@example(  # P0 (fully-OA journal) and P1 (toll) share 10.1/0, whose second line differs
    {"U1": "AA", "U2": "AA"},
    [(frozenset({"U1"}), [], False, "J1", "en"), (frozenset({"U2"}), [], False, "J3", "pt"),
     (frozenset({"U1", "U2"}), [], False, "J3", "en"), (frozenset({"U2"}), [], False, "J2", "en")],
    [0, 0, None, 1] + [None] * 36,
    [(14, [LOCATIONS[6]], False), (0, [LOCATIONS[6], LOCATIONS[0]], False), (0, [LOCATIONS[1]], True)],
)
def test_one_pass_fold_matches_the_public_builders(countries, rows, dois, lines):
    config = PipelineConfig(min_universities_country=2, min_universities_gold_model=1)
    with tempfile.TemporaryDirectory() as tmp:
        paths = _write_corpus(Path(tmp), countries, rows, dois, lines)
        # 3 processes scan 3 ranges; without `classified`, the store tallies every 3 publications.
        with mock.patch.object(ingest, "_MIN_RANGE_BYTES", 64), mock.patch.object(cli, "_TALLY_EVERY", 3):
            bundles = [
                run_pipeline(
                    config, paths["publications"], paths["evidence"], paths["institutions"],
                    paths["journals"], shards=shards, tables=tables,
                )
                for shards in (1, 3)
                for tables in (REPORT_TABLES + ("classified",), REPORT_TABLES)
            ]
        sink = IssueSummary()
        institutions, journals = parse_registries(paths["institutions"], paths["journals"], on_issue=sink)
        pubs = list(parse_publications(paths["publications"], config, on_issue=sink))
        needed = {pub.doi for pub in pubs}
        dump = {}  # the first line of each needed DOI; a later one is a duplicate
        for line_no, record in enumerate(parse_evidence_stream(paths["evidence"], on_issue=sink), start=1):
            if record.doi in needed and dump.setdefault(record.doi, record) is not record:
                sink(ParseIssue("evidence", line_no, "duplicate_key", f"duplicate doi: {record.doi}"))
    classified = []
    for pub in pubs:
        record = dump.get(pub.doi)
        types = classify(record, journals.get(pub.journal_id))
        classified.append((pub, types, () if record is None else record.repository_urls))
    counts = count_full(fold(ClassifiedRows(), classified))
    universities = university_indicators(counts, institutions, config)
    medians = median_share_by_country(universities, config.min_universities_country)
    gold_store = fold(ClassifiedRows(institutions), classified)
    gold = gold_country_model(gold_store, journals, config.min_universities_gold_model)
    pmc_store = fold(ClassifiedRows(institutions, config.handle_pattern, config.pmc_url_patterns), classified)
    expected = {
        "classified": fold(ClassifiedRows(), classified).table(),
        "overlap": overlap_matrix(fold(ClassifiedRows(), classified)),
        "universities": universities,
        "field_summary": field_summary(universities),
        "country_medians_full": medians,
        "region_medians": region_rollup(universities, institutions),
        "profiles": field_profile(universities),
        "repo_bounds": repo_share_bounds(fold(ClassifiedRows(institutions, config.handle_pattern), classified)),
        "pmc_overlap": pmc_overlap_table(pmc_store),
        "gold_models_full": gold,
        "issues": sink.table(),
    }
    names = set(expected) | {"country_medians", "gold_models"}
    for bundle, with_classified in zip(bundles, (True, False) * 2):
        assert set(bundle.tables) == (names if with_classified else names - {"classified"})
        for name, table in expected.items():
            if name in bundle.tables:
                assert materialized(bundle.tables[name]) == materialized(table), name
        for name, full in (("country_medians", medians), ("gold_models", gold)):
            shown = bundle.tables[name]  # the rows flagged displayed, cut to the display columns
            assert shown.rows == tuple(row[:len(shown.columns)] for row in full.rows if row[-1]), name


def test_fold_counts_by_value_not_by_outcome_identity():
    # Each outcome is a fresh OATypeSet, equal to one the classifier shares but not the same object.
    rng = random.Random(19)
    institutions = {
        inst_id: Institution(
            inst_id=inst_id, name=inst_id, country=country, regions=frozenset({"Europe"}),
            repo_url_patterns=(f"repo.{inst_id.lower()}.example.edu",),
        )
        for inst_id, country in (("U1", "AA"), ("U2", "AA"), ("U3", "BB"), ("U4", "BR"))
    }
    urls = ("repo.u1.example.edu/1", "repo.u3.example.edu/2", "hdl.handle.net/20.500/3",
            "ncbi.nlm.nih.gov/pmc/articles/pmc4", "zenodo.org/5")
    stream = []
    for n in range(3_000):
        repository_urls = tuple(rng.sample(urls, rng.choice((0, 0, 1, 2))))
        side = rng.choice((None, "gold", "hybrid", "bronze"))
        pub = PublicationRecord(
            pub_id=f"P{n}", doi=rng.choice((None, f"10.1/{n}")), language=rng.choice(("en", "pt")),
            journal_id=rng.choice(("J1", "J2", "J3", "J4")),
            institution_ids=rng.sample(INST_IDS + ("ZZ9",), rng.randint(0, 3)),
            field_ids=rng.sample(MAIN_FIELDS, rng.randint(1, 2)),
        )
        types = OATypeSet(green=bool(repository_urls), **({side: True} if side else {}))
        stream.append((pub, types, repository_urls))

    def own_match(pub, urls):
        return any(p in u for i in pub.institution_ids if i in institutions
                   for p in institutions[i].repo_url_patterns for u in urls)

    # The stream holds each case the store keys or counts apart, not just by chance.
    green = [(pub, urls) for pub, types, urls in stream if types.green]
    on_pmc = [pmc for pmc in (["ncbi.nlm.nih.gov/pmc" in u for u in urls] for _, urls in green) if any(pmc)]
    assert any(own_match(pub, urls) and any("hdl.handle.net" in u for u in urls) for pub, urls in green)
    assert any(pub.institution_ids and set(pub.institution_ids).isdisjoint(institutions) for pub, _ in green)
    assert any(map(all, on_pmc)) and not all(map(all, on_pmc))  # PMC only, and PMC with another repository
    assert any(types.gold and pub.journal_id not in JOURNALS for pub, types, _ in stream)

    # A store per builder with only the settings it reads, each fed every item, and the one store
    # run_pipeline feeds, with its tally interval.
    stores = [
        ClassifiedRows(), ClassifiedRows(), ClassifiedRows(institutions, CONFIG.handle_pattern),
        ClassifiedRows(institutions, CONFIG.handle_pattern, CONFIG.pmc_url_patterns), ClassifiedRows(institutions),
    ]
    store = ClassifiedRows(institutions, CONFIG.handle_pattern, CONFIG.pmc_url_patterns, tally_every=cli._TALLY_EVERY)
    for item in stream:
        for each in (*stores, store):
            each.add(*item)

    def build(full, overlap, repo, pmc, gold):
        return (count_full(full), overlap_matrix(overlap), repo_share_bounds(repo), pmc_overlap_table(pmc),
                gold_country_model(gold, JOURNALS, 2))

    built = [build(*stores), build(*[store] * 5)]

    counts, by_inst, by_country, outcomes = Counter(), defaultdict(Counter), defaultdict(Counter), Counter()
    for pub, types, repository_urls in stream:
        flags = {t: getattr(types, t) for t in OA_TYPES}
        flags["any"] = any(flags.values())
        outcomes.update(f"green_and_{t}" for t in ("gold", "hybrid", "bronze") if flags["green"] and flags[t])
        outcomes.update(t for t in ("total_oa",) + OA_TYPES if flags["any" if t == "total_oa" else t])
        for inst_id in pub.institution_ids:
            for field_name in (*pub.field_ids, ALL_SCIENCES):
                metrics = ["pubs"] + ["doi_pubs"] * (pub.doi is not None) + [t for t, f in flags.items() if f]
                counts.update((inst_id, field_name, metric) for metric in metrics)
            if inst_id not in institutions:
                continue
            matched = any(p in url for p in institutions[inst_id].repo_url_patterns for url in repository_urls)
            handle = any("hdl.handle.net" in url for url in repository_urls)
            by_inst[inst_id].update(
                pubs=1, green=flags["green"], lower=flags["green"] and matched,
                upper=flags["green"] and (matched or handle),
            )
        journal = JOURNALS.get(pub.journal_id)
        via_pmc = [("ncbi.nlm.nih.gov/pmc" in url) for url in repository_urls]
        for country in {institutions[i].country for i in pub.institution_ids if i in institutions}:
            tally = by_country[country]
            tally.update(seen=1, greens=flags["green"])
            if flags["green"] and any(via_pmc):
                tally.update(pmc=1, pmc_only=all(via_pmc), **{t: flags[t] for t in ("gold", "bronze", "hybrid")})
            if flags["gold"]:
                tally.update(
                    gold_total=1, english=pub.language == "en",
                    national=journal is not None and country == (
                        journal.country or resolve_journal_country(journal.publisher_address)
                    ),
                    apc_known=journal is not None and journal.has_apc != "unknown",
                    apc_yes=journal is not None and journal.has_apc == "yes",
                )

    def shares(tally, keys, base):
        return tuple(Fraction(tally[key], tally[base]) if tally[base] else None for key in keys)

    for full, overlap, repo, pmc, gold in built:
        assert full == +counts
        assert {r["metric"]: r["count"] for r in records(overlap)}.items() >= outcomes.items()
        assert [tuple(r.values())[:7] for r in records(repo)] == [
            (i, i, institutions[i].country, t["pubs"], t["green"], t["lower"], t["upper"])
            for i, t in sorted(by_inst.items())
        ]
        assert {r["country"]: tuple(r.values())[1:] for r in records(pmc)} == {
            c: (t["greens"], t["pmc"], t["pmc_only"], *shares(t, ("gold", "bronze", "hybrid"), "pmc"))
            for c, t in by_country.items()
        }
        assert {r["country"]: tuple(r.values())[1:6] for r in records(gold)} == {
            c: (t["gold_total"], *shares(t, ("national", "apc_yes", "english"), "gold_total"), t["apc_known"])
            for c, t in by_country.items()
        }
