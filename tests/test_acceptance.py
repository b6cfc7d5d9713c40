"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`. Corpus-scale headline
numbers are not reproducible at desk scale, so the checks here are
property-based plus seeded synthetic corpora at their stated tolerances.
"""

import functools
import itertools
import random
import statistics
import subprocess
import sys
import textwrap
import time
from fractions import Fraction

from oracles import classify_oracle, evidence, fold, pub_loc, records, repo_loc

from oametrics.classifier import ClassifiedRows, _pmc_flags, classify, classify_stream
from oametrics.cli import format_pct
from oametrics.gold_models import gold_country_model
from oametrics.indicators import UNIVERSITIES_COLUMNS, _median, median_share_by_country, overlap_matrix
from oametrics.models import (
    ALL_SCIENCES,
    MAIN_FIELDS,
    Institution,
    JournalRecord,
    OAEvidenceRecord,
    OATypeSet,
    PipelineConfig,
    PublicationRecord,
    Table,
    exact_share,
)
from oametrics.repositories import pmc_overlap_table, repo_share_bounds

BIO = MAIN_FIELDS[0]
CONFIG = PipelineConfig()

SHARED_PUB = PublicationRecord(
    pub_id="P",
    doi="10.1/p",
    language="en",
    journal_id="J",
    institution_ids=frozenset({"U1"}),
    field_ids=frozenset({BIO}),
)


def _passed(n: int, name: str) -> None:
    print(f"ACCEPTANCE {n} {name}: PASS")


def _overlap_counts(classified) -> dict[str, int]:
    return {r["metric"]: r["count"] for r in records(overlap_matrix(fold(ClassifiedRows(), classified)))}


EXCLUSIVE = ("gold", "hybrid", "bronze", "green_only")


def _inst(inst_id, country="TR", patterns=()):
    return Institution(
        inst_id=inst_id,
        name=inst_id,
        country=country,
        regions=frozenset({"Europe"}),
        repo_url_patterns=tuple(patterns),
    )


def test_acceptance_1_classifier_truth_table():
    started = time.perf_counter()
    license_values = {True: "cc-by", False: None}
    checked = 0
    for journal_mode in ("none", "evidence", "registry", "both"):
        journal = JournalRecord(
            journal_id="J", is_fully_oa=journal_mode in ("registry", "both")
        )
        evidence_flag = journal_mode in ("evidence", "both")
        journal_is_oa = journal_mode != "none"
        for n_pub in range(3):
            for licensed in itertools.product((False, True), repeat=n_pub):
                for n_repo in range(3):
                    locations = [
                        pub_loc(license_values[flag], url=f"https://p.example.com/{i}")
                        for i, flag in enumerate(licensed)
                    ] + [repo_loc(f"https://r{i}.example.org/x") for i in range(n_repo)]
                    expected = classify_oracle(journal_is_oa, licensed, n_repo)
                    for ordering in itertools.permutations(locations):
                        types = classify(
                            evidence(journal_is_oa=evidence_flag, locations=ordering),
                            journal,
                        )
                        assert (types.gold, types.green, types.hybrid, types.bronze) == expected
                        checked += 1
    elapsed = time.perf_counter() - started
    assert checked >= 100
    assert elapsed < 1.0, f"truth table took {elapsed:.2f}s"
    _passed(1, f"classifier truth table equivalence ({checked} cases, {elapsed:.2f}s)")


PUB_PLAIN = pub_loc(None, url="https://p.example.com/a")
PUB_BLANK = pub_loc("", url="https://p.example.com/b")
PUB_LICENSED = pub_loc("cc-by", url="https://p.example.com/c")
REPO_A = repo_loc("https://r1.example.org/x")
REPO_B = repo_loc("https://r2.example.org/y")
PUBLISHER_CHOICES = (PUB_PLAIN, PUB_BLANK, PUB_LICENSED)


@functools.cache
def _record(publisher: tuple[int, ...], n_repo: int, journal_is_oa: bool) -> OAEvidenceRecord:
    locations = [PUBLISHER_CHOICES[i] for i in publisher] + [REPO_A, REPO_B][:n_repo]
    return evidence(doi="10.1/p", journal_is_oa=journal_is_oa, locations=locations)


def _random_types(rng: random.Random) -> OATypeSet:
    publisher = tuple(rng.randrange(len(PUBLISHER_CHOICES)) for _ in range(rng.randrange(3)))
    return classify(_record(publisher, rng.randrange(3), rng.random() < 0.2))


def test_acceptance_2_exclusivity_and_partition_identity():
    violations = 0
    for seed in range(100):
        rng = random.Random(seed)
        classified = []
        for _ in range(10_000):
            types = _random_types(rng)
            if types.gold + types.hybrid + types.bronze > 1:
                violations += 1
            classified.append((SHARED_PUB, types, ()))
        count = _overlap_counts(classified)
        if sum(count[f"exclusive_{t}"] for t in EXCLUSIVE) != count["total_oa"]:
            violations += 1
    assert violations == 0
    _passed(2, "exclusivity and partition identity on 100 x 10k corpora (0 violations)")


def test_acceptance_3_planted_proportion_recovery():
    rng = random.Random(20190401)
    n_records = 100_000
    oa_rate = 0.4
    # Exclusive publisher-side classes of OA, with green overlap rates
    # chosen so green totals 77% of OA and 81% of gold is also green.
    class_probs = (("gold", 0.33), ("hybrid", 0.16), ("bronze", 0.20), ("green_only", 0.31))
    green_given = {"gold": 0.81, "hybrid": 0.63, "bronze": 0.4595, "green_only": 1.0}

    publications = []
    evidence_by_doi = {}
    for i in range(n_records):
        doi = f"10.5/{i}"
        publications.append(
            PublicationRecord(
                pub_id=f"P{i}",
                doi=doi,
                language="en",
                journal_id="J",
                institution_ids=frozenset({"U1"}),
                field_ids=frozenset({BIO}),
            )
        )
        if rng.random() >= oa_rate:
            continue
        roll = rng.random()
        cumulative = 0.0
        bucket = "green_only"
        for name, prob in class_probs:
            cumulative += prob
            if roll < cumulative:
                bucket = name
                break
        green = rng.random() < green_given[bucket]
        locations = []
        if bucket == "gold":
            journal_is_oa = True
            locations.append(PUB_LICENSED)
        elif bucket == "hybrid":
            journal_is_oa = False
            locations.append(PUB_LICENSED)
        elif bucket == "bronze":
            journal_is_oa = False
            locations.append(PUB_PLAIN)
        else:
            journal_is_oa = False
        if green:
            locations.append(REPO_A)
        evidence_by_doi[doi] = evidence(doi=doi, journal_is_oa=journal_is_oa, locations=locations)

    by_doi = {pub.doi: pub for pub in publications}
    count = _overlap_counts(classify_stream(evidence_by_doi.values(), by_doi))
    total = count["total_oa"]
    planted = {"green": 0.77, "gold": 0.33, "bronze": 0.20, "hybrid": 0.16}
    for oa_type, expected in planted.items():
        observed = count[oa_type] / total
        assert abs(observed - expected) <= 0.01, (oa_type, observed)
    gold_also_green = count["green_and_gold"] / count["gold"]
    assert abs(gold_also_green - 0.81) <= 0.01
    _passed(3, f"planted 77/33/20/16 + 81% gold-green recovered over {n_records} records")


def test_acceptance_4_median_oracle_and_threshold():
    rng = random.Random(97)
    for _ in range(1000):
        length = rng.randrange(1, 26)
        numerators = [rng.randrange(0, 1001) for _ in range(length)]
        values = [Fraction(n, 1000) for n in numerators]
        assert _median(numerators, [1000] * length) == statistics.median(values)

    cells = []
    counts = {"AA": 3, "BB": 9, "CC": 10, "DD": 14}
    for country, n in counts.items():
        for i in range(n):
            cells.append(
                (f"{country}{i}", country, ALL_SCIENCES, "any", i, n + i, exact_share(i, n + i))
            )
    rows = records(median_share_by_country(
        Table("universities", UNIVERSITIES_COLUMNS, tuple(cells)), CONFIG.min_universities_country
    ))
    displayed = {row["country"] for row in rows if row["displayed"]}
    assert displayed == {"CC", "DD"}
    assert {row["country"] for row in rows} == set(counts)
    _passed(4, "median oracle on 1000 vectors; threshold 10 filters exactly")


def _green_cp(locations):
    """SHARED_PUB, green, with the repository URLs the scan keeps from `locations`."""
    return SHARED_PUB, OATypeSet(green=True), evidence(locations=locations).repository_urls


def test_acceptance_5_repository_bounds():
    rng = random.Random(41)
    hosts = ("repo.inst.edu", "hdl.handle.net", "zenodo.org", "arxiv.org")
    for _ in range(200):
        locations = [
            repo_loc(f"https://{rng.choice(hosts)}/i/{rng.randrange(50)}")
            for _ in range(rng.randrange(4))
        ]
        cp = _green_cp(locations)
        institutions = {"U1": _inst("U1", patterns=(rng.choice(hosts),))}
        (row,) = records(repo_share_bounds(fold(ClassifiedRows(institutions, "hdl.handle.net"), [cp])))
        assert row["matched_lower"] <= row["matched_upper"]

    # SHARED_PUB is affiliated with U1, here a repository on the Bilkent host.
    institutions = {"U1": _inst("U1", country="TR", patterns=("repo.bilkent.example.edu.tr",))}
    matched = [
        _green_cp([repo_loc(f"https://repo.bilkent.example.edu.tr/handle/{i}")])
        for i in range(1815)
    ]
    unmatched = [_green_cp([repo_loc(f"https://elsewhere.example.org/{i}")]) for i in range(1858 - 1815)]
    non_green = [(SHARED_PUB, OATypeSet(bronze=True), ()) for _ in range(150)]
    bounds = fold(ClassifiedRows(institutions, "hdl.handle.net"), matched + unmatched + non_green)
    (row,) = records(repo_share_bounds(bounds))
    assert (row["green_pubs"], row["matched_lower"], row["matched_upper"]) == (1858, 1815, 1815)
    assert format_pct(row["pct_repo_lower"]) == "97.7"
    assert format_pct(row["pct_repo_upper"]) == "97.7"
    _passed(5, "repository bounds: lower => upper; 1815/1858 formats as 97.7 - 97.7")


PMC_URL = "https://www.ncbi.nlm.nih.gov/pmc/articles/PMC9"


def test_acceptance_6_pmc_accounting():
    institutions = {"U1": _inst("U1", country="TW")}
    planted = (
        [_green_cp([repo_loc(PMC_URL)]) for _ in range(12)]
        + [_green_cp([repo_loc(PMC_URL), repo_loc("https://arxiv.org/abs/1")]) for _ in range(12)]
        + [_green_cp([repo_loc("https://zenodo.org/2")]) for _ in range(16)]
    )
    store = ClassifiedRows(institutions, CONFIG.handle_pattern, CONFIG.pmc_url_patterns)
    (row,) = records(pmc_overlap_table(fold(store, planted)))
    assert (row["green_oa"], row["pmc"], row["pmc_only"]) == (40, 24, 12)
    assert Fraction(row["pmc"], row["green_oa"]) == Fraction(24, 40)

    for seed in range(25):
        rng = random.Random(seed)
        corpus = []
        for i in range(500):
            locations = []
            if rng.random() < 0.5:
                locations.append(repo_loc(PMC_URL))
            if rng.random() < 0.4:
                locations.append(repo_loc("https://zenodo.org/9"))
            if rng.random() < 0.4:
                locations.append(rng.choice((PUB_PLAIN, PUB_LICENSED)))
            record = evidence(journal_is_oa=rng.random() < 0.2, locations=locations)
            types = classify(record)
            via_pmc, _ = _pmc_flags(record.repository_urls, CONFIG.pmc_url_patterns)
            if via_pmc:
                assert types.green
            corpus.append((SHARED_PUB, types, record.repository_urls))
        store = ClassifiedRows(institutions, CONFIG.handle_pattern, CONFIG.pmc_url_patterns)
        (row,) = records(pmc_overlap_table(fold(store, corpus)))
        assert 0 <= row["pmc_only"] <= row["pmc"] <= row["green_oa"]
    _passed(6, "PMC accounting: planted fractions exact; pmc_only <= pmc <= green")


def test_acceptance_7_gold_model_shares():
    institutions = {"U1": _inst("U1", country="BR")}
    journals = {}
    classified = []
    for i in range(100):
        national = i < 63
        is_english = i < 90
        if i < 50:
            apc = "yes"
        elif i < 80:
            apc = "unknown"
        else:
            apc = "no"
        journals[f"J{i}"] = JournalRecord(
            journal_id=f"J{i}",
            country="BR" if national else "US",
            is_fully_oa=True,
            has_apc=apc,
        )
        pub = PublicationRecord(
            pub_id=f"P{i}",
            doi=f"10.7/{i}",
            language="en" if is_english else "pt",
            journal_id=f"J{i}",
            institution_ids=frozenset({"U1"}),
            field_ids=frozenset({BIO}),
        )
        classified.append((pub, OATypeSet(gold=True), ()))
    (row,) = records(gold_country_model(fold(ClassifiedRows(institutions), classified), journals, min_universities=1))
    assert row["gold_total"] == 100
    assert row["national_share"] == Fraction(63, 100)
    assert row["english_share"] == Fraction(9, 10)
    assert row["apc_share"] == Fraction(1, 2)
    assert row["apc_known"] == 70
    # Lower bound: counting unknown APC as non-APC can only shrink the share.
    assert row["apc_share"] <= Fraction(50, 70)
    _passed(7, "gold model planted 0.63/0.90/0.50 recovered exactly as rationals")


def _write_big_fixture(tmp_path, n_lines=1_000_000, n_pubs=400):
    dump = tmp_path / "evidence_big.jsonl"
    location_variants = [
        '[{"host_type": "repository", "url": "https://www.ncbi.nlm.nih.gov/pmc/articles/PMC%d"}]',
        '[{"host_type": "repository", "url": "https://hdl.handle.net/20.500/%d"}]',
        '[{"host_type": "publisher", "url": "https://pub.example.com/%d", "license": "cc-by"}]',
        '[{"host_type": "publisher", "url": "https://pub.example.com/%d", "license": null}]',
        "[]",
    ]
    with dump.open("w", encoding="utf-8") as fh:
        for i in range(n_lines):
            variant = location_variants[i % 5]
            locations = variant % i if "%d" in variant else variant
            journal = "true" if i % 7 == 0 else "false"
            fh.write(f'{{"doi": "10.77/{i}", "journal_is_oa": {journal}, "oa_locations": {locations}}}\n')

    step = n_lines // n_pubs
    pubs = tmp_path / "pubs.csv"
    with pubs.open("w", encoding="utf-8") as fh:
        fh.write("pub_id,doi,year,doc_type,language,journal_id,institution_ids,field_ids\n")
        for k in range(n_pubs):
            inst = "U1" if k % 2 else "U2"
            fh.write(f"B{k:04d},10.77/{k * step},2015,article,en,J1,{inst},{BIO}\n")
    institutions = tmp_path / "institutions.csv"
    institutions.write_text(
        "inst_id,name,country,regions,repo_url_patterns\n"
        "U1,Big One,TR,Europe;Asia,repo.one.example\n"
        "U2,Big Two,GB,Europe,repo.two.example\n",
        encoding="utf-8",
    )
    journals = tmp_path / "journals.csv"
    journals.write_text(
        "journal_id,issns,country,is_fully_oa,has_apc,publisher_address\n"
        "J1,9999-9999,GB,false,no,\n",
        encoding="utf-8",
    )
    return dump, pubs, institutions, journals


def test_acceptance_8_streaming_memory_and_shard_determinism(tmp_path):
    started = time.monotonic()
    dump, pubs, institutions, journals = _write_big_fixture(tmp_path)

    probe = textwrap.dedent(
        """
        import resource, sys
        from oametrics.ingest import parse_evidence_stream
        count = sum(1 for _ in parse_evidence_stream(sys.argv[1]))
        print(count, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        """
    )
    result = subprocess.run(
        [sys.executable, "-c", probe, str(dump)],
        capture_output=True, text=True, check=True,
    )
    count, peak_kb = map(int, result.stdout.split())
    assert count == 1_000_000
    assert peak_kb < 512 * 1024, f"peak memory {peak_kb / 1024:.0f} MB"

    bundles = []
    for shards in ("1", "8"):
        out = tmp_path / f"out_{shards}"
        subprocess.run(
            [
                sys.executable, "-m", "oametrics", "report",
                "-p", str(pubs), "-e", str(dump),
                "-i", str(institutions), "-j", str(journals),
                "--shards", shards, "-o", str(out),
            ],
            capture_output=True, text=True, check=True,
        )
        bundles.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert bundles[0] == bundles[1]
    assert len(bundles[0]) == 12

    elapsed = time.monotonic() - started
    assert elapsed < 300, f"desk-scale run took {elapsed:.0f}s"
    _passed(
        8,
        f"1M-line dump: peak {peak_kb // 1024} MB < 512 MB; "
        f"1 vs 8 shards byte-identical; {elapsed:.0f}s < 300s",
    )


def test_acceptance_9_end_to_end_golden(golden_input, golden_dir, tmp_path):
    out = tmp_path / "bundle"
    subprocess.run(
        [
            sys.executable, "-m", "oametrics", "report",
            "-p", str(golden_input / "publications.csv"),
            "-e", str(golden_input / "evidence.jsonl"),
            "-i", str(golden_input / "institutions.csv"),
            "-j", str(golden_input / "journals.csv"),
            "--min-universities", "2", "--min-universities-gold", "2",
            "-o", str(out),
        ],
        capture_output=True, text=True, check=True,
    )
    produced = {p.name: p.read_bytes() for p in out.iterdir()}
    expected = {p.name: p.read_bytes() for p in golden_dir.iterdir()}
    assert set(produced) == set(expected)
    for name in sorted(expected):
        assert produced[name] == expected[name], f"{name} differs from golden file"
    _passed(9, f"20-publication golden bundle byte-identical ({len(expected)} files)")
