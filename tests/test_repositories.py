import random
from fractions import Fraction

from hypothesis import example, given
from hypothesis import strategies as st

from oracles import evidence, fold, pub_loc, records, repo_loc

from oametrics.classifier import ClassifiedRows, _pmc_flags, classify
from oametrics.models import (
    MAIN_FIELDS,
    Institution,
    OATypeSet,
    PipelineConfig,
    PublicationRecord,
)
from oametrics import models, repositories
from oametrics.repositories import normalize_url, pmc_overlap_table, repo_share_bounds

BIO = MAIN_FIELDS[0]
CONFIG = PipelineConfig()


def test_normalize_url_strips_scheme_www_and_slash():
    assert normalize_url("HTTPS://www.Repo.Edu/x/") == "repo.edu/x"


def test_normalize_url_fixed_point():
    assert normalize_url("repo.edu/x") == "repo.edu/x"


def test_normalize_url_empty():
    assert normalize_url("") == ""


@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=60))
@example(url="0 /")
@example(url="http:// www.x")
@example(url="www.www.x")
@example(url="http://http://x/ /")
def test_normalize_url_idempotent_and_case_insensitive(url):
    once = normalize_url(url)
    assert normalize_url(once) == once
    assert normalize_url(url.upper()) == normalize_url(url.lower())


def _inst(patterns=("repo.alpha.edu.tr",), country="TR", inst_id="U1"):
    return Institution(
        inst_id=inst_id,
        name=inst_id,
        country=country,
        regions=frozenset({"Europe"}),
        repo_url_patterns=tuple(patterns),
    )


def _cp(pub_id, types, locations=(), inst_ids=("U1",)):
    pub = PublicationRecord(
        pub_id=pub_id,
        doi=f"10.1/{pub_id.lower()}",
        language="en",
        journal_id="J1",
        institution_ids=frozenset(inst_ids),
        field_ids=frozenset({BIO}),
    )
    return pub, types, evidence(locations=locations).repository_urls


GREEN = OATypeSet(green=True)


def _pmc_overlap(institutions, pubs):
    """The pmc_overlap table of `pubs` under `institutions` and CONFIG's URL patterns."""
    return pmc_overlap_table(fold(ClassifiedRows(institutions, CONFIG.handle_pattern, CONFIG.pmc_url_patterns), pubs))


def _matched(locations, inst) -> tuple[bool, bool]:
    """(lower, upper) of the repo_bounds row for one green publication of `inst`."""
    bounds = fold(ClassifiedRows({"U1": inst}, "hdl.handle.net"), [_cp("A", GREEN, locations)])
    (row,) = records(repo_share_bounds(bounds))
    return bool(row["matched_lower"]), bool(row["matched_upper"])


def test_match_institutional_url():
    inst = _inst(("repository.bilkent.edu.tr",))
    match = _matched([repo_loc("https://repository.bilkent.edu.tr/handle/11693/1")], inst)
    assert match == (True, True)


def test_handle_url_matches_upper_bound_only():
    inst = _inst(("repository.other.edu",))
    assert _matched([repo_loc("https://hdl.handle.net/10012/345")], inst) == (False, True)


def test_publisher_locations_never_match():
    # A non-matching repository copy makes the publication green.
    inst = _inst(("repo.alpha.edu.tr",))
    locations = [
        pub_loc(url="https://repo.alpha.edu.tr/fake"),
        pub_loc(url="https://hdl.handle.net/1"),
        repo_loc("https://zenodo.org/1"),
    ]
    assert _matched(locations, inst) == (False, False)


def test_match_is_case_and_order_invariant():
    inst = _inst(("repo.alpha.edu.tr",))
    locations = [repo_loc("HTTPS://REPO.ALPHA.EDU.TR/ITEM/9"), repo_loc("https://other.org/x")]
    for ordering in (locations, locations[::-1]):
        lower, _ = _matched(ordering, inst)
        assert lower


def test_repo_match_invariant():
    # A URL under the institution's own pattern and not under the handle
    # pattern matches the upper bound too: lower never holds without upper.
    inst = _inst(("repo.alpha.edu.tr",))
    for locations in (
        [repo_loc("https://repo.alpha.edu.tr/item/1")],
        [repo_loc("https://zenodo.org/2"), repo_loc("https://repo.alpha.edu.tr/item/1")],
    ):
        assert _matched(locations, inst) == (True, True)


def test_lower_implies_upper_on_random_fixtures():
    rng = random.Random(7)
    hosts = ["repo.alpha.edu.tr", "archive.beta.ac.uk", "hdl.handle.net", "zenodo.org"]
    for _ in range(300):
        locations = [
            repo_loc(f"https://{rng.choice(hosts)}/item/{rng.randrange(100)}")
            for _ in range(rng.randrange(4))
        ]
        inst = _inst((rng.choice(hosts),))
        lower, upper = _matched(locations, inst)
        assert upper or not lower


def test_repo_share_bounds_interval():
    inst = _inst(("repo.alpha.edu.tr",))
    pubs = [
        _cp("A", GREEN, [repo_loc("https://repo.alpha.edu.tr/1")]),
        _cp("B", GREEN, [repo_loc("https://hdl.handle.net/2")]),
        _cp("C", GREEN, [repo_loc("https://hdl.handle.net/3")]),
        _cp("D", GREEN, [repo_loc("https://zenodo.org/4")]),
        _cp("E", OATypeSet(bronze=True), [pub_loc()]),
    ]
    (row,) = records(repo_share_bounds(fold(ClassifiedRows({"U1": inst}, "hdl.handle.net"), pubs)))
    assert (row["green_pubs"], row["matched_lower"], row["matched_upper"]) == (4, 1, 3)
    assert row["pct_repo_lower"] == Fraction(1, 4)
    assert row["pct_repo_upper"] == Fraction(3, 4)


def test_repo_share_bounds_empty_interval():
    pubs = [_cp("A", OATypeSet(bronze=True), [pub_loc()])]
    (row,) = records(repo_share_bounds(fold(ClassifiedRows({"U1": _inst()}, "hdl.handle.net"), pubs)))
    assert row["green_pubs"] == 0
    assert row["pct_repo_lower"] is None and row["pct_repo_upper"] is None


def test_repo_share_row_invariant():
    # Own-pattern matches count in both bounds, handle-only matches in the
    # upper one alone, and non-green output only in pubs.
    inst = _inst(("repo.alpha.edu.tr",))
    pubs = [
        _cp("A", GREEN, [repo_loc("https://repo.alpha.edu.tr/1")]),
        _cp("B", GREEN, [repo_loc("https://repo.alpha.edu.tr/2"), repo_loc("https://hdl.handle.net/2")]),
        _cp("C", GREEN, [repo_loc("https://hdl.handle.net/3")]),
        _cp("D", OATypeSet(bronze=True), [pub_loc()]),
    ]
    (row,) = records(repo_share_bounds(fold(ClassifiedRows({"U1": inst}, "hdl.handle.net"), pubs)))
    assert (row["pubs"], row["green_pubs"], row["matched_lower"], row["matched_upper"]) == (4, 3, 2, 3)
    assert 0 <= row["matched_lower"] <= row["matched_upper"] <= row["green_pubs"] <= row["pubs"]
    assert row["pct_repo_lower"] <= row["pct_repo_upper"] <= 1


def _pmc_count(locations) -> int:
    """The pmc column for one green publication with these locations."""
    (row,) = records(_pmc_overlap({"U1": _inst()}, [_cp("A", GREEN, locations)]))
    return row["pmc"]


def test_detect_pmc_repository_url():
    assert _pmc_count([repo_loc("https://www.ncbi.nlm.nih.gov/pmc/articles/PMC123")]) == 1


def test_detect_pmc_ignores_publisher_hosts():
    assert _pmc_count(
        [pub_loc(url="https://publisher.example.com/pmc/x"), repo_loc("https://zenodo.org/1")]
    ) == 0


def test_detect_pmc_other_repository():
    assert _pmc_count([repo_loc("https://arxiv.org/abs/1906.03840")]) == 0


PMC_URL = "https://www.ncbi.nlm.nih.gov/pmc/articles/PMC1"


def test_pmc_overlap_counts_by_hand():
    institutions = {"U1": _inst(country="TR")}
    pubs = [
        _cp("A", GREEN, [repo_loc(PMC_URL), repo_loc("https://arxiv.org/abs/1")]),
        _cp("B", GREEN, [repo_loc(PMC_URL)]),
        _cp("C", GREEN, [repo_loc("https://zenodo.org/2")]),
    ]
    (row,) = records(_pmc_overlap(institutions, pubs))
    assert (row["green_oa"], row["pmc"], row["pmc_only"]) == (3, 2, 1)


def test_pmc_overlap_zero_green_country():
    institutions = {"U1": _inst(country="TR")}
    pubs = [_cp("A", OATypeSet(bronze=True), [pub_loc()])]
    (row,) = records(_pmc_overlap(institutions, pubs))
    assert (row["green_oa"], row["pmc"], row["pmc_only"]) == (0, 0, 0)
    assert row["pct_gold"] is None and row["pct_bronze"] is None and row["pct_hybrid"] is None


def test_pmc_overlap_percentages_over_pmc_pubs():
    institutions = {"U1": _inst(country="TR")}
    pubs = [
        _cp("A", OATypeSet(gold=True, green=True), [pub_loc("cc-by"), repo_loc(PMC_URL)]),
        _cp("B", GREEN, [repo_loc(PMC_URL)]),
    ]
    (row,) = records(_pmc_overlap(institutions, pubs))
    assert row["pct_gold"] == Fraction(1, 2)
    assert row["pct_bronze"] == 0 and row["pct_hybrid"] == 0


def test_pmc_rows_sorted_by_share_desc_then_country():
    institutions = {
        "U1": _inst(country="AA", inst_id="U1"),
        "U2": _inst(country="BB", inst_id="U2"),
        "U3": _inst(country="CC", inst_id="U3"),
    }
    pubs = [
        _cp("A", GREEN, [repo_loc(PMC_URL)], inst_ids=("U2",)),
        _cp("B", GREEN, [repo_loc("https://zenodo.org/1")], inst_ids=("U1",)),
        _cp("C", GREEN, [repo_loc(PMC_URL)], inst_ids=("U1",)),
        _cp("D", OATypeSet(), (), inst_ids=("U3",)),
    ]
    rows = records(_pmc_overlap(institutions, pubs))
    assert [r["country"] for r in rows] == ["BB", "AA", "CC"]


def test_pmc_implies_green_via_classifier():
    rng = random.Random(11)
    for _ in range(200):
        locations = []
        if rng.random() < 0.5:
            locations.append(repo_loc(PMC_URL))
        if rng.random() < 0.5:
            locations.append(pub_loc(rng.choice([None, "cc-by"])))
        if rng.random() < 0.3:
            locations.append(repo_loc("https://zenodo.org/9"))
        record = evidence(journal_is_oa=rng.random() < 0.3, locations=locations)
        via_pmc, _ = _pmc_flags(record.repository_urls, CONFIG.pmc_url_patterns)
        types = classify(record)
        if via_pmc:
            assert types.green


def test_pmc_chain_invariant_on_random_corpora():
    rng = random.Random(23)
    institutions = {"U1": _inst(country="TR")}
    pubs = []
    for i in range(400):
        locations = []
        if rng.random() < 0.6:
            locations.append(repo_loc(rng.choice([PMC_URL, "https://zenodo.org/1"])))
        if rng.random() < 0.4:
            locations.append(pub_loc(rng.choice([None, "cc-by"])))
        types = classify(evidence(journal_is_oa=rng.random() < 0.2, locations=locations))
        pubs.append(_cp(f"P{i}", types, locations))
    (row,) = records(_pmc_overlap(institutions, pubs))
    assert 0 <= row["pmc_only"] <= row["pmc"] <= row["green_oa"]


def test_tables_read_the_stored_urls_without_normalizing(monkeypatch):
    institutions = {"U1": _inst(("repo.alpha.edu.tr",), country="TR")}
    pubs = [
        _cp("A", GREEN, [repo_loc("https://REPO.alpha.edu.tr/1/"), repo_loc(PMC_URL)]),
        _cp("B", GREEN, [repo_loc("https://hdl.handle.net/2")]),
        _cp("C", OATypeSet(bronze=True), [pub_loc()]),
    ]

    def fail(url):
        raise AssertionError(f"normalize_url called on {url!r}")

    monkeypatch.setattr(models, "normalize_url", fail)
    monkeypatch.setattr(repositories, "normalize_url", fail)
    (bounds,) = records(repo_share_bounds(fold(ClassifiedRows(institutions, CONFIG.handle_pattern), pubs)))
    (pmc,) = records(_pmc_overlap(institutions, pubs))
    assert (bounds["green_pubs"], bounds["matched_lower"], bounds["matched_upper"]) == (2, 1, 2)
    assert (pmc["green_oa"], pmc["pmc"], pmc["pmc_only"]) == (2, 1, 0)
