import random
import statistics
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import records

from oametrics.classifier import ClassifiedPublication
from oametrics.indicators import (
    count_full,
    field_profile,
    field_summary,
    median_exact,
    median_share_by_country,
    overlap_matrix,
    region_rollup,
    university_indicators,
)
from oametrics.models import (
    ALL_SCIENCES,
    MAIN_FIELDS,
    OA_TYPES,
    IndicatorCell,
    Institution,
    OATypeSet,
    PipelineConfig,
    PublicationRecord,
)

BIO, LES, MCS, PSE, SSH = MAIN_FIELDS
PUBLISHER_SIDE = ("gold", "hybrid", "bronze")
CONFIG = PipelineConfig()


def _cp(pub_id, types=OATypeSet(), insts=("U1",), fields=(BIO,), doi="default"):
    if doi == "default":
        doi = f"10.1/{pub_id.lower()}"
    pub = PublicationRecord(
        pub_id=pub_id,
        doi=doi,
        year=2015,
        doc_type="article",
        language="en",
        journal_id="J1",
        institution_ids=frozenset(insts),
        field_ids=frozenset(fields),
    )
    return ClassifiedPublication(publication=pub, types=types)


def _inst(inst_id, country="TR", regions=("Europe",)):
    return Institution(
        inst_id=inst_id, name=inst_id, country=country, regions=frozenset(regions)
    )


GREEN = OATypeSet(green=True)


def test_full_counting_credits_every_institution():
    counts = count_full([_cp("A", GREEN, insts=("U1", "U2"))])
    assert counts[("U1", BIO, "green")] == 1
    assert counts[("U2", BIO, "green")] == 1
    assert counts[("U1", ALL_SCIENCES, "pubs")] == 1


def test_unaffiliated_publication_contributes_nothing():
    assert count_full([_cp("A", GREEN, insts=())]) == {}


def test_duplicate_affiliation_counts_once():
    counts = count_full([_cp("A", GREEN, insts=("U1", "U1"))])
    assert counts[("U1", BIO, "green")] == 1
    assert counts[("U1", BIO, "pubs")] == 1


def test_multi_field_publication_counts_in_each_field_once_in_rollup():
    counts = count_full([_cp("A", GREEN, fields=(BIO, SSH))])
    assert counts[("U1", BIO, "green")] == 1
    assert counts[("U1", SSH, "green")] == 1
    assert counts[("U1", ALL_SCIENCES, "green")] == 1


def test_doi_pubs_tracked_separately():
    counts = count_full([_cp("A", doi=None), _cp("B")])
    assert counts[("U1", BIO, "pubs")] == 2
    assert counts[("U1", BIO, "doi_pubs")] == 1


def test_full_counting_identity_random_corpus():
    rng = random.Random(3)
    pubs = []
    for i in range(500):
        insts = tuple(rng.sample(["U1", "U2", "U3", "U4"], k=rng.randrange(0, 4)))
        pubs.append(_cp(f"P{i}", GREEN if rng.random() < 0.4 else OATypeSet(), insts=insts))
    counts = count_full(pubs)
    total_credits = sum(
        n for (inst, field, metric), n in counts.items()
        if field == ALL_SCIENCES and metric == "pubs"
    )
    assert total_credits == sum(len(cp.publication.institution_ids) for cp in pubs)


def test_university_indicator_share():
    pubs = [_cp(f"P{i}", GREEN if i < 4 else OATypeSet()) for i in range(10)]
    cells = university_indicators(count_full(pubs), CONFIG)
    green = next(
        c for c in cells if c.field == BIO and c.oa_type == "green" and c.scope_id == "U1"
    )
    assert green.share == Fraction(2, 5)


def test_empty_field_yields_null_share_cell():
    cells = university_indicators(count_full([_cp("A")]), CONFIG)
    les = next(c for c in cells if c.field == LES and c.oa_type == "green")
    assert les.denominator == 0 and les.share is None


def test_doi_denominator_mode():
    pubs = [_cp("A", GREEN), _cp("B", doi=None)]
    config = PipelineConfig(denominator_mode="doi_pubs")
    cells = university_indicators(count_full(pubs), config)
    green = next(c for c in cells if c.field == BIO and c.oa_type == "green")
    assert green.denominator == 1 and green.share == Fraction(1, 1)


def test_high_green_share_formats_to_expected_percent():
    from oametrics.cli import format_pct

    assert format_pct(Fraction(1858, 2008)) == "92.5"


def test_median_odd_and_even():
    assert median_exact([Fraction(2, 10), Fraction(4, 10), Fraction(9, 10)]) == Fraction(2, 5)
    assert median_exact([Fraction(2, 10), Fraction(4, 10)]) == Fraction(3, 10)
    assert median_exact([Fraction(1, 2)]) == Fraction(1, 2)
    with pytest.raises(ValueError):
        median_exact([])


def test_median_matches_statistics_reference():
    rng = random.Random(13)
    for _ in range(200):
        values = [Fraction(rng.randrange(0, 101), 100) for _ in range(rng.randrange(1, 12))]
        assert median_exact(values) == statistics.median(values)


@given(st.lists(st.fractions(min_value=0, max_value=1), min_size=1, max_size=20), st.randoms())
def test_median_permutation_invariant(values, rng):
    shuffled = list(values)
    rng.shuffle(shuffled)
    assert median_exact(shuffled) == median_exact(values)


def _share_cells(shares_by_university, field=ALL_SCIENCES, oa_type="any"):
    cells = []
    for inst_id, share in shares_by_university.items():
        cells.append(
            IndicatorCell(
                scope_id=inst_id,
                field=field,
                oa_type=oa_type,
                numerator=share.numerator,
                denominator=share.denominator,
            )
        )
    return cells


def test_country_median_threshold_excludes_small_countries():
    institutions = {}
    shares = {}
    for i in range(9):
        institutions[f"S{i}"] = _inst(f"S{i}", country="AA")
        shares[f"S{i}"] = Fraction(1, 2)
    for i in range(10):
        institutions[f"B{i}"] = _inst(f"B{i}", country="BB")
        shares[f"B{i}"] = Fraction(i, 10)
    rows = records(median_share_by_country(_share_cells(shares), institutions, min_universities=10))
    by_country = {r["country"]: r for r in rows}
    assert not by_country["AA"]["displayed"] and by_country["AA"]["n_universities"] == 9
    assert by_country["BB"]["displayed"]
    assert by_country["BB"]["median_pct"] == Fraction(9, 20)


def test_country_median_skips_null_shares():
    institutions = {"U1": _inst("U1", country="AA"), "U2": _inst("U2", country="AA")}
    cells = _share_cells({"U1": Fraction(1, 4)})
    cells.append(IndicatorCell("U2", ALL_SCIENCES, "any", 0, 0))
    (row,) = records(median_share_by_country(cells, institutions, min_universities=1))
    assert row["n_universities"] == 1 and row["median_pct"] == Fraction(1, 4)


def test_region_rollup_dual_region_university():
    institutions = {
        "U1": _inst("U1", country="TR", regions=("Europe", "Asia")),
        "U2": _inst("U2", country="GB", regions=("Europe",)),
    }
    cells = _share_cells({"U1": Fraction(1, 2), "U2": Fraction(1, 4)})
    rows = {r["region"]: r for r in records(region_rollup(cells, institutions))}
    assert rows["Asia"]["median_pct"] == Fraction(1, 2) and rows["Asia"]["n_universities"] == 1
    assert rows["Europe"]["median_pct"] == Fraction(3, 8) and rows["Europe"]["n_universities"] == 2
    assert set(rows) == {"Asia", "Europe"}


def test_region_median_three_universities():
    institutions = {
        "U1": _inst("U1", country="AA", regions=("Europe",)),
        "U2": _inst("U2", country="AA", regions=("Europe",)),
        "U3": _inst("U3", country="BB", regions=("Europe",)),
    }
    cells = _share_cells(
        {"U1": Fraction(1, 10), "U2": Fraction(3, 10), "U3": Fraction(5, 10)}
    )
    (row,) = records(region_rollup(cells, institutions))
    assert row["median_pct"] == Fraction(3, 10)


def test_overlap_matrix_by_hand():
    pubs = [
        _cp("A", OATypeSet(gold=True, green=True)),
        _cp("B", GREEN),
        _cp("C", OATypeSet(bronze=True)),
        _cp("D", OATypeSet()),
    ]
    count = {r["metric"]: r["count"] for r in records(overlap_matrix(pubs))}
    assert count["total_oa"] == 3
    assert {t: count[t] for t in OA_TYPES} == {"gold": 1, "green": 2, "hybrid": 0, "bronze": 1}
    assert {t: count[f"green_and_{t}"] for t in PUBLISHER_SIDE} == {"gold": 1, "hybrid": 0, "bronze": 0}
    assert {t: count[f"exclusive_{t}"] for t in PUBLISHER_SIDE + ("green_only",)} == {
        "green_only": 1, "gold": 1, "hybrid": 0, "bronze": 1,
    }


def test_overlap_matrix_empty_corpus():
    count = {r["metric"]: r["count"] for r in records(overlap_matrix([]))}
    assert count["total_oa"] == 0
    assert sum(count[t] for t in OA_TYPES) == 0


def test_overlap_matrix_invariants_enforced():
    # Every combination of one publisher-side type (or none) with or
    # without green, so that each type overlaps green at least once.
    pubs = [
        _cp(f"P{publisher}{green}", OATypeSet(green=green, **({publisher: True} if publisher else {})))
        for publisher in (None,) + PUBLISHER_SIDE
        for green in (False, True)
    ]
    count = {r["metric"]: r["count"] for r in records(overlap_matrix(pubs))}
    assert count["total_oa"] == 7
    for oa_type in OA_TYPES:
        assert count[oa_type] <= count["total_oa"]
    for oa_type in PUBLISHER_SIDE:
        assert count[f"green_and_{oa_type}"] == 1 <= min(count["green"], count[oa_type])
    exclusive = PUBLISHER_SIDE + ("green_only",)
    assert sum(count[f"exclusive_{t}"] for t in exclusive) == count["total_oa"]


def test_partition_identity_random_corpora():
    rng = random.Random(17)
    for _ in range(20):
        pubs = []
        for i in range(300):
            publisher = rng.choice([None, "gold", "hybrid", "bronze"])
            green = rng.random() < 0.5
            types = OATypeSet(
                gold=publisher == "gold",
                hybrid=publisher == "hybrid",
                bronze=publisher == "bronze",
                green=green,
            )
            pubs.append(_cp(f"P{i}", types))
        count = {r["metric"]: r["count"] for r in records(overlap_matrix(pubs))}
        exclusive = PUBLISHER_SIDE + ("green_only",)
        assert sum(count[f"exclusive_{t}"] for t in exclusive) == count["total_oa"]


def test_field_profile_single_field_university():
    cells = university_indicators(count_full([_cp("A", GREEN, fields=(BIO,))]), CONFIG)
    rows = records(field_profile(cells))
    profile = {(r["field"], r["oa_type"]): r["share_pct"] for r in rows}
    assert list(dict.fromkeys(r["field"] for r in rows)) == list(MAIN_FIELDS)
    assert profile[(BIO, "green")] == Fraction(1, 1)
    assert all(r["share_pct"] is None for r in rows if r["field"] == SSH)
    assert "any" not in {r["oa_type"] for r in rows}


def test_field_profile_constant_column():
    pubs = []
    for i, field_name in enumerate(MAIN_FIELDS):
        pubs.append(_cp(f"G{i}", GREEN, fields=(field_name,)))
        pubs.append(_cp(f"N{i}", OATypeSet(), fields=(field_name,)))
    rows = records(field_profile(university_indicators(count_full(pubs), CONFIG)))
    profile = {(r["field"], r["oa_type"]): r["share_pct"] for r in rows}
    assert [profile[(f, "green")] for f in MAIN_FIELDS] == [Fraction(1, 2)] * 5


def test_field_summary_medians_and_means():
    cells = _share_cells(
        {"U1": Fraction(1, 4), "U2": Fraction(3, 4)}, field=BIO, oa_type="green"
    )
    rows = {(r["field"], r["oa_type"]): r for r in records(field_summary(cells))}
    row = rows[(BIO, "green")]
    assert row["n_universities"] == 2
    assert row["median_pct"] == Fraction(1, 2) and row["mean_pct"] == Fraction(1, 2)
    empty = rows[(MCS, "green")]
    assert empty["n_universities"] == 0 and empty["median_pct"] is None and empty["mean_pct"] is None
