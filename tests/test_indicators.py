import math
import random
import statistics
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import cell_tables_oracle, fold, records

from oametrics.classifier import ClassifiedRows
from oametrics.indicators import (
    UNIVERSITIES_COLUMNS,
    _mean,
    _median,
    count_full,
    field_profile,
    field_summary,
    median_share_by_country,
    overlap_matrix,
    region_rollup,
    university_indicators,
)
from oametrics.models import (
    ALL_SCIENCES,
    MAIN_FIELDS,
    OA_TYPES,
    Institution,
    OATypeSet,
    PipelineConfig,
    PublicationRecord,
    Table,
    exact_share,
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
        language="en",
        journal_id="J1",
        institution_ids=frozenset(insts),
        field_ids=frozenset(fields),
    )
    return pub, types, ()


def _inst(inst_id, country="TR", regions=("Europe",)):
    return Institution(
        inst_id=inst_id, name=inst_id, country=country, regions=frozenset(regions)
    )


GREEN = OATypeSet(green=True)


def _universities(pubs, config=CONFIG):
    """The universities table of `pubs` under a roster of U1 alone."""
    return university_indicators(count_full(fold(ClassifiedRows(), pubs)), {"U1": _inst("U1")}, config)


def test_full_counting_credits_every_institution():
    counts = count_full(fold(ClassifiedRows(), [_cp("A", GREEN, insts=("U1", "U2"))]))
    assert counts[("U1", BIO, "green")] == 1
    assert counts[("U2", BIO, "green")] == 1
    assert counts[("U1", ALL_SCIENCES, "pubs")] == 1


def test_unaffiliated_publication_contributes_nothing():
    assert count_full(fold(ClassifiedRows(), [_cp("A", GREEN, insts=())])) == {}


def test_duplicate_affiliation_counts_once():
    counts = count_full(fold(ClassifiedRows(), [_cp("A", GREEN, insts=("U1", "U1"))]))
    assert counts[("U1", BIO, "green")] == 1
    assert counts[("U1", BIO, "pubs")] == 1


def test_multi_field_publication_counts_in_each_field_once_in_rollup():
    counts = count_full(fold(ClassifiedRows(), [_cp("A", GREEN, fields=(BIO, SSH))]))
    assert counts[("U1", BIO, "green")] == 1
    assert counts[("U1", SSH, "green")] == 1
    assert counts[("U1", ALL_SCIENCES, "green")] == 1


def test_doi_pubs_tracked_separately():
    counts = count_full(fold(ClassifiedRows(), [_cp("A", doi=None), _cp("B")]))
    assert counts[("U1", BIO, "pubs")] == 2
    assert counts[("U1", BIO, "doi_pubs")] == 1


def test_full_counting_identity_random_corpus():
    rng = random.Random(3)
    pubs = []
    for i in range(500):
        insts = tuple(rng.sample(["U1", "U2", "U3", "U4"], k=rng.randrange(0, 4)))
        pubs.append(_cp(f"P{i}", GREEN if rng.random() < 0.4 else OATypeSet(), insts=insts))
    counts = count_full(fold(ClassifiedRows(), pubs))
    total_credits = sum(
        n for (inst, field, metric), n in counts.items()
        if field == ALL_SCIENCES and metric == "pubs"
    )
    assert total_credits == sum(len(pub.institution_ids) for pub, _, _ in pubs)


def test_university_indicator_share():
    pubs = [_cp(f"P{i}", GREEN if i < 4 else OATypeSet()) for i in range(10)]
    rows = records(_universities(pubs))
    green = next(
        r for r in rows if r["field"] == BIO and r["oa_type"] == "green" and r["university"] == "U1"
    )
    assert green["share_pct"] == Fraction(2, 5)


def test_empty_field_yields_null_share_cell():
    rows = records(_universities([_cp("A")]))
    les = next(r for r in rows if r["field"] == LES and r["oa_type"] == "green")
    assert les["denominator"] == 0 and les["share_pct"] is None


def test_doi_denominator_mode():
    pubs = [_cp("A", GREEN), _cp("B", doi=None)]
    config = PipelineConfig(denominator_mode="doi_pubs")
    rows = records(_universities(pubs, config))
    green = next(r for r in rows if r["field"] == BIO and r["oa_type"] == "green")
    assert green["denominator"] == 1 and green["share_pct"] == Fraction(1, 1)


def test_high_green_share_formats_to_expected_percent():
    from oametrics.cli import format_pct

    assert format_pct(Fraction(1858, 2008)) == "92.5"


def _pairs(values):
    """The numerators and the denominators of `values`, as _median takes them."""
    return [value.numerator for value in values], [value.denominator for value in values]


def test_median_odd_and_even():
    assert _median(*_pairs([Fraction(2, 10), Fraction(4, 10), Fraction(9, 10)])) == Fraction(2, 5)
    assert _median(*_pairs([Fraction(2, 10), Fraction(4, 10)])) == Fraction(3, 10)
    assert _median(*_pairs([Fraction(1, 2)])) == Fraction(1, 2)
    with pytest.raises(ValueError):
        _median([], [])


def test_median_matches_statistics_reference():
    rng = random.Random(13)
    for _ in range(200):
        values = [Fraction(rng.randrange(0, 101), 100) for _ in range(rng.randrange(1, 12))]
        assert _median(*_pairs(values)) == statistics.median(values)


#: Distinct shares with the same float: NEAR_THIRD is the exact value of float(1/3).
THIRD, NEAR_THIRD = Fraction(1, 3), Fraction(6004799503160661, 18014398509481984)


def test_median_of_distinct_values_that_share_a_float():
    third, near = THIRD, Fraction(1 / 3)  # near is the float's exact value, just below 1/3
    assert near == NEAR_THIRD
    assert third != near and float(third) == float(near)
    # Sorted by float, the ties keep their order: [third, near, third] would put near in the middle.
    with mock.patch("oametrics.indicators.sorted", wraps=sorted, create=True) as sorts:
        assert _median(*_pairs([third, near, third])) == third
    assert len(sorts.call_args_list) == 2  # the float sort, then the exact one
    assert _median(*_pairs([third, near])) == (third + near) / 2
    values = [near, third, Fraction(1, 2), near]
    assert _median(*_pairs(values)) == statistics.median(values)


@given(st.lists(
    st.integers(1, 10**7).flatmap(lambda d: st.tuples(st.integers(0, 2 * d), st.just(d))), min_size=1, max_size=40,
))
@example([(2, 10), (4, 10), (9, 10)])  # odd: the middle ratio
@example([(2, 10), (4, 10)])  # even: the mean of the middle two
@example([(1, 2)])  # one ratio
@example([(1, 2), (0, 5), (3, 4)])  # odd, with a zero numerator
@example([(0, 3), (0, 3), (2, 6), (1, 3)])  # even, with repeated values and unreduced ratios
@example([(1, 3), (6004799503160661, 18014398509481984), (1, 3)])  # distinct ratios that share a float
@example([(6004799503160661, 18014398509481984), (1, 3)])
@example([(1, 2**61 - 1), (5, 2**31 - 1), (7, 1_000_003), (0, 3)])  # an lcm above 2**64
def test_integer_median_and_mean_match_fraction_arithmetic(ratios):
    numerators, denominators = map(list, zip(*ratios))
    values = [Fraction(n, d) for n, d in ratios]
    median, mean = _median(numerators, denominators), _mean(numerators, denominators)
    assert median == statistics.median(values) and type(median) is Fraction
    assert mean == sum(values, Fraction(0)) / len(values) and type(mean) is Fraction


def test_integer_median_and_mean_examples_cover_their_cases():
    assert float(THIRD) == float(NEAR_THIRD) and THIRD != NEAR_THIRD
    assert math.lcm(2**61 - 1, 2**31 - 1, 1_000_003, 3) > 2**64


@given(st.lists(st.fractions(min_value=0, max_value=1), min_size=1, max_size=20), st.randoms())
def test_median_permutation_invariant(values, rng):
    shuffled = list(values)
    rng.shuffle(shuffled)
    assert _median(*_pairs(shuffled)) == _median(*_pairs(values))


def _share_cells(shares_by_university, institutions, field=ALL_SCIENCES, oa_type="any"):
    """A universities table with one row per university; a None share is a zero denominator."""
    rows = []
    for inst_id, share in shares_by_university.items():
        numerator, denominator = (0, 0) if share is None else (share.numerator, share.denominator)
        rows.append((
            inst_id, institutions[inst_id].country, field, oa_type,
            numerator, denominator, exact_share(numerator, denominator),
        ))
    return Table("universities", UNIVERSITIES_COLUMNS, tuple(rows))


def test_country_median_threshold_excludes_small_countries():
    institutions = {}
    shares = {}
    for i in range(9):
        institutions[f"S{i}"] = _inst(f"S{i}", country="AA")
        shares[f"S{i}"] = Fraction(1, 2)
    for i in range(10):
        institutions[f"B{i}"] = _inst(f"B{i}", country="BB")
        shares[f"B{i}"] = Fraction(i, 10)
    rows = records(median_share_by_country(_share_cells(shares, institutions), min_universities=10))
    by_country = {r["country"]: r for r in rows}
    assert not by_country["AA"]["displayed"] and by_country["AA"]["n_universities"] == 9
    assert by_country["BB"]["displayed"]
    assert by_country["BB"]["median_pct"] == Fraction(9, 20)


def test_country_median_skips_null_shares():
    institutions = {"U1": _inst("U1", country="AA"), "U2": _inst("U2", country="AA")}
    cells = _share_cells({"U1": Fraction(1, 4), "U2": None}, institutions)
    (row,) = records(median_share_by_country(cells, min_universities=1))
    assert row["n_universities"] == 1 and row["median_pct"] == Fraction(1, 4)


def test_region_rollup_dual_region_university():
    institutions = {
        "U1": _inst("U1", country="TR", regions=("Europe", "Asia")),
        "U2": _inst("U2", country="GB", regions=("Europe",)),
    }
    cells = _share_cells({"U1": Fraction(1, 2), "U2": Fraction(1, 4)}, institutions)
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
        {"U1": Fraction(1, 10), "U2": Fraction(3, 10), "U3": Fraction(5, 10)}, institutions
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
    count = {r["metric"]: r["count"] for r in records(overlap_matrix(fold(ClassifiedRows(), pubs)))}
    assert count["total_oa"] == 3
    assert {t: count[t] for t in OA_TYPES} == {"gold": 1, "green": 2, "hybrid": 0, "bronze": 1}
    assert {t: count[f"green_and_{t}"] for t in PUBLISHER_SIDE} == {"gold": 1, "hybrid": 0, "bronze": 0}
    assert {t: count[f"exclusive_{t}"] for t in PUBLISHER_SIDE + ("green_only",)} == {
        "green_only": 1, "gold": 1, "hybrid": 0, "bronze": 1,
    }


def test_overlap_matrix_empty_corpus():
    count = {r["metric"]: r["count"] for r in records(overlap_matrix(fold(ClassifiedRows(), [])))}
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
    count = {r["metric"]: r["count"] for r in records(overlap_matrix(fold(ClassifiedRows(), pubs)))}
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
        count = {r["metric"]: r["count"] for r in records(overlap_matrix(fold(ClassifiedRows(), pubs)))}
        exclusive = PUBLISHER_SIDE + ("green_only",)
        assert sum(count[f"exclusive_{t}"] for t in exclusive) == count["total_oa"]


def test_field_profile_single_field_university():
    cells = _universities([_cp("A", GREEN, fields=(BIO,))])
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
    rows = records(field_profile(_universities(pubs)))
    profile = {(r["field"], r["oa_type"]): r["share_pct"] for r in rows}
    assert [profile[(f, "green")] for f in MAIN_FIELDS] == [Fraction(1, 2)] * 5


def test_field_summary_medians_and_means():
    cells = _share_cells(
        {"U1": Fraction(1, 4), "U2": Fraction(3, 4)}, {"U1": _inst("U1"), "U2": _inst("U2")},
        field=BIO, oa_type="green",
    )
    rows = {(r["field"], r["oa_type"]): r for r in records(field_summary(cells))}
    row = rows[(BIO, "green")]
    assert row["n_universities"] == 2
    assert row["median_pct"] == Fraction(1, 2) and row["mean_pct"] == Fraction(1, 2)
    empty = rows[(MCS, "green")]
    assert empty["n_universities"] == 0 and empty["median_pct"] is None and empty["mean_pct"] is None


def _generated_store(seed: int = 23):
    """(counts, institutions) of about 175 roster universities, with every case the cell tables branch on.

    Publications affiliate with roster ids and off-roster ones, in one or
    two fields, so some fields of a university have no publications; some
    countries have two regions. Three universities of one country get
    all-sciences green shares of 1/3 and of the distinct ratio that
    shares its float, set directly in the counts.
    """
    rng = random.Random(seed)
    countries = {f"C{i:02d}": frozenset(rng.sample(["Europe", "Asia", "Africa", "Americas"], rng.choice((1, 1, 2))))
                 for i in range(24)}
    institutions = {}
    for i in range(172):
        country = rng.choice(sorted(countries))
        institutions[f"U{i:03d}"] = _inst(f"U{i:03d}", country, countries[country])
    ids = sorted(institutions) + [f"X{i}" for i in range(20)]  # X ids are not on the roster
    outcomes = [OATypeSet(**{t: True}) for t in OA_TYPES] + [OATypeSet(), OATypeSet(gold=True, green=True)]
    pubs = [
        _cp(f"P{i}", rng.choice(outcomes), insts=rng.sample(ids, rng.randint(1, 3)),
            fields=rng.sample(MAIN_FIELDS, rng.choice((1, 1, 2))), doi=rng.choice(("default", None)))
        for i in range(4_000)
    ]
    counts = count_full(fold(ClassifiedRows(), pubs))
    for inst_id, (numerator, denominator) in zip(("T1", "T2", "T3"), ((1, 3), (NEAR_THIRD.numerator, NEAR_THIRD.denominator), (2, 6))):
        institutions[inst_id] = _inst(inst_id, "TT", ("Europe",))
        for metric, n in (("pubs", denominator), ("doi_pubs", denominator), ("green", numerator), ("any", numerator)):
            counts[(inst_id, ALL_SCIENCES, metric)] = n
    return counts, institutions


@pytest.mark.parametrize("denominator_mode", ["all_pubs", "doi_pubs"])
def test_cell_tables_match_a_brute_force_oracle_at_scale(denominator_mode):
    counts, institutions = _generated_store()
    config = PipelineConfig(min_universities_country=5, denominator_mode=denominator_mode)
    universities = university_indicators(counts, institutions, config)
    built = {
        "universities": universities,
        "field_summary": field_summary(universities),
        "country_medians_full": median_share_by_country(universities, config.min_universities_country),
        "region_medians": region_rollup(universities, institutions),
        "profiles": field_profile(universities),
    }
    expected = cell_tables_oracle(counts, institutions, config)
    for name, table in built.items():
        rows = list(table.rows)
        assert len(rows) == len(expected[name]), name
        for row, expected_row in zip(rows, expected[name]):
            assert row == expected_row, (name, row, expected_row)
            assert list(map(type, row)) == list(map(type, expected_row)), (name, row, expected_row)
    # The data holds every case the builders branch on.
    cells = expected["universities"]
    assert any(row[5] == 0 for row in cells) and any(row[5] for row in cells)
    assert any(len(institutions[row[0]].regions) == 2 for row in cells)
    assert any(inst_id not in institutions for inst_id, _, _ in counts)
    shares = {row[6] for row in cells if row[2] == ALL_SCIENCES and row[3] == "green" and row[6] is not None}
    assert {THIRD, NEAR_THIRD} <= shares
    assert len(universities.rows) == 30 * len({row[0] for row in cells}) >= 30 * 170
