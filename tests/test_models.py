
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oametrics.models import (
    MAIN_FIELDS,
    Institution,
    JournalRecord,
    OATypeSet,
    PipelineConfig,
    PublicationRecord,
    normalize_doi,
)

BIO = MAIN_FIELDS[0]


def test_normalize_doi_strips_resolver_and_lowercases():
    assert normalize_doi("https://doi.org/10.7717/PEERJ.4375") == "10.7717/peerj.4375"


def test_normalize_doi_fixed_point():
    assert normalize_doi("10.1000/x") == "10.1000/x"


def test_normalize_doi_rejects_non_doi():
    assert normalize_doi("not-a-doi") is None


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("doi:10.1/ab", "10.1/ab"),
        ("DOI:10.1/AB", "10.1/ab"),
        ("http://dx.doi.org/10.5/X", "10.5/x"),
        ("https://dx.doi.org/10.5/x", "10.5/x"),
        ("doi:https://doi.org/10.9/z", "10.9/z"),
        ("  10.1/a  ", "10.1/a"),
        ("", None),
        ("doi:", None),
        ("9.1/a", None),
        ("10.", None),
        ("10.5", None),
        ("10./x", None),
        ("10.1/", None),
        (None, None),
    ],
)
def test_normalize_doi_variants(raw, expected):
    assert normalize_doi(raw) == expected


@given(st.text(max_size=60))
def test_normalize_doi_idempotent(raw):
    once = normalize_doi(raw)
    if once is not None:
        assert normalize_doi(once) == once


def _normalize_doi_by_prefix_loop(raw):
    """normalize_doi as a plain prefix-stripping loop, kept as the reference."""
    if raw is None:
        return None
    doi = raw.strip().lower()
    stripped = True
    while stripped:
        stripped = False
        for prefix in ("doi:", "https://doi.org/", "http://doi.org/",
                       "https://dx.doi.org/", "http://dx.doi.org/"):
            if doi.startswith(prefix):
                doi = doi[len(prefix):].strip()
                stripped = True
    if not doi.startswith("10.") or "/" not in doi:
        return None
    registrant, suffix = doi[len("10."):].split("/", 1)
    return doi if registrant and suffix else None


_SPELLED_DOIS = st.builds(
    lambda pad, prefixes, doi, upper: pad + "".join(prefixes) + (doi.upper() if upper else doi) + pad,
    st.sampled_from(["", " ", "\t", " \n"]),
    st.lists(
        st.sampled_from(["doi:", "DOI: ", "https://doi.org/", "HTTP://DX.DOI.ORG/", "10."]),
        max_size=3,
    ),
    st.text(max_size=20).map(lambda tail: "10." + tail),
    st.booleans(),
)


@given(st.one_of(st.text(max_size=60), _SPELLED_DOIS))
def test_normalize_doi_matches_prefix_loop(raw):
    assert normalize_doi(raw) == _normalize_doi_by_prefix_loop(raw)


@pytest.mark.parametrize("flags", [
    {"gold": True, "hybrid": True},
    {"gold": True, "bronze": True},
    {"hybrid": True, "bronze": True},
    {"gold": True, "hybrid": True, "bronze": True},
])
def test_typeset_exclusivity_enforced(flags):
    with pytest.raises(ValueError):
        OATypeSet(**flags)


def test_typeset_any_oa_is_derived():
    assert not OATypeSet().any_oa
    assert OATypeSet(green=True).any_oa
    assert OATypeSet(gold=True, green=True).any_oa
    assert OATypeSet(bronze=True).any_oa


def test_typeset_has_lookup():
    ts = OATypeSet(gold=True, green=True)
    assert ts.has("gold") and ts.has("green") and ts.has("any")
    assert not ts.has("hybrid")
    with pytest.raises(ValueError):
        ts.has("diamond")


def _pub(**overrides):
    base = dict(
        pub_id="P1",
        doi="10.1/a",
        language="en",
        journal_id="J1",
        institution_ids=frozenset({"U1"}),
        field_ids=frozenset({BIO}),
    )
    base.update(overrides)
    return PublicationRecord(**base)


def test_publication_requires_fields():
    with pytest.raises(ValueError):
        _pub(field_ids=frozenset())
    with pytest.raises(ValueError):
        _pub(field_ids=frozenset({"Alchemy"}))


def test_publication_requires_a_pub_id():
    with pytest.raises(ValueError, match="pub_id must be non-empty"):
        _pub(pub_id="")


def test_publication_requires_normalized_doi():
    with pytest.raises(ValueError):
        _pub(doi="https://doi.org/10.1/a")
    assert _pub(doi=None).doi is None


def test_publication_duplicate_affiliations_collapse():
    pub = _pub(institution_ids=["U1", "U1", "U2"])
    assert pub.institution_ids == ("U1", "U2")


def test_institution_requires_region():
    with pytest.raises(ValueError):
        Institution(inst_id="U1", name="U", country="TR", regions=frozenset())


def test_url_patterns_are_stored_normalized():
    inst = Institution(
        inst_id="U1", name="U", country="TR", regions={"Europe"},
        repo_url_patterns=("HTTPS://www.Repo.Alpha.edu.tr/", "https://", "repo.beta.ac.uk"),
    )
    assert inst.repo_url_patterns == ("repo.alpha.edu.tr", "repo.beta.ac.uk")
    config = PipelineConfig(
        handle_pattern="http://HDL.handle.net/", pmc_url_patterns=["https://www.ncbi.nlm.nih.gov/pmc/"]
    )
    assert config.handle_pattern == "hdl.handle.net"
    assert config.pmc_url_patterns == ("ncbi.nlm.nih.gov/pmc",)


def test_journal_apc_tri_state():
    assert JournalRecord(journal_id="J1").has_apc == "unknown"
    with pytest.raises(ValueError):
        JournalRecord(journal_id="J1", has_apc="maybe")


def test_config_defaults():
    config = PipelineConfig()
    assert config.min_universities_country == 10
    assert config.min_universities_gold_model == 5
    assert config.denominator_mode == "all_pubs"
    assert config.pmc_url_patterns == ("ncbi.nlm.nih.gov/pmc",)
    assert config.handle_pattern == "hdl.handle.net"
    assert config.period == (2014, 2017)
    assert config.year_in_period(2014) and config.year_in_period(2017)
    assert not config.year_in_period(2013) and not config.year_in_period(2018)


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(min_universities_country=0)
    with pytest.raises(ValueError):
        PipelineConfig(denominator_mode="weighted")
    with pytest.raises(ValueError):
        PipelineConfig(period=(2017, 2014))
