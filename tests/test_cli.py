import codecs
import csv
import gc
import gzip
import io
import json
import marshal
import os
import random
import tracemalloc
import types
from fractions import Fraction

import pytest
from click.testing import CliRunner

from oametrics import classifier, cli, ingest
from oametrics.cli import (
    ConfigurationError,
    ReportBundle,
    Table,
    format_pct,
    main,
    run_pipeline,
    FatalInputError,
    SchemaCeilingError,
)
from oametrics import __version__
from oametrics.ingest import parse_publications
from oametrics.models import OAEvidenceRecord, PipelineConfig
from oracles import materialized


@pytest.mark.parametrize(
    "value,expected",
    [
        (Fraction(2, 5), "40.0"),
        (Fraction(1815, 1858), "97.7"),
        (Fraction(1, 3), "33.3"),
        (Fraction(2, 3), "66.7"),
        (Fraction(1), "100.0"),
        (Fraction(0), "0.0"),
        (Fraction(1, 800), "0.1"),
        (Fraction(-7, 1000), "-0.7"),
        (Fraction(-49, 1000), "-4.9"),
        (Fraction(-1, 2000), "0.0"),
        (Fraction(-3, 2000), "-0.1"),
        (None, ""),
    ],
)
def test_format_pct(value, expected):
    assert format_pct(value) == expected


def _emit(table: Table, report_format: str = "csv") -> bytes:
    """A table serialized to UTF-8 bytes, as ReportBundle.write writes it."""
    buffer = io.StringIO()
    cli._write_table(buffer, table, report_format)
    return buffer.getvalue().encode("utf-8")


def test_emit_empty_table_is_header_only():
    table = Table(name="t", columns=("a", "b"), rows=())
    assert _emit(table, "csv") == b"a,b\r\n"
    assert _emit(table, "jsonl") == b""


def test_emit_share_as_percent():
    table = Table(name="t", columns=("share",), rows=((Fraction(2, 5),),))
    assert _emit(table, "csv") == b"share\r\n40.0\r\n"
    assert json.loads(_emit(table, "jsonl").decode()) == {"share": 40.0}


def test_emit_reparse_round_trip():
    table = Table(
        name="t",
        columns=("name", "count", "share", "flag", "missing"),
        rows=(("Alpha, Inc", 3, Fraction(1, 4), True, None),),
    )
    parsed = list(csv.reader(io.StringIO(_emit(table, "csv").decode("utf-8"))))
    assert parsed == [
        ["name", "count", "share", "flag", "missing"],
        ["Alpha, Inc", "3", "25.0", "true", ""],
    ]


def test_emit_unknown_format_rejected():
    with pytest.raises(ValueError):
        _emit(Table(name="t", columns=("a",), rows=()), "parquet")


def _golden_args(golden_input, out_dir, extra=()):
    return [
        "-p", str(golden_input / "publications.csv"),
        "-e", str(golden_input / "evidence.jsonl"),
        "-i", str(golden_input / "institutions.csv"),
        "-j", str(golden_input / "journals.csv"),
        "-o", str(out_dir),
        *extra,
    ]


def test_classify_subcommand(golden_input, tmp_path):
    runner = CliRunner()
    result = runner.invoke(
        main,
        [
            "classify",
            "-p", str(golden_input / "publications.csv"),
            "-e", str(golden_input / "evidence.jsonl"),
            "-j", str(golden_input / "journals.csv"),
            "-o", str(tmp_path),
        ],
    )
    assert result.exit_code == 0, result.output
    with (tmp_path / "classified.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    by_id = {row["pub_id"]: row for row in rows}
    assert len(rows) == 20
    assert by_id["P01"]["green"] == "true" and by_id["P01"]["gold"] == "false"
    assert by_id["P04"]["gold"] == "true" and by_id["P04"]["green"] == "true"
    assert by_id["P05"]["any_oa"] == "false"
    assert by_id["P12"]["gold"] == "true"  # registry flag, not the dump's


def test_report_on_empty_publications(tmp_path):
    (tmp_path / "pubs.csv").write_text(
        "pub_id,doi,year,doc_type,language,journal_id,institution_ids,field_ids\n"
    )
    (tmp_path / "evidence.jsonl").write_text("")
    (tmp_path / "institutions.csv").write_text("inst_id,name,country,regions,repo_url_patterns\n")
    (tmp_path / "journals.csv").write_text(
        "journal_id,issns,country,is_fully_oa,has_apc,publisher_address\n"
    )
    out = tmp_path / "out"
    runner = CliRunner()
    result = runner.invoke(
        main,
        [
            "report",
            "-p", str(tmp_path / "pubs.csv"),
            "-e", str(tmp_path / "evidence.jsonl"),
            "-i", str(tmp_path / "institutions.csv"),
            "-j", str(tmp_path / "journals.csv"),
            "-o", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    assert (out / "universities.csv").read_bytes().count(b"\r\n") == 1  # header only
    assert (out / "country_medians.csv").read_bytes().count(b"\r\n") == 1
    with (out / "overlap.csv").open(newline="") as fh:
        overlap = {r["metric"]: r for r in csv.DictReader(fh)}
    assert overlap["total_oa"]["count"] == "0" and overlap["total_oa"]["pct"] == ""


def test_missing_evidence_path_is_fatal(golden_input, tmp_path):
    runner = CliRunner()
    missing = tmp_path / "nope.jsonl"
    result = runner.invoke(
        main,
        [
            "report",
            "-p", str(golden_input / "publications.csv"),
            "-e", str(missing),
            "-i", str(golden_input / "institutions.csv"),
            "-j", str(golden_input / "journals.csv"),
            "-o", str(tmp_path / "out"),
        ],
    )
    assert result.exit_code == 1
    assert str(missing) in result.output


def test_invalid_period_is_config_error(golden_input, tmp_path):
    runner = CliRunner()
    result = runner.invoke(
        main, ["report", *_golden_args(golden_input, tmp_path / "out"), "--period", "20x4"]
    )
    assert result.exit_code == 2
    result = runner.invoke(
        main, ["report", *_golden_args(golden_input, tmp_path / "out"), "--period", "2017-2014"]
    )
    assert result.exit_code == 2


def test_issue_rate_ceiling_exceeded(golden_input, tmp_path):
    # The fixture publications table has 2 dropped rows out of 22.
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["report", *_golden_args(golden_input, tmp_path / "out"), "--max-issue-rate", "0.05"],
    )
    assert result.exit_code == 3
    assert "publications" in result.output


@pytest.mark.parametrize("rate", ["nan", "-0.5"])
def test_invalid_max_issue_rate_is_config_error(golden_input, tmp_path, rate):
    # NaN would switch the ceiling off (no rate exceeds it); a negative one would blame the data.
    out = tmp_path / "out"
    result = CliRunner().invoke(
        main, ["report", *_golden_args(golden_input, out), "--max-issue-rate", rate]
    )
    assert result.exit_code == 2, result.output
    assert "max issue rate must be >= 0" in result.output
    assert not out.exists()
    with pytest.raises(ConfigurationError, match="max issue rate"):  # before any input is read
        run_pipeline(PipelineConfig(), tmp_path / "nope.csv", tmp_path / "nope.jsonl",
                     max_issue_rate=float(rate))


@pytest.mark.parametrize("rate,exit_code", [("0", 3), ("1.5", 0)])
def test_zero_and_above_one_are_valid_max_issue_rates(golden_input, tmp_path, rate, exit_code):
    # The golden publications' issue rate is 2/22.
    result = CliRunner().invoke(
        main, ["report", *_golden_args(golden_input, tmp_path / "out"), "--max-issue-rate", rate]
    )
    assert result.exit_code == exit_code, result.output


def test_env_var_overrides_flags(golden_input, tmp_path):
    runner = CliRunner()
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        [
            "report",
            "-p", str(golden_input / "publications.csv"),
            "-e", str(golden_input / "evidence.jsonl"),
            "-i", str(golden_input / "institutions.csv"),
            "-j", str(golden_input / "journals.csv"),
        ],
        env={
            "OAMETRICS_OUT_DIR": str(out),
            "OAMETRICS_MIN_UNIVERSITIES": "2",
            "OAMETRICS_MIN_UNIVERSITIES_GOLD": "2",
        },
    )
    assert result.exit_code == 0, result.output
    medians = (out / "country_medians.csv").read_text()
    assert "GB" in medians and "TR" not in medians


def test_report_runs_are_byte_identical(golden_input, tmp_path):
    runner = CliRunner()
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        result = runner.invoke(main, ["report", *_golden_args(golden_input, out)])
        assert result.exit_code == 0, result.output
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]


def test_jsonl_report_format(golden_input, tmp_path):
    runner = CliRunner()
    out = tmp_path / "out"
    result = runner.invoke(
        main, ["report", *_golden_args(golden_input, out), "--format", "jsonl"]
    )
    assert result.exit_code == 0, result.output
    lines = (out / "gold_models_full.jsonl").read_text().splitlines()
    rows = [json.loads(line) for line in lines]
    assert {row["country"] for row in rows} == {"BR", "GB", "TR"}
    brazil = next(row for row in rows if row["country"] == "BR")
    assert brazil["national_share"] == 75.0 and brazil["displayed"] is False


def test_issue_log_written(golden_input, tmp_path):
    runner = CliRunner()
    out = tmp_path / "out"
    log = tmp_path / "issues_full.csv"
    result = runner.invoke(
        main,
        ["report", *_golden_args(golden_input, out), "--issue-log", str(log)],
    )
    assert result.exit_code == 0, result.output
    with log.open(newline="") as fh:
        entries = list(csv.DictReader(fh))
    assert len(entries) == 3
    assert {e["source"] for e in entries} == {"publications", "evidence"}


def test_run_pipeline_api_subset(golden_input, tmp_path):
    bundle = run_pipeline(
        PipelineConfig(),
        publications_path=golden_input / "publications.csv",
        evidence_path=golden_input / "evidence.jsonl",
        institutions_path=golden_input / "institutions.csv",
        journals_path=golden_input / "journals.csv",
        tables=("overlap",),
    )
    assert set(bundle.tables) == {"overlap"}
    rows = {row[0]: row for row in bundle.tables["overlap"].rows}
    assert rows["total_oa"][1] == 17
    assert rows["green"][1] == 11


def test_run_pipeline_missing_input_raises(tmp_path):
    with pytest.raises(FatalInputError, match="nope.csv"):
        run_pipeline(
            PipelineConfig(),
            publications_path=tmp_path / "nope.csv",
            evidence_path=tmp_path / "nope.jsonl",
        )


def test_run_pipeline_unknown_table_is_config_error_before_reading(tmp_path):
    with pytest.raises(ConfigurationError, match="unknown table: 'univerities'") as raised:
        run_pipeline(
            PipelineConfig(),
            publications_path=tmp_path / "nope.csv",
            evidence_path=tmp_path / "nope.jsonl",
            tables=("classified", "univerities", "counts"),
        )
    assert raised.value.exit_code == 2


def test_run_pipeline_unknown_report_format_is_config_error_before_reading(tmp_path):
    with pytest.raises(ConfigurationError, match="unknown report format: 'xml'") as raised:
        run_pipeline(
            PipelineConfig(),
            publications_path=tmp_path / "nope.csv",
            evidence_path=tmp_path / "nope.jsonl",
            report_format="xml",
        )
    assert raised.value.exit_code == 2


def test_bundle_write_creates_out_dir(tmp_path):
    bundle = ReportBundle(tables={"t": Table(name="t", columns=("a",), rows=((1,),))})
    written = bundle.write(tmp_path / "deep" / "dir", "csv")
    assert [p.name for p in written] == ["t.csv"]
    assert (tmp_path / "deep" / "dir" / "t.csv").read_bytes() == b"a\r\n1\r\n"


def _evidence_line(doi: str, journal_is_oa: bool) -> str:
    location = {"host_type": "publisher", "url": "https://publisher.example.com/a"}
    return json.dumps({"doi": doi, "journal_is_oa": journal_is_oa, "oa_locations": [location]})


def test_duplicate_evidence_dois_are_reported(golden_input, tmp_path):
    # P01's DOI is 10.1/a, green only; two later lines spell it differently.
    dump = tmp_path / "evidence.jsonl"
    dump.write_text(
        (golden_input / "evidence.jsonl").read_text(encoding="utf-8")
        + _evidence_line("10.1/A", True) + "\n"
        + _evidence_line("https://doi.org/10.1/a", True) + "\n",
        encoding="utf-8",
    )
    kwargs = dict(
        publications_path=golden_input / "publications.csv",
        institutions_path=golden_input / "institutions.csv",
        journals_path=golden_input / "journals.csv",
        tables=("classified", "issues"),
    )
    plain = run_pipeline(PipelineConfig(), evidence_path=golden_input / "evidence.jsonl", **kwargs)
    duplicated = run_pipeline(PipelineConfig(), evidence_path=dump, **kwargs)
    assert materialized(duplicated.tables["classified"]) == materialized(plain.tables["classified"])
    issues = {(source, kind): n for source, kind, n in duplicated.tables["issues"].rows}
    assert issues[("evidence", "duplicate_key")] == 2


def test_truncated_gzip_is_fatal_and_names_file(golden_input, tmp_path):
    truncated = tmp_path / "evidence.jsonl.gz"
    data = gzip.compress((golden_input / "evidence.jsonl").read_bytes())
    truncated.write_bytes(data[: len(data) // 2])
    with pytest.raises(FatalInputError, match="evidence.jsonl.gz"):
        run_pipeline(
            PipelineConfig(),
            publications_path=golden_input / "publications.csv",
            evidence_path=truncated,
        )
    args = _golden_args(golden_input, tmp_path / "out")
    args[args.index("-e") + 1] = str(truncated)
    result = CliRunner().invoke(main, ["report", *args])
    assert result.exit_code == 1
    assert "evidence.jsonl.gz" in result.output


def test_version_runs_from_source_tree():
    result = CliRunner().invoke(main, ["--version"])
    assert result.exit_code == 0, result.output
    assert __version__ in result.output


def test_issue_rate_ceiling_is_checked_before_classify(golden_input, monkeypatch):
    # The publications' rate, as the registries', is known before the scan; the evidence's is not.
    def classify_stream(*args):
        raise RuntimeError("classify ran before the issue-rate check")

    def classify(*args):
        raise RuntimeError("a publication was classified before the issue-rate check")

    # Both names, so a loop that classified without classify_stream is caught too.
    monkeypatch.setattr(cli, "classify_stream", classify_stream)
    monkeypatch.setattr(classifier, "classify", classify)
    with pytest.raises(SchemaCeilingError, match="publications"):
        run_pipeline(
            PipelineConfig(),
            publications_path=golden_input / "publications.csv",
            evidence_path=golden_input / "evidence.jsonl",
            max_issue_rate=0.05,
        )


def _scan_range_failing_in_child(path, start, end, keep):
    if start > 0:
        raise RuntimeError("range scan failed")
    return _scan_range(path, start, end, keep)


_scan_range = ingest._scan_range


@pytest.mark.parametrize(
    "attr,replacement",
    [
        ("_scan_range", _scan_range_failing_in_child),
        ("marshal", types.SimpleNamespace(
            dump=lambda value, out: out.write(marshal.dumps(value)[:-1]),
            loads=marshal.loads,
        )),
    ],
    ids=["raises", "truncated"],
)
def test_failed_range_scan_is_fatal_and_names_file(golden_input, monkeypatch, attr, replacement):
    monkeypatch.setattr(ingest, "_MIN_RANGE_BYTES", 1)
    monkeypatch.setattr(ingest, attr, replacement)
    evidence = golden_input / "evidence.jsonl"
    with pytest.raises(FatalInputError, match="evidence.jsonl"):
        run_pipeline(
            PipelineConfig(),
            publications_path=golden_input / "publications.csv",
            evidence_path=evidence,
            shards=2,
        )
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_fold_that_raises_during_a_range_scan_leaves_no_child(golden_input, monkeypatch):
    monkeypatch.setattr(ingest, "_MIN_RANGE_BYTES", 64)
    evidence = golden_input / "evidence.jsonl"
    assert len(ingest._byte_ranges(evidence, 2)) == 2

    def failing_add(self, pub, types, repository_urls=()):
        raise RuntimeError("fold failed")

    monkeypatch.setattr(classifier.ClassifiedRows, "add", failing_add)
    with pytest.raises(RuntimeError, match="fold failed") as failure:
        run_pipeline(
            PipelineConfig(), golden_input / "publications.csv", evidence, shards=2, tables=("overlap",),
        )
    # `failure` still holds run_pipeline's frame, and so the scan it made: closing it reaped the child.
    assert failure.traceback
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_one_store_takes_one_add_per_publication_and_a_classify_run_reads_no_url(golden_input, monkeypatch):
    pub_ids = sorted(pub.pub_id for pub in parse_publications(golden_input / "publications.csv", PipelineConfig()))
    add, matches, pmc_flags = classifier.ClassifiedRows.add, classifier._matches, classifier._pmc_flags
    added, url_calls = [], []

    def counted_add(self, pub, types, repository_urls=()):
        added.append((id(self), pub.pub_id))
        add(self, pub, types, repository_urls)

    def counted(function):
        return lambda *args: url_calls.append(function.__name__) or function(*args)

    monkeypatch.setattr(classifier.ClassifiedRows, "add", counted_add)
    for name, function in (("_matches", matches), ("_pmc_flags", pmc_flags)):
        monkeypatch.setattr(classifier, name, counted(function))
    paths = [golden_input / name for name in ("publications.csv", "evidence.jsonl", "institutions.csv", "journals.csv")]
    for tables in (cli.REPORT_TABLES, ("classified",)):
        added.clear(), url_calls.clear()
        run_pipeline(PipelineConfig(), *paths, shards=1, tables=tables)
        assert len({store for store, _ in added}) == 1
        assert sorted(pub_id for _, pub_id in added) == pub_ids
        if tables == ("classified",):
            assert url_calls == []  # the classify run's store has no roster: no URL fact is computed
        else:
            assert {"_matches", "_pmc_flags"} <= set(url_calls)


def test_issue_log_and_bundle_identical_across_shards(golden_input, tmp_path, monkeypatch):
    # Duplicates of P01's DOI after the golden lines, so one range's
    # records can be duplicates of another's.
    dump = tmp_path / "evidence.jsonl"
    dump.write_text(
        (golden_input / "evidence.jsonl").read_text(encoding="utf-8")
        + _evidence_line("10.1/A", True) + "\n{broken\n"
        + _evidence_line("https://doi.org/10.1/a", True) + "\n",
        encoding="utf-8",
    )
    monkeypatch.setattr(ingest, "_MIN_RANGE_BYTES", 64)
    assert len(ingest._byte_ranges(dump, 3)) == 3
    outputs = []
    for shards in ("1", "3"):
        out = tmp_path / f"out_{shards}"
        log = tmp_path / f"issues_{shards}.csv"
        args = _golden_args(golden_input, out, ["--shards", shards, "--issue-log", str(log)])
        args[args.index("-e") + 1] = str(dump)
        result = CliRunner().invoke(main, ["report", *args])
        assert result.exit_code == 0, result.output
        bundle = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        outputs.append((log.read_bytes(), bundle))
    assert outputs[0] == outputs[1]
    assert outputs[0][0].count(b"duplicate_key") == 2


def _golden_with_publication(golden_input, tmp_path, row: str) -> list[str]:
    """Report arguments for the golden input plus one publications row."""
    pubs = tmp_path / "publications.csv"
    pubs.write_text(
        (golden_input / "publications.csv").read_text(encoding="utf-8") + row + "\n",
        encoding="utf-8",
    )
    args = _golden_args(golden_input, tmp_path / "out")
    args[args.index("-p") + 1] = str(pubs)
    return ["report", *args]


def test_non_roster_institution_is_in_no_table(golden_input, tmp_path):
    # U1 is on the roster; ZZ9 is not.
    args = _golden_with_publication(
        golden_input, tmp_path, "P23,10.6/a,2015,article,en,J2,U1;ZZ9,Biomedical and Health Sciences"
    )
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    out = tmp_path / "out"
    for path in sorted(out.iterdir()):
        assert b"ZZ9" not in path.read_bytes(), path.name
    with (out / "field_summary.csv").open(newline="") as fh:
        rows = [row for row in csv.DictReader(fh) if row["field"] == "All sciences"]
    assert {row["n_universities"] for row in rows} == {"4"}


def test_oversized_csv_field_is_fatal_and_names_file(golden_input, tmp_path):
    args = _golden_with_publication(
        golden_input, tmp_path, "P23,10.6/a,2015,article,en,J2,U1," + "x" * 200_000
    )
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert f"error: {tmp_path / 'publications.csv'}: " in result.output


def test_invalid_utf8_in_a_csv_table_is_fatal_and_names_file(golden_input, tmp_path):
    pubs = tmp_path / "publications.csv"
    pubs.write_bytes((golden_input / "publications.csv").read_bytes().replace(b"P05", b"P\xff5", 1))
    args = _golden_args(golden_input, tmp_path / "out")
    args[args.index("-p") + 1] = str(pubs)
    result = CliRunner().invoke(main, ["report", *args])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert f"error: {pubs}: " in result.output and "utf-8" in result.output
    assert not (tmp_path / "out").exists()


def test_a_csv_column_named_twice_is_fatal_and_names_file(golden_input, tmp_path):
    roster = tmp_path / "institutions.csv"
    text = (golden_input / "institutions.csv").read_text(encoding="utf-8").splitlines()
    roster.write_text("\n".join([text[0] + ",country"] + [row + ",NL" for row in text[1:]]) + "\n")
    args = _golden_args(golden_input, tmp_path / "out")
    args[args.index("-i") + 1] = str(roster)
    result = CliRunner().invoke(main, ["report", *args])
    assert result.exit_code == 1
    assert f"error: {roster}: institutions: column named twice: country" in result.output
    assert not (tmp_path / "out").exists()


# The tables README "Subcommands" lists for each subcommand but `report`.
SUBCOMMAND_TABLES = {
    "aggregate": (
        "country_medians", "country_medians_full", "field_summary", "overlap", "profiles",
        "region_medians", "universities",
    ),
    "repo-match": ("repo_bounds",),
    "pmc-report": ("pmc_overlap",),
    "gold-model": ("gold_models", "gold_models_full"),
}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_TABLES))
def test_subcommands_write_their_golden_tables(golden_input, golden_dir, tmp_path, command):
    out = tmp_path / "out"
    args = _golden_args(golden_input, out, ["--min-universities", "2", "--min-universities-gold", "2"])
    result = CliRunner().invoke(main, [command, *args])
    assert result.exit_code == 0, result.output
    written = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert sorted(written) == [f"{name}.csv" for name in SUBCOMMAND_TABLES[command]]
    for name, data in written.items():
        assert data == (golden_dir / name).read_bytes(), name


# Each subcommand's help line, as `oametrics <command> --help` shows it.
SUBCOMMAND_HELP = {
    "aggregate": "Emit indicator tables: universities, fields, countries, regions.",
    "classify": "Emit per-publication OA type labels.",
    "gold-model": "Emit per-country gold OA publishing models.",
    "pmc-report": "Emit the per-country PMC overlap table.",
    "repo-match": "Emit per-university repository-hosting bounds.",
    "report": "Emit the full report bundle.",
}


def test_help_lists_the_six_subcommands_each_with_its_help_line():
    result = CliRunner().invoke(main, ["--help"])
    assert result.exit_code == 0, result.output
    listed = [line.split(None, 1) for line in result.output.split("Commands:\n")[1].splitlines()]
    assert [command for command, _ in listed] == sorted(SUBCOMMAND_HELP)
    for command, short in listed:  # a long line is cut, and ends "..."
        assert SUBCOMMAND_HELP[command].startswith(short.removesuffix("..."))
    for command, line in SUBCOMMAND_HELP.items():
        result = CliRunner().invoke(main, [command, "--help"])
        assert result.exit_code == 0, result.output
        assert result.output.splitlines()[2].strip() == line


def test_classify_takes_no_roster_and_an_optional_journal_registry(golden_input, tmp_path):
    result = CliRunner().invoke(main, ["classify", "--help"])
    assert "--institutions" not in result.output and "--journals" in result.output
    args = ["-p", str(golden_input / "publications.csv"), "-e", str(golden_input / "evidence.jsonl")]
    result = CliRunner().invoke(main, ["classify", *args, "-o", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert [p.name for p in tmp_path.iterdir()] == ["classified.csv"]


@pytest.mark.parametrize("command", sorted(set(SUBCOMMAND_HELP) - {"classify"}))
def test_every_other_subcommand_requires_the_roster(golden_input, tmp_path, command):
    args = _golden_args(golden_input, tmp_path / "out")
    del args[args.index("-i"):args.index("-i") + 2]
    result = CliRunner().invoke(main, [command, *args])
    assert result.exit_code == 2
    assert "Missing option '--institutions'" in result.output
    assert not (tmp_path / "out").exists()


def test_format_env_var_takes_effect(golden_input, tmp_path):
    out = tmp_path / "out"
    result = CliRunner().invoke(
        main, ["pmc-report", *_golden_args(golden_input, out)], env={"OAMETRICS_FORMAT": "jsonl"}
    )
    assert result.exit_code == 0, result.output
    assert [p.name for p in out.iterdir()] == ["pmc_overlap.jsonl"]


@pytest.mark.parametrize(
    "option,value,message",
    [("--shards", "0", "--shards must be >= 1"), ("--min-universities", "0", "university thresholds must be >= 1")],
)
def test_an_out_of_range_option_is_a_usage_error(golden_input, tmp_path, option, value, message):
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["report", *_golden_args(golden_input, out), option, value])
    assert result.exit_code == 2
    assert message in result.output
    assert not out.exists()


def _golden_issue_log(header_lines: int) -> bytes:
    """The golden input's issue log; a CSV table's line numbers count its header."""
    return (
        "source,line_no,kind,detail\r\n"
        f"publications,{21 + header_lines},malformed,non-citable doc_type: 'editorial'\r\n"
        f"publications,{22 + header_lines},malformed,year 2013 outside period 2014-2017\r\n"
        "evidence,11,malformed,invalid JSON\r\n"
    ).encode("utf-8")


@pytest.mark.parametrize("shards", ["1", "3"])
@pytest.mark.parametrize("bom", [False, True], ids=["no_bom", "bom"])
@pytest.mark.parametrize("gz", [False, True], ids=["plain", "gzip"])
@pytest.mark.parametrize("table_format", ["csv", "jsonl"])
def test_jsonl_and_gzip_inputs_give_the_golden_tables(
    golden_input, golden_dir, tmp_path, monkeypatch, table_format, gz, bom, shards
):
    # In JSON lines each CSV row becomes an object of its string cells; with
    # gz every input file is gzipped; with bom every file starts with one.
    head = codecs.BOM_UTF8 if bom else b""
    inputs = {}
    for source in golden_input.iterdir():
        data, suffix = source.read_bytes(), source.suffix
        if table_format == "jsonl" and suffix == ".csv":
            with source.open(newline="", encoding="utf-8") as fh:
                data = "".join(json.dumps(row) + "\n" for row in csv.DictReader(fh)).encode("utf-8")
            suffix = ".jsonl"
        inputs[source.stem] = tmp_path / (source.stem + suffix + (".gz" if gz else ""))
        inputs[source.stem].write_bytes(gzip.compress(head + data) if gz else head + data)
    monkeypatch.setattr(ingest, "_MIN_RANGE_BYTES", 64)
    if not gz:
        assert len(ingest._byte_ranges(inputs["evidence"], 3)) == 3
    out = tmp_path / "out"
    log = tmp_path / "issues_full.csv"
    result = CliRunner().invoke(
        main,
        [
            "report",
            "-p", str(inputs["publications"]),
            "-e", str(inputs["evidence"]),
            "-i", str(inputs["institutions"]),
            "-j", str(inputs["journals"]),
            "--min-universities", "2", "--min-universities-gold", "2",
            "--shards", shards,
            "--issue-log", str(log),
            "-o", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    written = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    expected = {p.name: p.read_bytes() for p in sorted(golden_dir.iterdir())}
    assert len(expected) == 12
    assert written == expected
    assert log.read_bytes() == _golden_issue_log(1 if table_format == "csv" else 0)


class _Unprintable:
    """A cell value that cannot be serialized in either report format."""

    def __str__(self):
        raise RuntimeError("cannot render this cell")


def _tables(*names, cell=1):
    return {name: Table(name=name, columns=("a",), rows=((cell,), (cell,))) for name in names}


@pytest.mark.parametrize("report_format", ["csv", "jsonl"])
def test_failed_bundle_write_leaves_out_dir_as_it_was(tmp_path, report_format):
    out = tmp_path / "out"
    ReportBundle(_tables("first", "second", "third")).write(out, report_format)
    (out / "notes.txt").write_text("not part of the bundle")
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    broken = _tables("first", "second", "third", cell=2)
    broken["second"] = Table(name="second", columns=("a",), rows=((2,), (_Unprintable(),)))
    with pytest.raises((RuntimeError, TypeError)):
        ReportBundle(broken).write(out, report_format)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_bundle_write_replaces_tables_and_keeps_other_files(tmp_path):
    out = tmp_path / "out"
    ReportBundle(_tables("first", "second")).write(out, "csv")
    (out / "notes.txt").write_text("not part of the bundle")
    ReportBundle(_tables("first", "second", cell=2)).write(out, "csv")
    assert sorted(p.name for p in out.iterdir()) == ["first.csv", "notes.txt", "second.csv"]
    assert (out / "second.csv").read_bytes() == b"a\r\n2\r\n2\r\n"


def test_failed_issue_log_write_keeps_the_old_log(golden_input, tmp_path, monkeypatch):
    logs = tmp_path / "logs"
    logs.mkdir()
    log = logs / "issues_full.csv"
    log.write_bytes(b"an older log\r\n")
    out = tmp_path / "out"
    out.mkdir()
    (out / "issues.csv").write_bytes(b"an older table\r\n")
    write_table = cli._write_table

    def fail_after_first_row(fh, table, report_format):
        write_table(fh, Table(table.name, table.columns, table.rows[:1]), report_format)
        if table.name == "issue_log":
            raise OSError("no space left on device")

    monkeypatch.setattr(cli, "_write_table", fail_after_first_row)
    with pytest.raises(OSError, match="no space left"):
        run_pipeline(
            PipelineConfig(),
            publications_path=golden_input / "publications.csv",
            evidence_path=golden_input / "evidence.jsonl",
            out_dir=out,
            issue_log_path=log,
            tables=("issues",),
        )
    assert log.read_bytes() == b"an older log\r\n"
    assert [p.name for p in logs.iterdir()] == ["issues_full.csv"]
    # The bundle and the log are committed together: the bundle did not move either.
    assert [(p.name, p.read_bytes()) for p in out.iterdir()] == [("issues.csv", b"an older table\r\n")]


@pytest.mark.parametrize(
    "report_format,log_name,exit_code",
    [("csv", "issues.csv", 2), ("csv", "../out/overlap.csv", 2), ("jsonl", "issues.csv", 0)],
)
def test_issue_log_naming_a_bundle_file_is_a_config_error(
    golden_input, tmp_path, report_format, log_name, exit_code
):
    out = tmp_path / "out"
    out.mkdir()
    log = out / log_name
    args = _golden_args(golden_input, out, ["--format", report_format, "--issue-log", str(log)])
    result = CliRunner().invoke(main, ["report", *args])
    assert result.exit_code == exit_code, result.output
    if exit_code:
        assert f"error: {log}: " in result.output
        assert list(out.iterdir()) == []
        # The check comes before any input is read: a missing input is not reached.
        args[args.index("-e") + 1] = str(tmp_path / "missing.jsonl")
        assert CliRunner().invoke(main, ["report", *args]).exit_code == 2
    else:
        assert set(json.loads(log.read_text().splitlines()[0])) == {"source", "line_no", "kind", "detail"}
        assert (out / "issues.jsonl").exists()


@pytest.mark.parametrize("report_format", ["csv", "jsonl"])
def test_issue_log_is_written_without_an_out_dir(golden_input, tmp_path, report_format):
    kwargs = dict(
        publications_path=golden_input / "publications.csv",
        evidence_path=golden_input / "evidence.jsonl",
        report_format=report_format,
        tables=("issues",),
    )
    alone, with_bundle = tmp_path / "alone.log", tmp_path / "with_bundle.log"
    run_pipeline(PipelineConfig(), issue_log_path=alone, **kwargs)
    run_pipeline(PipelineConfig(), out_dir=tmp_path / "out", issue_log_path=with_bundle, **kwargs)
    assert alone.read_bytes() == with_bundle.read_bytes()
    if report_format == "csv":
        assert alone.read_bytes() == _golden_issue_log(1)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["alone.log", "out", "with_bundle.log"]


def test_issue_log_naming_a_directory_without_an_out_dir_is_a_config_error(tmp_path):
    # The check comes before any input is read: the missing inputs are not reached.
    with pytest.raises(ConfigurationError, match="issue log would overwrite a directory") as raised:
        run_pipeline(
            PipelineConfig(),
            publications_path=tmp_path / "missing.csv",
            evidence_path=tmp_path / "missing.jsonl",
            issue_log_path=tmp_path,
        )
    assert raised.value.exit_code == 2


def test_issue_log_naming_the_output_directory_is_a_config_error(golden_input, tmp_path):
    out = tmp_path / "o1"
    args = _golden_args(golden_input, out, ["--issue-log", str(out)])
    result = CliRunner().invoke(main, ["report", *args])
    assert result.exit_code == 2, result.output
    assert f"error: {out}: " in result.output
    assert list(tmp_path.iterdir()) == []
    # The check comes before any input is read: a missing input is not reached.
    args[args.index("-e") + 1] = str(tmp_path / "missing.jsonl")
    assert CliRunner().invoke(main, ["report", *args]).exit_code == 2


@pytest.mark.parametrize("evidence", ["evidence.jsonl", "missing.jsonl"])
def test_issue_log_naming_an_existing_directory_is_a_config_error(golden_input, tmp_path, evidence):
    logs = tmp_path / "logs"
    logs.mkdir()
    with pytest.raises(ConfigurationError, match="issue log"):
        run_pipeline(
            PipelineConfig(),
            publications_path=golden_input / "publications.csv",
            evidence_path=golden_input / evidence,
            institutions_path=golden_input / "institutions.csv",
            journals_path=golden_input / "journals.csv",
            out_dir=tmp_path / "o2",
            issue_log_path=logs,
        )
    assert [p.name for p in tmp_path.iterdir()] == ["logs"]
    assert list(logs.iterdir()) == []


def test_url_form_patterns_give_the_golden_tables(golden_input, golden_dir, tmp_path):
    config = PipelineConfig(
        min_universities_country=2,
        min_universities_gold_model=2,
        handle_pattern="https://hdl.handle.net/",
        pmc_url_patterns=("https://www.ncbi.nlm.nih.gov/pmc/",),
    )
    run_pipeline(
        config,
        publications_path=golden_input / "publications.csv",
        evidence_path=golden_input / "evidence.jsonl",
        institutions_path=golden_input / "institutions.csv",
        journals_path=golden_input / "journals.csv",
        out_dir=tmp_path,
    )
    written = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}
    assert written == {p.name: p.read_bytes() for p in sorted(golden_dir.iterdir())}


def test_issue_log_in_a_missing_directory_fails_before_the_bundle_is_written(golden_input, tmp_path):
    log = tmp_path / "missing" / "issues_full.csv"
    result = CliRunner().invoke(
        main, ["report", *_golden_args(golden_input, tmp_path / "out"), "--issue-log", str(log)]
    )
    assert result.exit_code == 1
    assert f"error: {log}: directory not found" in result.output
    assert not (tmp_path / "out").exists()


def _classified_shaped_table(n: int, seed: int = 5) -> Table:
    rng = random.Random(seed)
    rows = tuple(
        (f"P{i:07d}", f"10.{rng.randint(1000, 9999)}/x{i}", *(rng.random() < 0.3 for _ in range(5)))
        for i in range(n)
    )
    return Table(
        name="classified",
        columns=("pub_id", "doi", "gold", "green", "hybrid", "bronze", "any_oa"),
        rows=rows,
    )


@pytest.mark.parametrize(
    "report_format,min_size", [("csv", 2 << 20), ("jsonl", 5 << 20)], ids=["csv", "jsonl"]
)
def test_bundle_write_memory_does_not_grow_with_the_table(tmp_path, report_format, min_size):
    # Deterministic: tracemalloc over a seeded 50k-row table, not RSS.
    bundle = ReportBundle({"classified": _classified_shaped_table(50_000)})
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        (path,) = bundle.write(tmp_path, report_format)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert path.stat().st_size >= min_size
    assert peak <= 1 << 20, f"write peaked at {peak:,} B for a {path.stat().st_size:,} B file"


def test_evidence_issue_rate_ceiling_is_checked_before_any_table(golden_input, tmp_path, monkeypatch):
    # 21 issues in 40 lines; the other inputs stay under the ceiling.
    dump = tmp_path / "evidence.jsonl"
    dump.write_text((golden_input / "evidence.jsonl").read_text(encoding="utf-8") + "{bad\n" * 20)
    out = tmp_path / "out"
    out.mkdir()
    (out / "overlap.csv").write_text("previous run\n", encoding="utf-8")
    log = tmp_path / "issues.log"

    def build(*args, **kwargs):
        raise RuntimeError("a table was built or written before the issue-rate check")

    monkeypatch.setattr(cli, "university_indicators", build)
    monkeypatch.setattr(classifier.ClassifiedRows, "table", build)
    monkeypatch.setattr(cli, "_write_tables", build)
    with pytest.raises(SchemaCeilingError, match="evidence: issue rate 0.525 exceeds ceiling 0.300"):
        run_pipeline(
            PipelineConfig(),
            publications_path=golden_input / "publications.csv",
            evidence_path=dump,
            institutions_path=golden_input / "institutions.csv",
            journals_path=golden_input / "journals.csv",
            out_dir=out,
            max_issue_rate=0.3,
            issue_log_path=log,
            tables=cli.REPORT_TABLES + ("classified",),
        )
    assert [path.name for path in out.iterdir()] == ["overlap.csv"]
    assert (out / "overlap.csv").read_text(encoding="utf-8") == "previous run\n"
    assert not log.exists()


def test_every_table_gives_the_same_rows_each_time_it_is_iterated(golden_input):
    names = cli.REPORT_TABLES + ("classified",)
    bundle = run_pipeline(
        PipelineConfig(min_universities_country=2, min_universities_gold_model=2),
        publications_path=golden_input / "publications.csv",
        evidence_path=golden_input / "evidence.jsonl",
        institutions_path=golden_input / "institutions.csv",
        journals_path=golden_input / "journals.csv",
        tables=names,
    )
    assert sorted(bundle.tables) == sorted(names)
    for name, table in bundle.tables.items():
        first = list(table.rows)
        assert first and list(table.rows) == first, name


@pytest.mark.parametrize("report_format", ["csv", "jsonl"])
def test_written_tables_equal_emit_report(golden_input, tmp_path, report_format):
    bundle = run_pipeline(
        PipelineConfig(min_universities_country=2, min_universities_gold_model=2),
        publications_path=golden_input / "publications.csv",
        evidence_path=golden_input / "evidence.jsonl",
        institutions_path=golden_input / "institutions.csv",
        journals_path=golden_input / "journals.csv",
        tables=cli.REPORT_TABLES + ("classified",),
    )
    written = bundle.write(tmp_path, report_format)
    assert len(written) == 13
    for path in written:
        table = bundle.tables[path.stem]
        assert path.read_bytes() == _emit(table, report_format), path.name


@pytest.mark.parametrize("report_format", ["csv", "jsonl"])
@pytest.mark.parametrize("source", ["publications", "institutions"])
def test_an_unpaired_surrogate_escape_is_an_issue_not_a_failed_write(golden_input, tmp_path, source, report_format):
    # UTF-8 cannot encode "\ud800"; read into a pub_id or a roster name, it used to fail the final write.
    inputs = {}
    for name in ("publications", "institutions"):
        with (golden_input / f"{name}.csv").open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if name == source:
            rows[0]["pub_id" if name == "publications" else "name"] += "\ud800"
        inputs[name] = tmp_path / f"{name}.jsonl"
        inputs[name].write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="ascii")
    log = tmp_path / f"issues_full.{report_format}"
    if source == "publications":
        command, table = ["classify"], "classified"
    else:
        command, table = ["report", "-i", str(inputs["institutions"])], "repo_bounds"  # it names each university
    result = CliRunner().invoke(main, [
        *command,
        "-p", str(inputs["publications"]),
        "-e", str(golden_input / "evidence.jsonl"),
        "-j", str(golden_input / "journals.csv"),
        "-o", str(tmp_path / "out"),
        "--format", report_format,
        "--issue-log", str(log),
    ])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "out" / f"{table}.{report_format}").exists()
    entry = {"source": source, "line_no": 1, "kind": "malformed", "detail": "unpaired surrogate escape"}
    if report_format == "csv":
        line = ",".join(map(str, entry.values())) + "\r\n"
    else:
        line = json.dumps(entry) + "\n"
    assert line.encode() in log.read_bytes()


def test_kept_evidence_records_are_built_once_and_held_by_no_map(golden_input, tmp_path, monkeypatch):
    dump = tmp_path / "evidence.jsonl"
    # P01's DOI 10.1/a has a line; two later lines for it are duplicates, built into no record.
    dump.write_text(
        (golden_input / "evidence.jsonl").read_text(encoding="utf-8")
        + _evidence_line("10.1/A", True) + "\n" + _evidence_line("https://doi.org/10.1/a", False) + "\n",
        encoding="utf-8",
    )
    classify_stream = cli.classify_stream
    make = OAEvidenceRecord._make
    captured, built, consumed = {}, [], []

    def capture(records, by_doi, journals, without_doi):
        def each():
            for record in records:
                # The publications of the record's DOI are still in the one map while it is consumed.
                value = by_doi[record.doi]
                assert all(pub.doi == record.doi for pub in (value if type(value) is list else [value]))
                consumed.append(record.doi)
                yield record
        captured["by_doi"] = by_doi
        return classify_stream(each(), by_doi, journals, without_doi)

    def counting_make(cls, value):
        record = make(value)
        built.append(record.doi)
        return record

    monkeypatch.setattr(cli, "classify_stream", capture)
    monkeypatch.setattr(OAEvidenceRecord, "_make", classmethod(counting_make))
    bundle = run_pipeline(
        PipelineConfig(), golden_input / "publications.csv", dump, tables=("classified", "issues"),
    )
    assert ("evidence", "duplicate_key", 2) in bundle.tables["issues"].rows
    # One record per DOI with a line, none for a duplicate, and after its turn its DOI maps to None.
    assert consumed and built == consumed and len(set(consumed)) == len(consumed)
    by_doi = captured["by_doi"]
    assert {doi for doi, value in by_doi.items() if value is None} == set(consumed)
    assert not any(isinstance(value, OAEvidenceRecord) for value in by_doi.values())
    dois = {row[1] for row in bundle.tables["classified"].rows if row[1]}
    assert by_doi.keys() == dois


def test_publications_sharing_a_doi_are_classified_from_one_record(tmp_path, monkeypatch):
    pubs = tmp_path / "publications.csv"
    pubs.write_text(
        "pub_id,doi,year,doc_type,journal_id,field_ids\n"
        "P1,10.1/a,2015,article,J1,Physical Sciences & Engineering\n"
        "P2,https://doi.org/10.1/A,2016,article,J2,Physical Sciences & Engineering\n",
        encoding="utf-8",
    )
    dump = tmp_path / "evidence.jsonl"
    dump.write_text(_evidence_line("10.1/a", True) + "\n", encoding="utf-8")
    classify = classifier.classify
    classified_from = []

    def spy(evidence, journal=None):
        classified_from.append(evidence)
        return classify(evidence, journal)

    monkeypatch.setattr(classifier, "classify", spy)
    bundle = run_pipeline(
        PipelineConfig(), pubs, dump, tables=("classified", "issues"), shards=1
    )
    assert tuple(bundle.tables["classified"].rows) == (
        ("P1", "10.1/a", True, False, False, False, True),
        ("P2", "10.1/a", True, False, False, False, True),
    )
    assert bundle.tables["issues"].rows == ()
    record, other = classified_from
    assert record is other and record is not None


def _jsonl_publications(tmp_path) -> list[str]:
    valid = {
        "pub_id": "P1", "doi": "10.1/a", "year": 2015, "doc_type": "article",
        "journal_id": "J1", "institution_ids": ["U1"], "field_ids": ["Physical Sciences & Engineering"],
    }
    pubs = tmp_path / "publications.jsonl"
    pubs.write_text(json.dumps(valid) + "\n{bad\n{bad\n", encoding="utf-8")
    evidence = tmp_path / "evidence.jsonl"
    evidence.write_text(_evidence_line("10.1/a", False) + "\n", encoding="utf-8")
    return ["classify", "-p", str(pubs), "-e", str(evidence), "-o", str(tmp_path / "out")]


def test_malformed_jsonl_rows_count_in_the_issue_rate(tmp_path):
    result = CliRunner().invoke(main, _jsonl_publications(tmp_path))
    assert result.exit_code == 0, result.output
    result = CliRunner().invoke(main, [*_jsonl_publications(tmp_path), "--max-issue-rate", "0.5"])
    assert result.exit_code == 3
    assert "publications: issue rate 0.667 exceeds ceiling 0.500" in result.output
