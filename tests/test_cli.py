import csv
import gzip
import io
import json
import marshal
import os
import types
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from oametrics import cli, ingest
from oametrics.cli import (
    ReportBundle,
    Table,
    emit_report,
    format_pct,
    main,
    run_pipeline,
    FatalInputError,
    SchemaCeilingError,
)
from oametrics import __version__
from oametrics.models import PipelineConfig


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
        (None, ""),
    ],
)
def test_format_pct(value, expected):
    assert format_pct(value) == expected


def test_emit_empty_table_is_header_only():
    table = Table(name="t", columns=("a", "b"), rows=())
    assert emit_report(table, "csv") == b"a,b\r\n"
    assert emit_report(table, "jsonl") == b""


def test_emit_share_as_percent():
    table = Table(name="t", columns=("share",), rows=((Fraction(2, 5),),))
    assert emit_report(table, "csv") == b"share\r\n40.0\r\n"
    assert json.loads(emit_report(table, "jsonl").decode()) == {"share": 40.0}


def test_emit_reparse_round_trip():
    table = Table(
        name="t",
        columns=("name", "count", "share", "flag", "missing"),
        rows=(("Alpha, Inc", 3, Fraction(1, 4), True, None),),
    )
    parsed = list(csv.reader(io.StringIO(emit_report(table, "csv").decode("utf-8"))))
    assert parsed == [
        ["name", "count", "share", "flag", "missing"],
        ["Alpha, Inc", "3", "25.0", "true", ""],
    ]


def test_emit_unknown_format_rejected():
    with pytest.raises(ValueError):
        emit_report(Table(name="t", columns=("a",), rows=()), "parquet")


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
    rows = list(csv.DictReader((tmp_path / "classified.csv").open(newline="")))
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
    overlap = {r["metric"]: r for r in csv.DictReader((out / "overlap.csv").open(newline=""))}
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
    entries = list(csv.DictReader(log.open(newline="")))
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
    assert duplicated.tables["classified"] == plain.tables["classified"]
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
    def classify_stream(*args):
        raise RuntimeError("classify ran before the issue-rate check")

    monkeypatch.setattr(cli, "classify_stream", classify_stream)
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
