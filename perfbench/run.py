"""oametrics benchmark: time the real CLI on a seeded corpus and check its output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The corpus for (workload, seed) is
generated once into ``.perfbench/corpus/`` and reused while the seed and
the generator stay the same. Every CLI run is a child process
(``python -m oametrics`` with ``PYTHONPATH=src``), timed from spawn to exit.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see perfbench/README.md). Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import corpus

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench"
SRC = ROOT / "src"
GOLDEN_INPUT = ROOT / "tests" / "data" / "golden_input"
GOLDEN_OUTPUT = ROOT / "tests" / "data" / "golden"

# The `report` bundle as the README lists it, kept apart from the program's own list.
REPORT_TABLES = (
    "country_medians", "country_medians_full", "field_summary", "gold_models",
    "gold_models_full", "issues", "overlap", "pmc_overlap", "profiles",
    "region_medians", "repo_bounds", "universities",
)
CHILD_TIMEOUT_S = 120
MIN_SETUP_RUNS = 9
MIN_TIMED_RUNS = 3

SPAN_METRICS = (
    # (metric, tracer span) for self time in seconds
    ("ingest.parse_evidence_stream.s", "ingest.parse_evidence_stream"),
    ("ingest.parse_publications.s", "ingest.parse_publications"),
    ("ingest.parse_registries.s", "ingest.parse_registries"),
    ("classifier.classify_stream.s", "classifier.classify_stream"),
    ("indicators.count_full.s", "indicators.count_full"),
    ("indicators.university_indicators.s", "indicators.university_indicators"),
    ("indicators.field_summary.s", "indicators.field_summary"),
    ("indicators.medians.s", "indicators.medians"),
    ("indicators.overlap_matrix.s", "indicators.overlap_matrix"),
    ("indicators.field_profile.s", "indicators.field_profile"),
    ("repositories.repo_share_bounds.s", "repositories.repo_share_bounds"),
    ("repositories.pmc_overlap_table.s", "repositories.pmc_overlap_table"),
    ("gold_models.gold_country_model.s", "gold_models.gold_country_model"),
    ("cli.emit_report.s", "cli.emit_report"),
    ("cli.write.s", "cli.write"),
    ("cli.run_pipeline.residual_s", "cli.run_pipeline"),
)
RSS_METRICS = (
    ("ingest.parse_publications.rss_mb", "ingest.parse_publications"),
    ("ingest.parse_evidence_stream.rss_mb", "ingest.parse_evidence_stream"),
    ("classifier.classify_stream.rss_mb", "classifier.classify_stream"),
)
COUNT_METRICS = (
    ("ingest.normalize_doi.calls", "count"),
    ("classifier.classify.calls", "count"),
    ("repositories.normalize_url.calls", "count"),
    ("indicators.count_keys", "count"),
    ("cli.emit_report.bytes", "B"),
)
KERNEL_METRICS = (
    "models.normalize_doi.ns",
    "repositories.normalize_url.ns",
    "classifier.classify.ns",
    "cli.format_pct.ns",
)


@dataclass
class ChildRun:
    wall_s: float
    exit_code: int
    maxrss_mb: float
    cpu_s: float


def spawn(argv: list[str], log: Path) -> ChildRun:
    """Run one command through launch.py, which times it and reads its rusage."""
    launcher = [sys.executable, str(BENCH_DIR / "launch.py"), str(log), str(CHILD_TIMEOUT_S)]
    done = subprocess.run(
        launcher + argv, capture_output=True, text=True, check=True, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=CHILD_TIMEOUT_S + 30,
    )
    return ChildRun(**json.loads(done.stdout))


def cli_argv(shape: corpus.Shape, corpus_dir: Path, files: dict, out_dir: Path) -> list[str]:
    argv = [sys.executable, "-m", "oametrics", shape.command]
    for option in ("publications", "evidence", "institutions", "journals"):
        if option in files:
            argv += [f"--{option}", str(corpus_dir / files[option])]
    if shape.command == "classify":
        argv += ["--format", "jsonl"]
    return argv + ["--out-dir", str(out_dir)]


def bundle_digest(out_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())}


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- output checks ---------------------------------------------------------

def _read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def check_bundle(out_dir: Path, shape: corpus.Shape, reference: dict) -> list[str]:
    """Compare one output bundle with the generator's reference."""
    if shape.command == "classify":
        path = out_dir / "classified.jsonl"
        if not path.is_file():
            return ["missing table classified.jsonl"]
        with open(path, encoding="utf-8") as fh:
            got = [json.loads(line) for line in fh]
        keys = ("pub_id", "doi", "gold", "green", "hybrid", "bronze", "any_oa")
        want = [dict(zip(keys, row)) for row in reference["classified"]]
        if len(got) != len(want):
            return [f"classified: {len(got)} rows, expected {len(want)}"]
        bad = [w["pub_id"] for g, w in zip(got, want) if g != w]
        return [f"classified: {len(bad)} rows differ, first {bad[0]}"] if bad else []

    problems = [f"missing table {t}.csv" for t in REPORT_TABLES if not (out_dir / f"{t}.csv").is_file()]
    if problems:
        return problems
    overlap = {row["metric"]: int(row["count"]) for row in _read_csv(out_dir / "overlap.csv")}
    for metric, count in reference["overlap"].items():
        if overlap.get(metric) != count:
            problems.append(f"overlap {metric}: {overlap.get(metric)}, expected {count}")

    denominators: dict[str, set[int]] = {}
    for row in _read_csv(out_dir / "universities.csv"):
        if row["field"] == corpus.ALL_SCIENCES:
            denominators.setdefault(row["university"], set()).add(int(row["denominator"]))
    wrong = [
        u for u, n in reference["all_sciences_denominators"].items() if denominators.get(u) != {n}
    ]
    if wrong:
        problems.append(f"universities: {len(wrong)} roster All-sciences denominators differ, first {wrong[0]}")

    issues = {f"{r['source']}/{r['kind']}": int(r["count"]) for r in _read_csv(out_dir / "issues.csv")}
    for key, count in reference["issues"].items():
        if issues.get(key, 0) != count:
            problems.append(f"issues {key}: {issues.get(key, 0)}, expected {count}")
    return problems


# -- corpus ----------------------------------------------------------------

def prepare_corpus(workload: str, seed: int) -> tuple[Path, dict, float]:
    """Generate the corpus, or reuse the one left by an earlier run with this seed."""
    generator = hashlib.sha256((BENCH_DIR / "corpus.py").read_bytes()).hexdigest()
    directory = WORK / "corpus" / workload
    ref_path = directory / "reference.json"
    if ref_path.is_file():
        with open(ref_path, encoding="utf-8") as fh:
            reference = json.load(fh)
        if reference.get("seed") == seed and reference.get("generator") == generator:
            return directory, reference, 0.0
    started = time.perf_counter()
    reference = corpus.build(workload, seed, fresh_dir(directory))
    reference["generator"] = generator
    with open(ref_path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh)
    return directory, reference, time.perf_counter() - started


# -- measurement -----------------------------------------------------------

class Session:
    """Counts every CLI run and remembers why any failed."""

    def __init__(self, workload: str, shape: corpus.Shape, corpus_dir: Path, reference: dict):
        self.workload, self.shape, self.corpus_dir, self.reference = workload, shape, corpus_dir, reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.expected_digest: dict[str, str] | None = None
        self.samples: dict[str, list[float]] = {}

    def record(self, label: str, problems: list[str]) -> bool:
        """Count one attempted run; True when it passed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]
        return not problems

    def golden_preflight(self) -> bool:
        """Run the shipped golden corpus; the bundle must match byte for byte."""
        out = fresh_dir(WORK / "golden_out")
        run = spawn(
            [sys.executable, "-m", "oametrics", "report",
             "-p", str(GOLDEN_INPUT / "publications.csv"), "-e", str(GOLDEN_INPUT / "evidence.jsonl"),
             "-i", str(GOLDEN_INPUT / "institutions.csv"), "-j", str(GOLDEN_INPUT / "journals.csv"),
             "--min-universities", "2", "--min-universities-gold", "2", "-o", str(out)],
            WORK / "golden.log",
        )
        if run.exit_code != 0:
            return self.record("golden pre-flight", [f"exit code {run.exit_code}"])
        got, want = bundle_digest(out), bundle_digest(GOLDEN_OUTPUT)
        return self.record("golden pre-flight", [
            f"{name} differs" for name in sorted(set(got) | set(want)) if got.get(name) != want.get(name)
        ])

    def cli_run(self, label: str) -> ChildRun | None:
        """One timed CLI run, checked; returns None when it failed."""
        out = fresh_dir(WORK / "out" / self.workload)
        argv = cli_argv(self.shape, self.corpus_dir, self.reference["files"], out)
        run = spawn(argv, WORK / f"{self.workload}.log")
        if run.exit_code != 0:
            problems = [f"exit code {run.exit_code}"]
        elif self.expected_digest is None:
            # Deterministic output: the first bundle is checked in full and
            # every later one must have the same bytes.
            problems = check_bundle(out, self.shape, self.reference)
            self.expected_digest = bundle_digest(out)
        elif bundle_digest(out) != self.expected_digest:
            problems = ["bundle differs from the checked one"]
        else:
            problems = []
        return run if self.record(label, problems) else None

    def traced_run(self, mode: str, out_dir: Path | None) -> tuple[dict, float] | None:
        """Run tracing.py in `mode`; returns its result and wall time, or None."""
        spec = {
            "corpus": str(self.corpus_dir), "files": self.reference["files"],
            "command": self.shape.command, "seed": self.reference["seed"],
            "format": "jsonl" if self.shape.command == "classify" else "csv",
            "out_dir": str(out_dir) if out_dir else None,
        }
        spec_path, result_path = WORK / f"{mode}.spec.json", WORK / f"{mode}.result.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        result_path.unlink(missing_ok=True)
        log = WORK / f"{mode}.log"
        run = spawn([sys.executable, str(BENCH_DIR / "tracing.py"), mode, str(spec_path), str(result_path)], log)
        if run.exit_code != 0:
            problems = [f"exit code {run.exit_code}, see {log}"]
        elif out_dir is not None and bundle_digest(out_dir) != self.expected_digest:
            problems = ["bundle differs from the untraced one"]
        else:
            problems = []
        if not self.record(f"traced {mode} run", problems):
            return None
        return json.loads(result_path.read_text(encoding="utf-8")), run.wall_s

    def timed_runs(self, seconds: float, before_each=None) -> list[ChildRun]:
        runs = []
        deadline = time.perf_counter() + seconds
        while len(runs) < MIN_TIMED_RUNS or time.perf_counter() < deadline:
            if before_each is not None:
                before_each()
            run = self.cli_run(f"run {len(runs) + 1}")
            if run is None:
                break
            runs.append(run)
        return runs


def setup_run() -> float:
    """Wall time of one fresh `python -m oametrics --help`."""
    run = spawn([sys.executable, "-m", "oametrics", "--help"], WORK / "help.log")
    if run.exit_code != 0:
        raise SystemExit(f"`oametrics --help` exited with {run.exit_code}")
    return run.wall_s


def end_to_end(session: Session, seconds: float) -> dict:
    # Set-up runs are interleaved with the timed runs so that both sample
    # the same stretch of machine time; the first one is discarded.
    setup_run()
    setup: list[float] = []
    runs = session.timed_runs(seconds, lambda: setup.append(setup_run()))
    while len(setup) < MIN_SETUP_RUNS:
        setup.append(setup_run())
    if session.problems:
        return {}
    rows = session.reference["rows"]["publications"] + session.reference["rows"]["evidence"]
    walls = [r.wall_s for r in runs]
    session.samples = {"wall_s": walls, "setup_s": setup, "peak_rss_mb": [r.maxrss_mb for r in runs]}
    wall = statistics.median(walls)
    print(f"wall_s       {wall:.4f} s    median of {len(runs)} runs, min {min(walls):.4f}, max {max(walls):.4f}")
    print(f"rows_per_s   {rows / wall:.1f} 1/s  {rows} input rows from the generator")
    print(f"peak_rss_mb  {statistics.median(r.maxrss_mb for r in runs):.2f} MB")
    print(f"setup_s      {statistics.median(setup):.4f} s    median of {len(setup)} `--help` runs")
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "rows_per_s": {"value": rows / wall, "unit": "1/s"},
        "peak_rss_mb": {"value": statistics.median(r.maxrss_mb for r in runs), "unit": "MB"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }


def per_layer(session: Session, seconds: float) -> tuple[dict, list[str]]:
    """Untraced runs for the baseline, then traced runs; medians of each."""
    started = time.perf_counter()
    runs = session.timed_runs(seconds / 2)
    if session.problems:
        return {}, []
    wall = statistics.median(r.wall_s for r in runs)

    traces, traced_walls = [], []
    while not traces or time.perf_counter() - started < seconds:
        traced = session.traced_run("spans", fresh_dir(WORK / "out" / f"{session.workload}-traced"))
        if traced is None:
            return {}, []
        traces.append(traced[0])
        traced_walls.append(traced[1])
    traced = session.traced_run("kernels", None)
    if traced is None:
        return {}, []
    kernels = traced[0]

    def median_of(section: str, key: str, scale: float = 1.0):
        values = [t[section][key] for t in traces if key in t[section]]
        return statistics.median(values) * scale if values else None

    values, units = {}, {}
    for metric, span in SPAN_METRICS:
        values[metric], units[metric] = median_of("self_s", span), "s"
    for metric, span in RSS_METRICS:
        values[metric], units[metric] = median_of("rss_bytes", span, 1 / 2**20), "MB"
    for metric, unit in COUNT_METRICS:
        values[metric], units[metric] = median_of("counts", metric), unit
    values["repositories.repo_share_bounds.calls"] = median_of("spans", "repositories.repo_share_bounds")
    units["repositories.repo_share_bounds.calls"] = "count"
    pubs = median_of("counts", "ingest.parse_publications.yielded")
    growth = median_of("rss_bytes", "ingest.parse_publications")
    values["ingest.bytes_per_pub"] = growth / pubs if pubs else None
    units["ingest.bytes_per_pub"] = "B"
    kept = median_of("counts", "ingest.parse_evidence_stream.yielded") or 0
    values["ingest.evidence.keep_ratio"] = kept / session.reference["rows"]["evidence"]
    units["ingest.evidence.keep_ratio"] = "ratio"
    values["cli.cpu_s"], units["cli.cpu_s"] = statistics.median(r.cpu_s for r in runs), "s"
    values["trace.overhead_s"] = statistics.median(traced_walls) - wall
    units["trace.overhead_s"] = "s"
    for metric in KERNEL_METRICS:
        values[metric], units[metric] = kernels[metric], "ns"

    residual = median_of("self_s", "cli.run_pipeline") or 0.0
    pipeline = statistics.median(sum(t["self_s"].values()) for t in traces)
    absent = sorted(m for m, v in values.items() if v is None)
    for metric, value in values.items():
        shown = "absent (span never fired)" if value is None else f"{value:.6g} {units[metric]}"
        print(f"{metric:40s} {shown}")
    print(f"traced runs {len(traces)}, untraced runs {len(runs)}; spans cover "
          f"{1 - residual / pipeline:.1%} of traced run_pipeline time")
    # The output contract wants every per-layer metric; a span that never
    # fired is listed above as absent and carries 0 in the JSON.
    metrics = {m: {"value": v if v is not None else 0, "unit": units[m]} for m, v in values.items()}
    return metrics, absent


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def main() -> int:
    parser = argparse.ArgumentParser(description="oametrics benchmark")
    parser.add_argument("--workload", choices=sorted(corpus.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in (SRC / "oametrics" / "cli.py", GOLDEN_INPUT, GOLDEN_OUTPUT) if not p.exists()]
    if missing:
        print(f"error: run from the root of an oametrics checkout; missing {missing[0]}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)

    shape = corpus.WORKLOADS[args.workload]
    corpus_dir, reference, gen_s = prepare_corpus(args.workload, args.seed)
    rows = reference["rows"]
    print(f"workload {args.workload}, seed {args.seed}: {rows['publications']} publication rows, "
          f"{rows['evidence']} dump lines, {sum(reference['bytes'].values())} input bytes, "
          f"planted keep ratio {reference['records_kept'] / rows['evidence']:.4f}; "
          + (f"generated in {gen_s:.1f} s" if gen_s else "corpus reused"))

    session = Session(args.workload, shape, corpus_dir, reference)
    metrics, absent = {}, []
    if session.golden_preflight():
        print("golden pre-flight: bundle byte-identical to tests/data/golden")
        # The warm-up run is discarded from the timings but checked in full.
        if session.cli_run("warm-up") is not None:
            if args.trace:
                metrics, absent = per_layer(session, args.seconds)
            else:
                metrics = end_to_end(session, args.seconds)
    for problem in session.problems:
        print(f"FAILED {problem}")
    print(f"error_rate   {session.failed / session.attempted:.4f} ratio  "
          f"{session.failed} failed of {session.attempted} runs")

    # No speed number is reported for a program that produced a wrong bundle.
    result = {
        "correct": not session.problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics if not session.problems else {},
    }
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "src_lines": src_lines(), "shape": reference["shape"], "rows": rows,
        "bytes": reference["bytes"], "planted_keep_ratio": reference["records_kept"] / rows["evidence"],
        "absent_spans": absent, "problems": session.problems, "samples": session.samples, **result,
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(info, indent=1), encoding="utf-8")
    print(f"src lines {info['src_lines']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
