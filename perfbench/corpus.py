"""Seeded corpus generator for the benchmark, with its own expected results.

Each workload is a fixed shape (row counts, formats, defect counts); the
seed only changes the content. The generator writes the input files the
CLI reads and, alongside them, ``reference.json``: what a correct run must
produce, computed here from the planted evidence and never from
``oametrics`` code.

Run directly to build one corpus:

    python3 perfbench/corpus.py --workload institution_fanout --seed 1 --out corpus_dir
"""

from __future__ import annotations

import argparse
import csv
import gzip
import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path

MAIN_FIELDS = (
    "Biomedical and Health Sciences",
    "Life and Earth Sciences",
    "Mathematics and Computer Science",
    "Physical Sciences & Engineering",
    "Social Sciences and Humanities",
)
ALL_SCIENCES = "All sciences"
OA_TYPES = ("gold", "green", "hybrid", "bronze")

# (code, regions, publisher-address country spelling, roster weight)
COUNTRIES = (
    ("US", "North America", "USA", 12),
    ("CA", "North America", "CANADA", 3),
    ("GB", "Europe", "ENGLAND", 5),
    ("DE", "Europe", "GERMANY", 5),
    ("FR", "Europe", "FRANCE", 4),
    ("NL", "Europe", "NETHERLANDS", 2),
    ("ES", "Europe", "SPAIN", 3),
    ("IT", "Europe", "ITALY", 3),
    ("SE", "Europe", "SWEDEN", 2),
    ("PL", "Europe", "POLAND", 2),
    ("CH", "Europe", "SWITZERLAND", 2),
    ("TR", "Europe;Asia", "TURKEY", 2),
    ("RU", "Europe;Asia", "RUSSIA", 2),
    ("CN", "Asia", "PEOPLES R CHINA", 8),
    ("JP", "Asia", "JAPAN", 4),
    ("IN", "Asia", "INDIA", 3),
    ("KR", "Asia", "SOUTH KOREA", 2),
    ("BR", "Latin America", "BRAZIL", 3),
    ("MX", "Latin America", "MEXICO", 1),
    ("AR", "Latin America", "ARGENTINA", 1),
    ("ZA", "Africa", "SOUTH AFRICA", 1),
    ("EG", "Africa", "EGYPT", 1),
    ("AU", "Oceania", "AUSTRALIA", 3),
    ("NZ", "Oceania", "NEW ZEALAND", 1),
)
LANGUAGES = ("en",) * 16 + ("de", "pt", "zh", "es")
LICENSES = ("cc-by", "cc-by-nc", "cc-by-nc-nd", "cc0")
DOI_VARIANTS = (
    "{}", "{}", "{}", "{}", "{}", "{}", "{}",
    "https://doi.org/{}", "doi:{}", "HTTP://DX.DOI.ORG/{}", " {} ",
)


@dataclass(frozen=True)
class Shape:
    """Row counts and formats of one workload's corpus.

    Every count is exact, so the same workload has the same number of
    rows under every seed; only content and byte sizes vary.
    """

    command: str  # CLI subcommand: "report" or "classify"
    pubs: int  # publication data rows, defective ones included
    institutions: int
    journals: int
    max_affiliations: int
    doi_share: float  # of valid publications
    evidence_share: float  # of DOI-bearing valid publications
    dump_lines: int  # minimum; lines not needed by any publication pad to it
    json_gzip: bool  # gzipped JSON-lines inputs instead of plain CSV


WORKLOADS = {
    # A large dump of which ~2% is needed: evidence parsing dominates.
    "evidence_scan": Shape("report", 3_500, 175, 875, 2, 0.9, 0.9, 140_000, False),
    # Many publications with 1-4 affiliations; every dump line is needed.
    "institution_fanout": Shape("report", 20_000, 150, 875, 4, 0.95, 0.76, 0, False),
    # Gzipped JSON lines in, one row per publication out.
    "classify_export": Shape("classify", 30_000, 150, 875, 2, 0.95, 0.76, 36_600, True),
}

# Fixed defect rates, per publication row or per needed evidence line.
PUB_DEFECTS = {"non_citable": 0.005, "out_of_period": 0.005, "missing_journal": 0.002}
EVIDENCE_DEFECTS = {"invalid_json": 0.002, "missing_field": 0.002, "bad_host_type": 0.004}
DUPLICATE_SHARE = 0.003
NON_ROSTER_SHARE = 0.02  # of publications with affiliations
NON_ROSTER_IDS = 20  # distinct unknown institution ids they draw from
NO_AFFILIATION_SHARE = 0.01


def _count(rate: float, n: int) -> int:
    return max(1, round(rate * n))


def expected_flags(journal_oa: bool, publisher_licensed: list[bool], n_repo: int):
    """(gold, green, hybrid, bronze) for one evidence record, by case."""
    if not publisher_licensed and n_repo == 0:
        return (False, False, False, False)
    green = n_repo > 0
    if journal_oa:
        return (True, green, False, False)
    if not publisher_licensed:
        return (False, green, False, False)
    if any(publisher_licensed):
        return (False, green, True, False)
    return (False, green, False, True)


class _Builder:
    def __init__(self, workload: str, seed: int):
        self.name = workload
        self.shape = WORKLOADS[workload]
        self.seed = seed
        self.rng = random.Random(f"{workload}:{seed}")
        self.doi_counter = 0

    def doi(self) -> str:
        self.doi_counter += 1
        rng = self.rng
        return f"10.{rng.randrange(1000, 10000)}/{rng.choice('abcdefgh')}{self.doi_counter:x}.{rng.randrange(10**6)}"

    def render_doi(self, doi: str) -> str:
        variant = self.rng.choice(DOI_VARIANTS)
        if variant.isupper() or self.rng.random() < 0.05:
            doi = doi.upper()
        return variant.format(doi)

    # -- registries -----------------------------------------------------

    def institutions(self):
        rng = self.rng
        weights = [c[3] for c in COUNTRIES]
        rows = []
        for i in range(self.shape.institutions):
            code, regions, _, _ = rng.choices(COUNTRIES, weights)[0]
            host = f"repo.u{i:04d}.example.edu"
            pattern = rng.choice((host, f"https://{host}/", f"http://www.{host}", host.upper()))
            rows.append({
                "inst_id": f"U{i:04d}", "name": f"University {i:04d}", "country": code,
                "regions": regions, "repo_url_patterns": pattern, "host": host,
            })
        return rows

    def journals(self):
        rng = self.rng
        rows = []
        for i in range(self.shape.journals):
            code, _, spelling, _ = rng.choice(COUNTRIES)
            address = f"{rng.randrange(1, 999)} MAIN ST, CITY {i % 97}, {rng.randrange(10000, 99999)} {spelling}"
            rows.append({
                "journal_id": f"J{i:05d}",
                "issns": f"{rng.randrange(1000, 9999)}-{rng.randrange(1000, 9999)}",
                "country": "" if rng.random() < 0.3 else code,
                "is_fully_oa": rng.random() < 0.15,
                "has_apc": rng.choice(("yes", "no", "")),
                "publisher_address": address,
            })
        return rows

    # -- evidence ---------------------------------------------------------

    def locations(self, inst_hosts: list[str]):
        """0-3 random locations as JSON text, the license flag of each publisher
        location, and the number of repository locations."""
        rng = self.rng
        locs, publisher_licensed, n_repo = [], [], 0
        for _ in range(rng.choice((0, 1, 1, 2, 2, 3))):
            if rng.random() < 0.5:
                kind = rng.random()
                if kind < 0.3:
                    url = f"https://www.ncbi.nlm.nih.gov/pmc/articles/PMC{rng.randrange(10**7)}/"
                elif kind < 0.6 and inst_hosts:
                    url = f"https://{rng.choice(inst_hosts)}/handle/{rng.randrange(10**5)}"
                elif kind < 0.8:
                    url = f"https://hdl.handle.net/20.500.{rng.randrange(10**4)}/{rng.randrange(10**5)}"
                else:
                    url = f"https://arxiv.org/abs/{rng.randrange(1000, 2000)}.{rng.randrange(10**5):05d}"
                locs.append(f'{{"host_type": "repository", "url": "{url}", "license": null, '
                            f'"endpoint_id": "e{rng.randrange(10**4)}"}}')
                n_repo += 1
            else:
                url = f"https://journals{rng.randrange(100)}.example.com/doi/{rng.randrange(10**8)}"
                licensed = rng.random() < 0.4
                license_ = f'"{rng.choice(LICENSES)}"' if licensed else "null"
                locs.append(f'{{"host_type": "publisher", "url": "{url}", "license": {license_}}}')
                publisher_licensed.append(licensed)
        return locs, publisher_licensed, n_repo

    @staticmethod
    def evidence_line(doi_text: str, journal_oa: bool, locs: list[str], issn: str) -> str:
        flag = "true" if journal_oa else "false"
        return (f'{{"doi": "{doi_text}", "journal_is_oa": {flag}, "journal_issn": "{issn}", '
                f'"oa_locations": [{", ".join(locs)}]}}')

    # -- whole corpus -----------------------------------------------------

    def build(self, out: Path) -> dict:
        shape, rng = self.shape, self.rng
        institutions = self.institutions()
        journals = self.journals()
        fully_oa = {j["journal_id"]: j["is_fully_oa"] for j in journals}
        roster_hosts = {r["inst_id"]: r["host"] for r in institutions}
        roster_ids = sorted(roster_hosts)
        all_hosts = list(roster_hosts.values())

        # Publications: pick defective rows by exact counts, then the rest.
        indices = list(range(shape.pubs))
        rng.shuffle(indices)
        defect_of = {}
        cursor = 0
        for kind, rate in PUB_DEFECTS.items():
            n = _count(rate, shape.pubs)
            for i in indices[cursor:cursor + n]:
                defect_of[i] = kind
            cursor += n
        valid = sorted(indices[cursor:])
        with_doi = set(rng.sample(valid, round(shape.doi_share * len(valid))))

        pub_rows, pubs = [], []
        for i in range(shape.pubs):
            n_aff = 0 if rng.random() < NO_AFFILIATION_SHARE else rng.randint(1, shape.max_affiliations)
            affiliations = rng.sample(roster_ids, n_aff)
            if affiliations and rng.random() < NON_ROSTER_SHARE:
                affiliations[-1] = f"X{rng.randrange(NON_ROSTER_IDS):04d}"
            fields = rng.sample(MAIN_FIELDS, rng.choice((1, 1, 2)))
            journal = rng.choice(journals)["journal_id"]
            doi = self.doi() if i in with_doi else None
            row = {
                "pub_id": f"P{i:07d}",
                "doi": self.render_doi(doi) if doi else "",
                "year": rng.randint(2014, 2017),
                "doc_type": rng.choice(("article", "article", "article", "review", "letter", "Article")),
                "language": rng.choice(LANGUAGES),
                "journal_id": journal,
                "institution_ids": affiliations,
                "field_ids": fields,
            }
            kind = defect_of.get(i)
            if kind == "non_citable":
                row["doc_type"] = rng.choice(("editorial", "erratum", "meeting abstract"))
            elif kind == "out_of_period":
                row["year"] = rng.choice((2009, 2012, 2013, 2018))
            elif kind == "missing_journal":
                row["journal_id"] = ""
            else:
                pubs.append({"pub_id": row["pub_id"], "doi": doi, "journal": journal,
                             "affiliations": affiliations})
            pub_rows.append(row)

        # Evidence: one primary line per sampled DOI-bearing publication;
        # some of those DOIs carry a planted defect instead.
        doi_pubs = [p for p in pubs if p["doi"]]
        evidenced = rng.sample(doi_pubs, round(shape.evidence_share * len(doi_pubs)))
        cursor = 0
        bad_of = {}
        for kind, rate in EVIDENCE_DEFECTS.items():
            n = _count(rate, len(evidenced))
            for p in evidenced[cursor:cursor + n]:
                bad_of[p["pub_id"]] = kind
            cursor += n
        clean = evidenced[cursor:]
        duplicated = set(p["pub_id"] for p in rng.sample(clean, _count(DUPLICATE_SHARE, len(clean))))

        lines, duplicates = [], []
        flags = {}
        for p in evidenced:
            hosts = [roster_hosts[a] for a in p["affiliations"] if a in roster_hosts]
            journal_oa = fully_oa[p["journal"]] if rng.random() < 0.9 else rng.random() < 0.05
            locs, licensed, n_repo = self.locations(hosts)
            issn = f"{rng.randrange(1000, 9999)}-{rng.randrange(1000, 9999)}"
            kind = bad_of.get(p["pub_id"])
            if kind == "bad_host_type":
                locs.append('{"host_type": "preprint", "url": "https://preprints.example.org/1"}')
            line = self.evidence_line(self.render_doi(p["doi"]), journal_oa, locs, issn)
            if kind == "invalid_json":
                line = line[: len(line) // 2]
            elif kind == "missing_field":
                line = line.replace('"journal_is_oa"', '"journal_oa"', 1)
            lines.append(line)
            if kind is None:
                flags[p["pub_id"]] = expected_flags(
                    journal_oa or fully_oa[p["journal"]], licensed, n_repo
                )
            if p["pub_id"] in duplicated:
                # A later, different record for the same DOI, often spelled
                # differently; the first record is the one that counts.
                other, _, _ = self.locations(hosts)
                duplicates.append(self.evidence_line(
                    self.render_doi(p["doi"]).upper(), not journal_oa, other, issn))

        filler = max(0, shape.dump_lines - len(lines) - len(duplicates))
        for _ in range(filler):
            locs, _, _ = self.locations([rng.choice(all_hosts)])
            issn = f"{rng.randrange(1000, 9999)}-{rng.randrange(1000, 9999)}"
            lines.append(self.evidence_line(self.render_doi(self.doi()), rng.random() < 0.15, locs, issn))
        rng.shuffle(lines)
        rng.shuffle(duplicates)
        lines.extend(duplicates)

        files = self.write(out, pub_rows, institutions, journals, lines)
        planted = {kind: sum(1 for k in bad_of.values() if k == kind) for kind in EVIDENCE_DEFECTS}
        reference = self.reference(pubs, flags, institutions, len(pub_rows), len(lines),
                                   len(clean) + len(duplicates), planted)
        reference["files"] = files
        reference["bytes"] = {name: (out / path).stat().st_size for name, path in files.items()}
        return reference

    def reference(self, pubs, flags, institutions, n_pub_rows, n_lines, n_records, planted) -> dict:
        classified = []
        overlap = dict.fromkeys(
            ["total_oa", *OA_TYPES, "green_and_gold", "green_and_hybrid", "green_and_bronze",
             "exclusive_gold", "exclusive_hybrid", "exclusive_bronze", "exclusive_green_only"], 0)
        roster = {r["inst_id"] for r in institutions}
        denominators: dict[str, int] = {}
        for p in pubs:
            gold, green, hybrid, bronze = flags.get(p["pub_id"], (False,) * 4)
            any_oa = gold or green or hybrid or bronze
            classified.append([p["pub_id"], p["doi"], gold, green, hybrid, bronze, any_oa])
            for inst in set(p["affiliations"]) & roster:
                denominators[inst] = denominators.get(inst, 0) + 1
            if not any_oa:
                continue
            overlap["total_oa"] += 1
            for name, flag in zip(OA_TYPES, (gold, green, hybrid, bronze)):
                overlap[name] += flag
                if green and name != "green":
                    overlap[f"green_and_{name}"] += flag
            exclusive = "gold" if gold else "hybrid" if hybrid else "bronze" if bronze else "green_only"
            overlap[f"exclusive_{exclusive}"] += 1

        pub_defects = {kind: _count(rate, n_pub_rows) for kind, rate in PUB_DEFECTS.items()}
        return {
            "workload": self.name,
            "seed": self.seed,
            "shape": asdict(self.shape),
            "rows": {"publications": n_pub_rows, "evidence": n_lines},
            "records_kept": n_records,
            "classified": classified,
            "overlap": overlap,
            "all_sciences_denominators": denominators,
            # Only the (source, kind) pairs whose handling the README fixes;
            # duplicate evidence DOIs are planted but their issue is not
            # asserted either way.
            "issues": {
                "publications/malformed": pub_defects["non_citable"] + pub_defects["out_of_period"],
                "publications/missing_required_field": pub_defects["missing_journal"],
                "evidence/malformed": planted["invalid_json"] + planted["bad_host_type"],
                "evidence/missing_required_field": planted["missing_field"],
            },
        }

    def write(self, out: Path, pub_rows, institutions, journals, lines) -> dict:
        out.mkdir(parents=True, exist_ok=True)
        files = {}
        if self.shape.json_gzip:
            files["publications"] = "publications.jsonl.gz"
            with gzip.open(out / files["publications"], "wt", encoding="utf-8", compresslevel=6) as fh:
                for row in pub_rows:
                    fh.write(json.dumps(row) + "\n")
            files["evidence"] = "evidence.jsonl.gz"
            with gzip.open(out / files["evidence"], "wt", encoding="utf-8", compresslevel=6) as fh:
                fh.write("\n".join(lines) + "\n")
            files["journals"] = "journals.jsonl"
            with open(out / files["journals"], "w", encoding="utf-8") as fh:
                for row in journals:
                    fh.write(json.dumps({**row, "has_apc": row["has_apc"] or None}) + "\n")
        else:
            files["publications"] = "publications.csv"
            with open(out / files["publications"], "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(("pub_id", "doi", "year", "doc_type", "language",
                                 "journal_id", "institution_ids", "field_ids"))
                for row in pub_rows:
                    writer.writerow((row["pub_id"], row["doi"], row["year"], row["doc_type"],
                                     row["language"], row["journal_id"],
                                     ";".join(row["institution_ids"]), ";".join(row["field_ids"])))
            files["evidence"] = "evidence.jsonl"
            with open(out / files["evidence"], "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            files["journals"] = "journals.csv"
            with open(out / files["journals"], "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(("journal_id", "issns", "country", "is_fully_oa", "has_apc",
                                 "publisher_address"))
                for row in journals:
                    writer.writerow((row["journal_id"], row["issns"], row["country"],
                                     "true" if row["is_fully_oa"] else "false", row["has_apc"],
                                     row["publisher_address"]))
        if self.shape.command == "report":  # `classify` takes no roster
            files["institutions"] = "institutions.csv"
            with open(out / files["institutions"], "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(("inst_id", "name", "country", "regions", "repo_url_patterns"))
                for r in institutions:
                    writer.writerow((r["inst_id"], r["name"], r["country"], r["regions"],
                                     r["repo_url_patterns"]))
        return files


def build(workload: str, seed: int, out: Path) -> dict:
    """Write one corpus into `out` and return its reference."""
    return _Builder(workload, seed).build(Path(out))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    reference = build(args.workload, args.seed, args.out)
    with open(args.out / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh)
    print(json.dumps({k: reference[k] for k in ("rows", "records_kept", "bytes")}))


if __name__ == "__main__":
    main()
