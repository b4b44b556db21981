"""The CLI's --deterministic output on the demo CSV, byte for byte.

Each file under data/golden/ holds the output of one command on
demos/data/smart_home.csv.  A change that alters any of them alters
results; regenerate a file only when that is intended, and record why in
CHANGES.md.
"""

import csv
from pathlib import Path
from unittest import mock

import pytest

from labelsplit import ingest
from labelsplit.cli import main

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "data" / "golden"
DEMO_CSV = str(ROOT / "demos" / "data" / "smart_home.csv")

CASES = {
    "convert.csv": ["convert", "--to", "csv", "--base-label", "Sensor"],
    "convert.xes": ["convert", "--to", "xes", "--base-label", "Sensor"],
    "scan.json": ["scan", "--base-label", "Sensor"],
    "scan-all-relations.json": ["scan", "--base-label", "Sensor", "--relations",
                                "directly_follows,directly_precedes,eventually_follows,"
                                "eventually_precedes,length_two_loop"],
    # an explicit context that labels no event, one that names the split
    # parent (left out with a note), and the candidate-set-wide threshold
    "scan-contexts-family.json": ["scan", "--base-label", "Sensor",
                                  "--family-scope", "per_candidate_set", "--context-labels",
                                  "Living room motion,Bedroom motion,Front door"],
    "evaluate.json": ["evaluate", "--base-label", "Sensor",
                      "--refined-label", "Sensor,Activity"],
    "gen-candidates.json": ["gen-candidates", "--base-label", "Sensor"],
    "stats.csv": ["stats", "--base-label", "Sensor", "--format", "csv"],
    "stats-all-relations.csv": ["stats", "--base-label", "Sensor", "--format", "csv",
                                "--include-self", "--relations",
                                "directly_follows,directly_precedes,eventually_follows,"
                                "eventually_precedes,length_two_loop"],
    "stats.json": ["stats", "--base-label", "Sensor", "--format", "json", "--include-self",
                   "--relations", "directly_follows,directly_precedes,eventually_follows,"
                                  "eventually_precedes,length_two_loop",
                   "--b-labels", "Bedroom motion,Living room motion",
                   "--c-labels", "Living room motion"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_deterministic_output_matches_golden_file(name, tmp_path, capsys):
    out = tmp_path / name
    argv = [*CASES[name], "--csv", DEMO_CSV, "--deterministic", "--out", str(out)]
    assert main(argv) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
    # with --out nothing reaches stdout, whose last line a caller may read
    assert capsys.readouterr().out == ""


def test_csv_conversion_reproduces_itself(tmp_path):
    # the golden CSV carries each column once, so converting it again
    # changes nothing
    out = tmp_path / "again.csv"
    argv = [*CASES["convert.csv"], "--csv", str(GOLDEN / "convert.csv"), "--out", str(out)]
    assert main(argv) == 0
    assert out.read_bytes() == (GOLDEN / "convert.csv").read_bytes()


@pytest.mark.parametrize("name", ["stats.csv", "evaluate.json", "scan.json"])
def test_quoted_crlf_copy_of_the_demo_csv_gives_the_golden_output(name, tmp_path):
    # every cell quoted and every line ended by CRLF: csv.reader reads this
    # copy, where the quote-free demo file is split in bulk
    quoted = tmp_path / "quoted.csv"
    with open(DEMO_CSV, encoding="utf-8", newline="") as src, \
            quoted.open("w", encoding="utf-8", newline="") as dst:
        csv.writer(dst, quoting=csv.QUOTE_ALL, lineterminator="\r\n").writerows(csv.reader(src))
    out = tmp_path / name
    with mock.patch.object(ingest, "_row_chunks", wraps=ingest._row_chunks) as rows:
        assert main([*CASES[name], "--csv", str(quoted), "--deterministic", "--out", str(out)]) == 0
    assert rows.called
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
