"""The CLI's --deterministic output, byte for byte.

Each file under data/golden/ holds the output of one command on
demos/data/smart_home.csv, except evaluate-walk.json, which holds the
output on the log ``write_walk_log`` builds.  A change that alters any of
them alters results; regenerate a file only when that is intended, and
record why in CHANGES.md.
"""

import csv
import random
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
    # two split parents, each a context of the other's children: those
    # parent columns, and every length_two_loop one, are read from the base
    # log, not summed from the children's
    "evaluate-two-parents.json": ["evaluate", "--base-label", "Sensor", "--rules",
                                  str(Path(__file__).parent / "data" / "two-parents.rules"),
                                  "--relations", "directly_follows,directly_precedes,"
                                  "eventually_follows,eventually_precedes,length_two_loop"],
    "gen-candidates.json": ["gen-candidates", "--base-label", "Sensor"],
    # the human-readable views
    "scan.txt": ["scan", "--base-label", "Sensor", "--pretty"],
    "evaluate.txt": ["evaluate", "--base-label", "Sensor", "--refined-label", "Sensor,Activity",
                     "--pretty"],
    "gen-candidates.txt": ["gen-candidates", "--base-label", "Sensor", "--pretty"],
    "stats.txt": ["stats", "--base-label", "Sensor", "--pretty"],
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


# the evaluation of write_walk_log's log, whose Fisher tables are too large
# for the exact path and take the float walk
WALK_ARGV = ["evaluate", "--base-label", "sensor", "--refined-label", "sensor,mode",
             "--case-key", "case"]


def write_walk_log(path, seed=23, events=3000, trace_length=500):
    """Write a CSV log of ``events`` events in traces of ``trace_length``.

    About 65 % of the events are labelled a, and their mode (x or y) leans
    towards x after a b, so the split of a into (a, x) and (a, y) is
    decided by tables of about 2 000 occurrences.  Every draw is
    ``random.Random(seed).random()``, whose numbers are the same on every
    Python version.
    """
    rng = random.Random(seed)
    lines = ["id,timestamp,case,sensor,mode"]
    previous = ""
    for i in range(events):
        case, minute = divmod(i, trace_length)
        u = rng.random()
        sensor = "a" if u < 0.65 else "b" if u < 0.8 else "c" if u < 0.92 else "d"
        mode = "-"
        if sensor == "a":
            mode = "x" if rng.random() < (0.7 if previous == "b" else 0.45) else "y"
        lines.append(f"{i + 1},2024-01-{case + 1:02d} {minute // 60:02d}:{minute % 60:02d}:00,"
                     f"c{case},{sensor},{mode}")
        previous = sensor
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_walk_side_output_matches_golden_file(tmp_path):
    log = tmp_path / "walk.csv"
    write_walk_log(log)
    out = tmp_path / "evaluate-walk.json"
    assert main([*WALK_ARGV, "--csv", str(log), "--deterministic", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "evaluate-walk.json").read_bytes()
