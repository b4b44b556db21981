"""What importing the package costs, and the loggers it imports on use."""

import logging
import os
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

from labelsplit import Event, EventLog, Trace, generate_median_time_candidates, parse_xes_minimal

SRC = Path(__file__).resolve().parents[1] / "src"
LOW_POWER = ("median split of a leaves a child with <2 occurrences; "
             "the tests will have little power")


def _python(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)


def test_import_loads_no_code_generating_or_logging_module():
    # the modules a fresh interpreter has before the import are those of a
    # bare ``python -c pass``
    code = ("import sys; bare = set(sys.modules); import labelsplit, labelsplit.cli; "
            "print(' '.join(sorted(set(sys.modules) - bare)))")
    done = _python("-c", code)
    assert done.returncode == 0, done.stderr
    added = set(done.stdout.split())
    assert {"labelsplit", "labelsplit.cli"} <= added
    assert not added & {"dataclasses", "logging", "inspect"}


def _low_power_rows() -> list[tuple[str, str]]:
    """(time of day, label) rows whose median split of "a" leaves one "a"
    before the threshold."""
    return [("01:00", "a"), ("02:00", "a"), ("02:00", "a"), ("02:00", "a"), ("03:00", "b")]


def test_the_low_power_warning_reaches_the_evaluate_logger(caplog):
    events = [Event(k, datetime.fromisoformat(f"2020-01-0{k + 1} {hhmm}+00:00"), {"act": name})
              for k, (hhmm, name) in enumerate(_low_power_rows())]
    log = EventLog([Trace(f"t{event.id}", [event]) for event in events])
    with caplog.at_level(logging.WARNING, logger="labelsplit.evaluate"):
        generate_median_time_candidates(log, "UTC")
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == \
        [("labelsplit.evaluate", logging.WARNING, LOW_POWER)]


def test_the_skipped_xes_attribute_warning_reaches_the_ingest_logger(caplog):
    text = """<log><trace><event>
              <string key="concept:name" value="x"/>
              <date key="time:timestamp" value="2020-01-01T07:00:00+00:00"/>
              <int key="count" value="3"/>
              </event></trace></log>"""
    with caplog.at_level(logging.WARNING, logger="labelsplit.ingest"):
        parse_xes_minimal(text)
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == \
        [("labelsplit.ingest", logging.WARNING, "ignored 1 unsupported XES attribute(s)")]


def test_a_cli_run_prints_the_low_power_warning(tmp_path):
    csv = tmp_path / "low.csv"
    csv.write_text("id,timestamp,case,act\n" + "".join(
        f"{k},2020-01-0{k} {hhmm},d{k},{name}\n"
        for k, (hhmm, name) in enumerate(_low_power_rows(), start=1)))
    done = _python("-m", "labelsplit.cli", "scan", "--csv", str(csv), "--base-label", "act",
                   "--deterministic")
    assert done.returncode == 0, done.stderr
    assert done.stderr == LOW_POWER + "\n"
