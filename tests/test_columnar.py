"""The columnar CSV path against a row-by-row oracle, relabeling on columns
against relabeling materialised events and against the event-by-event
oracle, and no Event built on the way, nor any table, test or entropy
object up to the written output."""

import csv
import gc
import io
import tempfile
from collections import Counter
from datetime import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from labelsplit import (ContingencyTable, CsvFormatError, CsvSchema, Event, EventLog, Label,
                        MissingAttributeError, Projection, RuleBased, RuleError, TableEntropy,
                        TimeThreshold, Trace, cli, ingest, parse_csv)
from labelsplit.stats import TestResult as FisherResult
from labelsplit.model import InternedLog

from oracles import naive_csv_error, naive_csv_log, naive_relabel

DEMO_CSV = str(Path(__file__).parent.parent / "demos" / "data" / "smart_home.csv")

# local wall-clock times around both 2021 DST changes in Europe/Amsterdam
# (02:00-03:00 on 28 March does not exist there; 02:00-03:00 on 31 October
# happens twice), so equal timestamps and cross-midnight days are common
_CLOCKS = ["2021-03-27T23:30:00", "2021-03-28T00:30:00", "2021-03-28T01:59:00",
           "2021-03-28T02:30:00", "2021-03-28T03:15:00", "2021-10-30T23:45:00",
           "2021-10-31T00:15:00", "2021-10-31T02:30:00", "2021-10-31T23:59:00"]
_ZONES = ["", "Z", "+00:00", "+02:00", "-05:00"]


@st.composite
def csv_inputs(draw):
    """CSV text plus the CLI flags to read it with."""
    has_id = draw(st.booleans())
    has_case = draw(st.booleans())
    names = ["timestamp", "home", "sensor", "act"] + (["case"] if has_case else [])
    if has_id:
        names.insert(draw(st.integers(0, len(names))), "id")
    quoted = [draw(st.booleans()) for _ in names]
    header = ",".join(f'"{name}"' if q else name for name, q in zip(names, quoted))
    n = draw(st.integers(0, 14))
    ids = draw(st.lists(st.one_of(st.integers(0, 30).map(str),
                                  st.sampled_from(["x1", "a", "b7", "zz", "07"])),
                        min_size=n, max_size=n, unique=True))
    lines = [header]
    for event_id in ids:
        cells = {"id": event_id,
                 "timestamp": draw(st.sampled_from(_CLOCKS)) + draw(st.sampled_from(_ZONES)),
                 "home": draw(st.sampled_from(["h1", "h2"])),
                 "sensor": draw(st.sampled_from(["a", "b", "c"])),
                 "act": draw(st.sampled_from(["x", "y"])),
                 "case": draw(st.sampled_from(["c1", "c2", "c3"]))}
        if draw(st.integers(0, 5)) == 0:
            lines.append("")  # a blank line still takes a row index
        lines.append(",".join(cells[name] for name in names))
    flags = {
        "case_key": draw(st.sampled_from([[], ["home"], ["sensor", "home"]])),
        "calendar_day": draw(st.booleans()),
        "tz": draw(st.sampled_from(["UTC", "Europe/Amsterdam"])),
        "label": draw(st.sampled_from([["sensor"], ["sensor", "act"]])),
    }
    return "\n".join(lines) + "\n", flags


def _cli_log(text: str, flags: dict) -> EventLog:
    argv = ["stats", "--base-label", ",".join(flags["label"]), "--timezone", flags["tz"]]
    if flags["case_key"]:
        argv += ["--case-key", ",".join(flags["case_key"])]
    if flags["calendar_day"]:
        argv += ["--calendar-key", "day"]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.csv"
        path.write_text(text, encoding="utf-8")
        args = cli.build_parser().parse_args([*argv, "--csv", str(path)])
        return cli._load_base_log(args)


def _relabeled(fn, log: EventLog):
    """``fn.apply(log)``, or the error it raises."""
    try:
        return fn.apply(log)
    except (MissingAttributeError, RuleError) as exc:
        return type(exc), str(exc)


def _event_by_event(fn, log: EventLog):
    """``oracles.naive_relabel(fn, log)``, or the error it raises."""
    try:
        return naive_relabel(fn, log)
    except (MissingAttributeError, RuleError) as exc:
        return type(exc), str(exc)


# rows are read a chunk at a time; small chunks put chunk ends anywhere
_CHUNKS = st.sampled_from([1, 2, 3, ingest._CHUNK])


@settings(max_examples=150, deadline=None)
@given(csv_inputs(), _CHUNKS)
def test_cli_csv_log_matches_row_by_row_oracle(case, chunk):
    text, flags = case
    with mock.patch.object(ingest, "_CHUNK", chunk):
        log = _cli_log(text, flags)
    expected = naive_csv_log(text, flags["label"], flags["case_key"], flags["calendar_day"],
                             flags["tz"])
    assert [t.case_id for t in log] == [case_id for case_id, _ in expected]
    for trace, (_, events) in zip(log, expected):
        assert [e.id for e in trace] == [e.id for e in events]
        assert [e.timestamp for e in trace] == [e.timestamp for e in events]
        assert [e.attributes for e in trace] == [e.attributes for e in events]
        assert [e.label for e in trace] == [e.label for e in events]
    assert log.interned == InternedLog.of(Trace(case_id, events) for case_id, events in expected)

    # relabeling the columns equals relabeling the materialised events
    materialised = EventLog(log.traces)
    base = log.interned.labels[0] if log.interned.labels else Label("a")
    for fn in (Projection(("act", "sensor")), Projection(("sensor", "nope")),
               TimeThreshold(base, time(1, 30), Label("lo"), Label("hi"), timezone=flags["tz"]),
               RuleBased.from_text("act = x -> X\nsensor != b -> not-b"),
               RuleBased.from_text("home = h1 -> one\nnope = 1 -> never\ndefault -> other")):
        columnar = _relabeled(fn, log)
        assert columnar == _relabeled(fn, materialised)
        reference = _event_by_event(fn, materialised)
        assert columnar == reference
        if isinstance(columnar, EventLog):
            assert columnar.interned == InternedLog.of(reference.traces)


@st.composite
def faulty_csv(draw):
    """CSV text whose rows may be ragged, repeat an id, carry a bad
    timestamp or span several lines."""
    has_id = draw(st.booleans())
    lines = [("id," if has_id else "") + "timestamp,sensor"]
    for _ in range(draw(st.integers(0, 8))):
        cells = [draw(st.sampled_from(["1", "2", "x", "10"]))] if has_id else []
        cells.append(draw(st.sampled_from(["2021-03-28 02:30", "2021-03-28T01:00Z",
                                           " 2021-03-28 01:00+02:00 ", "not-a-date", ""])))
        cells.append(draw(st.sampled_from(["a", '"multi\nline"', '"b,c"'])))
        if draw(st.integers(0, 6)) == 0:
            cells.append("extra")
        if draw(st.integers(0, 6)) == 0:
            lines.append("")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n", has_id


@settings(max_examples=300, deadline=None)
@given(faulty_csv(), _CHUNKS)
@example(("id,timestamp,sensor\n1,2021-03-28 02:30,a\n\n1,2021-03-28 02:30,a\n", True), 1)
@example(("timestamp,sensor\n\n2021-03-28 02:30,a\n\n\nx,a\n", False), 2)
def test_csv_errors_name_the_first_faulty_line(case, chunk):
    text, has_id = case
    schema = CsvSchema(timestamp_column="timestamp", attribute_columns=("sensor",),
                       id_column="id" if has_id else "synthesize")
    expected = naive_csv_error(text)
    if expected is None:
        # synthesized ids are row numbers that count blank lines too
        rows = list(csv.reader(io.StringIO(text)))[1:]
        ids = [row[0] if has_id else k for k, row in enumerate(rows, 1) if row]
        with mock.patch.object(ingest, "_CHUNK", chunk):
            assert [e.id for e in parse_csv(text, schema)] == ids
    else:
        with mock.patch.object(ingest, "_CHUNK", chunk), pytest.raises(CsvFormatError) as info:
            parse_csv(text, schema)
        assert str(info.value) == expected


def _live_events() -> int:
    return sum(isinstance(o, Event) for o in gc.get_objects())


@pytest.mark.parametrize("argv", [
    ["evaluate", "--base-label", "Sensor", "--refined-label", "Sensor,Activity"],
    ["stats", "--base-label", "Sensor"],
    ["scan", "--base-label", "Sensor"],
])
def test_cli_on_csv_builds_no_event(argv, tmp_path, monkeypatch):
    # the logs are alive while the result is written, so any event built
    # for them (and cached on them) is alive then too
    emit, seen = cli._emit, []

    def counting_emit(*args, **kwargs):
        seen.append(_live_events())
        return emit(*args, **kwargs)

    monkeypatch.setattr(cli, "_emit", counting_emit)
    gc.collect()
    before = _live_events()
    out = tmp_path / "out"
    assert cli.main([*argv, "--csv", DEMO_CSV, "--deterministic", "--out", str(out)]) == 0
    assert seen == [before]


@pytest.mark.parametrize("argv", [
    ["evaluate", "--base-label", "Sensor", "--refined-label", "Sensor,Activity"],
    ["scan", "--base-label", "Sensor"],
    ["scan", "--base-label", "Sensor", "--family-scope", "per_candidate_set",
     "--context-labels", "Living room motion,Bedroom motion,Front door"],
])
def test_cli_builds_no_table_test_or_entropy_object(argv, tmp_path, monkeypatch):
    # tables, tests and entropies are read from count arrays up to the
    # written text; only --pretty reads them as objects
    built = Counter()
    for cls in (ContingencyTable, FisherResult, TableEntropy):
        def counting_init(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    emit, seen = cli._emit, []

    def counting_emit(*args, **kwargs):
        seen.append(dict(built))
        return emit(*args, **kwargs)

    monkeypatch.setattr(cli, "_emit", counting_emit)
    out = tmp_path / "out"
    assert cli.main([*argv, "--csv", DEMO_CSV, "--deterministic", "--out", str(out)]) == 0
    assert seen == [{}]
    assert built == Counter()
    if argv[0] == "evaluate":  # its --pretty view lists the tests: the count works
        assert cli.main([*argv, "--csv", DEMO_CSV, "--pretty", "--out", str(out)]) == 0
        assert built["TestResult"] > 0
