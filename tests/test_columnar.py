"""The columnar CSV path against a row-by-row oracle, relabeling on columns
against relabeling materialised events and against the event-by-event
oracle, and no Event built on the way, nor any table, test or entropy
object up to the written output."""

import contextlib
import csv
import gc
import io
import tempfile
import tracemalloc
from collections import Counter
from datetime import time, timezone
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from labelsplit import (ContingencyTable, CsvFormatError, CsvSchema, Event, EventLog, Label,
                        MissingAttributeError, Projection, RuleBased, RuleError, TimeThreshold,
                        Trace, cli, ingest, parse_csv)
from labelsplit.ingest import read_csv
from labelsplit.stats import TestResult as FisherResult
from labelsplit import model
from labelsplit.model import InternedLog

from oracles import naive_csv_error, naive_csv_log, naive_relabel

DEMO_CSV = str(Path(__file__).parent.parent / "demos" / "data" / "smart_home.csv")
DEMO_XES = str(Path(__file__).parent / "data" / "golden" / "convert.xes")

# local wall-clock times around both 2021 DST changes in Europe/Amsterdam
# (02:00-03:00 on 28 March does not exist there; 02:00-03:00 on 31 October
# happens twice), so equal timestamps and cross-midnight days are common
_CLOCKS = ["2021-03-27T23:30:00", "2021-03-28T00:30:00", "2021-03-28T01:59:00",
           "2021-03-28T02:30:00", "2021-03-28T03:15:00", "2021-10-30T23:45:00",
           "2021-10-31T00:15:00", "2021-10-31T02:30:00", "2021-10-31T23:59:00"]
_ZONES = ["", "Z", "+00:00", "+02:00", "-05:00"]


@st.composite
def csv_inputs(draw):
    """CSV text plus the CLI flags to read it with.  Lines end in LF or
    CRLF, the last one or not; body cells may be quoted and blank lines
    may come between rows: the text csv.reader reads.  Other texts are
    split in bulk.  With a drawn ``ordered``, the rows come trace by trace
    in time order, as a sensor export writes them."""
    has_id = draw(st.booleans())
    has_case = draw(st.booleans())
    names = ["timestamp", "home", "sensor", "act"] + (["case"] if has_case else [])
    if has_id:
        names.insert(draw(st.integers(0, len(names))), "id")
    quoted = [draw(st.booleans()) for _ in names]
    header = ",".join(f'"{name}"' if q else name for name, q in zip(names, quoted))
    quoted_cells = draw(st.booleans())
    blank_lines = draw(st.booleans())
    n = draw(st.integers(0, 14))
    ids = draw(st.lists(st.one_of(st.integers(0, 30).map(str),
                                  st.sampled_from(["x1", "a", "b7", "zz", "07"])),
                        min_size=n, max_size=n, unique=True))
    rows = [{"id": event_id,
             "timestamp": draw(st.sampled_from(_CLOCKS)) + draw(st.sampled_from(_ZONES)),
             "home": draw(st.sampled_from(["h1", "h2"])),
             "sensor": draw(st.sampled_from(["a", "b", "c"])),
             "act": draw(st.sampled_from(["x", "y"])),
             "case": draw(st.sampled_from(["c1", "c2", "c3"]))} for event_id in ids]
    flags = {
        "case_key": draw(st.sampled_from([[], ["home"], ["sensor", "home"]])),
        "calendar_day": draw(st.booleans()),
        "tz": draw(st.sampled_from(["UTC", "Europe/Amsterdam"])),
        "label": draw(st.sampled_from([["sensor"], ["sensor", "act"]])),
    }
    if draw(st.booleans()):  # ordered: sorted by (trace key, time), ties as drawn
        rows.sort(key=lambda cells: _trace_key(cells, flags, has_case))
    lines = [header]
    for cells in rows:
        if blank_lines and draw(st.integers(0, 3)) == 0:
            lines.append("")  # a blank line still takes a row index
        lines.append(",".join(f'"{cells[name]}"' if quoted_cells and draw(st.booleans())
                              else cells[name] for name in names))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + (end if draw(st.booleans()) else ""), flags


def _trace_key(cells: dict, flags: dict, has_case: bool) -> tuple:
    """A row's trace key (its key attributes and local date), then its time."""
    zone = ingest.time_zone(flags["tz"])
    utc = ingest.parse_timestamp(cells["timestamp"], None, zone)
    names = flags["case_key"] or (["case"] if has_case and not flags["calendar_day"] else [])
    return (*(cells[name] for name in names),
            *([utc.astimezone(zone).date()] if flags["calendar_day"] else []), utc)


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
_CHUNK_SIZES = [1, 2, 3, ingest._CHUNK]
_CHUNKS = st.sampled_from(_CHUNK_SIZES)
# lines are read from blocks of text; small blocks put block ends between
# the lines of a quoted cell and just before a faulty line
_BLOCK_SIZES = [1, 7, 64, ingest._BLOCK]
_BLOCKS = st.sampled_from(_BLOCK_SIZES)

# read_csv splits a quote-free LF text in bulk; a quoted cell, CRLF or a
# blank line sends the whole text to csv.reader (the CLI reads files with
# their line ends as written, so a CRLF file does too)
_SPLIT_TEXT = ("timestamp,id,home,sensor,act\n2021-03-28T02:30:00,3,h1,a,x\n"
               "2021-03-28T00:30:00Z,07,h2,b,y\n2021-10-31T02:30:00+02:00,x1,h1,c,x\n"
               "2021-03-27T23:30:00,b7,h2,a,y\n")
_READER_TEXTS = [_SPLIT_TEXT.replace(",h2,", ',"h2",'), _SPLIT_TEXT.replace("\n", "\r\n"),
                 _SPLIT_TEXT.replace("y\n2021", "y\n\n2021")]
_FLAGS = {"case_key": ["home"], "calendar_day": True, "tz": "Europe/Amsterdam",
          "label": ["sensor", "act"]}


def _reads_with_csv_reader(text: str, delimiter: str = ",") -> bool:
    """Whether ``parse_csv`` hands ``text`` to csv.reader past its header,
    read with every column but the timestamp an attribute (with none, the
    timestamp)."""
    names = next(csv.reader(io.StringIO(text), delimiter=delimiter))
    schema = CsvSchema(timestamp_column="timestamp",
                       attribute_columns=[name for name in names if name != "timestamp"]
                       or ["timestamp"], delimiter=delimiter)
    with mock.patch.object(ingest, "_row_chunks", wraps=ingest._row_chunks) as rows:
        try:
            parse_csv(text, schema)
        except CsvFormatError:
            pass
    return rows.called


def _every_size(*cases):
    """Hypothesis examples: each case read at each chunk size and at each
    block size."""
    def decorate(test):
        for case in reversed(cases):
            for chunk in reversed(_CHUNK_SIZES):
                for block in reversed(_BLOCK_SIZES):
                    test = example(case, chunk, block)(test)
        return test
    return decorate


def _sized(chunk: int, block: int):
    """Rows read ``chunk`` at a time, from blocks of ``block`` characters."""
    return mock.patch.multiple(ingest, _CHUNK=chunk, _BLOCK=block)


# rows that come in runs of one key: ties out of id order inside one run,
# one trace in two runs apart, runs in reverse key order, one-row traces
_RUN_TEXTS = [
    "timestamp,id,home,sensor\n2021-03-28T00:30:00,5,h1,a\n2021-03-28T01:00:00,x1,h1,b\n"
    "2021-03-28T01:00:00,07,h1,c\n2021-03-28T01:00:00,3,h1,a\n2021-03-28T00:10:00,9,h2,b\n",
    "timestamp,id,home,sensor\n2021-03-28T00:30:00,1,h1,a\n2021-03-28T00:40:00,2,h1,b\n"
    "2021-03-28T00:35:00,3,h2,c\n2021-03-28T00:50:00,4,h1,a\n2021-03-28T00:55:00,5,h1,c\n",
    "timestamp,id,home,sensor\n2021-03-28T00:30:00,1,h2,a\n2021-03-28T00:40:00,2,h2,b\n"
    "2021-03-28T00:35:00,3,h1,c\n2021-03-28T00:50:00,4,h1,a\n",
    "timestamp,id,home,sensor\n2021-03-28T00:30:00,1,h1,a\n2021-03-28T00:20:00,2,h2,b\n"
    "2021-03-28T00:25:00,3,h2,c\n",
]
_RUN_FLAGS = {"case_key": ["home"], "calendar_day": False, "tz": "UTC", "label": ["sensor"]}


@settings(max_examples=150, deadline=None)
@given(csv_inputs(), _CHUNKS, _BLOCKS)
@_every_size((_SPLIT_TEXT, _FLAGS), *((text, _FLAGS) for text in _READER_TEXTS),
             *((text, _RUN_FLAGS) for text in _RUN_TEXTS))
def test_cli_csv_log_matches_row_by_row_oracle(case, chunk, block):
    text, flags = case
    with _sized(chunk, block):
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
    timestamp, span several lines, hold a cell over the field size limit,
    carry text after a closing quote or leave a quote open at the end,
    with LF or CRLF line ends, the last one or not; whether it has an id
    column, and the field size limit to read it under (None: the
    default)."""
    has_id = draw(st.booleans())
    lines = [("id," if has_id else "") + "timestamp,sensor"]
    for _ in range(draw(st.integers(0, 8))):
        cells = [draw(st.sampled_from(["1", "2", "x", "10"]))] if has_id else []
        cells.append(draw(st.sampled_from(["2021-03-28 02:30", "2021-03-28T01:00Z",
                                           " 2021-03-28 01:00+02:00 ", "not-a-date", ""])))
        cells.append(draw(st.sampled_from(["a", '"multi\nline"', '"b,c"', "y" * 45, '"ab"c'])))
        if draw(st.integers(0, 6)) == 0:
            cells.append("extra")
        if draw(st.integers(0, 6)) == 0:
            lines.append("")
        lines.append(",".join(cells))
    if draw(st.integers(0, 5)) == 0:
        lines.append(("1," if has_id else "") + '2021-03-28 02:30,"open')
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + (end if draw(st.booleans()) else "")
    return text, has_id, draw(st.sampled_from([None, 40]))


@settings(max_examples=300, deadline=None)
@given(faulty_csv(), _CHUNKS, _BLOCKS)
@example(("id,timestamp,sensor\n1,2021-03-28 02:30,a\n\n1,2021-03-28 02:30,a\n", True, None), 1,
         ingest._BLOCK)
@example(("timestamp,sensor\n\n2021-03-28 02:30,a\n\n\nx,a\n", False, None), 2, 7)
@_every_size(
    # split in bulk: a repeated id, then a bad timestamp in a later chunk
    ("id,timestamp,sensor\n1,2021-03-28 02:30,a\n2,2021-03-28 02:31,a\n"
     "1,2021-03-28 02:32,a\n3,bad,a\n", True, None),
    # a later chunk goes to csv.reader: a quote open at the end, after a
    # ragged row
    ("timestamp,sensor\n2021-03-28 02:30,a\n2021-03-28 02:31,a,b\n"
     '2021-03-28 02:32,"open\n2021-03-28 02:33,a\n', False, None),
    # a cell over the field size limit
    ("timestamp,sensor\n2021-03-28 02:30,a\n2021-03-28 02:31," + "y" * 45 + "\n",
     False, 40),
    # no error: CRLF line ends, then a last line with none
    ("id,timestamp,sensor\r\n1,2021-03-28 02:30,a\r\n2,2021-03-28 02:31,b\r\n"
     "3,2021-03-28 02:32,c", True, None))
def test_csv_errors_name_the_first_faulty_line(case, chunk, block):
    text, has_id, limit = case
    schema = CsvSchema(timestamp_column="timestamp", attribute_columns=("sensor",),
                       id_column="id" if has_id else "synthesize")
    default = csv.field_size_limit()
    csv.field_size_limit(limit or default)
    try:
        expected = naive_csv_error(text)
        if expected is None:
            # synthesized ids are row numbers that count blank lines too
            rows = list(csv.reader(io.StringIO(text)))[1:]
            expected = [(row[0] if has_id else k, (("sensor", row[-1]),))
                        for k, row in enumerate(rows, 1) if row]
            with _sized(chunk, block):
                assert [(e.id, e.attributes) for e in parse_csv(text, schema)] == expected
        else:
            with _sized(chunk, block), pytest.raises(CsvFormatError) as info:
                parse_csv(text, schema)
            assert str(info.value) == expected
    finally:
        csv.field_size_limit(default)


@pytest.mark.parametrize("text, delimiter, by_reader", [
    (_SPLIT_TEXT, ",", False),
    (_SPLIT_TEXT.rstrip("\n"), ",", False),  # no final line end
    (_SPLIT_TEXT.replace(",", "\t"), "\t", False),
    (_SPLIT_TEXT.replace(",", "\u00a6"), "\u00a6", True),  # not ASCII
    *((text, ",", True) for text in _READER_TEXTS),
    (_SPLIT_TEXT + '2021-03-28T02:30:00,9,h1,"a,b",x\n', ",", True),  # in a later line
    (_SPLIT_TEXT + "2021-03-28T02:30:00,9,h1,a\x00b,x\n", ",", True),  # NUL
    (_SPLIT_TEXT + "2021-03-28T02:30:00,9,h1,a,x,extra\n", ",", True),  # ragged
    (_SPLIT_TEXT + "2021-03-28T02:30:00,9,h1,a,x" + "y" * 131072 + "\n", ",", True),  # long
    ("timestamp,sensor\n", ",", False),  # no data row
    ("timestamp\n2021-03-28T02:30:00\n", ",", True),  # one column
])
def test_quote_free_lf_rows_are_split_without_csv_reader(text, delimiter, by_reader):
    assert _reads_with_csv_reader(text, delimiter) == by_reader


@pytest.mark.parametrize("chunk", _CHUNK_SIZES)
def test_a_chunk_that_csv_reader_must_read_restarts_the_whole_text(chunk):
    # the quote comes after the first chunks were split: every row is read
    # again by csv.reader, and read the same
    text = _SPLIT_TEXT + '2021-03-28T02:40:00,9,h1,"a,b",x\n'
    schema = CsvSchema(timestamp_column="timestamp", attribute_columns=("home", "sensor", "act"),
                       id_column="id")
    with mock.patch.object(ingest, "_CHUNK", chunk), \
            mock.patch.object(ingest, "_split_chunks", wraps=ingest._split_chunks) as split:
        events = parse_csv(text, schema)
    assert split.called
    assert [(e.id, e.attributes) for e in events] == [
        (row["id"], tuple((name, row[name]) for name in ("home", "sensor", "act")))
        for row in csv.DictReader(io.StringIO(text))]


def _many_blocks(end: str, fault: bool) -> str:
    """A CSV text of about six default blocks, with line ends ``end`` and,
    with ``fault``, a bad timestamp on its last line."""
    rows = [f"{i},2021-03-{1 + i // 1000:02d}T{i % 24:02d}:{i % 60:02d}:00,h{i % 2},s{i % 5}"
            for i in range(1, 12001)]
    if fault:
        rows[-1] = "12000,not-a-date,h0,s0"
    return end.join(["id,timestamp,home,sensor", *rows, ""])


@pytest.mark.parametrize("end", ["\n", "\r\n"])  # split in bulk, or read by csv.reader
@pytest.mark.parametrize("fault", [False, True])
def test_no_string_io_holds_more_than_a_block(tmp_path, monkeypatch, end, fault):
    text = _many_blocks(end, fault)
    bound = ingest._BLOCK + max(map(len, io.StringIO(text)))
    assert len(text) > 5 * bound
    path = tmp_path / "log.csv"
    path.write_text(text, encoding="utf-8", newline="")
    sizes, string_io = [], io.StringIO

    def recording(initial_value="", *args, **kwargs):
        sizes.append(len(initial_value or ""))
        return string_io(initial_value, *args, **kwargs)

    monkeypatch.setattr(ingest.io, "StringIO", recording)
    schema = CsvSchema(timestamp_column="timestamp", attribute_columns=("home", "sensor"),
                       id_column="id")
    with (pytest.raises(CsvFormatError, match="line 12001: unparseable") if fault
          else contextlib.nullcontext()):
        read_csv(text, schema, ("sensor",))
    assert cli.main(["stats", "--csv", str(path), "--base-label", "sensor", "--case-key", "home",
                     "--format", "csv", "--out", str(tmp_path / "out.csv")]) == (2 if fault else 0)
    assert max(sizes) <= bound
    if end == "\r\n" or fault:  # csv.reader, or the re-read naming the faulty line, reads it
        assert len(sizes) > 10
    else:
        # the bulk split reads the text a block at a time and builds no
        # StringIO past the header's: what it holds beyond the columns it
        # returns does not grow with the text
        half = "".join(text.splitlines(keepends=True)[:6001])
        assert _held_while_read(text, schema) < 1.25 * _held_while_read(half, schema)


def _held_while_read(text: str, schema: CsvSchema) -> int:
    """The bytes ``read_csv`` holds at its peak beyond what it returns."""
    tracemalloc.start()
    try:
        columns = read_csv(text, schema, ("sensor",))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del columns
    return peak - kept


_DATES = ["2021-03-28", "2024-02-29", "2021-10-31", "1999-12-31"]


@st.composite
def timestamp_texts(draw):
    """ISO-8601 texts: a date alone or with a time (T or space, minutes,
    seconds, a fraction), a zone (none, Z, an offset), surrounding spaces;
    or a near miss that does not parse."""
    text = draw(st.sampled_from(_DATES))
    if draw(st.integers(0, 3)):
        text += draw(st.sampled_from(["T", " "])) + draw(st.sampled_from(["00", "23", "02"]))
        text += draw(st.sampled_from(["", ":30", ":59:59", ":00:00"]))
        if text.count(":") == 2 and draw(st.booleans()):
            text += "." + draw(st.text("0123456789", min_size=1, max_size=6))
        text += draw(st.sampled_from(["", "", "Z", "+00:00", "+02:00", "-05:30", "+0000"]))
    text = draw(st.sampled_from(["", " ", "  "])) + text + draw(st.sampled_from(["", " ", "\t"]))
    if not draw(st.integers(0, 7)):
        # fromisoformat reads some of these when a zone follows them, and
        # reads a Z as the date-time separator
        text = draw(st.sampled_from(["2021-03-28 00:00:", "2021-03-28 00:005", "20210328T000",
                                     "2021-03-28T02:30 +02:00", "2021-03-28Z00:00",
                                     "2021-03-28T", "2021-02-30", "2021-03-28T24:00"]))
    return text


def _parsed_one_by_one(texts, tz):
    try:
        return [ingest.parse_timestamp(text, None, tz) for text in texts]
    except ValueError:
        return ValueError


@settings(max_examples=400, deadline=None)
@given(st.lists(timestamp_texts(), min_size=1, max_size=5),
       st.sampled_from(["UTC", "Europe/Amsterdam", None]))
@example(["2024-01-01"], None)
@example(["2024-01-01", "2024-01-01T10:00"], "UTC")
@example(["2021-03-28 00:00:"], None)
def test_utc_times_parse_each_text_as_parse_timestamp_does(texts, zone):
    tz = timezone.utc if zone is None else ingest.time_zone(zone)
    try:
        times = ingest._utc_times(texts, None, tz)
    except ValueError:
        times = ValueError
    expected = _parsed_one_by_one(texts, tz)
    assert times == expected
    if expected is not ValueError:
        assert all(t.tzinfo is timezone.utc for t in times)


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
    ["stats", "--base-label", "Sensor"],
    ["scan", "--base-label", "Sensor"],
])
def test_cli_on_csv_calls_no_event_builder(argv, tmp_path, monkeypatch):
    # a command's logs may be freed before its output is written, so the
    # events alive then need not show the events it built: count the two
    # ways an Event is built instead
    built = []
    init, event = Event.__init__, model._event
    monkeypatch.setattr(Event, "__init__", lambda *a, **k: built.append(1) or init(*a, **k))
    monkeypatch.setattr(model, "_event", lambda *a: built.append(1) or event(*a))
    out = tmp_path / "out"
    assert cli.main([*argv, "--csv", DEMO_CSV, "--deterministic", "--out", str(out)]) == 0
    assert built == []
    # the count works: a minimal-XES log is read into events
    assert cli.main(["scan", "--xes", DEMO_XES, "--deterministic", "--out", str(out)]) == 0
    assert built


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
    for cls in (ContingencyTable, FisherResult):
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
