from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock
from zoneinfo import ZoneInfo

import pytest

from labelsplit import (CsvFormatError, CsvSchema, Event, Label, PartitionKeySpec, Projection,
                        XesFormatError, ingest, parse_csv, parse_xes_minimal, partition,
                        write_csv, write_xes_minimal)

from oracles import naive_case_key

DATA = Path(__file__).parent / "data"

SMART_HOME_SCHEMA = CsvSchema(
    timestamp_column="timestamp",
    attribute_columns=("case", "Address", "Sensor", "Heart rate", "Activity"),
    id_column="id",
)


def sample_text() -> str:
    return (DATA / "smart_home.csv").read_text()


def test_parse_csv_sample_rows():
    events = parse_csv(sample_text(), SMART_HOME_SCHEMA)
    assert len(events) == 26
    assert [e.id for e in events] == [str(i) for i in range(1, 27)]
    assert events[0].attribute("Sensor") == "Bedroom motion"
    assert events[0].timestamp.isoformat() == "2015-03-11T02:45:00+00:00"


def test_parse_csv_synthesized_ids_are_row_indices():
    schema = CsvSchema(timestamp_column="timestamp", attribute_columns=("Sensor",))
    events = parse_csv("timestamp,Sensor\n2020-01-01 00:00,a\n2020-01-01 00:01,b\n", schema)
    assert [e.id for e in events] == [1, 2]


def test_parse_csv_header_only():
    assert parse_csv("timestamp,Sensor\n",
                     CsvSchema(timestamp_column="timestamp",
                               attribute_columns=("Sensor",))) == []


def test_parse_csv_bad_timestamp_reports_line():
    text = "timestamp,Sensor\n2020-01-01 00:00,a\nnot-a-date,b\n"
    with pytest.raises(CsvFormatError, match="line 3"):
        parse_csv(text, CsvSchema(timestamp_column="timestamp",
                                  attribute_columns=("Sensor",)))


def test_parse_csv_ragged_row_reports_line():
    text = "timestamp,Sensor\n2020-01-01 00:00\n"
    with pytest.raises(CsvFormatError, match="line 2"):
        parse_csv(text, CsvSchema(timestamp_column="timestamp",
                                  attribute_columns=("Sensor",)))


def test_parse_csv_duplicate_explicit_id_is_error():
    text = "id,timestamp,Sensor\n7,2020-01-01 00:00,a\n7,2020-01-01 00:01,b\n"
    with pytest.raises(CsvFormatError, match="duplicate"):
        parse_csv(text, CsvSchema(timestamp_column="timestamp",
                                  attribute_columns=("Sensor",), id_column="id"))


def test_parse_csv_missing_header_column():
    with pytest.raises(CsvFormatError, match="missing column"):
        parse_csv("timestamp,Sensor\n", CsvSchema(timestamp_column="timestamp",
                                                  attribute_columns=("Other",)))


def test_parse_csv_repeated_header_name_is_error():
    # csv.DictReader-style parsing would keep only the last "case" cell
    with pytest.raises(CsvFormatError, match="line 1: header names column 'case' twice"):
        parse_csv("id,timestamp,case,case\n1,2020-01-01 00:00,TRACE-A,attr-value\n",
                  CsvSchema(timestamp_column="timestamp", attribute_columns=("case",)))


def test_write_csv_writes_each_column_once():
    events = parse_csv("id,timestamp,case,label,Sensor\n"
                       "1,2020-01-01 00:00,attr-case,attr-label,a\n",
                       CsvSchema(timestamp_column="timestamp",
                                 attribute_columns=("case", "label", "Sensor"),
                                 id_column="id"), ("Sensor",))
    log = partition(events, PartitionKeySpec((), "day"))
    header, row = write_csv(log).splitlines()
    assert header == "id,timestamp,case,Sensor,label"
    assert row == "1,2020-01-01T00:00:00+00:00,2020-01-01,a,a"


@pytest.mark.parametrize("fmt", [None, "%Y-%m-%d %H:%M:%S"])
@pytest.mark.parametrize("zone, start, mid_hour", [
    # 2024: 02:00-03:00 does not exist on 31 March and occurs twice on 27 October
    ("Europe/Amsterdam", datetime(2024, 3, 30, 23), False),
    ("Europe/Amsterdam", datetime(2024, 10, 26, 23), False),
    # on 1 January 1986 the clocks went from 00:00 to 00:15, mid-hour
    ("Asia/Kathmandu", datetime(1985, 12, 31, 22), True),
])
def test_zone_offsets_per_local_hour_equal_to_utc_across_transitions(zone, start, mid_hour,
                                                                     fmt):
    tz = ZoneInfo(zone)
    naive = [start + timedelta(minutes=7 * i, seconds=i % 2) for i in range(60)]
    texts = [t.strftime("%Y-%m-%d %H:%M:%S") for t in naive]
    with mock.patch.object(ingest, "_to_utc", wraps=ingest._to_utc) as to_utc:
        times = ingest._utc_times(texts, fmt, tz)
    # only a time in an hour where the offset changes is converted on its own
    assert to_utc.called == mid_hour
    assert times == [ingest._to_utc(t, tz) for t in naive]
    assert all(t.tzinfo is timezone.utc for t in times)


def test_zone_conversion_of_the_2024_amsterdam_switches():
    tz = ZoneInfo("Europe/Amsterdam")
    texts = ["2024-03-31 02:30", "2024-10-27 02:30", "2024-10-27 03:30"]
    # the nonexistent 02:30 keeps the winter offset; the ambiguous one is
    # the first, in summer time (fold 0)
    assert ingest._utc_times(texts, None, tz) == [
        datetime(2024, 3, 31, 1, 30, tzinfo=timezone.utc),
        datetime(2024, 10, 27, 0, 30, tzinfo=timezone.utc),
        datetime(2024, 10, 27, 2, 30, tzinfo=timezone.utc)]
    assert ingest._utc_times(texts, None, tz) == [
        ingest._to_utc(datetime.fromisoformat(text), tz) for text in texts]


def test_parse_csv_custom_format_and_timezone():
    schema = CsvSchema(timestamp_column="when", attribute_columns=("Sensor",),
                       timestamp_format="%m/%d/%Y %H:%M", timezone="Europe/Amsterdam")
    events = parse_csv("when,Sensor\n03/11/2015 02:45,a\n", schema)
    # 02:45 CET is 01:45 UTC
    assert events[0].timestamp.isoformat() == "2015-03-11T01:45:00+00:00"


def test_partition_sample_by_address_and_day():
    events = parse_csv(sample_text(), SMART_HOME_SCHEMA)
    log = partition(events, PartitionKeySpec(("Address",), "day"))
    assert [len(t) for t in log] == [6, 5, 7, 4, 4]
    assert log.event_count == 26
    # keys are (address, day) pairs
    assert log.traces[0].case_id[0] == "Mountain Rd. 7"


def test_a_bare_string_is_one_column_or_key_name():
    schema = CsvSchema(timestamp_column="timestamp", attribute_columns="Sensor")
    assert schema == CsvSchema(timestamp_column="timestamp", attribute_columns=("Sensor",))
    events = parse_csv(sample_text(), schema)
    assert [e.attributes for e in events[:2]] == [(("Sensor", "Bedroom motion"),)] * 2
    key = PartitionKeySpec(attribute_keys="Sensor")
    assert key.attribute_keys == ("Sensor",)
    log = partition(events, key)
    assert log == partition(events, PartitionKeySpec(("Sensor",))) and len(log) == 2


def test_partition_single_event():
    events = parse_csv("timestamp,Sensor\n2020-01-01 00:00,a\n",
                       CsvSchema(timestamp_column="timestamp",
                                 attribute_columns=("Sensor",)))
    log = partition(events, PartitionKeySpec(("Sensor",)))
    assert len(log) == 1
    assert len(log.traces[0]) == 1


def test_partition_all_equal_keys_single_trace():
    text = "timestamp,Sensor,home\n" + "".join(
        f"2020-01-01 00:0{i},x,same\n" for i in range(5))
    events = parse_csv(text, CsvSchema(timestamp_column="timestamp",
                                       attribute_columns=("Sensor", "home")))
    log = partition(events, PartitionKeySpec(("home",)))
    assert len(log) == 1
    assert len(log.traces[0]) == 5


def test_partition_is_a_partition():
    events = parse_csv(sample_text(), SMART_HOME_SCHEMA)
    log = partition(events, PartitionKeySpec(("Address",), "day"))
    ids = [e.id for t in log for e in t]
    assert sorted(ids) == sorted(e.id for e in events)
    assert len(set(ids)) == len(ids)
    for trace in log:
        keys = {naive_case_key(e, ["Address"], True, ZoneInfo("UTC")) for e in trace}
        assert keys == {trace.case_id}


def test_partition_of_events_already_in_trace_order():
    # each trace is one run of rows, in key order: taken as a range of rows,
    # and a tie in time still ordered by id
    t0 = datetime(2021, 3, 28, tzinfo=timezone.utc)
    events = [Event(event_id, t0 + timedelta(minutes=minutes), [("home", home)], label=Label(home))
              for event_id, minutes, home in [("2", 0, "a"), ("10", 5, "a"), ("9", 5, "a"),
                                               ("x", 7, "a"), ("1", 0, "b")]]
    key = PartitionKeySpec(("home",))
    with mock.patch.object(ingest, "_time_ordered", wraps=ingest._time_ordered) as ordered:
        log = partition(events, key)
    assert [type(call.args[0]) for call in ordered.call_args_list] == [range, range]
    assert [(t.case_id, [e.id for e in t]) for t in log] == [("a", ["2", "9", "10", "x"]),
                                                            ("b", ["1"])]
    assert log == partition(events[::-1], key)
    key = PartitionKeySpec(("Address",), "day")
    sample = partition(parse_csv(sample_text(), SMART_HOME_SCHEMA), key)
    assert partition([e for t in sample for e in t], key) == sample


def test_partition_missing_key_attribute():
    events = parse_csv("timestamp,Sensor\n2020-01-01 00:00,a\n",
                       CsvSchema(timestamp_column="timestamp",
                                 attribute_columns=("Sensor",)))
    with pytest.raises(KeyError):
        partition(events, PartitionKeySpec(("nope",)))


def test_parse_csv_deterministic():
    text = sample_text()
    first = parse_csv(text, SMART_HOME_SCHEMA)
    second = parse_csv(text, SMART_HOME_SCHEMA)
    assert first == second
    key = PartitionKeySpec(("Address",), "day")
    assert partition(first, key) == partition(second, key)


XES_ONE_TRACE = """
<log>
  <trace>
    <string key="concept:name" value="case-1"/>
    <event>
      <string key="concept:name" value="wake"/>
      <date key="time:timestamp" value="2020-01-01T07:00:00+00:00"/>
    </event>
    <event>
      <string key="concept:name" value="coffee"/>
      <date key="time:timestamp" value="2020-01-01T07:10:00+00:00"/>
    </event>
  </trace>
</log>
"""


def test_parse_xes_one_trace():
    log = parse_xes_minimal(XES_ONE_TRACE)
    assert len(log) == 1
    trace = log.traces[0]
    assert trace.case_id == "case-1"
    assert [str(e.label) for e in trace] == ["wake", "coffee"]


def test_parse_xes_empty_log():
    assert len(parse_xes_minimal("<log/>")) == 0


def test_parse_xes_malformed_xml():
    with pytest.raises(XesFormatError, match="malformed"):
        parse_xes_minimal("<log><trace>")


def test_parse_xes_event_missing_timestamp():
    text = """<log><trace><event>
              <string key="concept:name" value="x"/>
              </event></trace></log>"""
    with pytest.raises(XesFormatError, match="time:timestamp"):
        parse_xes_minimal(text)


def test_parse_xes_counts_skipped_attributes():
    text = """<log><trace><event>
              <string key="concept:name" value="x"/>
              <int key="count" value="3"/>
              <date key="time:timestamp" value="2020-01-01T00:00:00+00:00"/>
              </event></trace></log>"""
    warnings: list[str] = []
    parse_xes_minimal(text, warnings)
    assert warnings and "1" in warnings[0]


THREE_TRACE_XES = """
<log>
  <trace>
    <string key="concept:name" value="alpha"/>
    <event><string key="concept:name" value="a"/>
           <date key="time:timestamp" value="2020-01-01T00:00:00+00:00"/></event>
    <event><string key="concept:name" value="b"/>
           <date key="time:timestamp" value="2020-01-01T00:01:00+00:00"/></event>
  </trace>
  <trace>
    <string key="concept:name" value="beta"/>
    <event><string key="concept:name" value="b"/>
           <date key="time:timestamp" value="2020-01-02T00:00:00+00:00"/></event>
  </trace>
  <trace>
    <string key="concept:name" value="gamma"/>
    <event><string key="concept:name" value="a"/>
           <date key="time:timestamp" value="2020-01-03T00:00:00+00:00"/></event>
    <event><string key="concept:name" value="c"/>
           <date key="time:timestamp" value="2020-01-03T00:02:00+00:00"/></event>
    <event><string key="concept:name" value="a"/>
           <date key="time:timestamp" value="2020-01-03T00:04:00+00:00"/></event>
  </trace>
</log>
"""


def test_csv_roundtrip_preserves_label_sequences():
    original = parse_xes_minimal(THREE_TRACE_XES)
    csv_text = write_csv(original)
    schema = CsvSchema(timestamp_column="timestamp",
                       attribute_columns=("case", "concept:name"), id_column="id")
    events = parse_csv(csv_text, schema)
    rebuilt = partition(events, PartitionKeySpec(("case",)))
    relabeled = Projection("concept:name").apply(rebuilt)
    original_seqs = sorted(tuple(str(e.label) for e in t) for t in original)
    rebuilt_seqs = sorted(tuple(str(e.label) for e in t) for t in relabeled)
    assert rebuilt_seqs == original_seqs


def test_xes_roundtrip_through_writer():
    original = parse_xes_minimal(THREE_TRACE_XES)
    rebuilt = parse_xes_minimal(write_xes_minimal(original))
    assert [t.case_id for t in rebuilt] == [t.case_id for t in original]
    assert [[str(e.label) for e in t] for t in rebuilt] == \
        [[str(e.label) for e in t] for t in original]


def test_schema_validation():
    with pytest.raises(ValueError):
        CsvSchema(timestamp_column="", attribute_columns=("x",))
    with pytest.raises(ValueError):
        CsvSchema(timestamp_column="t", attribute_columns=())
    with pytest.raises(ValueError):
        CsvSchema(timestamp_column="t", attribute_columns=("x",), delimiter=";;")
    with pytest.raises(ValueError):
        PartitionKeySpec(())
    with pytest.raises(ValueError):
        PartitionKeySpec(("x",), calendar_key="week")


def test_invalid_utf8_is_parse_error():
    with pytest.raises(CsvFormatError, match="UTF-8"):
        parse_csv(b"\xff\xfe", CsvSchema(timestamp_column="t",
                                         attribute_columns=("x",)))
