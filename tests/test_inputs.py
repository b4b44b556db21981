"""Each kind of input is read once, where it enters the library.

A relation, a zone name, a name list or a label given to a record or an
entry point is read there: a bad value raises at once and names itself,
and a bare string counts as one relation or one name.
"""

from datetime import time

import pytest

from labelsplit import (CsvSchema, EvaluationConfig, Label, LogCounts, OrderingRelation,
                        PartitionKeySpec, RefinementCounts, RuleBased, TimeThreshold,
                        build_tables, parse_csv)
from labelsplit.ingest import read_csv
from labelsplit.model import EventLog, InternedLog, LogColumns, time_zone
from labelsplit.ordering import as_relations
from labelsplit.relabel import Rule

from conftest import DATA_DIR

ALL = tuple(OrderingRelation)
DF, DP = OrderingRelation.DIRECTLY_FOLLOWS, OrderingRelation.DIRECTLY_PRECEDES
SMART_HOME = (DATA_DIR / "smart_home.csv").read_text(encoding="utf-8")
SCHEMA = CsvSchema("timestamp", ("case", "Sensor", "Activity"), "id")


@pytest.fixture
def counts(sensor_log, activity_log) -> RefinementCounts:
    return RefinementCounts.of(sensor_log, activity_log, ALL)


def _tables(counts: RefinementCounts, relations):
    pair = counts.split_pairs[0]
    return build_tables(counts, pair, *pair.children, relations=relations)


# each entry point that reads relations, as a function of them
RELATION_READERS = {
    "EvaluationConfig": lambda relations, **_: EvaluationConfig(relations=relations).relations,
    "LogCounts.of": lambda relations, log, **_: tuple(LogCounts.of(log, relations).rows),
    "build_tables": lambda relations, counts, **_: _tables(counts, relations).relations,
    "as_relations": lambda relations, **_: as_relations(relations),
}


@pytest.mark.parametrize("reader", RELATION_READERS)
@pytest.mark.parametrize("relations, bad", [
    (["sideways"], "sideways"),
    ("sideways", "sideways"),
    ([DF, "directly_follows", "directly-follows"], "directly-follows"),
    ([DP, None], None),
])
def test_an_unknown_relation_raises_at_entry_naming_it(reader, relations, bad, sensor_log,
                                                         counts):
    with pytest.raises(ValueError, match=rf"^unknown relation {bad!r}; valid: "
                                         r"\['directly_follows', 'directly_precedes', "):
        RELATION_READERS[reader](relations, log=sensor_log, counts=counts)


@pytest.mark.parametrize("reader", RELATION_READERS)
@pytest.mark.parametrize("relations, read", [
    ("directly_follows", (DF,)),
    (OrderingRelation.LENGTH_TWO_LOOP, (OrderingRelation.LENGTH_TWO_LOOP,)),
    (["directly_precedes", DF, DP, "directly_follows"], (DP, DF)),
    (tuple(r.value for r in ALL), ALL),
])
def test_relations_are_read_by_name_or_member_each_once(reader, relations, read, sensor_log,
                                                        counts):
    # a bare name or member is one relation; repeats keep their first place
    assert RELATION_READERS[reader](relations, log=sensor_log, counts=counts) == read


# each record that takes a zone name, built with one
ZONE_READERS = {
    "CsvSchema": lambda zone: CsvSchema("timestamp", "Sensor", timezone=zone),
    "PartitionKeySpec": lambda zone: PartitionKeySpec("case", timezone=zone),
    "TimeThreshold": lambda zone: TimeThreshold(Label("a"), time(8), Label("b"), Label("c"),
                                                timezone=zone),
    "time_zone": time_zone,
}


@pytest.mark.parametrize("reader", ZONE_READERS)
@pytest.mark.parametrize("zone", ["Not/AZone", "", "../etc", "Europe", 5, None])
def test_an_unknown_time_zone_raises_at_construction_naming_it(reader, zone):
    with pytest.raises(ValueError, match=rf"^unknown time zone {zone!r}$"):
        ZONE_READERS[reader](zone)


@pytest.mark.parametrize("reader", ZONE_READERS)
def test_a_known_time_zone_is_kept_by_name(reader):
    record = ZONE_READERS[reader]("Europe/Amsterdam")
    assert getattr(record, "timezone", str(record)) == "Europe/Amsterdam"


@pytest.mark.parametrize("read", [parse_csv, lambda *args: read_csv(*args).log(None)],
                         ids=["parse_csv", "read_csv"])
def test_a_bare_label_column_is_one_name(read):
    as_string = read(SMART_HOME, SCHEMA, "Sensor")
    as_list = read(SMART_HOME, SCHEMA, ["Sensor"])
    assert as_string == as_list
    events = as_string if isinstance(as_string, list) else list(as_string.traces[0])
    assert {e.label for e in events} == {Label("Bedroom motion"), Label("Living room motion")}


@pytest.mark.parametrize("read", [parse_csv, read_csv], ids=["parse_csv", "read_csv"])
def test_an_unknown_label_column_is_named_whole(read):
    with pytest.raises(KeyError, match="has no attribute 'Nope'"):
        read(SMART_HOME, SCHEMA, "Nope")


# each record field that holds a Label, given a string
@pytest.mark.parametrize("field, build", [
    ("context_labels", lambda: EvaluationConfig(context_labels=["Front door"])),
    ("context_labels", lambda: EvaluationConfig(context_labels="Front door")),
    ("base_label", lambda: TimeThreshold("Front door", time(8), Label("a"), Label("b"))),
    ("low_label", lambda: TimeThreshold(Label("x"), time(8), "Front door", Label("b"))),
    ("high_label", lambda: TimeThreshold(Label("x"), time(8), Label("a"), "Front door")),
    ("label", lambda: Rule("Sensor", "=", "x", "Front door")),
    ("default", lambda: RuleBased((), "Front door")),
], ids=["context_labels-list", "context_labels-bare", "base_label", "low_label",
        "high_label", "rule-label", "rule-default"])
def test_a_label_field_refuses_a_string_naming_field_and_value(field, build):
    with pytest.raises(TypeError, match=rf"^{field} must be a Label, got 'Front door'$"):
        build()


def test_context_labels_take_a_bare_label_as_one():
    config = EvaluationConfig(context_labels=Label("Front door"))
    assert config.context_labels == (Label("Front door"),)


def test_event_log_of_traces_holds_its_columns_and_codes_when_built(sample_log):
    traces = sample_log.traces
    log = EventLog(traces)
    built = vars(log)  # set by the constructor, not on first use
    assert built["traces"] == traces
    columns, interned = LogColumns.of(traces), InternedLog.of(traces)
    assert built["columns"]._asdict().keys() == columns._asdict().keys()
    for name, value in columns._asdict().items():
        assert getattr(built["columns"], name) == value, name
    for name, value in interned._asdict().items():
        assert getattr(built["interned"], name) == value, name
    assert len(log) == len(traces) and len(EventLog()) == 0
    assert not hasattr(EventLog, "columns") and not hasattr(EventLog, "interned")
