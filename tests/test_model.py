import copy
import pickle
import random
from collections import Counter
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, strategies as st

from labelsplit import Event, EventLog, Label, MissingAttributeError, Projection, Trace
from labelsplit.model import InternedLog

from conftest import log_from_rows, sample_events

UTC = timezone.utc


def _label_of(fn, event: Event) -> Label:
    """The label ``fn`` gives ``event``, relabelling a log of it alone."""
    return fn.apply(EventLog([Trace("t", [event])])).traces[0].events[0].label


def test_label_of_single_attribute():
    event = sample_events()[0]
    assert _label_of(Projection(["Sensor"]), event) == Label("Bedroom motion")


def test_label_of_empty_projection():
    event = sample_events()[0]
    assert _label_of(Projection([]), event) == Label(())


def test_label_of_two_attributes():
    event = sample_events()[5]  # row id 6
    assert (_label_of(Projection(["Sensor", "Heart rate"]), event)
            == Label(("Living room motion", "79")))


def test_label_of_missing_attribute_names_event():
    event = sample_events()[0]
    with pytest.raises(MissingAttributeError) as exc:
        _label_of(Projection(["NoSuch"]), event)
    assert "NoSuch" in str(exc.value)
    assert "1" in str(exc.value)
    assert str(exc.value) == "event 1 has no attribute 'NoSuch'"


def test_log_alphabet_empty():
    assert EventLog().alphabet == ()


def test_log_alphabet_sample_sensor_labels():
    log = Projection(["Sensor"]).apply(EventLog([Trace("all", sample_events())]))
    assert log.alphabet == (Label("Bedroom motion"), Label("Living room motion"))


def test_log_alphabet_single_trace():
    log = log_from_rows([["a", "a", "b"]])
    assert log.alphabet == (Label("a"), Label("b"))
    assert log.event_count == 3


def test_default_label_is_all_attribute_values():
    e = Event(1, datetime(2020, 1, 1, tzinfo=UTC), {"x": "1", "y": "2"})
    assert e.label == Label(("1", "2"))


def test_naive_timestamp_treated_as_utc():
    e = Event(1, datetime(2020, 1, 1, 12, 0), {"x": "1"})
    assert e.timestamp.tzinfo is not None
    assert e.timestamp.hour == 12


def test_trace_orders_by_timestamp_then_id():
    base = datetime(2020, 1, 1, tzinfo=UTC)
    events = [
        Event(10, base + timedelta(minutes=1), {"x": "c"}),
        Event(2, base + timedelta(minutes=1), {"x": "b"}),
        Event(7, base, {"x": "a"}),
    ]
    trace = Trace("t", events)
    assert [e.id for e in trace] == [7, 2, 10]


def test_trace_rejects_duplicate_ids():
    base = datetime(2020, 1, 1, tzinfo=UTC)
    with pytest.raises(ValueError, match="duplicate"):
        Trace("t", [Event(1, base, {"x": "a"}), Event(1, base, {"x": "b"})])


def test_trace_rebuild_is_identity():
    rng = random.Random(7)
    base = datetime(2020, 1, 1, tzinfo=UTC)
    events = [Event(i, base + timedelta(seconds=rng.randrange(50)), {"x": str(i)})
              for i in range(30)]
    trace = Trace("t", events)
    shuffled = list(trace.events)
    rng.shuffle(shuffled)
    assert Trace("t", shuffled).events == trace.events


def test_labels_are_totally_ordered_and_hashable():
    labels = [Label("b"), Label(("a", "x")), Label("a"), Label(2), Label(10)]
    ordered = sorted(labels)
    assert ordered.index(Label(2)) < ordered.index(Label(10))
    assert len({Label("a"), Label("a")}) == 1


def test_label_str_joins_with_plus():
    assert str(Label(("a", "b"))) == "a+b"


@given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=8))
def test_alphabet_subset_of_occurring_labels(row):
    log = log_from_rows([row])
    assert set(log.alphabet) == {Label(name) for name in row}


def test_event_normalises_naive_and_non_utc_timestamps_to_utc():
    naive = Event(1, datetime(2020, 1, 1, 12, 0), {"x": "1"})
    assert naive.timestamp.tzinfo is UTC
    assert naive.timestamp == datetime(2020, 1, 1, 12, 0, tzinfo=UTC)
    plus_two = timezone(timedelta(hours=2))
    shifted = Event(2, datetime(2020, 1, 1, 12, 0, tzinfo=plus_two), {"x": "1"})
    assert shifted.timestamp.tzinfo is UTC
    assert shifted.timestamp == datetime(2020, 1, 1, 10, 0, tzinfo=UTC)


def test_event_accepts_mapping_pairs_and_tuple_attributes():
    ts = datetime(2020, 1, 1, tzinfo=UTC)
    pairs = (("x", "1"), ("y", "2"))
    from_mapping = Event(1, ts, {"x": "1", "y": "2"})
    from_list = Event(1, ts, [("x", "1"), ("y", "2")])
    from_tuple = Event(1, ts, pairs)
    assert from_mapping.attributes == from_list.attributes == pairs
    assert from_mapping == from_list == from_tuple
    assert from_tuple.attributes is pairs
    assert from_mapping.label == Label(("1", "2"))


def test_event_rejects_non_datetime_timestamp():
    with pytest.raises(TypeError, match="timestamp must be a datetime"):
        Event(1, "2020-01-01T00:00:00", {"x": "1"})


def test_event_is_immutable_with_slots():
    e = Event(1, datetime(2020, 1, 1, tzinfo=UTC), {"x": "1"})
    assert not hasattr(e, "__dict__")
    with pytest.raises(AttributeError):
        e.label = Label("y")
    with pytest.raises(AttributeError):
        e.extra = 1
    relabeled = e.with_label(Label("y"))
    assert relabeled.label == Label("y") and e.label == Label("1")
    assert (relabeled.id, relabeled.timestamp, relabeled.attributes) == \
        (e.id, e.timestamp, e.attributes)


def test_trace_with_labels_keeps_events_and_swaps_labels():
    trace = log_from_rows([["a", "b", "a"]]).traces[0]
    relabeled = trace.with_labels([Label("x"), Label("y"), Label("z")])
    assert relabeled.case_id == trace.case_id
    assert [e.id for e in relabeled] == [e.id for e in trace]
    assert relabeled.labels() == (Label("x"), Label("y"), Label("z"))
    assert relabeled == Trace(trace.case_id, [e.with_label(lbl) for e, lbl
                                              in zip(trace, relabeled.labels())])


@pytest.mark.parametrize("count", [0, 2, 4])
def test_trace_with_labels_rejects_label_count_mismatch(count):
    trace = log_from_rows([["a", "b", "a"]]).traces[0]
    with pytest.raises(ValueError, match=f"{count} labels for 3 events"):
        trace.with_labels([Label("x")] * count)


@given(st.lists(st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=6), max_size=5))
def test_cached_interning_equals_fresh_interning(rows):
    log = log_from_rows(rows)
    cached = log.interned
    assert log.interned is cached
    assert cached == InternedLog.of(log.traces)
    assert cached == EventLog(list(log)).interned
    # the codes decode to the log's labels, and occurrences count them
    assert [[cached.labels[code] for code in row] for row in cached.rows] == \
        [list(t.labels()) for t in log]
    counts = Counter(e.label for t in log for e in t)
    assert dict(zip(cached.labels, cached.occurrences)) == counts
    assert cached.codes == {label.parts: code for code, label in enumerate(cached.labels)}


def test_label_pickles_and_deep_copies():
    assert copy.deepcopy(Label("x", 1)) == Label("x", 1)
    nested = Label((("a", 1),))  # one part that is itself a tuple
    assert copy.deepcopy(nested) == nested and pickle.loads(pickle.dumps(nested)) == nested


def test_log_pickles_with_its_cached_interning(sample_log):
    log = sample_log
    interned = log.interned
    copied = pickle.loads(pickle.dumps(log))
    assert copied == log
    assert vars(copied)["interned"] == interned  # the cache travels with the log
    assert copied.alphabet == log.alphabet
