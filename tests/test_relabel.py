import random
from datetime import datetime, time, timedelta, timezone
from zoneinfo import ZoneInfo

import pytest
from hypothesis import given, strategies as st

from labelsplit import (Event, EventLog, Label, LogCounts, NotARefinementError,
                        OrderingRelation, Pairing, PartitionKeySpec, Projection, RuleBased,
                        RuleError, ShapeMismatchError, SplitPair, TimeThreshold, Trace,
                        parse_time_of_day, partition)
from labelsplit import ordering, relabel
from labelsplit.model import MISSING, InternedLog

from conftest import label_rows, log_from_rows
from oracles import naive_relabel


def test_projection_matches_sensor_column(sample_log, sensor_log):
    expected = [[e.attribute("Sensor") for e in t] for t in sample_log]
    actual = [[str(e.label) for e in t] for t in sensor_log]
    assert actual == expected


def test_projection_is_idempotent(sensor_log):
    assert Projection("Sensor").apply(sensor_log) == sensor_log


def test_projection_preserves_ids_timestamps_and_shape(sample_log, sensor_log):
    assert [len(t) for t in sensor_log] == [len(t) for t in sample_log]
    for t1, t2 in zip(sample_log, sensor_log):
        assert [e.id for e in t1] == [e.id for e in t2]
        assert [e.timestamp for e in t1] == [e.timestamp for e in t2]


def test_time_threshold_reproduces_activity_column(sample_log, sensor_log, activity_log):
    fn = TimeThreshold(Label("Bedroom motion"), time(8, 30),
                       Label("Tossing & turning"), Label("Getting up"))
    refined = fn.apply(sensor_log)
    assert label_rows(refined) == label_rows(activity_log)


def test_time_threshold_boundary_goes_high():
    log = log_from_rows([["x"]])  # event at 00:00
    fn = TimeThreshold(Label("x"), time(0, 0), Label("lo"), Label("hi"))
    assert str(fn.apply(log).traces[0].events[0].label) == "hi"


def test_time_threshold_only_depends_on_own_event(sensor_log):
    fn = TimeThreshold(Label("Bedroom motion"), time(8, 30),
                       Label("lo"), Label("hi"))
    whole = fn.apply(sensor_log)
    for keep in range(len(sensor_log.traces)):
        # relabeling one trace alone gives the same labels as in the full log
        from labelsplit import EventLog
        solo = fn.apply(EventLog([sensor_log.traces[keep]]))
        assert label_rows(solo)[0] == label_rows(whole)[keep]


@pytest.mark.parametrize("at", [time(8, 30), time(9, 0)])
def test_label_rows_send_the_occurrences_before_the_threshold_low(sensor_log, at):
    # each occurrence's own local time decides its child; others keep
    # labels.  At 09:00 the 08:34-08:52 UTC events go high only in local
    # time (UTC+1).
    fn = TimeThreshold(Label("Bedroom motion"), at, Label("lo"), Label("hi"),
                       timezone="Europe/Amsterdam")
    zone = ZoneInfo("Europe/Amsterdam")
    expected = [[(("lo",) if e.timestamp.astimezone(zone).time() < at else ("hi",))
                 if str(e.label) == "Bedroom motion" else e.label.parts for e in t]
                for t in sensor_log]
    assert fn.label_rows(sensor_log) == expected
    low = [parts == ("lo",) for row in expected for parts in row if parts in (("lo",), ("hi",))]
    assert len(low) == 21 and 0 < sum(low) < 21
    absent = TimeThreshold(Label("nowhere"), at, Label("lo"), Label("hi"))
    assert absent.label_rows(sensor_log) == [[e.label.parts for e in t] for t in sensor_log]


RULES = """
# refine bedroom motion by heart rate
Sensor != Bedroom motion -> other
Heart rate >= 80 -> active
default -> resting
"""


def test_rule_based_first_match_wins(sample_log):
    fn = RuleBased.from_text(RULES)
    labels = [str(e.label) for t in fn.apply(sample_log) for e in t]
    assert labels.count("other") == 5      # living-room events
    assert labels.count("active") == 1     # the 85 bpm event
    assert labels.count("resting") == 20


def test_rule_based_time_comparison():
    fn = RuleBased.from_text("when < 9:00 -> early\ndefault -> late")
    log = log_from_rows([["a", "b"]])
    from datetime import datetime, timezone
    from labelsplit import Event, EventLog, Trace
    events = [
        Event(1, datetime(2020, 1, 1, 8, 0, tzinfo=timezone.utc), {"when": "08:00"}),
        Event(2, datetime(2020, 1, 1, 10, 0, tzinfo=timezone.utc), {"when": "10:00"}),
    ]
    labels = [str(e.label) for e in fn.apply(EventLog([Trace("t", events)])).traces[0]]
    assert labels == ["early", "late"]


def test_rule_based_no_match_without_default_raises(sample_log):
    fn = RuleBased.from_text("Sensor = nope -> x")
    with pytest.raises(RuleError, match="no rule matches"):
        fn.apply(sample_log)


def test_rule_parse_errors():
    with pytest.raises(RuleError):
        RuleBased.from_text("nonsense line")
    with pytest.raises(RuleError):
        RuleBased.from_text("default -> x\nSensor = a -> b")
    with pytest.raises(RuleError):
        RuleBased.from_text("   \n# only comments\n")


def test_parse_time_of_day():
    assert parse_time_of_day("8:30") == time(8, 30)
    assert parse_time_of_day("08:30:15") == time(8, 30, 15)
    with pytest.raises(ValueError):
        parse_time_of_day("noon")


@pytest.mark.parametrize("text", ["25:00", "8:60", "08:30:61", "noon", "8.30"])
def test_parse_time_of_day_names_its_text(text):
    # an out-of-range field used to raise time()'s own "hour must be in 0..23"
    with pytest.raises(ValueError, match=rf"^not a time of day: {text!r}$"):
        parse_time_of_day(text)


@pytest.mark.parametrize("text, message", [
    ("At < 25:00 -> early\ndefault -> other", "line 1: not a time of day: '25:00'"),
    ("# times\nSensor = a -> b\nAt >= 7:75 -> late", "line 3: not a time of day: '7:75'"),
    ("Heart rate < high -> calm", "line 1: not a time of day or a number: 'high'"),
    ("Heart rate >= -> calm", "line 1: not a time of day or a number: ''"),
])
def test_an_ordered_rule_reads_its_time_or_number_when_the_file_is_read(text, message):
    # such a rule used to parse, then match no event: the error was
    # swallowed for every event
    with pytest.raises(RuleError, match=f"^{message}$"):
        RuleBased.from_text(text)


def test_an_ordered_rule_compares_times_with_times_and_numbers_with_numbers():
    early, calm = (RuleBased.from_text(text).rules[0]
                   for text in ("At < 9:00 -> early", "Rate < 75.5 -> calm"))
    assert [early.matches_value(v) for v in ("08:59", "09:00", "75", MISSING)] == \
        [True, False, False, False]
    assert [calm.matches_value(v) for v in ("75", 75, "76", "08:00", None)] == \
        [True, True, False, False, False]
    # = and != compare text, so their values need be neither
    assert RuleBased.from_text("At = 25:00 -> odd").rules[0].matches_value("25:00")


def test_an_ordered_rule_reads_its_value_once_per_relabeling(monkeypatch):
    # its value used to be read again for every event the rule was tried on
    rates = [str(50 + k % 50) for k in range(1000)]
    start = datetime(2020, 1, 1, tzinfo=timezone.utc)
    log = EventLog([Trace("t", [Event(k, start + timedelta(minutes=k), {"Rate": rate})
                                for k, rate in enumerate(rates)])])
    fn = RuleBased.from_text("Rate < 75 -> calm\nRate >= 90 -> racing\nGone < 1 -> x\n"
                             "default -> other")
    parsed, ordered = [], relabel._ordered
    monkeypatch.setattr(relabel, "_ordered", lambda text: parsed.append(text) or ordered(text))
    labels = [str(e.label) for e in fn.apply(log).traces[0]]
    assert parsed == ["75", "90"]  # the log has no Gone column: that rule matches nothing
    assert labels == ["calm" if int(r) < 75 else "racing" if int(r) >= 90 else "other"
                      for r in rates]


def test_check_refinement_sample_is_strict(sensor_log, activity_log):
    pairing = Pairing.of(sensor_log, activity_log)
    assert not pairing.merged
    assert pairing.split_pairs


def test_check_refinement_identity_not_strict(sensor_log):
    pairing = Pairing.of(sensor_log, sensor_log)
    assert not pairing.merged
    assert not pairing.split_pairs


def test_check_refinement_merge_is_violation():
    # the "refined" labeling merges labels the coarse one distinguishes
    l1 = log_from_rows([["p"], ["q"]])
    l2 = log_from_rows([["m"], ["m"]])
    assert Pairing.of(l1, l2).merged == (Label("m"),)


def test_check_refinement_positionwise_merge_is_violation():
    # full sequences differ, but the first positions already disagree
    l1 = log_from_rows([["p", "x"], ["q", "y"]])
    l2 = log_from_rows([["m", "x"], ["m", "y"]])
    assert Pairing.of(l1, l2).merged == (Label("m"),)


def test_check_refinement_lists_every_merged_label():
    # t0/t1 merge a and b under x, t2/t3 merge c and d under y
    l1 = log_from_rows([["a"], ["b"], ["c"], ["d"]])
    l2 = log_from_rows([["x"], ["x"], ["y"], ["y"]])
    assert Pairing.of(l1, l2).merged == (Label("x"), Label("y"))


def test_check_refinement_single_trace_merge_agrees_with_evaluate():
    # no two traces share a refined prefix, yet x sits over a and b
    from labelsplit import evaluate
    l1 = log_from_rows([["a", "b", "c"]])
    l2 = log_from_rows([["x", "x", "c"]])
    assert Pairing.of(l1, l2).merged == (Label("x"),)
    with pytest.raises(NotARefinementError, match=r"refined label x is observed"):
        evaluate(l1, l2)


def test_check_refinement_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        Pairing.of(log_from_rows([["a"]]), log_from_rows([["a"], ["b"]]))
    with pytest.raises(ShapeMismatchError):
        Pairing.of(log_from_rows([["a", "b"]]), log_from_rows([["a"]]))


def test_pairing_refuses_traces_of_equal_length_holding_other_events():
    l1 = log_from_rows([["a", "b"]])
    first, second = l1.traces[0].events
    other = Event(3, second.timestamp, {"act": "b"}, label=second.label)
    with pytest.raises(ShapeMismatchError, match=r"trace 't0': event ids differ \(2 vs 3\)"):
        Pairing.of(l1, EventLog([Trace("t0", [first, other])]))


def test_extract_split_set_sample(sensor_log, activity_log):
    splits = Pairing.of(sensor_log, activity_log).split_pairs
    assert splits == (SplitPair(Label("Bedroom motion"),
                                (Label("Getting up"), Label("Tossing & turning"))),)


def test_extract_split_set_identity_empty(sensor_log):
    assert Pairing.of(sensor_log, sensor_log).split_pairs == ()


def test_extract_split_set_three_way():
    l1 = log_from_rows([["a", "b"], ["a", "b"], ["a", "b"]])
    l2 = log_from_rows([["a1", "b"], ["a2", "b"], ["a3", "b"]])
    splits = Pairing.of(l1, l2).split_pairs
    # oracle: group refined labels by the coarse label at the same position
    groups: dict[str, set[str]] = {}
    for r1, r2 in zip(label_rows(l1), label_rows(l2)):
        for parent, child in zip(r1, r2):
            groups.setdefault(parent, set()).add(child)
    expected = tuple(SplitPair(Label(p), tuple(Label(c) for c in sorted(kids)))
                     for p, kids in sorted(groups.items()) if len(kids) >= 2)
    assert splits == expected
    assert len(splits) == 1
    assert len(splits[0].children) == 3


def test_split_children_occurrences_sum_to_parent(sensor_log, activity_log):
    from collections import Counter
    parent_occ = Counter(str(e.label) for t in sensor_log for e in t)
    child_occ = Counter(str(e.label) for t in activity_log for e in t)
    for split in Pairing.of(sensor_log, activity_log).split_pairs:
        total = sum(child_occ[str(c)] for c in split.children)
        assert total == parent_occ[str(split.parent)]


def test_evaluate_rejects_non_refinement():
    from labelsplit import evaluate
    l1 = log_from_rows([["p"], ["q"]])
    l2 = log_from_rows([["m"], ["m"]])
    with pytest.raises(NotARefinementError):
        evaluate(l1, l2)


@given(st.lists(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=6),
                min_size=1, max_size=6))
def test_apply_preserves_lengths(rows):
    log = log_from_rows(rows)
    refined = Projection("act").apply(log)
    assert [len(t) for t in refined] == [len(t) for t in log]


def _random_log(seed: int) -> EventLog:
    """A seeded log of 4 cases with few distinct times, so equal-timestamp
    runs are common, and ids mixing ints and digit strings."""
    rng = random.Random(seed)
    start = datetime(2020, 1, 1, tzinfo=timezone.utc)
    events = []
    for n in rng.sample(range(1, 500), rng.randrange(1, 60)):
        events.append(Event(
            n if rng.random() < 0.5 else str(n),
            start + timedelta(days=rng.randrange(2), hours=rng.randrange(0, 24, 6)),
            {"case": f"c{rng.randrange(4)}", "kind": rng.choice("abc"),
             "hr": str(rng.randrange(60, 64))}))
    return Projection("kind").apply(partition(events, PartitionKeySpec(("case",))))


_RELABELINGS = [
    Projection(("kind", "hr")),
    TimeThreshold(Label("a"), time(12, 0), Label("a_lo"), Label("a_hi"),
                  timezone="Europe/Amsterdam"),
    RuleBased.from_text("hr >= 62 -> high\nkind = b -> bee\ndefault -> other"),
]


@pytest.mark.parametrize("fn", _RELABELINGS, ids=lambda fn: fn.description)
@pytest.mark.parametrize("seed", range(12))
def test_apply_equals_rebuilding_every_event(fn, seed):
    log = _random_log(seed)
    before = log.interned
    reference = naive_relabel(fn, log)
    relabeled = fn.apply(log)
    assert relabeled == reference
    assert [[e.label for e in t] for t in relabeled] == \
        [[e.label for e in t] for t in reference]
    # the relabeled log interns its own labels; the base log's cache is untouched
    assert relabeled.interned == InternedLog.of(reference.traces)
    assert log.interned is before


def _dense_counts(log, relation):
    counts, labels = LogCounts.of(log, (relation,)), log.alphabet
    return [((b, c), counts.column(relation, b, c)) for b in labels for c in labels]


# the names only the benchmark's span hooks still call (ROADMAP item 21)
# give what their replacements give
@pytest.mark.parametrize("hooked, replacement", [
    (lambda l1, l2: relabel.check_refinement(l1, l2), Pairing.of),
    (lambda l1, l2: relabel.extract_split_set(l1, l2),
     lambda l1, l2: list(Pairing.of(l1, l2).split_pairs)),
    (lambda l1, l2: relabel.observed_parents(l1, l2), lambda l1, l2: Pairing.of(l1, l2).parents),
    (lambda l1, l2: [list(ordering.relation_counts(log, relation).items())
                     for log in (l1, l2) for relation in OrderingRelation],
     lambda l1, l2: [_dense_counts(log, relation)
                     for log in (l1, l2) for relation in OrderingRelation]),
], ids=["check_refinement", "extract_split_set", "observed_parents", "relation_counts"])
def test_a_hooked_name_returns_what_its_replacement_returns(sensor_log, activity_log, hooked,
                                                            replacement):
    assert hooked(sensor_log, activity_log) == replacement(sensor_log, activity_log)
