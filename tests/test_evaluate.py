import itertools
import math
import random
from datetime import datetime, time, timedelta, timezone

import pytest
from hypothesis import given, settings, strategies as st

from labelsplit import (DEFAULT_RELATIONS, ContingencyTable, CorrectionPolicy, Event,
                        EvaluationConfig, EventLog, Label, NotARefinementError,
                        OrderingCounts, OrderingRelation, Pairing, Projection,
                        RefinementCounts, RelabelingFn, TimeThreshold, Trace,
                        binary_entropy, build_tables, check_refinement, evaluate, fisher_test,
                        generate_median_time_candidates, rank_candidates, table_entropies)
from labelsplit import ordering
from labelsplit.model import replace
from labelsplit.report import json_text, pretty_report, report_doc
from conftest import label_rows, log_from_rows
from oracles import naive_count, naive_relabel, prefix_violations


def test_sample_evaluation_is_useful(sensor_log, activity_log):
    config = EvaluationConfig(alpha=0.01,
                              context_labels=(Label("Living room motion"),))
    report = evaluate(sensor_log, activity_log, config)
    assert report.m_tests == 4
    assert report.corrected_alpha == 0.0025
    by_relation = {t.relation: t for t in report.tests}
    dp = by_relation[OrderingRelation.DIRECTLY_PRECEDES]
    assert dp.p_value == pytest.approx(1 / math.comb(21, 5), rel=1e-9)
    assert dp.significant
    for rel in (OrderingRelation.DIRECTLY_FOLLOWS,
                OrderingRelation.EVENTUALLY_FOLLOWS,
                OrderingRelation.EVENTUALLY_PRECEDES):
        assert by_relation[rel].p_value == 1.0
        assert not by_relation[rel].significant
    assert report.useful
    assert report.score == 1.0


def test_config_drops_repeated_relations_and_contexts(sensor_log, activity_log):
    df, dp = OrderingRelation.DIRECTLY_FOLLOWS, OrderingRelation.DIRECTLY_PRECEDES
    lrm, other = Label("Living room motion"), Label("Nowhere")
    config = EvaluationConfig(relations=[dp, df, dp, dp], context_labels=[lrm, other, lrm])
    assert config.relations == (dp, df)
    assert config.context_labels == (lrm, other)
    once = EvaluationConfig(relations=(dp, df), context_labels=(lrm, other))
    assert evaluate(sensor_log, activity_log, config) == evaluate(sensor_log, activity_log, once)
    assert evaluate(sensor_log, activity_log, config).m_tests == 4


def test_sample_default_contexts_match_restricted(sensor_log, activity_log):
    # the only non-sibling label in the sample is Living room motion, so the
    # default context set gives the same four tests
    report = evaluate(sensor_log, activity_log)
    assert report.m_tests == 4
    assert report.useful


def test_identity_refinement_is_useless(sensor_log):
    report = evaluate(sensor_log, sensor_log)
    assert not report.useful
    assert report.score == 0.0
    assert report.split_pairs == ()
    assert "refinement is not strict" in report.notes


def test_score_zero_unless_every_pair_significant():
    # one real split plus a second, noise-only split of a rare label
    rows = [["a", "x", "b"], ["a", "y", "b"]] * 6
    refined = []
    for i, row in enumerate(rows):
        out = []
        for name in row:
            if name == "a":
                out.append("a_1" if row[1] == "x" else "a_2")
            elif name == "b":
                out.append(f"b_{i % 2 + 1}")
            else:
                out.append(name)
        refined.append(out)
    report = evaluate(log_from_rows(rows), log_from_rows(refined),
                      EvaluationConfig(alpha=0.01))
    # the a-split is perfectly predictable from context, the b-split is not;
    # with both pairs in play the candidate cannot be useful unless both pass
    pair_sig = {}
    for t in report.tests:
        pair_sig.setdefault(t.pair, False)
        pair_sig[t.pair] = pair_sig[t.pair] or t.significant
    assert report.useful == all(pair_sig.values())
    if not report.useful:
        assert report.score == 0.0


def test_m_counts_relations_times_contexts_times_pairs():
    rows = [["a", "b", "c", "d"], ["a", "c", "b", "d"]] * 3
    refined = [[n + "_1" if n == "a" and i % 2 == 0 else
                n + "_2" if n == "a" else n for n in row]
               for i, row in enumerate(rows)]
    l1, l2 = log_from_rows(rows), log_from_rows(refined)
    config = EvaluationConfig()
    report = evaluate(l1, l2, config)
    contexts = len(l2.alphabet) - 2  # excludes the two children
    assert report.m_tests == len(config.relations) * contexts * 1


def test_raising_alpha_never_unmarks_useful(sensor_log, activity_log):
    low = evaluate(sensor_log, activity_log, EvaluationConfig(alpha=0.001))
    high = evaluate(sensor_log, activity_log, EvaluationConfig(alpha=0.05))
    if low.useful:
        assert high.useful


def test_evaluate_is_deterministic(sensor_log, activity_log):
    a = evaluate(sensor_log, activity_log)
    b = evaluate(sensor_log, activity_log)
    assert a.to_json_dict() == b.to_json_dict()


def test_correction_none_keeps_alpha(sensor_log, activity_log):
    report = evaluate(sensor_log, activity_log,
                      EvaluationConfig(correction=CorrectionPolicy("none")))
    assert report.corrected_alpha == report.alpha


def test_median_candidates_sample(sensor_log):
    candidates = generate_median_time_candidates(sensor_log)
    assert len(candidates) == 2  # both labels have spread-out times
    by_base = {str(fn.base_label): fn for fn in candidates}
    assert set(by_base) == {"Bedroom motion", "Living room motion"}
    # 21 bedroom occurrences: the median is the 11th smallest time of day
    assert by_base["Bedroom motion"].threshold == time(5, 0)


def test_median_candidate_odd_count_takes_middle():
    log = log_from_rows([["x"]])
    from labelsplit import Event, EventLog, Trace
    from datetime import datetime, timezone
    events = [Event(i, datetime(2020, 1, 1, h, 0, tzinfo=timezone.utc), {"act": "x"},
                    label=Label("x")) for i, h in enumerate([1, 3, 9])]
    log = EventLog([Trace("t", events)])
    (candidate,) = generate_median_time_candidates(log)
    assert candidate.threshold == time(3, 0)
    refined = candidate.apply(log)
    assert [str(e.label) for e in refined.traces[0]] == ["x_1", "x_2", "x_2"]


def test_median_candidate_even_count_takes_lower_middle():
    from labelsplit import Event, EventLog, Trace
    from datetime import datetime, timezone
    events = [Event(i, datetime(2020, 1, 1, h, 0, tzinfo=timezone.utc), {"act": "x"},
                    label=Label("x")) for i, h in enumerate([1, 3, 9, 11])]
    (candidate,) = generate_median_time_candidates(EventLog([Trace("t", events)]))
    assert candidate.threshold == time(3, 0)


def test_median_candidates_skip_degenerate_labels():
    from labelsplit import Event, EventLog, Trace
    from datetime import datetime, timezone
    events = [
        Event(1, datetime(2020, 1, 1, 5, 0, tzinfo=timezone.utc), {"act": "once"},
              label=Label("once")),
        Event(2, datetime(2020, 1, 1, 6, 0, tzinfo=timezone.utc), {"act": "same"},
              label=Label("same")),
        Event(3, datetime(2020, 1, 2, 6, 0, tzinfo=timezone.utc), {"act": "same"},
              label=Label("same")),
    ]
    log = EventLog([Trace("t1", events[:2]), Trace("t2", events[2:])])
    skipped: list[str] = []
    candidates = generate_median_time_candidates(log, skipped=skipped)
    assert candidates == []
    assert len(skipped) == 2
    assert any("once" in s for s in skipped)
    assert any("same" in s for s in skipped)


def test_median_children_avoid_existing_labels():
    # "a_1" already labels events; splitting "a" must not merge them into a child
    rows = [["a", "a_1", "a"], ["a_1", "a", "b", "a"], ["b", "a__2", "a", "a"]]
    log = log_from_rows(rows)
    by_base = {str(fn.base_label): fn for fn in generate_median_time_candidates(log)}
    fn = by_base["a"]
    assert (fn.low_label, fn.high_label) == (Label("a___1"), Label("a___2"))
    assert by_base["b"].low_label == Label("b_1")
    refined = fn.apply(log)
    assert sum(e.label == Label("a_1") for t in refined for e in t) == 2
    (report,) = rank_candidates(log, [fn])
    (split,) = report.split_pairs
    assert split.parent == Label("a")
    assert split.children == (Label("a___1"), Label("a___2"))


def _assert_ranked_equals_evaluated(base_log, config, candidates=None):
    """Each report of a scan, which shares the base log's counts across
    candidates, equals evaluating that candidate on its own; the candidates
    default to the log's median-time splits."""
    if candidates is None:
        candidates = generate_median_time_candidates(base_log)
    reports = rank_candidates(base_log, candidates, config)
    by_description = {r.candidate_description: r for r in reports}
    assert len(by_description) == len(candidates)
    family_m = sum(r.m_tests for r in reports)
    for fn in candidates:
        ranked = by_description[fn.description]
        refined = fn.apply(base_log)
        if config.correction.family_scope == "per_candidate":
            assert ranked == evaluate(base_log, refined, config, fn.description)
            continue
        # the family-wide threshold, handed to evaluate as an uncorrected alpha
        assert ranked.corrected_alpha == (config.alpha / family_m if family_m
                                          else config.alpha)
        alone = evaluate(base_log, refined,
                         replace(config, alpha=ranked.corrected_alpha,
                                 correction=CorrectionPolicy("none")),
                         fn.description)
        assert ranked == replace(alone, alpha=config.alpha)


def test_rank_candidates_matches_evaluate(sensor_log, activity_log):
    rng = random.Random(7)
    logs = [sensor_log, activity_log]
    for _ in range(12):
        alphabet = [f"L{i}" for i in range(rng.randint(2, 5))]
        logs.append(log_from_rows([[rng.choice(alphabet) for _ in range(rng.randint(1, 9))]
                                   for _ in range(rng.randint(2, 9))]))
    loop = OrderingRelation.LENGTH_TWO_LOOP
    relation_sets = (DEFAULT_RELATIONS, (loop, OrderingRelation.DIRECTLY_PRECEDES),
                     (OrderingRelation.EVENTUALLY_FOLLOWS,), (*DEFAULT_RELATIONS, loop))
    checked = 0
    for base_log in logs:
        for relations in relation_sets:
            for scope in ("per_candidate", "per_candidate_set"):
                config = EvaluationConfig(alpha=0.05, relations=relations,
                                          correction=CorrectionPolicy("bonferroni", scope))
                _assert_ranked_equals_evaluated(base_log, config)
                checked += 1
    assert checked == len(logs) * len(relation_sets) * 2


_ALPHABET = ("a", "b", "c")
# Europe/Amsterdam moves its clocks forward at 01:00 UTC on this day
_DAY = datetime(2024, 3, 31, tzinfo=timezone.utc)


@st.composite
def _scan_inputs(draw):
    """A log, split candidates for its labels and a configuration.

    Traces hold one or more events, repeated labels and a-c-a loops, at
    random minutes of a day on which Europe/Amsterdam switches to summer
    time.  Each label gets one time split and up to three labels a second
    one, in random order.  A split's threshold may put all, none or some
    occurrences low, its time zone is UTC or Europe/Amsterdam, and its
    children are fresh, named like the parent, equal to each other, or
    another label of the alphabet.
    """
    label = st.sampled_from(_ALPHABET)
    loop = st.tuples(label, label, st.integers(1, 3)).map(
        lambda t: [t[0], t[1]] * t[2] + [t[0]])
    rows = draw(st.lists(st.one_of(st.lists(label, min_size=1, max_size=9), loop),
                         min_size=1, max_size=6))
    traces, next_id = [], 0
    for t_index, row in enumerate(rows):
        minutes = sorted(draw(st.lists(st.integers(0, 1439), min_size=len(row),
                                       max_size=len(row))))
        events = []
        for name, minute in zip(row, minutes):
            next_id += 1
            events.append(Event(next_id, _DAY + timedelta(minutes=minute), {"act": name},
                                label=Label(name)))
        traces.append(Trace(f"t{t_index}", events))
    candidates = {}  # by description, which a scan needs to be distinct
    for name in [*_ALPHABET, *draw(st.lists(label, max_size=3))]:
        minute = draw(st.integers(0, 1440))
        threshold = time(23, 59, 59) if minute == 1440 else time(*divmod(minute, 60))
        low, high = draw(st.sampled_from([
            (f"{name}_1", f"{name}_2"), (name, f"{name}_2"), (f"{name}_1", name),
            (f"{name}_1", f"{name}_1"), *((other, f"{name}_2") for other in _ALPHABET
                                          if other != name)]))
        fn = TimeThreshold(Label(name), threshold, Label(low), Label(high),
                           timezone=draw(st.sampled_from(["UTC", "Europe/Amsterdam"])))
        candidates.setdefault(fn.description, fn)
    candidates = draw(st.permutations(list(candidates.values())))
    relations = draw(st.lists(st.sampled_from(list(OrderingRelation)), min_size=1,
                              unique=True))
    contexts = draw(st.none() | st.lists(st.sampled_from([*_ALPHABET, "a_1", "absent"]),
                                         min_size=1, max_size=3, unique=True))
    config = EvaluationConfig(
        alpha=0.05, relations=relations,
        correction=CorrectionPolicy("bonferroni", draw(st.sampled_from(
            ["per_candidate", "per_candidate_set"]))),
        context_labels=None if contexts is None else tuple(map(Label, contexts)))
    return EventLog(traces), candidates, config


@settings(max_examples=200, deadline=None)
@given(_scan_inputs())
def test_mask_path_equals_materialised_refinement(inputs):
    # rank_candidates counts every fresh-child split on the base log's child
    # rows, a parent's k-th split in round k, and any other split (one whose
    # child names another label, or whose two children are one label) on
    # its applied log; evaluate always builds the refined log
    base_log, candidates, config = inputs
    errors = []
    for fn in candidates:
        # the relabeling converts each event's time as an event-by-event
        # rebuild does, across the switch to summer time
        assert label_rows(fn.apply(base_log)) == label_rows(naive_relabel(fn, base_log))
        try:
            evaluate(base_log, fn.apply(base_log), config, fn.description)
        except NotARefinementError as exc:
            errors.append(str(exc))
    if not errors:
        _assert_ranked_equals_evaluated(base_log, config, candidates)
        return
    # a child that names another label merges it: the scan stops at the
    # first such candidate with the error evaluate raises for it
    with pytest.raises(NotARefinementError) as raised:
        rank_candidates(base_log, candidates, config)
    assert str(raised.value) == errors[0]


def test_scan_counts_all_fresh_splits_at_once(monkeypatch):
    # the children of every fresh split are counted by one kernel call per
    # relation, however many candidates there are, and their parent columns
    # are the children's sums, so the base log is not counted
    rng = random.Random(5)
    log = log_from_rows([[rng.choice("abcdef") for _ in range(12)] for _ in range(8)])
    candidates = generate_median_time_candidates(log)
    assert len(candidates) >= 5
    calls = []
    count = ordering._hits
    monkeypatch.setattr(ordering, "_hits", lambda *args: calls.append(args[2]) or count(*args))
    made = []
    for n in (1, 5):
        calls.clear()
        reports = rank_candidates(log, candidates[:n])
        assert all(report.split_pairs for report in reports)
        made.append(len(calls))
    assert made == [len(DEFAULT_RELATIONS)] * 2


def test_a_scan_sorts_no_labels(monkeypatch):
    # label order is decided when a log is interned, so a scan calls
    # Label.sort_key only to order each split pair's two children
    rng = random.Random(3)
    names = [f"s{k}" for k in range(200)]
    rng.shuffle(names)
    log = log_from_rows([[rng.choice(names) for _ in range(60)] for _ in range(12)])
    size = len(log.interned.labels)
    assert size > 190
    calls = []
    sort_key = Label.sort_key
    monkeypatch.setattr(Label, "sort_key", lambda label: calls.append(label) or sort_key(label))
    reports = rank_candidates(log, generate_median_time_candidates(log))
    assert len(reports) > 150 and len(calls) <= 4 * size


def test_scan_counts_every_split_of_a_parent_in_rounds(monkeypatch):
    # four thresholds per label, each with fresh children: the k-th split of
    # every parent is counted in round k, one kernel call per relation and
    # round, so no candidate is applied to the base log
    rng = random.Random(13)
    traces, next_id = [], 0
    for t_index in range(8):
        events = []
        for minute in sorted(rng.sample(range(1440), 12)):
            next_id += 1
            name = rng.choice("abcd")
            events.append(Event(next_id, _DAY + timedelta(minutes=minute), {"act": name},
                                label=Label(name)))
        traces.append(Trace(f"t{t_index}", events))
    log = EventLog(traces)
    candidates = []
    for name in "abcd":
        times = sorted({e.timestamp.time() for t in log for e in t if str(e.label) == name})
        assert len(times) >= 5
        candidates += [TimeThreshold(Label(name), times[len(times) * q // 5],
                                     Label(f"{name}{q}_1"), Label(f"{name}{q}_2"))
                       for q in range(1, 5)]
    rng.shuffle(candidates)
    assert len({fn.description for fn in candidates}) == 16
    base_rows = log.interned.rows
    calls, applied = [], []
    count, apply = ordering._hits, RelabelingFn.apply
    for relations in (DEFAULT_RELATIONS, tuple(OrderingRelation)):
        config = EvaluationConfig(alpha=0.05, relations=relations)
        over_base = [(True, r) for r in relations if r is OrderingRelation.LENGTH_TWO_LOOP]
        with monkeypatch.context() as patch:
            patch.setattr(ordering, "_hits", lambda *args: calls.append(
                (args[0] is base_rows, args[2])) or count(*args))
            patch.setattr(RelabelingFn, "apply", lambda fn, base: applied.append(fn)
                          or apply(fn, base))
            calls.clear()
            rank_candidates(log, candidates, config)
            assert applied == []
            assert calls == over_base + [(False, r) for _ in range(4) for r in relations]
        contexts = [Label(x) for x in "abcd"]
        for fn, counts in zip(candidates, ordering.split_counts(log, candidates, relations)):
            rows = label_rows(fn.apply(log))
            for child in (fn.low_label, fn.high_label):
                n, pos = counts.refined.positives(child, contexts, relations)
                for relation, got in zip(relations, pos):
                    assert [(p, n - p) for p in got] == [
                        naive_count(rows, relation.value, str(child), str(c))
                        for c in contexts], (fn, child, relation)
        _assert_ranked_equals_evaluated(log, config, candidates)


def test_refinement_that_splits_nothing_counts_nothing(monkeypatch):
    # a renaming splits no label: no table is built, so nothing is counted
    l1 = log_from_rows([["a", "b", "a"], ["b", "c"]])
    l2 = log_from_rows([["x", "b", "x"], ["b", "c"]])
    calls = []
    count = ordering._hits
    monkeypatch.setattr(ordering, "_hits", lambda *args: calls.append(args[2]) or count(*args))
    report = evaluate(l1, l2, EvaluationConfig(relations=tuple(OrderingRelation)))
    assert calls == []
    assert report.m_tests == 0 and report.split_pairs == ()
    assert report.notes == ("refinement is not strict",)


def test_scan_of_colliding_children_and_a_projection_matches_evaluate():
    # the median splits of a and a_ both name their children a__1/a__2,
    # so each split reads the shared child rows through its own codes; a
    # projection onto a second attribute splits every label at once
    rng = random.Random(11)
    traces, next_id = [], 0
    for t_index in range(6):
        events = []
        for minute in sorted(rng.sample(range(1440), 10)):
            next_id += 1
            name = rng.choice(["a", "a_", "a_1", "b"])
            events.append(Event(next_id, _DAY + timedelta(minutes=minute),
                                {"act": name, "room": rng.choice("xy")}, label=Label(name)))
        traces.append(Trace(f"t{t_index}", events))
    log = EventLog(traces)
    candidates = generate_median_time_candidates(log)
    children = [(str(fn.low_label), str(fn.high_label)) for fn in candidates]
    assert len(candidates) == 4 and children.count(("a__1", "a__2")) == 2
    candidates.append(Projection(("act", "room")))
    config = EvaluationConfig(alpha=0.05, relations=tuple(OrderingRelation))
    assert all(r.split_pairs for r in rank_candidates(log, candidates, config))
    _assert_ranked_equals_evaluated(log, config, candidates)


def test_context_removed_by_the_refinement_is_left_out(sensor_log):
    # the split's own parent names no refined event: its child columns
    # would read 0 against a full parent column, inflating m and RIG
    fn = TimeThreshold(Label("Bedroom motion"), time(5, 0), Label("T"), Label("G"))
    refined = fn.apply(sensor_log)
    living = EvaluationConfig(context_labels=(Label("Living room motion"),))
    both = replace(living, context_labels=(Label("Living room motion"),
                                           Label("Bedroom motion")))
    alone = evaluate(sensor_log, refined, living, fn.description)
    report = evaluate(sensor_log, refined, both, fn.description)
    assert report.m_tests == alone.m_tests == 4
    assert report.entropy.relative_information_gain == pytest.approx(0.342455011003)
    assert report.tests == alone.tests
    assert report.notes == ("left out context label(s) that name no event of the "
                            "refined log: Bedroom motion",)
    assert rank_candidates(sensor_log, [fn], both) == [report]


def test_rank_orders_useful_first(sensor_log):
    useful = TimeThreshold(Label("Bedroom motion"), time(8, 30),
                           Label("Bedroom motion_1"), Label("Bedroom motion_2"))
    useless = TimeThreshold(Label("Living room motion"), time(9, 10),
                            Label("Living room motion_1"), Label("Living room motion_2"))
    reports = rank_candidates(sensor_log, [useless, useful])
    assert reports[0].candidate_description == useful.description
    assert reports[0].score > 0
    assert reports[1].score == 0.0


def test_rank_empty_candidate_list(sensor_log):
    assert rank_candidates(sensor_log, []) == []


def test_rank_per_candidate_set_widens_family(sensor_log):
    fn = TimeThreshold(Label("Bedroom motion"), time(8, 30),
                       Label("Bedroom motion_1"), Label("Bedroom motion_2"))
    other = TimeThreshold(Label("Living room motion"), time(9, 10),
                          Label("Living room motion_1"), Label("Living room motion_2"))
    per_candidate = rank_candidates(
        sensor_log, [fn, other],
        EvaluationConfig(correction=CorrectionPolicy("bonferroni", "per_candidate")))
    per_set = rank_candidates(
        sensor_log, [fn, other],
        EvaluationConfig(correction=CorrectionPolicy("bonferroni", "per_candidate_set")))
    m_total = sum(r.m_tests for r in per_set)
    for report in per_set:
        assert report.corrected_alpha == pytest.approx(0.01 / m_total, rel=1e-12)
    for report in per_candidate:
        assert report.corrected_alpha == pytest.approx(0.01 / report.m_tests, rel=1e-12)


def test_coin_flip_refinement_rarely_useful():
    rng = random.Random(0)
    alphabet = ["a", "b", "c"]
    useful_count = 0
    for seed in range(5):
        rng = random.Random(seed)
        rows = [[rng.choice(alphabet) for _ in range(5)] for _ in range(100)]
        refined = [[n + rng.choice(["_1", "_2"]) if n == "a" else n for n in row]
                   for row in rows]
        report = evaluate(log_from_rows(rows), log_from_rows(refined))
        useful_count += report.useful
    assert useful_count == 0


def test_refinement_merging_coarse_labels_is_rejected():
    # refined x sits under coarse a and b, so its tables would count b's
    # events as a child of a (a1 + a2 != parent); no two traces differ in a
    # coarse label under equal refined prefixes here
    base = log_from_rows([["a", "b", "c", "a", "c"]] * 3)
    refined = log_from_rows([["x", "x", "c", "y", "c"]] * 3)
    assert not check_refinement(base, refined).is_equal_length_refinement
    with pytest.raises(NotARefinementError,
                       match=r"refined label x is observed under several coarse labels \(a, b\)"):
        evaluate(base, refined)


# an event gets the refined label x or y, which may sit under several coarse
# labels, or its coarse label suffixed 1 or 2, which never does
_tagged_rows = st.lists(st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from("xy12")),
                                 min_size=1, max_size=6),
                        min_size=1, max_size=6)


def _label_rows(rows):
    return ([[coarse for coarse, _ in row] for row in rows],
            [[tag if tag in "xy" else coarse + tag for coarse, tag in row] for row in rows])


@settings(max_examples=200, deadline=None)
@given(_tagged_rows)
def test_prefix_violations_imply_merges(rows):
    base_rows, refined_rows = _label_rows(rows)
    check = check_refinement(log_from_rows(base_rows), log_from_rows(refined_rows))
    for i, j, position in prefix_violations(base_rows, refined_rows):
        # both traces carry one refined label over two coarse ones there
        assert Label(refined_rows[i][position]) in check.violations


@settings(max_examples=200, deadline=None)
@given(_tagged_rows)
def test_check_refinement_agrees_with_evaluate(rows):
    base_rows, refined_rows = _label_rows(rows)
    base, refined = log_from_rows(base_rows), log_from_rows(refined_rows)
    under: dict[str, set[str]] = {}
    for coarse_row, refined_row in zip(base_rows, refined_rows):
        for coarse, child in zip(coarse_row, refined_row):
            under.setdefault(child, set()).add(coarse)
    merged = tuple(Label(child) for child in sorted(under) if len(under[child]) >= 2)
    check = check_refinement(base, refined)
    assert check.violations == merged
    if check.is_equal_length_refinement:
        evaluate(base, refined)
    else:
        with pytest.raises(NotARefinementError, match="observed under several coarse labels"):
            evaluate(base, refined)
        with pytest.raises(NotARefinementError, match="observed under several coarse labels"):
            RefinementCounts.of(base, refined, DEFAULT_RELATIONS)


# --- the columnar tables, tests and entropies against eager tuples ---------

@st.composite
def _refinements(draw):
    """A log, a refinement of it splitting one or two labels k ways, and a
    configuration whose relations and contexts may repeat."""
    rows = draw(st.lists(st.lists(st.sampled_from("abcd"), min_size=1, max_size=8),
                         min_size=1, max_size=6))
    present = sorted({name for row in rows for name in row})
    split = draw(st.lists(st.sampled_from(present), min_size=1, max_size=2, unique=True))
    ways = {name: draw(st.integers(2, 3)) for name in split}
    refined = [[f"{name}_{draw(st.integers(1, ways[name]))}" if name in ways else name
                for name in row] for row in rows]
    relations = draw(st.lists(st.sampled_from(list(OrderingRelation)), min_size=1,
                              max_size=6))
    names = sorted({name for row in refined for name in row} | set(present) | {"absent"})
    contexts = draw(st.none() | st.lists(st.sampled_from(names), max_size=5))
    config = EvaluationConfig(
        alpha=draw(st.sampled_from([0.01, 0.05, 0.5])), relations=relations,
        correction=CorrectionPolicy("bonferroni",
                                    draw(st.sampled_from(["per_candidate",
                                                          "per_candidate_set"]))),
        context_labels=None if contexts is None else [Label(name) for name in contexts])
    return log_from_rows(rows), log_from_rows(refined), config, relations


def _table_entropies(table):
    """``table_entropies`` one column at a time: the float operations, in
    their order, that the columnar entropies must repeat."""
    parent_total = table.parent_col.total
    if parent_total == 0:
        return 0.0, 0.0
    h_before = binary_entropy(table.parent_col.pos / parent_total)
    h_after = 0.0
    for col in (table.col_a1, table.col_a2):
        if col.total == 0:
            continue
        weight = col.total / parent_total
        h_after += weight * binary_entropy(col.pos / col.total)
    return h_before, h_after


def _eager(report, l1, l2, config):
    """The report's tables, tests and table entropies built one object at a
    time, with every cell counted by the quantifier-scan oracle."""
    coarse = Pairing.of(l1, l2).coarse()
    rows1, rows2 = label_rows(l1), label_rows(l2)
    base_names = {name for row in rows1 for name in row}
    pairs = []
    for split in report.split_pairs:
        siblings = set(split.children)
        if config.context_labels is None:
            contexts = [b for b in sorted(coarse, key=Label.sort_key) if b not in siblings]
        else:
            contexts = [b for b in config.context_labels if b not in siblings
                        and (b in coarse or str(b) not in base_names)]
        for a1, a2 in itertools.combinations(split.children, 2):
            pairs.append((split, a1, a2, [ContingencyTable(
                relation, b, a1, a2,
                OrderingCounts(*naive_count(rows2, relation.value, str(a1), str(b))),
                OrderingCounts(*naive_count(rows2, relation.value, str(a2), str(b))),
                split.parent,
                OrderingCounts(*naive_count(rows1, relation.value, str(split.parent),
                                            str(coarse.get(b, b)))))
                for relation in config.relations for b in contexts]))
    tables = [t for *_, pair_tables in pairs for t in pair_tables]
    tests = tuple(fisher_test(t, report.corrected_alpha) for t in tables)
    entropies, before, after = [], 0.0, 0.0
    for t in tables:
        h_before, h_after = _table_entropies(t)
        assert table_entropies(t) == (h_before, h_after)
        entropies.append((h_before, h_after))
        before += h_before
        after += h_after
    return pairs, tests, entropies, before, after


def _assert_lazy_equals(lazy, eager):
    n = len(eager)
    assert len(lazy) == n
    for i in range(-n, n):
        assert lazy[i] == eager[i]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            lazy[i]
    assert list(lazy) == list(eager)
    assert lazy[1:-1] == eager[1:-1]
    assert lazy == eager and eager == lazy and lazy == list(eager)
    assert not lazy != eager
    assert hash(lazy) == hash(eager)
    if n:
        assert lazy != eager[:-1] and lazy != eager[:-1] + (None,)


@settings(max_examples=120, deadline=None)
@given(_refinements())
def test_lazy_tables_tests_and_entropies_equal_eager_tuples(inputs):
    l1, l2, config, drawn_relations = inputs
    assert config.relations == tuple(dict.fromkeys(drawn_relations))
    report = evaluate(l1, l2, config)
    candidates = generate_median_time_candidates(l1)
    ranked = rank_candidates(l1, candidates, config)
    by_description = {fn.description: fn for fn in candidates}
    checked = [(report, l2)] + [(r, by_description[r.candidate_description].apply(l1))
                                for r in ranked]
    for report, refined in checked:
        pairs, tests, entropies, before, after = _eager(report, l1, refined, config)
        _assert_lazy_equals(report.tests, tests)
        assert [table_entropies(t.table) for t in report.tests] == entropies
        assert (report.entropy.total_before, report.entropy.total_after) == (before, after)
        assert report.m_tests == len(tests)
        eager_report = replace(report, tests=tests)
        assert report == eager_report
        assert report.to_json_dict() == eager_report.to_json_dict()
        assert json_text(report_doc(report)) == json_text(report_doc(eager_report))
        assert pretty_report(report) == pretty_report(eager_report)
        counts = RefinementCounts.of(l1, refined, config.relations)
        for split, a1, a2, tables in pairs:
            _assert_lazy_equals(build_tables(counts, split, a1, a2, config.relations,
                                             config.context_labels), tuple(tables))
