import itertools
import random
import tracemalloc
from array import array
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import labelsplit
from labelsplit import (DEFAULT_RELATIONS, EvaluationConfig, EventLog, Label, LogCounts,
                        OrderingCounts, NotARefinementError, OrderingRelation, Pairing,
                        RefinementCounts, build_tables, cli, evaluate,
                        generate_median_time_candidates, ordering, rank_candidates)

from conftest import label_rows, log_from_rows
from oracles import naive_count

DP = OrderingRelation.DIRECTLY_PRECEDES
DF = OrderingRelation.DIRECTLY_FOLLOWS
EP = OrderingRelation.EVENTUALLY_PRECEDES
EF = OrderingRelation.EVENTUALLY_FOLLOWS
LOOP = OrderingRelation.LENGTH_TWO_LOOP

GU = Label("Getting up")
TT = Label("Tossing & turning")
LRM = Label("Living room motion")


def column(log, relation, b, c):
    """The lookup build_tables uses, which also answers for absent labels."""
    return LogCounts.of(log, (relation,)).column(relation, b, c)


def test_getting_up_directly_precedes_living_room(activity_log):
    assert column(activity_log, DP, GU, LRM) == OrderingCounts(5, 0)


def test_tossing_never_directly_precedes_living_room(activity_log):
    assert column(activity_log, DP, TT, LRM) == OrderingCounts(0, 16)


def test_tossing_eventually_precedes_living_room(activity_log):
    assert column(activity_log, EP, TT, LRM) == OrderingCounts(16, 0)


def test_single_event_trace_is_negative():
    # c is absent from the log: every occurrence of b counts as neg
    log = log_from_rows([["b"]])
    for relation in (DP, DF, EP, EF, LOOP):
        assert column(log, relation, Label("b"), Label("c")) == OrderingCounts(0, 1)


def test_length_two_loop_bcb():
    log = log_from_rows([["b", "c", "b"]])
    assert column(log, LOOP, Label("b"), Label("c")) == OrderingCounts(1, 1)


def test_absent_labels_count_zero(activity_log):
    assert column(activity_log, DP, Label("nope"), LRM) == OrderingCounts(0, 0)


def test_pos_plus_neg_equals_occurrences(activity_log):
    occurrences = sum(1 for t in activity_log for e in t if e.label == TT)
    for relation in (DP, DF, EP, EF, LOOP):
        oc = column(activity_log, relation, TT, LRM)
        assert oc.total == occurrences


def test_directly_precedes_sums_to_non_final_occurrences(activity_log):
    # summing pos over all context labels counts every non-final occurrence once
    total_pos = sum(column(activity_log, DP, TT, c).pos for c in activity_log.alphabet)
    occurrences = sum(1 for t in activity_log for e in t if e.label == TT)
    finals = sum(1 for t in activity_log if t.events[-1].label == TT)
    assert total_pos == occurrences - finals


def test_count_invariant_under_trace_reorder(activity_log):
    from labelsplit import EventLog
    reordered = EventLog(tuple(reversed(activity_log.traces)))
    for relation in (DP, DF, EP, EF):
        assert (column(reordered, relation, TT, LRM)
                == column(activity_log, relation, TT, LRM))


def test_relation_counts_matches_single_counts(activity_log):
    rows = label_rows(activity_log)
    alphabet = activity_log.alphabet
    for relation in (DP, DF, EP, EF, LOOP):
        for b in alphabet:
            for c in alphabet:
                oc = column(activity_log, relation, b, c)
                assert (oc.pos, oc.neg) == naive_count(rows, relation.value, str(b), str(c))


def test_relation_counts_hashes_labels_only_for_its_result(activity_log, monkeypatch):
    # the counting loops run on interned ints: LogCounts.of never hashes or
    # compares a label
    calls = {"hash": 0, "eq": 0}
    orig_hash, orig_eq = Label.__hash__, Label.__eq__

    def counted_hash(label):
        calls["hash"] += 1
        return orig_hash(label)

    def counted_eq(label, other):
        calls["eq"] += 1
        return orig_eq(label, other)

    monkeypatch.setattr(Label, "__hash__", counted_hash)
    monkeypatch.setattr(Label, "__eq__", counted_eq)
    for relation in (DP, DF, EP, EF, LOOP):
        LogCounts.of(activity_log, (relation,))
    LogCounts.of(activity_log, ALL_RELATIONS)
    assert calls == {"hash": 0, "eq": 0}


def test_build_tables_reproduces_the_four_sample_tables(sensor_log, activity_log):
    splits = Pairing.of(sensor_log, activity_log).split_pairs
    counts = RefinementCounts.of(sensor_log, activity_log, DEFAULT_RELATIONS)
    tables = build_tables(counts, splits[0], splits[0].children[0], splits[0].children[1])
    assert len(tables) == 4  # one context label, four relations
    by_relation = {t.relation: t for t in tables}
    # children are sorted: a1 = Getting up, a2 = Tossing & turning
    def cells(t):
        return ((t.col_a1.pos, t.col_a1.neg), (t.col_a2.pos, t.col_a2.neg),
                (t.parent_col.pos, t.parent_col.neg))
    assert cells(by_relation[DF]) == ((0, 5), (0, 16), (0, 21))
    assert cells(by_relation[DP]) == ((5, 0), (0, 16), (5, 16))
    assert cells(by_relation[EF]) == ((0, 5), (0, 16), (0, 21))
    assert cells(by_relation[EP]) == ((5, 0), (16, 0), (21, 0))
    assert all(t.context_label == LRM for t in tables)


def test_build_tables_no_context_labels():
    # a log containing only the two children yields no tables
    l1 = log_from_rows([["a", "a"], ["a", "a"]])
    l2 = log_from_rows([["a1", "a2"], ["a2", "a1"]])
    splits = Pairing.of(l1, l2).split_pairs
    counts = RefinementCounts.of(l1, l2, DEFAULT_RELATIONS)
    tables = build_tables(counts, splits[0], Label("a1"), Label("a2"))
    assert tables == []


def test_build_tables_explicit_context_excludes_siblings(sensor_log, activity_log):
    splits = Pairing.of(sensor_log, activity_log).split_pairs
    counts = RefinementCounts.of(sensor_log, activity_log, DEFAULT_RELATIONS)
    tables = build_tables(counts, splits[0], GU, TT, context_labels=[LRM, GU, TT])
    assert {t.context_label for t in tables} == {LRM}


def test_build_tables_orders_contexts_without_label_comparisons(monkeypatch):
    l1 = log_from_rows([["a", "d", "b", "c"], ["c", "a", "b", "a"]])
    l2 = log_from_rows([["a1", "d", "b", "c"], ["c", "a2", "b", "a1"]])
    splits = Pairing.of(l1, l2).split_pairs
    counts = RefinementCounts.of(l1, l2, DEFAULT_RELATIONS)

    def refuse(self, other):
        raise AssertionError("Label.__lt__ called")

    monkeypatch.setattr(Label, "__lt__", refuse)
    tables = build_tables(counts, splits[0], Label("a1"), Label("a2"))
    contexts = [t.context_label for t in tables if t.relation == tables[0].relation]
    assert contexts == [Label("b"), Label("c"), Label("d")]


def random_refined_logs(rng: random.Random):
    """A random log over 3-5 labels plus a random binary split of one label."""
    alphabet = [f"L{i}" for i in range(rng.randint(3, 5))]
    rows = [[rng.choice(alphabet) for _ in range(rng.randint(1, 8))]
            for _ in range(rng.randint(1, 8))]
    target = rng.choice(sorted({name for row in rows for name in row}))
    refined = [[(name + rng.choice(["_1", "_2"])) if name == target else name
                for name in row] for row in rows]
    return log_from_rows(rows), log_from_rows(refined), target


def test_column_additivity_against_naive_scanner():
    rng = random.Random(42)
    for _ in range(60):
        l1, l2, target = random_refined_logs(rng)
        splits = Pairing.of(l1, l2).split_pairs
        split = next((s for s in splits if s.parent == Label(target)), None)
        if split is None:
            continue
        a1, a2 = split.children[0], split.children[1]
        tables = build_tables(RefinementCounts.of(l1, l2, DEFAULT_RELATIONS), split, a1, a2)
        rows1, rows2 = label_rows(l1), label_rows(l2)
        for t in tables:
            # independent recount of all three columns
            assert (t.col_a1.pos, t.col_a1.neg) == naive_count(
                rows2, t.relation.value, str(a1), str(t.context_label))
            assert (t.col_a2.pos, t.col_a2.neg) == naive_count(
                rows2, t.relation.value, str(a2), str(t.context_label))
            assert (t.parent_col.pos, t.parent_col.neg) == naive_count(
                rows1, t.relation.value, target, str(t.context_label))
            # additivity: the parent column is the sum of the child columns
            assert t.parent_col == t.col_a1 + t.col_a2


@settings(max_examples=120)
@given(st.lists(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=7),
                min_size=1, max_size=6),
       st.sampled_from([DP, DF, EP, EF, LOOP]))
def test_count_matches_naive_scan(rows, relation):
    log = log_from_rows(rows)
    for b in ("a", "b"):
        for c in ("a", "c"):
            expected = naive_count(rows, relation.value, b, c)
            actual = column(log, relation, Label(b), Label(c))
            assert (actual.pos, actual.neg) == expected


ALL_RELATIONS = (DP, DF, EP, EF, LOOP)


@settings(max_examples=150)
@given(st.lists(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=12),
                min_size=1, max_size=6),
       st.data())
def test_restricted_counts_match_dense_counts(rows, data):
    # rows up to 12 events over 4 labels hold both traces with more source
    # occurrences than distinct labels and traces with fewer, so both of the
    # eventual relations' per-trace branches run
    log = log_from_rows(rows)
    alphabet = list(log.alphabet)
    sources = data.draw(st.one_of(
        st.none(), st.just(alphabet),
        st.lists(st.sampled_from(alphabet + [Label("zz")]), unique=True)))
    counts = LogCounts.of(log, ALL_RELATIONS, sources)
    contexts = alphabet + [Label("zz")]  # zz never occurs in the log
    for relation in ALL_RELATIONS:
        dense = LogCounts.of(log, (relation,))
        for b in alphabet if sources is None else sources:
            for c in contexts:
                expected = OrderingCounts(*naive_count(rows, relation.value, str(b), str(c)))
                assert counts.column(relation, b, c) == expected
                assert dense.column(relation, b, c) == expected


def _one_label_log(n):
    """One trace of n events, every one labelled a, built from columns."""
    start = datetime(2020, 1, 1, tzinfo=timezone.utc)
    return EventLog.of_rows([("t", range(n))], range(n), [start] * n, ("act",),
                            {"act": ["a"] * n}, ("act",))


@pytest.mark.parametrize("n", [255, 256, 257, 65535, 65536, 65537])
def test_eventual_counts_of_one_repeated_label_fill_their_field(n):
    # the eventual counts are packed in fields of 8, 16, 32 or 64 bits
    # sized by the event count; every a but the first eventually follows
    # an a and every a but the last eventually precedes one, so each cell
    # is n - 1, at the edge of a field
    counts = LogCounts.of(_one_label_log(n), (EF, EP))
    a = Label("a")
    assert counts.column(EF, a, a) == counts.column(EP, a, a) == OrderingCounts(n - 1, 1)


def test_eventual_counts_past_one_byte_match_naive_scan():
    # 300 events, of which 262 are a: several cells of a pass 255, within
    # one trace (251 of EF(a, a)) and summed over both
    rows = [(["a"] * 9 + ["b"]) * 28, ["b", "a", "a", "b"] * 5]
    log = log_from_rows(rows)
    a, b, absent = Label("a"), Label("b"), Label("zz")
    assert LogCounts.of(log, (EF,)).column(EF, a, a) == OrderingCounts(260, 2)
    for sources in (None, [a], [b, absent]):
        counts = LogCounts.of(log, ALL_RELATIONS, sources)
        for relation in ALL_RELATIONS:
            for source in [a, b] if sources is None else sources:
                for c in (a, b, absent):
                    expected = naive_count(rows, relation.value, str(source), str(c))
                    assert counts.column(relation, source, c) == OrderingCounts(*expected)


def _wide_rows():
    """5 000 labels, each in one of 900 short traces, and 20 longer traces
    of 60 hot labels, 30 events each, that repeat their labels."""
    rnd = random.Random(5)
    cold = [f"l{i}" for i in range(5000)] + [f"l{rnd.randrange(5000)}" for _ in range(400)]
    rnd.shuffle(cold)
    hot = [f"l{i}" for i in range(60)]
    return ([cold[i:i + 6] for i in range(0, len(cold), 6)]
            + [rnd.choices(hot, k=30) for _ in range(20)])


def _naive_rows(rows, relation):
    """Per source label, its nonzero pos counts by context label, summed
    over traces by ``naive_count`` on each trace alone (a label absent from
    a trace adds no pos)."""
    out = {}
    for row in rows:
        for b in set(row):
            for c in set(row):
                pos, _ = naive_count([row], relation.value, b, c)
                if pos:
                    cell = out.setdefault(b, {})
                    cell[c] = cell.get(c, 0) + pos
    return out


@pytest.mark.parametrize("sources", ["all", "hot", "few"])
def test_eventual_counts_of_a_wide_alphabet_match_naive_scan(sources):
    # every label as a source is 25 million packed fields, past the bound,
    # so every trace takes the per-occurrence walk; the 60 hot labels (and
    # an absent one) as sources pack the hot traces, which they fill
    rows = _wide_rows()
    log = log_from_rows(rows)
    wanted = {"all": None, "hot": [Label(f"l{i}") for i in range(60)] + [Label("zz")],
              "few": [Label("l7"), Label("l4999")]}[sources]
    counts = LogCounts.of(log, (EF, EP), wanted)
    interned = counts.interned
    assert len(interned.labels) == 5000
    for relation in (EF, EP):
        expected = _naive_rows(rows, relation)
        for b in interned.labels if wanted is None else wanted:
            code = interned.codes.get(b.parts)
            got = {} if code is None else {str(interned.labels[c]): k
                                           for c, k in counts.rows[relation][code].items() if k}
            assert got == expected.get(str(b), {}), (relation, b)


def test_eventual_counts_of_a_wide_alphabet_stay_sparse():
    # dense packed columns of 5 000 labels would take 50 MB per copy
    log = log_from_rows(_wide_rows())
    log.interned  # interned before tracing: only the count is measured
    tracemalloc.start()
    try:
        LogCounts.of(log, (EF, EP))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("packs", [True, False])
def test_split_counts_match_naive_scan_on_both_sides_of_the_packing_bound(monkeypatch, packs):
    # a scan packs its 6 child sources against the 3 base context codes
    # only: 18 fields, although the child codes run to 9; every trace is
    # all sources, so it packs whenever the bound allows it
    rng = random.Random(3)
    log = log_from_rows([[rng.choice("abc") for _ in range(30)] for _ in range(4)])
    candidates = generate_median_time_candidates(log)
    assert len(candidates) == 3
    monkeypatch.setattr(ordering, "_PACKED_FIELDS", 18 if packs else 17)
    unpacked = []  # the packed columns are unpacked through one array
    monkeypatch.setattr(ordering, "array", lambda *args: unpacked.append(args) or array(*args))
    counted = ordering.split_counts(log, candidates, ALL_RELATIONS)
    assert len(unpacked) == (2 if packs else 0)  # eventually_follows and _precedes
    contexts = [Label(c) for c in "abc"]
    for fn, counts in zip(candidates, counted):
        rows = label_rows(fn.apply(log))
        for child in (fn.low_label, fn.high_label):
            n, pos = counts.refined.positives(child, contexts, ALL_RELATIONS)
            for relation, got in zip(ALL_RELATIONS, pos):
                expected = [naive_count(rows, relation.value, str(child), str(c))
                            for c in contexts]
                assert [(p, n - p) for p in got] == expected, (fn, child, relation)


def test_restricted_counts_refuse_an_uncounted_source(activity_log):
    counts = LogCounts.of(activity_log, (DP,), [TT, Label("nope")])
    assert counts.column(DP, TT, LRM) == OrderingCounts(0, 16)
    assert counts.column(DP, Label("nope"), LRM) == OrderingCounts(0, 0)
    with pytest.raises(KeyError, match="Getting up"):
        counts.column(DP, GU, LRM)
    with pytest.raises(KeyError, match="other"):
        counts.column(DP, Label("other"), LRM)


def test_refined_counts_hold_only_split_children():
    l1 = log_from_rows([["a", "b", "a", "c"], ["b", "a"]])
    l2 = log_from_rows([["a1", "b", "a2", "c"], ["b", "a1"]])
    counts = RefinementCounts.of(l1, l2, (DP,))
    assert counts.refined.column(DP, Label("a1"), Label("b")) == OrderingCounts(1, 1)
    with pytest.raises(KeyError):
        counts.refined.column(DP, Label("b"), Label("a2"))
    # the one split's parent columns are its children's sums: no base row
    # is counted, and reading one is an error, never a silent 0
    with pytest.raises(KeyError):
        counts.base.column(DP, Label("b"), Label("a"))
    with pytest.raises(KeyError):
        counts.base.column(DP, Label("a"), Label("b"))


@st.composite
def refinements(draw):
    """A base log over a-d and a refinement of it: each label is kept,
    renamed 1:1, or split two or three ways (a child may keep its parent's
    name), so two labels may split at once."""
    rows = draw(st.lists(st.lists(st.sampled_from("abcd"), min_size=1, max_size=9),
                         min_size=1, max_size=6))
    names = {}
    for x in "abcd":
        kind = draw(st.sampled_from(["keep", "rename", "split2", "split3"]))
        if kind == "keep":
            names[x] = [x]
        elif kind == "rename":
            names[x] = [f"{x}r"]
        else:
            names[x] = [x if draw(st.booleans()) else f"{x}0", f"{x}1", f"{x}2"][:int(kind[-1])]
    refined = [[draw(st.sampled_from(names[x])) for x in row] for row in rows]
    return rows, refined


@settings(max_examples=300, deadline=None)
@given(refinements(), st.data())
def test_parent_columns_match_naive_scan_of_the_base_log(logs, data):
    # a parent column is its children's sum except on length_two_loop and
    # against a child of another split parent; every one must be the base
    # log's count against the context's coarse label
    rows, refined = logs
    l1, l2 = log_from_rows(rows), log_from_rows(refined)
    counts = RefinementCounts.of(l1, l2, ALL_RELATIONS)
    contexts = data.draw(st.one_of(st.none(), st.lists(
        st.sampled_from(sorted({x for row in refined for x in row}) + ["zz"]), unique=True)))
    for split in counts.split_pairs:
        for a1, a2 in itertools.combinations(split.children, 2):
            tables = build_tables(counts, split, a1, a2, ALL_RELATIONS,
                                  None if contexts is None else [Label(c) for c in contexts])
            assert tables.n == sum(row.count(str(split.parent)) for row in rows)
            for t in tables:
                coarse = counts.coarse.get(t.context_label, t.context_label)
                expected = naive_count(rows, t.relation.value, str(split.parent), str(coarse))
                assert (t.parent_col.pos, t.parent_col.neg) == expected, t
                assert (t.col_a1.pos, t.col_a1.neg) == naive_count(
                    refined, t.relation.value, str(a1), str(t.context_label))


def test_a_single_split_counts_no_base_row(monkeypatch):
    # every parent column of one split on the default relations is its
    # children's sum: neither evaluate nor scan counts the base log, and
    # with length_two_loop they count only that relation of it
    rng = random.Random(5)
    l1 = log_from_rows([[rng.choice("abcd") for _ in range(12)] for _ in range(8)])
    base_rows = l1.interned.rows
    calls = []
    count = ordering._hits
    monkeypatch.setattr(ordering, "_hits",
                        lambda *args: calls.append((args[0] is base_rows, args[2]))
                        or count(*args))
    candidates = generate_median_time_candidates(l1)
    for relations, over_base in ((DEFAULT_RELATIONS, []), (ALL_RELATIONS, [LOOP])):
        config = EvaluationConfig(relations=relations)
        for run in (lambda: evaluate(l1, candidates[0].apply(l1), config),
                    lambda: rank_candidates(l1, candidates, config)):
            calls.clear()
            run()
            assert [r for base, r in calls if base] == over_base
            assert len(calls) > len(over_base)


def test_refinement_counts_refuse_a_merge():
    # refined x sits under coarse a and b: no coarse label of x to read the
    # parent column against
    l1 = log_from_rows([["a", "b", "c"], ["c", "a"]])
    l2 = log_from_rows([["x", "x", "c"], ["c", "y"]])
    with pytest.raises(NotARefinementError,
                       match=r"refined label x is observed under several coarse labels \(a, b\)"):
        RefinementCounts.of(l1, l2, (DP,))


def test_pipeline_builds_no_dense_counts(monkeypatch, sensor_log, activity_log, tmp_path):
    # relation_counts alone builds the dense (Label, Label) dict;
    # scan, evaluate and stats read the kernel's rows instead
    def refuse(*_args, **_kwargs):
        raise AssertionError("the pipeline called relation_counts")

    for module in (labelsplit, ordering, cli):
        if hasattr(module, "relation_counts"):
            monkeypatch.setattr(module, "relation_counts", refuse)
    config = EvaluationConfig(relations=ALL_RELATIONS)
    assert evaluate(sensor_log, activity_log, config).useful
    candidates = generate_median_time_candidates(sensor_log)
    assert len(rank_candidates(sensor_log, candidates, config)) == len(candidates)
    csv = str(Path(__file__).parent / "data" / "smart_home.csv")
    for fmt in ("csv", "json"):
        out = tmp_path / f"stats.{fmt}"
        assert cli.main(["stats", "--csv", csv, "--base-label", "Sensor,Activity",
                         "--relations", ",".join(r.value for r in ALL_RELATIONS),
                         "--format", fmt, "--out", str(out)]) == 0
        assert out.stat().st_size > 0
