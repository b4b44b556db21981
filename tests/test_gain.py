import random

import pytest
from hypothesis import given, settings, strategies as st

from labelsplit import (DEFAULT_RELATIONS, ContingencyTable, Label, OrderingCounts,
                        OrderingRelation, Pairing, RefinementCounts, binary_entropy,
                        build_tables, relative_information_gain, table_entropies)

from labelsplit.ordering import PairTables

from conftest import label_rows, log_from_rows
from oracles import naive_rig

DP = OrderingRelation.DIRECTLY_PRECEDES


def make_table(a1, a2, parent, relation=DP, context="ctx"):
    return ContingencyTable(
        relation=relation,
        context_label=Label(context),
        a1=Label("a1"),
        a2=Label("a2"),
        col_a1=OrderingCounts(*a1),
        col_a2=OrderingCounts(*a2),
        parent_label=Label("a"),
        parent_col=OrderingCounts(*parent),
    )


def test_binary_entropy_sample_value():
    assert binary_entropy(5 / 21) == pytest.approx(0.7919, abs=1e-4)


def test_binary_entropy_edges():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0


def test_binary_entropy_rejects_out_of_range():
    with pytest.raises(ValueError):
        binary_entropy(-0.1)
    with pytest.raises(ValueError):
        binary_entropy(1.1)


def test_table_entropies_directly_precedes_sample():
    h_before, h_after = table_entropies(make_table((0, 16), (5, 0), (5, 16)))
    assert h_before == pytest.approx(0.7919, abs=1e-4)
    assert h_after == 0.0


def test_table_entropies_eventually_precedes_sample():
    assert table_entropies(make_table((16, 0), (5, 0), (21, 0))) == (0.0, 0.0)


def test_table_entropies_identical_proportions():
    # both children scaled copies of each other: no entropy change
    h_before, h_after = table_entropies(make_table((2, 6), (1, 3), (3, 9)))
    assert h_after == pytest.approx(h_before, rel=1e-12)


def test_table_entropies_empty_parent():
    assert table_entropies(make_table((0, 0), (0, 0), (0, 0))) == (0.0, 0.0)


def test_table_entropies_empty_child_column():
    # the nonempty column holds the whole parent: weighted entropy of one part
    table = make_table((3, 5), (0, 0), (3, 5))
    h_before, h_after = table_entropies(table)
    assert h_after == pytest.approx(h_before, rel=1e-12)


def test_rig_sample_tables_is_exactly_one(sensor_log, activity_log):
    split = Pairing.of(sensor_log, activity_log).split_pairs[0]
    counts = RefinementCounts.of(sensor_log, activity_log, DEFAULT_RELATIONS)
    tables = build_tables(counts, split, split.children[0], split.children[1])
    breakdown = relative_information_gain(tables)
    assert breakdown.total_before == pytest.approx(0.7919, abs=1e-4)
    assert breakdown.total_after == 0.0
    assert breakdown.relative_information_gain == 1.0
    assert len(tables) == 4
    assert sum(table_entropies(t)[0] for t in tables) == breakdown.total_before


def test_rig_empty_table_list():
    breakdown = relative_information_gain([])
    assert breakdown.relative_information_gain == 0.0
    assert breakdown.information_gain == 0.0


def test_rig_independent_split_is_near_zero_and_matches_naive_oracle():
    rng = random.Random(404)
    alphabet = ["a", "b", "c"]
    rows = [[rng.choice(alphabet) for _ in range(rng.randint(3, 8))]
            for _ in range(300)]
    refined = [[name + rng.choice(["_1", "_2"]) if name == "a" else name
                for name in row] for row in rows]
    l1, l2 = log_from_rows(rows), log_from_rows(refined)
    split = Pairing.of(l1, l2).split_pairs[0]
    counts = RefinementCounts.of(l1, l2, DEFAULT_RELATIONS)
    tables = build_tables(counts, split, split.children[0], split.children[1])
    breakdown = relative_information_gain(tables)

    contexts = sorted({n for row in refined for n in row} - {"a_1", "a_2"})
    relations = ["directly_follows", "directly_precedes",
                 "eventually_follows", "eventually_precedes"]
    expected = naive_rig(label_rows(l1), label_rows(l2), "a", "a_1", "a_2",
                         relations, contexts)
    assert breakdown.relative_information_gain == pytest.approx(expected, abs=1e-12)
    assert breakdown.relative_information_gain < 0.05


def test_rig_of_blocks_sums_each_table_in_order():
    # small counts, so that a block repeats (a1, a2) pos counts under other
    # parent pos counts and two blocks share n1 and n2 under other n
    rng = random.Random(23)
    contexts = tuple(Label("c", k) for k in range(6))
    for _ in range(200):
        blocks = []
        for _ in range(rng.randint(1, 3)):
            n1, n2 = rng.randint(0, 2), rng.randint(0, 2)
            n = n1 + n2 + rng.randint(0, 1)
            blocks.append(PairTables(
                DEFAULT_RELATIONS, contexts, Label("a1"), Label("a2"), Label("a"), n1, n2, n,
                *(tuple([rng.randint(0, size) for _ in contexts] for _ in DEFAULT_RELATIONS)
                  for size in (n1, n2, n))))
        before = after = 0.0
        for table in (t for block in blocks for t in block):
            h_before, h_after = table_entropies(table)
            before += h_before
            after += h_after
        breakdown = relative_information_gain(blocks)
        assert (breakdown.total_before, breakdown.total_after) == (before, after)


@st.composite
def candidate_tables(draw):
    """One candidate's tables: PairTables of small counts, so that (pos, n)
    recurs within and across candidates, or the same tables one by one."""
    blocks = []
    for _ in range(draw(st.integers(0, 3))):
        relations = tuple(draw(st.lists(st.sampled_from(OrderingRelation), min_size=1,
                                        max_size=3, unique=True)))
        contexts = tuple(Label("c", k) for k in range(draw(st.integers(0, 4))))
        n1, n2 = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        n = n1 + n2 + draw(st.integers(0, 2))
        columns = [tuple(draw(st.lists(st.integers(0, size), min_size=len(contexts),
                                       max_size=len(contexts))) for _ in relations)
                   for size in (n1, n2, n)]
        blocks.append(PairTables(relations, contexts, Label("a1"), Label("a2"), Label("a"),
                                 n1, n2, n, *columns))
    return [t for block in blocks for t in block] if draw(st.booleans()) else blocks


def float_bits(breakdown):
    return tuple(value.hex() for value in (
        breakdown.total_before, breakdown.total_after, breakdown.information_gain,
        breakdown.relative_information_gain))


@settings(max_examples=150, deadline=None)
@given(st.lists(candidate_tables(), max_size=5), st.data())
def test_rig_with_one_shared_dict_equals_each_call_alone(candidates, data):
    alone = [float_bits(relative_information_gain(tables)) for tables in candidates]
    entropies = {}
    for k in data.draw(st.permutations(range(len(candidates)))):
        assert float_bits(relative_information_gain(candidates[k], entropies)) == alone[k]
    assert all(h == binary_entropy(pos / n) for (pos, n), h in entropies.items())


def test_h_after_bounded_by_h_before_on_additive_tables():
    rng = random.Random(77)
    for _ in range(300):
        a1 = (rng.randrange(0, 10), rng.randrange(0, 10))
        a2 = (rng.randrange(0, 10), rng.randrange(0, 10))
        parent = (a1[0] + a2[0], a1[1] + a2[1])
        h_before, h_after = table_entropies(make_table(a1, a2, parent))
        assert 0.0 <= h_after <= h_before + 1e-12


def test_rig_invariant_under_trace_duplication(sensor_log, activity_log):
    from labelsplit import EventLog, Event, Trace
    split = Pairing.of(sensor_log, activity_log).split_pairs[0]
    base = relative_information_gain(build_tables(
        RefinementCounts.of(sensor_log, activity_log, DEFAULT_RELATIONS), split,
        split.children[0], split.children[1]))

    def duplicate(log, k):
        traces = []
        for copy in range(k):
            for t in log:
                events = [Event(f"{copy}/{e.id}", e.timestamp, e.attributes, e.label)
                          for e in t]
                traces.append(Trace(f"{copy}/{t.case_id}", events))
        return EventLog(traces)

    dup = relative_information_gain(build_tables(
        RefinementCounts.of(duplicate(sensor_log, 3), duplicate(activity_log, 3),
                            DEFAULT_RELATIONS), split,
        split.children[0], split.children[1]))
    assert dup.relative_information_gain == pytest.approx(
        base.relative_information_gain, rel=1e-12)
    assert dup.total_before == pytest.approx(base.total_before, rel=1e-12)
