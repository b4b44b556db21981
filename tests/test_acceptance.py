"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion.  Criterion 7 needs the van Kasteren smart-home dataset on disk
and is skipped when it is absent.
"""

import math
import os
import random
import time as time_mod
from pathlib import Path

import pytest

from labelsplit import (DEFAULT_RELATIONS, CsvSchema, EvaluationConfig, Event, EventLog,
                        Label, Pairing, PartitionKeySpec, Projection, RefinementCounts,
                        Trace, bonferroni_threshold, build_tables, evaluate,
                        fisher_exact_two_sided, generate_median_time_candidates,
                        parse_csv, partition, rank_candidates,
                        relative_information_gain, table_entropies)

from conftest import log_from_rows, sample_events
from oracles import fisher_two_sided_bruteforce


def sample_logs():
    log = partition(sample_events(), PartitionKeySpec(("Address",), "day"))
    return Projection("Sensor").apply(log), Projection("Activity").apply(log)


def sample_tables():
    sensor_log, activity_log = sample_logs()
    split = Pairing.of(sensor_log, activity_log).split_pairs[0]
    return build_tables(RefinementCounts.of(sensor_log, activity_log, DEFAULT_RELATIONS),
                        split, split.children[0], split.children[1])


def test_criterion_1_worked_example_p_values():
    started = time_mod.monotonic()
    sensor_log, activity_log = sample_logs()
    assert [len(t) for t in activity_log] == [6, 5, 7, 4, 4]
    assert activity_log.event_count == 26

    tables = {t.relation.value: t for t in sample_tables()}
    p_by_relation = {
        name: fisher_exact_two_sided(t.col_a1.pos, t.col_a1.neg,
                                     t.col_a2.pos, t.col_a2.neg)
        for name, t in tables.items()
    }
    expected = 1 / math.comb(21, 5)
    assert p_by_relation["directly_precedes"] == pytest.approx(expected, rel=1e-9)
    assert p_by_relation["directly_follows"] == 1.0
    assert p_by_relation["eventually_follows"] == 1.0
    assert p_by_relation["eventually_precedes"] == 1.0
    elapsed = time_mod.monotonic() - started
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1: PASS  directly-precedes p = "
          f"{p_by_relation['directly_precedes']:.4g} (= 1/C(21,5)), "
          f"others exactly 1, in {elapsed:.3f}s")


def test_criterion_2_worked_example_entropy():
    tables = {t.relation.value: t for t in sample_tables()}
    h_before, h_after = table_entropies(tables["directly_precedes"])
    assert h_before == pytest.approx(0.7919, abs=1e-4)
    assert h_after == 0.0
    breakdown = relative_information_gain(list(tables.values()))
    assert breakdown.relative_information_gain == 1.0
    print(f"\nACCEPTANCE 2: PASS  before-split entropy {h_before:.4f} bits, "
          f"after-split 0, relative gain exactly 1.0")


def test_criterion_3_bonferroni_and_usefulness():
    assert bonferroni_threshold(0.01, 4) == 0.0025
    sensor_log, activity_log = sample_logs()
    report = evaluate(sensor_log, activity_log, EvaluationConfig(alpha=0.01))
    assert report.m_tests == 4
    assert report.corrected_alpha == 0.0025
    assert report.useful
    print("\nACCEPTANCE 3: PASS  0.01/4 = 0.0025 exactly; candidate reported useful")


def test_criterion_4_fisher_matches_bruteforce_oracle():
    started = time_mod.monotonic()
    checked = 0
    # full enumeration of every table with grand total <= 12
    for total in range(13):
        for a in range(total + 1):
            for b in range(total - a + 1):
                for c in range(total - a - b + 1):
                    d = total - a - b - c
                    expected = fisher_two_sided_bruteforce(a, b, c, d)
                    actual = fisher_exact_two_sided(a, b, c, d)
                    assert abs(actual - expected) <= 1e-10, (a, b, c, d)
                    checked += 1
    # 500 random tables with grand total <= 40
    rng = random.Random(20240601)
    for _ in range(500):
        cells = [rng.randrange(0, 11) for _ in range(4)]
        expected = fisher_two_sided_bruteforce(*cells)
        actual = fisher_exact_two_sided(*cells)
        assert abs(actual - expected) <= 1e-10, cells
        checked += 1
    elapsed = time_mod.monotonic() - started
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 4: PASS  {checked} tables within 1e-10 of the "
          f"exact-enumeration oracle in {elapsed:.1f}s")


def _random_split_scenario(rng: random.Random):
    """A random log plus a random binary split of one of its labels."""
    alphabet = [f"L{i}" for i in range(rng.randint(3, 5))]
    while True:
        rows = [[rng.choice(alphabet) for _ in range(rng.randint(1, 8))]
                for _ in range(rng.randint(1, 8))]
        occurring = sorted({name for row in rows for name in row})
        target = rng.choice(occurring)
        flips = [rng.choice(["_1", "_2"])
                 for _ in range(sum(row.count(target) for row in rows))]
        if len(set(flips)) < 2:
            continue  # need both children observed
        it = iter(flips)
        refined = [[name + next(it) if name == target else name for name in row]
                   for row in rows]
        return rows, refined, target


def _duplicate(log: EventLog, k: int) -> EventLog:
    traces = []
    for copy in range(k):
        for t in log:
            traces.append(Trace(f"{copy}/{t.case_id}", [
                Event(f"{copy}/{e.id}", e.timestamp, e.attributes, e.label)
                for e in t]))
    return EventLog(traces)


def test_criterion_5_structural_invariants():
    rng = random.Random(5150)
    config = EvaluationConfig()
    scenarios = 1000
    for index in range(scenarios):
        rows, refined, target = _random_split_scenario(rng)
        l1, l2 = log_from_rows(rows), log_from_rows(refined)
        split = next(s for s in Pairing.of(l1, l2).split_pairs
                     if s.parent == Label(target))
        a1, a2 = split.children
        tables = build_tables(RefinementCounts.of(l1, l2, DEFAULT_RELATIONS), split, a1, a2)

        for t in tables:
            # column additivity: the only split label is the pair's parent
            assert t.parent_col == t.col_a1 + t.col_a2, (rows, refined, t)
            h_before, h_after = table_entropies(t)
            assert -1e-12 <= h_after <= h_before + 1e-12

        breakdown = relative_information_gain(tables)
        assert -1e-12 <= breakdown.relative_information_gain <= 1 + 1e-12

        report = evaluate(l1, l2, config)
        contexts = len(l2.alphabet) - 2
        assert report.m_tests == len(config.relations) * contexts * len(report.split_pairs)

        if index % 5 == 0:
            dup = relative_information_gain(build_tables(
                RefinementCounts.of(_duplicate(l1, 3), _duplicate(l2, 3), DEFAULT_RELATIONS),
                split, a1, a2))
            assert dup.relative_information_gain == pytest.approx(
                breakdown.relative_information_gain, abs=1e-9)
    print(f"\nACCEPTANCE 5: PASS  additivity, entropy bounds, RIG bounds, "
          f"duplication invariance, and test counts over {scenarios} random splits")


def test_criterion_6_false_positive_control():
    useful_seeds = []
    for seed in range(20):
        rng = random.Random(seed)
        alphabet = ["a", "b", "c", "d"]
        rows = [[rng.choice(alphabet) for _ in range(rng.randint(4, 8))]
                for _ in range(200)]
        # refined label assigned by an independent fair coin per occurrence
        refined = [[name + rng.choice(["_1", "_2"]) if name == "a" else name
                    for name in row] for row in rows]
        report = evaluate(log_from_rows(rows), log_from_rows(refined),
                          EvaluationConfig(alpha=0.01))
        if report.useful:
            useful_seeds.append(seed)
    assert len(useful_seeds) <= 1, useful_seeds
    print(f"\nACCEPTANCE 6: PASS  coin-flip refinements useful in "
          f"{len(useful_seeds)}/20 seeds (allowed: at most 1)")


KASTEREN_PATHS = [
    Path(os.environ.get("KASTEREN_CSV", "")),
    Path(__file__).parent / "data" / "kasteren.csv",
    Path(__file__).parent.parent / "data" / "kasteren.csv",
]


def _find_kasteren():
    for path in KASTEREN_PATHS:
        if path and path.is_file():
            return path
    return None


@pytest.mark.skipif(_find_kasteren() is None,
                    reason="van Kasteren dataset not present (expected a CSV "
                           "with 'timestamp' and 'sensor' columns at "
                           "tests/data/kasteren.csv or $KASTEREN_CSV); "
                           "soft reproduction targets only")
def test_criterion_7_van_kasteren_reproduction():
    path = _find_kasteren()
    schema = CsvSchema(timestamp_column="timestamp", attribute_columns=("sensor",))
    events = parse_csv(path.read_text(encoding="utf-8"), schema)
    assert len(events) == 1285
    log = Projection("sensor").apply(
        partition(events, PartitionKeySpec((), "day")))
    assert len(log.alphabet) == 14

    candidates = generate_median_time_candidates(log)
    assert len(candidates) == 14
    reports = rank_candidates(log, candidates, EvaluationConfig(alpha=0.01))
    useful = [r for r in reports if r.useful]
    names = [r.candidate_description for r in useful[:2]]
    assert any("Hall-bathroom door" in n for n in names)
    assert any("Cups cupboard" in n for n in names)

    by_label = {r.candidate_description: r for r in reports}
    hall = next(r for n, r in by_label.items() if "Hall-bathroom door" in n)
    cups = next(r for n, r in by_label.items() if "Cups cupboard" in n)
    assert hall.score == pytest.approx(0.0347, abs=0.01)
    assert cups.score == pytest.approx(0.0053, abs=0.01)

    def min_p(report, relation_value, context_substring):
        return min(t.p_value for t in report.tests
                   if t.relation.value == relation_value
                   and context_substring in str(t.context_label))

    p_front = min_p(hall, "eventually_follows", "Front door")
    assert math.log10(p_front) == pytest.approx(math.log10(3.06e-26), abs=3)
    p_groceries = min_p(cups, "eventually_precedes", "Groceries")
    assert math.log10(p_groceries) == pytest.approx(math.log10(2.53e-34), abs=3)
    print("\nACCEPTANCE 7: PASS  van Kasteren scan reproduces the two useful "
          "refinements within the soft tolerances")
