"""Self-tests of the benchmark: generator, checkers and span arithmetic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import math
import random
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

SMALL = gen.LogSpec(events=300, labels=6, homes=1, days=5, stay=0.6)


def _common(csv_path: Path) -> list[str]:
    return ["--csv", str(csv_path), "--base-label", "sensor", "--case-key", "home",
            "--calendar-key", "day", "--alpha", str(checks.ALPHA), "--deterministic"]


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """A small generated log and the CLI's scan, evaluate and stats outputs."""
    from labelsplit import cli
    work = tmp_path_factory.mktemp("small")
    csv_path = work / "log.csv"
    truth = gen.generate(3, SMALL, str(csv_path))
    outputs = {}
    for name, extra in (
        ("scan", ["scan"]),
        ("evaluate", ["evaluate", "--refined-label", "sensor,activity"]),
        ("stats", ["stats", "--relations", ",".join(checks.ALL_RELATIONS),
                   "--format", "csv"]),
    ):
        out = work / name
        assert cli.main([extra[0], *_common(csv_path), *extra[1:], "--out", str(out)]) == 0
        outputs[name] = out.read_text(encoding="utf-8")
    return truth, outputs


def test_generator_is_deterministic(tmp_path):
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    first = gen.generate(11, SMALL, str(paths[0]))
    second = gen.generate(11, SMALL, str(paths[1]))
    gen.generate(12, SMALL, str(paths[2]))
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert first == second
    assert paths[0].read_bytes() != paths[2].read_bytes()


def test_generator_puts_ground_truth_in_the_columns(tmp_path):
    path = tmp_path / "log.csv"
    truth = gen.generate(4, SMALL, str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "id,timestamp,home,sensor,activity,coin"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == truth.events == sum(map(len, truth.sequences))
    for _, _, _, sensor, activity, coin in rows:
        if sensor == gen.PLANTED:
            assert activity in ("walk", "rest") and coin in ("h", "t")
        else:
            assert (activity, coin) == ("none", "-")
    for column, index in (("activity", 4), ("coin", 5)):
        flat = [label for seq in truth.refined(column) for label in seq]
        assert flat == [(row[3], row[index]) for row in rows]


def test_generator_cli_writes_the_workload_log(tmp_path):
    out = tmp_path / "cli.csv"
    assert gen.main(["--seed", "5", "--workload", "scan-wide", "--out", str(out)]) == 0
    gen.generate(5, gen.WORKLOADS["scan-wide"], str(tmp_path / "direct.csv"))
    assert out.read_bytes() == (tmp_path / "direct.csv").read_bytes()


def test_count_all_follows_the_relation_definitions():
    counts = checks.count_all([("a", "b", "a", "c"), ("b", "a")])
    assert counts["directly_precedes", "a", "b"] == 1
    assert counts["directly_follows", "a", "b"] == 2
    assert counts["eventually_precedes", "a", "c"] == 2
    assert counts["eventually_follows", "a", "b"] == 2
    assert counts["eventually_follows", "a", "a"] == 1
    assert counts["length_two_loop", "a", "b"] == 1
    assert counts["length_two_loop", "b", "a"] == 0


def _exact_two_sided(a1_pos, a1_neg, a2_pos, a2_neg) -> Fraction:
    n1, n2, r = a1_pos + a1_neg, a2_pos + a2_neg, a1_pos + a2_pos
    masses = {x: Fraction(comb(n1, x) * comb(n2, r - x), comb(n1 + n2, r))
              for x in range(max(0, r - n2), min(r, n1) + 1)}
    return sum(m for m in masses.values() if m <= masses[a1_pos])


@pytest.mark.parametrize("table, support", [
    ((3, 1, 1, 3), 5), ((0, 5, 5, 0), 6), ((10, 2, 4, 9), 12),
    ((1, 0, 0, 0), 1), ((7, 7, 7, 7), 15), ((40, 3, 12, 30), 34)])
def test_reference_fisher_matches_exact_rationals(table, support):
    expected = float(_exact_two_sided(*table))
    assert math.isclose(math.exp(checks.fisher_log_p(*table)), expected, rel_tol=1e-9)
    assert checks.support_size(*table) == support


def test_scan_checker_accepts_output_and_rejects_reordered_ranking(small):
    truth, outputs = small
    doc = json.loads(outputs["scan"])
    assert checks.check_scan(doc, truth.sequences, random.Random(0)) == []
    bad = copy.deepcopy(doc)
    bad["candidates"][0], bad["candidates"][-1] = bad["candidates"][-1], bad["candidates"][0]
    assert any("sorted" in p for p in checks.check_scan(bad, truth.sequences,
                                                        random.Random(0)))


def test_scan_checker_rejects_swapped_count(small):
    truth, outputs = small
    bad = json.loads(outputs["scan"])
    table = bad["candidates"][0]["tests"][0]["table"]
    table["a1"] = table["a1"][::-1]
    assert checks.check_scan(bad, truth.sequences, random.Random(0))


def _move_one_event(table: dict) -> None:
    """Move one positive occurrence from a1 to a2: parent stays a1 + a2."""
    a1, a2 = table["a1"], table["a2"]
    if a1[0]:
        a1[0], a2[0] = a1[0] - 1, a2[0] + 1
    else:
        a1[1], a2[1] = a1[1] - 1, a2[1] + 1


def _swap_children_everywhere(doc: dict) -> None:
    """Swap a1 and a2 in every table: parents, totals and p stay consistent."""
    for t in doc["tests"]:
        t["table"]["a1"], t["table"]["a2"] = t["table"]["a2"], t["table"]["a1"]


def test_evaluate_checker_rejects_wrong_p_flag_alpha_and_child_counts(small):
    truth, outputs = small
    doc = json.loads(outputs["evaluate"])
    children = (["s00", "rest"], ["s00", "walk"])
    refined = truth.refined("activity")
    assert doc["tests"] and checks.check_evaluate(
        doc, truth.sequences, refined, "s00", children, random.Random(0),
        p_samples=100) == []
    for corrupt in (
        lambda d: d["tests"][0].update(p=d["tests"][0]["p"] * 0.5 + 0.25),
        lambda d: d["tests"][0].update(significant=not d["tests"][0]["significant"]),
        lambda d: d.update(corrected_alpha=d["corrected_alpha"] * 2),
        lambda d: d["tests"][1]["table"]["parent"].__setitem__(0, 10 ** 6),
        lambda d: d.update(useful=not d["useful"]),
        lambda d: _move_one_event(d["tests"][2]["table"]),
        _swap_children_everywhere,
    ):
        bad = copy.deepcopy(doc)
        corrupt(bad)
        assert checks.check_evaluate(bad, truth.sequences, refined, "s00", children,
                                     random.Random(0), p_samples=100)


def test_stats_checker_rejects_swapped_and_shifted_counts(small):
    truth, outputs = small
    text = outputs["stats"]
    assert checks.check_stats_csv(text, truth.sequences, checks.ALL_RELATIONS) == []
    lines = text.splitlines()
    index = next(i for i, line in enumerate(lines[1:], 1)
                 if line.split(",")[3] != line.split(",")[4])
    relation, b, c, pos, neg = lines[index].split(",")
    for row in (f"{relation},{b},{c},{neg},{pos}", f"{relation},{b},{c},{int(pos) + 1},{neg}"):
        bad = "\n".join(lines[:index] + [row] + lines[index + 1:]) + "\n"
        assert checks.check_stats_csv(bad, truth.sequences, checks.ALL_RELATIONS)


def test_self_times_of_a_nested_span_tree():
    tree = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.child", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["b.x", 5.5, 7.0, 3],
        ["b.y", 6.5, 8.0, 3],  # overlaps b.x: the union counts once
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.5, 1.5])


def test_tracer_wraps_lookup_sites_and_restores_them(small, tmp_path):
    from labelsplit import cli, ordering
    truth, _ = small
    csv_path = tmp_path / "log.csv"
    gen.generate(3, SMALL, str(csv_path))
    original = ordering.relation_counts
    tracer = spans.Tracer()
    skipped = tracer.install(spans.HOOKS + (spans.Hook("x.gone", "labelsplit.ordering",
                                                       "no_such_function"),))
    assert skipped == ["x.gone"]
    try:
        root = tracer.wrap(spans.ROOT_SPAN, cli.main)
        assert root(["scan", *_common(csv_path), "--out", str(tmp_path / "o")]) == 0
    finally:
        tracer.uninstall()
    assert ordering.relation_counts is original
    names = [s[0] for s in tracer.spans]
    assert names[0] == spans.ROOT_SPAN and tracer.spans[0][3] == -1
    build = names.index("ordering.build_tables")
    assert tracer.spans[build + 1][0] == "relabel.observed_parents"
    assert tracer.spans[build + 2][0] == "ordering.relation_counts"
    assert tracer.spans[build + 2][3] == build
    metrics = tracer.layer_metrics()
    assert metrics["ordering.relation_counts_calls"][0] == names.count(
        "ordering.relation_counts") > 0
    assert metrics["ingest.rows"][0] == truth.events
    # self times partition the root span exactly
    root_span = tracer.spans[0]
    assert sum(spans.self_times(tracer.spans)) == pytest.approx(root_span[2] - root_span[1])


def test_label_call_counter_counts_and_restores():
    from labelsplit.model import Label
    original = Label.__hash__
    with spans.LabelCallCounter(Label) as counter:
        assert len({Label("a"), Label("a"), Label("b")}) == 2
    assert Label.__hash__ is original
    assert counter.hash_calls == 3 and counter.eq_calls >= 1


def test_malformed_output_is_a_failure_not_a_crash(tmp_path):
    import run
    inv = run.Invocation("scan", (), tmp_path / "o")
    truth = gen.generate(1, SMALL, str(tmp_path / "log.csv"))
    for text in ("not json", "{}", '{"candidates": [{"split_pairs": 3}], "skipped_labels": []}'):
        problems, useful = run.check_output(inv, text, truth, random.Random(0))
        assert problems and useful is None
    stats = run.Invocation("stats", (), tmp_path / "o")
    assert run.check_output(stats, "relation,b,c,pos,neg\nx,y\n", truth, random.Random(0))[0]
