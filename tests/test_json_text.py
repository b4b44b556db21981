"""The report JSON writer against ``json.dumps(indent=2)``, and the
per-test and per-stats-row templates against the dict forms they replace."""

import json
import math
import random
from datetime import date, datetime, timedelta, timezone

import pytest
from hypothesis import example, given, settings, strategies as st

from labelsplit import (ContingencyTable, EntropyBreakdown, EvaluationReport, Label,
                        OrderingCounts, OrderingRelation, SplitPair,
                        generate_median_time_candidates, rank_candidates)
from labelsplit.ordering import PairTables
from labelsplit.report import (StatsRows, TestRecords as Records, csv_label, json_chunks,
                               json_text, report_doc, scan_doc, stats_csv)
from labelsplit.stats import PairTests, TestResult as FisherResult

from conftest import log_from_rows


def round12(value):
    """``value`` with every float value, at any depth, fixed at 12
    significant digits and every tuple a list; keys are left as they are."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [round12(v) for v in value]
    return value


floats = st.floats() | st.sampled_from(
    [-0.0, math.nan, math.inf, -math.inf, 0.1 + 0.2, 1e16, 1e-7, 123456789012.5, 2.0 ** -1074])
scalars = (st.none() | st.booleans() | st.integers(min_value=-2 ** 200, max_value=2 ** 200)
           | floats | st.text() | st.text(st.characters(max_codepoint=0x9f)))
keys = st.text() | st.integers() | floats | st.booleans() | st.none()
documents = st.recursive(
    scalars,
    lambda children: (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(keys, children, max_size=4)),
    max_leaves=25)


def dumped(doc):
    return json.dumps(round12(doc), ensure_ascii=False, indent=2)


@given(documents)
def test_writes_what_json_dumps_writes_after_rounding(doc):
    assert json_text(doc) == dumped(doc)
    assert "".join(json_chunks(doc)) == dumped(doc)


@pytest.mark.parametrize("doc", [object(), {"a": [1, {2, 3}]}, [b"bytes"], {(1, 2): 3},
                                 {date(2020, 1, 1): 1}])
def test_what_json_cannot_write_raises_type_error(doc):
    with pytest.raises(TypeError):
        json.dumps(doc, ensure_ascii=False, indent=2)
    with pytest.raises(TypeError):
        json_text(doc)


# --- the per-test template against the dict form -------------------------

specials = st.sampled_from(['"', "\\", "+", ",", "\x00", "\n", "\x1f", "\x7f", "é", " ",
                            "😀", "a"])
texts = st.text(specials | st.characters(), max_size=6)
zones = st.sampled_from([timezone.utc, timezone(timedelta(hours=5, minutes=30)),
                         timezone(timedelta(hours=-8))])
parts = (texts | st.integers(min_value=-2 ** 70, max_value=2 ** 70) | st.dates() | st.times()
         | st.datetimes(timezones=zones))
labels = st.lists(parts, max_size=3).map(lambda values: Label(tuple(values)))
report_floats = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, 5e-324, 2.0 ** -1060, 1e-300])
counts = st.builds(OrderingCounts, st.integers(0, 10 ** 7), st.integers(0, 10 ** 7))


@st.composite
def fisher_results(draw, labels):
    relation = draw(st.sampled_from(OrderingRelation))
    context, a1, a2, parent = (draw(labels) for _ in range(4))
    # a hand-built result may name its table differently; the dict form
    # writes the result's names
    named = draw(st.booleans())
    table = ContingencyTable(relation if named else draw(st.sampled_from(OrderingRelation)),
                             context if named else draw(labels),
                             a1 if named else draw(labels), a2 if named else draw(labels),
                             draw(counts), draw(counts), parent, draw(counts))
    p, alpha = draw(report_floats), draw(report_floats)
    return FisherResult(relation, context, (a1, a2), p, alpha, p < alpha, table)


@st.composite
def reports(draw):
    # most labels come from a small pool, so they recur across records
    pool = st.sampled_from(draw(st.lists(labels, min_size=1, max_size=6))) | labels
    split_pairs = draw(st.lists(st.builds(
        SplitPair, pool, st.lists(pool, min_size=2, max_size=4).map(tuple)), max_size=2))
    tests = draw(st.lists(fisher_results(pool), max_size=8))
    entropy = EntropyBreakdown(draw(report_floats), draw(report_floats),
                               draw(report_floats), draw(report_floats))
    return EvaluationReport(draw(texts), tuple(split_pairs), tuple(tests), entropy,
                            draw(st.booleans()), draw(report_floats),
                            draw(st.integers(0, 10 ** 6)), draw(report_floats),
                            draw(report_floats), tuple(draw(st.lists(texts, max_size=3))))


def _report_of(tests):
    entropy = EntropyBreakdown(0.0, 0.0, 0.0, 0.0)
    return EvaluationReport("c", (), tuple(tests), entropy, False, 0.0, len(tests), 0.01, 0.01)


def _test_of(context, p=0.5):
    a1, a2 = Label("a", 1), Label("a", 2)
    table = ContingencyTable(OrderingRelation.DIRECTLY_FOLLOWS, context, a1, a2,
                             OrderingCounts(1, 2), OrderingCounts(3, 4), Label("a"),
                             OrderingCounts(4, 6))
    return FisherResult(table.relation, context, (a1, a2), p, 0.01, p < 0.01, table)


# one instant in two zones: equal labels with different texts
NOON_UTC = datetime(2021, 3, 28, 12, tzinfo=timezone.utc)
NOON_IN_PARIS = NOON_UTC.astimezone(timezone(timedelta(hours=2)))


@settings(max_examples=150, deadline=None)
@given(reports())
@example(_report_of([_test_of(Label(NOON_UTC)), _test_of(Label(NOON_IN_PARIS))]))
def test_report_doc_writes_what_the_dict_form_writes(report):
    assert json_text(report_doc(report)) == json_text(report.to_json_dict())
    assert "".join(json_chunks(report_doc(report))) == dumped(report.to_json_dict())


# equal labels written differently, each a context in its own report:
# a report's text of a label is that of its own last such label
UTC_AND_PARIS = [Label(NOON_UTC), Label(NOON_IN_PARIS)]
ONE_TRUE_AND_ONE_POINT_ZERO = [Label("c", 1), Label("c", True), Label("c", 1.0)]


@settings(max_examples=60, deadline=None)
@given(st.lists(reports(), max_size=3), st.lists(texts, max_size=2))
@example([_report_of([_test_of(label)]) for label in UTC_AND_PARIS], [])
@example([_report_of([_test_of(label)]) for label in ONE_TRUE_AND_ONE_POINT_ZERO], [])
@example([_report_of([_test_of(label) for label in ONE_TRUE_AND_ONE_POINT_ZERO]),
          _report_of([_test_of(ONE_TRUE_AND_ONE_POINT_ZERO[0])])], [])
@example([_report_of([_test_of(label) for label in UTC_AND_PARIS]),
          _report_of([_test_of(UTC_AND_PARIS[0])]),
          _report_of([_test_of(label) for label in UTC_AND_PARIS])], ["s"])
def test_nested_report_docs_write_what_the_dict_forms_write(reports, skipped):
    doc = scan_doc(reports, skipped)
    expected = {"candidates": [r.to_json_dict() for r in reports], "skipped_labels": skipped}
    assert json_text(doc) == json_text(expected)
    assert "".join(json_chunks(doc)) == dumped(expected)


def test_repeated_p_values_keep_their_own_texts():
    # p-values are written from a memo keyed by the float, where 0.0 and
    # -0.0 are one key and NaN is never found again
    ps = [0.0, -0.0, 0.0, math.nan, 0.25, -0.0, 0.25, math.nan, 1e-300, 1e-300, 0.0]
    report = _report_of([_test_of(Label("c", k), p) for k, p in enumerate(ps)])
    text = json_text(report_doc(report))
    assert text == json_text(report.to_json_dict())
    written = [line.strip()[len('"p": '):-1] for line in text.splitlines()
               if line.strip().startswith('"p": ')]
    assert written == ["0.0", "-0.0", "0.0", "NaN", "0.25", "-0.0", "0.25", "NaN",
                       "1e-300", "1e-300", "0.0"]


# --- tables that repeat within and across pair blocks ------------------

# one pair of labels, so that equal tables of two blocks differ in n or alpha only
A1, A2, PARENT = Label("a_1"), Label("a_2"), Label("a")


@st.composite
def pair_tests(draw):
    """PairTests of small counts, so that a block holds equal (a1, a2) pos
    counts under other parent pos counts and two blocks of equal n1 and n2
    differ in n or alpha.  As ``evaluate`` does, every table of equal
    four counts shares one p object."""
    ps = {}
    blocks, p_values, alphas = [], [], []
    for _ in range(draw(st.integers(0, 4))):
        relations = tuple(draw(st.lists(st.sampled_from(OrderingRelation), min_size=1,
                                        max_size=3, unique=True)))
        contexts = tuple(Label("c", k) for k in range(draw(st.integers(0, 4))))
        n1, n2 = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        n = n1 + n2 + draw(st.integers(0, 1))
        columns = [[draw(st.lists(st.integers(0, size), min_size=len(contexts),
                                  max_size=len(contexts))) for _ in relations]
                   for size in (n1, n2, n)]
        block = PairTables(relations, contexts, A1, A2, PARENT, n1, n2, n, *map(tuple, columns))
        block_ps = []
        for x, y in zip((x for row in columns[0] for x in row),
                        (y for row in columns[1] for y in row)):
            key = (x, n1 - x, y, n2 - y)
            if key not in ps:
                ps[key] = draw(st.sampled_from([0.0, 1e-3, 0.02, 0.5, 1.0]))
            block_ps.append(ps[key])
        blocks.append(block)
        p_values.append(block_ps)
        alphas.append(draw(st.sampled_from([0.01, 0.05])))
    return PairTests(blocks, p_values, alphas)


@settings(max_examples=200, deadline=None)
@given(pair_tests())
@example(PairTests(  # one (a1, a2) pos pair under two parent pos counts
    [PairTables((OrderingRelation.DIRECTLY_FOLLOWS,), (Label("c", 0), Label("c", 1)),
                A1, A2, PARENT, 1, 1, 2, ([0, 0],), ([1, 1],), ([0, 1],))],
    [[0.5, 0.5]], [0.01]))
@example(PairTests(  # one table in two blocks of other n, then other alpha
    [PairTables((OrderingRelation.DIRECTLY_FOLLOWS,), (Label("c", 0),),
                A1, A2, PARENT, 1, 1, n, ([0],), ([1],), ([1],)) for n in (2, 3, 3)],
    [[1e-3]] * 3, [0.01, 0.01, 1.0]))
def test_repeated_tables_write_what_the_dict_form_writes(tests):
    entropy = EntropyBreakdown(0.0, 0.0, 0.0, 0.0)
    report = EvaluationReport("c", (), tests, entropy, False, 0.0, len(tests), 0.01, 0.01)
    assert json_text(report_doc(report)) == dumped(report.to_json_dict())


def test_a_scan_writes_one_pair_block_per_chunk():
    rng = random.Random(3)
    names = [f"s{k}" for k in range(12)]
    log = log_from_rows([[rng.choice(names) for _ in range(rng.randint(4, 30))]
                         for _ in range(60)])
    reports = rank_candidates(log, generate_median_time_candidates(log))
    doc = scan_doc(reports, [])
    chunks = list(json_chunks(doc))
    assert "".join(chunks) == json_text(doc) == dumped(
        {"candidates": [r.to_json_dict() for r in reports], "skipped_labels": []})
    # the largest chunk is one pair's records, written as a one-pair list
    # at the depth of a report's tests
    one_block = max(
        len(json_text(Records(PairTests([block], [ps], [alpha])), "\n      "))
        for r in reports
        for block, ps, alpha in zip(r.tests.blocks, r.tests.p_values, r.tests.alphas))
    blocks = sum(len(r.tests.blocks) for r in reports)
    assert blocks >= 10 and len(chunks) > blocks
    assert max(map(len, chunks)) <= one_block < len(json_text(doc)) / 10


# --- the stats row template against the dict form -------------------------

@st.composite
def stats_rows(draw):
    """Labels, and (relation, b code, n, [(c code, pos), ...]) groups over
    them: each cell's neg is n - pos."""
    row_labels = draw(st.lists(labels, min_size=1, max_size=5))
    code = st.integers(0, len(row_labels) - 1)
    count = st.integers(0, 10 ** 7)
    relation = st.sampled_from([r.value for r in OrderingRelation])
    groups = draw(st.lists(st.tuples(relation, code, count,
                                     st.lists(st.tuples(code, count), max_size=4)),
                           max_size=5))
    return row_labels, groups


@settings(max_examples=150, deadline=None)
@given(stats_rows(), st.booleans())
def test_stats_rows_write_what_the_dict_form_writes(rows, stamped):
    row_labels, groups = rows
    parts = [label.json_parts() for label in row_labels]
    expected = {"rows": [{"relation": relation, "b": parts[b], "c": parts[c],
                          "pos": pos, "neg": n - pos}
                         for relation, b, n, cells in groups for c, pos in cells]}
    doc = {"rows": StatsRows(row_labels, ((relation, b, n, iter(cells))
                                          for relation, b, n, cells in groups))}
    if stamped:  # as the CLI writes it without --deterministic
        expected["generated_at"] = doc["generated_at"] = "2021-03-28T12:00:00+00:00"
    assert json_text(doc) == json_text(expected) == dumped(expected)


@settings(max_examples=100, deadline=None)
@given(stats_rows())
def test_stats_csv_writes_one_line_per_cell(rows):
    row_labels, groups = rows
    names = [csv_label(label) for label in row_labels]
    lines = ["relation,b,c,pos,neg"]
    lines += [f'{relation},"{names[b]}","{names[c]}",{pos},{n - pos}'
              for relation, b, n, cells in groups for c, pos in cells]
    assert "".join(stats_csv(row_labels, groups)) == "\n".join(lines) + "\n"
