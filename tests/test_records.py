"""The package's immutable records: equality, hashing, repr, immutability,
pickling, copying and ``replace``, for one instance of every record class."""

import copy
import pickle
from collections import Counter
from datetime import datetime, time, timezone

import pytest

from labelsplit import (ContingencyTable, CorrectionPolicy, CsvSchema, EntropyBreakdown,
                        EvaluationConfig, EvaluationReport, Event, Label, LogCounts,
                        OrderingCounts, OrderingRelation, PartitionKeySpec, Projection,
                        RefinementCounts, RuleBased, SplitPair, TimeThreshold, Trace)
from labelsplit.evaluate import _Collected
from labelsplit.model import InternedLog, replace
from labelsplit.relabel import Rule
from labelsplit.stats import TestResult as FisherResult

DF = OrderingRelation.DIRECTLY_FOLLOWS
EVENT = Event(1, datetime(2020, 1, 1, tzinfo=timezone.utc), {"x": "1"})
SPLIT = SplitPair(Label("a"), (Label("a_1"), Label("a_2")))
TABLE = ContingencyTable(DF, Label("c"), Label("a_1"), Label("a_2"), OrderingCounts(1, 2),
                         OrderingCounts(3, 4), Label("a"), OrderingCounts(4, 6))
TEST = FisherResult(DF, Label("c"), (Label("a_1"), Label("a_2")), 0.5, 0.01, False, TABLE)
BREAKDOWN = EntropyBreakdown(1.0, 0.5, 0.5, 0.5)
RULE = Rule("x", "=", "1", Label("y"))
COUNTS = LogCounts(InternedLog.of_parts([[("a",), ("c",)]]), {DF: [Counter({1: 1}), Counter()]})

# one instance of every record class, and its fields in order
RECORDS = [
    (EVENT, "id timestamp attributes label"),
    (Trace("t", [EVENT]), "case_id events"),
    (Projection(("x",)), "attribute_names"),
    (TimeThreshold(Label("a"), time(8, 30), Label("a_1"), Label("a_2"), "Europe/Amsterdam"),
     "base_label threshold low_label high_label timezone"),
    (RULE, "attribute op value label"),
    (RuleBased((RULE,), Label("z"), "r"), "rules default name"),
    (SPLIT, "parent children"),
    (CsvSchema("timestamp", ("x",), "id"),
     "timestamp_column attribute_columns id_column timestamp_format delimiter timezone"),
    (PartitionKeySpec(("home",), "day"), "attribute_keys calendar_key timezone"),
    (CorrectionPolicy("none", "per_candidate_set"), "kind family_scope"),
    (EvaluationConfig(0.05, (DF,), CorrectionPolicy(), (Label("c"),)),
     "alpha relations correction context_labels"),
    (OrderingCounts(2, 3), "pos neg"),
    (TABLE, "relation context_label a1 a2 col_a1 col_a2 parent_label parent_col"),
    (TEST, "relation context_label pair p_value corrected_alpha significant table"),
    (BREAKDOWN, "total_before total_after information_gain relative_information_gain"),
    (EvaluationReport("d", (SPLIT,), (TEST,), BREAKDOWN, False, 0.0, 1, 0.01, 0.01, ("n",)),
     "candidate_description split_pairs tests entropy useful score m_tests corrected_alpha "
     "alpha notes"),
    (COUNTS, "interned rows sources"),
    (RefinementCounts(COUNTS, COUNTS, {Label("a_1"): Label("a")}, (SPLIT,)),
     "base refined coarse split_pairs"),
    (_Collected("d", (SPLIT,), [], ["n"]), "description split_pairs pair_tables notes"),
]


def _with_fields(cls: type, values: tuple):
    """An instance of ``cls`` whose fields are ``values``, unchecked."""
    record = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(record, name, value)
    return record


@pytest.mark.parametrize("record, names", RECORDS, ids=lambda v: type(v).__name__)
def test_a_record_is_its_field_tuple(record, names):
    names = tuple(names.split())
    cls = type(record)
    values = tuple(getattr(record, name) for name in names)
    assert cls.__slots__ == names and not hasattr(record, "__dict__")
    assert cls(*values) == record == _with_fields(cls, values)
    assert record != _with_fields(cls, values[:-1] + (object(),))
    assert record != values and values != record
    try:
        hash(values)
    except TypeError:
        hashable = False
    else:
        hashable = cls is not _Collected
    if hashable:
        assert hash(record) == hash(values)
    else:
        with pytest.raises(TypeError):
            hash(record)
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(record) == f"{cls.__name__}({fields})"
    for name in (names[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert getattr(record, names[0]) is values[0]
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.deepcopy(record) == record and copy.copy(record) == record
    assert replace(record) == record


def test_replace_checks_and_normalises_again():
    with pytest.raises(ValueError, match="alpha must be in"):
        replace(EvaluationConfig(), alpha=2)
    pair = replace(SPLIT, children=(Label("z"), Label("b")))
    assert pair == SplitPair(Label("a"), (Label("b"), Label("z")))
    assert pair.children == (Label("b"), Label("z"))
    assert replace(OrderingCounts(1, 2), neg=5) == OrderingCounts(1, 5)
    with pytest.raises(TypeError):
        replace(OrderingCounts(1, 2), total=3)

