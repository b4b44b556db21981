"""Candidate evaluation: the full statistical pipeline over one refinement.

A candidate refinement is useful when every refined label pair differs
significantly from its sibling on at least one ordering statistic (Fisher
test at the corrected level); its score is then the relative information
gain over all its contingency tables, otherwise 0.  Median time-of-day
splits provide a simple candidate generator, and rank_candidates evaluates
and sorts a whole candidate set.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from typing import Any, Container, Iterable, Iterator

from .gain import EntropyBreakdown, relative_information_gain
from .model import EventLog, Label, Record, as_label, local, time_zone
from .ordering import (DEFAULT_RELATIONS, OrderingRelation, PairTables, RefinementCounts,
                       as_relations, build_tables, split_counts)
from .relabel import RelabelingFn, SplitPair, TimeThreshold
from .stats import CorrectionPolicy, PairTests, TestResult, check_alpha, fisher_p_values


class EvaluationConfig(Record):
    """What ``evaluate`` and ``rank_candidates`` test: ``relations`` as
    ``as_relations`` reads them, and ``context_labels``, which are Labels."""

    __slots__ = ("alpha", "relations", "correction", "context_labels")

    def __init__(self, alpha: float = 0.01,
                 relations: str | Iterable[OrderingRelation | str] = DEFAULT_RELATIONS,
                 correction: CorrectionPolicy = CorrectionPolicy(),
                 context_labels: Iterable[Label] | None = None):
        # a repeated relation or context label is dropped, so no table is
        # tested twice; a bare Label or string is one (and a string refused)
        if isinstance(context_labels, (str, Label)):
            context_labels = (context_labels,)
        if context_labels is not None:
            context_labels = tuple(dict.fromkeys(
                as_label("context_labels", label) for label in context_labels))
        super().__init__(check_alpha(alpha), as_relations(relations), correction, context_labels)


class EvaluationReport(Record):
    """Everything the evaluation of one candidate produced.

    ``split_pairs`` and every table come from the candidate's one
    ``RefinementCounts``.  ``evaluate`` and ``rank_candidates`` give
    ``tests`` as ``PairTests``, which build each ``TestResult`` on access.
    """

    __slots__ = ("candidate_description", "split_pairs", "tests", "entropy", "useful", "score",
                 "m_tests", "corrected_alpha", "alpha", "notes")

    def __init__(self, candidate_description: str, split_pairs: tuple[SplitPair, ...],
                 tests: Sequence[TestResult], entropy: EntropyBreakdown, useful: bool,
                 score: float, m_tests: int, corrected_alpha: float, alpha: float,
                 notes: tuple[str, ...] = ()):
        super().__init__(candidate_description, split_pairs, tests, entropy, useful, score,
                         m_tests, corrected_alpha, alpha, notes)

    def to_json_dict(self) -> dict:
        # each label's parts are built once; its tests share that one list
        labels = {label.parts: label
                  for t in self.tests for label in (t.context_label, *t.pair)}
        parts = {key: label.json_parts() for key, label in labels.items()}
        return self.json_fields([
            {"relation": t.relation.value,
             "context": parts[t.context_label.parts],
             "pair": [parts[t.pair[0].parts], parts[t.pair[1].parts]],
             "table": {
                 "a1": [t.table.col_a1.pos, t.table.col_a1.neg],
                 "a2": [t.table.col_a2.pos, t.table.col_a2.neg],
                 "parent": [t.table.parent_col.pos, t.table.parent_col.neg],
             },
             "p": t.p_value,
             "significant": t.significant}
            for t in self.tests
        ])

    def json_fields(self, tests: Any) -> dict:
        """The report's JSON fields in output order, with ``tests`` as the
        value of "tests": ``to_json_dict`` passes its test dicts, and
        ``report.report_doc`` a writer of the same text."""
        return {
            "candidate": self.candidate_description,
            "split_pairs": [
                {"parent": sp.parent.json_parts(),
                 "children": [c.json_parts() for c in sp.children]}
                for sp in self.split_pairs
            ],
            "m_tests": self.m_tests,
            "corrected_alpha": self.corrected_alpha,
            "tests": tests,
            "entropy": {
                "total_before": self.entropy.total_before,
                "total_after": self.entropy.total_after,
                "rig": self.entropy.relative_information_gain,
            },
            "useful": self.useful,
            "score": self.score,
            "notes": list(self.notes),
        }


class _Collected(Record):
    """Intermediate state shared by single and batch evaluation."""

    __slots__ = ("description", "split_pairs", "pair_tables", "notes")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, description: str, split_pairs: tuple[SplitPair, ...],
                 pair_tables: list[PairTables], notes: list[str]):
        super().__init__(description, split_pairs, pair_tables, notes)

    @property
    def m_tests(self) -> int:
        return sum(map(len, self.pair_tables))


def _tabulate(counts: RefinementCounts, config: EvaluationConfig,
              description: str) -> _Collected:
    """Build every table of every split pair from the refinement's counts."""
    notes: list[str] = []
    if not counts.split_pairs:
        notes.append("refinement is not strict")

    # no parent column is empty: a split's parent labels the base events
    # its children label
    pair_tables = [build_tables(counts, split, a1, a2, relations=config.relations,
                                context_labels=config.context_labels, notes=notes)
                   for split in counts.split_pairs
                   for a1, a2 in itertools.combinations(split.children, 2)]
    return _Collected(description, counts.split_pairs, pair_tables, notes)


def _table_keys(tables: PairTables) -> Iterator[Iterator[tuple[int, int, int, int]]]:
    """(a1_pos, a1_neg, a2_pos, a2_neg) of each of a pair's tables, one
    iterator per relation."""
    n1, n2 = tables.n1, tables.n2
    for a1_pos, a2_pos in zip(tables.a1_pos, tables.a2_pos):
        yield zip(a1_pos, map(n1.__sub__, a1_pos), a2_pos, map(n2.__sub__, a2_pos))


def _p_values(collected: Iterable[_Collected]) -> dict[tuple[int, int, int, int], float]:
    """p of every distinct table of the candidates, one engine call for all."""
    keys: set[tuple[int, int, int, int]] = set()
    for c in collected:
        for tables in c.pair_tables:
            for relation_keys in _table_keys(tables):
                keys.update(relation_keys)
    return fisher_p_values(keys)


def _finish(collected: _Collected, config: EvaluationConfig,
            p_of: dict[tuple[int, int, int, int], float],
            family_m: int | None = None) -> EvaluationReport:
    """Test and score every table, reading each pair's count arrays and
    each table's p from ``p_of`` (``_p_values``)."""
    m = collected.m_tests
    threshold = config.correction.threshold(config.alpha, family_m if family_m else m)

    p_values = []
    all_significant = bool(collected.split_pairs)
    for tables in collected.pair_tables:
        ps = []
        for relation_keys in _table_keys(tables):
            ps.extend(map(p_of.__getitem__, relation_keys))
        p_values.append(ps)
        all_significant = all_significant and bool(ps) and min(ps) < threshold

    entropy = relative_information_gain(collected.pair_tables)
    useful = all_significant
    return EvaluationReport(
        candidate_description=collected.description,
        split_pairs=collected.split_pairs,
        tests=PairTests(collected.pair_tables, p_values, (threshold,) * len(p_values)),
        entropy=entropy,
        useful=useful,
        score=entropy.relative_information_gain if useful else 0.0,
        m_tests=m,
        corrected_alpha=threshold,
        alpha=config.alpha,
        notes=tuple(collected.notes),
    )


def evaluate(l1_log: EventLog, l2_log: EventLog,
             config: EvaluationConfig | None = None,
             description: str = "refined labeling") -> EvaluationReport:
    """Score one refined labeling against its base labeling.

    ``l2_log`` must be an equal-length refinement of ``l1_log`` over the
    observed traces (NotARefinementError otherwise).  Every refined child
    pair is tested against every context label on every configured ordering
    relation; the candidate is useful only if each pair is significant
    somewhere, and its score is then the relative information gain.
    """
    config = config or EvaluationConfig()
    counts = RefinementCounts.of(l1_log, l2_log, config.relations)
    collected = _tabulate(counts, config, description)
    return _finish(collected, config, _p_values([collected]))


def generate_median_time_candidates(
    log: EventLog,
    timezone: str = "UTC",
    skipped: list[str] | None = None,
) -> list[RelabelingFn]:
    """One time-threshold candidate per label, split at its median time of day.

    The threshold is the median of the label's occurrence times (lower of
    the two middle values for even counts); occurrences strictly below it go
    to the "_1" child, the rest to "_2".  If either child name already labels
    events in the log, the separator is doubled ("__1"/"__2", then "___1"
    ...) until both names are fresh, so a split never merges other events
    into a child.  Labels with fewer than two occurrences or a single
    distinct time of day are skipped and listed in ``skipped``.
    """
    tz = time_zone(timezone)
    interned = log.interned
    times_by_code: list[list] = [[] for _ in interned.labels]
    for row, times in zip(interned.rows, log.columns.times):
        for code, instant in zip(row, local(times, tz)):
            times_by_code[code].append(instant.time())

    candidates: list[RelabelingFn] = []
    for label, times in zip(interned.labels, map(sorted, times_by_code)):
        if len(times) < 2:
            _note_skip(skipped, f"{label}: fewer than 2 occurrences")
            continue
        if times[0] == times[-1]:
            _note_skip(skipped, f"{label}: all occurrences share one time of day")
            continue
        threshold = times[(len(times) - 1) // 2]
        below = sum(1 for t in times if t < threshold)
        if below < 2 or len(times) - below < 2:
            import logging  # imported on use: most runs log nothing
            logging.getLogger(__name__).warning(
                "median split of %s leaves a child with <2 occurrences; "
                "the tests will have little power", label)
        low, high = _fresh_children(label, interned.codes)
        candidates.append(TimeThreshold(label, threshold, low, high, timezone))
    return candidates


def _fresh_children(label: Label, codes: Container[tuple]) -> tuple[Label, Label]:
    """Child names "<label>_1"/"<label>_2", with the separator repeated until
    neither names a label of a log interned as ``codes``."""
    separator = "_"
    while True:
        low = Label(f"{label}{separator}1")
        high = Label(f"{label}{separator}2")
        if low.parts not in codes and high.parts not in codes:
            return low, high
        separator += "_"


def _note_skip(skipped: list[str] | None, message: str) -> None:
    import logging
    logging.getLogger(__name__).info("median-time candidate skipped: %s", message)
    if skipped is not None:
        skipped.append(message)


def rank_candidates(l1_log: EventLog, candidates: Iterable[RelabelingFn],
                    config: EvaluationConfig | None = None) -> list[EvaluationReport]:
    """Evaluate every candidate against the base log and sort by score.

    Sorting is score-descending with ties broken by candidate description.
    Under per_candidate_set correction the Bonferroni family spans all
    candidates' tests.

    Every candidate is tabulated from one ``RefinementCounts``.  Each time
    split that changes only its parent's label, however many share that
    parent, is counted with no refined log (``split_counts``): one count
    per relation and round, no parent twice in a round, and R rounds hold
    R sets of child rows while the reports are built.  Every other
    candidate is applied to the base log and counted as ``evaluate`` does,
    so it raises the same errors.
    """
    config = config or EvaluationConfig()
    candidates = list(candidates)
    collected = [
        _tabulate(counts or RefinementCounts.of(l1_log, fn.apply(l1_log), config.relations),
                  config, fn.description)
        for fn, counts in zip(candidates, split_counts(l1_log, candidates, config.relations))
    ]
    family_m = None
    if config.correction.family_scope == "per_candidate_set":
        family_m = sum(c.m_tests for c in collected)
    p_of = _p_values(collected)
    reports = [_finish(c, config, p_of, family_m) for c in collected]
    reports.sort(key=lambda r: (-r.score, r.candidate_description))
    return reports
