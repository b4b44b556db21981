"""Relabeling functions and refinement checks.

A relabeling function rewrites every event's label while preserving trace
shape (all built-in kinds are equal-length and each output label depends
only on the event itself, so prefixes are preserved).  It reads the log's
columns and label rows and gives a log that shares the columns and holds a
new label row per trace; no Event is built or copied.  Two labelings of the
same base log are paired position by position: the finer one refines the
coarser one when each refined label is seen under one coarse label only,
and the split set collects the refined-label groups that share a common
coarse label.  ``check_refinement`` reports the trace pairs that violate
the refinement implication on the observed traces and their prefixes.
"""

from __future__ import annotations

import functools
import re
from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass
from datetime import time, tzinfo
from itertools import islice
from typing import Any, Iterator, NamedTuple

from .model import MISSING, Event, EventLog, Label, label_of, local, time_zone


class RefinementError(ValueError):
    pass


class ShapeMismatchError(RefinementError):
    """The two logs do not come from the same base log."""


class NotARefinementError(RefinementError):
    """The finer labeling does not refine the coarser one on this log."""


class RuleError(ValueError):
    pass


class RelabelingFn(ABC):
    """Base class for label rewriters.

    Subclasses map a single event to its new label (``event_label``) and
    a whole log to its new labels (``label_rows``, read from the log's
    columns).  ``apply`` keeps ids, timestamps, attributes, and trace
    shape: each trace keeps its events in order and only swaps their
    labels.
    """

    description: str = ""

    @abstractmethod
    def event_label(self, event: Event) -> Label:
        ...

    @abstractmethod
    def label_rows(self, log: EventLog) -> list[list[tuple]]:
        """Per trace of ``log``, each event's new label as its
        ``Label.parts``: ``event_label`` of every event, in log order."""

    def apply(self, log: EventLog) -> EventLog:
        return log.relabeled(self.label_rows(log))


@dataclass(frozen=True)
class Projection(RelabelingFn):
    """Label each event by the values of the named attributes."""

    attribute_names: tuple[str, ...]

    def __init__(self, attribute_names):
        if isinstance(attribute_names, str):
            attribute_names = (attribute_names,)
        object.__setattr__(self, "attribute_names", tuple(attribute_names))

    @property
    def description(self) -> str:
        return "projection[" + ",".join(self.attribute_names) + "]"

    def event_label(self, event: Event) -> Label:
        return label_of(event, self.attribute_names)

    def label_rows(self, log: EventLog) -> list[list[tuple]]:
        return log.columns.value_rows(self.attribute_names)


@dataclass(frozen=True)
class TimeThreshold(RelabelingFn):
    """Split one label in two by local time of day.

    Events carrying ``base_label`` get ``low_label`` when their local time
    of day is strictly before the threshold and ``high_label`` at or after
    it; every other event keeps its label.
    """

    base_label: Label
    threshold: time
    low_label: Label
    high_label: Label
    timezone: str = "UTC"

    @property
    def description(self) -> str:
        return (f"time_threshold[{self.base_label}@"
                f"{self.threshold.isoformat(timespec='minutes')}"
                f"->{self.low_label}/{self.high_label}]")

    @functools.cached_property
    def _zone(self) -> tzinfo:
        return time_zone(self.timezone)

    def event_label(self, event: Event) -> Label:
        if event.label != self.base_label:
            return event.label
        if event.timestamp.astimezone(self._zone).time() < self.threshold:
            return self.low_label
        return self.high_label

    def _occurrences(self, log: EventLog) -> Iterator[tuple[list[int], list[bool]]]:
        """Per trace, the positions of ``base_label`` and whether each goes
        to ``low_label``."""
        code = log.interned.codes.get(self.base_label.parts)
        threshold = self.threshold
        for row, times in zip(log.interned.rows, log.columns.times):
            # count and index scan in C; a scan looks up every label this way
            at, i = [], -1
            for _ in range(row.count(code)):
                i = row.index(code, i + 1)
                at.append(i)
            yield at, [t.time() < threshold for t in local([times[i] for i in at], self._zone)]

    def label_rows(self, log: EventLog) -> list[list[tuple]]:
        interned = log.interned
        parts = [label.parts for label in interned.labels]
        children = (self.high_label.parts, self.low_label.parts)
        out = []
        for row, (at, low) in zip(interned.rows, self._occurrences(log)):
            keys = list(map(parts.__getitem__, row))
            for i, goes_low in zip(at, low):
                keys[i] = children[goes_low]
            out.append(keys)
        return out

    def occurrence_mask(self, log: EventLog) -> int:
        """The occurrences of ``base_label`` that go to ``low_label``, as a
        bitset: bit k is set when the label's k-th occurrence in ``log``
        (in log order, trace by trace) is before the threshold."""
        low = [bit for _, bits in self._occurrences(log) for bit in bits]
        # most significant bit first, so the last occurrence leads
        return int("0" + "".join(["1" if bit else "0" for bit in reversed(low)]), 2)


_RULE_RE = re.compile(r"^(?P<attr>.+?)\s*(?P<op>!=|>=|=|<)\s*(?P<value>.*?)\s*->\s*(?P<label>.+)$")
_DEFAULT_RE = re.compile(r"^default\s*->\s*(?P<label>.+)$")
_TIME_RE = re.compile(r"^(\d{1,2}):(\d{2})(?::(\d{2}))?$")


def parse_time_of_day(text: str) -> time:
    """Parse H:MM or HH:MM[:SS] into a time of day."""
    m = _TIME_RE.match(text.strip())
    if not m:
        raise ValueError(f"not a time of day: {text!r}")
    hour, minute, second = int(m.group(1)), int(m.group(2)), int(m.group(3) or 0)
    return time(hour, minute, second)


def _coerce_pair(event_value: Any, rule_value: str):
    """Coerce both sides of an ordered comparison to numbers or times."""
    if _TIME_RE.match(rule_value):
        try:
            return parse_time_of_day(str(event_value)), parse_time_of_day(rule_value)
        except ValueError:
            return None
    try:
        return float(event_value), float(rule_value)
    except (TypeError, ValueError):
        return None


@dataclass(frozen=True)
class Rule:
    attribute: str
    op: str  # "=", "!=", "<", ">="
    value: str
    label: Label

    def matches(self, event: Event) -> bool:
        return self.matches_value(next((value for name, value in event.attributes
                                        if name == self.attribute), MISSING))

    def matches_value(self, actual: Any) -> bool:
        """Whether an event whose value of the attribute is ``actual``
        (``MISSING`` when it has none) matches."""
        if actual is MISSING:
            return False
        if self.op == "=":
            return str(actual) == self.value
        if self.op == "!=":
            return str(actual) != self.value
        pair = _coerce_pair(actual, self.value)
        if pair is None:
            return False
        left, right = pair
        return left < right if self.op == "<" else left >= right


@dataclass(frozen=True)
class RuleBased(RelabelingFn):
    """First-match-wins relabeling from an ordered rule list.

    An event matching no rule is an error unless a default label is set.
    """

    rules: tuple[Rule, ...]
    default: Label | None = None
    name: str = "rules"

    @property
    def description(self) -> str:
        return f"rule_file[{self.name}]"

    def event_label(self, event: Event) -> Label:
        for rule in self.rules:
            if rule.matches(event):
                return rule.label
        if self.default is not None:
            return self.default
        raise RuleError(f"no rule matches event {event.id!r} and no default is set")

    def label_rows(self, log: EventLog) -> list[list[tuple]]:
        columns = [log.columns.attributes.get(rule.attribute) for rule in self.rules]
        out = []
        for t, ids in enumerate(log.columns.ids):
            keys = []
            for i, event_id in enumerate(ids):
                for rule, column in zip(self.rules, columns):
                    if column is not None and rule.matches_value(column[t][i]):
                        keys.append(rule.label.parts)
                        break
                else:
                    if self.default is None:
                        raise RuleError(f"no rule matches event {event_id!r} "
                                        f"and no default is set")
                    keys.append(self.default.parts)
            out.append(keys)
        return out

    @classmethod
    def from_text(cls, text: str, name: str = "rules") -> "RuleBased":
        """Parse the line-oriented rule format.

        Each line is ``ATTR <op> VALUE -> LABEL`` with op one of =, !=, <,
        >= (< and >= apply to numbers and HH:MM times); an optional final
        line ``default -> LABEL``.  Blank lines and #-comments are skipped.
        """
        rules: list[Rule] = []
        default: Label | None = None
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if default is not None:
                raise RuleError(f"line {line_no}: default must be the last rule")
            m = _DEFAULT_RE.match(line)
            if m:
                default = Label(m.group("label").strip())
                continue
            m = _RULE_RE.match(line)
            if not m:
                raise RuleError(f"line {line_no}: cannot parse rule {line!r}")
            rules.append(Rule(
                attribute=m.group("attr").strip(),
                op=m.group("op"),
                value=m.group("value"),
                label=Label(m.group("label").strip()),
            ))
        if not rules and default is None:
            raise RuleError("rule text contains no rules")
        return cls(tuple(rules), default, name)


@dataclass(frozen=True)
class Violation:
    """A pair of traces where equal refined sequences have unequal coarse ones."""

    case_a: Any
    case_b: Any
    position: int


@dataclass(frozen=True)
class RefinementCheck:
    is_equal_length_refinement: bool
    is_strict: bool
    violations: tuple[Violation, ...]


@dataclass(frozen=True)
class SplitPair:
    """A coarse label together with the refined labels observed under it."""

    parent: Label
    children: tuple[Label, ...]

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(sorted(self.children)))


def _observed(l1_log: EventLog, l2_log: EventLog
              ) -> tuple[dict[Label, dict[Label, int]], tuple[SplitPair, ...]]:
    """Pair the logs position by position: for each refined label, how often
    each coarse label co-occurs with it, and the split set read from that.
    ShapeMismatchError unless the logs share the base log."""
    if len(l1_log) != len(l2_log):
        raise ShapeMismatchError(
            f"trace counts differ: {len(l1_log)} vs {len(l2_log)}")
    columns1, columns2 = l1_log.columns, l2_log.columns
    if columns1 is not columns2:  # relabelings of one log share them
        for case_id, ids1, ids2 in zip(columns1.case_ids, columns1.ids, columns2.ids):
            if len(ids1) != len(ids2):
                raise ShapeMismatchError(
                    f"trace {case_id!r}: lengths differ ({len(ids1)} vs {len(ids2)})")
            if ids1 != ids2:
                id1, id2 = next((a, b) for a, b in zip(ids1, ids2) if a != b)
                raise ShapeMismatchError(
                    f"trace {case_id!r}: event ids differ ({id1!r} vs {id2!r})")
    coarse, refined = l1_log.interned, l2_log.interned
    seen: Counter[tuple[int, int]] = Counter()
    for codes1, codes2 in zip(coarse.rows, refined.rows):
        seen.update(zip(codes2, codes1))
    parents: dict[Label, dict[Label, int]] = {}
    children: dict[Label, list[Label]] = {}
    for (child, parent), n in seen.items():
        child_label, parent_label = refined.labels[child], coarse.labels[parent]
        parents.setdefault(child_label, {})[parent_label] = n
        children.setdefault(parent_label, []).append(child_label)
    split_pairs = tuple(SplitPair(parent, tuple(children[parent]))
                        for parent in sorted(children, key=Label.sort_key)
                        if len(children[parent]) >= 2)
    return parents, split_pairs


class _Pairing(NamedTuple):
    """Two labelings of one base log, paired position by position once: the
    pipeline's only refinement check.

    ``coarse`` maps each refined label to the one coarse label seen at all
    its positions, and ``split_pairs`` is the split set.  A refined label
    seen under two or more coarse labels merges them, so the refined
    labeling does not refine the coarse one.  That covers the prefix check
    of ``check_refinement``: traces that agree on refined labels up to
    position p but differ in the coarse label at p put one refined label
    over two coarse ones.
    """

    coarse: dict[Label, Label]
    split_pairs: tuple[SplitPair, ...]

    @classmethod
    def of(cls, l1_log: EventLog, l2_log: EventLog) -> "_Pairing":
        """Pair the logs; ShapeMismatchError unless they share the base log,
        NotARefinementError when a refined label merges coarse labels."""
        parents, split_pairs = _observed(l1_log, l2_log)
        merged = sorted(child for child, coarse in parents.items() if len(coarse) > 1)
        if merged:
            coarse = ", ".join(str(label) for label in sorted(parents[merged[0]]))
            raise NotARefinementError(
                f"refined labeling does not refine the base one: refined label "
                f"{merged[0]} is observed under several coarse labels ({coarse})")
        return cls({child: next(iter(seen)) for child, seen in parents.items()}, split_pairs)


def _violations(l1_log: EventLog, l2_log: EventLog) -> Iterator[Violation]:
    """The trace pairs that agree on refined labels up to some position but
    differ in the coarse label there, position by position."""
    rows = list(zip((t.case_id for t in l1_log), l1_log.interned.rows,
                    l2_log.interned.rows))
    seen_pairs: set[tuple[Any, Any]] = set()
    # Partition traces by refined-label prefix, position by position; within
    # a class the coarse labels at the next position must agree.
    classes: list[list[int]] = [list(range(len(rows)))]
    position = 0
    while classes:
        next_classes: list[list[int]] = []
        for members in classes:
            buckets: dict[int, list[int]] = {}
            for idx in members:
                codes2 = rows[idx][2]
                if position < len(codes2):
                    buckets.setdefault(codes2[position], []).append(idx)
            for bucket in buckets.values():
                first = bucket[0]
                for idx in bucket[1:]:
                    if rows[idx][1][position] != rows[first][1][position]:
                        key = (rows[first][0], rows[idx][0])
                        if key not in seen_pairs:
                            seen_pairs.add(key)
                            yield Violation(rows[first][0], rows[idx][0], position)
                if len(bucket) > 1:
                    next_classes.append(bucket)
        classes = next_classes
        position += 1


def check_refinement(l1_log: EventLog, l2_log: EventLog,
                     max_violations: int = 10) -> RefinementCheck:
    """Check that the labeling of ``l2_log`` refines that of ``l1_log``.

    Both logs must come from the same base log (same traces, matching event
    ids position-wise).  The refinement implication -- equal refined label
    sequences imply equal coarse ones -- is checked over the observed traces
    and all their prefixes (truncation commutes with equal-length
    prefix-preserving relabelings, so this stays sound and catches
    positionwise disagreements full-trace comparison would miss); at most
    ``max_violations`` violating trace pairs are reported.  Strictness
    means some coarse label is actually split, i.e. it co-occurs with two
    or more refined labels.

    The pipeline does not call this: ``evaluate`` rejects any refined label
    seen under two coarse labels, which every violation here implies.
    """
    _, split_pairs = _observed(l1_log, l2_log)
    found = _violations(l1_log, l2_log)
    violations = tuple(islice(found, max(max_violations, 0)))
    return RefinementCheck(
        is_equal_length_refinement=not violations and next(found, None) is None,
        is_strict=bool(split_pairs),
        violations=violations,
    )


def extract_split_set(l1_log: EventLog, l2_log: EventLog) -> list[SplitPair]:
    """Group refined labels by the coarse label at the same positions.

    Returns one SplitPair per coarse label that co-occurs with two or more
    refined labels, children sorted, parents in sorted order.
    """
    return list(_observed(l1_log, l2_log)[1])


def observed_parents(l1_log: EventLog, l2_log: EventLog) -> dict[Label, dict[Label, int]]:
    """For each refined label, how often each coarse label co-occurs with it."""
    return _observed(l1_log, l2_log)[0]
