"""Relabeling functions and the refinement check.

A relabeling function rewrites every event's label while keeping trace
shape: each trace keeps its events in order and only swaps their labels.
It reads the log's columns and label rows and gives a log that shares the
columns and holds a new label row per trace; no Event is built or copied.

Two labelings of one base log are paired position by position, once
(``Pairing.of``).  The finer labeling refines the coarser one when each
refined label is seen under one coarse label only, so the child columns of
a split add up to the parent's.  The pairing also yields the split set:
each coarse label seen with two or more refined labels, and those labels.  ``evaluate``,
``RefinementCounts.of`` and ``check_refinement`` all read it.
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod
from collections import Counter
from collections.abc import Callable, Sequence
from datetime import time
from itertools import compress
from typing import Any, NamedTuple

from .model import MISSING, EventLog, Label, Record, as_label, as_names, local, time_zone


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

    Subclasses map a whole log to its new labels (``label_rows``, read
    from the log's columns).  ``apply`` keeps ids, timestamps, attributes,
    and trace shape: each trace keeps its events in order and only swaps
    their labels.
    """

    __slots__ = ()
    description: str = ""

    @abstractmethod
    def label_rows(self, log: EventLog) -> list[list[tuple]]:
        """Per trace of ``log``, each event's new label as its
        ``Label.parts``, in log order."""

    def apply(self, log: EventLog) -> EventLog:
        return log.relabeled(self.label_rows(log))


class Projection(RelabelingFn, Record):
    """Label each event by the values of the named attributes."""

    __slots__ = ("attribute_names",)

    def __init__(self, attribute_names: str | Sequence[str]):
        super().__init__(as_names(attribute_names))

    @property
    def description(self) -> str:
        return "projection[" + ",".join(self.attribute_names) + "]"

    def label_rows(self, log: EventLog) -> list[list[tuple]]:
        return log.columns.value_rows(self.attribute_names)


class TimeThreshold(RelabelingFn, Record):
    """Split one label in two by local time of day.

    Events carrying ``base_label`` get ``low_label`` when their local time
    of day is strictly before the threshold and ``high_label`` at or after
    it; every other event keeps its label.  The three labels must be
    Labels and ``timezone`` must name a zone (``model.time_zone``).
    """

    __slots__ = ("base_label", "threshold", "low_label", "high_label", "timezone")

    def __init__(self, base_label: Label, threshold: time, low_label: Label,
                 high_label: Label, timezone: str = "UTC"):
        time_zone(timezone)
        super().__init__(as_label("base_label", base_label), threshold,
                         as_label("low_label", low_label), as_label("high_label", high_label),
                         timezone)

    @property
    def description(self) -> str:
        return (f"time_threshold[{self.base_label}@"
                f"{self.threshold.isoformat(timespec='minutes')}"
                f"->{self.low_label}/{self.high_label}]")

    def label_rows(self, log: EventLog) -> list[list[tuple]]:
        parts = [label.parts for label in log.interned.labels]
        parts += (self.low_label.parts, self.high_label.parts)
        return [list(map(parts.__getitem__, row)) for row in time_split_rows(log, [self])]


def time_split_rows(log: EventLog, splits: Sequence[TimeThreshold]) -> list[list[int]]:
    """Per trace of ``log``, its label codes with each occurrence of split
    k's base label recoded as the child it goes to: size + 2k for the low
    child, size + 2k + 1 for the high one, where size is the log's alphabet
    size.

    The splits' base labels must be distinct; one that labels no event
    recodes nothing.  Each trace's times are converted once per time zone
    of the splits.
    """
    interned = log.interned
    size = len(interned.labels)
    # per time zone name: parent code -> (threshold, low child's code)
    zones: dict[str, dict[int, tuple[time, int]]] = {}
    for k, fn in enumerate(splits):
        code = interned.codes.get(fn.base_label.parts)
        if code is not None:
            zones.setdefault(fn.timezone, {})[code] = (fn.threshold, size + 2 * k)
    by_zone = [(time_zone(name), split) for name, split in zones.items()]
    out = []
    for row, times in zip(interned.rows, log.columns.times):
        row = list(row)
        for zone, split in by_zone:
            at = list(compress(range(len(row)), map(split.__contains__, row)))
            for i, instant in zip(at, local([times[i] for i in at], zone)):
                threshold, low = split[row[i]]
                row[i] = low if instant.time() < threshold else low + 1
        out.append(row)
    return out


_RULE_RE = re.compile(r"^(?P<attr>.+?)\s*(?P<op>!=|>=|=|<)\s*(?P<value>.*?)\s*->\s*(?P<label>.+)$")
_DEFAULT_RE = re.compile(r"^default\s*->\s*(?P<label>.+)$")
_TIME_RE = re.compile(r"^(\d{1,2}):(\d{2})(?::(\d{2}))?$")


def parse_time_of_day(text: str) -> time:
    """Parse H:MM or HH:MM[:SS] into a time of day, or ValueError naming ``text``."""
    m = _TIME_RE.match(text.strip())
    try:
        return time(int(m[1]), int(m[2]), int(m[3] or 0))  # type: ignore[index]
    except (TypeError, ValueError):  # no match (None[1]), or a field out of range
        raise ValueError(f"not a time of day: {text!r}") from None


def _ordered(text: str) -> time | float:
    """An ordered rule's value: a time of day when it looks like one, else
    a number; ValueError naming ``text`` when it is neither."""
    if _TIME_RE.match(text):
        return parse_time_of_day(text)
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"not a time of day or a number: {text!r}") from None


class Rule(Record):
    __slots__ = ("attribute", "op", "value", "label")  # op: "=", "!=", "<" or ">="

    def __init__(self, attribute: str, op: str, value: str, label: Label):
        if op in ("<", ">="):
            _ordered(value)  # a time of day or a number, read once here
        super().__init__(attribute, op, value, as_label("label", label))

    def matches_value(self, actual: Any) -> bool:
        """Whether an event whose value of the attribute is ``actual``
        (``MISSING`` when it has none) matches."""
        return self._matcher()(actual)

    def _matcher(self) -> Callable[[Any], bool]:
        """``matches_value``, with the rule's value read once here."""
        if self.op in ("=", "!="):
            value, equal = self.value, self.op == "="
            return lambda actual: actual is not MISSING and (str(actual) == value) is equal
        right, below = _ordered(self.value), self.op == "<"

        def matches(actual: Any) -> bool:
            try:
                left = parse_time_of_day(str(actual)) if isinstance(right, time) else float(actual)
            except (TypeError, ValueError):  # MISSING among them
                return False
            return left < right if below else left >= right
        return matches


class RuleBased(RelabelingFn, Record):
    """First-match-wins relabeling from an ordered rule list.

    An event matching no rule is an error unless a default label is set.
    """

    __slots__ = ("rules", "default", "name")

    def __init__(self, rules: tuple[Rule, ...], default: Label | None = None,
                 name: str = "rules"):
        super().__init__(rules, None if default is None else as_label("default", default), name)

    @property
    def description(self) -> str:
        return f"rule_file[{self.name}]"

    def label_rows(self, log: EventLog) -> list[list[tuple]]:
        tests = [(rule._matcher(), column, rule.label.parts) for rule in self.rules
                 if (column := log.columns.attributes.get(rule.attribute)) is not None]
        out = []
        for t, ids in enumerate(log.columns.ids):
            keys = []
            for i, event_id in enumerate(ids):
                for matches, column, parts in tests:
                    if matches(column[t][i]):
                        keys.append(parts)
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
            try:
                rules.append(Rule(m.group("attr").strip(), m.group("op"), m.group("value"),
                                  Label(m.group("label").strip())))
            except ValueError as exc:
                raise RuleError(f"line {line_no}: {exc}") from None
        if not rules and default is None:
            raise RuleError("rule text contains no rules")
        return cls(tuple(rules), default, name)


class RefinementCheck(Record):
    __slots__ = ("is_equal_length_refinement", "is_strict", "violations")

    def __init__(self, is_equal_length_refinement: bool, is_strict: bool,
                 violations: tuple[Label, ...]):
        super().__init__(is_equal_length_refinement, is_strict, violations)


class SplitPair(Record):
    """A coarse label together with the refined labels observed under it."""

    __slots__ = ("parent", "children")

    def __init__(self, parent: Label, children: Sequence[Label]):
        super().__init__(parent, tuple(sorted(children)))


class Pairing(NamedTuple):
    """Two labelings of one base log, paired position by position once: the
    package's one refinement check.

    ``parents`` holds, for each refined label, how often each coarse label
    co-occurs with it; ``split_pairs`` is the split set; ``merged`` lists
    the refined labels seen under two or more coarse labels, which merge
    coarse labels, so the refined labeling does not refine the coarse one.
    All list labels in label order, the order of both logs' codes.
    """

    parents: dict[Label, dict[Label, int]]
    split_pairs: tuple[SplitPair, ...]
    merged: tuple[Label, ...]

    @classmethod
    def of(cls, l1_log: EventLog, l2_log: EventLog) -> "Pairing":
        """Pair the logs in one pass over their events; ShapeMismatchError
        unless they share the base log."""
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
        children: list[list[Label]] = [[] for _ in coarse.labels]
        for (child, parent), n in sorted(seen.items()):  # codes follow label order
            child_label = refined.labels[child]
            parents.setdefault(child_label, {})[coarse.labels[parent]] = n
            children[parent].append(child_label)
        split_pairs = tuple(SplitPair(parent, tuple(under))
                            for parent, under in zip(coarse.labels, children) if len(under) >= 2)
        merged = tuple(child for child, under in parents.items() if len(under) > 1)
        return cls(parents, split_pairs, merged)

    def coarse(self) -> dict[Label, Label]:
        """Each refined label's one coarse label; NotARefinementError when a
        refined label merges coarse labels."""
        if self.merged:
            coarse = ", ".join(map(str, self.parents[self.merged[0]]))
            raise NotARefinementError(
                f"refined labeling does not refine the base one: refined label "
                f"{self.merged[0]} is observed under several coarse labels ({coarse})")
        return {child: next(iter(seen)) for child, seen in self.parents.items()}


def check_refinement(l1_log: EventLog, l2_log: EventLog) -> RefinementCheck:
    """Check that the labeling of ``l2_log`` refines that of ``l1_log``.

    Both logs must come from the same base log (same traces, matching event
    ids position-wise).  The refinement holds when no refined label is seen
    under two coarse labels; ``violations`` lists, sorted, the refined
    labels that are.  Strictness means some coarse label is actually split,
    i.e. it co-occurs with two or more refined labels.
    """
    pairing = Pairing.of(l1_log, l2_log)
    return RefinementCheck(
        is_equal_length_refinement=not pairing.merged,
        is_strict=bool(pairing.split_pairs),
        violations=pairing.merged,
    )


def extract_split_set(l1_log: EventLog, l2_log: EventLog) -> list[SplitPair]:
    """Group refined labels by the coarse label at the same positions.

    Returns one SplitPair per coarse label that co-occurs with two or more
    refined labels, children sorted, parents in sorted order.
    """
    return list(Pairing.of(l1_log, l2_log).split_pairs)


def observed_parents(l1_log: EventLog, l2_log: EventLog) -> dict[Label, dict[Label, int]]:
    """For each refined label, how often each coarse label co-occurs with it."""
    return Pairing.of(l1_log, l2_log).parents
