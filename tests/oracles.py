"""Independent reference implementations used to cross-check the library.

Everything here recomputes results from first principles (exact rational
arithmetic, direct quantifier scans over label sequences, a plain
``csv.DictReader`` pass, event-by-event relabeling) and shares no code
with the package, except that ``naive_csv_log`` and ``naive_relabel`` hold
events in the package's ``Event`` type, and ``naive_relabel`` reads a
relabeling's public fields and raises the package's errors.
"""

from __future__ import annotations

import csv
import io
import math
import re
from datetime import datetime, timezone, tzinfo
from fractions import Fraction
from zoneinfo import ZoneInfo

from labelsplit import (Event, EventLog, Label, MissingAttributeError, Projection, RuleBased,
                        RuleError, TimeThreshold, Trace)

# Relative slack applied when comparing point probabilities, mirroring the
# two-sided definition under test but in exact arithmetic.
TIE_SLACK = Fraction(1, 10**7)


def fisher_two_sided_bruteforce(a1_pos: int, a1_neg: int,
                                a2_pos: int, a2_neg: int) -> float:
    """Two-sided Fisher p by exhaustive enumeration of the hypergeometric
    support, in exact rational arithmetic."""
    n1 = a1_pos + a1_neg
    n2 = a2_pos + a2_neg
    r = a1_pos + a2_pos
    total = n1 + n2
    if total == 0:
        return 1.0
    denominator = math.comb(total, r)

    def prob(x: int) -> Fraction:
        return Fraction(math.comb(n1, x) * math.comb(n2, r - x), denominator)

    observed = prob(a1_pos)
    cutoff = observed * (1 + TIE_SLACK)
    p = sum((prob(x) for x in range(max(0, r - n2), min(r, n1) + 1)
             if prob(x) <= cutoff), start=Fraction(0))
    return float(min(p, Fraction(1)))


def naive_count(label_rows: list[list[str]], relation: str, b: str, c: str) -> tuple[int, int]:
    """(pos, neg) for one ordering relation via direct quantifier scans."""
    pos = neg = 0
    for labels in label_rows:
        n = len(labels)
        for i in range(n):
            if labels[i] != b:
                continue
            if relation == "directly_precedes":
                hit = i + 1 < n and labels[i + 1] == c
            elif relation == "directly_follows":
                hit = i - 1 >= 0 and labels[i - 1] == c
            elif relation == "eventually_precedes":
                hit = any(labels[j] == c for j in range(i + 1, n))
            elif relation == "eventually_follows":
                hit = any(labels[j] == c for j in range(0, i))
            elif relation == "length_two_loop":
                hit = (b != c and i + 2 < n
                       and labels[i + 1] == c and labels[i + 2] == b)
            else:
                raise ValueError(relation)
            if hit:
                pos += 1
            else:
                neg += 1
    return pos, neg


def prefix_violations(base: list[list[str]], refined: list[list[str]]
                      ) -> list[tuple[int, int, int]]:
    """The refinement implication over all prefixes, pair by pair: for
    every pair of traces i < j, the first position p where their refined
    labels agree at 0..p but their coarse labels differ at p, as (i, j, p)."""
    out = []
    for i in range(len(refined)):
        for j in range(i + 1, len(refined)):
            for p in range(min(len(refined[i]), len(refined[j]))):
                if refined[i][p] != refined[j][p]:
                    break
                if base[i][p] != base[j][p]:
                    out.append((i, j, p))
                    break
    return out


def entropy_bits(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def naive_rig(l1_rows: list[list[str]], l2_rows: list[list[str]],
              parent: str, a1: str, a2: str, relations: list[str],
              contexts: list[str]) -> float:
    """Relative information gain recomputed from raw label sequences."""
    total_before = 0.0
    total_after = 0.0
    for relation in relations:
        for ctx in contexts:
            p_pos, p_neg = naive_count(l1_rows, relation, parent, ctx)
            c1_pos, c1_neg = naive_count(l2_rows, relation, a1, ctx)
            c2_pos, c2_neg = naive_count(l2_rows, relation, a2, ctx)
            p_total = p_pos + p_neg
            if p_total == 0:
                continue
            total_before += entropy_bits(p_pos / p_total)
            for pos, neg in ((c1_pos, c1_neg), (c2_pos, c2_neg)):
                if pos + neg:
                    total_after += (pos + neg) / p_total * entropy_bits(pos / (pos + neg))
    if total_before == 0.0:
        return 0.0
    return (total_before - total_after) / total_before


def _naive_id_key(event_id) -> tuple:
    if isinstance(event_id, int):
        return (0, event_id, "")
    if event_id.isdigit():
        return (0, int(event_id), event_id)
    return (1, 0, event_id)


def naive_csv_log(text: str, label_columns: list[str], case_key: list[str],
                  calendar_day: bool, tz_name: str = "UTC") -> list[tuple]:
    """The CLI's reading of a CSV file with its default schema, row by row.

    The header names an optional ``id`` column, a ``timestamp`` column and
    the attribute columns (all others); cells carry no embedded newlines.
    Naive timestamps are wall-clock times in ``tz_name``.  Rows are grouped
    by their ``case_key`` values plus, with ``calendar_day``, their local
    date; with neither, by a ``case`` column if there is one, else into one
    trace "all".  Returns (case id, events) per trace, traces in key order
    and events by (timestamp, id), the key unwrapped when it has one part.
    """
    zone = ZoneInfo(tz_name)
    reader = csv.DictReader(io.StringIO(text))
    reader.fieldnames = [name.strip() for name in reader.fieldnames]
    attributes = [name for name in reader.fieldnames if name not in ("id", "timestamp") and name]
    rows = []
    for record in reader:
        # without embedded newlines, a row's index among all rows (blank
        # ones too) is its line number minus the header's
        event_id = record["id"] if "id" in reader.fieldnames else reader.line_num - 1
        stamp = datetime.fromisoformat(record["timestamp"].strip().replace("Z", "+00:00"))
        if stamp.tzinfo is None:
            stamp = stamp.replace(tzinfo=zone)
        stamp = stamp.astimezone(timezone.utc)
        rows.append(Event(event_id, stamp, [(name, record[name]) for name in attributes],
                          Label(tuple(record[name] for name in label_columns))))
    if not case_key and not calendar_day:
        case_key = ["case"] if "case" in attributes else []
        if not case_key:
            return [("all", sorted(rows, key=lambda e: (e.timestamp, _naive_id_key(e.id))))] \
                if rows else []
    groups: dict[tuple, list] = {}
    for event in rows:
        groups.setdefault(naive_case_key(event, case_key, calendar_day, zone), []).append(event)
    return [(key[0] if len(key) == 1 else key,
             sorted(groups[key], key=lambda e: (e.timestamp, _naive_id_key(e.id))))
            for key in sorted(groups)]


def naive_case_key(event: Event, case_key: list[str], calendar_day: bool,
                   zone: tzinfo) -> tuple:
    """The trace key of ``event``: its values of ``case_key`` and, with
    ``calendar_day``, the date of its timestamp in ``zone``."""
    key = tuple(dict(event.attributes)[name] for name in case_key)
    if calendar_day:
        key += (event.timestamp.astimezone(zone).date(),)
    return key


def _naive_time_of_day(text: str) -> tuple[int, int, int] | None:
    """H:MM or HH:MM[:SS] as (hour, minute, second), or None."""
    m = re.fullmatch(r"(\d{1,2}):(\d{2})(?::(\d{2}))?", text)
    if m is None:
        return None
    hour, minute, second = (int(group or 0) for group in m.groups())
    return (hour, minute, second) if hour < 24 and minute < 60 and second < 60 else None


def _naive_rule_matches(rule, event: Event) -> bool:
    """Whether the first value ``event`` has of the rule's attribute
    satisfies it: = and != compare text; < and >= compare times of day when
    the rule's value is one, numbers otherwise, and fail when either side
    is neither."""
    values = [value for name, value in event.attributes if name == rule.attribute]
    if not values:
        return False
    actual = str(values[0])
    if rule.op == "=":
        return actual == rule.value
    if rule.op == "!=":
        return actual != rule.value
    if _naive_time_of_day(rule.value) is not None:
        left, right = _naive_time_of_day(actual.strip()), _naive_time_of_day(rule.value)
    else:
        try:
            left, right = float(actual), float(rule.value)
        except ValueError:
            return False
    if left is None:
        return False
    return left < right if rule.op == "<" else left >= right


def naive_relabel(fn, log: EventLog) -> EventLog:
    """``log`` relabelled event by event, from the public fields of ``fn``,
    a ``Projection``, ``TimeThreshold`` or ``RuleBased``.

    A projection labels an event by its values of ``attribute_names``; a
    time threshold gives each event labelled ``base_label`` the low label
    when its local time of day is before the threshold, else the high one;
    a rule list gives the label of the first rule the event matches, else
    the default.  Events are relabelled in log order, so the error raised
    is the first event's: MissingAttributeError for its first missing
    projected attribute, or RuleError when no rule matches and no default
    is set.
    """
    def label(event: Event) -> Label:
        if isinstance(fn, Projection):
            first: dict = {}
            for name, value in event.attributes:
                first.setdefault(name, value)
            missing = [name for name in fn.attribute_names if name not in first]
            if missing:
                raise MissingAttributeError(missing[0], event.id)
            return Label(tuple(first[name] for name in fn.attribute_names))
        if isinstance(fn, TimeThreshold):
            if event.label != fn.base_label:
                return event.label
            local = event.timestamp.astimezone(ZoneInfo(fn.timezone)).time()
            return fn.low_label if local < fn.threshold else fn.high_label
        assert isinstance(fn, RuleBased)
        rule = next((rule for rule in fn.rules if _naive_rule_matches(rule, event)), None)
        if rule is not None:
            return rule.label
        if fn.default is None:
            raise RuleError(f"no rule matches event {event.id!r} and no default is set")
        return fn.default

    return EventLog(Trace(trace.case_id, [Event(e.id, e.timestamp, e.attributes, label(e))
                                          for e in trace])
                    for trace in log)


def naive_csv_error(text: str) -> str | None:
    """The first row error of a CSV file with a ``timestamp`` column and an
    optional ``id`` column, as "line N: ...", or None; rows are checked one
    by one, in order: field count, then repeated id, then timestamp.  Text
    that a strict ``csv.reader`` refuses (a quote open at the end, text
    after a closing quote, a field over ``csv.field_size_limit()``) is an
    error of the line the reader stopped on."""
    reader = csv.reader(io.StringIO(text), strict=True)
    try:
        header = [name.strip() for name in next(reader)]
        seen = set()
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                return f"line {reader.line_num}: expected {len(header)} fields, got {len(row)}"
            record = dict(zip(header, row))
            if "id" in record:
                if record["id"] in seen:
                    return f"line {reader.line_num}: duplicate event id {record['id']!r}"
                seen.add(record["id"])
            stamp = record["timestamp"].strip()
            try:
                datetime.fromisoformat(stamp.replace("Z", "+00:00"))
            except ValueError:
                return f"line {reader.line_num}: unparseable timestamp {stamp!r}"
    except csv.Error as exc:
        return f"line {reader.line_num}: {exc}"
    return None
