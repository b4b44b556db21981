"""Core domain types for event logs.

An event is a timestamped record of named attribute values; traces group
events that share a case key, ordered by time; an event log is a multiset
of traces.  Every event carries a label (a tuple of attribute values,
defaulting to all of them) and the log's alphabet is the set of labels
occurring in it, recomputed from the traces on every access.

All three types are immutable.  ``Event(...)`` and ``Trace(...)`` normalise
and check whatever they are given, so each event is validated once, when it
is built; relabeling (``Trace.with_labels``) swaps labels on events that are
already valid, without re-sorting or re-checking them.  The one thing cached
is a log's interning (``EventLog.interned``): its labels as small ints,
computed on first use and shared by every count taken over the log.
"""

from __future__ import annotations

import functools
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from datetime import date, datetime, time, timezone
from typing import Any, NamedTuple


class MissingAttributeError(KeyError):
    """An operation referenced an attribute the event does not carry."""

    def __init__(self, attribute: str, event_id: Any):
        super().__init__(attribute)
        self.attribute = attribute
        self.event_id = event_id

    def __str__(self) -> str:
        return f"event {self.event_id!r} has no attribute {self.attribute!r}"


def _value_key(value: Any) -> tuple:
    """Total order over the attribute-value types we admit.

    Numbers compare numerically among themselves; other types compare within
    their own group.  Cross-type comparisons fall back to the group rank so
    that sorting never raises.
    """
    if isinstance(value, bool):
        return (0, float(value))
    if isinstance(value, (int, float)):
        return (0, float(value))
    if isinstance(value, str):
        return (1, value)
    if isinstance(value, time):
        return (2, value.isoformat())
    if isinstance(value, datetime):
        return (3, value.astimezone(timezone.utc).isoformat())
    if isinstance(value, date):
        return (4, value.isoformat())
    return (5, repr(value))


def _id_key(event_id: Any) -> tuple:
    """Sort key for event ids; digit strings order numerically."""
    if isinstance(event_id, int):
        return (0, event_id, "")
    text = str(event_id)
    if text.isdigit():
        return (0, int(text), text)
    return (1, 0, text)


@functools.total_ordering
class Label:
    """An event label: a tuple of attribute values compared componentwise.

    Labels are totally ordered so every iteration over alphabets and report
    rows is deterministic.
    """

    __slots__ = ("parts",)

    def __init__(self, *parts: Any):
        if len(parts) == 1 and isinstance(parts[0], tuple):
            parts = parts[0]
        _set_parts(self, tuple(parts))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Label is immutable")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Label) and self.parts == other.parts

    def __lt__(self, other: "Label") -> bool:
        if not isinstance(other, Label):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def __hash__(self) -> int:
        return hash(self.parts)

    def __reduce__(self):
        # rebuild through __init__: the default restores the slot through
        # __setattr__, which refuses
        return (Label, (self.parts,))

    def __repr__(self) -> str:
        return f"Label{self.parts!r}"

    def __str__(self) -> str:
        return "+".join(str(p) for p in self.parts)

    def sort_key(self) -> tuple:
        return tuple(_value_key(p) for p in self.parts)

    def json_parts(self) -> list:
        """Label components as JSON-friendly values."""
        out = []
        for p in self.parts:
            if isinstance(p, (datetime, date, time)):
                out.append(p.isoformat())
            else:
                out.append(p)
        return out


# An immutable class's own slots are set through their member descriptors,
# which skip its __setattr__ at about half the cost of object.__setattr__.
_set_parts = Label.parts.__set__


@dataclass(frozen=True, slots=True)
class Event:
    """A single timestamped observation.

    ``attributes`` is an ordered name -> value map (values are strings,
    numbers, or instants).  Timestamps are normalized to UTC on
    construction; naive inputs are taken as UTC.  The label defaults to the
    tuple of all attribute values and is replaced by relabeling functions.
    A tuple of attributes and a timestamp already in ``timezone.utc`` are
    kept as they are.
    """

    id: Any
    timestamp: datetime
    attributes: tuple[tuple[str, Any], ...]
    label: Label = None  # type: ignore[assignment]

    def __init__(
        self,
        id: Any,
        timestamp: datetime,
        attributes: Mapping[str, Any] | Iterable[tuple[str, Any]] = (),
        label: Label | None = None,
    ):
        _set_id(self, id)
        if not isinstance(timestamp, datetime):
            raise TypeError(f"event {id!r}: timestamp must be a datetime")
        if timestamp.tzinfo is not timezone.utc:
            if timestamp.tzinfo is None:
                timestamp = timestamp.replace(tzinfo=timezone.utc)
            timestamp = timestamp.astimezone(timezone.utc)
        _set_timestamp(self, timestamp)
        if type(attributes) is tuple:
            attrs = attributes
        elif isinstance(attributes, Mapping):
            attrs = tuple(attributes.items())
        else:
            attrs = tuple(attributes)
        _set_attributes(self, attrs)
        _set_label(self, Label(tuple([v for _, v in attrs])) if label is None else label)

    def attribute(self, name: str) -> Any:
        for key, value in self.attributes:
            if key == name:
                return value
        raise MissingAttributeError(name, self.id)

    def has_attribute(self, name: str) -> bool:
        return any(key == name for key, _ in self.attributes)

    def with_label(self, label: Label) -> "Event":
        """This event carrying ``label``.  Every other field is already
        normalised, so the copy skips ``__init__``."""
        event = object.__new__(Event)
        _set_id(event, self.id)
        _set_timestamp(event, self.timestamp)
        _set_attributes(event, self.attributes)
        _set_label(event, label)
        return event

    def sort_key(self) -> tuple:
        return (self.timestamp, _id_key(self.id))


_set_id = Event.id.__set__
_set_timestamp = Event.timestamp.__set__
_set_attributes = Event.attributes.__set__
_set_label = Event.label.__set__


def label_of(event: Event, projection: list[str] | tuple[str, ...]) -> Label:
    """Project an event onto the named attributes, in the given order.

    Raises MissingAttributeError naming the attribute and event id when a
    named attribute is absent.
    """
    return Label(tuple(event.attribute(name) for name in projection))


@dataclass(frozen=True, slots=True)
class Trace:
    """A time-ordered sequence of events sharing one case key.

    Events are sorted by (timestamp, id) on construction, so equal-timestamp
    runs have a fixed order and rebuilding a trace from its own events is
    the identity.
    """

    case_id: Any
    events: tuple[Event, ...]

    def __init__(self, case_id: Any, events: Iterable[Event]):
        object.__setattr__(self, "case_id", case_id)
        ordered = tuple(sorted(events, key=Event.sort_key))
        seen: set = set()
        for e in ordered:
            if e.id in seen:
                raise ValueError(f"duplicate event id {e.id!r} in trace {case_id!r}")
            seen.add(e.id)
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def labels(self) -> tuple[Label, ...]:
        return tuple(e.label for e in self.events)

    def with_labels(self, labels: Sequence[Label]) -> "Trace":
        """The same events, in the same order and with the same ids, carrying
        ``labels[i]`` at position i.

        Order and id uniqueness hold already, so nothing is re-sorted or
        re-checked.  Raises ValueError unless there is one label per event.
        """
        if len(labels) != len(self.events):
            raise ValueError(f"trace {self.case_id!r}: {len(labels)} labels "
                             f"for {len(self.events)} events")
        trace = object.__new__(Trace)
        object.__setattr__(trace, "case_id", self.case_id)
        object.__setattr__(trace, "events", tuple(map(Event.with_label, self.events, labels)))
        return trace


class InternedLog(NamedTuple):
    """A log's labels as small ints, in order of first occurrence.

    ``labels[code]`` is the Label of a code, ``codes`` maps a label's
    ``parts`` back to its code, ``rows`` holds one code row per trace and
    ``occurrences[code]`` counts the code's events.  Codes are keyed by
    ``Label.parts``, which is what label equality compares, so interning
    and code lookups call no Label method.
    """

    labels: tuple[Label, ...]
    codes: dict[tuple, int]
    rows: tuple[tuple[int, ...], ...]
    occurrences: tuple[int, ...]

    @classmethod
    def of(cls, traces: Iterable[Trace]) -> "InternedLog":
        codes: dict[tuple, int] = {}
        rows = tuple(tuple([codes.setdefault(e.label.parts, len(codes)) for e in trace.events])
                     for trace in traces)
        counts: Counter[int] = Counter()
        for row in rows:
            counts.update(row)
        return cls(tuple(Label(parts) for parts in codes), codes, rows,
                   tuple(counts[code] for code in range(len(codes))))


@dataclass(frozen=True)
class EventLog:
    """A finite multiset of traces.

    The alphabet is derived from the traces on every access.  The interning
    is computed once, on first use: the log is immutable, so it cannot go
    stale.
    """

    traces: tuple[Trace, ...] = field(default_factory=tuple)

    def __init__(self, traces: Iterable[Trace] = ()):
        object.__setattr__(self, "traces", tuple(traces))

    def __len__(self) -> int:
        return len(self.traces)

    def __iter__(self) -> Iterator[Trace]:
        return iter(self.traces)

    @property
    def event_count(self) -> int:
        return sum(len(t) for t in self.traces)

    @property
    def alphabet(self) -> tuple[Label, ...]:
        return log_alphabet(self)

    @functools.cached_property
    def interned(self) -> InternedLog:
        """The log's labels as small ints, shared by every count over it."""
        return InternedLog.of(self.traces)

    @functools.cached_property
    def events_by_label(self) -> dict[tuple, list[Event]]:
        """Each label's events in log order, keyed by ``Label.parts``: the
        k-th event of a label is its k-th occurrence, trace by trace."""
        index: dict[tuple, list[Event]] = {}
        for trace in self.traces:
            for event in trace.events:
                index.setdefault(event.label.parts, []).append(event)
        return index


def log_alphabet(log: EventLog) -> tuple[Label, ...]:
    """Distinct labels occurring in the log, in sorted (deterministic) order."""
    return tuple(sorted({e.label for t in log for e in t}))
