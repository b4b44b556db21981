"""Core domain types for event logs.

An event is a timestamped record of named attribute values; traces group
events that share a case key, ordered by time; an event log is a multiset
of traces.  Every event carries a label (a tuple of attribute values,
defaulting to all of them) and the log's alphabet is the set of labels
occurring in it.

An ``EventLog`` is held as columns.  Per log, its labels are interned rows
(``InternedLog``): one small int per event, trace by trace.  Per trace,
``LogColumns`` hold the event ids, the UTC timestamps and each attribute's
values; every labeling of one base log shares them, so relabeling a log
(``EventLog.relabeled``) builds one new code row per trace and nothing
else.  ``Trace`` and ``Event`` objects are built from the columns on the
first access to ``EventLog.traces`` (iterating the log does that) and
cached.  A log built from Trace objects keeps them and derives its columns
and label codes when it is built.

All these types are immutable.  ``Event(...)`` and ``Trace(...)`` normalise
and check whatever they are given, so each event is validated once, when it
is built; events built from columns, and relabeled ones
(``Trace.with_labels``), skip that because their fields are already valid.
"""

from __future__ import annotations

import functools
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from datetime import date, datetime, time, timezone, tzinfo
from itertools import chain, count, islice, repeat
from operator import itemgetter
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


class Record:
    """Base of the package's immutable records, whose fields are their
    class's ``__slots__``, in order.

    Records compare equal when they are of one class and their fields are
    equal, hash as the tuple of their fields, and refuse assignment and
    deletion.  A subclass's ``__init__`` checks and normalises its
    arguments and passes them to ``Record.__init__``; ``replace`` runs it
    again, and pickling and copying do not.
    """

    __slots__ = ()

    def __init__(self, *values: Any):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return _restore, (type(self), self._values())


def _restore(cls: type, values: tuple) -> Record:
    """A pickled or copied record, its fields set as they were."""
    record = object.__new__(cls)
    Record.__init__(record, *values)
    return record


def replace(record: Record, **changes: Any) -> Record:
    """A copy of ``record`` with the fields named in ``changes`` changed,
    built through its class's ``__init__``, which checks them again."""
    return type(record)(**dict(zip(record.__slots__, record._values()), **changes))


def as_names(value: str | Iterable[str]) -> tuple[str, ...]:
    """Attribute or column names as a tuple; a bare string is one name."""
    return (value,) if isinstance(value, str) else tuple(value)


def as_label(field: str, value: Any) -> Label:
    """``value``, a record's Label field ``field``; TypeError naming both
    unless it is a Label."""
    if not isinstance(value, Label):
        raise TypeError(f"{field} must be a Label, got {value!r}")
    return value


class Event(Record):
    """A single timestamped observation.

    ``attributes`` is an ordered name -> value map (values are strings,
    numbers, or instants).  Timestamps are normalized to UTC on
    construction; naive inputs are taken as UTC.  The label defaults to the
    tuple of all attribute values and is replaced by relabeling functions.
    A tuple of attributes and a timestamp already in ``timezone.utc`` are
    kept as they are.
    """

    __slots__ = ("id", "timestamp", "attributes", "label")

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

    def with_label(self, label: Label) -> "Event":
        """This event carrying ``label``.  Every other field is already
        normalised, so the copy skips ``__init__``."""
        return _event(self.id, self.timestamp, self.attributes, label)

    def sort_key(self) -> tuple:
        return (self.timestamp, _id_key(self.id))


_set_id = Event.id.__set__
_set_timestamp = Event.timestamp.__set__
_set_attributes = Event.attributes.__set__
_set_label = Event.label.__set__


def _event(id: Any, timestamp: datetime, attributes: tuple, label: Label) -> Event:
    """An Event of fields that are already normalised, built without
    ``__init__``."""
    event = object.__new__(Event)
    _set_id(event, id)
    _set_timestamp(event, timestamp)
    _set_attributes(event, attributes)
    _set_label(event, label)
    return event


class Trace(Record):
    """A time-ordered sequence of events sharing one case key.

    Events are sorted by (timestamp, id) on construction, so equal-timestamp
    runs have a fixed order and rebuilding a trace from its own events is
    the identity.
    """

    __slots__ = ("case_id", "events")

    def __init__(self, case_id: Any, events: Iterable[Event]):
        ordered = tuple(sorted(events, key=Event.sort_key))
        seen: set = set()
        for e in ordered:
            if e.id in seen:
                raise ValueError(f"duplicate event id {e.id!r} in trace {case_id!r}")
            seen.add(e.id)
        super().__init__(case_id, ordered)

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
        return _trace(self.case_id, tuple(map(Event.with_label, self.events, labels)))


def _trace(case_id: Any, events: tuple[Event, ...]) -> Trace:
    """A Trace of events already in order, with distinct ids."""
    return _restore(Trace, (case_id, events))


class InternedLog(NamedTuple):
    """A log's labels as small ints, numbered in label order (``of_keys``).

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
        return cls.of_parts([e.label.parts for e in trace.events] for trace in traces)

    @classmethod
    def of_parts(cls, rows: Iterable[Sequence[tuple]]) -> "InternedLog":
        """Intern labels given per trace as each event's ``Label.parts``."""
        rows = list(rows)
        return cls.of_keys(list(chain.from_iterable(rows)), map(len, rows))

    @classmethod
    def of_keys(cls, keys: Sequence, lengths: Iterable[int],
                one_part: bool = False) -> "InternedLog":
        """Intern labels given as each event's key, in log order, and each
        trace's length.  A key is the label's ``Label.parts``, or with
        ``one_part`` its only part, so no tuple is built per event.  Codes
        follow label order: the key ``Label.sort_key`` computes, then log order."""
        order = _value_key if one_part else lambda parts: tuple(map(_value_key, parts))
        codes = dict(zip(sorted(dict.fromkeys(keys), key=order), count()))
        flat = list(map(codes.__getitem__, keys))
        counts = Counter(flat)
        if one_part:
            codes = {(key,): code for key, code in codes.items()}
        events = iter(flat)
        return cls(tuple(map(Label, codes)), codes,
                   tuple(tuple(islice(events, n)) for n in lengths),
                   tuple(map(counts.__getitem__, range(len(codes)))))


class _Missing:
    """The value, in an attribute column, of an event without the attribute."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "MISSING"

    def __reduce__(self) -> str:
        return "MISSING"


MISSING = _Missing()


def attribute_columns(events: Sequence[Event]) -> tuple[dict[str, list], frozenset[str]]:
    """Each attribute's values over ``events`` (an event's first value of
    the name, ``MISSING`` when it has none), and the names some event
    lacks."""
    columns: dict[str, list] = {}
    for k, event in enumerate(events):
        for name, value in event.attributes:
            column = columns.get(name)
            if column is None:
                column = columns[name] = [MISSING] * len(events)
            if column[k] is MISSING:
                column[k] = value
    return columns, frozenset(name for name, column in columns.items() if MISSING in column)


class LogColumns(NamedTuple):
    """What every labeling of one log shares, trace by trace.

    ``ids[t][i]`` and ``times[t][i]`` are the id and UTC timestamp of event
    i of trace t, and ``attributes[name][t][i]`` is its value of ``name``,
    or ``MISSING``; ``partial`` names the attributes some event lacks.
    ``names`` are the attribute names each event is built with, in order.
    Columns read from Trace objects keep them in ``traces``: a relabeled
    log copies their events instead of building new ones.
    """

    case_ids: tuple
    ids: tuple[tuple, ...]
    times: tuple[tuple[datetime, ...], ...]
    attributes: dict[str, tuple[tuple, ...]]
    names: tuple[str, ...]
    partial: frozenset[str] = frozenset()
    traces: tuple[Trace, ...] | None = None

    @classmethod
    def of(cls, traces: Sequence[Trace]) -> "LogColumns":
        flat, partial = attribute_columns([e for trace in traces for e in trace.events])
        bounds, end = [], 0
        for trace in traces:
            bounds.append((end, end + len(trace.events)))
            end += len(trace.events)
        attributes = {name: tuple(tuple(column[a:b]) for a, b in bounds)
                      for name, column in flat.items()}
        return cls(tuple(t.case_id for t in traces),
                   tuple(tuple(e.id for e in t.events) for t in traces),
                   tuple(tuple(e.timestamp for e in t.events) for t in traces),
                   attributes, tuple(flat), partial, tuple(traces))

    def value_rows(self, names: Sequence[str]) -> list[list[tuple]]:
        """Per trace, each event's values of ``names`` as a tuple.

        Raises MissingAttributeError naming the first event, in log order,
        that lacks one of them, and the first of them it lacks.
        """
        columns = [self.attributes.get(name) for name in names]
        if None in columns or self.partial.intersection(names):
            for t, ids in enumerate(self.ids):
                for i, event_id in enumerate(ids):
                    for name, column in zip(names, columns):
                        if column is None or column[t][i] is MISSING:
                            raise MissingAttributeError(name, event_id)
            return [[] for _ in self.ids]  # no event at all
        if not columns:
            return [[()] * len(ids) for ids in self.ids]
        return [list(zip(*[column[t] for column in columns])) for t in range(len(self.ids))]


class EventLog:
    """A finite multiset of traces, held as ``columns`` and label codes
    (``interned``; see the module notes).

    ``EventLog(traces)`` keeps the Trace objects it is given and derives
    both from them; ``EventLog.of_rows`` and ``relabeled`` build logs from
    columns, whose traces are built on first access.  Logs compare equal
    when their traces do.
    """

    def __init__(self, traces: Iterable[Trace] = ()):
        traces = tuple(traces)
        vars(self).update(traces=traces, columns=LogColumns.of(traces),
                          interned=InternedLog.of(traces))

    @classmethod
    def _of(cls, columns: LogColumns, interned: InternedLog) -> "EventLog":
        log = object.__new__(cls)
        vars(log).update(columns=columns, interned=interned)
        return log

    @classmethod
    def of_rows(cls, traces: Iterable[tuple[Any, Sequence[int]]], ids: Sequence,
                times: Sequence[datetime], names: Sequence[str],
                values: Mapping[str, Sequence], label_names: Sequence[str]) -> "EventLog":
        """A log of rows given column by column.

        Row r has id ``ids[r]``, UTC timestamp ``times[r]`` and value
        ``values[name][r]`` of each attribute; ``names`` are the attribute
        names of every event, in order.  Each (case id, rows) of ``traces``
        is one trace of those rows, in that order, and each event is
        labelled by its values of ``label_names``.
        """
        case_ids, id_rows, time_rows = [], [], []
        gathered: dict[str, list[tuple]] = {name: [] for name in names}
        for case_id, rows in traces:
            # the items at ``rows`` as a tuple, also for one row; a range as one slice
            if isinstance(rows, range):
                take = lambda seq, at=slice(rows.start, rows.stop, rows.step): tuple(seq[at])
            else:
                take = itemgetter(*rows) if len(rows) > 1 else (lambda seq, r=rows[0]: (seq[r],))
            case_ids.append(case_id)
            id_rows.append(take(ids))
            time_rows.append(take(times))
            for name, column in gathered.items():
                column.append(take(values[name]))
        columns = LogColumns(tuple(case_ids), tuple(id_rows), tuple(time_rows),
                             {name: tuple(column) for name, column in gathered.items()},
                             tuple(names))
        if len(label_names) == 1 and label_names[0] in gathered:
            # a one-part label: its values are the keys, in log order
            return cls._of(columns, InternedLog.of_keys(
                list(chain.from_iterable(columns.attributes[label_names[0]])),
                map(len, id_rows), one_part=True))
        return cls._of(columns, InternedLog.of_parts(columns.value_rows(label_names)))

    def relabeled(self, label_rows: Iterable[Sequence[tuple]]) -> "EventLog":
        """This log's events carrying new labels: ``label_rows`` holds, per
        trace, each event's label as its ``Label.parts``.  The new log shares
        this one's columns."""
        return EventLog._of(self.columns, InternedLog.of_parts(label_rows))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("EventLog is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("EventLog is immutable")

    @functools.cached_property
    def traces(self) -> tuple[Trace, ...]:
        """The log's traces, built from its columns on first access."""
        columns, interned = self.columns, self.interned
        label = interned.labels.__getitem__
        if columns.traces is not None:
            return tuple(trace.with_labels(list(map(label, row)))
                         for trace, row in zip(columns.traces, interned.rows))
        values = [columns.attributes[name] for name in columns.names]
        traces = []
        for t, (case_id, ids, times, row) in enumerate(
                zip(columns.case_ids, columns.ids, columns.times, interned.rows)):
            pairs = [zip(repeat(name), column[t]) for name, column in zip(columns.names, values)]
            attributes = zip(*pairs) if pairs else repeat(())
            traces.append(_trace(case_id, tuple(map(_event, ids, times, attributes,
                                                    map(label, row)))))
        return tuple(traces)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventLog):
            return NotImplemented
        return self.traces == other.traces

    def __hash__(self) -> int:
        return hash(self.traces)

    def __repr__(self) -> str:
        return f"EventLog(traces={self.traces!r})"

    def __len__(self) -> int:
        return len(self.columns.case_ids)

    def __iter__(self) -> Iterator[Trace]:
        return iter(self.traces)

    @property
    def event_count(self) -> int:
        return sum(map(len, self.interned.rows))

    @property
    def alphabet(self) -> tuple[Label, ...]:
        """Distinct labels occurring in the log, in label order."""
        return self.interned.labels


def time_zone(name: str) -> tzinfo:
    """The time zone called ``name``: ``timezone.utc`` for "UTC", which
    needs no conversion of UTC instants, else a ZoneInfo.  The package's
    one reader of zone names: any other value raises ValueError."""
    if name == "UTC":
        return timezone.utc
    # imported on first use: importing zoneinfo reads the platform's
    # configuration, which a process that only sees UTC need not pay for
    from zoneinfo import ZoneInfo
    try:
        return ZoneInfo(name)
    except (KeyError, OSError, TypeError, ValueError):  # ZoneInfoNotFoundError is a KeyError
        raise ValueError(f"unknown time zone {name!r}") from None


def local(times: Iterable[datetime], tz: tzinfo) -> list[datetime]:
    """UTC instants as wall-clock times in ``tz``."""
    return list(times) if tz is timezone.utc else [t.astimezone(tz) for t in times]
