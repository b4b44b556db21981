"""Event ingestion: CSV parsing, a minimal XES subset, and trace partitioning.

CSV input is UTF-8 with a header row and RFC-4180 quoting.  XES support is
deliberately minimal: log/trace/event elements, the event name and timestamp,
and string attributes; everything else is skipped and counted as a warning.
"""

from __future__ import annotations

import csv
import functools
import io
import logging
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from datetime import datetime, timezone, tzinfo
from typing import Any, Iterable
from zoneinfo import ZoneInfo

from .model import Event, EventLog, Label, MissingAttributeError, Trace, _value_key

logger = logging.getLogger(__name__)

SYNTHESIZE = "synthesize"

XES_NAME_KEY = "concept:name"
XES_TIME_KEY = "time:timestamp"


class CsvFormatError(ValueError):
    """Malformed CSV input; the message carries the offending line number."""


class XesFormatError(ValueError):
    """Malformed or unsupported XES input."""


def parse_timestamp(text: str, fmt: str | None, tz: tzinfo) -> datetime:
    """Parse a timestamp string; naive results are localized to ``tz``.

    ``fmt`` is a strptime format, or None/"iso8601" for ISO-8601.  The
    result is in ``timezone.utc``; when it already is, or when ``tz`` is
    UTC, no zone conversion runs.
    """
    text = text.strip()
    try:
        if fmt is None or fmt == "iso8601":
            # Python 3.10 fromisoformat does not accept a trailing Z.
            parsed = datetime.fromisoformat(text.replace("Z", "+00:00"))
        else:
            parsed = datetime.strptime(text, fmt)
    except ValueError as exc:
        raise ValueError(f"unparseable timestamp {text!r}") from exc
    if parsed.tzinfo is None:
        if _is_utc(tz):
            # combine is several times cheaper than replace(tzinfo=...)
            return datetime.combine(parsed.date(), parsed.time(), timezone.utc)
        parsed = parsed.replace(tzinfo=tz)
    if parsed.tzinfo is timezone.utc:
        return parsed
    return parsed.astimezone(timezone.utc)


def _is_utc(tz: tzinfo) -> bool:
    return tz is timezone.utc or getattr(tz, "key", None) == "UTC"


def _time_zone(name: str) -> tzinfo:
    """The time zone called ``name``: ``timezone.utc`` for "UTC", which
    needs no conversion of UTC instants, else a ZoneInfo (which raises for
    unknown names)."""
    return timezone.utc if name == "UTC" else ZoneInfo(name)


@dataclass(frozen=True)
class CsvSchema:
    """Column layout of a CSV event file.

    ``id_column`` may be the sentinel "synthesize", in which case ids are the
    1-based data-row index.  ``timezone`` interprets naive timestamps; all
    timestamps are stored UTC.
    """

    timestamp_column: str
    attribute_columns: tuple[str, ...]
    id_column: str = SYNTHESIZE
    timestamp_format: str | None = None
    delimiter: str = ","
    timezone: str = "UTC"

    def __post_init__(self):
        if not self.timestamp_column:
            raise ValueError("timestamp_column is mandatory")
        if not self.attribute_columns:
            raise ValueError("attribute_columns must be non-empty")
        if len(self.delimiter) != 1:
            raise ValueError("delimiter must be a single character")
        object.__setattr__(self, "attribute_columns", tuple(self.attribute_columns))


@dataclass(frozen=True)
class PartitionKeySpec:
    """How events are grouped into traces.

    The key of an event is the tuple of its values for ``attribute_keys``,
    optionally extended with the calendar day (midnight to midnight in
    ``timezone``) of its timestamp.
    """

    attribute_keys: tuple[str, ...] = ()
    calendar_key: str = "none"  # "none" | "day"
    timezone: str = "UTC"

    def __post_init__(self):
        object.__setattr__(self, "attribute_keys", tuple(self.attribute_keys))
        if self.calendar_key not in ("none", "day"):
            raise ValueError(f"unsupported calendar_key {self.calendar_key!r}")
        if not self.attribute_keys and self.calendar_key == "none":
            raise ValueError("at least one of attribute_keys or calendar_key required")

    @functools.cached_property
    def _tz(self) -> tzinfo:
        return _time_zone(self.timezone)

    def key_of(self, event: Event) -> tuple:
        parts = [event.attribute(name) for name in self.attribute_keys]
        if self.calendar_key == "day":
            # event timestamps are UTC already
            tz = self._tz
            local = event.timestamp if tz is timezone.utc else event.timestamp.astimezone(tz)
            parts.append(local.date())
        return tuple(parts)


def _decode(data: bytes | str) -> str:
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"input is not valid UTF-8: {exc}") from exc


def _column_names(header_row: list[str]) -> list[str]:
    """Header cells as column names: surrounding whitespace is not part of
    a name."""
    return [cell.strip() for cell in header_row]


def csv_header(data: bytes | str, delimiter: str) -> list[str]:
    """Column names of the header row, unquoted as RFC-4180 says and
    stripped of surrounding whitespace; [] when the input is empty."""
    return _column_names(next(csv.reader(io.StringIO(_decode(data)), delimiter=delimiter), []))


def parse_csv(data: bytes | str, schema: CsvSchema,
              label_columns: Iterable[str] | None = None) -> list[Event]:
    """Parse CSV text into one Event per data row, labelled as it is built.

    Each event's label is its values of ``label_columns``, in that order,
    or of every attribute column (the default label) when None; each
    distinct value tuple gets one Label object, shared by its events.
    Header names are stripped of surrounding whitespace, as ``csv_header``
    does, before the schema's columns are looked up.  Synthesized ids are
    the 1-based data-row index.  Raises CsvFormatError on ragged rows,
    unparseable timestamps, or duplicate explicit ids, naming the line.  A
    label column that is not an attribute column raises
    MissingAttributeError for the first event, once every row has parsed.
    A header that names a column twice raises CsvFormatError: neither cell
    could be told from the other.
    """
    text = _decode(data)
    reader = csv.reader(io.StringIO(text), delimiter=schema.delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise CsvFormatError("empty input: missing header row")

    columns: dict[str, int] = {}
    for i, name in enumerate(_column_names(header)):
        if name in columns and name:
            raise CsvFormatError(
                f"line {reader.line_num}: header names column {name!r} twice")
        columns[name] = i
    needed = [schema.timestamp_column, *schema.attribute_columns]
    if schema.id_column != SYNTHESIZE:
        needed.append(schema.id_column)
    for name in needed:
        if name not in columns:
            raise CsvFormatError(f"header is missing column {name!r}")

    width = len(header)
    id_at = None if schema.id_column == SYNTHESIZE else columns[schema.id_column]
    timestamp_at = columns[schema.timestamp_column]
    attributes_at = [(name, columns[name]) for name in schema.attribute_columns]
    label_columns = schema.attribute_columns if label_columns is None else tuple(label_columns)
    missing = [name for name in label_columns if name not in schema.attribute_columns]
    label_at = [columns[name] for name in label_columns if name in schema.attribute_columns]
    labels: dict[tuple, Label] = {}
    fmt = schema.timestamp_format
    tz = _time_zone(schema.timezone)
    events: list[Event] = []
    seen_ids: set = set()
    for row_index, row in enumerate(reader, start=1):
        if not row:
            continue
        if len(row) != width:
            raise CsvFormatError(
                f"line {reader.line_num}: expected {width} fields, got {len(row)}"
            )
        if id_at is None:
            event_id: Any = row_index
        else:
            event_id = row[id_at]
            if event_id in seen_ids:
                raise CsvFormatError(f"line {reader.line_num}: duplicate event id {event_id!r}")
            seen_ids.add(event_id)
        try:
            ts = parse_timestamp(row[timestamp_at], fmt, tz)
        except ValueError as exc:
            raise CsvFormatError(f"line {reader.line_num}: {exc}") from exc
        values = tuple([row[i] for i in label_at])
        label = labels.get(values)
        if label is None:
            label = labels[values] = Label(values)
        events.append(Event(event_id, ts, tuple([(name, row[i]) for name, i in attributes_at]),
                            label))
    if missing and events:
        raise MissingAttributeError(missing[0], events[0].id)
    return events


def partition(events: Iterable[Event], key: PartitionKeySpec) -> EventLog:
    """Group events into traces of equal partition key.

    Traces are the maximal same-key groups, internally time-ordered; the
    case id is the key value (unwrapped when the key has one component).
    """
    groups: dict[tuple, list[Event]] = {}
    for event in events:
        groups.setdefault(key.key_of(event), []).append(event)
    traces = []
    for key_value in sorted(groups, key=lambda k: tuple(_value_key(v) for v in k)):
        case_id = key_value[0] if len(key_value) == 1 else key_value
        traces.append(Trace(case_id, groups[key_value]))
    return EventLog(traces)


def parse_xes_minimal(data: bytes | str, warnings: list[str] | None = None) -> EventLog:
    """Parse the minimal XES subset into an EventLog.

    Traces keep the file's grouping; each event's label is its name
    attribute.  String attributes are kept; other attribute kinds are
    skipped and reported via ``warnings`` (and the module logger).
    """
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise XesFormatError(f"malformed XML: {exc}") from exc
    if root.tag != "log":
        raise XesFormatError(f"expected <log> root element, got <{root.tag}>")

    skipped = 0
    traces = []
    next_id = 0
    for t_index, trace_el in enumerate(root.iter("trace"), start=1):
        case_id = f"trace-{t_index}"
        events = []
        for child in trace_el:
            if child.tag == "string" and child.get("key") == XES_NAME_KEY:
                case_id = child.get("value", case_id)
            elif child.tag != "event":
                skipped += 1
        for event_el in trace_el.iter("event"):
            next_id += 1
            name = None
            ts = None
            attrs: list[tuple[str, Any]] = []
            for attr_el in event_el:
                key = attr_el.get("key")
                value = attr_el.get("value")
                if attr_el.tag == "string" and key is not None:
                    attrs.append((key, value))
                    if key == XES_NAME_KEY:
                        name = value
                elif attr_el.tag == "date" and key == XES_TIME_KEY:
                    try:
                        ts = parse_timestamp(value or "", None, timezone.utc)
                    except ValueError as exc:
                        raise XesFormatError(f"event {next_id}: {exc}") from exc
                else:
                    skipped += 1
            if ts is None:
                raise XesFormatError(f"event {next_id} has no {XES_TIME_KEY}")
            if name is None:
                raise XesFormatError(f"event {next_id} has no {XES_NAME_KEY}")
            events.append(Event(next_id, ts, attrs, label=Label(name)))
        traces.append(Trace(case_id, events))
    if skipped:
        logger.warning("ignored %d unsupported XES attribute(s)", skipped)
        if warnings is not None:
            warnings.append(f"ignored {skipped} unsupported XES attribute(s)")
    return EventLog(traces)


_CSV_FIXED_COLUMNS = ("id", "timestamp", "case", "label")


def write_csv(log: EventLog) -> str:
    """Serialize a log to CSV: id, timestamp, case, one column per attribute
    name (union over events, in order of first appearance), and the label.

    Each column name appears once: the id, timestamp, case and label
    columns carry the event's id and timestamp, its trace's case id and its
    label, so an attribute of one of those names is not written again.
    """
    attr_names: list[str] = []
    for trace in log:
        for event in trace:
            for name, _ in event.attributes:
                if name not in attr_names and name not in _CSV_FIXED_COLUMNS:
                    attr_names.append(name)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["id", "timestamp", "case", *attr_names, "label"])
    for trace in log:
        case = render_case_id(trace.case_id)
        for event in trace:
            attr_map = dict(event.attributes)
            writer.writerow([
                event.id,
                event.timestamp.isoformat(),
                case,
                *[attr_map.get(name, "") for name in attr_names],
                str(event.label),
            ])
    return out.getvalue()


def write_xes_minimal(log: EventLog) -> str:
    """Serialize a log to the minimal XES subset read by parse_xes_minimal."""
    root = ET.Element("log")
    for trace in log:
        trace_el = ET.SubElement(root, "trace")
        ET.SubElement(trace_el, "string",
                      key=XES_NAME_KEY, value=render_case_id(trace.case_id))
        for event in trace:
            event_el = ET.SubElement(trace_el, "event")
            ET.SubElement(event_el, "string", key=XES_NAME_KEY, value=str(event.label))
            ET.SubElement(event_el, "date",
                          key=XES_TIME_KEY, value=event.timestamp.isoformat())
    ET.indent(root)
    return ET.tostring(root, encoding="unicode") + "\n"


def render_case_id(case_id: Any) -> str:
    if isinstance(case_id, tuple):
        return "|".join(str(part) for part in case_id)
    return str(case_id)
