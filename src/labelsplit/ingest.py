"""Event ingestion: CSV parsing, a minimal XES subset, and trace partitioning.

CSV input is UTF-8 with a header row and RFC-4180 quoting.  ``read_csv``
reads it into columns (ids, UTC timestamps and each attribute column's
values, row by row) and makes every check: blocks of quote-free lines are
split in bulk, and a file with any other block is read by csv.reader, with
the same result.  ``CsvColumns.log`` groups and
orders the rows into a columnar EventLog without building an Event, and
``CsvColumns.events`` builds one Event per row, which is what ``parse_csv``
returns.  ``partition`` groups Event objects by the same rules.  XES support
is deliberately minimal: log/trace/event elements, the event name and
timestamp, and string attributes; everything else is skipped and counted as
a warning.
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_right
from datetime import datetime, timedelta, timezone, tzinfo
from functools import reduce
from itertools import accumulate, chain, compress, groupby, islice, repeat
from operator import attrgetter, eq, ge, itemgetter, methodcaller, ne, or_, sub
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .model import (MISSING, Event, EventLog, Label, MissingAttributeError, Record, Trace,
                    _id_key, _value_key, as_names, attribute_columns, local, time_zone)

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
    return _to_utc(parsed, tz)


def _to_utc(parsed: datetime, tz: tzinfo) -> datetime:
    """A parsed timestamp in ``timezone.utc``, naive ones taken in ``tz``."""
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


def _utc_times(texts: Sequence[str], fmt: str | None, tz: tzinfo) -> list[datetime]:
    """``parse_timestamp`` of every text, each step mapped over all texts
    at once; a ValueError when any text does not parse."""
    iso = fmt is None or fmt == "iso8601"
    if iso and "Z" not in "".join(texts):
        # naive ISO texts, the common case: parsed as they are, in one
        # pass.  With no Z (which fromisoformat also takes for the
        # date-time separator) and every result naive, this is what
        # stripping and parsing each text gives.  Parsing text + "+00:00"
        # is not: fromisoformat reads "2024-01-01+00:00" as naive and
        # accepts malformed times before an offset, as in "00:00:+00:00"
        try:
            parsed = list(map(datetime.fromisoformat, texts))
        except ValueError:
            parsed = None
        if parsed is not None and not any(map(attrgetter("tzinfo"), parsed)):
            return _naive_to_utc(parsed, tz)
    stripped = map(str.strip, texts)
    if iso:
        parsed = list(map(datetime.fromisoformat,
                          map(methodcaller("replace", "Z", "+00:00"), stripped)))
    else:
        parsed = list(map(datetime.strptime, stripped, repeat(fmt)))
    zones = set(map(attrgetter("tzinfo"), parsed))
    if zones == {None}:
        return _naive_to_utc(parsed, tz)
    if zones == {timezone.utc}:
        return parsed
    return [_to_utc(p, tz) for p in parsed]


def _in_utc(naive: list[datetime]) -> list[datetime]:
    """The naive datetimes as the same wall-clock times in UTC."""
    return list(map(datetime.combine, map(datetime.date, naive), map(datetime.time, naive),
                    repeat(timezone.utc)))


def _naive_to_utc(naive: list[datetime], tz: tzinfo) -> list[datetime]:
    """``_to_utc`` of each naive datetime, with one zone lookup per distinct
    local hour rather than per datetime.

    A time in an hour whose offset is the same at its first and last
    microsecond is shifted by that offset.  A time in an hour where the
    zone's offset changes is converted by ``_to_utc``.
    """
    if _is_utc(tz):
        return _in_utc(naive)
    offsets = list(map(_HourOffsets(tz).__getitem__,
                       map(attrgetter("year", "month", "day", "hour"), naive)))
    if None not in offsets:
        return _in_utc(list(map(sub, naive, offsets)))
    return [_to_utc(p, tz) if offset is None else (p - offset).replace(tzinfo=timezone.utc)
            for p, offset in zip(naive, offsets)]


class _HourOffsets(dict):
    """The UTC offset of ``tz`` in each local hour, keyed by (year, month,
    day, hour), or None where it changes within the hour.  Offsets are read
    as ``_to_utc`` reads them: a naive time taken in ``tz`` with fold 0, so
    an ambiguous time is the first of the two and a nonexistent one keeps
    the offset from before the gap."""

    def __init__(self, tz: tzinfo):
        super().__init__()
        self.tz = tz

    def __missing__(self, key: tuple[int, int, int, int]) -> timedelta | None:
        start = datetime(*key, tzinfo=self.tz)
        first = start.utcoffset()
        last = start.replace(minute=59, second=59, microsecond=999999).utcoffset()
        offset = self[key] = first if first == last else None
        return offset


class CsvSchema(Record):
    """Column layout of a CSV event file.

    ``id_column`` may be the sentinel "synthesize", in which case ids are the
    1-based data-row index.  ``timezone`` interprets naive timestamps; all
    timestamps are stored UTC; ``model.time_zone`` checks its name here.
    """

    __slots__ = ("timestamp_column", "attribute_columns", "id_column", "timestamp_format",
                 "delimiter", "timezone")

    def __init__(self, timestamp_column: str, attribute_columns: str | Sequence[str],
                 id_column: str = SYNTHESIZE, timestamp_format: str | None = None,
                 delimiter: str = ",", timezone: str = "UTC"):
        attribute_columns = as_names(attribute_columns)
        if not timestamp_column:
            raise ValueError("timestamp_column is mandatory")
        if not attribute_columns:
            raise ValueError("attribute_columns must be non-empty")
        if len(delimiter) != 1:
            raise ValueError("delimiter must be a single character")
        time_zone(timezone)
        super().__init__(timestamp_column, attribute_columns, id_column, timestamp_format,
                         delimiter, timezone)


class PartitionKeySpec(Record):
    """How events are grouped into traces.

    The key of an event is the tuple of its values for ``attribute_keys``,
    optionally extended with the calendar day (midnight to midnight in
    ``timezone``, checked by ``model.time_zone``) of its timestamp.
    """

    __slots__ = ("attribute_keys", "calendar_key", "timezone")

    def __init__(self, attribute_keys: str | Sequence[str] = (), calendar_key: str = "none",
                 timezone: str = "UTC"):
        attribute_keys = as_names(attribute_keys)
        if calendar_key not in ("none", "day"):
            raise ValueError(f"unsupported calendar_key {calendar_key!r}")
        if not attribute_keys and calendar_key == "none":
            raise ValueError("at least one of attribute_keys or calendar_key required")
        time_zone(timezone)
        super().__init__(attribute_keys, calendar_key, timezone)


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


def _reader(lines: Iterable[str], delimiter: str):
    """A csv.reader of ``lines`` that refuses what RFC 4180 does not allow:
    a quote left open at the end of the input, or text after a closing
    quote, such as ``"ab"c``."""
    return csv.reader(lines, delimiter=delimiter, strict=True)


def _records(reader) -> Iterator[list[str]]:
    """The reader's rows; a csv.Error (such as a field longer than
    ``csv.field_size_limit()``) raises CsvFormatError naming its line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise CsvFormatError(f"line {reader.line_num}: {exc}") from None


_BLOCK = 1 << 15


def _blocks(text: str, start: int = 0) -> Iterator[str]:
    """``text`` from ``start`` in blocks of about ``_BLOCK`` characters,
    each but the last ending right after an LF."""
    while start < len(text):
        end = text.find("\n", start + _BLOCK - 1) + 1 or len(text)
        yield text[start:end]
        start = end


def _lines(text: str) -> Iterator[str]:
    """The lines of ``text``, each ending after its LF, as io.StringIO
    reads them, but through one StringIO per block: a StringIO holds 4
    bytes per character, so none is built over the whole text."""
    return chain.from_iterable(map(io.StringIO, _blocks(text)))


def csv_header(data: bytes | str, delimiter: str) -> list[str]:
    """Column names of the header row, unquoted as RFC-4180 says and
    stripped of surrounding whitespace; [] when the input is empty."""
    return _column_names(next(_records(_reader(_lines(_decode(data)), delimiter)), []))


class CsvColumns(NamedTuple):
    """A CSV file's data rows, column by column, in row order.

    ``ids[r]`` and ``times[r]`` are row r's event id and UTC timestamp and
    ``values[name][r]`` its cell of attribute column ``name``; ``names``
    are the schema's attribute columns and ``label_names`` the columns
    each event is labelled by.
    """

    ids: list
    times: list[datetime]
    values: dict[str, Sequence[str]]
    names: tuple[str, ...]
    label_names: tuple[str, ...]

    def log(self, key: PartitionKeySpec | None) -> EventLog:
        """The rows grouped into traces by ``key`` (as ``partition`` groups
        events), or into one trace "all" when None, with no Event built."""
        if key is not None:
            traces = _traces(key, self.ids, self.times, self.values)
        elif self.ids:
            traces = [("all", _time_ordered(range(len(self.ids)), self.ids, self.times))]
        else:
            traces = []
        return EventLog.of_rows(traces, self.ids, self.times, self.names, self.values,
                                self.label_names)

    def events(self) -> list[Event]:
        """One Event per row, in row order."""
        if not self.ids:
            return []
        log = EventLog.of_rows([(None, range(len(self.ids)))], self.ids, self.times,
                               self.names, self.values, self.label_names)
        return list(log.traces[0].events)


def read_csv(data: bytes | str, schema: CsvSchema,
             label_columns: str | Iterable[str] | None = None) -> CsvColumns:
    """Read CSV text into columns, checking every row.

    Each event's label is its values of ``label_columns`` (a bare string
    is one column), in that order, or of every attribute column (the
    default label) when None.  Header names are stripped of surrounding
    whitespace, as ``csv_header`` does, before the columns are looked up.  Synthesized ids are the
    1-based data-row index.  Raises CsvFormatError on ragged rows,
    unparseable timestamps, duplicate explicit ids, or text that is not
    RFC-4180 CSV (a quote left open at the end, text after a closing
    quote, a field over ``csv.field_size_limit()``), naming the line.  A
    label column that is not an attribute column raises
    MissingAttributeError for the first row's event, once every row has
    parsed.  A header that names a column twice raises CsvFormatError:
    neither cell could be told from the other.
    """
    text = _decode(data)
    reader = _reader(_lines(text), schema.delimiter)
    header = next(_records(reader), None)
    if header is None:
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
    label_names = schema.attribute_columns if label_columns is None else as_names(label_columns)
    # the columns read: each row's timestamp, explicit id and attribute cells
    at = list(dict.fromkeys([columns[schema.timestamp_column],
                             *([] if id_at is None else [id_at]),
                             *(columns[name] for name in schema.attribute_columns)]))
    kept = [at.index(columns[name]) for name in schema.attribute_columns]
    id_k = None if id_at is None else at.index(id_at)
    if width > 1 and schema.delimiter.isascii() and schema.delimiter not in '"\r\n\0':
        end = sum(map(len, islice(_lines(text), reader.line_num)))  # where the header ends
        del reader  # its StringIO is not held while the blocks are split
        try:
            return _read_chunks(_split_chunks(_blocks(text, end), width, at, schema.delimiter),
                                [], text, schema, id_k, kept, label_names)
        except _NotSplittable:
            # start over with csv.reader, from the first data row
            reader = _reader(_lines(text), schema.delimiter)
            next(reader)
    blanks: list[int] = []
    take = itemgetter(*at) if len(at) > 1 else itemgetter(at[0], at[0])
    return _read_chunks(_row_chunks(reader, width, take, blanks), blanks,
                        text, schema, id_k, kept, label_names)


def _read_chunks(chunks: Iterable[Sequence[Sequence[str]]], blanks: list[int], text: str,
                 schema: CsvSchema, id_at: int | None, kept: list[int],
                 label_names: tuple[str, ...]) -> CsvColumns:
    """The data rows read a chunk at a time, and checked.

    A chunk holds the cells of each column read: the timestamps first,
    the ids at ``id_at`` (None: synthesized) and the schema's attribute
    columns at ``kept``.  ``blanks`` lists the blank lines met so far, as
    ``_row_chunks`` records them.
    """
    values: list[list[str]] = [[] for _ in kept]
    # one string object per distinct value of each attribute column
    memos: list[dict[str, str]] = [{} for _ in kept]
    ids: list = []
    times: list[datetime] = []
    seen: set = set()
    for chunk in chunks:
        if not chunk:
            continue
        chunk_ids, chunk_times = _check(text, schema, chunk[0], len(ids), blanks,
                                        None if id_at is None else (chunk[id_at], seen, ids))
        ids.extend(chunk_ids)
        times.extend(chunk_times)
        for column, memo, k in zip(values, memos, kept):
            column.extend(map(memo.setdefault, chunk[k], chunk[k]))
    missing = [name for name in label_names if name not in schema.attribute_columns]
    if missing and ids:
        raise MissingAttributeError(missing[0], ids[0])
    return CsvColumns(ids, times, dict(zip(schema.attribute_columns, values)),
                      schema.attribute_columns, label_names)


_CHUNK = 1024


class _NotSplittable(Exception):
    """A block of lines that only csv.reader reads as RFC 4180 says."""


def _split_chunks(blocks: Iterable[str], width: int, at: list[int], delimiter: str
                  ) -> Iterator[list[list[str]]]:
    """The cells of columns ``at`` of the data rows, one block of whole
    lines at a time, each block split at once.

    A block is split on its delimiters and line ends only when csv.reader
    would read it so: it holds no quote, CR or NUL, every line has exactly
    ``width`` - 1 delimiters (so no line is blank or ragged), and no line
    is longer than ``csv.field_size_limit()``.  At the first block that
    does not, raises _NotSplittable.  No list or tuple per row is built.
    ``delimiter`` is one ASCII character other than a quote, CR, LF or NUL.
    """
    limit = csv.field_size_limit()
    row = (delimiter * (width - 1) + "\n").encode()
    # every byte but a delimiter, LF, quote, CR or NUL: what is left of a
    # block's UTF-8 text is its rows' skeleton
    drop = bytes(sorted(set(range(256)).difference(row, b'"\r\0')))
    for body in blocks:
        if not body.endswith("\n"):
            body += "\n"  # the last line, as csv.reader reads it
        if (body.encode("utf-8", "surrogatepass").translate(None, drop) != row * body.count("\n")
                or len(body) > limit and max(map(len, body.split("\n"))) >= limit):
            raise _NotSplittable
        cells = body.replace("\n", delimiter).split(delimiter)
        del body
        cells.pop()  # the empty text after the last line end
        yield [cells[k::width] for k in at]


def _row_chunks(reader, width: int, take: Callable[[list[str]], tuple[str, ...]],
                blanks: list[int]) -> Iterator[list[tuple[str, ...]]]:
    """The cells of the data rows, ``_CHUNK`` rows at a time, as one tuple
    per column ``take`` picks.

    A blank line is skipped; ``blanks`` records how many rows came before
    it.  A row of the wrong width, or text csv.reader refuses, raises
    CsvFormatError once the rows before it have been yielded, so that
    their errors come first.  Tuples of strings, unlike the row lists,
    leave the garbage collector's care at its next pass.
    """
    rows: list[tuple[str, ...]] = []
    done = 0
    try:
        for row in _records(reader):
            if len(row) != width:
                if not row:
                    blanks.append(done + len(rows))
                    continue
                raise CsvFormatError(
                    f"line {reader.line_num}: expected {width} fields, got {len(row)}")
            rows.append(take(row))
            if len(rows) == _CHUNK:
                yield list(zip(*rows))
                done += len(rows)
                rows = []
    except CsvFormatError:
        yield list(zip(*rows))
        raise
    yield list(zip(*rows))


def _check(text: str, schema: CsvSchema, stamps: Sequence[str], start: int,
           blanks: list[int], explicit: tuple[Sequence[str], set, Sequence] | None
           ) -> tuple[Sequence, list[datetime]]:
    """The ids and UTC times of a chunk of rows, ``start`` rows after the
    first, from their timestamp cells.

    ``explicit`` holds the rows' id cells, the set of earlier rows' ids,
    which takes theirs, and those ids in row order; with None, ids are
    synthesized from the row numbers, ``blanks`` included.  Raises
    CsvFormatError for the first row whose id repeats an earlier one or
    whose timestamp does not parse, naming its line.
    """
    seen = None
    if explicit is not None:
        ids, seen, earlier = explicit
    elif blanks:
        ids = [start + k + 1 + bisect_right(blanks, start + k) for k in range(len(stamps))]
    else:
        ids = range(start + 1, start + len(stamps) + 1)
    tz = time_zone(schema.timezone)
    try:
        if seen is None:
            return ids, _utc_times(stamps, schema.timestamp_format, tz)
        size = len(seen)
        seen.update(ids)  # one hash per id; the set grows less if one repeats
        if len(seen) == size + len(ids):
            return ids, _utc_times(stamps, schema.timestamp_format, tz)
    except ValueError:
        pass
    seen = None if seen is None else set(earlier)  # the ids before this chunk
    # a row-by-row pass finds the first failing row; ids are checked first
    for k, (event_id, stamp) in enumerate(zip(ids, stamps)):
        if seen is not None:
            if event_id in seen:
                message = f"duplicate event id {event_id!r}"
                break
            seen.add(event_id)
        try:
            parse_timestamp(stamp, schema.timestamp_format, tz)
        except ValueError as exc:
            message = str(exc)
            break
    # the line on which that row ends, read again up to it
    row = start + k
    reader = _reader(_lines(text), schema.delimiter)
    for _ in islice(reader, row + bisect_right(blanks, row) + 2):
        pass
    raise CsvFormatError(f"line {reader.line_num}: {message}")


def parse_csv(data: bytes | str, schema: CsvSchema,
              label_columns: str | Iterable[str] | None = None) -> list[Event]:
    """Parse CSV text into one Event per data row, labelled as it is built.

    ``read_csv`` reads and checks the rows (see there for the errors); each
    distinct label value tuple gets one Label object, shared by its events.
    """
    return read_csv(data, schema, label_columns).events()


def _time_ordered(rows: Sequence[int], ids: Sequence, times: Sequence[datetime]) -> Sequence[int]:
    """``rows`` sorted by (time, id key), the order of ``Event.sort_key``:
    ``rows`` themselves when their times strictly increase."""
    at = (times[rows.start:rows.stop:rows.step] if isinstance(rows, range)
          else list(map(times.__getitem__, rows)))
    if not any(map(ge, at, at[1:])):
        return rows
    rows = sorted(rows, key=times.__getitem__)
    at = list(map(times.__getitem__, rows))
    if any(map(eq, at[1:], at)):  # equal times: order those by id too
        rows.sort(key=lambda r: (times[r], _id_key(ids[r])))
    return rows


def _traces(key: PartitionKeySpec, ids: Sequence, times: Sequence[datetime],
            values: Mapping[str, Sequence], partial: Iterable[str] = ()
            ) -> list[tuple[Any, Sequence[int]]]:
    """(case id, rows in trace order) of each trace: the rows grouped by
    their key, traces in key order, each trace's rows in time order.

    A row's key is its values of the key attributes (``values``, where
    ``MISSING`` marks an absent value in a column named by ``partial``)
    and, with a calendar key, the local date of its time.  Raises
    MissingAttributeError naming the first row lacking a key attribute.
    """
    names = key.attribute_keys
    if not set(names) <= values.keys() or not set(partial).isdisjoint(names):
        for r, event_id in enumerate(ids):
            for name in names:
                column = values.get(name)
                if column is None or column[r] is MISSING:
                    raise MissingAttributeError(name, event_id)
    if not ids:
        return []
    parts = [values[name] for name in names]
    if key.calendar_key == "day":
        parts.append(list(map(datetime.date, local(times, time_zone(key.timezone)))))
    # runs of rows of one key (changes[r]: row r + 1 starts one), numbered in key order
    changes = list(reduce(lambda a, b: map(or_, a, b), [map(ne, p[1:], p) for p in parts]))
    starts = [0, *compress(range(1, len(ids)), changes)]
    keys = list(zip(*(map(part.__getitem__, starts) for part in parts)))
    distinct = sorted(dict.fromkeys(keys), key=lambda k: tuple(_value_key(v) for v in k))
    number = {value: n for n, value in enumerate(distinct)}
    run_of = list(map(number.__getitem__, keys))
    if run_of == list(range(len(distinct))):  # each trace one run, in key order
        traces = map(range, starts, [*starts[1:], len(ids)])
    else:  # the rows by trace number: the stable sort keeps each trace in row order
        trace_of = list(map(run_of.__getitem__, accumulate(changes, initial=0)))
        del parts, changes, starts, keys, number, run_of  # not held while the rows sort
        order = sorted(range(len(ids)), key=trace_of.__getitem__)
        traces = (list(group) for _, group in groupby(order, trace_of.__getitem__))
    return [(value[0] if len(value) == 1 else value, _time_ordered(rows, ids, times))
            for value, rows in zip(distinct, traces)]


def partition(events: Iterable[Event], key: PartitionKeySpec) -> EventLog:
    """Group events into traces of equal partition key.

    Traces are the maximal same-key groups, internally time-ordered; the
    case id is the key value (unwrapped when the key has one component).
    """
    events = list(events)
    values, partial = attribute_columns(events)
    traces = _traces(key, [e.id for e in events], [e.timestamp for e in events], values, partial)
    return EventLog(Trace(case_id, [events[r] for r in rows]) for case_id, rows in traces)


def parse_xes_minimal(data: bytes | str, warnings: list[str] | None = None) -> EventLog:
    """Parse the minimal XES subset into an EventLog.

    Traces keep the file's grouping; each event's label is its name
    attribute.  String attributes are kept; other attribute kinds are
    skipped and reported via ``warnings`` (and the module logger).
    """
    # imported here: only XES input and output need it, and every process
    # that imports this module pays for it
    import xml.etree.ElementTree as ET

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
        import logging  # imported on use: most runs log nothing
        logging.getLogger(__name__).warning("ignored %d unsupported XES attribute(s)", skipped)
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
    import xml.etree.ElementTree as ET

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
