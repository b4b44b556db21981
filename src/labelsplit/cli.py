"""Command-line front end.

Subcommands: evaluate (score one refinement), scan (generate and rank
median time-of-day candidates), stats (dump ordering statistics),
gen-candidates (list candidates without evaluating), convert (csv <->
minimal xes).  Output is JSON by default, human-readable with --pretty.

Exit codes: 0 success (including useful=false analyses), 1 usage or
configuration error, 2 input parse error, 3 refinement-precondition
failure.  Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import os
import sys
from collections.abc import Callable, Iterable, Iterator
from datetime import datetime, timezone
from itertools import repeat
from pathlib import Path
from typing import Any

from .evaluate import (EvaluationConfig, evaluate, generate_median_time_candidates,
                       rank_candidates)
from .ingest import (CsvFormatError, CsvSchema, PartitionKeySpec, XesFormatError,
                     csv_header, parse_xes_minimal, read_csv, write_csv,
                     write_xes_minimal)
from .model import EventLog, Label, MissingAttributeError, time_zone
from .ordering import DEFAULT_RELATIONS, LogCounts, OrderingRelation, as_relations
from .relabel import Projection, RefinementError, RuleBased, TimeThreshold, parse_time_of_day
from .report import (StatsGroup, StatsRows, human_label, json_chunks, pretty_candidates,
                     pretty_ranking, pretty_report, pretty_stats, report_doc, stats_csv)
from .stats import CorrectionPolicy

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_REFINEMENT = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # no abbreviated flags: each flag given is written out in full, as
        # a --config key is
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


@contextlib.contextmanager
def _settings(flag: str, path: str) -> Iterator[str]:
    """The text of ``flag``'s UTF-8 file ``path``, for a block that reads
    it: a ValueError or UsageError in either is a ValueError naming both."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {flag} {path}: {exc}") from None
    try:
        yield text
    except (UsageError, ValueError) as exc:
        raise ValueError(f"{exc} (in {flag} {path})") from None


def _key_values(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {line_no}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def _with_config(parser: _Parser, args: argparse.Namespace, argv: list[str]
                 ) -> argparse.Namespace:
    """``args`` with the --config file's values as flag defaults: each
    ``key=value`` is the subcommand's flag ``--key``, read by its own action
    (1, true or yes set a store_true flag) ahead of the flags given, which
    win.  A key no subcommand defines is an error; another's is ignored."""
    if args.config is None:
        return args
    defined = {flag for command in parser.commands.values()
               for flag in command._option_string_actions}
    own = parser.commands[args.command]._option_string_actions
    tokens = []
    with _settings("--config", args.config) as text:
        for key, raw in _key_values(text).items():
            flag = f"--{key}"
            if flag not in defined or flag in ("--config", "--help"):
                raise UsageError(f"unknown config key {key!r}")
            if flag not in own:
                continue
            if own[flag].nargs != 0:
                tokens.append(f"{flag}={raw}")
            elif raw.lower() in ("1", "true", "yes"):
                tokens.append(flag)
        at = argv.index(args.command) + 1
        args = parser.parse_args([*argv[:at], *tokens, *argv[at:]])
        time_zone(args.timezone)  # argv's zone is checked: a bad one here is the file's
        return args


def _path(text: str) -> str:
    """A file path flag's value, which may not be empty."""
    if not text:
        raise argparse.ArgumentTypeError("empty file path")
    return text


# each flag's add_argument keywords
_FLAGS: dict[str, dict[str, Any]] = {
    "--csv": dict(metavar="FILE", type=_path, help="CSV event log input"),
    "--xes": dict(metavar="FILE", type=_path, help="minimal-XES event log input"),
    "--csv-schema": dict(metavar="FILE", type=_path,
                         help="key=value schema file (id_column, timestamp_column, "
                              "timestamp_format, attribute_columns, delimiter, timezone: "
                              "how naive times are read; --timezone sets days and times of day)"),
    "--case-key": dict(metavar="ATTRS",
                       help="attributes grouping events into traces, as one CSV record"),
    "--calendar-key": dict(choices=["none", "day"], default="none",
                           help="extend the case key with the calendar day"),
    "--timezone": dict(default="UTC", help="timezone for day boundaries and times of day"),
    "--base-label": dict(metavar="ATTRS",
                         help="attributes forming the base label, as one CSV record"),
    "--config": dict(metavar="FILE", type=_path, help="key=value file of flag defaults"),
    "--out": dict(metavar="FILE", type=_path, help="write output here (default stdout)"),
    "--deterministic": dict(action="store_true",
                            help="omit run metadata so identical runs are byte-identical"),
    "--pretty": dict(action="store_true", help="human-readable output instead of JSON"),
    "--alpha": dict(type=float, default=0.01),
    "--relations": dict(help="ordering relations, as one CSV record (default: "
                             "directly/eventually follows/precedes)"),
    "--correction": dict(choices=["none", "bonferroni"], default="bonferroni"),
    "--family-scope": dict(choices=["per_candidate", "per_candidate_set"],
                           default="per_candidate"),
    "--context-labels": dict(help="context labels to test against, as one CSV record "
                                  "(comma-separated; quote a name holding a comma)"),
    "--seed": dict(type=int, help="accepted for interface parity; nothing is random"),
    "--refined-label": dict(metavar="ATTRS",
                            help="attributes forming the refined label, as one CSV record"),
    "--rules": dict(metavar="FILE", type=_path, help="rule file producing the refined label"),
    "--threshold": dict(metavar="BASE,HH:MM,LOW,HIGH",
                        help="time-of-day split producing the refined label"),
    "--b-labels": dict(help="restrict source labels (one CSV record, as --context-labels)"),
    "--c-labels": dict(help="restrict context labels (one CSV record, as --context-labels)"),
    "--include-self": dict(action="store_true", help="include b == c rows"),
    "--format": dict(choices=["json", "csv"], default="json"),
    "--to": dict(choices=["csv", "xes"]),  # required: see cmd_convert
}

# the flags every subcommand takes: where the log comes from and where the
# output goes
_INPUT_FLAGS = ("--csv", "--xes", "--csv-schema", "--case-key", "--calendar-key",
                "--timezone", "--base-label", "--config", "--out", "--deterministic")

# each subcommand's help, and the flags it takes besides _INPUT_FLAGS
_SUBCOMMANDS = {
    "evaluate": ("score one candidate refinement",
                 ("--pretty", "--alpha", "--relations", "--correction", "--context-labels",
                  "--seed", "--refined-label", "--rules", "--threshold")),
    "scan": ("rank median time-of-day candidates",
             ("--pretty", "--alpha", "--relations", "--correction", "--family-scope",
              "--context-labels", "--seed")),
    # --alpha is read by no stats output; perfbench's stats run passes it
    "stats": ("dump ordering statistics",
              ("--pretty", "--alpha", "--relations", "--b-labels", "--c-labels",
               "--include-self", "--format")),
    "gen-candidates": ("list median time-of-day candidates", ("--pretty",)),
    "convert": ("convert between CSV and minimal XES", ("--to",)),
}


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing reads it
    and changes nothing in it."""
    parser = _Parser(prog="labelsplit",
                     description="Statistical evaluation of event-label refinements.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    parser.commands = sub.choices  # each subcommand's parser, by name
    for name, (help_text, flags) in _SUBCOMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag in (*_INPUT_FLAGS, *flags):
            command.add_argument(flag, **_FLAGS[flag])
    return parser


def _names(text: str, flag: str, what: str = "label") -> list[str]:
    """The names in ``flag``'s value, read as one CSV record: names are
    split on commas and stripped, and empty ones dropped; a name in double
    quotes may hold commas, and a doubled quote in it is a quote.  A value
    that names nothing is a UsageError saying ``flag`` names no ``what``."""
    try:
        record = next(csv.reader([text], skipinitialspace=True))
    except csv.Error as exc:
        raise UsageError(f"cannot read {flag} as one CSV record: {exc}") from None
    names = [name.strip() for name in record if name.strip()]
    if not names:
        raise UsageError(f"{flag} names no {what}")
    return names


def _resolve_schema(text: str, args) -> CsvSchema:
    if args.csv_schema is not None:
        with _settings("--csv-schema", args.csv_schema) as settings:
            kv = _key_values(settings)
            unknown = set(kv) - {"id_column", "timestamp_column", "timestamp_format",
                                 "attribute_columns", "delimiter", "timezone"}
            if unknown:
                raise ValueError(f"unknown schema keys: {sorted(unknown)}")
            return CsvSchema(
                timestamp_column=kv.get("timestamp_column", "timestamp"),
                attribute_columns=_names(kv.get("attribute_columns", ""),
                                         "--csv-schema attribute_columns", "column"),
                id_column=kv.get("id_column", "synthesize"),
                timestamp_format=kv.get("timestamp_format") or None,
                delimiter=kv.get("delimiter", ","), timezone=kv.get("timezone", args.timezone))
    # default schema sniffed from the header, read with the default schema's
    # delimiter (","): id/timestamp columns by name, everything else an attribute
    header = csv_header(text, ",")
    id_column = "id" if "id" in header else "synthesize"
    if "timestamp" not in header:
        raise CsvFormatError("no 'timestamp' column; provide --csv-schema")
    attrs = tuple(c for c in header if c not in ("id", "timestamp") and c)
    if not attrs:
        raise CsvFormatError("no attribute columns found in header")
    return CsvSchema(timestamp_column="timestamp", attribute_columns=attrs,
                     id_column=id_column, timezone=args.timezone)


def _load_base_log(args) -> EventLog:
    """Read the input into an event log carrying the base labeling: a CSV
    file is read into columns labelled as they are read, with no Event
    built; XES logs are projected."""
    if (args.csv is None) == (args.xes is None):
        raise UsageError("exactly one of --csv or --xes is required")
    base_label = (None if args.base_label is None else
                  tuple(_names(args.base_label, "--base-label", "attribute")))
    if args.csv is not None:
        try:
            # newline="": line ends reach the CSV reader as written, so a
            # quoted CRLF stays data and a lone CR stays inside its cell
            with open(args.csv, encoding="utf-8", newline="") as f:
                text = f.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise CsvFormatError(f"cannot read {args.csv}: {exc}") from exc
        schema = _resolve_schema(text, args)
        columns = read_csv(text, schema, base_label)
        del text  # not held while the rows are grouped
        if args.case_key is not None or args.calendar_key != "none":
            keys = () if args.case_key is None else _names(args.case_key, "--case-key", "attribute")
            return columns.log(PartitionKeySpec(keys, args.calendar_key, args.timezone))
        return columns.log(PartitionKeySpec(("case",))
                           if "case" in schema.attribute_columns else None)
    try:
        data = Path(args.xes).read_bytes()
    except OSError as exc:
        raise XesFormatError(f"cannot read {args.xes}: {exc}") from exc
    log = parse_xes_minimal(data)
    return Projection(base_label).apply(log) if base_label else log


def _refined_log(args, base_log: EventLog):
    if sum(opt is not None for opt in (args.refined_label, args.rules, args.threshold)) != 1:
        raise UsageError("exactly one of --refined-label, --rules, --threshold is required")
    if args.refined_label is not None:
        fn = Projection(tuple(_names(args.refined_label, "--refined-label", "attribute")))
    elif args.rules is not None:
        with _settings("--rules", args.rules) as text:  # a bad rule, or an event none matches
            fn = RuleBased.from_text(text, name=Path(args.rules).name)
            return fn.apply(base_log), fn.description
    else:
        fields = _names(args.threshold, "--threshold")
        if len(fields) != 4:
            raise UsageError("--threshold expects BASE,HH:MM,LOW,HIGH")
        base, at, low, high = fields
        threshold = parse_time_of_day(at)
        # BASE must label events; LOW or HIGH may be new names
        named = [_labels_named(base_log.interned.labels, [name], "--threshold", k > 0)
                 for k, name in enumerate((base, low, high))]
        if any(len(labels) > 1 for labels in named):
            raise UsageError("--threshold names a text that several labels share")
        (base_label,), (low_label,), (high_label,) = named
        fn = TimeThreshold(base_label, threshold, low_label, high_label, timezone=args.timezone)
    return fn.apply(base_log), fn.description


def _relations(args) -> tuple[OrderingRelation, ...]:
    """The relations named in --relations, each once, in first-named order."""
    return DEFAULT_RELATIONS if args.relations is None else as_relations(
        _names(args.relations, "--relations", "relation"))


def _eval_config(args, labels: Iterable[Label]) -> EvaluationConfig:
    """The evaluation flags, with --context-labels named among ``labels``."""
    contexts = None
    if args.context_labels is not None:
        names = _names(args.context_labels, "--context-labels")
        contexts = tuple(_labels_named(labels, names, "--context-labels", keep_absent=True))
    # evaluate scores one candidate: its whole candidate set
    correction = CorrectionPolicy(args.correction, getattr(args, "family_scope", "per_candidate"))
    return EvaluationConfig(args.alpha, _relations(args), correction, contexts)


def _output(args, doc: Any, pretty: Callable[[], str]) -> Iterator[str]:
    """``doc`` as JSON, ending with its run metadata unless --deterministic,
    or under --pretty the text ``pretty()`` builds; built as it is read."""
    if args.pretty:
        yield pretty()
        return
    if not args.deterministic:
        doc = {**doc, "generated_at": datetime.now(timezone.utc).isoformat()}
    yield from json_chunks(doc)
    yield "\n"


def _check_out(path: str) -> None:
    """Refuse an --out path that cannot be opened for writing, changing no file."""
    try:
        if not os.path.lexists(path):
            open(path, "xb").close()
            os.remove(path)
        elif os.path.isfile(path) or os.path.isdir(path):  # a pipe is opened once, to write
            open(path, "ab").close()
    except OSError as exc:
        raise ValueError(f"cannot write --out {path}: {exc}") from None


def _emit(args, chunks: Iterable[str]) -> None:
    """Write ``chunks``, a command's output, to --out or stdout one at a
    time: the one writer.  A failure part way leaves what was written."""
    with (contextlib.nullcontext(sys.stdout) if args.out is None else
          open(args.out, "w", encoding="utf-8")) as out:
        out.writelines(chunks)


def cmd_evaluate(args) -> Iterator[str]:
    base_log = _load_base_log(args)
    refined, description = _refined_log(args, base_log)
    config = _eval_config(args, (*base_log.interned.labels, *refined.interned.labels))
    report = evaluate(base_log, refined, config, description)
    return _output(args, report_doc(report), lambda: pretty_report(report))


def cmd_scan(args) -> Iterator[str]:
    base_log = _load_base_log(args)
    skipped: list[str] = []
    candidates = generate_median_time_candidates(base_log, args.timezone, skipped)
    reports = rank_candidates(base_log, candidates, _eval_config(args, base_log.interned.labels))
    doc = {"candidates": [report_doc(r) for r in reports], "skipped_labels": skipped}
    return _output(args, doc, lambda: pretty_ranking(reports, skipped))


def _labels_named(labels: Iterable[Label], names: Iterable[str], flag: str,
                  keep_absent: bool = False) -> list[Label]:
    """The labels called ``names`` in ``flag``, in the order named: a name
    is a label's text, its parts joined by "+", and names every label of
    ``labels`` with that text.  One that names none is a UsageError, or with
    ``keep_absent`` a one-part label of no event."""
    by_text: dict[str, list[Label]] = {}
    for label in dict.fromkeys(labels):
        by_text.setdefault(str(label), []).append(label)
    names = list(dict.fromkeys(names))
    unknown = [name for name in names if name not in by_text]
    if unknown and not keep_absent:
        raise UsageError(f"unknown label(s) in {flag}: {', '.join(unknown)}")
    return [label for name in names for label in by_text.get(name, [Label(name)])]


def _chosen_codes(labels: tuple[Label, ...], names: str | None, flag: str) -> list[int]:
    """The codes, in label order, of the labels named in ``flag``'s value
    ``names``; every code when the flag is not given."""
    if names is None:
        return list(range(len(labels)))
    wanted = {label.parts for label in _labels_named(labels, _names(names, flag), flag)}
    return [code for code, label in enumerate(labels) if label.parts in wanted]


def cmd_stats(args) -> Iterator[str]:
    if args.pretty and args.format == "csv":
        raise UsageError("--pretty and --format csv exclude each other")
    log = _load_base_log(args)
    relations = _relations(args)
    labels, occurrences = log.interned.labels, log.interned.occurrences
    b_codes = _chosen_codes(labels, args.b_labels, "--b-labels")
    c_codes = _chosen_codes(labels, args.c_labels, "--c-labels")
    counts = LogCounts.of(log, relations, [labels[b] for b in b_codes])
    at = {c: k for k, c in enumerate(c_codes)}

    def groups() -> Iterator[StatsGroup]:
        """The StatsGroup of each row, in relation and then sorted-label
        order, its cells in sorted-label order."""
        for relation in relations:
            name, rows = relation.value, counts.rows[relation]
            for b in b_codes:
                k = at.get(b)
                cs = c_codes if args.include_self or k is None else c_codes[:k] + c_codes[k + 1:]
                yield name, b, occurrences[b], zip(cs, map(rows[b].get, cs, repeat(0)))

    if args.format == "csv":
        return stats_csv(labels, groups())

    def pretty() -> str:
        names = [human_label(label) for label in labels]
        return pretty_stats((relation, names[b], names[c], pos, n - pos)
                            for relation, b, n, cells in groups() for c, pos in cells)
    return _output(args, {"rows": StatsRows(labels, groups())}, pretty)


def cmd_gen_candidates(args) -> Iterator[str]:
    log = _load_base_log(args)
    skipped: list[str] = []
    candidates = generate_median_time_candidates(log, args.timezone, skipped)
    doc = {"candidates": [{"base_label": fn.base_label.json_parts(),
                           "threshold": fn.threshold.isoformat(),
                           "low_label": fn.low_label.json_parts(),
                           "high_label": fn.high_label.json_parts(),
                           "timezone": fn.timezone, "description": fn.description}
                          for fn in candidates],
           "skipped_labels": skipped}
    return _output(args, doc, lambda: pretty_candidates(candidates, skipped))


def cmd_convert(args) -> Iterator[str]:
    if args.to is None:  # not required by argparse, so that a --config file may give it
        raise UsageError("the following arguments are required: --to")
    log = _load_base_log(args)
    return map(write_csv if args.to == "csv" else write_xes_minimal, [log])


_COMMANDS = {"evaluate": cmd_evaluate, "scan": cmd_scan, "stats": cmd_stats,
             "gen-candidates": cmd_gen_candidates, "convert": cmd_convert}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        time_zone(args.timezone)  # the zone argv gives, before a --config file's
        args = _with_config(parser, args, argv)
        if args.out is not None:
            _check_out(args.out)
        _emit(args, _COMMANDS[args.command](args))
        return EXIT_OK
    except UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CsvFormatError, XesFormatError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (MissingAttributeError, OSError, ValueError) as exc:
        if isinstance(exc, RefinementError):
            print(f"refinement error: {exc}", file=sys.stderr)
            return EXIT_REFINEMENT
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
