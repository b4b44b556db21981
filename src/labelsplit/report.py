"""Report text: the JSON documents and ``--pretty`` views the CLI writes.

``json_chunks`` writes a JSON document in one pass, as a run of chunks
that a caller can write out one by one; ``json_text`` joins them.  A node
in the document that has a ``json_chunks(pad)`` method writes itself:
``report_doc`` puts an evaluation report's tests in its document as such a
node (``TestRecords``), which writes each test record from one template
with no dict built per test, one chunk per child pair.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator, Sequence
from itertools import repeat
from json.encoder import encode_basestring
from typing import Any

from .evaluate import EvaluationReport
from .model import Label
from .relabel import RelabelingFn
from .stats import PairTests, TestResult

_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _key_text(key: Any) -> str:
    """A dict key's text as ``json`` writes it; float keys are not rounded."""
    if isinstance(key, str):
        return encode_basestring(key)
    if key is None or isinstance(key, (int, float)):
        return encode_basestring(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _float_text(value: float) -> str:
    """A float value fixed at 12 significant digits, as ``json`` writes it."""
    text = float.__repr__(float(f"{value:.12g}"))
    return _NONFINITE.get(text, text)


def _scalar_text(value: Any) -> str | None:
    """The text of a value that is neither a container nor a node, else None."""
    if isinstance(value, str):
        return encode_basestring(value)
    if isinstance(value, float):
        return _float_text(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    return None


def json_chunks(value: Any, pad: str = "\n") -> Iterator[str]:
    """The text of ``json.dumps(value, ensure_ascii=False, indent=2)``, with
    every float value fixed at 12 significant digits so output is
    reproducible, written in one pass as a run of chunks.  ``pad`` is the
    newline and indent that close ``value``.  Any other value that has a
    ``json_chunks(pad)`` method (a node) writes itself by it; the text
    around nodes is gathered into one chunk before each node and one after
    the last, so no container's text is built and copied into its parent's."""
    held: list[str] = []
    yield from _chunks(value, pad, held)
    if held:
        yield "".join(held)


def _chunks(value: Any, pad: str, held: list[str]) -> Iterator[str]:
    """Append ``value``'s text to ``held``; before a node's chunks, yield
    what ``held`` holds as one chunk and empty it."""
    if isinstance(value, (list, tuple)):
        opening, closing, items = "[", "]", zip(repeat(""), value)
    elif isinstance(value, dict):
        opening, closing = "{", "}"
        items = ((f"{_key_text(k)}: ", v) for k, v in value.items())
    else:
        text = _scalar_text(value)
        if text is not None:
            held.append(text)
            return
        write = getattr(value, "json_chunks", None)
        if write is None:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        if held:
            yield "".join(held)
            held.clear()
        yield from write(pad)
        return
    if not value:
        held.append(opening + closing)
        return
    inner = pad + "  "
    sep = opening + inner
    for head, v in items:
        held.append(sep + head)
        text = _scalar_text(v)
        if text is None:
            yield from _chunks(v, inner, held)
        else:
            held.append(text)
        sep = "," + inner
    held.append(pad + closing)


def json_text(value: Any, pad: str = "\n") -> str:
    """``json_chunks(value, pad)`` joined."""
    return "".join(json_chunks(value, pad))


class _LabelTexts(dict):
    """Key -> the JSON text of the parts of ``labels[key]`` at one indent,
    written on first use."""

    def __init__(self, labels: dict[Any, Label], pad: str):
        super().__init__()
        self.labels, self.pad = labels, pad

    def __missing__(self, key: Any) -> str:
        parts = self.labels[key].json_parts()
        texts = list(map(_scalar_text, parts))
        if texts and None not in texts:  # a flat list of scalars, as json_text writes it
            inner = self.pad + "  "
            text = f"[{inner}{(',' + inner).join(texts)}{self.pad}]"
        else:
            text = json_text(parts, self.pad)
        self[key] = text
        return text


class _FloatTexts(dict):
    """Float -> its text as ``_float_text`` writes it, written on first use.
    A zero is not kept: 0.0 and -0.0 are equal keys of different texts."""

    def __missing__(self, value: float) -> str:
        text = _float_text(value)
        if value:
            self[value] = text
        return text


class TestRecords:
    """A report's "tests" list as ``json_text`` writes the test dicts of
    ``EvaluationReport.to_json_dict``, from one template per test and with
    no dict or per-test object built: the counts and p-values are read
    from the arrays of ``PairTests``."""

    __slots__ = ("tests",)

    def __init__(self, tests: Sequence[TestResult]):
        self.tests = tests if isinstance(tests, PairTests) else PairTests.of(tests)

    def json_chunks(self, pad: str) -> Iterator[str]:
        """One chunk per child pair that has tables: its records, after
        the list's opening or a separator."""
        tests = self.tests
        if not tests:
            yield "[]"
            return
        end = pad + "  "  # closes each record
        i1, i2, i3 = end + "  ", end + "    ", end + "      "
        # as in to_json_dict, labels of equal parts share the last one's
        # text: a block's last relation names all of its labels, its pair last
        labels = {}
        for block in tests.blocks:
            if block:
                labels.update((c.parts, c) for c in block.contexts)
                labels[block.a1.parts], labels[block.a2.parts] = block.a1, block.a2
        contexts, members = _LabelTexts(labels, i1), _LabelTexts(labels, i2)
        p_texts = _FloatTexts()  # a scan's tests share many p-values
        sep = "[" + end
        for block, ps, alpha in zip(tests.blocks, tests.p_values, tests.alphas):
            if not block:
                continue
            pair = (f'{i1}"pair": [{i2}{members[block.a1.parts]},'
                    f'{i2}{members[block.a2.parts]}{i1}],')
            n1, n2, n = block.n1, block.n2, block.n
            names = [contexts[c.parts] for c in block.contexts]
            # (x, y, z) -> (p, the record's text from "table" on): n1, n2,
            # n and alpha are the block's, and a table's p is its own
            tails: dict[tuple[int, int, int], tuple[float, str]] = {}
            p_at = iter(ps)
            records = []
            for relation, a1_pos, a2_pos, parent_pos in zip(
                    block.relations, block.a1_pos, block.a2_pos, block.parent_pos):
                head = f'{{{i1}"relation": {encode_basestring(relation.value)},{i1}"context": '
                for name, x, y, z, p in zip(names, a1_pos, a2_pos, parent_pos, p_at):
                    tail = tails.get((x, y, z))
                    if tail is None or tail[0] is not p:
                        tail = tails[x, y, z] = (p, (
                            f'{i1}"table": {{{i2}"a1": [{i3}{x},{i3}{n1 - x}{i2}],'
                            f'{i2}"a2": [{i3}{y},{i3}{n2 - y}{i2}],'
                            f'{i2}"parent": [{i3}{z},{i3}{n - z}{i2}]{i1}}},'
                            f'{i1}"p": {p_texts[p]},'
                            f'{i1}"significant": {"true" if p < alpha else "false"}{end}}}'))
                    records.append(f"{head}{name},{pair}{tail[1]}")
            yield sep + f",{end}".join(records)
            sep = "," + end
        yield pad + "]"


StatsGroup = tuple[str, int, int, Iterable[tuple[int, int]]]
"""(relation name, b code, n, cells) of one source label b on one relation:
n is b's occurrence count and each cell a (c code, pos) whose neg is n - pos."""


class StatsRows:
    """The "rows" list of ``stats --format json`` as ``json_text`` writes
    the row dicts ``{"relation", "b", "c", "pos", "neg"}``, from one
    template per row and with no dict built.

    ``groups`` are ``StatsGroup``s, their codes indexing ``labels``; they
    are read once, so the rows are written once.
    """

    __slots__ = ("labels", "groups")

    def __init__(self, labels: Sequence[Label], groups: Iterable[StatsGroup]):
        self.labels, self.groups = labels, groups

    def json_chunks(self, pad: str) -> Iterator[str]:
        """One chunk per group that has cells."""
        end = pad + "  "  # closes each row
        i1 = end + "  "
        names = _LabelTexts(dict(enumerate(self.labels)), i1)
        sep = "[" + end
        for relation, b, n, cells in self.groups:
            head = f'{{{i1}"relation": {encode_basestring(relation)},{i1}"b": {names[b]},{i1}"c": '
            rows = [f'{head}{names[c]},{i1}"pos": {pos},{i1}"neg": {n - pos}{end}}}'
                    for c, pos in cells]
            if rows:
                yield sep + f",{end}".join(rows)
                sep = "," + end
        yield "[]" if sep[0] == "[" else pad + "]"


def stats_csv(labels: Sequence[Label], groups: Iterable[StatsGroup]) -> Iterator[str]:
    """``stats --format csv``: the header line, then one chunk of
    ``relation,"b","c",pos,neg`` lines per ``StatsGroup``."""
    yield "relation,b,c,pos,neg\n"
    quoted = [f'"{csv_label(label)}",' for label in labels]
    for relation, b, n, cells in groups:
        head = f"{relation},{quoted[b]}"
        yield "".join([f"{head}{quoted[c]}{pos},{n - pos}\n" for c, pos in cells])


def report_doc(report: EvaluationReport) -> dict:
    """``report.to_json_dict()`` with its tests as ``TestRecords``: the
    same text under ``json_text``."""
    return report.json_fields(TestRecords(report.tests))


def _joined(parts: list[str]) -> str:
    """Label part texts joined by "+".  When some part holds a "+", each
    part is quoted with its own quotes doubled, so that no two labels of
    the same number of parts (as all labels of one log are) read the same."""
    if any("+" in part for part in parts):
        return "+".join('"' + part.replace('"', '""') + '"' for part in parts)
    return "+".join(parts)


def human_label(label: Label) -> str:
    return _joined([str(part) for part in label.parts])


def csv_label(label: Label) -> str:
    """A label's text in a quoted CSV field: its JSON parts joined as by
    ``human_label``, with each quote doubled (RFC 4180)."""
    return _joined([str(part) for part in label.json_parts()]).replace('"', '""')


def pretty_stats(rows: Iterable[tuple[str, str, str, int, int]]) -> str:
    """(relation, b, c, pos, neg) rows as a table: every column as wide as
    its widest cell, text left-aligned and counts right-aligned."""
    cells = [("relation", "b", "c", "pos", "neg"),
             *[(relation, b, c, str(pos), str(neg)) for relation, b, c, pos, neg in rows]]
    w = [max(map(len, column)) for column in zip(*cells)]
    return "".join(f"{relation:<{w[0]}}  {b:<{w[1]}}  {c:<{w[2]}}  {pos:>{w[3]}}  {neg:>{w[4]}}\n"
                   for relation, b, c, pos, neg in cells)


def pretty_report(report: EvaluationReport) -> str:
    lines = [
        f"candidate: {report.candidate_description}",
        f"useful: {'yes' if report.useful else 'no'}    score: {report.score:.6g}",
        f"tests: {report.m_tests} at corrected alpha {report.corrected_alpha:.6g}"
        f" (alpha {report.alpha:g})",
    ]
    for sp in report.split_pairs:
        children = ", ".join(human_label(c) for c in sp.children)
        lines.append(f"split: {human_label(sp.parent)} -> {children}")
    if report.tests:
        lines.append("")
        lines.append(f"{'relation':<22}{'context':<28}{'a1 +/-':<12}"
                     f"{'a2 +/-':<12}{'parent +/-':<12}{'p':<12}sig")
        for t in report.tests:
            lines.append(
                f"{t.relation.value:<22}{human_label(t.context_label):<28}"
                f"{f'{t.table.col_a1.pos}/{t.table.col_a1.neg}':<12}"
                f"{f'{t.table.col_a2.pos}/{t.table.col_a2.neg}':<12}"
                f"{f'{t.table.parent_col.pos}/{t.table.parent_col.neg}':<12}"
                f"{t.p_value:<12.4g}{'*' if t.significant else ''}")
    e = report.entropy
    lines.append("")
    lines.append(f"entropy before: {e.total_before:.6g}  after: {e.total_after:.6g}"
                 f"  relative gain: {e.relative_information_gain:.6g}")
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def pretty_ranking(reports: Sequence[EvaluationReport], skipped: Sequence[str]) -> str:
    lines = ["rank  score       useful  candidate"]
    for i, r in enumerate(reports, 1):
        lines.append(f"{i:<6}{r.score:<12.6g}{'yes' if r.useful else 'no':<8}"
                     f"{r.candidate_description}")
    lines += [f"skipped: {s}" for s in skipped]
    return "\n".join(lines) + "\n"


def pretty_candidates(candidates: Sequence[RelabelingFn], skipped: Sequence[str]) -> str:
    lines = [fn.description for fn in candidates]
    lines += [f"skipped: {s}" for s in skipped]
    return "\n".join(lines) + "\n"
