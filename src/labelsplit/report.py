"""Report text: the JSON documents and ``--pretty`` views the CLI writes.

``json_text`` writes a JSON document in one pass.  A node in the document
that has a ``json_text(pad)`` method writes itself: ``report_doc`` puts an
evaluation report's tests in its document as such a node
(``TestRecords``), which writes each test record from one template with
no dict built per test.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
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


def json_text(value: Any, pad: str = "\n") -> str:
    """``json.dumps(value, ensure_ascii=False, indent=2)``, written in one
    pass with every float value fixed at 12 significant digits, so output
    is reproducible.  ``pad`` is the newline and indent that close
    ``value``: each container is one join of its items' texts.  Any other
    value that has a ``json_text(pad)`` method is written by it."""
    if isinstance(value, str):
        return encode_basestring(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        return f"[{inner}{(',' + inner).join([json_text(v, inner) for v in value])}{pad}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        items = [f"{_key_text(k)}: {json_text(v, inner)}" for k, v in value.items()]
        return f"{{{inner}{(',' + inner).join(items)}{pad}}}"
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
    write = getattr(value, "json_text", None)
    if write is not None:
        return write(pad)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


class _LabelTexts(dict):
    """Key -> the JSON text of the parts of ``labels[key]`` at one indent,
    written on first use."""

    def __init__(self, labels: dict[Any, Label], pad: str):
        super().__init__()
        self.labels, self.pad = labels, pad

    def __missing__(self, key: Any) -> str:
        text = self[key] = json_text(self.labels[key].json_parts(), self.pad)
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

    def json_text(self, pad: str) -> str:
        tests = self.tests
        if not tests:
            return "[]"
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
        records = []
        for block, ps, alpha in zip(tests.blocks, tests.p_values, tests.alphas):
            if not block:
                continue
            pair = (f'{i1}"pair": [{i2}{members[block.a1.parts]},'
                    f'{i2}{members[block.a2.parts]}{i1}],')
            n1, n2, n = block.n1, block.n2, block.n
            names = [contexts[c.parts] for c in block.contexts]
            p_at = iter(ps)
            for relation, a1_pos, a2_pos, parent_pos in zip(
                    block.relations, block.a1_pos, block.a2_pos, block.parent_pos):
                head = f'{{{i1}"relation": {encode_basestring(relation.value)},{i1}"context": '
                for name, x, y, z, p in zip(names, a1_pos, a2_pos, parent_pos, p_at):
                    records.append(
                        f'{head}{name},{pair}'
                        f'{i1}"table": {{{i2}"a1": [{i3}{x},{i3}{n1 - x}{i2}],'
                        f'{i2}"a2": [{i3}{y},{i3}{n2 - y}{i2}],'
                        f'{i2}"parent": [{i3}{z},{i3}{n - z}{i2}]{i1}}},'
                        f'{i1}"p": {p_texts[p]},'
                        f'{i1}"significant": {"true" if p < alpha else "false"}{end}}}')
        return f"[{end}{(',' + end).join(records)}{pad}]"


class StatsRows:
    """The "rows" list of ``stats --format json`` as ``json_text`` writes
    the row dicts ``{"relation", "b", "c", "pos", "neg"}``, from one
    template per row and with no dict built.

    ``cells`` yields (relation name, b code, c code, pos, neg), the codes
    indexing ``labels``; it is read once, so the rows are written once.
    """

    __slots__ = ("labels", "cells")

    def __init__(self, labels: Sequence[Label], cells: Iterable[tuple[str, int, int, int, int]]):
        self.labels, self.cells = labels, cells

    def json_text(self, pad: str) -> str:
        end = pad + "  "  # closes each row
        i1 = end + "  "
        labels = dict(enumerate(self.labels))
        names = _LabelTexts(labels, i1)
        rows = [f'{{{i1}"relation": {encode_basestring(relation)},{i1}"b": {names[b]},'
                f'{i1}"c": {names[c]},{i1}"pos": {pos},{i1}"neg": {neg}{end}}}'
                for relation, b, c, pos, neg in self.cells]
        if not rows:
            return "[]"
        return f"[{end}{(',' + end).join(rows)}{pad}]"


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
