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
from .stats import TestResult

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
    """Label parts -> the JSON text of that label's parts at one indent,
    written on first use."""

    def __init__(self, labels: dict[tuple, Label], pad: str):
        super().__init__()
        self.labels, self.pad = labels, pad

    def __missing__(self, key: tuple) -> str:
        text = self[key] = json_text(self.labels[key].json_parts(), self.pad)
        return text


class TestRecords:
    """A report's "tests" list as ``json_text`` writes the test dicts of
    ``EvaluationReport.to_json_dict``, from one template per test and with
    no dict built."""

    __slots__ = ("tests",)

    def __init__(self, tests: Sequence[TestResult]):
        self.tests = tests

    def json_text(self, pad: str) -> str:
        tests = self.tests
        if not tests:
            return "[]"
        end = pad + "  "  # closes each record
        i1, i2, i3 = end + "  ", end + "    ", end + "      "
        # as in to_json_dict, labels of equal parts share the last one's text
        labels = {label.parts: label for t in tests for label in (t.context_label, *t.pair)}
        contexts, members = _LabelTexts(labels, i1), _LabelTexts(labels, i2)
        relations = {relation: encode_basestring(relation.value)
                     for relation in {t.relation for t in tests}}
        records = []
        for t in tests:
            a, b = t.pair
            table = t.table
            a1, a2, parent = table.col_a1, table.col_a2, table.parent_col
            records.append(
                f'{{{i1}"relation": {relations[t.relation]},'
                f'{i1}"context": {contexts[t.context_label.parts]},'
                f'{i1}"pair": [{i2}{members[a.parts]},{i2}{members[b.parts]}{i1}],'
                f'{i1}"table": {{{i2}"a1": [{i3}{a1.pos},{i3}{a1.neg}{i2}],'
                f'{i2}"a2": [{i3}{a2.pos},{i3}{a2.neg}{i2}],'
                f'{i2}"parent": [{i3}{parent.pos},{i3}{parent.neg}{i2}]{i1}}},'
                f'{i1}"p": {_float_text(t.p_value)},'
                f'{i1}"significant": {"true" if t.significant else "false"}{end}}}')
        return f"[{end}{(',' + end).join(records)}{pad}]"


def report_doc(report: EvaluationReport) -> dict:
    """``report.to_json_dict()`` with its tests as ``TestRecords``: the
    same text under ``json_text``."""
    return report.json_fields(TestRecords(report.tests))


def human_label(label: Label) -> str:
    if any("+" in str(part) for part in label.parts):
        return "+".join(f'"{part}"' for part in label.parts)
    return str(label)


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
