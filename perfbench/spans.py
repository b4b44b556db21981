"""In-memory span tracer that wraps the package's public functions from outside.

A span is ``[name, start, end, parent_index]``.  Spans stay in a list for
the whole traced pass and are reduced once at the end; a span's self time
is its duration minus the part of it that its child spans cover.

Functions are wrapped where their callers look them up: every
``labelsplit.*`` module global bound to the original function object is
replaced, as is the method on every class defining it.  A hook whose module
or attribute no longer exists is skipped and its metrics are left out.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable

import checks


def _count(_args, result) -> tuple:
    return (len(result),)


def _one(_args, _result) -> tuple:
    return (1,)


def _fisher(args, result) -> tuple:
    # (hypergeometric support size, whether p underflowed to exactly 0.0)
    return (checks.support_size(*args[:4]), int(result == 0.0))


@dataclass(frozen=True)
class Hook:
    """One public function to time, as ``layer.function`` in ``module``."""

    span: str
    module: str
    attribute: str  # "function" or "Class.method"
    observe: Callable[[tuple, Any], tuple] | None = None


HOOKS = (
    Hook("ingest.parse_csv", "labelsplit.ingest", "parse_csv", _count),
    Hook("ingest.partition", "labelsplit.ingest", "partition"),
    Hook("relabel.apply", "labelsplit.relabel", "RelabelingFn.apply"),
    Hook("relabel.check_refinement", "labelsplit.relabel", "check_refinement"),
    Hook("relabel.extract_split_set", "labelsplit.relabel", "extract_split_set"),
    Hook("relabel.observed_parents", "labelsplit.relabel", "observed_parents"),
    Hook("ordering.relation_counts", "labelsplit.ordering", "relation_counts"),
    Hook("ordering.build_tables", "labelsplit.ordering", "build_tables", _count),
    Hook("stats.fisher_test", "labelsplit.stats", "fisher_test"),
    Hook("stats.fisher_exact_two_sided", "labelsplit.stats", "fisher_exact_two_sided",
         _fisher),
    Hook("gain.relative_information_gain", "labelsplit.gain",
         "relative_information_gain"),
    Hook("evaluate.evaluate", "labelsplit.evaluate", "evaluate", _one),
    Hook("evaluate.rank_candidates", "labelsplit.evaluate", "rank_candidates", _count),
    Hook("evaluate.generate_median_time_candidates", "labelsplit.evaluate",
         "generate_median_time_candidates"),
    Hook("cli._emit", "labelsplit.cli", "_emit"),
)
# the benchmark opens this span itself around each call of cli.main
ROOT_SPAN = "cli.main"

# per-layer metric -> (unit, how, spans, observation index)
#   self: summed self time; calls: span count; obs: summed observation
LAYER_METRICS = {
    "ingest.parse_csv_s": ("s", "self", ("ingest.parse_csv",), None),
    "ingest.partition_s": ("s", "self", ("ingest.partition",), None),
    "ingest.rows": ("count", "obs", ("ingest.parse_csv",), 0),
    "relabel.apply_s": ("s", "self", ("relabel.apply",), None),
    "relabel.apply_calls": ("count", "calls", ("relabel.apply",), None),
    "relabel.check_refinement_s": ("s", "self", ("relabel.check_refinement",), None),
    "relabel.extract_split_set_s": ("s", "self", ("relabel.extract_split_set",), None),
    "relabel.observed_parents_s": ("s", "self", ("relabel.observed_parents",), None),
    "ordering.relation_counts_s": ("s", "self", ("ordering.relation_counts",), None),
    "ordering.relation_counts_calls": ("count", "calls", ("ordering.relation_counts",),
                                       None),
    "ordering.build_tables_self_s": ("s", "self", ("ordering.build_tables",), None),
    "ordering.tables": ("count", "obs", ("ordering.build_tables",), 0),
    "stats.fisher_s": ("s", "self", ("stats.fisher_test",
                                     "stats.fisher_exact_two_sided"), None),
    "stats.fisher_tests": ("count", "calls", ("stats.fisher_exact_two_sided",), None),
    "stats.fisher_support_terms": ("count", "obs", ("stats.fisher_exact_two_sided",), 0),
    "stats.p_underflow": ("count", "obs", ("stats.fisher_exact_two_sided",), 1),
    "gain.rig_s": ("s", "self", ("gain.relative_information_gain",), None),
    "evaluate.self_s": ("s", "self", ("evaluate.evaluate", "evaluate.rank_candidates"),
                        None),
    "evaluate.candidates": ("count", "obs", ("evaluate.evaluate",
                                             "evaluate.rank_candidates"), 0),
    "evaluate.median_candidates_s": ("s", "self",
                                     ("evaluate.generate_median_time_candidates",), None),
    "cli.self_s": ("s", "self", (ROOT_SPAN,), None),
    "cli.emit_s": ("s", "self", ("cli._emit",), None),
}


def covered_length(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    covered = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def self_times(spans: list[list]) -> list[float]:
    """Self time of each span: its duration minus what its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [(end - start) - covered_length(children[i], start, end)
            for i, (_, start, end, _) in enumerate(spans)]


class Tracer:
    """Records spans of wrapped calls, nested by the call stack."""

    def __init__(self):
        self.spans: list[list] = []
        self.observations: dict[str, list[tuple]] = defaultdict(list)
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self.installed: set[str] = set()

    def wrap(self, name: str, fn: Callable, observe=None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observed = self.observations[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if observe is not None:
                observed.append(observe(args, result))
            return result

        return wrapper

    def install(self, hooks=HOOKS) -> list[str]:
        """Wrap every hook that exists; return the spans that were skipped."""
        skipped = []
        for hook in hooks:
            try:
                module = importlib.import_module(hook.module)
            except ImportError:
                skipped.append(hook.span)
                continue
            owner_name, _, attr = hook.attribute.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                skipped.append(hook.span)
                continue
            wrapper = self.wrap(hook.span, original, hook.observe)
            if owner_name:
                targets = [cls for cls in _with_subclasses(owner)
                           if cls.__dict__.get(attr) is original]
            else:
                targets = [mod for name, mod in list(sys.modules.items())
                           if name.split(".")[0] == "labelsplit" and mod is not None
                           and getattr(mod, attr, None) is original]
            for target in targets:
                self._patches.append((target, attr, original))
                setattr(target, attr, wrapper)
            self.installed.add(hook.span)
        return skipped

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()
        for values in self.observations.values():
            values.clear()

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the spans recorded since the last reset.

        A metric whose spans were never installed is left out.
        """
        own = Counter()
        calls = Counter()
        for (name, *_), self_s in zip(self.spans, self_times(self.spans)):
            own[name] += self_s
            calls[name] += 1
        available = self.installed | {ROOT_SPAN}
        out = {}
        for metric, (unit, how, names, index) in LAYER_METRICS.items():
            if not set(names) <= available:
                continue
            if how == "self":
                value = sum(own[n] for n in names)
            elif how == "calls":
                value = sum(calls[n] for n in names)
            else:
                value = sum(obs[index] for n in names for obs in self.observations[n])
            out[metric] = (value, unit)
        return out


def _with_subclasses(cls: type) -> list[type]:
    out, todo = [], [cls]
    while todo:
        current = todo.pop()
        out.append(current)
        todo.extend(current.__subclasses__())
    return out


class LabelCallCounter:
    """Counts calls of a class's ``__hash__`` and ``__eq__`` while installed."""

    def __init__(self, cls: type):
        self.cls = cls
        self.hash_calls = 0
        self.eq_calls = 0
        self._originals = (cls.__dict__["__hash__"], cls.__dict__["__eq__"])

    @classmethod
    def for_package(cls) -> "LabelCallCounter | None":
        """A counter for ``labelsplit.model.Label``, or None if it is gone."""
        label = getattr(importlib.import_module("labelsplit.model"), "Label", None)
        if label is None or not {"__hash__", "__eq__"} <= label.__dict__.keys():
            return None
        return cls(label)

    def __enter__(self) -> "LabelCallCounter":
        orig_hash, orig_eq = self._originals

        def counted_hash(label):
            self.hash_calls += 1
            return orig_hash(label)

        def counted_eq(label, other):
            self.eq_calls += 1
            return orig_eq(label, other)

        self.cls.__hash__ = counted_hash
        self.cls.__eq__ = counted_eq
        return self

    def __exit__(self, *exc) -> None:
        self.cls.__hash__, self.cls.__eq__ = self._originals
