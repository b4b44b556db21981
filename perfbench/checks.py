"""Correctness checks on the CLI's outputs, independent of the package.

Nothing here imports ``labelsplit``: ordering counts are recounted from the
generator's own label sequences, and Fisher p-values are recomputed with
``math.lgamma`` in log space.  Each check returns a list of problems; an
empty list means the output is correct.
"""

from __future__ import annotations

import csv
import io
import math
import random
from collections import Counter
from typing import Sequence

ALPHA = 0.01
DEFAULT_RELATIONS = ("directly_follows", "directly_precedes",
                     "eventually_follows", "eventually_precedes")
ALL_RELATIONS = DEFAULT_RELATIONS + ("length_two_loop",)
# the package's relative slack when comparing hypergeometric point masses
_TIE_SLACK = 1e-7
# p-values below this are not representable with full precision
_SMALLEST_COMPARABLE_P = 1e-300
_P_REL_TOL = 1e-6
# printed floats carry 12 significant digits
_PRINT_REL_TOL = 1e-11


def count_all(sequences: Sequence[Sequence[str]]) -> Counter:
    """Occurrences of b satisfying each relation against c, keyed by
    (relation, b, c), by a direct scan of every sequence.

    Labels never seen in a relation with b are absent (count 0).
    """
    pos: Counter = Counter()
    for seq in sequences:
        n = len(seq)
        first: dict[str, int] = {}
        last: dict[str, int] = {}
        for i, label in enumerate(seq):
            first.setdefault(label, i)
            last[label] = i
        for i, b in enumerate(seq):
            if i + 1 < n:
                pos["directly_precedes", b, seq[i + 1]] += 1
            if i > 0:
                pos["directly_follows", b, seq[i - 1]] += 1
            if i + 2 < n and seq[i + 2] == b and seq[i + 1] != b:
                pos["length_two_loop", b, seq[i + 1]] += 1
            for c, at in first.items():
                if at < i:
                    pos["eventually_follows", b, c] += 1
            for c, at in last.items():
                if at > i:
                    pos["eventually_precedes", b, c] += 1
    return pos


def fisher_log_p(a1_pos: int, a1_neg: int, a2_pos: int, a2_neg: int) -> float:
    """Natural log of the two-sided Fisher p-value of [[a1_pos, a2_pos],
    [a1_neg, a2_neg]]: the summed point masses no larger than the observed
    one (within the same relative slack the package uses)."""
    n1 = a1_pos + a1_neg
    n2 = a2_pos + a2_neg
    r = a1_pos + a2_pos
    total = n1 + n2
    if total == 0:
        return 0.0
    const = (math.lgamma(n1 + 1) + math.lgamma(n2 + 1) + math.lgamma(r + 1)
             + math.lgamma(total - r + 1) - math.lgamma(total + 1))

    def log_mass(x: int) -> float:
        return const - (math.lgamma(x + 1) + math.lgamma(n1 - x + 1)
                        + math.lgamma(r - x + 1) + math.lgamma(n2 - r + x + 1))

    cutoff = log_mass(a1_pos) + math.log1p(_TIE_SLACK)
    terms = [lm for lm in map(log_mass, range(max(0, r - n2), min(r, n1) + 1))
             if lm <= cutoff]
    top = max(terms)
    return min(0.0, top + math.log(math.fsum(math.exp(t - top) for t in terms)))


def support_size(a1_pos: int, a1_neg: int, a2_pos: int, a2_neg: int) -> int:
    """Number of tables with the same margins: the hypergeometric support."""
    n1 = a1_pos + a1_neg
    n2 = a2_pos + a2_neg
    r = a1_pos + a2_pos
    return min(r, n1) - max(0, r - n2) + 1


def _close(a: float, b: float, rel_tol: float = _PRINT_REL_TOL) -> bool:
    return math.isclose(a, b, rel_tol=rel_tol, abs_tol=0.0)


def check_report(report: dict, occurrences: Counter, counts: Counter,
                 relations: Sequence[str], rng: random.Random,
                 p_samples: int) -> list[str]:
    """Check one evaluation report (from ``evaluate`` or one ``scan`` entry)
    against the label ``occurrences`` and ``count_all`` of the base log.

    Every context label is left alone by the split here, so each table's
    parent column must be the sum of its child columns.
    """
    name = report.get("candidate", "?")
    problems = []
    tests = report["tests"]
    m = report["m_tests"]
    pairs = report["split_pairs"]
    if len(tests) != m:
        problems.append(f"{name}: m_tests={m} but {len(tests)} tests listed")
    if not pairs:
        if m != 0 or report["corrected_alpha"] != ALPHA or report["useful"]:
            problems.append(f"{name}: non-strict refinement must have no tests")
        return problems
    if len(pairs) != 1 or len(pairs[0]["children"]) != 2:
        return problems + [f"{name}: expected one parent split in two, got {pairs}"]
    parent = pairs[0]["parent"][0]
    contexts = len(occurrences) - 1
    if m != len(relations) * contexts:
        problems.append(f"{name}: m_tests={m}, expected {len(relations)} relations "
                        f"x {contexts} contexts x 1 pair")
    if not _close(report["corrected_alpha"], ALPHA / m):
        problems.append(f"{name}: corrected_alpha {report['corrected_alpha']} "
                        f"!= alpha/m = {ALPHA / m}")
    seen = Counter((t["relation"], tuple(t["context"])) for t in tests)
    if set(r for r, _ in seen) != set(relations) or max(seen.values(), default=1) > 1:
        problems.append(f"{name}: each relation x context must be tested once")

    child_totals = set()
    for t in tests:
        (p1, n1), (p2, n2), (pp, pn) = t["table"]["a1"], t["table"]["a2"], t["table"]["parent"]
        if (pp, pn) != (p1 + p2, n1 + n2):
            problems.append(f"{name}: {t['relation']}/{t['context']}: parent "
                            f"{[pp, pn]} != a1 + a2 {[p1 + p2, n1 + n2]}")
        expected = counts[t["relation"], parent, t["context"][0]]
        if (pp, pn) != (expected, occurrences[parent] - expected):
            problems.append(f"{name}: {t['relation']}/{t['context']}: parent column "
                            f"{[pp, pn]}, recount {[expected, occurrences[parent] - expected]}")
        child_totals.add((p1 + n1, p2 + n2))
        if t["significant"] != (t["p"] < report["corrected_alpha"]):
            problems.append(f"{name}: significant flag disagrees with p < alpha")
    if len(child_totals) > 1:
        problems.append(f"{name}: child column totals differ between tables")

    for t in rng.sample(tests, min(p_samples, len(tests))):
        (p1, n1), (p2, n2) = t["table"]["a1"], t["table"]["a2"]
        ref_p = math.exp(fisher_log_p(p1, n1, p2, n2))
        if ref_p >= _SMALLEST_COMPARABLE_P and not _close(t["p"], ref_p, _P_REL_TOL):
            problems.append(f"{name}: {t['relation']}/{t['context']}: p={t['p']!r}, "
                            f"recomputed {ref_p!r}")

    significant = any(t["significant"] for t in tests)
    if report["useful"] != significant:
        problems.append(f"{name}: useful={report['useful']} but any-significant="
                        f"{significant}")
    expected_score = report["entropy"]["rig"] if report["useful"] else 0.0
    if not _close(report["score"], expected_score):
        problems.append(f"{name}: score {report['score']} != {expected_score}")
    return problems


def check_scan(doc: dict, sequences: Sequence[Sequence[str]], rng: random.Random,
               p_samples: int = 40) -> list[str]:
    """Ranking order, candidate coverage and every report of a scan."""
    problems = []
    reports = doc["candidates"]
    keys = [(-r["score"], r["candidate"]) for r in reports]
    if keys != sorted(keys):
        problems.append("scan: candidates not sorted by (-score, description)")
    occurrences = Counter(label for seq in sequences for label in seq)
    counts = count_all(sequences)
    labels = set(occurrences)
    covered = [r["split_pairs"][0]["parent"][0] for r in reports if r["split_pairs"]]
    if len(set(covered)) != len(covered) or not set(covered) <= labels:
        problems.append("scan: split parents are not distinct log labels")
    if len(reports) + len(doc["skipped_labels"]) != len(labels):
        problems.append(f"scan: {len(reports)} candidates + "
                        f"{len(doc['skipped_labels'])} skipped != {len(labels)} labels")
    sampled = set(rng.sample(range(len(reports)), min(p_samples, len(reports))))
    for i, report in enumerate(reports):
        problems += check_report(report, occurrences, counts, DEFAULT_RELATIONS, rng,
                                 p_samples=1 if i in sampled else 0)
    return problems


def check_evaluate(doc: dict, sequences: Sequence[Sequence[str]],
                   refined: Sequence[Sequence[tuple[str, str]]], parent: str,
                   children: Sequence[Sequence[str]], rng: random.Random,
                   p_samples: int = 20) -> list[str]:
    """One refinement of ``parent`` into exactly ``children``; ``refined``
    holds the same traces under the refined labels."""
    problems = []
    expected_pairs = [{"parent": [parent], "children": [list(c) for c in sorted(children)]}]
    if doc["split_pairs"] != expected_pairs:
        problems.append(f"evaluate: split pairs {doc['split_pairs']} != {expected_pairs}")
    occurrences = Counter(label for seq in sequences for label in seq)
    problems += check_report(doc, occurrences, count_all(sequences),
                             DEFAULT_RELATIONS, rng, p_samples)
    refined_occurrences = Counter(label for seq in refined for label in seq)
    refined_counts = count_all(refined)
    for t in doc["tests"]:
        if t["pair"] != expected_pairs[0]["children"]:
            problems.append(f"evaluate: test pair {t['pair']} is not the split's children")
        context = tuple(t["context"])
        for column, child in zip(("a1", "a2"), t["pair"]):
            child = tuple(child)
            pos = refined_counts[t["relation"], child, context]
            if t["table"][column] != [pos, refined_occurrences[child] - pos]:
                problems.append(f"evaluate: {t['relation']}/{t['context']}: {column} "
                                f"{t['table'][column]} for {list(child)}, recount "
                                f"{[pos, refined_occurrences[child] - pos]}")
    return problems


def check_stats_csv(text: str, sequences: Sequence[Sequence[str]],
                    relations: Sequence[str]) -> list[str]:
    """Every (relation, b, c) row once, pos + neg == occurrences of b, and
    every pos recounted."""
    problems = []
    reader = csv.reader(io.StringIO(text))
    if next(reader, None) != ["relation", "b", "c", "pos", "neg"]:
        return ["stats: bad header"]
    occurrences = Counter(label for seq in sequences for label in seq)
    counts = count_all(sequences)
    rows = [(relation, b, c, int(pos), int(neg)) for relation, b, c, pos, neg in reader]
    keys = [(r, b, c) for r, b, c, _, _ in rows]
    expected = {(r, b, c) for r in relations for b in occurrences for c in occurrences
                if b != c}
    if len(keys) != len(expected) or set(keys) != expected:
        problems.append(f"stats: {len(keys)} rows, expected each of {len(expected)} "
                        "(relation, b, c) once")
    for relation, b, c, pos, neg in rows:
        if pos < 0 or neg < 0 or pos + neg != occurrences[b]:
            problems.append(f"stats: {relation},{b},{c}: pos + neg = {pos + neg}, "
                            f"{b} occurs {occurrences[b]} times")
        elif pos != counts[relation, b, c]:
            problems.append(f"stats: {relation},{b},{c}: pos {pos}, recount "
                            f"{counts[relation, b, c]}")
    return problems
