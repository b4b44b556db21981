"""Fisher's exact test on 2x2 tables and multiple-testing correction.

The two-sided p-value follows the sum-of-small-p definition: over all
tables with the observed margins, sum the hypergeometric point
probabilities that do not exceed the observed one (with a relative slack of
1e-7 for ties).  ``fisher_p_values`` takes many tables at once and makes
one pass per margin: in exact integers for a small margin, and for a large
one by a float walk outward from each table, with every term relative to
the table's own probability, so large counts cannot overflow.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import defaultdict
from collections.abc import Iterable, Sequence
from itertools import accumulate, chain
from operator import index, mul

from .model import Label, Record, replace
from .ordering import ContingencyTable, LazySequence, OrderingRelation, PairTables

# Relative slack when comparing point probabilities for the two-sided sum:
# 1e-7, kept as its reciprocal for the exact comparison.
_TIE_SLACK_DENOMINATOR = 10 ** 7
_TIE_SLACK = 1 / _TIE_SLACK_DENOMINATOR

# Margins of at most this many observations (n1 + n2) are summed in exact
# integers, larger ones walked per table.  The exact pass costs about the
# same for any number of tables on a margin: with one table it breaks even
# with the walk near N = 160, with three (as in a scan) near N = 512-768.
_EXACT_TOTAL = 400

# Terms are P(x) / P(observed) in units of 2**-64, so the tables between the
# two tails, up to 2**1074 times likelier than a subnormal observed one, stay finite.
_UNIT = 2.0 ** -64


def fisher_p_values(tables: Iterable[tuple[int, int, int, int]]
                    ) -> dict[tuple[int, int, int, int], float]:
    """Two-sided Fisher exact p of each table (a1_pos, a1_neg, a2_pos, a2_neg),
    keyed by the table.

    Tables are grouped by their margins (n1, n2, r).  A margin of at most
    ``_EXACT_TOTAL`` observations (n1 + n2) is summed once in exact
    integers (``_exact``), so each of its p is the exact rational p rounded
    once; a larger margin takes the float walk (``_walk``) per table.  A
    count that is not an integer (``operator.index`` refuses it) or is
    negative raises ValueError.
    """
    tables = list(tables)
    margins: dict[tuple[int, int, int], list[tuple[int, int, int, int]]] = defaultdict(list)
    try:
        for table in tables:
            a1_pos, a1_neg, a2_pos, a2_neg = table
            margins[a1_pos + a1_neg, a2_pos + a2_neg, a1_pos + a2_pos].append(table)
        # a sum is an int only when both its terms are (or are bools)
        typed = all(type(n1) is int and type(n2) is int for n1, n2, _ in margins)
    except TypeError:  # counts that do not add up, such as a str
        typed = False
    if not typed:
        return fisher_p_values([tuple(map(_index, table)) for table in tables])
    if min(chain.from_iterable(tables), default=0) < 0:
        raise ValueError("counts must be nonnegative")
    binomials = _Binomials()
    p: dict[tuple[int, int, int, int], float] = {}
    for (n1, n2, r), group in margins.items():
        if n1 + n2 > _EXACT_TOTAL:
            for table in group:
                p[table] = _walk(*table)
        else:
            p.update(zip(group, _exact(binomials, n1, n2, r, group)))
    return p


def fisher_exact_two_sided(a1_pos: int, a1_neg: int, a2_pos: int, a2_neg: int) -> float:
    """Two-sided Fisher exact p-value for the 2x2 table

        [[a1_pos, a2_pos],
         [a1_neg, a2_neg]]

    as ``fisher_p_values`` computes it.  An all-zero table yields p = 1 by
    convention (no evidence either way).  The result is in [0, 1].
    """
    table = (a1_pos, a1_neg, a2_pos, a2_neg)
    return fisher_p_values((table,))[table]


def _index(count) -> int:
    try:
        return index(count)
    except TypeError:
        raise ValueError(f"counts must be integers, got {count!r}") from None


class _Binomials(dict):
    """C(n, k) for k = 0..n, keyed by n, built on first use."""

    def __missing__(self, n: int) -> list[int]:
        # C(n, k + 1) = C(n, k) * (n - k) / (k + 1), exactly
        row = self[n] = list(accumulate(range(n), lambda c, k: c * (n - k) // (k + 1),
                                        initial=1))
        return row


def _exact(binomials: _Binomials, n1: int, n2: int, r: int,
           tables: Sequence[tuple[int, int, int, int]]) -> list[float]:
    """p of each of ``tables``, all on the margin (n1, n2, r).

    Term x of the support is C(n1, x) * C(n2, r - x), an integer.  Sorted,
    with prefix sums, the terms within the tie slack of a table's own are a
    prefix found by one bisect; its p is their sum over the sum of all
    terms, C(n1 + n2, r).
    """
    lo, hi = max(0, r - n2), min(r, n1)
    # C(n2, r - x) = C(n2, n2 - r + x): one ascending slice of row n2
    terms = list(map(mul, binomials[n1][lo:hi + 1], binomials[n2][n2 - r + lo:n2 - r + hi + 1]))
    # the terms rise to the mode and fall after it: sorting merges two runs
    ordered = sorted(terms)
    sums = [0, *accumulate(ordered)]
    total = sums[-1]
    # t <= term * (1 + 1 / d) exactly when t <= term + term // d, for integer t
    return [sums[bisect_right(ordered, term + term // _TIE_SLACK_DENOMINATOR)] / total
            for term in [terms[table[0] - lo] for table in tables]]


def _walk(a1_pos: int, a1_neg: int, a2_pos: int, a2_neg: int) -> float:
    """Two-sided p of one table with n1 + n2 > 0, by a float walk outward
    from it: for a large margin, whose exact terms cost more than the walk."""
    n1 = a1_pos + a1_neg
    n2 = a2_pos + a2_neg
    r = a1_pos + a2_pos
    total = n1 + n2
    lg = math.lgamma
    p_observed = math.exp(lg(n1 + 1) + lg(n2 + 1) + lg(r + 1) + lg(total - r + 1)
                          - lg(total + 1) - lg(a1_pos + 1) - lg(a1_neg + 1)
                          - lg(a2_pos + 1) - lg(a2_neg + 1))
    if p_observed == 0.0:
        return 0.0  # underflow: no included table is likelier than this one
    cutoff = (1.0 + _TIE_SLACK) * _UNIT
    negligible = _UNIT * 2.0 ** -60
    terms = [_UNIT]
    excluded = False
    # Walk up in a1_pos, then up in a2_pos (down in a1_pos, columns swapped).
    # The term ratio falls as x grows (the pmf is log-concave), so after a
    # kept term t with ratio < 1 the rest of the walk sums to at most
    # t * ratio / (1 - ratio); while ratio >= 1 the stop test cannot pass.
    for x, m, n in ((a1_pos, n1, n2), (a2_pos, n2, n1)):
        t, end = _UNIT, min(r, m)
        while x < end:
            ratio = (m - x) * (r - x) / ((x + 1) * (n - r + x + 1))
            x += 1
            t *= ratio
            if t > cutoff:
                excluded = True
            else:
                terms.append(t)
                if t * ratio <= (1.0 - ratio) * negligible:
                    break
    if not excluded:
        return 1.0  # every table included: the sum is 1 by definition
    p = p_observed * (math.fsum(terms) / _UNIT)
    return min(1.0, max(0.0, p))


def check_alpha(alpha: float) -> float:
    """``alpha``; ValueError naming it unless it is an int or a float in (0, 1)."""
    if not isinstance(alpha, (int, float)) or not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
    return alpha


def bonferroni_threshold(alpha: float, m: int) -> float:
    """Per-test significance threshold keeping the familywise rate at alpha."""
    check_alpha(alpha)
    if m < 1:
        raise ValueError(f"test count must be >= 1, got {m}")
    return alpha / m


class CorrectionPolicy(Record):
    """Multiple-testing correction: which kind and over which test family.

    ``per_candidate`` divides alpha by the number of tests run for one
    candidate refinement; ``per_candidate_set`` spans every test of a whole
    candidate scan.
    """

    __slots__ = ("kind", "family_scope")

    def __init__(self, kind: str = "bonferroni", family_scope: str = "per_candidate"):
        if kind not in ("none", "bonferroni"):
            raise ValueError(f"unknown correction kind {kind!r}")
        if family_scope not in ("per_candidate", "per_candidate_set"):
            raise ValueError(f"unknown family scope {family_scope!r}")
        super().__init__(kind, family_scope)

    def threshold(self, alpha: float, m: int) -> float:
        if self.kind == "bonferroni" and m >= 1:
            return bonferroni_threshold(alpha, m)
        return alpha


class TestResult(Record):
    """Outcome of one Fisher test on one contingency table."""

    __slots__ = ("relation", "context_label", "pair", "p_value", "corrected_alpha",
                 "significant", "table")

    def __init__(self, relation: OrderingRelation, context_label: Label,
                 pair: tuple[Label, Label], p_value: float, corrected_alpha: float,
                 significant: bool, table: ContingencyTable):
        if significant != (p_value < corrected_alpha):
            raise ValueError("significant must equal p_value < corrected_alpha")
        super().__init__(relation, context_label, pair, p_value, corrected_alpha,
                         significant, table)


def fisher_test(table: ContingencyTable, corrected_alpha: float) -> TestResult:
    p = fisher_exact_two_sided(table.col_a1.pos, table.col_a1.neg,
                               table.col_a2.pos, table.col_a2.neg)
    return TestResult(
        relation=table.relation,
        context_label=table.context_label,
        pair=(table.a1, table.a2),
        p_value=p,
        corrected_alpha=corrected_alpha,
        significant=p < corrected_alpha,
        table=table,
    )


class PairTests(LazySequence):
    """The ``TestResult`` of each table of a run of PairTables ``blocks``,
    built on access: ``p_values[b][k]`` is the p of table k of block b,
    tested at ``alphas[b]``."""

    __slots__ = ("blocks", "p_values", "alphas", "_ends")

    def __init__(self, blocks: Iterable[PairTables], p_values: Sequence[Sequence[float]],
                 alphas: Sequence[float]):
        self.blocks = tuple(blocks)
        self.p_values, self.alphas = p_values, alphas
        self._ends = list(accumulate(map(len, self.blocks)))

    @classmethod
    def of(cls, tests: Iterable[TestResult]) -> "PairTests":
        """``tests``, each one block of its one table, named by the test's
        relation, context label and pair (as ``to_json_dict`` names it)."""
        tests = list(tests)
        blocks = [PairTables.of(replace(t.table, relation=t.relation,
                                        context_label=t.context_label, a1=t.pair[0],
                                        a2=t.pair[1]))
                  for t in tests]
        return cls(blocks, [[t.p_value] for t in tests], [t.corrected_alpha for t in tests])

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def _item(self, i: int) -> TestResult:
        b = bisect_right(self._ends, i)
        k = i - self._ends[b - 1] if b else i
        table = self.blocks[b][k]
        p, alpha = self.p_values[b][k], self.alphas[b]
        return TestResult(table.relation, table.context_label, (table.a1, table.a2), p, alpha,
                          p < alpha, table)
