"""Entropy and relative information gain over contingency tables.

Each table contributes a before-split entropy (binary entropy of the parent
column's pos proportion) and an after-split conditional entropy (the
occurrence-weighted average of the child columns' entropies).  Summing both
over every table of a candidate gives the total entropies; the information
gain is their difference and the relative information gain divides it by
the before-split total.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from .model import Record
from .ordering import ContingencyTable, PairTables


def binary_entropy(p: float) -> float:
    """Binary entropy in bits, with the 0 * log2(0) = 0 convention."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def table_entropies(table: ContingencyTable) -> tuple[float, float]:
    """(before-split, after-split) entropy of one table, in bits.

    Before: binary entropy of the parent column's proportion.  After: the
    weighted average of the child-column entropies, weights being each
    child's share of the parent total.  A table whose parent column is
    empty contributes (0, 0); an empty child column contributes 0.
    """
    a1, a2, parent = table.col_a1, table.col_a2, table.parent_col
    return _entropies(parent.pos, parent.total, a1.pos, a1.total, a2.pos, a2.total)


def _entropies(p: int, n: int, p1: int, n1: int, p2: int, n2: int) -> tuple[float, float]:
    """``table_entropies`` of the table whose parent, a1 and a2 columns
    have pos p, p1 and p2 out of n, n1 and n2."""
    if n == 0:
        return 0.0, 0.0
    h_before = binary_entropy(p / n)
    h_after = 0.0
    if n1:
        h_after += n1 / n * binary_entropy(p1 / n1)
    if n2:
        h_after += n2 / n * binary_entropy(p2 / n2)
    return h_before, h_after


class EntropyBreakdown(Record):
    """Entropy accounting for one candidate refinement."""

    __slots__ = ("total_before", "total_after", "information_gain",
                 "relative_information_gain")

    def __init__(self, total_before: float, total_after: float, information_gain: float,
                 relative_information_gain: float):
        super().__init__(total_before, total_after, information_gain, relative_information_gain)


def relative_information_gain(tables: Iterable[ContingencyTable | PairTables],
                              entropies: dict[tuple[int, int], float] | None = None
                              ) -> EntropyBreakdown:
    """Aggregate the entropies of all tables of one candidate.

    Each item of ``tables`` is one table, or a PairTables that stands for
    all of its tables.  The relative information gain is (total_before -
    total_after) / total_before, defined as 0 when there is no
    before-split entropy to reduce.

    ``entropies`` maps (pos, n) to ``binary_entropy(pos / n)`` and is
    filled as it is read, so a caller that scores several candidates may
    pass all of them one dict; without it the call makes its own.  Each
    table's sums are those of ``table_entropies``, in the same order.
    """
    if entropies is None:
        entropies = {}
    get = entropies.get
    total_before = 0.0
    total_after = 0.0
    for block in (t if isinstance(t, PairTables) else PairTables.of(t) for t in tables):
        n, n1, n2 = block.n, block.n1, block.n2
        if n == 0:  # every table contributes (0, 0)
            continue
        # (p, p1, p2) -> its entropies, each computed once per block: the
        # block fixes n, n1 and n2
        sums: dict[tuple[int, int, int], tuple[float, float]] = {}
        for parent_pos, a1_pos, a2_pos in zip(block.parent_pos, block.a1_pos, block.a2_pos):
            for key in zip(parent_pos, a1_pos, a2_pos):
                before_after = sums.get(key)
                if before_after is None:
                    p, p1, p2 = key
                    h_before = get((p, n))
                    if h_before is None:
                        h_before = entropies[p, n] = binary_entropy(p / n)
                    h_after = 0.0
                    if n1:
                        h = get((p1, n1))
                        if h is None:
                            h = entropies[p1, n1] = binary_entropy(p1 / n1)
                        h_after += n1 / n * h
                    if n2:
                        h = get((p2, n2))
                        if h is None:
                            h = entropies[p2, n2] = binary_entropy(p2 / n2)
                        h_after += n2 / n * h
                    before_after = sums[key] = (h_before, h_after)
                total_before += before_after[0]
                total_after += before_after[1]
    gain = total_before - total_after
    rig = gain / total_before if total_before > 0.0 else 0.0
    return EntropyBreakdown(
        total_before=total_before,
        total_after=total_after,
        information_gain=gain,
        relative_information_gain=rig,
    )
