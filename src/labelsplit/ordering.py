"""Log-based ordering statistics and contingency tables.

Every occurrence of a source label b is classified, per relation and context
label c, as satisfying the relation (pos) or not (neg), so pos + neg always
equals the number of occurrences of b in the log.  The relations:

  directly_precedes(b, c)    b at position i, c at i+1
  directly_follows(b, c)     b at position i, c at i-1
  eventually_precedes(b, c)  b at position i, c at some j > i
  eventually_follows(b, c)   b at position i, c at some j < i
  length_two_loop(b, c)      b at i, c at i+1, b at i+2, with b != c

The 2x2-plus-margin contingency table compares two refined labels a1, a2
against a context label b, alongside the same statistic for their common
coarse label taken from the unrefined log.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .model import EventLog, InternedLog, Label
from .relabel import SplitPair, _Pairing


class OrderingRelation(Enum):
    DIRECTLY_FOLLOWS = "directly_follows"
    DIRECTLY_PRECEDES = "directly_precedes"
    EVENTUALLY_FOLLOWS = "eventually_follows"
    EVENTUALLY_PRECEDES = "eventually_precedes"
    LENGTH_TWO_LOOP = "length_two_loop"

    def __str__(self) -> str:
        return self.value


# length_two_loop is opt-in; the default set matches the four statistics the
# evaluation normally tests.
DEFAULT_RELATIONS: tuple[OrderingRelation, ...] = (
    OrderingRelation.DIRECTLY_FOLLOWS,
    OrderingRelation.DIRECTLY_PRECEDES,
    OrderingRelation.EVENTUALLY_FOLLOWS,
    OrderingRelation.EVENTUALLY_PRECEDES,
)


@dataclass(frozen=True, slots=True)
class OrderingCounts:
    """Occurrences of a source label that do (pos) / do not (neg) satisfy a
    relation with respect to a context label."""

    pos: int
    neg: int

    @property
    def total(self) -> int:
        return self.pos + self.neg

    def __add__(self, other: "OrderingCounts") -> "OrderingCounts":
        return OrderingCounts(self.pos + other.pos, self.neg + other.neg)


def _hits(rows: Iterable[Sequence[int]], size: int, relation: OrderingRelation,
          sources: Sequence[int] | None = None) -> list[Counter | None]:
    """hits[b][c]: occurrences of code b that satisfy the relation against c.

    Only the codes in ``sources`` (every code when None) get a row; the row
    of any other code is None, though its occurrences still count as
    contexts of the others.

    eventually_precedes is eventually_follows on the reversed row.  An
    occurrence of b eventually follows c when it comes after c's first
    occurrence, so a trace with more source occurrences than distinct
    labels adds, per distinct c, the labels after c's first occurrence to
    a column of c: O(distinct labels * |trace|), counted in C.  The columns
    are moved into the source rows once per log.  Any other trace adds the
    set of labels seen before each source occurrence to that source's row:
    O(source occurrences * alphabet).  A trace without source occurrences
    adds nothing.
    """
    if sources is None:
        hits: list[Counter | None] = [Counter() for _ in range(size)]
    else:
        hits = [None] * size
        for b in sources:
            hits[b] = Counter()
    if relation in (OrderingRelation.EVENTUALLY_FOLLOWS, OrderingRelation.EVENTUALLY_PRECEDES):
        backwards = relation is OrderingRelation.EVENTUALLY_PRECEDES
        cols: defaultdict[int, Counter] = defaultdict(Counter)
        for row in rows:
            n_sources = len(row) if sources is None else sum(map(row.count, sources))
            if not n_sources:
                continue
            if n_sources > 1 and n_sources > len(set(row)):
                if backwards:
                    row = row[::-1]
                for c in dict.fromkeys(row):
                    cols[c].update(row[row.index(c) + 1:])
                continue
            seen: set[int] = set()
            for b in reversed(row) if backwards else row:
                hit = hits[b]
                if hit is not None:
                    hit.update(seen)
                seen.add(b)
        for c, col in cols.items():
            for b, k in col.items():
                hit = hits[b]
                if hit is not None:
                    hit[c] += k
        return hits
    pairs: Counter[tuple[int, int]] = Counter()
    for row in rows:
        if relation is OrderingRelation.DIRECTLY_PRECEDES:
            pairs.update(zip(row, row[1:]))
        elif relation is OrderingRelation.DIRECTLY_FOLLOWS:
            pairs.update(zip(row[1:], row))
        elif relation is OrderingRelation.LENGTH_TWO_LOOP:
            pairs.update((b, c) for b, c, again in zip(row, row[1:], row[2:])
                         if b == again and c != b)
        else:
            raise ValueError(f"unknown relation {relation!r}")
    for (b, c), k in pairs.items():
        hit = hits[b]
        if hit is not None:
            hit[c] = k
    return hits


def relation_counts(log: EventLog, relation: OrderingRelation) -> dict[tuple[Label, Label], OrderingCounts]:
    """OrderingCounts for every ordered pair (b, c) of the log's alphabet.

    A dense view of ``LogCounts.of(log, (relation,))``, |alphabet|² entries
    keyed by Label pairs.  The kernel behind it reads the log's interning
    (labels as ints, computed once per log and shared by every relation),
    then one pass per trace counts every pair (see ``_hits`` for the
    eventual relations' per-trace cost).  A trace-final
    occurrence is neg for directly_precedes, a trace-initial one is neg for
    directly_follows.
    """
    counts = LogCounts.of(log, (relation,))
    interned = counts.interned
    out = {}
    for b, (b_label, row) in enumerate(zip(interned.labels, counts.rows[relation])):
        n = interned.occurrences[b]
        none = OrderingCounts(0, n)  # immutable, so shared by every miss of b
        for c, c_label in enumerate(interned.labels):
            p = row.get(c)
            out[(b_label, c_label)] = OrderingCounts(p, n - p) if p else none
    return out


@dataclass(frozen=True)
class LogCounts:
    """One log's ordering counts per relation, as the kernel's int-coded rows.

    ``rows[relation][b][c]`` counts the occurrences of code b (codes from
    ``interned``) that satisfy the relation against code c; a missing c
    counts 0.  When ``sources`` is given only those labels' rows were
    counted, and asking for any other source raises KeyError.
    """

    interned: InternedLog
    rows: dict[OrderingRelation, list[Counter | None]]
    sources: frozenset[tuple] | None = None

    @classmethod
    def of(cls, log: EventLog, relations: Iterable[OrderingRelation],
           sources: Iterable[Label] | None = None) -> "LogCounts":
        """Count the log once per relation; only the rows of ``sources``
        (labels that need not occur in the log) when given."""
        interned = log.interned
        if sources is None:
            wanted, codes = None, None
        else:
            wanted = frozenset(label.parts for label in sources)
            codes = [interned.codes[parts] for parts in wanted if parts in interned.codes]
        size = len(interned.labels)
        if codes is not None and len(codes) == size:
            codes = None  # every label is a source: no per-trace source counts
        return cls(interned, {relation: _hits(interned.rows, size, relation, codes)
                              for relation in relations}, wanted)

    def column(self, relation: OrderingRelation, b: Label, c: Label) -> OrderingCounts:
        """Counts of source b against context c.

        A source absent from the log counts (0, 0); a context absent from it
        satisfies the relation nowhere, so b counts (0, occurrences of b).
        """
        rows = self.rows[relation]
        if self.sources is not None and b.parts not in self.sources:
            raise KeyError(f"source label {b} was not counted")
        codes = self.interned.codes
        b_code = codes.get(b.parts)
        if b_code is None:
            return OrderingCounts(0, 0)
        c_code = codes.get(c.parts)
        p = 0 if c_code is None else rows[b_code].get(c_code, 0)
        return OrderingCounts(p, self.interned.occurrences[b_code] - p)


@dataclass(frozen=True)
class RefinementCounts:
    """Everything the tables of one refinement are built from, counted once:
    both logs' counts and the coarse labels seen under each refined label.

    The refined log's counts hold only the rows of split children, the only
    refined sources a table reads.
    """

    base: LogCounts
    refined: LogCounts
    parents: dict[Label, dict[Label, int]]

    @classmethod
    def of(cls, l1_log: EventLog, l2_log: EventLog,
           relations: Iterable[OrderingRelation],
           base: LogCounts | None = None,
           pairing: _Pairing | None = None) -> "RefinementCounts":
        """Count both logs; ``base``, when given, must be LogCounts.of(l1_log)
        over at least these relations (a scan shares it across candidates),
        and ``pairing``, when given, _Pairing.of(l1_log, l2_log)."""
        relations = tuple(relations)
        if base is None:
            base = LogCounts.of(l1_log, relations)
        if pairing is None:
            pairing = _Pairing.of(l1_log, l2_log)
        children = [child for split in pairing.split_pairs for child in split.children]
        return cls(base, LogCounts.of(l2_log, relations, children), pairing.parents)


@dataclass(frozen=True)
class ContingencyTable:
    """Counts of one ordering statistic for a refined pair and its parent.

    ``col_a1``/``col_a2`` come from the refined log; ``parent_col`` is the
    same statistic for the coarse label in the unrefined log, against the
    context's own coarse label.  When the context label is untouched by the
    split, the parent column is the componentwise sum of the child columns.
    """

    relation: OrderingRelation
    context_label: Label
    a1: Label
    a2: Label
    col_a1: OrderingCounts
    col_a2: OrderingCounts
    parent_label: Label
    parent_col: OrderingCounts


def _parent_context(parents: dict[Label, dict[Label, int]], b: Label) -> Label:
    """The coarse label observed at b's positions (most frequent on ties)."""
    counts = parents[b]
    return max(sorted(counts), key=lambda lbl: counts[lbl])


def build_tables(
    l1_log: EventLog,
    l2_log: EventLog,
    pair: SplitPair,
    a1: Label,
    a2: Label,
    relations: Iterable[OrderingRelation] = DEFAULT_RELATIONS,
    context_labels: Iterable[Label] | None = None,
    *,
    counts: RefinementCounts | None = None,
) -> list[ContingencyTable]:
    """One table per (relation, context label) for the child pair (a1, a2).

    Context labels default to the refined alphabet minus every child of the
    pair's parent, so siblings are never used as context.  An explicit
    ``context_labels`` list overrides that default (children still excluded).
    ``counts`` are the refinement's counts when the caller already has them
    (an evaluation shares them across its pairs); otherwise both logs are
    counted here.
    """
    relations = tuple(relations)
    if counts is None:
        counts = RefinementCounts.of(l1_log, l2_log, relations)
    parents = counts.parents
    siblings = set(pair.children)
    if context_labels is None:
        contexts = [b for b in sorted(parents) if b not in siblings]
    else:
        contexts = [b for b in context_labels if b not in siblings]
    parent_of = {b: _parent_context(parents, b) if b in parents else b for b in contexts}

    tables = []
    for relation in relations:
        for b in contexts:
            tables.append(ContingencyTable(
                relation=relation,
                context_label=b,
                a1=a1,
                a2=a2,
                col_a1=counts.refined.column(relation, a1, b),
                col_a2=counts.refined.column(relation, a2, b),
                parent_label=pair.parent,
                parent_col=counts.base.column(relation, pair.parent, parent_of[b]),
            ))
    return tables
