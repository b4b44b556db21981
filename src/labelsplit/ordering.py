"""Log-based ordering statistics and contingency tables.

Every occurrence of a source label b is classified, per relation and context
label c, as satisfying the relation (pos) or not (neg), so pos + neg always
equals the number of occurrences of b in the log.  The relations:

  directly_precedes(b, c)    b at position i, c at i+1
  directly_follows(b, c)     b at position i, c at i-1
  eventually_precedes(b, c)  b at position i, c at some j > i
  eventually_follows(b, c)   b at position i, c at some j < i
  length_two_loop(b, c)      b at i, c at i+1, b at i+2, with b != c

One kernel, ``_hits``, counts one relation in one pass per trace.  It
reads a source row and a context row per trace: a log counted against
itself (``LogCounts.of``) passes its code rows as both, and counts both
direct relations in one pass.  The direct relations and length-two loops
cost O(events).  The eventual ones cost O(length + distinct labels) adds
of O(sources) machine words per trace: suffix sums over the trace's first
positions, with one fixed-width field per source label packed into each
Python int.  A trace with few source occurrences, and every trace of a log
whose packed columns would hold more than 2**20 fields (sources *
contexts), instead adds the contexts seen before each source occurrence.

A refinement's counts are one ``RefinementCounts``: the refined log's
``LogCounts``, restricted to the split children, the few base log rows
their columns cannot give, and the split set.  ``RefinementCounts.of``
counts a refined log.  A scan counts its single-label time splits in
rounds, no parent twice in a round (``split_counts``): a round's source
rows are the base log's rows with each split parent's occurrences recoded
as the child they go to, and its context rows are the base log's own, so
no refined log is built.  Each split reads its round's counts as a
``LogCounts`` through its own code map.

The 2x2-plus-margin contingency table compares two refined labels a1, a2
against a context label b, alongside the same statistic for their common
coarse label taken from the unrefined log, mostly as the sum of its
children's columns.  ``build_tables`` gives a child pair's tables column
by column (``PairTables``): one int array of pos counts per relation and
column, read without building a table.
"""

from __future__ import annotations

import operator
import sys
from array import array
from collections import Counter
from collections.abc import Sequence
from enum import Enum
from itertools import chain, compress, repeat
from typing import Any, Iterable

from .model import EventLog, InternedLog, Label, Record
from .relabel import Pairing, RelabelingFn, SplitPair, TimeThreshold, time_split_rows


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


def as_relations(value: OrderingRelation | str | Iterable[OrderingRelation | str]
                 ) -> tuple[OrderingRelation, ...]:
    """Relations given as members or names, each once, in first-given order
    (a bare one is one relation); ValueError naming an unknown value."""
    out: dict[OrderingRelation, None] = {}
    for item in (value,) if isinstance(value, (str, OrderingRelation)) else value:
        try:
            out[OrderingRelation(item)] = None
        except ValueError:
            raise ValueError(f"unknown relation {item!r}; valid: "
                             f"{sorted(r.value for r in OrderingRelation)}") from None
    return tuple(out)


class OrderingCounts(Record):
    """Occurrences of a source label that do (pos) / do not (neg) satisfy a
    relation with respect to a context label."""

    __slots__ = ("pos", "neg")

    def __init__(self, pos: int, neg: int):
        super().__init__(pos, neg)

    @property
    def total(self) -> int:
        return self.pos + self.neg

    def __add__(self, other: "OrderingCounts") -> "OrderingCounts":
        return OrderingCounts(self.pos + other.pos, self.neg + other.neg)


# the packed counts' field formats, narrowest first: (typecode, bits)
_FIELDS = tuple((fmt, 8 * array(fmt).itemsize) for fmt in "BHIQ")
# the most fields (one per source and context) the packed columns may hold;
# past it, the dense adds and unpack cost more than the per-occurrence walk
# (see the README's cost model)
_PACKED_FIELDS = 1 << 20


def _hits(rows: Sequence[Sequence[int]], size: int, relation: OrderingRelation,
          sources: Sequence[int] | None = None,
          contexts: Sequence[Sequence[int]] | None = None) -> list[Counter | None]:
    """hits[b][c]: occurrences of code b that satisfy the relation against c.

    Position i of a trace holds source code ``rows[t][i]`` and context code
    ``contexts[t][i]``; a log counted against itself passes no
    ``contexts``, so each row is its own context row.  Codes are below
    ``size``.  Only the codes in ``sources`` (every code when None) get a
    row; the row of any other code is None.  A length-two loop at i needs
    the same source at i and i+2 and a context at i+1 other than the one
    at i.

    eventually_precedes is eventually_follows on the reversed rows.  An
    occurrence of b eventually follows c when it comes after c's first
    position.  A trace in which the sources occur more than 20 times, or
    make up more than half of it, is counted by suffix sums over first
    positions: from the last context's first position back to the first, a
    running count of the source occurrences after the current one gains
    the segment up to the next first position and is added to that
    context's column.  The count is one Python int holding a field per
    source of 8, 16, 32 or 64 bits, the narrowest that holds the log's
    event count, so no field carries into the next.  A trace costs
    O(length + distinct labels) adds, and each add O(sources) machine
    words, since the fields are dense in the sources.  The nonzero columns
    are unpacked in C and moved into the source rows once per log, so the
    unpack is dense too: O(sources * context codes).  Packing is therefore
    used only while the columns hold at most ``_PACKED_FIELDS`` (2**20)
    fields, sources * context codes: every label of a 1 024-label alphabet,
    at most 8 MiB.  Any other trace, and every trace of a log past that
    bound, adds the set of contexts seen before each source occurrence to
    that source's row: O(source occurrences * alphabet), cheaper for few
    source occurrences (both break-evens are measured; see the README's
    cost model).  A trace without source occurrences adds nothing.
    """
    if contexts is None:
        contexts = rows
    if sources is None:
        hits: list[Counter | None] = [Counter() for _ in range(size)]
    else:
        hits = [None] * size
        for b in sources:
            hits[b] = Counter()
    if relation in (OrderingRelation.EVENTUALLY_FOLLOWS, OrderingRelation.EVENTUALLY_PRECEDES):
        backwards = relation is OrderingRelation.EVENTUALLY_PRECEDES
        fields = range(size) if sources is None else sources  # source code of each field
        events = sum(map(len, rows))
        fmt, width = next((fmt, width) for fmt, width in _FIELDS if not events >> width)
        # the packed columns hold one field per source and context code
        span = 1 + max(map(max, filter(None, contexts)), default=-1)
        packs = len(fields) * span <= _PACKED_FIELDS
        unit = [0] * size  # a source's 1 in its field; 0 for any other code
        is_source = bytearray(size)
        for k, b in enumerate(fields):
            is_source[b] = 1
            if packs:
                unit[b] = 1 << k * width
        cols = [0] * span  # per context code, the packed pos counts of every source
        for row, ctx in zip(rows, contexts):
            n_sources = len(row) if sources is None else sum(map(is_source.__getitem__, row))
            if not n_sources:
                continue
            if packs and (n_sources > 20 or 2 * n_sources > len(row)):
                if backwards:
                    row, ctx = row[::-1], ctx[::-1]
                end = len(row)
                # each context's first position (the last write of a key wins)
                firsts = dict(zip(reversed(ctx), range(end - 1, -1, -1))).values()
                count = 0
                for f in sorted(firsts, reverse=True):
                    count += sum(map(unit.__getitem__, row[f + 1:end]))
                    cols[ctx[f]] += count
                    end = f + 1
                continue
            seen: set[int] = set()
            walk = zip(reversed(row), reversed(ctx)) if backwards else zip(row, ctx)
            for b, c in walk:
                hit = hits[b]
                if hit is not None:
                    hit.update(seen)
                seen.add(c)
        if not any(cols):  # no trace took the packed walk
            return hits
        nonzero = [c for c, col in enumerate(cols) if col]
        # one run of fields per nonzero context, so field k's counts against
        # those contexts are the slice [k::len(fields)]
        n_bytes = len(fields) * width // 8
        table = array(fmt, b"".join(cols[c].to_bytes(n_bytes, sys.byteorder) for c in nonzero))
        for k, b in enumerate(fields):
            column = table[k::len(fields)]
            hits[b].update(dict(zip(compress(nonzero, column), compress(column, column))))
        return hits
    pairs: Counter[tuple[int, int]] = Counter()
    for row, ctx in zip(rows, contexts):
        if relation is OrderingRelation.DIRECTLY_PRECEDES:
            pairs.update(zip(row, ctx[1:]))
        elif relation is OrderingRelation.DIRECTLY_FOLLOWS:
            pairs.update(zip(row[1:], ctx))
        else:  # length_two_loop
            pairs.update((b, c) for b, x, c, again in zip(row, ctx, ctx[1:], row[2:])
                         if b == again and c != x)
    for (b, c), k in pairs.items():
        hit = hits[b]
        if hit is not None:
            hit[c] = k
    return hits


class LogCounts(Record):
    """One log's ordering counts per relation, as the kernel's int-coded rows.

    ``rows[relation][b][c]`` counts the occurrences of code b (codes from
    ``interned``) that satisfy the relation against code c; a missing c
    counts 0.  When ``sources`` is given only those labels' rows were
    counted, and asking for any other source raises KeyError.
    """

    __slots__ = ("interned", "rows", "sources")

    def __init__(self, interned: InternedLog, rows: dict[OrderingRelation, list[Counter | None]],
                 sources: frozenset[tuple] | None = None):
        super().__init__(interned, rows, sources)

    @classmethod
    def of(cls, log: EventLog, relations: Iterable[OrderingRelation],
           sources: Iterable[Label] | None = None) -> "LogCounts":
        """Count the log once per relation, and both direct ones at once;
        only the rows of ``sources`` (labels that need not occur in the
        log) when given."""
        interned = log.interned
        if sources is None:
            wanted, codes = None, None
        else:
            wanted = frozenset(label.parts for label in sources)
            codes = [interned.codes[parts] for parts in wanted if parts in interned.codes]
        size = len(interned.labels)
        if codes is not None and len(codes) == size:
            codes = None  # every label is a source: no per-trace source counts
        relations = as_relations(relations)
        df, dp = OrderingRelation.DIRECTLY_FOLLOWS, OrderingRelation.DIRECTLY_PRECEDES
        paired = df in relations and dp in relations
        rows = {relation: _hits(interned.rows, size, relation,
                                None if paired and relation is dp else codes)
                for relation in relations if not (paired and relation is df)}
        if paired:  # directly_follows(b, c) = directly_precedes(c, b)
            rows[df] = [Counter() for _ in range(size)]
            for b, row in enumerate(rows[dp]):
                for c, k in row.items():
                    rows[df][c][b] = k
        return cls(interned, {relation: rows[relation] for relation in relations}, wanted)

    def column(self, relation: OrderingRelation, b: Label, c: Label) -> OrderingCounts:
        """Counts of source b against context c.

        A source absent from the log counts (0, 0); a context absent from it
        satisfies the relation nowhere, so b counts (0, occurrences of b).
        """
        n, ((pos,),) = self.positives(b, (c,), (relation,))
        return OrderingCounts(pos, n - pos)

    def positives(self, b: Label, contexts: Sequence[Label],
                  relations: Sequence[OrderingRelation]) -> tuple[int, tuple[list[int], ...]]:
        """``column`` against many contexts at once: the occurrences of b,
        and per relation the pos count of b against each context."""
        if self.sources is not None and b.parts not in self.sources:
            raise KeyError(f"source label {b} was not counted")
        codes = self.interned.codes
        b_code = codes.get(b.parts)
        if b_code is None:
            return 0, tuple([0] * len(contexts) for _ in relations)
        c_codes = [codes.get(c.parts) for c in contexts]  # None: never a row key
        return self.interned.occurrences[b_code], tuple(
            list(map(self.rows[relation][b_code].get, c_codes, repeat(0)))
            for relation in relations)


# Kept only while the benchmark's span hooks name it (ROADMAP item 21);
# callers read LogCounts.column.
def relation_counts(log: EventLog, relation: OrderingRelation) -> dict[tuple[Label, Label], OrderingCounts]:
    counts, labels = LogCounts.of(log, (relation,)), log.interned.labels
    return {(b, c): counts.column(relation, b, c) for b in labels for c in labels}


def split_counts(log: EventLog, candidates: Sequence[RelabelingFn],
                 relations: Iterable[OrderingRelation]) -> list["RefinementCounts | None"]:
    """Each candidate's counts, with no refined log, when it is a time split
    whose two children are distinct labels that name no event of ``log``
    but the parent's; None for any other candidate.

    A parent's k-th such split is counted in round k, in candidate order:
    one pass recodes each of the round's parents' occurrences as the child
    they go to (``time_split_rows``), and one ``_hits`` call per relation
    counts every child against the base labels.  A split's refined counts
    read its round's rows through its own code map, the parent replaced by
    its two children (two splits may name them alike), and the shared base
    counts hold the parents' length_two_loop rows, if asked for.  A split
    leaving a child no occurrence is not strict: it holds no split pair.
    """
    relations = as_relations(relations)
    out: list[RefinementCounts | None] = [None] * len(candidates)
    interned = log.interned
    taken: Counter[tuple] = Counter()  # each parent's splits so far
    rounds: dict[int, list[int]] = {}  # round k's candidate indices, from k = 1
    for k, fn in enumerate(candidates):
        if (isinstance(fn, TimeThreshold) and fn.low_label != fn.high_label
                and all(child == fn.base_label or child.parts not in interned.codes
                        for child in (fn.low_label, fn.high_label))):
            taken[fn.base_label.parts] += 1
            rounds.setdefault(taken[fn.base_label.parts], []).append(k)
    if not rounds:
        return out
    base = LogCounts.of(log, [r for r in relations if r is OrderingRelation.LENGTH_TWO_LOOP],
                        [candidates[k].base_label for k in rounds[1]])
    size = len(interned.labels)
    unsplit = {label: label for label in interned.labels}  # copied per split
    for ks in rounds.values():
        splits = [candidates[k] for k in ks]
        rows = time_split_rows(log, splits)
        children = range(size, size + 2 * len(splits))
        counted = {relation: _hits(rows, children.stop, relation, children, interned.rows)
                   for relation in relations}
        seen = Counter(chain.from_iterable(rows))
        occurrences = tuple(map(seen.__getitem__, range(children.stop)))
        labels = interned.labels + tuple(chain.from_iterable(
            (fn.low_label, fn.high_label) for fn in splits))
        for k, fn, low in zip(ks, splits, children[::2]):
            parent, pair = fn.base_label, (fn.low_label, fn.high_label)
            codes = dict(interned.codes)
            codes.pop(parent.parts, None)  # None: the parent labels no event
            codes[fn.low_label.parts], codes[fn.high_label.parts] = low, low + 1
            coarse = dict(unsplit)
            coarse.pop(parent, None)
            coarse.update((child, parent) for child in pair if occurrences[codes[child.parts]])
            strict = occurrences[low] and occurrences[low + 1]
            out[k] = RefinementCounts(
                base, LogCounts(InternedLog(labels, codes, rows, occurrences), counted,
                                frozenset(child.parts for child in pair)),
                coarse, (SplitPair(parent, pair),) if strict else ())
    return out


class RefinementCounts(Record):
    """Everything the tables of one refinement are built from, counted once:
    both logs' counts, for each refined label the one coarse label seen at
    its positions (``coarse``), and the split set (``split_pairs``).
    ``coarse`` lists the refined labels in label order, but ``split_counts``
    puts a split's two children last: siblings, never contexts of that
    split.  So ``build_tables`` takes its default contexts in that order.

    The refined counts hold only the rows of split children, the only
    refined sources a table reads: a refined log's ``LogCounts`` restricted
    to them, or, for a time split counted by ``split_counts``, a
    ``LogCounts`` of its round's child-code rows read through that split's
    own code map.  The base counts hold only the split parents'
    rows on length_two_loop and, when two or more labels split, on every
    relation: the parent columns ``build_tables`` cannot sum.
    """

    __slots__ = ("base", "refined", "coarse", "split_pairs")

    def __init__(self, base: LogCounts, refined: LogCounts, coarse: dict[Label, Label],
                 split_pairs: tuple[SplitPair, ...] = ()):
        super().__init__(base, refined, coarse, split_pairs)

    @classmethod
    def of(cls, l1_log: EventLog, l2_log: EventLog,
           relations: Iterable[OrderingRelation]) -> "RefinementCounts":
        """Pair the logs (``Pairing.of``) and count both.  Nothing is
        counted when the refinement splits no label.  Raises
        NotARefinementError, as ``evaluate`` does, when a refined label is
        seen under two or more coarse labels."""
        pairing = Pairing.of(l1_log, l2_log)
        coarse = pairing.coarse()
        relations = as_relations(relations) if pairing.split_pairs else ()
        parents = [split.parent for split in pairing.split_pairs]
        base = LogCounts.of(l1_log, relations if len(parents) > 1 else
                            [r for r in relations if r is OrderingRelation.LENGTH_TWO_LOOP],
                            parents)
        children = [child for split in pairing.split_pairs for child in split.children]
        return cls(base, LogCounts.of(l2_log, relations, children), coarse,
                   pairing.split_pairs)


class ContingencyTable(Record):
    """Counts of one ordering statistic for a refined pair and its parent.

    ``col_a1``/``col_a2`` come from the refined log; ``parent_col`` is the
    same statistic for the coarse label in the unrefined log, against the
    context's own coarse label.  Off length_two_loop, against a context
    label untouched by any split, it is the sum of all k child columns.
    """

    __slots__ = ("relation", "context_label", "a1", "a2", "col_a1", "col_a2", "parent_label",
                 "parent_col")

    def __init__(self, relation: OrderingRelation, context_label: Label, a1: Label, a2: Label,
                 col_a1: OrderingCounts, col_a2: OrderingCounts, parent_label: Label,
                 parent_col: OrderingCounts):
        super().__init__(relation, context_label, a1, a2, col_a1, col_a2, parent_label,
                         parent_col)


class LazySequence(Sequence):
    """A read-only sequence whose items are built on each access from the
    columns it holds.  It compares equal to any list, tuple or
    LazySequence of equal items, and hashes as the tuple of its items."""

    __slots__ = ()

    def _item(self, i: int) -> Any:
        """Item i, for 0 <= i < len(self)."""
        raise NotImplementedError

    def __getitem__(self, index):
        n = len(self)
        if isinstance(index, slice):
            return tuple(map(self._item, range(*index.indices(n))))
        i = operator.index(index)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"{type(self).__name__} index out of range")
        return self._item(i)

    def __iter__(self):
        return map(self._item, range(len(self)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (list, tuple, LazySequence)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"


class PairTables(LazySequence):
    """The tables of one child pair (a1, a2), held column by column.

    There is one table per relation and context label, relation by
    relation and, within one, in the order of ``contexts``.  Item k of
    ``a1_pos[r]`` is the pos count of a1 against ``contexts[k]`` on
    ``relations[r]``; likewise ``a2_pos`` and, for ``parent`` in the base
    log against the context's coarse label, ``parent_pos``.  pos + neg of a
    column is always its label's occurrence count, so each neg is n1 - pos
    (a1), n2 - pos (a2) or n - pos (parent).  A ``ContingencyTable`` is
    built only when an item is read.
    """

    __slots__ = ("relations", "contexts", "a1", "a2", "parent", "n1", "n2", "n",
                 "a1_pos", "a2_pos", "parent_pos")

    def __init__(self, relations: tuple[OrderingRelation, ...], contexts: tuple[Label, ...],
                 a1: Label, a2: Label, parent: Label, n1: int, n2: int, n: int,
                 a1_pos: tuple[list[int], ...], a2_pos: tuple[list[int], ...],
                 parent_pos: tuple[list[int], ...]):
        self.relations, self.contexts = relations, contexts
        self.a1, self.a2, self.parent = a1, a2, parent
        self.n1, self.n2, self.n = n1, n2, n
        self.a1_pos, self.a2_pos, self.parent_pos = a1_pos, a2_pos, parent_pos

    @classmethod
    def of(cls, table: ContingencyTable) -> "PairTables":
        """A PairTables holding ``table`` alone."""
        a1, a2, parent = table.col_a1, table.col_a2, table.parent_col
        return cls((table.relation,), (table.context_label,), table.a1, table.a2,
                   table.parent_label, a1.total, a2.total, parent.total,
                   ([a1.pos],), ([a2.pos],), ([parent.pos],))

    def __len__(self) -> int:
        return len(self.relations) * len(self.contexts)

    def _item(self, i: int) -> ContingencyTable:
        r, k = divmod(i, len(self.contexts))
        p1, p2, p = self.a1_pos[r][k], self.a2_pos[r][k], self.parent_pos[r][k]
        return ContingencyTable(self.relations[r], self.contexts[k], self.a1, self.a2,
                                OrderingCounts(p1, self.n1 - p1), OrderingCounts(p2, self.n2 - p2),
                                self.parent, OrderingCounts(p, self.n - p))


def build_tables(
    counts: RefinementCounts,
    pair: SplitPair,
    a1: Label,
    a2: Label,
    relations: Iterable[OrderingRelation] = DEFAULT_RELATIONS,
    context_labels: Iterable[Label] | None = None,
    *,
    notes: list[str] | None = None,
) -> PairTables:
    """One table per (relation, context label) for the child pair (a1, a2).

    Context labels default to the refined alphabet minus every child of the
    pair's parent, so siblings are never used as context.  An explicit
    ``context_labels`` list overrides that default; children are still
    excluded, and so is a label of the base log that names no refined event
    (the split's own parent, say): its child columns would read 0 by
    construction against a full parent column.  Such labels are named in a
    note appended to ``notes``, unless that note is already there.
    ``counts`` are the refinement's counts (``RefinementCounts.of`` for two
    logs; a scan counts its single-label splits with ``split_counts``)
    over at least ``relations``.  The parent column sums every child's,
    but reads ``counts.base`` (KeyError if uncounted) against the context's
    coarse label on length_two_loop and against any split child.
    """
    coarse = counts.coarse
    siblings = set(pair.children)
    if context_labels is None:
        contexts = [b for b in coarse if b not in siblings]
    else:
        base_codes = counts.base.interned.codes
        contexts, removed = [], []
        for b in context_labels:
            if b in coarse or b.parts not in base_codes:
                if b not in siblings:
                    contexts.append(b)
            else:
                removed.append(b)
        if removed and notes is not None:
            note = ("left out context label(s) that name no event of the refined log: "
                    + ", ".join(str(b) for b in removed))
            if note not in notes:
                notes.append(note)

    relations = as_relations(relations)
    columns = {child.parts: counts.refined.positives(child, contexts, relations)
               for child in pair.children}
    (n1, a1_pos), (n2, a2_pos) = columns[a1.parts], columns[a2.parts]
    ns, child_pos = zip(*columns.values())
    n, parent_pos = sum(ns), tuple(list(map(sum, zip(*pos))) for pos in zip(*child_pos))
    split_children = {child.parts for s in counts.split_pairs for child in s.children}
    for relation, pos in zip(relations, parent_pos):
        at = [k for k, b in enumerate(contexts)
              if relation is OrderingRelation.LENGTH_TWO_LOOP or b.parts in split_children]
        if at:
            _, (base_pos,) = counts.base.positives(
                pair.parent, [coarse.get(contexts[k], contexts[k]) for k in at], (relation,))
            for k, p in zip(at, base_pos):
                pos[k] = p
    return PairTables(relations, tuple(contexts), a1, a2, pair.parent, n1, n2, n,
                      a1_pos, a2_pos, parent_pos)
