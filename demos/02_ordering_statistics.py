"""Ordering statistics and contingency tables.

Every occurrence of a label either satisfies an ordering relation with a
context label or it does not, so each (relation, label, context) gives a
pos/neg count.  Splitting a label in two turns those counts into a 2x2
contingency table with the unsplit counts as a margin column.
"""

from pathlib import Path

from labelsplit import (DEFAULT_RELATIONS, CsvSchema, Label, LogCounts, OrderingRelation,
                        Pairing, PartitionKeySpec, Projection, RefinementCounts, build_tables,
                        parse_csv, partition)

DATA = Path(__file__).parent / "data" / "smart_home.csv"

schema = CsvSchema(timestamp_column="timestamp", id_column="id",
                   attribute_columns=("case", "Address", "Sensor",
                                      "Heart rate", "Activity"))
log = partition(parse_csv(DATA.read_text(), schema),
                PartitionKeySpec(("Address",), "day"))
sensor_log = Projection("Sensor").apply(log)       # coarse labels
activity_log = Projection("Activity").apply(log)   # refined labels

# raw counts: how often does "Getting up" directly precede living-room motion?
# One pass over the log counts the relation for every (b, c) label pair.
gu, tt = Label("Getting up"), Label("Tossing & turning")
lrm = Label("Living room motion")
dp = OrderingRelation.DIRECTLY_PRECEDES
counts = LogCounts.of(activity_log, (dp,))
for b in (gu, tt):
    oc = counts.column(dp, b, lrm)
    print(f"{b} directly precedes {lrm}: pos={oc.pos} neg={oc.neg}")

# the split observed between the two logs: Bedroom motion -> two activities
(split,) = Pairing.of(sensor_log, activity_log).split_pairs
print(f"\nsplit: {split.parent} -> {[str(c) for c in split.children]}")

# one contingency table per (relation, context label)
counts = RefinementCounts.of(sensor_log, activity_log, DEFAULT_RELATIONS)
tables = build_tables(counts, split, split.children[0], split.children[1])
for t in tables:
    print(f"\n{t.relation} vs {t.context_label}")
    print(f"           {str(t.a1):<22}{str(t.a2):<22}{t.parent_label}")
    print(f"  +        {t.col_a1.pos:<22}{t.col_a2.pos:<22}{t.parent_col.pos}")
    print(f"  -        {t.col_a1.neg:<22}{t.col_a2.neg:<22}{t.parent_col.neg}")
