"""Fisher's exact test and information gain on the contingency tables.

Two questions about a split: (1) do the two new labels behave differently
enough that the difference is unlikely to be chance?  Fisher's exact test
per table, Bonferroni-corrected across all tables.  (2) How much ordering
uncertainty does the split remove?  Entropy of each statistic before vs
after, summed, as relative information gain.
"""

from pathlib import Path

from labelsplit import (DEFAULT_RELATIONS, CsvSchema, Pairing, PartitionKeySpec, Projection,
                        RefinementCounts, bonferroni_threshold, build_tables,
                        fisher_exact_two_sided,
                        parse_csv, partition, relative_information_gain,
                        table_entropies)

DATA = Path(__file__).parent / "data" / "smart_home.csv"

schema = CsvSchema(timestamp_column="timestamp", id_column="id",
                   attribute_columns=("case", "Address", "Sensor",
                                      "Heart rate", "Activity"))
log = partition(parse_csv(DATA.read_text(), schema),
                PartitionKeySpec(("Address",), "day"))
sensor_log = Projection("Sensor").apply(log)
activity_log = Projection("Activity").apply(log)

(split,) = Pairing.of(sensor_log, activity_log).split_pairs
counts = RefinementCounts.of(sensor_log, activity_log, DEFAULT_RELATIONS)
tables = build_tables(counts, split, split.children[0], split.children[1])

alpha = 0.01
corrected = bonferroni_threshold(alpha, len(tables))
print(f"{len(tables)} tests, alpha {alpha} -> corrected threshold {corrected}")

print(f"\n{'statistic':<24}{'p-value':<14}significant")
for t in tables:
    p = fisher_exact_two_sided(t.col_a1.pos, t.col_a1.neg,
                               t.col_a2.pos, t.col_a2.neg)
    print(f"{t.relation.value:<24}{p:<14.4g}{'yes' if p < corrected else 'no'}")

print(f"\n{'statistic':<24}{'H before':<12}{'H after':<12}")
for t in tables:
    h_before, h_after = table_entropies(t)
    print(f"{t.relation.value:<24}{h_before:<12.4f}{h_after:<12.4f}")

breakdown = relative_information_gain(tables)
print(f"\ntotal before-split entropy: {breakdown.total_before:.4f} bits")
print(f"total after-split entropy:  {breakdown.total_after:.4f} bits")
print(f"relative information gain:  {breakdown.relative_information_gain:.4f}")
