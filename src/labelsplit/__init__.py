"""labelsplit: statistical evaluation of event-label refinements.

Given an event log and two labelings of it (a coarse one and a candidate
refinement), the package computes log-based ordering statistics, runs
Fisher's exact test per refined pair / context label / relation with
Bonferroni correction, measures the entropy reduction of the split, and
decides whether the refinement is useful for process discovery.
"""

from .evaluate import (EvaluationConfig, EvaluationReport, evaluate,
                       generate_median_time_candidates, rank_candidates)
from .gain import (EntropyBreakdown, binary_entropy, relative_information_gain,
                   table_entropies)
from .ingest import (CsvFormatError, CsvSchema, PartitionKeySpec, XesFormatError,
                     parse_csv, parse_xes_minimal, partition, write_csv,
                     write_xes_minimal)
from .model import Event, EventLog, Label, MissingAttributeError, Trace
from .ordering import (ContingencyTable, DEFAULT_RELATIONS, LogCounts, OrderingCounts,
                       OrderingRelation, RefinementCounts, build_tables,
                       relation_counts)
from .relabel import (NotARefinementError, Pairing, Projection, RefinementCheck,
                      RefinementError, RelabelingFn, RuleBased, RuleError,
                      ShapeMismatchError, SplitPair, TimeThreshold,
                      check_refinement, extract_split_set, parse_time_of_day)
from .stats import (CorrectionPolicy, TestResult, bonferroni_threshold,
                    fisher_exact_two_sided, fisher_test)

__version__ = "0.1.0"

__all__ = [
    "CorrectionPolicy",
    "ContingencyTable",
    "CsvFormatError",
    "CsvSchema",
    "DEFAULT_RELATIONS",
    "EntropyBreakdown",
    "EvaluationConfig",
    "EvaluationReport",
    "Event",
    "EventLog",
    "Label",
    "LogCounts",
    "MissingAttributeError",
    "NotARefinementError",
    "OrderingCounts",
    "OrderingRelation",
    "Pairing",
    "PartitionKeySpec",
    "Projection",
    "RefinementCounts",
    "RefinementCheck",
    "RefinementError",
    "RelabelingFn",
    "RuleBased",
    "RuleError",
    "ShapeMismatchError",
    "SplitPair",
    "TestResult",
    "TimeThreshold",
    "Trace",
    "XesFormatError",
    "binary_entropy",
    "bonferroni_threshold",
    "build_tables",
    "check_refinement",
    "evaluate",
    "extract_split_set",
    "fisher_exact_two_sided",
    "fisher_test",
    "generate_median_time_candidates",
    "parse_csv",
    "parse_time_of_day",
    "parse_xes_minimal",
    "partition",
    "rank_candidates",
    "relation_counts",
    "relative_information_gain",
    "table_entropies",
    "write_csv",
    "write_xes_minimal",
]
