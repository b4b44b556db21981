"""One-off probe of the roadmap's ``rank_candidates`` baselines (not a workload).

    python3 perfbench/baseline.py --seed 1

Generates two logs with ``gen.py`` -- 6 000 events over 15 labels and
4 000 events over 60 labels, one trace per home and day -- and times
``rank_candidates`` over every median time-of-day candidate of each.  Wall
time and process CPU time are printed side by side; CPU time is only a
diagnostic.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402

PROBES = (
    ("6000 events / 15 labels", gen.LogSpec(events=6000, labels=15, homes=2, days=10)),
    ("4000 events / 60 labels", gen.LogSpec(events=4000, labels=60, homes=2, days=10)),
)


def main(argv: list[str] | None = None) -> int:
    from labelsplit import (CsvSchema, PartitionKeySpec, Projection, parse_csv,
                            partition, rank_candidates, generate_median_time_candidates)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    schema = CsvSchema("timestamp", ("home", "sensor", "activity", "coin"), id_column="id")
    for name, spec in PROBES:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "log.csv"
            gen.generate(args.seed, spec, str(path))
            events = parse_csv(path.read_text(encoding="utf-8"), schema)
        log = Projection(("sensor",)).apply(
            partition(events, PartitionKeySpec(("home",), "day")))
        candidates = generate_median_time_candidates(log)
        wall, cpu = time.perf_counter(), time.process_time()
        reports = rank_candidates(log, candidates)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        print(f"{name}: {len(candidates)} candidates, "
              f"{sum(r.m_tests for r in reports)} tests: "
              f"wall {wall:.2f} s, cpu {cpu:.2f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
