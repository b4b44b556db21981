"""Seeded, stdlib-only generator of synthetic sensor-event logs.

Each (home, day) is one trace of time-ordered sensor events.  Sensor labels
follow a Markov chain in which label ``s00`` carries two kinds of hidden
sub-label, so the ground truth lives in the data:

* ``activity`` -- a persistent two-state activity ("walk" / "rest") that
  changes which sensor fires after ``s00``: the planted split.
* ``coin`` -- a fair coin drawn independently per event: a split with no
  signal.

Events of the other sensors carry the constant values ``none`` and ``-`` in
those columns, so refining the label by either column splits only ``s00``.
The same seed and workload always produce a byte-identical file.

    python3 perfbench/gen.py --seed 7 --workload scan-wide --out log.csv
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass
from datetime import date, datetime, timedelta

HEADER = "id,timestamp,home,sensor,activity,coin\n"
PLANTED = "s00"
# which sensor the planted activity of s00 jumps to
_TARGET = {"walk": 1, "rest": 2}
_FIRST_DAY = date(2024, 1, 1)
# chance that s00 jumps straight to the sensor its activity selects
PLANTED_JUMP = 0.02
# chance per s00 event that the hidden activity switches
ACTIVITY_SWITCH = 0.02
# the columns that refine the sensor label of s00
SPLIT_COLUMNS = ("activity", "coin")


@dataclass(frozen=True)
class LogSpec:
    """Size and shape of one generated log."""

    events: int
    labels: int
    homes: int
    days: int
    # chance that any event is followed by s00; near 1 makes s00 dominant
    stay: float = 0.0


WORKLOADS = {
    # one candidate per label; events are few, so counting dominates
    "scan-wide": LogSpec(events=600, labels=24, homes=2, days=10),
    # s00 is ~97 % of a long log, so one candidate has very large columns
    "evaluate-deep": LogSpec(events=10000, labels=6, homes=2, days=10, stay=0.99),
    # a 60-label alphabet makes the all-pairs dump large
    "stats-dump": LogSpec(events=8000, labels=60, homes=2, days=20),
}


@dataclass
class GeneratedLog:
    """What the benchmark's checkers need to know about a written log."""

    events: int
    # one tuple of sensor names per trace, in time order
    sequences: list[tuple[str, ...]]
    # per split column: one tuple of that column's values per trace
    columns: dict[str, list[tuple[str, ...]]]

    def refined(self, column: str) -> list[tuple[tuple[str, str], ...]]:
        """The traces relabelled by (sensor, column), as the CLI's
        ``--refined-label sensor,<column>`` labels them."""
        return [tuple(zip(seq, values))
                for seq, values in zip(self.sequences, self.columns[column])]


def _successor_table(n: int) -> list[tuple[list[int], list[float]]]:
    """Per label: every label is a possible successor, three are favoured.

    The table does not depend on the seed, so logs of every seed have the
    same structure and cost about the same to analyse.
    """
    table = []
    for i in range(n):
        weights = [1.0] * n
        for step in (1, 2, 5):
            weights[(i + step) % n] = 6.0
        table.append((list(range(n)), weights))
    return table


def _trace_lengths(rng: random.Random, total: int, traces: int) -> list[int]:
    """Split ``total`` events into ``traces`` lengths of roughly equal size."""
    base = total // traces
    lengths = [base] * traces
    for i in rng.sample(range(traces), total - base * traces):
        lengths[i] += 1
    return lengths


def generate(seed: int, spec: LogSpec, out_path: str) -> GeneratedLog:
    """Write a CSV log to ``out_path`` and return its ground truth."""
    if spec.labels < 3:
        raise ValueError("need at least 3 labels (s00 and its two targets)")
    if spec.events < spec.homes * spec.days:
        raise ValueError("need at least one event per trace")
    rng = random.Random(seed)
    n = spec.labels
    successors = _successor_table(n)
    names = [f"s{i:02d}" for i in range(n)]
    lengths = _trace_lengths(rng, spec.events, spec.homes * spec.days)
    sequences: list[tuple[str, ...]] = []
    columns: dict[str, list[tuple[str, ...]]] = {c: [] for c in SPLIT_COLUMNS}
    event_id = 0
    with open(out_path, "w", encoding="utf-8", newline="") as out:
        out.write(HEADER)
        for trace_index, length in enumerate(lengths):
            home, day_offset = divmod(trace_index, spec.days)
            day = datetime.combine(_FIRST_DAY + timedelta(days=day_offset),
                                   datetime.min.time())
            seconds = sorted(rng.sample(range(86400), length))
            activity = rng.choice(("walk", "rest"))
            current = rng.randrange(n)
            labels, acts, coins = [], [], []
            for second in seconds:
                event_id += 1
                if current == 0:
                    if rng.random() < ACTIVITY_SWITCH:
                        activity = "rest" if activity == "walk" else "walk"
                    act, coin = activity, rng.choice(("h", "t"))
                else:
                    act, coin = "none", "-"
                stamp = (day + timedelta(seconds=second)).isoformat(sep=" ")
                out.write(f"{event_id},{stamp},h{home},{names[current]},{act},{coin}\n")
                labels.append(names[current])
                acts.append(act)
                coins.append(coin)
                current = _next_label(rng, current, activity, successors, spec)
            sequences.append(tuple(labels))
            columns["activity"].append(tuple(acts))
            columns["coin"].append(tuple(coins))
    return GeneratedLog(spec.events, sequences, columns)


def _next_label(rng: random.Random, current: int, activity: str,
                successors, spec: LogSpec) -> int:
    if current == 0 and rng.random() < PLANTED_JUMP:
        return _TARGET[activity]
    if rng.random() < spec.stay:
        return 0
    population, weights = successors[current]
    return rng.choices(population, weights)[0]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.seed, WORKLOADS[args.workload], args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
