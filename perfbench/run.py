"""Benchmark of the labelsplit CLI on seeded synthetic sensor logs.

    python3 perfbench/run.py --workload scan-wide --seed 1 --seconds 30 --trace 0

One caller drives ``labelsplit.cli.main`` in-process as a closed loop: each
iteration runs the workload's CLI invocations one after another on a
generated CSV file, and the next iteration starts when the last one ends.
No threads or subprocesses run while timing.  The first iteration is a
warm-up whose outputs are checked independently (see ``checks.py``) once
the timed iterations and peak memory are done; every timed iteration must
reproduce them byte for byte.

Workloads (sizes fit a 2-core machine; see ``BENCHMARK.json`` for why each
exists):

* ``scan-wide``     -- ``scan`` over many labels: median-time candidates for
  every label, ordering counts recomputed for each one.
* ``evaluate-deep`` -- ``evaluate`` of a planted and a coin-flip refinement
  of the dominant label of a long log.
* ``stats-dump``    -- ``stats --format csv`` of all five relations over a
  large alphabet.

With ``--trace 0`` the last stdout line holds the end-to-end metrics:
iteration wall time, throughput, peak RSS, the import time of a fresh
interpreter (``setup_s``, median of at least 11, two sampled after every
timed iteration and never during one) and the share of CLI invocations that
succeeded.  On a shared host the machine's speed changes by up to 2x from
one second to the next, and its busy share drifts over minutes, so raw
times of runs minutes apart disagree by 20-60 %.  A fixed pure-Python loop
(``SpeedGauge``) is therefore timed before every iteration, and ``wall_s``
and ``setup_s`` are scaled by the gauge: they read as the times at the
speed at which one gauge sample takes ``GAUGE_REFERENCE_S``.  ``wall_s`` is
the mean timed iteration (the gauge's mean slowdown matches the
iterations' mean, not their median); the raw median, minimum and every
sample are printed above the result.  With ``--trace 1`` the last line
holds per-layer metrics from traced iterations (``spans.py``), one
iteration counting ``Label.__hash__`` / ``__eq__`` calls, and the tracing
overhead against untraced iterations alternating with the traced ones.

The program is read from ``src/`` of the checkout this file sits in; without
it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

SETUP_REPEATS = 11
MIN_SAMPLES = 3
# one SpeedGauge sample (GAUGE_PASSES passes) on an idle core of a 2-vCPU VM
# (Python 3.11.7); the unit in which wall_s and setup_s are expressed, never
# changed afterwards
GAUGE_REFERENCE_S = 0.27
GAUGE_PASSES = 100
WORK_DIR = ".perfbench_work"
# evaluated refinement: split column and the children it must give s00
_SPLITS = {"planted": ("activity", (["s00", "rest"], ["s00", "walk"])),
           "coinflip": ("coin", (["s00", "h"], ["s00", "t"]))}


@dataclass(frozen=True)
class Invocation:
    kind: str  # scan | planted | coinflip | stats
    argv: tuple[str, ...]
    out: Path


def invocations(workload: str, csv_path: Path, work: Path) -> list[Invocation]:
    common = ("--csv", str(csv_path), "--base-label", "sensor", "--case-key", "home",
              "--calendar-key", "day", "--alpha", str(checks.ALPHA), "--deterministic")
    if workload == "scan-wide":
        return [Invocation("scan", ("scan", *common, "--out", str(work / "scan.json")),
                           work / "scan.json")]
    if workload == "evaluate-deep":
        return [Invocation(kind, ("evaluate", *common, "--refined-label", f"sensor,{column}",
                                  "--out", str(work / f"{kind}.json")),
                           work / f"{kind}.json")
                for kind, (column, _) in _SPLITS.items()]
    return [Invocation("stats", ("stats", *common, "--relations", ",".join(checks.ALL_RELATIONS),
                                 "--format", "csv", "--out", str(work / "stats.csv")),
                       work / "stats.csv")]



def check_output(inv: Invocation, text: str, truth: gen.GeneratedLog,
                 rng: random.Random) -> tuple[list[str], bool | None]:
    """Problems found in one output, and the useful flag of an evaluation."""
    try:
        if inv.kind == "stats":
            return checks.check_stats_csv(text, truth.sequences, checks.ALL_RELATIONS), None
        doc = json.loads(text)
        if inv.kind == "scan":
            return checks.check_scan(doc, truth.sequences, rng), None
        column, children = _SPLITS[inv.kind]
        problems = checks.check_evaluate(doc, truth.sequences, truth.refined(column),
                                         gen.PLANTED, children, rng)
        if inv.kind == "planted" and not doc["useful"]:
            problems.append("planted refinement not reported useful")
        return problems, doc["useful"]
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed output: {exc!r}"], None


class Session:
    """Runs iterations of one workload and keeps the failure counts."""

    def __init__(self, workload: str, seed: int, work: Path):
        from labelsplit import cli
        self.cli = cli
        self.workload = workload
        self.seed = seed
        csv_path = work / "log.csv"
        self.truth = gen.generate(seed, gen.WORKLOADS[workload], str(csv_path))
        self.invs = invocations(workload, csv_path, work)
        self.attempted = 0
        self.failed = 0
        self.reference: dict[Path, bytes] = {}
        self.useful: dict[str, bool] = {}

    def _call(self, main, inv: Invocation) -> int | None:
        try:
            return main(list(inv.argv))
        except Exception:  # a crash is one failed invocation; keep measuring
            traceback.print_exc()
            return None

    def _fail(self, inv: Invocation, problems: list[str]) -> None:
        self.failed += 1
        for problem in problems[:10]:
            print(f"{self.workload} {inv.kind}: {problem}", file=sys.stderr)

    def warm_up(self) -> None:
        """Run once untimed and keep the outputs for ``check``."""
        for inv in self.invs:
            self.attempted += 1
            code = self._call(self.cli.main, inv)
            if code != 0:
                self._fail(inv, [f"exit code {code}"])
                continue
            self.reference[inv.out] = inv.out.read_bytes()

    def check(self) -> None:
        """Check every warm-up output independently.  Run it after peak
        memory is read, so the checkers' allocations stay out of it."""
        rng = random.Random(self.seed)
        for inv in self.invs:
            if inv.out not in self.reference:
                continue  # already counted as failed
            problems, useful = check_output(inv, self.reference[inv.out].decode("utf-8"),
                                            self.truth, rng)
            if useful is not None:
                self.useful[inv.kind] = useful
            if problems:
                self._fail(inv, problems)

    def iteration(self, main) -> float:
        """One timed pass over the workload's invocations; outputs must
        reproduce the checked warm-up outputs."""
        gc.collect()
        codes = []
        start = time.perf_counter()
        for inv in self.invs:
            codes.append(self._call(main, inv))
        elapsed = time.perf_counter() - start
        for inv, code in zip(self.invs, codes):
            self.attempted += 1
            if code != 0:
                self._fail(inv, [f"exit code {code}"])
            elif inv.out.read_bytes() != self.reference.get(inv.out):
                self._fail(inv, ["output differs from the checked warm-up output"])
        return elapsed

    def output_bytes(self) -> int:
        return sum(inv.out.stat().st_size for inv in self.invs)

    def quality(self) -> tuple[int, int]:
        """(planted refinements missed, coin-flip refinements reported useful)."""
        return (int(self.useful.get("planted") is False),
                int(self.useful.get("coinflip") is True))


class SpeedGauge:
    """Times a fixed pure-Python counting loop that shares no code with the
    package, to follow the host's speed while the iterations run."""

    def __init__(self):
        rng = random.Random(0)
        labels = [f"s{i:02d}" for i in range(40)]
        self._sequence = [rng.choice(labels) for _ in range(20_000)]
        self.samples: list[float] = []

    def sample(self) -> None:
        sequence = self._sequence
        start = time.perf_counter()
        for _ in range(GAUGE_PASSES):
            counts: dict[tuple[str, str], int] = {}
            for pair in zip(sequence, sequence[1:]):
                counts[pair] = counts.get(pair, 0) + 1
        self.samples.append(time.perf_counter() - start)

    def scale(self) -> float:
        """Factor that turns a time measured in this run into one at the
        reference speed."""
        return GAUGE_REFERENCE_S / statistics.fmean(self.samples)


class SetupTimer:
    """Wall time of fresh interpreters that import the package and CLI.

    Samples are taken between timed iterations, so the samples of a run
    spread over its whole window instead of one short burst of host noise.
    """

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self._env = env
        self.samples: list[float] = []
        self._spawn()  # untimed: may write bytecode caches

    def _spawn(self) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import labelsplit, labelsplit.cli"],
                       env=self._env, cwd=ROOT, check=True)
        return time.perf_counter() - start

    def sample(self) -> None:
        self.samples.append(self._spawn())

    def median(self) -> float:
        while len(self.samples) < SETUP_REPEATS:
            self.sample()
        return statistics.median(self.samples)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(session: Session, seconds: float) -> dict:
    gauge = SpeedGauge()
    setup = SetupTimer()
    session.warm_up()
    times: list[float] = []
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_SAMPLES or time.perf_counter() < deadline:
        gauge.sample()
        times.append(session.iteration(session.cli.main))
        # two per iteration: with one, setup_s spread 12-14 % between runs
        # on a shared 2-vCPU VM
        setup.sample()
        setup.sample()
    gauge.sample()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    session.check()
    scale = gauge.scale()
    setup_s = setup.median() * scale
    wall = statistics.fmean(times) * scale
    print(f"{session.workload}: wall_s {wall:.4f} s at reference speed, mean of "
          f"{len(times)} samples (raw mean {statistics.fmean(times):.4f}, median "
          f"{statistics.median(times):.4f}, min {min(times):.4f}); gauge scale "
          f"{scale:.4f}; {session.truth.events} events; setup_s {setup_s:.4f} s "
          f"(median of {len(setup.samples)}, raw {setup.median():.4f})")
    print("samples_s " + " ".join(f"{t:.4f}" for t in times))
    print("gauge_s " + " ".join(f"{t:.4f}" for t in gauge.samples))
    print("setup_samples_s " + " ".join(f"{t:.4f}" for t in setup.samples))
    if session.useful:
        missed, false_pos = session.quality()
        print(f"{session.workload}: planted_recall {1 - missed}/1, "
              f"coinflip_fp {false_pos}/1")
    ok = session.attempted - session.failed
    return {
        "wall_s": _metric(wall, "s"),
        "events_per_s": _metric(session.truth.events / wall, "1/s"),
        "peak_rss_mb": _metric(peak_mb, "MB"),
        "setup_s": _metric(setup_s, "s"),
        "success_rate": _metric(ok / session.attempted, "ratio"),
    }


def run_traced(session: Session, seconds: float) -> dict:
    session.warm_up()
    tracer = spans.Tracer()
    root = tracer.wrap(spans.ROOT_SPAN, session.cli.main)
    for name in tracer.install():
        print(f"trace: {name} not found; its metrics are left out", file=sys.stderr)
    tracer.uninstall()
    # plain and traced iterations alternate, so both see the same host load
    plain, traced, layers = [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        plain.append(session.iteration(session.cli.main))
        tracer.install()
        try:
            tracer.reset()
            traced.append(session.iteration(root))
        finally:
            tracer.uninstall()
        layers.append(tracer.layer_metrics())
    session.check()

    # the layer breakdown of the fastest traced iteration, like wall_s
    fastest = layers[traced.index(min(traced))]
    metrics = {name: _metric(value, unit) for name, (value, unit) in fastest.items()}
    counter = spans.LabelCallCounter.for_package()
    if counter is None:
        print("trace: Label.__hash__/__eq__ not found; their counts are left out",
              file=sys.stderr)
    else:
        with counter:
            session.iteration(session.cli.main)
        metrics["model.label_hash_calls"] = _metric(counter.hash_calls, "count")
        metrics["model.label_eq_calls"] = _metric(counter.eq_calls, "count")
    missed, false_pos = session.quality()
    metrics.update({
        "cli.output_bytes": _metric(session.output_bytes(), "bytes"),
        "quality.planted_missed": _metric(missed, "count"),
        "quality.coinflip_useful": _metric(false_pos, "count"),
        "trace.overhead_s": _metric(min(traced) - min(plain), "s"),
    })
    print(f"{session.workload}: traced {len(traced)} and untraced {len(plain)} samples")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="labelsplit CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "labelsplit" / "cli.py").is_file():
        print(f"error: no labelsplit package under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    (ROOT / WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT / WORK_DIR))
    try:
        session = Session(args.workload, args.seed, work)
        if args.trace:
            metrics = run_traced(session, args.seconds)
        else:
            metrics = run_untraced(session, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": session.failed == 0, "attempted": session.attempted,
                      "failed": session.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
