"""wordcycles benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src`` directory.  Load is one caller in a closed loop: each operation
starts when the previous one returns.

Set-up (import, one-off work and making the inputs) is repeated SETUP_REPS
times and its median reported.  The seed fixes one round of operations.
With ``--trace 0`` that round is repeated on identical fresh inputs, and
each operation's latency is its median over the repeats.  The number of
repeats is S divided by the workload's round time at the parent commit
(at least MIN_REPEATS), so it is the same at every commit, and the run
lasts about S seconds there on an idle machine.  The result holds the
end-to-end metrics.  With ``--trace 1`` untraced repeats fill about S/2
seconds, one traced repeat follows and one more untraced repeat closes; the
result holds the per-layer metrics, and tracing overhead compares the
traced repeat with the two untraced repeats around it.

Every time the end-to-end metrics use is corrected for the speed the
machine ran at while it was taken (see ``Speed``): on a shared machine
co-tenants slow all work by up to 1.7x, in steps that last from a second to
longer than a run, and a pure-Python reference kernel timed next to each
operation slows by the same factor.  Per-layer self times are not corrected.

Every result is judged by the checks in oracles.py with the clock stopped.
The last line of stdout is the result; the line before it stamps the run
with the commit, interpreter, cores, platform, seed and the machine's
median slowdown.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from array import array
from pathlib import Path
from time import perf_counter

import oracles
from layers import PACKAGE, SUITES, Clock, Tracer, modules, patch
from workloads import WORKLOADS, summary

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 9
ORACLE_MAX_VERTICES = 8
MIN_REPEATS = 3
# Tail percentile: the highest of these with at least ten samples beyond it.
# Decades only, so the choice does not flip as the sample count varies a little.
PERCENTILES = (50, 90, 99, 99.9)
# The reference kernel's loop count, and its time at full speed on the
# 2-core machine the benchmark was written on (Python 3.11.7).
REFERENCE_LOOPS = 2000
REFERENCE_SECONDS = 2.1e-4
# Longest time between two measurements of the machine's speed.
PROBE_INTERVAL = 0.025


def reference_kernel() -> dict:
    """Fixed pure-Python work of the library's kind: dict reads and writes
    and integer arithmetic, no allocation that grows."""
    d: dict[int, int] = {}
    for i in range(REFERENCE_LOOPS):
        d[i & 255] = d.get(i & 255, 0) + i
    return d


class Speed:
    """How much slower than full speed the machine runs now.

    The factor is the faster of two timings of the reference kernel divided
    by REFERENCE_SECONDS, measured again when PROBE_INTERVAL has passed since
    the last measurement.  A time divided by the mean factor at its start
    and end reads as the time at full speed; on the machine the benchmark
    was written on, such corrected times of a library call stayed within 2%
    while the raw times moved by 1.7x.  Call it with the clock paused.
    """

    def __init__(self):
        self.factor = 1.0
        self.factors = array("d")
        self._last = -math.inf

    def current(self, force: bool = False) -> float:
        if force or perf_counter() - self._last >= PROBE_INTERVAL:
            self.factor = min(self._kernel_seconds(), self._kernel_seconds()) \
                / REFERENCE_SECONDS
            self.factors.append(self.factor)
            self._last = perf_counter()
        return self.factor

    @staticmethod
    def _kernel_seconds() -> float:
        start = perf_counter()
        reference_kernel()
        return perf_counter() - start


class Session:
    """Times operations, judges their results and counts the outcomes.

    Wrappers installed by ``install`` compare every Betti number and every
    small cycle decomposition the library computes with oracles.py, and
    time verify trials by the ``trial_seed`` call that starts each one.
    """

    def __init__(self, clock: Clock, speed: Speed, mods: dict):
        self.clock, self.speed, self.mods = clock, speed, mods
        self.latencies: list[float] = []  # of the current repeat, corrected
        self.labels: list[str | None] = []  # suite of each verify trial
        self.attempted = self.failed = self.undecided = self.mismatches = 0
        self._marks: list[tuple[float, float]] = []  # (time, speed factor)

    # -- checks inside the library's calls ---------------------------------

    def install(self) -> None:
        patch(self.mods, "graphs", "betti", self._checked_betti)
        patch(self.mods, "cycles", "decompose", self._checked_decompose)
        patch(self.mods, "cycles", "oracle_counts", self._checked_oracle)
        patch(self.mods, "generators", "trial_seed", self._marked)

    def _checked_betti(self, fn):
        def betti(g, *args, **kwargs):
            report = fn(g, *args, **kwargs)
            with self.clock.paused():
                self.mismatches += report.total != oracles.betti_total(
                    g.num_vertices, g.edges)
            return report
        return betti

    def _checked_decompose(self, fn):
        def decompose(g, w, *args, **kwargs):
            dec = fn(g, w, *args, **kwargs)
            if g.num_vertices <= ORACLE_MAX_VERTICES:
                with self.clock.paused():
                    self.mismatches += (dec.count_with_multiplicity, dec.class_count) \
                        != oracles.cycle_counts(g.num_vertices, g.edges, w)
            return dec
        return decompose

    def _checked_oracle(self, fn):
        def oracle_counts(g, w, *args, **kwargs):
            counts = fn(g, w, *args, **kwargs)
            with self.clock.paused():
                self.mismatches += tuple(counts) != oracles.cycle_counts(
                    g.num_vertices, g.edges, w)
            return counts
        return oracle_counts

    def _marked(self, fn):
        def trial_seed(*args, **kwargs):
            self._marks.append((self.clock.now(), self._factor()))
            return fn(*args, **kwargs)
        return trial_seed

    # -- operations ----------------------------------------------------------

    def op(self, judge, fn, *args):
        """One timed call; judge(result) is True, False, or None for an
        inconclusive verdict.  Returns the result, or None if it raised."""
        self.attempted += 1
        begin = self._factor(), self.clock.now()
        try:
            result = fn(*args)
        except Exception:  # a raising operation is a failed one; keep going
            self._time(*begin)
            self._fail(1)
            return None
        self._time(*begin)
        with self.clock.paused():
            verdict = judge(result)
        if verdict is None:
            self.undecided += 1
        elif not verdict:
            self.failed += 1
            self.mismatches += 1
        return result

    def suite(self, name: str, cfg, expected: list) -> None:
        """One verify suite; each trial is an operation."""
        self._marks.clear()
        begin = self.clock.now(), self._factor()
        try:
            report = self.mods["verify"].run_suite(name, cfg)
        except Exception:  # a raising suite fails all its trials; keep going
            self.attempted += cfg.trials
            self._fail(cfg.trials)
            return
        end = self.clock.now(), self._factor()
        if len(self._marks) != report.trials:
            raise RuntimeError(f"suite {name}: {len(self._marks)} trial_seed calls "
                               f"for {report.trials} trials; trials cannot be timed")
        bounds = [begin, *self._marks[1:], end]
        self.latencies += [(b - a) * 2 / (fa + fb)
                           for (a, fa), (b, fb) in zip(bounds, bounds[1:])]
        self.labels += [name] * report.trials
        self.attempted += report.trials
        self.failed += len(report.failures)
        self.undecided += report.inconclusive
        self.mismatches += len(report.failures) + (summary(report) != expected)

    def _factor(self) -> float:
        with self.clock.paused():
            return self.speed.current()

    def _time(self, factor: float, start: float) -> None:
        elapsed = self.clock.now() - start
        self.latencies.append(elapsed * 2 / (factor + self._factor()))
        self.labels.append(None)

    def _fail(self, n: int) -> None:
        traceback.print_exc()
        self.failed += n
        self.mismatches += 1


class Phase:
    """Repeats of the round, each on identical fresh inputs.  Keeps every
    operation's corrected time in each repeat, and each repeat's total."""

    def __init__(self, session: Session, workload, seed: int):
        self.session, self.workload, self.seed = session, workload, seed
        self.runs: list[array] = []
        self.labels: list[str | None] = []
        self.totals: list[float] = []

    def repeat(self, inputs=None) -> None:
        session = self.session
        if inputs is None:
            with session.clock.paused():
                inputs = self.workload.inputs(session.mods, self.seed)
        session.latencies.clear()
        session.labels.clear()
        self.workload.round(session, session.mods, inputs)
        if self.runs and len(session.latencies) != len(self.runs[0]):
            raise RuntimeError("repeats of one round ran different operations")
        self.runs.append(array("d", session.latencies))
        self.labels = list(session.labels)
        self.totals.append(sum(session.latencies))

    def times(self) -> list[float]:
        """Each operation's median time over the repeats."""
        return [statistics.median(ts) for ts in zip(*self.runs)]

    def rate(self, times: list[float], label=None) -> float:
        """Operations per second at the given per-operation times."""
        times = [t for t, l in zip(times, self.labels) if label in (None, l)]
        return len(times) / sum(times) if times else 0.0


def repeats(workload, seconds: float) -> int:
    """How many rounds fill `seconds` at the parent commit's pace, at least
    MIN_REPEATS: fixed by the arguments alone, so that every commit takes its
    medians over the same number of repeats."""
    return max(MIN_REPEATS, round(seconds / workload.round_seconds))


def tail(latencies: list[float]) -> tuple[float, float, float]:
    """(p50, tail percentile, value at it) by nearest rank."""
    xs = sorted(latencies)
    n = len(xs)

    def at(p: float) -> float:
        return xs[min(n - 1, max(0, math.ceil(p / 100 * n) - 1))]

    fits = [p for p in PERCENTILES if n * (1 - p / 100) >= 10]
    pct = fits[-1] if fits else 100
    return at(50), pct, at(pct)


def set_up(workload, seed: int):
    """Import the library afresh, do the workload's one-off work and make its
    inputs; returns the seconds taken, the modules and the inputs."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    start = perf_counter()
    package = importlib.import_module(PACKAGE)
    if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"{PACKAGE} was imported from {package.__file__}, not {SRC}")
    mods = modules()
    workload.setup(mods, seed)
    inputs = workload.inputs(mods, seed)
    return perf_counter() - start, mods, inputs


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def stamp(args) -> dict:
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "platform": platform.platform(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        prepare=None) -> dict:
    """One benchmark run; prepare(mods), if given, runs before the checks
    are installed (the self-test uses it to plant a fault)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    workload = WORKLOADS[workload_name]()
    speed = Speed()
    setups = []
    for _ in range(SETUP_REPS):
        factor = speed.current(force=True)
        elapsed, mods, inputs = set_up(workload, seed)
        setups.append(elapsed * 2 / (factor + speed.current(force=True)))
    if prepare is not None:
        prepare(mods)
    clock = Clock()
    session = Session(clock, speed, mods)
    session.install()

    plain = Phase(session, workload, seed)
    if not trace:
        for _ in range(repeats(workload, seconds)):
            plain.repeat(inputs)
            inputs = None
        times = plain.times()
        p50, pct, tail_value = tail(times)
        metrics = {
            "ops_per_s": (plain.rate(times), "1/s"),
            "op_p50_ms": (p50 * 1e3, "ms"),
            "op_tail_ms": (tail_value * 1e3, "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
        }
        info = {"tail_pct": pct, "samples": len(times), "repeats": len(plain.runs),
                "failed_frac": session.failed / session.attempted,
                "undecided_frac": session.undecided / session.attempted,
                "verdict_mismatches": session.mismatches}
    else:
        # Untraced repeats, one traced repeat, one more untraced repeat: the
        # traced round is compared with the two untraced rounds around it.
        for _ in range(max(1, repeats(workload, seconds / 2) - 1)):
            plain.repeat(inputs)
            inputs = None
        traced = Phase(session, workload, seed)
        tracer = Tracer(clock)
        undo = tracer.install(mods)
        traced.repeat()
        undo()
        plain.repeat()
        times = plain.times()
        _, pct, _ = tail(times)
        metrics = tracer.metrics()
        for suite in SUITES:
            metrics[f"verify.{suite}.ops_per_s"] = (plain.rate(times, suite), "1/s")
        untraced_rate = 2 * len(times) / sum(plain.totals[-2:])
        traced_rate = len(times) / traced.totals[0]
        metrics["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
        metrics["trace.traced_ops_per_s"] = (traced_rate, "1/s")
        metrics["trace.overhead"] = (untraced_rate / traced_rate - 1, "ratio")
        metrics["latency.tail_pct"] = (pct, "%")
        metrics["latency.samples"] = (len(times), "count")
        metrics["failed_frac"] = (session.failed / session.attempted, "ratio")
        metrics["undecided_frac"] = (session.undecided / session.attempted, "ratio")
        metrics["verdict_mismatches"] = (session.mismatches, "count")
        info = {"repeats": len(plain.runs)}
    info["slowdown"] = statistics.median(speed.factors)

    return {
        "info": info,
        "result": {
            "correct": session.failed == 0 and session.mismatches == 0,
            "attempted": session.attempted,
            "failed": session.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"error: cannot import {PACKAGE} from {SRC}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"stamp": stamp(args), **out["info"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
