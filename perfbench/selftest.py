"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Smoke: every workload runs at a tiny size, traced and untraced, is
   judged correct and emits exactly the metrics BENCHMARK.json names.
2. Faults: with ``graphs.betti`` wrapped to return total + 1, with a
   ``graphs.fold`` that returns a one-vertex rose, or with a
   ``subgroups.intersect`` that returns its first argument, the output
   checks must report verdict mismatches, so each check can fire.

Every workload of run.py is covered, including automata-large, which
BENCHMARK.json leaves out.  verify-acceptance keeps its full size, because
its digest is recorded for the acceptance trial counts.
"""

from __future__ import annotations

import json
import sys

import workloads
from layers import patch
from run import ROOT, run
from workloads import WORKLOADS

SMOKE_SECONDS = 0.1


def shrink() -> None:
    workloads.K_SCHEDULE = (4, 8)
    workloads.SIZES = (30, 120)


def off_by_one(mods) -> None:
    def make(fn):
        def betti(g, *args, **kwargs):
            report = fn(g, *args, **kwargs)
            return type(report)(report.per_component, report.total + 1)
        return betti
    patch(mods, "graphs", "betti", make)


def fold_to_rose(mods) -> None:
    """A fold that returns one vertex with a loop per letter: deterministic,
    and every word reads a loop on it, so only a comparison with an
    independent fold shows it is wrong."""
    graphs = mods["graphs"]
    patch(mods, "graphs", "fold",
          lambda fn: lambda g, rng=None: graphs.rose(g.alphabet))


def intersect_first(mods) -> None:
    """An intersect that returns its first argument unchanged."""
    patch(mods, "subgroups", "intersect", lambda fn: lambda h1, h2: h1)


FAULTS = (("betti+1", off_by_one, ("subgroups-large", "automata-large")),
          ("fold->rose", fold_to_rose, ("subgroups-large",)),
          ("intersect->h1", intersect_first, ("subgroups-large",)))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {False: {m["name"] for m in spec["end_to_end"]},
                True: {m["name"] for m in spec["per_layer"]}}
    shrink()
    failures = []

    def check(label: str, ok: bool, detail: str = "") -> None:
        print(f"[{'PASS' if ok else 'FAIL'}] {label}" + (f" ({detail})" if detail else ""))
        if not ok:
            failures.append(label)

    for name in WORKLOADS:
        for trace in (False, True):
            result = run(name, 1, SMOKE_SECONDS, trace)["result"]
            names = set(result["metrics"])
            check(f"smoke {name} trace={int(trace)}",
                  result["correct"] and result["attempted"] >= 1
                  and names == expected[trace],
                  f"correct={result['correct']} missing={sorted(expected[trace] - names)} "
                  f"extra={sorted(names - expected[trace])}")

    for label, fault, names in FAULTS:
        for name in names:
            out = run(name, 1, SMOKE_SECONDS, False, prepare=fault)
            mismatches = out["info"]["verdict_mismatches"]
            check(f"fault {label} {name}",
                  mismatches > 0 and not out["result"]["correct"],
                  f"verdict_mismatches={mismatches}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
