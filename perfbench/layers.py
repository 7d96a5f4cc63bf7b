"""Time the calls into each wordcycles module from outside the library.

Wrappers replace a public function in every module namespace that holds it,
because the library binds names with ``from .graphs import betti`` and a
wrapper installed only where a function is defined would miss those calls.
"""

from __future__ import annotations

import inspect
import math
import statistics
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "wordcycles"

# Public functions timed one by one.  ``words`` is timed as one aggregate.
TRACED = {
    "graphs": ("require_valid", "components", "betti", "fold", "core",
               "fiber_product", "canonical_form", "component_containing"),
    "cycles": ("decompose", "oracle_counts"),
    "complexes": ("collapses_to_tree",),
    "subgroups": ("stallings_graph", "intersect", "check_shnc",
                  "count_conjugates_meeting", "check_restated_inequality"),
    "generators": ("trial_seed", "random_inverse_automaton",
                   "random_connected_automaton", "random_permutation_automaton",
                   "random_reduced_word", "random_simple_word",
                   "random_repeating_word", "random_subgroup",
                   "random_staggered_presentation"),
    "verify": ("run_suite",),
}

# Kernels whose self time is fitted against input size |V| + |E|.
GROWTH = ("graphs.fold", "graphs.betti", "graphs.fiber_product", "graphs.core",
          "cycles.decompose")
GROWTH_MIN_SIZE = 64

SUITES = ("main", "oracle", "strict", "equality-collapse", "npi",
          "fold-confluence", "shnc", "restated", "conjugates",
          "conjugate-intersection", "staggered")


class Clock:
    """perf_counter with the time spent inside ``paused()`` taken out, so
    output checks and input generation never count as measured work."""

    def __init__(self):
        self.paused_total = 0.0
        self._depth = 0

    def now(self) -> float:
        return perf_counter() - self.paused_total

    @contextmanager
    def paused(self):
        self._depth += 1
        start = perf_counter()
        try:
            yield
        finally:
            self._depth -= 1
            if self._depth == 0:
                self.paused_total += perf_counter() - start


def modules() -> dict[str, object]:
    """The imported wordcycles package and its submodules, by short name."""
    return {name.rpartition(".")[2]: mod for name, mod in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")}


def patch(mods: dict, module: str, name: str, make) -> list:
    """Replace module.name by make(current) wherever any module holds it;
    returns the (module, attribute, replaced value) triples."""
    current = getattr(mods[module], name)
    wrapper = make(current)
    replaced = []
    for mod in mods.values():
        for attr, value in list(vars(mod).items()):
            if value is current:
                setattr(mod, attr, wrapper)
                replaced.append((mod, attr, current))
    return replaced


def _size(g) -> int:
    return g.num_vertices + len(g.edges)


def _counts(name: str, args, result) -> dict[str, float]:
    """Work counts computed from a call's inputs and outputs."""
    if name == "graphs.require_valid":
        return {"graphs.require_valid.edges": len(args[0].edges)}
    if name == "graphs.betti":
        return {"graphs.betti.component_edge_scans":
                len(result.per_component) * len(args[0].edges)}
    if name == "graphs.fold":
        return {"graphs.fold.merges": args[0].num_vertices - result.num_vertices}
    if name == "graphs.core":
        return {"graphs.core.spurs_removed":
                args[0].num_vertices - result.num_vertices}
    if name == "graphs.fiber_product":
        return {"graphs.fiber_product.pairs_scanned":
                len(args[0].edges) * len(args[1].edges),
                "graphs.fiber_product.vertices_out": result.num_vertices}
    if name == "cycles.decompose":
        return {"cycles.decompose.trace_steps": args[0].num_vertices * len(args[1])}
    if name == "complexes.collapses_to_tree":
        return {"complexes.collapses_to_tree.exhaustive": int(result.exhaustive_used)}
    if name == "generators.random_reduced_word":
        return {"generators.words_drawn": 1}
    if name in ("generators.random_simple_word", "generators.random_repeating_word"):
        return {"generators.words_accepted": 1}
    return {}


def _growth_size(name: str, args) -> int | None:
    if name == "graphs.fiber_product":
        return _size(args[0]) + _size(args[1])
    if name in GROWTH:
        return _size(args[0])
    return None


class Tracer:
    """Spans around wrapped calls, aggregated as they close.

    Self time is a span's duration minus the durations of its child spans.
    Per-call (size, self time) pairs are kept only for the GROWTH kernels.
    """

    def __init__(self, clock: Clock):
        self.clock = clock
        self.stack: list[float] = []
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.samples: defaultdict[str, list[tuple[int, float]]] = defaultdict(list)

    def install(self, mods: dict):
        """Wrap the traced functions; returns a function that unwraps them."""
        replaced = []
        for module, names in TRACED.items():
            for name in names:
                replaced += patch(mods, module, name,
                                  lambda fn, key=f"{module}.{name}": self._wrap(key, fn))
        words = mods["words"]
        for name, fn in list(vars(words).items()):
            if (inspect.isfunction(fn) and fn.__module__ == words.__name__
                    and not name.startswith("_")):
                replaced += patch(mods, "words", name,
                                  lambda fn: self._wrap("words", fn))

        def undo() -> None:
            for mod, attr, value in reversed(replaced):
                setattr(mod, attr, value)
        return undo

    def _wrap(self, key: str, fn):
        stack, now = self.stack, self.clock.now
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = now()
            try:
                result = fn(*args, **kwargs)
            except ValueError:
                if key == "complexes.collapses_to_tree":
                    self.counts["complexes.collapses_to_tree.cap_hits"] += 1
                raise
            finally:
                duration = now() - start
                own = duration - stack.pop()
                if stack:
                    stack[-1] += duration
                self.calls[key] += 1
                self.self_s[key] += own
            if kwargs:
                args = sig.bind(*args, **kwargs).args
            for counter, n in _counts(key, args, result).items():
                self.counts[counter] += n
            size = _growth_size(key, args)
            if size is not None:
                self.samples[key].append((size, own))
            return result

        return traced

    def growth(self, key: str) -> float:
        """Log-log slope of self time against input size.

        Calls are binned by size in steps of sqrt(2); each bin contributes
        its median, so one slow call cannot tilt the fit.  0.0 when fewer
        than two bins hold calls of at least GROWTH_MIN_SIZE.
        """
        bins: defaultdict[int, list[float]] = defaultdict(list)
        for size, own in self.samples.get(key, ()):
            if size >= GROWTH_MIN_SIZE and own > 0:
                bins[round(2 * math.log2(size))].append(own)
        if len(bins) < 2:
            return 0.0
        xs = [b / 2 for b in sorted(bins)]
        ys = [math.log2(statistics.median(bins[b])) for b in sorted(bins)]
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
                / sum((x - mx) ** 2 for x in xs))

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for module, names in TRACED.items():
            for name in names:
                key = f"{module}.{name}"
                out[f"{key}.calls"] = (self.calls[key], "count")
                out[f"{key}.self_s"] = (self.self_s[key], "s")
        out["words.calls"] = (self.calls["words"], "count")
        out["words.self_s"] = (self.self_s["words"], "s")
        for counter in ("graphs.require_valid.edges",
                        "graphs.betti.component_edge_scans", "graphs.fold.merges",
                        "graphs.core.spurs_removed",
                        "graphs.fiber_product.pairs_scanned",
                        "graphs.fiber_product.vertices_out",
                        "cycles.decompose.trace_steps",
                        "complexes.collapses_to_tree.cap_hits"):
            out[counter] = (self.counts[counter], "count")
        collapses = self.calls["complexes.collapses_to_tree"]
        out["complexes.collapses_to_tree.exhaustive_frac"] = (
            self.counts["complexes.collapses_to_tree.exhaustive"] / collapses
            if collapses else 0.0, "ratio")
        drawn = self.counts["generators.words_drawn"]
        out["generators.word_accept_ratio"] = (
            self.counts["generators.words_accepted"] / drawn if drawn else 0.0,
            "ratio")
        for key in GROWTH:
            out[f"{key}.growth"] = (self.growth(key), "slope")
        return out
