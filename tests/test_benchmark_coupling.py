"""Every check computes through the module-level names cycles.decompose and
graphs.betti, and the library results perfbench reads keep their fields.

perfbench/run.py judges each cycle decomposition and Betti number the
library computes by wrapping those two functions in every wordcycles module
namespace that holds them (perfbench/layers.py, ``patch``).  A check that
walked sigma_w or counted components some other way would escape that
judgement.  This test installs the same kind of wrapper, checks what it
sees against the brute-force oracle and a breadth-first component count,
and requires each suite to go through it.  The main check calls betti only
for a trial with a class; a classless report calls it when its Betti side
is first read, so reading every report's brings main to one call a trial.
perfbench's tracer wraps the
subgroups checks the same way, so each suite must call its check through
the module name, not through a function object it holds, and the fold
confluence suite must fold through graphs.fold.  perfbench also
reads CollapseResult.exhaustive_used (layers.py), NpiReport.branch and each
VerdictReport's inconclusive and qualifying counts (workloads.py, run.py).
"""

import random

import pytest
from conftest import patch_everywhere

from wordcycles import cycles, graphs, subgroups
from wordcycles.complexes import build_gamma_w, check_npi, collapses_to_tree
from wordcycles.generators import (
    TrialConfig,
    random_connected_automaton,
    random_simple_word,
    trial_seed,
)
from wordcycles.verify import SUITES, run_suite

ORACLE_MAX_VERTICES = 8

# Small versions of the acceptance configs.
CONFIGS = {
    "main": dict(max_vertices=12, alphabet=3, max_word_length=8),
    "strict": dict(max_vertices=6, alphabet=2, max_word_length=8),
    "npi": dict(max_vertices=10, alphabet=2, max_word_length=8),
    "equality-collapse": dict(max_vertices=10, alphabet=2, max_word_length=8),
    "restated": dict(max_vertices=10, alphabet=2, max_word_length=8),
    "conjugates": dict(max_vertices=10, alphabet=2, max_word_length=6),
    "staggered": dict(max_vertices=10, alphabet=3, max_word_length=6),
    "shnc": dict(max_vertices=8, alphabet=2, max_word_length=5),
    "fold-confluence": dict(max_vertices=10, alphabet=2, max_word_length=8),
}
DECOMPOSING = ["main", "strict", "npi", "equality-collapse", "restated", "conjugates",
               "staggered"]
BETTI_READING = ["main", "strict", "equality-collapse", "restated", "conjugates",
                 "staggered", "shnc"]


def component_count(g) -> int:
    """Breadth-first search over undirected neighbour sets."""
    nbrs = [set() for _ in range(g.num_vertices)]
    for s, d, _ in g.edges:
        nbrs[s].add(d)
        nbrs[d].add(s)
    seen, count = set(), 0
    for start in range(g.num_vertices):
        if start not in seen:
            count += 1
            seen.add(start)
            stack = [start]
            while stack:
                for u in nbrs[stack.pop()] - seen:
                    seen.add(u)
                    stack.append(u)
    return count


class Judged:
    """Counts the calls of the wrapped functions and the results that
    disagree with the references."""

    def __init__(self, monkeypatch):
        self.decompose_calls = self.betti_calls = self.mismatches = 0
        patch_everywhere(monkeypatch, cycles, "decompose", self._decompose)
        patch_everywhere(monkeypatch, graphs, "betti", self._betti)

    def _decompose(self, fn):
        def decompose(g, w, *args, **kwargs):
            dec = fn(g, w, *args, **kwargs)
            self.decompose_calls += 1
            if g.num_vertices <= ORACLE_MAX_VERTICES:
                self.mismatches += (dec.count_with_multiplicity, dec.class_count) \
                    != cycles.oracle_counts(g, w)
            return dec
        return decompose

    def _betti(self, fn):
        def betti(g, *args, **kwargs):
            report = fn(g, *args, **kwargs)
            self.betti_calls += 1
            expected = len(g.edges) - g.num_vertices + component_count(g)
            self.mismatches += report.total != expected or sum(report.bettis) != expected
            return report
        return betti


def run(monkeypatch, suite: str) -> tuple[Judged, int]:
    judged = Judged(monkeypatch)
    report = run_suite(suite, TrialConfig(master_seed=11, trials=20, **CONFIGS[suite]))
    assert not report.failures
    return judged, report.trials


@pytest.mark.parametrize("suite", DECOMPOSING)
def test_suite_decomposes_through_the_module_name(monkeypatch, suite):
    judged, trials = run(monkeypatch, suite)
    assert judged.decompose_calls >= trials
    assert judged.mismatches == 0


@pytest.mark.parametrize("suite", BETTI_READING)
def test_suite_reads_betti_through_the_module_name(monkeypatch, suite):
    reports = []
    if suite == "main":  # kept through the module attribute run_suite reads
        check = cycles.check_main_inequality
        monkeypatch.setattr(cycles, "check_main_inequality",
                            lambda g, w: reports.append(check(g, w)) or reports[-1])
    judged, trials = run(monkeypatch, suite)
    if suite == "main":
        # a trial with no class passes whatever its Betti numbers are, so
        # the check reads betti once for each trial with a class ...
        assert judged.betti_calls == sum(r.total_classes > 0 for r in reports) < trials
        # ... and each Betti number a classless report exposes is read,
        # when it is read, through the same wrapper
        for r in reports:
            assert sum(r.component_classes) == r.total_classes <= r.total_betti
    assert judged.betti_calls >= trials
    assert judged.mismatches == 0


# The checks perfbench/layers.py traces one by one, with the suite calling each.
TRACED_CHECKS = {"shnc": "check_shnc", "conjugates": "count_conjugates_meeting",
                 "restated": "check_restated_inequality"}


def test_tracer_sees_every_check(monkeypatch):
    calls = dict.fromkeys(TRACED_CHECKS.values(), 0)

    def make(name):
        def wrap(fn):
            def traced(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return traced
        return wrap

    for name in TRACED_CHECKS.values():
        patch_everywhere(monkeypatch, subgroups, name, make(name))
    for suite, name in TRACED_CHECKS.items():
        before = calls[name]
        report = run_suite(suite, TrialConfig(master_seed=11, trials=20, **CONFIGS[suite]))
        assert not report.failures
        assert calls[name] - before >= report.trials, suite


def test_fold_confluence_folds_through_the_module_name(monkeypatch):
    # perfbench/selftest.py plants a graphs.fold that returns a rose, which
    # only a comparison with an independent fold shows.  Stallings graphs
    # share fold's private loader and fold tail but never call graphs.fold,
    # and conjugates and intersections do not fold at all, so the planted
    # fault still reaches only the fold confluence check, which must call
    # it, twice a trial, by module name.
    calls = 0

    def make(fn):
        def fold(g, rng=None):
            nonlocal calls
            calls += 1
            return fn(g, rng)
        return fold

    patch_everywhere(monkeypatch, graphs, "fold", make)
    config = TrialConfig(master_seed=11, trials=20, **CONFIGS["fold-confluence"])
    report = run_suite("fold-confluence", config)
    assert not report.failures
    assert calls >= 2 * report.trials


def test_wrapper_sees_a_wrong_count(monkeypatch):
    # the wrapper is live: a decompose that drops its cycles is caught
    def make(fn):
        def decompose(g, w):
            dec = fn(g, w)
            return cycles.WCycleDecomposition(dec.word, dec.sigma, (), dec.graph)
        return decompose
    patch_everywhere(monkeypatch, cycles, "decompose", make)
    judged = Judged(monkeypatch)
    run_suite("main", TrialConfig(master_seed=11, trials=20, **CONFIGS["main"]))
    assert judged.decompose_calls >= 20
    assert judged.mismatches > 0


def test_fields_the_benchmark_reads():
    cfg = TrialConfig(master_seed=11, trials=50, **CONFIGS["npi"])
    branches = set()
    for i in range(cfg.trials):
        rng = random.Random(trial_seed(cfg.master_seed, i))
        g = random_connected_automaton(cfg, rng)
        w = random_simple_word(cfg, rng)
        dec = cycles.decompose(g, w)
        assert collapses_to_tree(build_gamma_w(dec)).exhaustive_used is False
        attachments = [(c.vertices[rng.randrange(c.period)], c.period)
                       for c in dec.classes if rng.random() < 0.7]
        branches.add(check_npi(g, w, attachments).branch)
    assert branches <= {"chi", "contractible", "fail"}
    assert "contractible" in branches
    for name in SUITES:
        config = CONFIGS.get(name, dict(max_vertices=8, alphabet=3, max_word_length=5))
        report = run_suite(name, TrialConfig(master_seed=11, trials=10, **config))
        assert report.inconclusive == 0 and report.to_json()["inconclusive"] == 0
        counts = name in ("strict", "equality-collapse")
        assert (report.qualifying is not None) == counts
        assert ("qualifying" in report.to_json()) == counts
