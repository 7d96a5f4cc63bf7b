"""Property-verification suites: each wraps one theorem check and runs it
over seeded random instances, reporting pass/fail counts with full
counterexample payloads.

A suite is one trial function plus one ``SUITES`` entry.  The trial
function ``trial(cfg, index, rng, report)`` draws one instance from rng,
which is seeded by ``trial_seed(cfg.master_seed, index)``, checks it, and
returns True (pass) or False (fail, after appending a payload to
report.failures).  A suite that counts qualifying trials adds 1 to
report.qualifying for each trial whose hypothesis held.  ``run_suite`` is
the only loop over trials.  Every check decides its instance, so a
report's inconclusive count, kept in its JSON, reads 0.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from typing import Callable

from . import complexes, cycles, graphs, subgroups
from .generators import (
    TrialConfig,
    random_connected_automaton,
    random_inverse_automaton,
    random_permutation_automaton,
    random_repeating_word,
    random_simple_word,
    random_staggered_presentation,
    random_subgroup,
    trial_seed,
)
from .words import Word, format_word, free_reduce, invert


@dataclass
class VerdictReport:
    suite: str
    trials: int
    passes: int
    failures: list[dict] = field(default_factory=list)
    inconclusive: int = 0
    qualifying: int | None = None
    wall_time: float = 0.0

    @property
    def failure_count(self) -> int:
        return len(self.failures)

    def to_json(self) -> dict:
        obj = {
            "suite": self.suite,
            "trials": self.trials,
            "passes": self.passes,
            "failures": self.failures,
            "inconclusive": self.inconclusive,
            "wall_time": self.wall_time,
        }
        if self.qualifying is not None:
            obj["qualifying"] = self.qualifying
        return obj


def _payload(g: graphs.LabeledDigraph, w: Word | None = None, **extra) -> dict:
    obj = {"graph": graphs.to_json(g), **extra}
    if w is not None:
        obj["word"] = format_word(w)
    return obj


def main_trial(cfg, index, rng, report):
    """Class count <= Betti number, per component and in total."""
    g = random_inverse_automaton(cfg, rng)
    w = random_simple_word(cfg, rng)
    res = cycles.check_main_inequality(g, w)
    if not res.passed:
        report.failures.append(
            _payload(g, w, classes=res.total_classes, betti=res.total_betti)
        )
    return res.passed


def oracle_trial(cfg, index, rng, report):
    """Orbit-cycle counts agree exactly with brute-force path enumeration."""
    cfg = replace(cfg, max_vertices=min(cfg.max_vertices, 8),
                  max_word_length=min(cfg.max_word_length, 6))
    g = random_inverse_automaton(cfg, rng)
    w = random_simple_word(cfg, rng)
    dec = cycles.decompose(g, w)
    fast = (dec.count_with_multiplicity, dec.class_count)
    slow = cycles.oracle_counts(g, w)
    if fast != slow:
        report.failures.append(_payload(g, w, decompose=fast, oracle=slow))
        return False
    return True


def strict_trial(cfg, index, rng, report):
    """Strict inequality with multiplicity when every edge is traversed at
    least twice.  Qualifying instances are found by rejection over rose
    covers and words repeating every generator; the rest pass without
    qualifying."""
    g = random_permutation_automaton(cfg, rng)
    w = random_repeating_word(cfg, rng)
    res = cycles.check_strict_inequality(g, w)
    if not res.applicable:
        return True
    report.qualifying += 1
    if not res.passed:
        report.failures.append(
            _payload(g, w, count=res.count_with_multiplicity, betti=res.betti)
        )
    return res.passed


def equality_collapse_trial(cfg, index, rng, report):
    """Whenever class count equals the Betti number, the disc complex
    collapses to a tree.  Trials below cfg.trials draw random connected
    instances (only those hitting equality qualify); the 100 after them
    read the circle of w, where equality 1 = 1 is automatic."""
    if index < cfg.trials:
        g = random_connected_automaton(cfg, rng)
        w = random_simple_word(cfg, rng)
    else:
        w = random_simple_word(cfg, rng)
        g = graphs.circle(w, cfg.alphabet)
    res = complexes.check_equality_collapse(g, w)
    if res.applicable:
        report.qualifying += 1
    if not res.passed:
        report.failures.append(
            _payload(g, w, classes=res.class_count, betti=res.betti)
        )
    return res.passed


def npi_trial(cfg, index, rng, report):
    """Every generated immersion has Euler characteristic <= 0 or collapses."""
    g = random_connected_automaton(cfg, rng)
    w = random_simple_word(cfg, rng)
    dec = cycles.decompose(g, w)
    attachments = [
        (c.vertices[rng.randrange(c.period)], c.period)
        for c in dec.classes
        if rng.random() < 0.7
    ]
    res = complexes.check_npi(g, w, attachments)
    if not res.passed:
        report.failures.append(
            _payload(g, w, euler=res.euler, attachments=attachments)
        )
    return res.passed


def fold_confluence_trial(cfg, index, rng, report):
    """Any two fold orders agree up to canonical form, and every generator
    still traces closed at the base."""
    k = rng.randint(1, 4)
    gens = [random_simple_word(cfg, rng) for _ in range(k)]
    wedge = graphs.wedge_of_words(gens, cfg.alphabet)
    a = graphs.fold(wedge, random.Random(rng.getrandbits(64)))
    b = graphs.fold(wedge, random.Random(rng.getrandbits(64)))
    ca, cb = graphs.canonical_form(a), graphs.canonical_form(b)
    closed = all(graphs.walk(ca, ca.basepoint, w) == ca.basepoint for w in gens)
    ok = ca == cb and closed
    if not ok:
        report.failures.append(
            _payload(wedge, generators=[format_word(w) for w in gens],
                     confluent=ca == cb, traces_closed=closed)
        )
    return ok


def shnc_trial(cfg, index, rng, report):
    """Strengthened Hanna Neumann inequality on random folded pairs."""
    h1 = random_subgroup(cfg, rng)
    h2 = random_subgroup(cfg, rng)
    res = subgroups.check_shnc(h1, h2)
    if not res.passed:
        report.failures.append(
            {
                "graph1": graphs.to_json(h1.graph),
                "graph2": graphs.to_json(h2.graph),
                "lhs": res.lhs,
                "rhs": res.rhs,
            }
        )
    return res.passed


def restated_trial(cfg, index, rng, report):
    """Betti form of the main inequality via the circle fiber product, with
    the orbit-count cross-check."""
    g = random_inverse_automaton(cfg, rng)
    w = random_simple_word(cfg, rng)
    res = subgroups.check_restated_inequality(w, g)
    if not res.passed:
        report.failures.append(
            _payload(g, w, lhs=res.lhs, rhs=res.rhs, classes=res.class_count)
        )
    return res.passed


def conjugates_trial(cfg, index, rng, report):
    """Conjugates of a maximal cyclic subgroup meeting H number at most
    rank(H)."""
    h = random_subgroup(cfg, rng)
    w = random_simple_word(cfg, rng)
    res = subgroups.count_conjugates_meeting(h, w)
    if not res.passed:
        report.failures.append(
            _payload(h.graph, w, count=res.count, rank=res.rank)
        )
    return res.passed


def conjugate_intersection_trial(cfg, index, rng, report):
    """rank(H)+1 distinct cosets of a free factor H force a trivial
    conjugate intersection."""
    if cfg.alphabet < 2:
        raise ValueError("conjugate-intersection suite needs alphabet >= 2")
    r = rng.randint(1, cfg.alphabet - 1)
    letters = rng.sample(range(1, cfg.alphabet + 1), r)
    h = subgroups.stallings_graph([(l,) for l in letters], cfg.alphabet)
    cosets: list[Word] = [()]
    while len(cosets) < r + 1:
        cand = free_reduce(random_simple_word(cfg, rng))
        if all(
            not subgroups.contains(h, cand + invert(c)) for c in cosets
        ):
            cosets.append(cand)
    res = subgroups.check_conjugate_intersection(h, cosets)
    if not res.passed:
        report.failures.append(
            _payload(h.graph, cosets=[format_word(c) for c in cosets])
        )
    return res.passed


def staggered_trial(cfg, index, rng, report):
    """Summed relator class counts of staggered simple presentations stay
    at most the Betti number."""
    p = random_staggered_presentation(cfg, rng, rng.randint(2, 3))
    g = random_connected_automaton(replace(cfg, alphabet=p.alphabet), rng)
    res = complexes.check_multiword_inequality(g, p)
    if not res.passed:
        report.failures.append(
            _payload(g, relators=[format_word(r) for r in p.relators],
                     total=res.total, betti=res.betti)
        )
    return res.passed


@dataclass(frozen=True)
class Suite:
    """run_suite drives cfg.trials + extra_trials calls of trial; a suite
    that counts qualifying trials reports qualifying, starting from 0."""

    trial: Callable[[TrialConfig, int, random.Random, VerdictReport], bool]
    extra_trials: int = 0
    counts_qualifying: bool = False


SUITES = {
    "main": Suite(main_trial),
    "strict": Suite(strict_trial, counts_qualifying=True),
    "equality-collapse": Suite(equality_collapse_trial, extra_trials=100,
                               counts_qualifying=True),
    "oracle": Suite(oracle_trial),
    "fold-confluence": Suite(fold_confluence_trial),
    "shnc": Suite(shnc_trial),
    "restated": Suite(restated_trial),
    "conjugates": Suite(conjugates_trial),
    "conjugate-intersection": Suite(conjugate_intersection_trial),
    "staggered": Suite(staggered_trial),
    "npi": Suite(npi_trial),
}


def run_suite(name: str, cfg: TrialConfig) -> VerdictReport:
    if name not in SUITES:
        raise KeyError(
            f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))}"
        )
    suite = SUITES[name]
    report = VerdictReport(name, cfg.trials + suite.extra_trials, 0,
                           qualifying=0 if suite.counts_qualifying else None)
    start = time.perf_counter()
    for i in range(report.trials):
        rng = random.Random(trial_seed(cfg.master_seed, i))
        if suite.trial(cfg, i, rng, report):
            report.passes += 1
    report.wall_time = time.perf_counter() - start
    return report
