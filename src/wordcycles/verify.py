"""Property-verification suites: each runs one theorem check over seeded
random instances and reports pass/fail counts with counterexample payloads.

A suite is a draw function plus a ``SUITES`` entry naming its check.
``draw(cfg, index, rng)`` returns one instance, drawn from rng, as the
check's keyword arguments; ``run_suite`` reseeds one rng before each draw
with ``rng.seed(trial_seed(cfg.master_seed, index))``, which puts it on the
stream a fresh ``random.Random`` of that seed gives, so draws share no state;
the check's report has ``passed`` and, for a theorem with a hypothesis,
``applicable``.  Only ``run_suite`` writes a VerdictReport: a trial passes
when its report passed or was not applicable, ``qualifying`` counts the
applicable trials of a check whose report has ``applicable``, and all
failure payloads share one shape.  A check that raises ValueError on its
suite's own draw fails the trial, the payload's ``error`` holding the message
(a draw that raises is invalid input).  A payload p replays its trial:
``SUITES[p["suite"]].draw(TrialConfig(**p["config"]), p["trial"],
random.Random(p["trial_seed"]))`` redraws the instance.  Every check
decides its instance, so ``inconclusive``, kept in the JSON, reads 0.
"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from types import SimpleNamespace
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
    """One suite run: trials, passes, the failures' replay payloads,
    inconclusive trials, wall time, and the applicable trials where the
    suite's reports say (qualifying)."""

    suite: str
    trials: int
    passes: int
    failures: list[dict] = field(default_factory=list)
    inconclusive: int = 0
    wall_time: float = 0.0
    qualifying: int | None = None

    def to_json(self) -> dict:
        return {k: v for k, v in vars(self).items() if k != "qualifying" or v is not None}


def _encode(value):
    """An instance value in the library's file formats: graphs, subgroups and
    presentations as their JSON files, words (tuples) in the text syntax."""
    if isinstance(value, subgroups.SubgroupGraph):
        value = value.graph
    if isinstance(value, graphs.LabeledDigraph):
        return graphs.to_json(value)
    if isinstance(value, complexes.StaggeredPresentation):
        return {**vars(value), "relators": _encode(list(value.relators))}
    if isinstance(value, tuple):
        return format_word(value)
    if isinstance(value, list):
        return [_encode(v) for v in value]
    return value


def draw_main(cfg, index, rng):
    """Class count <= Betti number, per component and in total (main), and
    in Betti form via the circle fiber product (restated)."""
    return {"g": random_inverse_automaton(cfg, rng), "w": random_simple_word(cfg, rng)}


def draw_oracle(cfg, index, rng):
    """Orbit-cycle counts agree exactly with brute-force path enumeration."""
    cfg = replace(cfg, max_vertices=min(cfg.max_vertices, cycles.ORACLE_MAX_VERTICES),
                  max_word_length=min(cfg.max_word_length, 6))
    return draw_main(cfg, index, rng)


def oracle_check(g, w):
    """decompose's two counts against the brute-force oracle_counts."""
    dec = cycles.decompose(g, w)
    slow = cycles.oracle_counts(g, w)
    return SimpleNamespace(
        count_with_multiplicity=dec.count_with_multiplicity, class_count=dec.class_count,
        oracle_count_with_multiplicity=slow[0], oracle_class_count=slow[1],
        passed=(dec.count_with_multiplicity, dec.class_count) == slow)


def draw_strict(cfg, index, rng):
    """Strict inequality with multiplicity when every edge is traversed at
    least twice.  Qualifying instances are found by rejection over rose
    covers and words repeating every generator; the rest are not
    applicable."""
    return {"g": random_permutation_automaton(cfg, rng),
            "w": random_repeating_word(cfg, rng)}


def draw_equality_collapse(cfg, index, rng):
    """Whenever class count equals the Betti number, the disc complex
    collapses to a tree.  Trials below cfg.trials draw random connected
    instances (only those hitting equality qualify); the 100 after them
    read the circle of w, where equality 1 = 1 is automatic."""
    if index < cfg.trials:
        return {"g": random_connected_automaton(cfg, rng),
                "w": random_simple_word(cfg, rng)}
    w = random_simple_word(cfg, rng)
    return {"g": graphs.circle(w, cfg.alphabet), "w": w}


def draw_npi(cfg, index, rng):
    """Every generated immersion has Euler characteristic <= 0 or collapses."""
    g = random_connected_automaton(cfg, rng)
    w = random_simple_word(cfg, rng)
    attachments = [[c[rng.randrange(len(c))], len(c)]
                   for c in cycles.decompose(g, w).cycles if rng.random() < 0.7]
    return {"g": g, "w": w, "attachments": attachments}


def draw_fold_confluence(cfg, index, rng):
    """Any two fold orders give the same graph, and every generator still
    traces closed at the base."""
    gens = [random_simple_word(cfg, rng) for _ in range(rng.randint(1, 4))]
    return {"generators": gens, "alphabet": cfg.alphabet,
            "seeds": [rng.getrandbits(64), rng.getrandbits(64)]}


def fold_confluence_check(generators, alphabet, seeds):
    """Each seed orders one fold of the wedge of the generators, and the folds
    must be equal.  A failure with ``unclosed`` 0 is a confluence failure."""
    wedge = graphs.wedge_of_words(generators, alphabet)
    a, b = (graphs.fold(wedge, random.Random(s)) for s in seeds)
    unclosed = sum(graphs.walk(a, a.basepoint, w) != a.basepoint for w in generators)
    return SimpleNamespace(unclosed=unclosed, passed=a == b and not unclosed)


def draw_shnc(cfg, index, rng):
    """Strengthened Hanna Neumann inequality on random folded pairs."""
    return {"g1": random_subgroup(cfg, rng), "g2": random_subgroup(cfg, rng)}


def draw_conjugates(cfg, index, rng):
    """Conjugates of a maximal cyclic subgroup meeting H number at most
    rank(H)."""
    return {"h": random_subgroup(cfg, rng), "w": random_simple_word(cfg, rng)}


def draw_conjugate_intersection(cfg, index, rng):
    """rank(H)+1 distinct cosets of a free factor H force a trivial
    conjugate intersection."""
    if cfg.alphabet < 2:
        raise ValueError("conjugate-intersection suite needs alphabet >= 2")
    if cfg.alphabet >= 4 and cfg.max_word_length < 2:  # length 1 reaches 1 + 2(k - r) cosets
        raise ValueError("conjugate-intersection suite needs max_word_length >= 2 "
                         "when alphabet >= 4")
    r = rng.randint(1, cfg.alphabet - 1)
    letters = rng.sample(range(1, cfg.alphabet + 1), r)
    h = subgroups.stallings_graph([(l,) for l in letters], cfg.alphabet)
    cosets: list[Word] = [()]
    while len(cosets) < r + 1:
        cand = free_reduce(random_simple_word(cfg, rng))
        if not any(subgroups.contains(h, cand + invert(c)) for c in cosets):
            cosets.append(cand)
    return {"h": h, "cosets": cosets}


def draw_staggered(cfg, index, rng):
    """Summed relator class counts of staggered simple presentations stay
    at most the Betti number."""
    p = random_staggered_presentation(cfg, rng, rng.randint(2, 3))
    return {"g": random_connected_automaton(replace(cfg, alphabet=p.alphabet), rng),
            "p": p}


@dataclass(frozen=True)
class Suite:
    """run_suite checks cfg.trials + extra_trials drawn instances.  check is
    "module.function", read at each run so perfbench's wrappers see every
    call; qualifying counts applicable trials if its reports have applicable."""

    draw: Callable[[TrialConfig, int, random.Random], dict]
    check: str
    extra_trials: int = 0


SUITES = {
    "main": Suite(draw_main, "cycles.check_main_inequality"),
    "strict": Suite(draw_strict, "cycles.check_strict_inequality"),
    "equality-collapse": Suite(draw_equality_collapse, "complexes.check_equality_collapse",
                               extra_trials=100),
    "oracle": Suite(draw_oracle, "verify.oracle_check"),
    "fold-confluence": Suite(draw_fold_confluence, "verify.fold_confluence_check"),
    "shnc": Suite(draw_shnc, "subgroups.check_shnc"),
    "restated": Suite(draw_main, "subgroups.check_restated_inequality"),
    "conjugates": Suite(draw_conjugates, "subgroups.count_conjugates_meeting"),
    "conjugate-intersection": Suite(draw_conjugate_intersection,
                                    "subgroups.check_conjugate_intersection"),
    "staggered": Suite(draw_staggered, "complexes.check_multiword_inequality"),
    "npi": Suite(draw_npi, "complexes.check_npi"),
}


def run_suite(name: str, cfg: TrialConfig) -> VerdictReport:
    if name not in SUITES:
        raise ValueError(
            f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))}"
        )
    suite = SUITES[name]
    module, _, function = suite.check.partition(".")
    check = getattr(sys.modules[f"{__package__}.{module}"], function)
    report = VerdictReport(name, cfg.trials + suite.extra_trials, 0)
    # seeded: random.Random() would read its state from os.urandom, and each
    # trial reseeds it anyway
    rng, start = random.Random(0), time.perf_counter()
    for i in range(report.trials):
        seed = trial_seed(cfg.master_seed, i)
        rng.seed(seed)  # the stream of random.Random(seed), on one instance
        instance = suite.draw(cfg, i, rng)
        try:
            res = check(**instance)
        except ValueError as exc:  # the check rejects its own suite's draw: a failure
            res = SimpleNamespace(passed=False, error=str(exc))
        applicable = getattr(res, "applicable", None)
        if res.passed or applicable is False:
            report.passes += 1
        else:  # one payload shape: what replays the trial, instance, counts
            report.failures.append(
                {"suite": name, "trial": i, "trial_seed": seed, "config": asdict(cfg),
                 **{k: _encode(v) for k, v in instance.items()},
                 **{k: v for k, v in vars(res).items() if type(v) is int or k == "error"}})
        if applicable is not None:
            report.qualifying = (report.qualifying or 0) + applicable
    report.wall_time = time.perf_counter() - start
    return report
