"""The benchmark's workloads.

A workload has ``setup`` (work done once, timed as set-up), ``inputs`` and
``round``, which runs one round of operations on those inputs through a
Session that times each one and judges its result with the clock stopped.
``round_seconds`` is the time of one round at the parent commit, corrected
to full speed (see ``Speed`` in run.py), on the 2-core machine the
benchmark was written on; it fixes how many repeats a run makes.
Inputs are drawn from ``random.Random(f"{seed}:{workload}")``.  Except in
verify-acceptance, where generating instances is part of what is measured,
they are made by the benchmark's own code, so the same seed gives the same
inputs whatever the library does.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import oracles
from layers import SUITES

HERE = Path(__file__).resolve().parent

# ---------------------------------------------------------------------------
# verify-acceptance

# The trial configs of tests/test_acceptance.py, one per suite.
ACCEPTANCE = {
    "main": dict(trials=10_000, max_vertices=30, alphabet=3, max_word_length=16,
                 edge_density=0.7),
    "oracle": dict(trials=1_000, max_vertices=8, alphabet=2, max_word_length=6),
    "strict": dict(trials=400, max_vertices=6, alphabet=2, max_word_length=8),
    "equality-collapse": dict(trials=1_000, max_vertices=10, alphabet=2,
                              max_word_length=8),
    "npi": dict(trials=1_000, max_vertices=12, alphabet=2, max_word_length=8),
    "fold-confluence": dict(trials=500, max_vertices=10, alphabet=2,
                            max_word_length=8),
    "shnc": dict(trials=1_000, max_vertices=10, alphabet=2, max_word_length=6),
    "restated": dict(trials=1_000, max_vertices=12, alphabet=2, max_word_length=8),
    "conjugates": dict(trials=1_000, max_vertices=10, alphabet=2, max_word_length=6),
    "conjugate-intersection": dict(trials=200, max_vertices=10, alphabet=3,
                                   max_word_length=5),
    "staggered": dict(trials=500, max_vertices=10, alphabet=3, max_word_length=6),
}
WARMUP_TRIALS = 10
DIGEST = HERE / "digest.json"


def summary(report) -> list:
    """The verdict fields that must not change at a fixed seed."""
    return [report.trials, report.passes, report.inconclusive, report.qualifying]


class VerifyAcceptance:
    """A round runs all 11 suites once at their acceptance configs.  The
    workload seed draws each suite's master seed from those recorded in
    digest.json, whose verdict summary the report must then match."""

    name = "verify-acceptance"
    round_seconds = 3.7

    def setup(self, mods, seed: int) -> None:
        self.digest = json.loads(DIGEST.read_text())
        config, verify = mods["generators"].TrialConfig, mods["verify"]
        for suite in SUITES:
            verify.run_suite(suite, config(
                master_seed=seed, **{**ACCEPTANCE[suite], "trials": WARMUP_TRIALS}))

    def inputs(self, mods, seed: int) -> list:
        rng = random.Random(f"{seed}:{self.name}")
        seeds = self.digest["master_seeds"]
        out = []
        for suite in SUITES:
            k = rng.randrange(len(seeds))
            cfg = mods["generators"].TrialConfig(master_seed=seeds[k],
                                                 **ACCEPTANCE[suite])
            out.append((suite, cfg, self.digest["suites"][suite][k]))
        return out

    def round(self, session, mods, suites) -> None:
        for suite, cfg, expected in suites:
            session.suite(suite, cfg, expected)


# ---------------------------------------------------------------------------
# Inputs made by the benchmark's own code


def reduced_word(rng: random.Random, alphabet: int, length: int,
                 letters=None) -> tuple[int, ...]:
    letters = letters or range(1, alphabet + 1)
    choices = [x for l in letters for x in (l, -l)]
    w: list[int] = []
    while len(w) < length:
        x = rng.choice(choices)
        if not w or x != -w[-1]:
            w.append(x)
    return tuple(w)


def simple_word(rng: random.Random, alphabet: int, length: int,
                letters=None) -> tuple[int, ...]:
    """Cyclically reduced and not a proper power."""
    while True:
        w = reduced_word(rng, alphabet, length, letters)
        if oracles.is_cyclically_reduced(w) and oracles.is_primitive(w):
            return w


def automaton(mods, rng: random.Random, n: int, alphabet: int, density: float):
    """Per label, a random permutation with each pair kept with probability
    density: a random inverse automaton on exactly n vertices."""
    edges = []
    for l in range(1, alphabet + 1):
        targets = list(range(n))
        rng.shuffle(targets)
        edges += [(v, targets[v], l) for v in range(n) if rng.random() < density]
    return mods["graphs"].LabeledDigraph(alphabet, n, tuple(edges))


def component(mods, g, start: int):
    """The connected component of g holding start, renumbered in order."""
    nbrs: list[list[int]] = [[] for _ in range(g.num_vertices)]
    for s, d, _ in g.edges:
        nbrs[s].append(d)
        nbrs[d].append(s)
    seen = {start}
    todo = [start]
    while todo:
        for u in nbrs[todo.pop()]:
            if u not in seen:
                seen.add(u)
                todo.append(u)
    number = {v: i for i, v in enumerate(sorted(seen))}
    edges = tuple((number[s], number[d], l) for s, d, l in g.edges if s in seen)
    return mods["graphs"].LabeledDigraph(g.alphabet, len(number), edges)


def wedge(mods, words, alphabet: int):
    """Subdivided loops reading each word, wedged at vertex 0 (unfolded)."""
    n, edges = oracles.wedge(words)
    return mods["graphs"].LabeledDigraph(alphabet, n, edges, 0)


def passed(report) -> bool:
    return report.passed


# ---------------------------------------------------------------------------
# subgroups-large

# Generator counts, spread over 4..60 in steps of about 13%: the cost of an
# operation follows k, and steps this fine keep the latency distribution
# free of gaps that a percentile could jump across.  Generators have length
# 12 and pairs are intersected and SHNC-checked only at small k, so that a
# round takes a few seconds and a run holds several repeats of it.  Both
# intersect and check_shnc build the whole fiber product; at length 20 and
# the parent commit, check_shnc takes 1.6 s at k = 6 and 3.5 s at k = 8
# (betti scans every edge once per component) and intersect 2.6 s at
# k = 60.
K_SCHEDULE = (4, 5, 6, 7, 8, 9, 10, 12, 14, 16, 18, 21, 24, 27, 31, 35, 40, 45, 51, 60)
INTERSECT_MAX_K = 27
SHNC_MAX_K = 6
GENERATOR_LENGTH = 12
# Lengths are fixed, and only letters random, so that input sizes and hence
# costs vary little from seed to seed.  What varies is how the words
# overlap, which sets each graph's size and the cost of every operation on
# it; two cases per k average that out.  With six probes per case the
# probes are most of the round's operations, so the median operation falls
# in their dense band of similar costs rather than on a step between the
# costs of Stallings graphs at consecutive small k.
PROBE_LENGTHS = (4, 6, 8, 10, 12, 14)
CASES_PER_K = 2


@dataclass(frozen=True)
class SubgroupCase:
    k: int
    gens_a: tuple
    gens_b: tuple | None
    probes: list
    wedge: object
    fold_seeds: tuple[int, int]


def fold_confluence(graphs, case: SubgroupCase):
    a = graphs.canonical_form(graphs.fold(case.wedge, random.Random(case.fold_seeds[0])))
    b = graphs.canonical_form(graphs.fold(case.wedge, random.Random(case.fold_seeds[1])))
    return a, b


def form(g):
    return oracles.canonical(g.num_vertices, g.edges, g.basepoint)


class Expected:
    """What each subgroups-large operation must return, computed by
    oracles.py from the generator words alone, once per run and reused by
    later repeats of the round."""

    def __init__(self):
        self._memo: dict = {}

    def _get(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def stallings(self, gens):
        return self._get(("stallings", gens), lambda: oracles.stallings(gens))

    def stallings_form(self, gens):
        return self._get(("form", gens),
                         lambda: oracles.canonical(*self.stallings(gens)))

    def fold_form(self, gens):
        return self._get(("fold", gens), lambda: oracles.canonical(
            *oracles.fold(*oracles.wedge(gens), 0)))

    def conjugates(self, gens, w):
        """(cycle classes of w, rank) on the Stallings graph of gens."""
        def compute():
            n, edges, _ = self.stallings(gens)
            return oracles.cycle_counts(n, edges, w)[1], oracles.betti_total(n, edges)
        return self._get(("conjugates", gens, w), compute)

    def intersection_form(self, gens_a, gens_b):
        return self._get(("intersect", gens_a, gens_b), lambda: oracles.canonical(
            *oracles.product_core(self.stallings(gens_a), self.stallings(gens_b))))

    def shnc(self, gens_a, gens_b):
        return self._get(("shnc", gens_a, gens_b), lambda: oracles.shnc_sides(
            self.stallings(gens_a), self.stallings(gens_b)))


class SubgroupsLarge:
    """Stallings graphs of k generated words over 2 letters, conjugate
    counting and fold confluence; intersections and SHNC on small pairs.
    Each result is compared with the same construction done by oracles.py."""

    name = "subgroups-large"
    round_seconds = 5.8

    def setup(self, mods, seed: int) -> None:
        self.expected = Expected()

    def inputs(self, mods, seed: int) -> list[SubgroupCase]:
        rng = random.Random(f"{seed}:{self.name}")
        cases = []
        for k in K_SCHEDULE * CASES_PER_K:
            gens_a = tuple(simple_word(rng, 2, GENERATOR_LENGTH) for _ in range(k))
            gens_b = (tuple(simple_word(rng, 2, GENERATOR_LENGTH) for _ in range(k))
                      if k <= INTERSECT_MAX_K else None)
            probes = [simple_word(rng, 2, n) for n in PROBE_LENGTHS]
            cases.append(SubgroupCase(k, gens_a, gens_b, probes,
                                      wedge(mods, gens_a, 2),
                                      (rng.getrandbits(64), rng.getrandbits(64))))
        return cases

    def round(self, session, mods, cases) -> None:
        sg, graphs, want = mods["subgroups"], mods["graphs"], self.expected
        for c in cases:
            a, b = c.gens_a, c.gens_b
            ha = session.op(lambda h, a=a: form(h.graph) == want.stallings_form(a),
                            sg.stallings_graph, list(a), 2)
            if ha is None:
                continue
            for w in c.probes:
                session.op(lambda r, a=a, w=w: r.passed and (r.count, r.rank)
                           == want.conjugates(a, w),
                           sg.count_conjugates_meeting, ha, w)
            session.op(lambda pair, a=a: pair[0] == pair[1]
                       and form(pair[0]) == want.fold_form(a),
                       fold_confluence, graphs, c)
            if b is None:
                continue
            hb = session.op(lambda h, b=b: form(h.graph) == want.stallings_form(b),
                            sg.stallings_graph, list(b), 2)
            if hb is None:
                continue
            session.op(lambda h, a=a, b=b: form(h.graph) == want.intersection_form(a, b),
                       sg.intersect, ha, hb)
            if c.k <= SHNC_MAX_K:
                session.op(lambda r, a=a, b=b: r.passed and (r.lhs, r.rhs)
                           == want.shnc(a, b),
                           sg.check_shnc, ha, hb)


# ---------------------------------------------------------------------------
# automata-large

# Vertex counts spread over 10^2..10^4, dense at the small end so that a
# round holds over 100 operations (a p90 with ten samples beyond it) while
# the large graphs dominate its time.
SIZES = (100, 130, 170, 220, 290, 380, 500, 1000, 3000, 10_000)
ALPHABET = 3
DENSITY = 0.7
MAIN_WORD_LENGTHS = (4, 8, 12, 16, 20, 24)
CHECK_WORD_LENGTH = 12
RELATOR_LENGTH = 8
MAX_WORD = 24
# At |V| ~ 10^3 the parent commit takes seconds per restated check.
RESTATED_MAX_VERTICES = 500


@dataclass(frozen=True)
class AutomatonCase:
    graph: object
    connected: object
    permutation: object
    words: list
    repeating: tuple
    presentation: object
    npi_word: tuple
    npi_seed: int
    equality_word: tuple


def repeating_word(rng: random.Random) -> tuple[int, ...]:
    """Simple word of length MAX_WORD using every letter at least twice."""
    while True:
        w = simple_word(rng, ALPHABET, MAX_WORD)
        if all(sum(abs(x) == l for x in w) >= 2 for l in range(1, ALPHABET + 1)):
            return w


def staggered(mods, rng: random.Random):
    """Relator i uses both letters of the window {i+1, i+2}; all letters are
    ordered, so minimal and maximal letters increase strictly."""
    relators = []
    for lo in range(1, ALPHABET):
        while True:
            w = simple_word(rng, ALPHABET, RELATOR_LENGTH, letters=(lo, lo + 1))
            if {abs(x) for x in w} == {lo, lo + 1}:
                relators.append(w)
                break
    return mods["complexes"].StaggeredPresentation(
        ALPHABET, tuple(relators), tuple(range(1, ALPHABET + 1)))


def npi_check(cycles, complexes, g, w, seed: int):
    """Attach a disc at a random vertex of about 70% of the w-cycle classes
    and check the nonpositive-immersion property."""
    rng = random.Random(seed)
    dec = cycles.decompose(g, w)
    attachments = [(c.vertices[rng.randrange(c.period)], c.period)
                   for c in dec.classes if rng.random() < 0.7]
    return complexes.check_npi(g, w, attachments)


def npi_verdict(report) -> bool | None:
    return None if report.branch == "inconclusive" else report.passed


def strict_verdict(report) -> bool:
    """The strict inequality is checked only where its hypothesis holds."""
    return report.passed or not report.applicable


class AutomataLarge:
    """Large random inverse automata, each reused by several checks."""

    name = "automata-large"
    round_seconds = 4.2

    def setup(self, mods, seed: int) -> None:
        pass

    def inputs(self, mods, seed: int) -> list[AutomatonCase]:
        rng = random.Random(f"{seed}:{self.name}")
        cases = []
        for n in SIZES:
            g = automaton(mods, rng, n, ALPHABET, DENSITY)
            cases.append(AutomatonCase(
                graph=g,
                connected=component(mods, g, rng.randrange(n)),
                permutation=component(mods, automaton(mods, rng, n, ALPHABET, 1.0), 0),
                words=[simple_word(rng, ALPHABET, m) for m in MAIN_WORD_LENGTHS],
                repeating=repeating_word(rng),
                presentation=staggered(mods, rng),
                npi_word=simple_word(rng, ALPHABET, CHECK_WORD_LENGTH),
                npi_seed=rng.getrandbits(64),
                equality_word=simple_word(rng, ALPHABET, CHECK_WORD_LENGTH),
            ))
        return cases

    def round(self, session, mods, cases) -> None:
        cycles, complexes, sg = mods["cycles"], mods["complexes"], mods["subgroups"]
        for c in cases:
            for w in c.words:
                session.op(passed, cycles.check_main_inequality, c.graph, w)
            session.op(strict_verdict, cycles.check_strict_inequality,
                       c.permutation, c.repeating)
            session.op(passed, complexes.check_multiword_inequality,
                       c.connected, c.presentation)
            session.op(npi_verdict, npi_check, cycles, complexes, c.connected,
                       c.npi_word, c.npi_seed)
            session.op(passed, complexes.check_equality_collapse, c.connected,
                       c.equality_word)
            if c.graph.num_vertices <= RESTATED_MAX_VERTICES:
                session.op(passed, sg.check_restated_inequality, c.npi_word, c.graph)


WORKLOADS = {w.name: w for w in (VerifyAcceptance, SubgroupsLarge, AutomataLarge)}
