"""Seeded random instances: inverse automata, simple words, subgroups,
staggered presentations.

Every generator is a deterministic function of its seed.  Trial seeds are
derived from (master seed, trial index) with a stable hash so that suites
can fan out without changing results.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace

from .graphs import LabeledDigraph, component_containing
from .complexes import StaggeredPresentation, is_staggered
from .subgroups import SubgroupGraph, stallings_graph
from .words import Word, is_cyclically_reduced, is_simple


@dataclass(frozen=True)
class TrialConfig:
    master_seed: int = 2024
    trials: int = 100
    max_vertices: int = 12
    alphabet: int = 2
    max_word_length: int = 8
    edge_density: float = 0.7

    def __post_init__(self):
        if self.trials < 1 or self.max_vertices < 1 or self.alphabet < 1 \
                or self.max_word_length < 1:
            raise ValueError("all bounds must be positive")
        if not 0.0 <= self.edge_density <= 1.0:
            raise ValueError("edge density must lie in [0, 1]")


def trial_seed(master_seed: int, index: int) -> int:
    digest = hashlib.blake2b(
        f"{master_seed}:{index}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def _as_rng(seed_or_rng) -> random.Random:
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return random.Random(seed_or_rng)


def random_inverse_automaton(cfg: TrialConfig, seed_or_rng) -> LabeledDigraph:
    """Per label, a random partial injection on the vertices: a random
    permutation with each mapped pair kept with the configured density.
    Deterministic by construction, so always a valid inverse automaton."""
    rng = _as_rng(seed_or_rng)
    n = rng.randint(1, cfg.max_vertices)
    edges = []
    for l in range(1, cfg.alphabet + 1):
        targets = list(range(n))
        rng.shuffle(targets)
        for v in range(n):
            if rng.random() < cfg.edge_density:
                edges.append((v, targets[v], l))
    return LabeledDigraph(cfg.alphabet, n, tuple(edges))


def random_connected_automaton(cfg: TrialConfig, seed_or_rng) -> LabeledDigraph:
    """The component of a random automaton containing a random vertex."""
    rng = _as_rng(seed_or_rng)
    g = random_inverse_automaton(cfg, rng)
    return component_containing(g, rng.randrange(g.num_vertices))


def random_permutation_automaton(cfg: TrialConfig, seed_or_rng) -> LabeledDigraph:
    """Full permutations for every label (a cover of the rose), connected
    component taken.  Every word traces from every vertex."""
    rng = _as_rng(seed_or_rng)
    g = random_inverse_automaton(replace(cfg, edge_density=1.0), rng)
    return component_containing(g, rng.randrange(g.num_vertices))


def random_reduced_word(cfg: TrialConfig, rng: random.Random, length: int) -> Word:
    return _reduced_word(rng, [x for l in range(1, cfg.alphabet + 1) for x in (l, -l)], length)


def _reduced_word(rng: random.Random, first: list[int], length: int) -> Word:
    """length letters drawn by rng.choice from first, less the inverse of the
    letter before; each such list of choices is built once."""
    after: dict[int, list[int]] = {}  # previous letter -> choices
    letters: list[int] = []
    choices = first
    for _ in range(length):
        x = rng.choice(choices)
        letters.append(x)
        choices = after.get(x)
        if choices is None:
            choices = after[x] = [y for y in first if y != -x]
    return tuple(letters)


def random_simple_word(cfg: TrialConfig, seed_or_rng) -> Word:
    """Random reduced word, re-rolled until cyclically reduced and primitive.
    Over one letter only a and A qualify, so the length is then 1."""
    rng = _as_rng(seed_or_rng)
    length = rng.randint(1, cfg.max_word_length)
    if cfg.alphabet == 1:
        length = 1
    while True:
        w = random_reduced_word(cfg, rng, length)
        if is_cyclically_reduced(w) and is_simple(w):
            return w


def random_repeating_word(cfg: TrialConfig, seed_or_rng) -> Word:
    """Simple cyclically reduced word in which every generator of the
    alphabet occurs at least twice (either sign); feeds the suites whose
    hypotheses need every edge traversed repeatedly.  Over one letter no
    such word exists, so that raises ValueError."""
    if cfg.alphabet < 2:
        raise ValueError("a simple word using every letter twice needs alphabet >= 2")
    rng = _as_rng(seed_or_rng)
    length = max(cfg.max_word_length, 2 * cfg.alphabet + 1)
    while True:
        w = random_reduced_word(cfg, rng, length)
        if not (is_cyclically_reduced(w) and is_simple(w)):
            continue
        counts = [0] * (cfg.alphabet + 1)
        for x in w:
            counts[abs(x)] += 1
        if all(c >= 2 for c in counts[1:]):
            return w


def random_subgroup(
    cfg: TrialConfig, seed_or_rng, max_generators: int = 4
) -> SubgroupGraph:
    rng = _as_rng(seed_or_rng)
    k = rng.randint(1, max_generators)
    gens = [random_simple_word(cfg, rng) for _ in range(k)]
    return stallings_graph(gens, cfg.alphabet)


def random_staggered_presentation(
    cfg: TrialConfig, seed_or_rng, num_relators: int
) -> StaggeredPresentation:
    """Relator i draws from the letter window {i+1, i+2} and must use both,
    so the ordered mins and maxes increase strictly.  All letters ordered."""
    rng = _as_rng(seed_or_rng)
    alphabet = max(cfg.alphabet, num_relators + 1)
    relators = []
    for i in range(num_relators):
        lo, hi = i + 1, i + 2
        while True:
            length = rng.randint(2, max(4, cfg.max_word_length))
            w = _reduced_word(rng, [lo, -lo, hi, -hi], length)
            used = {abs(x) for x in w}
            if used == {lo, hi} and is_cyclically_reduced(w) and is_simple(w):
                relators.append(w)
                break
    p = StaggeredPresentation(
        alphabet, tuple(relators), tuple(range(1, alphabet + 1))
    )
    ok, diagnostics = is_staggered(p)
    if not ok:
        raise RuntimeError("generated presentation is not staggered: "
                           + "; ".join(diagnostics))
    return p
