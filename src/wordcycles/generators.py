"""Seeded random instances: inverse automata, simple words, subgroups,
staggered presentations.

A draw is a function of the rng state it is handed, so random.Random(seed)
replays it.  Trial seeds are derived from (master seed, trial index) with a
stable hash so that suites can fan out without changing results.  The hash
is BLAKE2b, from the builtin _blake2 module: hashlib.blake2b is that same
function, but importing hashlib also maps OpenSSL's libcrypto (about 3.5 MB
of resident memory), which nothing here uses.

Stream contract: draws are defined on rng.getrandbits and rng.random, so
instances do not depend on how the stdlib implements shuffle or choice.  An
index below n is getrandbits(n.bit_length()), redrawn while >= n, and is
used where random.Random's shuffle, choice and randint use one.

Acceptance tests read only what the construction does not guarantee: drawn
words are freely reduced, so only their end letters and period are tested.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

# hashlib.blake2b is this object, and hashlib defines it only when _blake2
# imports (OpenSSL never supplies blake2), so a hashlib fallback would fail too.
from _blake2 import blake2b

from .graphs import LabeledDigraph, _built, component_containing
from .complexes import StaggeredPresentation
from .subgroups import SubgroupGraph, stallings_graph
from .words import Word, _period

MAX_GENERATORS = 4  # random_subgroup draws 1 to this many generators


@dataclass(frozen=True)
class TrialConfig:
    """A suite run's trial count and master seed, and the size bounds every
    generator draws within: vertices, alphabet, word length, edge density."""

    master_seed: int = 2024
    trials: int = 100
    max_vertices: int = 12
    alphabet: int = 2
    max_word_length: int = 8
    edge_density: float = 0.7

    def __post_init__(self):
        if type(self.master_seed) is not int:
            raise ValueError("master_seed must be an integer")
        for name in ("trials", "max_vertices", "alphabet", "max_word_length"):
            if type(getattr(self, name)) is not int or getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        d = self.edge_density
        if type(d) not in (int, float) or not 0.0 <= d <= 1.0:
            raise ValueError("edge density must be a number in [0, 1]")


def trial_seed(master_seed: int, index: int) -> int:
    """The 8-byte BLAKE2b digest of f"{master_seed}:{index}", read as a
    big-endian int.  A failure payload records this seed, and replay relies
    on it: random.Random(seed) redraws the trial's instance."""
    digest = blake2b(f"{master_seed}:{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _below(rng: random.Random, n: int) -> int:
    """rng.randrange(n) for n >= 1, drawn from the same getrandbits calls."""
    k = n.bit_length()
    while (r := rng.getrandbits(k)) >= n:
        pass
    return r


def random_inverse_automaton(cfg: TrialConfig, rng: random.Random) -> LabeledDigraph:
    """Per label, a random partial injection on the vertices: a random
    permutation with each mapped pair kept with the configured density.
    Deterministic by construction, so always a valid inverse automaton, and
    born with its slot rows: l and -l for each label on a kept edge, on
    n + 1 slots (the last the sink's), as _load_rows would make them."""
    getrandbits, random_, density = rng.getrandbits, rng.random, cfg.edge_density
    n = 1 + _below(rng, cfg.max_vertices)
    edges, rows = [], {}
    for l in range(1, cfg.alphabet + 1):
        targets = list(range(n))
        for i in range(n - 1, 0, -1):  # rng.shuffle(targets), inlined
            k = (i + 1).bit_length()
            while (j := getrandbits(k)) > i:
                pass
            targets[i], targets[j] = targets[j], targets[i]
        out, into, kept = [-1] * (n + 1), [-1] * (n + 1), len(edges)
        for v, t in enumerate(targets):
            if random_() < density:
                edges.append((v, t, l))
                out[v], into[t] = t, v
        if len(edges) > kept:
            rows[l], rows[-l] = out, into
    return _built(LabeledDigraph, cfg.alphabet, n, tuple(edges), None,
                  successor=rows, deterministic=True)


def random_connected_automaton(cfg: TrialConfig, rng: random.Random) -> LabeledDigraph:
    """The component of a random automaton containing a random vertex."""
    g = random_inverse_automaton(cfg, rng)
    return component_containing(g, _below(rng, g.num_vertices))


def random_permutation_automaton(cfg: TrialConfig, rng: random.Random) -> LabeledDigraph:
    """Full permutations for every label (a cover of the rose), connected
    component taken.  Every word traces from every vertex."""
    return random_connected_automaton(replace(cfg, edge_density=1.0), rng)


def random_reduced_word(cfg: TrialConfig, rng: random.Random, length: int) -> Word:
    return _reduced_word(rng, [x for l in range(1, cfg.alphabet + 1) for x in (l, -l)], length)


def _reduced_word(rng: random.Random, first: list[int], length: int) -> Word:
    """length letters, each as rng.choice would draw it from first less the
    inverse of the letter before.  first lists inverse pairs (l, -l), so the
    inverse of first[j] is first[j ^ 1], and an index into the m - 1 choices
    steps over that position: the word is freely reduced."""
    if length < 1:
        return ()
    getrandbits, m, k = rng.getrandbits, len(first), len(first).bit_length()
    while (j := getrandbits(k)) >= m:  # the first letter has all m choices
        pass
    letters = [first[j]]
    append, n, k = letters.append, m - 1, (m - 1).bit_length()
    for _ in range(length - 1):
        skip = j ^ 1
        while (j := getrandbits(k)) >= n:
            pass
        j += j >= skip
        append(first[j])
    return tuple(letters)


def random_simple_word(cfg: TrialConfig, rng: random.Random) -> Word:
    """Random reduced word, re-rolled until cyclically reduced and primitive.
    Over one letter only a and A qualify, so the length is then 1."""
    length = 1 + _below(rng, cfg.max_word_length)
    if cfg.alphabet == 1:
        length = 1
    first = [x for l in range(1, cfg.alphabet + 1) for x in (l, -l)]
    while True:  # w is reduced (_reduced_word), so only its ends can cancel
        w = _reduced_word(rng, first, length)
        if (length < 2 or w[0] != -w[-1]) and _period(w) == length:
            return w


def random_repeating_word(cfg: TrialConfig, rng: random.Random) -> Word:
    """Simple cyclically reduced word in which every generator of the
    alphabet occurs at least twice (either sign); feeds the suites whose
    hypotheses need every edge traversed repeatedly.  Over one letter no
    such word exists, so that raises ValueError."""
    if cfg.alphabet < 2:
        raise ValueError("a simple word using every letter twice needs alphabet >= 2")
    length = max(cfg.max_word_length, 2 * cfg.alphabet + 1)
    first = [x for l in range(1, cfg.alphabet + 1) for x in (l, -l)]
    while True:  # w is reduced, and length >= 5
        w = _reduced_word(rng, first, length)
        if w[0] != -w[-1] and _period(w) == length and all(
                w.count(l) + w.count(-l) >= 2 for l in range(1, cfg.alphabet + 1)):
            return w


def random_subgroup(cfg: TrialConfig, rng: random.Random) -> SubgroupGraph:
    k = 1 + _below(rng, MAX_GENERATORS)
    gens = [random_simple_word(cfg, rng) for _ in range(k)]
    return stallings_graph(gens, cfg.alphabet)


def random_staggered_presentation(cfg: TrialConfig, rng: random.Random,
                                  num_relators: int) -> StaggeredPresentation:
    """Relator i draws from the letter window {i+1, i+2} and must use both,
    so the ordered mins and maxes increase strictly: staggered by
    construction.  All letters ordered."""
    alphabet = max(cfg.alphabet, num_relators + 1)
    relators = []
    for i in range(num_relators):
        lo, hi = i + 1, i + 2
        while True:
            length = 2 + _below(rng, max(4, cfg.max_word_length) - 1)
            w = _reduced_word(rng, [lo, -lo, hi, -hi], length)
            used = {abs(x) for x in w}
            if used == {lo, hi} and w[0] != -w[-1] and _period(w) == length:
                relators.append(w)
                break
    return StaggeredPresentation(
        alphabet, tuple(relators), tuple(range(1, alphabet + 1))
    )
