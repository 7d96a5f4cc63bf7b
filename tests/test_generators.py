import hashlib
import os
import random
import subprocess
import sys
from dataclasses import astuple, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordcycles import generators
from wordcycles.complexes import is_staggered
from wordcycles.generators import (
    TrialConfig,
    random_connected_automaton,
    random_inverse_automaton,
    random_permutation_automaton,
    random_reduced_word,
    random_repeating_word,
    random_simple_word,
    random_staggered_presentation,
    random_subgroup,
    trial_seed,
)
from wordcycles.graphs import LabeledDigraph, component_containing, validate
from wordcycles.subgroups import stallings_graph
from wordcycles.words import is_cyclically_reduced, is_reduced, is_simple


def rebuilt_choices_word(rng, letters, length):
    """Rebuild the list of choices for every letter, the previous letter's
    inverse left out; the draws the generators must reproduce."""
    word = []
    for _ in range(length):
        word.append(rng.choice([x for x in letters if not word or x != -word[-1]]))
    return tuple(word)


def stdlib_inverse_automaton(cfg, rng):
    """random_inverse_automaton as written on rng.randint and rng.shuffle."""
    n = rng.randint(1, cfg.max_vertices)
    edges = []
    for l in range(1, cfg.alphabet + 1):
        targets = list(range(n))
        rng.shuffle(targets)
        for v in range(n):
            if rng.random() < cfg.edge_density:
                edges.append((v, targets[v], l))
    return LabeledDigraph(cfg.alphabet, n, tuple(edges))


def stdlib_simple_word(cfg, rng):
    """random_simple_word as written on rng.randint and rng.choice."""
    letters = [x for l in range(1, cfg.alphabet + 1) for x in (l, -l)]
    length = rng.randint(1, cfg.max_word_length)
    if cfg.alphabet == 1:
        length = 1
    while True:
        w = rebuilt_choices_word(rng, letters, length)
        if is_cyclically_reduced(w) and is_simple(w):
            return w


def stdlib_repeating_word(cfg, rng):
    letters = [x for l in range(1, cfg.alphabet + 1) for x in (l, -l)]
    length = max(cfg.max_word_length, 2 * cfg.alphabet + 1)
    while True:
        w = rebuilt_choices_word(rng, letters, length)
        if is_cyclically_reduced(w) and is_simple(w) and all(
                sum(abs(x) == l for x in w) >= 2 for l in range(1, cfg.alphabet + 1)):
            return w


def stdlib_draws(cfg):
    """(library generator, its stdlib reference) pairs; each takes an rng."""
    def connected(rng):
        g = stdlib_inverse_automaton(cfg, rng)
        return component_containing(g, rng.randrange(g.num_vertices))

    def permutation(rng):
        g = stdlib_inverse_automaton(replace(cfg, edge_density=1.0), rng)
        return component_containing(g, rng.randrange(g.num_vertices))

    def subgroup(rng):
        k = rng.randint(1, 4)
        return stallings_graph([stdlib_simple_word(cfg, rng) for _ in range(k)],
                               cfg.alphabet)

    pairs = [
        (lambda rng: random_inverse_automaton(cfg, rng),
         lambda rng: stdlib_inverse_automaton(cfg, rng)),
        (lambda rng: random_connected_automaton(cfg, rng), connected),
        (lambda rng: random_permutation_automaton(cfg, rng), permutation),
        (lambda rng: random_simple_word(cfg, rng), lambda rng: stdlib_simple_word(cfg, rng)),
        (lambda rng: random_subgroup(cfg, rng), subgroup),
    ]
    if cfg.alphabet >= 2:
        pairs.append((lambda rng: random_repeating_word(cfg, rng),
                      lambda rng: stdlib_repeating_word(cfg, rng)))
    return pairs


configs = st.builds(TrialConfig, max_vertices=st.integers(1, 40),
                    alphabet=st.integers(1, 4), max_word_length=st.integers(1, 20),
                    edge_density=st.sampled_from([0, 1]) | st.floats(0.0, 1.0))


class TestDrawsAgainstStdlib:
    """The generators draw from getrandbits what random.Random's shuffle,
    randint, randrange and choice would: the same instances, and the rng left
    in the same state."""

    @settings(max_examples=150, deadline=None)
    @given(configs, st.integers(0, 2**64))
    def test_every_generator(self, cfg, seed):
        for draw, reference in stdlib_draws(cfg):
            rng, ref = random.Random(seed), random.Random(seed)
            assert draw(rng) == reference(ref)
            assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("max_vertices", [1, 2, 3, 4, 5, 8, 9, 16, 17, 64, 65])
    def test_automaton_at_bit_width_edges(self, max_vertices):
        cfg = TrialConfig(max_vertices=max_vertices, alphabet=3)
        for seed in range(30):
            rng, ref = random.Random(seed), random.Random(seed)
            assert random_inverse_automaton(cfg, rng) == stdlib_inverse_automaton(cfg, ref)
            assert rng.getstate() == ref.getstate()


class TestTrialConfig:
    def test_defaults_valid(self):
        TrialConfig()

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            TrialConfig(trials=0)
        with pytest.raises(ValueError):
            TrialConfig(edge_density=1.5)

    @pytest.mark.parametrize("field, value", [
        ("trials", 2.5), ("trials", 100.0), ("trials", True), ("trials", "100"),
        ("max_vertices", 3.0), ("max_vertices", 2.5), ("max_vertices", None),
        ("alphabet", 2.0), ("alphabet", True), ("max_word_length", 8.0),
        ("max_word_length", "8"), ("edge_density", True), ("edge_density", "0.5"),
        ("edge_density", None), ("edge_density", float("nan")),
        ("master_seed", None), ("master_seed", [1]), ("master_seed", "7"),
        ("master_seed", True), ("master_seed", 7.0),
    ])
    def test_rejects_non_integer_bounds(self, field, value):
        with pytest.raises(ValueError) as excinfo:
            TrialConfig(**{field: value})
        message = str(excinfo.value)
        assert "\n" not in message
        assert field.replace("_", " ") in message or field in message

    @pytest.mark.parametrize("density", [0, 1, 0.0, 0.5, 1.0])
    def test_density_int_or_float(self, density):
        assert TrialConfig(edge_density=density).edge_density == density


def reference_seed(master_seed, index):
    """The documented seed function, computed through hashlib."""
    digest = hashlib.blake2b(f"{master_seed}:{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class TestSeeding:
    def test_trial_seed_deterministic(self):
        assert trial_seed(42, 7) == trial_seed(42, 7)
        assert trial_seed(42, 7) != trial_seed(42, 8)
        assert trial_seed(42, 7) != trial_seed(43, 7)

    # computed with hashlib.blake2b before the hash moved to _blake2; replay
    # of every recorded payload depends on these values
    @pytest.mark.parametrize("master_seed, index, seed", [
        (0, 0, 15378838894278201442),
        (2024, 0, 9891282927481733778),
        (2024, 9999, 12383494685784466580),
        (-1, 0, 15692733309662836941),
        (-7, 3, 13896299514301186815),
        (2**64, 1, 1164055221380801141),
        (2**70 + 1, 12, 7903595480172064220),
        (-(2**80), 5, 12207153379441891477),
    ])
    def test_pinned(self, master_seed, index, seed):
        assert trial_seed(master_seed, index) == seed

    def test_matches_hashlib(self):
        rng = random.Random(13)
        for _ in range(1000):
            m, i = rng.randrange(-2**80, 2**80), rng.randrange(10**6)
            assert trial_seed(m, i) == reference_seed(m, i)

    def test_same_function_as_hashlib(self):
        assert generators.blake2b is hashlib.blake2b

    def test_imports_skip_hashlib(self):
        # a fresh interpreter: importing the library and its CLI must not
        # load hashlib, whose _hashlib maps OpenSSL's libcrypto
        root = Path(__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        code = ("import sys; before = set(sys.modules); "
                "import wordcycles, wordcycles.cli; "
                "print(*sorted(set(sys.modules) - before))")
        res = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert res.returncode == 0, res.stderr
        added = res.stdout.split()
        assert "wordcycles.cli" in added
        assert not {"hashlib", "_hashlib", "ssl"} & set(added)


class TestRandomAutomaton:
    def test_always_valid(self):
        cfg = TrialConfig(max_vertices=15, alphabet=3, edge_density=0.8)
        for seed in range(50):
            assert validate(random_inverse_automaton(cfg, seed)) == []

    def test_same_seed_same_graph(self):
        cfg = TrialConfig()
        assert random_inverse_automaton(cfg, 5) == random_inverse_automaton(cfg, 5)

    def test_zero_density_edgeless(self):
        cfg = TrialConfig(edge_density=0.0)
        assert random_inverse_automaton(cfg, 1).edges == ()


class TestRandomWord:
    def test_contract(self):
        cfg = TrialConfig(alphabet=2, max_word_length=10)
        for seed in range(50):
            w = random_simple_word(cfg, seed)
            assert w and is_cyclically_reduced(w) and is_simple(w)

    def test_same_seed_same_word(self):
        cfg = TrialConfig()
        assert random_simple_word(cfg, 9) == random_simple_word(cfg, 9)

    def test_length_one_alphabet_one(self):
        for max_word_length in (1, 5):
            cfg = TrialConfig(alphabet=1, max_word_length=max_word_length)
            for seed in range(20):
                assert random_simple_word(cfg, seed) in [(1,), (-1,)]

    def test_repeating_word_needs_two_letters(self):
        with pytest.raises(ValueError, match="alphabet >= 2"):
            random_repeating_word(TrialConfig(alphabet=1), 0)

    def test_repeating_word_covers_alphabet(self):
        cfg = TrialConfig(alphabet=2, max_word_length=8)
        for seed in range(20):
            w = random_repeating_word(cfg, seed)
            for l in (1, 2):
                assert sum(1 for x in w if abs(x) == l) >= 2


class TestWordDraws:
    """Letters drawn by index from getrandbits give the same words, and leave
    the rng in the same state, as rng.choice over lists rebuilt for every
    letter."""

    @pytest.mark.parametrize("alphabet", [1, 2, 3, 5])
    def test_reduced_word(self, alphabet):
        cfg = TrialConfig(alphabet=alphabet)
        letters = [x for l in range(1, alphabet + 1) for x in (l, -l)]
        for seed in range(40):
            rng, ref = random.Random(seed), random.Random(seed)
            for length in (0, 1, 2, 7, 16):
                w = random_reduced_word(cfg, rng, length)
                assert w == rebuilt_choices_word(ref, letters, length)
                assert len(w) == length and is_reduced(w)
            assert rng.getstate() == ref.getstate()

    def test_staggered_relators(self):
        cfg = TrialConfig(max_word_length=6)
        for seed in range(30):
            ref = random.Random(seed)
            relators = []
            for lo, hi in ((1, 2), (2, 3), (3, 4)):
                while True:
                    length = ref.randint(2, 6)
                    w = rebuilt_choices_word(ref, [lo, -lo, hi, -hi], length)
                    if {abs(x) for x in w} == {lo, hi} and is_cyclically_reduced(w) \
                            and is_simple(w):
                        relators.append(w)
                        break
            rng = random.Random(seed)
            p = random_staggered_presentation(cfg, rng, 3)
            assert p.relators == tuple(relators)
            assert rng.getstate() == ref.getstate()


class TestRandomSubgroup:
    def test_connected_based(self):
        cfg = TrialConfig(alphabet=2, max_word_length=6)
        for seed in range(20):
            h = random_subgroup(cfg, seed)
            assert h.graph.basepoint is not None
            assert validate(h.graph) == []


class TestRandomStaggered:
    def test_always_staggered_and_simple(self):
        cfg = TrialConfig(alphabet=3, max_word_length=6)
        rng = random.Random(0)
        for _ in range(20):
            p = random_staggered_presentation(cfg, rng, rng.randint(2, 3))
            ok, _ = is_staggered(p)
            assert ok
            assert all(is_simple(r) for r in p.relators)


def instance_stream(cfg: TrialConfig, trials: int = 200) -> str:
    """sha256 over the instances every generator draws for the first trial
    seeds of cfg, each from a fresh rng, and one draw of the rng state each
    generator leaves."""
    def graph(g):
        return (g.alphabet, g.num_vertices, g.basepoint, g.edges)

    generators = [
        lambda rng: graph(random_inverse_automaton(cfg, rng)),
        lambda rng: graph(random_connected_automaton(cfg, rng)),
        lambda rng: graph(random_permutation_automaton(cfg, rng)),
        lambda rng: random_simple_word(cfg, rng),
        lambda rng: random_repeating_word(cfg, rng),
        lambda rng: graph(random_subgroup(cfg, rng).graph),
        lambda rng: astuple(random_staggered_presentation(cfg, rng, 3)),
    ]
    h = hashlib.sha256()
    for index in range(trials):
        seed = trial_seed(cfg.master_seed, index)
        for draw in generators:
            rng = random.Random(seed)
            h.update(repr((draw(rng), rng.getrandbits(32))).encode())
    return h.hexdigest()


class TestInstanceStream:
    """The instances drawn at fixed seeds, pinned: suite verdicts alone
    would not show a drifted stream, since every trial passes."""

    @pytest.mark.parametrize("cfg, expected", [
        (TrialConfig(master_seed=11),
         "2ac063991317335b1553759744fb2da7b9f076a46cf897801de16070b6f6542c"),
        (TrialConfig(master_seed=12, max_vertices=20, alphabet=3,
                     max_word_length=12, edge_density=0.4),
         "3030441a711eb549f32edfe808b7b0f2b95e36f4bf6c16a60e7eb1dab9397c8a"),
    ])
    def test_pinned(self, cfg, expected):
        assert instance_stream(cfg) == expected
