import random

import pytest

from wordcycles.complexes import is_staggered
from wordcycles.generators import (
    TrialConfig,
    random_inverse_automaton,
    random_reduced_word,
    random_repeating_word,
    random_simple_word,
    random_staggered_presentation,
    random_subgroup,
    trial_seed,
)
from wordcycles.graphs import validate
from wordcycles.words import is_cyclically_reduced, is_reduced, is_simple


def rebuilt_choices_word(rng, letters, length):
    """Rebuild the list of choices for every letter, the previous letter's
    inverse left out; the draws the generators must reproduce."""
    word = []
    for _ in range(length):
        word.append(rng.choice([x for x in letters if not word or x != -word[-1]]))
    return tuple(word)


class TestTrialConfig:
    def test_defaults_valid(self):
        TrialConfig()

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            TrialConfig(trials=0)
        with pytest.raises(ValueError):
            TrialConfig(edge_density=1.5)


class TestSeeding:
    def test_trial_seed_deterministic(self):
        assert trial_seed(42, 7) == trial_seed(42, 7)
        assert trial_seed(42, 7) != trial_seed(42, 8)
        assert trial_seed(42, 7) != trial_seed(43, 7)


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
    """Choice lists built once per word give the same words, and leave the
    rng in the same state, as lists rebuilt for every letter."""

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
            assert rng.random() == ref.random()

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
            p = random_staggered_presentation(cfg, random.Random(seed), 3)
            assert p.relators == tuple(relators)


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

    def test_failed_self_check_raises(self, monkeypatch):
        monkeypatch.setattr("wordcycles.generators.is_staggered",
                            lambda p: (False, ["planted diagnostic"]))
        with pytest.raises(RuntimeError, match="planted diagnostic"):
            random_staggered_presentation(TrialConfig(alphabet=3), 0, 2)
