"""A drawn word is born proven simple: each word generator returns a
words._Simple, which is_reduced and require_simple_cyclic pass without a
scan.  These tests check that the mark is earned (each marked word, as a
plain tuple, passes the full gate), that nothing derived from a marked word
keeps the mark, and that no predicate, gate, builder or check reads a
marked word differently from its plain copy."""

import random
import re
import warnings
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordcycles import complexes, cycles, graphs, subgroups
from wordcycles.generators import (
    TrialConfig,
    random_reduced_word,
    random_repeating_word,
    random_simple_word,
    random_staggered_presentation,
    trial_seed,
)
from wordcycles.verify import SUITES, _check
from wordcycles.words import (
    _Simple,
    cyclic_reduce,
    format_word,
    free_reduce,
    invert,
    is_cyclically_reduced,
    is_reduced,
    is_simple,
    primitive_root,
    require_cyclic,
    require_simple_cyclic,
)

SWEEP = [TrialConfig(alphabet=a, max_word_length=m)
         for a in range(1, 5) for m in range(1, 17)]


def marked_words(cfg: TrialConfig, seed: int) -> list:
    """Every word the generators draw from random.Random(seed) at cfg."""
    rng = random.Random(seed)
    words = [random_simple_word(cfg, rng)]
    if cfg.alphabet >= 2:
        words.append(random_repeating_word(cfg, rng))
    words += random_staggered_presentation(cfg, rng, 3).relators
    return words


@pytest.mark.parametrize("cfg", SWEEP, ids=lambda c: f"a{c.alphabet}-m{c.max_word_length}")
def test_each_marked_word_passes_the_full_gate(cfg):
    for seed in range(12):
        for w in marked_words(cfg, seed):
            assert type(w) is _Simple
            plain = tuple(w)
            assert type(plain) is tuple and plain == w
            require_simple_cyclic(plain)  # the full gate: shape and period


PREDICATES = [is_reduced, is_cyclically_reduced, free_reduce, cyclic_reduce,
              primitive_root, require_cyclic, require_simple_cyclic]


def answer(f, w):
    try:
        return f(w)
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("cfg", SWEEP, ids=lambda c: f"a{c.alphabet}-m{c.max_word_length}")
def test_the_predicates_read_a_marked_word_as_its_plain_copy(cfg):
    # is_reduced reads the mark, and the others inherit it through it
    for seed in range(12):
        for w in marked_words(cfg, seed):
            for f in PREDICATES:
                assert answer(f, w) == answer(f, tuple(w)), (f.__name__, w)


def test_a_reduced_word_is_not_marked():
    # a reduced word may end in inverse letters: only the simple draws prove
    cfg = TrialConfig(alphabet=2)
    for seed in range(20):
        assert type(random_reduced_word(cfg, random.Random(seed), 6)) is tuple


def test_derived_words_are_plain_tuples():
    w = random_simple_word(TrialConfig(max_word_length=6), random.Random(3))
    assert type(w) is _Simple
    for derived in (w * 2, w + w, w + (), w[1:], w[:], w[::-1], invert(w),
                    free_reduce(w), tuple(w)):
        assert type(derived) is tuple


def test_a_proper_power_of_a_marked_word_is_rejected_as_before():
    g = graphs.rose(2)
    w = random_simple_word(TrialConfig(max_word_length=6), random.Random(3))
    message = (f"word {format_word(w * 2)!r} is the proper power {format_word(w)!r}^2; "
               "use its primitive root")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cycles.decompose(g, w * 2)


def plain(value):
    """value with every word a plain tuple: lists, relators and words
    rebuilt, graphs left as they are."""
    if isinstance(value, complexes.StaggeredPresentation):
        return replace(value, relators=tuple(map(tuple, value.relators)))
    if isinstance(value, list):
        return [plain(v) for v in value]
    if isinstance(value, tuple) and all(type(x) is int for x in value):
        return tuple(value)
    return value


def marks(value) -> int:
    """The marked words in value."""
    if isinstance(value, complexes.StaggeredPresentation):
        return marks(list(value.relators))
    if isinstance(value, list):
        return sum(map(marks, value))
    return type(value) is _Simple


def outcome(check, instance):
    try:
        return check(**instance)
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_check_reads_a_marked_word_as_its_plain_copy(name):
    suite, check = SUITES[name], _check(SUITES[name])
    cfg = TrialConfig(master_seed=11, trials=40, max_vertices=8, max_word_length=6)
    for i in range(cfg.trials + suite.extra_trials):
        instance = suite.draw(cfg, i, random.Random(trial_seed(cfg.master_seed, i)))
        copy = {k: plain(v) for k, v in instance.items()}
        # shnc's words went into its subgroups: no word of theirs reaches the check
        assert (marks(list(instance.values())) > 0) == (name != "shnc"), i
        assert marks(list(copy.values())) == 0
        assert outcome(check, instance) == outcome(check, copy), i


@pytest.mark.parametrize("word", [(1, 2), (1, 2, -1, -2)])
def test_circle_and_stallings_graph_read_a_marked_word_as_its_copy(word):
    w = _Simple(word)
    assert graphs.circle(w) == graphs.circle(tuple(w))
    assert subgroups.stallings_graph([w], 2) == subgroups.stallings_graph([tuple(w)], 2)


letters = st.integers(min_value=1, max_value=3).flatmap(lambda l: st.sampled_from([l, -l]))
words = st.lists(letters, max_size=8).map(tuple)
# raw words, reduced or not, and words that cancel to nothing
generators = st.one_of(words, words.map(lambda w: w + invert(w)))


def read(gens):
    """stallings_graph(gens, 3), and the (message, category, filename) of
    each warning it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        h = subgroups.stallings_graph(gens, 3)
    return h, [(str(c.message), c.category, c.filename) for c in caught]


def marked(w):
    """w marked when it is what a generator would mark: nonempty, cyclically
    reduced and primitive."""
    return _Simple(w) if w and is_cyclically_reduced(w) and is_simple(w) else w


@settings(max_examples=200, deadline=None)
@given(st.lists(generators, max_size=4))
def test_stallings_graph_reads_tuples_lists_and_marked_words_alike(gens):
    h, caught = read(gens)
    assert read([list(w) for w in gens]) == (h, caught)
    assert read([marked(w) for w in gens]) == (h, caught)
    assert {filename for _, _, filename in caught} <= {__file__}
