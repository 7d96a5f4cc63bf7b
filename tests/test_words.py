import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordcycles.words import (
    cyclic_reduce,
    format_word,
    free_reduce,
    invert,
    is_cyclically_reduced,
    is_reduced,
    is_simple,
    parse_word,
    primitive_root,
    require_simple_cyclic,
)


def w(text):
    return parse_word(text)


class TestParsing:
    def test_roundtrip(self):
        assert format_word(w("abAB")) == "abAB"
        assert w("abAB") == (1, 2, -1, -2)

    def test_empty(self):
        assert w("") == ()
        assert format_word(()) == ""

    def test_numeric_generators(self):
        assert w("a30") == (30,)
        assert w("A30") == (-30,)
        assert format_word((27, -30)) == "a27A30"
        assert w(format_word((27, -30))) == (27, -30)

    def test_whitespace_ignored(self):
        assert w("a b A B") == (1, 2, -1, -2)

    def test_bad_input(self):
        with pytest.raises(ValueError):
            w("a-b")
        with pytest.raises(ValueError):
            w("b3")  # numeric index must use 'a'/'A'
        with pytest.raises(ValueError):
            w("a0")

    @pytest.mark.parametrize("value", [5, None, ["a"], b"ab", {"a": 1}])
    def test_non_string_rejected(self, value):
        # JSON files carry words as values of any type
        with pytest.raises(ValueError, match="^word must be a string, got "):
            parse_word(value)


class TestFreeReduce:
    def test_forced_cancellation(self):
        assert free_reduce(w("abB")) == w("a")

    def test_full_cancellation(self):
        assert free_reduce(w("aA")) == ()

    def test_identity_on_reduced(self):
        assert free_reduce(w("abAB")) == w("abAB")

    def test_nested(self):
        assert free_reduce(w("abBAc")) == w("c")

    @pytest.mark.parametrize("word", [(0,), (1, 0, -1), (1, 2, 0)])
    def test_zero_letter_rejected(self, word):
        with pytest.raises(ValueError, match="letters must be nonzero"):
            free_reduce(word)

    def test_reduced_input_returned_as_tuple(self):
        assert free_reduce([1, 2, -1]) == (1, 2, -1)
        assert free_reduce(()) == ()


def slicing_cyclic_reduce(word):
    """The reference: cancel the end letters one pair at a time, slicing the
    word each time (quadratic in the conjugator's length)."""
    r = list(free_reduce(word))
    conj = []
    while len(r) >= 2 and r[0] == -r[-1]:
        conj.append(r[0])
        r = r[1:-1]
    return tuple(r), tuple(conj)


signed_words = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=12).map(tuple)


class TestCyclicReduce:
    @settings(max_examples=500)
    @given(signed_words | st.builds(lambda u, c: u + c + invert(u), signed_words,
                                    signed_words))
    def test_against_slicing_loop(self, word):
        assert cyclic_reduce(word) == slicing_cyclic_reduce(word)

    def test_long_conjugator(self):
        # b^k a B^k: the slicing loop takes minutes at this k
        k = 100_000
        word = (2,) * k + (1,) + (-2,) * k
        start = time.perf_counter()
        assert cyclic_reduce(word) == ((1,), (2,) * k)
        assert cyclic_reduce(word + (2,) * k) == ((2,) * k + (1,), ())
        assert time.perf_counter() - start < 2

    def test_single_conjugating_letter(self):
        assert cyclic_reduce(w("baB")) == (w("a"), w("b"))

    def test_already_cyclically_reduced(self):
        assert cyclic_reduce(w("ab")) == (w("ab"), ())

    def test_empty(self):
        assert cyclic_reduce(()) == ((), ())

    def test_conjugation_identity(self):
        core, conj = cyclic_reduce(w("bcaCB"))
        assert core == w("a")
        assert free_reduce(conj + core + invert(conj)) == free_reduce(w("bcaCB"))


class TestPrimitiveRoot:
    def test_visible_square(self):
        assert primitive_root(w("abab")) == (w("ab"), 2)

    def test_primitive_odd_word(self):
        # oracle: check every divisor of the length against rotation equality
        word = w("aba")
        for d in (1,):
            assert word[:d] * (3 // d) != word
        assert primitive_root(word) == (word, 1)

    def test_visible_cube(self):
        assert primitive_root(w("aabaabaab")) == (w("aab"), 3)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            primitive_root(())

    def test_rejects_non_cyclically_reduced(self):
        with pytest.raises(ValueError):
            primitive_root(w("abA"))

    def test_simple(self):
        assert is_simple(w("aba"))
        assert not is_simple(w("abab"))


class TestInvert:
    def test_basic(self):
        assert invert(w("ab")) == w("BA")
        assert invert(()) == ()
        assert invert(w("aBc")) == w("CbA")

    def test_involution(self):
        word = w("aBcAb")
        assert invert(invert(word)) == word


class TestPredicates:
    def test_reduced(self):
        assert is_reduced(w("abAB"))
        assert not is_reduced(w("abBA"))

    def test_cyclically_reduced(self):
        assert is_cyclically_reduced(w("ab"))
        assert not is_cyclically_reduced(w("abA"))

    def test_require_simple_cyclic_messages(self):
        with pytest.raises(ValueError, match="nonempty"):
            require_simple_cyclic(())
        with pytest.raises(ValueError, match="letters must be nonzero"):
            require_simple_cyclic((1, 0))
        with pytest.raises(ValueError, match="letters must be nonzero"):
            is_simple((1, 0))
        with pytest.raises(ValueError, match="letters must be nonzero"):
            primitive_root((0,))
        with pytest.raises(ValueError, match="cyclically reduced"):
            require_simple_cyclic(w("abA"))
        with pytest.raises(ValueError, match="proper power"):
            require_simple_cyclic(w("abab"))


def genexpr_is_reduced(w):
    return all(w[i] != -w[i + 1] for i in range(len(w) - 1))


def genexpr_is_cyclically_reduced(w):
    if not genexpr_is_reduced(w):
        return False
    return len(w) < 2 or w[0] != -w[-1]


def repeat_primitive_root(w):
    """primitive_root as written with every divisor d tested by w[:d] * (n // d)."""
    if not w:
        raise ValueError("word must be nonempty")
    if not genexpr_is_cyclically_reduced(w):
        raise ValueError(f"word {format_word(w)!r} is not cyclically reduced; "
                         "apply cyclic_reduce first")
    n = len(w)
    for d in range(1, n + 1):
        if n % d == 0 and w[:d] * (n // d) == w:
            return w[:d], n // d


def repeat_require_simple_cyclic(w):
    if not w:
        raise ValueError("word must be nonempty")
    if not genexpr_is_cyclically_reduced(w):
        raise ValueError(f"word {format_word(w)!r} is not cyclically reduced; "
                         "apply cyclic_reduce first")
    root, p = repeat_primitive_root(w)
    if p != 1:
        raise ValueError(f"word {format_word(w)!r} is the proper power "
                         f"{format_word(root)!r}^{p}; use its primitive root")


def outcome(f, word):
    """f's result, or the message of the ValueError it raised."""
    try:
        return f(word)
    except ValueError as exc:
        return ("ValueError", str(exc))


raw_words = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=12).map(tuple)
# proper powers (and first powers) of short words, reduced or not
powers = st.builds(lambda w, p: w * p,
                   st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=4).map(tuple),
                   st.integers(1, 5))
edge_words = [(), (1,), (-1,), (1, 1), (1, -1), (1, 2, -1), (1, 2) * 3, (1, 1, 2) * 3,
              (1, 2, 1), (2, -1) * 4, (1,) * 7, (1, 2, -1, -2)]


class TestPredicatesAgainstOldDefinitions:
    """The C-level predicates and the period search against the genexpr and
    w[:d] * (n // d) definitions they replace: the same value or the same
    ValueError message, on empty, one-letter, unreduced and proper-power words."""

    def assert_same(self, word):
        assert is_reduced(word) == genexpr_is_reduced(word)
        assert is_cyclically_reduced(word) == genexpr_is_cyclically_reduced(word)
        assert outcome(primitive_root, word) == outcome(repeat_primitive_root, word)
        assert outcome(is_simple, word) == outcome(
            lambda v: repeat_primitive_root(v)[1] == 1, word)
        assert outcome(require_simple_cyclic, word) == outcome(
            repeat_require_simple_cyclic, word)

    @settings(max_examples=400)
    @given(raw_words | powers)
    def test_random_words(self, word):
        self.assert_same(word)

    @pytest.mark.parametrize("word", edge_words)
    def test_edge_words(self, word):
        self.assert_same(word)
