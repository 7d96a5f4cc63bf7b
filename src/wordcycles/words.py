"""Free-group word algebra.

A word is a tuple of nonzero ints: +i stands for the i-th generator a_i,
-i for its inverse.  Text syntax: lowercase = generator ('a' = 1, 'b' = 2,
...), uppercase = inverse, so "abAB" is the commutator a b a^-1 b^-1.
Generators past 26 are written "a3"/"A3" style with an explicit index.

The predicates loop over letters in C (operator maps, slice comparisons),
and each checks cyclic reduction at most once per word.  A word the
generators draw is born proven simple (a _Simple), which is_reduced and
require_simple_cyclic alone read; a word derived from it is a plain tuple,
checked in full.
"""

from __future__ import annotations

import re
from operator import eq, neg

Word = tuple[int, ...]


class _Simple(tuple):
    """A word its generator proved nonempty, zero-free, cyclically reduced
    and primitive.  Only generators make one; everything derived from it,
    tuple(w) included, is a plain tuple."""

    __slots__ = ()


_TOKEN = re.compile(r"([a-zA-Z])([0-9]*)")


def parse_word(text: str) -> Word:
    """Parse the text syntax above into a Word.  Whitespace is ignored."""
    if not isinstance(text, str):
        raise ValueError(f"word must be a string, got {text!r}")
    text = "".join(text.split())
    letters = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"bad character {text[pos]!r} at position {pos} in word")
        ch, digits = m.group(1), m.group(2)
        if digits:
            if ch not in ("a", "A"):
                raise ValueError(f"numeric generator must use 'a'/'A', got {ch}{digits}")
            idx = int(digits)
            if idx < 1:
                raise ValueError(f"generator index must be >= 1, got {idx}")
        else:
            idx = ord(ch.lower()) - ord("a") + 1
        letters.append(idx if ch.islower() else -idx)
        pos = m.end()
    return tuple(letters)


def format_word(w: Word) -> str:
    """Inverse of parse_word."""
    out = []
    for x in w:
        idx = abs(x)
        if idx <= 26:
            ch = chr(ord("a") + idx - 1)
            out.append(ch if x > 0 else ch.upper())
        else:
            out.append(f"a{idx}" if x > 0 else f"A{idx}")
    return "".join(out)


def invert(w: Word) -> Word:
    return tuple(-x for x in reversed(w))


def free_reduce(w: Word) -> Word:
    """The unique freely reduced word equal to w; idempotent."""
    if 0 not in w and is_reduced(w):  # both scans run in C
        return tuple(w)
    stack: list[int] = []
    for x in w:
        if x == 0:
            raise ValueError("letters must be nonzero")
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def is_reduced(w: Word) -> bool:
    return type(w) is _Simple or not any(map(eq, w, map(neg, w[1:])))


def is_cyclically_reduced(w: Word) -> bool:
    return is_reduced(w) and (len(w) < 2 or w[0] != -w[-1])


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Return (core, conjugator) with w = conjugator . core . conjugator^-1.

    The core is cyclically reduced; the identity holds after free reduction.
    """
    r, k = free_reduce(w), 0  # the conjugator: the longest prefix whose inverse ends r
    while 2 * k + 1 < len(r) and r[k] == -r[-1 - k]:
        k += 1
    return r[k:len(r) - k], r[:k]


def primitive_root(w: Word) -> tuple[Word, int]:
    """Write w = root^exp as a literal letter sequence with exp maximal.

    The gate require_cyclic checks that w is nonempty and cyclically reduced.
    """
    require_cyclic(w)
    d = _period(w)
    return w[:d], len(w) // d


def _period(w: Word) -> int:
    """The least d dividing |w| with w[d:] == w[:-d], i.e. w = w[:d]^(|w|/d).
    The slices agree only if their first letters do: w[d] == w[0] is tested
    first, as it is cheaper."""
    n = len(w)
    for d in range(1, n // 2 + 1):
        if n % d == 0 and w[d] == w[0] and w[d:] == w[:-d]:
            return d
    return n


def is_simple(w: Word) -> bool:
    """True iff w is not a proper power v^p with p > 1."""
    return primitive_root(w)[1] == 1


def require_cyclic(w: Word) -> None:
    """The one gate for a word's shape: nonempty, no zero letter, and
    cyclically reduced.  A _Simple word is tested for emptiness and zero
    letters like any other, and is_reduced answers for the rest."""
    if not w:
        raise ValueError("word must be nonempty")
    if 0 in w:
        raise ValueError("letters must be nonzero")
    if not is_cyclically_reduced(w):
        raise ValueError(
            f"word {format_word(w)!r} is not cyclically reduced; "
            "apply cyclic_reduce first"
        )


def require_simple_cyclic(w: Word) -> None:
    """Shared precondition of the cycle-counting operations: require_cyclic,
    and w not a proper power.  A _Simple word passes at once, as its
    generator proved both."""
    if type(w) is _Simple:
        return
    require_cyclic(w)
    d = _period(w)
    if d < len(w):
        raise ValueError(
            f"word {format_word(w)!r} is the proper power {format_word(w[:d])!r}"
            f"^{len(w) // d}; use its primitive root"
        )
