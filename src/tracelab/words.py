"""Finite 0/1 words: validation, prefixes, comparability and random draws.

Words are plain Python strings over the alphabet {'0', '1'}; the empty word is
allowed.  All operations but `random_word`, which draws from the generator it
is given, are pure and value-based, so sharing between threads is safe.
"""
from __future__ import annotations

import random


def check_word(word: str) -> str:
    if not isinstance(word, str) or word.strip("01"):
        raise ValueError(f"not a 0/1 word: {word!r}")
    return word


def restrict(word: str, length: int) -> str:
    """Length-`length` prefix of `word`; `length` must not exceed len(word)."""
    if length < 0 or length > len(word):
        raise ValueError(f"cannot restrict a word of length {len(word)} to {length}")
    return word[:length]


def is_prefix(shorter: str, longer: str) -> bool:
    return longer.startswith(shorter)


def comparable(a: str, b: str) -> bool:
    """True iff one word is a prefix of the other (equality included)."""
    return a.startswith(b) or b.startswith(a)


def random_word(rng: random.Random, length: int) -> str:
    """A word of `length` bits, one `rng.choice("01")` draw per bit."""
    return "".join(rng.choice("01") for _ in range(length))
