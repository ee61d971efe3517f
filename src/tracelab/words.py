"""Finite 0/1 words, antichains, and the clopen sets they generate.

Words are plain Python strings over the alphabet {'0', '1'}; the empty word is
allowed.  All operations but `random_word`, which draws from the generator it
is given, are pure and value-based, so sharing between threads is safe.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Iterable


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


@dataclass(frozen=True)
class Antichain:
    """A finite set of words, none of which is a prefix of another."""

    members: frozenset[str]

    def __init__(self, members: Iterable[str] = ()):
        mset = frozenset(check_word(w) for w in members)
        ordered = sorted(mset)
        for i, a in enumerate(ordered):
            # Sorted order puts every prefix of a word somewhere before it,
            # but not necessarily adjacent; check all pairs.
            for b in ordered[i + 1 :]:
                if comparable(a, b):
                    raise ValueError(f"antichain violation: {a!r} and {b!r} are comparable")
        object.__setattr__(self, "members", mset)

    def __iter__(self):
        return iter(sorted(self.members))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, word: str) -> bool:
        return word in self.members


@dataclass(frozen=True)
class ClopenSet:
    """The set of infinite 0/1 sequences extending some generator.

    Queries are answered on finite words: a word belongs "at its own depth"
    when it is comparable with some generator.
    """

    generators: Antichain

    def meets(self, word: str) -> bool:
        return any(comparable(word, g) for g in self.generators)

    def covers(self, word: str) -> bool:
        """True iff every infinite extension of `word` is in the set."""
        return any(is_prefix(g, word) for g in self.generators)

    def members_at_depth(self, depth: int) -> list[str]:
        """All length-`depth` words whose cylinder meets the set."""
        return [
            "".join(bits)
            for bits in product("01", repeat=depth)
            if self.meets("".join(bits))
        ]


def meets(word: str, clopen: ClopenSet) -> bool:
    """True iff some generator of `clopen` is comparable with `word`."""
    return clopen.meets(word)


def extensions_avoiding(word: str, length: int, blocked: Iterable[str]) -> list[str]:
    """All length-`length` extensions of `word` with no prefix in `blocked`.

    Returned sorted.  When no member of `blocked` strictly extends `word`
    beyond `length`, the union of `blocked` with the result is an antichain.
    """
    if length < len(word):
        raise ValueError(f"target length {length} below word length {len(word)}")
    blocked = list(blocked)
    out = []
    for bits in product("01", repeat=length - len(word)):
        candidate = word + "".join(bits)
        if not any(is_prefix(b, candidate) for b in blocked):
            out.append(candidate)
    return out
