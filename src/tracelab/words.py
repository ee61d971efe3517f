"""Finite 0/1 words: validation, prefixes, comparability, flips and random draws.

Words are plain Python strings over the alphabet {'0', '1'}; the empty word is
allowed.  All operations but `random_word`, which draws from the generator it
is given, are pure and value-based, so sharing between threads is safe.

`random_word` draws its bits in blocks yet gives the word, and leaves the
generator in the state, that one `rng.choice("01")` per bit would: each
random-oracle report depends on that stream.
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


def flip(word: str, position: int) -> str:
    """`word` with its bit at `position` (0 <= position < len(word)) flipped."""
    bit = "1" if word[position] == "0" else "0"
    return word[:position] + bit + word[position + 1 :]


def is_prefix(shorter: str, longer: str) -> bool:
    return longer.startswith(shorter)


def comparable(a: str, b: str) -> bool:
    """True iff one word is a prefix of the other (equality included)."""
    return a.startswith(b) or b.startswith(a)


# Top byte of a Mersenne Twister output -> its bit, or deleted (see random_word).
_TOP_BYTE_BIT = bytes(48 if byte < 64 else 49 for byte in range(256))
_REDRAWN = bytes(range(128, 256))


def random_word(rng: random.Random, length: int) -> str:
    """A word of `length` bits: the word `length` `rng.choice("01")` draws
    give, with the generator left in the same state.

    `choice("01")` is `getrandbits(2)`, redrawn while it is 2 or 3, and
    `getrandbits(2)` is the top two bits of one 32-bit output.  So an output
    whose top byte is below 128 gives one bit, 0 below 64 and 1 from 64 on,
    and any other output is a redraw.  `getrandbits(32 * need)` holds `need`
    outputs, the first in the lowest four bytes, so every fourth byte of its
    little-endian bytes is one output's top byte, in draw order.  `need` is
    the number of bits still missing, and each output gives at most one bit,
    so no output is drawn that the per-bit draws would not have drawn.
    """
    bits = b""
    while (need := length - len(bits)) > 0:
        block = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        bits += block[3::4].translate(_TOP_BYTE_BIT, _REDRAWN)
    return bits.decode()
