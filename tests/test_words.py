import random

import pytest
from hypothesis import given, strategies as st

import oracles
from oracles import extensions_avoiding
from tracelab.words import comparable, flip, random_word, restrict

words = st.text(alphabet="01", max_size=7)


def prune_to_antichain(candidates):
    kept = []
    for w in candidates:
        if all(not comparable(w, k) for k in kept):
            kept.append(w)
    return kept


def test_restrict_prefixes():
    assert restrict("0110", 2) == "01"
    assert restrict("0110", 0) == ""
    assert restrict("0110", 4) == "0110"


def test_restrict_rejects_overlong():
    with pytest.raises(ValueError):
        restrict("0110", 5)


def test_flip_changes_one_bit_and_undoes_itself():
    word = "0110100"
    for position in (0, 3, len(word) - 1):
        flipped = flip(word, position)
        assert [x for x, (a, b) in enumerate(zip(word, flipped)) if a != b] == [position]
        assert len(flipped) == len(word) and flip(flipped, position) == word


def test_comparable_cases():
    assert comparable("01", "0110")
    assert not comparable("01", "00")
    assert comparable("", "1")


def test_extensions_avoiding_cases():
    assert extensions_avoiding("0", 2, ["00"]) == ["01"]
    assert extensions_avoiding("", 1, []) == ["0", "1"]
    assert extensions_avoiding("01", 3, ["010"]) == ["011"]


def test_extensions_avoiding_rejects_short_target():
    with pytest.raises(ValueError):
        extensions_avoiding("0110", 2, [])


@given(words, words)
def test_comparable_is_symmetric(a, b):
    assert comparable(a, b) == comparable(b, a)


@given(words, st.integers(min_value=0, max_value=7))
def test_restrict_idempotent_at_fixed_length(w, n):
    n = min(n, len(w))
    assert restrict(restrict(w, n), n) == restrict(w, n)


@given(st.data())
def test_extensions_preserve_antichain_and_cover(data):
    sigma = data.draw(st.text(alphabet="01", max_size=4))
    depth = data.draw(st.integers(min_value=len(sigma), max_value=6))
    raw = data.draw(st.lists(st.text(alphabet="01", min_size=1, max_size=6), max_size=6))
    # Members comparable with sigma must not out-reach the test depth,
    # mirroring how tested sets grow stage by stage.
    blocked = prune_to_antichain([w for w in raw if not comparable(w, sigma) or len(w) <= depth])
    fresh = extensions_avoiding(sigma, depth, blocked)
    union = list(blocked) + fresh
    for i, a in enumerate(union):  # no two members are comparable
        assert not any(comparable(a, b) for b in union[i + 1 :])
    for tail in range(2 ** (depth - len(sigma))):
        suffix = bin(tail)[2:].zfill(depth - len(sigma)) if depth > len(sigma) else ""
        assert any((sigma + suffix).startswith(w) for w in union)


def test_random_word_keeps_the_per_bit_stream():
    # Every length 0-200 in turn from one generator per seed: the block draw
    # gives the per-bit word and leaves the generator where it leaves it.
    for seed in range(40):
        fast, slow = random.Random(seed), random.Random(seed)
        for length in range(201):
            assert random_word(fast, length) == oracles.random_word(slow, length)
            assert fast.getstate() == slow.getstate()
