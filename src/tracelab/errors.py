"""Error types shared by the engines and the CLI; `decimal` and `signed`,
the one reader of the decimal tokens that the text formats, the flags and
the scenarios' integer strings hold; `rational`, the one reader of their
rational tokens; and `fraction_str`, the one writer of the `p/q` token, with
`check_writable`, its guard for a row.

Exit-code mapping used by the CLI: ScenarioError -> 1, InvariantViolation -> 2,
HorizonExhausted -> 3.
"""
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain
from operator import attrgetter
from typing import Optional


class ScenarioError(ValueError):
    """Malformed scenario, table, script, or argument."""


class InvariantViolation(AssertionError):
    """A structural invariant or a verified combinatorial bound failed.

    Raised when an engine detects a state its supporting lemmas rule out;
    in a healthy build this only fires on genuine engine bugs.
    """


class HorizonExhausted(RuntimeError):
    """A finite run ended before a required completion was reached."""


def decimal(text: str) -> Optional[int]:
    """`int(text)` if `text` is a string of ASCII decimal digits that `int`
    converts, else None.  `int` also reads other scripts' digits ('١٤'),
    which are no decimal token here.  CPython refuses to convert more digits
    than its limit (4300 by default), so an over-long token reads as
    malformed."""
    if text.isascii() and text.isdecimal():
        try:
            return int(text)
        except ValueError:
            pass
    return None


def signed(text: str) -> Optional[int]:
    """`decimal(text)` after an optional leading '-', negated if it was there."""
    value = decimal(text.removeprefix("-"))
    return -value if value is not None and text.startswith("-") else value


def rational(text: str) -> Optional[Fraction]:
    """`Fraction(text)` if `text` is a rational token (`p/q`, `-p/q`, `0.25`)
    that `Fraction` reads, else None.  `Fraction` also reads other scripts'
    digits, '_' between digits, a leading '+', surrounding whitespace and an
    exponent, which it expands first ('1e-1000000' takes 0.2 s); no token
    holds any of these here."""
    plain = text.isascii() and "_" not in text and "e" not in text.lower()
    if plain and not text.startswith("+") and text == text.strip():
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    return None


_numerator, _denominator = attrgetter("numerator"), attrgetter("denominator")
TOO_MANY_DIGITS = "a rational in the report has too many digits to write"


def fraction_str(value) -> str:
    """`value` as its `p/q` token; more digits than `str` converts is a `ScenarioError`."""
    try:
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        raise ScenarioError(TOO_MANY_DIGITS) from None


def check_writable(values) -> None:
    """Refuse rationals, before `fraction_str` converts any, when one holds an
    integer whose bit length alone puts it past `str`'s digit limit
    (`sys.get_int_max_str_digits()`, 0 for none).  An integer of b bits has
    more than (b - 1) log10(2) digits, so more than `limit` once b - 1
    exceeds 3.322 limit, as 3.322 exceeds log2(10)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    parts = chain(map(_numerator, values), map(_denominator, values))
    if limit and max(map(int.bit_length, parts), default=0) > limit * 3322 // 1000 + 1:
        raise ScenarioError(TOO_MANY_DIGITS)


@contextmanager
def prefixed(prefix: str):
    """Re-raise an error of these types as its own type, `prefix` first."""
    try:
        yield
    except (ScenarioError, InvariantViolation, HorizonExhausted) as exc:
        raise type(exc)(f"{prefix}{exc}") from exc
