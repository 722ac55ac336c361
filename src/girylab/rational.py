"""Exact rationals: parsing, formatting, and range guards.

Every number in this package is a ``fractions.Fraction`` (arbitrary
precision, always in lowest terms).  On the wire rationals are the
strings ``"p/q"``; the denominator is always written, so round trips
are lossless and no float ever appears in serialized output.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import InvariantError

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


def format_rational(x: Fraction) -> str:
    """Render ``x`` canonically as ``"p/q"`` (``"3/4"``, ``"1/1"``, ``"0/1"``)."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def parse_rational(s: str) -> Fraction:
    """Parse ``"p/q"`` (or a bare integer string) into a Fraction.

    Raises ValueError on floats or malformed input; '.' is rejected
    outright so decimal notation cannot sneak inexact values in.
    """
    text = s.strip()
    if "." in text or "e" in text.lower():
        raise ValueError(f"rational {s!r} must be written as 'p/q', not a decimal")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse rational {s!r}: {exc}") from None


def random_fraction(rng: random.Random, lo: int = 0, hi: int = 1,
                    max_den: int = 64) -> Fraction:
    """A random rational in [lo, hi]: draw a denominator up to ``max_den``,
    then a numerator over it."""
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(lo * den, hi * den), den)


def in_unit_interval(x: Fraction) -> bool:
    return ZERO <= x <= ONE


def require_unit(x: Fraction, what: str) -> Fraction:
    if not in_unit_interval(x):
        raise InvariantError(
            f"{what} must lie in [0,1], got {format_rational(x)}")
    return x
