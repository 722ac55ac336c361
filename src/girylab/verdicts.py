"""Pass/fail verdicts with reproducible witnesses.

A Verdict is the uniform result type of every randomized or exact check
in the package.  Checks hand ``passed`` and ``failed`` their witnesses as
raw values: Fractions, tuples, dicts and package objects, as a raised
RejectionError carries its own.  ``describe`` writes them, in this one
place, as plain JSON-able values: a Fraction becomes ``"p/q"``, or
past ``MAX_DIGITS`` "a rational of N digits", so building a Verdict
never raises on size; tuples and lists are written element by element, dicts
value by value, and an object with a ``describe()`` method as the raw
values that method gives, written the same way; ints, strings, bools
and None stay as they are.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .rational import format_rational
from .spaces import Frozen


def describe(value):
    """The JSON-able form of a raw witness value (see the module doc)."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, (tuple, list)):
        return [describe(v) for v in value]
    if isinstance(value, dict):
        return {k: describe(v) for k, v in value.items()}
    return describe(value.describe()) if hasattr(value, "describe") else value


class Verdict(Frozen):
    """The outcome of one check; ``result`` is "pass" or "fail"."""

    _fields = ("property", "result", "witness", "trials", "seed")

    @property
    def passed(self) -> bool:
        return self.result == "pass"

    def to_jsonable(self) -> dict:
        return dict(zip(self._fields, self._key(self)))


def passed(prop: str, trials: int = 0, seed: Optional[int] = None,
           witness: Optional[dict] = None) -> Verdict:
    return Verdict(prop, "pass", describe(witness), trials, seed)


def failed(prop: str, witness: dict, trials: int = 0,
           seed: Optional[int] = None) -> Verdict:
    return Verdict(prop, "fail", describe(witness), trials, seed)
