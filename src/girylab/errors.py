"""Exception hierarchy shared across the package."""

from __future__ import annotations


class GirylabError(ValueError):
    """Base class for all domain errors raised by this package."""


class SpaceMismatchError(GirylabError):
    """Two values that must live on the same measurable space do not."""


class NotMeasurableError(GirylabError):
    """A set is outside the sigma-algebra, or a map fails measurability."""


class InvariantError(GirylabError):
    """A structural invariant was violated at construction time."""


class RejectionError(GirylabError):
    """A functional failed the measure-side admissibility checks.

    Carries a ``witness`` dict naming the violated identity and holding
    the offending values raw, for a Verdict to write like any witness.
    """

    def __init__(self, message: str, witness: dict):
        super().__init__(message)
        self.witness = witness


class ActionSquareError(RejectionError):
    """A sequence-space action failed one of the monoid generator squares;
    its witness names the generator under the key ``"generator"``."""


class IngestionError(GirylabError):
    """Malformed JSON input; the message names the first violated invariant."""


class DigitLimitError(GirylabError):
    """A rational's numerator or denominator has more decimal digits than
    ``rational.MAX_DIGITS``; raised on parse, in Markov evolution and on
    writing a Markov state."""
