"""What the command line needs before any command runs: the suite
configuration, the suite names and the caps on hull dimension and
affine-map arity.

``cli`` builds its parser from these for every command, so they live
apart from ``harness`` and ``hull``, which only ``verify`` runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional

from .errors import GirylabError
from .spaces import MAX_CARRIER_POINTS

MAX_HULL_DIM = 4

#: The largest ``max_arity``.  The naturality suite's cost grows about
#: with the square of the arity (the affine-composition case draws an
#: outer map of up to that many inner maps): 100 trials take about 0.2 s
#: at arity 4, 1.1 s at 64 and 4.3 s at 128, and the default 500 trials
#: at 64 take 7.6 s in 22 MiB (2 cores, Python 3.11.7).
MAX_ARITY = 64

#: The suites of ``girylab verify``, in the order ``all`` runs them.
SUITE_NAMES = ("monad-laws", "duality", "change-of-variables", "naturality",
               "monoid-reduction", "convex-bound", "counterexample")


def _count(default: int, help: str, cap: Optional[int] = None):
    """A config field that counts something: at least 1, at most ``cap``."""
    return field(default=default, metadata={"help": help, "cap": cap})


@dataclass(frozen=True)
class SuiteConfig:
    """A suite run's configuration.  Each field is also a flag and a config
    file key of ``girylab verify``, with the default and help given here."""

    seed: int = field(default=0, metadata={"help": "suite seed"})
    trials: int = _count(500, "cases per property")
    max_carrier: int = _count(8, "largest generated carrier", MAX_CARRIER_POINTS)
    max_arity: int = _count(4, "largest affine-map arity", MAX_ARITY)
    max_hull_dim: int = _count(3, "largest hull dimension", MAX_HULL_DIM)

    def __post_init__(self):
        for f in fields(self)[1:]:  # the counts: every field but the seed
            value, cap = getattr(self, f.name), f.metadata["cap"]
            if value < 1:
                raise GirylabError(f"{f.name} must be at least 1")
            if cap is not None and value > cap:
                raise GirylabError(
                    f"{f.name} must be at most {cap}, got {value}")
