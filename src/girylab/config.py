"""What the command line needs before any command runs: the suite
configuration, the suite names and the caps on hull dimension and
affine-map arity.

``cli`` builds its parser from these for every command, so they live
apart from ``harness`` and ``hull``, which only ``verify`` runs.

``FIELDS`` is the one table of the configuration: each entry names a
field of ``SuiteConfig`` with its default, its help text and its cap
(``None`` for none).  ``cli`` makes each entry a ``girylab verify`` flag
and a config file key, and ``harness`` writes the fields into a report
in this order.
"""

from __future__ import annotations

from .errors import GirylabError
from .rational import _quoted_int, require_int
from .spaces import MAX_CARRIER_POINTS, Frozen

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

#: name -> (default, help, cap) for each field of ``SuiteConfig``, in
#: order.  Every field after the seed counts something: at least 1, and
#: at most its cap when it has one.
FIELDS = {
    "seed": (0, "suite seed", None),
    "trials": (500, "cases per property", None),
    "max_carrier": (8, "largest generated carrier", MAX_CARRIER_POINTS),
    "max_arity": (4, "largest affine-map arity", MAX_ARITY),
    "max_hull_dim": (3, "largest hull dimension", MAX_HULL_DIM),
}


class SuiteConfig(Frozen):
    """A suite run's configuration: the fields of ``FIELDS``, each given
    by keyword or left at its default.  Each is an int, not a bool, or
    InvariantError names it, so a report's config holds integers only."""

    _fields = tuple(FIELDS)

    def __init__(self, **values):
        unknown = values.keys() - FIELDS
        if unknown:
            raise TypeError(f"SuiteConfig got unknown fields {sorted(unknown)}")
        for name, (default, _, cap) in FIELDS.items():
            value = require_int(values.get(name, default), name)
            if name != "seed" and value < 1:
                raise GirylabError(f"{name} must be at least 1")
            if cap is not None and value > cap:
                raise GirylabError(
                    f"{name} must be at most {cap}, got {_quoted_int(value)}")
            object.__setattr__(self, name, value)
