"""girylab: exact computation with probability monads on finite
measurable spaces.

Everything is rational arithmetic end to end: finite sigma-algebras as
bitsets with their atom partitions, atomwise probability measures, the
monad structure (Dirac unit, mixture flattening, Kleisli kernels), the
bijection between measures and affine weakly averaging functionals and
the monad transported across it, codensity-style naturality checking
against affine maps of cubes and vanishing sequences, exact convex-hull
feasibility, and the finite/cofinite limit functional separating finite
from countable additivity.

Every submodule but ``cli`` is registered lazily: importing the package
puts each one in ``sys.modules`` and binds it here, but runs its code
only when one of its names is first read (``importlib.util.LazyLoader``).
So a command runs only the modules it uses; ``girylab markov`` never runs
the suite harness, codensity, the hull solver or the counterexample.
``cli`` is not registered, because it is the ``python -m girylab.cli``
entry point, and ``runpy`` warns when that module is already in
``sys.modules``.  The names below are re-exported through the package's
``__getattr__`` (PEP 562), which reads them from their submodule on use.
"""

import importlib.util
import sys

#: submodule -> the names the package re-exports from it.
_EXPORTS = {
    "errors": ("ActionSquareError", "GirylabError", "IngestionError",
               "InvariantError", "NotMeasurableError", "RejectionError",
               "SpaceMismatchError"),
    "rational": ("format_rational", "parse_rational"),
    "spaces": ("FinSpace", "IFunction", "MeasMap", "atom_indicator",
               "characteristic", "generate_sigma"),
    "measures": ("IntervalMeasure", "Measure", "integrate",
                 "integrate_approx_bounds", "pushforward"),
    "monad": ("Kernel", "MetaMeasure", "bind", "dirac", "flatten",
              "kleisli_compose", "n_step"),
    "duality": ("Functional", "FunctionalMixture", "LimitWitness",
                "evaluation_at", "is_affine", "max_functional",
                "mix_functionals", "pushforward_functional",
                "respects_limits", "square_functional", "to_functional",
                "to_measure"),
    "codensity": ("AffineMap", "CodensityElement", "SequenceAffineMap",
                  "VanishingSequence", "check_naturality",
                  "check_vanishing_component", "functional_from_action",
                  "lift", "sample_affine"),
    "hull": ("extend_to_convex", "hull_membership"),
    "counterexample": ("EventualFn", "FinCofSet", "cofinite_measure",
                       "countable_additivity_violation", "limit_functional",
                       "sup_continuity_check"),
    "config": ("SuiteConfig",),
    "harness": ("Report", "run_suite"),
    "verdicts": ("Verdict",),
    "jsonio": (),
}

_ORIGIN = {name: module for module, names in _EXPORTS.items()
           for name in names}

__all__ = sorted(_ORIGIN)
__version__ = "0.1.0"

for _name in _EXPORTS:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = globals()[_name] = _module
    _spec.loader.exec_module(_module)  # defers the real load to first use
del _name, _spec, _module


def __getattr__(name):
    if name in _ORIGIN:
        return getattr(globals()[_ORIGIN[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
