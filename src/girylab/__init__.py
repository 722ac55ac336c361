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
``sys.modules``.  Names are read from their submodule
(``girylab.duality.to_measure``); the package re-exports none.
"""

import importlib.util
import sys

#: The submodules registered lazily, every one but ``cli``.
_SUBMODULES = ("errors", "rational", "spaces", "measures", "monad", "duality",
               "codensity", "hull", "counterexample", "config", "harness",
               "verdicts", "jsonio")

__version__ = "0.1.0"

for _name in _SUBMODULES:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = globals()[_name] = _module
    _spec.loader.exec_module(_module)  # defers the real load to first use
del _name, _spec, _module
