"""Outside-in span tracer for girylab's public functions.

The tracer wraps each layer's public entry point with a timing span and
rebinds the wrapper under every name that refers to the original: the
defining module, every girylab module that imported the name (for
example ``cli.trajectory`` or ``harness.generate_sigma``), and, for
methods, the class attribute.  Spans nest on one stack, so a span's self
time is its duration minus the time of the spans it caused.  Counts and
number sizes are recorded at the same boundaries.  ``uninstall`` puts
every original back and checks that no wrapper is left anywhere.

Nothing here edits the program: the wrappers sit only around calls the
program already makes, and the program's output must not change.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

#: span name -> (module, attribute) for plain functions.
FUNCTIONS = (
    ("hull.hull_membership", "girylab.hull", "hull_membership"),
    ("spaces.generate_sigma", "girylab.spaces", "generate_sigma"),
    ("codensity.functional_from_action", "girylab.codensity",
     "functional_from_action"),
    ("codensity.check_naturality", "girylab.codensity", "check_naturality"),
    ("duality.to_measure", "girylab.duality", "to_measure"),
    ("measures.pushforward", "girylab.measures", "pushforward"),
    ("monad.flatten", "girylab.monad", "flatten"),
    ("monad.bind", "girylab.monad", "bind"),
    ("rational.format_rational", "girylab.rational", "format_rational"),
    ("measures.integrate_approx_bounds", "girylab.measures",
     "integrate_approx_bounds"),
)

#: span name -> (module, class, method).  ``__init__`` spans cover
#: construction together with ``__post_init__`` validation.
METHODS = (
    ("duality.Functional.call", "girylab.duality", "Functional", "__call__"),
    ("measures.Measure", "girylab.measures", "Measure", "__init__"),
    ("spaces.IFunction", "girylab.spaces", "IFunction", "__init__"),
)

#: span name -> (module, name predicate): every matching public function
#: of the module shares the one span.
GROUPS = (
    ("jsonio.ingest", "girylab.jsonio",
     lambda n: n.endswith("_from_json") and not n.startswith("_")),
    ("harness.generate", "girylab.harness", lambda n: n.startswith("generate_")),
)

SUITE_PREFIX = "harness.suite."


def _den_bits(values) -> int:
    return max((Fraction(v).denominator.bit_length() for v in values), default=0)


def _observe_hull(stat, args, kwargs, result):
    vertices, x = args[0], args[1]
    stat["feasible"] += bool(result)
    bits = max(_den_bits(x), max(_den_bits(v) for v in vertices))
    stat["max_den_bits"] = max(stat["max_den_bits"], bits)


def _observe_bind(stat, args, kwargs, result):
    stat["max_den_bits"] = max(stat["max_den_bits"], _den_bits(result.weights))


def _observe_integrate(stat, args, kwargs, result):
    modulus, eps = args[1], Fraction(args[2])
    refine = args[4] if len(args) > 4 else kwargs.get("refine", 0)
    delta = Fraction(modulus(eps / 2))
    n = 0
    while Fraction(1, 1 << n) > delta:
        n += 1
    stat["cells"] += (1 << n) << refine
    stat["max_den_bits"] = max(stat["max_den_bits"], _den_bits(result))


OBSERVERS = {
    "hull.hull_membership": (_observe_hull, ("feasible", "max_den_bits")),
    "monad.bind": (_observe_bind, ("max_den_bits",)),
    "measures.integrate_approx_bounds": (_observe_integrate,
                                         ("cells", "max_den_bits")),
}


class Tracer:
    """Installs spans on a loaded girylab and collects their statistics."""

    def __init__(self):
        self.stats = {}
        self._stack = [0.0]
        self._patches = []

    def _stat(self, name: str) -> dict:
        if name not in self.stats:
            stat = {"calls": 0, "self_s": 0.0, "incl_s": 0.0}
            for key in OBSERVERS.get(name, (None, ()))[1]:
                stat[key] = 0
            self.stats[name] = stat
        return self.stats[name]

    def _wrap(self, name, fn):
        """A wrapper timing ``fn``; ``name`` is a span name or a function
        of the call's arguments returning one."""
        stack, clock, stat_of = self._stack, time.perf_counter, self._stat
        fixed = self._stat(name) if isinstance(name, str) else None
        observe = OBSERVERS.get(name, (None,))[0] if fixed is not None else None

        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                stat = fixed if fixed is not None else stat_of(name(args))
                stat["calls"] += 1
                stat["self_s"] += elapsed - child
                stat["incl_s"] += elapsed
            if observe is not None:
                observe(fixed, args, kwargs, result)
            return result

        span.tracer_span = True
        span.__wrapped__ = fn
        return span

    @staticmethod
    def _modules():
        return [m for n, m in sorted(sys.modules.items())
                if n == "girylab" or n.startswith("girylab.")]

    def _rebind_everywhere(self, original, wrapper):
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for name, module, attr in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            self._rebind_everywhere(original, self._wrap(name, original))
        for name, module, wanted in GROUPS:
            for attr, original in sorted(vars(sys.modules[module]).items()):
                # only functions the module defines, not ones it imported
                if wanted(attr) and getattr(original, "__module__", None) == module:
                    self._rebind_everywhere(original, self._wrap(name, original))
        for name, module, cls_name, attr in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            original = vars(cls)[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))
        harness = sys.modules["girylab.harness"]
        for suite in harness.SUITE_NAMES:
            self._stat(SUITE_PREFIX + suite)
        self._rebind_everywhere(harness.run_suite, self._wrap(
            lambda args: SUITE_PREFIX + args[0], harness.run_suite))

    def uninstall(self) -> None:
        """Restore every patched name, then check that none still holds a
        wrapper; raises RuntimeError if one does."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        owners = {id(o): o for o, _, _ in self._patches}
        owners.update((id(m), m) for m in self._modules())
        left = [f"{getattr(o, '__name__', o)}.{attr}"
                for o in owners.values()
                for attr, value in vars(o).items()
                if hasattr(value, "tracer_span")]
        self._patches = []
        if left:
            raise RuntimeError(f"tracer left wrappers behind: {sorted(set(left))}")

    def flat(self) -> dict:
        """Per-layer metrics by name: ``<span>.calls``, ``<span>.self_s``,
        the observed gauges, and for suites the inclusive ``<span>.s``."""
        out = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat["calls"]
            if name.startswith(SUITE_PREFIX):
                out[f"{name}.s"] = stat["incl_s"]
                continue
            out[f"{name}.self_s"] = stat["self_s"]
            for key in OBSERVERS.get(name, (None, ()))[1]:
                if key == "feasible":
                    out[f"{name}.feasible_frac"] = (
                        stat[key] / stat["calls"] if stat["calls"] else 0.0)
                else:
                    out[f"{name}.{key}"] = stat[key]
        return out
