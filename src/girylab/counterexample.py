"""A finitely additive integration operator on the naturals that is not
countably additive.

The classical witness for such a measure is non-constructive, so this
module realizes the computable core instead: the tail-limit functional
on eventually-constant functions from the naturals into the unit
interval, paired with the zero/one measure on the algebra of finite and
cofinite sets.  On this class every computation the separation argument
performs is exact: the functional is affine, weakly averaging, and
1-Lipschitz for the sup metric; every singleton has measure zero while
the whole space has measure one; and the indicator sequence of the
final segments [n, infinity) converges pointwise to zero while the
functional stays pinned at one, which is precisely the failure of the
limits axiom that separates finite from countable additivity.

Finite/cofinite sets form an algebra, not a sigma-algebra (a countable
union of finite sets can escape it); the restriction is deliberate and
the failure above is still exactly exhibited on representable families.
The one inexact step is the limits axiom itself: a sequence on the
naturals has no last term to decide it from, so
``segments_respect_limits`` probes a finite window of it (on a finite
space ``duality.respects_limits`` decides it exactly).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .rational import ONE, ZERO, exact, index, require_unit
from .spaces import Frozen
from .verdicts import Verdict, failed, passed


class EventualFn(Frozen):
    """An eventually constant function from the naturals into [0,1]:
    an explicit finite prefix, then ``tail`` forever."""

    _fields = ("prefix", "tail")

    def __init__(self, prefix: tuple[Fraction, ...], tail: Fraction):
        object.__setattr__(self, "prefix", tuple(
            require_unit(v, "prefix value") for v in prefix))
        object.__setattr__(self, "tail", require_unit(tail, "tail value"))

    @staticmethod
    def constant(r: Fraction) -> "EventualFn":
        return EventualFn((), r)

    @staticmethod
    def final_segment_indicator(n: int) -> "EventualFn":
        """The indicator of [n, infinity): n leading zeros, then ones."""
        return EventualFn((ZERO,) * index(n, "segment start"), ONE)

    def value(self, n: int) -> Fraction:
        return self.prefix[n] if n < len(self.prefix) else self.tail

    def blend(self, other: "EventualFn", r: Fraction) -> "EventualFn":
        r = exact(r, "blend weight")
        width = max(len(self.prefix), len(other.prefix))
        prefix = tuple(r * self.value(i) + (1 - r) * other.value(i)
                       for i in range(width))
        return EventualFn(prefix, r * self.tail + (1 - r) * other.tail)

    def sup_distance(self, other: "EventualFn") -> Fraction:
        width = max(len(self.prefix), len(other.prefix))
        gaps = [abs(self.value(i) - other.value(i)) for i in range(width)]
        gaps.append(abs(self.tail - other.tail))
        return max(gaps)


class FinCofSet(Frozen):
    """A finite or cofinite set of naturals, stored by its finite side."""

    _fields = ("cofinite", "elements")

    def __init__(self, cofinite: bool, elements: frozenset[int]):
        for n in elements:
            index(n, "element")
        object.__setattr__(self, "cofinite", cofinite)
        object.__setattr__(self, "elements", elements)

    @staticmethod
    def finite(elements: Iterable[int]) -> "FinCofSet":
        return FinCofSet(False, frozenset(elements))

    @staticmethod
    def cofinite_excluding(elements: Iterable[int]) -> "FinCofSet":
        return FinCofSet(True, frozenset(elements))

    @staticmethod
    def whole() -> "FinCofSet":
        return FinCofSet(True, frozenset())

    def complement(self) -> "FinCofSet":
        return FinCofSet(not self.cofinite, self.elements)

    def disjoint_from(self, other: "FinCofSet") -> bool:
        if self.cofinite and other.cofinite:
            return False  # two cofinite sets always meet
        if not self.cofinite and not other.cofinite:
            return not (self.elements & other.elements)
        fin, cof = (self, other) if not self.cofinite else (other, self)
        return fin.elements <= cof.elements

    def union(self, other: "FinCofSet") -> "FinCofSet":
        if not self.cofinite and not other.cofinite:
            return FinCofSet.finite(self.elements | other.elements)
        if self.cofinite and other.cofinite:
            return FinCofSet.cofinite_excluding(self.elements & other.elements)
        fin, cof = (self, other) if not self.cofinite else (other, self)
        return FinCofSet.cofinite_excluding(cof.elements - fin.elements)

    def indicator(self) -> EventualFn:
        bound = max(self.elements, default=-1) + 1
        inside, outside = (ONE, ZERO) if not self.cofinite else (ZERO, ONE)
        prefix = tuple(inside if n in self.elements else outside
                       for n in range(bound))
        return EventualFn(prefix, outside if not self.cofinite else ONE)


def limit_functional(f: EventualFn) -> Fraction:
    """The value of f at infinity.  Affine and weakly averaging on the
    eventually constant class, but it does not respect pointwise limits."""
    return f.tail


def cofinite_measure(a: FinCofSet) -> Fraction:
    """Zero on finite sets, one on cofinite sets; this is the limit
    functional applied to the indicator, and it is finitely additive on
    every representable disjoint pair."""
    return ONE if a.cofinite else ZERO


def sup_continuity_check(phi, f: EventualFn, g: EventualFn) -> Verdict:
    """1-Lipschitz for the sup metric: the functional ``phi`` (such as
    ``limit_functional``) moves the two values by at most the sup
    distance.  Computed exactly."""
    eps = f.sup_distance(g)
    gap = abs(phi(f) - phi(g))
    name = "sup-metric 1-Lipschitz"
    if gap <= eps:
        return passed(name, witness={"sup_distance": eps, "gap": gap})
    return failed(name, {"sup_distance": eps, "gap": gap,
                         "f_tail": f.tail, "g_tail": g.tail})


#: How many halvings 2^-k the probed tail of ``segments_respect_limits``
#: must reach.
LIMIT_THRESHOLDS = 12
#: How many terms of the sequence ``segments_respect_limits`` probes.
LIMIT_PROBE = 48


def segments_respect_limits(phi) -> Verdict:
    """Does ``phi`` send the final-segment indicators n -> [n, infinity)
    to values converging to zero?

    At the point k the sequence vanishes from index k+1 on, so it
    converges pointwise to zero everywhere.  A naturals-indexed sequence
    cannot be decided from one tail term, so it is probed on its first
    ``LIMIT_PROBE`` terms: pass requires, for every threshold 2^-k up to
    ``LIMIT_THRESHOLDS``, a probed tail staying at or below it.  A fail
    carries the stuck lower bound (the infimum of the last quarter of the
    probe).
    """
    name = "respects limits"
    values = [exact(phi(EventualFn.final_segment_indicator(n)),
                    "functional value") for n in range(LIMIT_PROBE)]
    suffix_max = values[:]
    for i in range(LIMIT_PROBE - 2, -1, -1):
        suffix_max[i] = max(suffix_max[i], suffix_max[i + 1])

    for k in range(1, LIMIT_THRESHOLDS + 1):
        bound = Fraction(1, 1 << k)
        if not any(sm <= bound for sm in suffix_max):
            stuck = min(values[-(LIMIT_PROBE // 4):])
            return failed(name, {"threshold": bound, "stuck_at": stuck,
                                 "probed": LIMIT_PROBE,
                                 "values_head": values[:8]})
    return passed(name, witness={"mode": "probe window", "probed": LIMIT_PROBE})


def singleton_mass_sum(upto: int) -> Fraction:
    """The exact partial sum of the singleton masses below ``upto``
    (every term is zero, and the sum is computed, not asserted)."""
    total = ZERO
    for n in range(index(upto, "bound")):
        total += cofinite_measure(FinCofSet.finite((n,)))
    return total


#: How many singleton masses ``countable_additivity_violation`` sums.
SINGLETONS_CHECKED = 1000

#: How many final segments ``countable_additivity_violation`` evaluates.
SEGMENTS_REPORTED = 12


def countable_additivity_violation() -> dict:
    """The separation report: vanishing singleton masses against total
    mass one, and the limits-axiom refutation on the final segments.

    The witness sequence converges pointwise to zero (certified index
    k+1 at the point k) while the functional value is pinned at one for
    every n, which countably additive operators cannot do.  Its numbers
    are raw; ``respects_limits`` is that Verdict's ``to_jsonable()``.
    """
    verdict = segments_respect_limits(limit_functional)
    return {
        "singleton_partial_sum": singleton_mass_sum(SINGLETONS_CHECKED),
        "singletons_checked": SINGLETONS_CHECKED,
        "total_mass": cofinite_measure(FinCofSet.whole()),
        "respects_limits": verdict.to_jsonable(),
        "witness_sequence": "indicator of [n, infinity)",
        "pointwise_limit": ZERO,
        "functional_values": [
            limit_functional(EventualFn.final_segment_indicator(n))
            for n in range(SEGMENTS_REPORTED)],
    }
