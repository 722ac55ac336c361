"""Probability measures and exact integration.

Measures on a FinSpace are stored atomwise, so finite additivity is
structural: the measure of a set is the sum of its atoms' weights, and
on a finite sigma-algebra that already forces countable additivity.
The unit interval gets a computable measure class of its own
(point-mass / uniform-piece mixtures) on which every identity exercised
here is exactly computable; the only approximate operation in the whole
package is ``integrate_approx``, whose error is certified by an explicit
modulus of uniform continuity.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import InvariantError, SpaceMismatchError
from .rational import ONE, ZERO, format_rational, require_unit
from .spaces import FinSpace, IFunction, MeasMap, atom_image, require_measurable


@dataclass(frozen=True)
class Measure:
    """An exact-rational probability assignment on the atoms of a FinSpace."""

    space: FinSpace
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.space.atoms):
            raise InvariantError("need exactly one weight per atom")
        for w in self.weights:
            if not isinstance(w, Fraction):
                raise InvariantError("weights must be Fractions")
            if w < 0:
                raise InvariantError(
                    f"weights must be nonnegative, got {format_rational(w)}")
        total = sum(self.weights, ZERO)
        if total != ONE:
            raise InvariantError(
                f"weights must sum to 1/1, got {format_rational(total)}")

    def of(self, mask: int) -> Fraction:
        """Measure of a measurable set: the sum of its atoms' weights."""
        self.space.require_measurable_set(mask)
        return sum((w for atom, w in zip(self.space.atoms, self.weights)
                    if atom & mask == atom), ZERO)

    def describe(self) -> dict:
        return {"atoms": [" ".join(self.space.labels_of(a)) for a in self.space.atoms],
                "weights": [format_rational(w) for w in self.weights]}


def measure_of(pi: Measure, mask: int) -> Fraction:
    return pi.of(mask)


def pushforward(g: MeasMap, pi: Measure) -> Measure:
    """The image measure of ``pi`` along a measurable map ``g``.

    Each dom atom lands inside exactly one cod atom (the cod-atom
    preimages are measurable and partition the domain), so the image
    weights are plain atom-weight transfers; total mass is preserved.
    """
    require_measurable(g)
    if pi.space != g.dom:
        raise SpaceMismatchError("measure does not live on the domain of g")
    weights = [ZERO] * len(g.cod.atoms)
    for i, w in enumerate(pi.weights):
        weights[atom_image(g, i)] += w
    return Measure(g.cod, tuple(weights))


def integrate(f: IFunction, pi: Measure) -> Fraction:
    """Exact integral of an atomwise function: sum of value * weight.

    Linear and order-preserving in f; equals the measure of A when f is
    the indicator of A.
    """
    if f.space != pi.space:
        raise SpaceMismatchError("function and measure live on different spaces")
    return sum((v * w for v, w in zip(f.values, pi.weights)), ZERO)


@dataclass(frozen=True)
class StepFunction:
    """A simple function on [0,1]: constant on [t_i, t_{i+1}), explicit value at 1."""

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    value_at_one: Fraction

    def __post_init__(self):
        bp = self.breakpoints
        if len(bp) < 2 or bp[0] != ZERO or bp[-1] != ONE:
            raise InvariantError("breakpoints must run from 0/1 to 1/1")
        if any(a >= b for a, b in zip(bp, bp[1:])):
            raise InvariantError("breakpoints must be strictly increasing")
        if len(self.values) != len(bp) - 1:
            raise InvariantError("need exactly one value per piece")
        for v in (*self.values, self.value_at_one):
            require_unit(Fraction(v), "step value")

    @staticmethod
    def constant(r: Fraction) -> "StepFunction":
        r = Fraction(r)
        return StepFunction((ZERO, ONE), (r,), r)

    @staticmethod
    def indicator(a: Fraction, b: Fraction) -> "StepFunction":
        """Indicator of [a, b) inside [0,1] (of [a, 1] when b = 1)."""
        a, b = Fraction(a), Fraction(b)
        if not ZERO <= a < b <= ONE:
            raise InvariantError("need 0 <= a < b <= 1")
        points = [ZERO, a, b, ONE]
        bp = tuple(sorted(set(points)))
        vals = tuple(ONE if a <= lo < b else ZERO for lo in bp[:-1])
        return StepFunction(bp, vals, ONE if b == ONE else ZERO)

    def __call__(self, x: Fraction) -> Fraction:
        x = Fraction(x)
        require_unit(x, "argument")
        if x == ONE:
            return self.value_at_one
        return self.values[bisect_right(self.breakpoints, x) - 1]


@dataclass(frozen=True)
class IntervalMeasure:
    """A mixture of point masses and uniform pieces on [0,1], total mass 1.

    Pieces may overlap; all data is rational, so integrating any step
    function against it is exact.
    """

    points: tuple[tuple[Fraction, Fraction], ...]
    pieces: tuple[tuple[Fraction, Fraction, Fraction], ...]

    def __post_init__(self):
        total = ZERO
        for loc, mass in self.points:
            require_unit(Fraction(loc), "point-mass location")
            if mass < 0:
                raise InvariantError("point masses must be nonnegative")
            total += mass
        for a, b, mass in self.pieces:
            require_unit(Fraction(a), "piece endpoint")
            require_unit(Fraction(b), "piece endpoint")
            if a >= b:
                raise InvariantError("uniform pieces need a < b")
            if mass < 0:
                raise InvariantError("piece masses must be nonnegative")
            total += mass
        if total != ONE:
            raise InvariantError(
                f"total mass must be 1/1, got {format_rational(total)}")

    @staticmethod
    def uniform() -> "IntervalMeasure":
        return IntervalMeasure((), ((ZERO, ONE, ONE),))

    @staticmethod
    def dirac(loc: Fraction) -> "IntervalMeasure":
        return IntervalMeasure(((Fraction(loc), ONE),), ())


def _integrate_staircase(breaks: Sequence[Fraction], values: Sequence[Fraction],
                         at_one: Fraction, m: IntervalMeasure) -> Fraction:
    """Integral of a piecewise-constant function against m; values are
    arbitrary rationals (internal staircases may leave [0,1])."""
    total = ZERO
    for loc, mass in m.points:
        if loc == ONE:
            total += mass * at_one
        else:
            total += mass * values[bisect_right(breaks, loc) - 1]
    for a, b, mass in m.pieces:
        acc = ZERO
        for lo, hi, v in zip(breaks, breaks[1:], values):
            left, right = max(lo, a), min(hi, b)
            if left < right:
                acc += v * (right - left)
        total += mass * acc / (b - a)
    return total


def integrate_step(s: StepFunction, m: IntervalMeasure) -> Fraction:
    """Exact integral of a step function against a point/uniform mixture.

    Point masses evaluate s at their location; a uniform piece [a,b]
    with mass w contributes w times the average of s over [a,b],
    computed piecewise (single points carry no uniform mass).
    """
    return _integrate_staircase(s.breakpoints, s.values, s.value_at_one, m)


Modulus = Callable[[Fraction], Fraction]


def integrate_approx_bounds(f: Callable[[Fraction], Fraction], modulus: Modulus,
                            eps: Fraction, m: IntervalMeasure,
                            refine: int = 0) -> tuple[Fraction, Fraction]:
    """Certified lower and upper staircase integrals for ``f`` against ``m``.

    The base dyadic grid is finer than modulus(eps/2), so on each cell
    every value of f is within eps/2 of the values at both endpoints.
    That makes max(endpoints) - eps/2 a true minorant and
    min(endpoints) + eps/2 a true majorant (simple minorants may leave
    [0,1]; no clamping), each a staircase whose integral brackets the
    integral of f with gap at most eps.  Each extra ``refine`` level
    halves the cells and takes the pointwise max (resp. min) with the
    parent staircase, so the lower bounds are non-decreasing and the
    upper bounds non-increasing by construction.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise InvariantError("eps must be positive")
    half = eps / 2
    delta = Fraction(modulus(half))
    if delta <= 0:
        raise InvariantError("modulus must return a positive width")
    n = 0
    while Fraction(1, 1 << n) > delta:
        n += 1

    cells = 1 << n
    samples = [Fraction(i, cells) for i in range(cells + 1)]
    fs = [require_unit(Fraction(f(x)), "sampled value") for x in samples]
    lo = [max(fs[i], fs[i + 1]) - half for i in range(cells)]
    hi = [min(fs[i], fs[i + 1]) + half for i in range(cells)]

    for _ in range(refine):
        cells *= 2
        new_samples = [Fraction(i, cells) for i in range(cells + 1)]
        new_fs = []
        for i, x in enumerate(new_samples):
            new_fs.append(fs[i // 2] if i % 2 == 0
                          else require_unit(Fraction(f(x)), "sampled value"))
        lo = [max(lo[i // 2], max(new_fs[i], new_fs[i + 1]) - half)
              for i in range(cells)]
        hi = [min(hi[i // 2], min(new_fs[i], new_fs[i + 1]) + half)
              for i in range(cells)]
        samples, fs = new_samples, new_fs

    f_one = fs[-1]
    return (_integrate_staircase(samples, lo, f_one, m),
            _integrate_staircase(samples, hi, f_one, m))


def integrate_approx(f: Callable[[Fraction], Fraction], modulus: Modulus,
                     eps: Fraction, m: IntervalMeasure,
                     refine: int = 0) -> Fraction:
    """Integral of f against m to within eps, certified by the modulus.

    Returns the midpoint of the staircase bounds; the midpoint is at
    most half the bracket width, hence within eps/2 of the integral.
    """
    lo, hi = integrate_approx_bounds(f, modulus, eps, m, refine)
    return (lo + hi) / 2


def change_of_variables_check(g: MeasMap, pi: Measure, f: IFunction) -> bool:
    """Exact check that integrating f after g against pi equals
    integrating f against the pushforward of pi."""
    lhs = integrate(f.compose_with(g), pi)
    rhs = integrate(f, pushforward(g, pi))
    return lhs == rhs
