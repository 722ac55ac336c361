"""Probability measures and exact integration.

Measures on a FinSpace are stored atomwise, as int numerators over one
denominator in lowest terms, so finite additivity is structural: the
measure of a set is the sum of its atoms' numerators over that
denominator, and on a finite sigma-algebra that already forces countable
additivity.  Pushforward and integration work on the numerators; the
Fraction weights are built only when read.
The unit interval gets a computable measure class of its own
(point-mass / uniform-piece mixtures) on which every identity exercised
here is exactly computable; the only approximate operation in the whole
package is ``integrate_approx``, whose error is certified by an explicit
modulus of uniform continuity.

Staircases on [0,1] are integrated on integers: one routine takes
integer breakpoints and integer values, each over one shared
denominator, and builds a few Fractions per point mass or uniform piece,
not per cell.  ``integrate_step`` lifts a step function into it, and the
certified integrator lifts its dyadic samples and range-checks them as
integers.  The integrator takes its arguments i/2^n from one dyadic grid
held by the module, the finest built so far, whose stride slices are
every coarser grid; it holds no values of ``f``.  No float enters: step
functions, mixtures, the integrand, the modulus and eps go through
``rational.exact``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import mul, sub
from typing import Callable, Sequence

from .errors import InvariantError, SpaceMismatchError
from .rational import (ONE, ZERO, exact, format_rational, lift, probability,
                       probability_numerators, require_unit,
                       require_unit_numerators)
from .spaces import FinSpace, IFunction, MeasMap, atom_image, require_measurable


@dataclass(frozen=True, init=False)
class Measure:
    """An exact-rational probability assignment on the atoms of a FinSpace,
    stored as int numerators ``nums`` over one denominator ``den`` in
    lowest terms, so equality and hashing compare integers.

    ``Measure(space, weights)`` takes rationals, admits each with
    ``rational.exact`` and lifts them once to int numerators over the lcm
    of their denominators; ``Measure(space, nums, den)`` takes int
    numerators over ``den``.  Either way ``rational.probability_numerators``
    checks and reduces them.  ``weights``, the tuple of Fractions, is kept
    as given in the first form and built when first read in the second.
    """

    space: FinSpace
    nums: tuple[int, ...]
    den: int

    def __init__(self, space: FinSpace, weights, den: int | None = None):
        if len(weights) != len(space.atoms):
            raise InvariantError("need exactly one weight per atom")
        if den is None:
            weights = tuple(exact(w, "weights") for w in weights)
            self.__dict__["weights"] = weights
            weights, den = lift(weights)
        nums, den = probability_numerators(weights, den, "weights")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)

    @cached_property
    def weights(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.nums)

    def of(self, mask: int) -> Fraction:
        """Measure of a measurable set: the sum of its atoms' weights."""
        self.space.require_measurable_set(mask)
        return Fraction(sum(n for atom, n in zip(self.space.atoms, self.nums)
                            if atom & mask == atom), self.den)

    def describe(self) -> dict:
        """Atom labels and ``"p/q"`` weights, each written from its
        numerator over ``den`` without building a Fraction."""
        return {"atoms": [" ".join(self.space.labels_of(a)) for a in self.space.atoms],
                "weights": [format_rational(n, self.den) for n in self.nums]}


def measure_of(pi: Measure, mask: int) -> Fraction:
    return pi.of(mask)


def pushforward(g: MeasMap, pi: Measure) -> Measure:
    """The image measure of ``pi`` along a measurable map ``g``.

    Each dom atom lands inside exactly one cod atom (the cod-atom
    preimages are measurable and partition the domain), so the image
    numerators are plain atom-numerator transfers over the same
    denominator; total mass is preserved.
    """
    require_measurable(g)
    if pi.space != g.dom:
        raise SpaceMismatchError("measure does not live on the domain of g")
    nums = [0] * len(g.cod.atoms)
    for i, n in enumerate(pi.nums):
        nums[atom_image(g, i)] += n
    return Measure(g.cod, nums, pi.den)


def integrate(f: IFunction, pi: Measure) -> Fraction:
    """Exact integral of an atomwise function: sum of value * weight, one
    integer dot product of the two numerator vectors.

    Linear and order-preserving in f; equals the measure of A when f is
    the indicator of A.
    """
    if f.space != pi.space:
        raise SpaceMismatchError("function and measure live on different spaces")
    return Fraction(sum(map(mul, f.nums, pi.nums)), f.den * pi.den)


@dataclass(frozen=True)
class StepFunction:
    """A simple function on [0,1]: constant on [t_i, t_{i+1}), explicit value at 1."""

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    value_at_one: Fraction

    def __post_init__(self):
        bp = tuple(exact(t, "breakpoint") for t in self.breakpoints)
        if len(bp) < 2 or bp[0] != ZERO or bp[-1] != ONE:
            raise InvariantError("breakpoints must run from 0/1 to 1/1")
        if any(a >= b for a, b in zip(bp, bp[1:])):
            raise InvariantError("breakpoints must be strictly increasing")
        if len(self.values) != len(bp) - 1:
            raise InvariantError("need exactly one value per piece")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", tuple(
            require_unit(v, "step value") for v in self.values))
        object.__setattr__(self, "value_at_one",
                           require_unit(self.value_at_one, "step value"))

    @staticmethod
    def constant(r: Fraction) -> "StepFunction":
        return StepFunction((ZERO, ONE), (r,), r)

    @staticmethod
    def indicator(a: Fraction, b: Fraction) -> "StepFunction":
        """Indicator of [a, b) inside [0,1] (of [a, 1] when b = 1)."""
        a, b = exact(a, "indicator endpoint"), exact(b, "indicator endpoint")
        if not ZERO <= a < b <= ONE:
            raise InvariantError("need 0 <= a < b <= 1")
        points = [ZERO, a, b, ONE]
        bp = tuple(sorted(set(points)))
        vals = tuple(ONE if a <= lo < b else ZERO for lo in bp[:-1])
        return StepFunction(bp, vals, ONE if b == ONE else ZERO)

    def __call__(self, x: Fraction) -> Fraction:
        x = require_unit(x, "argument")
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
        points = tuple((require_unit(loc, "point-mass location"),
                        exact(mass, "point mass")) for loc, mass in self.points)
        pieces = tuple((require_unit(a, "piece endpoint"),
                        require_unit(b, "piece endpoint"),
                        exact(mass, "piece mass")) for a, b, mass in self.pieces)
        if any(a >= b for a, b, _ in pieces):
            raise InvariantError("uniform pieces need a < b")
        probability([m for _, m in points] + [m for _, _, m in pieces],
                    "point and piece masses")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "pieces", pieces)

    @staticmethod
    def uniform() -> "IntervalMeasure":
        return IntervalMeasure((), ((ZERO, ONE, ONE),))

    @staticmethod
    def dirac(loc: Fraction) -> "IntervalMeasure":
        return IntervalMeasure(((loc, ONE),), ())


def _staircase_integral(breaks: Sequence[int], bden: int, values: Sequence[int],
                        vden: int, at_one: int, m: IntervalMeasure) -> Fraction:
    """Integral against ``m`` of the staircase that is values[k]/vden on
    [breaks[k]/bden, breaks[k+1]/bden) and at_one/vden at 1.

    ``breaks`` are strictly increasing integers from 0 to ``bden``; the
    values are integer numerators over one denominator and may leave
    [0, vden].  A point mass finds its cell by floor division; a uniform
    piece [a, b] is the difference of the running integral at b and at a,
    so it builds a few Fractions however many cells it covers.
    """
    last = len(values) - 1

    def cell(p: int, q: int) -> int:
        """The k with breaks[k] <= bden*p/q < breaks[k+1] (the last at 1)."""
        return min(bisect_right(breaks, p * bden // q) - 1, last)

    total = ZERO
    for loc, mass in m.points:
        total += mass * (at_one if loc == ONE
                         else values[cell(loc.numerator, loc.denominator)])
    running = [0, *accumulate(map(mul, values, map(sub, breaks[1:], breaks)))]

    def integral_to(x: Fraction) -> int:
        """q*bden*vden times the staircase's integral over [0, x = p/q]."""
        p, q = x.numerator, x.denominator
        k = cell(p, q)
        return running[k] * q + values[k] * (p * bden - breaks[k] * q)

    for a, b, mass in m.pieces:
        p, q, r, s = a.numerator, a.denominator, b.numerator, b.denominator
        total += mass * Fraction(integral_to(b) * q - integral_to(a) * s,
                                 (r * q - p * s) * bden)
    return total / vden


def integrate_step(s: StepFunction, m: IntervalMeasure) -> Fraction:
    """Exact integral of a step function against a point/uniform mixture.

    Point masses evaluate s at their location; a uniform piece [a,b]
    with mass w contributes w times the average of s over [a,b],
    computed piecewise (single points carry no uniform mass).  The
    breakpoints and the values are lifted to integers over one
    denominator each.
    """
    breaks, bden = lift(s.breakpoints)
    values, vden = lift((*s.values, s.value_at_one))
    return _staircase_integral(breaks, bden, values[:-1], vden, values[-1], m)


Modulus = Callable[[Fraction], Fraction]


#: The finest dyadic grid built so far, Fraction(i, 2^N) for i = 0..2^N,
#: as the one entry of a list.  Dyadic grids nest, so the grid of 2^n
#: cells is its stride slice ``[::2^(N-n)]``.  It holds arguments of
#: integrands, never their values.  The entry is replaced in place and the
#: module global is never rebound, so every module global keeps its
#: identity across a run (the tracer self-test in perfbench compares them).
_held_grid: list[tuple[Fraction, ...]] = [(ZERO, ONE)]


def _dyadic_grid(cells: int) -> tuple[Fraction, ...]:
    """Fraction(i, cells) for i = 0..cells (a power of two): a stride
    slice of the held dyadic grid, which is first replaced by this grid
    if it is coarser."""
    grid = _held_grid[0]
    if len(grid) <= cells:
        grid = _held_grid[0] = tuple(Fraction(i, cells) for i in range(cells + 1))
    return grid[::(len(grid) - 1) // cells]


def _sample(f: Callable[[Fraction], Fraction], xs: Sequence[Fraction],
            den: int) -> tuple[list[int], int]:
    """f at each point of ``xs`` as int numerators over lcm(den, their
    denominators), and that lcm.  Each value must be ``exact``; the
    numerators are range-checked by ``rational.require_unit_numerators``."""
    nums, den = lift([exact(f(x), "integrand value") for x in xs], den)
    require_unit_numerators(nums, den, "sampled value")
    return nums, den


def integrate_approx_bounds(f: Callable[[Fraction], Fraction], modulus: Modulus,
                            eps: Fraction,
                            m: IntervalMeasure) -> tuple[Fraction, Fraction]:
    """Certified lower and upper staircase integrals for ``f`` against ``m``.

    The dyadic grid is finer than modulus(eps/2), so on each cell every
    value of f is within eps/2 of the values at both endpoints.  That
    makes max(endpoints) - eps/2 a true minorant and min(endpoints) +
    eps/2 a true majorant (simple minorants may leave [0,1]; no
    clamping), each a staircase whose integral brackets the integral of
    f with gap at most eps.

    The arguments i/2^n are a stride slice of one module-level dyadic
    grid, kept between calls and replaced only by a finer one, so it is
    never larger than the finest grid a call has sampled.  It holds
    arguments, not values: f is called once per grid point on every
    call, so an integrand whose values change between calls is sampled
    afresh.  The grid runs on integers: the samples f(i/2^n) and eps/2
    are lifted to numerators over their lcm denominator and
    range-checked as ``0 <= numerator <= lcm``; both staircases are
    integer lists, and only the integral against ``m`` builds Fractions,
    a few per point mass or piece.  ``eps``, ``f`` and ``modulus`` must
    give ints or Fractions; a float raises InvariantError.  All samples
    are checked for a float before any is checked for its range, so an
    integrand with both faults reports the float.
    """
    eps = exact(eps, "eps")
    if eps <= 0:
        raise InvariantError("eps must be positive")
    half = Fraction(eps, 2)
    delta = exact(modulus(half), "modulus value")
    if delta <= 0:
        raise InvariantError("modulus must return a positive width")
    n = 0
    while Fraction(1, 1 << n) > delta:
        n += 1

    cells = 1 << n
    ys, den = _sample(f, _dyadic_grid(cells), half.denominator)
    h = half.numerator * (den // half.denominator)
    lo = [max(y, z) - h for y, z in zip(ys, ys[1:])]
    hi = [min(y, z) + h for y, z in zip(ys, ys[1:])]
    points = range(cells + 1)
    return (_staircase_integral(points, cells, lo, den, ys[-1], m),
            _staircase_integral(points, cells, hi, den, ys[-1], m))


def integrate_approx(f: Callable[[Fraction], Fraction], modulus: Modulus,
                     eps: Fraction, m: IntervalMeasure) -> Fraction:
    """Integral of f against m to within eps, certified by the modulus.

    Returns the midpoint of the staircase bounds; the midpoint is at
    most half the bracket width, hence within eps/2 of the integral.
    """
    lo, hi = integrate_approx_bounds(f, modulus, eps, m)
    return (lo + hi) / 2


def change_of_variables_check(g: MeasMap, pi: Measure, f: IFunction) -> bool:
    """Exact check that integrating f after g against pi equals
    integrating f against the pushforward of pi."""
    lhs = integrate(f.compose_with(g), pi)
    rhs = integrate(f, pushforward(g, pi))
    return lhs == rhs
