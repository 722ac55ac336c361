"""Measures, pushforward, exact and certified integration."""

import math
import random
from bisect import bisect_right
from decimal import Decimal
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from girylab.errors import InvariantError, NotMeasurableError, SpaceMismatchError
from girylab.harness import (SuiteConfig, generate_ifunction, generate_measure,
                             generate_measurable_map, generate_space)
from girylab.rational import random_fraction
from girylab.spaces import FinSpace, IFunction, MeasMap, characteristic
from girylab import measures
from girylab.measures import (IntervalMeasure, Measure, integrate,
                              integrate_approx_bounds, pushforward)

from strategies import (indiscrete, mask_of, sigma, spaces,
                        spaces_with_measures, unit_fractions)

F = Fraction


def staircase_oracle(breaks, values, at_one, m: IntervalMeasure) -> Fraction:
    """Fraction-per-cell integral of a staircase against a mixture: the
    integrator's former implementation, kept as the oracle."""
    total = F(0)
    for loc, mass in m.points:
        if loc == 1:
            total += mass * at_one
        else:
            total += mass * values[bisect_right(breaks, loc) - 1]
    for a, b, mass in m.pieces:
        acc = F(0)
        for lo, hi, v in zip(breaks, breaks[1:], values):
            left, right = max(lo, a), min(hi, b)
            if left < right:
                acc += v * (right - left)
        total += mass * acc / (b - a)
    return total


def approx_bounds_oracle(f, modulus, eps, m):
    """The former Fraction-grid ``integrate_approx_bounds``, kept as the
    oracle for the integer grid."""
    eps = F(eps)
    half = eps / 2
    delta = F(modulus(half))
    n = 0
    while F(1, 1 << n) > delta:
        n += 1
    cells = 1 << n
    samples = [F(i, cells) for i in range(cells + 1)]
    fs = [F(f(x)) for x in samples]
    lo = [max(fs[i], fs[i + 1]) - half for i in range(cells)]
    hi = [min(fs[i], fs[i + 1]) + half for i in range(cells)]
    return (staircase_oracle(samples, lo, fs[-1], m),
            staircase_oracle(samples, hi, fs[-1], m))


def random_mixture(rng: random.Random, lines) -> IntervalMeasure:
    """A point/uniform mixture that hits a staircase's edge cases: point
    masses at 0, at 1 and on the breakpoints ``lines``, pieces narrower
    than one cell (inside a cell or across a line), pieces ending at 1,
    and free rational endpoints."""
    narrow = min(b - a for a, b in zip(lines, lines[1:])) / 2

    def location():
        kind = rng.randrange(3)
        if kind == 0:
            return rng.choice((F(0), F(1)))
        return rng.choice(lines) if kind == 1 else random_fraction(rng, max_den=97)

    def piece():
        kind = rng.randrange(3)
        if kind == 0:
            width = narrow / rng.randint(1, 5)
            a = min(max(location() - width / 2, F(0)), 1 - width)
            return a, a + width
        if kind == 1:
            return min(location(), F(1) - narrow), F(1)
        while True:
            a, b = sorted((location(), location()))
            if a < b:
                return a, b

    weights = [rng.randint(1, 6) for _ in range(rng.randint(1, 5))]
    n_points = rng.randint(0, len(weights))
    total = sum(weights)
    points = tuple((location(), F(w, total)) for w in weights[:n_points])
    pieces = tuple((*piece(), F(w, total)) for w in weights[n_points:])
    return IntervalMeasure(points, pieces)


#: name -> (integrand on [0,1] -> [0,1], a modulus of uniform continuity).
INTEGRANDS = {
    "x": (lambda x: x, lambda e: e),
    "x^2": (lambda x: x * x, lambda e: e / 2),
    "4x(1-x)": (lambda x: 4 * x * (1 - x), lambda e: e / 4),
    "|3x-1|/2": (lambda x: abs(3 * x - 1) / 2, lambda e: e * 2 / 3),
    "tent-int": (lambda x: 1 if x <= F(1, 3) else F(3, 2) - 3 * x / 2,
                 lambda e: e * 2 / 3),
}


def exact_linear_moment(m: IntervalMeasure) -> Fraction:
    """Closed-form integral of x against a mixture (independent oracle)."""
    total = sum((mass * loc for loc, mass in m.points), F(0))
    total += sum((mass * (a + b) / 2 for a, b, mass in m.pieces), F(0))
    return total


def exact_square_moment(m: IntervalMeasure) -> Fraction:
    """Closed-form integral of x^2 against a mixture (independent oracle)."""
    total = sum((mass * loc * loc for loc, mass in m.points), F(0))
    total += sum((mass * (a * a + a * b + b * b) / 3 for a, b, mass in m.pieces),
                 F(0))
    return total


class TestMeasure:
    def test_weights_must_sum_to_one(self):
        s = FinSpace.discrete(["a", "b"])
        with pytest.raises(InvariantError):
            Measure(s, (F(1, 2), F(1, 3)))
        with pytest.raises(InvariantError):
            Measure(s, (F(3, 2), F(-1, 2)))

    def test_measure_of_two_atoms(self):
        s = FinSpace.discrete(["a", "b", "c"])
        pi = Measure(s, (F(1, 3),) * 3)
        assert pi.of(mask_of(s, ["a", "b"])) == F(2, 3)

    def test_normalization_and_empty(self):
        s = FinSpace.discrete(["a", "b"])
        pi = Measure(s, (F(1, 4), F(3, 4)))
        assert pi.of(s.full_mask) == F(1)
        assert pi.of(0) == F(0)

    def test_non_measurable_set_rejected(self):
        s = indiscrete(["a", "b"])
        pi = Measure(s, (F(1),))
        with pytest.raises(NotMeasurableError):
            pi.of(mask_of(s, ["a"]))


def pushforward_oracle(g: MeasMap, pi: Measure) -> Measure:
    """The former Fraction ``pushforward``: atom weights moved one by one."""
    weights = [F(0)] * len(g.cod.atoms)
    for i, atom in enumerate(g.dom.atoms):
        j = next(j for j, b in enumerate(g.cod.atoms)
                 if g.preimage(b) & atom == atom)
        weights[j] += pi.weights[i]
    return Measure(g.cod, tuple(weights))


def integrate_oracle(f: IFunction, pi: Measure) -> Fraction:
    """The former Fraction ``integrate``: a sum of value * weight."""
    return sum((v * w for v, w in zip(f.values, pi.weights)), F(0))


def measure_of_oracle(pi: Measure, mask: int) -> Fraction:
    """The former ``Measure.of``: a Fraction sum of the atoms' weights."""
    return sum((w for atom, w in zip(pi.space.atoms, pi.weights)
                if atom & mask == atom), F(0))


class TestNumeratorStorage:
    """``Measure`` keeps int numerators over one denominator in lowest
    terms; the former Fraction routines are the reference."""

    CFG = SuiteConfig(max_carrier=6)

    @pytest.mark.parametrize("seed", range(40))
    def test_pushforward_integrate_of_equal_the_fraction_routines(self, seed):
        rng = random.Random(seed)
        dom, cod = generate_space(rng, self.CFG), generate_space(rng, self.CFG)
        pi, g = generate_measure(rng, dom), generate_measurable_map(rng, dom, cod)
        out, want = pushforward(g, pi), pushforward_oracle(g, pi)
        assert out == want
        assert (out.nums, out.den, out.weights) == (want.nums, want.den,
                                                    want.weights)
        f = generate_ifunction(rng, dom)
        assert integrate(f, pi) == integrate_oracle(f, pi)
        for mask in sigma(dom):
            assert pi.of(mask) == measure_of_oracle(pi, mask)

    @pytest.mark.parametrize("seed", range(20))
    def test_weights_and_numerators_agree(self, seed):
        """Measure(space, weights) equals and hashes as the int numerators
        of the same weights over any common denominator."""
        rng = random.Random(seed)
        space = generate_space(rng, self.CFG)
        pi = Measure(space, tuple(generate_measure(rng, space).weights))
        assert math.gcd(pi.den, *pi.nums) == 1
        assert pi.weights == tuple(F(n, pi.den) for n in pi.nums)
        scale = rng.randint(2, 50)
        same = Measure(space, [n * scale for n in pi.nums], pi.den * scale)
        assert same == pi and hash(same) == hash(pi)
        assert (same.nums, same.den) == (pi.nums, pi.den)
        assert same.weights == pi.weights

    def test_numerators_must_be_a_probability_vector(self):
        s = FinSpace.discrete(["a", "b"])
        with pytest.raises(InvariantError, match="nonnegative, got -1/2"):
            Measure(s, (-1, 3), 2)
        with pytest.raises(InvariantError, match="total mass 3/4"):
            Measure(s, (1, 2), 4)
        with pytest.raises(InvariantError, match="positive denominator"):
            Measure(s, (0, 0), 0)
        with pytest.raises(InvariantError, match="need exactly one weight"):
            Measure(s, (1,), 1)
        for nums, den, kind in [((0.5, 0.5), 1, "float"), ((1, 1), 2.0, "float"),
                                ((True, 0), 1, "bool"), ((1, 0), True, "bool")]:
            with pytest.raises(InvariantError, match=f"int numerators .* {kind}"):
                Measure(s, nums, den)


class TestPushforward:
    def test_collapse_example(self):
        dom = FinSpace.discrete(["a", "b", "c"])
        cod = FinSpace.discrete(["x", "y"])
        g = MeasMap(dom, cod, (0, 0, 1))  # a, b -> x; c -> y
        pi = Measure(dom, (F(1, 2), F(1, 3), F(1, 6)))
        out = pushforward(g, pi)
        # preimage-sum oracle over the whole codomain sigma-algebra
        for mask in sigma(cod):
            assert out.of(mask) == pi.of(g.preimage(mask))
        assert out.weights == (F(5, 6), F(1, 6))

    def test_identity(self):
        s = FinSpace.discrete(["a", "b"])
        pi = Measure(s, (F(2, 5), F(3, 5)))
        assert pushforward(MeasMap.identity(s), pi) == pi

    def test_constant_to_point(self):
        dom = FinSpace.discrete(["a", "b"])
        cod = FinSpace.discrete(["z"])
        pi = Measure(dom, (F(2, 5), F(3, 5)))
        assert pushforward(MeasMap(dom, cod, (0, 0)), pi).weights == (F(1),)

    def test_non_measurable_map_rejected(self):
        # refused when built, so no pushforward along it can be asked for
        dom = indiscrete(["a", "b"])
        cod = FinSpace.discrete(["x", "y"])
        with pytest.raises(NotMeasurableError):
            MeasMap(dom, cod, (0, 1))

    @settings(max_examples=60, deadline=None)
    @given(spaces_with_measures(4), spaces(4), st.randoms(use_true_random=False))
    def test_preimage_oracle_random(self, sm, cod, rng):
        dom, pi = sm
        table = [0] * len(dom.carrier)
        for atom in dom.atoms:
            t = rng.randrange(len(cod.carrier))
            for i in range(len(dom.carrier)):
                if atom >> i & 1:
                    table[i] = t
        g = MeasMap(dom, cod, tuple(table))
        out = pushforward(g, pi)
        for mask in sigma(cod):
            assert out.of(mask) == pi.of(g.preimage(mask))


class TestIntegrate:
    def test_indicator_integrates_to_measure(self):
        s = FinSpace.discrete(["a", "b", "c"])
        pi = Measure(s, (F(1, 2), F(1, 3), F(1, 6)))
        for mask in sigma(s):
            assert integrate(characteristic(s, mask), pi) == pi.of(mask)

    def test_constant_weakly_averaging(self):
        s = FinSpace.discrete(["a", "b"])
        pi = Measure(s, (F(1, 4), F(3, 4)))
        assert integrate(IFunction.constant(s, F(2, 7)), pi) == F(2, 7)

    def test_weighted_sum_example(self):
        s = FinSpace.discrete(["a", "b", "c"])
        pi = Measure(s, (F(1, 2), F(1, 3), F(1, 6)))
        f = IFunction(s, (F(1), F(1, 2), F(0)))
        assert integrate(f, pi) == F(2, 3)

    def test_space_mismatch(self):
        pi = Measure(FinSpace.discrete(["a"]), (F(1),))
        f = IFunction.constant(FinSpace.discrete(["b"]), F(0))
        with pytest.raises(SpaceMismatchError):
            integrate(f, pi)

    @settings(max_examples=80, deadline=None)
    @given(spaces_with_measures(5), st.data())
    def test_linear_and_monotone(self, sm, data):
        space, pi = sm
        n = len(space.atoms)
        draw_fn = st.lists(unit_fractions(), min_size=n, max_size=n)
        f = IFunction(space, tuple(data.draw(draw_fn)))
        g = IFunction(space, tuple(data.draw(draw_fn)))
        r = data.draw(unit_fractions())
        blend = f.blend(g, r)
        assert integrate(blend, pi) == \
            r * integrate(f, pi) + (1 - r) * integrate(g, pi)
        bigger = IFunction(space, tuple(
            v + (1 - v) * r for v in f.values))
        assert integrate(f, pi) <= integrate(bigger, pi)


class TestIntervalMeasure:
    def test_total_mass_validated(self):
        with pytest.raises(InvariantError):
            IntervalMeasure(((F(0), F(1, 2)),), ())

    def test_overlapping_pieces_allowed(self):
        """Overlapping pieces each keep their own mass: the constant 1
        integrates to 1 and x to the pieces' mass-weighted midpoints."""
        m = IntervalMeasure((), ((F(0), F(1, 2), F(1, 2)),
                                 (F(1, 4), F(3, 4), F(1, 2))))
        eps = F(1, 64)
        assert integrate_approx_bounds(lambda x: 1, lambda e: e, eps, m) == \
            (1 - eps / 2, 1 + eps / 2)
        lo, hi = integrate_approx_bounds(lambda x: x, lambda e: e, eps, m)
        assert lo <= exact_linear_moment(m) == F(3, 8) <= hi
        assert hi - lo <= eps


class TestIntegrateApprox:
    def test_linear_within_eps(self):
        m = IntervalMeasure.uniform()
        eps = F(1, 1024)
        lo, hi = integrate_approx_bounds(lambda x: x, lambda e: e, eps, m)
        assert lo <= exact_linear_moment(m) <= hi
        assert hi - lo <= eps

    def test_constant_exact_for_any_eps(self):
        m = IntervalMeasure.uniform()
        for r in (F(0), F(1, 100), F(2, 3), F(1)):
            for eps in (F(1, 4), F(1, 64)):
                assert integrate_approx_bounds(lambda x, r=r: r,
                                               lambda e: e, eps, m) == \
                    (r - eps / 2, r + eps / 2)

    def test_square_at_point_mass(self):
        m = IntervalMeasure.dirac(F(1, 2))
        eps = F(1, 1024)
        lo, hi = integrate_approx_bounds(lambda x: x * x, lambda e: e / 2,
                                         eps, m)
        assert lo <= F(1, 4) <= hi
        assert hi - lo <= eps

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(InvariantError):
            integrate_approx_bounds(lambda x: x, lambda e: e, F(0),
                                    IntervalMeasure.uniform())

    def test_grid_past_the_cap_rejected(self):
        # eps = 2^-40 with the modulus e -> e needs 2^41 cells; the cap is
        # checked before any grid point is built or the integrand called
        def integrand(x):
            raise AssertionError("sampled past the grid cap")

        with pytest.raises(InvariantError,
                           match=r"2\^41 cells, past MAX_GRID_CELLS \(1,048,576\)"):
            integrate_approx_bounds(integrand, lambda e: e, F(1, 1 << 40),
                                    IntervalMeasure.uniform())

    def test_grid_at_the_cap_accepted(self, monkeypatch):
        # a cap of 4 cells: eps = 1/4 needs 2^3 cells, eps = 1/2 needs 2^2
        monkeypatch.setattr(measures, "MAX_GRID_CELLS", 4)
        m = IntervalMeasure.uniform()
        with pytest.raises(InvariantError, match=r"2\^3 cells"):
            integrate_approx_bounds(lambda x: x, lambda e: e, F(1, 4), m)
        lo, hi = integrate_approx_bounds(lambda x: x, lambda e: e, F(1, 2), m)
        assert lo <= F(1, 2) <= hi

    def test_sandwich(self):
        m = IntervalMeasure(((F(1, 3), F(1, 4)),), ((F(0), F(1, 2), F(3, 4)),))
        eps = F(1, 64)
        lo, hi = integrate_approx_bounds(lambda x: x * x, lambda e: e / 2,
                                         eps, m)
        exact = exact_square_moment(m)
        assert lo <= exact <= hi
        assert abs((lo + hi) / 2 - exact) <= eps / 2
        assert hi - lo <= eps


class TestIntegerGrid:
    """The integer grid gives exactly the bounds of the former Fraction
    grid, kept above as ``approx_bounds_oracle``."""

    @pytest.mark.parametrize("seed", range(8))
    def test_bounds_equal_oracle(self, seed):
        rng = random.Random(seed)
        for f, modulus in INTEGRANDS.values():
            for eps in (F(1, 16), F(3, 100), F(1, 64)):
                eps /= 1 << rng.randint(0, 3)  # grids of 1 to 8 times the cells
                grid = 1 << rng.randint(1, 7)
                m = random_mixture(rng, [F(i, grid) for i in range(grid + 1)])
                assert integrate_approx_bounds(f, modulus, eps, m) == \
                    approx_bounds_oracle(f, modulus, eps, m)

    def test_int_values_and_coarsest_grid(self):
        m = IntervalMeasure(((F(1), F(1, 2)),), ((F(0), F(1), F(1, 2)),))
        for modulus in (lambda e: 1, lambda e: F(1, 2), lambda e: F(1, 4)):
            got = integrate_approx_bounds(lambda x: 1, modulus, 1, m)
            assert got == approx_bounds_oracle(lambda x: 1, modulus, 1, m) \
                == (F(3, 4), F(5, 4))


def staircase(cells, values, vden, at_one, m):
    """``measures._staircase_integral`` on the grid of ``cells`` cells."""
    return measures._staircase_integral(cells, values, vden, at_one, m)


class TestStaircaseIntegral:
    """The staircase on the integrator's grid of equal cells, integrated
    exactly against a point/uniform mixture."""

    def test_uniform_indicator(self):
        assert staircase(4, [1, 0, 0, 0], 1, 0,
                         IntervalMeasure.uniform()) == F(1, 4)

    def test_dirac_evaluates(self):
        # the cell [1/2, 1) holds 1/2, so the value there is read
        assert staircase(2, [1, 5], 8, 0, IntervalMeasure.dirac(F(1, 2))) \
            == F(5, 8)

    def test_mixture_example(self):
        m = IntervalMeasure(((F(0), F(1, 2)),), ((F(0), F(1), F(1, 2)),))
        # piecewise oracle: point part 1/2 * 1, uniform part 1/2 * (1/2 / 1)
        assert staircase(2, [1, 0], 1, 0, m) == F(1, 2) + F(1, 4) == F(3, 4)

    def test_same_staircase_on_two_grids_integrates_equal(self):
        m = IntervalMeasure(((F(1, 3), F(1, 4)),), ((F(1, 8), F(7, 8), F(3, 4)),))
        # the point reads 1; half the piece lies below 1/2
        assert staircase(2, [1, 0], 1, 0, m) == \
            staircase(8, [1, 1, 1, 1, 0, 0, 0, 0], 1, 0, m) == \
            F(1, 4) + F(3, 4) * F(1, 2)

    def test_overlapping_pieces_allowed(self):
        m = IntervalMeasure((), ((F(0), F(1, 2), F(1, 2)),
                                 (F(1, 4), F(3, 4), F(1, 2))))
        assert staircase(4, [3, 3, 3, 3], 3, 3, m) == 1

    def test_value_at_one_read_only_at_one(self):
        m = IntervalMeasure(((F(1), F(1, 2)),), ((F(1, 2), F(1), F(1, 2)),))
        # the point mass at 1 reads at_one; the piece ending at 1 does not
        assert staircase(2, [0, 2], 4, 1, m) == F(1, 8) + F(1, 4)

    def test_equals_oracle(self):
        """Against the Fraction-per-cell oracle on uniform breakpoints,
        with grids of any size and numerators that leave [0, vden]."""
        rng = random.Random(4)
        for _ in range(300):
            cells = rng.randint(1, 40)
            vden = rng.randint(1, 30)
            values = [rng.randint(-vden, 2 * vden) for _ in range(cells)]
            at_one = rng.randint(-vden, 2 * vden)
            breaks = [F(i, cells) for i in range(cells + 1)]
            m = random_mixture(rng, breaks)
            assert staircase(cells, values, vden, at_one, m) == \
                staircase_oracle(breaks, [F(v, vden) for v in values],
                                 F(at_one, vden), m)


def eps_for(n: int) -> Fraction:
    """The eps at which modulus ``e -> e`` asks for 2^n cells."""
    return F(2, 1 << n)


@pytest.fixture
def fresh_grid(monkeypatch):
    """A held grid of one cell, as in a new process, restored afterwards."""
    monkeypatch.setattr(measures, "_held_grid", [(F(0), F(1))])


@pytest.mark.usefixtures("fresh_grid")
class TestHeldGrid:
    """The integrator slices its arguments from one held dyadic grid,
    replaced only by a finer one; the bounds stay those of the oracle and
    f is called once per grid point on every call."""

    @pytest.mark.parametrize("levels", [
        pytest.param([7, 3, 6, 1], id="fine-to-coarse"),
        pytest.param([1, 3, 5, 7], id="coarse-to-fine"),
        pytest.param([2, 5, 6, 2], id="fine-after-coarse")])
    def test_grid_sequences_equal_oracle(self, levels):
        rng = random.Random(11)
        finest = 1
        for n in levels:
            finest = max(finest, 1 << n)
            m = random_mixture(rng, [F(i, 8) for i in range(9)])
            for f, _ in INTEGRANDS.values():
                assert integrate_approx_bounds(f, lambda e: e, eps_for(n), m) \
                    == approx_bounds_oracle(f, lambda e: e, eps_for(n), m)
            held = measures._held_grid[0]
            assert held == tuple(F(i, finest) for i in range(finest + 1))

    def test_f_called_once_per_point_on_every_call(self):
        m = IntervalMeasure.uniform()
        for n in (4, 6, 4, 4, 2, 6):
            seen = []
            integrate_approx_bounds(lambda x: seen.append(x) or x, lambda e: e,
                                    eps_for(n), m)
            assert seen == [F(i, 1 << n) for i in range((1 << n) + 1)]

    def test_changing_integrand_is_sampled_afresh(self):
        state = {"c": F(1, 4)}
        m = IntervalMeasure.uniform()
        first = integrate_approx_bounds(lambda x: state["c"], lambda e: e,
                                        F(1, 8), m)
        state["c"] = F(3, 4)
        second = integrate_approx_bounds(lambda x: state["c"], lambda e: e,
                                         F(1, 8), m)
        assert (first, second) == ((F(3, 16), F(5, 16)), (F(11, 16), F(13, 16)))

    @pytest.mark.parametrize("f, n, error", [
        (lambda x: float(x), 3,
         "integrand value must be an int or a Fraction, got float"),
        (lambda x: x + F(1, 2), 3, r"sampled value must lie in \[0,1\], got 9/8"),
        (lambda x: F(-1, 16) if x.denominator == 16 else x, 4,
         r"sampled value must lie in \[0,1\], got -1/16"),
        (lambda x: F(3, 2) if x == 1 else x, 5,
         r"sampled value must lie in \[0,1\], got 3/2")])
    def test_messages_unchanged_with_a_grid_held(self, f, n, error):
        integrate_approx_bounds(lambda x: x, lambda e: e, eps_for(6),
                                IntervalMeasure.uniform())
        with pytest.raises(InvariantError, match=error):
            integrate_approx_bounds(f, lambda e: e, eps_for(n),
                                    IntervalMeasure.uniform())

    def test_a_float_is_named_before_a_range_fault(self):
        """All samples are checked for a float before any for its
        range, so a value past 1 at x = 0 and a float at x = 1 report
        the float (one sample at a time, the value past 1 came first)."""
        with pytest.raises(InvariantError, match="got float"):
            integrate_approx_bounds(lambda x: 0.5 if x == 1 else x + 2,
                                    lambda e: e, F(1, 2),
                                    IntervalMeasure.uniform())

class TestIntegratorRejectsFloats:
    """No float enters the integrator: eps, f and the modulus must give
    ints or Fractions, and so must the mixture's data.  A bool or a
    Decimal is refused the same way."""

    def test_float_integrand_named(self):
        with pytest.raises(InvariantError,
                           match="integrand value must be an int or a Fraction, got float"):
            integrate_approx_bounds(lambda x: float(x), lambda e: e, F(1, 8),
                                    IntervalMeasure.uniform())

    def test_float_modulus_named(self):
        with pytest.raises(InvariantError,
                           match="modulus value must be an int or a Fraction, got float"):
            integrate_approx_bounds(lambda x: x, lambda e: 0.01, F(1, 8),
                                    IntervalMeasure.uniform())

    def test_float_eps_named(self):
        with pytest.raises(InvariantError, match="eps must be an int or a Fraction"):
            integrate_approx_bounds(lambda x: x, lambda e: e, 1 / 8,
                                    IntervalMeasure.uniform())

    @pytest.mark.parametrize("build, what", [
        (lambda: IntervalMeasure(((0.5, F(1)),), ()), "point-mass location"),
        (lambda: IntervalMeasure(((F(1, 2), 1.0),), ()), "point mass"),
        (lambda: IntervalMeasure((), ((F(0), 0.5, F(1)),)), "piece endpoint"),
        (lambda: IntervalMeasure((), ((F(0), F(1), 1.0),)), "piece mass")])
    def test_float_data_named(self, build, what):
        with pytest.raises(InvariantError,
                           match=f"{what} must be an int or a Fraction, got float"):
            build()

    @pytest.mark.parametrize("x", [True, Decimal(1)], ids=["bool", "Decimal"])
    @pytest.mark.parametrize("make, what", [
        pytest.param(lambda x: IntervalMeasure(((x, F(1)),), ()),
                     "point-mass location", id="location"),
        pytest.param(lambda x: IntervalMeasure(((F(1, 2), x),), ()),
                     "point mass", id="point-mass"),
        pytest.param(lambda x: IntervalMeasure((), ((F(0), x, F(1)),)),
                     "piece endpoint", id="endpoint"),
        pytest.param(lambda x: IntervalMeasure((), ((F(0), F(1), x),)),
                     "piece mass", id="piece-mass"),
        pytest.param(lambda x: integrate_approx_bounds(
            lambda y: x, lambda e: e, F(1, 8), IntervalMeasure.uniform()),
                     "integrand value", id="integrand"),
        pytest.param(lambda x: integrate_approx_bounds(
            lambda y: y, lambda e: x, F(1, 8), IntervalMeasure.uniform()),
                     "modulus value", id="modulus"),
        pytest.param(lambda x: integrate_approx_bounds(
            lambda y: y, lambda e: e, x, IntervalMeasure.uniform()),
                     "eps", id="eps")])
    def test_bool_and_decimal_named(self, make, what, x):
        """Each value is exactly 1, which an int or a Fraction may be."""
        with pytest.raises(InvariantError,
                           match=f"^{what} must be an int or a Fraction, "
                                 f"got {type(x).__name__}$"):
            make(x)

    def test_out_of_range_sample_message_unchanged(self):
        with pytest.raises(InvariantError,
                           match=r"sampled value must lie in \[0,1\], got 3/2"):
            integrate_approx_bounds(lambda x: F(3, 2) if x == 1 else x,
                                    lambda e: e, F(1, 8),
                                    IntervalMeasure.uniform())

    def test_nonpositive_modulus_rejected(self):
        with pytest.raises(InvariantError, match="positive width"):
            integrate_approx_bounds(lambda x: x, lambda e: 0, F(1, 8),
                                    IntervalMeasure.uniform())


class TestChangeOfVariables:
    def test_identity_map(self):
        s = FinSpace.discrete(["a", "b"])
        pi = Measure(s, (F(1, 3), F(2, 3)))
        f = IFunction(s, (F(1, 2), F(1, 4)))
        g = MeasMap.identity(s)
        assert integrate(f.compose_with(g), pi) == integrate(f, pushforward(g, pi))

    def test_collapse_map(self):
        dom = FinSpace.discrete(["a", "b", "c"])
        cod = FinSpace.discrete(["x", "y"])
        g = MeasMap(dom, cod, (0, 0, 1))  # a, b -> x; c -> y
        pi = Measure(dom, (F(1, 2), F(1, 3), F(1, 6)))
        f = IFunction(cod, (F(1, 7), F(6, 7)))
        assert integrate(f.compose_with(g), pi) == integrate(f, pushforward(g, pi))

    @settings(max_examples=100, deadline=None)
    @given(spaces_with_measures(5), spaces(5), st.data(),
           st.randoms(use_true_random=False))
    def test_random_suite(self, sm, cod, data, rng):
        dom, pi = sm
        table = [0] * len(dom.carrier)
        for atom in dom.atoms:
            t = rng.randrange(len(cod.carrier))
            for i in range(len(dom.carrier)):
                if atom >> i & 1:
                    table[i] = t
        g = MeasMap(dom, cod, tuple(table))
        n = len(cod.atoms)
        f = IFunction(cod, tuple(
            data.draw(st.lists(unit_fractions(), min_size=n, max_size=n))))
        assert integrate(f.compose_with(g), pi) == integrate(f, pushforward(g, pi))
