"""Dirac unit, mixture flattening, Kleisli kernels, Markov chains."""

import random
import time
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm, log2

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from girylab.errors import (DigitLimitError, InvariantError,
                            NotMeasurableError, SpaceMismatchError)
from girylab.harness import (SuiteConfig, generate_kernel, generate_measure,
                             generate_meta_measure, generate_space)
from girylab.spaces import FinSpace, MeasMap, generate_sigma
from girylab.measures import Measure, pushforward
from girylab import rational
from girylab.rational import MAX_DIGITS, fits_digits
from girylab.monad import (Kernel, MetaMeasure, bind, decimal_states,
                           denominator_base, dirac, flatten, kleisli_compose,
                           n_step)

from strategies import (mask_of, matrix_apply, measures, sigma, spaces,
                        spaces_with_measures, trajectory)

F = Fraction


def bind_oracle(pi: Measure, k: Kernel) -> Measure:
    """Kleisli extension as a Fraction loop, one weight at a time."""
    n = len(k.cod.atoms)
    weights = [F(0)] * n
    for w, row in zip(pi.weights, k.rows):
        for j in range(n):
            weights[j] += w * row.weights[j]
    return Measure(k.cod, tuple(weights))


def flatten_oracle(rho: MetaMeasure) -> Measure:
    """Multiplication as a Fraction loop over the mixture's support."""
    n = len(rho.base.atoms)
    weights = [F(0)] * n
    for measure, w in rho.support:
        for j in range(n):
            weights[j] += w * measure.weights[j]
    return Measure(rho.base, tuple(weights))


def mix_oracle(space: FinSpace, coeffs, measures) -> Measure:
    """The former ``monad._mix``: coefficients and weights lifted to
    integers over their lcm denominators, one Fraction per output weight,
    and the result checked as Fraction weights."""
    cden = lcm(*(c.denominator for c in coeffs))
    cnum = [c.numerator * (cden // c.denominator) for c in coeffs]
    rden = lcm(*(w.denominator for m in measures for w in m.weights))
    rnum = [[w.numerator * (rden // w.denominator) for w in m.weights]
            for m in measures]
    den = cden * rden
    return Measure(space, tuple(
        F(sum(c * row[j] for c, row in zip(cnum, rnum)), den)
        for j in range(len(space.atoms))))


def d1_chain(states: int = 8):
    """The chain of ROADMAP defect D1: 8 discrete states, random.Random(1).
    Another number of states gives the chain drawn the same way."""
    space = FinSpace.discrete([f"s{i}" for i in range(states)])
    rng = random.Random(1)
    return generate_kernel(rng, space, space), generate_measure(rng, space)


def two_state():
    return FinSpace.discrete(["0", "1"])


def absorbing_kernel(space):
    return Kernel(space, space, (Measure(space, (F(1, 2), F(1, 2))),
                                 Measure(space, (F(0), F(1)))))


class TestDirac:
    def test_discrete_point(self):
        s = FinSpace.discrete(["a", "b", "c"])
        assert dirac(s, "a").weights == (F(1), F(0), F(0))

    def test_indicator_evaluation(self):
        s = FinSpace.discrete(["a", "b", "c"])
        d = dirac(s, "a")
        assert d.of(mask_of(s, ["a", "b"])) == F(1)
        assert d.of(mask_of(s, ["b", "c"])) == F(0)

    def test_point_inside_coarse_atom(self):
        s = generate_sigma(["a", "b", "c"], [["a"]])
        assert dirac(s, "c").weights == (F(0), F(1))

    def test_unknown_point(self):
        with pytest.raises(NotMeasurableError):
            dirac(FinSpace.discrete(["a"]), "z")


class TestFlatten:
    def test_point_mixture(self):
        s = two_state()
        pi = Measure(s, (F(1, 3), F(2, 3)))
        assert flatten(MetaMeasure.point(pi)) == pi

    def test_mixture_oracle_example(self):
        s = two_state()
        rho = MetaMeasure(s, ((dirac(s, "0"), F(1, 2)),
                              (Measure(s, (F(1, 2), F(1, 2))), F(1, 2))))
        out = flatten(rho)
        # mixture oracle: sum of weight * component measure, per set
        for mask in sigma(s):
            expected = sum((w * m.of(mask) for m, w in rho.support), F(0))
            assert out.of(mask) == expected
        assert out.weights == (F(3, 4), F(1, 4))

    def test_constant_support(self):
        s = two_state()
        pi = Measure(s, (F(1, 5), F(4, 5)))
        rho = MetaMeasure(s, ((pi, F(1, 4)), (pi, F(3, 4))))
        assert flatten(rho) == pi

    def test_weights_validated(self):
        s = two_state()
        pi = Measure(s, (F(1), F(0)))
        with pytest.raises(InvariantError):
            MetaMeasure(s, ((pi, F(1, 2)),))


class TestBind:
    def test_left_unit(self):
        s = two_state()
        k = absorbing_kernel(s)
        for point in s.carrier:
            assert bind(dirac(s, point), k) == k.at_point(point)

    def test_right_unit(self):
        s = two_state()
        pi = Measure(s, (F(2, 7), F(5, 7)))
        assert bind(pi, Kernel.identity(s)) == pi

    def test_two_steps_matrix_oracle(self):
        s = two_state()
        k = absorbing_kernel(s)
        pi = dirac(s, "0")
        rows = [row.weights for row in k.rows]
        expected = matrix_apply(matrix_apply(pi.weights, rows), rows)
        out = bind(bind(pi, k), k)
        assert out.weights == expected == (F(1, 4), F(3, 4))

    def test_space_mismatch(self):
        s, t = two_state(), FinSpace.discrete(["x"])
        with pytest.raises(SpaceMismatchError):
            bind(Measure(t, (F(1),)), absorbing_kernel(s))

    @settings(max_examples=60, deadline=None)
    @given(spaces_with_measures(4), st.randoms(use_true_random=False))
    def test_bind_equals_mixture_of_rows(self, sm, rng):
        space, pi = sm
        cod = FinSpace.discrete(["x", "y", "z"])

        def random_measure():
            parts = [rng.randint(0, 5) for _ in cod.atoms]
            if sum(parts) == 0:
                parts[0] = 1
            total = sum(parts)
            return Measure(cod, tuple(F(p, total) for p in parts))

        k = Kernel(space, cod, tuple(random_measure() for _ in space.atoms))
        assert bind(pi, k) == flatten(
            MetaMeasure(cod, tuple(zip(k.rows, pi.weights))))


class TestIntegerMixOracle:
    """bind and flatten take integer dot products over lcm denominators;
    the Fraction loops above are the reference."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_bind_equals_fraction_loop(self, data):
        dom = data.draw(spaces(5))
        cod = data.draw(spaces(5))
        pi = data.draw(measures(dom))
        k = Kernel(dom, cod, tuple(data.draw(measures(cod)) for _ in dom.atoms))
        assert bind(pi, k) == bind_oracle(pi, k)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_flatten_equals_fraction_loop(self, data):
        base = data.draw(spaces(5))
        width = data.draw(st.integers(1, 5))
        mix = data.draw(measures(FinSpace.discrete([str(i) for i in range(width)])))
        rho = MetaMeasure(base, tuple(
            (data.draw(measures(base)), w) for w in mix.weights))
        assert flatten(rho) == flatten_oracle(rho)

    def test_large_denominators(self):
        kernel, pi = d1_chain()
        for _ in range(3):
            pi = bind_oracle(pi, kernel)
        assert bind(pi, kernel) == bind_oracle(pi, kernel)
        rho = MetaMeasure(pi.space, ((pi, F(1, 3)), (kernel.rows[0], F(2, 3))))
        assert flatten(rho) == flatten_oracle(rho)


class TestNumeratorStorage:
    """Measures store int numerators over one denominator; the former
    Fraction ``_mix`` is the reference, on seeded harness spaces (coarse
    ones included), kernels and mixtures."""

    CFG = SuiteConfig(max_carrier=6)

    @staticmethod
    def same(out: Measure, want: Measure):
        assert out == want
        assert (out.nums, out.den) == (want.nums, want.den)
        assert out.weights == want.weights

    @pytest.mark.parametrize("seed", range(40))
    def test_bind_flatten_compose_equal_the_fraction_mix(self, seed):
        rng = random.Random(seed)
        dom, cod = generate_space(rng, self.CFG), generate_space(rng, self.CFG)
        pi, k = generate_measure(rng, dom), generate_kernel(rng, dom, cod)
        self.same(bind(pi, k), mix_oracle(cod, pi.weights, k.rows))
        rho = generate_meta_measure(rng, cod)
        self.same(flatten(rho), mix_oracle(
            cod, [w for _, w in rho.support], [m for m, _ in rho.support]))
        k2 = generate_kernel(rng, cod, dom)
        composed = kleisli_compose(k, k2)
        for row, got in zip(k.rows, composed.rows):
            self.same(got, mix_oracle(dom, row.weights, k2.rows))

    @pytest.mark.parametrize("seed", range(6))
    def test_n_step_and_trajectory_equal_the_fraction_mix(self, seed):
        rng = random.Random(seed)
        space = generate_space(rng, self.CFG, min_points=3)
        k, pi = generate_kernel(rng, space, space), generate_measure(rng, space)
        want = [pi]
        for _ in range(40):
            want.append(mix_oracle(space, want[-1].weights, k.rows))
        for got, state in zip(trajectory(k, pi, 40), want):
            self.same(got, state)
        for n in (0, 1, 7, 16, 33, 40):
            self.same(n_step(k, pi, n), want[n])

    @staticmethod
    def reducing_chain(name):
        h, z = F(1, 2), F(0)
        if name == "rank one":  # step 1 divides by the start's 3**400
            s = two_state()
            tiny = F(1, 3 ** 400)
            return (Kernel(s, s, (Measure(s, (F(1, 3), F(2, 3))),) * 2),
                    Measure(s, (tiny, 1 - tiny)))
        if name == "stationary":  # every step divides by 2
            s = FinSpace.discrete(["a", "b", "c"])
            return (Kernel(s, s, (Measure(s, (h, h, z)), Measure(s, (z, h, h)),
                                  Measure(s, (h, z, h)))),
                    Measure(s, (F(1, 3),) * 3))
        # split and merge: step 2 divides by 4, a higher power of 2 than
        # the base 2 holds, so the residue rounds go past the first
        s = FinSpace.discrete(["x", "y1", "y2", "z"])
        rows = [(z, h, h, z), (z, z, z, 1), (z, z, z, 1), (z, z, z, 1)]
        return (Kernel(s, s, tuple(Measure(s, row) for row in rows)),
                dirac(s, "x"))

    @pytest.mark.parametrize("name", ["rank one", "stationary",
                                      "split and merge"])
    def test_steps_that_reduce_equal_the_fraction_mix(self, name):
        """Steps whose common factor is not 1 are reduced as the Fraction
        mix reduces them, by one gcd on ints and from residues of the base
        on the Decimal copies of ``decimal_states``."""
        k, pi = self.reducing_chain(name)
        scale = lcm(*(row.den for row in k.rows))
        want = [pi]
        for _ in range(12):
            want.append(mix_oracle(pi.space, want[-1].weights, k.rows))
        assert any(b.den != a.den * scale for a, b in zip(want, want[1:]))
        for got, state in zip(trajectory(k, pi, 12), want):
            self.same(got, state)
        for n in range(13):
            self.same(n_step(k, pi, n), want[n])
        for (nums, den), state in zip(decimal_states(k, pi, 12, want[-1]), want):
            assert (list(map(int, nums)), int(den)) == (list(state.nums),
                                                        state.den)


class TestKleisliCompose:
    def test_unit_laws(self):
        s = two_state()
        k = absorbing_kernel(s)
        ident = Kernel.identity(s)
        assert kleisli_compose(ident, k) == k
        assert kleisli_compose(k, ident) == k

    def test_matrix_product_oracle(self):
        s = two_state()
        k1 = absorbing_kernel(s)
        k2 = Kernel(s, s, (Measure(s, (F(1, 3), F(2, 3))),
                           Measure(s, (F(1), F(0)))))
        composed = kleisli_compose(k1, k2)
        rows2 = [row.weights for row in k2.rows]
        for i, row in enumerate(k1.rows):
            assert composed.rows[i].weights == matrix_apply(row.weights, rows2)

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_associativity_random(self, rng):
        s = FinSpace.discrete(["a", "b", "c"])

        def random_kernel():
            rows = []
            for _ in s.atoms:
                parts = [rng.randint(0, 6) for _ in s.atoms]
                if sum(parts) == 0:
                    parts[0] = 1
                total = sum(parts)
                rows.append(Measure(s, tuple(F(p, total) for p in parts)))
            return Kernel(s, s, tuple(rows))

        k1, k2, k3 = random_kernel(), random_kernel(), random_kernel()
        assert kleisli_compose(kleisli_compose(k1, k2), k3) == \
            kleisli_compose(k1, kleisli_compose(k2, k3))


class TestNStep:
    def test_zero_steps(self):
        s = two_state()
        pi = Measure(s, (F(1, 8), F(7, 8)))
        assert n_step(absorbing_kernel(s), pi, 0) == pi

    def test_absorbing_two_steps(self):
        s = two_state()
        assert n_step(absorbing_kernel(s), dirac(s, "0"), 2).weights == \
            (F(1, 4), F(3, 4))

    def test_doubly_stochastic_keeps_uniform(self):
        s = two_state()
        k = Kernel(s, s, (Measure(s, (F(1, 3), F(2, 3))),
                          Measure(s, (F(2, 3), F(1, 3)))))
        uniform = Measure(s, (F(1, 2), F(1, 2)))
        for n in range(5):
            assert n_step(k, uniform, n) == uniform

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("carrier, generators", [
        ("abcde", [[c] for c in "abcde"]),
        ("abcdef", [["a", "b"], ["b", "c", "d"]]),
        ("abc", [["a"]]),
    ], ids=["discrete", "coarse", "two-atoms"])
    def test_squaring_equals_stepping(self, seed, carrier, generators):
        """Every n up to 70 crosses each power-of-two boundary up to 64."""
        space = generate_sigma(list(carrier), generators)
        rng = random.Random(seed)
        k, pi = generate_kernel(rng, space, space), generate_measure(rng, space)
        states = trajectory(k, pi, 70)
        for n in range(71):
            assert n_step(k, pi, n) == states[n]

    @pytest.mark.parametrize("seed", range(6))
    def test_denominator_base_holds_every_prime_of_every_state(self, seed):
        """den | base**bits, where bits bounds every prime's exponent in
        den, exactly when every prime factor of den divides base."""
        rng = random.Random(seed)
        space = generate_space(rng, SuiteConfig(max_carrier=6))
        k, pi = generate_kernel(rng, space, space), generate_measure(rng, space)
        base = denominator_base(k, pi)
        assert base == pi.den * lcm(*(row.den for row in k.rows))
        for state in trajectory(k, pi, 60) + [n_step(k, pi, 100)]:
            assert pow(base, state.den.bit_length(), state.den) == 0

    def test_negative_steps(self):
        s = two_state()
        with pytest.raises(InvariantError):
            n_step(absorbing_kernel(s), dirac(s, "0"), -1)

    def test_requires_endo_kernel(self):
        dom = two_state()
        cod = FinSpace.discrete(["x"])
        k = Kernel(dom, cod, (Measure(cod, (F(1),)), Measure(cod, (F(1),))))
        with pytest.raises(SpaceMismatchError):
            n_step(k, Measure(dom, (F(1), F(0))), 1)


class TestNaturality:
    def test_unit_naturality(self):
        dom = FinSpace.discrete(["a", "b"])
        cod = FinSpace.discrete(["x", "y"])
        g = MeasMap(dom, cod, (1, 0))  # a -> y, b -> x
        for point in dom.carrier:
            assert pushforward(g, dirac(dom, point)) == dirac(cod, g.apply(point))

    def test_flatten_naturality(self):
        dom = FinSpace.discrete(["a", "b"])
        cod = FinSpace.discrete(["x"])
        g = MeasMap(dom, cod, (0, 0))
        rho = MetaMeasure(dom, ((dirac(dom, "a"), F(1, 4)),
                                (dirac(dom, "b"), F(3, 4))))
        lhs = pushforward(g, flatten(rho))
        rhs = flatten(MetaMeasure(cod, tuple(
            (pushforward(g, m), w) for m, w in rho.support)))
        assert lhs == rhs


class TestDigitLimit:
    """Markov evolution stops with DigitLimitError once a weight passes
    rational.MAX_DIGITS; stepping and squaring stop at the same step."""

    @pytest.mark.parametrize("states, first", [
        (8, 824), (2, 3657), (11, 540), (16, 251)],
        ids=["d1", "2-states", "11-states", "16-states"])
    def test_stepping_and_squaring_agree(self, states, first):
        """On the D1 chain and on seeded chains drawn the same way, up to
        the first state past the limit; near 4,300 digits the 16-state
        chain's gcds are the widest ``n_step`` takes."""
        k, pi = d1_chain(states)
        with pytest.raises(DigitLimitError, match=f"step {first} has") as info:
            trajectory(k, pi, 10 ** 5)
        tail = trajectory(k, n_step(k, pi, first - 3), 2)
        for i, state in enumerate(tail):
            assert n_step(k, pi, first - 3 + i) == state
        for n in range(first, first + 3):
            with pytest.raises(DigitLimitError, match="4,300") as stopped:
                n_step(k, pi, n)
            assert stopped.value.args == info.value.args

    @pytest.mark.parametrize("states, first", [
        (8, 824), (2, 3657), (11, 540), (16, 251)],
        ids=["d1", "2-states", "11-states", "16-states"])
    def test_n_step_gcds_stay_within_twice_the_limit(self, states, first,
                                                     monkeypatch):
        """At the last step that fits, every gcd ``n_step`` takes to reduce
        a state or a kernel power has operands of at most twice
        rational.MAX_DIGITS digits: its digit bounds hold the full-size
        gcds of the int path."""
        widest = []

        def watched(*args):
            widest.append(max(abs(a).bit_length() for a in args))
            return gcd(*args)

        k, pi = d1_chain(states)
        monkeypatch.setattr(rational, "gcd", watched)
        last = n_step(k, pi, first - 1)
        monkeypatch.undo()
        assert last == trajectory(k, n_step(k, pi, first - 3), 2)[-1]
        assert widest and max(widest) <= 2 * MAX_DIGITS * log2(10)

    def test_huge_step_count_stops_quickly(self):
        k, pi = d1_chain()
        start = time.perf_counter()
        with pytest.raises(DigitLimitError, match="state at step \\d+ has"):
            n_step(k, pi, 10 ** 9)
        assert time.perf_counter() - start < 5

    def test_powers_that_stay_small_never_stop(self):
        s = two_state()
        rank_one = Kernel(s, s, (Measure(s, (F(1, 3), F(2, 3))),) * 2)
        assert n_step(rank_one, dirac(s, "0"), 10 ** 9) == rank_one.rows[0]

    def test_stationary_start_outlives_its_kernel_powers(self):
        """K^m has denominator 2^m, past the limit from m = 14,285 on, but
        the uniform start is stationary, so every state is small."""
        s = FinSpace.discrete(["a", "b", "c"])
        h, z = F(1, 2), F(0)
        k = Kernel(s, s, (Measure(s, (h, h, z)), Measure(s, (z, h, h)),
                          Measure(s, (h, z, h))))
        uniform = Measure(s, (F(1, 3),) * 3)
        assert n_step(k, uniform, 16384) == trajectory(k, uniform, 16384)[-1]
        assert n_step(k, uniform, 16384) == uniform

    def test_small_weights_over_a_large_common_denominator(self):
        """Every weight fits, but their common denominator 2pq has 5,821
        digits: the state must be checked weight by weight, not by its
        denominator alone."""
        s = FinSpace.discrete(["a", "b", "c", "d"])
        p, q = 3 ** 6000, 7 ** 3500
        pi = Measure(s, (F(1, 2 * p), F(p - 1, 2 * p),
                         F(1, 2 * q), F(q - 1, 2 * q)))
        assert pi.den == 2 * p * q and not fits_digits(pi.den)
        k = Kernel.identity(s)
        assert trajectory(k, pi, 3) == [pi] * 4
        assert n_step(k, pi, 5) == pi

    def test_passed_over_states_are_held_to_the_limit(self):
        """A state with 4,618 digits at step 3 between small ones: the
        mass splits off by 1/q1, 1/q2 and 1/q3 on steps 1-3, then all of
        it is absorbed in w, so K^4 and the states at steps 2 and 4 fit."""
        s = FinSpace.discrete(["x", "y1", "y2", "z1", "z2", "t1", "t2", "w"])
        q1, q2, q3 = 2 ** 5000, 3 ** 3300, 5 ** 2200

        def row(**weights):
            return Measure(s, tuple(F(weights.get(p, 0)) for p in s.carrier))

        k = Kernel(s, s, (
            row(y1=F(1, q1), y2=1 - F(1, q1)),
            row(z1=F(1, q2), z2=1 - F(1, q2)), row(z2=1),
            row(t1=F(1, q3), t2=1 - F(1, q3)), row(t2=1),
            row(w=1), row(w=1), row(w=1)))
        x = dirac(s, "x")
        assert n_step(k, x, 2) == trajectory(k, x, 2)[-1]
        for n in (3, 4, 5):
            with pytest.raises(DigitLimitError,
                               match="state at step 3 has 4,618 digits"):
                trajectory(k, x, n)
            with pytest.raises(DigitLimitError,
                               match="state at step 3 has 4,618 digits"):
                n_step(k, x, n)


class TestDecimalStates:
    """``decimal_states`` gives each state of a chain as integral Decimals
    with the digits of the int states ``trajectory`` gives, and refuses a
    last state that is not the chain's."""

    @staticmethod
    def same(k: Kernel, pi: Measure, n: int) -> None:
        states = trajectory(k, pi, n)
        got = list(decimal_states(k, pi, n, states[-1]))
        assert len(got) == len(states)
        for (nums, den), state in zip(got, states):
            assert len(nums) == len(state.nums)
            pairs = zip((*nums, den), (*state.nums, state.den))
            # The digits of x, compared without int-to-str: the same value,
            # the same sign (no -0) and no exponent.
            assert all(type(d) is Decimal and d == x
                       and d.is_signed() == (x < 0)
                       and d.as_tuple().exponent == 0 for d, x in pairs)

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("discrete", [True, False],
                             ids=["discrete", "coarse"])
    def test_seeded_kernels(self, seed, discrete):
        rng = random.Random(seed)
        space = generate_space(rng, SuiteConfig(max_carrier=6), min_points=2)
        if discrete:
            space = FinSpace.discrete(list(space.carrier))
        k, pi = generate_kernel(rng, space, space), generate_measure(rng, space)
        self.same(k, pi, 60)

    def test_base_one(self):
        """A permutation kernel from a Dirac start: every denominator is 1."""
        s = FinSpace.discrete(["a", "b", "c"])
        k = Kernel(s, s, (dirac(s, "b"), dirac(s, "c"), dirac(s, "a")))
        pi = dirac(s, "a")
        assert denominator_base(k, pi) == 1
        self.same(k, pi, 7)

    def test_long_start_denominator(self):
        s = FinSpace.discrete(["a", "b", "c"])
        q = 10 ** 1500 + 7
        pi = Measure(s, (1, 2, q - 3), q)
        assert pi.den == q
        k = generate_kernel(random.Random(3), s, s)
        self.same(k, pi, 30)

    def test_a_denominator_that_shrinks(self):
        """A rank-one kernel forgets the start, so the first step divides
        by 3**400, the whole start denominator."""
        s = two_state()
        rank_one = Kernel(s, s, (Measure(s, (F(1, 3), F(2, 3))),) * 2)
        tiny = F(1, 3 ** 400)
        self.same(rank_one, Measure(s, (tiny, 1 - tiny)), 3)

    def test_d1_chain_to_its_last_state(self):
        """Step 823 is the last state of the D1 chain within the limit."""
        k, pi = d1_chain()
        self.same(k, pi, 823)

    def test_a_wrong_last_state_is_refused(self):
        """The D1 chain's state at step 5 with its numerators reversed has
        the same denominator, so only the exact comparison catches it,
        after every earlier state is given."""
        k, pi = d1_chain()
        s = n_step(k, pi, 5)
        assert s.nums != s.nums[::-1]
        states = decimal_states(k, pi, 5, Measure(s.space, s.nums[::-1], s.den))
        for _ in range(5):
            next(states)
        with pytest.raises(InvariantError, match="^the state at step 5 is not "
                                                 "the state given as the last"):
            next(states)
