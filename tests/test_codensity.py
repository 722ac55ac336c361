"""Affine maps into the interval, natural families, reconstruction."""

import random
from fractions import Fraction

import pytest

from girylab.config import SuiteConfig
from girylab.errors import ActionSquareError, InvariantError
from girylab.harness import generate_space
from girylab.rational import random_fraction
from girylab.spaces import FinSpace, IFunction, atom_indicator, generate_ifunction
from girylab.duality import (Functional, LimitWitness, evaluation_at,
                             max_functional, respects_limits, to_functional)
from girylab.measures import Measure
from girylab.codensity import (AffineMap, SequenceAffineMap, VanishingSequence,
                               _compose_pointwise, check_naturality,
                               functional_from_action, sample_affine,
                               sample_sequence_affine)

F = Fraction


def two_discrete():
    return FinSpace.discrete(["a", "b"])


class TestAffineMap:
    def test_blend_on_square(self):
        blend = AffineMap.blend(F(1, 2))
        assert blend((F(1), F(0))) == F(1, 2)

    def test_constant(self):
        c = AffineMap.constant(3, F(2, 7))
        assert c((F(1), F(0), F(1))) == F(2, 7)

    def test_projection(self):
        p = AffineMap.projection(3, 1)
        assert p.a0 == F(0) and p.coeffs == (F(0), F(1), F(0))

    def test_sequence_map_with_negative_coefficient(self):
        h = SequenceAffineMap(F(1, 2), (F(1, 4), F(-1, 4)))
        assert h(VanishingSequence((F(1), F(1)))) == F(1, 2)

    def test_into_interval_enforced(self):
        with pytest.raises(InvariantError):
            AffineMap(2, F(0), (F(1), F(1)))
        with pytest.raises(InvariantError):
            AffineMap(1, F(1, 2), (F(-3, 4),))

    def test_out_of_range_input_rejected(self):
        p = AffineMap.projection(1, 0)
        with pytest.raises(InvariantError):
            p((F(3, 2),))

    def test_arity_mismatch(self):
        with pytest.raises(InvariantError):
            AffineMap.blend(F(1, 2))((F(1),))


class TestSampleAffine:
    def test_thousand_samples_satisfy_invariant(self):
        rng = random.Random(42)
        for _ in range(1000):
            arity = rng.randint(1, 4)
            h = sample_affine(rng, arity)
            lo = h.a0 + sum(min(c, F(0)) for c in h.coeffs)
            hi = h.a0 + sum(max(c, F(0)) for c in h.coeffs)
            assert F(0) <= lo and hi <= F(1)

    def test_forced_kinds(self):
        rng = random.Random(7)
        p = sample_affine(rng, 3, "projection")
        assert p.a0 == 0 and sorted(p.coeffs) == [F(0), F(0), F(1)]
        c = sample_affine(rng, 2, "constant")
        assert all(x == 0 for x in c.coeffs)
        b = sample_affine(rng, 2, "blend")
        assert b.a0 == 0 and sum(b.coeffs) == 1

    def test_sequence_sampler(self):
        rng = random.Random(3)
        for _ in range(200):
            h = sample_sequence_affine(rng, rng.randint(1, 4))
            lo = h.a0 + sum(min(c, F(0)) for c in h.coeffs)
            hi = h.a0 + sum(max(c, F(0)) for c in h.coeffs)
            assert F(0) <= lo and hi <= F(1)


class TestVanishingSequence:
    def test_trailing_zeros_stripped(self):
        assert VanishingSequence((F(1, 2), F(0), F(0))).entries == (F(1, 2),)

    def test_entries_in_unit_interval(self):
        with pytest.raises(InvariantError):
            VanishingSequence((F(2),))


def sequence_action(phi):
    """The sequence component of the family phi determines."""
    return lambda fs: VanishingSequence(tuple(map(phi, fs)))


class TestLift:
    """The family's value at a power is phi applied coordinatewise."""

    def test_evaluation_family_is_pointwise(self):
        s = two_discrete()
        phi = evaluation_at(s, "b")
        f1 = IFunction(s, (F(1, 3), F(2, 3)))
        f2 = IFunction(s, (F(1), F(0)))
        assert tuple(map(phi, (f1, f2))) == (F(2, 3), F(0))

    def test_extensional_coordinatewise(self):
        s = two_discrete()
        phi = Functional.extensional(s, (F(1, 2), F(1, 2)))
        chi_a, chi_b = atom_indicator(s, 0), atom_indicator(s, 1)
        assert tuple(map(phi, (chi_a, chi_b))) == (F(1, 2), F(1, 2))


class TestCheckNaturality:
    def test_projection_definitional(self):
        s = two_discrete()
        # even non-affine passes projections
        phi = max_functional(s)
        f1 = IFunction(s, (F(1, 3), F(1, 2)))
        f2 = IFunction(s, (F(1), F(0)))
        verdict = check_naturality(phi, AffineMap.projection(2, 0), (f1, f2))
        assert verdict.passed

    def test_extensional_passes_random_squares(self):
        rng = random.Random(5)
        s = FinSpace.discrete(["a", "b", "c"])
        pi = Measure(s, (F(1, 6), F(1, 3), F(1, 2)))
        phi = to_functional(pi)
        for _ in range(300):
            arity = rng.randint(1, 4)
            h = sample_affine(rng, arity)
            fs = tuple(IFunction(s, tuple(
                F(rng.randint(0, 12), 12) for _ in s.atoms))
                for _ in range(arity))
            assert check_naturality(phi, h, fs).passed

    def test_max_fails_blend_with_residual_half(self):
        s = two_discrete()
        phi = max_functional(s)
        chi_a, chi_b = atom_indicator(s, 0), atom_indicator(s, 1)
        verdict = check_naturality(phi, AffineMap.blend(F(1, 2)),
                                   (chi_a, chi_b))
        assert not verdict.passed
        # one path blends the two unit values to 1, the other evaluates
        # the max of the blended indicators, which is 1/2
        assert verdict.witness["via_family"] == "1/1"
        assert verdict.witness["via_component"] == "1/2"
        assert verdict.witness["residual"] == "-1/2"

    def test_sequence_square(self):
        s = two_discrete()
        phi = Functional.extensional(s, (F(1, 4), F(3, 4)))
        h = SequenceAffineMap(F(1, 8), (F(1, 2), F(1, 4)))
        fs = (IFunction(s, (F(1, 2), F(1))), IFunction(s, (F(0), F(1, 3))))
        assert check_naturality(phi, h, fs).passed

    def test_max_fails_sequence_square(self):
        s = two_discrete()
        chi_a, chi_b = atom_indicator(s, 0), atom_indicator(s, 1)
        h = SequenceAffineMap(F(0), (F(1, 2), F(1, 2)))
        verdict = check_naturality(max_functional(s), h, (chi_a, chi_b))
        assert verdict.property == "naturality at sequences"
        assert (verdict.witness["via_family"], verdict.witness["via_component"]
                ) == ("1/1", "1/2")

    @pytest.mark.parametrize("h, fs, message", [
        (AffineMap.projection(1, 0), (IFunction.constant(
            FinSpace.discrete(["c"]), F(0)),), "lives off the base space"),
        (AffineMap.projection(2, 0), (), "arity does not match"),
        (lambda xs: F(0), (), "must be an affine map"),
    ], ids=["off-space", "arity", "not-affine"])
    def test_malformed_square_rejected(self, h, fs, message):
        with pytest.raises(InvariantError, match=message):
            check_naturality(max_functional(two_discrete()), h, fs)


def listed(space, fs, length):
    """The list ``fs`` followed by zero functions, certified to vanish on
    every atom from ``length`` on: the sequence-component input that the
    vanishing-component property builds."""
    zero = IFunction.constant(space, F(0))
    return LimitWitness(space, lambda n: fs[n] if n < len(fs) else zero,
                        [length] * len(space.atoms))


class TestVanishingComponent:
    """The sequence component lands in d_0 exactly when phi respects
    limits, decided on a list-shaped witness."""

    def test_indicator_then_zeros(self):
        s = two_discrete()
        phi = Functional.extensional(s, (F(1, 2), F(1, 2)))
        chi = atom_indicator(s, 0)
        zero = IFunction.constant(s, F(0))
        verdict = respects_limits(phi, listed(s, [chi, zero, zero], 1))
        assert verdict.passed
        assert verdict.witness == {"mode": "exact tail evaluation",
                                   "tail_index": 1, "value": "0/1"}
        assert sequence_action(phi)([chi, zero, zero]).entries == (F(1, 2),)

    def test_empty_list_gives_zero_sequence(self):
        s = two_discrete()
        phi = Functional.extensional(s, (F(1), F(0)))
        assert respects_limits(phi, listed(s, [], 0)).passed
        assert sequence_action(phi)([]).entries == ()

    def test_failure_witness(self):
        s = two_discrete()
        half = Functional.intensional(s, lambda f: F(1, 2), "constant half")
        zero = IFunction.constant(s, F(0))
        verdict = respects_limits(
            half, listed(s, [atom_indicator(s, 0), zero, zero], 1))
        assert not verdict.passed
        assert verdict.witness == {"mode": "exact tail evaluation",
                                   "tail_index": 1, "stuck_at": "1/2"}

    def test_lying_tail_certificate_rejected(self):
        s = two_discrete()
        chi = atom_indicator(s, 0)
        with pytest.raises(InvariantError, match="certificate lies"):
            listed(s, [chi], 0)


class TestReconstruction:
    def test_roundtrip_recovers_coefficients(self):
        rng = random.Random(11)
        s = FinSpace.discrete(["a", "b", "c"])
        phi = Functional.extensional(s, (F(1, 6), F(1, 3), F(1, 2)))
        recovered = functional_from_action(sequence_action(phi), s, rng)
        coeffs = tuple(recovered(atom_indicator(s, i)) for i in range(3))
        assert coeffs == phi.measure.weights
        f = IFunction(s, (F(1, 5), F(2, 5), F(1)))
        assert recovered(f) == phi(f)

    def test_evaluation_action_recovers_evaluation(self):
        rng = random.Random(13)
        s = two_discrete()
        recovered = functional_from_action(
            sequence_action(evaluation_at(s, "b")), s, rng)
        assert tuple(recovered(atom_indicator(s, i)) for i in range(2)) == \
            (F(0), F(1))

    def test_entrywise_max_fails_blend_square(self):
        rng = random.Random(17)
        s = two_discrete()

        def entrywise_max(fs):
            return VanishingSequence(tuple(max(f.values) for f in fs))

        with pytest.raises(ActionSquareError) as err:
            functional_from_action(entrywise_max, s, rng, trials=64)
        assert "blend" in err.value.witness["generator"]
        assert "act_then_blend" in err.value.witness


    def test_projection_square_witness(self):
        def one_entry_too_many(fs):
            return VanishingSequence((F(1, 2),) * (len(fs) + 1))

        with pytest.raises(ActionSquareError) as err:
            functional_from_action(one_entry_too_many, FinSpace.discrete(["a"]),
                                   random.Random(3))
        witness = err.value.witness
        assert [f.values for f in witness.pop("input")] == [
            (F(3, 4),), (F(2, 3),)]
        assert witness == {
            "generator": "projection onto entry 0",
            "acted_then_projected": F(1, 2),
            "projected_then_acted": VanishingSequence((F(1, 2), F(1, 2))),
            "case": 0}

    def test_constant_square_witness(self):
        def halved(fs):
            return VanishingSequence(tuple(f.values[0] / 2 for f in fs))

        with pytest.raises(ActionSquareError) as err:
            functional_from_action(halved, FinSpace.discrete(["a"]),
                                   random.Random(3))
        assert err.value.witness == {"generator": "constant map at 7/8",
                                     "expected": F(7, 8), "got": F(7, 16),
                                     "case": 0}

    def test_long_constant_square_witness(self):
        # every entry is 1/p, of 4,301 digits past MAX_DIGITS: the
        # projection and blend squares hold and the constant square fails,
        # raised as itself with its value raw
        p = 10 ** 4300 + 1

        def tiny(fs):
            return VanishingSequence((F(1, p),) * len(fs))

        with pytest.raises(ActionSquareError,
                           match="^constant square fails$") as err:
            functional_from_action(tiny, FinSpace.discrete(["a"]),
                                   random.Random(3))
        assert err.value.witness == {"generator": "constant map at 7/8",
                                     "expected": F(7, 8), "got": F(1, p),
                                     "case": 0}

    @pytest.mark.parametrize("trials", [1, 8, 40])
    def test_action_called_once_per_input_list(self, trials):
        # Per trial: the projected entry, the sampled list (shared by the
        # projection and blend squares), the blend and the constant.
        s = FinSpace.discrete(["a", "b", "c"])
        action = sequence_action(Functional.extensional(
            s, (F(1, 6), F(1, 3), F(1, 2))))
        inputs = []

        def counted(fs):
            inputs.append(fs)
            return action(fs)

        functional_from_action(counted, s, random.Random(trials), trials)
        assert len(inputs) <= 4 * trials
        assert len({id(fs) for fs in inputs}) == len(inputs)


class TestAffineComposition:
    def test_coefficients_compose(self):
        h = AffineMap(2, F(1, 8), (F(1, 4), F(1, 2)))
        g1 = AffineMap(1, F(1, 3), (F(1, 3),))
        g2 = AffineMap(1, F(0), (F(1),))
        composite = h.compose((g1, g2))
        assert composite.a0 == F(1, 8) + F(1, 4) * F(1, 3)
        assert composite.coeffs == (F(1, 4) * F(1, 3) + F(1, 2),)
        for x in (F(0), F(1, 2), F(1)):
            assert composite((x,)) == h((g1((x,)), g2((x,))))


def affine_value_oracle(h, xs) -> Fraction:
    """The former Fraction evaluation: a0 + sum(c_i * x_i), with missing
    coordinates zero."""
    return h.a0 + sum((c * x for c, x in zip(h.coeffs, xs)), F(0))


def sample_affine_oracle(rng: random.Random, arity: int) -> AffineMap:
    """The former ``sample_affine`` with ``kind=None``: the same draws, the
    extremes and the rescaling computed on Fractions."""
    if arity >= 1 and rng.random() < 0.15:
        return AffineMap.projection(arity, rng.randrange(arity))
    if rng.random() < 0.15:
        return AffineMap.constant(arity, random_fraction(rng, max_den=16))
    raw0 = random_fraction(rng, -2, 2, max_den=16)
    raw = [random_fraction(rng, -2, 2, max_den=16) for _ in range(arity)]
    lo = raw0 + sum((min(c, F(0)) for c in raw), F(0))
    hi = raw0 + sum((max(c, F(0)) for c in raw), F(0))
    if hi == lo:
        return AffineMap.constant(arity, min(F(1), max(F(0), raw0)))
    span = random_fraction(rng, max_den=8) or F(1, 2)
    scale = span / (hi - lo)
    shift = random_fraction(rng, max_den=8) * (1 - span)
    return AffineMap(arity, (raw0 - lo) * scale + shift,
                     tuple(c * scale for c in raw))


class TestIntegerAffineMaps:
    """Affine maps keep their coefficients lifted to ints over one
    denominator; the former Fraction formulas are the reference."""

    CFG = SuiteConfig(max_carrier=6)

    @pytest.mark.parametrize("seed", range(40))
    def test_sample_affine_equals_the_fraction_routine(self, seed):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        for arity in (0, 1, 2, 3, 4):
            got = sample_affine(rng, arity)
            want = sample_affine_oracle(oracle_rng, arity)
            assert (got.a0, got.coeffs) == (want.a0, want.coeffs)
        assert rng.getstate() == oracle_rng.getstate()

    @pytest.mark.parametrize("seed", range(40))
    def test_calls_equal_the_fraction_formula(self, seed):
        rng = random.Random(seed)
        arity = rng.randint(1, 4)
        h = sample_affine(rng, arity)
        xs = tuple(random_fraction(rng) for _ in range(arity))
        assert h(xs) == affine_value_oracle(h, xs)
        seq_h = sample_sequence_affine(rng, rng.randint(1, 4))
        seq = VanishingSequence(tuple(
            random_fraction(rng) for _ in range(rng.randint(0, 6))))
        assert seq_h(seq) == affine_value_oracle(seq_h, seq.entries)

    @pytest.mark.parametrize("seed", range(40))
    def test_compose_pointwise_equals_the_fraction_formula(self, seed):
        rng = random.Random(seed)
        space = generate_space(rng, self.CFG)
        arity = rng.randint(1, 4)
        for h, n in ((sample_affine(rng, arity), arity),
                     (sample_sequence_affine(rng, arity), rng.randint(0, 6))):
            fs = tuple(generate_ifunction(rng, space) for _ in range(n))
            out = _compose_pointwise(h, fs, space)
            assert out.values == tuple(
                affine_value_oracle(h, [f.values[i] for f in fs])
                for i in range(len(space.atoms)))

    def test_extremes_message_unchanged(self):
        with pytest.raises(InvariantError, match=(
                r"^map leaves the unit interval: extremes \[-1/4, 1/2\]$")):
            AffineMap(1, F(1, 2), (F(-3, 4),))
        with pytest.raises(InvariantError, match=(
                r"^map leaves the unit interval: extremes \[0/1, 2/1\]$")):
            SequenceAffineMap(F(0), (F(1), F(1)))

    def test_coordinate_out_of_range_message_unchanged(self):
        with pytest.raises(InvariantError,
                           match=r"^coordinate must lie in \[0,1\], got 3/2$"):
            AffineMap.blend(F(1, 2))((F(1, 3), F(3, 2)))
