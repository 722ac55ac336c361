"""Sigma-algebra generation, atoms, measurability."""

import math
import random
import re
import string
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from girylab.codensity import AffineMap
from girylab.config import SuiteConfig
from girylab.duality import LimitWitness
from girylab.errors import InvariantError, NotMeasurableError
from girylab.harness import generate_measurable_map, generate_space
from girylab.measures import Measure
from girylab.rational import MAX_DIGITS, random_fraction, require_unit
from girylab.spaces import (FinSpace, IFunction, MeasMap, characteristic,
                            generate_ifunction, generate_sigma,
                            sigma_from_masks)

from strategies import (LABELS, brute_closure, exhaustive_measurable,
                        indiscrete, mask_of, minimal_nonempty, sigma, spaces)

F = Fraction
LONG = 10 ** MAX_DIGITS


class TestGenerateSigma:
    def test_single_generator(self):
        s = generate_sigma(["a", "b", "c"], [["a"]])
        # oracle: brute-force closure of {a} over a 3-point carrier
        masks = [mask_of(s, ["a"])]
        assert sigma(s) == brute_closure(3, masks)
        assert len(sigma(s)) == 4
        assert s.describe_atoms() == [["a"], ["b", "c"]]

    def test_empty_generators(self):
        s = generate_sigma(["a"], [])
        assert sigma(s) == frozenset({0, 1})

    def test_two_singletons_discrete(self):
        s = generate_sigma(["a", "b"], [["a"], ["b"]])
        assert len(sigma(s)) == 4
        assert sigma(s) == brute_closure(2, [0b01, 0b10])

    def test_generator_outside_carrier(self):
        with pytest.raises(InvariantError):
            generate_sigma(["a", "b"], [["z"]])

    def test_carrier_cap(self):
        labels = [f"p{i}" for i in range(17)]
        with pytest.raises(InvariantError):
            generate_sigma(labels, [])
        generate_sigma(labels[:16], [])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InvariantError):
            generate_sigma(["a", "a"], [])

    @settings(max_examples=60, deadline=None)
    @given(spaces())
    def test_matches_brute_closure(self, space):
        gens = list(space.atoms)
        assert sigma(space) == brute_closure(len(space.carrier), gens)

    @settings(max_examples=60, deadline=None)
    @given(spaces())
    def test_closure_idempotent(self, space):
        again = generate_sigma(
            space.carrier, [space.labels_of(m) for m in sigma(space)])
        assert sigma(again) == sigma(space)
        assert again.atoms == space.atoms


class TestMeasurableSet:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.lists(st.sampled_from(LABELS[:n]),
                                      unique=True), max_size=3))))
    def test_atom_rule_matches_brute_closure(self, drawn):
        # masks up to 2^(n+1) include sets with a bit outside the carrier
        n, gens = drawn
        space = generate_sigma(list(LABELS[:n]), gens)
        closure = brute_closure(n, [mask_of(space, g) for g in gens])
        for m in range(1 << (n + 1)):
            assert space.is_measurable_set(m) == (m in closure)


class TestAtoms:
    @pytest.mark.parametrize("atoms, message", [
        ((1, 0, 6), "atom 1 is empty"),
        ((3, 1, 4), "atom 1 overlaps an earlier atom"),
        ((1, 14), "atom 1 reaches past the carrier"),
        ((-1,), "atom 0 reaches past the carrier"),
        ((2, 1, 4), "atom 1 is out of order by smallest member"),
        ((1, 4), "point 'b' is in no atom"),
    ], ids=["empty", "overlapping", "past-the-carrier", "negative",
            "out-of-order", "point-uncovered"])
    def test_atoms_must_partition_the_carrier_in_order(self, atoms, message):
        with pytest.raises(InvariantError, match=f"^{message}$"):
            FinSpace(("a", "b", "c"), atoms)

    # The carrier is checked before the atoms, so the atoms (1,), which
    # reach past an empty carrier and leave the second point of ("a", "a")
    # uncovered, are never read; sigma_from_masks refines an empty
    # carrier to the one empty atom.
    @pytest.mark.parametrize("carrier, message", [
        ((), "carrier must be nonempty"),
        (("a", "a"), "carrier labels must be distinct"),
    ], ids=["empty", "repeated"])
    @pytest.mark.parametrize("make", [
        lambda carrier: FinSpace(carrier, (1,)),
        lambda carrier: sigma_from_masks(carrier, []),
        lambda carrier: generate_sigma(carrier, []),
    ], ids=["FinSpace", "sigma_from_masks", "generate_sigma"])
    def test_carrier_must_be_nonempty_and_distinct(self, make, carrier,
                                                   message):
        with pytest.raises(InvariantError, match=f"^{message}$"):
            make(carrier)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=4))))
    def test_sigma_from_masks_output_is_accepted(self, drawn):
        n, masks = drawn
        space = sigma_from_masks(tuple(LABELS[:n]), masks)
        assert FinSpace(space.carrier, space.atoms) == space

    def test_discrete(self):
        s = FinSpace.discrete(["a", "b", "c"])
        assert s.describe_atoms() == [["a"], ["b"], ["c"]]

    def test_indiscrete(self):
        s = indiscrete(["a", "b", "c"])
        assert s.describe_atoms() == [["a", "b", "c"]]

    def test_minimality_oracle(self):
        s = generate_sigma(["a", "b", "c"], [["a"]])
        assert set(s.atoms) == minimal_nonempty(sigma(s))

    @settings(max_examples=60, deadline=None)
    @given(spaces())
    def test_atoms_are_minimal_and_partition(self, space):
        assert set(space.atoms) == minimal_nonempty(sigma(space))
        union = 0
        for a in space.atoms:
            assert union & a == 0
            union |= a
        assert union == space.full_mask

    @settings(max_examples=60, deadline=None)
    @given(spaces())
    def test_atom_soundness(self, space):
        # every measurable set is the union of the atoms it contains
        for s in sigma(space):
            rebuilt = 0
            for a in space.atoms:
                if a & s == a:
                    rebuilt |= a
            assert rebuilt == s


class TestIsMeasurable:
    """A ``MeasMap`` is checked measurable when it is built, and its
    ``atom_map`` gives the cod atom of each dom atom."""

    def test_identity(self):
        s = generate_sigma(["a", "b", "c"], [["a"]])
        assert MeasMap.identity(s).atom_map == (0, 1)

    def test_trivial_to_discrete_fails(self):
        dom = indiscrete(["a", "b"])
        cod = FinSpace.discrete(["x", "y"])
        with pytest.raises(NotMeasurableError, match="^map is not measurable$"):
            MeasMap(dom, cod, (0, 1))
        # oracle agrees: the preimage of {x} is {a}, not in {empty, all}
        assert not exhaustive_measurable(dom, cod, (0, 1))

    def test_constant_map(self):
        dom = indiscrete(["a", "b", "c"])
        cod = FinSpace.discrete(["x", "y"])
        assert MeasMap(dom, cod, (1, 1, 1)).atom_map == (1,)

    @settings(max_examples=80, deadline=None)
    @given(spaces(4), spaces(4), st.randoms(use_true_random=False))
    def test_atom_check_equals_exhaustive(self, dom, cod, rng):
        table = tuple(rng.randrange(len(cod.carrier))
                      for _ in dom.carrier)
        if not exhaustive_measurable(dom, cod, table):
            with pytest.raises(NotMeasurableError):
                MeasMap(dom, cod, table)
            return
        g = MeasMap(dom, cod, table)
        for j, atom in enumerate(dom.atoms):
            assert {cod.atom_index_of_point(g.apply(lab))
                    for lab in dom.labels_of(atom)} == {g.atom_map[j]}

    @settings(max_examples=50, deadline=None)
    @given(spaces(4), spaces(4), spaces(4), st.randoms(use_true_random=False))
    def test_composition_measurable(self, a, b, c, rng):
        def random_measurable(dom, cod):
            table = [0] * len(dom.carrier)
            for atom in dom.atoms:
                target = rng.randrange(len(cod.carrier))
                for i in range(len(dom.carrier)):
                    if atom >> i & 1:
                        table[i] = target
            return MeasMap(dom, cod, tuple(table))

        h = random_measurable(a, b)
        g = random_measurable(b, c)
        assert g.compose(h).atom_map == tuple(g.atom_map[k] for k in h.atom_map)

    def test_partial_table_rejected(self):
        dom = FinSpace.discrete(["a", "b"])
        with pytest.raises(InvariantError, match="^map table must cover "
                           "the whole domain carrier$"):
            MeasMap(dom, dom, (0,))


class TestCharacteristic:
    def test_full_and_empty(self):
        s = generate_sigma(["a", "b", "c"], [["a"]])
        assert characteristic(s, s.full_mask).values == (F(1), F(1))
        assert characteristic(s, 0).values == (F(0), F(0))

    def test_atom_set(self):
        s = generate_sigma(["a", "b", "c"], [["a"]])
        chi = characteristic(s, mask_of(s, ["b", "c"]))
        assert chi.values == (F(0), F(1))

    def test_non_measurable_rejected(self):
        s = indiscrete(["a", "b"])
        with pytest.raises(NotMeasurableError):
            characteristic(s, mask_of(s, ["a"]))


class TestIFunction:
    def test_range_checked(self):
        s = FinSpace.discrete(["a"])
        with pytest.raises(InvariantError):
            IFunction(s, (F(3, 2),))

    def test_compose_constant_on_atoms(self):
        dom = indiscrete(["a", "b"])
        cod = FinSpace.discrete(["x", "y"])
        f = IFunction(cod, (F(1, 4), F(3, 4)))
        g = MeasMap(dom, cod, (1, 1))
        assert f.compose_with(g).values == (F(3, 4),)


def generate_space_oracle(rng: random.Random, cfg: SuiteConfig,
                          min_points: int = 1) -> FinSpace:
    """The former ``harness.generate_space``: label lists through
    ``generate_sigma``, making the same draws in the same order."""
    n = rng.randint(min_points, max(min_points, cfg.max_carrier))
    labels = list(string.ascii_lowercase[:n])
    gens = []
    for _ in range(rng.randint(0, 3)):
        gens.append([lab for lab in labels if rng.random() < 0.5])
    return generate_sigma(labels, gens)


class TestSigmaFromMasks:
    """The mask routine gives the carrier and the atoms, in order, that
    ``generate_sigma`` gives on the equivalent label lists."""

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_generate_sigma(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 16)
        labels = tuple(f"p{i}" for i in range(n))
        masks = [rng.getrandbits(n) for _ in range(rng.randint(0, 5))]
        lists = [[lab for i, lab in enumerate(labels) if m >> i & 1]
                 for m in masks]
        got, want = sigma_from_masks(labels, masks), generate_sigma(labels, lists)
        assert (got.carrier, got.atoms) == (want.carrier, want.atoms)
        assert list(got.atoms) == sorted(got.atoms, key=lambda m: m & -m)

    @pytest.mark.parametrize("seed", range(40))
    def test_generate_space_matches_the_label_list_routine(self, seed):
        cfg = SuiteConfig(max_carrier=12)
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        for _ in range(5):
            got = generate_space(rng, cfg)
            want = generate_space_oracle(oracle_rng, cfg)
            assert (got.carrier, got.atoms) == (want.carrier, want.atoms)
        assert rng.getstate() == oracle_rng.getstate()

    def test_carrier_cap_message_unchanged(self):
        labels = tuple(f"p{i}" for i in range(17))
        for make in (lambda: generate_sigma(labels, []),
                     lambda: sigma_from_masks(labels, [])):
            with pytest.raises(InvariantError,
                               match=r"^carrier has 17 points, cap is 16$"):
                make()
        assert len(sigma_from_masks(labels[:16], [1]).atoms) == 2


def random_function_pair(rng: random.Random, space: FinSpace):
    """A random function f and a function g with f + g <= 1."""
    f = generate_ifunction(rng, space)
    g = IFunction(space, tuple(min(random_fraction(rng), 1 - v)
                               for v in f.values))
    return f, g


class TestIFunctionNumerators:
    """``IFunction`` keeps int numerators over one denominator in lowest
    terms; its former Fraction formulas are the reference."""

    CFG = SuiteConfig(max_carrier=6)

    @pytest.mark.parametrize("seed", range(20))
    def test_fractions_and_numerators_agree(self, seed):
        rng = random.Random(seed)
        space = generate_space(rng, self.CFG)
        f = generate_ifunction(rng, space)
        assert math.gcd(f.den, *f.nums) == 1
        assert f.values == tuple(F(n, f.den) for n in f.nums)
        scale = rng.randint(2, 50)
        same = IFunction(space, [n * scale for n in f.nums], f.den * scale)
        assert same == f and hash(same) == hash(f)
        assert (same.nums, same.den, same.values) == (f.nums, f.den, f.values)

    @pytest.mark.parametrize("seed", range(40))
    def test_operations_equal_the_fraction_formulas(self, seed):
        rng = random.Random(seed)
        space = generate_space(rng, self.CFG)
        f, g = random_function_pair(rng, space)
        r = random_fraction(rng)
        assert f.blend(g, r).values == tuple(
            r * a + (1 - r) * b for a, b in zip(f.values, g.values))
        assert f.scale(r).values == tuple(r * v for v in f.values)
        assert f.add(g).values == tuple(
            a + b for a, b in zip(f.values, g.values))
        assert IFunction.constant(space, r).values == (r,) * len(space.atoms)
        dom = generate_space(rng, self.CFG)
        h = generate_measurable_map(rng, dom, space)
        assert f.compose_with(h).values == tuple(
            f.at_point(h.apply(dom.labels_of(atom)[0])) for atom in dom.atoms)
        for out in (f.blend(g, r), f.scale(r), f.add(g), f.compose_with(h)):
            assert math.gcd(out.den, *out.nums) == 1

    # The rows past the digit limit hold a numerator of 4,301 digits.  Each
    # message names the check that failed and gives the number's size in
    # place of its digits; writing it raises no DigitLimitError.
    @pytest.mark.parametrize("make, message", [
        (lambda s: IFunction(s, (F(3, 2),)), "function value must lie in "
         "[0,1], got 3/2"),
        (lambda s: IFunction(s, (3,), 2), "function value must lie in [0,1], "
         "got 3/2"),
        (lambda s: IFunction(s, (6,), 4), "function value must lie in [0,1], "
         "got 3/2"),
        (lambda s: IFunction.constant(s, F(3, 2)), "function value must lie "
         "in [0,1], got 3/2"),
        (lambda s: IFunction(s, (F(3, 4),)).scale(2), "function value must "
         "lie in [0,1], got 3/2"),
        (lambda s: IFunction(s, (LONG,), 1), "function value must lie in "
         "[0,1], got a rational of 4,301 digits"),
        (lambda s: Measure(FinSpace.discrete(["a", "b"]), (-LONG, LONG + 1), 1),
         "weights must be nonnegative, got a rational of 4,301 digits"),
        (lambda s: Measure(s, (LONG,), 1), "weights must sum to 1/1, got "
         "total mass a rational of 4,301 digits"),
        (lambda s: require_unit(F(LONG, 3), "x"), "x must lie in [0,1], got "
         "a rational of 4,301 digits"),
        (lambda s: AffineMap(1, F(0), (F(LONG),)), "map leaves the unit "
         "interval: extremes [0/1, a rational of 4,301 digits]"),
        (lambda s: LimitWitness(s, lambda n: IFunction(s, (LONG,), LONG + 1),
                                (0,)),
         "certificate lies: term 0 is a rational of 4,301 digits at point 0, "
         "certified zero from 0"),
    ], ids=["values", "numerators", "numerators-not-reduced", "constant",
            "scale", "long-value", "long-negative-weight", "long-total-mass",
            "long-require-unit", "long-affine-map", "long-lying-certificate"])
    def test_out_of_range_message(self, make, message):
        with pytest.raises(InvariantError, match=f"^{re.escape(message)}$"):
            make(FinSpace.discrete(["a"]))

    def test_negative_value_message(self):
        s = FinSpace.discrete(["a", "b"])
        for make in (lambda: IFunction(s, (F(1, 2), F(-1, 2))),
                     lambda: IFunction(s, (1, -1), 2)):
            with pytest.raises(InvariantError,
                               match=r"^function value must lie in \[0,1\], got -1/2$"):
                make()

    @pytest.mark.parametrize("nums, den, kind", [
        ((0.5,), 1, "float"), ((1,), 2.0, "float"),
        ((True,), 1, "bool"), ((1,), True, "bool")])
    def test_numerators_must_be_ints(self, nums, den, kind):
        with pytest.raises(InvariantError, match=(
                f"^function value must be int numerators over an int "
                f"denominator, got {kind}$")):
            IFunction(FinSpace.discrete(["a"]), nums, den)

    def test_denominator_must_be_positive(self):
        with pytest.raises(InvariantError, match="positive denominator"):
            IFunction(FinSpace.discrete(["a"]), (0,), 0)

    def test_values_float_message(self):
        with pytest.raises(InvariantError, match=(
                "^function value must be an int or a Fraction, got float$")):
            IFunction(FinSpace.discrete(["a"]), (0.5,))

    def test_characteristic_is_zero_one_over_one(self):
        s = generate_sigma(["a", "b", "c"], [["a"]])
        chi = characteristic(s, mask_of(s, ["b", "c"]))
        assert (chi.nums, chi.den) == ((0, 1), 1)
