"""Sigma-algebra generation, atoms, measurability."""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from girylab.errors import InvariantError, NotMeasurableError
from girylab.spaces import (FinSpace, IFunction, MeasMap, atoms,
                            characteristic, generate_sigma, is_measurable)

from strategies import (LABELS, brute_closure, exhaustive_measurable,
                        minimal_nonempty, spaces)

F = Fraction


class TestGenerateSigma:
    def test_single_generator(self):
        s = generate_sigma(["a", "b", "c"], [["a"]])
        # oracle: brute-force closure of {a} over a 3-point carrier
        masks = [s.mask_of(["a"])]
        assert s.sigma == brute_closure(3, masks)
        assert len(s.sigma) == 4
        assert s.describe_atoms() == [["a"], ["b", "c"]]

    def test_empty_generators(self):
        s = generate_sigma(["a"], [])
        assert s.sigma == frozenset({0, 1})

    def test_two_singletons_discrete(self):
        s = generate_sigma(["a", "b"], [["a"], ["b"]])
        assert len(s.sigma) == 4
        assert s.sigma == brute_closure(2, [0b01, 0b10])

    def test_generator_outside_carrier(self):
        with pytest.raises(InvariantError):
            generate_sigma(["a", "b"], [["z"]])

    def test_carrier_cap(self):
        labels = [f"p{i}" for i in range(17)]
        with pytest.raises(InvariantError):
            generate_sigma(labels, [])
        generate_sigma(labels, [], max_points=20)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InvariantError):
            generate_sigma(["a", "a"], [])

    @settings(max_examples=60, deadline=None)
    @given(spaces())
    def test_matches_brute_closure(self, space):
        gens = list(space.atoms)
        assert space.sigma == brute_closure(len(space.carrier), gens)

    @settings(max_examples=60, deadline=None)
    @given(spaces())
    def test_closure_idempotent(self, space):
        again = generate_sigma(
            space.carrier, [space.labels_of(m) for m in space.sigma])
        assert again.sigma == space.sigma
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
        closure = brute_closure(n, [space.mask_of(g) for g in gens])
        for m in range(1 << (n + 1)):
            assert space.is_measurable_set(m) == (m in closure)


class TestAtoms:
    def test_discrete(self):
        s = FinSpace.discrete(["a", "b", "c"])
        assert s.describe_atoms() == [["a"], ["b"], ["c"]]

    def test_indiscrete(self):
        s = FinSpace.indiscrete(["a", "b", "c"])
        assert s.describe_atoms() == [["a", "b", "c"]]

    def test_minimality_oracle(self):
        s = generate_sigma(["a", "b", "c"], [["a"]])
        assert set(atoms(s)) == minimal_nonempty(s.sigma)

    @settings(max_examples=60, deadline=None)
    @given(spaces())
    def test_atoms_are_minimal_and_partition(self, space):
        assert set(space.atoms) == minimal_nonempty(space.sigma)
        union = 0
        for a in space.atoms:
            assert union & a == 0
            union |= a
        assert union == space.full_mask

    @settings(max_examples=60, deadline=None)
    @given(spaces())
    def test_atom_soundness(self, space):
        # every measurable set is the union of the atoms it contains
        for s in space.sigma:
            rebuilt = 0
            for a in space.atoms:
                if a & s == a:
                    rebuilt |= a
            assert rebuilt == s


class TestIsMeasurable:
    def test_identity(self):
        s = generate_sigma(["a", "b", "c"], [["a"]])
        assert is_measurable(MeasMap.identity(s))

    def test_trivial_to_discrete_fails(self):
        dom = FinSpace.indiscrete(["a", "b"])
        cod = FinSpace.discrete(["x", "y"])
        g = MeasMap.from_labels(dom, cod, {"a": "x", "b": "y"})
        assert not is_measurable(g)
        # oracle agrees: the preimage of {x} is {a}, not in {empty, all}
        assert not exhaustive_measurable(g)

    def test_constant_map(self):
        dom = FinSpace.indiscrete(["a", "b", "c"])
        cod = FinSpace.discrete(["x", "y"])
        assert is_measurable(MeasMap.constant(dom, cod, "x"))

    @settings(max_examples=80, deadline=None)
    @given(spaces(4), spaces(4), st.randoms(use_true_random=False))
    def test_atom_check_equals_exhaustive(self, dom, cod, rng):
        table = tuple(rng.randrange(len(cod.carrier))
                      for _ in dom.carrier)
        g = MeasMap(dom, cod, table)
        assert is_measurable(g) == exhaustive_measurable(g)

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
        assert is_measurable(g.compose(h))

    def test_partial_table_rejected(self):
        dom = FinSpace.discrete(["a", "b"])
        with pytest.raises(InvariantError):
            MeasMap.from_labels(dom, dom, {"a": "a"})


class TestCharacteristic:
    def test_full_and_empty(self):
        s = generate_sigma(["a", "b", "c"], [["a"]])
        assert characteristic(s, s.full_mask).values == (F(1), F(1))
        assert characteristic(s, 0).values == (F(0), F(0))

    def test_atom_set(self):
        s = generate_sigma(["a", "b", "c"], [["a"]])
        chi = characteristic(s, s.mask_of(["b", "c"]))
        assert chi.values == (F(0), F(1))

    def test_non_measurable_rejected(self):
        s = FinSpace.indiscrete(["a", "b"])
        with pytest.raises(NotMeasurableError):
            characteristic(s, s.mask_of(["a"]))


class TestIFunction:
    def test_pointwise_ingestion_compresses(self):
        s = generate_sigma(["a", "b", "c"], [["a"]])
        f = IFunction.from_points(s, {"a": F(1, 2), "b": F(1, 3), "c": F(1, 3)})
        assert f.values == (F(1, 2), F(1, 3))

    def test_pointwise_non_constant_rejected(self):
        s = generate_sigma(["a", "b", "c"], [["a"]])
        with pytest.raises(InvariantError):
            IFunction.from_points(s, {"a": F(1), "b": F(0), "c": F(1)})

    def test_range_checked(self):
        s = FinSpace.discrete(["a"])
        with pytest.raises(InvariantError):
            IFunction(s, (F(3, 2),))

    def test_compose_constant_on_atoms(self):
        dom = FinSpace.indiscrete(["a", "b"])
        cod = FinSpace.discrete(["x", "y"])
        f = IFunction(cod, (F(1, 4), F(3, 4)))
        g = MeasMap.constant(dom, cod, "y")
        assert f.compose_with(g).values == (F(3, 4),)
