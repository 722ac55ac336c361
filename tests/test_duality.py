"""Functionals, the measure bijection, and the transported monad structure."""

import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from girylab import duality
from girylab.config import SuiteConfig
from girylab.errors import InvariantError, RejectionError, SpaceMismatchError
from girylab.harness import generate_measure, generate_space
from girylab.spaces import (FinSpace, IFunction, MeasMap, atom_indicator,
                            generate_ifunction)
from girylab.measures import Measure, integrate, pushforward
from girylab.monad import dirac, flatten
from girylab.duality import (Functional, FunctionalMixture, LimitWitness,
                             clamped_sum_functional, evaluation_at, is_affine,
                             max_functional, mix_functionals,
                             pushforward_functional, respects_limits,
                             square_functional, to_functional, to_measure)
from girylab.verdicts import describe

from strategies import LABELS, spaces, spaces_with_measures, unit_fractions

F = Fraction


def two_discrete():
    return FinSpace.discrete(["a", "b"])


class TestEvaluate:
    def test_extensional_dot_product(self):
        s = two_discrete()
        phi = Functional.extensional(s, (F(1, 3), F(2, 3)))
        assert phi(atom_indicator(s, 0)) == F(1, 3)

    def test_weak_averaging_on_constants(self):
        s = two_discrete()
        phi = Functional.extensional(s, (F(1, 4), F(3, 4)))
        for r in (F(0), F(2, 5), F(1)):
            assert phi(IFunction.constant(s, r)) == r

    def test_max_functional_not_affine_value(self):
        s = two_discrete()
        phi = max_functional(s)
        assert phi(IFunction(s, (F(1, 2), F(1)))) == F(1)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_integer_dot_product_matches_fraction_sum(self, data):
        discrete = st.integers(1, 6).map(
            lambda n: FinSpace.discrete(list(LABELS[:n])))
        space = data.draw(st.one_of(discrete, spaces(max_points=6)))
        n = len(space.atoms)
        parts = data.draw(st.lists(st.sampled_from((0, 0, 1, 2, 5, 7)),
                                   min_size=n, max_size=n)
                          .filter(lambda p: sum(p) > 0))
        coeffs = tuple(F(p, sum(parts)) for p in parts)
        vals = tuple(data.draw(unit_fractions(max_den=60)) for _ in range(n))
        phi = Functional.extensional(space, coeffs)
        got = phi(IFunction(space, vals))
        assert type(got) is Fraction
        assert got == sum((c * v for c, v in zip(coeffs, vals)), F(0))

    def test_space_mismatch(self):
        phi = Functional.extensional(two_discrete(), (F(1), F(0)))
        with pytest.raises(SpaceMismatchError):
            phi(IFunction.constant(FinSpace.discrete(["z"]), F(0)))


class TestIntegerEvaluation:
    """Extensional functionals and ``integrate`` are one integer dot
    product of numerator vectors; the Fraction sum is the reference."""

    @pytest.mark.parametrize("seed", range(40))
    def test_call_and_integrate_equal_the_fraction_sum(self, seed):
        rng = random.Random(seed)
        space = generate_space(rng, SuiteConfig(max_carrier=6))
        pi = generate_measure(rng, space)
        phi = to_functional(pi)
        for f in (generate_ifunction(rng, space),
                  IFunction(space, tuple(rng.randint(0, 12)
                                         for _ in space.atoms), 12)):
            want = sum((w * v for w, v in zip(pi.weights, f.values)), F(0))
            assert phi(f) == want and integrate(f, pi) == want


class TestToMeasure:
    def test_evaluation_becomes_dirac(self):
        s = FinSpace.discrete(["a", "b", "c"])
        for point in s.carrier:
            assert to_measure(evaluation_at(s, point)) == dirac(s, point)

    def test_coefficients_become_weights(self):
        s = two_discrete()
        phi = Functional.extensional(s, (F(1, 4), F(3, 4)))
        assert to_measure(phi).weights == (F(1, 4), F(3, 4))

    def test_max_rejected_with_additivity_witness(self):
        s = two_discrete()
        with pytest.raises(RejectionError) as err:
            to_measure(max_functional(s))
        witness = err.value.witness
        assert witness["check"] == "additivity on the atom indicators"
        assert witness["sum"] == F(2)

    def test_square_rejected_on_constants(self):
        s = two_discrete()
        with pytest.raises(RejectionError) as err:
            to_measure(square_functional(s))
        assert err.value.witness["check"] == "weak averaging on constants"
        assert err.value.witness["got"] == F(1, 4)

    def test_rejection_witnesses_whole(self):
        s = two_discrete()
        with pytest.raises(RejectionError) as err:
            to_measure(max_functional(s))
        assert err.value.witness == {
            "check": "additivity on the atom indicators",
            "witness_functions": "indicator of each atom",
            "weights": (F(1), F(1)), "sum": F(2), "expected_sum": F(1)}
        # a Verdict writes the raw witness
        assert describe(err.value.witness)["weights"] == ["1/1", "1/1"]
        with pytest.raises(RejectionError) as err:
            to_measure(square_functional(s))
        assert err.value.witness == {
            "check": "weak averaging on constants",
            "witness_function": "constant 1/2", "expected": F(1, 2),
            "got": F(1, 4)}
        one = FinSpace.discrete(["a"])
        shifted = Functional.intensional(
            one, lambda f: (f.values[0] + 1) / 2, "shifted")
        with pytest.raises(RejectionError) as err:
            to_measure(shifted)
        assert err.value.witness == {
            "check": "weak averaging on constants",
            "witness_function": "constant 0/1", "expected": F(0),
            "got": F(1, 2)}

    def test_long_indicator_sum_rejected(self):
        # weights 1/p and 1/q sum to a rational of 5,999 digits, past
        # MAX_DIGITS: the rejection is still the one raised, its sum raw
        p, q = 10 ** 2999 + 1, 10 ** 2999 + 3
        phi = Functional.intensional(
            two_discrete(), lambda f: f.values[0] / p + f.values[1] / q,
            "long weights")
        with pytest.raises(RejectionError,
                           match="^atom indicator weights do not sum to 1$") as err:
            to_measure(phi)
        assert err.value.witness["sum"] == F(1, p) + F(1, q)

    @settings(max_examples=80, deadline=None)
    @given(spaces_with_measures())
    def test_extensional_read_off_matches_the_definition(self, sm):
        # The weights are phi at the atom indicators, and phi fixes the
        # constants the intensional probe checks.
        space, pi = sm
        phi = Functional.extensional(space, pi.weights)
        assert to_measure(phi).weights == tuple(
            phi(atom_indicator(space, i)) for i in range(len(space.atoms)))
        for r in (F(0), F(1, 2), F(1)):
            assert phi(IFunction.constant(space, r)) == r

    @settings(max_examples=40, deadline=None)
    @given(spaces_with_measures())
    def test_probe_path_agrees_with_read_off(self, sm):
        space, pi = sm
        phi = to_functional(pi)
        probed = Functional.intensional(space, phi, "probed copy")
        assert to_measure(probed) == to_measure(phi) == pi

    def test_extensional_read_off_evaluates_nothing(self, monkeypatch):
        counts = {"call": 0, "ifunction": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        space = FinSpace.discrete(list(LABELS[:5]))
        phi = Functional.extensional(space, (F(1, 5),) * 5)
        monkeypatch.setattr(Functional, "__call__",
                            counting("call", Functional.__call__))
        monkeypatch.setattr(IFunction, "__init__",
                            counting("ifunction", IFunction.__init__))
        assert to_measure(phi).weights == (F(1, 5),) * 5
        assert counts == {"call": 0, "ifunction": 0}
        probed = Functional.intensional(space, lambda f: f.values[0], "first")
        to_measure(probed)
        assert counts["call"] == 5 + 3

    @settings(max_examples=80, deadline=None)
    @given(spaces_with_measures())
    def test_roundtrip_measure(self, sm):
        _, pi = sm
        assert to_measure(to_functional(pi)) == pi

    @settings(max_examples=80, deadline=None)
    @given(spaces_with_measures())
    def test_roundtrip_functional(self, sm):
        _, pi = sm
        phi = to_functional(pi)
        assert to_functional(to_measure(phi)) == phi


class TestHeldMeasure:
    """An extensional functional holds its measure: the bijection hands
    the one object across in both directions."""

    @settings(max_examples=40, deadline=None)
    @given(spaces_with_measures())
    def test_bijection_hands_the_measure_across(self, sm):
        _, pi = sm
        assert to_functional(pi).measure is pi
        assert to_measure(to_functional(pi)) is pi

    def test_tuple_body_refused(self):
        s = two_discrete()
        with pytest.raises(InvariantError, match="must be a Measure"):
            Functional(s, (F(1, 2), F(1, 2)))

    def test_measure_on_another_space_refused(self):
        pi = Measure(FinSpace.discrete(["x", "y"]), (F(1, 2), F(1, 2)))
        with pytest.raises(InvariantError, match="must be a Measure"):
            Functional(two_discrete(), pi)

    def test_exactly_one_body(self):
        s = two_discrete()
        with pytest.raises(InvariantError, match="exactly one"):
            Functional(s)
        with pytest.raises(InvariantError, match="exactly one"):
            Functional(s, Measure(s, (F(1), F(0))), lambda f: F(0))

    def test_label_on_an_extensional_body_refused(self):
        s = two_discrete()
        with pytest.raises(InvariantError, match="only an intensional body"):
            Functional(s, Measure(s, (F(1), F(0))), label="x")

    def test_no_second_copy_of_the_numerators(self):
        phi = Functional.extensional(two_discrete(), (F(1, 3), F(2, 3)))
        for name in ("nums", "den", "coeffs"):
            assert not hasattr(phi, name)
        with pytest.raises(TypeError):
            Functional.extensional(two_discrete(), (1, 2), den=3)


class TestIsAffine:
    def test_extensional_passes(self):
        s = two_discrete()
        verdict = is_affine(Functional.extensional(s, (F(1, 2), F(1, 2))))
        assert verdict.passed
        assert verdict.trials == 200  # probed, not passed by construction

    def test_extensional_body_is_evaluated(self, monkeypatch):
        # Integration that squares its value is not weakly averaging, so an
        # extensional body evaluated through it must fail.
        exact_integrate = duality.integrate
        monkeypatch.setattr(duality, "integrate",
                            lambda f, pi: exact_integrate(f, pi) ** 2)
        s = two_discrete()
        verdict = is_affine(Functional.extensional(s, (F(1, 2), F(1, 2))),
                            seed=0)
        assert not verdict.passed
        assert {"axiom", "case"} <= set(verdict.witness)

    def test_max_fails_with_witness(self):
        s = two_discrete()
        verdict = is_affine(max_functional(s), trials=300, seed=11)
        assert not verdict.passed
        assert verdict.witness["axiom"].startswith("affine")
        # the classic shape: blending the two atom indicators halves the
        # max on one path and keeps it at 1 on the other
        phi = max_functional(s)
        lhs = phi(atom_indicator(s, 0).blend(atom_indicator(s, 1), F(1, 2)))
        rhs = (phi(atom_indicator(s, 0)) + phi(atom_indicator(s, 1))) / 2
        assert (lhs, rhs) == (F(1, 2), F(1))

    def test_square_fails_on_halves(self):
        s = two_discrete()
        phi = square_functional(s)
        one = IFunction.constant(s, F(1))
        zero = IFunction.constant(s, F(0))
        assert phi(one.blend(zero, F(1, 2))) == F(1, 4)
        verdict = is_affine(phi, trials=300, seed=3)
        assert not verdict.passed

    def test_clamped_sum_fails(self):
        s = FinSpace.discrete(["a", "b", "c"])
        verdict = is_affine(clamped_sum_functional(s), trials=300, seed=5)
        assert not verdict.passed

    def test_witness_past_the_digit_limit_still_fails(self):
        """A refutation is a Verdict whatever the size of its numbers: the
        sides of f -> f(a)**2 / p are written by their size."""
        p = 10 ** 4300 + 1
        phi = Functional.intensional(FinSpace.discrete(["a"]),
                                     lambda f: f.values[0] ** 2 / p,
                                     "square over p")
        verdict = is_affine(phi, trials=5, seed=1)
        assert not verdict.passed
        assert verdict.witness["axiom"].startswith("affine")
        assert verdict.witness["rhs"] == "a rational of 4,304 digits"


class TestRespectsLimits:
    def test_extensional_passes_by_tail_bound(self):
        s = two_discrete()
        phi = Functional.extensional(s, (F(1, 2), F(1, 2)))
        w = LimitWitness(
            s, lambda n: IFunction(s, (F(1, n + 2) if n < 3 else F(0),
                                       F(0))), [3, 0])
        verdict = respects_limits(phi, w)
        assert verdict.passed
        assert verdict.witness["mode"] == "exact tail evaluation"

    def test_constant_zero_sequence(self):
        s = two_discrete()
        phi = Functional.extensional(s, (F(1), F(0)))
        w = LimitWitness(
            s, lambda n: IFunction.constant(s, F(0)), [0, 0])
        assert respects_limits(phi, w).passed

    def test_lying_certificate_rejected(self):
        s = two_discrete()
        with pytest.raises(InvariantError):
            LimitWitness(
                s, lambda n: IFunction.constant(s, F(1, 2)), [0, 0])

    @pytest.mark.parametrize("certs", [[0], [0, 0, 0]], ids=["few", "many"])
    def test_one_certificate_per_atom(self, certs):
        s = two_discrete()
        with pytest.raises(InvariantError, match="one certificate index per"):
            LimitWitness(s, lambda n: IFunction.constant(s, F(0)), certs)

    def test_terms_off_the_space_rejected(self):
        s, other = two_discrete(), FinSpace.discrete(["a", "b", "c"])
        with pytest.raises(SpaceMismatchError, match="term 0 lives off"):
            LimitWitness(s, lambda n: IFunction.constant(other, F(0)), [0, 0])

    def test_intensional_probe_path_passes(self):
        # even a non-affine functional respects an eventually-zero
        # sequence on a finite space; the exact tail decision sees it
        s = two_discrete()
        w = LimitWitness(
            s, lambda n: IFunction(s, (F(1, n + 1) if n < 4 else F(0),
                                       F(0))), [4, 0])
        verdict = respects_limits(max_functional(s), w)
        assert verdict.passed
        assert verdict.witness["mode"] == "exact tail evaluation"

    def test_intensional_offset_refuted_exactly(self):
        # pinned at 1/8192 on the zero tail: under the 2^-12 probe
        # threshold, but not zero, so the limits axiom fails
        s = two_discrete()
        phi = Functional.intensional(
            s, lambda f: F(1, 8192) + sum(f.values) / 4, "offset")
        w = LimitWitness(
            s, lambda n: IFunction(s, (F(1, n + 1) if n < 3 else F(0),
                                       F(0))), (3, 1))
        verdict = respects_limits(phi, w)
        assert not verdict.passed
        assert verdict.witness == {"mode": "exact tail evaluation",
                                   "tail_index": 3, "stuck_at": "1/8192"}

    def test_verdict_serializes_to_contract_shape(self):
        s = two_discrete()
        verdict = is_affine(max_functional(s), trials=100, seed=4)
        doc = verdict.to_jsonable()
        assert set(doc) == {"property", "result", "witness", "trials", "seed"}
        assert doc["result"] == "fail" and doc["seed"] == 4


class TestPushforwardFunctional:
    def test_identity(self):
        s = two_discrete()
        phi = Functional.extensional(s, (F(1, 3), F(2, 3)))
        out = pushforward_functional(MeasMap.identity(s), phi)
        assert out.measure.weights == phi.measure.weights

    def test_unit_naturality(self):
        dom = two_discrete()
        cod = FinSpace.discrete(["x", "y", "z"])
        g = MeasMap(dom, cod, (2, 0))  # a -> z, b -> x
        for point in dom.carrier:
            lhs = pushforward_functional(g, evaluation_at(dom, point))
            rhs = evaluation_at(cod, g.apply(point))
            assert lhs.measure.weights == rhs.measure.weights

    @settings(max_examples=60, deadline=None)
    @given(spaces_with_measures(4), st.randoms(use_true_random=False))
    def test_bijection_naturality(self, sm, rng):
        dom, pi = sm
        cod = FinSpace.discrete(["x", "y"])
        table = [0] * len(dom.carrier)
        for atom in dom.atoms:
            t = rng.randrange(2)
            for i in range(len(dom.carrier)):
                if atom >> i & 1:
                    table[i] = t
        g = MeasMap(dom, cod, tuple(table))
        phi = to_functional(pi)
        assert to_measure(pushforward_functional(g, phi)) == \
            pushforward(g, to_measure(phi))

    def test_intensional_pushforward_evaluates(self):
        dom = two_discrete()
        cod = FinSpace.discrete(["x"])
        g = MeasMap(dom, cod, (0, 0))
        out = pushforward_functional(g, max_functional(dom))
        assert out(IFunction.constant(cod, F(1, 3))) == F(1, 3)


class TestMonadStructure:
    def test_mixture_point_law(self):
        s = two_discrete()
        phi = Functional.extensional(s, (F(2, 5), F(3, 5)))
        assert mix_functionals(FunctionalMixture(s, ((phi, F(1)),))) == phi

    def test_unit_diagram(self):
        s = FinSpace.discrete(["a", "b", "c"])
        for point in s.carrier:
            assert to_measure(evaluation_at(s, point)) == dirac(s, point)

    def test_multiplication_diagram_example(self):
        s = two_discrete()
        phi1 = Functional.extensional(s, (F(1), F(0)))
        phi2 = Functional.extensional(s, (F(1, 2), F(1, 2)))
        psi = FunctionalMixture(s, ((phi1, F(1, 2)), (phi2, F(1, 2))))
        lhs = to_measure(mix_functionals(psi))
        rhs = flatten(psi.measure_image())
        assert lhs == rhs
        assert lhs.weights == (F(3, 4), F(1, 4))

    def test_mixture_applies_to_evaluation(self):
        # the multiplication evaluates the mixture on the evaluation map
        s = two_discrete()
        phi1 = evaluation_at(s, "a")
        phi2 = evaluation_at(s, "b")
        psi = FunctionalMixture(s, ((phi1, F(1, 3)), (phi2, F(2, 3))))
        f = IFunction(s, (F(1, 2), F(1, 8)))
        assert mix_functionals(psi)(f) == \
            F(1, 3) * f.values[0] + F(2, 3) * f.values[1] == \
            psi.apply_to_evaluation(f)

    @settings(max_examples=60, deadline=None)
    @given(spaces_with_measures(4), st.data())
    def test_multiplication_diagram_random(self, sm, data):
        space, mix_weights_src = sm
        k = len(mix_weights_src.weights)
        components = []
        for _ in range(k):
            n = len(space.atoms)
            parts = data.draw(st.lists(st.integers(0, 6), min_size=n,
                                       max_size=n).filter(lambda p: sum(p) > 0))
            total = sum(parts)
            components.append(Functional.extensional(
                space, tuple(F(p, total) for p in parts)))
        psi = FunctionalMixture(space, tuple(
            zip(components, mix_weights_src.weights)))
        assert to_measure(mix_functionals(psi)) == flatten(psi.measure_image())


class TestExtensionalCharacterization:
    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False), st.data())
    def test_simplex_form_iff_admissible(self, rng, data):
        from girylab.codensity import sample_affine
        n = rng.randint(1, 4)
        space = FinSpace.discrete([f"p{i}" for i in range(n)])
        h = sample_affine(random.Random(rng.randint(0, 10 ** 9)), n)
        weakly_averaging = (h((F(0),) * n) == F(0) and h((F(1),) * n) == F(1))
        canonical = (h.a0 == 0 and sum(h.coeffs, F(0)) == 1
                     and all(c >= 0 for c in h.coeffs))
        assert weakly_averaging == canonical
        if canonical:
            phi = Functional.extensional(space, h.coeffs)
            vals = tuple(data.draw(unit_fractions()) for _ in range(n))
            assert phi(IFunction(space, vals)) == h(vals)
