"""The tail-limit functional: finitely additive but not countably."""

import random
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given, settings

from girylab.counterexample import (LIMIT_PROBE, SEGMENTS_REPORTED,
                                    EventualFn, FinCofSet, cofinite_measure,
                                    countable_additivity_violation,
                                    limit_functional, segments_respect_limits,
                                    singleton_mass_sum, sup_continuity_check)

from strategies import unit_fractions

F = Fraction


@st.composite
def eventual_fns(draw):
    width = draw(st.integers(0, 5))
    prefix = tuple(draw(unit_fractions()) for _ in range(width))
    return EventualFn(prefix, draw(unit_fractions()))


class TestLimitFunctional:
    def test_constants(self):
        for r in (F(0), F(3, 7), F(1)):
            assert limit_functional(EventualFn.constant(r)) == r

    def test_final_segment_indicators_pinned_at_one(self):
        for n in range(12):
            f = EventualFn.final_segment_indicator(n)
            assert limit_functional(f) == F(1)
            # and yet the sequence vanishes pointwise
            assert f.value(n - 1) == F(0) if n > 0 else True

    def test_finite_set_indicator(self):
        chi = FinCofSet.finite({0, 1, 2}).indicator()
        assert limit_functional(chi) == F(0)

    @settings(max_examples=120, deadline=None)
    @given(eventual_fns(), eventual_fns(), unit_fractions())
    def test_affine(self, f, g, r):
        lhs = limit_functional(f.blend(g, r))
        rhs = r * limit_functional(f) + (1 - r) * limit_functional(g)
        assert lhs == rhs

    @settings(max_examples=120, deadline=None)
    @given(eventual_fns(), eventual_fns())
    def test_one_lipschitz(self, f, g):
        verdict = sup_continuity_check(limit_functional, f, g)
        assert verdict.passed


class TestCofiniteMeasure:
    def test_finite_sets_have_measure_zero(self):
        assert cofinite_measure(FinCofSet.finite({0, 1, 2})) == F(0)

    def test_cofinite_sets_have_measure_one(self):
        assert cofinite_measure(FinCofSet.cofinite_excluding({5})) == F(1)

    def test_matches_functional_on_indicators(self):
        rng = random.Random(9)
        for _ in range(200):
            a = FinCofSet(rng.random() < 0.5,
                          frozenset(n for n in range(8)
                                    if rng.random() < 0.4))
            assert cofinite_measure(a) == limit_functional(a.indicator())

    def test_disjoint_finite_cofinite_union(self):
        a = FinCofSet.finite({0, 1})
        b = FinCofSet.cofinite_excluding({0, 1, 2})
        assert a.disjoint_from(b)
        union = a.union(b)
        assert union.cofinite and union.elements == frozenset({2})
        assert cofinite_measure(union) == \
            cofinite_measure(a) + cofinite_measure(b) == F(1)

    def test_random_disjoint_pairs_case_analysis(self):
        # oracle: measure is 0/1 by kind, so additivity reduces to the
        # three representable disjoint cases
        rng = random.Random(10)
        for _ in range(300):
            a_elems = frozenset(n for n in range(8) if rng.random() < 0.4)
            if rng.random() < 0.5:
                a = FinCofSet.finite(a_elems)
                b_elems = frozenset(n for n in range(8)
                                    if rng.random() < 0.4) - a_elems
                b = (FinCofSet.finite(b_elems) if rng.random() < 0.5
                     else FinCofSet.cofinite_excluding(a_elems | b_elems))
            else:
                a = FinCofSet.cofinite_excluding(a_elems)
                b = FinCofSet.finite(frozenset(
                    n for n in a_elems if rng.random() < 0.6))
            assert a.disjoint_from(b)
            got = cofinite_measure(a.union(b))
            want = cofinite_measure(a) + cofinite_measure(b)
            assert got == want
            two_cofinite = a.cofinite and b.cofinite
            assert not two_cofinite  # never representable as disjoint

    def test_two_cofinite_sets_never_disjoint(self):
        a = FinCofSet.cofinite_excluding({0})
        b = FinCofSet.cofinite_excluding({1, 2})
        assert not a.disjoint_from(b)


class TestCountableAdditivityViolation:
    def test_partial_sums_vanish_at_scale(self):
        assert singleton_mass_sum(10 ** 6) == F(0)

    def test_total_mass_one(self):
        assert cofinite_measure(FinCofSet.whole()) == F(1)

    def test_respects_limits_fails_stuck_at_one(self):
        verdict = segments_respect_limits(limit_functional)
        assert not verdict.passed
        assert verdict.witness["stuck_at"] == "1/1"

    def test_evaluation_at_a_point_respects_limits(self):
        # the Dirac functional at 0 is countably additive: the segments
        # [n, infinity) send it to 1, then 0 from n = 1 on
        verdict = segments_respect_limits(lambda f: f.value(0))
        assert verdict.passed
        assert verdict.witness == {"mode": "probe window",
                                   "probed": LIMIT_PROBE}

    def test_report_contents(self):
        report = countable_additivity_violation()
        assert report["singleton_partial_sum"] == F(0)
        assert report["total_mass"] == F(1)
        assert report["respects_limits"]["result"] == "fail"
        assert report["functional_values"] == [F(1)] * SEGMENTS_REPORTED
        assert report["pointwise_limit"] == F(0)


class TestSupContinuity:
    def test_failure_witness(self):
        # a functional that doubles the tail moves further than the sup
        # distance, so the check must fail and name both tails
        f = EventualFn((F(1, 8),), F(1, 2))
        g = EventualFn((F(1, 8),), F(1, 4))
        verdict = sup_continuity_check(lambda h: min(F(1), 2 * h.tail), f, g)
        assert not verdict.passed
        assert verdict.witness == {"sup_distance": "1/4", "gap": "1/2",
                                   "f_tail": "1/2", "g_tail": "1/4"}

    def test_equal_functions(self):
        f = EventualFn((F(1, 2),), F(1, 3))
        verdict = sup_continuity_check(limit_functional, f, f)
        assert verdict.passed
        assert verdict.witness["sup_distance"] == "0/1"

    def test_tail_distance_example(self):
        f = EventualFn((F(1, 8), F(1, 4)), F(1, 2))
        g = EventualFn((F(1, 8), F(1, 4)), F(1, 4))
        verdict = sup_continuity_check(limit_functional, f, g)
        assert verdict.passed
        assert verdict.witness["sup_distance"] == "1/4"
        assert verdict.witness["gap"] == "1/4"

    def test_distance_seen_through_prefix_padding(self):
        f = EventualFn((F(1),), F(0))
        g = EventualFn((), F(0))
        assert f.sup_distance(g) == F(1)
