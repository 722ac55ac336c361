"""Acceptance criteria, one test per criterion at its stated scale.

Each test prints a single pass/fail line (run pytest with -s to stream
them).  Trial counts and tolerances are pinned here, not configurable:
criteria 1-7 and 9 are exact identities over their randomized cases,
criterion 8 is the certified integrator at eps in {2^-6, 2^-10}, and
criterion 10 is byte-level determinism of the reports.
"""

import json
import random
import time
from fractions import Fraction

from girylab.errors import ActionSquareError, RejectionError
from girylab.spaces import FinSpace
from girylab.measures import IntervalMeasure, integrate_approx_bounds
from girylab.duality import max_functional, square_functional, to_measure
from girylab.codensity import VanishingSequence, functional_from_action
from girylab.counterexample import (EventualFn, FinCofSet, cofinite_measure,
                                    countable_additivity_violation,
                                    limit_functional, singleton_mass_sum)
from girylab.harness import (SuiteConfig, case_rng, find_naturality_refutation,
                             run_suite)

F = Fraction

RESULTS = []


def report_line(criterion: str, passed: bool) -> None:
    line = f"{'PASS' if passed else 'FAIL'}  {criterion}"
    RESULTS.append(line)
    print(line)


def suite_records(name: str, trials: int, seed: int = 0):
    cfg = SuiteConfig(seed=seed, trials=trials)
    report = run_suite(name, cfg)
    return {r.name: r for r in report.records}


def assert_and_report(criterion: str, condition: bool):
    report_line(criterion, condition)
    assert condition, criterion


class TestAcceptance:
    def test_c01_monad_laws_exact_at_scale(self):
        start = time.monotonic()
        records = suite_records("monad-laws", trials=500)
        elapsed = time.monotonic() - start
        laws = ("left-unit", "right-unit", "associativity", "flatten-point",
                "flatten-dirac-decomposition", "flatten-associativity")
        ok = all(records[n].result == "pass" and records[n].trials >= 500
                 for n in laws)
        ok = ok and elapsed < 10.0
        assert_and_report(
            f"criterion 1: monad laws, 500 cases per law in {elapsed:.1f}s", ok)

    def test_c02_duality_bijection(self):
        records = suite_records("duality", trials=500)
        ok = all(records[n].result == "pass" and records[n].trials >= 500
                 for n in ("measure-roundtrip", "functional-roundtrip"))
        try:
            to_measure(max_functional(FinSpace.discrete(["a", "b", "c"])))
            ok = False
        except RejectionError as err:
            ok = ok and err.witness["check"] == "additivity on the atom indicators"
            ok = ok and err.witness["sum"] == F(3)
        assert_and_report(
            "criterion 2: bijection round trips at 500 cases and the max "
            "functional is rejected with an additivity witness", ok)

    def test_c03_monad_morphism_diagrams(self):
        records = suite_records("duality", trials=200)
        ok = all(records[n].result == "pass" and records[n].trials >= 200
                 for n in ("unit-diagram", "multiplication-diagram"))
        assert_and_report(
            "criterion 3: unit and multiplication diagrams commute over "
            "200 cases", ok)

    def test_c04_change_of_variables(self):
        records = suite_records("change-of-variables", trials=500)
        ok = (records["change-of-variables"].result == "pass"
              and records["change-of-variables"].trials >= 500)
        ok = ok and all(
            records[n].result == "pass" and records[n].trials >= 200
            for n in ("pushforward-identity", "pushforward-composition"))
        assert_and_report(
            "criterion 4: change of variables at 500 cases and pushforward "
            "functoriality at 200", ok)

    def test_c05_codensity_naturality(self):
        records = suite_records("naturality", trials=1000)
        ok = (records["lifted-extensional-naturality"].result == "pass"
              and records["lifted-extensional-naturality"].trials >= 1000)
        for maker in (max_functional, square_functional):
            phi = maker(FinSpace.discrete(["a", "b"]))
            witness = find_naturality_refutation(
                phi, 3, case_rng(0, "acceptance-refute", 0))
            ok = ok and witness is not None and witness["search_steps"] <= 1000
        assert_and_report(
            "criterion 5: 1000 naturality squares pass for admissible "
            "functionals; max and square are refuted within the bounded "
            "search", ok)

    def test_c06_monoid_reduction(self):
        records = suite_records("monoid-reduction", trials=200)
        ok = (records["reconstruction-roundtrip"].result == "pass"
              and records["reconstruction-roundtrip"].trials >= 200)

        def entrywise_max(fs):
            return VanishingSequence(tuple(max(f.values) for f in fs))

        try:
            functional_from_action(entrywise_max,
                                   FinSpace.discrete(["a", "b"]),
                                   random.Random(0), trials=64)
            ok = False
        except ActionSquareError as err:
            ok = (ok and "blend" in err.witness["generator"]
                  and "act_then_blend" in err.witness)
        assert_and_report(
            "criterion 6: action reconstruction round-trips 200 functionals; "
            "the entrywise-max action fails the blend square with a witness",
            ok)

    def test_c07_convex_bound_membership(self):
        records = suite_records("convex-bound", trials=100)
        ok = (records["hull-closure"].result == "pass"
              and records["hull-closure"].trials >= 100)
        assert_and_report(
            "criterion 7: 100 random polytopes, extension outputs certified "
            "inside by exact feasibility", ok)

    def test_c08_certified_integrator(self):
        def exact_linear(m):
            t = sum((mass * loc for loc, mass in m.points), F(0))
            return t + sum((mass * (a + b) / 2 for a, b, mass in m.pieces),
                           F(0))

        def exact_square(m):
            t = sum((mass * loc * loc for loc, mass in m.points), F(0))
            return t + sum(
                (mass * (a * a + a * b + b * b) / 3 for a, b, mass in m.pieces),
                F(0))

        def random_mixture(rng):
            pts, pcs = [], []
            n_pts, n_pcs = rng.randint(0, 2), rng.randint(1, 2)
            weights = [rng.randint(1, 5) for _ in range(n_pts + n_pcs)]
            total, i = sum(weights), 0
            for _ in range(n_pts):
                den = rng.randint(1, 16)
                pts.append((F(rng.randint(0, den), den), F(weights[i], total)))
                i += 1
            for _ in range(n_pcs):
                lo = rng.randint(0, 14)
                hi = rng.randint(lo + 1, 15)
                pcs.append((F(lo, 16), F(hi, 16), F(weights[i], total)))
                i += 1
            return IntervalMeasure(tuple(pts), tuple(pcs))

        rng = random.Random(2024)
        mixtures = [IntervalMeasure.uniform()]
        mixtures += [random_mixture(rng) for _ in range(3)]
        integrands = ((lambda x: x, lambda e: e, exact_linear),
                      (lambda x: x * x, lambda e: e / 2, exact_square))
        ok = True
        for m in mixtures:
            for f, modulus, oracle in integrands:
                exact = oracle(m)
                errors, widths = [], []
                for eps in (F(1, 64), F(1, 1024)):
                    lo, hi = integrate_approx_bounds(f, modulus, eps, m)
                    mid = (lo + hi) / 2
                    ok = ok and abs(mid - exact) <= eps
                    ok = ok and lo <= exact <= hi
                    errors.append(abs(mid - exact))
                    widths.append(hi - lo)
                # refinement moves from the 2^-6 grid to the 2^-10 grid
                ok = ok and errors[1] <= errors[0] and widths[1] <= widths[0]
        assert_and_report(
            "criterion 8: integrator within eps at 2^-6 and 2^-10 for x and "
            "x^2 against uniform and three mixtures, improving monotonically "
            "under grid refinement", ok)

    def test_c09_counterexample(self):
        records = suite_records("counterexample", trials=500)
        ok = all(records[n].result == "pass" and records[n].trials >= 500
                 for n in ("limit-affine", "limit-weakly-averaging",
                           "limit-sup-lipschitz"))
        report = countable_additivity_violation()
        ok = ok and report["respects_limits"]["result"] == "fail"
        ok = ok and report["respects_limits"]["witness"]["stuck_at"] == "1/1"
        ok = ok and all(
            limit_functional(EventualFn.final_segment_indicator(n)) == 1
            for n in range(16))
        ok = ok and singleton_mass_sum(10 ** 4) == F(0)
        ok = ok and cofinite_measure(FinCofSet.whole()) == F(1)
        assert_and_report(
            "criterion 9: limit functional affine, weakly averaging, "
            "1-Lipschitz over 500 cases each; limits axiom fails pinned at 1; "
            "singleton masses sum to 0 against total mass 1", ok)

    def test_c10_determinism(self):
        ok = True
        for suite in ("monad-laws", "naturality", "counterexample", "all"):
            cfg = SuiteConfig(seed=99, trials=20)
            first = run_suite(suite, cfg).to_json()
            second = run_suite(suite, cfg).to_json()
            ok = ok and first == second
            ok = ok and json.loads(first)["result"] == "pass"
        assert_and_report(
            "criterion 10: identical seed and config reproduce byte-identical "
            "reports", ok)
