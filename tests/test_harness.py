"""Suite runner: determinism, generators, refutation minimization."""

import hashlib
import json
import sys
from fractions import Fraction

import pytest

from girylab import harness
from girylab.cli import main
from girylab.errors import GirylabError, InvariantError
from girylab.measures import Measure
from girylab.spaces import FinSpace
from girylab.duality import Functional, max_functional, square_functional
from girylab.harness import (SUITE_NAMES, SuiteConfig, case_rng,
                             find_naturality_refutation, generate_functional,
                             generate_kernel, generate_measure,
                             generate_space, minimize_refutation, run_suite)

from strategies import brute_closure

F = Fraction


class TestConfig:
    def test_counts_validated(self):
        with pytest.raises(GirylabError):
            SuiteConfig(trials=0)
        with pytest.raises(GirylabError):
            SuiteConfig(max_carrier=0)

    def test_defaults(self):
        cfg = SuiteConfig()
        assert (cfg.trials, cfg.max_carrier, cfg.max_arity,
                cfg.max_hull_dim) == (500, 8, 4, 3)


class TestDeterminism:
    def test_same_seed_same_report_bytes(self):
        cfg = SuiteConfig(seed=123, trials=15)
        a = run_suite("duality", cfg).to_json()
        b = run_suite("duality", cfg).to_json()
        assert a == b

    def test_all_suite_deterministic(self):
        cfg = SuiteConfig(seed=5, trials=6)
        assert run_suite("all", cfg).to_json() == run_suite("all", cfg).to_json()

    def test_seed_changes_stream(self):
        r0 = case_rng(0, "prop", 0)
        r1 = case_rng(1, "prop", 0)
        assert [r0.randint(0, 10 ** 9) for _ in range(4)] != \
            [r1.randint(0, 10 ** 9) for _ in range(4)]

    def test_cases_have_independent_streams(self):
        r0 = case_rng(0, "prop", 0)
        r1 = case_rng(0, "prop", 1)
        assert [r0.randint(0, 10 ** 9) for _ in range(4)] != \
            [r1.randint(0, 10 ** 9) for _ in range(4)]


class TestSuites:
    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_each_suite_passes(self, name):
        report = run_suite(name, SuiteConfig(seed=2, trials=25))
        failing = [r.name for r in report.records if r.result != "pass"]
        assert not failing

    def test_unknown_suite(self):
        with pytest.raises(GirylabError):
            run_suite("nonsense", SuiteConfig())

    def test_refutation_properties_carry_witnesses(self):
        report = run_suite("naturality", SuiteConfig(seed=2, trials=10))
        by_name = {r.name: r for r in report.records}
        for name in ("naturality-refutes-max", "naturality-refutes-square"):
            assert by_name[name].result == "pass"
            assert by_name[name].witness is not None
            assert "h" in by_name[name].witness


class TestGenerators:
    def test_measures_sum_to_one(self):
        for i in range(100):
            rng = case_rng(0, "gen-measure", i)
            space = generate_space(rng, SuiteConfig())
            pi = generate_measure(rng, space)
            assert sum(pi.weights, F(0)) == F(1)
            assert all(w >= 0 for w in pi.weights)

    def test_spaces_are_closed(self):
        for i in range(60):
            rng = case_rng(0, "gen-space", i)
            space = generate_space(rng, SuiteConfig(max_carrier=8))
            assert space.sigma == brute_closure(len(space.carrier),
                                                list(space.atoms))

    def test_kernels_row_per_atom(self):
        rng = case_rng(0, "gen-kernel", 0)
        cfg = SuiteConfig()
        dom, cod = generate_space(rng, cfg), generate_space(rng, cfg)
        k = generate_kernel(rng, dom, cod)
        assert len(k.rows) == len(dom.atoms)

    def test_adversarial_mix_produces_refutations(self):
        cfg = SuiteConfig(seed=0, trials=1)
        refuted = 0
        adversarial = 0
        for i in range(120):
            rng = case_rng(0, "mix", i)
            space = FinSpace.discrete(["a", "b"])
            phi = generate_functional(rng, space, adversarial_rate=0.2)
            if phi.is_extensional:
                continue
            adversarial += 1
            if find_naturality_refutation(phi, 3, rng) is not None:
                refuted += 1
        assert adversarial > 0
        assert refuted == adversarial  # every adversary gets caught

    def test_mix_rate_zero_is_all_extensional(self):
        for i in range(60):
            rng = case_rng(0, "mix0", i)
            space = FinSpace.discrete(["a", "b"])
            assert generate_functional(rng, space, 0.0).is_extensional


class TestMinimization:
    def test_max_witness_is_small(self):
        witness = minimize_refutation(
            max_functional(FinSpace.discrete(["a", "b"])), 4, seed=0)
        assert witness is not None
        assert witness["h"]["arity"] <= 2

    def test_square_witness_is_small(self):
        witness = minimize_refutation(
            square_functional(FinSpace.discrete(["a", "b"])), 4, seed=0)
        assert witness is not None
        assert witness["h"]["arity"] <= 2

    def test_ladder_finds_nothing_for_admissible(self):
        space = FinSpace.discrete(["a", "b"])
        phi = Functional.extensional(space, (F(1, 3), F(2, 3)))
        assert find_naturality_refutation(
            phi, 3, case_rng(0, "ok", 0), budget=400) is None


class TestFailSoftCases:
    def test_raising_case_fails_its_property_only(self, monkeypatch):
        def case(cfg, rng):
            calls.append(rng)
            if len(calls) == 4:  # case index 3
                raise InvariantError("weights must sum to 1/1, got 2/1")
            return None

        calls = []
        later = []
        props = [harness.Property("raises-at-3", "a law", case),
                 harness.Property("runs-after", "another law",
                                  lambda cfg, rng: later.append(rng))]
        monkeypatch.setitem(harness.SUITES, "monad-laws", props)
        report = run_suite("monad-laws", SuiteConfig(seed=7, trials=10))
        first, second = report.records
        assert (first.result, first.trials) == ("fail", 4)
        assert first.witness == {"error": "weights must sum to 1/1, got 2/1",
                                 "case": 3}
        assert (second.result, second.trials) == ("pass", 10)
        assert len(later) == 10
        assert json.loads(report.to_json())["result"] == "fail"

    def test_raising_refutation_fails_its_property_only(self, monkeypatch):
        def raising_is_affine(phi, trials, seed):
            raise InvariantError("function value must lie in [0,1], got 3/2")

        monkeypatch.setattr(harness, "is_affine", raising_is_affine)
        report = run_suite("duality", SuiteConfig(seed=7, trials=10))
        failing = [i for i, r in enumerate(report.records)
                   if r.result != "pass"]
        assert [report.records[i].name for i in failing] == [
            "affine-refutes-max", "affine-refutes-square"]
        for i in failing:
            assert report.records[i].trials == 1
            assert report.records[i].witness == {
                "error": "function value must lie in [0,1], got 3/2",
                "case": 0}
        assert failing[-1] < len(report.records) - 1  # later ones still ran

    def test_refutation_not_found_fails_as_case_0(self, monkeypatch):
        def admissible(space):
            return Functional.extensional(space, (F(1, 3), F(2, 3)))

        props = [harness.Property(
            "naturality-refutes-admissible", "a law",
            harness._refutes_naturality(admissible, "admissible"))]
        monkeypatch.setitem(harness.SUITES, "naturality", props)
        (record,) = run_suite("naturality",
                              SuiteConfig(seed=7, trials=10)).records
        assert (record.result, record.trials) == ("fail", 1)
        assert record.witness == {
            "error": "no refutation found for admissible", "case": 0}

    def test_programming_errors_still_surface(self, monkeypatch):
        def case(cfg, rng):
            raise ZeroDivisionError("a bug, not a refutation")

        monkeypatch.setitem(harness.SUITES, "monad-laws",
                            [harness.Property("buggy", "a law", case)])
        with pytest.raises(ZeroDivisionError):
            run_suite("monad-laws", SuiteConfig(seed=7, trials=10))


#: sha256 of ``girylab verify all --seed 7 --trials 500`` stdout.
GOLDEN_SHA256 = "80fc569c6bdf6c740b6e920ae368a95140b1e8706cfdef8ecaed44febcb2a099"


class TestGoldenReport:
    @pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                        reason="golden digest recorded under Python 3.11.7")
    def test_verify_all_digest(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # no stray girylab.cfg
        assert main(["verify", "all", "--seed", "7", "--trials", "500"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256


def _swap_weights(fn):
    """fn with weights 0 and 2 of its resulting measure swapped, when
    there are at least three and they differ."""

    def mutated(*args):
        pi = fn(*args)
        w = list(pi.weights)
        if len(w) >= 3 and w[0] != w[2]:
            w[0], w[2] = w[2], w[0]
            return Measure(pi.space, tuple(w))
        return pi

    return mutated


class TestRefutingPower:
    # The first failing case of each law depends on every draw the cases
    # make, so these indices also pin the generated instances.
    @pytest.mark.parametrize("target, expected", [
        ("bind", {"left-unit": 4, "right-unit": 11, "associativity": 0,
                  "bind-is-mixture": 4}),
        ("flatten", {"flatten-point": 0, "flatten-dirac-decomposition": 0,
                     "flatten-associativity": 4, "flatten-naturality": 2,
                     "bind-is-mixture": 4, "multiplication-diagram": 10}),
    ])
    def test_weight_swap_is_refuted(self, monkeypatch, target, expected):
        monkeypatch.setattr(harness, target,
                            _swap_weights(getattr(harness, target)))
        report = run_suite("all", SuiteConfig(seed=7, trials=200))
        failing = {r.name: r.witness for r in report.records
                   if r.result != "pass"}
        assert {name: w["case"] for name, w in failing.items()} == expected
        for witness in failing.values():
            assert {"case", "lhs", "rhs"} <= set(witness)
