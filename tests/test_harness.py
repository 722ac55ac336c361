"""Suite runner: determinism, generators, refutation minimization."""

import hashlib
import json
import sys
from fractions import Fraction

import pytest

from girylab import config, harness
from girylab.cli import main
from girylab.errors import GirylabError, InvariantError
from girylab.codensity import AffineMap
from girylab.measures import Measure
from girylab.spaces import FinSpace, IFunction
from girylab.duality import Functional, max_functional, square_functional
from girylab.harness import (SUITE_NAMES, SuiteConfig, case_rng,
                             find_naturality_refutation, generate_functional,
                             generate_kernel, generate_measure,
                             generate_space, minimize_refutation, run_suite)
from girylab.verdicts import describe, failed, passed

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

    def test_suites_follow_the_config_names(self):
        assert tuple(harness.SUITES) == config.SUITE_NAMES
        assert harness.SUITE_NAMES is config.SUITE_NAMES
        assert harness.SuiteConfig is config.SuiteConfig


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


def _failing_witness(monkeypatch, name, trials=20, **patches):
    """The witness of property ``name`` run at seed 7 with the harness
    names in ``patches`` replaced; the property must fail."""
    for attr, value in patches.items():
        monkeypatch.setattr(harness, attr, value)
    (prop,) = [p for suite in harness.SUITES.values() for p in suite
               if p.name == name]
    record = prop.run(SuiteConfig(seed=7, trials=trials))
    assert record.result == "fail"
    return record.witness


class _Halved(AffineMap):
    """An affine map that reports half its value: h(1, ..., 1) = 1/2."""

    def __call__(self, xs):
        return super().__call__(xs) / 2


class TestFailingWitnesses:
    """The witness each hand-built failure writes, pinned whole."""

    def test_linearity_consequences(self, monkeypatch):
        witness = _failing_witness(
            monkeypatch, "linearity-consequences",
            to_functional=lambda pi: square_functional(pi.space))
        assert witness == {
            "axiom": "homogeneity",
            "f": {"atoms": ["a c", "b e", "d", "f g"],
                  "values": ["13/17", "7/15", "1/16", "43/50"]},
            "r": "26/27", "case": 0}

    def test_reconstruction_roundtrip_coefficients(self, monkeypatch):
        def first_atom(action, space, rng, trials):
            n = len(space.atoms)
            return Functional.extensional(space, (F(1),) + (F(0),) * (n - 1))

        witness = _failing_witness(monkeypatch, "reconstruction-roundtrip",
                                   functional_from_action=first_atom)
        assert witness == {
            "phi": {"kind": "extensional",
                    "coefficients": ["8/13", "0/1", "5/13"]},
            "recovered": ["1/1", "0/1", "0/1"], "case": 0}

    def test_reconstruction_roundtrip_values(self, monkeypatch):
        def squared(action, space, rng, trials):
            # agrees with the original on indicators, not on other values
            phi = action.__self__.phi
            return Functional.intensional(space, lambda f: phi(IFunction(
                space, tuple(v * v for v in f.values))), "squared")

        witness = _failing_witness(monkeypatch, "reconstruction-roundtrip",
                                   functional_from_action=squared)
        assert witness == {
            "phi": {"kind": "extensional",
                    "coefficients": ["8/13", "0/1", "5/13"]},
            "f": {"atoms": ["a", "b c", "d"],
                  "values": ["9/17", "25/36", "6/7"]},
            "case": 0}

    def test_hull_closure(self, monkeypatch):
        witness = _failing_witness(monkeypatch, "hull-closure",
                                   hull_membership=lambda verts, x, **kw: False)
        assert witness == {"vertices": [["5/7"], ["1/1"]],
                           "output": ["33/35"], "case": 0}

    def test_extensional_characterization(self, monkeypatch):
        def halved_projection(rng, n):
            return _Halved(n, F(0), (F(1),) + (F(0),) * (n - 1))

        witness = _failing_witness(monkeypatch, "extensional-characterization",
                                   sample_affine=halved_projection)
        assert witness == {
            "h": {"arity": 2, "a0": "0/1", "coefficients": ["1/1", "0/1"]},
            "weakly_averaging": False, "canonical_simplex_form": True,
            "case": 0}

    def test_law_with_context(self, monkeypatch):
        witness = _failing_witness(monkeypatch, "left-unit", trials=200,
                                   bind=_swap_weights(harness.bind))
        assert witness == {
            "point": "a",
            "lhs": {"atoms": ["a", "b", "c"],
                    "weights": ["1/3", "5/18", "7/18"]},
            "rhs": {"atoms": ["a", "b", "c"],
                    "weights": ["7/18", "5/18", "1/3"]},
            "case": 4}


class TestDescribe:
    """``verdicts.describe`` writes every witness value."""

    def test_scalars_stay(self):
        for value in (0, -3, "p/q", True, False, None):
            assert describe(value) is value

    def test_fractions_and_nesting(self):
        s = FinSpace.discrete(["a", "b"])
        pi = Measure(s, (F(1, 3), F(2, 3)))
        raw = {"r": F(-2, 4), "one": F(1), "xs": (F(0), [F(3, 6), "s", 2]),
               "d": {"inner": (pi, None, True)}}
        assert describe(raw) == {
            "r": "-1/2", "one": "1/1", "xs": ["0/1", ["1/2", "s", 2]],
            "d": {"inner": [{"atoms": ["a", "b"], "weights": ["1/3", "2/3"]},
                            None, True]}}
        assert describe(describe(raw)) == describe(raw)

    def test_objects_through_their_describe(self):
        s = FinSpace.discrete(["a", "b"])
        phi = Functional.extensional(s, (F(1, 4), F(3, 4)))
        assert describe(phi) == phi.describe()
        assert describe([phi]) == [{"kind": "extensional",
                                    "coefficients": ["1/4", "3/4"]}]

    def test_verdicts_describe_their_witness(self):
        assert failed("p", {"x": (F(1, 2),)}).witness == {"x": ["1/2"]}
        assert passed("p", witness={"x": F(2)}).witness == {"x": "2/1"}
        assert passed("p").witness is None


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
