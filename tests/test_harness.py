"""Suite runner: determinism, generators, refutation minimization."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from girylab import config, counterexample, duality, harness, hull
from girylab.cli import main
from girylab.errors import GirylabError, InvariantError, RejectionError
from girylab.codensity import AffineMap
from girylab.measures import Measure
from girylab.monad import dirac
from girylab.spaces import FinSpace, IFunction
from girylab.duality import (Functional, clamped_sum_functional,
                             max_functional, square_functional)
from girylab.harness import (SUITE_NAMES, SuiteConfig, case_rng,
                             find_naturality_refutation, generate_functional,
                             generate_kernel, generate_measure,
                             generate_space, run_suite)
from girylab.verdicts import describe, failed, passed

from strategies import brute_closure, sigma

F = Fraction


class TestConfig:
    def test_counts_validated(self):
        with pytest.raises(GirylabError):
            SuiteConfig(trials=0)
        with pytest.raises(GirylabError):
            SuiteConfig(max_carrier=0)

    @pytest.mark.parametrize("field, cap", [
        ("max_carrier", 16), ("max_arity", 64), ("max_hull_dim", 4)])
    def test_counts_capped(self, field, cap):
        assert getattr(SuiteConfig(**{field: cap}), field) == cap
        with pytest.raises(GirylabError,
                           match=f"^{field} must be at most {cap}, got {cap + 1}$"):
            SuiteConfig(**{field: cap + 1})

    @pytest.mark.parametrize("field, value, kind", [
        ("seed", 1.5, "float"), ("trials", True, "bool"),
        ("trials", 2.5, "float")])
    def test_fields_are_ints(self, field, value, kind):
        with pytest.raises(InvariantError,
                           match=f"^{field} must be an int, got {kind}$"):
            SuiteConfig(**{field: value})

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

    def test_report_records_are_a_tuple_so_a_report_hashes(self):
        cfg = SuiteConfig(trials=1)
        a, b = run_suite("monad-laws", cfg), run_suite("monad-laws", cfg)
        assert type(a.records) is tuple
        assert a == b and hash(a) == hash(b)
        assert type(run_suite("all", cfg).records) is tuple

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
            assert sigma(space) == brute_closure(len(space.carrier),
                                                 list(space.atoms))

    def test_kernels_row_per_atom(self):
        rng = case_rng(0, "gen-kernel", 0)
        cfg = SuiteConfig()
        dom, cod = generate_space(rng, cfg), generate_space(rng, cfg)
        k = generate_kernel(rng, dom, cod)
        assert len(k.rows) == len(dom.atoms)

    def test_generated_functionals_are_extensional(self):
        for i in range(60):
            rng = case_rng(0, "mix0", i)
            space = FinSpace.discrete(["a", "b"])
            assert generate_functional(rng, space).is_extensional


class TestMinimization:
    @pytest.mark.parametrize("maker", [max_functional, square_functional,
                                       clamped_sum_functional])
    def test_ladder_refutes_every_adversary(self, maker):
        phi = maker(FinSpace.discrete(["a", "b"]))
        for i in range(8):
            assert find_naturality_refutation(
                phi, 3, case_rng(0, "adversary", i)) is not None

    def test_max_witness_is_small(self):
        witness = find_naturality_refutation(
            max_functional(FinSpace.discrete(["a", "b"])), 4,
            case_rng(0, "minimize", 0))
        assert witness is not None
        assert witness["h"]["arity"] <= 2

    def test_square_witness_is_small(self):
        witness = find_naturality_refutation(
            square_functional(FinSpace.discrete(["a", "b"])), 4,
            case_rng(0, "minimize", 0))
        assert witness is not None
        assert witness["h"]["arity"] <= 2

    def test_arity_one_refutes_max_by_reflection(self):
        # None of seed 0's random arity-1 maps refutes max, so only the
        # reflection x -> 1 - x the ladder appends finds its square.
        cfg = SuiteConfig(seed=0, max_arity=1)
        records = {p.name: p.run(cfg) for p in harness.NATURALITY
                   if p.name.startswith("naturality-refutes-")}
        assert {r.result for r in records.values()} == {"pass"}
        h = records["naturality-refutes-max"].witness["h"]
        assert h == {"arity": 1, "a0": "1/1", "coefficients": ["-1/1"]}

    def test_ladder_finds_nothing_for_admissible(self):
        space = FinSpace.discrete(["a", "b"])
        phi = Functional.extensional(space, (F(1, 3), F(2, 3)))
        assert find_naturality_refutation(phi, 3, case_rng(0, "ok", 0)) is None


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
            "linearity-consequences", "affine-refutes-max",
            "affine-refutes-square"]
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
            "axiom": "additivity: phi(f+h) = phi(f) + phi(h) when f+h <= 1",
            "f": {"atoms": ["a c", "b e", "d", "f g"],
                  "values": ["1/2", "1/1", "33/56", "0/1"]},
            "h": {"atoms": ["a c", "b e", "d", "f g"],
                  "values": ["1/2", "0/1", "23/56", "15/29"]},
            "lhs": "1/1", "rhs": "1/2", "case": 0}

    def test_linearity_consequences_reports_the_harness_case(self,
                                                              monkeypatch):
        # Square only on one-atom spaces: the first of those is case 4, and
        # is_affine's own trial index (0) must not replace it.
        to_functional = harness.to_functional
        witness = _failing_witness(
            monkeypatch, "linearity-consequences",
            to_functional=lambda pi: (square_functional(pi.space)
                                      if len(pi.space.atoms) == 1
                                      else to_functional(pi)))
        assert witness == {
            "axiom": "affine: phi(r*f + (1-r)*g) = r*phi(f) + (1-r)*phi(g)",
            "f": {"atoms": ["a"], "values": ["5/56"]},
            "g": {"atoms": ["a"], "values": ["3/5"]}, "r": "1/28",
            "lhs": "20802721/61465600", "rhs": "762673/2195200", "case": 4}

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
        assert phi.describe()["coefficients"] == (F(1, 4), F(3, 4))
        assert describe(phi) == describe(phi.describe())
        assert describe([phi]) == [{"kind": "extensional",
                                    "coefficients": ["1/4", "3/4"]}]

    def test_verdicts_describe_their_witness(self):
        assert failed("p", {"x": (F(1, 2),)}).witness == {"x": ["1/2"]}
        assert passed("p", witness={"x": F(2)}).witness == {"x": "2/1"}
        assert passed("p").witness is None


#: sha256 of ``girylab verify all --seed 7 --trials 500`` stdout.
GOLDEN_SHA256 = "80fc569c6bdf6c740b6e920ae368a95140b1e8706cfdef8ecaed44febcb2a099"


class TestGoldenReport:
    def test_verify_all_digest(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # no stray girylab.cfg
        assert main(["verify", "all", "--seed", "7", "--trials", "500"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256

    def test_the_benchmark_pins_the_same_digest(self):
        # The benchmark checks its verify-all run at seed 7 against its own
        # copy of the pin, so a re-baseline must move both.
        workloads = (Path(__file__).resolve().parents[1] / "perfbench"
                     / "workloads.py").read_text()
        assert f'GOLDEN_SHA256 = "{GOLDEN_SHA256}"' in workloads


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


def _reverse_output(fn):
    """fn with the weights of its resulting measure, or the coefficients
    of its resulting extensional functional, in reverse order."""

    def mutated(*args):
        out = fn(*args)
        if isinstance(out, Measure):
            return Measure(out.space, out.weights[::-1])
        if out.is_extensional:
            return Functional.extensional(out.space, out.measure.weights[::-1])
        return out

    return mutated


def _dirac_on_rejection(phi):
    """``to_measure`` giving the Dirac measure at the first point of a
    functional it rejects."""
    try:
        return duality.to_measure(phi)
    except RejectionError:
        return dirac(phi.space, phi.space.carrier[0])


def _inner_reversed(compose):
    """``AffineMap.compose`` with its inner maps in reverse order."""
    return lambda h, inner: compose(h, tuple(inner)[::-1])


def _probe_window(phi, w):
    """``respects_limits`` accepting any tail value up to 2^-12, the finest
    threshold of the probe window meant for naturals-indexed sequences."""
    value = phi(w.terms(max(w.certs)))
    if value <= F(1, 1 << counterexample.LIMIT_THRESHOLDS):
        return passed("respects limits")
    return failed("respects limits", {"stuck_at": value})


class TestRefutingPower:
    # The first failing case of each law depends on every draw the cases
    # make, so these indices also pin the generated instances.
    @pytest.mark.parametrize("target, expected", [
        ("bind", {"left-unit": 4, "right-unit": 11, "associativity": 0,
                  "bind-is-mixture": 4}),
        ("flatten", {"flatten-point": 0, "flatten-dirac-decomposition": 0,
                     "flatten-associativity": 4, "flatten-naturality": 2,
                     "bind-is-mixture": 4, "multiplication-diagram": 12}),
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

    # The bijection layer: each map's output reversed, in ``duality`` (for
    # its own callers, such as ``FunctionalMixture.measure_image``) and in
    # ``harness``.
    @pytest.mark.parametrize("target, expected", [
        ("to_measure", {"measure-roundtrip": 0, "functional-roundtrip": 7,
                        "unit-diagram": 1, "bijection-naturality": 2}),
        ("to_functional", {"measure-roundtrip": 0, "functional-roundtrip": 7}),
        ("mix_functionals", {"multiplication-diagram": 0}),
        ("pushforward_functional", {"unit-functional-naturality": 0,
                                    "bijection-naturality": 2}),
    ])
    def test_reversed_bijection_is_refuted(self, monkeypatch, target, expected):
        mutated = _reverse_output(getattr(duality, target))
        monkeypatch.setattr(duality, target, mutated)
        monkeypatch.setattr(harness, target, mutated)
        report = run_suite("duality", SuiteConfig(seed=7, trials=100))
        failing = {r.name: r.witness for r in report.records
                   if r.result != "pass"}
        assert {name: w["case"] for name, w in failing.items()} == expected
        for witness in failing.values():
            assert {"case", "lhs", "rhs"} <= set(witness)

    # The measure-side pushforward, patched where ``harness`` reads it.
    @pytest.mark.parametrize("suite, expected", [
        ("monad-laws", {"unit-naturality": 0}),
        ("duality", {"bijection-naturality": 2}),
        ("change-of-variables", {"change-of-variables": 2,
                                 "pushforward-identity": 0,
                                 "pushforward-composition": 8}),
    ])
    def test_reversed_pushforward_is_refuted(self, monkeypatch, suite,
                                             expected):
        monkeypatch.setattr(harness, "pushforward",
                            _reverse_output(harness.pushforward))
        report = run_suite(suite, SuiteConfig(seed=7, trials=100))
        failing = {r.name: r.witness for r in report.records
                   if r.result != "pass"}
        assert {name: w["case"] for name, w in failing.items()} == expected
        for witness in failing.values():
            assert {"case", "lhs", "rhs"} <= set(witness)

    # Extensional evaluation: an extensional body integrates its argument
    # with the argument's numerators reversed.
    @pytest.mark.parametrize("suite, expected", [
        ("duality", {"extensional-characterization": 9}),
        ("naturality", {"unit-element-evaluation": 0}),
        ("monoid-reduction", {"reconstruction-roundtrip": 0}),
    ])
    def test_reversed_extensional_evaluation_is_refuted(self, monkeypatch,
                                                        suite, expected):
        call = Functional.__call__

        def mutated(phi, f):
            if phi.is_extensional:
                f = IFunction(f.space, f.nums[::-1], f.den)
            return call(phi, f)

        monkeypatch.setattr(Functional, "__call__", mutated)
        report = run_suite(suite, SuiteConfig(seed=7, trials=100))
        failing = {r.name: r.witness for r in report.records
                   if r.result != "pass"}
        assert {name: w["case"] for name, w in failing.items()} == expected

    # A check that accepts everything must still fail its property: each
    # case also offers the check an input it has to reject.
    @pytest.mark.parametrize("module, target, stub, suite, expected, key", [
        pytest.param(hull, "_phase_one_feasible", lambda rows, rhs: True,
                     "convex-bound", {"hull-closure": 0}, "accepted_outside",
                     id="hull-feasible-always"),
        pytest.param(harness, "check_vanishing_component",
                     lambda alpha, fs, certified_len: passed("stub"),
                     "naturality", {"vanishing-component": 0},
                     "accepted_non_averaging", id="vanishing-component-always"),
        pytest.param(harness, "respects_limits", _probe_window, "duality",
                     {"respects-limits-extensional": 0}, "accepted_nonzero_tail",
                     id="respects-limits-probe-window"),
        pytest.param(harness, "sup_continuity_check",
                     lambda phi, f, g: passed("stub"), "counterexample",
                     {"limit-sup-lipschitz": 0}, "accepted_non_lipschitz",
                     id="sup-lipschitz-always"),
    ])
    def test_accepting_check_is_refuted(self, monkeypatch, module, target, stub,
                                        suite, expected, key):
        monkeypatch.setattr(module, target, stub)
        report = run_suite(suite, SuiteConfig(seed=7, trials=100))
        failing = {r.name: r.witness for r in report.records
                   if r.result != "pass"}
        assert {name: w["case"] for name, w in failing.items()} == expected
        assert all(key in w for w in failing.values())

    # The counterexample suite: each mutant is patched where ``harness``
    # and ``counterexample`` read it, so the separation report that
    # limits-axiom-refuted embeds sees it too.
    @pytest.mark.parametrize("target, stub, expected", [
        pytest.param("limit_functional", lambda f: f.tail ** 2,
                     {"limit-affine": 1, "limit-weakly-averaging": 0,
                      "limit-sup-lipschitz": 13}, id="limit-squares-the-tail"),
        pytest.param("cofinite_measure",
                     lambda a: F(1) if a.cofinite or a.elements else F(0),
                     {"measure-functional-consistency": 0,
                      "finite-additivity": 0, "limits-axiom-refuted": 0},
                     id="cofinite-measure-one-on-finite"),
        pytest.param("segments_respect_limits", lambda phi: passed("stub"),
                     {"limits-axiom-refuted": 0}, id="respects-limits-always"),
    ])
    def test_counterexample_mutant_is_refuted(self, monkeypatch, target, stub,
                                              expected):
        for module in (harness, counterexample):
            if hasattr(module, target):
                monkeypatch.setattr(module, target, stub)
        report = run_suite("counterexample", SuiteConfig(seed=7, trials=100))
        failing = {r.name: r.witness for r in report.records
                   if r.result != "pass"}
        assert {name: w["case"] for name, w in failing.items()} == expected

    # The naturality suite: squares drawn for a non-affine functional must
    # fail, and a square check that passes everything must leave the
    # refutation searches with nothing found.
    @pytest.mark.parametrize("target, stub, expected, key", [
        pytest.param("to_functional", lambda pi: square_functional(pi.space),
                     {"lifted-extensional-naturality": 1,
                      "sequence-naturality": 0}, "residual",
                     id="square-functional"),
        pytest.param("check_naturality", lambda alpha, h, fs: passed("stub"),
                     {"naturality-refutes-max": 0,
                      "naturality-refutes-square": 0}, "error",
                     id="naturality-always"),
    ])
    def test_naturality_mutant_is_refuted(self, monkeypatch, target, stub,
                                          expected, key):
        monkeypatch.setattr(harness, target, stub)
        report = run_suite("naturality", SuiteConfig(seed=7, trials=100))
        failing = {r.name: r.witness for r in report.records
                   if r.result != "pass"}
        assert {name: w["case"] for name, w in failing.items()} == expected
        assert all(key in w for w in failing.values())

    # The last planted defects, each patched where ``harness`` reads it
    # (``AffineMap`` is the class ``harness`` imports).  A failing record's
    # trials count the cases run, so a refutation fails with trials 1.
    @pytest.mark.parametrize("owner, target, stub, suite, expected", [
        pytest.param(harness, "is_affine",
                     lambda phi, trials, seed: passed("stub", trials),
                     "duality", {"affine-refutes-max": 0,
                                 "affine-refutes-square": 0},
                     id="is-affine-always"),
        pytest.param(harness, "to_measure", _dirac_on_rejection, "duality",
                     {"max-functional-rejected": 0},
                     id="to-measure-dirac-on-rejection"),
        pytest.param(harness, "to_functional",
                     lambda pi: square_functional(pi.space), "duality",
                     {"measure-roundtrip": 0, "functional-roundtrip": 0,
                      "linearity-consequences": 0, "multiplication-diagram": 0,
                      "bijection-naturality": 0}, id="square-functional"),
        pytest.param(AffineMap, "compose", _inner_reversed(AffineMap.compose),
                     "naturality", {"affine-composition-closure": 2},
                     id="compose-inner-reversed"),
        pytest.param(harness, "functional_from_action",
                     lambda action, space, rng, trials:
                     duality.evaluation_at(space, space.carrier[0]),
                     "monoid-reduction", {"reconstruction-roundtrip": 0,
                                          "entrywise-max-refuted": 0},
                     id="reconstruction-first-point-dirac"),
        pytest.param(harness, "extend_to_convex",
                     lambda phi, verts, points:
                     hull.extend_to_convex(phi, verts, points)[::-1],
                     "convex-bound", {"hull-closure": 2, "dirac-extension": 0},
                     id="extension-reversed"),
    ])
    def test_planted_defect_is_refuted(self, monkeypatch, owner, target, stub,
                                       suite, expected):
        monkeypatch.setattr(owner, target, stub)
        report = run_suite(suite, SuiteConfig(seed=7, trials=100))
        failing = {r.name: (r.witness["case"], r.trials) for r in report.records
                   if r.result != "pass"}
        assert failing == {name: (case, case + 1)
                           for name, case in expected.items()}

    def test_every_property_fails_in_a_pinned_row(self):
        """Each property ``run_suite("all")`` reports is a key of the
        ``expected`` failures of some parametrized row above."""
        pinned = set()
        for test in vars(type(self)).values():
            for mark in getattr(test, "pytestmark", ()):
                argnames, rows = mark.args
                column = [n.strip() for n in argnames.split(",")].index(
                    "expected")
                for row in rows:
                    pinned.update(getattr(row, "values", row)[column])
        names = [r.name for r in
                 run_suite("all", SuiteConfig(seed=7, trials=1)).records]
        assert len(set(names)) == len(names) == 41
        assert set(names) - pinned == set()
