"""Randomized property suites: case generation, seeding, verdicts.

Every case draws from its own deterministic stream derived from
(seed, property name, case index), so reports are byte-identical across
reruns and independent of execution order.  Random rationals use
bounded denominators (the identities under test are denominator
agnostic) and measures are built from integer compositions normalized
exactly, never from floats.

Each suite is a table of ``Property(name, law, case)`` run by one loop:
``case(cfg, rng)`` checks case i on its own stream, returning None when it
holds or a witness dict of raw values when it fails; the first failing
case ends the run, and a GirylabError fails only its property.  Witnesses
are written by ``verdicts.describe`` when the Verdict is made, so no case
formats a value itself.  A case has one of two shapes: an equality law,
``_law(sides)``, or a function that returns None or the witness dict
itself, a check decided by a Verdict passing on that Verdict's witness.
A refutation is one case: when it finds its witness it returns a
passing Verdict with that witness and its own trials, and when it does
not it returns the witness dict, so it fails as case 0 with trials 1.

Refutation searches walk a smallest-first ladder of candidate
witnesses (projections, constants, binary blends, then random shapes
of growing arity) under a bounded step budget, so a hit is the first
candidate in that ladder's order.  A naturality refutation walks the
ladder twice, on two streams: its trials are the first walk's steps and
its witness is the second walk's hit, which may come earlier or later.
"""

from __future__ import annotations

import hashlib
import json
import random
import string
import time
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .config import FIELDS, SUITE_NAMES, SuiteConfig
from .errors import ActionSquareError, GirylabError, RejectionError
from .rational import HALF, ONE, ZERO, lift, random_fraction
from .spaces import (FinSpace, Frozen, IFunction, MeasMap, atom_indicator,
                     generate_ifunction, sigma_from_masks)
from .measures import Measure, integrate, pushforward
from .monad import Kernel, MetaMeasure, bind, dirac, flatten, kleisli_compose
from .duality import (Functional, FunctionalMixture, LimitWitness,
                      evaluation_at, is_affine, max_functional, mix_functionals,
                      pushforward_functional, respects_limits,
                      square_functional, to_functional, to_measure)
from .codensity import (AffineMap, CodensityElement, VanishingSequence,
                        check_naturality, check_vanishing_component,
                        functional_from_action, sample_affine,
                        sample_sequence_affine)
from .hull import extend_to_convex, hull_membership
from .counterexample import (EventualFn, FinCofSet, cofinite_measure,
                             countable_additivity_violation, limit_functional,
                             sup_continuity_check)
from .verdicts import failed, passed


def case_rng(seed: int, prop: str, index: int) -> random.Random:
    """Independent deterministic stream for one case of one property."""
    digest = hashlib.sha256(f"{seed}:{prop}:{index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class PropertyRecord(Frozen):
    """One property's outcome.  ``duration``, the wall-clock seconds it
    took, is kept beside the fields, so two runs of one suite compare
    equal, and off the canonical serialization."""

    _fields = ("name", "law", "result", "witness", "trials", "seed")

    def __init__(self, name, law, result, witness, trials, seed, duration):
        super().__init__(name, law, result, witness, trials, seed)
        object.__setattr__(self, "duration", duration)

    def to_jsonable(self) -> dict:
        return {"property": self.name, "law": self.law, "result": self.result,
                "witness": self.witness, "trials": self.trials,
                "seed": self.seed}


class Report(Frozen):
    _fields = ("suite", "config", "records")

    @property
    def passed(self) -> bool:
        return all(r.result == "pass" for r in self.records)

    def to_jsonable(self) -> dict:
        return {"suite": self.suite,
                "config": {name: getattr(self.config, name) for name in FIELDS},
                "result": "pass" if self.passed else "fail",
                "properties": [r.to_jsonable() for r in self.records]}

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), sort_keys=True)


# -- generators ----------------------------------------------------------


def generate_space(rng: random.Random, cfg: SuiteConfig,
                   min_points: int = 1) -> FinSpace:
    n = rng.randint(min_points, max(min_points, cfg.max_carrier))
    gens = [sum(1 << i for i in range(n) if rng.random() < 0.5)
            for _ in range(rng.randint(0, 3))]
    return sigma_from_masks(tuple(string.ascii_lowercase[:n]), gens)


def _random_parts(rng: random.Random, k: int) -> tuple[list[int], int]:
    """k probability weights as an integer composition and its total:
    the weights are parts[i] / total, no floats involved."""
    parts = [rng.randint(0, 8) for _ in range(k)]
    if sum(parts) == 0:
        parts[rng.randrange(k)] = 1
    return parts, sum(parts)


def _random_weights(rng: random.Random, k: int) -> tuple[Fraction, ...]:
    """k probability weights: ``_random_parts`` normalized exactly."""
    parts, total = _random_parts(rng, k)
    return tuple(Fraction(p, total) for p in parts)


def generate_measure(rng: random.Random, space: FinSpace) -> Measure:
    return Measure(space, *_random_parts(rng, len(space.atoms)))


def generate_measurable_map(rng: random.Random, dom: FinSpace,
                            cod: FinSpace) -> MeasMap:
    """Constant on dom atoms, hence measurable by construction: one
    target point drawn per atom, in atom order."""
    targets = [rng.randrange(len(cod.carrier)) for _ in dom.atoms]
    return MeasMap(dom, cod, tuple(targets[dom.atom_index_of_point(x)]
                                   for x in dom.carrier))


def generate_kernel(rng: random.Random, dom: FinSpace, cod: FinSpace) -> Kernel:
    return Kernel(dom, cod, tuple(
        generate_measure(rng, cod) for _ in dom.atoms))


def generate_meta_measure(rng: random.Random, space: FinSpace,
                          width: int = 4) -> MetaMeasure:
    k = rng.randint(1, width)
    return MetaMeasure(space, tuple(
        (generate_measure(rng, space), w) for w in _random_weights(rng, k)))


def generate_functional(rng: random.Random, space: FinSpace) -> Functional:
    """Integration against a generated measure."""
    return to_functional(generate_measure(rng, space))


def generate_functional_mixture(rng: random.Random,
                                space: FinSpace) -> FunctionalMixture:
    k = rng.randint(1, 4)
    return FunctionalMixture(space, tuple(
        (generate_functional(rng, space), w) for w in _random_weights(rng, k)))


#: The most vertices a generated polytope has.
MAX_POLYTOPE_VERTICES = 10


def generate_polytope(rng: random.Random, cfg: SuiteConfig):
    dim = rng.randint(1, cfg.max_hull_dim)
    n = rng.randint(1, MAX_POLYTOPE_VERTICES)
    verts = [tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 8))
                   for _ in range(dim)) for _ in range(n)]
    return verts


def point_in_hull(rng: random.Random, verts) -> tuple[Fraction, ...]:
    """A convex combination of ``verts`` with ``_random_parts`` weights,
    each coordinate one integer sum over the parts' total."""
    parts, total = _random_parts(rng, len(verts))
    return tuple(Fraction(sum(map(mul, parts, nums)), total * den)
                 for nums, den in map(lift, zip(*verts)))


def generate_eventual_fn(rng: random.Random) -> EventualFn:
    width = rng.randint(0, 6)
    return EventualFn(tuple(random_fraction(rng) for _ in range(width)),
                      random_fraction(rng))


def generate_fincof(rng: random.Random) -> FinCofSet:
    elems = frozenset(n for n in range(10) if rng.random() < 0.4)
    return FinCofSet(rng.random() < 0.5, elems)


def generate_limit_witness(rng: random.Random, space: FinSpace) -> LimitWitness:
    """A certified sequence vanishing pointwise: each atom gets a cutoff
    index, before which the values shrink dyadically."""
    certs = [rng.randint(0, 6) for _ in space.atoms]
    starts = [random_fraction(rng) for _ in space.atoms]

    def term(n: int) -> IFunction:
        vals = tuple(
            start / (1 << n) if n < cut else ZERO
            for start, cut in zip(starts, certs))
        return IFunction(space, vals)

    return LimitWitness(space, term, certs)


# -- refutation ladder ------------------------------------------------------


def _witness_ladder(space: FinSpace, max_arity: int, rng: random.Random):
    """Candidate (h, fs) pairs ordered by size: projections, constants,
    blends, then random shapes, with structured function tuples first."""
    base_fns = [atom_indicator(space, i) for i in range(len(space.atoms))]
    base_fns += [IFunction.constant(space, ZERO),
                 IFunction.constant(space, ONE),
                 IFunction.constant(space, HALF)]

    def tuples(arity: int):
        picks = []
        for start in range(len(base_fns)):
            picks.append(tuple(base_fns[(start + j) % len(base_fns)]
                               for j in range(arity)))
        picks.append(tuple(generate_ifunction(rng, space) for _ in range(arity)))
        return picks

    for arity in range(1, max_arity + 1):
        hs = [AffineMap.projection(arity, i) for i in range(arity)]
        hs += [AffineMap.constant(arity, r) for r in (HALF, ZERO, ONE)]
        if arity == 2:
            hs += [AffineMap.blend(r) for r in
                   (HALF, Fraction(1, 4), Fraction(3, 4))]
        hs += [sample_affine(rng, arity) for _ in range(4)]
        if arity == 1:
            # Every fixed map above is increasing or constant; reflection
            # makes the arity-1 rung refute without a lucky random draw.
            hs.append(AffineMap(1, ONE, (-ONE,)))
        for h in hs:
            for fs in tuples(arity):
                yield h, fs


#: Candidate squares a refutation search tries before giving up.
REFUTATION_BUDGET = 1000


def find_naturality_refutation(phi: Functional, max_arity: int,
                               rng: random.Random) -> Optional[dict]:
    """Smallest-first search for a failing naturality square, over at
    most ``REFUTATION_BUDGET`` candidates."""
    alpha = CodensityElement(phi)
    steps = 0
    for h, fs in _witness_ladder(phi.space, max_arity, rng):
        if steps >= REFUTATION_BUDGET:
            return None
        steps += 1
        verdict = check_naturality(alpha, h, fs)
        if not verdict.passed:
            return dict(verdict.witness, search_steps=steps, functional=phi)
    return None


# -- properties -------------------------------------------------------------


class Property(Frozen):
    """A law checked case by case.  ``case(cfg, rng)`` checks case i on
    the stream ``case_rng(seed, name, i)`` and returns None when it holds,
    a witness dict of raw values when it fails (``failed`` describes it),
    or a passing Verdict that decides the property with its own witness
    and trials.  The first failing case ends the run.  A case that raises
    a GirylabError fails the property with witness {"error": message,
    "case": i}, so the rest of the suite still runs; other exceptions
    propagate."""

    _fields = ("name", "law", "case")

    def run(self, cfg: SuiteConfig) -> PropertyRecord:
        start = time.perf_counter()
        verdict = passed(self.name, cfg.trials)
        for i in range(cfg.trials):
            try:
                outcome = self.case(cfg, case_rng(cfg.seed, self.name, i))
            except GirylabError as exc:
                outcome = {"error": str(exc)}
            if isinstance(outcome, dict):
                outcome = failed(self.name, outcome, i + 1)
            if outcome is not None:
                verdict = outcome
                if not verdict.passed:
                    verdict.witness.setdefault("case", i)
                break
        return PropertyRecord(self.name, self.law, verdict.result,
                              verdict.witness, verdict.trials, cfg.seed,
                              time.perf_counter() - start)


def _law(sides):
    """The case of an equality law: ``sides(cfg, rng)`` builds (lhs, rhs)
    or (lhs, rhs, context), and a mismatch fails with both sides and the
    context.  Sides compare with ``==``, so extensional functionals
    compare by space and coefficients."""

    def case(cfg, rng):
        lhs, rhs, *context = sides(cfg, rng)
        if lhs == rhs:
            return None
        return dict(context[0] if context else {}, lhs=lhs, rhs=rhs)

    return case


# monad laws ---------------------------------------------------------------


def _left_unit(cfg, rng):
    space = generate_space(rng, cfg)
    cod = generate_space(rng, cfg)
    k = generate_kernel(rng, space, cod)
    point = rng.choice(space.carrier)
    return bind(dirac(space, point), k), k.at_point(point), {"point": point}


def _right_unit(cfg, rng):
    space = generate_space(rng, cfg)
    pi = generate_measure(rng, space)
    return bind(pi, Kernel.identity(space)), pi


def _associativity(cfg, rng):
    a = generate_space(rng, cfg)
    b = generate_space(rng, cfg)
    c = generate_space(rng, cfg)
    pi = generate_measure(rng, a)
    k1 = generate_kernel(rng, a, b)
    k2 = generate_kernel(rng, b, c)
    return bind(bind(pi, k1), k2), bind(pi, kleisli_compose(k1, k2))


def _flatten_point(cfg, rng):
    space = generate_space(rng, cfg)
    pi = generate_measure(rng, space)
    return flatten(MetaMeasure.point(pi)), pi


def _flatten_dirac_decomposition(cfg, rng):
    space = generate_space(rng, cfg)
    pi = generate_measure(rng, space)
    support = tuple(
        (dirac(space, space.labels_of(atom)[0]), w)
        for atom, w in zip(space.atoms, pi.weights))
    return flatten(MetaMeasure(space, support)), pi


def _flatten_associativity(cfg, rng):
    space = generate_space(rng, cfg)
    k = rng.randint(1, 3)
    weights = _random_weights(rng, k)
    metas = [generate_meta_measure(rng, space, width=3) for _ in range(k)]
    # flatten the inner layer first, then the outer mixture
    inner_first = flatten(MetaMeasure(space, tuple(
        (flatten(mm), w) for mm, w in zip(metas, weights))))
    # merge the two outer layers first, then flatten once
    merged = MetaMeasure(space, tuple(
        (measure, w * inner_w)
        for mm, w in zip(metas, weights)
        for measure, inner_w in mm.support))
    return inner_first, flatten(merged)


def _unit_naturality(cfg, rng):
    dom = generate_space(rng, cfg)
    cod = generate_space(rng, cfg)
    g = generate_measurable_map(rng, dom, cod)
    point = rng.choice(dom.carrier)
    return (pushforward(g, dirac(dom, point)), dirac(cod, g.apply(point)),
            {"point": point})


def _flatten_naturality(cfg, rng):
    dom = generate_space(rng, cfg)
    cod = generate_space(rng, cfg)
    g = generate_measurable_map(rng, dom, cod)
    mm = generate_meta_measure(rng, dom)
    return pushforward(g, flatten(mm)), flatten(MetaMeasure(cod, tuple(
        (pushforward(g, measure), w) for measure, w in mm.support)))


def _bind_is_mixture(cfg, rng):
    dom = generate_space(rng, cfg)
    cod = generate_space(rng, cfg)
    pi = generate_measure(rng, dom)
    k = generate_kernel(rng, dom, cod)
    return bind(pi, k), flatten(MetaMeasure(cod, tuple(zip(k.rows, pi.weights))))


MONAD_LAWS = [
    Property("left-unit", "bind(dirac(w), k) = k(w)", _law(_left_unit)),
    Property("right-unit",
             "bind(pi, identity kernel) = pi", _law(_right_unit)),
    Property("associativity",
             "bind(bind(pi,k1),k2) = bind(pi, k1 then k2)",
             _law(_associativity)),
    Property("flatten-point",
             "flatten(point mixture at pi) = pi", _law(_flatten_point)),
    Property("flatten-dirac-decomposition",
             "flatten(diracs weighted by pi) = pi",
             _law(_flatten_dirac_decomposition)),
    Property("flatten-associativity",
             "flattening two mixture layers is order-independent",
             _law(_flatten_associativity)),
    Property("unit-naturality",
             "pushforward(g, dirac(w)) = dirac(g(w))", _law(_unit_naturality)),
    Property("flatten-naturality",
             "pushforward after flatten = flatten after mapped pushforwards",
             _law(_flatten_naturality)),
    Property("bind-is-mixture",
             "bind(pi, k) = flatten(rows of k weighted by pi)",
             _law(_bind_is_mixture)),
]


# duality -------------------------------------------------------------------


def _measure_roundtrip(cfg, rng):
    space = generate_space(rng, cfg)
    pi = generate_measure(rng, space)
    return to_measure(to_functional(pi)), pi


def _functional_roundtrip(cfg, rng):
    space = generate_space(rng, cfg)
    phi = to_functional(generate_measure(rng, space))
    return to_functional(to_measure(phi)), phi


def _case_max_rejected(cfg, rng):
    space = generate_space(rng, cfg, min_points=2)
    if len(space.atoms) < 2:
        space = FinSpace.discrete(["a", "b"])
    try:
        to_measure(max_functional(space))
    except RejectionError as exc:
        return None if exc.witness else {"missing": "witness"}
    return {"error": "max functional was not rejected",
            "atoms": space.describe_atoms()}


def _case_extensional_characterization(cfg, rng):
    space = generate_space(rng, cfg)
    n = len(space.atoms)
    h = sample_affine(rng, n)
    zeros, ones = (ZERO,) * n, (ONE,) * n
    weakly_averaging = h(zeros) == ZERO and h(ones) == ONE
    canonical = (h.a0 == ZERO and sum(h.coeffs, ZERO) == ONE
                 and all(c >= 0 for c in h.coeffs))
    if weakly_averaging != canonical:
        return {"h": h, "weakly_averaging": weakly_averaging,
                "canonical_simplex_form": canonical}
    if canonical:
        phi = Functional.extensional(space, h.coeffs)
        f = generate_ifunction(rng, space)
        if phi(f) != h(f.values):
            return {"h": h, "f": f}
    return None


def _case_int_prop_extensional(cfg, rng):
    space = generate_space(rng, cfg)
    phi = to_functional(generate_measure(rng, space))
    verdict = is_affine(phi, trials=1, seed=rng.getrandbits(64))
    if verdict.passed:
        return None
    # ``Property.run`` stamps this case's index, not is_affine's trial.
    return {k: v for k, v in verdict.witness.items() if k != "case"}


def _adversarial_refuted(maker, label: str):
    def case(cfg, rng):
        space = FinSpace.discrete(["a", "b", "c"])
        verdict = is_affine(maker(space), trials=cfg.trials, seed=cfg.seed)
        if verdict.passed:
            return {"error": f"{label} functional passed is_affine"}
        return passed(verdict.property, verdict.trials, witness=verdict.witness)
    return case


def _unit_diagram(cfg, rng):
    space = generate_space(rng, cfg)
    point = rng.choice(space.carrier)
    return (to_measure(evaluation_at(space, point)), dirac(space, point),
            {"point": point})


def _multiplication_diagram(cfg, rng):
    space = generate_space(rng, cfg)
    psi = generate_functional_mixture(rng, space)
    return to_measure(mix_functionals(psi)), flatten(psi.measure_image())


def _unit_functional_naturality(cfg, rng):
    dom = generate_space(rng, cfg)
    cod = generate_space(rng, cfg)
    g = generate_measurable_map(rng, dom, cod)
    point = rng.choice(dom.carrier)
    return (pushforward_functional(g, evaluation_at(dom, point)),
            evaluation_at(cod, g.apply(point)), {"point": point})


def _bijection_naturality(cfg, rng):
    dom = generate_space(rng, cfg)
    cod = generate_space(rng, cfg)
    g = generate_measurable_map(rng, dom, cod)
    phi = to_functional(generate_measure(rng, dom))
    return (to_measure(pushforward_functional(g, phi)),
            pushforward(g, to_measure(phi)))


def _respects_limits_extensional(cfg, rng):
    space = generate_space(rng, cfg)
    phi = to_functional(generate_measure(rng, space))
    w = generate_limit_witness(rng, space)
    verdict = respects_limits(phi, w)
    if not verdict.passed:
        return dict(verdict.witness, error="extensional functional failed")
    # A functional pinned at 1/8192 sends the zero tail to 1/8192: below
    # every threshold the naturals probe window tests
    # (``counterexample.segments_respect_limits``), but not zero, so the
    # exact decision that just passed ``phi`` must refute it.
    offset = Functional.intensional(space, lambda f: Fraction(1, 8192),
                                    "constant 1/8192")
    if respects_limits(offset, w).passed:
        return {"accepted_nonzero_tail": offset.label}
    return None


DUALITY = [
    Property("measure-roundtrip",
             "to_measure(to_functional(pi)) = pi", _law(_measure_roundtrip)),
    Property("functional-roundtrip",
             "to_functional(to_measure(phi)) = phi on coefficients",
             _law(_functional_roundtrip)),
    Property("max-functional-rejected",
             "to_measure rejects the max functional with an additivity "
             "witness", _case_max_rejected),
    Property("extensional-characterization",
             "affine into-I form is weakly averaging iff a0=0 and "
             "coefficients form a probability vector",
             _case_extensional_characterization),
    Property("linearity-consequences",
             "homogeneity, additivity, monotonicity hold for coefficient "
             "bodies", _case_int_prop_extensional),
    Property("affine-refutes-max",
             "randomized affineness search refutes the max functional",
             _adversarial_refuted(max_functional, "max")),
    Property("affine-refutes-square",
             "randomized affineness search refutes the square functional",
             _adversarial_refuted(square_functional, "square")),
    Property("unit-diagram",
             "to_measure(evaluation at w) = dirac(w)", _law(_unit_diagram)),
    Property("multiplication-diagram",
             "to_measure(mixture) = flatten of the componentwise measures",
             _law(_multiplication_diagram)),
    Property("unit-functional-naturality",
             "mapping evaluation-at-w forward gives evaluation at g(w)",
             _law(_unit_functional_naturality)),
    Property("bijection-naturality",
             "to_measure commutes with pushforward on both sides",
             _law(_bijection_naturality)),
    Property("respects-limits-extensional",
             "coefficient functionals respect certified vanishing sequences",
             _respects_limits_extensional),
]


# change of variables --------------------------------------------------------


def _change_of_variables(cfg, rng):
    dom = generate_space(rng, cfg)
    cod = generate_space(rng, cfg)
    g = generate_measurable_map(rng, dom, cod)
    pi = generate_measure(rng, dom)
    f = generate_ifunction(rng, cod)
    return (integrate(f.compose_with(g), pi), integrate(f, pushforward(g, pi)),
            {"g": [g.apply(x) for x in dom.carrier], "pi": pi, "f": f})


def _pushforward_identity(cfg, rng):
    space = generate_space(rng, cfg)
    pi = generate_measure(rng, space)
    return pushforward(MeasMap.identity(space), pi), pi


def _pushforward_composition(cfg, rng):
    a = generate_space(rng, cfg)
    b = generate_space(rng, cfg)
    c = generate_space(rng, cfg)
    h = generate_measurable_map(rng, a, b)
    g = generate_measurable_map(rng, b, c)
    pi = generate_measure(rng, a)
    return pushforward(g.compose(h), pi), pushforward(g, pushforward(h, pi))


CHANGE_OF_VARIABLES = [
    Property("change-of-variables",
             "integral of f after g against pi = integral of f against the "
             "pushforward", _law(_change_of_variables)),
    Property("pushforward-identity",
             "pushforward along the identity is the identity",
             _law(_pushforward_identity)),
    Property("pushforward-composition",
             "pushforward of a composite = composite of pushforwards",
             _law(_pushforward_composition)),
]


# naturality -----------------------------------------------------------------


def generate_naturality_square(rng: random.Random, space: FinSpace,
                               max_arity: int) -> tuple[AffineMap, tuple]:
    """An affine map h of arity at most ``max_arity`` and a tuple of
    functions on ``space`` to feed it: h is forced to a projection, a
    constant or a binary blend in 3 of 6 draws, and random otherwise."""
    arity = rng.randint(1, max_arity)
    kind = rng.choice(("projection", "constant", "blend", None, None, None))
    if kind == "blend":
        arity = 2
    h = sample_affine(rng, arity, kind)
    return h, tuple(generate_ifunction(rng, space) for _ in range(arity))


def _lifted_naturality(cfg, rng):
    space = generate_space(rng, cfg)
    phi = to_functional(generate_measure(rng, space))
    h, fs = generate_naturality_square(rng, space, cfg.max_arity)
    verdict = check_naturality(CodensityElement(phi), h, fs)
    return None if verdict.passed else dict(verdict.witness, functional=phi)


def _sequence_naturality(cfg, rng):
    space = generate_space(rng, cfg)
    phi = to_functional(generate_measure(rng, space))
    length = rng.randint(1, cfg.max_arity)
    h = sample_sequence_affine(rng, length)
    fs = tuple(generate_ifunction(rng, space) for _ in range(length))
    verdict = check_naturality(CodensityElement(phi), h, fs)
    return None if verdict.passed else dict(verdict.witness, functional=phi)


def _vanishing_component(cfg, rng):
    space = generate_space(rng, cfg)
    phi = to_functional(generate_measure(rng, space))
    length = rng.randint(0, cfg.max_arity)
    fs = [generate_ifunction(rng, space) for _ in range(length)]
    fs += [IFunction.constant(space, ZERO)] * rng.randint(0, 2)
    verdict = check_vanishing_component(CodensityElement(phi), fs,
                                        certified_len=length)
    if not verdict.passed:
        return verdict.witness
    # A functional fixed at 1/2 is not weakly averaging: its component
    # sends the zero function past the certified index to 1/2, off the
    # vanishing set, so the check that just passed must refute it.
    half = Functional.intensional(space, lambda f: HALF, "constant 1/2")
    if check_vanishing_component(CodensityElement(half),
                                 fs + [IFunction.constant(space, ZERO)],
                                 certified_len=len(fs)).passed:
        return {"accepted_non_averaging": half.label}
    return None


def _unit_element_evaluation(cfg, rng):
    space = generate_space(rng, cfg)
    point = rng.choice(space.carrier)
    alpha = CodensityElement(evaluation_at(space, point))
    arity = rng.randint(1, cfg.max_arity)
    fs = tuple(generate_ifunction(rng, space) for _ in range(arity))
    return (alpha.at_power(fs), tuple(f.at_point(point) for f in fs),
            {"point": point})


def _affine_composition(cfg, rng):
    outer_arity = rng.randint(1, cfg.max_arity)
    inner_arity = rng.randint(1, cfg.max_arity)
    h = sample_affine(rng, outer_arity)
    gs = tuple(sample_affine(rng, inner_arity) for _ in range(outer_arity))
    xs = tuple(random_fraction(rng) for _ in range(inner_arity))
    return (h.compose(gs)(xs), h([g(xs) for g in gs]),
            {"h": h, "inner": gs, "x": xs})


def _refutes_naturality(maker, label: str):
    def case(cfg, rng):
        space = FinSpace.discrete(["a", "b"])
        phi, max_arity = maker(space), min(cfg.max_arity, 3)
        witness = find_naturality_refutation(
            phi, max_arity, case_rng(cfg.seed, f"refute-{label}", 0))
        if witness is None:
            return {"error": f"no refutation found for {label}"}
        # A second walk of the ladder, on another stream.  It does not
        # minimize: its random stages draw anew, so its hit may come before
        # or after the first walk's.  It stays because the golden report
        # pins its witness (and the first walk's step count as trials).
        second = find_naturality_refutation(
            phi, max_arity, case_rng(cfg.seed, "minimize", 0))
        return passed("naturality refuted", witness["search_steps"],
                      witness=second or witness)
    return case


NATURALITY = [
    Property("lifted-extensional-naturality",
             "families lifted from coefficient functionals pass every affine "
             "naturality square", _lifted_naturality),
    Property("sequence-naturality",
             "the sequence component commutes with affine sequence maps",
             _sequence_naturality),
    Property("vanishing-component",
             "the sequence component outputs vanishing sequences",
             _vanishing_component),
    Property("unit-element-evaluation",
             "the lifted evaluation family evaluates tuples pointwise",
             _law(_unit_element_evaluation)),
    Property("affine-composition-closure",
             "composing canonical affine forms composes their coefficients",
             _law(_affine_composition)),
    Property("naturality-refutes-max",
             "a failing square for the max functional is found and minimized",
             _refutes_naturality(max_functional, "max")),
    Property("naturality-refutes-square",
             "a failing square for the square functional is found and minimized",
             _refutes_naturality(square_functional, "square")),
]


# monoid reduction -----------------------------------------------------------


def _case_reconstruction_roundtrip(cfg, rng):
    space = generate_space(rng, cfg)
    phi = to_functional(generate_measure(rng, space))
    action = CodensityElement(phi).at_sequences
    recovered = functional_from_action(action, space, rng, trials=8)
    coeffs = tuple(recovered(atom_indicator(space, i))
                   for i in range(len(space.atoms)))
    if coeffs != phi.measure.weights:
        return {"phi": phi, "recovered": coeffs}
    f = generate_ifunction(rng, space)
    if recovered(f) != phi(f):
        return {"phi": phi, "f": f}
    return None


def _entrywise_max_refuted(cfg, rng):
    space = FinSpace.discrete(["a", "b"])

    def entrywise_max(fs: Sequence[IFunction]) -> VanishingSequence:
        return VanishingSequence(tuple(max(f.values) for f in fs))

    try:
        functional_from_action(entrywise_max, space, rng, trials=64)
    except ActionSquareError as exc:
        witness = dict(exc.witness, generator=exc.generator)
        if "blend" not in exc.generator:
            return dict(witness, error="expected the blend square to fail")
        return passed("entrywise max refuted", 1, witness=witness)
    return {"error": "entrywise max action was not refuted"}


MONOID_REDUCTION = [
    Property("reconstruction-roundtrip",
             "the functional recovered from the lifted action equals the "
             "original, coefficientwise", _case_reconstruction_roundtrip),
    Property("entrywise-max-refuted",
             "the entrywise-max action fails the blend generator square",
             _entrywise_max_refuted),
]


# convex bound ---------------------------------------------------------------


def _case_hull_closure(cfg, rng):
    verts = generate_polytope(rng, cfg)
    space = generate_space(rng, cfg)
    phi = to_functional(generate_measure(rng, space))
    points = [point_in_hull(rng, verts) for _ in space.atoms]
    out = extend_to_convex(phi, verts, points)
    if not hull_membership(verts, out):
        return {"vertices": verts, "output": out}
    # The point 1 past every vertex in each coordinate lies outside the
    # hull, so the check that just accepted ``out`` must reject it.
    outside = tuple(max(c) + 1 for c in zip(*verts))
    if hull_membership(verts, outside):
        return {"vertices": verts, "accepted_outside": outside}
    return None


def _dirac_extension(cfg, rng):
    verts = generate_polytope(rng, cfg)
    space = generate_space(rng, cfg)
    i = rng.randrange(len(space.atoms))
    coeffs = tuple(ONE if j == i else ZERO for j in range(len(space.atoms)))
    phi = Functional.extensional(space, coeffs)
    points = [point_in_hull(rng, verts) for _ in space.atoms]
    return extend_to_convex(phi, verts, points), points[i]


CONVEX_BOUND = [
    Property("hull-closure",
             "coordinatewise application of a coefficient functional stays "
             "in the hull, certified by exact feasibility",
             _case_hull_closure),
    Property("dirac-extension",
             "a point-mass functional extends to exact selection of its "
             "atom's hull point", _law(_dirac_extension)),
]


# counterexample -------------------------------------------------------------


def _limit_affine(cfg, rng):
    f = generate_eventual_fn(rng)
    g = generate_eventual_fn(rng)
    r = random_fraction(rng)
    return (limit_functional(f.blend(g, r)),
            r * limit_functional(f) + (1 - r) * limit_functional(g), {"r": r})


def _limit_weakly_averaging(cfg, rng):
    r = random_fraction(rng)
    return limit_functional(EventualFn.constant(r)), r


def _limit_lipschitz(cfg, rng):
    f = generate_eventual_fn(rng)
    g = generate_eventual_fn(rng)
    verdict = sup_continuity_check(limit_functional, f, g)
    if not verdict.passed:
        return verdict.witness
    # Squaring the tail moves the tails 1 and 3/4 apart by 7/16, more than
    # their sup distance 1/4, so the check that passed must refute it.
    if sup_continuity_check(lambda h: h.tail ** 2, EventualFn.constant(ONE),
                            EventualFn.constant(Fraction(3, 4))).passed:
        return {"accepted_non_lipschitz": "squared tail"}
    return None


def _measure_consistency(cfg, rng):
    a = generate_fincof(rng)
    return (cofinite_measure(a), limit_functional(a.indicator()),
            {"set": sorted(a.elements), "cofinite": a.cofinite})


def _finite_additivity(cfg, rng):
    a = generate_fincof(rng)
    b = generate_fincof(rng)
    if not a.disjoint_from(b):
        b = a.complement()
    return (cofinite_measure(a.union(b)),
            cofinite_measure(a) + cofinite_measure(b),
            {"a": sorted(a.elements), "a_cofinite": a.cofinite,
             "b": sorted(b.elements), "b_cofinite": b.cofinite})


def _limits_refuted(cfg, rng):
    report = countable_additivity_violation()
    verdict = report["respects_limits"]
    if verdict["result"] == "pass":
        return {"error": "limit functional passed respects-limits"}
    witness = dict(verdict["witness"])
    if witness.get("stuck_at") != "1/1":
        return dict(witness, error="expected the value pinned at 1")
    witness["report"] = report
    if report["singleton_partial_sum"] != "0/1" or report["total_mass"] != "1/1":
        return dict(witness, error="mass accounting is off")
    return passed("limits refuted", 1, witness=witness)


COUNTEREXAMPLE = [
    Property("limit-affine",
             "the tail functional preserves convex combinations exactly",
             _law(_limit_affine)),
    Property("limit-weakly-averaging",
             "the tail functional fixes every constant",
             _law(_limit_weakly_averaging)),
    Property("limit-sup-lipschitz",
             "the tail functional is 1-Lipschitz for the sup metric",
             _limit_lipschitz),
    Property("measure-functional-consistency",
             "the zero/one set measure is the tail functional on indicators",
             _law(_measure_consistency)),
    Property("finite-additivity",
             "disjoint representable unions add their measures",
             _law(_finite_additivity)),
    Property("limits-axiom-refuted",
             "final-segment indicators vanish pointwise while the functional "
             "stays pinned at one; singleton masses sum to zero against "
             "total mass one", _limits_refuted),
]


SUITES: dict[str, list[Property]] = dict(zip(SUITE_NAMES, (
    MONAD_LAWS, DUALITY, CHANGE_OF_VARIABLES, NATURALITY, MONOID_REDUCTION,
    CONVEX_BOUND, COUNTEREXAMPLE)))


def run_suite(name: str, cfg: SuiteConfig) -> Report:
    """Execute one named suite (or 'all') under the given configuration."""
    if name == "all":
        return Report("all", cfg, tuple(
            record for suite in SUITE_NAMES
            for record in run_suite(suite, cfg).records))
    if name not in SUITES:
        raise GirylabError(
            f"unknown suite {name!r}; expected one of "
            f"{', '.join((*SUITE_NAMES, 'all'))}")
    return Report(name, cfg, tuple(prop.run(cfg) for prop in SUITES[name]))
