"""Integration operators and their bijection with measures.

A functional here maps measurable unit-interval-valued functions to the
unit interval.  The admissible ones are affine (preserve convex
combinations) and weakly averaging (send each constant to its value);
those correspond one-to-one with finitely additive probability
measures via

    to_measure(phi)(A)  = phi(indicator of A)
    to_functional(pi)(f) = integral of f against pi

and on finite sigma-algebras finite and countable additivity coincide,
so the same pair of maps covers both.  Functionals carry one of two
bodies: an extensional one, the measure itself (admissible by
construction), or an intensional closure, which is how deliberate
non-examples (max, square, clamped sum) enter the test suites with
refuting power.  On an extensional body the two maps of the bijection
hand the measure across and evaluate nothing.

Affineness of every body is decided by randomized search with reported
witnesses, not proof; the limits axiom is decided exactly
against a certified sequence vanishing on a finite space.  The naturals
sequence of the finitely additive counterexample is probed in
``counterexample``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from operator import mul
from typing import Callable, Optional, Sequence

from .errors import InvariantError, RejectionError, SpaceMismatchError
from .rational import (HALF, ONE, ZERO, _quoted_int, format_rational, index,
                       lift, random_fraction, require_unit)
from .spaces import (FinSpace, Frozen, IFunction, MeasMap, atom_indicator,
                     generate_ifunction)
from .measures import Measure, integrate
from .monad import MetaMeasure, mixture_support
from .verdicts import Verdict, failed, passed


class Functional(Frozen):
    """A map from measurable I-valued functions on a space to I.

    Exactly one of two bodies is set.  An extensional body is the
    ``measure`` on ``space`` that the functional integrates against, so
    it is a point of the probability simplex on the atoms by
    construction, evaluation is ``measures.integrate``, and two
    extensional bodies are equal when their measures are.  An
    intensional body is a closure ``evaluator``; only it has a
    ``label``.  Intensional evaluators must be pure; results are
    range-checked on every call.

    ``Functional.extensional(space, coeffs)`` takes the coefficients as
    rationals and builds the measure from them.
    """

    _fields = ("space", "measure", "evaluator", "label")

    def __init__(self, space: FinSpace, measure: Optional[Measure] = None,
                 evaluator: Optional[Callable[[IFunction], Fraction]] = None,
                 label: str = ""):
        if (measure is None) == (evaluator is None):
            raise InvariantError("exactly one of measure/evaluator must be given")
        if measure is not None and not (
                isinstance(measure, Measure) and measure.space == space):
            raise InvariantError(
                "an extensional body must be a Measure on the functional's space")
        if measure is not None and label:
            raise InvariantError("only an intensional body has a label")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "measure", measure)
        object.__setattr__(self, "evaluator", evaluator)
        object.__setattr__(self, "label", label)

    @staticmethod
    def extensional(space: FinSpace, coeffs) -> "Functional":
        return Functional(space, Measure(space, coeffs))

    @staticmethod
    def intensional(space: FinSpace, evaluator, label: str) -> "Functional":
        return Functional(space, evaluator=evaluator, label=label)

    def dot(self, values: Sequence[Fraction]) -> Fraction:
        """The coefficient-weighted sum of ``values``, one per atom, as one
        integer dot product over ``rational.lift``; extensional only."""
        nums, vden = lift(values)
        return Fraction(sum(map(mul, self.measure.nums, nums)),
                        self.measure.den * vden)

    @property
    def is_extensional(self) -> bool:
        return self.measure is not None

    def __call__(self, f: IFunction) -> Fraction:
        if self.measure is not None:
            return integrate(f, self.measure)
        if f.space != self.space:
            raise SpaceMismatchError("argument lives on a different space")
        return require_unit(self.evaluator(f),
                            f"value of {self.label or 'functional'}")

    def describe(self) -> dict:
        if self.is_extensional:
            return {"kind": "extensional",
                    "coefficients": self.measure.weights}
        return {"kind": "intensional", "label": self.label}


# -- the bijection with measures --------------------------------------


def to_measure(phi: Functional) -> Measure:
    """The measure whose atom weights are phi of the atom indicators.

    An extensional body already is that measure: it is returned as it
    is, checked by nothing again, and phi is never called.  Only an
    intensional body is probed, on the atom basis plus constant spot
    checks: the indicator weights (each in [0,1], as every value of a
    Functional is) must sum to 1 and phi must fix the constants 0, 1/2,
    1.  A failing check raises RejectionError carrying the witness
    function and its raw values (the max functional fails the indicator
    sum; the square functional fails at the constant 1/2).  Full
    affineness of intensional bodies is the province of ``is_affine``.
    """
    space = phi.space
    if phi.is_extensional:
        return phi.measure
    weights = tuple(phi(atom_indicator(space, i))
                    for i in range(len(space.atoms)))
    total = sum(weights, ZERO)
    if total != ONE:
        raise RejectionError("atom indicator weights do not sum to 1", {
            "check": "additivity on the atom indicators",
            "witness_functions": "indicator of each atom",
            "weights": weights, "sum": total, "expected_sum": ONE})
    for r in (ZERO, HALF, ONE):
        got = phi(IFunction.constant(space, r))
        if got != r:
            raise RejectionError("constant function is not fixed", {
                "check": "weak averaging on constants",
                "witness_function": f"constant {format_rational(r)}",
                "expected": r, "got": got})
    return Measure(space, weights)


def to_functional(pi: Measure) -> Functional:
    """Integration against pi, in extensional form: pi itself is the
    body, checked by nothing again."""
    return Functional(pi.space, pi)


# -- functorial action, unit, multiplication ---------------------------


def pushforward_functional(g: MeasMap, phi: Functional) -> Functional:
    """The functional f on cod goes to phi(f after g).

    For an extensional body this is the coefficient pushforward, which
    is what makes the bijection with measures natural.
    """
    if phi.space != g.dom:
        raise SpaceMismatchError("functional lives off the domain of g")
    if phi.is_extensional:
        coeffs = [ZERO] * len(g.cod.atoms)
        for k, c in zip(g.atom_map, phi.measure.weights):
            coeffs[k] += c
        return Functional.extensional(g.cod, coeffs)
    return Functional.intensional(
        g.cod, lambda f: phi(f.compose_with(g)), f"{phi.label} after map")


def evaluation_at(space: FinSpace, point: str) -> Functional:
    """The unit: f goes to f(point).  Extensionally, the Dirac coefficients."""
    i = space.atom_index_of_point(point)
    coeffs = tuple(ONE if j == i else ZERO for j in range(len(space.atoms)))
    return Functional.extensional(space, coeffs)


class FunctionalMixture(Frozen):
    """A finite mixture of functionals: the second-level inputs to the
    multiplication, mirroring MetaMeasure."""

    _fields = ("space", "support")

    def __init__(self, space: FinSpace,
                 support: tuple[tuple[Functional, Fraction], ...]):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "support", mixture_support(space, support))

    def apply_to_evaluation(self, f: IFunction) -> Fraction:
        """The mixture applied to the evaluation map of f: the weighted
        sum of the component values at f."""
        return sum((w * phi(f) for phi, w in self.support), ZERO)

    def measure_image(self) -> MetaMeasure:
        """Transport each component across the bijection."""
        return MetaMeasure(self.space, tuple(
            (to_measure(phi), w) for phi, w in self.support))


def mix_functionals(psi: FunctionalMixture) -> Functional:
    """Multiplication on the functional side: the weighted mixture.

    Stays extensional when every component is; flattening the
    measure-side image of psi gives exactly to_measure of this result.
    """
    if all(phi.is_extensional for phi, _ in psi.support):
        coeffs = [ZERO] * len(psi.space.atoms)
        for phi, w in psi.support:
            for j, c in enumerate(phi.measure.weights):
                coeffs[j] += w * c
        return Functional.extensional(psi.space, coeffs)
    return Functional.intensional(psi.space, psi.apply_to_evaluation, "mixture")


# -- randomized verdicts ------------------------------------------------


def is_affine(phi: Functional, trials: int = 200,
              seed: Optional[int] = None) -> Verdict:
    """Verdict on the affine and weakly averaging axioms, with the
    derived homogeneity, additivity, and monotonicity consequences.

    Every body is probed on ``trials`` sampled (f, g, r) triples; the
    first violation is returned as a witness.
    """
    name = "affine and weakly averaging"
    rng = random.Random(seed)
    space = phi.space
    for t in range(trials):
        f = generate_ifunction(rng, space)
        g = generate_ifunction(rng, space)
        r = random_fraction(rng)
        h = IFunction(space, tuple(min(b, ONE - a)
                                   for a, b in zip(f.values, g.values)))
        bigger = f.blend(IFunction.constant(space, ONE), r)
        pf, pg, ph, p_big = phi(f), phi(g), phi(h), phi(bigger)
        blended, mixed = phi(f.blend(g, r)), r * pf + (1 - r) * pg
        const = phi(IFunction.constant(space, r))
        scaled, summed = phi(f.scale(r)), phi(f.add(h))
        # (axiom, holds, witness fields) in the order they are checked
        for axiom, holds, fields in (
                ("affine: phi(r*f + (1-r)*g) = r*phi(f) + (1-r)*phi(g)",
                 blended == mixed,
                 {"f": f, "g": g, "r": r, "lhs": blended, "rhs": mixed}),
                ("weakly averaging: phi(constant r) = r",
                 const == r, {"r": r, "got": const}),
                ("homogeneity: phi(r*f) = r*phi(f)", scaled == r * pf,
                 {"f": f, "r": r, "lhs": scaled, "rhs": r * pf}),
                ("additivity: phi(f+h) = phi(f) + phi(h) when f+h <= 1",
                 summed == pf + ph,
                 {"f": f, "h": h, "lhs": summed, "rhs": pf + ph}),
                ("monotone: f <= f' pointwise implies phi(f) <= phi(f')",
                 pf <= p_big,
                 {"f": f, "f_prime": bigger, "lhs": pf, "rhs": p_big})):
            if not holds:
                return failed(name, dict(fields, axiom=axiom, case=t),
                              trials=t + 1, seed=seed)
    return passed(name, trials=trials, seed=seed)


# -- the limits axiom ----------------------------------------------------


#: How many terms, from each certified index on, a certificate is checked
#: to be zero.
CERT_CHECKED_TERMS = 3


class LimitWitness(Frozen):
    """A certified sequence of functions on a finite space converging
    pointwise to zero.

    ``terms(n)`` is the n-th function on ``space``; ``certs[i]`` is an
    index from which the sequence vanishes on atom i.  Building the
    witness checks each certificate on ``CERT_CHECKED_TERMS`` terms, each
    a function on ``space``, so a witness is valid once it is built.  It
    also serves the d_0 component of a natural family (d_0 being the
    convex set of sequences in I converging to 0): a list of functions
    followed by zeros, certified from the list's length, is a witness.
    """

    _fields = ("space", "terms", "certs")

    def __init__(self, space: FinSpace, terms: Callable[[int], IFunction],
                 certs):
        certs = tuple(index(c, "certificate index") for c in certs)
        if len(certs) != len(space.atoms):
            raise InvariantError("need one certificate index per atom")
        for i, n0 in enumerate(certs):
            for n in range(n0, n0 + CERT_CHECKED_TERMS):
                f = terms(n)
                if f.space != space:
                    raise SpaceMismatchError(
                        f"term {_quoted_int(n)} lives off the space")
                if f.nums[i]:
                    raise InvariantError(
                        f"certificate lies: term {_quoted_int(n)} is "
                        f"{format_rational(Fraction(f.nums[i], f.den))} "
                        f"at point {i!r}, certified zero from {_quoted_int(n0)}")
        super().__init__(space, terms, certs)


def respects_limits(phi: Functional, w: LimitWitness) -> Verdict:
    """Does phi send the certified vanishing sequence to values
    converging to zero?

    The sequence is decided exactly: beyond the largest certified index
    the terms are identically zero, so phi respects it exactly when its
    value at that tail term is zero; a fail carries the value it is
    stuck at.  On a list-shaped witness (see ``LimitWitness``) it also
    decides whether the family determined by phi sends the list into d_0.
    """
    name = "respects limits"
    if not isinstance(w, LimitWitness):
        raise InvariantError("witness must be a certified LimitWitness")
    n_star = max(w.certs)
    tail = w.terms(n_star)
    if any(tail.nums):
        raise InvariantError("certificate lies: tail term is not zero")
    value = phi(tail)
    if value != ZERO:
        return failed(name, {"mode": "exact tail evaluation",
                             "tail_index": n_star, "stuck_at": value})
    return passed(name, witness={"mode": "exact tail evaluation",
                                 "tail_index": n_star, "value": value})


# -- deliberate non-examples for the suites -----------------------------


def max_functional(space: FinSpace) -> Functional:
    """f goes to the maximum of its atom values.  Weakly averaging but
    not affine; the indicator weights sum to the number of atoms."""
    return Functional.intensional(
        space, lambda f: max(f.values), "max over atoms")


def square_functional(space: FinSpace) -> Functional:
    """f goes to f(first carrier point) squared.  Fixes 0 and 1 but not
    affine."""
    pt = space.carrier[0]
    i = space.atom_index_of_point(pt)
    return Functional.intensional(
        space, lambda f: f.values[i] * f.values[i], f"square at {pt}")


def clamped_sum_functional(space: FinSpace) -> Functional:
    """f goes to min(1, sum of atom values).  Monotone but not affine."""
    return Functional.intensional(
        space, lambda f: min(ONE, sum(f.values, ZERO)), "clamped sum")
