"""Convex-set machinery: canonical affine maps into the unit interval,
natural families determined by one functional, naturality checking, and
reconstruction of the functional from a sequence-space monoid action.

An affine map from the n-cube into I has the canonical form
a0 + sum(a_i * x_i); it lands in I exactly when its extreme values over
the cube do, which is the pair of inequalities enforced here.  Each map
keeps its constant term and coefficients as Fractions and, lifted once
when it is built, as int numerators over one denominator; the
inequalities, evaluation and pointwise composition with functions (also
int numerators, see ``spaces.IFunction``) run on those ints.  The
infinite-dimensional object is the convex set of unit-interval
sequences converging to zero; its elements and the coefficient lists of
affine maps on it are kept as finite lists (implicit zero tail), dense
enough to witness every identity at this scale while staying exact.

A natural family is determined by its component at I, the functional
phi: at each finite power it applies phi coordinatewise, and at the
sequence object entrywise, so phi stands for the whole family.
``check_naturality`` compares the two paths around one square at a power
or at the sequences; naturality against affine maps is precisely what
forces phi to be affine and weakly averaging.  The sequence component
lands in the vanishing set exactly when phi respects limits, which
``duality.respects_limits`` decides on a certified witness.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Callable, Optional, Sequence

from .errors import ActionSquareError, InvariantError
from .rational import (ONE, ZERO, exact, format_rational, lift,
                       random_fraction, require_unit, require_unit_numerators)
from .spaces import FinSpace, Frozen, IFunction
from .duality import Functional
from .verdicts import Verdict, failed, passed


def _extremes(n0: int, nums: Sequence[int]) -> tuple[int, int]:
    """The least and greatest of n0 + sum(n_i * x_i) over the 0/1 cube."""
    lo = n0 + sum(n for n in nums if n < 0)
    hi = n0 + sum(n for n in nums if n > 0)
    return lo, hi


def _store_into_unit(m, a0, coeffs) -> None:
    """Store an affine map's ``a0`` and ``coeffs`` as Fractions and, in
    ``lifted``, as int numerators over their lcm denominator; check on
    those ints that the map's extreme values lie in I."""
    a0 = exact(a0, "constant term")
    coeffs = tuple(exact(c, "coefficient") for c in coeffs)
    (n0, *nums), den = lift((a0, *coeffs))
    lo, hi = _extremes(n0, nums)
    if lo < 0 or hi > den:
        lo, hi = (format_rational(Fraction(v, den)) for v in (lo, hi))
        raise InvariantError(
            f"map leaves the unit interval: extremes [{lo}, {hi}]")
    object.__setattr__(m, "a0", a0)
    object.__setattr__(m, "coeffs", coeffs)
    object.__setattr__(m, "lifted", (n0, tuple(nums), den))


def _value(m, xs: Sequence[int], xden: int) -> Fraction:
    """The affine map ``m`` at the point with coordinates ``xs`` over
    ``xden``: one integer dot product with its lifted coefficients."""
    n0, nums, den = m.lifted
    return Fraction(n0 * xden + sum(map(mul, nums, xs)), den * xden)


class AffineMap(Frozen):
    """An affine map from the n-cube into I: a0 + sum(a_i * x_i)."""

    _fields = ("arity", "a0", "coeffs")

    def __init__(self, arity: int, a0: Fraction, coeffs: tuple[Fraction, ...]):
        if len(coeffs) != arity:
            raise InvariantError("need one coefficient per coordinate")
        object.__setattr__(self, "arity", arity)
        _store_into_unit(self, a0, coeffs)

    def __call__(self, xs: Sequence[Fraction]) -> Fraction:
        if len(xs) != self.arity:
            raise InvariantError(f"expected {self.arity} coordinates, got {len(xs)}")
        xs, xden = lift([exact(x, "coordinate") for x in xs])
        require_unit_numerators(xs, xden, "coordinate")
        return _value(self, xs, xden)

    @staticmethod
    def projection(arity: int, i: int) -> "AffineMap":
        if not 0 <= i < arity:
            raise InvariantError("projection index out of range")
        return AffineMap(arity, ZERO, tuple(
            ONE if j == i else ZERO for j in range(arity)))

    @staticmethod
    def constant(arity: int, r: Fraction) -> "AffineMap":
        r = require_unit(r, "constant")
        return AffineMap(arity, r, (ZERO,) * arity)

    @staticmethod
    def blend(r: Fraction) -> "AffineMap":
        """The binary convex combination (x, y) -> r*x + (1-r)*y."""
        r = require_unit(r, "blend weight")
        return AffineMap(2, ZERO, (r, ONE - r))

    def compose(self, inner: Sequence["AffineMap"]) -> "AffineMap":
        """self after a tuple of maps sharing one domain cube.

        The composite coefficients are the usual bilinear combination;
        the into-I invariant holds automatically because the composite
        is itself an affine map of a cube into I.
        """
        if len(inner) != self.arity:
            raise InvariantError("need one inner map per coordinate")
        arities = {g.arity for g in inner}
        if len(arities) != 1:
            raise InvariantError("inner maps must share a domain")
        m = arities.pop()
        a0 = self.a0 + sum((c * g.a0 for c, g in zip(self.coeffs, inner)), ZERO)
        coeffs = tuple(
            sum((c * g.coeffs[j] for c, g in zip(self.coeffs, inner)), ZERO)
            for j in range(m))
        return AffineMap(m, a0, coeffs)

    def describe(self) -> dict:
        return {"arity": self.arity, "a0": self.a0, "coefficients": self.coeffs}


class VanishingSequence(Frozen):
    """A sequence in the unit interval converging to zero, stored as a
    finite entry list with an implicit zero tail (trailing zeros are
    stripped, so equality is equality of sequences)."""

    _fields = ("entries",)

    def __init__(self, entries: tuple[Fraction, ...]):
        entries = [require_unit(v, "sequence entry") for v in entries]
        while entries and entries[-1] == ZERO:
            entries.pop()
        object.__setattr__(self, "entries", tuple(entries))

    def at(self, i: int) -> Fraction:
        return self.entries[i] if i < len(self.entries) else ZERO

    def describe(self) -> tuple[Fraction, ...]:
        return self.entries


class SequenceAffineMap(Frozen):
    """An affine map from the vanishing-sequence set into I, with a
    finite coefficient list (absolute summability is structural).

    The supremum of the linear part over the set is approached by
    eventually-zero sequences, so the same cube-extreme inequalities
    bound the range.
    """

    _fields = ("a0", "coeffs")

    def __init__(self, a0: Fraction, coeffs: tuple[Fraction, ...]):
        _store_into_unit(self, a0, coeffs)

    def __call__(self, x: VanishingSequence) -> Fraction:
        return _value(self, *lift(x.entries))

    def describe(self) -> dict:
        return {"a0": self.a0, "coefficients": self.coeffs}


# -- sampling valid affine maps ------------------------------------------


def sample_affine(rng: random.Random, arity: int,
                  kind: Optional[str] = None) -> AffineMap:
    """Draw a valid affine map of the n-cube into I.

    ``kind`` forces a boundary case: "projection", "constant" or
    "blend" (binary convex combination embedded at two coordinates).
    Otherwise raw rational coefficients are drawn and rescaled and
    translated into the feasible polytope, so every sample satisfies
    the into-I invariant by construction.
    """
    if kind == "projection" or (kind is None and arity >= 1 and rng.random() < 0.15):
        return AffineMap.projection(arity, rng.randrange(arity))
    if kind == "constant" or (kind is None and rng.random() < 0.15):
        return AffineMap.constant(arity, random_fraction(rng, max_den=16))
    if kind == "blend":
        if arity != 2:
            raise InvariantError("blend maps have arity 2")
        return AffineMap.blend(random_fraction(rng, max_den=16))

    raw0 = random_fraction(rng, -2, 2, max_den=16)
    raw = [random_fraction(rng, -2, 2, max_den=16) for _ in range(arity)]
    (n0, *nums), _ = lift((raw0, *raw))
    lo, hi = _extremes(n0, nums)
    if hi == lo:  # all coefficients zero: clamp the constant into I
        return AffineMap.constant(arity, min(ONE, max(ZERO, raw0)))
    span = random_fraction(rng, max_den=8) or Fraction(1, 2)
    scale = span / (hi - lo)  # the lifted denominator cancels
    shift = random_fraction(rng, max_den=8) * (ONE - span)
    a0 = (n0 - lo) * scale + shift
    coeffs = tuple(n * scale for n in nums)
    return AffineMap(arity, a0, coeffs)


def sample_sequence_affine(rng: random.Random, length: int) -> SequenceAffineMap:
    finite = sample_affine(rng, length)
    return SequenceAffineMap(finite.a0, finite.coeffs)


# -- natural families ------------------------------------------------------


def _compose_pointwise(h, fs: Sequence[IFunction], space: FinSpace) -> IFunction:
    """The function x -> h(f_1(x), f_2(x), ...) on ``space``, for an affine
    map of a power or of sequences, built on integers: the coefficients
    are scaled to the lcm of the functions' denominators and dotted with
    their numerators atom by atom.  Functions past the last coefficient
    meet a zero coefficient and are skipped."""
    n0, nums, den = h.lifted
    pairs = list(zip(nums, fs))
    fden = lcm(*(f.den for _, f in pairs))
    weighted = [(c * (fden // f.den), f.nums) for c, f in pairs]
    return IFunction(space, tuple(
        n0 * fden + sum(c * fn[i] for c, fn in weighted)
        for i in range(len(space.atoms))), den * fden)


def check_naturality(phi: Functional, h, fs: Sequence[IFunction]) -> Verdict:
    """Compare the two paths around one naturality square exactly.

    Path one applies ``phi`` to each function, as the family does at the
    power (or sequence) object, and then the affine map; path two
    composes the affine map with the function tuple pointwise and
    applies ``phi``.  The verdict counts its one square as one trial and
    carries the residual when the paths disagree.
    """
    fs = tuple(fs)
    space = phi.space
    for f in fs:
        if f.space != space:
            raise InvariantError("tuple component lives off the base space")
    if isinstance(h, AffineMap):
        if h.arity != len(fs):
            raise InvariantError("arity does not match the tuple length")
        via_family = h(tuple(map(phi, fs)))
        target = "power"
    elif isinstance(h, SequenceAffineMap):
        via_family = h(VanishingSequence(tuple(map(phi, fs))))
        target = "sequences"
    else:
        raise InvariantError("h must be an affine map of a power or of sequences")
    via_component = phi(_compose_pointwise(h, fs, space))

    name = f"naturality at {target}"
    if via_family == via_component:
        return passed(name, trials=1)
    return failed(name, {"h": h, "functions": fs, "via_family": via_family,
                         "via_component": via_component,
                         "residual": via_component - via_family}, trials=1)


# -- reconstruction from a sequence-space action ---------------------------

Action = Callable[[Sequence[IFunction]], VanishingSequence]


#: The longest function list ``functional_from_action`` feeds the action.
MAX_ACTION_INPUT = 4


def functional_from_action(action: Action, space: FinSpace,
                           rng: random.Random, trials: int = 40) -> Functional:
    """Recover the determining functional from a sequence-space action
    and verify the three monoid generator squares.

    The generators are single-entry projections, the first-two-entries
    convex combination, and the constant maps; the action must commute
    with post-composition by each.  Commutation is tested on sampled
    inputs, not assumed; a failing square raises ActionSquareError whose
    raw witness names the generator and the input.  The action is called
    once per input list: the sampled list's image serves both the
    projection and the blend square.  On success the returned functional is
    f -> first entry of action(f at the first coordinate).
    """
    def phi(f: IFunction) -> Fraction:
        return action([f]).at(0)

    def sample_list(k: int) -> list[IFunction]:
        return [IFunction(space, tuple(
            rng.randint(0, 12) for _ in space.atoms), 12)
            for _ in range(k)]

    for t in range(trials):
        k = rng.randint(1, MAX_ACTION_INPUT)
        fs = sample_list(k)

        # entrywise recovery: projecting then acting equals acting then projecting
        i = rng.randrange(k)
        lhs = action([fs[i]])
        out = action(fs)
        rhs_val = out.at(i)
        if lhs.at(0) != rhs_val or len(lhs.entries) > 1:
            raise ActionSquareError("projection square fails", {
                "generator": f"projection onto entry {i}", "input": fs,
                "acted_then_projected": rhs_val,
                "projected_then_acted": lhs, "case": t})

        # affineness: blending the first two entries commutes with the action
        if k >= 2:
            r = Fraction(rng.randint(0, 8), 8)
            blended = [fs[0].blend(fs[1], r)]
            lhs = action(blended).at(0)
            rhs = r * out.at(0) + (1 - r) * out.at(1)
            if lhs != rhs:
                raise ActionSquareError("convex-combination square fails", {
                    "generator": "first-two-entries blend with weight "
                                 f"{format_rational(r)}",
                    "input": fs, "blend_then_act": lhs,
                    "act_then_blend": rhs, "case": t})

        # weak averaging: the constant map forces constants to be fixed
        r = Fraction(rng.randint(0, 8), 8)
        lhs = action([IFunction.constant(space, r)]).at(0)
        if lhs != r:
            raise ActionSquareError("constant square fails", {
                "generator": f"constant map at {format_rational(r)}",
                "expected": r, "got": lhs, "case": t})

    return Functional.intensional(space, phi, "reconstructed from action")
