"""Monad structure on finite-space measures: Dirac unit, multiplication
on finitely supported measures-over-measures, Kleisli extension, and
Markov kernels.

A measure over measures is kept as a finite mixture (support list with
weights); that is exactly the class on which the multiplication's
integral collapses to a finite sum, so every diagram here is exact.
Kernels are atomwise tables of measures, hence measurable into the
evaluation-generated sigma-algebra by construction; on discrete spaces
a kernel is a row-stochastic matrix and ``bind`` is row-vector times
matrix.

``bind`` and ``flatten`` work on the measures' int numerators over
their denominators (see ``measures.Measure``): each output numerator is
one integer dot product, and the result is divided by one common factor
of the whole vector, not one per weight: one gcd.  Markov evolution
(``n_step``) takes that gcd too, on states and kernel powers within
about twice ``rational.MAX_DIGITS`` digits.  ``Measure.den`` is the lcm
of the reduced weights' denominators, which is what the digit bounds of
``n_step`` multiply.

``markov_weights`` gives the weights ``girylab markov`` writes, each a
pair in lowest terms.  A traced run evolves its states as integral
``decimal.Decimal``s (``decimal_states``), which CPython writes in time
linear in their length, an int in quadratic; all their arithmetic runs
under ``DECIMAL_INTEGERS``, which traps every inexact result.  A Decimal
has no gcd, but a state's denominator divides ``den(pi0) * L**t``, with
``L`` the lcm of the rows' denominators, so its primes all divide
``denominator_base``.  From that base ``_common_factor`` finds a gcd by
residues no larger than a base-sized multiple of the factor so far; it
reduces each Decimal state and each weight ``markov_weights`` yields.
"""

from __future__ import annotations

from decimal import (MAX_PREC, Context, Decimal, DivisionByZero, Inexact,
                     InvalidOperation, Overflow, Rounded, localcontext)
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

from .errors import InvariantError, SpaceMismatchError
from .rational import ONE, fits_digits, lift, probability, require_digits
from .spaces import FinSpace, Frozen
from .measures import Measure

#: The context of all integer arithmetic on Decimals: precision enough for
#: any integer, and a trap on every signal of a result that is not exact.
DECIMAL_INTEGERS = Context(prec=MAX_PREC, traps=[
    Inexact, Rounded, InvalidOperation, DivisionByZero, Overflow])


def mixture_support(space: FinSpace, support) -> tuple:
    """The (component, weight) pairs of a finite mixture on ``space``, with
    the weights as Fractions: the support must be nonempty, every
    component must live on ``space``, and the weights must be a
    probability vector."""
    if not support:
        raise InvariantError("mixture support must be nonempty")
    if any(component.space != space for component, _ in support):
        raise SpaceMismatchError("mixture component lives off the base space")
    weights = probability([w for _, w in support], "mixture weights")
    return tuple((component, w) for (component, _), w in zip(support, weights))


class MetaMeasure(Frozen):
    """A finitely supported probability measure on the measures of a base space."""

    _fields = ("base", "support")

    def __init__(self, base: FinSpace,
                 support: tuple[tuple[Measure, Fraction], ...]):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "support", mixture_support(base, support))

    @staticmethod
    def point(measure: Measure) -> "MetaMeasure":
        """The Dirac mixture concentrated on one measure."""
        return MetaMeasure(measure.space, ((measure, ONE),))


class Kernel(Frozen):
    """A measurable map into measures: one measure on cod per dom atom."""

    _fields = ("dom", "cod", "rows")

    def __init__(self, dom: FinSpace, cod: FinSpace, rows: tuple[Measure, ...]):
        if len(rows) != len(dom.atoms):
            raise InvariantError("need exactly one row per dom atom")
        for row in rows:
            if row.space != cod:
                raise SpaceMismatchError("kernel row lives off the codomain")
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "rows", rows)

    @staticmethod
    def identity(space: FinSpace) -> "Kernel":
        return Kernel(space, space, tuple(
            dirac(space, space.labels_of(atom)[0]) for atom in space.atoms))

    def at_point(self, label: str) -> Measure:
        return self.rows[self.dom.atom_index_of_point(label)]


def dirac(space: FinSpace, point: str) -> Measure:
    """The point measure at ``point``: weight 1 on the atom containing it."""
    i = space.atom_index_of_point(point)
    return Measure(space, [int(j == i) for j in range(len(space.atoms))], 1)


def _mix(space: FinSpace, cnum, cden: int, measures) -> Measure:
    """The measure sum_i (cnum[i] / cden) * measures[i] on ``space``.

    With D the lcm of the measures' denominators, measure i scales to D
    by one integer, which folds into its coefficient.  Each output
    numerator over cden * D is then one integer dot product of those
    scales with a column of numerators; ``Measure`` reduces the result
    by their one gcd, and no Fraction is built.
    """
    rden = _den(measures)
    scales = [c * (rden // m.den) for c, m in zip(cnum, measures)]
    return Measure(space, [sum(map(mul, scales, col))
                           for col in zip(*(m.nums for m in measures))],
                   cden * rden)


def flatten(rho: MetaMeasure) -> Measure:
    """Multiplication: average the support measures by their weights.

    For every measurable A the result gives the weighted sum of the
    component measures of A, which is the defining integral of the
    evaluation map collapsed over the finite support.
    """
    cnum, cden = lift([w for _, w in rho.support])
    return _mix(rho.base, cnum, cden, [m for m, _ in rho.support])


def bind(pi: Measure, k: Kernel) -> Measure:
    """Kleisli extension: result(A) = sum over atoms of pi(atom) * k(atom)(A).

    Agrees exactly with flattening the mixture of the kernel rows
    weighted by pi; on discrete spaces it is row-vector times
    stochastic matrix, reduced by one gcd (see ``_mix``).
    """
    if pi.space != k.dom:
        raise SpaceMismatchError("measure does not live on the kernel domain")
    return _mix(k.cod, pi.nums, pi.den, k.rows)


def kleisli_compose(k1: Kernel, k2: Kernel) -> Kernel:
    """Compose kernels: the row at an atom is bind(k1 row, k2)."""
    if k1.cod != k2.dom:
        raise SpaceMismatchError("kernels do not compose: cod/dom mismatch")
    return Kernel(k1.dom, k2.cod, tuple(bind(row, k2) for row in k1.rows))


def _require_digits(pi: Measure, what: str) -> None:
    """Stop Markov evolution once a weight passes rational.MAX_DIGITS.

    When ``pi.den`` fits, every weight does: its reduced denominator
    divides ``pi.den`` and its numerator is at most that denominator.
    Otherwise the reduced weights are checked one by one, since they may
    all fit although their common denominator does not.
    """
    if fits_digits(pi.den):
        return
    for n in pi.nums:
        require_digits(*Fraction(n, pi.den).as_integer_ratio(), what)


def _den(measures) -> int:
    """The lcm of the measures' denominators."""
    return lcm(*(m.den for m in measures))


def denominator_base(k: Kernel, pi0: Measure) -> int:
    """``den(pi0) * L``, with L the lcm of the rows' denominators: every
    prime factor of the denominator of a state from ``pi0`` under the
    endo-kernel ``k`` divides it.  So it is the ``base`` from which
    ``_common_factor`` reduces the states of ``decimal_states`` and the
    weights of ``markov_weights``, where a Decimal has no gcd.

    ``bind(pi, k)`` has a denominator dividing ``pi.den * L`` (``_mix``),
    so by induction the state at step t has a denominator dividing
    ``den(pi0) * L**t``, whose prime factors all divide ``den(pi0) * L``.
    """
    return pi0.den * _den(k.rows)


def _common_factor(nums: Sequence, den, base: int) -> int:
    """``gcd(den, *nums)``, found from residues, on the caller's promise
    that every prime factor of ``den`` divides the positive int ``base``
    (``denominator_base`` proves it of every Markov state).

    Starting from ``g = 1`` and ``b = base``, each round takes ``h``, the
    gcd of ``b`` and of ``v // g`` for ``den`` and then each numerator,
    and while ``h > 1`` sets ``g *= h`` and ``b = h * h``, so a common
    factor of any power goes in a few rounds.  The invariant is that
    ``g`` divides the gcd G and every prime factor of ``G // g`` divides
    ``b``: such a prime divides ``b`` and every ``v // g``, hence ``h``,
    and so ``h * h`` in the next round.  When ``h == 1`` no prime is
    left, so ``g`` is G.  ``h`` is taken one value at a time, each as
    ``gcd(h, (v // g) % h)``, and a round stops reading numerators once
    ``h`` is 1.  Since ``g`` divides every value, ``(v // g) % h`` is
    ``(v % (g * h)) // g``: a round reads residues smaller than
    ``g * b`` and divides nothing long.  A broken promise is not
    detected: the result then divides G but may be smaller.

    The values are ints, or integral Decimals under ``DECIMAL_INTEGERS``;
    a residue is an int either way.
    """
    g = 1
    h = gcd(base, int(den % base))
    while True:
        for n in nums:
            if h == 1:
                break
            h = gcd(h, int(n % (g * h)) // g)
        if h == 1:
            return g
        g, b = g * h, h * h
        h = gcd(b, int(den % (g * b)) // g)


def n_step(k: Kernel, pi0: Measure, n: int) -> Measure:
    """n-fold Kleisli extension of an endo-kernel; n = 0 returns pi0.

    Binary exponentiation: associativity of Kleisli composition gives
    pi0 * K^n = pi0 * K^(2^a) * K^(2^b) * ..., so this makes O(log n)
    kernel products, each through ``bind`` and reduced by one gcd, whose
    operands the digit bounds below keep within about twice
    rational.MAX_DIGITS digits.

    It stops with DigitLimitError at exactly the first step whose state
    has a weight past rational.MAX_DIGITS, although it computes only some
    states, so when it returns every state up to step n fits.
    With den(.) the lcm of the denominators, every state at step
    done + t with t < 2^j has denominators dividing
    den(state at done) * den(K^1) * den(K^2) * ... * den(K^(2^(j-1))),
    and a probability weight's numerator is at most its denominator.  A
    jump of 2^j steps is taken only when that product is within the limit,
    so every state it passes over fits; the state it lands on is checked
    by ``_require_digits``.  One step (j = 0) is always allowed, and a
    kernel power is squared only when it could be used twice, so the
    powers stay within about twice the limit's digits: K^(2^j) is built
    only for 2^(j+1) <= n, and away from the limit n = 2^m costs m - 1
    squarings and two products with the state, not m and one.
    """
    if k.dom != k.cod:
        raise SpaceMismatchError("markov evolution needs an endo-kernel "
                                 "(dom and cod must agree)")
    if pi0.space != k.dom:
        raise SpaceMismatchError("initial measure lives off the kernel space")
    if n < 0:
        raise InvariantError("step count must be nonnegative")
    powers = [k]          # powers[i] = K^(2^i)
    spans = [1, _den(k.rows)]  # spans[j] = den(K^1) * ... * den(K^(2^(j-1)))
    pi, done = pi0, 0
    while done < n:
        left, den = n - done, pi.den
        while (2 << len(powers)) <= left and fits_digits(den * spans[-1]):
            powers.append(kleisli_compose(powers[-1], powers[-1]))
            spans.append(spans[-1] * _den(powers[-1].rows))
        j = next((j for j in range(len(powers) - 1, 0, -1)
                  if (1 << j) <= left and fits_digits(den * spans[j])), 0)
        pi = bind(pi, powers[j])
        done += 1 << j
        _require_digits(pi, f"a weight of the state at step {done}")
    return pi


def decimal_states(k: Kernel, pi0: Measure, n: int, last: Measure):
    """The states at steps 0..n from ``pi0`` under the endo-kernel ``k``
    as integral Decimals, one ``(nums, den)`` pair each, computed when it
    is reached and the only one held.  ``last`` is ``n_step(k, pi0, n)``,
    which returns only if every state fits the digit limit.

    Each step is ``_mix``'s, on Decimals times the kernel's small ints:
    with L the lcm of the rows' denominators, the numerators
    ``sum_i prev[i] * (L // den_i) * row_i.nums[j]`` over ``prev_den * L``,
    divided by their common factor (on most steps 1), found from residues
    of ``denominator_base(k, pi0)``, since a Decimal has no gcd.
    ``DECIMAL_INTEGERS`` traps any result that is not exact.  A state
    whose numerators do not sum to its denominator, or a state at step n
    other than ``last``, raises InvariantError.
    """
    base, scale = denominator_base(k, pi0), _den(k.rows)
    cols = list(zip(*([Decimal(x * (scale // row.den)) for x in row.nums]
                      for row in k.rows)))
    nums, den = [Decimal(x) for x in pi0.nums], Decimal(pi0.den)
    for step in range(n + 1):
        if step:
            with localcontext(DECIMAL_INTEGERS):
                nums, den = [sum(map(mul, nums, col)) for col in cols], den * scale
                g = _common_factor(nums, den, base)
                if g != 1:
                    nums, den = [x / g for x in nums], den / g
                if sum(nums) != den:
                    raise InvariantError(f"the state at step {step} does "
                                         "not sum to 1/1")
        if step == n and (den != last.den or nums != list(last.nums)):
            raise InvariantError(f"the state at step {step} is not "
                                 "the state given as the last")
        yield nums, den


def _lowest_pairs(nums, den, base: int) -> list:
    """Each ``n/den`` as a pair in lowest terms: divided by its own common
    factor with ``den``, found by ``_common_factor`` from ``base``."""
    with localcontext(DECIMAL_INTEGERS):
        gs = [_common_factor((n,), den, base) for n in nums]
        return [(n // g, den // g) if g > 1 else (n, den)
                for n, g in zip(nums, gs)]


def markov_weights(k: Kernel, pi0: Measure, n: int, every: bool):
    """The weights of the state at step n from ``pi0`` under the
    endo-kernel ``k``, or with ``every`` of each state at steps 0..n, as
    ``(step, [(num, den), ...])``: one pair per atom, in lowest terms.

    ``n_step`` runs first, so a state past the digit limit stops this
    with DigitLimitError before anything is yielded, and every pair fits
    the limit.  The states of ``every`` come from ``decimal_states``, one
    held at a time, and ``_lowest_pairs`` reduces each from
    ``denominator_base``.
    """
    last = n_step(k, pi0, n)
    base = denominator_base(k, pi0)
    states = (enumerate(decimal_states(k, pi0, n, last)) if every
              else [(n, (last.nums, last.den))])
    for step, (nums, den) in states:
        yield step, _lowest_pairs(nums, den, base)
