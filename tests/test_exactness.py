"""One exactness rule for every entry point: a number from the caller must
be an int or a Fraction.  A float or a bool raises InvariantError naming
the argument; an int is stored as a Fraction.  Probability vectors are
checked by ``rational.probability``, and indices (positions and counts)
by ``rational.index``: an int, not a bool, at least 0.  A Decimal is
refused like a float.  The int form of ``rational.format_rational``
takes ints only; its state form takes integral Decimals too (finite, with
exponent 0), for the numerators and the denominator but not the base."""

import re
from decimal import Decimal
from fractions import Fraction

import pytest

from girylab import rational
from girylab.codensity import AffineMap, SequenceAffineMap, VanishingSequence
from girylab.counterexample import (EventualFn, FinCofSet,
                                    segments_respect_limits)
from girylab.duality import Functional, FunctionalMixture, LimitWitness
from girylab.errors import InvariantError
from girylab.hull import extend_to_convex, hull_membership
from girylab.measures import IntervalMeasure, Measure
from girylab.monad import MetaMeasure, flatten
from girylab.spaces import FinSpace, IFunction

F = Fraction
S1 = FinSpace.discrete(["a"])
S2 = FinSpace.discrete(["a", "b"])
HALVES = Measure(S2, (F(1, 2), F(1, 2)))
DIRAC_A = Functional.extensional(S2, (F(1), F(0)))
F1 = IFunction(S1, (F(1, 2),))

#: (entry point, the name its error gives the argument, the kinds of
#: caller number the case is run with, make).  ``make(x)`` passes x,
#: which is 1 as a float (1.0), a bool (True) or an int, where the entry
#: point takes the number, and returns what the entry point stored or
#: returned for it.  Every value is exactly 1, so only its type decides.
#: Every entry point that refuses a float refuses a Decimal too.
#: A kind is left out where the entry point already behaved so before
#: the rule was shared: the integrator's own floats and bools are in
#: ``test_measures.TestIntegratorRejectsFloats``, and an int that was
#: already turned into a Fraction needs no case.
ENTRY_POINTS = [
    ("exact", "x", "float bool", lambda x: rational.exact(x, "x")),
    ("Measure", "weights", "float bool int",
     lambda x: Measure(S2, (x, 0)).weights[0]),
    ("Functional.extensional", "weights", "float bool int",
     lambda x: Functional.extensional(S2, (x, 0)).measure.weights[0]),
    ("Functional intensional value", "value of probe", "float bool",
     lambda x: Functional.intensional(S2, lambda f: x, "probe")(
         IFunction.constant(S2, F(1, 2)))),
    ("FunctionalMixture", "mixture weights", "float bool int",
     lambda x: FunctionalMixture(S2, ((DIRAC_A, x),)).support[0][1]),
    ("MetaMeasure", "mixture weights", "float bool int",
     lambda x: MetaMeasure(S2, ((HALVES, x),)).support[0][1]),
    ("segments_respect_limits", "functional value", "float bool",
     lambda x: segments_respect_limits(lambda f: x)),
    ("IFunction", "function value", "float bool int",
     lambda x: IFunction(S1, (x,)).values[0]),
    ("IFunction.constant", "function value", "float bool",
     lambda x: IFunction.constant(S1, x).values[0]),
    ("IFunction.blend", "blend weight", "float bool",
     lambda x: F1.blend(F1, x).values[0]),
    ("IFunction.scale", "scale factor", "float bool",
     lambda x: F1.scale(x).values[0]),
    ("IntervalMeasure point location", "point-mass location", "int",
     lambda x: IntervalMeasure(((x, F(1)),), ()).points[0][0]),
    ("IntervalMeasure point mass", "point mass", "int",
     lambda x: IntervalMeasure(((F(0), x),), ()).points[0][1]),
    ("IntervalMeasure piece endpoint", "piece endpoint", "int",
     lambda x: IntervalMeasure((), ((F(0), x, F(1)),)).pieces[0][1]),
    ("IntervalMeasure piece mass", "piece mass", "int",
     lambda x: IntervalMeasure((), ((F(0), F(1), x),)).pieces[0][2]),
    ("IntervalMeasure.dirac", "point-mass location", "float bool",
     lambda x: IntervalMeasure.dirac(x).points[0][0]),
    ("AffineMap constant term", "constant term", "float bool int",
     lambda x: AffineMap(1, x, (F(0),)).a0),
    ("AffineMap coefficient", "coefficient", "float bool int",
     lambda x: AffineMap(1, F(0), (x,)).coeffs[0]),
    ("AffineMap call", "coordinate", "float bool",
     lambda x: AffineMap.projection(1, 0)([x])),
    ("AffineMap.constant", "constant", "float bool",
     lambda x: AffineMap.constant(1, x).a0),
    ("AffineMap.blend", "blend weight", "float bool",
     lambda x: AffineMap.blend(x).coeffs[0]),
    ("SequenceAffineMap constant term", "constant term", "float bool int",
     lambda x: SequenceAffineMap(x, ()).a0),
    ("SequenceAffineMap coefficient", "coefficient", "float bool int",
     lambda x: SequenceAffineMap(F(0), (x,)).coeffs[0]),
    ("VanishingSequence", "sequence entry", "float bool int",
     lambda x: VanishingSequence((x,)).entries[0]),
    ("EventualFn prefix", "prefix value", "float bool int",
     lambda x: EventualFn((x,), F(0)).prefix[0]),
    ("EventualFn tail", "tail value", "float bool int",
     lambda x: EventualFn((), x).tail),
    ("EventualFn.constant", "tail value", "float bool",
     lambda x: EventualFn.constant(x).tail),
    ("EventualFn.blend", "blend weight", "float bool",
     lambda x: EventualFn.constant(F(1)).blend(EventualFn.constant(F(0)), x).tail),
    ("hull_membership point", "point coordinate", "float bool",
     lambda x: hull_membership([(F(1),)], (x,))),
    ("hull_membership vertex", "vertex coordinate", "float bool",
     lambda x: hull_membership([(x,)], (F(1),))),
    ("extend_to_convex", "point coordinate", "float bool",
     lambda x: extend_to_convex(Functional.extensional(S1, (F(1),)),
                                [(F(1),)], [(x,)])),
    ("format_rational", "rational to format", "float bool",
     lambda x: rational.format_rational(x)),
]


def _cases(kind):
    return [pytest.param(what, make, id=name)
            for name, what, kinds, make in ENTRY_POINTS if kind in kinds.split()]


@pytest.mark.parametrize("what, make", _cases("float"))
def test_float_rejected(what, make):
    with pytest.raises(InvariantError,
                       match=f"^{what} must be an int or a Fraction, got float$"):
        make(1.0)


@pytest.mark.parametrize("what, make", _cases("bool"))
def test_bool_rejected(what, make):
    with pytest.raises(InvariantError,
                       match=f"^{what} must be an int or a Fraction, got bool$"):
        make(True)


@pytest.mark.parametrize("what, make", _cases("float"))
def test_decimal_rejected(what, make):
    with pytest.raises(InvariantError,
                       match=f"^{what} must be an int or a Fraction, got Decimal$"):
        make(Decimal(1))


@pytest.mark.parametrize("what, make", _cases("int"))
def test_int_stored_as_fraction(what, make):
    stored = make(1)
    assert type(stored) is Fraction and stored == 1


#: (entry point, the name its error gives the argument, make).  ``make(x)``
#: passes x where the entry point takes an index and returns the index it
#: stored for it.
INDEX_ENTRY_POINTS = [
    ("LimitWitness", "certificate index",
     lambda x: LimitWitness(
         S1, lambda n: IFunction.constant(S1, F(0)), (x,)).certs[0]),
    ("FinCofSet", "element",
     lambda x: min(FinCofSet.finite((x,)).elements)),
    ("EventualFn.final_segment_indicator", "segment start",
     lambda x: len(EventualFn.final_segment_indicator(x).prefix)),
]


def _index_cases():
    return [pytest.param(what, make, id=name)
            for name, what, make in INDEX_ENTRY_POINTS]


@pytest.mark.parametrize("what, make", _index_cases())
@pytest.mark.parametrize("x, kind", [(1.5, "float"), (1.0, "float"),
                                     (True, "bool"), (F(1), "Fraction")])
def test_index_not_an_int_rejected(what, make, x, kind):
    with pytest.raises(InvariantError,
                       match=f"^{what} must be an int, got {kind}$"):
        make(x)


@pytest.mark.parametrize("what, make", _index_cases())
def test_negative_index_rejected(what, make):
    with pytest.raises(InvariantError,
                       match=f"^{what} must be nonnegative, got -1$"):
        make(-1)


@pytest.mark.parametrize("what, make", _index_cases())
def test_index_stored_as_given(what, make):
    stored = make(2)
    assert type(stored) is int and stored == 2


#: (entry point, the name its error gives the argument, make) for the int
#: arguments of ``format_rational``'s state form.  ``make(x)`` passes x as
#: that argument, with the state [1] over 2 and base 2 elsewhere.
INT_ENTRY_POINTS = [
    ("format_rational numerator", "numerator to format",
     lambda x: rational.format_rational([x], 2, 2)),
    ("format_rational later numerator", "numerator to format",
     lambda x: rational.format_rational([1, x], 2, 2)),
    ("format_rational denominator", "denominator to format",
     lambda x: rational.format_rational([1], x, 2)),
    ("format_rational base", "base",
     lambda x: rational.format_rational([1], 2, x)),
]


@pytest.mark.parametrize("what, make", [
    pytest.param(what, make, id=name) for name, what, make in INT_ENTRY_POINTS])
@pytest.mark.parametrize("x, kind", [(1.5, "float"), (1.0, "float"),
                                     (True, "bool"), (F(1), "Fraction")])
def test_int_argument_not_an_int_rejected(what, make, x, kind):
    with pytest.raises(InvariantError,
                       match=f"^{what} must be an int, got {kind}$"):
        make(x)


@pytest.mark.parametrize("what, make", [
    pytest.param(what, make, id=name) for name, what, make in INT_ENTRY_POINTS
    if name != "format_rational base"])
@pytest.mark.parametrize("x", ["1.5", "NaN", "Infinity", "1E+3"])
def test_decimal_not_integral_rejected(what, make, x):
    """1E+3 is an integer, but its exponent is 3, not 0."""
    with pytest.raises(InvariantError, match=f"^{what} must be an integral "
                                             f"Decimal, got {re.escape(x)}$"):
        make(Decimal(x))


@pytest.mark.parametrize("args", [(Decimal(1), 2), (1, Decimal(2)),
                                  ([1], 2, Decimal(2))], ids=str)
def test_decimal_outside_the_base_form_rejected(args):
    with pytest.raises(InvariantError, match="must be an int, got Decimal$"):
        rational.format_rational(*args)


def test_float_mixture_weights_never_reach_flatten():
    with pytest.raises(InvariantError,
                       match="mixture weights must be an int or a Fraction, got float"):
        flatten(MetaMeasure(S2, ((HALVES, 0.5), (HALVES, 0.5))))


class TestRules:
    def test_exact_returns_a_fraction_unchanged(self):
        x = F(1, 3)
        assert rational.exact(x, "x") is x
        assert type(rational.exact(3, "x")) is Fraction

    def test_probability_returns_fractions(self):
        assert rational.probability([1, F(0)], "weights") == (F(1), F(0))

    def test_probability_sum_named(self):
        with pytest.raises(InvariantError,
                           match="^weights must sum to 1/1, got total mass 5/6$"):
            rational.probability([F(1, 2), F(1, 3)], "weights")

    def test_probability_negative_named(self):
        with pytest.raises(InvariantError,
                           match="^weights must be nonnegative, got -1/2$"):
            rational.probability([F(3, 2), F(-1, 2)], "weights")

    def test_probability_empty_sums_to_zero(self):
        with pytest.raises(InvariantError, match="got total mass 0/1"):
            rational.probability([], "weights")
