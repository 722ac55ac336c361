"""Exact rationals: the four number rules, parsing, formatting, range guards.

Every number in this package is a ``fractions.Fraction``, an index, or
an int numerator over an int denominator, and every value it builds
stores what four rules return.  ``exact`` admits a caller's number: a
Fraction as the same object, an int as a new Fraction; a float, a bool or
anything else raises InvariantError naming the argument.
``probability`` admits a probability vector: exact, nonnegative entries
whose integer-numerator sum is 1.  ``probability_numerators`` is the same
check on int numerators over one int denominator, and returns them in
lowest terms; ``unit_numerators`` checks int numerators of values in
[0,1] the same way, and ``require_unit_numerators`` is its range check
alone.  ``index`` admits a natural number used as a position or a
count: an int, not a bool, at least 0.  On the wire rationals are
``"p/q"`` strings, so round trips are lossless and no float appears in
output.  Numerators and denominators are capped at ``MAX_DIGITS``
decimal digits, on parse, on format and in Markov evolution.

``probability_numerators`` and ``unit_numerators`` reduce an int vector
by one ``gcd(den, *nums)``.  Markov evolution takes that gcd too: the
states and kernel powers of ``monad.n_step`` stay within about twice
``MAX_DIGITS`` digits, so each gcd is bounded.  A ``Decimal`` has no
gcd.  A Markov state's denominator has few primes: it divides
``den(pi0) * L**t``, with ``L`` the lcm of the kernel rows'
denominators, so every prime factor of it divides the small
``den(pi0) * L`` (``monad.denominator_base``).  Given such a ``base``,
``_common_factor`` finds the gcd of a denominator and its numerators
from residues no larger than a base-sized multiple of the factor found
so far.  It is used only where a Decimal may stand for an int: to
reduce each state of ``monad.decimal_states``, and each numerator in
the state form of ``format_rational``.

A number becomes text in two places.  ``format_rational`` writes a
value of a report or of a Markov state, and has two forms: a Fraction or
an int, and the state form ``format_rational(nums, den, base)``, which
writes a whole Markov state, one string per numerator over the shared
``den``, each reduced by its own common factor with ``den`` found from
``base``.  Both enforce ``MAX_DIGITS``.  ``_quoted`` writes the number
an error message shows: ``"p/q"`` in lowest terms, or past
``MAX_DIGITS`` only its size, so writing a message never raises and the
message names the check that failed.

The state form alone also takes the numerators and ``den`` as integral
``decimal.Decimal``s: finite, with exponent 0.  CPython writes an int in
decimal in time quadratic in its length, while a Decimal keeps base-10**19
limbs and writes them in linear time; a traced Markov run evolves its
states as such Decimals (``monad.decimal_states``) and writes them here.
All Decimal arithmetic runs under ``DECIMAL_INTEGERS``, which traps every
result that is not exact.  Every other entry point rejects a Decimal.
"""

from __future__ import annotations

import random
from decimal import (MAX_PREC, Context, Decimal, DivisionByZero, Inexact,
                     InvalidOperation, Overflow, Rounded, localcontext)
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DigitLimitError, InvariantError

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)

#: The most decimal digits a numerator or denominator may have.  It equals
#: CPython's default int-to-str limit (the CVE-2020-10735 guard), so every
#: number within it can be written out and read back.
MAX_DIGITS = 4300
_DIGIT_BOUND = 10 ** MAX_DIGITS

#: The context of all integer arithmetic on Decimals: precision enough for
#: any integer, and a trap on every signal of a result that is not exact.
DECIMAL_INTEGERS = Context(prec=MAX_PREC, traps=[
    Inexact, Rounded, InvalidOperation, DivisionByZero, Overflow])
_DECIMAL_ONE = Decimal(1)


def _digit_limit_error(what: str, digits: int) -> DigitLimitError:
    return DigitLimitError(f"{what} has {digits:,} digits, more than the "
                           f"limit of {MAX_DIGITS:,} (rational.MAX_DIGITS)")


def _decimal_digits(n: int) -> int:
    """Decimal digits of ``abs(n)``, counted without converting it to str."""
    n = abs(n)
    digits = max(1, n.bit_length() * 1233 >> 12)  # 1233/4096 < log10(2)
    while n >= 10 ** digits:
        digits += 1
    return digits


def fits_digits(n: int) -> bool:
    """Whether ``abs(n)`` has at most MAX_DIGITS decimal digits."""
    return abs(n) < _DIGIT_BOUND


def _fits(n) -> bool:
    """``fits_digits`` for an int or an integral Decimal, whose digits
    ``adjusted()`` counts without comparing it to an int."""
    if isinstance(n, Decimal):
        return n.adjusted() < MAX_DIGITS
    return fits_digits(n)


def _digits(n) -> int:
    """Decimal digits of the int or integral Decimal ``n``."""
    if isinstance(n, Decimal):
        return n.adjusted() + 1
    return _decimal_digits(n)


def _string_digits(s: str) -> int:
    """Digits written in an integer string: its length without surrounding
    space, sign or '_' separators, counted before any conversion."""
    return len(s.strip().lstrip("+-").replace("_", ""))


def _require_pair_digits(n, den, what: str) -> None:
    """DigitLimitError naming ``what`` unless the ints or integral
    Decimals ``n`` and ``den`` both fit in MAX_DIGITS decimal digits."""
    if not (_fits(n) and _fits(den)):
        raise _digit_limit_error(what, max(_digits(n), _digits(den)))


def require_digits(x: Fraction, what: str) -> Fraction:
    """``x`` unchanged if its numerator and denominator fit in MAX_DIGITS
    decimal digits; otherwise DigitLimitError naming ``what``."""
    _require_pair_digits(x.numerator, x.denominator, what)
    return x


def _quoted(x, den: int = 1) -> str:
    """The rational ``x / den`` as an error message shows it: ``"p/q"``
    in lowest terms, or, past MAX_DIGITS digits, "a rational of N
    digits".  ``x`` is an int or a Fraction and ``den`` a positive int,
    as every caller has checked, so writing a message never raises and
    the message names the check that failed."""
    x = Fraction(x, den)
    n, den = x.numerator, x.denominator
    if fits_digits(n) and fits_digits(den):
        return f"{n}/{den}"
    return ("a rational of "
            f"{max(_decimal_digits(n), _decimal_digits(den)):,} digits")


def _shown(s: str) -> str:
    """``s`` quoted for an error message, cut short if it is long."""
    return repr(s) if len(s) <= 40 else f"{s[:40]!r}... ({len(s):,} characters)"


def exact(x, what: str) -> Fraction:
    """``x`` as a Fraction: the same object if it is one, a new one if it
    is an int.  A float, a bool or anything else raises InvariantError
    naming ``what``."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise InvariantError(
        f"{what} must be an int or a Fraction, got {type(x).__name__}")


def require_int(x, what: str) -> int:
    """``x`` unchanged if it is an int, not a bool; otherwise
    InvariantError naming ``what``."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise InvariantError(f"{what} must be an int, got {type(x).__name__}")
    return x


def _integer(x, what: str):
    """``x`` unchanged if it is an int, not a bool, or an integral Decimal
    (finite, with exponent 0); otherwise InvariantError naming ``what``."""
    if not isinstance(x, Decimal):
        return require_int(x, what)
    if not x.same_quantum(_DECIMAL_ONE):
        raise InvariantError(f"{what} must be an integral Decimal, got {x}")
    return x


def _positive(x, what: str, admit=require_int):
    """``admit(x, what)`` if it is at least 1; otherwise InvariantError
    naming ``what``."""
    if admit(x, what) <= 0:
        raise InvariantError(f"{what} must be positive, got {x}")
    return x


def index(x, what: str) -> int:
    """``x`` unchanged if it is an int, not a bool, and at least 0;
    otherwise InvariantError naming ``what``."""
    if require_int(x, what) < 0:
        raise InvariantError(f"{what} must be nonnegative, got {x}")
    return x


def lift(xs: Sequence[Fraction], den: int = 1) -> tuple[list[int], int]:
    """Integer numerators of the rationals ``xs`` over
    lcm(den, their denominators), and that lcm."""
    dens = [x.denominator for x in xs]
    den = lcm(den, *dens)
    return [x.numerator * (den // d) for x, d in zip(xs, dens)], den


_INT_ONLY = frozenset((int,))


def _numerators(nums: Iterable, den: int, what: str) -> tuple[int, ...]:
    """``nums`` as a tuple if ``den`` and every numerator are ints, not
    bools, and ``den`` is positive; otherwise InvariantError naming
    ``what``."""
    nums = tuple(nums)
    if not (type(den) is int and _INT_ONLY.issuperset(map(type, nums))):
        for n in (den, *nums):  # walked only when a type is not exactly int
            if not isinstance(n, int) or isinstance(n, bool):
                raise InvariantError(f"{what} must be int numerators over an "
                                     f"int denominator, got {type(n).__name__}")
    if den <= 0:
        raise InvariantError(f"{what} must have a positive denominator")
    return nums


def _common_factor(nums: Sequence, den, base: int) -> int:
    """``gcd(den, *nums)``, found from residues, on the caller's promise
    that every prime factor of ``den`` divides the positive int ``base``.

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

    The values are integral Decimals under ``DECIMAL_INTEGERS``, or ints
    in the state form of ``format_rational``; a residue is an int either
    way.
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


def _lowest_terms(nums: tuple[int, ...],
                  den: int) -> tuple[tuple[int, ...], int]:
    """``nums`` and ``den`` divided by their one ``gcd(den, *nums)``."""
    g = gcd(den, *nums)
    if g == 1:
        return nums, den
    return tuple(n // g for n in nums), den // g


def require_unit_numerators(nums: Sequence[int], den: int, what: str) -> None:
    """InvariantError naming ``what`` and the first ``n/den`` outside
    [0,1], if one is.  The ints are range-checked at once with ``min`` and
    ``max``; only on a failure are they walked."""
    if min(nums, default=0) < 0 or max(nums, default=0) > den:
        for n in nums:
            if not 0 <= n <= den:
                raise InvariantError(f"{what} must lie in [0,1], got "
                                     f"{_quoted(n, den)}")


def unit_numerators(nums: Iterable, den: int,
                    what: str) -> tuple[tuple[int, ...], int]:
    """``nums`` over ``den`` in lowest terms if every ``n/den`` lies in
    [0,1]: ``den`` and every numerator an int, not a bool, ``den``
    positive and ``0 <= n <= den``.  All are then divided by their gcd;
    otherwise InvariantError naming ``what``."""
    nums = _numerators(nums, den, what)
    require_unit_numerators(nums, den, what)
    return _lowest_terms(nums, den)


def probability_numerators(nums: Iterable, den: int,
                           what: str) -> tuple[tuple[int, ...], int]:
    """``nums`` over ``den`` in lowest terms if it is a probability vector:
    ``den`` and every numerator an int, not a bool, every numerator
    nonnegative, and their sum ``den``.  All are then divided by their
    one gcd; otherwise InvariantError naming ``what``."""
    nums = _numerators(nums, den, what)
    for n in nums:
        if n < 0:
            raise InvariantError(f"{what} must be nonnegative, got "
                                 f"{_quoted(n, den)}")
    if sum(nums) != den:
        raise InvariantError(f"{what} must sum to 1/1, got total mass "
                             f"{_quoted(sum(nums), den)}")
    return _lowest_terms(nums, den)


def probability(xs: Iterable, what: str) -> tuple[Fraction, ...]:
    """``xs`` as a tuple of Fractions if it is a probability vector: every
    entry ``exact``, and the integer numerators over the lcm of the
    denominators (``lift``) pass ``probability_numerators``, so the sum
    takes no gcd per addition."""
    ps = tuple(exact(x, what) for x in xs)
    probability_numerators(*lift(ps), what)
    return ps


def format_rational(x, den=None, base: int | None = None) -> str | list[str]:
    """Render a rational canonically as ``"p/q"`` in lowest terms
    (``"3/4"``, ``"1/1"``, ``"0/1"``).

    ``format_rational(x)`` writes the Fraction or int ``x``.

    ``format_rational(nums, den, base)`` writes a state: the list of the
    strings of each ``n / den`` for ``n`` in ``nums``.  It takes the
    caller's promise that every prime factor of ``den`` divides the
    positive int ``base``.  For each ``n`` it finds ``g = gcd(n, den)``
    by the residue rounds of ``_common_factor`` on the one numerator;
    then ``n // g`` and ``den // g`` are exact divisions.  A broken
    promise is not detected, and the result may then not be in lowest
    terms.

    In this form the numerators and ``den`` may also be integral
    Decimals, finite with exponent 0, so that a long one is written in
    linear time (see the module docstring); ``base`` stays an int.  The
    rounds are the same and run under ``DECIMAL_INTEGERS``: every residue
    is a small int for the gcd, and ``g`` divides ``n`` and ``den``, so
    every division is exact.  A Decimal is written with the digits of
    the int it equals, and its digits are counted by ``adjusted()``.

    Each written numerator and denominator must fit in MAX_DIGITS digits
    (DigitLimitError, with the message the Fraction form gives for that
    pair).  A float, a bool, a Fraction where an int is needed, a
    Decimal that is not integral or is given outside the state form, a
    ``den`` or ``base`` below 1, or a ``den`` without a ``base`` or a
    ``base`` without a ``den`` raises InvariantError.
    """
    if den is None and base is None:
        f = require_digits(exact(x, "rational to format"), "rational to format")
        return f"{f.numerator}/{f.denominator}"
    if den is None or base is None:
        raise InvariantError("a state to format needs den and base together")
    _positive(den, "denominator to format", _integer)
    _positive(base, "base")
    out = []
    with localcontext(DECIMAL_INTEGERS):
        for n in x:
            n, d = _integer(n, "numerator to format"), den
            g = _common_factor((n,), den, base)
            if g > 1:
                n, d = n // g, den // g
            _require_pair_digits(n, d, "rational to format")
            out.append(f"{n or 0}/{d}")  # ``or 0`` writes a Decimal -0 as 0
    return out


def parse_int(s: str) -> int:
    """Parse a decimal integer string; DigitLimitError past MAX_DIGITS digits."""
    digits = _string_digits(s)
    if digits > MAX_DIGITS:
        raise _digit_limit_error(f"integer {_shown(s)}", digits)
    return int(s)


def parse_rational(s: str) -> Fraction:
    """Parse ``"p/q"`` (or a bare integer string) into a Fraction.

    Raises ValueError on floats or malformed input; '.' is rejected
    outright so decimal notation cannot sneak inexact values in.  A
    numerator or denominator past MAX_DIGITS digits raises
    DigitLimitError (a ValueError) before any conversion.
    """
    text = s.strip()
    if "." in text or "e" in text.lower():
        raise ValueError(
            f"rational {_shown(s)} must be written as 'p/q', not a decimal")
    for part in text.split("/"):
        digits = _string_digits(part)
        if digits > MAX_DIGITS:
            raise _digit_limit_error(f"rational {_shown(s)}", digits)
    try:
        return Fraction(text)
    except ValueError:
        raise ValueError(f"cannot parse rational {_shown(s)}: "
                         "expected 'p/q' with integers p and q") from None
    except ZeroDivisionError:
        raise ValueError(f"rational {_shown(s)} has a zero denominator") from None


def random_fraction(rng: random.Random, lo: int = 0, hi: int = 1,
                    max_den: int = 64) -> Fraction:
    """A random rational in [lo, hi]: draw a denominator up to ``max_den``,
    then a numerator over it."""
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(lo * den, hi * den), den)


def require_unit(x, what: str) -> Fraction:
    """``exact(x, what)`` if it lies in [0,1]; else InvariantError."""
    x = exact(x, what)
    if 0 <= x.numerator <= x.denominator:
        return x
    raise InvariantError(f"{what} must lie in [0,1], got {_quoted(x)}")
