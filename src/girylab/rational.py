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
output.  Text becomes a number in ``_read_ints`` alone, by one grammar on
every Python: an integer is ASCII digits after an optional sign, and a
rational is one or ``p/q`` with ``q`` unsigned and not zero.  Numerators
and denominators are capped at ``MAX_DIGITS`` decimal digits on parse
and in Markov states.

``probability_numerators`` and ``unit_numerators`` reduce an int vector
by one ``gcd(den, *nums)``.

A number becomes text in one function, ``format_rational``.  Its form
``format_rational(x)`` writes a Fraction or an int, a witness's value or
a message's: ``"p/q"`` in lowest terms, or past ``MAX_DIGITS`` only its
size, so writing one never raises (``_quoted_int`` writes an int by the
same rule).  Its pair form ``format_rational([(n, d), ...])`` writes a
Markov state as given, one string per pair, and enforces ``MAX_DIGITS``;
``monad.markov_weights`` yields the pairs in lowest terms.  A pair may
hold integral ``decimal.Decimal``s (finite, with exponent 0), as a traced
run evolves them; every other entry point rejects a Decimal.  Ints are
written through ``Decimal`` too, which the int-to-str limit does not
govern.
"""

from __future__ import annotations

import random
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DigitLimitError, InvariantError

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)

#: The most decimal digits a numerator or denominator may have.  It equals
#: CPython's default int-to-str limit (the CVE-2020-10735 guard), which
#: governs neither ``_read_ints`` nor ``format_rational``: both convert
#: through Decimal, so they read and write every number within it under
#: any limit.
MAX_DIGITS = 4300
_DIGIT_BOUND = 10 ** MAX_DIGITS
_DECIMAL_ONE = Decimal(1)


def _digit_limit_error(what: str, digits: int) -> DigitLimitError:
    return DigitLimitError(f"{what} has {digits:,} digits, more than the "
                           f"limit of {MAX_DIGITS:,} (rational.MAX_DIGITS)")


def fits_digits(n) -> bool:
    """Whether the int or integral Decimal ``n`` has at most MAX_DIGITS
    decimal digits, a Decimal's counted by ``adjusted()``."""
    if isinstance(n, Decimal):
        return n.adjusted() < MAX_DIGITS
    return abs(n) < _DIGIT_BOUND


def _digits(n) -> int:
    """Decimal digits of the int or integral Decimal ``n``, counted
    without converting it to str."""
    if isinstance(n, Decimal):
        return n.adjusted() + 1
    n = abs(n)
    digits = max(1, n.bit_length() * 1233 >> 12)  # 1233/4096 < log10(2)
    while n >= 10 ** digits:
        digits += 1
    return digits


def require_digits(n, den, what: str) -> None:
    """DigitLimitError naming ``what`` unless the ints or integral
    Decimals ``n`` and ``den`` both fit in MAX_DIGITS decimal digits."""
    if not (fits_digits(n) and fits_digits(den)):
        raise _digit_limit_error(what, max(_digits(n), _digits(den)))


def _quoted_int(n) -> str:
    """The int or integral Decimal ``n`` as a message shows it: its digits,
    or past MAX_DIGITS only its size, by ``format_rational``'s rule."""
    if fits_digits(n):
        return f"{Decimal(n)}"
    return f"an integer of {_digits(n):,} digits"


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
        raise InvariantError(f"{what} must be positive, got {_quoted_int(x)}")
    return x


def index(x, what: str) -> int:
    """``x`` unchanged if it is an int, not a bool, and at least 0;
    otherwise InvariantError naming ``what``."""
    if require_int(x, what) < 0:
        raise InvariantError(f"{what} must be nonnegative, got {_quoted_int(x)}")
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
                                     f"{format_rational(Fraction(n, den))}")


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
                                 f"{format_rational(Fraction(n, den))}")
    if sum(nums) != den:
        raise InvariantError(f"{what} must sum to 1/1, got total mass "
                             f"{format_rational(Fraction(sum(nums), den))}")
    return _lowest_terms(nums, den)


def probability(xs: Iterable, what: str) -> tuple[Fraction, ...]:
    """``xs`` as a tuple of Fractions if it is a probability vector: every
    entry ``exact``, and the integer numerators over the lcm of the
    denominators (``lift``) pass ``probability_numerators``, so the sum
    takes no gcd per addition."""
    ps = tuple(exact(x, what) for x in xs)
    probability_numerators(*lift(ps), what)
    return ps


def format_rational(x) -> str | list[str]:
    """Render a rational canonically as ``"p/q"`` (``"3/4"``, ``"1/1"``,
    ``"0/1"``), its ints written through Decimal.

    A Fraction or an int ``x`` is written in lowest terms; past MAX_DIGITS
    digits only its size is written, "a rational of N digits", so a
    witness or a message can always be written.

    A list ``x`` of pairs ``(n, d)`` is a Markov state: the list of the
    strings ``"n/d"``, each pair written as given, so a caller that wants
    lowest terms reduces first (``monad.markov_weights`` does).  ``n`` and
    ``d`` are ints or integral Decimals (finite, with exponent 0), and
    ``d`` is positive; otherwise InvariantError naming the numerator or
    the denominator to format.  Both must fit in MAX_DIGITS digits, a
    Decimal's counted by ``adjusted()``; otherwise DigitLimitError
    ("rational to format has N digits, more than the limit ...").

    A float, a bool, or a Decimal outside a pair raises InvariantError.
    """
    if not isinstance(x, list):
        x = exact(x, "rational to format")
        n, d = x.numerator, x.denominator
        if fits_digits(n) and fits_digits(d):
            return f"{Decimal(n)}/{Decimal(d)}"
        return f"a rational of {max(_digits(n), _digits(d)):,} digits"
    out = []
    for n, d in x:
        _integer(n, "numerator to format")
        _positive(d, "denominator to format", _integer)
        require_digits(n, d, "rational to format")
        # ``or 0`` writes a Decimal -0 as 0
        out.append(f"{Decimal(n or 0)}/{Decimal(d)}")
    return out


def _read_ints(what: str, *texts: str) -> list[int]:
    """The ints written in ``texts``: ASCII digits, the first after one
    optional ``+`` or ``-``.  The grammar of every text is checked before
    a digit is counted: anything else raises ValueError "cannot parse
    ``what``", and then more than MAX_DIGITS digits in any text
    DigitLimitError naming ``what``.  It converts through Decimal, which
    the interpreter's int-to-str limit does not govern."""
    digits = [text[1:] if i == 0 and text[:1] in ("+", "-") else text
              for i, text in enumerate(texts)]
    if not all(d.isascii() and d.isdigit() for d in digits):
        raise ValueError(f"cannot parse {what}")
    longest = max(map(len, digits))
    if longest > MAX_DIGITS:
        raise _digit_limit_error(what, longest)
    return [int(Decimal(text)) for text in texts]


def parse_int(s: str) -> int:
    """The integer the string ``s`` writes, by ``_read_ints``' grammar."""
    return _read_ints(f"integer {_shown(s)}", s.strip())[0]


def parse_rational(s: str) -> Fraction:
    """The rational ``"p/q"`` or the integer ``"p"`` that the string ``s``
    writes, by ``_read_ints``' grammar: ValueError if ``s`` is not one
    (a decimal such as ``"0.5"`` included), then DigitLimitError if ``p``
    or ``q`` has more than MAX_DIGITS digits, then ValueError if ``q`` is
    zero."""
    p, slash, q = s.strip().partition("/")
    what = f"rational {_shown(s)}"
    try:
        num, den = _read_ints(what, p, q if slash else "1")
    except DigitLimitError:
        raise
    except ValueError:
        raise ValueError(f"cannot parse {what}: expected 'p/q' with "
                         "integers p and q") from None
    if den == 0:
        raise ValueError(f"{what} has a zero denominator")
    return Fraction(num, den)


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
    raise InvariantError(f"{what} must lie in [0,1], got {format_rational(x)}")
