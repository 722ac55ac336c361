"""Shared hypothesis strategies and independent oracles for the tests.

The oracles here deliberately re-implement operations by a different
route (brute-force closure, unions of atoms, exhaustive preimage scans,
stochastic matrix products, subset enumeration) so the production code
is checked against something it does not share.
"""

from fractions import Fraction

import hypothesis.strategies as st

from girylab.spaces import FinSpace, generate_sigma
from girylab.measures import Measure
from girylab.monad import Kernel, _require_digits, bind

LABELS = "abcdefgh"


def brute_closure(n_points: int, generator_masks) -> frozenset:
    """Fixed-point closure under complement and pairwise union."""
    full = (1 << n_points) - 1
    sigma = {0, full, *generator_masks}
    changed = True
    while changed:
        changed = False
        current = list(sigma)
        for m in current:
            if m ^ full not in sigma:
                sigma.add(m ^ full)
                changed = True
        current = list(sigma)
        for i, a in enumerate(current):
            for b in current[i + 1:]:
                if a | b not in sigma:
                    sigma.add(a | b)
                    changed = True
    return frozenset(sigma)


def minimal_nonempty(sigma) -> set:
    """Atoms by definition: minimal nonempty members of sigma."""
    out = set()
    for s in sigma:
        if s == 0:
            continue
        if not any(t != 0 and t != s and t & s == t for t in sigma):
            out.add(s)
    return out


def mask_of(space: FinSpace, labels) -> int:
    """The bitmask of the carrier points ``labels``."""
    mask = 0
    for lab in labels:
        mask |= 1 << space.point_index(lab)
    return mask


def indiscrete(labels) -> FinSpace:
    """The space on ``labels`` whose only measurable sets are the empty
    set and the carrier."""
    return generate_sigma(labels, [])


def sigma(space: FinSpace) -> frozenset:
    """Every measurable set of ``space``: the unions of its atoms."""
    sets = {0}
    for atom in space.atoms:
        sets |= {mask | atom for mask in sets}
    return frozenset(sets)


def exhaustive_measurable(dom: FinSpace, cod: FinSpace,
                          table: tuple[int, ...]) -> bool:
    """Whether the map taking dom point i to cod point ``table[i]`` is
    measurable, by the preimage of every set of the codomain
    sigma-algebra."""
    dom_sets = sigma(dom)
    return all(sum(1 << i for i, t in enumerate(table) if s >> t & 1)
               in dom_sets for s in sigma(cod))


def matrix_apply(weights, rows):
    """Row vector times row-stochastic matrix, exact."""
    n = len(rows[0])
    return tuple(
        sum((weights[i] * rows[i][j] for i in range(len(weights))),
            Fraction(0))
        for j in range(n))


def trajectory(k: Kernel, pi0: Measure, n: int) -> list[Measure]:
    """The states at steps 0..n inclusive, every one held: the int chain
    that the Markov tests compare ``n_step`` and ``decimal_states``
    against.  It stops with DigitLimitError at the first state with a
    weight past rational.MAX_DIGITS, as ``n_step`` does."""
    out = [pi0]
    for step in range(1, n + 1):
        out.append(bind(out[-1], k))
        _require_digits(out[-1], f"a weight of the state at step {step}")
    return out


@st.composite
def unit_fractions(draw, max_den: int = 24) -> Fraction:
    den = draw(st.integers(1, max_den))
    num = draw(st.integers(0, den))
    return Fraction(num, den)


@st.composite
def spaces(draw, max_points: int = 5) -> FinSpace:
    n = draw(st.integers(1, max_points))
    labels = list(LABELS[:n])
    gens = draw(st.lists(
        st.lists(st.sampled_from(labels), max_size=n, unique=True),
        max_size=3))
    return generate_sigma(labels, gens)


@st.composite
def measures(draw, space: FinSpace) -> Measure:
    n = len(space.atoms)
    parts = draw(st.lists(st.integers(0, 8), min_size=n, max_size=n)
                 .filter(lambda p: sum(p) > 0))
    total = sum(parts)
    return Measure(space, tuple(Fraction(p, total) for p in parts))


@st.composite
def spaces_with_measures(draw, max_points: int = 5):
    space = draw(spaces(max_points))
    return space, draw(measures(space))
