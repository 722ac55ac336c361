"""Exact convex-hull membership and coordinatewise extension.

Membership of a rational point in the convex hull of rational vertices
is a pure feasibility question: find nonnegative barycentric weights
summing to one that reproduce the point.  It is decided here by a
phase-one simplex with Bland's rule, so the solver terminates, on an
integer tableau, so the answer is exact and no float or Fraction enters
the pivots.  Dimension is capped because the callers only need desk
scale.

The tableau is fraction free (Bareiss 1968, Edmonds 1967): integers
``T`` over one positive denominator ``d``, with the invariant

    real tableau = T / d,   d = the last pivot of T,

which Bareiss's theorem makes exact.  Each row of ``A x = b`` is
negated if its right-hand side is negative and scaled to integers by
the lcm of its denominators; ``d`` starts at the *product* of those
lcms, the determinant of the scaled artificial basis.  Then every entry
of ``T`` is a minor of the scaled matrix, and the step
``(p*T[i][j] - T[i][e]*T[r][j]) // d`` on pivot ``p = T[r][e]`` divides
exactly.  Starting ``d`` at the lcm of the lcms keeps ``T / d`` right at
the start but breaks that invariant: the floor divisions then drop
remainders and the verdicts go wrong.  Bland's rule and the
cross-multiplied ratio test read only signs and ratios of ``T``, which
``d > 0`` preserves, so every pivot is the one a Fraction tableau takes.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Sequence

from .config import MAX_HULL_DIM
from .errors import GirylabError, InvariantError
from .rational import ONE, _quoted, exact, lift
from .duality import Functional

Point = tuple[Fraction, ...]


def _phase_one_feasible(rows: list[list[Fraction]], rhs: list[Fraction]) -> bool:
    """Is {x >= 0 : A x = b} nonempty?  Bland's rule on an integer
    tableau over one denominator (see the module docstring).  The rows
    are those of A, at least one."""
    m = len(rows)
    n = len(rows[0])
    lifted = []
    for row, b in zip(rows, rhs):
        nums, den = lift([*row, b])
        lifted.append(([-v for v in nums] if b < 0 else nums, den))
    d = prod(den for _, den in lifted)
    tab = []
    for i, (nums, den) in enumerate(lifted):
        scale = d // den
        art = [0] * m
        art[i] = d
        tab.append([v * scale for v in nums[:n]] + art + [nums[n] * scale])
    basis = [n + i for i in range(m)]

    # reduced costs, times d, for minimizing the artificial total
    cost = [-sum(column) for column in zip(*tab)]
    for i in range(m):
        cost[n + i] += d

    while True:
        enter = next((j for j in range(n + m) if cost[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                # b_i / a_i against b_leave / a_leave, both divisors positive
                mine = tab[i][-1] * tab[leave][enter]
                best = tab[leave][-1] * a
                if mine < best or (mine == best and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise InvariantError("feasibility program is unbounded")  # unreachable
        pivot_row = tab[leave]
        p = pivot_row[enter]
        for i in range(m):
            if i != leave:
                f = tab[i][enter]
                tab[i] = [(p * a - f * b) // d for a, b in zip(tab[i], pivot_row)]
        f = cost[enter]
        cost = [(p * a - f * b) // d for a, b in zip(cost, pivot_row)]
        d = p
        basis[leave] = enter

    return cost[-1] == 0


def hull_membership(vertices: Sequence[Sequence[Fraction]],
                    x: Sequence[Fraction]) -> bool:
    """True iff x is a convex combination of the vertices, decided exactly."""
    if not vertices:
        raise GirylabError("need at least one vertex")
    dim = len(vertices[0])
    if dim > MAX_HULL_DIM:
        raise GirylabError(f"dimension {dim} exceeds the cap {MAX_HULL_DIM}")
    if len(x) != dim or any(len(v) != dim for v in vertices):
        raise GirylabError("dimension mismatch between vertices and point")

    verts = [tuple(exact(c, "vertex coordinate") for c in v) for v in vertices]
    target = [exact(c, "point coordinate") for c in x]
    rows = [[v[d] for v in verts] for d in range(dim)]
    rows.append([ONE] * len(verts))
    rhs = target + [ONE]
    return _phase_one_feasible(rows, rhs)


def extend_to_convex(phi: Functional,
                     vertices: Sequence[Sequence[Fraction]],
                     points_by_atom: Sequence[Sequence[Fraction]]) -> Point:
    """Apply the linear extension of an extensional functional in each
    coordinate of an atom-indexed family of hull points.

    The extension uses the same coefficients on every real coordinate,
    so the output is the coefficient-weighted combination of the input
    points; it always lands back in the hull, which callers certify
    with hull_membership.
    """
    if not phi.is_extensional:
        raise GirylabError("linear extension needs the coefficient form")
    n_atoms = len(phi.space.atoms)
    if len(points_by_atom) != n_atoms:
        raise GirylabError("need one hull point per atom")
    if not vertices:
        raise GirylabError("need at least one vertex")
    dim = len(vertices[0])
    pts = [tuple(exact(c, "point coordinate") for c in p) for p in points_by_atom]
    for p in pts:
        if len(p) != dim:
            raise GirylabError("dimension mismatch among the atom points")
        if not hull_membership(vertices, p):
            shown = ", ".join(map(_quoted, p))
            raise GirylabError(f"atom point ({shown}) lies outside the hull")
    return tuple(phi.dot([p[d] for p in pts]) for d in range(dim))
