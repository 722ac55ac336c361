"""Exact convex-hull membership and coordinatewise extension.

Membership of a rational point in the convex hull of rational vertices
is a pure feasibility question: find nonnegative barycentric weights
summing to one that reproduce the point.  It is decided here by a
phase-one simplex over Fractions with Bland's rule, so the answer is
exact and the solver terminates; no floating point is involved
anywhere.  Dimension is capped because the callers only need desk
scale.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import GirylabError, InvariantError
from .rational import ONE, ZERO, exact
from .duality import Functional

MAX_HULL_DIM = 4

Point = tuple[Fraction, ...]


def _phase_one_feasible(rows: list[list[Fraction]], rhs: list[Fraction]) -> bool:
    """Is {x >= 0 : A x = b} nonempty?  Bland's rule, exact arithmetic."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    tab = []
    for i in range(m):
        row = list(rows[i])
        b = rhs[i]
        if b < 0:
            row = [-v for v in row]
            b = -b
        art = [ZERO] * m
        art[i] = ONE
        tab.append(row + art + [b])
    basis = [n + i for i in range(m)]

    # reduced costs for minimizing the artificial total
    cost = [ZERO] * (n + m + 1)
    for i in range(m):
        for j in range(n + m + 1):
            cost[j] -= tab[i][j]
    for i in range(m):
        cost[n + i] += ONE

    while True:
        enter = next((j for j in range(n + m) if cost[j] < 0), None)
        if enter is None:
            break
        leave, best = None, None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best or \
                        (ratio == best and basis[i] < basis[leave]):
                    leave, best = i, ratio
        if leave is None:
            raise InvariantError("feasibility program is unbounded")  # unreachable
        pivot = tab[leave][enter]
        tab[leave] = [v / pivot for v in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                factor = tab[i][enter]
                tab[i] = [a - factor * b for a, b in zip(tab[i], tab[leave])]
        if cost[enter] != 0:
            factor = cost[enter]
            cost = [a - factor * b for a, b in zip(cost, tab[leave])]
        basis[leave] = enter

    return -cost[-1] == ZERO


def hull_membership(vertices: Sequence[Sequence[Fraction]],
                    x: Sequence[Fraction],
                    max_dim: int = MAX_HULL_DIM) -> bool:
    """True iff x is a convex combination of the vertices, decided exactly."""
    if not vertices:
        raise GirylabError("need at least one vertex")
    dim = len(vertices[0])
    if dim > max_dim:
        raise GirylabError(f"dimension {dim} exceeds the cap {max_dim}")
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
                     points_by_atom: Sequence[Sequence[Fraction]],
                     max_dim: int = MAX_HULL_DIM) -> Point:
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
    dim = len(vertices[0])
    pts = [tuple(exact(c, "point coordinate") for c in p) for p in points_by_atom]
    for p in pts:
        if len(p) != dim:
            raise GirylabError("dimension mismatch among the atom points")
        if not hull_membership(vertices, p, max_dim):
            raise GirylabError(f"atom point {p} lies outside the hull")
    return tuple(
        sum((c * p[d] for c, p in zip(phi.coeffs, pts)), ZERO)
        for d in range(dim))
