"""Exact hull membership and the coordinatewise extension."""

import itertools
import random
import re
from fractions import Fraction

import pytest

from girylab.errors import GirylabError, InvariantError
from girylab.harness import SuiteConfig, generate_polytope, point_in_hull
from girylab.spaces import FinSpace
from girylab.duality import Functional
from girylab.hull import _phase_one_feasible, extend_to_convex, hull_membership
from girylab.rational import ONE, ZERO

F = Fraction

TRIANGLE = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]


def phase_one_oracle(rows: list[list[Fraction]], rhs: list[Fraction]) -> bool:
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


def membership_program(verts, x):
    """The rows and right-hand side hull_membership hands the solver."""
    rows = [[v[d] for v in verts] for d in range(len(x))]
    rows.append([ONE] * len(verts))
    return rows, list(x) + [ONE]


def oracle_instance(rng: random.Random, cfg: SuiteConfig):
    """A hull program in dimension 1-4 of one of five kinds: a point
    inside, a point moved out, repeated vertices, a point on a vertex,
    or a coordinate that is zero on every vertex and on the point (the
    last three make ratio-test ties).  Coordinates lie in [-8, 8], so
    many right-hand sides are negative."""
    verts = generate_polytope(rng, cfg)
    kind = rng.randrange(5)
    if kind == 2:
        verts += [rng.choice(verts) for _ in range(rng.randint(1, 3))]
    if kind == 3:
        return verts, rng.choice(verts)
    if kind == 4:
        d = rng.randrange(len(verts[0]))
        verts = [v[:d] + (ZERO,) + v[d + 1:] for v in verts]
    x = list(point_in_hull(rng, verts))
    if kind == 1:
        d = rng.randrange(len(x))
        x[d] += F(rng.choice((-1, 1)) * rng.randint(1, 8), rng.randint(1, 8))
    return verts, tuple(x)


def solve_linear(matrix, rhs):
    """Gaussian elimination over Fractions; None if singular."""
    n = len(matrix)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][-1] for r in range(n)]


def caratheodory_member(vertices, x):
    """Independent oracle: x is in the hull iff some subset of at most
    dim+1 vertices carries it with nonnegative barycentric weights."""
    dim = len(x)
    for k in range(1, min(len(vertices), dim + 1) + 1):
        for subset in itertools.combinations(vertices, k):
            matrix = [[v[d] for v in subset] for d in range(dim)]
            matrix.append([F(1)] * k)
            rhs = list(x) + [F(1)]
            # least-squares-free exact approach: square system via subset
            # of rows when overdetermined is wrong; instead solve the
            # (dim+1) x k system only when k == dim+1, else check directly
            if k == dim + 1:
                lam = solve_linear(matrix[:k], rhs[:k])
                if lam is None:
                    continue
                # verify all equations, not only the solved square block
                ok = all(
                    sum((lam[j] * subset[j][d] for j in range(k)), F(0)) == x[d]
                    for d in range(dim)) and sum(lam) == 1
                if ok and all(l >= 0 for l in lam):
                    return True
            else:
                for rows in itertools.combinations(range(dim + 1), k):
                    lam = solve_linear([matrix[r] for r in rows],
                                       [rhs[r] for r in rows])
                    if lam is None or any(l < 0 for l in lam):
                        continue
                    ok = all(
                        sum((lam[j] * subset[j][d] for j in range(k)), F(0))
                        == x[d] for d in range(dim)) and sum(lam) == 1
                    if ok:
                        return True
    return False


class TestHullMembership:
    def test_triangle_interior(self):
        assert hull_membership(TRIANGLE, (F(1, 3), F(1, 3)))

    def test_triangle_outside(self):
        assert not hull_membership(TRIANGLE, (F(1), F(1)))

    def test_single_vertex(self):
        v = (F(2, 3), F(1, 5))
        assert hull_membership([v], v)
        assert not hull_membership([v], (F(2, 3), F(1, 4)))

    def test_edge_and_vertex_points(self):
        assert hull_membership(TRIANGLE, (F(1, 2), F(1, 2)))  # edge midpoint
        assert hull_membership(TRIANGLE, (F(0), F(1)))        # vertex

    def test_dimension_cap(self):
        with pytest.raises(GirylabError):
            hull_membership([(F(0),) * 5], (F(0),) * 5)

    def test_dimension_mismatch(self):
        with pytest.raises(GirylabError):
            hull_membership(TRIANGLE, (F(0),))

    def test_agrees_with_caratheodory_oracle(self):
        rng = random.Random(23)
        for _ in range(150):
            dim = rng.randint(1, 3)
            n = rng.randint(1, 6)
            verts = [tuple(F(rng.randint(-4, 4), rng.randint(1, 4))
                           for _ in range(dim)) for _ in range(n)]
            if rng.random() < 0.5:
                weights = [rng.randint(0, 5) for _ in range(n)]
                if sum(weights) == 0:
                    weights[0] = 1
                total = sum(weights)
                x = tuple(
                    sum((F(w, total) * v[d] for w, v in zip(weights, verts)),
                        F(0)) for d in range(dim))
            else:
                x = tuple(F(rng.randint(-5, 5), rng.randint(1, 3))
                          for _ in range(dim))
            assert hull_membership(verts, x) == caratheodory_member(verts, x)

    def test_integer_tableau_agrees_with_fraction_oracle(self):
        rng = random.Random(1968)
        cfg = SuiteConfig(max_hull_dim=4)
        verdicts = {True: 0, False: 0}
        negative_rhs = 0
        for _ in range(2400):
            verts, x = oracle_instance(rng, cfg)
            rows, rhs = membership_program(verts, x)
            verdict = phase_one_oracle(rows, rhs)
            assert _phase_one_feasible(rows, rhs) == verdict, (verts, x)
            verdicts[verdict] += 1
            negative_rhs += any(b < 0 for b in rhs)
        assert verdicts[True] > 1000 and verdicts[False] > 200
        assert negative_rhs > 1000


class TestExtendToConvex:
    def test_uniform_on_triangle_gives_centroid(self):
        space = FinSpace.discrete(["a", "b", "c"])
        phi = Functional.extensional(space, (F(1, 3),) * 3)
        out = extend_to_convex(phi, TRIANGLE, TRIANGLE)
        assert out == (F(1, 3), F(1, 3))
        assert hull_membership(TRIANGLE, out)

    def test_dirac_selects_the_atom_point(self):
        space = FinSpace.discrete(["a", "b"])
        phi = Functional.extensional(space, (F(1), F(0)))
        pts = [(F(1, 4), F(1, 4)), (F(0), F(1))]
        assert extend_to_convex(phi, TRIANGLE, pts) == pts[0]

    def test_point_outside_hull_rejected(self):
        space = FinSpace.discrete(["a"])
        phi = Functional.extensional(space, (F(1),))
        with pytest.raises(GirylabError):
            extend_to_convex(phi, TRIANGLE, [(F(2), F(2))])

    def test_point_outside_hull_written_as_rationals(self):
        space = FinSpace.discrete(["a"])
        phi = Functional.extensional(space, (F(1),))
        with pytest.raises(GirylabError, match=re.escape(
                "atom point (2/1, 1/2) lies outside the hull")):
            extend_to_convex(phi, [(F(0), F(0))], [(2, F(1, 2))])

    def test_no_vertices_is_a_named_error(self):
        space = FinSpace.discrete(["a"])
        phi = Functional.extensional(space, (F(1),))
        with pytest.raises(GirylabError, match="need at least one vertex"):
            extend_to_convex(phi, [], [(F(0), F(0))])

    def test_intensional_rejected(self):
        from girylab.duality import max_functional
        space = FinSpace.discrete(["a", "b"])
        with pytest.raises(GirylabError):
            extend_to_convex(max_functional(space), TRIANGLE,
                             [(F(0), F(0)), (F(0), F(0))])

    def test_random_outputs_always_members(self):
        rng = random.Random(31)
        for _ in range(100):
            dim = rng.randint(1, 3)
            n = rng.randint(1, 6)
            verts = [tuple(F(rng.randint(-4, 4), rng.randint(1, 4))
                           for _ in range(dim)) for _ in range(n)]
            atoms = rng.randint(1, 4)
            space = FinSpace.discrete([f"p{i}" for i in range(atoms)])
            parts = [rng.randint(0, 5) for _ in range(atoms)]
            if sum(parts) == 0:
                parts[0] = 1
            phi = Functional.extensional(
                space, tuple(F(p, sum(parts)) for p in parts))
            pts = []
            for _ in range(atoms):
                w = [rng.randint(0, 5) for _ in range(n)]
                if sum(w) == 0:
                    w[0] = 1
                pts.append(tuple(
                    sum((F(wi, sum(w)) * v[d] for wi, v in zip(w, verts)),
                        F(0)) for d in range(dim)))
            out = extend_to_convex(phi, verts, pts)
            assert hull_membership(verts, out)
