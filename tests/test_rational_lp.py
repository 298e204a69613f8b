"""The LP solver on its own: float basis search, exact certificates, exact repair."""

import random
from fractions import Fraction

import pytest

from framechoice import rational_lp
from framechoice.rational_lp import solve_rational_lp
from oracles import lp_vertices

F = Fraction
TINY = F(1, 10**20)  # below float64's resolution at the scale of these LPs


def assert_feasible_point(rows, rhs, x):
    assert all(v >= 0 for v in x)
    for row, b in zip(rows, rhs):
        assert sum(a * v for a, v in zip(row, x)) == b


def assert_farkas_ray(rows, rhs, y):
    # y·A <= 0 column by column and y·b > 0, in exact arithmetic
    for j in range(len(rows[0])):
        assert sum(yi * row[j] for yi, row in zip(y, rows)) <= 0
    assert sum(yi * b for yi, b in zip(y, rhs)) > 0


# x0 + x1 and x2 + x3 are one frame's two cells, the third row is the
# normalization (the sum of the first two), and the fourth pins x0 + x2 with a
# negated right side: the feasible set is x = (t, 1/2 - t, 1/2 - t, t)
FRAME_ROWS = [
    [F(1), F(1), F(0), F(0)],
    [F(0), F(0), F(1), F(1)],
    [F(1), F(1), F(1), F(1)],
    [F(-1), F(0), F(-1), F(0)],
]
FRAME_RHS = [F(1, 2), F(1, 2), F(1), F(-1, 2)]


class TestCertifiedFloatBasis:
    def test_redundant_rows_and_negative_right_side(self):
        result = solve_rational_lp(FRAME_ROWS, FRAME_RHS)
        assert result.status == "optimal" and result.value is None
        assert_feasible_point(FRAME_ROWS, FRAME_RHS, result.x)
        assert result.pivots > 0 and result.exact_pivots == 0
        assert result.x == (0, F(1, 2), F(1, 2), 0)

    def test_degenerate_optimal_vertex(self):
        # max x1 + x2 = 1 - 2t is reached at t = 0, where x0 = x3 = 0 and
        # three independent rows leave a basic variable at zero
        objective = [F(0), F(1), F(1), F(0)]
        result = solve_rational_lp(FRAME_ROWS, FRAME_RHS, objective)
        assert result.status == "optimal"
        assert result.x == (0, F(1, 2), F(1, 2), 0)
        assert result.value == 1
        assert result.exact_pivots == 0
        # the opposite direction ends at the other end of the segment
        result = solve_rational_lp(FRAME_ROWS, FRAME_RHS, [F(0), F(-1), F(-1), F(0)])
        assert result.x == (F(1, 2), 0, 0, F(1, 2)) and result.value == 0

    def test_infeasible_ray_checks_exactly(self):
        rows = [[F(1), F(1), F(0)], [F(1), F(1), F(1)], [F(-1), F(0), F(2)]]
        rhs = [F(1, 2), F(1, 3), F(-1, 7)]
        result = solve_rational_lp(rows, rhs)
        assert result.status == "infeasible" and result.x is None
        assert_farkas_ray(rows, rhs, result.farkas)
        assert result.exact_pivots == 0
        assert result.farkas == (1, -1, 0)

    def test_ray_certified_although_x_b_is_negative(self):
        # the float basis's exact x_B has an entry of about -1e-20, but its
        # phase-1 duals already prove infeasibility, so nothing is repaired
        rows = [[F(0), F(-1)], [F(1), F(0)], [F(1), F(1)]]
        rhs = [F(5, 4) - 2 * TINY, 1 + TINY, 1 - 3 * TINY]
        result = solve_rational_lp(rows, rhs)
        assert result.status == "infeasible" and result.exact_pivots == 0
        assert_farkas_ray(rows, rhs, result.farkas)
        assert result.farkas == (1, -1, 1)

    def test_no_columns(self):
        assert solve_rational_lp([[], []], [F(0), F(0)]).status == "optimal"
        result = solve_rational_lp([[], []], [F(0), F(-1, 3)])
        assert result.status == "infeasible"
        assert_farkas_ray([[], []], [F(0), F(-1, 3)], result.farkas)


class TestExactFallback:
    def test_right_sides_float_cannot_tell_apart(self):
        # x0 = 1/3 + 1e-20 and x0 + x1 = 1/3 force x1 = -1e-20; both right
        # sides round to the same double, so the float search calls it feasible
        rows = [[F(1), F(0)], [F(1), F(1)]]
        rhs = [F(1, 3) + TINY, F(1, 3)]
        assert float(rhs[0]) == float(rhs[1])
        result = solve_rational_lp(rows, rhs)
        assert result.exact_pivots == 1
        assert result.status == "infeasible"
        assert_farkas_ray(rows, rhs, result.farkas)
        assert result.farkas == (1, -1)
        # the mirror image is feasible, and still decided exactly
        rhs = [F(1, 3), F(1, 3) + TINY]
        result = solve_rational_lp(rows, rhs)
        assert result.status == "optimal" and result.x == (F(1, 3), TINY)

    def test_costs_float_cannot_tell_apart(self):
        # on x0 + x1 = 1 the float search sees two equal costs and stops at x0
        rows = [[F(1), F(1)]]
        objective = [F(1), F(1) + TINY]
        result = solve_rational_lp(rows, [F(1)], objective)
        assert result.exact_pivots == 1
        assert result.x == (0, 1) and result.value == objective[1]

    def test_singular_float_basis_starts_from_the_artificials(self, monkeypatch):
        monkeypatch.setattr(rational_lp, "_float_basis", lambda a, b, cost: ([0, 0, 1, 2], 0))
        objective = [F(0), F(1), F(1), F(0)]
        result = solve_rational_lp(FRAME_ROWS, FRAME_RHS, objective)
        assert result.exact_pivots > 0
        assert result.x == (0, F(1, 2), F(1, 2), 0) and result.value == 1

    def test_repair_column_drops_cancelled_entries(self):
        # the basis columns of the negative rows cancel in one row, so the
        # repair column must not store that zero in the sparse basis
        rows = [[F(v) for v in row] for row in [[-1, 3, -2], [-2, 0, 2], [3, 1, -1], [1, 1, 1]]]
        rhs = [F(3), F(0), 1 - 2 * TINY, 1 - 2 * TINY]
        result = solve_rational_lp(rows, rhs)
        assert result.status == "infeasible" and result.exact_pivots == 1
        assert_farkas_ray(rows, rhs, result.farkas)
        assert result.farkas == (F(1, 9), F(-14, 9), F(-4, 3), 1)

    def test_auxiliary_at_zero_leaves_before_it_could_grow(self):
        # phase 2 starts with the repair column basic at zero, and the first
        # entering column has a negative entry in its row
        rows = [[F(v) for v in row] for row in [[1, 2, 1, 1, -1], [-2, -2, 1, 0, 1], [1, 1, 1, 1, 1]]]
        rhs = [F(-1), 1 + 2 * TINY, 1 + 2 * TINY]
        objective = [-1 + 3 * TINY, F(-1, 2) + 3 * TINY, -1 - 2 * TINY, 1 - TINY, 2 - TINY]
        result = solve_rational_lp(rows, rhs, objective)
        assert result.exact_pivots == 4
        assert_agrees_with_vertices(rows, rhs, objective, result)
        assert result.x == (0, 0, TINY, 0, 1 + TINY) and result.value == 2 - 3 * TINY**2


def random_lp(rng: random.Random):
    """A small bounded LP: random small-integer rows under a normalization row."""
    m, k = rng.randint(1, 5), rng.randint(1, 7)
    rows = [[F(rng.randint(-2, 3)) for _ in range(k)] for _ in range(m)]
    rows.append([F(1)] * k)
    rhs = [F(rng.randint(-4, 6), rng.randint(1, 4)) for _ in range(m)] + [F(1)]
    objective = None
    if rng.random() < 0.5:
        objective = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(k)]
    return rows, rhs, objective


def perturbed_lp(rng: random.Random):
    """``random_lp`` with right sides and costs moved by multiples of ``TINY``."""
    rows, rhs, objective = random_lp(rng)
    rhs = [b + rng.randint(-3, 3) * TINY for b in rhs]
    if objective is not None:
        objective = [c + rng.randint(-3, 3) * TINY for c in objective]
    return rows, rhs, objective


def assert_agrees_with_vertices(rows, rhs, objective, result):
    vertices = lp_vertices(rows, rhs)
    assert result.status == ("optimal" if vertices else "infeasible")
    if result.status == "optimal":
        assert_feasible_point(rows, rhs, result.x)
        assert result.x in vertices
        if objective is not None:
            best = max(sum(c * v for c, v in zip(objective, x)) for x in vertices)
            assert result.value == best
    else:
        assert_farkas_ray(rows, rhs, result.farkas)


class TestRandomLPs:
    def test_agree_with_vertex_oracle(self):
        rng = random.Random(2007)
        statuses = set()
        for _ in range(300):
            rows, rhs, objective = random_lp(rng)
            result = solve_rational_lp(rows, rhs, objective)
            assert_agrees_with_vertices(rows, rhs, objective, result)
            statuses.add(result.status)
        assert statuses == {"optimal", "infeasible"}

    def test_perturbed_lps_reach_every_repair_case(self):
        # float64 cannot see the perturbations, so some float bases fail the
        # exact check; those repaired are compared with the vertex oracle
        rng = random.Random(2007)
        repaired = set()
        for _ in range(2000):
            rows, rhs, objective = perturbed_lp(rng)
            result = solve_rational_lp(rows, rhs, objective)
            if result.exact_pivots:
                assert_agrees_with_vertices(rows, rhs, objective, result)
                repaired.add((result.status, objective is not None))
            elif result.status == "optimal":
                assert_feasible_point(rows, rhs, result.x)
            else:
                assert_farkas_ray(rows, rhs, result.farkas)
        assert repaired == {(status, bool(o)) for status in ("optimal", "infeasible") for o in (0, 1)}

    def test_agree_with_highs(self):
        scipy_optimize = pytest.importorskip("scipy.optimize")
        rng = random.Random(2016)
        for _ in range(100):
            rows, rhs, objective = random_lp(rng)
            result = solve_rational_lp(rows, rhs, objective)
            cost = [0.0] * len(rows[0]) if objective is None else [-float(c) for c in objective]
            highs = scipy_optimize.linprog(
                cost,
                A_eq=[[float(v) for v in row] for row in rows],
                b_eq=[float(b) for b in rhs],
                bounds=(0, None),
                method="highs",
            )
            assert highs.status in (0, 2)
            assert result.status == ("optimal" if highs.status == 0 else "infeasible")
            if objective is not None and highs.status == 0:
                assert float(result.value) == pytest.approx(-highs.fun, abs=1e-9)
