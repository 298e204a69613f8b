"""Exact linear programming over the rationals.

Equality-constrained problems ``A x = b, x >= 0`` are solved as in
Applegate, Cook, Dash and Espinoza (2007): a float search picks the basis,
exact arithmetic only checks it.

1. A two-phase revised simplex in float64 (dense basis inverse) under Bland's
   rule finds a final basis of ``[A | I]`` (``I`` holds the phase-1 artificial
   columns). It makes the exact simplex's pivots, up to float ties.
2. That basis is certified exactly. Its m×m system is solved by ``Fraction``
   elimination over the nonzeros, and the point, the duals and every column's
   reduced cost are checked, so the float tolerances only steer the search.
3. When a check fails, the exact two-phase ``Fraction`` simplex under Bland's
   rule decides alone, so every comparison is exact and cycling is impossible.

Every verdict, point and Farkas ray returned has been checked exactly. Small
by design: the systems here have at most a few hundred rows (one per
observation) and a few thousand columns (one per choice type).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm

import numpy as np

_ZERO = Fraction(0)
_ONE = Fraction(1)
_TOL = 1e-9  # float entries, ratio gaps and reduced costs this close to 0 count as 0

_Column = list[tuple[int, Fraction | int]]  # a sparse column: (row, exact nonzero) pairs


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible"
    x: tuple[Fraction, ...] | None
    value: Fraction | None
    farkas: tuple[Fraction, ...] | None  # y with y.A <= 0, y.b > 0 when infeasible
    pivots: int = 0  # pivots of the float search
    exact_pivots: int = 0  # pivots of the exact fallback; 0 when the float basis is certified


class _Tableau:
    def __init__(self, rows: list[list[Fraction]], rhs: list[Fraction]):
        self.m = len(rows)
        self.k = len(rows[0]) if rows else 0
        self.signs = []
        self.rows = []
        for i in range(self.m):
            row = [Fraction(v) for v in rows[i]]
            b = Fraction(rhs[i])
            sign = 1
            if b < 0:
                row = [-v for v in row]
                b = -b
                sign = -1
            row.extend(_ONE if j == i else _ZERO for j in range(self.m))
            row.append(b)
            self.rows.append(row)
            self.signs.append(sign)
        self.rhs_col = self.k + self.m
        self.basis = [self.k + i for i in range(self.m)]
        self.top: list[Fraction] = []
        self.pivots = 0

    def set_objective(self, cost: list[Fraction]) -> None:
        # top row holds z_j - c_j; basic columns are eliminated to zero
        width = self.rhs_col + 1
        top = [_ZERO] * width
        for j, c in enumerate(cost):
            top[j] = -c
        for r in range(self.m):
            coef = top[self.basis[r]]
            if coef:
                row = self.rows[r]
                self.rows_axpy(top, row, coef)
        self.top = top

    @staticmethod
    def rows_axpy(target: list[Fraction], source: list[Fraction], factor: Fraction) -> None:
        for j, v in enumerate(source):
            if v:
                target[j] -= factor * v

    def pivot(self, prow: int, pcol: int) -> None:
        row = self.rows[prow]
        piv = row[pcol]
        if piv != 1:
            inv = _ONE / piv
            row = [v * inv for v in row]
            self.rows[prow] = row
        for r in range(self.m):
            if r != prow:
                factor = self.rows[r][pcol]
                if factor:
                    self.rows_axpy(self.rows[r], row, factor)
        factor = self.top[pcol]
        if factor:
            self.rows_axpy(self.top, row, factor)
        self.basis[prow] = pcol
        self.pivots += 1

    def run(self, allowed: int) -> None:
        # Bland: smallest eligible entering column, smallest basic leaving var
        while True:
            entering = -1
            for j in range(allowed):
                if self.top[j] < 0:
                    entering = j
                    break
            if entering < 0:
                return
            leaving = -1
            best = None
            for r in range(self.m):
                coef = self.rows[r][entering]
                if coef > 0:
                    ratio = self.rows[r][self.rhs_col] / coef
                    if (
                        best is None
                        or ratio < best
                        or (ratio == best and self.basis[r] < self.basis[leaving])
                    ):
                        best = ratio
                        leaving = r
            if leaving < 0:
                raise ValueError("unbounded objective on a supposedly bounded polytope")
            self.pivot(leaving, entering)

    def objective_value(self) -> Fraction:
        # the top row is [z_j - c_j | z] once basic columns are eliminated
        return self.top[self.rhs_col]


def _exact_simplex(
    rows: list[list[Fraction]],
    rhs: list[Fraction],
    objective: list[Fraction] | None,
) -> LPResult:
    """The exact two-phase tableau simplex: the fallback, and sole decider when it runs."""
    tab = _Tableau(rows, rhs)
    m, k = tab.m, tab.k

    # phase 1: minimize artificial mass (maximize its negative)
    tab.set_objective([_ZERO] * k + [-_ONE] * m)
    tab.run(k + m)
    mass = -tab.objective_value()
    if mass > 0:
        # y = c_B B^(-1) read off the artificial columns of the top row
        farkas = [tab.signs[i] * (_ONE - tab.top[k + i]) for i in range(m)]
        return LPResult("infeasible", None, None, tuple(farkas), exact_pivots=tab.pivots)

    # pivot zero-valued artificials out; rows that cannot pivot are redundant
    for r in range(m):
        if tab.basis[r] >= k:
            for j in range(k):
                if tab.rows[r][j]:
                    tab.pivot(r, j)
                    break
    keep = [r for r in range(m) if tab.basis[r] < k]
    if len(keep) < m:
        tab.rows = [tab.rows[r] for r in keep]
        tab.basis = [tab.basis[r] for r in keep]
        tab.m = m = len(keep)

    if objective is not None:
        tab.set_objective([Fraction(c) for c in objective] + [_ZERO] * m)
        tab.run(k)

    x = [_ZERO] * k
    for r in range(m):
        if tab.basis[r] < k:
            x[tab.basis[r]] = tab.rows[r][tab.rhs_col]
    return LPResult("optimal", tuple(x), _value(objective, x), None, exact_pivots=tab.pivots)


def _value(objective: list[Fraction] | None, x: list[Fraction]) -> Fraction | None:
    if objective is None:
        return None
    return sum((c * v for c, v in zip(objective, x) if v), _ZERO)


def _float_pivot(
    inv: np.ndarray, x: np.ndarray, basis: list[int], col: np.ndarray, r: int, j: int
) -> None:
    """Make column ``j`` basic in row ``r``; ``col`` is ``B^-1`` times that column."""
    inv[r] /= col[r]
    x[r] /= col[r]
    col[r] = 0.0
    inv -= np.outer(col, inv[r])
    x -= col * x[r]
    basis[r] = j


def _float_run(
    a: np.ndarray,
    basis: list[int],
    inv: np.ndarray,
    x: np.ndarray,
    cost: np.ndarray,
    allowed: int,
    budget: int,
) -> tuple[int, bool]:
    """Bland pivots on ``[a | I]``, maximizing ``cost``, as ``_Tableau.run`` makes them.

    A revised simplex: ``inv`` is ``B^-1`` and ``x`` is ``x_B``, both updated
    in place, so each pivot prices the columns with one product instead of
    updating a whole tableau. Returns the pivot count and whether the search
    reached an optimum; it breaks down on an unbounded ray or after
    ``budget`` pivots.
    """
    k = a.shape[1]
    for pivots in range(budget + 1):
        duals = cost[basis] @ inv
        reduced = np.concatenate((duals @ a, duals)) - cost  # z_j - c_j
        eligible = np.flatnonzero(reduced[:allowed] < -_TOL)
        if not eligible.size:
            return pivots, True
        j = int(eligible[0])
        col = inv @ a[:, j] if j < k else inv[:, j - k].copy()
        rows = np.flatnonzero(col > _TOL)
        if not rows.size or pivots == budget:
            break
        ratios = x[rows] / col[rows]
        ties = rows[ratios <= ratios.min() + _TOL]
        _float_pivot(inv, x, basis, col, min(ties, key=basis.__getitem__), j)
    return pivots, False


def _float_basis(
    a: np.ndarray, b: np.ndarray, cost: np.ndarray | None
) -> tuple[bool | None, list[int], int]:
    """Two-phase float search on ``[a | I] x = b`` with ``b >= 0``.

    Mirrors the exact tableau's rules, so on well-conditioned input it ends
    on the same basis. Returns the claimed feasibility (None when the search
    broke down), the final basis and the pivot count.
    """
    m, k = a.shape
    basis = list(range(k, k + m))
    inv = np.eye(m)
    x = b.copy()
    budget = 50 * (k + m)
    # phase 1 maximizes minus the artificial mass
    phase1 = np.concatenate((np.zeros(k), -np.ones(m)))
    pivots, done = _float_run(a, basis, inv, x, phase1, k + m, budget)
    if not done:
        return None, basis, pivots
    if sum(v for v, j in zip(x, basis) if j >= k) > _TOL:
        return False, basis, pivots
    for r in range(m):
        if basis[r] >= k:
            nonzero = np.flatnonzero(np.abs(inv[r] @ a) > _TOL)
            if nonzero.size:
                j = int(nonzero[0])
                _float_pivot(inv, x, basis, inv @ a[:, j], r, j)
                pivots += 1
    if cost is not None:
        phase2 = np.concatenate((cost, np.zeros(m)))
        more, done = _float_run(a, basis, inv, x, phase2, k, budget)
        pivots += more
        if not done:
            return None, basis, pivots
    return True, basis, pivots


def _solve(rows: list[dict[int, Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """``x`` with ``rows · x = rhs`` for a square sparse system; None when singular.

    Exact Gauss–Jordan elimination that touches only nonzeros; each column
    pivots on the sparsest row still free, sparse columns first.
    """
    rows = [dict(r) for r in rows]
    rhs = list(rhs)
    m = len(rows)
    counts = [0] * m
    for row in rows:
        for c in row:
            counts[c] += 1
    free = set(range(m))
    owner = [0] * m
    for c in sorted(range(m), key=counts.__getitem__):
        holders = [r for r in free if c in rows[r]]
        if not holders:
            return None
        p = min(holders, key=lambda r: (len(rows[r]), r))
        free.discard(p)
        owner[c] = p
        prow = rows[p]
        inv = _ONE / prow[c]
        if inv != 1:
            prow = rows[p] = {col: v * inv for col, v in prow.items()}
            rhs[p] *= inv
        for r in range(m):
            row = rows[r]
            if r != p and c in row:
                factor = row.pop(c)
                for col, v in prow.items():
                    if col != c:
                        w = row.get(col, 0) - factor * v
                        if w:
                            row[col] = w
                        else:
                            row.pop(col, None)
                rhs[r] -= factor * rhs[p]
    return [rhs[owner[c]] for c in range(m)]


def _basis_columns(cols: list[_Column], basis: list[int]) -> list[_Column]:
    """The sparse columns of ``B``: those of ``A``, and unit columns for artificials."""
    k = len(cols)
    return [cols[j] if j < k else [(j - k, 1)] for j in basis]


def _priced(cols: list[_Column], y: list[Fraction]) -> tuple[list, int]:
    """``D·(y·A_j)`` for every column ``A_j``, and the ``D > 0`` that makes ``D·y`` integral."""
    d = lcm(*(v.denominator for v in y)) if y else 1
    scaled = [v.numerator * (d // v.denominator) for v in y]
    return [sum(scaled[i] * v for i, v in column) for column in cols], d


def _certified_point(
    cols: list[_Column],
    b: list[Fraction],
    basis: list[int],
    cost: list[Fraction] | None,
) -> tuple[Fraction, ...] | None:
    """The basic solution of ``basis`` in ``[A | I]``, given by the columns ``cols`` of ``A``.

    Returned only if it checks exactly: ``x_B >= 0``, every basic artificial
    is 0 and, with a ``cost``, the duals ``y`` from ``B^T y = c_B`` price no
    column of ``A`` above its cost, which proves optimality.
    """
    m, k = len(b), len(cols)
    columns = _basis_columns(cols, basis)
    rows: list[dict[int, Fraction | int]] = [{} for _ in range(m)]
    for p, column in enumerate(columns):
        for i, v in column:
            rows[i][p] = v
    x_b = _solve(rows, b)
    if x_b is None or any(v < 0 or (v and j >= k) for v, j in zip(x_b, basis)):
        return None
    if cost is not None:
        c_b = [cost[j] if j < k else _ZERO for j in basis]
        y = _solve([dict(column) for column in columns], c_b)
        if y is None:
            return None
        dots, d = _priced(cols, y)
        if any(dot < c * d for dot, c in zip(dots, cost)):
            return None
    x = [_ZERO] * k
    for j, v in zip(basis, x_b):
        if j < k:
            x[j] = v
    return tuple(x)


def _certified_ray(
    cols: list[_Column], b: list[Fraction], basis: list[int]
) -> list[Fraction] | None:
    """The phase-1 duals ``y`` of ``basis``, returned only if ``y·A <= 0`` and ``y·b > 0``."""
    k = len(cols)
    columns = _basis_columns(cols, basis)
    y = _solve([dict(column) for column in columns], [_ONE if j >= k else _ZERO for j in basis])
    if y is None:
        return None
    dots, _ = _priced(cols, y)
    if any(dot > 0 for dot in dots) or sum(v * w for v, w in zip(y, b)) <= 0:
        return None
    return y


def solve_rational_lp(
    rows: list[list[Fraction]],
    rhs: list[Fraction],
    objective: list[Fraction] | None = None,
) -> LPResult:
    """Solve ``max objective . x`` subject to ``rows . x = rhs``, ``x >= 0``.

    With ``objective=None`` only feasibility is decided; the returned point is
    then an arbitrary vertex.  Infeasible systems come back with an exact
    Farkas certificate.  The feasible sets here are sub-polytopes of a
    probability simplex, so unboundedness is treated as a caller error.
    """
    m = len(rows)
    k = len(rows[0]) if rows else 0
    signs = [-1 if v < 0 else 1 for v in rhs]
    b = [abs(Fraction(v)) for v in rhs]
    # rows with a negative right side are negated, as in the exact tableau
    dense = np.zeros((m, k))
    cols: list[_Column] = [[] for _ in range(k)]
    for i, (row, sign) in enumerate(zip(rows, signs)):
        for j, v in enumerate(row):
            if v:
                v = sign * (v.numerator if v.denominator == 1 else v)
                cols[j].append((i, v))
                dense[i, j] = v
    cost = None if objective is None else np.array(objective, dtype=float)
    feasible, basis, pivots = _float_basis(dense, np.array(b, dtype=float), cost)
    if feasible:
        x = _certified_point(cols, b, basis, objective)
        if x is not None:
            return LPResult("optimal", x, _value(objective, x), None, pivots)
    elif feasible is not None:
        y = _certified_ray(cols, b, basis)
        if y is not None:
            # undo the row negations: y·A <= 0 and y·b > 0 on the rows as given
            farkas = tuple(s * v for s, v in zip(signs, y))
            return LPResult("infeasible", None, None, farkas, pivots)
    return replace(_exact_simplex(rows, rhs, objective), pivots=pivots)
