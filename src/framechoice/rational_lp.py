"""Exact linear programming over the rationals.

Equality-constrained problems ``A x = b, x >= 0`` are solved as in
Applegate, Cook, Dash and Espinoza (2007): a float search picks the basis,
exact arithmetic checks it and, when needed, repairs it.

1. A two-phase revised simplex in float64 (dense basis inverse) under Bland's
   rule finds a final basis of ``[A | I]`` (``I`` holds the phase-1 artificial
   columns).
2. One exact loop starts from that basis: Bland's rule (1977) over sparse
   ``Fraction`` solves for ``x_B``, the duals and the entering column, with
   every reduced cost priced in integers. If the float basis is exactly
   singular it starts from the artificial basis instead. If its ``x_B`` has
   negative entries and its phase-1 duals prove no infeasibility, one
   auxiliary column enters first and makes ``x_B`` feasible.
3. The loop ends on an exact optimum: the point with its dual proof, or the
   Farkas ray of phase 1. Exiting with zero pivots certifies the float
   basis; any pivots it makes are the repair. Bland's rule keeps it finite.

Every verdict, point and Farkas ray returned has been checked exactly. Small
by design: the systems here have at most a few hundred rows (one per
observation) and a few thousand columns (one per choice type).
"""

from __future__ import annotations

from dataclasses import dataclass
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
    exact_pivots: int = 0  # pivots of the exact repair from the float basis; 0 when certified


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
    """Bland pivots on ``[a | I]``, maximizing ``cost``, within the tolerance ``_TOL``.

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
) -> tuple[list[int], int]:
    """Two-phase float search on ``[a | I] x = b`` with ``b >= 0``.

    Returns the final basis and the pivot count. The basis is only a guess:
    it stops where phase 1 leaves artificial mass or the search breaks down.
    """
    m, k = a.shape
    basis = list(range(k, k + m))
    inv = np.eye(m)
    x = b.copy()
    budget = 50 * (k + m)
    # phase 1 maximizes minus the artificial mass
    phase1 = np.concatenate((np.zeros(k), -np.ones(m)))
    pivots, done = _float_run(a, basis, inv, x, phase1, k + m, budget)
    if not done or sum(v for v, j in zip(x, basis) if j >= k) > _TOL:
        return basis, pivots
    for r in range(m):
        if basis[r] >= k:
            nonzero = np.flatnonzero(np.abs(inv[r] @ a) > _TOL)
            if nonzero.size:
                j = int(nonzero[0])
                _float_pivot(inv, x, basis, inv @ a[:, j], r, j)
                pivots += 1
    if cost is not None:
        phase2 = np.concatenate((cost, np.zeros(m)))
        more, _ = _float_run(a, basis, inv, x, phase2, k, budget)
        pivots += more
    return basis, pivots


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


def _basis_rows(columns: list[_Column], basis: list[int], m: int) -> list[dict[int, Fraction]]:
    """The rows of ``B``, sparse: row ``i`` maps each basic position to its nonzero."""
    rows: list[dict[int, Fraction]] = [{} for _ in range(m)]
    for p, j in enumerate(basis):
        for i, v in columns[j]:
            rows[i][p] = v
    return rows


def _priced(cols: list[_Column], y: list[Fraction]) -> tuple[list, int]:
    """``D·(y·A_j)`` for every column ``A_j``, and the ``D > 0`` that makes ``D·y`` integral."""
    d = lcm(*(v.denominator for v in y)) if y else 1
    scaled = [v.numerator * (d // v.denominator) for v in y]
    return [sum(scaled[i] * v for i, v in column) for column in cols], d


def _bland(
    columns: list[_Column],
    k: int,
    b: list[Fraction],
    basis: list[int],
    x_b: list[Fraction],
    cost: list[Fraction],
    phase1: bool,
) -> tuple[list[Fraction] | None, list[Fraction], int]:
    """Exact Bland pivots from ``basis``, maximizing ``cost``; only columns of ``A`` enter.

    ``columns`` holds those of ``A`` (the first ``k``) and the artificials;
    phase 1 may append the repair column ``w``. Each pass solves
    ``B x_B = b``, ``B^T y = c_B`` and ``B d = A_j`` exactly and prices every
    column of ``A`` in integers. Returns ``(y, x_B, pivots)`` where the duals
    ``y`` prove an optimum or, in phase 1, that ``-y`` is a Farkas ray; ``y``
    is None once phase 1 has made ``x_B >= 0`` with every auxiliary at 0.
    An auxiliary basic at zero leaves on any nonzero entry, so it never
    turns positive.
    """
    m = len(b)
    pivots = 0
    while True:
        rows = _basis_rows(columns, basis, m)
        if pivots:
            x_b = _solve(rows, b)
        negative = any(v < 0 for v in x_b)
        if phase1 and not negative and not any(v for v, j in zip(x_b, basis) if j >= k):
            return None, x_b, pivots
        y = _solve([dict(columns[j]) for j in basis], [cost[j] for j in basis])
        dots, d = _priced(columns[:k], y)
        entering = next((j for j, dot in enumerate(dots) if dot < cost[j] * d), None)
        if entering is None and not (phase1 and sum(v * w for v, w in zip(y, b)) >= 0):
            return y, x_b, pivots
        pivots += 1
        if negative:
            # the repair: w = -(the basis columns of the negative rows) has
            # B^-1 w = -1 on those rows, so entering at the lowest makes x_B >= 0
            w: dict[int, Fraction] = {}
            for v, j in zip(x_b, basis):
                if v < 0:
                    for i, a in columns[j]:
                        w[i] = w.get(i, 0) - a
            basis[x_b.index(min(x_b))] = len(columns)
            columns.append([(i, v) for i, v in w.items() if v])
            continue
        a_j = [_ZERO] * m
        for i, v in columns[entering]:
            a_j[i] = v
        col = _solve(rows, a_j)
        ratios = [
            (x_b[r] / col[r], basis[r], r)
            for r in range(m)
            if col[r] > 0 or (col[r] and not x_b[r] and basis[r] >= k)
        ]
        if not ratios:
            raise ValueError("unbounded objective on a supposedly bounded polytope")
        basis[min(ratios)[2]] = entering


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
    # rows with a negative right side are negated, so that b >= 0
    dense = np.zeros((m, k))
    columns: list[_Column] = [[] for _ in range(k)]
    for i, (row, sign) in enumerate(zip(rows, signs)):
        for j, v in enumerate(row):
            if v:
                v = sign * (v.numerator if v.denominator == 1 else v)
                columns[j].append((i, v))
                dense[i, j] = v
    cost = None if objective is None else np.array(objective, dtype=float)
    basis, pivots = _float_basis(dense, np.array(b, dtype=float), cost)
    columns += [[(i, 1)] for i in range(m)]
    x_b = _solve(_basis_rows(columns, basis, m), b)
    if x_b is None:  # exactly singular: start from the artificial basis
        basis, x_b = list(range(k, k + m)), b
    # phase 1 maximizes minus the mass of the artificials and of w
    phase1 = [_ZERO] * k + [-_ONE] * (m + 1)
    y, x_b, repair = _bland(columns, k, b, basis, x_b, phase1, True)
    if y is not None:
        farkas = tuple(-s * v for s, v in zip(signs, y))  # undo the row negations
        return LPResult("infeasible", None, None, farkas, pivots, repair)
    if objective is not None:
        phase2 = [Fraction(c) for c in objective] + [_ZERO] * (len(columns) - k)
        _, x_b, more = _bland(columns, k, b, basis, x_b, phase2, False)
        repair += more
    x = [_ZERO] * k
    for j, v in zip(basis, x_b):
        if j < k:
            x[j] = v
    return LPResult("optimal", tuple(x), _value(objective, x), None, pivots, repair)
