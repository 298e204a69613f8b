"""Reference implementations that the tests compare the program against.

Each is written straight from a definition, reads only ``data.probs``,
``data.choices``, ``mu.weights``, ``table.q``/``table.y`` or an LP's rows, and
returns plain values, so it stays independent of how the program lays out its
tables.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from framechoice.core import members, submasks
from framechoice.detfum import enumerate_types


def naive_bm(data) -> dict[tuple[int, int], object]:
    """Both polynomial tables by direct inclusion-exclusion (O(4^n)).

    Maps (alternative, frame) to ``q`` where the alternative is in the frame
    and to ``y`` where it is not.
    """
    n = data.universe.n
    size = 1 << n
    out = {}
    for alt in range(n):
        bit = 1 << alt
        for frame in range(size):
            total = data.policy.zero()
            for extra in submasks((size - 1) & ~frame):
                upper = frame | extra
                if (upper & bit) != (frame & bit):
                    continue  # y sums only supersets avoiding alt
                term = data.probs[(alt, upper)]
                total = total - term if bin(extra).count("1") % 2 else total + term
            out[(alt, frame)] = total
    return out


def oracle_forward(mu, domain) -> dict[tuple[int, int], object]:
    """Aggregation by the definition, one (alternative, frame) cell at a time."""
    probs = {}
    for frame in sorted(set(domain)):
        for alt in range(mu.universe.n):
            mass = mu.policy.zero()
            for ctype, w in mu.weights.items():
                if ctype.choose(frame) == alt:
                    mass += w
            probs[(alt, frame)] = mass
    return probs


def branch_weight(table, ctype):
    """Single-type path weight from raw (unclamped) table values."""
    n = table.universe.n
    node = (1 << n) - 1

    def through(mask: int):
        total = sum((table.q(x, mask) for x in members(mask)), table.policy.zero())
        for x in range(n):
            if not mask & (1 << x):
                total += table.y(x, mask)
        return total

    weight = table.policy.one()
    for x in ctype.priority:
        weight = weight * table.q(x, node) / through(node)
        node &= ~(1 << x)
    return weight * table.y(ctype.default, node) / through(node)


def flow_residuals(table) -> dict[int, object]:
    """Outflow plus leakage minus inflow at every node; all zero for any rule.

    Drawing the lattice as a diagram with ``q`` as edge flows and ``y`` as
    leakages, inflow equals outflow plus leakage at every node for *any*
    choice rule.  Inflow at the top node is defined as 1 (the grand-frame
    ``q`` values sum to the grand-frame probabilities).
    """
    n = table.universe.n
    size = 1 << n
    out = {}
    for frame in range(size):
        total = table.policy.zero()
        for alt in range(n):
            if frame & (1 << alt):
                total += table.q(alt, frame)
            else:
                total += table.y(alt, frame)
        if frame == size - 1:
            inflow = table.policy.one()
        else:
            inflow = table.policy.zero()
            for alt in range(n):
                if not frame & (1 << alt):
                    inflow += table.q(alt, frame | (1 << alt))
        out[frame] = total - inflow
    return out


def first_consistent_type(data):
    """The first type, in ``enumerate_types`` order, matching every observed choice.

    ``None`` when no type reproduces the data.
    """
    for ctype in _types(data.universe):
        if all(ctype.choose(frame) == alt for frame, alt in data.choices.items()):
            return ctype
    return None


@lru_cache(maxsize=8)
def _types(universe) -> tuple:
    # exhaustive tests ask for the same universe's types many thousand times
    return tuple(enumerate_types(universe))


def lp_vertices(rows, rhs) -> list[tuple[Fraction, ...]]:
    """Every vertex of ``{x >= 0 : rows · x = rhs}``, by brute force (O(2^k) subsets).

    A vertex is a nonnegative solution whose nonzero columns are linearly
    independent, so each column subset of full column rank is solved exactly.
    The set is empty exactly when the system is infeasible, and a bounded
    objective attains its maximum at one of them.
    """
    k = len(rows[0]) if rows else 0
    vertices = []
    for size in range(min(len(rows), k) + 1):
        for subset in combinations(range(k), size):
            aug = [[Fraction(row[j]) for j in subset] + [Fraction(b)] for row, b in zip(rows, rhs)]
            top = 0  # Gauss-Jordan: rows above ``top`` hold the pivots found so far
            for c in range(size):
                p = next((r for r in range(top, len(aug)) if aug[r][c]), None)
                if p is None:
                    break  # dependent columns
                aug[top], aug[p] = aug[p], aug[top]
                aug[top] = [v / aug[top][c] for v in aug[top]]
                for r in range(len(aug)):
                    if r != top and aug[r][c]:
                        f = aug[r][c]
                        aug[r] = [v - f * w for v, w in zip(aug[r], aug[top])]
                top += 1
            if top < size or any(row[size] for row in aug[top:]):
                continue  # dependent columns, or no solution on this support
            x = [Fraction(0)] * k
            for j, row in zip(subset, aug):
                x[j] = row[size]
            if min(x, default=0) >= 0:
                vertices.append(tuple(x))
    return vertices
