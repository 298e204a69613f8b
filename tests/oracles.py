"""Reference implementations that the tests compare the program against.

Each is written straight from a definition, reads only ``data.probs``,
``data.choices``, ``mu.weights``, ``table.q``/``table.y`` or an LP's rows, and
returns plain values, so it stays independent of how the program lays out its
tables.  The CSV readers and the record writers at the end do the same work
one row, cell or record at a time, through ``csv`` and one dict per record.
``oracle_prop2`` reads the identification clauses by simulating every type's
choice at every frame and doubleton, the definition that ``check_prop2``'s
lattice-path reading is checked against.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from framechoice.core import (
    DataError,
    DeterministicChoiceData,
    StochasticChoiceData,
    Universe,
    members,
    number_to_json,
    number_to_str,
    submasks,
)
from framechoice.detfum import enumerate_types
from framechoice.frum import Prop2Report
from framechoice.polys import compute_bm


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


def oracle_prop2(data, mu):
    """``check_prop2`` by simulating each type's choice at every frame and doubleton.

    The mass of types that pick ``b`` at ``F`` while picking every non-framed
    alternative from its own singleton goes to ``y(b, F)``; the mass of those
    that pick ``b`` at ``F``, and from its singleton, while every non-framed
    ``x`` beats ``b`` in ``{x, b}``, goes to ``q(b, F)``.
    """
    if mu.universe != data.universe:
        raise DataError("type distribution and data must share a universe")
    table = compute_bm(data)
    n = data.universe.n
    size = 1 << n
    full = size - 1
    zero = data.policy.zero()

    # one pass over the support: each type contributes its weight to the
    # (chosen alternative, frame) cells whose side conditions it meets, laid
    # out like the table (y clause where b is not in F, q clause where it is)
    mass = [[zero] * size for _ in range(n)]
    for ctype, w in mu.weights.items():
        if not w > 0:
            continue
        choices = [ctype.choose(f) for f in range(size)]
        own_singleton = 0  # x with c({x}) = x
        for x in range(n):
            if choices[1 << x] == x:
                own_singleton |= 1 << x
        pair_wins = []  # per b: x (!= b) with c({x, b}) = x
        for b in range(n):
            mask = 0
            for x in range(n):
                if x != b and choices[(1 << x) | (1 << b)] == x:
                    mask |= 1 << x
            pair_wins.append(mask)
        for frame in range(size):
            b = choices[frame]
            outside = full & ~frame
            if not frame & (1 << b):
                if not outside & ~own_singleton:
                    mass[b][frame] += w
            elif choices[1 << b] == b and not outside & ~pair_wins[b]:
                mass[b][frame] += w

    values = table.numbers()
    gaps = abs(values - np.array(mass, values.dtype))
    framed = table.framed
    worst_leak, worst_framed = (max([zero, *gaps[where].tolist()]) for where in (~framed, framed))
    return Prop2Report(max(worst_leak, worst_framed), worst_leak, worst_framed)


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


def long_division_str(x: Fraction) -> str:
    """``x`` in decimal by schoolbook long division, or ``p/q`` when the digits never end.

    A decimal that ends has at most ``max(a, b) < d.bit_length()`` digits after
    the point, where ``d = 2^a·5^b`` is the denominator, so a remainder left
    after that many digits repeats forever.
    """
    whole, rest = divmod(abs(x.numerator), x.denominator)
    digits = []
    for _ in range(x.denominator.bit_length()):
        if not rest:
            break
        digit, rest = divmod(10 * rest, x.denominator)
        digits.append(str(digit))
    if rest:
        return f"{x.numerator}/{x.denominator}"
    return ("-" if x < 0 else "") + str(whole) + ("." + "".join(digits) if digits else "")


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


def iifa_witnesses(data) -> list[tuple[str, int, int]]:
    """(axiom, frame, subframe) of every IIFA break, by frame, then subframe.

    For observed frames ``G`` strictly inside ``F`` with ``c(G) != c(F)``:
    IIFA1 breaks when ``c(F)`` is a member of ``G`` (a framed winner stays
    framed yet loses), IIFA2 when ``c(F)`` is not a member of ``F`` (an
    unframed winner loses once the frame shrinks).
    """
    out = []
    for big in sorted(data.choices):
        for small in sorted(data.choices):
            chosen = data.choices[big]
            if small == big or small & ~big or data.choices[small] == chosen:
                continue
            if chosen in members(small):
                out.append(("IIFA1", big, small))
            if chosen not in members(big):
                out.append(("IIFA2", big, small))
    return out


# ---------------------------------------------------------------------------
# CSV reading, one row at a time
# ---------------------------------------------------------------------------


def _read_columns(text: str, header: list[str]):
    """The body's stripped cells, one list per header field, and any ``# universe:``."""
    explicit = None
    lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.lower().startswith("universe:"):
                labels = body.split(":", 1)[1].strip()
                names = tuple(lbl.strip() for lbl in labels.split("|"))
                explicit = Universe(names) if labels else None
            continue
        lines.append(raw)
    if not lines:
        raise DataError("missing header row")
    rows = list(csv.reader(lines))
    got = [cell.strip() for cell in rows[0]]
    if got != header:
        raise DataError(f"expected header {','.join(header)!r}, got {','.join(got)!r}")
    body = rows[1:]
    for row in body:
        if len(row) != len(header):
            raise DataError(f"row {row!r} has {len(row)} fields, expected {len(header)}")
    return [[row[i].strip() for row in body] for i in range(len(header))], explicit


def _infer_universe(alts, frames) -> Universe:
    labels = set(alts)
    for frame_s in set(frames):
        labels.update(filter(None, (lbl.strip() for lbl in frame_s.split("|"))))
    if not labels:
        raise DataError("cannot infer a universe from empty data; add a '# universe:' header")
    return Universe(tuple(sorted(labels)))


def oracle_parse_stochastic(text: str, policy, allow_partial: bool = False) -> StochasticChoiceData:
    """``csv.reader``, then per row: two lookups, the duplicate check and ``policy.parse``.

    Every distinct label, then every distinct frame, converts before the
    rows are read; the cells go to the constructor as an (alt, frame) dict.
    """
    (frames, alts, ps), explicit = _read_columns(text, ["frame", "alternative", "probability"])
    universe = explicit or _infer_universe(alts, frames)
    index = {s: universe.index(s) for s in dict.fromkeys(alts)}
    mask = {s: universe.frame(s) for s in dict.fromkeys(frames)}
    probs = {}
    for frame_s, alt_s, p_s in zip(frames, alts, ps):
        key = (index[alt_s], mask[frame_s])
        if key in probs:
            raise DataError(f"duplicate row for ({alt_s!r}, {frame_s!r})")
        probs[key] = policy.parse(p_s)
    data = StochasticChoiceData(universe, probs, policy)
    if data.partial and not allow_partial:
        incomplete = [f for f in data.domain if not data.is_complete_frame(f)]
        raise DataError(
            "incomplete frames (missing alternatives are not imputed as 0): "
            + ", ".join(repr(universe.frame_str(f)) for f in incomplete)
        )
    return data


def oracle_parse_deterministic(text: str) -> DeterministicChoiceData:
    """``csv.reader``, then per row: the frame, the duplicate check and the choice."""
    (frames, picks), explicit = _read_columns(text, ["frame", "choice"])
    universe = explicit or _infer_universe(picks, frames)
    choices = {}
    for frame_s, choice_s in zip(frames, picks):
        frame = universe.frame(frame_s)
        if frame in choices:
            raise DataError(f"duplicate row for frame {frame_s!r}")
        choices[frame] = universe.index(choice_s)
    return DeterministicChoiceData(universe, choices)


def oracle_check_cells(universe: Universe, probs: dict, policy) -> None:
    """The constructor's checks, one cell at a time in the caller's order."""
    for (alt, frame), p in probs.items():
        if not 0 <= alt < universe.n:
            raise DataError(f"alternative index {alt} out of range")
        if not 0 <= frame <= universe.full_frame:
            raise DataError(f"frame mask {frame} out of range")
        if policy.exact != isinstance(p, Fraction):
            raise DataError("probability representation does not match numeric mode")
        if not (policy.is_nonneg(p) and policy.is_nonneg(1 - p)):
            raise DataError(
                f"probability {number_to_str(p)} for ({universe.names[alt]!r}, "
                f"{universe.frame_str(frame)!r}) outside [0,1]"
            )


# ---------------------------------------------------------------------------
# writers, one record at a time
# ---------------------------------------------------------------------------


def cell_dicts(universe: Universe, cells, key: str) -> list[dict]:
    """``{alternative, frame, <key>}`` of (alternative, frame, value) cells, one dict each."""
    return [
        {"alternative": universe.names[a], "frame": universe.frame_str(f), key: number_to_json(v)}
        for a, f, v in cells
    ]


def oracle_dataset_json(data) -> dict:
    uni = data.universe
    cells = sorted(data.probs.items(), key=lambda cell: cell[0][::-1])
    return {
        "universe": list(uni.names),
        "numeric_mode": data.policy.mode,
        "frames": [uni.frame_str(f) for f in data.domain],
        "probs": cell_dicts(uni, ((a, f, p) for (a, f), p in cells), "p"),
    }


def oracle_table_json(table) -> dict:
    uni = table.universe
    n = uni.n
    cells = [(a, f) for a in range(n) for f in range(1 << n)]
    return {
        "universe": list(uni.names),
        "numeric_mode": table.policy.mode,
        "q": cell_dicts(uni, ((a, f, table.q(a, f)) for a, f in cells if f >> a & 1), "value"),
        "y": cell_dicts(uni, ((a, f, table.y(a, f)) for a, f in cells if not f >> a & 1), "value"),
    }


def oracle_verdict_json(verdict, universe: Universe) -> dict:
    return {
        "accepted": verdict.accepted,
        "complete_domain": verdict.complete_domain,
        "violations": [v.to_json_dict(universe) for v in verdict.violations],
        "witness": verdict.witness.to_json_dict() if verdict.witness is not None else None,
    }


def oracle_certificate_json(cert, universe: Universe) -> dict:
    return {
        "kind": "dual",
        "coefficients": cell_dicts(universe, cert.coefficients, "coefficient"),
        "normalization_coefficient": number_to_json(cert.normalization_coefficient),
    }


def oracle_hasse_json(graph) -> dict:
    uni = graph.universe
    return {
        "universe": list(uni.names),
        "nodes": [uni.frame_str(f) for f in graph.nodes],
        "q_edges": [
            {"from": uni.frame_str(src), "to": uni.frame_str(dst), "alternative": uni.names[alt],
             "value": number_to_json(val)}
            for src, dst, alt, val in graph.q_edges
        ],
        "leak_edges": [
            {"from": uni.frame_str(frame), "alternative": uni.names[alt], "value": number_to_json(val)}
            for frame, alt, val in graph.leak_edges
        ],
    }


def oracle_csv(universe: Universe, header: list[str], rows) -> str:
    """The universe comment, then each row through ``csv.writer``."""
    out = io.StringIO()
    out.write(f"# universe: {'|'.join(universe.names)}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()
