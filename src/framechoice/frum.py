"""Random frame-dependent utility: testing, recovery, and identification.

Aggregate data passes the model exactly when every entry of both polynomial
tables is nonnegative; an accepted rule is a mixture over deterministic choice
types, and each type's canonical weight is the product of conditional flow
ratios along its path through the frame lattice (framed pick-offs down the
lattice, one leakage at the end).  A second, recursive construction builds the
same weights from permutation prefixes and serves as a cross-check.  For
partially observed data the module degrades to falsification via truncated
interval sums and to exact linear feasibility over the enumerated types.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import (
    DataError,
    Number,
    NumericPolicy,
    StochasticChoiceData,
    Universe,
    cell_records,
    members,
    number_to_json,
)
from .detfum import ChoiceType, enumerate_types
from .polys import BMTable, compute_bm, signed_interval_sum
from .rational_lp import solve_rational_lp

MAX_WITNESS_N = 6  # path count beyond this makes automatic recovery unhelpful
MAX_FEASIBILITY_N = 6  # enumeration-backed LP column cap (9786 types)


@dataclass(frozen=True)
class TypeDistribution:
    """Probability weights over choice types (zero-weight types may be omitted)."""

    universe: Universe
    weights: Mapping[ChoiceType, Number]
    policy: NumericPolicy = NumericPolicy()

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", dict(self.weights))  # not the caller's dict
        n = self.universe.n
        total = self.policy.zero()
        for ctype, w in self.weights.items():
            if any(a >= n for a in ctype.priority):
                raise DataError("choice type references an alternative outside the universe")
            if not self.policy.is_nonneg(w):
                raise DataError("type weights must be nonnegative")
            total += w
        if not self.policy.is_close(total, self.policy.one(), scale=8):
            raise DataError(f"type weights sum to {float(total)}, expected 1")

    def weight(self, ctype: ChoiceType) -> Number:
        return self.weights.get(ctype, self.policy.zero())

    def support(self) -> list[ChoiceType]:
        return sorted(
            (t for t, w in self.weights.items() if w > 0),
            key=lambda t: (len(t.priority), t.priority, t.default_index),
        )

    def to_json_dict(self) -> dict:
        names = self.universe.names
        return {
            "universe": list(names),
            "weights": [
                {
                    "priority": [names[a] for a in t.priority],
                    "default": names[t.default],
                    "weight": number_to_json(self.weights[t]),
                }
                for t in sorted(
                    self.weights, key=lambda t: (len(t.priority), t.priority, t.default_index)
                )
            ],
        }


@dataclass(frozen=True)
class BMViolation:
    """One negative polynomial value, full or interval-truncated."""

    kind: str  # "q" | "y" | "interim_Q" | "interim_Y"
    alternative: int
    frame: int
    value: Number
    upper_frame: int | None = None  # interim kinds only

    def to_json_dict(self, universe: Universe) -> dict:
        out = {
            "kind": self.kind,
            "alternative": universe.names[self.alternative],
            "frame": universe.frame_str(self.frame),
            "value": number_to_json(self.value),
        }
        if self.upper_frame is not None:
            out["upper_frame"] = universe.frame_str(self.upper_frame)
        return out


@dataclass(frozen=True)
class FrumVerdict:
    """Outcome of the mixture-model test.

    With a fully observed domain the test is exact: accepted means a witness
    distribution exists (and one is attached for small universes).  On partial
    domains only falsification is possible; ``accepted`` is then False and an
    empty violation list means "not falsified".
    """

    accepted: bool
    complete_domain: bool
    violations: tuple[BMViolation, ...]
    witness: TypeDistribution | None

    def to_json_dict(self, universe: Universe) -> dict:
        return {
            "accepted": self.accepted,
            "complete_domain": self.complete_domain,
            "violations": [v.to_json_dict(universe) for v in self.violations],
            "witness": self.witness.to_json_dict() if self.witness is not None else None,
        }


class FrumRejectionError(DataError):
    """Recovery was requested for data that fails the mixture test."""

    def __init__(self, message: str, verdict: FrumVerdict):
        super().__init__(message)
        self.verdict = verdict


# ---------------------------------------------------------------------------
# testing
# ---------------------------------------------------------------------------


def interim_violations(data: StochasticChoiceData) -> tuple[BMViolation, ...]:
    """Every computable negative interval sum, in deterministic order.

    Scans all observed frame pairs ``lo <= hi`` per alternative whose interval
    is fully observed for that alternative; a negative interval sum falsifies
    the model regardless of what the unobserved frames look like.
    """
    out: list[BMViolation] = []
    policy = data.policy
    zero = policy.zero()
    for alt, (row, seen) in enumerate(zip(data.values.tolist(), data.observed.tolist())):
        bit = 1 << alt
        observed = dict(compress(zip(data.domain, row), seen))
        for lo in observed:
            for hi in observed:
                if lo == hi or lo & ~hi:
                    continue
                is_y = not hi & bit
                if not (is_y or lo & bit):
                    continue
                total = signed_interval_sum(observed.get, lo, hi, zero)
                if total is None:  # some frame of the interval is unobserved
                    continue
                scale = 1 << bin(hi & ~lo).count("1")
                if not policy.is_nonneg(total, scale=scale):
                    kind = "interim_Y" if is_y else "interim_Q"
                    out.append(BMViolation(kind, alt, lo, total, upper_frame=hi))
    return tuple(out)


def _sign_violations(table: BMTable) -> tuple[BMViolation, ...]:
    # every negative q entry in stable order, then every negative y entry
    negative = ~table.policy.is_nonneg(table.values)
    framed = table.framed
    return tuple(
        BMViolation(kind, alt, frame, value)
        for kind, where in (("q", framed), ("y", ~framed))
        for alt, frame, value in table.cells(negative & where)
    )


def test_frum(data: StochasticChoiceData, with_witness: bool | None = None) -> FrumVerdict:
    """Sign test on both polynomial tables (full domain), else falsification.

    ``with_witness`` forces or suppresses attaching the recovered distribution
    on acceptance; by default a witness is attached for universes up to
    ``MAX_WITNESS_N`` alternatives.
    """
    if not data.full_domain:
        return FrumVerdict(False, False, interim_violations(data), None)
    table = compute_bm(data)
    violations = _sign_violations(table)
    if violations:
        return FrumVerdict(False, True, violations, None)
    if with_witness is None:
        with_witness = data.universe.n <= MAX_WITNESS_N
    witness = None
    if with_witness:
        witness = TypeDistribution(data.universe, _recover_paths(table), data.policy)
    return FrumVerdict(True, True, (), witness)


test_frum.__test__ = False  # analysis entry point, not a pytest case


# ---------------------------------------------------------------------------
# recovery
# ---------------------------------------------------------------------------


def _clamped(table: BMTable) -> list[list]:
    # the table's rows as lists with every q/y value below zero set to zero:
    # float noise in [-eps, 0) must not poison path products; exact mode is a no-op
    zero = table.policy.zero()
    return [[v if v > 0 else zero for v in row] for row in table.values.tolist()]


def _require_accepted(data: StochasticChoiceData) -> BMTable:
    if not data.full_domain:
        raise DataError("recovery requires observations for every frame")
    table = compute_bm(data)
    violations = _sign_violations(table)
    if violations:
        verdict = FrumVerdict(False, True, violations, None)
        raise FrumRejectionError("data has no mixture representation", verdict)
    return table


def _recover_paths(table: BMTable) -> dict[ChoiceType, Number]:
    """Depth-first walk of the lattice assigning conditional flow ratios."""
    n = table.universe.n
    bm = _clamped(table)
    weights: dict[ChoiceType, Number] = {}
    full = (1 << n) - 1

    def visit(node: int, mass: Number, consumed: tuple[int, ...]) -> None:
        through = sum(bm[x][node] for x in members(node))
        for x in consumed:
            through += bm[x][node]
        if not through > 0:
            return
        for pos, x in enumerate(consumed):
            leak = bm[x][node]
            if leak > 0:
                weights[ChoiceType(consumed, pos + 1)] = mass * leak / through
        for x in members(node):
            down = bm[x][node]
            if down > 0:
                visit(node & ~(1 << x), mass * down / through, consumed + (x,))

    visit(full, table.policy.one(), ())
    return weights


def recover_branch_independent(data: StochasticChoiceData) -> TypeDistribution:
    """The canonical mixture: each type weighted by its path's flow ratios.

    Requires the full domain and an accepted sign test.  Aggregating the
    result reproduces the data; among all representing mixtures this is the
    one whose conditional split at every lattice node is proportional to the
    node's outgoing flows.
    """
    table = _require_accepted(data)
    return TypeDistribution(data.universe, _recover_paths(table), data.policy)


def recover_constructive(data: StochasticChoiceData) -> TypeDistribution:
    """Recovery by the recursive prefix construction.

    Builds weights on ordered prefixes of framed alternatives level by level,
    dividing each extension by the total weight of all orderings of the same
    prefix set, then reads one type per (prefix, terminal) pair.  Agrees with
    :func:`recover_branch_independent` type by type (exactly in rational mode).
    """
    table = _require_accepted(data)
    n = data.universe.n
    bm = _clamped(table)
    full = (1 << n) - 1

    level: dict[tuple[int, ...], Number] = {}
    for a in range(n):
        g = bm[a][full]
        if g > 0:
            level[(a,)] = g
    weights: dict[ChoiceType, Number] = {}
    for _ in range(n):
        if not level:
            break
        by_set: dict[int, Number] = {}
        for prefix, g in level.items():
            mask = 0
            for a in prefix:
                mask |= 1 << a
            by_set[mask] = by_set.get(mask, table.policy.zero()) + g
        nxt: dict[tuple[int, ...], Number] = {}
        for prefix, g in level.items():
            mask = 0
            for a in prefix:
                mask |= 1 << a
            denom = by_set[mask]
            if not denom > 0:
                continue
            node = full & ~mask
            share = g / denom
            for pos, z in enumerate(prefix):
                leak = bm[z][node]
                if leak > 0:
                    w = share * leak
                    if w > 0:
                        weights[ChoiceType(prefix, pos + 1)] = w
            for z in members(node):
                down = bm[z][node]
                if down > 0:
                    nxt[prefix + (z,)] = share * down
        level = nxt
    return TypeDistribution(data.universe, weights, data.policy)


# ---------------------------------------------------------------------------
# aggregation and identification
# ---------------------------------------------------------------------------


def forward_frum(mu: TypeDistribution, domain: Iterable[int]) -> StochasticChoiceData:
    """Aggregate choice probabilities of a type mixture over given frames."""
    uni = mu.universe
    policy = mu.policy
    zero = policy.zero()
    probs: dict[tuple[int, int], Number] = {}
    frames = sorted(set(domain))
    for frame in frames:
        for alt in range(uni.n):
            probs[(alt, frame)] = zero
    for ctype, w in mu.weights.items():
        if w == 0:
            continue
        for frame in frames:
            key = (ctype.choose(frame), frame)
            probs[key] = probs[key] + w
    return StochasticChoiceData(uni, probs, policy)


@dataclass(frozen=True)
class Prop2Report:
    """How closely a mixture matches the identified aggregates.

    For any two mixtures representing the same data, the mass of types that
    pick ``b`` at ``F`` while picking every non-framed alternative from its
    own singleton equals ``y(b, F)``; the framed analogue over doubleton
    frames equals ``q(b, F + b)``.  Both discrepancies are zero for any true
    representation.
    """

    max_discrepancy: Number
    leak_clause_max: Number
    framed_clause_max: Number

    def to_json_dict(self) -> dict:
        return {
            "max_discrepancy": number_to_json(self.max_discrepancy),
            "leak_clause_max": number_to_json(self.leak_clause_max),
            "framed_clause_max": number_to_json(self.framed_clause_max),
        }


def check_prop2(data: StochasticChoiceData, mu: TypeDistribution) -> Prop2Report:
    """Verify both identification clauses for every (alternative, frame)."""
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

    gaps = abs(table.values - np.array(mass, table.values.dtype))
    framed = table.framed
    worst_leak, worst_framed = (max([zero, *gaps[where].tolist()]) for where in (~framed, framed))
    return Prop2Report(max(worst_leak, worst_framed), worst_leak, worst_framed)


# ---------------------------------------------------------------------------
# feasibility on partial data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualCertificate:
    """Farkas combination of observation rows proving infeasibility."""

    coefficients: tuple[tuple[int, int, Fraction], ...]  # (alt, frame, coeff)
    normalization_coefficient: Fraction

    def to_json_dict(self, universe: Universe) -> dict:
        return {
            "kind": "dual",
            "coefficients": cell_records(universe, self.coefficients, "coefficient"),
            "normalization_coefficient": number_to_json(self.normalization_coefficient),
        }


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    witness: TypeDistribution | None
    certificate: BMViolation | DualCertificate | None

    def to_json_dict(self, universe: Universe) -> dict:
        cert: dict | None
        if self.certificate is None:
            cert = None
        else:
            cert = self.certificate.to_json_dict(universe)
        return {
            "feasible": self.feasible,
            "witness": self.witness.to_json_dict() if self.witness is not None else None,
            "certificate": cert,
        }


BAND_EPS = 8  # in float mode an observation may move within ±BAND_EPS·eps


@dataclass(frozen=True)
class MixtureLP:
    """``rows · x = rhs, x >= 0`` with one weight column per type, then slacks.

    Each cell gives ``rows_per_cell`` consecutive rows in cell order: one
    equality, or in float mode an up row (own ``+slack`` column, right side
    ``p + band``) and a low row (own ``-slack`` column, ``p - band``); the
    normalization row is last.
    """

    types: tuple[ChoiceType, ...]
    rows: list[list[Fraction]]
    rhs: list[Fraction]
    rows_per_cell: int


def mixture_lp(
    data: StochasticChoiceData,
    types: Iterable[ChoiceType],
    cells: list[tuple[int, int]],
    pattern_frames: Sequence[int],
) -> MixtureLP:
    """The mixture system over ``cells``, one column per choice pattern.

    Of the ``types`` that agree on every frame of ``pattern_frames`` (which
    must cover the cells' frames) only the first is kept.
    """
    patterns: dict[tuple[int, ...], ChoiceType] = {}
    for ctype in types:
        patterns.setdefault(tuple(map(ctype.choose, pattern_frames)), ctype)
    kept = tuple(patterns.values())
    band = Fraction(0) if data.policy.exact else Fraction(BAND_EPS * data.policy.eps)
    slacks = 0 if band == 0 else 2 * len(cells)
    zero, one = Fraction(0), Fraction(1)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for i, (alt, frame) in enumerate(cells):
        row = [one if t.choose(frame) == alt else zero for t in kept] + [zero] * slacks
        target = Fraction(data.rho(alt, frame))
        if band == 0:
            rows.append(row)
            rhs.append(target)
            continue
        low = row.copy()
        row[len(kept) + 2 * i] = one
        low[len(kept) + 2 * i + 1] = -one
        rows += [row, low]
        rhs += [target + band, target - band]
    rows.append([one] * len(kept) + [zero] * slacks)
    rhs.append(one)
    return MixtureLP(kept, rows, rhs, 1 if band == 0 else 2)


def feasible_completion(data: StochasticChoiceData) -> FeasibilityResult:
    """Decide whether any mixture over the enumerated types matches the data.

    Works on arbitrary partial observations (missing frames, or frames
    observed for only some alternatives): exact rational feasibility over
    one row per observation plus normalization, each float observation
    within the same ``±BAND_EPS·eps`` band as the plot regions.  On
    infeasibility the certificate is a violated interval sum when one exists,
    otherwise the LP's dual (Farkas) combination; a float cell's coefficient
    sums its two band rows', which certifies the unbanded system exactly.
    """
    uni = data.universe
    if uni.n > MAX_FEASIBILITY_N:
        raise DataError(f"feasibility search supported for n <= {MAX_FEASIBILITY_N}")
    # a negative interval sum already proves infeasibility, without the LP
    interims = interim_violations(data)
    if interims:
        worst = min(interims, key=lambda v: (v.value, v.alternative, v.frame))
        return FeasibilityResult(False, None, worst)
    alts, columns = data.observed.nonzero()  # (alt, frame) in ascending order
    observations = [(alt, data.domain[j]) for alt, j in zip(alts.tolist(), columns.tolist())]
    lp = mixture_lp(data, enumerate_types(uni), observations, data.domain)

    result = solve_rational_lp(lp.rows, lp.rhs)
    if result.status == "optimal":
        weights: dict[ChoiceType, Number] = {}
        for ctype, w in zip(lp.types, result.x):
            if w > 0:
                weights[ctype] = w if data.policy.exact else float(w)
        witness = TypeDistribution(uni, weights, data.policy)
        return FeasibilityResult(True, witness, None)

    k = lp.rows_per_cell
    coeffs = tuple(
        (alt, frame, sum(result.farkas[k * i : k * i + k]))
        for i, (alt, frame) in enumerate(observations)
    )
    return FeasibilityResult(False, None, DualCertificate(coeffs, result.farkas[-1]))
