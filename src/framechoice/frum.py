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

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd, lcm

import numpy as np

from .core import (
    DataError,
    Number,
    NumericPolicy,
    Records,
    StochasticChoiceData,
    Universe,
    columns_of,
    members,
    number_to_json,
    over_lcm,
)
from .detfum import ChoiceType, enumerate_types
from .polys import BMTable, compute_bm, nonneg_certified, signed_interval_sum
from .rational_lp import solve_rational_lp

MAX_WITNESS_N = 6  # path count beyond this makes automatic recovery unhelpful
MAX_FEASIBILITY_N = 6  # LP column cap (9786 types); on the full domain, recovery walks n! paths


def _canonical(t: ChoiceType) -> tuple:
    """Report order of choice types: by priority length, then priority, then default."""
    return (len(t.priority), t.priority, t.default_index)


@dataclass(frozen=True)
class TypeDistribution:
    """Probability weights over choice types (zero-weight types may be omitted)."""

    universe: Universe
    weights: Mapping[ChoiceType, Number]
    policy: NumericPolicy = NumericPolicy()

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", dict(self.weights))  # not the caller's dict
        n = self.universe.n
        for ctype, w in self.weights.items():
            if max(ctype.priority) >= n:
                raise DataError("choice type references an alternative outside the universe")
            if not self.policy.is_nonneg(w):
                raise DataError("type weights must be nonnegative")
        if self.policy.exact:  # integers over the weights' common denominator
            tops, common = over_lcm(self.weights.values())
            mass = sum(tops)
            if mass != common:
                raise DataError(f"type weights sum to {mass / common}, expected 1")
        else:
            total = 0.0  # in dict order: builtin sum() adds floats compensated from Python 3.12
            for w in self.weights.values():
                total += w
            if not self.policy.is_close(total, 1.0, scale=8):
                raise DataError(f"type weights sum to {float(total)}, expected 1")

    def weight(self, ctype: ChoiceType) -> Number:
        return self.weights.get(ctype, self.policy.zero())

    def support(self) -> list[ChoiceType]:
        return sorted((t for t, w in self.weights.items() if w > 0), key=_canonical)

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
                for t in sorted(self.weights, key=_canonical)
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


@dataclass(frozen=True, eq=False)
class Violations(Sequence):
    """Negative polynomial values as columns; ``Violations()`` holds none.

    Indexing and iteration build :class:`BMViolation` objects, and a slice a
    tuple of them; the sequence compares equal to, and hashes like, the tuple
    of the same violations, so ``violations == ()`` tests for none.
    """

    kinds: Sequence[str] = ()
    alternatives: Sequence[int] = ()
    frames: Sequence[int] = ()
    values: Sequence[Number] = ()
    upper_frames: Sequence[int] | None = None  # None when no violation is interval-truncated

    def __len__(self) -> int:
        return len(self.alternatives)

    def __getitem__(self, i):
        upper = None if self.upper_frames is None else self.upper_frames[i]
        parts = (self.kinds[i], self.alternatives[i], self.frames[i], self.values[i], upper)
        return tuple(Violations(*parts)) if isinstance(i, slice) else BMViolation(*parts)

    def __eq__(self, other) -> bool:
        if isinstance(other, (tuple, Violations)):
            return len(self) == len(other) and tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))


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
    violations: Violations | tuple[BMViolation, ...]  # a tuple when built by hand
    witness: TypeDistribution | None

    def to_json_dict(self, universe: Universe) -> dict:
        return {
            "accepted": self.accepted,
            "complete_domain": self.complete_domain,
            "violations": _violation_records(self.violations, universe),
            "witness": self.witness.to_json_dict() if self.witness is not None else None,
        }


def _violation_records(violations: Sequence[BMViolation], universe: Universe) -> Records | list[dict]:
    """The violations' JSON records, as ``BMViolation.to_json_dict`` writes each."""
    if not isinstance(violations, Violations):  # built by hand: full and interval violations may mix
        return [v.to_json_dict(universe) for v in violations]
    frame, uppers = universe.frame_str, violations.upper_frames
    records = {
        "kind": (violations.kinds, str),
        "alternative": (violations.alternatives, universe.names.__getitem__),
        "frame": (violations.frames, frame),
        "value": (violations.values, number_to_json),
    }
    if uppers is not None:
        records["upper_frame"] = (uppers, frame)
    return Records(records)


class FrumRejectionError(DataError):
    """Recovery was requested for data that fails the mixture test."""

    def __init__(self, message: str, verdict: FrumVerdict):
        super().__init__(message)
        self.verdict = verdict


# ---------------------------------------------------------------------------
# testing
# ---------------------------------------------------------------------------


def interim_violations(data: StochasticChoiceData) -> Violations:
    """Every computable negative interval sum, in deterministic order.

    Scans all observed frame pairs ``lo <= hi`` per alternative whose interval
    is fully observed for that alternative; a negative interval sum falsifies
    the model regardless of what the unobserved frames look like.
    """
    out: list[tuple] = []
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
                    out.append((kind, alt, lo, total, hi))
    return Violations(*columns_of(out, 5))


def _sign_violations(table: BMTable) -> Violations:
    # every negative q entry in stable order, then every negative y entry
    negative = ~table.policy.is_nonneg(table.values)
    framed = table.framed
    q, y = table.columns(negative & framed), table.columns(negative & ~framed)
    return Violations(["q"] * len(q[0]) + ["y"] * len(y[0]), *(a + b for a, b in zip(q, y)))


def test_frum(data: StochasticChoiceData, with_witness: bool | None = None) -> FrumVerdict:
    """Sign test on both polynomial tables (full domain), else falsification.

    ``with_witness`` forces or suppresses attaching the recovered distribution
    on acceptance; by default a witness is attached for universes up to
    ``MAX_WITNESS_N`` alternatives.
    """
    if not data.full_domain:
        return FrumVerdict(False, False, interim_violations(data), None)
    if with_witness is None:
        with_witness = data.universe.n <= MAX_WITNESS_N
    if not with_witness and nonneg_certified(data):  # signs alone, without Fractions
        return FrumVerdict(True, True, Violations(), None)
    table = compute_bm(data)
    violations = _sign_violations(table)
    if violations:
        return FrumVerdict(False, True, violations, None)
    witness = None
    if with_witness:
        witness = TypeDistribution(data.universe, _recover_paths(table), data.policy)
    return FrumVerdict(True, True, Violations(), witness)


test_frum.__test__ = False  # analysis entry point, not a pytest case


# ---------------------------------------------------------------------------
# recovery
# ---------------------------------------------------------------------------


def _clamped(table: BMTable) -> list[list[float]]:
    # a float table's rows with every q/y value below zero set to zero: noise
    # in [-eps, 0) must not poison path products (an accepted exact table has none)
    return [[v if v > 0 else 0.0 for v in row] for row in table.values.tolist()]


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
    if table.policy.exact:
        return _exact_paths(table)
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

    visit(full, 1.0, ())
    return weights


def _exact_paths(table: BMTable) -> dict[ChoiceType, Fraction]:
    """:func:`_recover_paths` of an accepted rational table, on Python ints.

    ``consumed`` is the complement of ``node``, so the flow through a node is
    its column's sum, the same on every path; the table's common denominator
    cancels in each ratio, and a type's weight is ``Π downs · leak / Π
    throughs`` along its path, one ``Fraction`` per type.
    """
    n = table.universe.n
    bm, _ = table.integers()
    throughs = [sum(column) for column in zip(*bm)]
    weights: dict[ChoiceType, Fraction] = {}

    def visit(node: int, top: int, bottom: int, consumed: tuple[int, ...]) -> None:
        bottom *= throughs[node]  # positive: at least the inflow the walk came in by
        for pos, x in enumerate(consumed):
            leak = bm[x][node]
            if leak > 0:
                weights[ChoiceType(consumed, pos + 1)] = Fraction(top * leak, bottom)
        for x in members(node):
            down = bm[x][node]
            if down > 0:
                visit(node & ~(1 << x), top * down, bottom, consumed + (x,))

    visit((1 << n) - 1, 1, 1, ())
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
    In rational mode a prefix's weight is a pair of Python ints ``(top,
    bottom)``, and each set's orderings add over the lcm of their bottoms.
    """
    table = _require_accepted(data)
    if data.policy.exact:
        return TypeDistribution(data.universe, _exact_prefixes(table), data.policy)
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
        masks = {prefix: sum(1 << a for a in prefix) for prefix in level}
        by_set: dict[int, Number] = {}
        for prefix, g in level.items():
            mask = masks[prefix]
            by_set[mask] = by_set.get(mask, 0.0) + g
        nxt: dict[tuple[int, ...], Number] = {}
        for prefix, g in level.items():
            mask = masks[prefix]
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


def _exact_prefixes(table: BMTable) -> dict[ChoiceType, Fraction]:
    """:func:`recover_constructive`'s weights of an accepted rational table, on Python ints."""
    n = table.universe.n
    bm, common = table.integers()
    full = (1 << n) - 1
    level = {(a,): (bm[a][full], common) for a in range(n) if bm[a][full] > 0}
    weights: dict[ChoiceType, Fraction] = {}
    while level:
        masks = {prefix: sum(1 << a for a in prefix) for prefix in level}
        wholes: dict[int, int] = {}  # per prefix set: the lcm of its orderings' bottoms
        for prefix, (_, bottom) in level.items():
            wholes[masks[prefix]] = lcm(wholes.get(masks[prefix], 1), bottom)
        by_set: dict[int, int] = {}  # per prefix set: its orderings' total over that lcm
        for prefix, (top, bottom) in level.items():
            mask = masks[prefix]
            by_set[mask] = by_set.get(mask, 0) + top * (wholes[mask] // bottom)
        for mask, mass in by_set.items():  # in lowest terms, so the pairs stay small
            shared = gcd(mass, wholes[mask])
            by_set[mask], wholes[mask] = mass // shared, wholes[mask] // shared
        nxt: dict[tuple[int, ...], tuple[int, int]] = {}
        for prefix, (top, bottom) in level.items():
            mask = masks[prefix]
            node = full & ~mask
            # share = (top / bottom) / (by_set / whole), and each table value is over common;
            # by_set > 0, as a level holds positive weights only
            top, bottom = top * wholes[mask], bottom * by_set[mask] * common
            for pos, z in enumerate(prefix):
                leak = bm[z][node]
                if leak > 0:
                    weights[ChoiceType(prefix, pos + 1)] = Fraction(top * leak, bottom)
            for z in members(node):
                down = bm[z][node]
                if down > 0:
                    nxt[prefix + (z,)] = (top * down, bottom)
        level = nxt
    return weights


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

    Only a type whose lattice path passes a cell meets that cell's side
    conditions (a pick from every non-framed alternative's singleton for
    ``y``, a loss to it in every doubleton for ``q``), so for any mixture
    representing the data each cell equals the mass of the types through it:
    both discrepancies are zero for any true representation.
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
    """Verify both identification clauses for every (alternative, frame).

    As ``c({x}) = x`` exactly for ``x`` in the priority ``P``, and
    ``c({x, P[k]}) = x`` exactly for ``x`` before ``P[k]`` in ``P``, a type
    meets the side conditions on its path's ``|P| + 1`` cells and nowhere
    else: ``q(P[k], X - {P[0..k-1]})`` for each ``k``, then
    ``y(default, X - P)``.  Each weight is added to those cells in
    ``mu.weights`` order: O(|support|·n) plus one lattice transform.  In
    rational mode the additions are of integers, each weight's numerator
    over the weights' common denominator, and each cell becomes one
    ``Fraction`` at the end.
    """
    if mu.universe != data.universe:
        raise DataError("type distribution and data must share a universe")
    table = compute_bm(data)
    n = data.universe.n
    exact = data.policy.exact
    if exact:
        weights, common = over_lcm(mu.weights.values())
    else:
        weights = mu.weights.values()
    mass = [[0 if exact else 0.0] * (1 << n) for _ in range(n)]  # laid out like the table
    for ctype, w in zip(mu.weights, weights):  # a zero weight adds nothing, in either mode
        node = (1 << n) - 1
        for x in ctype.priority:  # framed pick-offs down the lattice
            mass[x][node] += w
            node &= ~(1 << x)
        mass[ctype.default][node] += w  # then the leak
    if exact:
        mass = [[Fraction(m, common) for m in row] for row in mass]

    zero = data.policy.zero()
    values = table.numbers()
    gaps = abs(values - np.array(mass, values.dtype))
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
            "coefficients": Records.cells(universe, *columns_of(self.coefficients, 3), "coefficient"),
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

    On the full domain this is ``test_frum``'s verdict: the witness is the
    path-recovered mixture and the certificate the most negative ``q``/``y``
    value.  Partial observations (missing frames, or frames observed for only
    some alternatives) go to exact rational feasibility over one row per
    observation plus normalization, each float observation within the same
    ``±BAND_EPS·eps`` band as the plot regions.  On infeasibility the
    certificate is a violated interval sum when one exists, otherwise the
    LP's dual (Farkas) combination; a float cell's coefficient sums its two
    band rows', which certifies the unbanded system exactly.
    """
    uni = data.universe
    if uni.n > MAX_FEASIBILITY_N:
        raise DataError(f"feasibility search supported for n <= {MAX_FEASIBILITY_N}")
    # the full domain is decided by the sign test; elsewhere a negative
    # interval sum already proves infeasibility, without the LP
    verdict = test_frum(data, with_witness=True)
    if verdict.violations:
        worst = min(verdict.violations, key=lambda v: (v.value, v.alternative, v.frame))
        return FeasibilityResult(False, None, worst)
    if verdict.accepted:
        return FeasibilityResult(True, verdict.witness, None)
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
