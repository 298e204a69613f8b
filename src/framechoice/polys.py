"""Alternating-sum polynomial tables over the frame lattice, and their flows.

For a stochastic rule ``rho`` the table holds, per alternative ``a``:

* ``q(a, F) = sum_{B >= F} (-1)^{|B - F|} rho(a, B)`` for framed ``a`` (a in F),
* ``y(a, F) = sum_{B >= F, a not in B} (-1)^{|B - F|} rho(a, B)`` for a not in F.

On the subset lattice drawn as a diagram, ``q`` values label down-edges
between adjacent frames and ``y`` values label per-alternative leakages out of
a node; total inflow equals outflow plus leakage at every node for *any*
choice rule.  Interim variants truncate the alternating sum to an observed
interval so partial data can still falsify.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .core import (
    DataError,
    Number,
    NumericPolicy,
    Records,
    StochasticChoiceData,
    Universe,
    columns_of,
    number_to_json,
    over_lcm,
    submasks,
)


@dataclass(frozen=True)
class BMTable:
    """Full q/y tables for a completely observed rule, in one array.

    ``values[a, F] / denominator`` is ``q(a, F)`` where ``a`` is in ``F`` and
    ``y(a, F)`` where it is not; the two tables never share a cell.  In float
    mode ``values`` is ``float64`` and ``denominator`` is 1.  In rational mode
    ``values`` holds ``int64`` numerators over the common ``denominator`` when
    :func:`compute_bm` could scale the rule to them, and otherwise ``Fraction``
    objects (dtype ``object``) over 1.  The sign of a cell is the sign of its
    stored value.  ``q``, ``y``, ``columns`` and ``numbers`` give the table's
    numbers (Fractions in rational mode), built only for the cells they read;
    ``integers`` gives a rational table's rows as Python ints over one
    denominator and builds no ``Fraction``.
    """

    universe: Universe
    policy: NumericPolicy
    values: np.ndarray  # shape (n, 2^n), indexed by (alternative, frame mask)
    denominator: int = 1

    def _read(self, values: list) -> list[Number]:
        """Stored values as the table's numbers: ``int64`` numerators become Fractions."""
        if self.values.dtype != np.int64:
            return values
        number = {v: Fraction(v, self.denominator) for v in set(values)}  # tables repeat values
        return list(map(number.__getitem__, values))

    def numbers(self) -> np.ndarray:
        """The table's numbers in the layout of ``values``; ``values`` itself unless scaled."""
        if self.values.dtype != np.int64:
            return self.values
        return np.array(self._read(self.values.ravel().tolist()), object).reshape(self.values.shape)

    def integers(self) -> tuple[list[list[int]], int]:
        """A rational table's rows as Python int numerators over one common denominator."""
        if self.values.dtype == np.int64:
            return self.values.tolist(), self.denominator
        tops, common = over_lcm(self.values.ravel().tolist())
        width = self.values.shape[1]
        return [tops[i : i + width] for i in range(0, len(tops), width)], common

    def q(self, alt: int, frame: int) -> Number:
        if not frame & (1 << alt):
            raise DataError("q(a, F) requires a in F")
        return self._read([self.values.item(alt, frame)])[0]

    def y(self, alt: int, frame: int) -> Number:
        if frame & (1 << alt):
            raise DataError("y(a, F) requires a not in F")
        return self._read([self.values.item(alt, frame)])[0]

    @property
    def framed(self) -> np.ndarray:
        """Boolean mask over ``values``, True at the ``q`` cells (``a`` in ``F``)."""
        n = self.universe.n
        return (np.arange(1 << n) >> np.arange(n)[:, None]) & 1 == 1

    def columns(self, where: np.ndarray) -> tuple[list[int], list[int], list[Number]]:
        """Alternative, frame and value columns of the True cells of a mask, in stable order."""
        alts, frames = np.nonzero(where)
        return alts.tolist(), frames.tolist(), self._read(self.values[where].tolist())

    def to_json_dict(self) -> dict:
        uni = self.universe
        return {
            "universe": list(uni.names),
            "numeric_mode": self.policy.mode,
            "q": Records.cells(uni, *self.columns(self.framed), "value"),
            "y": Records.cells(uni, *self.columns(~self.framed), "value"),
        }


def _superset_signed_sum(row: np.ndarray, n: int, skip: int) -> None:
    # in place: row[F] <- sum over B >= F agreeing with F on bit `skip` of
    # (-1)^{|B-F|} row[B]; in the C-order (2,)*n view bit k is axis n-1-k
    view = row.reshape((2,) * n)
    for axis in range(n):
        if axis != n - 1 - skip:
            lead = (slice(None),) * axis
            view[lead + (0,)] -= view[lead + (1,)]


def _scaled(data: StochasticChoiceData) -> tuple[np.ndarray, int] | None:
    """A rational rule's cells as ``int64`` numerators over their common denominator, if it fits.

    The parts and their lcm ``D`` are the rule's own, read once by its
    constructor, which keeps no ``D`` past ``63 - n`` bits: each transformed
    cell sums up to 2^(n-1) numerators in [0, D], which might then overflow.
    """
    common = data.common_denominator
    if common is None:
        return None
    return (data.numerators * (common // data.denominators)).astype(np.int64), common


CERTIFICATE_BITS = 128  # fractional bits of the fixed-point sign certificate


def nonneg_certified(data: StochasticChoiceData) -> bool:
    """True only if every q/y cell of a full-domain rational rule is provably positive.

    False at once for float rules and where :func:`_scaled` fits: those
    transforms are exact and fast.  Otherwise each ``rho`` becomes
    ``floor(rho * 2^CERTIFICATE_BITS)`` and the rows take the usual transform;
    a cell ``V`` summing ``terms`` floors is within ``terms`` of its exact value
    so scaled, and ``V >= terms`` proves that value positive.  The floors
    come from the parts that the rule's constructor read.  False decides
    nothing.
    """
    n = data.universe.n
    if not (data.policy.exact and data.full_domain) or data.common_denominator is not None:
        return False
    fixed = (data.numerators << CERTIFICATE_BITS) // data.denominators
    for alt in range(n):
        _superset_signed_sum(fixed[alt], n, alt)
    framed = (np.arange(1 << n) >> np.arange(n)[:, None]) & 1
    terms = 1 << (n - 1 - framed.sum(axis=0) + framed)  # 2^(n-|F|) framed, 2^(n-1-|F|) not
    return bool((fixed >= terms).all())


def compute_bm(data: StochasticChoiceData) -> BMTable:
    """Both polynomial tables from one lattice transform per alternative.

    Requires the full power set of frames.  Row ``a`` starts as ``rho(a, .)``
    and is transformed over every bit except ``a``'s own: a framed cell only
    ever sums supersets that contain ``a``, which is ``q``, while an unframed
    cell, never differenced against its ``a``-framed partner, sums only the
    supersets that avoid ``a``, which is ``y``.  Cost is O(n * 2^n) per
    alternative; the same array code runs on ``float64``, on the ``int64``
    numerators of a rational rule whose common denominator is small enough
    (see :func:`_scaled`), and otherwise on ``Fraction`` objects.
    """
    if not data.full_domain:
        raise DataError("polynomial tables require observations for every frame")
    n = data.universe.n
    # on the full domain, column F is frame F
    scaled = _scaled(data) if data.policy.exact else None
    values, denominator = scaled or (data.values.copy(), 1)
    for alt in range(n):
        _superset_signed_sum(values[alt], n, alt)
    return BMTable(data.universe, data.policy, values, denominator)


# ---------------------------------------------------------------------------
# interim (interval-truncated) sums for partial data
# ---------------------------------------------------------------------------


def signed_interval_sum(get: Callable, lo: int, hi: int, zero: Number) -> Number | None:
    """Signed sum of get(F) over lo <= F <= hi, in submask order; None if a frame is missing."""
    total = zero
    for extra in submasks(hi & ~lo):
        p = get(lo | extra)
        if p is None:
            return None
        total = total - p if bin(extra).count("1") % 2 else total + p
    return total


def _interval_sum(data: StochasticChoiceData, alt: int, lo: int, hi: int) -> Number:
    if lo & ~hi:
        raise DataError("interval requires lo to be a subset of hi")
    total = signed_interval_sum(lambda frame: data.get(alt, frame), lo, hi, data.policy.zero())
    if total is None:
        uni = data.universe
        where = f"from {uni.frame_str(lo)!r} to {uni.frame_str(hi)!r}"
        raise DataError(f"interval {where} not observed for {uni.names[alt]!r}")
    return total


def interim_y(data: StochasticChoiceData, alt: int, lo: int, hi: int) -> Number:
    """Truncated auxiliary sum over frames between ``lo`` and ``hi``.

    Defined for an alternative outside ``hi``; equals the full ``y(alt, lo)``
    when ``hi`` is the whole universe minus the alternative.  Computable, and
    therefore falsifying when negative, from partial data.
    """
    if hi & (1 << alt):
        raise DataError("interim y requires the alternative outside the upper frame")
    return _interval_sum(data, alt, lo, hi)


def interim_q(data: StochasticChoiceData, alt: int, lo: int, hi: int) -> Number:
    """Truncated framed sum; equals the full ``q(alt, lo)`` when hi covers X."""
    if not lo & (1 << alt):
        raise DataError("interim q requires the alternative inside the lower frame")
    return _interval_sum(data, alt, lo, hi)


# ---------------------------------------------------------------------------
# diagram export
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HasseGraph:
    """Labeled subset-lattice diagram: down-edges carry q, leakages carry y."""

    universe: Universe
    q_edges: tuple[tuple[int, int, int, Number], ...]  # (src frame, dst frame, alt, value)
    leak_edges: tuple[tuple[int, int, Number], ...]  # (frame, alt, value)

    @property
    def nodes(self) -> tuple[int, ...]:
        return tuple(range(1 << self.universe.n))

    def to_json_dict(self) -> dict:
        uni = self.universe
        frame, label = uni.frame_str, uni.names.__getitem__
        src, dst, alts, values = columns_of(self.q_edges, 4)
        leak, leak_alts, leak_values = columns_of(self.leak_edges, 3)
        return {
            "universe": list(uni.names),
            "nodes": [uni.frame_str(f) for f in self.nodes],
            "q_edges": Records({
                "from": (src, frame),
                "to": (dst, frame),
                "alternative": (alts, label),
                "value": (values, number_to_json),
            }),
            "leak_edges": Records({
                "from": (leak, frame),
                "alternative": (leak_alts, label),
                "value": (leak_values, number_to_json),
            }),
        }

    def to_dot(self) -> str:
        from .core import number_to_str

        uni = self.universe

        def quote(text: str) -> str:
            return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'

        def node_id(frame: int) -> str:
            return quote(f"{{{uni.frame_str(frame)}}}")

        lines = ["digraph hasse {", "  rankdir=TB;"]
        for frame in self.nodes:
            lines.append(f"  {node_id(frame)};")
        for src, dst, alt, val in self.q_edges:
            label = f"q({uni.names[alt]})={number_to_str(val)}"
            lines.append(f"  {node_id(src)} -> {node_id(dst)} [label={quote(label)}];")
        for idx, (frame, alt, val) in enumerate(self.leak_edges):
            sink = f'"leak{idx}"'
            label = f"y({uni.names[alt]})={number_to_str(val)}"
            lines.append(f"  {sink} [shape=none, label=\"\"];")
            lines.append(f"  {node_id(frame)} -> {sink} [style=dashed, label={quote(label)}];")
        lines.append("}")
        return "\n".join(lines)


def export_hasse(table: BMTable) -> HasseGraph:
    """Diagram with one outgoing edge per alternative at every node, frame by frame."""
    framed, values = table.framed.T, table.numbers().T  # frame-major: row F holds frame F
    frames, alts = np.nonzero(framed)
    targets = frames ^ (1 << alts)
    q_edges = zip(frames.tolist(), targets.tolist(), alts.tolist(), values[framed].tolist())
    frames, alts = np.nonzero(~framed)
    leak_edges = zip(frames.tolist(), alts.tolist(), values[~framed].tolist())
    return HasseGraph(table.universe, tuple(q_edges), tuple(leak_edges))
