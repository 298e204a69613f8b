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
from typing import Callable, Iterator

import numpy as np

from .core import (
    DataError,
    Number,
    NumericPolicy,
    StochasticChoiceData,
    Universe,
    cell_records,
    number_to_json,
    submasks,
)


@dataclass(frozen=True)
class BMTable:
    """Full q/y tables for a completely observed rule, in one array.

    ``values[a, F]`` is ``q(a, F)`` where ``a`` is in ``F`` and ``y(a, F)``
    where it is not; the two tables never share a cell.  The array has dtype
    ``float64`` in float mode and ``object`` (``Fraction`` entries) in
    rational mode.
    """

    universe: Universe
    policy: NumericPolicy
    values: np.ndarray  # shape (n, 2^n), indexed by (alternative, frame mask)

    def q(self, alt: int, frame: int) -> Number:
        if not frame & (1 << alt):
            raise DataError("q(a, F) requires a in F")
        return self.values.item(alt, frame)

    def y(self, alt: int, frame: int) -> Number:
        if frame & (1 << alt):
            raise DataError("y(a, F) requires a not in F")
        return self.values.item(alt, frame)

    @property
    def framed(self) -> np.ndarray:
        """Boolean mask over ``values``, True at the ``q`` cells (``a`` in ``F``)."""
        n = self.universe.n
        return (np.arange(1 << n) >> np.arange(n)[:, None]) & 1 == 1

    def cells(self, where: np.ndarray) -> Iterator[tuple[int, int, Number]]:
        """(alternative, frame, value) at the True cells of a mask, in stable order."""
        alts, frames = np.nonzero(where)
        return zip(alts.tolist(), frames.tolist(), self.values[where].tolist())

    def q_items(self) -> Iterator[tuple[int, int, Number]]:
        """(alternative, frame, value) over all framed slots, in stable order."""
        return self.cells(self.framed)

    def y_items(self) -> Iterator[tuple[int, int, Number]]:
        """(alternative, frame, value) over all non-framed slots, in stable order."""
        return self.cells(~self.framed)

    def to_json_dict(self) -> dict:
        uni = self.universe
        return {
            "universe": list(uni.names),
            "numeric_mode": self.policy.mode,
            "q": cell_records(uni, self.q_items(), "value"),
            "y": cell_records(uni, self.y_items(), "value"),
        }


def _superset_signed_sum(row: np.ndarray, n: int, skip: int) -> None:
    # in place: row[F] <- sum over B >= F agreeing with F on bit `skip` of
    # (-1)^{|B-F|} row[B]; in the C-order (2,)*n view bit k is axis n-1-k
    view = row.reshape((2,) * n)
    for axis in range(n):
        if axis != n - 1 - skip:
            lead = (slice(None),) * axis
            view[lead + (0,)] -= view[lead + (1,)]


def compute_bm(data: StochasticChoiceData) -> BMTable:
    """Both polynomial tables from one lattice transform per alternative.

    Requires the full power set of frames.  Row ``a`` starts as ``rho(a, .)``
    and is transformed over every bit except ``a``'s own: a framed cell only
    ever sums supersets that contain ``a``, which is ``q``, while an unframed
    cell, never differenced against its ``a``-framed partner, sums only the
    supersets that avoid ``a``, which is ``y``.  Cost is O(n * 2^n) per
    alternative; the same array code runs on ``float64`` and on ``Fraction``
    objects.
    """
    if not data.full_domain:
        raise DataError("polynomial tables require observations for every frame")
    n = data.universe.n
    values = data.values.copy()  # on the full domain, column F is frame F
    for alt in range(n):
        _superset_signed_sum(values[alt], n, alt)
    return BMTable(data.universe, data.policy, values)


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
        return {
            "universe": list(uni.names),
            "nodes": [uni.frame_str(f) for f in self.nodes],
            "q_edges": [
                {
                    "from": uni.frame_str(src),
                    "to": uni.frame_str(dst),
                    "alternative": uni.names[alt],
                    "value": number_to_json(val),
                }
                for src, dst, alt, val in self.q_edges
            ],
            "leak_edges": [
                {
                    "from": uni.frame_str(frame),
                    "alternative": uni.names[alt],
                    "value": number_to_json(val),
                }
                for frame, alt, val in self.leak_edges
            ],
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
    """Diagram with one outgoing edge per alternative at every node."""
    n = table.universe.n
    q_edges = []
    leak_edges = []
    for frame in range(1 << n):
        for alt in range(n):
            bit = 1 << alt
            if frame & bit:
                q_edges.append((frame, frame & ~bit, alt, table.q(alt, frame)))
            else:
                leak_edges.append((frame, alt, table.y(alt, frame)))
    return HasseGraph(table.universe, tuple(q_edges), tuple(leak_edges))
