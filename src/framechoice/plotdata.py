"""Barycentric plot data for three-alternative datasets.

Each observed frame's probability vector is a point in the 2-simplex.  For
the unconstrained frames (everything framed, nothing framed) the set of
vectors reachable by some mixture of choice types consistent with the
singleton and doubleton observations is a convex polygon; it is computed
exactly by support-direction refinement against the rational LP, which
terminates with the convex hull of the projected polytope vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import DataError, Number, StochasticChoiceData, number_to_json
from .detfum import enumerate_types
from .frum import mixture_lp
from .rational_lp import solve_rational_lp

Bary = tuple[Number, Number, Number]
_Pt = tuple[Fraction, Fraction]


class PlotRejectionError(DataError):
    """The singleton/doubleton observations admit no mixture of choice types."""


@dataclass(frozen=True)
class SimplexPoint:
    label: str
    bary: Bary


@dataclass(frozen=True)
class SimplexRegion:
    label: str
    vertices: tuple[Bary, ...]


@dataclass(frozen=True)
class SimplexPlotData:
    """Points and labeled feasible-region polygons in barycentric coordinates."""

    points: tuple[SimplexPoint, ...]
    regions: tuple[SimplexRegion, ...]

    def to_json_dict(self) -> dict:
        return {
            "points": [
                {"label": p.label, "bary": [number_to_json(c) for c in p.bary]}
                for p in self.points
            ],
            "regions": [
                {
                    "label": r.label,
                    "vertices": [[number_to_json(c) for c in v] for v in r.vertices],
                }
                for r in self.regions
            ],
        }


def _cross(o: _Pt, a: _Pt, b: _Pt) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull(points: set[_Pt]) -> list[_Pt]:
    pts = sorted(points)
    if len(pts) <= 2:
        return pts
    lower: list[_Pt] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[_Pt] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]  # counterclockwise, no collinear interiors


class _TypePolytope:
    """Mixture weights consistent with the singleton/doubleton observations.

    Built by :func:`~framechoice.frum.mixture_lp` over the frame-major
    singleton/doubleton cells: exact equalities in rational mode, bands of
    ``±BAND_EPS·eps`` in float mode, so representation noise in the data
    cannot make the exact LP infeasible.
    """

    def __init__(self, data: StochasticChoiceData, targets: list[int]):
        uni = data.universe
        constrained = [f for f in range(1 << uni.n) if 1 <= bin(f).count("1") <= 2]
        cells = [(alt, frame) for frame in constrained for alt in range(uni.n)]
        self.lp = mixture_lp(data, enumerate_types(uni), cells, constrained + targets)

    def support(self, target: int, direction: tuple[Fraction, Fraction]) -> _Pt:
        types = self.lp.types
        picks = [t.choose(target) for t in types]
        objective = [direction[p] if p < 2 else Fraction(0) for p in picks]
        objective.extend([Fraction(0)] * (len(self.lp.rows[0]) - len(types)))
        result = solve_rational_lp(self.lp.rows, self.lp.rhs, objective)
        if result.status != "optimal":
            raise PlotRejectionError(
                "singleton/doubleton observations admit no mixture of choice types"
            )
        pa = sum((x for p, x in zip(picks, result.x) if p == 0), Fraction(0))
        pb = sum((x for p, x in zip(picks, result.x) if p == 1), Fraction(0))
        return (pa, pb)


def _region_polygon(poly: _TypePolytope, target: int) -> list[_Pt]:
    axes = [
        (Fraction(1), Fraction(0)),
        (Fraction(-1), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(-1)),
    ]
    collected = {poly.support(target, d) for d in axes}
    if len(collected) == 1:
        return list(collected)
    while True:
        hull = _hull(collected)
        added = False
        count = len(hull)
        for i in range(count):
            p = hull[i]
            q = hull[(i + 1) % count]
            normal = (q[1] - p[1], p[0] - q[0])
            candidate = poly.support(target, normal)
            level = normal[0] * p[0] + normal[1] * p[1]
            reach = normal[0] * candidate[0] + normal[1] * candidate[1]
            if reach > level:
                collected.add(candidate)
                added = True
        if not added:
            return hull


def region_contains(vertices: tuple[Bary, ...], bary: Bary) -> bool:
    """Exact convex containment test in the first two barycentric coordinates."""
    pts = [(Fraction(v[0]), Fraction(v[1])) for v in vertices]
    p = (Fraction(bary[0]), Fraction(bary[1]))
    if len(pts) == 1:
        return pts[0] == p
    if len(pts) == 2:
        a, b = pts
        if _cross(a, b, p) != 0:
            return False
        lo, hi = sorted((a, b))
        return lo <= p <= hi
    count = len(pts)
    for i in range(count):
        if _cross(pts[i], pts[(i + 1) % count], p) < 0:
            return False
    return True


def plot_simplex(
    data: StochasticChoiceData, targets: list[int] | None = None
) -> SimplexPlotData:
    """Points for every observed frame plus feasible regions for the targets.

    Regions require exactly three alternatives and a domain holding every
    frame of size at most two; the singleton and doubleton observations
    constrain the mixture, so the interesting targets are the grand set and
    the empty frame (anything already constrained collapses to its point).
    """
    uni = data.universe
    if uni.n != 3:
        raise DataError("simplex plots require exactly 3 alternatives")
    if data.partial:
        raise DataError("simplex plots require complete frames")
    columns = zip(data.domain, data.values.T.tolist())
    points = tuple(SimplexPoint(uni.frame_str(f), tuple(bary)) for f, bary in columns)
    if targets is None:
        targets = [uni.full_frame, 0]
    regions: list[SimplexRegion] = []
    if targets:
        if not data.contains_frames_up_to(2):
            raise DataError("region emission requires all frames of size <= 2")
        poly = _TypePolytope(data, targets)
        for target in targets:
            verts = _region_polygon(poly, target)
            bary = tuple(
                (
                    data.policy.convert(pa),
                    data.policy.convert(pb),
                    data.policy.convert(1 - pa - pb),
                )
                for pa, pb in verts
            )
            regions.append(SimplexRegion(uni.frame_str(target), bary))
    return SimplexPlotData(points, tuple(regions))


def projected_points(
    data: StochasticChoiceData, alts: tuple[int, int, int]
) -> SimplexPlotData:
    """Points-only view for larger universes: renormalized onto three alternatives.

    Frames where the three chosen alternatives carry zero mass are skipped.
    """
    rows = list(alts)  # a list picks rows; a tuple would index two axes
    points = []
    columns = zip(data.domain, data.values[rows].T.tolist(), data.observed[rows].all(axis=0))
    for frame, triple, seen in columns:
        if not seen:
            continue
        total = sum(triple)
        if not total > 0:
            continue
        points.append(
            SimplexPoint(
                data.universe.frame_str(frame),
                tuple(t / total for t in triple),
            )
        )
    return SimplexPlotData(tuple(points), ())
