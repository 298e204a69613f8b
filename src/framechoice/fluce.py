"""Parametric frame-dependent Luce rules: axioms, fitting, identification.

Each alternative carries a positive base weight ``u(x)`` and a nonnegative
framed boost ``v(x)``; the choice probability at frame ``F`` is the (boosted)
weight over the total weight ``u(X) + v(F)``.  Two ratio properties plus a
monotonicity property characterize the model on small frames, and the
parameters are identified up to a common positive scale directly from choice
probabilities, with the empty frame pinning the base weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isfinite
from typing import Iterable

from .core import (
    DataError,
    Number,
    NumericPolicy,
    FLOAT64,
    RATIONAL,
    StochasticChoiceData,
    Universe,
    members,
    number_to_json,
)
from .frum import FrumVerdict, test_frum

MAX_EMBED_N = 5


class FitRejectionError(DataError):
    """Fitting failed because the data contradicts the model, not the caller."""


@dataclass(frozen=True)
class FLuceParams:
    """Per-alternative base weight (positive) and framed boost (nonnegative)."""

    universe: Universe
    u: tuple[Number, ...]
    v: tuple[Number, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "u", tuple(self.u))
        object.__setattr__(self, "v", tuple(self.v))
        n = self.universe.n
        if len(self.u) != n or len(self.v) != n:
            raise DataError("u and v must have one entry per alternative")
        if any(not w > 0 for w in self.u):
            raise DataError("base weights must be strictly positive")
        if any(w < 0 for w in self.v):
            raise DataError("framed boosts must be nonnegative")

    @property
    def exact(self) -> bool:
        return all(isinstance(w, Fraction) for w in self.u + self.v)

    def to_json_dict(self) -> dict:
        names = self.universe.names
        return {
            "universe": list(names),
            "u": {names[i]: number_to_json(self.u[i]) for i in range(len(names))},
            "v": {names[i]: number_to_json(self.v[i]) for i in range(len(names))},
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "FLuceParams":
        try:
            names = tuple(payload["universe"])
            uni = Universe(names)

            def number(raw: object) -> Number:
                if isinstance(raw, str):
                    return RATIONAL.parse(raw)
                if isinstance(raw, bool) or not isfinite(float(raw)):
                    raise ValueError(f"bad number {raw!r}")
                return float(raw)

            def grab(table: dict) -> tuple[Number, ...]:
                return tuple(number(table[name]) for name in names)

            return cls(uni, grab(payload["u"]), grab(payload["v"]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"malformed parameter payload: {exc}") from exc


def forward_fluce(
    params: FLuceParams,
    domain: Iterable[int],
    policy: NumericPolicy | None = None,
) -> StochasticChoiceData:
    """Exact formula evaluation of the rule on the given frames."""
    if policy is None:
        policy = RATIONAL if params.exact else FLOAT64
    uni = params.universe
    u = [policy.convert(w) for w in params.u]
    v = [policy.convert(w) for w in params.v]
    total_u = sum(u)
    probs: dict[tuple[int, int], Number] = {}
    for frame in sorted(set(domain)):
        if not 0 <= frame <= uni.full_frame:
            raise DataError(f"frame mask {frame} out of range")
        denom = total_u + sum(v[i] for i in members(frame))
        for alt in range(uni.n):
            num = u[alt] + v[alt] if frame & (1 << alt) else u[alt]
            probs[(alt, frame)] = num / denom
    return StochasticChoiceData(uni, probs, policy)


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomVerdict:
    status: str  # "pass" | "fail" | "blocked"
    deviation: Number | None = None
    witness: tuple | None = None

    def to_json_dict(self, universe: Universe) -> dict:
        witness = None
        if self.witness is not None:
            witness = [
                universe.names[w] if kind == "alt" else universe.frame_str(w)
                for kind, w in self.witness
            ]
        return {
            "status": self.status,
            "deviation": None if self.deviation is None else number_to_json(self.deviation),
            "witness": witness,
        }


@dataclass(frozen=True)
class FLuceReport:
    """Axioms checked on every comparable pair of observed frames.

    Ratio tests use cross-multiplication, so near-zero probabilities cannot
    blow up a division; when positivity fails the ratio axioms are reported as
    blocked rather than evaluated.  The plain ratio-invariance verdict for
    jointly framed pairs is diagnostic only (it is implied by the strong one).
    """

    positivity: bool
    strong_iia: AxiomVerdict
    luce_iia: AxiomVerdict
    f_regularity: AxiomVerdict

    @property
    def passed(self) -> bool:
        return (
            self.positivity
            and self.strong_iia.status == "pass"
            and self.f_regularity.status == "pass"
        )

    def to_json_dict(self, universe: Universe) -> dict:
        return {
            "positivity": self.positivity,
            "strong_iia": self.strong_iia.to_json_dict(universe),
            "luce_iia": self.luce_iia.to_json_dict(universe),
            "f_regularity": self.f_regularity.to_json_dict(universe),
            "passed": self.passed,
        }


def check_axioms(data: StochasticChoiceData) -> FLuceReport:
    """Ratio invariance across status-preserving frame changes, plus monotonicity."""
    if data.partial:
        raise DataError("axiom checks require complete frames")
    uni = data.universe
    n = uni.n
    policy = data.policy
    positive = data.positivity()

    if not positive:
        blocked = AxiomVerdict("blocked")
        return FLuceReport(False, blocked, blocked, blocked)

    zero = policy.zero()
    worst_strong: Number = zero
    strong_wit = None
    worst_luce: Number = zero
    luce_wit = None
    domain = data.domain
    columns = data.values.T.tolist()
    for i, (f1, c1) in enumerate(zip(domain, columns)):
        for f2, c2 in zip(domain[i + 1 :], columns[i + 1 :]):
            delta = f1 ^ f2
            both = f1 & f2
            for x in range(n):
                if delta & (1 << x):
                    continue
                for y in range(x + 1, n):
                    if delta & (1 << y):
                        continue
                    lhs = c1[x] * c2[y]
                    rhs = c1[y] * c2[x]
                    gap = abs(lhs - rhs)
                    if gap > worst_strong:
                        worst_strong = gap
                        strong_wit = (("alt", x), ("alt", y), ("frame", f1), ("frame", f2))
                    in_both = bool(both & (1 << x)) and bool(both & (1 << y))
                    if in_both and gap > worst_luce:
                        worst_luce = gap
                        luce_wit = (("alt", x), ("alt", y), ("frame", f1), ("frame", f2))

    strong_ok = policy.is_close(worst_strong, zero, scale=4)
    luce_ok = policy.is_close(worst_luce, zero, scale=4)

    worst_reg: Number = zero
    reg_wit = None
    column = dict(zip(domain, columns))
    for frame, here in column.items():
        for y in members(frame):
            smaller = column.get(frame & ~(1 << y))
            if smaller is None:
                continue
            for x in range(n):
                if frame & (1 << x):
                    continue
                margin = here[x] - smaller[x]
                if margin > worst_reg:
                    worst_reg = margin
                    reg_wit = (("alt", x), ("frame", frame), ("alt", y))
    reg_ok = policy.is_nonneg(-worst_reg, scale=4)

    return FLuceReport(
        True,
        AxiomVerdict("pass" if strong_ok else "fail", worst_strong, strong_wit),
        AxiomVerdict("pass" if luce_ok else "fail", worst_luce, luce_wit),
        AxiomVerdict("pass" if reg_ok else "fail", worst_reg, reg_wit),
    )


# ---------------------------------------------------------------------------
# fitting and identification
# ---------------------------------------------------------------------------


def _eligible_anchor_frames(data: StochasticChoiceData, alt: int) -> list[int]:
    full = data.universe.full_frame
    bit = 1 << alt
    complete = data.observed.all(axis=0).tolist()
    frames = [f for f, whole in zip(data.domain, complete) if whole and f & bit and f != full]
    # lexicographic order on the member index tuples
    frames.sort(key=lambda f: members(f))
    return frames


def v_from_anchor(data: StochasticChoiceData, alt: int, frame: int) -> Number:
    """Boost of one alternative identified from one covering frame.

    The frame must contain the alternative and differ from the grand set; the
    value is anchor-independent for data generated by the model.
    """
    uni = data.universe
    bit = 1 << alt
    if not frame & bit:
        raise DataError("anchor frame must contain the alternative")
    if frame == uni.full_frame:
        raise DataError("anchor frame must differ from the grand set")
    mem = members(frame)
    empty_mass = sum((data.rho(z, 0) for z in mem), data.policy.zero())
    framed_mass = sum((data.rho(z, frame) for z in mem), data.policy.zero())
    denom = 1 - framed_mass
    if not denom > 0:
        raise DataError("anchor frame absorbs all probability (positivity violated)")
    return data.rho(alt, frame) * (1 - empty_mass) / denom - data.rho(alt, 0)


def fit_fluce(data: StochasticChoiceData) -> FLuceParams:
    """Identify parameters on the scale where base weights sum to one.

    The empty frame pins ``u(x)`` directly; each boost comes from the
    lexicographically smallest observed frame containing the alternative
    (other than the grand set).  Boosts below zero beyond tolerance mean the
    data violates the monotonicity axiom.
    """
    uni = data.universe
    if not data.is_complete_frame(0):
        raise DataError("fitting requires the empty frame")
    if not data.positivity():
        raise DataError("fitting requires strictly positive choice probabilities")
    u = tuple(data.rho(x, 0) for x in range(uni.n))
    v = []
    for x in range(uni.n):
        anchors = _eligible_anchor_frames(data, x)
        if not anchors:
            raise DataError(
                f"no observed frame covers {uni.names[x]!r} (grand set excluded)"
            )
        boost = v_from_anchor(data, x, anchors[0])
        if boost < 0:
            if data.policy.is_nonneg(boost, scale=4):
                boost = data.policy.zero()
            else:
                raise FitRejectionError(
                    f"negative boost for {uni.names[x]!r}: data violates the "
                    "monotonicity axiom"
                )
        v.append(boost)
    return FLuceParams(uni, u, tuple(v))


@dataclass(frozen=True)
class FLuceTestResult:
    accepted: bool
    params: FLuceParams | None
    report: FLuceReport
    reproduction_ok: bool | None = None

    def to_json_dict(self, universe: Universe) -> dict:
        return {
            "accepted": self.accepted,
            "params": self.params.to_json_dict() if self.params is not None else None,
            "report": self.report.to_json_dict(universe),
            "reproduction_ok": self.reproduction_ok,
        }


def test_fluce(data: StochasticChoiceData) -> FLuceTestResult:
    """Characterization test on a domain holding all frames of size <= 2.

    Needs at least three alternatives (with two, the ratio axiom has no
    bite and the characterization requires an extra property that is out of
    scope here; fitting alone still works through :func:`fit_fluce`).
    On acceptance the fitted parameters reproduce the data on its domain.
    """
    uni = data.universe
    if uni.n < 3:
        raise DataError("characterization requires at least 3 alternatives")
    if not data.contains_frames_up_to(2):
        raise DataError("characterization requires all frames of size <= 2")
    report = check_axioms(data)
    if not report.passed:
        return FLuceTestResult(False, None, report)
    params = fit_fluce(data)
    predicted = forward_fluce(params, data.domain, data.policy)
    ok = bool(data.policy.is_close(predicted.values, data.values, scale=8).all())
    return FLuceTestResult(ok, params if ok else None, report, reproduction_ok=ok)


test_fluce.__test__ = False  # analysis entry point, not a pytest case


@dataclass(frozen=True)
class ScalingReport:
    alpha: Number | None
    mismatch: str | None

    def to_json_dict(self) -> dict:
        return {
            "alpha": None if self.alpha is None else number_to_json(self.alpha),
            "mismatch": self.mismatch,
        }


def check_scaling(p1: FLuceParams, p2: FLuceParams, eps: float = 1e-9) -> ScalingReport:
    """Find the common positive factor relating two parameter vectors, if any."""
    if p1.universe != p2.universe:
        return ScalingReport(None, "different universes")
    exact = p1.exact and p2.exact
    alpha = p1.u[0] / p2.u[0]
    names = p1.universe.names

    def match(a: Number, b: Number) -> bool:
        return a == b if exact else abs(a - b) <= eps * max(1.0, abs(float(a)), abs(float(b)))

    for i, name in enumerate(names):
        if not match(p1.u[i], alpha * p2.u[i]):
            return ScalingReport(None, f"u({name})")
        if not match(p1.v[i], alpha * p2.v[i]):
            return ScalingReport(None, f"v({name})")
    return ScalingReport(alpha, None)


# ---------------------------------------------------------------------------
# presets and the mixture-model embedding
# ---------------------------------------------------------------------------


def preset(
    kind: str,
    universe: Universe,
    u: Iterable[Number] | None = None,
    v: Iterable[Number] | None = None,
    boost: Number | None = None,
    base: Number | None = None,
    scale: Number | None = None,
) -> FLuceParams:
    """Assemble one of the one-parameter special cases.

    ``constant_boost`` takes base weights ``u`` and one shared boost;
    ``constant_base`` takes one shared base weight and per-alternative boosts
    ``v``; ``proportional`` takes ``u`` and a factor, with boosts scaled to
    the base weights (framing everything then changes nothing).
    """
    n = universe.n
    if kind == "constant_boost":
        if u is None or boost is None:
            raise DataError("constant_boost needs u and boost")
        if boost < 0:
            raise DataError("shared boost must be nonnegative")
        return FLuceParams(universe, tuple(u), (boost,) * n)
    if kind == "constant_base":
        if v is None or base is None:
            raise DataError("constant_base needs base and v")
        if not base > 0:
            raise DataError("shared base weight must be positive")
        return FLuceParams(universe, (base,) * n, tuple(v))
    if kind == "proportional":
        if u is None or scale is None:
            raise DataError("proportional needs u and scale")
        if scale < 0:
            raise DataError("proportional factor must be nonnegative")
        uu = tuple(u)
        return FLuceParams(universe, uu, tuple(w * scale for w in uu))
    raise DataError(f"unknown preset kind {kind!r}")


def embed_check(params: FLuceParams) -> FrumVerdict:
    """Full-domain mixture test of the parametric rule; always accepts.

    Returns the verdict with its witness distribution, confirming the
    parametric family sits inside the mixture model.
    """
    n = params.universe.n
    if n > MAX_EMBED_N:
        raise DataError(f"embedding check supported for n <= {MAX_EMBED_N}")
    data = forward_fluce(params, range(1 << n))
    return test_frum(data)
