"""Seeded generators and perturbation for synthetic data.

Every draw site derives its own stream from (seed, purpose tag), so adding a
new generator never shifts the values an existing seed produces.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    MAX_UNIVERSE,
    DataError,
    Number,
    StochasticChoiceData,
    Universe,
)
from .detfum import enumerate_types
from .fluce import FLuceParams
from .frum import TypeDistribution

MAX_MU_N = 6


@dataclass(frozen=True)
class SimConfig:
    """Inputs every generator is a pure function of."""

    seed: int
    n: int
    sparsity: float = 1.0
    noise: float = 0.0

    def __post_init__(self) -> None:
        default_universe(self.n)  # the one size check, with its one message
        if not 0 < self.sparsity <= 1:
            raise DataError("sparsity must be in (0, 1]")
        if self.noise < 0:
            raise DataError("noise must be nonnegative")


def stream(seed: int, tag: str) -> np.random.Generator:
    """Independent deterministic stream for one (seed, purpose) pair."""
    digest = hashlib.blake2s(tag.encode(), digest_size=8).digest()
    return np.random.default_rng([seed & (2**64 - 1), int.from_bytes(digest, "big")])


def default_universe(n: int) -> Universe:
    if not 1 <= n <= MAX_UNIVERSE:
        raise DataError(f"universe size must be in 1..{MAX_UNIVERSE}, got {n}")
    return Universe(tuple("abcdefghijklmnopqrst"[:n]))


def sample_mu(config: SimConfig) -> TypeDistribution:
    """Random type mixture: sparse support, normalized exponential weights."""
    if config.n > MAX_MU_N:
        raise DataError(f"type sampling supported for n <= {MAX_MU_N}")
    uni = default_universe(config.n)
    types = enumerate_types(uni)
    rng = stream(config.seed, f"mu:n={config.n}")
    include = rng.random(len(types)) < config.sparsity
    if not include.any():
        include[int(rng.integers(len(types)))] = True
    raw = rng.exponential(size=len(types))
    weights = {}
    total = float(raw[include].sum())
    for idx in np.flatnonzero(include):
        weights[types[int(idx)]] = float(raw[idx]) / total
    return TypeDistribution(uni, weights)


def sample_fluce(config: SimConfig) -> FLuceParams:
    """Random parametric rule: normalized positive bases, boosts zero a quarter of the time."""
    uni = default_universe(config.n)
    rng = stream(config.seed, f"fluce:n={config.n}")
    u = rng.exponential(size=config.n)
    while not (u > 0).all():  # pragma: no cover - measure-zero redraw
        u = rng.exponential(size=config.n)
    u = u / u.sum()
    zero_mask = rng.random(config.n) < 0.25
    v = rng.exponential(size=config.n)
    v[zero_mask] = 0.0
    return FLuceParams(uni, tuple(float(x) for x in u), tuple(float(x) for x in v))


def perturb(data: StochasticChoiceData, config: SimConfig) -> StochasticChoiceData:
    """Seeded zero-mean noise per entry, then per-frame renormalization.

    Frame sums are the only hard constraint of the data model, so each frame
    is renormalized independently after clipping into [0, 1].  Used to probe
    verdict stability near acceptance boundaries.
    """
    if config.noise == 0:
        return data
    rng = stream(config.seed, "perturb")
    uni = data.universe
    policy = data.policy
    one = policy.one()
    probs: dict[tuple[int, int], Number] = {}
    for frame, column, seen in zip(data.domain, data.values.T.tolist(), data.observed.T.tolist()):
        alts = [a for a in range(uni.n) if seen[a]]
        bumps = [policy.convert(Fraction(config.noise * float(rng.normal()))) for _ in alts]
        shifted = [min(one, max(policy.zero(), column[a] + b)) for a, b in zip(alts, bumps)]
        total = sum(shifted)
        if total == 0:
            shifted = [one] * len(alts)
            total = sum(shifted)
        for alt, p in zip(alts, shifted):
            probs[(alt, frame)] = p / total
    return StochasticChoiceData(uni, probs, policy)
