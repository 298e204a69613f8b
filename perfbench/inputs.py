"""Seeded inputs of the two workloads, written as CSV files.

Every input is a pure function of the run seed; the program under test sees
only the CSV files written here.
Generation goes through the package's own generators (``sim``, ``fluce``,
``frum.forward_frum``) and its CSV writer, since that is the set-up a user
of the package pays for.  A ``manifest.json`` records what the checks need to
know about each input: its file, its cell count, and the generating mixture
where a check compares against it.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

import numpy as np

from framechoice import core, detfum, fluce, frum, sim

import checks

FLOAT_N = 14
EXACT_N = 12
FREQ_SAMPLE = 1000  # per-frame sample size of the frequency data
MIX_N = 6
MIX_SUPPORT = 200
MIX_TOTAL = 100_000  # mixture weights are k / MIX_TOTAL
LP_N = 4
LP_SUPPORT = 40
LP_TOTAL = 1000
PLOT_N = 3
PLOT_SUPPORT = 8
FIXED_SEED = 0  # seed of the run-independent parts below


def small_frames(n: int) -> list[int]:
    """Frames of size at most two: the paper's limited-data domain."""
    return [f for f in range(1 << n) if bin(f).count("1") <= 2]


def _sub_seed(seed: int, workload: str) -> int:
    rng = sim.stream(seed, f"perfbench:{workload}")
    return int(rng.integers(2**62))


def _mixture(n: int, support: int, total: int, rng, fixed_support: bool = False) -> frum.TypeDistribution:
    """Exact mixture over ``support`` distinct types with weights k / total.

    With ``fixed_support`` the types come from ``FIXED_SEED`` and only the
    weights from ``rng``: the exact LP's pivot count depends on the support,
    and a fixed support keeps its work from swinging between run seeds.
    """
    uni = sim.default_universe(n)
    types = detfum.enumerate_types(uni)
    pick = sim.stream(FIXED_SEED, f"perfbench:support:n={n}") if fixed_support else rng
    chosen = pick.choice(len(types), size=support, replace=False)
    counts = rng.multinomial(total - support, np.full(support, 1 / support)) + 1
    weights = {types[int(i)]: Fraction(int(k), total) for i, k in zip(chosen, counts)}
    return frum.TypeDistribution(uni, weights, core.RATIONAL)


def _mixture_json(mu: frum.TypeDistribution) -> list:
    return [[list(t.priority), t.default_index - 1, str(w)] for t, w in mu.weights.items()]


class _Writer:
    def __init__(self, outdir: str, tracer):
        self.outdir = outdir
        self.tracer = tracer

    def generate(self):
        return self.tracer.span("sim.generate")

    def write(self, name: str, data: core.StochasticChoiceData, **extra) -> dict:
        text = data.to_csv()
        with open(os.path.join(self.outdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        return {"file": name, "cells": len(data.probs), **extra}


def _float_lattice(w: _Writer, sub: int) -> dict:
    n = FLOAT_N
    with w.generate():
        params = sim.sample_fluce(sim.SimConfig(seed=sub, n=n))
        accepted = fluce.forward_fluce(params, range(1 << n))
    out = {"accepted": w.write("accepted.csv", accepted)}
    with w.generate():
        rng = sim.stream(sub, "perfbench:arbitrary")
        rows = rng.random((1 << n, n))
        rows /= rows.sum(axis=1, keepdims=True)
        probs = {
            (alt, frame): p
            for frame, row in enumerate(rows.tolist())
            for alt, p in enumerate(row)
        }
        arbitrary = core.StochasticChoiceData(accepted.universe, probs)
    out["arbitrary"] = w.write("arbitrary.csv", arbitrary)
    return out


def _exact_lattice(w: _Writer, sub: int) -> dict:
    n = EXACT_N
    frames = range(1 << n)
    with w.generate():
        rng = sim.stream(sub, "perfbench:exact-rule")
        # boosts 2^k in a seeded order make u(X) + v(F) differ at every frame
        u = [Fraction(int(x)) for x in rng.integers(1, 10, n)]
        v = [Fraction(1 << int(k)) for k in rng.permutation(n)]
        params = fluce.FLuceParams(sim.default_universe(n), tuple(u), tuple(v))
        rule = fluce.forward_fluce(params, frames, core.RATIONAL)
    out = {"rule": w.write("rule.csv", rule)}
    with w.generate():
        rng = sim.stream(sub, "perfbench:frequencies")
        base = fluce.forward_fluce(sim.sample_fluce(sim.SimConfig(seed=sub, n=n)), frames)
        p = np.array([[base.probs[(a, f)] for a in range(n)] for f in frames])
        counts = rng.multinomial(FREQ_SAMPLE, p / p.sum(axis=1, keepdims=True))
        probs = {
            (alt, frame): Fraction(k, FREQ_SAMPLE)
            for frame, row in enumerate(counts.tolist())
            for alt, k in enumerate(row)
        }
        freq = core.StochasticChoiceData(base.universe, probs, core.RATIONAL)
    out["frequencies"] = w.write("frequencies.csv", freq, sample_size=FREQ_SAMPLE)
    with w.generate():
        rng = sim.stream(sub, "perfbench:mixture")
        mixture = frum.forward_frum(_mixture(MIX_N, MIX_SUPPORT, MIX_TOTAL, rng), range(1 << MIX_N))
    out["mixture"] = w.write("mixture.csv", mixture)
    return out


def _perturbed(base: dict, n: int, rng, want_interval: bool) -> dict:
    """Move mass between alternatives at three seeded frames until the copy is of the wanted kind.

    ``want_interval``: some interval sum is negative.  Otherwise no interval
    sum is negative, yet no mixture fits (decided by a float LP with a wide
    margin; the program's Farkas certificate is later checked exactly).
    """
    frames = small_frames(n)
    for _ in range(10_000):
        cells = dict(base)
        for _ in range(3):
            frame = frames[int(rng.integers(len(frames)))]
            gain, lose = (int(x) for x in rng.choice(n, 2, replace=False))
            delta = Fraction(int(rng.integers(1, 15)), LP_TOTAL)
            if cells[(lose, frame)] >= delta:
                cells[(lose, frame)] -= delta
                cells[(gain, frame)] += delta
        negative = checks.negative_interval_sums(cells, n)
        if want_interval and negative:
            return cells
        if not want_interval and not negative and checks.float_lp_residual(cells, n) > 1e-6:
            return cells
    raise RuntimeError("no perturbed copy of the wanted kind in 10000 draws")


def _partial_lp(w: _Writer, sub: int) -> dict:
    uni = sim.default_universe(LP_N)
    with w.generate():
        rng = sim.stream(sub, "perfbench:lp-mixture")
        mu = _mixture(LP_N, LP_SUPPORT, LP_TOTAL, rng, fixed_support=True)
        mixture = frum.forward_frum(mu, small_frames(LP_N))
    out = {"lp_mixture": w.write("lp_mixture.csv", mixture)}
    for kind, want_interval in (("interval", True), ("farkas", False)):
        with w.generate():
            rng = sim.stream(sub, f"perfbench:lp-{kind}")
            cells = _perturbed(dict(mixture.probs), LP_N, rng, want_interval)
            data = core.StochasticChoiceData(uni, cells, core.RATIONAL)
        out[f"lp_{kind}"] = w.write(f"lp_{kind}.csv", data)
    with w.generate():
        rng = sim.stream(sub, "perfbench:plot")
        mu = _mixture(PLOT_N, PLOT_SUPPORT, LP_TOTAL, rng, fixed_support=True)
        plot = frum.forward_frum(mu, small_frames(PLOT_N))
    out["plot"] = w.write("plot.csv", plot, mixture=_mixture_json(mu))
    out["float_mixture"] = _fixed_float_mixture(w)
    return out


def _fixed_float_mixture(w: _Writer) -> dict:
    with w.generate():
        mu = sim.sample_mu(sim.SimConfig(seed=FIXED_SEED, n=PLOT_N))
        data = frum.forward_frum(mu, range(1 << PLOT_N))
    return w.write("float_mixture.csv", data)


def _exact(w: _Writer, sub: int) -> dict:
    return {**_exact_lattice(w, sub), **_partial_lp(w, sub)}


BUILDERS = {"float_lattice": _float_lattice, "exact": _exact}


def build(workload: str, seed: int, outdir: str, tracer) -> dict:
    """Write every input of one run into ``outdir``; returns and saves the manifest."""
    inputs = BUILDERS[workload](_Writer(outdir, tracer), _sub_seed(seed, workload))
    manifest = {"workload": workload, "seed": seed, "inputs": inputs}
    with open(os.path.join(outdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return manifest
