"""Outside-in span recorder for the traced run.

The program is not changed: the recorder replaces, for the length of one
process, the names that calling modules bound (``framechoice.cli.test_frum``,
``framechoice.frum.compute_bm``, ...) and a few methods on the program's
classes with wrappers that record a span per call.  A span is
``[name, start_ns, end_ns, parent_index, session]``; spans stay in memory and
are written out once, at the end of the run.  A layer's self time is its
spans' durations minus the part covered by their child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.session = "setup"
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        rec = [name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, self.session]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    def count(self, name: str, amount: float) -> None:
        self.counts[(self.session, name)] += amount

    def peak(self, name: str, value: float) -> None:
        key = (self.session, name)
        self.counts[key] = max(self.counts[key], value)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper; ``after(tracer, result, args)`` counts work."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(self, result, args)
            return result

        setattr(owner, attr, wrapper)

    def self_times_ms(self) -> dict[tuple[str, str], float]:
        """Per (session, span name): summed self time in milliseconds."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[tuple[str, str], float] = defaultdict(float)
        for i, (name, start, end, _, session) in enumerate(self.spans):
            out[(session, name)] += (end - start - child_ns[i]) / 1e6
        return out

    def calls(self) -> dict[tuple[str, str], int]:
        out: dict[tuple[str, str], int] = defaultdict(int)
        for name, _, _, _, session in self.spans:
            out[(session, name)] += 1
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "session"],
                       "spans": self.spans}, fh)


def _count_parsed(tracer: Tracer, data, args) -> None:
    tracer.count("core.cells", len(data.probs))
    if data.policy.exact:
        bits = max(p.denominator.bit_length() for p in data.probs.values())
        tracer.peak("core.max_denominator_bits", bits)


def _count_verdict(tracer: Tracer, verdict, args) -> None:
    tracer.count("frum.violations", len(verdict.violations))
    if verdict.witness is not None:
        tracer.count("frum.witness_types", len(verdict.witness.weights))


def _count_mixture(tracer: Tracer, mu, args) -> None:
    tracer.count("frum.witness_types", len(mu.weights))


def _count_lp(tracer: Tracer, result, args) -> None:
    rows = args[0]
    tracer.count("frum.lp_rows", len(rows))
    tracer.count("frum.lp_cols", len(rows[0]) if rows else 0)


def install_program_spans(tracer: Tracer) -> None:
    """Wrap the layer boundaries that the workloads' commands cross."""
    from framechoice import cli, core, frum, plotdata, polys

    tracer.wrap(core.StochasticChoiceData, "__post_init__", "core.validate")
    for owner in (cli, core):
        tracer.wrap(owner, "parse_stochastic", "core.parse", _count_parsed)
    for owner in (cli, frum):
        tracer.wrap(owner, "compute_bm", "polys.compute_bm")
        tracer.wrap(owner, "test_frum", "frum.test_frum", _count_verdict)
    tracer.wrap(polys.BMTable, "to_json_dict", "polys.table_json")
    tracer.wrap(frum.FrumVerdict, "to_json_dict", "frum.verdict_json")
    tracer.wrap(cli, "recover_branch_independent", "frum.recover", _count_mixture)
    tracer.wrap(cli, "recover_constructive", "frum.recover", _count_mixture)
    tracer.wrap(frum, "check_prop2", "frum.check_prop2")
    tracer.wrap(cli, "feasible_completion", "frum.feasible")
    tracer.wrap(frum, "interim_violations", "frum.interim_violations")
    tracer.wrap(frum, "solve_rational_lp", "rational_lp.solve", _count_lp)
    tracer.wrap(plotdata, "solve_rational_lp", "rational_lp.solve")
    for owner in (frum, plotdata):
        tracer.wrap(owner, "enumerate_types", "detfum.enumerate_types")
    tracer.wrap(cli, "plot_simplex", "plotdata.plot_simplex")
    tracer.wrap(cli, "dumps_json", "cli.serialize")


def install_setup_spans(tracer: Tracer) -> None:
    """Wrap CSV writing; `inputs.py` opens a generation span around each input it makes."""
    from framechoice import core

    tracer.wrap(core.StochasticChoiceData, "to_csv", "core.to_csv")


# name -> (unit, how the value is read from one session's spans)
SESSION_METRICS = {
    "core.parse_ms": ("ms", ("self", "core.parse")),
    "core.validate_ms": ("ms", ("self", "core.validate")),
    "core.cells": ("count", ("count", "core.cells")),
    "core.max_denominator_bits": ("bits", ("count", "core.max_denominator_bits")),
    "polys.compute_bm_ms": ("ms", ("self", "polys.compute_bm")),
    "polys.compute_bm_calls": ("count", ("calls", "polys.compute_bm")),
    "polys.table_json_ms": ("ms", ("self", "polys.table_json")),
    "frum.test_frum_ms": ("ms", ("self", "frum.test_frum")),
    "frum.violations": ("count", ("count", "frum.violations")),
    "frum.verdict_json_ms": ("ms", ("self", "frum.verdict_json")),
    "frum.recover_ms": ("ms", ("self", "frum.recover")),
    "frum.check_prop2_ms": ("ms", ("self", "frum.check_prop2")),
    "frum.witness_types": ("count", ("count", "frum.witness_types")),
    "frum.feasible_ms": ("ms", ("self", "frum.feasible")),
    "frum.interim_violations_ms": ("ms", ("self", "frum.interim_violations")),
    "frum.lp_rows": ("count", ("count", "frum.lp_rows")),
    "frum.lp_cols": ("count", ("count", "frum.lp_cols")),
    "rational_lp.solve_ms": ("ms", ("self", "rational_lp.solve")),
    "rational_lp.calls": ("count", ("calls", "rational_lp.solve")),
    "detfum.enumerate_types_ms": ("ms", ("self", "detfum.enumerate_types")),
    "detfum.enumerate_types_calls": ("count", ("calls", "detfum.enumerate_types")),
    "plotdata.plot_simplex_ms": ("ms", ("self", "plotdata.plot_simplex")),
    "cli.serialize_ms": ("ms", ("self", "cli.serialize")),
    "cli.report_bytes": ("bytes", ("count", "cli.report_bytes")),
    "cli.other_ms": ("ms", ("self", "cli.run")),
}

# read from the set-up processes' spans, per set-up
SETUP_METRICS = {
    "core.to_csv_ms": ("ms", ("self", "core.to_csv")),
    "sim.generate_ms": ("ms", ("self", "sim.generate")),
}


def session_values(tracer: Tracer, sessions: list[str], table: dict) -> dict[str, list[float]]:
    """Each metric of ``table``, one value per session."""
    self_ms = tracer.self_times_ms()
    calls = tracer.calls()
    out: dict[str, list[float]] = {}
    for metric, (_, (kind, key)) in table.items():
        if kind == "self":
            source = self_ms
        elif kind == "calls":
            source = calls
        else:
            source = tracer.counts
        out[metric] = [float(source.get((s, key), 0)) for s in sessions]
    return out

