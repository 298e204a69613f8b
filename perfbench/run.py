#!/usr/bin/env python3
"""framechoice benchmark: seeded sessions of CLI commands, checked, timed and traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload float_lattice --seed 1 --seconds 30 --trace 0

One run of a workload:

1. Set-up, repeated ``SETUP_REPEATS`` times in fresh child processes: import
   the package, generate the run's seeded inputs with its generators, and write
   them as CSV.  ``setup_s`` is the median wall time of one set-up.  Keeping
   generation out of this process keeps it out of ``peak_rss_mb``.
2. Timed phase: sessions, each one fixed sequence of ``framechoice`` commands
   run in-process through ``framechoice.cli.main`` (``--in``/``--out`` files),
   plus library calls, on the run's inputs.  Whole sessions repeat; the phase
   ends at the session boundary nearest ``--seconds``.
3. Checks, after the timed phase: the first session's reports against
   computations made apart from the program (``checks.py``), and every later
   session's reports against the first's.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 1`` the layer
boundaries are wrapped (``spans.py``), the metrics are the per-layer ones, and
the spans are written to ``perfbench/_traces/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
TRACES = os.path.join(HERE, "_traces")

DEFAULT_SEED = 1
DEFAULT_SECONDS = 30
SETUP_REPEATS = 3
WORKLOADS = ("float_lattice", "exact")


def import_program():
    """Import ``framechoice`` from this checkout's ``src``, never from elsewhere."""
    init = os.path.join(SRC, "framechoice", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"error: no framechoice sources at {SRC}")
    sys.path.insert(0, SRC)
    import framechoice

    if os.path.realpath(framechoice.__file__) != os.path.realpath(init):
        sys.exit(f"error: framechoice imported from {framechoice.__file__}, not {init}")
    return framechoice


# ---------------------------------------------------------------------------
# sessions
# ---------------------------------------------------------------------------


def _cli(name: str, argv: list[str], cells: int) -> dict:
    return {"name": name, "argv": argv, "cells": cells}


def session_ops(workload: str, inputs: dict, path) -> list[dict]:
    """The ops of one session, in order."""
    if workload == "float_lattice":
        acc, arb = inputs["accepted"], inputs["arbitrary"]
        return [
            _cli("accepted.test-frum", ["test-frum", "--in", path(acc["file"])], acc["cells"]),
            _cli("arbitrary.test-frum", ["test-frum", "--in", path(arb["file"])], arb["cells"]),
            _cli("arbitrary.bm", ["bm", "--in", path(arb["file"])], arb["cells"]),
        ]
    exact = ["--numeric", "rational", "--in"]
    rule, freq, mix = inputs["rule"], inputs["frequencies"], inputs["mixture"]
    ops = [
        _cli("rule.test-frum", ["test-frum", *exact, path(rule["file"])], rule["cells"]),
        _cli("frequencies.test-frum", ["test-frum", *exact, path(freq["file"])], freq["cells"]),
        _cli("frequencies.bm", ["bm", *exact, path(freq["file"])], freq["cells"]),
        _cli("mixture.test-frum", ["test-frum", *exact, path(mix["file"])], mix["cells"]),
        _cli("mixture.recover-branch",
             ["recover", "--method", "branch", *exact, path(mix["file"])], mix["cells"]),
        _cli("mixture.recover-constructive",
             ["recover", "--method", "constructive", *exact, path(mix["file"])], mix["cells"]),
        {"name": "mixture.check_prop2", "csv": path(mix["file"]), "cells": mix["cells"]},
    ]
    ops += [
        _cli(f"{kind}.feasible", ["feasible", *exact, path(inputs[kind]["file"])], inputs[kind]["cells"])
        for kind in ("lp_mixture", "lp_interval", "lp_farkas")
    ]
    plot, flt = inputs["plot"], inputs["float_mixture"]
    ops.append(_cli("plot.plot", ["plot", *exact, path(plot["file"])], plot["cells"]))
    ops.append(_cli("float_mixture.test-frum", ["test-frum", "--in", path(flt["file"])], flt["cells"]))
    ops.append(_cli("float_mixture.feasible", ["feasible", "--in", path(flt["file"])], flt["cells"]))
    return ops


def check_prop2_op(csv_path: str, branch_report: str, out_path: str) -> int:
    """Library call: identification check of the recovered mixture on the parsed input."""
    from framechoice import core, detfum, frum

    with open(csv_path, encoding="utf-8") as fh:
        data = core.parse_stochastic(fh.read(), core.RATIONAL)
    with open(branch_report, encoding="utf-8") as fh:
        report = json.load(fh)["report"]
    names = data.universe.names
    weights = {}
    for entry in report["weights"]:
        prio = tuple(names.index(a) for a in entry["priority"])
        ctype = detfum.ChoiceType(prio, prio.index(names.index(entry["default"])) + 1)
        weights[ctype] = Fraction(entry["weight"])
    mu = frum.TypeDistribution(data.universe, weights, core.RATIONAL)
    result = frum.check_prop2(data, mu)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result.to_json_dict(), fh, sort_keys=True)
    return 0


def run_session(ops: list[dict], outdir: str, session: int, tracer) -> tuple[float, dict]:
    """Run one session; returns its wall time in seconds and {op: (exit code, report path)}."""
    from framechoice import cli

    results = {}
    started = time.perf_counter()
    for op in ops:
        out = os.path.join(outdir, f"s{session}_{op['name']}.json")
        try:
            if "argv" in op:
                with tracer.span("cli.run"):
                    code = cli.main([*op["argv"], "--out", out])
            else:
                branch = results["mixture.recover-branch"][1]
                with tracer.span("bench.library"):
                    code = check_prop2_op(op["csv"], branch, out)
        except Exception as exc:  # a crash is a failed op, reported after the timed phase
            code = f"{type(exc).__name__}: {exc}"
        results[op["name"]] = (code, out)
    return time.perf_counter() - started, results


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def setup_child(args) -> None:
    """Entry of one set-up process: generate this run's inputs into ``args.setup_into``."""
    import_program()
    import inputs
    import spans

    tracer = spans.Tracer(bool(args.trace))
    if args.trace:
        spans.install_setup_spans(tracer)
    inputs.build(args.workload, args.seed, args.setup_into, tracer)
    if args.trace:
        values = spans.session_values(tracer, ["setup"], spans.SETUP_METRICS)
        with open(os.path.join(args.setup_into, "setup_trace.json"), "w", encoding="utf-8") as fh:
            json.dump({"metrics": {k: v[0] for k, v in values.items()}, "spans": tracer.spans}, fh)


def _tree_digest(directory: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        if name.endswith(".csv") or name == "manifest.json":
            h.update(name.encode())
            with open(os.path.join(directory, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def run_setups(args, workdir: str) -> tuple[list[float], list[dict], bool]:
    """Repeated set-ups; returns wall times, traced set-up payloads, and whether inputs repeated."""
    times, traced, digests = [], [], set()
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-into", workdir,
           "--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace)]
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        started = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        times.append(time.perf_counter() - started)
        if proc.returncode != 0:
            sys.exit(f"error: set-up failed:\n{proc.stderr}")
        digests.add(_tree_digest(workdir))
        if args.trace:
            with open(os.path.join(workdir, "setup_trace.json"), encoding="utf-8") as fh:
                traced.append(json.load(fh))
    return times, traced, len(digests) == 1


# ---------------------------------------------------------------------------
# checks of the timed phase's reports
# ---------------------------------------------------------------------------


def _body(path: str) -> bytes:
    """A report without its wall-clock ``timings`` (always the last key of the envelope)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    cut = raw.rfind(b',"timings":')
    return raw if cut < 0 else raw[:cut]


def check_sessions(workload, manifest, sessions, path) -> tuple[list[str], int]:
    """Check the first session in full, later ones for identical reports; returns (errors, failed ops)."""
    import checks

    first = sessions[0]
    out = {}
    errors: list[str] = []
    for name, (code, report) in first.items():
        payload = None
        if isinstance(code, int):
            with open(report, encoding="utf-8") as fh:
                payload = json.load(fh)
        else:
            errors.append(f"session 0 {name}: {code}")
        out[name] = (code, payload)
    try:
        errs, failed = checks.check(workload, out, manifest["inputs"], path, manifest["seed"])
    except Exception as exc:  # a malformed report must not hide the other results
        errs, failed = [f"checks raised {type(exc).__name__}: {exc}"], set()
    errors += [f"session 0 {e}" for e in errs]
    for k, results in enumerate(sessions[1:], start=1):
        for name, (code, report) in results.items():
            if code != first[name][0] or (isinstance(code, int) and _body(report) != _body(first[name][1])):
                errors.append(f"session {k} {name}: report differs from session 0")
    return errors, len(failed) * len(sessions)


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-into", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_into:
        setup_child(args)
        return

    fc = import_program()
    from framechoice import cli  # noqa: F401  imported here so the first session does not pay for it

    import spans

    workdir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    try:
        setup_times, setup_traces, repeatable = run_setups(args, workdir)
        with open(os.path.join(workdir, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        outdir = os.path.join(workdir, "out")
        os.makedirs(outdir)

        def path(name: str) -> str:
            return os.path.join(workdir, name)

        tracer = spans.Tracer(bool(args.trace))
        if args.trace:
            spans.install_program_spans(tracer)
        ops = session_ops(args.workload, manifest["inputs"], path)
        cells = sum(op["cells"] for op in ops)

        durations, sessions = [], []
        started = time.perf_counter()
        # stop at the session boundary nearest --seconds, taking the next session to last as long as the last
        while not durations or time.perf_counter() - started < args.seconds - durations[-1] / 2:
            k = len(durations)
            tracer.session = f"s{k}"
            seconds, results = run_session(ops, outdir, k, tracer)
            durations.append(seconds)
            sessions.append(results)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        errors, failed = check_sessions(args.workload, manifest, sessions, path)
        if not repeatable:
            errors.append("set-up: repeated set-ups wrote different inputs for one seed")
        attempted = len(ops) * len(sessions)

        if args.trace:
            names = [f"s{k}" for k in range(len(sessions))]
            for k, results in enumerate(sessions):
                tracer.session = names[k]
                tracer.count("cli.report_bytes", sum(os.path.getsize(r) for _, r in results.values()))
            per_session = spans.session_values(tracer, names, spans.SESSION_METRICS)
            metrics = {
                name: _metric(statistics.median(per_session[name]), unit)
                for name, (unit, _) in spans.SESSION_METRICS.items()
            }
            for name, (unit, _) in spans.SETUP_METRICS.items():
                metrics[name] = _metric(statistics.median(t["metrics"][name] for t in setup_traces), unit)
            metrics["trace.session_p50_ms"] = _metric(1000 * statistics.median(durations), "ms")
            if per_session["core.cells"] != [cells] * len(sessions):
                errors.append("trace: parsed cells differ from the generated inputs")
            os.makedirs(TRACES, exist_ok=True)
            for rep, t in enumerate(setup_traces):
                offset = len(tracer.spans)
                tracer.spans += [[*s[:3], s[3] + offset if s[3] >= 0 else -1, f"setup{rep}"]
                                 for s in t["spans"]]
            tracer.dump(os.path.join(TRACES, f"{args.workload}-seed{args.seed}.json"))
        else:
            metrics = {
                "setup_s": _metric(statistics.median(setup_times), "s"),
                "session_p50_ms": _metric(1000 * statistics.median(durations), "ms"),
                "cells_per_s": _metric(cells * len(durations) / sum(durations), "1/s"),
                "peak_rss_mb": _metric(peak_rss_mb, "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in errors:
        print(f"check failed: {line}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} framechoice={os.path.dirname(fc.__file__)} "
          f"setups_s={[round(t, 3) for t in setup_times]} "
          f"sessions_s={[round(t, 3) for t in durations]}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
