"""Command-line surface: analysis subcommands with JSON reports.

Every report is wrapped in a run envelope carrying the command name, a
content digest of the input, and the numeric mode, so identical inputs and
flags produce identical verdict bodies; wall-clock timings live in their own
field and take no part in that guarantee.  Exit codes: 0 on success or
acceptance, 2 when an analysis rejects the model (the report still prints),
1 on usage or data errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from . import __version__
from .core import (
    DataError,
    NumericPolicy,
    StochasticChoiceData,
    Universe,
    dumps_json,
    parse_deterministic,
    parse_stochastic,
    validate,
)
from .detfum import (
    IIFAViolationError,
    build_fum_representation,
    check_iifa,
    enumerate_types,
)
from .fluce import (
    FLuceParams,
    FitRejectionError,
    embed_check,
    fit_fluce,
    forward_fluce,
    preset,
    test_fluce,
)
from .frum import (
    FrumRejectionError,
    feasible_completion,
    recover_branch_independent,
    recover_constructive,
    test_frum,
)
from .plotdata import plot_simplex, projected_points, region_contains
from .polys import compute_bm, export_hasse
from .sim import SimConfig, default_universe, sample_fluce, sample_mu

OK, REJECTED, USAGE = 0, 2, 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framechoice",
        description="Tests, recovery, and identification for frame-dependent choice data.",
    )
    parser.add_argument("--version", action="version", version=f"framechoice {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--in", dest="infile", metavar="PATH", help="input file")
    common.add_argument("--out", dest="outfile", metavar="PATH", help="write output here")
    common.add_argument("--format", choices=["json", "csv"], default="json")
    common.add_argument(
        "--numeric", choices=["float", "float64", "rational"], default="float"
    )
    common.add_argument("--epsilon", type=float, default=1e-9, metavar="E")
    common.add_argument("--seed", type=int, default=0, metavar="S")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", parents=[common])
    sub.add_parser("bm", parents=[common])
    hasse = sub.add_parser("hasse", parents=[common])
    hasse.add_argument("--dot", action="store_true", help="emit a DOT graph instead of JSON")
    sub.add_parser("test-fum", parents=[common])
    sub.add_parser("repr-fum", parents=[common])
    enum = sub.add_parser("enumerate-types", parents=[common])
    enum.add_argument("--n", type=int, required=True)
    sub.add_parser("test-frum", parents=[common])
    recover = sub.add_parser("recover", parents=[common])
    recover.add_argument("--method", choices=["branch", "constructive"], default="branch")
    sub.add_parser("feasible", parents=[common])
    sub.add_parser("test-fluce", parents=[common])
    sub.add_parser("fit-fluce", parents=[common])
    pre = sub.add_parser("preset", parents=[common])
    pre.add_argument(
        "--kind", choices=["constant_boost", "constant_base", "proportional"], required=True
    )
    pre.add_argument("--labels", help="comma-separated alternative labels")
    pre.add_argument("--u", help="comma-separated base weights")
    pre.add_argument("--v", help="comma-separated boosts")
    pre.add_argument("--boost", help="shared boost value")
    pre.add_argument("--base", help="shared base weight")
    pre.add_argument("--scale", help="proportional factor")
    sub.add_parser("embed-check", parents=[common])
    simp = sub.add_parser("simulate", parents=[common])
    simp.add_argument("--kind", choices=["mu", "fluce"], required=True)
    simp.add_argument("--n", type=int, required=True)
    simp.add_argument("--sparsity", type=float, default=1.0)
    simp.add_argument("--emit", choices=["params", "data"], default="params")
    plot = sub.add_parser("plot", parents=[common])
    plot.add_argument("--targets", help="comma-separated target frames (| joins labels)")
    plot.add_argument("--project", help="three labels to project larger universes onto")
    return parser


def _policy(args: argparse.Namespace) -> NumericPolicy:
    mode = "rational" if args.numeric == "rational" else "float64"
    return NumericPolicy(mode, args.epsilon)


def _read_input(args: argparse.Namespace) -> tuple[str, str]:
    if not args.infile:
        raise DataError(f"{args.command} requires --in")
    try:
        with open(args.infile, "rb") as fh:
            raw = fh.read()
        text = raw.decode("utf-8-sig")  # a leading byte-order mark is dropped
    except OSError as exc:
        raise DataError(f"cannot read {args.infile}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{args.infile} is not UTF-8 text: {exc}") from exc
    return text, hashlib.sha256(raw).hexdigest()


def _args_digest(args: argparse.Namespace, fields: list[str]) -> str:
    blob = "\x1f".join(f"{f}={getattr(args, f)}" for f in fields)
    return hashlib.sha256(blob.encode()).hexdigest()


def _parse_numbers(text: str, policy: NumericPolicy) -> tuple:
    return tuple(policy.parse(part) for part in text.split(","))


def _execute(args: argparse.Namespace) -> tuple[int, object, bool]:
    """Returns (exit code, payload, raw); raw payloads skip the JSON envelope."""
    policy = _policy(args)
    command = args.command

    if command == "validate":
        text, digest = _read_input(args)
        data = parse_stochastic(text, policy, allow_partial=True)
        report = validate(data)
        return OK, _envelope(args, digest, report.to_json_dict(data.universe)), False

    if command == "bm":
        text, digest = _read_input(args)
        data = parse_stochastic(text, policy)
        table = compute_bm(data)
        return OK, _envelope(args, digest, table.to_json_dict()), False

    if command == "hasse":
        text, digest = _read_input(args)
        data = parse_stochastic(text, policy)
        graph = export_hasse(compute_bm(data))
        if args.dot:
            return OK, graph.to_dot() + "\n", True
        return OK, _envelope(args, digest, graph.to_json_dict()), False

    if command == "test-fum":
        text, digest = _read_input(args)
        data = parse_deterministic(text)
        report = check_iifa(data)
        code = OK if report.iifa else REJECTED
        return code, _envelope(args, digest, report.to_json_dict(data.universe)), False

    if command == "repr-fum":
        text, digest = _read_input(args)
        data = parse_deterministic(text)
        try:
            rep = build_fum_representation(data)
        except IIFAViolationError as exc:
            body = {"error": str(exc), "axioms": exc.report.to_json_dict(data.universe)}
            return REJECTED, _envelope(args, digest, body), False
        return OK, _envelope(args, digest, rep.to_json_dict()), False

    if command == "enumerate-types":
        digest = _args_digest(args, ["command", "n"])
        universe = default_universe(args.n)
        types = enumerate_types(universe)
        names = universe.names
        body = {
            "n": args.n,
            "count": len(types),
            "types": [
                {
                    "priority": [names[a] for a in t.priority],
                    "default": names[t.default],
                }
                for t in types
            ],
        }
        return OK, _envelope(args, digest, body), False

    if command == "test-frum":
        text, digest = _read_input(args)
        data = parse_stochastic(text, policy, allow_partial=True)
        verdict = test_frum(data)
        rejected = bool(verdict.violations) or (verdict.complete_domain and not verdict.accepted)
        return (
            REJECTED if rejected else OK,
            _envelope(args, digest, verdict.to_json_dict(data.universe)),
            False,
        )

    if command == "recover":
        text, digest = _read_input(args)
        data = parse_stochastic(text, policy)
        method = recover_branch_independent if args.method == "branch" else recover_constructive
        try:
            mu = method(data)
        except FrumRejectionError as exc:
            body = {"error": str(exc), "verdict": exc.verdict.to_json_dict(data.universe)}
            return REJECTED, _envelope(args, digest, body), False
        return OK, _envelope(args, digest, mu.to_json_dict()), False

    if command == "feasible":
        text, digest = _read_input(args)
        data = parse_stochastic(text, policy, allow_partial=True)
        result = feasible_completion(data)
        code = OK if result.feasible else REJECTED
        return code, _envelope(args, digest, result.to_json_dict(data.universe)), False

    if command == "test-fluce":
        text, digest = _read_input(args)
        data = parse_stochastic(text, policy)
        result = test_fluce(data)
        code = OK if result.accepted else REJECTED
        return code, _envelope(args, digest, result.to_json_dict(data.universe)), False

    if command == "fit-fluce":
        text, digest = _read_input(args)
        data = parse_stochastic(text, policy)
        try:
            params = fit_fluce(data)
        except FitRejectionError as exc:
            return REJECTED, _envelope(args, digest, {"error": str(exc)}), False
        return OK, _envelope(args, digest, params.to_json_dict()), False

    if command == "preset":
        digest = _args_digest(
            args, ["command", "kind", "labels", "u", "v", "boost", "base", "scale"]
        )
        if not args.labels:
            raise DataError("preset requires --labels")
        universe = Universe(tuple(args.labels.split(",")))
        params = preset(
            args.kind,
            universe,
            u=_parse_numbers(args.u, policy) if args.u else None,
            v=_parse_numbers(args.v, policy) if args.v else None,
            boost=policy.parse(args.boost) if args.boost else None,
            base=policy.parse(args.base) if args.base else None,
            scale=policy.parse(args.scale) if args.scale else None,
        )
        return OK, _envelope(args, digest, params.to_json_dict()), False

    if command == "embed-check":
        text, digest = _read_input(args)
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataError(f"malformed parameter file: {exc}") from exc
        params = FLuceParams.from_json_dict(payload)
        verdict = embed_check(params)
        code = OK if verdict.accepted else REJECTED
        return code, _envelope(args, digest, verdict.to_json_dict(params.universe)), False

    if command == "simulate":
        digest = _args_digest(args, ["command", "kind", "n", "seed", "sparsity", "emit"])
        config = SimConfig(seed=args.seed, n=args.n, sparsity=args.sparsity)
        if args.kind == "mu":
            mu = sample_mu(config)
            if args.emit == "data":
                from .frum import forward_frum

                data = forward_frum(mu, range(1 << args.n))
                return _emit_data(args, digest, data)
            return OK, _envelope(args, digest, mu.to_json_dict()), False
        params = sample_fluce(config)
        if args.emit == "data":
            data = forward_fluce(params, range(1 << args.n), policy)
            return _emit_data(args, digest, data)
        return OK, _envelope(args, digest, params.to_json_dict()), False

    if command == "plot":
        text, digest = _read_input(args)
        data = parse_stochastic(text, policy)
        if args.project:
            labels = args.project.split(",")
            if len(labels) != 3:
                raise DataError("--project needs exactly three labels")
            alts = tuple(data.universe.index(lbl) for lbl in labels)
            plot = projected_points(data, alts)
            body = {"plot": plot.to_json_dict(), "containment": {}}
            return OK, _envelope(args, digest, body), False
        targets = None
        if args.targets is not None:
            targets = [data.universe.frame(part) for part in args.targets.split(",")]
        plot = plot_simplex(data, targets)
        containment: dict[str, bool | None] = {}
        for region in plot.regions:
            frame = data.universe.frame(region.label)
            if data.is_complete_frame(frame) and frame in data.domain:
                point = tuple(data.probs[(a, frame)] for a in range(3))
                containment[region.label] = region_contains(region.vertices, point)
            else:
                containment[region.label] = None
        body = {"plot": plot.to_json_dict(), "containment": containment}
        return OK, _envelope(args, digest, body), False

    raise DataError(f"unknown command {command!r}")  # pragma: no cover


def _emit_data(
    args: argparse.Namespace, digest: str, data: StochasticChoiceData
) -> tuple[int, object, bool]:
    if args.format == "csv":
        return OK, data.to_csv(), True
    return OK, _envelope(args, digest, data.to_json_dict()), False


def _envelope(args: argparse.Namespace, digest: str, body: dict) -> dict:
    return {
        "command": args.command,
        "input_digest": digest,
        "numeric_mode": _policy(args).mode,
        "report": body,
    }


def run(argv: list[str]) -> int:
    """Parse argv, execute, and write the report; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return OK if exc.code in (0, None) else USAGE
    started = time.perf_counter()
    try:
        code, payload, raw = _execute(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    if raw:
        text = payload if isinstance(payload, str) else str(payload)
    else:
        payload["timings"] = {"total_ms": round(1000 * (time.perf_counter() - started), 3)}
        text = dumps_json(payload) + "\n"
    if args.outfile:
        with open(args.outfile, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


def main(argv: list[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
