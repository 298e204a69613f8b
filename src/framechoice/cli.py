"""Command-line surface: analysis subcommands with JSON reports.

Every report is wrapped in a run envelope carrying the command name, a
content digest of the input, and the numeric mode, so identical inputs and
flags produce identical verdict bodies; wall-clock timings live in their own
field and take no part in that guarantee.  Raw text output (``hasse --dot``,
CSV data from ``simulate``) is printed without the envelope.  Exit codes: 0 on
success or acceptance, 2 when an analysis rejects the model (the report still
prints), 1 on usage or data errors.
"""

from __future__ import annotations

import argparse
import codecs
import hashlib
import json
import os
import sys
import time
from functools import partial
from typing import Iterator

from . import __version__
from .core import (
    TEXT_BLOCK,
    DataError,
    NumericPolicy,
    Universe,
    dumps_json,
    parse_deterministic,
    parse_stochastic,
    validate,
)
from .detfum import (
    FUMRejectionError,
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
    TypeDistribution,
    feasible_completion,
    forward_frum,
    recover_branch_independent,
    recover_constructive,
    test_frum,
)
from .plotdata import PlotRejectionError, plot_simplex, projected_points, region_contains
from .polys import compute_bm, export_hasse
from .sim import SimConfig, default_universe, sample_fluce, sample_mu

OK, REJECTED, USAGE = 0, 2, 1


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # a usage error ends in one ``error:`` line, as data errors do
        raise DataError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="framechoice",
        description="Tests, recovery, and identification for frame-dependent choice data.",
    )
    parser.add_argument("--version", action="version", version=f"framechoice {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--in", dest="infile", metavar="PATH", help="input file")
    common.add_argument("--out", dest="outfile", metavar="PATH", help="write output here")
    common.add_argument(
        "--numeric", choices=["float", "float64", "rational"], default="float"
    )
    common.add_argument("--epsilon", type=float, default=1e-9, metavar="E")

    sub = parser.add_subparsers(dest="command", required=True)
    cmd = {name: sub.add_parser(name, parents=[common]) for name in _COMMANDS}
    cmd["hasse"].add_argument("--dot", action="store_true", help="emit a DOT graph instead of JSON")
    cmd["enumerate-types"].add_argument("--n", type=int, required=True)
    cmd["recover"].add_argument("--method", choices=["branch", "constructive"], default="branch")
    pre = cmd["preset"]
    pre.add_argument(
        "--kind", choices=["constant_boost", "constant_base", "proportional"], required=True
    )
    pre.add_argument("--labels", help="comma-separated alternative labels")
    pre.add_argument("--u", help="comma-separated base weights")
    pre.add_argument("--v", help="comma-separated boosts")
    pre.add_argument("--boost", help="shared boost value")
    pre.add_argument("--base", help="shared base weight")
    pre.add_argument("--scale", help="proportional factor")
    simp = cmd["simulate"]
    simp.add_argument("--kind", choices=["mu", "fluce"], required=True)
    simp.add_argument("--n", type=int, required=True)
    simp.add_argument("--sparsity", type=float, default=1.0)
    simp.add_argument("--emit", choices=["params", "data"], default="params")
    simp.add_argument("--format", choices=["json", "csv"], default="json")
    simp.add_argument("--seed", type=int, default=0, metavar="S")
    plot = cmd["plot"]
    plot.add_argument("--targets", help="comma-separated target frames (| joins labels)")
    plot.add_argument("--project", help="three labels to project larger universes onto")
    return parser


def _policy(args: argparse.Namespace) -> NumericPolicy:
    mode = "rational" if args.numeric == "rational" else "float64"
    return NumericPolicy(mode, args.epsilon)


def _read_input(args: argparse.Namespace, parse, policy: NumericPolicy) -> tuple[object, str]:
    """Parse the ``--in`` file as its blocks are read; returns the result and the digest of its bytes."""
    if not args.infile:
        raise DataError(f"{args.command} requires --in")
    digest = hashlib.sha256()
    try:
        with open(args.infile, "rb") as fh:
            blocks = _text_blocks(fh, digest, args.infile)
            try:
                subject = parse(blocks, policy)
            except DataError:
                for _ in blocks:  # a UTF-8 fault further on is named before any fault of the data
                    pass
                raise
    except OSError as exc:
        raise DataError(f"cannot read {args.infile}: {exc}") from exc
    return subject, digest.hexdigest()


def _text_blocks(fh, digest, path: str) -> Iterator[str]:
    """A binary file's UTF-8 text, ``TEXT_BLOCK`` bytes at a time; its bytes go to ``digest`` as read.

    A leading byte-order mark is dropped, and a fault is named as
    ``bytes.decode("utf-8-sig")`` names it for the whole file.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    done = 0  # bytes after any byte-order mark given to the decoder, where positions count from

    def decode(block: bytes, final: bool = False) -> str:
        nonlocal done
        start = done - len(decoder.getstate()[0])  # the position of the bytes the decoder still holds
        try:
            text = decoder.decode(block, final)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path} is not UTF-8 text: {_decode_error(exc, start)}") from exc
        done += len(block)
        return text

    head = fh.read(len(codecs.BOM_UTF8))
    digest.update(head)
    yield decode(b"" if head == codecs.BOM_UTF8 else head)
    for block in iter(partial(fh.read, TEXT_BLOCK), b""):
        digest.update(block)
        yield decode(block)
    yield decode(b"", final=True)


def _decode_error(exc: UnicodeDecodeError, shift: int) -> str:
    """``str(exc)`` with its positions moved on by ``shift`` bytes."""
    start, end = exc.start + shift, exc.end + shift
    if end - start == 1:
        where = f"byte 0x{exc.object[exc.start]:02x} in position {start}"
    else:
        where = f"bytes in position {start}-{end - 1}"
    return f"'{exc.encoding}' codec can't decode {where}: {exc.reason}"


def _args_digest(args: argparse.Namespace, fields: list[str]) -> str:
    blob = "\x1f".join(f"{f}={getattr(args, f)}" for f in fields)
    return hashlib.sha256(blob.encode()).hexdigest()


def _parse_numbers(text: str, policy: NumericPolicy) -> tuple:
    return tuple(policy.parse(part) for part in text.split(","))


def _stochastic(text: str, policy: NumericPolicy):
    return parse_stochastic(text, policy)


def _partial(text: str, policy: NumericPolicy):
    return parse_stochastic(text, policy, allow_partial=True)


def _deterministic(text: str, policy: NumericPolicy):
    return parse_deterministic(text)


def _parameters(text, policy: NumericPolicy):
    try:
        payload = json.loads("".join(text))
    except json.JSONDecodeError as exc:
        raise DataError(f"malformed parameter file: {exc}") from exc
    return FLuceParams.from_json_dict(payload)


def _validate(data, args, policy):
    return OK, validate(data).to_json_dict(data.universe)


def _bm(data, args, policy):
    return OK, compute_bm(data).to_json_dict()


def _hasse(data, args, policy):
    graph = export_hasse(compute_bm(data))
    return OK, (graph.to_dot() + "\n" if args.dot else graph.to_json_dict())


def _test_fum(data, args, policy):
    report = check_iifa(data)
    return (OK if report.iifa else REJECTED), report.to_json_dict(data.universe)


def _repr_fum(data, args, policy):
    try:
        rep = build_fum_representation(data)
    except FUMRejectionError as exc:
        return REJECTED, {"error": str(exc), "axioms": exc.report.to_json_dict(data.universe)}
    return OK, rep.to_json_dict()


def _enumerate_types(_, args, policy):
    universe = default_universe(args.n)
    types = enumerate_types(universe)
    names = universe.names
    listed = [
        {"priority": [names[a] for a in t.priority], "default": names[t.default]} for t in types
    ]
    return OK, {"n": args.n, "count": len(types), "types": listed}


def _test_frum(data, args, policy):
    verdict = test_frum(data)
    return (REJECTED if verdict.violations else OK), verdict.to_json_dict(data.universe)


def _recover(data, args, policy):
    method = recover_branch_independent if args.method == "branch" else recover_constructive
    try:
        mu = method(data)
    except FrumRejectionError as exc:
        return REJECTED, {"error": str(exc), "verdict": exc.verdict.to_json_dict(data.universe)}
    return OK, mu.to_json_dict()


def _feasible(data, args, policy):
    result = feasible_completion(data)
    return (OK if result.feasible else REJECTED), result.to_json_dict(data.universe)


def _test_fluce(data, args, policy):
    result = test_fluce(data)
    return (OK if result.accepted else REJECTED), result.to_json_dict(data.universe)


def _fit_fluce(data, args, policy):
    try:
        params = fit_fluce(data)
    except FitRejectionError as exc:
        return REJECTED, {"error": str(exc)}
    return OK, params.to_json_dict()


def _preset(_, args, policy):
    if not args.labels:
        raise DataError("preset requires --labels")
    params = preset(
        args.kind,
        Universe(tuple(args.labels.split(","))),
        u=_parse_numbers(args.u, policy) if args.u else None,
        v=_parse_numbers(args.v, policy) if args.v else None,
        boost=policy.parse(args.boost) if args.boost else None,
        base=policy.parse(args.base) if args.base else None,
        scale=policy.parse(args.scale) if args.scale else None,
    )
    return OK, params.to_json_dict()


def _embed_check(params, args, policy):
    verdict = embed_check(params)
    return (OK if verdict.accepted else REJECTED), verdict.to_json_dict(params.universe)


def _simulate(_, args, policy):
    config = SimConfig(seed=args.seed, n=args.n, sparsity=args.sparsity)
    model = sample_mu(config) if args.kind == "mu" else sample_fluce(config)
    if args.emit == "params":
        return OK, model.to_json_dict()
    frames = range(1 << args.n)
    if args.kind == "fluce":
        data = forward_fluce(model, frames, policy)
    elif policy.exact:
        # the sampled float weights, made exact, sum to one only once rescaled
        weights = {t: policy.convert(w) for t, w in model.weights.items()}
        total = sum(weights.values())
        exact = {t: w / total for t, w in weights.items()}
        data = forward_frum(TypeDistribution(model.universe, exact, policy), frames)
    else:
        data = forward_frum(model, frames)
    return OK, (data.to_csv() if args.format == "csv" else data.to_json_dict())


def _plot(data, args, policy):
    if args.project:
        labels = args.project.split(",")
        if len(labels) != 3:
            raise DataError("--project needs exactly three labels")
        plot = projected_points(data, tuple(data.universe.index(lbl) for lbl in labels))
        return OK, {"plot": plot.to_json_dict(), "containment": {}}
    targets = None
    if args.targets is not None:
        targets = [data.universe.frame(part) for part in args.targets.split(",")]
    try:
        plot = plot_simplex(data, targets)
    except PlotRejectionError as exc:
        return REJECTED, {"error": str(exc)}
    # every frame is complete here, so a region's frame is observed iff it has a point
    points = {point.label: point.bary for point in plot.points}
    containment = {
        r.label: region_contains(r.vertices, points[r.label]) if r.label in points else None
        for r in plot.regions
    }
    return OK, {"plot": plot.to_json_dict(), "containment": containment}


# name -> (input, analysis).  The input is a parser of the --in text (the
# digest is over the file's bytes) or the flags that the digest covers.  An
# analysis returns the exit code and a body: a dict goes into the envelope, a
# str is printed as it is.  Parsers and analyses call the library through this
# module's names at call time, so a wrapper put on such a name sees every call.
_COMMANDS = {
    "validate": (_partial, _validate),
    "bm": (_stochastic, _bm),
    "hasse": (_stochastic, _hasse),
    "test-fum": (_deterministic, _test_fum),
    "repr-fum": (_deterministic, _repr_fum),
    "enumerate-types": (("n",), _enumerate_types),
    "test-frum": (_partial, _test_frum),
    "recover": (_stochastic, _recover),
    "feasible": (_partial, _feasible),
    "test-fluce": (_stochastic, _test_fluce),
    "fit-fluce": (_stochastic, _fit_fluce),
    "preset": (("kind", "labels", "u", "v", "boost", "base", "scale"), _preset),
    "embed-check": (_parameters, _embed_check),
    "simulate": (("kind", "n", "seed", "sparsity", "emit"), _simulate),
    "plot": (_stochastic, _plot),
}


def _execute(args: argparse.Namespace) -> tuple[int, dict | str]:
    """Returns the exit code and either the enveloped report or raw text."""
    policy = _policy(args)
    source, analyse = _COMMANDS[args.command]
    if isinstance(source, tuple):
        subject, digest = None, _args_digest(args, ["command", *source])
    else:
        subject, digest = _read_input(args, source, policy)
    code, body = analyse(subject, args, policy)
    if isinstance(body, str):
        return code, body
    return code, {
        "command": args.command,
        "input_digest": digest,
        "numeric_mode": policy.mode,
        "report": body,
    }


def _write(path: str | None, payload: dict | str) -> None:
    """Write raw text as it is, or a report as JSON and a newline, piece by piece as it is built."""

    def emit(write) -> None:
        if isinstance(payload, str):
            write(payload)
        else:
            dumps_json(payload, write)
            write("\n")

    if not path:
        try:
            emit(sys.stdout.write)
            sys.stdout.flush()
        except BrokenPipeError:  # the reader stopped early, as `| head` does: the rest is not wanted
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            emit(fh.write)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror or exc}") from exc


def run(argv: list[str]) -> int:
    """Parse argv, execute, and write the report; returns the exit code."""
    try:
        args = build_parser().parse_args(argv)
        started = time.perf_counter()
        code, payload = _execute(args)
        if not isinstance(payload, str):
            payload["timings"] = {"total_ms": round(1000 * (time.perf_counter() - started), 3)}
        _write(args.outfile, payload)
    except SystemExit as exc:  # --help and --version, once printed
        return OK if exc.code in (0, None) else USAGE
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    return code


def main(argv: list[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
