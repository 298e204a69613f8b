"""The committed report corpus: every CLI report on a fixed set of inputs.

The corpus pins what the commands print, byte for byte, so a change that must
keep behaviour can be checked against it.  Inputs are the fixtures in
``tests/data``, seeded files written by ``framechoice simulate`` (some cut to
frames of size <= 2, shuffled, or with one row dropped) and a few hand-written
deterministic and malformed files.  Each stochastic input is run through every
stochastic command in both numeric modes, each deterministic one through
``test-fum`` and ``repr-fum``, and each parameter file (``preset`` reports and
malformed payloads) through ``embed-check``.  The commands that read only flags
(``enumerate-types``, ``preset``, ``simulate``) get one file per command.  One
file per input or command records, per run, the exit code, stderr and stdout,
with the report's ``timings`` removed (wall-clock time is outside the
determinism guarantee).

Regenerate after an intended behaviour change with::

    PYTHONPATH=src python tests/report_corpus.py
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import tempfile
from pathlib import Path

from framechoice.cli import run

TESTS = Path(__file__).parent
CORPUS_DIR = TESTS / "reports"
MAX_CORPUS_BYTES = 1_000_000

STOCHASTIC = [
    ["validate"],
    ["bm"],
    ["hasse"],
    ["hasse", "--dot"],
    ["test-frum"],
    ["recover"],
    ["recover", "--method", "constructive"],
    ["feasible"],
    ["test-fluce"],
    ["fit-fluce"],
    ["plot"],
    ["plot", "--project", "a,b,c"],
]
DETERMINISTIC = [["test-fum"], ["repr-fum"]]
PARAMETERS = [["embed-check"]]
MODES = ["float", "rational"]

DET_FILES = {
    # the rule of the type (priority b, a; default c) on every frame
    "det_type_n3.csv": "frame,choice\n,c\na,a\nb,b\nc,c\na|b,b\na|c,a\nb|c,b\na|b|c,b\n",
    # the same rule with {a} picking c: an IIFA2 break and no consistent type
    "det_broken_n3.csv": "frame,choice\n,c\na,c\nb,b\nc,c\na|b,b\na|c,a\nb|c,b\na|b|c,b\n",
    "det_partial_n4.csv": "# universe: a|b|c|d\nframe,choice\na|b,a\nc|d,d\na|b|c|d,a\n,b\n",
    "det_bad_label.csv": "# universe: a|b\nframe,choice\na,z\n",
}

BAD_FILES = {
    "bad_header.csv": "frame,alt,probability\n,a,1\n",
    "bad_number.csv": "# universe: a|b\nframe,alternative,probability\n,a,x\n,b,1\n",
    "bad_duplicate.csv": "# universe: a|b\nframe,alternative,probability\n,a,0.5\n,a,0.5\n",
    "bad_range.csv": "# universe: a|b\nframe,alternative,probability\n,a,1.5\n,b,-0.5\n",
    # {b} sums to 0.9, then {a} to 1.1: the first failing frame in row order is reported
    "bad_sums.csv": (
        "# universe: a|b\nframe,alternative,probability\n"
        "b,a,0.4\nb,b,0.5\na,a,0.6\na,b,0.5\n,a,0.5\n,b,0.5\n"
    ),
    "bad_partial_mass.csv": "# universe: a|b|c\nframe,alternative,probability\na,a,0.7\na,b,0.6\n",
}


PRESETS = {
    "constant_boost": ["--u", "1,2,3", "--boost", "0.5"],
    "constant_base": ["--base", "2", "--v", "0,1/2,1"],
    "proportional": ["--u", "0.2,0.3,0.5", "--scale", "1.5"],
}

# commands that read only flags: report file stem -> runs
FLAG_RUNS = {
    "cmd_enumerate_types": [["enumerate-types", "--n", str(n)] for n in range(4)],
    "cmd_preset": [
        ["preset", "--kind", kind, "--labels", "a,b,c", *flags] for kind, flags in PRESETS.items()
    ] + [["preset", "--kind", "constant_boost", "--labels", "a,b,c", "--u", "1,2,3"]],
    "cmd_simulate": [
        ["simulate", "--kind", kind, "--n", "3", "--seed", "1", "--emit", emit, *flags]
        for kind in ("mu", "fluce")
        for emit, flags in (("params", []), ("data", ["--format", "csv"]))
    ],
}

_PAYLOAD = (
    '{"universe": ["a", "b", "c"], "u": {"a": %s, "b": "1", "c": "1"}, '
    '"v": {"a": "0", "b": "0", "c": "0"}}\n'
)
BAD_PARAMETERS = {
    "params_bad_zero.json": _PAYLOAD % '"1/0"',
    "params_bad_digits.json": _PAYLOAD % ("1" + "0" * 400),  # too large for a float
    "params_bad_exponent.json": _PAYLOAD % '"1e-99999999"',  # past the exponent guard
}


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _simulated(kind: str, n: int, seed: int, mode: str = "float") -> str:
    code, out, err = _cli(
        ["simulate", "--kind", kind, "--n", str(n), "--seed", str(seed),
         "--emit", "data", "--format", "csv", "--numeric", mode]
    )
    assert code == 0, err
    return out


def _preset(kind: str, mode: str) -> str:
    argv = ["preset", "--kind", kind, "--labels", "a,b,c", *PRESETS[kind], "--numeric", mode]
    code, out, err = _cli(argv)
    assert code == 0, err
    return json.dumps(json.loads(out)["report"], sort_keys=True) + "\n"


def _rows(text: str) -> tuple[list[str], list[str]]:
    lines = text.splitlines(keepends=True)
    head = [line for line in lines if line.startswith("#")] + [lines[1]]
    return head, lines[len(head):]


def _small_frames(text: str) -> str:
    head, body = _rows(text)
    return "".join(head + [row for row in body if row.split(",")[0].count("|") <= 1])


def _shuffled(text: str, seed: int, drop: bool = False) -> str:
    head, body = _rows(text)
    random.Random(seed).shuffle(body)
    return "".join(head + body[: len(body) - drop])


def corpus_inputs() -> dict[str, str]:
    """Input file name -> text, fixtures first."""
    inputs = {path.name: path.read_text() for path in sorted((TESTS / "data").glob("*.csv"))}
    for n in (3, 4):
        for seed in range(3):
            mixture = _simulated("mu", n, seed)
            inputs[f"fluce_n{n}_s{seed}.csv"] = _simulated("fluce", n, seed)
            inputs[f"mu_small_n{n}_s{seed}.csv"] = _small_frames(mixture)
            inputs[f"mu_shuffled_n{n}_s{seed}.csv"] = _shuffled(mixture, seed)
            inputs[f"mu_dropped_n{n}_s{seed}.csv"] = _shuffled(mixture, seed, drop=True)
    # n = 5 on frames of size <= 2 only (a full domain makes hundreds of KB of
    # reports per mode), with exact frame sums so the rational runs parse
    inputs["mu_small_n5_s0.csv"] = _small_frames(_simulated("mu", 5, 0, "rational"))
    # exact frame sums, so the rational runs get past parsing
    inputs["mu_exact_shuffled_n3_s0.csv"] = _shuffled(_simulated("mu", 3, 0, "rational"), 0)
    inputs.update(BAD_FILES)
    inputs.update(DET_FILES)
    inputs["params_constant_boost_float.json"] = _preset("constant_boost", "float")
    inputs["params_constant_base_rational.json"] = _preset("constant_base", "rational")
    inputs.update(BAD_PARAMETERS)
    return inputs


def _report(commands: list[list[str]], path: Path | None = None) -> str:
    shown, given = (["--in", path.name], ["--in", str(path)]) if path else ([], [])
    parts = []
    for command in commands:
        for mode in MODES:
            argv = [*command, *shown, "--numeric", mode]
            code, out, err = _cli([*command, *given, "--numeric", mode])
            if out.startswith("{"):
                out, found = re.subn(r',"timings":\{[^{}]*\}\}\n\Z', "}\n", out)
                assert found == 1, argv
            parts.append(f"$ framechoice {' '.join(argv)}\nexit {code}\nstderr:\n{err}stdout:\n{out}\n")
    return "".join(parts)


def build_corpus() -> dict[str, str]:
    """Corpus file name -> text: the generated inputs, then one report file per input."""
    inputs = corpus_inputs()
    corpus = {
        f"inputs/{name}": text for name, text in inputs.items() if not (TESTS / "data" / name).exists()
    }
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in inputs.items():
            path = Path(tmp) / name
            path.write_text(text)
            if name.endswith(".json"):
                commands = PARAMETERS
            else:
                commands = DETERMINISTIC if name.startswith("det_") else STOCHASTIC
            corpus[f"{path.stem}.txt"] = _report(commands, path)
    for stem, runs in FLAG_RUNS.items():
        corpus[f"{stem}.txt"] = _report(runs)
    return corpus


def stored_corpus() -> dict[str, str]:
    return {
        path.relative_to(CORPUS_DIR).as_posix(): path.read_text()
        for path in sorted(CORPUS_DIR.rglob("*"))
        if path.is_file()
    }


def write_corpus() -> None:
    for path in CORPUS_DIR.rglob("*"):
        if path.is_file():
            path.unlink()
    for name, text in build_corpus().items():
        target = CORPUS_DIR / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)


if __name__ == "__main__":
    write_corpus()
