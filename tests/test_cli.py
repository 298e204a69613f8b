"""Command-line surface: reports, exit codes, determinism."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from framechoice import cli, core
from framechoice.cli import run
from framechoice.core import DeterministicChoiceData
from framechoice.detfum import ChoiceType, FUMRepresentation, evaluate_fum
from framechoice.sim import default_universe

DATA_DIR = Path(__file__).parent / "data"

TABLE3_CSV = """# universe: a|b
frame,alternative,probability
a|b,a,0.4
a|b,b,0.6
a,a,0.7
a,b,0.3
b,a,0.1
b,b,0.9
,a,0.6
,b,0.4
"""

NOT_FLUCE_CSV = """# universe: a|b
frame,alternative,probability
,a,0.6
,b,0.4
a,a,0.5
a,b,0.5
b,a,0.1
b,b,0.9
"""


@pytest.fixture
def table3_file(tmp_path):
    path = tmp_path / "table3.csv"
    path.write_text(TABLE3_CSV)
    return str(path)


def run_json(argv, capsys, expect_code):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == expect_code, out
    return json.loads(out)


def run_error(argv, capsys):
    """Runs a command that must fail as a usage error; returns its one stderr line."""
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 1, captured.out
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


def simulate_csv(path, n, seed):
    argv = ["simulate", "--kind", "fluce", "--n", str(n), "--seed", str(seed),
            "--emit", "data", "--format", "csv", "--out", str(path)]
    assert run(argv) == 0
    return str(path)


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, capsys):
        assert run_error(["frobnicate"], capsys).startswith("error: argument command: invalid choice")

    def test_argparse_errors_are_one_line(self, capsys):
        path = str(DATA_DIR / "intro_full.csv")
        for argv, message in (
            (["validate", "--in", path, "--bogus"], "unrecognized arguments: --bogus"),
            (["test-frum", "--in", path, "--numeric", "bogus"], "argument --numeric: invalid choice"),
            (["enumerate-types"], "the following arguments are required: --n"),
        ):
            assert run_error(argv, capsys).startswith(f"error: {message}"), argv

    def test_simulate_flags_belong_to_simulate(self, capsys):
        # --format and --seed are read by simulate alone; elsewhere they are unknown
        path = str(DATA_DIR / "intro_full.csv")
        for argv in (["bm", "--in", path, "--format", "csv"], ["test-frum", "--in", path, "--seed", "3"]):
            err = run_error(argv, capsys)
            assert err == f"error: unrecognized arguments: {' '.join(argv[-2:])}\n", argv

    def test_help_and_version_exit_zero(self, capsys):
        for argv in (["--help"], ["--version"], ["simulate", "--help"]):
            assert run(argv) == 0, argv
            captured = capsys.readouterr()
            assert captured.out and captured.err == "", argv

    def test_missing_file_is_usage_error(self, capsys):
        assert run(["validate", "--in", "/nonexistent/file.csv"]) == 1

    def test_malformed_data_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("frame,alternative,probability\n,a,0.7\n,b,0.25\n")
        assert run(["test-frum", "--in", str(bad)]) == 1
        capsys.readouterr()
        # a rational literal whose exponent would build a multi-million-bit Fraction
        for literal in ("1e999999999", "1e-1000000"):
            bad.write_text(f"frame,alternative,probability\n,a,{literal}\n,b,0\n")
            assert run(["validate", "--in", str(bad), "--numeric", "rational"]) == 1, literal
            err = capsys.readouterr().err
            assert err == f"error: bad number literal {literal!r}\n", literal

    def test_label_that_reads_as_a_comment_is_usage_error(self, tmp_path, capsys):
        # its frames' rows start with "#": read back, half the rows would be comments
        rows = [(frame, alt) for frame in ("", "a", "#b", "#b|a") for alt in ("a", "#b")]
        body = "".join(f"{frame},{alt},{0.25 if alt == 'a' else 0.75}\n" for frame, alt in rows)
        path = tmp_path / "hash.csv"
        path.write_text("# universe: a|#b\nframe,alternative,probability\n" + body)
        for command in ("validate", "test-frum"):
            err = run_error([command, "--in", str(path)], capsys)
            assert err == "error: bad alternative label '#b'\n", command

    def test_negative_epsilon_is_usage_error(self, capsys):
        # a NaN, infinite or huge tolerance is as unusable as a negative one
        path = str(DATA_DIR / "intro_full.csv")
        for eps in ("-1", "inf", "nan", "1e308"):
            assert run(["validate", "--in", path, "--epsilon", eps]) == 1, eps
            err = capsys.readouterr().err
            assert err.startswith("error: eps must be finite") and err.count("\n") == 1, eps

    def test_universe_size_out_of_range_is_usage_error(self, capsys):
        # the simulator's size check and the universe builder's are one check
        for argv in (
            ["enumerate-types", "--n", "-3"],
            ["simulate", "--kind", "mu", "--n", "-3"],
            ["simulate", "--kind", "fluce", "--n", "25"],
        ):
            err = run_error(argv, capsys)
            assert err == f"error: universe size must be in 1..20, got {argv[-1]}\n", argv

    def test_zero_denominator_parameter_is_usage_error(self, tmp_path, capsys):
        # a zero denominator, an integer too large for a float, an exponent
        # past the guard that would otherwise build a 330M-bit Fraction, a
        # boolean and a JSON number that reads as infinity
        params = tmp_path / "params.json"
        for base in ('"1/0"', "1" + "0" * 400, '"1e-99999999"', "true", "1e400"):
            params.write_text('{"universe": ["a", "b", "c"], "u": {"a": %s, "b": "1", "c": "1"}, '
                              '"v": {"a": "0", "b": "0", "c": "0"}}' % base)
            assert run(["embed-check", "--in", str(params), "--numeric", "rational"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: malformed parameter payload") and err.count("\n") == 1

    def test_non_utf8_input_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\xff\xfe")
        assert run(["validate", "--in", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_byte_order_mark_is_accepted(self, tmp_path, capsys):
        original = DATA_DIR / "intro_full.csv"
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + original.read_bytes())
        for command, code in (("validate", 0), ("test-frum", 2)):
            plain = run_json([command, "--in", str(original)], capsys, code)
            bom = run_json([command, "--in", str(marked)], capsys, code)
            assert bom["report"] == plain["report"], command
            assert bom["input_digest"] != plain["input_digest"]  # digest of the raw bytes

    @pytest.mark.parametrize("block", [1, 2, 3, 64])
    def test_byte_order_mark_and_crlf_in_blocks(self, tmp_path, capsys, monkeypatch, block):
        original = DATA_DIR / "intro_full.csv"
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + original.read_bytes().replace(b"\n", b"\r\n"))
        plain = run_json(["test-frum", "--in", str(original)], capsys, 2)
        monkeypatch.setattr(cli, "TEXT_BLOCK", block)
        monkeypatch.setattr(core, "TEXT_BLOCK", block)
        bom = run_json(["test-frum", "--in", str(marked)], capsys, 2)
        assert bom["report"] == plain["report"]
        assert bom["input_digest"] == hashlib.sha256(marked.read_bytes()).hexdigest()

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 64])
    def test_read_in_blocks(self, tmp_path, capsys, monkeypatch, block):
        # multibyte labels cut between byte blocks; the digest is still of the whole file
        path = tmp_path / "wide.csv"
        path.write_text("\n".join(line.replace("a", "日本") if line[:1] != "f" else line
                                   for line in TABLE3_CSV.splitlines()), encoding="utf-8")
        whole = run_json(["bm", "--in", str(path)], capsys, 0)
        monkeypatch.setattr(cli, "TEXT_BLOCK", block)
        cut = run_json(["bm", "--in", str(path)], capsys, 0)
        assert whole["report"] == cut["report"] and whole["input_digest"] == cut["input_digest"]

    @pytest.mark.parametrize("block", [1, 2, 3, 7, 64, cli.TEXT_BLOCK])
    def test_not_utf8_names_the_byte_as_a_whole_file_decode(self, tmp_path, capsys, monkeypatch, block):
        monkeypatch.setattr(cli, "TEXT_BLOCK", block)
        monkeypatch.setattr(core, "TEXT_BLOCK", block)  # the parser sees each line as soon as it ends
        body = TABLE3_CSV.encode() * 3
        contents = [
            b"\xff\xfe",
            body + b"\xff" + body,  # past the first block
            b"\xef\xbb\xbf" + body + b"\xff",  # after a byte-order mark: positions count from after it
            body + "日".encode()[:2],  # a sequence cut off at the end
            b"\xef\xbb\xbf" + "日".encode()[:2],
            body + b"\xe6\x97x" + body,  # a sequence broken off mid-file
            b"\xef\xbb",
            # a fault of the data comes first, the UTF-8 fault wins
            b"frame,choice\n" + body + b"\xc3",
            body.replace(b"0.4", b"x") + b"# universe: a|a\n" + body + b"\x80",
        ]
        bad = tmp_path / "bad.csv"
        for raw in contents:
            bad.write_bytes(raw)
            with pytest.raises(UnicodeDecodeError) as whole:
                raw.decode("utf-8-sig")
            err = run_error(["validate", "--in", str(bad)], capsys)
            assert err == f"error: {bad} is not UTF-8 text: {whole.value}\n", raw

    def test_quoted_field_past_the_csv_limit_is_usage_error(self, tmp_path, capsys):
        limit = csv.field_size_limit()
        label = "x" * (limit + 1)
        text = f"# universe: {label}|b\nframe,alternative,probability\n,b,1\n,{label},0\n"
        plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
        plain.write_text(text)
        quoted.write_text(text.replace(f",{label},", f',"{label}",'))
        assert run(["validate", "--in", str(plain)]) == 0
        capsys.readouterr()
        err = run_error(["validate", "--in", str(quoted)], capsys)
        assert err == f"error: cannot read row 2 after the header: field larger than field limit ({limit})\n"
        head = tmp_path / "head.csv"
        head.write_text(f'"{label}",alternative,probability\n,b,1\n')
        err = run_error(["validate", "--in", str(head)], capsys)
        assert err == f"error: cannot read the header row: field larger than field limit ({limit})\n"
        assert csv.field_size_limit() == limit

    def test_closed_stdout_pipe_ends_quietly(self, tmp_path, capsys):
        path = tmp_path / "rule.csv"
        assert run(["simulate", "--kind", "fluce", "--n", "8", "--seed", "3", "--emit", "data",
                    "--format", "csv", "--out", str(path)]) == 0
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.Popen([sys.executable, "-m", "framechoice.cli", "bm", "--in", str(path)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src})
        assert proc.stdout.read(10) == b'{"command"'  # the report is many pipe buffers long
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""
        proc.stderr.close()

    @pytest.mark.parametrize("command", ["bm", "test-frum", "hasse"])
    def test_stdout_and_out_file_get_the_same_bytes(self, tmp_path, capsys, command):
        path = tmp_path / "rule.csv"
        assert run(["simulate", "--kind", "fluce", "--n", "5", "--seed", "3", "--emit", "data",
                    "--format", "csv", "--out", str(path)]) == 0
        out = tmp_path / "report.json"
        code = run([command, "--in", str(path), "--out", str(out)])
        assert capsys.readouterr().out == ""
        assert run([command, "--in", str(path)]) == code
        printed = capsys.readouterr().out

        def body(text):
            return text[: text.rindex(',"timings":')]

        written = out.read_text(encoding="utf-8")
        assert written.endswith("}\n") and body(written) == body(printed)

    def test_unwritable_out_is_usage_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "r.json"
        path = str(DATA_DIR / "intro_full.csv")
        for argv in (["validate", "--in", path], ["hasse", "--in", path, "--dot"]):
            err = run_error([*argv, "--out", str(target)], capsys)
            assert err.startswith(f"error: cannot write {target}: "), err
        assert not target.parent.exists()

    def test_rejection_is_exit_two(self, capsys):
        path = str(DATA_DIR / "intro_full.csv")
        payload = run_json(["test-frum", "--in", path, "--numeric", "rational"], capsys, 2)
        assert payload["report"]["accepted"] is False


class TestGoldenCommands:
    def test_intro_rejection_witness(self, capsys):
        path = str(DATA_DIR / "intro_full.csv")
        payload = run_json(["test-frum", "--in", path, "--numeric", "rational"], capsys, 2)
        violations = payload["report"]["violations"]
        assert {
            "kind": "y",
            "alternative": "a",
            "frame": "",
            "value": "-0.1",
        } in violations

    def test_recover_table3(self, table3_file, capsys):
        payload = run_json(
            ["recover", "--in", table3_file, "--numeric", "rational"], capsys, 0
        )
        weights = {
            (tuple(w["priority"]), w["default"]): w["weight"]
            for w in payload["report"]["weights"]
        }
        assert weights[(("a",), "a")] == "0.1"
        assert weights[(("b",), "b")] == "0.3"
        assert weights[(("a", "b"), "a")] == "0.25"
        assert weights[(("b", "a"), "a")] == "0.25"
        assert weights[(("a", "b"), "b")] == "0.05"
        assert weights[(("b", "a"), "b")] == "0.05"

    def test_recover_methods_agree(self, table3_file, capsys):
        branch = run_json(
            ["recover", "--in", table3_file, "--numeric", "rational", "--method", "branch"],
            capsys,
            0,
        )
        constructive = run_json(
            [
                "recover",
                "--in",
                table3_file,
                "--numeric",
                "rational",
                "--method",
                "constructive",
            ],
            capsys,
            0,
        )
        assert branch["report"] == constructive["report"]

    def test_enumerate_types_count(self, capsys):
        payload = run_json(["enumerate-types", "--n", "4"], capsys, 0)
        assert payload["report"]["count"] == 196
        assert len(payload["report"]["types"]) == 196

    def test_feasible_certificate(self, capsys):
        path = str(DATA_DIR / "intro_partial_n3.csv")
        payload = run_json(["feasible", "--in", path, "--numeric", "rational"], capsys, 2)
        cert = payload["report"]["certificate"]
        assert cert["kind"] == "interim_Y"
        assert cert["value"] == "-0.1"
        assert cert["upper_frame"] == "b|c"

    def test_validate_partial(self, capsys):
        path = str(DATA_DIR / "intro_partial_n3.csv")
        payload = run_json(["validate", "--in", path], capsys, 0)
        assert payload["report"]["full_domain"] is False
        assert payload["report"]["partial_frames"] == ["", "b", "c", "b|c"]

    def test_bm_table(self, table3_file, capsys):
        payload = run_json(["bm", "--in", table3_file, "--numeric", "rational"], capsys, 0)
        entries = {
            (row["alternative"], row["frame"]): row["value"]
            for row in payload["report"]["y"]
        }
        assert entries[("a", "")] == "0.5"

    def test_test_fum_and_repr(self, tmp_path, capsys):
        det = tmp_path / "det.csv"
        det.write_text("frame,choice\n,a\na,a\nb,b\na|b,a\n")
        payload = run_json(["test-fum", "--in", str(det)], capsys, 0)
        assert payload["report"]["iifa"] is True
        payload = run_json(["repr-fum", "--in", str(det)], capsys, 0)
        assert set(payload["report"]) == {"universe", "u", "v"}

        bad = tmp_path / "bad.csv"
        bad.write_text("frame,choice\n,a\na,b\nb,a\na|b,a\n")
        payload = run_json(["repr-fum", "--in", str(bad)], capsys, 2)
        assert payload["report"]["axioms"]["iifa"] is False

    def test_repr_fum_on_a_large_partial_domain(self, tmp_path, capsys):
        # n = 12, every frame of size <= 3 but {a}: no type enumeration is
        # needed to decide it, and the representation reproduces every row
        uni = default_universe(12)
        ctype = ChoiceType((3, 0, 7, 1, 10), 4)
        frames = [f for f in range(1 << 12) if bin(f).count("1") <= 3 and f != 0b1]
        data = DeterministicChoiceData(uni, {f: ctype.choose(f) for f in frames})
        det = tmp_path / "det12.csv"
        det.write_text(data.to_csv())
        report = run_json(["repr-fum", "--in", str(det)], capsys, 0)["report"]
        u, v = ([report[key][x] for x in uni.names] for key in ("u", "v"))
        rep = FUMRepresentation(uni, u, v)
        assert all(evaluate_fum(rep, f) == c for f, c in data.choices.items())


class TestPipelines:
    def test_simulate_then_test_fluce(self, tmp_path, capsys):
        data_file = tmp_path / "sim.csv"
        code = run(
            [
                "simulate",
                "--kind",
                "fluce",
                "--n",
                "3",
                "--seed",
                "11",
                "--emit",
                "data",
                "--format",
                "csv",
                "--out",
                str(data_file),
            ]
        )
        assert code == 0
        payload = run_json(["test-fluce", "--in", str(data_file)], capsys, 0)
        assert payload["report"]["accepted"] is True

    def test_simulate_mu_data_in_rational_mode(self, tmp_path, capsys):
        argv = ["simulate", "--kind", "mu", "--n", "4", "--seed", "3", "--emit", "data",
                "--numeric", "rational"]
        payload = run_json(argv, capsys, 0)
        assert payload["numeric_mode"] == payload["report"]["numeric_mode"] == "rational"
        data_file = tmp_path / "mu.csv"
        assert run([*argv, "--format", "csv", "--out", str(data_file)]) == 0
        verdict = run_json(["test-frum", "--in", str(data_file), "--numeric", "rational"], capsys, 0)
        assert verdict["report"]["accepted"] is True

    def test_preset_then_embed_check(self, tmp_path, capsys):
        params_file = tmp_path / "params.json"
        payload = run_json(
            [
                "preset",
                "--kind",
                "proportional",
                "--labels",
                "a,b,c",
                "--u",
                "2,1.7,3",
                "--scale",
                "2",
                "--numeric",
                "rational",
            ],
            capsys,
            0,
        )
        params_file.write_text(json.dumps(payload["report"]))
        verdict = run_json(
            ["embed-check", "--in", str(params_file), "--numeric", "rational"], capsys, 0
        )
        assert verdict["report"]["accepted"] is True

    def test_simulate_mu_report(self, capsys):
        payload = run_json(
            ["simulate", "--kind", "mu", "--n", "2", "--seed", "3"], capsys, 0
        )
        weights = payload["report"]["weights"]
        assert abs(sum(w["weight"] for w in weights) - 1.0) < 1e-9

    def test_plot_containment(self, tmp_path, capsys):
        data_file = tmp_path / "fl.csv"
        run(
            [
                "simulate",
                "--kind",
                "fluce",
                "--n",
                "3",
                "--seed",
                "2",
                "--emit",
                "data",
                "--format",
                "csv",
                "--out",
                str(data_file),
            ]
        )
        payload = run_json(["plot", "--in", str(data_file)], capsys, 0)
        containment = payload["report"]["containment"]
        assert containment["a|b|c"] is True
        assert containment[""] is True

    def test_plot_projection_for_larger_universe(self, tmp_path, capsys):
        data_file = tmp_path / "big.csv"
        run(
            [
                "simulate",
                "--kind",
                "fluce",
                "--n",
                "4",
                "--seed",
                "5",
                "--emit",
                "data",
                "--format",
                "csv",
                "--out",
                str(data_file),
            ]
        )
        payload = run_json(
            ["plot", "--in", str(data_file), "--project", "a,b,c"], capsys, 0
        )
        plot = payload["report"]["plot"]
        assert plot["regions"] == []
        assert len(plot["points"]) == 16
        for point in plot["points"]:
            assert abs(sum(point["bary"]) - 1.0) < 1e-9

    def test_hasse_dot(self, table3_file, capsys):
        code = run(["hasse", "--in", table3_file, "--numeric", "rational", "--dot"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("digraph")
        assert "q(a)=0.4" in out

    def test_fit_fluce_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "good.csv"
        run(
            [
                "simulate",
                "--kind",
                "fluce",
                "--n",
                "3",
                "--seed",
                "8",
                "--emit",
                "data",
                "--format",
                "csv",
                "--out",
                str(good),
            ]
        )
        payload = run_json(["fit-fluce", "--in", str(good)], capsys, 0)
        assert set(payload["report"]) == {"universe", "u", "v"}


class TestCommandBranches:
    def test_hasse_json(self, table3_file, capsys):
        payload = run_json(["hasse", "--in", table3_file, "--numeric", "rational"], capsys, 0)
        report = payload["report"]
        assert set(report) == {"universe", "nodes", "q_edges", "leak_edges"}
        assert report["universe"] == ["a", "b"]
        assert report["nodes"] == ["", "a", "b", "a|b"]
        leaks = {(e["alternative"], e["from"]): e["value"] for e in report["leak_edges"]}
        assert leaks[("a", "")] == "0.5"

    def test_recover_rejection(self, capsys):
        path = str(DATA_DIR / "intro_full.csv")
        for method in ("branch", "constructive"):
            payload = run_json(
                ["recover", "--in", path, "--numeric", "rational", "--method", method], capsys, 2
            )
            report = payload["report"]
            assert set(report) == {"error", "verdict"}
            assert report["error"] == "data has no mixture representation"
            assert report["verdict"]["accepted"] is False

    def test_fit_fluce_rejection(self, tmp_path, capsys):
        path = tmp_path / "not_fluce.csv"
        path.write_text(NOT_FLUCE_CSV)
        payload = run_json(["fit-fluce", "--in", str(path), "--numeric", "rational"], capsys, 2)
        assert payload["report"] == {
            "error": "negative boost for 'a': data violates the monotonicity axiom"
        }

    def test_plot_rejection(self, capsys):
        # well-formed data that no type mixture fits is a rejection, not an error
        path = str(DATA_DIR / "intro_full.csv")
        code = run(["plot", "--in", path, "--numeric", "rational"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (2, "")
        assert json.loads(captured.out)["report"] == {
            "error": "singleton/doubleton observations admit no mixture of choice types"
        }

    def test_repr_fum_inconsistent_partial_data(self, tmp_path, capsys):
        # pairwise incomparable frames keep the axioms silent; no type matches
        path = tmp_path / "cycle.csv"
        path.write_text("# universe: a|b|c\nframe,choice\na,b\nb,c\nc,a\n")
        code = run(["repr-fum", "--in", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.err) == (2, "")
        report = json.loads(captured.out)["report"]
        assert report["error"] == (
            "inconsistent with partial data: no choice type matches every observation"
        )
        assert report["axioms"] == {"iifa1": True, "iifa2": True, "iifa": True, "witnesses": []}

    def test_preset_requires_labels(self, capsys):
        err = run_error(["preset", "--kind", "proportional", "--scale", "2"], capsys)
        assert err == "error: preset requires --labels\n"

    def test_embed_check_rejects_non_json(self, tmp_path, capsys):
        path = tmp_path / "params.json"
        path.write_text("frame,alternative,probability\n")
        err = run_error(["embed-check", "--in", str(path)], capsys)
        assert err.startswith("error: malformed parameter file: ")

    def test_simulate_mu_data(self, capsys):
        payload = run_json(
            ["simulate", "--kind", "mu", "--n", "2", "--seed", "3", "--emit", "data"], capsys, 0
        )
        report = payload["report"]
        assert payload["numeric_mode"] == report["numeric_mode"] == "float64"
        assert report["frames"] == ["", "a", "b", "a|b"]
        assert len(report["probs"]) == 8

    def test_simulate_fluce_params(self, capsys):
        payload = run_json(
            ["simulate", "--kind", "fluce", "--n", "2", "--seed", "3", "--emit", "params"],
            capsys,
            0,
        )
        report = payload["report"]
        assert set(report) == {"universe", "u", "v"}
        assert abs(sum(report["u"].values()) - 1.0) < 1e-9

    def test_simulate_data_as_json(self, tmp_path, capsys):
        payload = run_json(
            ["simulate", "--kind", "fluce", "--n", "2", "--seed", "3", "--emit", "data",
             "--format", "json"],
            capsys,
            0,
        )
        csv_path = simulate_csv(tmp_path / "sim.csv", 2, 3)
        rows = Path(csv_path).read_text().splitlines()[2:]
        assert payload["command"] == "simulate"
        assert len(payload["report"]["probs"]) == len(rows) == 8

    def test_plot_projection_needs_three_labels(self, tmp_path, capsys):
        path = simulate_csv(tmp_path / "fl.csv", 3, 2)
        err = run_error(["plot", "--in", path, "--project", "a,b"], capsys)
        assert err == "error: --project needs exactly three labels\n"
        err = run_error(["plot", "--in", path, "--project", "a,a,b"], capsys)
        assert err == "error: projection needs three distinct alternatives\n"

    def test_plot_targets(self, tmp_path, capsys):
        path = simulate_csv(tmp_path / "fl.csv", 3, 2)
        payload = run_json(["plot", "--in", path, "--targets", "a|b|c,,a|b"], capsys, 0)
        report = payload["report"]
        assert [r["label"] for r in report["plot"]["regions"]] == ["a|b|c", "", "a|b"]
        assert report["containment"] == {"": True, "a|b": True, "a|b|c": True}

    def test_plot_unobserved_region_frame(self, tmp_path, capsys):
        full = simulate_csv(tmp_path / "fl.csv", 3, 2)
        lines = Path(full).read_text().splitlines(keepends=True)
        no_grand = tmp_path / "no_grand.csv"
        no_grand.write_text("".join(line for line in lines if not line.startswith("a|b|c,")))
        payload = run_json(["plot", "--in", str(no_grand)], capsys, 0)
        report = payload["report"]
        assert [r["label"] for r in report["plot"]["regions"]] == ["a|b|c", ""]
        assert report["containment"] == {"": True, "a|b|c": None}


class TestDeterminism:
    def test_identical_runs_identical_bodies(self, table3_file, capsys):
        first = run_json(["recover", "--in", table3_file, "--numeric", "rational"], capsys, 0)
        second = run_json(["recover", "--in", table3_file, "--numeric", "rational"], capsys, 0)
        first.pop("timings")
        second.pop("timings")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_envelope_fields(self, table3_file, capsys):
        payload = run_json(["test-frum", "--in", table3_file], capsys, 0)
        assert set(payload) == {"command", "input_digest", "numeric_mode", "report", "timings"}
        assert payload["command"] == "test-frum"
        assert payload["numeric_mode"] == "float64"
        assert len(payload["input_digest"]) == 64

    def test_out_file(self, table3_file, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = run(["test-frum", "--in", table3_file, "--out", str(target)])
        assert code == 0
        assert json.loads(target.read_text())["report"]["accepted"] is True

    def test_cross_process_determinism(self, table3_file, tmp_path):
        # different hash seeds must not change any report body (set/dict
        # iteration feeding the output would show up here)
        import os
        import subprocess
        import sys

        # the child runs this checkout's package whether or not PYTHONPATH is set
        src = str(DATA_DIR.parents[1] / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "framechoice.cli",
                    "recover",
                    "--in",
                    table3_file,
                    "--numeric",
                    "rational",
                ],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            body = json.loads(proc.stdout)
            body.pop("timings")
            outputs.append(json.dumps(body, sort_keys=True))
        assert outputs[0] == outputs[1]
