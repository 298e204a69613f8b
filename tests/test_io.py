"""CSV reading and report writing against their one-row-at-a-time oracles.

The program splits an unquoted CSV body in bulk and builds the frame matrix
from columns; it writes records and CSV rows column by column.  The oracles in
``tests/oracles.py`` read with ``csv.reader`` one row at a time and write one
dict per record, so every test here asks for the same dataset, the same error
message or the same bytes.
"""

import json
import random
from fractions import Fraction

import pytest

from framechoice.core import (
    FLOAT64,
    RATIONAL,
    RECORD_BLOCK,
    DataError,
    DeterministicChoiceData,
    NumericPolicy,
    Records,
    StochasticChoiceData,
    Universe,
    dumps_json,
    number_to_json,
    number_to_str,
    parse_deterministic,
    parse_stochastic,
    validate,
)
from framechoice.frum import BMViolation, DualCertificate, FrumVerdict, test_frum
from framechoice.polys import compute_bm, export_hasse
from framechoice.sim import SimConfig, perturb

from oracles import (
    oracle_certificate_json,
    oracle_check_cells,
    oracle_csv,
    oracle_dataset_json,
    oracle_hasse_json,
    oracle_parse_deterministic,
    oracle_parse_stochastic,
    oracle_table_json,
    oracle_verdict_json,
)

POLICIES = [FLOAT64, RATIONAL]
# labels that csv must quote, json must escape, or neither
LABELS = ["a", "b", "c", 'x"y', "back\\slash", "é", "日本", "d e"]
STOCHASTIC_HEAD = "frame,alternative,probability"


def _outcome(parse, *args):
    """The parsed value, or the kind and message of what was raised."""
    try:
        return "ok", parse(*args)
    except Exception as exc:  # noqa: BLE001 - the oracle must fail the same way, whatever the kind
        return type(exc).__name__, str(exc)


def _same(ours, theirs) -> None:
    assert ours[0] == theirs[0], (ours, theirs)
    if ours[0] != "ok":
        assert ours[1] == theirs[1]
        return
    got, want = ours[1], theirs[1]
    assert got == want
    assert got.to_csv() == want.to_csv()  # also tells -0.0 from 0.0, and a float from a Fraction


def _field(rng: random.Random, text: str) -> str:
    """A field as a hand-written CSV might hold it: padded, quoted, or as is."""
    pad = rng.choice(["", "", "", " ", "\t", " \x1f"])
    text = pad + text + rng.choice(["", "", pad])
    if '"' in text or "," in text or rng.random() < 0.01:
        return '"' + text.replace('"', '""') + '"'
    return text


def _literal(rng: random.Random, p: Fraction) -> str:
    """A literal of ``p`` in some spelling, now and then a faulty one."""
    roll = rng.random()
    if roll < 0.03:
        return rng.choice(["x", "", "nan", "1_0", "0x1", "1/0", "inf", "--1", "1e999999"])
    if roll < 0.2:
        return f"{p.numerator}/{p.denominator}"
    if roll < 0.25 and p.denominator == 1:
        return f"{p.numerator}_0" if p else "0_0"
    return number_to_str(p) if rng.random() < 0.7 else repr(float(p))


def _stochastic_text(rng: random.Random) -> str:
    n = rng.randint(1, 3)
    names = rng.sample(LABELS, n)
    frames = rng.sample(range(1 << n), rng.randint(1, 1 << n))
    rows = []
    for frame in frames:
        alts = list(range(n)) if rng.random() < 0.8 else rng.sample(range(n), rng.randint(1, n))
        shares = [rng.randint(0, 4) for _ in alts]
        total = sum(shares) or 1
        members = [names[i] for i in range(n) if frame >> i & 1]
        rng.shuffle(members)
        frame_s = "|".join(rng.choice(["", " "]) + m for m in members)
        for alt, share in zip(alts, shares):
            p = Fraction(share, total) if sum(shares) else Fraction(1, len(alts))
            rows.append([frame_s, names[alt], _literal(rng, p)])
    rng.shuffle(rows)
    roll = rng.random()
    if roll < 0.1 and rows:  # a duplicate row
        rows.insert(rng.randrange(len(rows) + 1), list(rng.choice(rows)))
    elif roll < 0.15:  # an unknown label or a repeated one in a frame
        rows.append([rng.choice(["zz", "a|a", "b|zz"]), rng.choice(names), "0.5"])
    elif roll < 0.2 and len(rows) > 1:  # a 4-field row balanced by a 2-field row
        i, j = rng.sample(range(len(rows)), 2)
        rows[i], rows[j] = rows[i] + ["0"], rows[j][:2]
    elif roll < 0.22:
        rows.append([names[0], "", "1"])
    lines = [",".join(_field(rng, cell) for cell in row) for row in rows]
    header = ",".join(rng.choice(["", " "]) + h for h in STOCHASTIC_HEAD.split(","))
    return _assemble(rng, names, header, lines)


def _assemble(rng: random.Random, names: list[str], header: str, lines: list[str]) -> str:
    """Header and rows, with comments, blank lines and a ``# universe:`` line strewn about."""
    universe = None
    roll = rng.random()
    if roll < 0.5:
        universe = "|".join(rng.sample(names, len(names)))
    elif roll < 0.55:
        universe = "|".join(names[:-1]) or "zz"
    out = [header, *lines]
    for _ in range(rng.randint(0, 3)):
        extra = rng.choice(["", "   ", "# note", "  # indented, with a comma", "#"])
        out.insert(rng.randrange(len(out) + 1), extra)
    if universe is not None:
        comment = rng.choice(["# universe: ", "#universe:", "  # Universe : "]) + universe
        out.insert(rng.randrange(len(out) + 1), comment)  # before or after the data
    end = rng.choice(["\n", "\r\n", "\n", "\r"])
    return end.join(out) + rng.choice(["", end])


# the two-fault files of the fault-order tests and the corpus's bad inputs
FAULT_BODIES = [
    ",a,x\n,z,0.5\n",
    "a|a,a,0.5\n,z,0.5\n",
    ",a,0.5\n,a,0.5\nb|b,b,0.5\n",
    ",a,x\na|a,b,0.5\n",
    ",a,0.5\n,a,x\n",
    ",a,x\n,a,0.5\n",
    ",a,1.5\n,b,-0.5\n",
    "b,a,0.4\nb,b,0.5\na,a,0.6\na,b,0.5\n,a,0.5\n,b,0.5\n",
    "a,a,0.7\na,b,0.6\n",
    ",a,0.5,0\n,b\n",  # a 4-field row balanced by a 2-field row
    ",a,0.5\n,b\n",
    ',"a,b",1\n',
]


class TestReader:
    @pytest.mark.parametrize("policy", POLICIES, ids=["float", "rational"])
    def test_fuzz_matches_the_row_by_row_reader(self, policy):
        rng = random.Random(21 + policy.exact)
        kinds = set()
        for _ in range(400):
            text = _stochastic_text(rng)
            partial = rng.random() < 0.5
            ours = _outcome(parse_stochastic, text, policy, partial)
            _same(ours, _outcome(oracle_parse_stochastic, text, policy, partial))
            kinds.add((ours[0] if ours[0] != "DataError" else ours[1].split()[0], '"' in text))
        # the draws reach both readers, datasets and several kinds of fault
        assert {("ok", False), ("ok", True)} <= kinds
        assert {"bad", "duplicate", "unknown", "row"} <= {kind for kind, _ in kinds}

    @pytest.mark.parametrize("policy", POLICIES, ids=["float", "rational"])
    @pytest.mark.parametrize("body", FAULT_BODIES)
    def test_fault_files(self, policy, body):
        for head in ("# universe: a|b\n", "# universe: a|b|c\n", ""):
            text = head + STOCHASTIC_HEAD + "\n" + body
            for partial in (False, True):
                ours = _outcome(parse_stochastic, text, policy, partial)
                _same(ours, _outcome(oracle_parse_stochastic, text, policy, partial))

    def test_float_literals_take_the_per_cell_path_alike(self):
        # p/q, digits with an underscore, nan, and blanks that float() keeps but strip() drops
        for literal in ("1/2", " 1/2 ", "5_0e-2", "nan", "\x1f0.5", "0.5\x1f", "　0.5", "1/0"):
            text = f"# universe: a|b\n{STOCHASTIC_HEAD}\n,a,{literal}\n,b,0.5\n"
            for partial in (False, True):
                ours = _outcome(parse_stochastic, text, FLOAT64, partial)
                _same(ours, _outcome(oracle_parse_stochastic, text, FLOAT64, partial))

    def test_deterministic_fuzz(self):
        rng = random.Random(2121)
        for _ in range(300):
            n = rng.randint(1, 3)
            names = rng.sample(LABELS, n)
            rows = []
            for frame in rng.sample(range(1 << n), rng.randint(1, 1 << n)):
                members = "|".join(names[i] for i in range(n) if frame >> i & 1)
                rows.append([members, rng.choice(names)])
            if rng.random() < 0.15:
                rows.append(list(rng.choice(rows)))
            if rng.random() < 0.1:
                rows.append(["zz", names[0]] if rng.random() < 0.5 else [names[0], "zz"])
            if rng.random() < 0.1:
                rows[0] = rows[0] + ["x"]
            rng.shuffle(rows)
            lines = [",".join(_field(rng, cell) for cell in row) for row in rows]
            text = _assemble(rng, names, "frame,choice", lines)
            ours, theirs = _outcome(parse_deterministic, text), _outcome(oracle_parse_deterministic, text)
            assert ours[0] == theirs[0] and (ours[1] == theirs[1]), (text, ours, theirs)
            if ours[0] == "ok":
                assert ours[1].to_csv() == theirs[1].to_csv()


def _dataset(policy: NumericPolicy, seed: int, n: int = 3) -> StochasticChoiceData:
    """A full-domain rule over awkward labels; rejected, so it has violations."""
    rng = random.Random(seed)
    uni = Universe(tuple(rng.sample(LABELS, n)))
    probs = {}
    for frame in range(1 << n):
        shares = [rng.randint(1, 9) for _ in range(n)]
        for alt, share in enumerate(shares):
            probs[(alt, frame)] = policy.convert(Fraction(share, sum(shares)))
    return StochasticChoiceData(uni, probs, policy)


def _drop_frame(data: StochasticChoiceData, frame: int) -> StochasticChoiceData:
    cells = {key: p for key, p in data.probs.items() if key[1] != frame}
    return StochasticChoiceData(data.universe, cells, data.policy)


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


BIG = 2**64 + 13  # a denominator above 2^63: no int64 holds it


class TestRationalFaults:
    """Rational mode reads each distinct literal once and checks cells and sums on integers."""

    def _fault(self, body: str, partial: bool = False, head: str = "") -> str:
        text = head + STOCHASTIC_HEAD + "\n" + body
        ours = _outcome(parse_stochastic, text, RATIONAL, partial)
        _same(ours, _outcome(oracle_parse_stochastic, text, RATIONAL, partial))
        assert ours[0] == "DataError"
        return ours[1]

    def test_first_faulty_cell_is_named(self):
        cells = [",a,1/2", ",b,1/2", "a,a,4/3", "a,b,-1/3"]
        body = "\n".join(cells) + "\n"
        assert self._fault(body) == "probability 4/3 for ('a', 'a') outside [0,1]"
        body = "\n".join(cells[:2] + cells[:1:-1]) + "\n"
        assert self._fault(body) == "probability -1/3 for ('b', 'a') outside [0,1]"
        assert self._fault(f",a,{BIG + 1}/{BIG}\n,b,0\n") == (
            f"probability {BIG + 1}/{BIG} for ('a', '') outside [0,1]"
        )

    def test_frame_sum_names_the_exact_total(self):
        assert self._fault(",a,1/3\n,b,1/3\n,c,1/4\n") == "frame sum for '' is 11/12, expected 1"
        assert self._fault("b,a,0.4\nb,b,0.5\na,a,0.6\na,b,0.5\n") == (
            "frame sum for 'b' is 0.9, expected 1"
        )
        # a sum above 1 by 1/BIG, then a frame short of 1 by one part in 2^70
        total = Fraction(1, 2) + Fraction(BIG // 2 + 1, BIG)
        body = f",a,1/2\n,b,{BIG // 2 + 1}/{BIG}\na,a,1/2\na,b,{2**69 - 1}/{2**70}\n"
        assert self._fault(body) == f"frame sum for '' is {number_to_str(total)}, expected 1"
        assert number_to_str(total) == f"{2 * BIG + 1}/{2 * BIG}"
        total = Fraction(1, 2) + Fraction(2**69 - 1, 2**70)
        assert self._fault(body.replace(f"{BIG // 2 + 1}/{BIG}", "1/2")) == (
            f"frame sum for 'a' is {number_to_str(total)}, expected 1"
        )

    def test_partial_frame_mass_above_one(self):
        head = "# universe: a|b|c\n"
        message = "observed mass 7/6 at partial frame 'a' exceeds 1"
        assert self._fault("a,a,2/3\na,b,1/2\n", True, head) == message
        assert self._fault("b,a,1/3\nb,b,2/3\na,a,2/3\na,b,1/2\n", True, head) == message
        # of two failing frames, the one whose first row comes first
        body = "a,a,2/3\nb,a,1/2\nb,b,1/3\nb,c,1/3\na,b,1/2\n"
        assert self._fault(body, True, head) == message
        body = f"a,a,1/{BIG}\na,b,{BIG - 1}/{BIG}\n,a,1\n"
        data = parse_stochastic(head + STOCHASTIC_HEAD + "\n" + body, RATIONAL, allow_partial=True)
        assert data.partial and validate(data).frame_sums == {0b000: 1, 0b001: 1}

    def test_repeated_bad_literal_is_reported_at_its_first_row(self):
        # 'x' comes first and recurs after 'y'; 'y' alone would be named otherwise
        assert self._fault(",a,x\n,b,y\na,a,x\n") == "bad number literal 'x'"
        assert self._fault(",a,0.5\n,b,y\na,a,x\na,b,y\n") == "bad number literal 'y'"
        # before a later duplicate row, after an earlier one
        assert self._fault(",a,x\n,a,0.5\n,b,x\n") == "bad number literal 'x'"
        assert self._fault(",a,0.5\n,a,x\n,b,x\n") == "duplicate row for ('a', '')"
        assert self._fault(",a,0.5\n,b,0.5\n,a,0.5\na,a,x\n") == "duplicate row for ('a', '')"

    def test_each_distinct_literal_parses_once(self, monkeypatch):
        seen = []
        parse = NumericPolicy.parse
        monkeypatch.setattr(
            NumericPolicy, "parse", lambda self, text: seen.append(text) or parse(self, text)
        )
        uni = Universe(("a", "b"))
        rows = [
            f"{uni.frame_str(f)},{uni.names[a]},{['1/4', '3/4'][(f + a) % 2]}\n"
            for f in range(4)
            for a in range(2)
        ]
        data = parse_stochastic(STOCHASTIC_HEAD + "\n" + "".join(rows), RATIONAL)
        assert seen == ["1/4", "3/4"]
        assert data.rho(0, 0) == data.rho(1, 0b11) == Fraction(1, 4)

    def test_denominators_above_int64(self):
        uni = Universe(("a", "b"))
        probs = {}
        for frame in range(4):
            share = Fraction(frame + 1, BIG)
            probs[(0, frame)], probs[(1, frame)] = share, 1 - share
        text = StochasticChoiceData(uni, probs, RATIONAL).to_csv()
        assert f"/{BIG}" in text
        data = parse_stochastic(text, RATIONAL)
        assert dict(data.probs) == probs
        assert validate(data).frame_sums == {frame: 1 for frame in range(4)}
        table = compute_bm(data)
        assert table.values.dtype == object and table.denominator == 1
        assert table.y(0, 0) == probs[(0, 0)] - probs[(0, 0b10)]

    def test_validate_sums_as_fractions_add(self):
        rng = random.Random(22)
        for n in (1, 2, 3):
            uni = Universe(tuple("abc"[:n]))
            probs = {}
            for frame in range(1 << n):
                alts = [alt for alt in range(n) if rng.random() < 0.7]
                for alt in alts:
                    bottom = rng.choice([3, 7, 2**40, BIG])
                    probs[(alt, frame)] = Fraction(rng.randint(0, bottom // n), bottom)
                if len(alts) == n:  # a complete frame sums to 1
                    probs[(n - 1, frame)] += 1 - sum(probs[(alt, frame)] for alt in alts)
            data = StochasticChoiceData(uni, probs, RATIONAL)
            report = validate(data)
            expected = {
                f: sum((p for (a, g), p in probs.items() if g == f), Fraction(0)) for f in data.domain
            }
            assert report.frame_sums == expected
            assert all(type(total) is Fraction for total in report.frame_sums.values())
            assert dumps_json(report.to_json_dict(uni)) == dumps_json(
                {**report.to_json_dict(uni), "frame_sums": {
                    uni.frame_str(f): number_to_str(t) for f, t in sorted(expected.items())
                }}
            )


class TestWriters:
    @pytest.mark.parametrize("policy", POLICIES, ids=["float", "rational"])
    @pytest.mark.parametrize("seed", range(4))
    def test_reports_match_dict_records(self, policy, seed):
        data = _dataset(policy, seed, n=3 + seed % 2)
        uni = data.universe
        table = compute_bm(data)
        full = test_frum(data)
        interim = test_frum(_drop_frame(data, 1 << 0))
        assert full.violations and interim.violations
        assert all(v.upper_frame is not None for v in interim.violations)
        mixed = FrumVerdict(False, True, full.violations[:2] + interim.violations[:2], None)
        cases = [
            (data.to_json_dict(), oracle_dataset_json(data)),
            (table.to_json_dict(), oracle_table_json(table)),
            (export_hasse(table).to_json_dict(), oracle_hasse_json(export_hasse(table))),
        ]
        cases += [(v.to_json_dict(uni), oracle_verdict_json(v, uni)) for v in (full, interim, mixed)]
        for ours, oracle in cases:
            assert ours == oracle  # to_json_dict still compares equal to the record lists
            assert dumps_json(ours) == _canonical(oracle)
            assert dumps_json({"report": ours, "timings": {"total_ms": 1.5}}) == _canonical(
                {"report": oracle, "timings": {"total_ms": 1.5}}
            )

    def test_certificates_and_odd_numbers(self):
        uni = Universe(('x"y', "日本", "back\\slash"))
        coefficients = ((0, 0, Fraction(-1, 3)), (2, 5, Fraction(7, 4)), (1, 7, Fraction(0)))
        cert = DualCertificate(coefficients, Fraction(1, 3))
        assert cert.to_json_dict(uni) == oracle_certificate_json(cert, uni)
        assert dumps_json(cert.to_json_dict(uni)) == _canonical(oracle_certificate_json(cert, uni))
        empty = DualCertificate((), Fraction(1))
        assert dumps_json(empty.to_json_dict(uni)) == _canonical(oracle_certificate_json(empty, uni))
        # non-finite floats, a float next to a Fraction, an int: written as json writes them
        odd = [float("nan"), float("-inf"), -0.0, 1e-300, Fraction(1, 3), 2]
        violations = tuple(BMViolation("q", 0, 1 << 0, v) for v in odd)
        verdict = FrumVerdict(False, True, violations, None)
        assert dumps_json(verdict.to_json_dict(uni)) == _canonical(oracle_verdict_json(verdict, uni))
        floats = FrumVerdict(False, True, violations[:4], None)  # floats alone, some not finite
        assert dumps_json(floats.to_json_dict(uni)) == _canonical(oracle_verdict_json(floats, uni))
        records = verdict.to_json_dict(uni)["violations"]
        assert list(records)[1:3] == oracle_verdict_json(verdict, uni)["violations"][1:3]
        assert len(records) == len(odd) and records[-1]["value"] == 2.0

    @pytest.mark.parametrize("policy", POLICIES, ids=["float", "rational"])
    def test_to_csv_matches_csv_writer(self, policy):
        data = perturb(_dataset(policy, 7), SimConfig(seed=3, n=3, noise=0.01))
        uni = data.universe
        cells = sorted(data.probs.items(), key=lambda cell: cell[0][::-1])
        rows = [[uni.frame_str(f), uni.names[a], number_to_str(p)] for (a, f), p in cells]
        text = data.to_csv()
        # the empty frame, a lone empty field on its own line, is written empty inside the row
        assert text == oracle_csv(uni, ["frame", "alternative", "probability"], rows)
        assert "\n," in text
        assert parse_stochastic(text, policy) == data  # quoted: read back through csv

    def test_deterministic_writers(self):
        uni = Universe(('x"y', "é", "a"))
        choices = {0: 0, 0b001: 2, 0b011: 1, 0b111: 0}
        data = DeterministicChoiceData(uni, choices)
        rows = [[uni.frame_str(f), uni.names[c]] for f, c in sorted(choices.items())]
        assert data.to_csv() == oracle_csv(uni, ["frame", "choice"], rows)
        records = [{"frame": frame, "choice": choice} for frame, choice in rows]
        assert data.to_json_dict()["choices"] == records
        oracle = {"universe": list(uni.names), "frames": [r[0] for r in rows], "choices": records}
        assert dumps_json(data.to_json_dict()) == _canonical(oracle)
        assert parse_deterministic(data.to_csv()) == data


def _numbers(kind: str, count: int, rng: random.Random) -> list:
    """A number column of ``count`` values: finite floats, floats with non-finite ones, or Fractions."""
    if kind == "floats":
        return [rng.uniform(-1, 1) * 10 ** rng.randint(-300, 300) for _ in range(count)]
    if kind == "nonfinite":
        odd = [float("nan"), float("inf"), float("-inf"), -0.0]
        return [odd[i % 4] if i % 3 == 0 else rng.random() for i in range(count)]
    if kind == "shared_fractions":  # a few objects, each repeated
        shared = [Fraction(1, 3), Fraction(-7, 8), Fraction(5), Fraction(1, 2**70)]
        return [shared[rng.randrange(4)] for _ in range(count)]
    return [Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(count)]  # distinct objects


class TestRecordsWriter:
    """``Records.to_json`` writes the bytes that ``json.dumps`` writes for the records as dicts."""

    @staticmethod
    def _check(records: Records) -> None:
        assert records.to_json() == json.dumps(list(records), sort_keys=True, separators=(",", ":"))

    @pytest.mark.parametrize("count", [0, 1, RECORD_BLOCK - 1, RECORD_BLOCK, RECORD_BLOCK + 1])
    @pytest.mark.parametrize("key", ["a", "b", "z"])  # the number column sorts first, in the middle, last
    @pytest.mark.parametrize("kind", ["floats", "nonfinite", "shared_fractions", "fractions"])
    def test_counts_and_number_column_position(self, count, key, kind):
        rng = random.Random(count)
        uni = Universe(tuple(LABELS))  # labels that json must escape among them
        alts = [rng.randrange(uni.n) for _ in range(count)]
        frames = [rng.randrange(1 << uni.n) for _ in range(count)]
        self._check(Records.cells(uni, alts, frames, _numbers(kind, count, rng), key))

    @pytest.mark.parametrize("count", [1, RECORD_BLOCK + 2])
    def test_two_number_columns(self, count):
        rng = random.Random(7)
        uni = Universe(tuple(LABELS))
        self._check(Records({
            "alternative": ([rng.randrange(uni.n) for _ in range(count)], uni.names.__getitem__),
            "p": (_numbers("floats", count, rng), number_to_json),
            "q": (_numbers("shared_fractions", count, rng), number_to_json),
            "tag\"": (["k\u00e9y"] * count, str),
        }))


class TestConstructorErrors:
    N = 8  # 2,048 cells

    def _probs(self, policy: NumericPolicy) -> dict:
        share = policy.convert(Fraction(1, self.N))
        return {(alt, frame): share for frame in range(1 << self.N) for alt in range(self.N)}

    @pytest.mark.parametrize("policy", POLICIES, ids=["float", "rational"])
    def test_first_faulty_cell_in_the_callers_order(self, policy):
        uni = Universe(tuple(f"L{i}" for i in range(self.N)))
        wrong_type = Fraction(1, 2) if not policy.exact else 0.5
        faults = [
            ("key", (self.N, 3), "alternative index 8 out of range"),
            ("key", (-1, 3), "alternative index -1 out of range"),
            ("key", (2, 1 << self.N), "frame mask 256 out of range"),
            ("key", (2, -1), "frame mask -1 out of range"),
            ("key", (-0.5, 3), "alternative index -0.5 out of range"),
            ("value", policy.convert(Fraction(3, 2)), "probability 1.5 for ('L"),
            ("value", policy.convert(Fraction(-1, 2)), "probability -0.5 for ('L"),
            ("value", wrong_type, "probability representation does not match numeric mode"),
        ]
        if not policy.exact:
            faults.append(("value", float("nan"), "probability nan for ('L"))
        for kind, bad, message in faults:
            for where in ("first", "last", "both"):
                cells = list(self._probs(policy).items())
                spots = {"first": [0], "last": [-1], "both": [0, -1]}[where]
                for i in spots:
                    key, p = cells[i]
                    cells[i] = (bad, p) if kind == "key" else (key, bad)
                probs = dict(cells)
                with pytest.raises(DataError) as info:
                    StochasticChoiceData(uni, probs, policy)
                assert str(info.value).startswith(message), (kind, bad, where)
                with pytest.raises(DataError) as expected:
                    oracle_check_cells(uni, probs, policy)
                assert str(info.value) == str(expected.value)

    def test_faults_of_different_kinds_report_the_earliest_cell(self):
        uni = Universe(tuple(f"L{i}" for i in range(self.N)))
        cells = list(self._probs(FLOAT64).items())
        cells[5] = (cells[5][0], 1.5)
        cells[9] = ((self.N, 9), 0.5)
        with pytest.raises(DataError, match=r"^probability 1\.5 for \('L5', ''\) outside \[0,1\]$"):
            StochasticChoiceData(uni, dict(cells), FLOAT64)
        cells[2] = ((0, -4), 0.5)
        with pytest.raises(DataError, match=r"^frame mask -4 out of range$"):
            StochasticChoiceData(uni, dict(cells), FLOAT64)

    def test_tolerance_band_as_the_scalar_checks(self):
        # a lone cell of a partial frame: only the [0, 1] check can fail on it
        uni = Universe(("a", "b"))
        for eps in (1e-9, 0.0, 1e-3):
            policy = NumericPolicy("float64", eps)
            for p in (0.0, -0.0, 1.0, -eps, -eps * 1.0000001, 1 + eps / 2, 1 + eps, 1 + 2 * eps, 5e-324):
                try:
                    oracle_check_cells(uni, {(0, 0): p}, policy)
                except DataError as exc:
                    with pytest.raises(DataError, match="outside"):
                        StochasticChoiceData(uni, {(0, 0): p}, policy)
                    assert str(exc).startswith("probability")
                else:
                    try:
                        StochasticChoiceData(uni, {(0, 0): p}, policy)
                    except DataError as exc:
                        assert "outside" not in str(exc), (eps, p)

    def test_what_no_check_names_still_fails_as_before(self):
        uni = Universe(("a", "b"))
        for probs in ({(0, 0): "0.5", (1, 0): 0.5}, {(0, 0): 0.5, (1, 2**70): 0.5}):
            with pytest.raises(Exception) as ours:
                StochasticChoiceData(uni, probs, FLOAT64)
            with pytest.raises(Exception) as theirs:
                oracle_check_cells(uni, probs, FLOAT64)
            assert (type(ours.value), str(ours.value)) == (type(theirs.value), str(theirs.value))
        # an int or a bool where a float is expected passes, as before
        data = StochasticChoiceData(uni, {(0, 0): 1, (1, 0): False}, FLOAT64)
        assert dict(data.probs) == {(0, 0): 1.0, (1, 0): 0.0}
        # a float key inside the range is no longer cut to an int: it is refused
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            StochasticChoiceData(uni, {(0.0, 0): 0.5, (1, 0): 0.5}, FLOAT64)
