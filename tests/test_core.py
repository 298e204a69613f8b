"""Parsing, validation, numeric policy, and frame encoding."""

import functools
import operator
import pickle
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from framechoice.core import (
    DataError,
    FLOAT64,
    RATIONAL,
    NumericPolicy,
    StochasticChoiceData,
    Universe,
    members,
    number_to_str,
    parse_deterministic,
    parse_stochastic,
    validate,
)
from framechoice.fluce import forward_fluce
from framechoice.polys import compute_bm, interim_y
from framechoice.sim import SimConfig, default_universe, sample_fluce


class TestUniverse:
    def test_basic(self):
        uni = Universe(("a", "b", "c"))
        assert uni.n == 3
        assert uni.full_frame == 0b111
        assert uni.frame("a|c") == 0b101
        assert uni.frame_str(0b101) == "a|c"
        assert uni.frame("") == 0

    def test_duplicate_labels_rejected(self):
        with pytest.raises(DataError):
            Universe(("a", "a"))

    def test_reserved_characters_rejected(self):
        with pytest.raises(DataError):
            Universe(("a|b",))
        with pytest.raises(DataError):
            Universe(("a,b",))
        with pytest.raises(DataError):
            Universe(("",))

    def test_size_cap(self):
        Universe(tuple(f"x{i}" for i in range(20)))
        with pytest.raises(DataError):
            Universe(tuple(f"x{i}" for i in range(21)))
        with pytest.raises(DataError):
            Universe(())

    def test_frame_sorted_labels(self):
        uni = Universe(("z", "a"))
        assert uni.frame_str(0b11) == "a|z"
        assert uni.frame("z|a") == 0b11


@given(st.integers(0, 2**20 - 1), st.integers(0, 2**20 - 1))
def test_symmetric_difference_is_xor(f1, f2):
    sym = set(members(f1)) ^ set(members(f2))
    assert set(members(f1 ^ f2)) == sym


class TestNumericPolicy:
    def test_rational_parses_decimals_exactly(self):
        assert RATIONAL.parse("0.45") == Fraction(9, 20)
        assert RATIONAL.parse("9/20") == Fraction(9, 20)

    def test_rational_arithmetic_is_exact(self):
        p = RATIONAL.parse
        assert p("0.7") - p("0.45") - p("0.45") + p("0.1") == Fraction(-1, 10)

    def test_float_tolerance(self):
        pol = NumericPolicy("float64", 1e-9)
        assert pol.is_close(1.0, 1.0 + 5e-10)
        assert not pol.is_close(1.0, 1.0 + 5e-9)
        assert pol.is_nonneg(-5e-10)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            NumericPolicy("decimal")
        with pytest.raises(ValueError):
            NumericPolicy("float64", -1.0)

    def test_number_rendering(self):
        assert number_to_str(Fraction(9, 20)) == "0.45"
        assert number_to_str(Fraction(1, 3)) == "1/3"
        assert number_to_str(Fraction(1)) == "1"
        assert number_to_str(0.25) == "0.25"


class TestParseStochastic:
    def test_two_alternative_parse(self):
        text = "frame,alternative,probability\n,a,0.7\n,b,0.3\na,a,0.8\na,b,0.2\n"
        data = parse_stochastic(text, FLOAT64)
        assert data.universe.names == ("a", "b")
        assert data.domain == (0, 1)
        assert data.probs[(0, 0)] == 0.7

    def test_frame_sum_error(self):
        text = "frame,alternative,probability\n,a,0.7\n,b,0.25\n"
        with pytest.raises(DataError, match="frame sum"):
            parse_stochastic(text, FLOAT64)

    def test_rational_mode_stores_exact(self):
        text = "frame,alternative,probability\n,a,0.45\n,b,0.55\n"
        data = parse_stochastic(text, RATIONAL)
        assert data.probs[(0, 0)] == Fraction(9, 20)

    def test_duplicate_row_rejected(self):
        text = "frame,alternative,probability\n,a,0.5\n,a,0.5\n"
        with pytest.raises(DataError, match="duplicate"):
            parse_stochastic(text, FLOAT64)

    def test_probability_out_of_range(self):
        text = "frame,alternative,probability\n,a,1.5\n,b,-0.5\n"
        with pytest.raises(DataError, match="outside"):
            parse_stochastic(text, FLOAT64)

    def test_unknown_label_with_explicit_universe(self):
        text = "# universe: a|b\nframe,alternative,probability\n,z,1.0\n"
        with pytest.raises(DataError, match="unknown alternative"):
            parse_stochastic(text, FLOAT64)

    def test_partial_frames_rejected_by_default(self):
        text = "# universe: a|b\nframe,alternative,probability\n,a,0.5\n"
        with pytest.raises(DataError, match="incomplete"):
            parse_stochastic(text, FLOAT64)
        data = parse_stochastic(text, FLOAT64, allow_partial=True)
        assert data.partial

    def test_partial_mass_cannot_exceed_one(self):
        text = "# universe: a|b|c\nframe,alternative,probability\n,a,0.7\n,b,0.7\n"
        with pytest.raises(DataError, match="exceeds"):
            parse_stochastic(text, FLOAT64, allow_partial=True)

    def test_bad_header(self):
        with pytest.raises(DataError, match="header"):
            parse_stochastic("foo,bar\n", FLOAT64)

    def test_roundtrip_identity_both_modes(self):
        text = (
            "frame,alternative,probability\n"
            ",a,0.7\n,b,0.3\nb,a,0.45\nb,b,0.55\na|b,a,0.25\na|b,b,0.75\n"
        )
        for policy in (FLOAT64, RATIONAL):
            first = parse_stochastic(text, policy)
            second = parse_stochastic(first.to_csv(), policy)
            assert dict(second.probs) == dict(first.probs)
            assert second.universe == first.universe
        # full domain at n = 6: every frame's text is parsed and rendered n times
        uni = default_universe(6)
        rule = sample_fluce(SimConfig(seed=6, n=6))
        for policy in (FLOAT64, RATIONAL):
            text = forward_fluce(rule, uni.frames(), policy).to_csv()
            first = parse_stochastic(text, policy)
            second = parse_stochastic(first.to_csv(), policy)
            assert first.full_domain and len(first.probs) == 6 << 6
            assert dict(second.probs) == dict(first.probs)
            assert second.universe == first.universe
            assert second.to_csv() == first.to_csv() == text

    def test_duplicate_label_in_frame_fails_every_time(self):
        # a failing frame string is not memoized: both rows and both parses raise
        text = "frame,alternative,probability\na|a,a,0.5\na|a,b,0.5\n"
        for _ in range(2):
            with pytest.raises(DataError, match=r"^duplicate label 'a' in frame$"):
                parse_stochastic(text, FLOAT64)
        uni = Universe(("a", "b"))
        for _ in range(2):
            with pytest.raises(DataError, match=r"^duplicate label 'a' in frame$"):
                uni.frame("a|a")

    def test_label_order_in_frame_is_one_frame(self):
        text = "# universe: a|b\nframe,alternative,probability\na|b,a,0.5\nb|a,a,0.5\n"
        with pytest.raises(DataError, match=r"^duplicate row for \('a', 'b\|a'\)$"):
            parse_stochastic(text, FLOAT64, allow_partial=True)

    def test_unknown_label_in_either_column(self):
        head = "# universe: a|b\nframe,alternative,probability\n"
        for body in ("a|z,a,1\n", "a|b,z,1\n"):
            for _ in range(2):
                with pytest.raises(DataError, match=r"^unknown alternative 'z'$"):
                    parse_stochastic(head + body, FLOAT64, allow_partial=True)

    def test_blanks_around_frame_labels_are_stripped(self):
        # as in the alternative column; a padded label is not a new alternative
        padded = parse_stochastic("frame,alternative,probability\nb | a,b,0.5\n", allow_partial=True)
        plain = parse_stochastic("frame,alternative,probability\na|b,b,0.5\n", allow_partial=True)
        assert padded.universe == plain.universe == Universe(("a", "b"))
        assert dict(padded.probs) == dict(plain.probs) == {(1, 0b11): 0.5}
        report = validate(padded).to_json_dict(padded.universe)
        assert report == validate(plain).to_json_dict(plain.universe)
        full = "frame,alternative,probability\n a | b ,a,0.4\nb|a, b ,0.6\n"
        assert dict(parse_stochastic(full).probs) == {(0, 0b11): 0.4, (1, 0b11): 0.6}
        with pytest.raises(DataError, match=r"^unknown alternative ''$"):
            Universe(("a", "b")).frame("a| |b")

    def test_blanks_around_header_labels_are_stripped(self):
        body = "frame,alternative,probability\n,a,0.25\n,b,0.75\n"
        padded = parse_stochastic("# universe: a | b\n" + body)
        plain = parse_stochastic("# universe: a|b\n" + body)
        assert padded.universe == plain.universe == Universe(("a", "b"))
        assert dict(padded.probs) == dict(plain.probs)
        det = parse_deterministic("#universe:  b |a \nframe,choice\n a ,b\n")
        assert det.universe == Universe(("b", "a")) and det.choices == {0b10: 0}
        with pytest.raises(DataError, match=r"^bad alternative label ''$"):
            parse_stochastic("# universe: a | |b\n" + body)

    def test_frame_memos_leave_identity_alone(self):
        used = Universe(("a", "b", "c"))
        assert used.frame("c|a") == 0b101
        assert used.frame_str(0b101) == "a|c"
        with pytest.raises(DataError):
            used.frame("a|q")
        fresh = Universe(("a", "b", "c"))
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
        copy = pickle.loads(pickle.dumps(used))
        assert copy == fresh and hash(copy) == hash(fresh) and repr(copy) == repr(fresh)
        assert copy.frame("c|a") == 0b101 and copy.frame_str(0b110) == "b|c"


class TestParseDeterministic:
    def test_table1_c2(self):
        text = "frame,choice\n,a\na,a\nb,b\na|b,a\n"
        data = parse_deterministic(text)
        assert data.choices[0] == 0
        assert data.choices[0b10] == 1
        assert data.choices[0b11] == 0

    def test_choice_outside_frame_is_fine(self):
        data = parse_deterministic("frame,choice\nb,a\n")
        assert data.choices[data.universe.frame("b")] == data.universe.index("a")

    def test_unknown_choice_with_explicit_universe(self):
        with pytest.raises(DataError, match="unknown alternative"):
            parse_deterministic("# universe: a|b\nframe,choice\n,z\n")

    def test_empty_body_with_universe(self):
        data = parse_deterministic("# universe: a|b\nframe,choice\n")
        assert data.domain == ()
        assert data.universe.n == 2

    def test_empty_body_without_universe_fails(self):
        with pytest.raises(DataError, match="cannot infer"):
            parse_deterministic("frame,choice\n")

    def test_duplicate_frame(self):
        with pytest.raises(DataError, match="duplicate"):
            parse_deterministic("frame,choice\na,a\na,b\n")

    def test_roundtrip(self):
        text = "frame,choice\n,a\na,a\nb,b\na|b,a\n"
        first = parse_deterministic(text)
        second = parse_deterministic(first.to_csv())
        assert dict(second.choices) == dict(first.choices)


class TestValidate:
    def _full_n3(self):
        uni = Universe(("a", "b", "c"))
        probs = {}
        for frame in range(8):
            probs[(0, frame)] = 0.5
            probs[(1, frame)] = 0.25
            probs[(2, frame)] = 0.25
        return StochasticChoiceData(uni, probs, FLOAT64)

    def test_full_domain_flags(self):
        report = validate(self._full_n3())
        assert report.full_domain
        assert report.contains_all_frames_up_to == {0: True, 1: True, 2: True, 3: True}
        assert report.positivity

    def test_small_domain_flags(self):
        uni = Universe(("a", "b", "c"))
        probs = {}
        for frame in (0, 0b001, 0b010, 0b100):
            for alt, p in ((0, 0.5), (1, 0.25), (2, 0.25)):
                probs[(alt, frame)] = p
        report = validate(StochasticChoiceData(uni, probs, FLOAT64))
        assert not report.full_domain
        assert report.contains_all_frames_up_to[0]
        assert report.contains_all_frames_up_to[1]
        assert not report.contains_all_frames_up_to[2]

    def test_positivity_flag(self):
        uni = Universe(("a", "b"))
        probs = {(0, 0): 1.0, (1, 0): 0.0, (0, 1): 1.0, (1, 1): 0.0}
        report = validate(StochasticChoiceData(uni, probs, FLOAT64))
        assert not report.positivity

    def test_json_shape(self):
        data = self._full_n3()
        payload = validate(data).to_json_dict(data.universe)
        assert set(payload) == {
            "frame_sums",
            "full_domain",
            "contains_all_frames_up_to",
            "positivity",
            "partial_frames",
        }
        assert payload["frame_sums"]["a|b|c"] == pytest.approx(1.0)


class TestFrameMatrix:
    def test_layout_of_a_partial_rule(self):
        uni = Universe(("a", "b", "c"))
        probs = {(2, 0b011): Fraction(1, 4), (0, 0b001): Fraction(1), (0, 0b011): Fraction(1, 2)}
        data = StochasticChoiceData(uni, probs, RATIONAL)
        assert data.domain == (0b001, 0b011)
        assert data.values.dtype == object
        assert data.values.tolist() == [[1, Fraction(1, 2)], [0, 0], [0, Fraction(1, 4)]]
        assert data.values[2, 1] is probs[(2, 0b011)]  # the caller's Fraction
        assert data.observed.tolist() == [[True, True], [False, False], [False, True]]
        assert data.partial and not data.full_domain
        assert not data.is_complete_frame(0b011) and not data.is_complete_frame(0b111)

    def test_matrix_takes_no_part_in_equality(self):
        uni = Universe(("a", "b"))
        forward = {(0, 0): 0.25, (1, 0): 0.75, (0, 1): 1.0, (1, 1): 0.0}
        backward = dict(reversed(forward.items()))
        one, two = StochasticChoiceData(uni, forward), StochasticChoiceData(uni, backward)
        assert one == two and "values" not in repr(one)
        assert one.values.dtype == np.float64
        assert one.values.tolist() == two.values.tolist() == [[0.25, 1.0], [0.75, 0.0]]

    def test_frame_sums_add_in_alternative_order(self):
        # one frame of ten cells: numpy's reduce adds a lone column pairwise
        # (1.0 here), while the report adds one alternative after another
        uni = default_universe(10)
        data = StochasticChoiceData(uni, {(a, uni.full_frame): 0.1 for a in range(10)})
        in_order = functools.reduce(operator.add, [0.1] * 10, 0)
        assert in_order != 1.0
        assert validate(data).frame_sums == {uni.full_frame: in_order}

    @pytest.mark.parametrize("policy", [FLOAT64, RATIONAL], ids=["float64", "rational"])
    def test_first_failing_frame_in_row_order_is_named(self, policy):
        # {b} sums to 0.9 and {a} to 1.1; whichever frame's first row comes
        # first is reported, here in both numeric modes
        rows = [("b", "a", "0.4"), ("a", "a", "0.6"), ("b", "b", "0.5"), ("a", "b", "0.5")]
        for order, frame, total in ((rows, "b", "0.9"), (rows[::-1], "a", "1.1")):
            text = "frame,alternative,probability\n" + "".join(",".join(r) + "\n" for r in order)
            with pytest.raises(DataError) as err:
                parse_stochastic(text, policy)
            assert str(err.value).startswith(f"frame sum for {frame!r} is {total}"), str(err.value)

    def test_queries_follow_the_per_frame_definitions(self):
        # random partial rules with shuffled rows, some zero cells, n = 1..9
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(1, 9)
            probs = {}
            for f in rng.sample(range(1 << n), rng.randint(0, min(1 << n, 40))):
                raw = [rng.choice((0, rng.random())) for _ in range(n)]
                raw[0] = raw[0] or 1.0
                for a in range(n):
                    if rng.random() < 0.9:
                        probs[(a, f)] = raw[a] / sum(raw)
            rows = list(probs.items())
            rng.shuffle(rows)
            data = StochasticChoiceData(default_universe(n), dict(rows))
            report = validate(data)
            frames = sorted({f for _, f in probs})
            complete = {f for f in frames if all((a, f) in probs for a in range(n))}
            for f in range(1 << n):
                assert data.is_complete_frame(f) == (f in complete)
            for k in range(-1, n + 2):
                small = [f for f in range(1 << n) if bin(f).count("1") <= k]
                assert data.contains_frames_up_to(k) == complete.issuperset(small), (probs, k)
            assert data.domain == tuple(frames)
            assert report.partial_frames == tuple(f for f in frames if f not in complete)
            assert report.positivity == all(p > 0 for p in probs.values())
            assert report.frame_sums == {
                f: functools.reduce(operator.add, [probs[a, f] for a in range(n) if (a, f) in probs], 0)
                for f in frames
            }

    def test_later_changes_to_the_input_dict_change_no_answer(self):
        uni = Universe(("a", "b"))
        probs = {
            (0, 0b00): 0.5, (1, 0b00): 0.5, (0, 0b01): 0.7, (1, 0b01): 0.3,
            (0, 0b10): 0.4, (1, 0b10): 0.6, (0, 0b11): 0.5, (1, 0b11): 0.5,
        }
        data = StochasticChoiceData(uni, probs)
        bm, report = compute_bm(data).values.tolist(), validate(data)
        probs[(0, 0b00)], probs[(1, 0b00)] = 0.9, 0.1
        assert data.rho(0, 0b00) == data.get(0, 0b00) == 0.5
        assert interim_y(data, 0, 0b00, 0b10) == 0.5 - 0.4
        assert compute_bm(data).values.tolist() == bm
        assert validate(data) == report

    def test_construction_keeps_no_reference_to_the_input(self):
        for policy in (FLOAT64, RATIONAL):
            probs = {(0, 0): policy.convert(0.25), (1, 0): policy.convert(0.75)}
            before = sys.getrefcount(probs)
            data = StochasticChoiceData(Universe(("a", "b")), probs, policy)
            assert sys.getrefcount(probs) == before
            assert dict(data.probs) == probs

    def test_probs_is_a_read_only_view_of_the_matrix(self):
        uni = Universe(("a", "b"))
        probs = {(1, 0b11): 0.6, (0, 0b01): 1.0, (0, 0b11): 0.4, (1, 0b10): 0.2}
        data = StochasticChoiceData(uni, probs)
        twin = StochasticChoiceData(uni, dict(reversed(probs.items())))
        assert dict(data.probs) == probs and data.probs == probs
        with pytest.raises(TypeError):
            data.probs[(0, 0b01)] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            data.values[0, 0] = 0.5
        probs[(0, 0b01)] = 0.5
        del probs[(1, 0b10)]
        assert data.probs[(0, 0b01)] == 1.0 and (1, 0b10) in data.probs
        assert data == twin and repr(data) == repr(twin)
        # frame then alternative, the order to_csv writes
        assert list(data.probs) == [(0, 0b01), (1, 0b10), (0, 0b11), (1, 0b11)]
        assert list(data.probs.values()) == [1.0, 0.2, 0.4, 0.6]
        assert len(data.probs) == len(data.probs.items()) == 4
        assert data.probs.keys() & {(1, 0b10), (1, 0b01)} == {(1, 0b10)}
        assert ((1, 0b11), 0.6) in data.probs.items() and 0.2 in data.probs.values()
        with pytest.raises(KeyError):
            data.probs[(1, 0b01)]

    def test_get_and_rho_answer_every_cell_as_given(self):
        rng = random.Random(6)
        for policy in (FLOAT64, RATIONAL):
            for _ in range(50):
                n = rng.randint(1, 4)
                probs = {}
                for f in rng.sample(range(1 << n), rng.randint(0, 1 << n)):
                    alts = rng.sample(range(n), rng.randint(0, n))
                    for a in alts:  # a complete frame sums to one, a partial one to at most one
                        share = Fraction(10 if len(alts) == n else rng.randint(0, 10), 10 * n)
                        probs[(a, f)] = policy.convert(share)
                data = StochasticChoiceData(default_universe(n), probs, policy)
                assert data.probs == probs
                assert list(data.probs) == sorted(probs, key=lambda cell: cell[::-1])
                for a in range(-1, n + 1):
                    for f in range(-1, (1 << n) + 1):
                        assert data.get(a, f) == probs.get((a, f))
                        assert ((a, f) in data.probs) == ((a, f) in probs)
                        if (a, f) in probs:
                            assert data.rho(a, f) == probs[(a, f)]
                            assert type(data.rho(a, f)) is type(probs[(a, f)])
                        elif 0 <= a < n and 0 <= f < 1 << n:
                            with pytest.raises(DataError, match="no observation"):
                                data.rho(a, f)


def test_dataset_json_fields(intro_full_rational):
    payload = intro_full_rational.to_json_dict()
    assert payload["universe"] == ["a", "b", "c"]
    assert {"frame", "alternative", "p"} == set(payload["probs"][0])
    assert len(payload["probs"]) == 24


def test_mode_mismatch_rejected():
    uni = Universe(("a",))
    with pytest.raises(DataError, match="numeric mode"):
        StochasticChoiceData(uni, {(0, 0): 1.0}, RATIONAL)
    with pytest.raises(DataError, match="numeric mode"):
        StochasticChoiceData(uni, {(0, 0): Fraction(1)}, FLOAT64)
