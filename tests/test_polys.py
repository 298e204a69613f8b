"""Polynomial tables: goldens, transform equivalence, flow conservation."""

import random
import re
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framechoice import polys
from framechoice.core import (
    DataError,
    FLOAT64,
    RATIONAL,
    StochasticChoiceData,
    Universe,
    dumps_json,
    submasks,
)
from framechoice.fluce import FLuceParams, forward_fluce
from framechoice.frum import TypeDistribution, forward_frum, test_frum
from framechoice.detfum import enumerate_types
from framechoice.polys import (
    compute_bm,
    export_hasse,
    interim_q,
    interim_y,
)
from framechoice.sim import default_universe

from conftest import AB, A, B, EMPTY, random_rho, table3_data
from oracles import flow_residuals, naive_bm


class TestGoldens:
    def test_intro_leak_value_rational(self, intro_full_rational):
        table = compute_bm(intro_full_rational)
        assert table.y(0, EMPTY) == Fraction(-1, 10)

    def test_intro_leak_value_float(self, intro_full_float):
        table = compute_bm(intro_full_float)
        assert table.y(0, EMPTY) == pytest.approx(-0.1, abs=1e-12)

    def test_second_framed_value(self, second_full_rational):
        table = compute_bm(second_full_rational)
        assert table.q(0, 0b001) == Fraction(-1, 10)

    def test_table3_symbolic_values(self):
        lam, gam = Fraction(2, 5), Fraction(3, 5)
        table = compute_bm(table3_data(lam, gam))
        assert table.q(0, AB) == lam
        assert table.q(1, AB) == 1 - lam
        assert table.q(0, A) == Fraction(7, 10) - lam
        assert table.q(1, B) == lam - Fraction(1, 10)
        assert table.y(0, B) == Fraction(1, 10)
        assert table.y(1, A) == Fraction(3, 10)
        assert table.y(0, EMPTY) == gam - Fraction(1, 10)
        assert table.y(1, EMPTY) == Fraction(7, 10) - gam

    def test_incomplete_domain_rejected(self, intro_partial_n3):
        with pytest.raises(DataError, match="every frame"):
            compute_bm(intro_partial_n3)


def q_items(table) -> list[tuple]:
    """(alternative, frame, value) over all framed slots, in stable order."""
    return list(zip(*table.columns(table.framed)))


def y_items(table) -> list[tuple]:
    """(alternative, frame, value) over all non-framed slots, in stable order."""
    return list(zip(*table.columns(~table.framed)))


def supersets(mask: int, n: int):
    """All supersets of ``mask`` within an n-element universe."""
    for extra in submasks(((1 << n) - 1) & ~mask):
        yield mask | extra


class TestTransformEquivalence:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_fast_matches_naive_float(self, n):
        rng = random.Random(100 + n)
        data = random_rho(default_universe(n), rng, FLOAT64)
        fast, slow = compute_bm(data), naive_bm(data)
        for alt, frame, value in q_items(fast):
            assert abs(value - slow[alt, frame]) <= 4 * data.policy.eps
        for alt, frame, value in y_items(fast):
            assert abs(value - slow[alt, frame]) <= 4 * data.policy.eps

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_fast_matches_naive_exactly_rational(self, n):
        rng = random.Random(200 + n)
        data = random_rho(default_universe(n), rng, RATIONAL)
        fast, slow = compute_bm(data), naive_bm(data)
        assert q_items(fast) == [(a, f, v) for (a, f), v in slow.items() if f >> a & 1]
        assert y_items(fast) == [(a, f, v) for (a, f), v in slow.items() if not f >> a & 1]


def _assert_reconstruction(data):
    n = data.universe.n
    table = compute_bm(data)
    for alt in range(n):
        bit = 1 << alt
        for frame in range(1 << n):
            if frame & bit:
                total = sum(table.q(alt, up) for up in supersets(frame, n))
            else:
                total = sum(
                    table.y(alt, up) for up in supersets(frame, n) if not up & bit
                )
            assert total == data.probs[(alt, frame)]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 4))
def test_reconstruction_inverts_transform(seed, n):
    # rho(a,F) = sum of q(a,B) over supersets B of F containing a's slot,
    # and the leak-side analogue over supersets avoiding a
    _assert_reconstruction(random_rho(default_universe(n), random.Random(seed), RATIONAL))


@pytest.mark.parametrize("n,seed", [(5, 11), (5, 12), (6, 13), (6, 14)])
def test_reconstruction_larger_universes(n, seed):
    _assert_reconstruction(random_rho(default_universe(n), random.Random(seed), RATIONAL))


def _split_rule(n: int, rng: random.Random, bottoms: list[int]) -> StochasticChoiceData:
    """Each frame's unit cut at random points over the denominators of ``bottoms`` in turn."""
    probs = {}
    for frame in range(1 << n):
        bottom = bottoms[frame % len(bottoms)]
        cuts = sorted(rng.randint(0, bottom) for _ in range(n - 1))
        for alt, (lo, hi) in enumerate(zip([0, *cuts], [*cuts, bottom])):
            probs[(alt, frame)] = Fraction(hi - lo, bottom)
    return StochasticChoiceData(default_universe(n), probs, RATIONAL)


def _alternating_rule(n: int, bottom: int) -> StochasticChoiceData:
    """Nearly all mass on a at frames of even size and on b at odd ones.

    a's superset sum at the empty frame then adds its 2^(n-2) terms of even
    size, each nearly ``bottom``, and subtracts only ``far`` ones: as large as
    a signed sum of 2^(n-1) values in [0, ``bottom``] can be.
    """
    near, far = Fraction(bottom - 1, bottom), Fraction(1, bottom)
    probs = {}
    for frame in range(1 << n):
        even = bin(frame).count("1") % 2 == 0
        probs[(0, frame)], probs[(1, frame)] = (near, far) if even else (far, near)
        for alt in range(2, n):
            probs[(alt, frame)] = Fraction(0)
    return StochasticChoiceData(default_universe(n), probs, RATIONAL)


def _fluce_rule(n: int, rng: random.Random) -> StochasticChoiceData:
    """A rule like the benchmark's: integer bases, power-of-two boosts, a large common denominator."""
    u = tuple(Fraction(rng.randint(1, 9)) for _ in range(n))
    v = tuple(Fraction(1 << k) for k in rng.sample(range(n), n))
    return forward_fluce(FLuceParams(default_universe(n), u, v), range(1 << n), RATIONAL)


def _mixture_rule(n: int, rng: random.Random) -> StochasticChoiceData:
    """An accepted rule: a mixture of 20 types with weights k / 1000."""
    types = rng.sample(list(enumerate_types(default_universe(n))), 20)
    cuts = sorted(rng.sample(range(1, 1000), 19))
    weights = {t: Fraction(hi - lo, 1000) for t, lo, hi in zip(types, [0, *cuts], [*cuts, 1000])}
    return forward_frum(TypeDistribution(default_universe(n), weights, RATIONAL), range(1 << n))


def _rules():
    for n in range(2, 9):
        rng = random.Random(900 + n)
        yield f"small-{n}", _split_rule(n, rng, list(range(1, 13)))
        yield f"at-bound-{n}", _split_rule(n, rng, [2 ** (62 - n), 2 ** (61 - n)])
        yield f"over-bound-{n}", _split_rule(n, rng, [3 * 2 ** (62 - n)])
        yield f"large-primes-{n}", _split_rule(n, rng, [2**31 - 1, 2**61 - 1, 1_000_003])
        yield f"alternating-{n}", _alternating_rule(n, 2 ** (62 - n))
        yield f"alternating-over-{n}", _alternating_rule(n, 2 ** (63 - n))
        yield f"alternating-far-{n}", _alternating_rule(n, 2 ** (66 - n))  # would overflow int64
        yield f"fluce-{n}", _fluce_rule(n, rng)
    for n in (3, 4):  # enumerate_types grows as n!
        yield f"mixture-{n}", _mixture_rule(n, random.Random(950 + n))


RULES = dict(_rules())


class TestIntegerNumerators:
    """The int64 transform against the Fraction one and inclusion-exclusion."""

    @pytest.mark.parametrize("name", list(RULES))
    def test_same_table_verdict_and_report_as_fractions(self, name, monkeypatch):
        data = RULES[name]
        n = data.universe.n
        common = lcm(*(p.denominator for p in data.probs.values()))
        scaled = common.bit_length() + n <= 63
        table = compute_bm(data)
        assert (table.values.dtype == np.int64) == scaled
        assert table.denominator == (common if scaled else 1)
        verdict = test_frum(data, with_witness=n <= 4)
        with monkeypatch.context() as patch:
            patch.setattr(polys, "_scaled", lambda data: None)
            fractions = compute_bm(data)
            fraction_verdict = test_frum(data, with_witness=n <= 4)
        assert fractions.values.dtype == object and fractions.denominator == 1
        numbers = table.numbers().tolist()
        assert numbers == fractions.values.tolist()
        assert all(type(v) is Fraction for row in numbers for v in row)
        oracle = naive_bm(data)
        assert numbers == [[oracle[a, f] for f in range(1 << n)] for a in range(n)]
        assert verdict == fraction_verdict
        assert dumps_json(verdict.to_json_dict(data.universe)) == dumps_json(
            fraction_verdict.to_json_dict(data.universe)
        )
        assert dumps_json(table.to_json_dict()) == dumps_json(fractions.to_json_dict())
        assert dumps_json(export_hasse(table).to_json_dict()) == dumps_json(
            export_hasse(fractions).to_json_dict()
        )
        assert table.q(n - 1, 1 << n - 1) == fractions.q(n - 1, 1 << n - 1)
        assert table.y(0, 0) == fractions.y(0, 0)

    def test_rules_cover_both_sides_of_the_bound_and_both_verdicts(self):
        tables = {name: compute_bm(data) for name, data in RULES.items()}
        scaled = {name for name, table in tables.items() if table.values.dtype == np.int64}
        assert {"small-8", "at-bound-8", "alternating-8", "mixture-4", "fluce-4"} <= scaled
        assert not {"over-bound-8", "alternating-over-8", "large-primes-3", "fluce-5"} & scaled
        accepted = {name for name, data in RULES.items() if test_frum(data).accepted}
        assert {"fluce-8", "mixture-4"} <= accepted  # on either side of the bound
        assert not {"small-8", "large-primes-8"} & accepted
        # the alternating rule's superset sum at the empty frame, about 2^6 · 2^54
        assert int(tables["alternating-8"].values[0, 0]) > 2**59


class TestInterim:
    def test_single_frame_interval_is_rho(self, intro_partial_n3, second_partial):
        assert interim_y(intro_partial_n3, 0, B, B) == Fraction(9, 20)
        assert interim_q(second_partial, 0, 0b001, 0b001) == Fraction(4, 5)

    def test_intro_partial_value(self, intro_partial_n3):
        assert interim_y(intro_partial_n3, 0, EMPTY, 0b110) == Fraction(-1, 10)

    def test_intro_partial_value_larger_universe(self, intro_partial_n4):
        assert interim_y(intro_partial_n4, 0, EMPTY, 0b0110) == Fraction(-1, 10)

    def test_second_partial_value(self, second_partial):
        assert interim_q(second_partial, 0, 0b001, 0b111) == Fraction(-1, 10)

    def test_q_interval_at_top_matches_full_table(self):
        rng = random.Random(42)
        data = random_rho(default_universe(4), rng, RATIONAL)
        table = compute_bm(data)
        full = 0b1111
        for alt in range(4):
            bit = 1 << alt
            for frame in range(16):
                if frame & bit:
                    assert interim_q(data, alt, frame, full) == table.q(alt, frame)

    def test_y_interval_at_top_matches_full_table(self):
        rng = random.Random(43)
        data = random_rho(default_universe(4), rng, RATIONAL)
        table = compute_bm(data)
        for alt in range(4):
            bit = 1 << alt
            top = 0b1111 & ~bit
            for frame in range(16):
                if not frame & bit and not frame & ~top:
                    assert interim_y(data, alt, frame, top) == table.y(alt, frame)

    def test_split_identity(self):
        # Y(a, F, H) = Y(a, F, H+z) + Y(a, F+z, H+z) for z outside H and a
        rng = random.Random(44)
        data = random_rho(default_universe(4), rng, RATIONAL)
        alt, lo, hi, z = 0, 0b0000, 0b0110, 3
        zbit = 1 << z
        lhs = interim_y(data, alt, lo, hi)
        rhs = interim_y(data, alt, lo, hi | zbit) + interim_y(data, alt, lo | zbit, hi | zbit)
        assert lhs == rhs

    def test_missing_frame_raises(self, intro_partial_n3):
        # alternative b has no observations at all in the partial slice
        with pytest.raises(DataError, match="not observed"):
            interim_y(intro_partial_n3, 1, EMPTY, 0b100)

    def test_precondition_errors(self, intro_partial_n3):
        with pytest.raises(DataError, match="outside"):
            interim_y(intro_partial_n3, 0, EMPTY, 0b001)
        with pytest.raises(DataError, match="inside"):
            interim_q(intro_partial_n3, 0, 0b010, 0b110)
        with pytest.raises(DataError, match="subset"):
            interim_y(intro_partial_n3, 0, 0b010, 0b100)


class TestFlowConservation:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_zero_residuals_rational(self, n):
        rng = random.Random(300 + n)
        data = random_rho(default_universe(n), rng, RATIONAL)
        residuals = flow_residuals(compute_bm(data))
        assert all(v == 0 for v in residuals.values())

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_small_residuals_float(self, n):
        rng = random.Random(400 + n)
        data = random_rho(default_universe(n), rng, FLOAT64)
        residuals = flow_residuals(compute_bm(data))
        assert all(abs(v) <= 8e-9 for v in residuals.values())

    def test_holds_on_rejected_data(self, intro_full_rational):
        # the identity is model-free: it holds even when the sign test fails
        residuals = flow_residuals(compute_bm(intro_full_rational))
        assert all(v == 0 for v in residuals.values())

    def test_table3_empty_node_balance(self):
        table = compute_bm(table3_data(Fraction(2, 5), Fraction(3, 5)))
        # inflow (0.7-lam)+(lam-0.1) vs leakages (gam-0.1)+(0.7-gam)
        assert flow_residuals(table)[EMPTY] == 0

    def test_n1_normalization(self):
        uni = Universe(("x",))
        data = StochasticChoiceData(uni, {(0, 0): Fraction(1), (0, 1): Fraction(1)}, RATIONAL)
        table = compute_bm(data)
        assert table.y(0, 0) == 1
        assert table.q(0, 1) == 1
        assert flow_residuals(table)[0] == 0


class TestHasseExport:
    @pytest.mark.parametrize("n,q_edges,leaks", [(1, 1, 1), (2, 4, 4), (3, 12, 12)])
    def test_edge_counts(self, n, q_edges, leaks):
        rng = random.Random(500 + n)
        data = random_rho(default_universe(n), rng, RATIONAL)
        graph = export_hasse(compute_bm(data))
        assert len(graph.nodes) == 1 << n
        assert len(graph.q_edges) == q_edges
        assert len(graph.leak_edges) == leaks

    def test_out_degree_equals_n(self):
        rng = random.Random(7)
        data = random_rho(default_universe(3), rng, RATIONAL)
        graph = export_hasse(compute_bm(data))
        degree = {f: 0 for f in graph.nodes}
        for src, _, _, _ in graph.q_edges:
            degree[src] += 1
        for frame, _, _ in graph.leak_edges:
            degree[frame] += 1
        assert all(d == 3 for d in degree.values())

    def test_table3_labels(self):
        graph = export_hasse(compute_bm(table3_data(Fraction(2, 5), Fraction(3, 5))))
        q = {(src, alt): val for src, _, alt, val in graph.q_edges}
        leaks = {(frame, alt): val for frame, alt, val in graph.leak_edges}
        assert q[(AB, 0)] == Fraction(2, 5)
        assert q[(A, 0)] == Fraction(3, 10)
        assert leaks[(EMPTY, 0)] == Fraction(1, 2)
        assert leaks[(A, 1)] == Fraction(3, 10)

    def test_dot_output_mentions_every_node(self):
        data = table3_data(Fraction(2, 5), Fraction(3, 5))
        dot = export_hasse(compute_bm(data)).to_dot()
        assert dot.startswith("digraph")
        for name in ("{a|b}", "{a}", "{b}", "{}"):
            assert name in dot

    def test_dot_quotes_labels_holding_quotes_and_backslashes(self):
        # every quoted token must close where DOT reads it closed, and read
        # back to the text it quotes
        uni = Universe(('a"x', "b\\", 'c\\"'))
        dot = export_hasse(compute_bm(random_rho(uni, random.Random(3), RATIONAL))).to_dot()
        token = re.compile(r'"((?:[^"\\]|\\.)*)"')
        texts = set()
        for line in dot.splitlines():
            rest = token.sub("", line)
            assert '"' not in rest and "\\" not in rest, line
            texts.update(re.sub(r"\\(.)", r"\1", t) for t in token.findall(line))
        for frame in range(8):
            assert "{" + uni.frame_str(frame) + "}" in texts
        assert 'q(a"x)' in "".join(texts) and 'y(c\\")' in "".join(texts)
