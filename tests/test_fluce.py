"""Parametric rule: axioms, fitting, identification, presets, embedding."""

from fractions import Fraction

import pytest

from framechoice.core import DataError, RATIONAL, StochasticChoiceData, Universe
from framechoice.fluce import (
    FLuceParams,
    FitRejectionError,
    check_axioms,
    check_scaling,
    embed_check,
    fit_fluce,
    forward_fluce,
    preset,
    test_fluce,
    v_from_anchor,
    _eligible_anchor_frames,
)
from framechoice.sim import SimConfig, default_universe, sample_fluce

XYZ = Universe(("x", "y", "z"))
F = Fraction


def small_frames(n: int) -> list[int]:
    return [f for f in range(1 << n) if bin(f).count("1") <= 2]


class TestForward:
    def test_singleton_frame_values(self):
        params = FLuceParams(XYZ, (F(3), F(2), F(1)), (F(1), F(1), F(1)))
        data = forward_fluce(params, [0b001])
        assert data.probs[(0, 0b001)] == F(4, 7)
        assert data.probs[(1, 0b001)] == F(2, 7)
        assert data.probs[(2, 0b001)] == F(1, 7)

    def test_zero_boosts_are_frame_independent(self):
        params = FLuceParams(XYZ, (F(3), F(2), F(1)), (F(0), F(0), F(0)))
        data = forward_fluce(params, range(8))
        for alt in range(3):
            values = {data.probs[(alt, f)] for f in range(8)}
            assert values == {data.probs[(alt, 0)]}

    def test_proportional_endpoints_agree(self):
        params = preset("proportional", XYZ, u=(F(2), F(17, 10), F(3)), scale=F(2))
        data = forward_fluce(params, [0, 0b111])
        for alt in range(3):
            assert data.probs[(alt, 0)] == data.probs[(alt, 0b111)]

    def test_frame_outside_the_universe_is_a_data_error(self):
        params = FLuceParams(XYZ, (F(3), F(2), F(1)), (F(1), F(1), F(1)))
        for domain in ([0b1000], [0, 0b111, 0b1000]):
            with pytest.raises(DataError, match="frame mask 8 out of range"):
                forward_fluce(params, domain)

    def test_param_validation(self):
        with pytest.raises(DataError, match="positive"):
            FLuceParams(XYZ, (F(0), F(1), F(1)), (F(0), F(0), F(0)))
        with pytest.raises(DataError, match="nonnegative"):
            FLuceParams(XYZ, (F(1), F(1), F(1)), (F(-1), F(0), F(0)))

    def test_params_json_roundtrip(self):
        params = FLuceParams(XYZ, (F(1, 2), F(1, 4), F(1, 4)), (F(1), F(0), F(2)))
        again = FLuceParams.from_json_dict(params.to_json_dict())
        assert again.u == params.u and again.v == params.v


class TestAxioms:
    def test_forward_data_passes(self):
        params = FLuceParams(XYZ, (F(3), F(2), F(1)), (F(6), F(4), F(3)))
        data = forward_fluce(params, small_frames(3))
        report = check_axioms(data)
        assert report.passed
        assert report.strong_iia.status == "pass"
        assert report.luce_iia.status == "pass"
        assert report.f_regularity.status == "pass"
        assert report.strong_iia.deviation == 0

    def test_monotonicity_violation_witnessed(self):
        # start from a conforming table and reverse one inequality by hand:
        # z gains probability when x enters the frame
        params = FLuceParams(XYZ, (F(1), F(1), F(1)), (F(1), F(1), F(1)))
        probs = dict(forward_fluce(params, small_frames(3)).probs)
        probs[(2, 0b001)] = probs[(2, 0)] + F(1, 10)
        probs[(0, 0b001)] = 1 - probs[(1, 0b001)] - probs[(2, 0b001)]
        data = StochasticChoiceData(XYZ, probs, RATIONAL)
        report = check_axioms(data)
        assert report.f_regularity.status == "fail"
        kinds = [kind for kind, _ in report.f_regularity.witness]
        assert kinds == ["alt", "frame", "alt"]

    def test_positivity_blocks_ratio_axioms(self):
        probs = {}
        for frame in small_frames(2) + [0b11]:
            probs[(0, frame)] = F(1)
            probs[(1, frame)] = F(0)
        data = StochasticChoiceData(Universe(("x", "y")), probs, RATIONAL)
        report = check_axioms(data)
        assert not report.positivity
        assert report.strong_iia.status == "blocked"
        assert not report.passed

    def test_strong_iia_failure_detected(self):
        params = FLuceParams(XYZ, (F(3), F(2), F(1)), (F(6), F(4), F(3)))
        probs = dict(forward_fluce(params, small_frames(3)).probs)
        # tilt one unframed cell; the x/y ratio between {z} and the empty
        # frame now moves even though neither changed status
        probs[(0, 0b100)] = probs[(0, 0b100)] + F(1, 50)
        probs[(1, 0b100)] = probs[(1, 0b100)] - F(1, 50)
        data = StochasticChoiceData(XYZ, probs, RATIONAL)
        report = check_axioms(data)
        assert report.strong_iia.status == "fail"
        assert report.strong_iia.deviation > 0

    def test_partial_data_rejected(self):
        data = StochasticChoiceData(XYZ, {(0, 0): F(1, 2)}, RATIONAL)
        with pytest.raises(DataError, match="complete frames"):
            check_axioms(data)


class TestFit:
    def test_singleton_roundtrip_exact(self):
        params = FLuceParams(XYZ, (F(1, 2), F(3, 10), F(1, 5)), (F(1, 4), F(1, 10), F(0)))
        data = forward_fluce(params, [0, 0b001, 0b010, 0b100])
        fitted = fit_fluce(data)
        assert fitted.u == params.u and fitted.v == params.v

    def test_zero_boost_from_identical_frames(self):
        params = FLuceParams(XYZ, (F(1, 2), F(3, 10), F(1, 5)), (F(0), F(0), F(0)))
        data = forward_fluce(params, [0, 0b001, 0b010, 0b100])
        fitted = fit_fluce(data)
        assert fitted.v == (F(0), F(0), F(0))

    def test_recovers_up_to_scale(self):
        params = FLuceParams(XYZ, (F(3), F(2), F(1)), (F(6), F(4), F(3)))
        data = forward_fluce(params, small_frames(3))
        fitted = fit_fluce(data)
        report = check_scaling(fitted, params)
        assert report.alpha == F(1, 6)
        assert sum(fitted.u) == 1

    def test_anchor_independence(self):
        params = FLuceParams(XYZ, (F(3), F(2), F(1)), (F(6), F(4), F(3)))
        data = forward_fluce(params, small_frames(3))
        for alt in range(3):
            values = {
                v_from_anchor(data, alt, frame)
                for frame in _eligible_anchor_frames(data, alt)
            }
            assert len(values) == 1

    def test_doubleton_only_cover(self):
        # boosts recoverable without any singleton frames
        uni = default_universe(4)
        params = FLuceParams(
            uni, (F(2), F(1), F(3), F(2)), (F(1), F(2), F(0), F(3))
        )
        data = forward_fluce(params, [0, 0b0011, 0b1100])
        fitted = fit_fluce(data)
        assert check_scaling(fitted, params).alpha == F(1, 8)

    def test_requires_empty_frame(self):
        params = FLuceParams(XYZ, (F(3), F(2), F(1)), (F(1), F(1), F(1)))
        data = forward_fluce(params, [0b001, 0b010, 0b100])
        with pytest.raises(DataError, match="empty frame"):
            fit_fluce(data)

    def test_requires_cover(self):
        params = FLuceParams(XYZ, (F(3), F(2), F(1)), (F(1), F(1), F(1)))
        data = forward_fluce(params, [0, 0b001])
        with pytest.raises(DataError, match="covers"):
            fit_fluce(data)

    def test_monotonicity_violation_rejected(self):
        params = FLuceParams(XYZ, (F(1), F(1), F(1)), (F(1), F(1), F(1)))
        probs = dict(forward_fluce(params, [0, 0b001, 0b010, 0b100]).probs)
        probs[(0, 0b001)] = F(1, 10)  # framed x chosen LESS than its base share
        probs[(1, 0b001)] = F(45, 100)
        probs[(2, 0b001)] = F(45, 100)
        data = StochasticChoiceData(XYZ, probs, RATIONAL)
        with pytest.raises(FitRejectionError, match="negative boost"):
            fit_fluce(data)


class TestCharacterization:
    def test_roundtrip_accepts_and_reproduces(self):
        uni = default_universe(4)
        params = FLuceParams(uni, (F(4), F(3), F(2), F(1)), (F(2), F(0), F(5), F(1)))
        data = forward_fluce(params, small_frames(4))
        result = test_fluce(data)
        assert result.accepted and result.reproduction_ok
        assert check_scaling(result.params, params).alpha == F(1, 10)

    def test_regularity_violation_rejected(self):
        params = FLuceParams(XYZ, (F(1), F(1), F(1)), (F(1), F(1), F(1)))
        probs = dict(forward_fluce(params, small_frames(3)).probs)
        probs[(2, 0b001)] = probs[(2, 0)] + F(1, 10)
        probs[(0, 0b001)] = 1 - probs[(1, 0b001)] - probs[(2, 0b001)]
        data = StochasticChoiceData(XYZ, probs, RATIONAL)
        result = test_fluce(data)
        assert not result.accepted
        assert result.report.f_regularity.status == "fail"

    def test_two_alternatives_unsupported(self):
        params = FLuceParams(Universe(("a", "b")), (F(1), F(2)), (F(1), F(0)))
        data = forward_fluce(params, range(4))
        with pytest.raises(DataError, match="at least 3"):
            test_fluce(data)

    def test_missing_small_frames_rejected(self):
        params = FLuceParams(XYZ, (F(3), F(2), F(1)), (F(1), F(1), F(1)))
        data = forward_fluce(params, [0, 0b001, 0b010, 0b100])
        with pytest.raises(DataError, match="size <= 2"):
            test_fluce(data)

    def test_float_mode_roundtrip(self):
        for seed in range(10):
            params = sample_fluce(SimConfig(seed=900 + seed, n=4))
            data = forward_fluce(params, small_frames(4))
            result = test_fluce(data)
            assert result.accepted, seed
            report = check_scaling(result.params, params, eps=1e-9)
            assert report.mismatch is None, (seed, report)


class TestScaling:
    def test_double_scale(self):
        p = FLuceParams(XYZ, (F(1), F(2), F(3)), (F(1), F(0), F(2)))
        q = FLuceParams(XYZ, (F(2), F(4), F(6)), (F(2), F(0), F(4)))
        assert check_scaling(p, q).alpha == F(1, 2)

    def test_mismatch_named(self):
        p = FLuceParams(XYZ, (F(1), F(2), F(3)), (F(1), F(1), F(2)))
        q = FLuceParams(XYZ, (F(2), F(4), F(6)), (F(2), F(0), F(4)))
        report = check_scaling(p, q)
        assert report.alpha is None
        assert report.mismatch == "v(y)"

    def test_independent_fits_of_same_data_agree(self):
        params = FLuceParams(XYZ, (F(3), F(2), F(1)), (F(6), F(4), F(3)))
        full = forward_fluce(params, range(8))
        sub = forward_fluce(params, small_frames(3))
        alpha = check_scaling(fit_fluce(full), fit_fluce(sub)).alpha
        assert alpha == 1


class TestPresets:
    def test_constant_boost_mixture_identity(self):
        params = preset("constant_boost", XYZ, u=(F(2), F(3), F(1)), boost=F(1))
        assert params.v == (F(1), F(1), F(1))
        data = forward_fluce(params, [0, 0b111])
        n, total_u = 3, F(6)
        theta = total_u / (total_u + n * F(1))
        for alt in range(3):
            mixed = theta * data.probs[(alt, 0)] + (1 - theta) / n
            assert data.probs[(alt, 0b111)] == mixed

    def test_constant_base_uniform_empty_frame(self):
        params = preset("constant_base", XYZ, base=F(1), v=(F(3), F(2), F(1)))
        data = forward_fluce(params, [0])
        assert all(data.probs[(alt, 0)] == F(1, 3) for alt in range(3))

    def test_argument_validation(self):
        with pytest.raises(DataError):
            preset("constant_boost", XYZ, u=(F(1), F(1), F(1)), boost=F(-1))
        with pytest.raises(DataError):
            preset("constant_base", XYZ, base=F(0), v=(F(1), F(1), F(1)))
        with pytest.raises(DataError):
            preset("proportional", XYZ, u=(F(1), F(1), F(1)), scale=F(-2))
        with pytest.raises(DataError, match="unknown preset"):
            preset("quadratic", XYZ, u=(F(1), F(1), F(1)), scale=F(1))


class TestEmbedding:
    def test_reference_params_accepted(self):
        params = FLuceParams(XYZ, (F(3), F(2), F(1)), (F(6), F(4), F(3)))
        verdict = embed_check(params)
        assert verdict.accepted and verdict.witness is not None

    def test_classical_luce_accepted(self):
        params = FLuceParams(XYZ, (F(3), F(2), F(1)), (F(0), F(0), F(0)))
        assert embed_check(params).accepted

    def test_random_params_accepted(self):
        for seed in range(20):
            n = 3 + seed % 2
            params = sample_fluce(SimConfig(seed=1000 + seed, n=n))
            assert embed_check(params).accepted, seed

    def test_size_guard(self):
        params = sample_fluce(SimConfig(seed=1, n=6))
        with pytest.raises(DataError, match="n <= 5"):
            embed_check(params)


def test_regularity_monotone_along_inclusion():
    params = FLuceParams(XYZ, (F(3), F(2), F(1)), (F(6), F(4), F(3)))
    data = forward_fluce(params, range(8))
    for alt in range(3):
        bit = 1 << alt
        for small in range(8):
            for big in range(8):
                if small & ~big or big & bit or small == big:
                    continue
                assert data.probs[(alt, big)] <= data.probs[(alt, small)]
