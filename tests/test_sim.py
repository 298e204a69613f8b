"""Generator determinism and the independent aggregation oracle."""

from fractions import Fraction

import pytest

from framechoice.core import DataError, RATIONAL
from framechoice.detfum import ChoiceType
from framechoice.frum import TypeDistribution, forward_frum, test_frum
from framechoice.sim import (
    SimConfig,
    default_universe,
    perturb,
    sample_fluce,
    sample_mu,
)

from conftest import TABLE3_UNIVERSE, table3_data
from oracles import oracle_forward


class TestConfig:
    def test_validation(self):
        with pytest.raises(DataError):
            SimConfig(seed=1, n=0)
        with pytest.raises(DataError):
            SimConfig(seed=1, n=2, sparsity=0.0)
        with pytest.raises(DataError):
            SimConfig(seed=1, n=2, noise=-1.0)

    def test_default_universe_bounds(self):
        assert default_universe(20).names[-1] == "t"
        for n in (-3, 0, 21, 25):
            with pytest.raises(DataError, match=f"got {n}$"):
                default_universe(n)


class TestSampleMu:
    def test_deterministic(self):
        cfg = SimConfig(seed=123, n=3, sparsity=0.5)
        assert sample_mu(cfg).weights == sample_mu(cfg).weights

    def test_full_sparsity_weights_everything(self):
        mu = sample_mu(SimConfig(seed=5, n=2, sparsity=1.0))
        assert len(mu.weights) == 6
        assert abs(sum(mu.weights.values()) - 1.0) < 1e-12

    def test_tiny_sparsity_still_supported(self):
        mu = sample_mu(SimConfig(seed=5, n=2, sparsity=1e-9))
        assert len(mu.weights) >= 1

    def test_size_guard(self):
        with pytest.raises(DataError):
            sample_mu(SimConfig(seed=1, n=7))

    def test_forward_always_passes_the_sign_test(self):
        for seed in range(30):
            mu = sample_mu(SimConfig(seed=seed, n=3, sparsity=0.5))
            data = forward_frum(mu, range(8))
            assert test_frum(data, with_witness=False).accepted, seed


class TestSampleFluce:
    def test_deterministic_and_normalized(self):
        cfg = SimConfig(seed=9, n=4)
        p1, p2 = sample_fluce(cfg), sample_fluce(cfg)
        assert p1.u == p2.u and p1.v == p2.v
        assert abs(sum(p1.u) - 1.0) < 1e-12
        assert all(w > 0 for w in p1.u)
        assert all(w >= 0 for w in p1.v)

    def test_boosts_hit_zero_sometimes(self):
        zeros = sum(
            1
            for seed in range(40)
            for w in sample_fluce(SimConfig(seed=seed, n=3)).v
            if w == 0.0
        )
        assert zeros > 0

    def test_n1_degenerate(self):
        params = sample_fluce(SimConfig(seed=3, n=1))
        assert params.u == (1.0,)


class TestPerturb:
    def test_zero_noise_is_identity(self):
        data = table3_data(Fraction(2, 5), Fraction(3, 5))
        assert perturb(data, SimConfig(seed=1, n=2)) is data

    def test_frame_sums_stay_exact_in_rational_mode(self):
        data = table3_data(Fraction(1, 10), Fraction(1, 10))
        noisy = perturb(data, SimConfig(seed=4, n=2, noise=0.02))
        for frame in noisy.domain:
            assert sum(noisy.probs[(a, frame)] for a in range(2)) == 1

    def test_deterministic(self):
        data = table3_data(Fraction(2, 5), Fraction(3, 5))
        cfg = SimConfig(seed=77, n=2, noise=0.01)
        assert dict(perturb(data, cfg).probs) == dict(perturb(data, cfg).probs)

    def test_boundary_verdict_recorded_either_way(self):
        # gamma sits on the acceptance boundary; noise may flip the verdict,
        # but the perturbed dataset must stay a valid rule either way
        data = table3_data(Fraction(2, 5), Fraction(1, 10))
        for seed in range(8):
            noisy = perturb(data, SimConfig(seed=seed, n=2, noise=0.005))
            verdict = test_frum(noisy, with_witness=False)
            assert verdict.complete_domain
            assert isinstance(verdict.accepted, bool)


class TestOracle:
    def test_matches_production_aggregator(self):
        for seed in range(25):
            n = 2 + seed % 3
            mu = sample_mu(SimConfig(seed=seed, n=n, sparsity=0.7))
            production = forward_frum(mu, range(1 << n))
            reference = oracle_forward(mu, range(1 << n))
            for key, p in reference.items():
                assert abs(production.probs[key] - p) <= 1e-12

    def test_matches_exactly_in_rational_mode(self):
        mu = TypeDistribution(
            TABLE3_UNIVERSE,
            {ChoiceType((0,), 1): Fraction(1, 3), ChoiceType((1, 0), 2): Fraction(2, 3)},
            RATIONAL,
        )
        assert oracle_forward(mu, range(4)) == dict(
            forward_frum(mu, range(4)).probs
        )

    def test_point_mass(self):
        ctype = ChoiceType((0, 1), 2)
        mu = TypeDistribution(default_universe(2), {ctype: Fraction(1)}, RATIONAL)
        data = oracle_forward(mu, range(4))
        for frame in range(4):
            assert data[(ctype.choose(frame), frame)] == 1

    def test_table4_third_representation_cell(self):
        mu = TypeDistribution(
            TABLE3_UNIVERSE,
            {
                ChoiceType((0,), 1): Fraction(1, 10),
                ChoiceType((1,), 1): Fraction(3, 10),
                ChoiceType((0, 1), 1): Fraction(3, 10),
                ChoiceType((1, 0), 2): Fraction(1, 5),
                ChoiceType((1, 0), 1): Fraction(1, 10),
            },
            RATIONAL,
        )
        data = oracle_forward(mu, [0b11])
        assert data[(0, 0b11)] == Fraction(2, 5)
