"""Mixture-model testing, recovery, identification, and feasibility."""

import random
from fractions import Fraction

import pytest

from framechoice.core import (
    DataError,
    FLOAT64,
    RATIONAL,
    StochasticChoiceData,
    parse_stochastic,
)
from framechoice import frum
from framechoice.detfum import ChoiceType
from framechoice.frum import (
    DualCertificate,
    FrumRejectionError,
    TypeDistribution,
    check_prop2,
    feasible_completion,
    forward_frum,
    interim_violations,
    recover_branch_independent,
    recover_constructive,
    test_frum,
)
from framechoice.polys import compute_bm
from framechoice.sim import default_universe, sample_mu, SimConfig

from conftest import AB, A, B, EMPTY, TABLE3_UNIVERSE, random_rho, table3_data
from oracles import branch_weight

# Table-4 type order c1..c6
C1 = ChoiceType((0,), 1)
C2 = ChoiceType((1,), 1)
C3 = ChoiceType((0, 1), 1)
C4 = ChoiceType((1, 0), 2)
C5 = ChoiceType((0, 1), 2)
C6 = ChoiceType((1, 0), 1)


class TestVerdicts:
    def test_intro_rejected_with_leak_witness(self, intro_full_rational):
        verdict = test_frum(intro_full_rational)
        assert not verdict.accepted and verdict.complete_domain
        assert any(
            v.kind == "y" and v.alternative == 0 and v.frame == EMPTY and v.value == Fraction(-1, 10)
            for v in verdict.violations
        )

    def test_second_rejected_with_framed_witness(self, second_full_rational):
        verdict = test_frum(second_full_rational)
        assert not verdict.accepted
        assert any(
            v.kind == "q" and v.alternative == 0 and v.frame == 0b001 and v.value == Fraction(-1, 10)
            for v in verdict.violations
        )

    def test_table3_interior_accepted(self):
        verdict = test_frum(table3_data(Fraction(2, 5), Fraction(3, 5)))
        assert verdict.accepted and verdict.witness is not None
        assert verdict.violations == ()  # accepted verdicts never carry violations

    def test_table3_low_gamma_rejected(self):
        verdict = test_frum(table3_data(Fraction(2, 5), Fraction(1, 20)))
        assert not verdict.accepted
        assert verdict.violations == (
            type(verdict.violations[0])("y", 0, EMPTY, Fraction(-1, 20)),
        )

    def test_boundary_accepted(self):
        for lam, gam in [(Fraction(1, 10), Fraction(1, 10)), (Fraction(7, 10), Fraction(7, 10))]:
            assert test_frum(table3_data(lam, gam)).accepted

    def test_spot_grid(self):
        for lam in (Fraction(1, 20), Fraction(3, 10), Fraction(3, 4)):
            for gam in (Fraction(1, 20), Fraction(3, 10), Fraction(3, 4)):
                inside = Fraction(1, 10) <= lam <= Fraction(7, 10) and Fraction(
                    1, 10
                ) <= gam <= Fraction(7, 10)
                assert test_frum(table3_data(lam, gam)).accepted == inside

    def test_witness_flag(self):
        data = table3_data(Fraction(2, 5), Fraction(3, 5))
        assert test_frum(data, with_witness=False).witness is None
        assert test_frum(data, with_witness=True).witness is not None

    def test_partial_domain_degrades_to_falsification(self, intro_partial_n3):
        verdict = test_frum(intro_partial_n3)
        assert not verdict.accepted and not verdict.complete_domain
        assert any(v.kind == "interim_Y" for v in verdict.violations)

    def test_partial_domain_not_falsified(self):
        text = "# universe: a|b\nframe,alternative,probability\n,a,0.5\n"
        data = parse_stochastic(text, RATIONAL, allow_partial=True)
        verdict = test_frum(data)
        assert not verdict.accepted and not verdict.complete_domain
        assert verdict.violations == ()


class TestRecovery:
    def test_table4_branch_independent_weights(self):
        mu = recover_branch_independent(table3_data(Fraction(2, 5), Fraction(3, 5)))
        expected = {
            C1: Fraction(1, 10),
            C2: Fraction(3, 10),
            C3: Fraction(1, 4),
            C4: Fraction(1, 4),
            C5: Fraction(1, 20),
            C6: Fraction(1, 20),
        }
        for ctype, weight in expected.items():
            assert mu.weight(ctype) == weight

    def test_worked_path_weight(self):
        table = compute_bm(table3_data(Fraction(2, 5), Fraction(3, 5)))
        assert branch_weight(table, C3) == Fraction(1, 4)

    def test_constructive_equals_branch_independent_exactly(self):
        data = table3_data(Fraction(2, 5), Fraction(3, 5))
        mu_b = recover_branch_independent(data)
        mu_c = recover_constructive(data)
        assert dict(mu_b.weights) == dict(mu_c.weights)

    def test_constructive_single_alternative(self):
        uni = default_universe(1)
        probs = {(0, 0): Fraction(1), (0, 1): Fraction(1)}
        data = StochasticChoiceData(uni, probs, RATIONAL)
        mu = recover_constructive(data)
        assert dict(mu.weights) == {ChoiceType((0,), 1): Fraction(1)}

    def test_point_mass_recovery(self):
        target = ChoiceType((0, 1), 1)
        uni = default_universe(2)
        mu = TypeDistribution(uni, {target: Fraction(1)}, RATIONAL)
        data = forward_frum(mu, range(4))
        recovered = recover_branch_independent(data)
        assert recovered.weight(target) == 1
        assert len(recovered.support()) == 1

    def test_every_type_recovers_from_its_own_data(self):
        from framechoice.detfum import enumerate_types

        uni = default_universe(3)
        for target in enumerate_types(uni):
            mu = TypeDistribution(uni, {target: Fraction(1)}, RATIONAL)
            data = forward_frum(mu, range(8))
            for method in (recover_branch_independent, recover_constructive):
                recovered = method(data)
                assert recovered.weight(target) == 1, (method.__name__, target)
                assert len(recovered.support()) == 1

    def test_roundtrip_reproduces_data(self):
        data = table3_data(Fraction(1, 2), Fraction(1, 3))
        mu = recover_branch_independent(data)
        again = forward_frum(mu, data.domain)
        assert dict(again.probs) == dict(data.probs)

    def test_random_float_roundtrips(self):
        for seed in range(25):
            mu = sample_mu(SimConfig(seed=seed, n=3, sparsity=0.6))
            data = forward_frum(mu, range(8))
            verdict = test_frum(data, with_witness=False)
            assert verdict.accepted, seed
            recovered = recover_branch_independent(data)
            again = forward_frum(recovered, range(8))
            for key, p in data.probs.items():
                assert abs(again.probs[key] - p) <= 8 * data.policy.eps
            alt = recover_constructive(data)
            for ctype in set(recovered.weights) | set(alt.weights):
                assert abs(recovered.weight(ctype) - alt.weight(ctype)) <= 8 * data.policy.eps

    def test_rejection_raises(self, intro_full_rational):
        with pytest.raises(FrumRejectionError) as err:
            recover_branch_independent(intro_full_rational)
        assert err.value.verdict.violations

    def test_partial_domain_raises(self, intro_partial_n3):
        with pytest.raises(DataError, match="every frame"):
            recover_branch_independent(intro_partial_n3)

    @pytest.mark.parametrize("method", [recover_branch_independent, recover_constructive])
    def test_tables_built_once(self, method, monkeypatch):
        calls = []

        def counting(data):
            calls.append(data)
            return compute_bm(data)

        monkeypatch.setattr(frum, "compute_bm", counting)
        method(table3_data(Fraction(2, 5), Fraction(3, 5)))
        assert len(calls) == 1

    @pytest.mark.parametrize("method", [recover_branch_independent, recover_constructive])
    def test_rejection_verdict_matches_test_frum(self, method, intro_full_rational):
        with pytest.raises(FrumRejectionError) as err:
            method(intro_full_rational)
        assert err.value.verdict == test_frum(intro_full_rational, with_witness=False)


class TestForward:
    def test_table4_mu_reproduces_parametric_cells(self):
        mu = TypeDistribution(
            TABLE3_UNIVERSE,
            {
                C1: Fraction(1, 10),
                C2: Fraction(3, 10),
                C3: Fraction(1, 5),
                C4: Fraction(3, 10),
                C5: Fraction(1, 10),
            },
            RATIONAL,
        )
        data = forward_frum(mu, range(4))
        assert data.probs[(0, AB)] == Fraction(2, 5)
        assert data.probs[(0, A)] == Fraction(7, 10)
        assert data.probs[(0, B)] == Fraction(1, 10)
        assert data.probs[(0, EMPTY)] == Fraction(3, 5)

    def test_point_mass_is_deterministic(self):
        ctype = ChoiceType((1, 0), 2)
        mu = TypeDistribution(default_universe(2), {ctype: Fraction(1)}, RATIONAL)
        data = forward_frum(mu, range(4))
        for frame in range(4):
            assert data.probs[(ctype.choose(frame), frame)] == 1

    def test_uniform_mixture_empty_frame(self):
        from framechoice.detfum import enumerate_types

        uni = default_universe(2)
        types = enumerate_types(uni)
        mu = TypeDistribution(uni, {t: Fraction(1, 6) for t in types}, RATIONAL)
        data = forward_frum(mu, [EMPTY])
        defaulting_to_a = sum(1 for t in types if t.choose(EMPTY) == 0)
        assert data.probs[(0, EMPTY)] == Fraction(defaulting_to_a, 6)


class TestDistribution:
    def test_weights_must_be_nonnegative(self):
        with pytest.raises(DataError, match="nonnegative"):
            TypeDistribution(
                TABLE3_UNIVERSE, {C1: Fraction(3, 2), C2: Fraction(-1, 2)}, RATIONAL
            )

    def test_weights_must_sum_to_one(self):
        with pytest.raises(DataError, match="sum"):
            TypeDistribution(TABLE3_UNIVERSE, {C1: Fraction(1, 2)}, RATIONAL)

    def test_out_of_universe_type(self):
        with pytest.raises(DataError, match="outside the universe"):
            TypeDistribution(TABLE3_UNIVERSE, {ChoiceType((5,), 1): Fraction(1)}, RATIONAL)

    def test_later_changes_to_the_input_dict_change_no_answer(self):
        weights = {C1: Fraction(1, 2), C2: Fraction(1, 2)}
        mu = TypeDistribution(TABLE3_UNIVERSE, weights, RATIONAL)
        weights[C3] = Fraction(7, 10)
        assert sum(mu.weights.values()) == 1 and mu.weight(C3) == 0
        assert mu.support() == [C1, C2]

    def test_json_shape(self):
        mu = TypeDistribution(TABLE3_UNIVERSE, {C1: Fraction(1)}, RATIONAL)
        payload = mu.to_json_dict()
        assert payload["weights"] == [{"priority": ["a"], "default": "a", "weight": "1"}]


class TestProp2:
    def test_table4_leak_clause_values(self):
        data = table3_data(Fraction(2, 5), Fraction(3, 5))
        table = compute_bm(data)
        assert table.y(0, EMPTY) == Fraction(1, 2)
        mu = TypeDistribution(
            TABLE3_UNIVERSE,
            {C1: Fraction(1, 10), C2: Fraction(3, 10), C3: Fraction(1, 5),
             C4: Fraction(3, 10), C5: Fraction(1, 10)},
            RATIONAL,
        )
        # mass of types choosing a at empty while taking each singleton's own
        # alternative: c3 (1/5) + c4 (3/10) = 1/2
        assert check_prop2(data, mu).max_discrepancy == 0

    def test_all_three_table4_representations_agree(self):
        data = table3_data(Fraction(2, 5), Fraction(3, 5))
        for w3 in (Fraction(1, 5), Fraction(1, 4), Fraction(3, 10)):
            w4 = Fraction(1, 2) - w3
            w5 = Fraction(3, 10) - w3
            w6 = Fraction(1, 10) - w5
            mu = TypeDistribution(
                TABLE3_UNIVERSE,
                {C1: Fraction(1, 10), C2: Fraction(3, 10), C3: w3, C4: w4, C5: w5, C6: w6},
                RATIONAL,
            )
            report = check_prop2(data, mu)
            assert report.max_discrepancy == 0

    def test_forward_generated_exact(self):
        for seed in range(10):
            mu = sample_mu(SimConfig(seed=700 + seed, n=3, sparsity=0.4))
            data = forward_frum(mu, range(8))
            report = check_prop2(data, mu)
            assert float(report.max_discrepancy) <= 8 * data.policy.eps

    def test_lp_vertex_and_canonical_witness_agree_on_aggregates(self):
        # two thoroughly different representations of the same data must
        # induce identical identified aggregates (both exactly zero here)
        for seed in range(4):
            mu = sample_mu(SimConfig(seed=800 + seed, n=3, sparsity=0.5))
            exact_raw = {t: Fraction(w) for t, w in mu.weights.items()}
            total = sum(exact_raw.values())
            exact_mu = TypeDistribution(
                mu.universe, {t: w / total for t, w in exact_raw.items()}, RATIONAL
            )
            data = forward_frum(exact_mu, range(8))
            canonical = recover_branch_independent(data)
            vertex = feasible_completion(data).witness
            assert check_prop2(data, canonical).max_discrepancy == 0
            assert check_prop2(data, vertex).max_discrepancy == 0


class TestFeasibility:
    def test_intro_partial_certificates(self, intro_partial_n3, intro_partial_n4):
        for data in (intro_partial_n3, intro_partial_n4):
            result = feasible_completion(data)
            assert not result.feasible
            cert = result.certificate
            assert cert.kind == "interim_Y"
            assert cert.alternative == 0
            assert cert.frame == EMPTY
            assert data.universe.frame_str(cert.upper_frame) == "b|c"
            assert cert.value == Fraction(-1, 10)

    def test_interval_certificate_needs_no_lp(self, intro_partial_n3, monkeypatch):
        def no_lp(*args):
            raise AssertionError("the interval scan alone settles this input")

        monkeypatch.setattr(frum, "solve_rational_lp", no_lp)
        result = feasible_completion(intro_partial_n3)
        assert not result.feasible
        assert result.certificate.kind == "interim_Y"
        assert result.certificate.value == Fraction(-1, 10)

    def test_table3_feasible_with_valid_witness(self):
        data = table3_data(Fraction(2, 5), Fraction(3, 5))
        result = feasible_completion(data)
        assert result.feasible
        again = forward_frum(result.witness, data.domain)
        assert dict(again.probs) == dict(data.probs)

    def test_uniform_mixture_over_every_type_at_n5(self, tmp_path, capsys):
        # 1,305 types on the frames of size <= 2, decided through the command
        import json

        from framechoice.cli import run
        from framechoice.detfum import enumerate_types

        uni = default_universe(5)
        types = enumerate_types(uni)
        assert len(types) == 1305
        mu = TypeDistribution(uni, {t: Fraction(1, len(types)) for t in types}, RATIONAL)
        data = forward_frum(mu, [f for f in range(1 << 5) if bin(f).count("1") <= 2])
        path = tmp_path / "uniform_n5.csv"
        path.write_text(data.to_csv())
        assert run(["feasible", "--numeric", "rational", "--in", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["feasible"] is True
        names = uni.names
        weights = {}
        for entry in report["witness"]["weights"]:
            prio = tuple(names.index(a) for a in entry["priority"])
            ctype = ChoiceType(prio, prio.index(names.index(entry["default"])) + 1)
            weights[ctype] = Fraction(entry["weight"])
        witness = TypeDistribution(uni, weights, RATIONAL)
        assert dict(forward_frum(witness, data.domain).probs) == dict(data.probs)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_float_band_lp_repairs_the_float_basis(self, seed, monkeypatch):
        # the 89×284 band LP's float basis is exactly right but for a few x_B
        # entries of about -1e-17; a cold exact restart took 212-241 pivots
        results = []
        solve = frum.solve_rational_lp

        def spy(*args):
            results.append(solve(*args))
            return results[-1]

        mu = sample_mu(SimConfig(seed=seed, n=4))
        data = forward_frum(mu, [f for f in range(16) if bin(f).count("1") <= 2])
        assert not data.policy.exact
        monkeypatch.setattr(frum, "solve_rational_lp", spy)
        assert feasible_completion(data).feasible
        assert len(results) == 1 and results[0].exact_pivots <= 20

    def test_single_observation_feasible(self):
        text = "# universe: a|b\nframe,alternative,probability\n,a,0.5\n"
        data = parse_stochastic(text, RATIONAL, allow_partial=True)
        result = feasible_completion(data)
        assert result.feasible
        # the equal mixture of the two constant types is one explicit witness
        explicit = TypeDistribution(
            data.universe, {C1: Fraction(1, 2), C2: Fraction(1, 2)}, RATIONAL
        )
        assert forward_frum(explicit, [EMPTY]).probs[(0, EMPTY)] == Fraction(1, 2)
        assert forward_frum(result.witness, [EMPTY]).probs[(0, EMPTY)] == Fraction(1, 2)

    def test_dual_certificate_when_no_interim_exists(self):
        # only incomparable singleton frames are observed, so no interval of
        # length > 1 is computable; the total forced mass exceeds one, and the
        # only certificate is the dual ray
        from framechoice.detfum import enumerate_types

        text = (
            "# universe: a|b\nframe,alternative,probability\n"
            "a,a,0.3\na,b,0.7\nb,a,0.7\nb,b,0.3\n"
        )
        for policy in (RATIONAL, FLOAT64):
            data = parse_stochastic(text, policy)
            result = feasible_completion(data)
            assert not result.feasible
            assert isinstance(result.certificate, DualCertificate)

            # the ray must be arithmetically valid at the observations' exact
            # values (a float's binary value): y.A <= 0 columnwise, y.b > 0;
            # in float mode each coefficient sums a cell's two band rows
            cert = result.certificate
            coeff = {(alt, frame): c for alt, frame, c in cert.coefficients}
            rows = sorted(coeff)
            assert rows == sorted(data.probs)
            y_dot_b = sum(coeff[key] * Fraction(data.probs[key]) for key in rows)
            y_dot_b += cert.normalization_coefficient
            assert y_dot_b > 0, policy
            for ctype in enumerate_types(data.universe):
                column = sum(
                    coeff[(alt, frame)]
                    for alt, frame in rows
                    if ctype.choose(frame) == alt
                )
                assert column + cert.normalization_coefficient <= 0, policy

    def test_feasible_partial_data_has_no_interim_violations(self):
        # dropping cells from representable data must never create a
        # computable negative interval sum, and the LP must also stay
        # feasible (float data within its band: see the full-domain test below)
        import random as pyrandom

        for seed in range(20):
            n = 2 + seed % 3
            mu = sample_mu(SimConfig(seed=3000 + seed, n=n, sparsity=0.5))
            exact_raw = {t: Fraction(w) for t, w in mu.weights.items()}
            total = sum(exact_raw.values())
            exact_mu = TypeDistribution(
                mu.universe, {t: w / total for t, w in exact_raw.items()}, RATIONAL
            )
            full = forward_frum(exact_mu, range(1 << n))
            rng = pyrandom.Random(seed)
            kept = {key: p for key, p in full.probs.items() if rng.random() < 0.6}
            if not kept:
                continue
            partial = StochasticChoiceData(full.universe, kept, RATIONAL)
            assert interim_violations(partial) == (), seed
            if n <= 3:
                assert feasible_completion(partial).feasible, seed

    @pytest.mark.parametrize("policy", [RATIONAL, FLOAT64], ids=["rational", "float64"])
    def test_agrees_with_sign_test_on_full_domain(self, policy):
        # Falmagne: on the full domain a mixture exists exactly when every
        # polynomial is nonnegative, so the LP and the sign test must agree,
        # also on float-rounded aggregates of a mixture
        rng = random.Random(11)
        verdicts = set()
        for seed in range(8):
            n = 2 + seed % 2
            mu = sample_mu(SimConfig(seed=seed, n=n))
            if policy.exact:
                raw = {t: Fraction(w) for t, w in mu.weights.items()}
                total = sum(raw.values())
                mu = TypeDistribution(
                    mu.universe, {t: w / total for t, w in raw.items()}, RATIONAL
                )
            mixture = forward_frum(mu, range(1 << n))
            rule = random_rho(default_universe(n), rng, policy)
            for data in (mixture, rule):
                accepted = test_frum(data, with_witness=False).accepted
                assert feasible_completion(data).feasible == accepted, (seed, n)
                verdicts.add(accepted)
        assert verdicts == {True, False}

    @pytest.mark.xfail(
        strict=True,
        reason="the sign test, the interval scan and the LP band each use their own tolerance",
    )
    def test_agrees_with_sign_test_just_outside_tolerance(self):
        # y(a, {}) = 0.3 - (0.3 + 1.5e-9) = -1.5e-9 is below -eps, so the sign
        # test rejects, while the LP's +-8 eps band per cell finds a mixture
        probs = {
            (0, AB): 0.5, (1, AB): 0.5,
            (0, A): 0.7, (1, A): 1 - 0.7,
            (0, B): 0.3 + 1.5e-9, (1, B): 1 - (0.3 + 1.5e-9),
            (0, EMPTY): 0.3, (1, EMPTY): 1 - 0.3,
        }
        data = StochasticChoiceData(TABLE3_UNIVERSE, probs, FLOAT64)
        assert feasible_completion(data).feasible == test_frum(data).accepted

    def test_infeasible_float_mode(self):
        text = "# universe: a|b|c\nframe,alternative,probability\n,a,0.7\nb,a,0.45\nc,a,0.45\nb|c,a,0.1\n"
        data = parse_stochastic(text, FLOAT64, allow_partial=True)
        result = feasible_completion(data)
        assert not result.feasible
        assert result.certificate.kind == "interim_Y"

    def test_size_guard(self):
        rng = random.Random(1)
        data = random_rho(default_universe(7), rng, RATIONAL)
        with pytest.raises(DataError, match="n <= 6"):
            feasible_completion(data)


class TestInterimScan:
    def test_scan_finds_the_intro_violation(self, intro_partial_n3):
        violations = interim_violations(intro_partial_n3)
        assert len(violations) == 1
        v = violations[0]
        assert (v.kind, v.alternative, v.frame, v.upper_frame) == ("interim_Y", 0, 0, 0b110)

    def test_scan_clean_on_consistent_data(self):
        data = table3_data(Fraction(2, 5), Fraction(3, 5))
        assert interim_violations(data) == ()
