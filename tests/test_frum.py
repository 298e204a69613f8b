"""Mixture-model testing, recovery, identification, and feasibility."""

import random
from fractions import Fraction
from math import lcm

import pytest

from framechoice.core import (
    DataError,
    FLOAT64,
    RATIONAL,
    NumericPolicy,
    StochasticChoiceData,
    Universe,
    dumps_json,
    fraction_parts,
    parse_stochastic,
    validate,
)
from framechoice import core, frum, polys
from framechoice.detfum import ChoiceType, enumerate_types
from framechoice.frum import (
    BMViolation,
    DualCertificate,
    FrumRejectionError,
    FrumVerdict,
    TypeDistribution,
    Violations,
    check_prop2,
    feasible_completion,
    forward_frum,
    interim_violations,
    recover_branch_independent,
    recover_constructive,
    test_frum,
)
from framechoice.fluce import FLuceParams, forward_fluce
from framechoice.polys import compute_bm, nonneg_certified
from framechoice.sim import default_universe, perturb, sample_fluce, sample_mu, SimConfig

from conftest import AB, A, B, EMPTY, TABLE3_UNIVERSE, random_rho, table3_data
from oracles import branch_weight, naive_bm, oracle_prop2, oracle_verdict_json

# Table-4 type order c1..c6
C1 = ChoiceType((0,), 1)
C2 = ChoiceType((1,), 1)
C3 = ChoiceType((0, 1), 1)
C4 = ChoiceType((1, 0), 2)
C5 = ChoiceType((0, 1), 2)
C6 = ChoiceType((1, 0), 1)


def exact_mixture(mu: TypeDistribution) -> TypeDistribution:
    """A float mixture's weights as Fractions, renormalized to sum to exactly 1."""
    exact = {t: Fraction(w) for t, w in mu.weights.items()}
    total = sum(exact.values())
    return TypeDistribution(mu.universe, {t: w / total for t, w in exact.items()}, RATIONAL)


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

    def test_rational_sum_is_exact(self):
        # 1e-30 short of 1 reads as 1.0 in the message but is no sum of 1
        short = {C1: Fraction(1, 2), C2: Fraction(1, 2) - Fraction(1, 10**30)}
        with pytest.raises(DataError, match=r"^type weights sum to 1\.0, expected 1$"):
            TypeDistribution(TABLE3_UNIVERSE, short, RATIONAL)
        for policy in (RATIONAL, FLOAT64):
            with pytest.raises(DataError, match=r"^type weights sum to 0\.0, expected 1$"):
                TypeDistribution(TABLE3_UNIVERSE, {}, policy)

    def test_rational_weights_may_be_ints_or_fraction_subclasses(self):
        class Share(Fraction):
            pass

        assert TypeDistribution(TABLE3_UNIVERSE, {C1: 1}, RATIONAL).weight(C1) == 1
        mixed = {C1: Share(1, 3), C2: 0, C3: Fraction(1, 6), C4: Share(1, 2)}
        assert TypeDistribution(TABLE3_UNIVERSE, mixed, RATIONAL).weights == mixed
        with pytest.raises(DataError, match=r"^type weights sum to 2\.0, expected 1$"):
            TypeDistribution(TABLE3_UNIVERSE, {C1: 1, C2: True}, RATIONAL)
        with pytest.raises(DataError, match=r"^type weights sum to 0\.3333333333333333, expected 1$"):
            TypeDistribution(TABLE3_UNIVERSE, {C1: Share(1, 3)}, RATIONAL)

    def test_float_weights_add_in_dict_order(self):
        no_eps = NumericPolicy("float64", 0.0)
        assert TypeDistribution(TABLE3_UNIVERSE, {C1: 0.1, C2: 0.2, C3: 0.7}, no_eps)
        # 0.2 + 0.7 + 0.1 rounds to 0.9999999999999999
        with pytest.raises(DataError, match=r"^type weights sum to 0\.9999999999999999, expected 1$"):
            TypeDistribution(TABLE3_UNIVERSE, {C2: 0.2, C3: 0.7, C1: 0.1}, no_eps)

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


    def test_mixture_must_share_the_data_universe(self):
        mu = sample_mu(SimConfig(seed=3, n=3))
        data = forward_frum(mu, range(8))
        wider = sample_mu(SimConfig(seed=3, n=4))  # indexed past the data's alternatives
        relabelled = TypeDistribution(Universe(("x", "y", "z")), mu.weights)  # passed silently
        for other in (wider, relabelled):
            with pytest.raises(DataError, match="^type distribution and data must share a universe$"):
                check_prop2(data, other)
        assert check_prop2(data, mu).max_discrepancy <= 8 * data.policy.eps

    @pytest.mark.parametrize("n", range(1, 7))
    def test_path_cells_equal_the_clause_simulation(self, n):
        # representing, non-representing and zero-padded mixtures, float and
        # exact: the report must be the simulation's, bit for bit
        padding = enumerate_types(default_universe(n))[::3]
        sparsity = 0.1 if n == 6 else 0.6
        for seed in range(2):
            for policy in (FLOAT64, RATIONAL):
                mixtures = []
                for offset in (0, 50):
                    mu = sample_mu(SimConfig(seed=900 + 100 * n + seed + offset, n=n, sparsity=sparsity))
                    mixtures.append(exact_mixture(mu) if policy.exact else mu)
                zero = policy.zero()
                padded = {t: zero for t in padding} | mixtures[1].weights
                mixtures.append(TypeDistribution(mixtures[1].universe, padded, policy))
                data = forward_frum(mixtures[0], range(1 << n))
                rule = random_rho(data.universe, random.Random(seed + 10 * n), policy)
                reports = []
                for on in (data, rule):
                    for mu in mixtures:
                        report = check_prop2(on, mu)
                        assert report == oracle_prop2(on, mu), (n, seed, policy.mode)
                        reports.append(report)
                assert reports[0].max_discrepancy <= 8 * policy.eps
                if policy.exact:
                    assert reports[0].max_discrepancy == 0
                if n > 1:  # another mixture, or an arbitrary rule, is off somewhere
                    assert all(r.max_discrepancy > 8 * policy.eps for r in reports[1:])

    def test_one_lattice_transform_per_check(self, monkeypatch):
        calls = counted_compute_bm(monkeypatch)
        for policy in (FLOAT64, RATIONAL):
            calls.clear()
            mu = sample_mu(SimConfig(seed=5, n=4, sparsity=0.3))
            mu = exact_mixture(mu) if policy.exact else mu
            data = forward_frum(mu, range(16))
            check_prop2(data, mu)
            assert calls == [data]


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

    def test_agrees_with_sign_test_just_outside_tolerance(self):
        # y(a, {}) = 0.3 - (0.3 + 1.5e-9) = -1.5e-9 is below -eps, so the sign
        # test rejects, and so must feasible_completion, although the LP's
        # +-8 eps band per cell would find a mixture
        probs = {
            (0, AB): 0.5, (1, AB): 0.5,
            (0, A): 0.7, (1, A): 1 - 0.7,
            (0, B): 0.3 + 1.5e-9, (1, B): 1 - (0.3 + 1.5e-9),
            (0, EMPTY): 0.3, (1, EMPTY): 1 - 0.3,
        }
        data = StochasticChoiceData(TABLE3_UNIVERSE, probs, FLOAT64)
        assert feasible_completion(data).feasible == test_frum(data).accepted

    @pytest.mark.parametrize("policy", [RATIONAL, FLOAT64], ids=["rational", "float64"])
    def test_near_boundary_verdict_witness_and_certificate_are_the_sign_test(self, policy):
        # sparse mixtures and zero boosts put q/y values at exactly zero, and
        # noise around eps pushes some of them below the sign test's tolerance
        verdicts = set()
        for seed in range(36):
            n = 2 + seed % 3
            noise = (0.0, 1e-9, 3e-9)[seed // 6 % 3]
            config = SimConfig(seed=seed, n=n, sparsity=0.3, noise=noise)
            if seed // 3 % 2:
                data = forward_fluce(sample_fluce(config), range(1 << n), policy)
            else:
                mu = sample_mu(config)
                if policy.exact:
                    raw = {t: Fraction(w) for t, w in mu.weights.items()}
                    total = sum(raw.values())
                    mu = TypeDistribution(
                        mu.universe, {t: w / total for t, w in raw.items()}, RATIONAL
                    )
                data = forward_frum(mu, range(1 << n))
            data = perturb(data, config)
            result, verdict = feasible_completion(data), test_frum(data)
            assert result.feasible == verdict.accepted, seed
            if result.feasible:
                back = forward_frum(result.witness, data.domain)
                for key, p in data.probs.items():
                    assert policy.is_close(back.probs[key], p, scale=8), (seed, key)
            else:
                worst = min(verdict.violations, key=lambda v: (v.value, v.alternative, v.frame))
                assert result.certificate == worst, seed
            verdicts.add(result.feasible)
        assert verdicts == {True, False}

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


def dyadic_rule(n: int, seed: int, policy) -> StochasticChoiceData:
    """An arbitrary full-domain rule in 32nds: every float sum of its cells is exact."""
    rng = random.Random(seed)
    probs = {}
    for frame in range(1 << n):
        cuts = sorted(rng.sample(range(1, 32), n - 1))
        for alt, (lo, hi) in enumerate(zip([0, *cuts], [*cuts, 32])):
            probs[(alt, frame)] = policy.convert(Fraction(hi - lo, 32))
    return StochasticChoiceData(default_universe(n), probs, policy)


def tuple_of_violations(data: StochasticChoiceData) -> tuple:
    """The sign test's violations as one BMViolation per negative cell, by inclusion-exclusion."""
    cells = sorted(naive_bm(data).items())  # (alternative, frame) ascending: the tables' stable order
    return tuple(
        BMViolation(kind, alt, frame, value)
        for kind, framed in (("q", 1), ("y", 0))
        for (alt, frame), value in cells
        if frame >> alt & 1 == framed and not data.policy.is_nonneg(value)
    )


class TestViolationColumns:
    """The verdict's violations are columns that read as the tuple of BMViolations they replace."""

    @pytest.mark.parametrize("policy", [FLOAT64, RATIONAL], ids=["float", "rational"])
    def test_sequence_reads_as_the_tuple(self, policy):
        data = dyadic_rule(4, 3, policy)
        violations = test_frum(data).violations
        expected = tuple_of_violations(data)
        assert isinstance(violations, Violations) and len(expected) > 3
        assert violations == expected and expected == violations and not violations != expected
        assert len(violations) == len(expected) and bool(violations)
        assert violations[0] == expected[0] and violations[-1] == expected[-1]
        assert violations[-2] == expected[-2] and isinstance(violations[1], BMViolation)
        for part in (slice(1, 3), slice(None, 2), slice(None, None, -2), slice(5, 2)):
            assert type(violations[part]) is tuple and violations[part] == expected[part]
        assert violations[:2] + expected[:2] == expected[:2] * 2
        assert list(violations) == list(expected) and tuple(violations) == expected
        assert violations != expected[:-1] and violations != list(expected) and violations != ()
        assert violations != expected[1:] + expected[:1]  # as long, in another order
        with pytest.raises(IndexError):
            violations[len(expected)]

    @pytest.mark.parametrize("policy", [FLOAT64, RATIONAL], ids=["float", "rational"])
    def test_verdicts_compare_and_hash_as_with_tuples(self, policy):
        data = dyadic_rule(3, 5, policy)
        verdict = test_frum(data)
        by_hand = FrumVerdict(False, True, tuple_of_violations(data), None)
        assert verdict == by_hand and hash(verdict) == hash(by_hand)
        assert verdict == test_frum(data) and hash(verdict) == hash(test_frum(data))
        assert len({verdict, by_hand}) == 1
        accepted = test_frum(table3_data(Fraction(2, 5), Fraction(3, 5)), with_witness=False)
        assert accepted.violations == () and () == accepted.violations and not accepted.violations
        assert isinstance(accepted.violations, Violations) and hash(accepted.violations) == hash(())
        assert accepted == FrumVerdict(True, True, (), None)

    @pytest.mark.parametrize("policy", [FLOAT64, RATIONAL], ids=["float", "rational"])
    def test_interim_violations_on_partial_data(self, policy):
        full = dyadic_rule(4, 2, policy)
        cells = {key: p for key, p in full.probs.items() if key[1] not in (0b0001, 0b0110)}
        data = StochasticChoiceData(full.universe, cells, policy)
        violations = interim_violations(data)
        assert isinstance(violations, Violations) and len(violations) > 2
        assert violations == tuple(violations) == test_frum(data).violations
        assert violations[1:3] == tuple(violations)[1:3] and violations[-1] == tuple(violations)[-1]
        for v in violations:
            interim = polys.interim_y if v.kind == "interim_Y" else polys.interim_q
            assert v.upper_frame is not None and v.value == interim(data, v.alternative, v.frame, v.upper_frame)
            assert not policy.is_nonneg(v.value)
        verdict = test_frum(data)
        assert dumps_json(verdict.to_json_dict(data.universe)) == dumps_json(
            oracle_verdict_json(verdict, data.universe)
        )

    def test_rejected_float_rule_builds_no_violation_objects(self, monkeypatch):
        data = random_rho(default_universe(10), random.Random(10), FLOAT64)
        made = []

        def counted(*args, **kwargs):
            made.append(args)
            return BMViolation(*args, **kwargs)

        monkeypatch.setattr(frum, "BMViolation", counted)
        verdict = test_frum(data)
        text = dumps_json(verdict.to_json_dict(data.universe))
        assert not verdict.accepted and len(verdict.violations) > 1000 and made == []
        verdict.violations[0]  # the counter sees what the sequence builds
        assert len(made) == 1
        monkeypatch.undo()
        assert text == dumps_json(oracle_verdict_json(verdict, data.universe))


# ---------------------------------------------------------------------------
# the fixed-point sign certificate
# ---------------------------------------------------------------------------

PRIME = 2**89 - 1  # a Mersenne prime: weights over it have a common denominator past int64


def boosted_rule(n: int, seed: int, policy=RATIONAL) -> StochasticChoiceData:
    """A FLuce rule like the benchmark's: bases 1-9 and boosts 2^k, distinct at every frame."""
    rng = random.Random(seed)
    u = tuple(Fraction(rng.randint(1, 9)) for _ in range(n))
    v = tuple(Fraction(1 << k) for k in rng.sample(range(n), n))
    return forward_fluce(FLuceParams(default_universe(n), u, v), range(1 << n), policy)


def simulated_rule(n: int, seed: int) -> StochasticChoiceData:
    """``simulate --kind fluce --numeric rational``: boosts are 0 a quarter of the time."""
    return forward_fluce(sample_fluce(SimConfig(seed=seed, n=n)), range(1 << n), RATIONAL)


def frame_free_rule(n: int, seed: int, moved: Fraction = Fraction(0)) -> StochasticChoiceData:
    """An accepted rule that ignores the frame, so every cell of more than one term is 0.

    ``moved`` mass goes from the second alternative to the first in the full
    frame, which makes q(a, F) = (-1)^{n-|F|} * moved for the first.
    """
    rng = random.Random(seed)
    cuts = sorted(rng.randrange(1, PRIME) for _ in range(n - 1))
    weights = [Fraction(hi - lo, PRIME) for lo, hi in zip([0, *cuts], [*cuts, PRIME])]
    probs = {(a, f): w for a, w in enumerate(weights) for f in range(1 << n)}
    full = (1 << n) - 1
    probs[(0, full)] += moved
    probs[(1, full)] -= moved
    return StochasticChoiceData(default_universe(n), probs, RATIONAL)


TINY = Fraction(1, 2**200)  # far below the certificate's 2^-128 resolution

CERTIFIED_RULES = {
    **{f"boosted-{n}-{seed}": boosted_rule(n, seed) for n in range(2, 10) for seed in (1, 2)},
    **{f"simulated-{n}-{seed}": simulated_rule(n, seed) for n in (3, 5, 8) for seed in (0, 1)},
    **{f"frame-free-{n}": frame_free_rule(n, n) for n in (3, 6)},
    **{f"tiny-move-{n}": frame_free_rule(n, n, TINY) for n in (3, 6)},
}


def counted_compute_bm(monkeypatch) -> list:
    calls = []

    def counting(data):
        calls.append(data)
        return compute_bm(data)

    monkeypatch.setattr(frum, "compute_bm", counting)
    return calls


class TestSignCertificate:
    """Sign test without a witness: the certificate against Fractions and inclusion-exclusion."""

    @pytest.mark.parametrize("name", list(CERTIFIED_RULES))
    def test_same_verdict_and_report_as_fractions_and_the_oracle(self, name, monkeypatch):
        data = CERTIFIED_RULES[name]
        n = data.universe.n
        verdict = test_frum(data, with_witness=False)
        with monkeypatch.context() as patch:
            patch.setattr(frum, "nonneg_certified", lambda data: False)
            fractions = test_frum(data, with_witness=False)
        oracle = naive_bm(data)
        expected = [
            (kind, a, f, oracle[a, f])
            for kind, framed in (("q", True), ("y", False))
            for a in range(n)
            for f in range(1 << n)
            if bool(f >> a & 1) == framed and oracle[a, f] < 0
        ]
        assert verdict == fractions
        assert verdict.accepted == (not expected) and verdict.witness is None
        assert [(v.kind, v.alternative, v.frame, v.value) for v in verdict.violations] == expected
        assert all(type(v.value) is Fraction for v in verdict.violations)
        assert dumps_json(verdict.to_json_dict(data.universe)) == dumps_json(
            fractions.to_json_dict(data.universe)
        )

    def test_rules_cover_both_sides_of_the_bound_and_every_path(self):
        def fits_int64(data):
            common = lcm(*(p.denominator for p in data.probs.values()))
            fits = common.bit_length() + data.universe.n <= 63
            assert data.common_denominator == (common if fits else None)  # kept by the constructor
            return fits

        rules = CERTIFIED_RULES.items()
        fits = {name for name, data in rules if fits_int64(data)}
        certified = {name for name, data in rules if nonneg_certified(data)}
        accepted = {name for name, data in rules if test_frum(data, with_witness=False).accepted}
        boosted = {name for name in CERTIFIED_RULES if name.startswith("boosted")}
        assert {"boosted-2-1", "boosted-4-2"} <= fits and "boosted-5-1" not in fits
        assert fits <= boosted
        # every boosted cell is positive; two simulated rules have no zero boost
        assert certified == boosted - fits | {"simulated-3-1", "simulated-5-1"}
        assert accepted == set(CERTIFIED_RULES) - {"tiny-move-3", "tiny-move-6"}
        for seed in (0, 1):  # most cells exactly 0
            zeros = sum(v == 0 for v in naive_bm(CERTIFIED_RULES[f"simulated-8-{seed}"]).values())
            assert zeros > 1500

    @pytest.mark.parametrize("n", [3, 6])
    def test_mass_below_the_resolution_is_a_violation(self, n):
        verdict = test_frum(frame_free_rule(n, n, TINY), with_witness=False)
        # below the full frame, q(a, F) is (-1)^{n-|F|} * TINY for the first
        # alternative and its negative for the second; every other cell is >= 0
        odd = {f: (n - bin(f).count("1")) % 2 for f in range((1 << n) - 1)}
        expected = [("q", 0, f, -TINY) for f in odd if f & 1 and odd[f]]
        expected += [("q", 1, f, -TINY) for f in odd if f & 2 and not odd[f]]
        assert not verdict.accepted
        assert [(v.kind, v.alternative, v.frame, v.value) for v in verdict.violations] == expected

    def test_certified_rule_builds_no_table(self, monkeypatch):
        calls = counted_compute_bm(monkeypatch)
        assert test_frum(boosted_rule(8, 1)) == frum.FrumVerdict(True, True, (), None)
        assert calls == []

    def test_witness_builds_the_table_once(self, monkeypatch):
        data = boosted_rule(5, 1)
        assert nonneg_certified(data)
        calls = counted_compute_bm(monkeypatch)
        verdict = test_frum(data, with_witness=True)
        assert verdict.accepted and verdict.witness is not None and len(calls) == 1
        assert verdict == test_frum(data)  # n <= 6: a witness by default

    def test_rejected_rule_builds_the_table_once(self, monkeypatch):
        calls = counted_compute_bm(monkeypatch)
        assert not test_frum(frame_free_rule(6, 6, TINY), with_witness=False).accepted
        assert len(calls) == 1

    def test_float_rule_takes_the_float_table(self, monkeypatch):
        data = boosted_rule(8, 1, FLOAT64)
        assert not nonneg_certified(data)
        calls = counted_compute_bm(monkeypatch)
        assert test_frum(data).accepted and len(calls) == 1

    def test_partial_domain_and_small_denominators_are_not_certified(self, intro_partial_n3):
        assert not nonneg_certified(intro_partial_n3)
        assert not nonneg_certified(boosted_rule(4, 1))  # positive, but on the int64 path

    def test_each_test_reads_the_fraction_parts_once(self, monkeypatch):
        calls = []

        def counting(values):
            calls.append(values.shape)
            return fraction_parts(values)

        monkeypatch.setattr(core, "fraction_parts", counting)
        # under the int64 bound; certified past it; past it and rejected
        for build, accepted in (
            (lambda: boosted_rule(4, 1), True),
            (lambda: boosted_rule(8, 1), True),
            (lambda: frame_free_rule(6, 6, TINY), False),
        ):
            calls.clear()
            data = build()
            assert calls == [(data.values.size,)]  # the constructor's one read, of every cell
            verdict = test_frum(data, with_witness=False)
            assert verdict.accepted == accepted
            assert nonneg_certified(data) == (data.universe.n == 8)
            validate(data)
            compute_bm(data)
            assert verdict == test_frum(data, with_witness=False)
            assert calls == [(data.values.size,)]


# ---------------------------------------------------------------------------
# rational recovery on Python ints
# ---------------------------------------------------------------------------


def seeded_mixture_rule(n: int, seed: int, denominator: int) -> StochasticChoiceData:
    """Full-domain data of a few seeded types, weighted by cuts of ``denominator``."""
    rng = random.Random(seed)
    uni = default_universe(n)
    support = rng.sample(enumerate_types(uni), n + 2)
    cuts = sorted(rng.randrange(1, denominator) for _ in support[1:])
    weights = [Fraction(hi - lo, denominator) for lo, hi in zip([0, *cuts], [*cuts, denominator])]
    return forward_frum(TypeDistribution(uni, dict(zip(support, weights)), RATIONAL), range(1 << n))


class TestIntegerWalks:
    """Both rational recoveries walk Python ints and build one Fraction per type."""

    @pytest.mark.parametrize("denominator", [1000, PRIME], ids=["int64", "fractions"])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_walks_equal_the_path_oracle_and_each_other(self, n, denominator):
        for seed in range(3):
            data = seeded_mixture_rule(n, seed, denominator)
            table = compute_bm(data)
            assert (table.values.dtype == object) == (denominator == PRIME)  # past int64: Fractions
            branch, constructive = recover_branch_independent(data), recover_constructive(data)
            assert branch.weights == constructive.weights
            assert branch == test_frum(data).witness
            for ctype, weight in branch.weights.items():
                assert type(weight) is Fraction and weight > 0
                assert weight == branch_weight(table, ctype)
            assert all(type(w) is Fraction for w in constructive.weights.values())
            for mu in (branch, constructive):
                assert check_prop2(data, mu) == frum.Prop2Report(0, 0, 0)
