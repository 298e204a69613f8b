"""Deterministic model: axioms, representation construction, type enumeration."""

import itertools

import pytest

from framechoice.core import DataError, DeterministicChoiceData, Universe
from framechoice.detfum import (
    ChoiceType,
    FUMRejectionError,
    FUMRepresentation,
    IIFAViolationError,
    build_fum_representation,
    check_iifa,
    check_rep_equivalence,
    choice_function,
    enumerate_types,
    evaluate_fum,
    representation_for_type,
    type_count,
)
from framechoice.sim import default_universe
from oracles import first_consistent_type

UNI2 = Universe(("a", "b"))
AB, A, B, EMPTY = 0b11, 0b01, 0b10, 0b00

# Table-1 style rules: choices at ({a,b}, {a}, {b}, empty) by label
RULES = {
    "c1": "aaaa",
    "c2": "aaba",
    "c3": "aabb",
    "c4": "aaab",
    "c5": "abbb",
    "c6": "abaa",
    "c7": "abab",
    "c8": "abba",
}
AXIOM_ROWS = {  # (iifa1, iifa2)
    "c1": (True, True),
    "c2": (True, True),
    "c3": (True, True),
    "c4": (True, False),
    "c5": (False, True),
    "c6": (False, False),
    "c7": (False, False),
    "c8": (False, False),
}


def rule(word: str) -> DeterministicChoiceData:
    idx = {"a": 0, "b": 1}
    frames = (AB, A, B, EMPTY)
    return DeterministicChoiceData(UNI2, {f: idx[ch] for f, ch in zip(frames, word)})


class TestEvaluate:
    def test_fum_prefers_framed_boost(self):
        rep = FUMRepresentation(UNI2, (2, 1), (3, 2))
        assert evaluate_fum(rep, B) == 1  # boosted b beats plain a: 3 > 2
        assert evaluate_fum(rep, AB) == 0  # 5 > 3

    def test_zero_boost_means_frame_independence(self):
        rep = FUMRepresentation(Universe(("a", "b", "c")), (3, 2, 1), (0, 0, 0))
        choices = {evaluate_fum(rep, f) for f in range(8)}
        assert choices == {0}

    def test_non_injective_rejected(self):
        with pytest.raises(DataError, match="non-injective"):
            FUMRepresentation(UNI2, (1, 1), (1, 2))
        with pytest.raises(DataError, match="non-injective"):
            FUMRepresentation(UNI2, (1, 2), (1, 0))  # boosted a ties plain b

    def test_negative_boost_rejected(self):
        with pytest.raises(DataError):
            FUMRepresentation(UNI2, (2, 1), (-1, 0))

    def test_type_evaluation(self):
        t = ChoiceType((0, 1), 1)
        assert t.choose(B) == 1
        assert t.choose(EMPTY) == 0
        green = ChoiceType((2,), 1)
        assert green.choose(0b011) == 2  # picks c whatever is framed

    def test_type_validation(self):
        with pytest.raises(DataError):
            ChoiceType((), 1)
        with pytest.raises(DataError):
            ChoiceType((0, 0), 1)
        with pytest.raises(DataError):
            ChoiceType((0, 1), 3)


class TestIIFA:
    @pytest.mark.parametrize("name", sorted(RULES))
    def test_table1_rows(self, name):
        report = check_iifa(rule(RULES[name]))
        assert (report.iifa1, report.iifa2) == AXIOM_ROWS[name]
        assert report.iifa == (report.iifa1 and report.iifa2)

    def test_c6_witnesses(self):
        report = check_iifa(rule(RULES["c6"]))
        pairs1 = {(w.frame, w.subframe) for w in report.witnesses if w.axiom == "IIFA1"}
        pairs2 = {(w.frame, w.subframe) for w in report.witnesses if w.axiom == "IIFA2"}
        assert (AB, A) in pairs1
        assert (A, EMPTY) in pairs2

    def test_constant_rule_passes(self):
        report = check_iifa(rule("aaaa"))
        assert report.iifa and not report.witnesses

    def test_sixteen_rule_census(self):
        passing = 0
        for combo in itertools.product((0, 1), repeat=4):
            data = DeterministicChoiceData(UNI2, dict(zip((AB, A, B, EMPTY), combo)))
            passing += check_iifa(data).iifa
        assert passing == 6


class TestConstruction:
    def test_c2_reproduced(self):
        data = rule(RULES["c2"])
        rep = build_fum_representation(data)
        assert all(evaluate_fum(rep, f) == c for f, c in data.choices.items())

    def test_c1_reproduced(self):
        data = rule(RULES["c1"])
        rep = build_fum_representation(data)
        assert all(evaluate_fum(rep, f) == c for f, c in data.choices.items())

    def test_c6_raises_with_report(self):
        with pytest.raises(IIFAViolationError) as err:
            build_fum_representation(rule(RULES["c6"]))
        assert not err.value.report.iifa
        assert err.value.report.witnesses

    def test_succeeds_iff_iifa(self):
        for combo in itertools.product((0, 1), repeat=4):
            data = DeterministicChoiceData(UNI2, dict(zip((AB, A, B, EMPTY), combo)))
            ok = check_iifa(data).iifa
            if ok:
                rep = build_fum_representation(data)
                assert all(evaluate_fum(rep, f) == c for f, c in data.choices.items())
            else:
                with pytest.raises(IIFAViolationError):
                    build_fum_representation(data)

    def test_n1_degenerate(self):
        uni = Universe(("a",))
        data = DeterministicChoiceData(uni, {0: 0, 1: 0})
        rep = build_fum_representation(data)
        assert rep.u == (1,) and rep.v == (0,)

    def test_n3_every_type_function_reconstructs(self):
        uni = default_universe(3)
        for ctype in enumerate_types(uni):
            data = DeterministicChoiceData(
                uni, {f: ctype.choose(f) for f in range(8)}
            )
            rep = build_fum_representation(data)
            assert choice_function(rep) == tuple(map(ctype.choose, range(8)))

    def test_partial_domain_fallback_consistent(self):
        uni = default_universe(3)
        target = ChoiceType((0, 1), 1)
        observed = {0b010: target.choose(0b010), 0b110: target.choose(0b110)}
        rep = build_fum_representation(DeterministicChoiceData(uni, observed))
        assert all(evaluate_fum(rep, f) == c for f, c in observed.items())

    def test_partial_domain_fallback_inconsistent(self):
        # pairwise incomparable frames keep the axioms silent; no type matches
        uni = default_universe(3)
        observed = {0b001: 1, 0b010: 2, 0b100: 0}
        with pytest.raises(DataError, match="inconsistent with partial data"):
            build_fum_representation(DeterministicChoiceData(uni, observed))


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 6), (3, 33), (4, 196), (5, 1305)])
    def test_counts(self, n, count):
        assert len(enumerate_types(default_universe(n))) == count
        assert type_count(n) == count

    def test_n1_single_type(self):
        (only,) = enumerate_types(default_universe(1))
        assert only == ChoiceType((0,), 1)

    def test_canonical_order(self):
        types = enumerate_types(UNI2)
        assert types[:2] == [ChoiceType((0,), 1), ChoiceType((1,), 1)]
        keys = [(len(t.priority), t.priority, t.default_index) for t in types]
        assert keys == sorted(keys)

    def test_induced_functions_distinct(self):
        for n in (2, 3, 4):
            types = enumerate_types(default_universe(n))
            functions = {tuple(map(t.choose, range(1 << n))) for t in types}
            assert len(functions) == len(types)

    def test_size_guard(self):
        with pytest.raises(DataError):
            enumerate_types(default_universe(9))


class TestTypeRepDuality:
    def test_every_type_realized_by_a_representation(self):
        uni = default_universe(3)
        for ctype in enumerate_types(uni):
            rep = representation_for_type(ctype, uni)
            assert choice_function(rep) == tuple(map(ctype.choose, range(8)))

    def test_every_type_function_satisfies_iifa(self):
        uni = default_universe(3)
        for ctype in enumerate_types(uni):
            data = DeterministicChoiceData(uni, {f: ctype.choose(f) for f in range(8)})
            assert check_iifa(data).iifa


class TestExhaustiveCensus:
    def test_n3_all_rules_pass_iff_type_induced(self):
        # over the full power set the axiom-satisfying rules are exactly the
        # 33 type-induced ones, and construction succeeds on exactly those
        uni = default_universe(3)
        type_functions = {
            tuple(map(t.choose, range(8))) for t in enumerate_types(uni)
        }
        passing = 0
        for assignment in itertools.product(range(3), repeat=8):
            data = DeterministicChoiceData(uni, dict(enumerate(assignment)))
            ok = check_iifa(data).iifa
            assert ok == (assignment in type_functions)
            if ok:
                passing += 1
                rep = build_fum_representation(data)
                assert choice_function(rep) == assignment
        assert passing == 33

    def test_independent_constructions_are_equivalent(self):
        # on the full domain and on the frames of size <= 3 alike, the
        # construction gives exactly the numbers of the brute-force type's
        # realization
        for n in (2, 3, 4, 5):
            uni = default_universe(n)
            for max_size in (n, 3):
                frames = [f for f in range(1 << n) if bin(f).count("1") <= max_size]
                for ctype in enumerate_types(uni):
                    data = DeterministicChoiceData(uni, {f: ctype.choose(f) for f in frames})
                    expected = representation_for_type(first_consistent_type(data), uni)
                    rep = build_fum_representation(data)
                    assert (rep.u, rep.v) == (expected.u, expected.v), (n, max_size, ctype)

    def test_n3_domains_holding_small_frames_exhaustive(self):
        # every assignment on the two domains holding every frame of size <= 2
        # (8,748 datasets): rejected by IIFA exactly when the axioms fail,
        # otherwise the oracle type's realization or the inconsistency error
        uni = default_universe(3)
        outcomes = {"iifa": 0, "built": 0, "inconsistent": 0}
        for domain in (range(7), range(8)):
            for assignment in itertools.product(range(3), repeat=len(domain)):
                data = DeterministicChoiceData(uni, dict(zip(domain, assignment)))
                try:
                    rep = build_fum_representation(data)
                except FUMRejectionError as exc:
                    iifa_error = isinstance(exc, IIFAViolationError)
                    assert iifa_error == (not check_iifa(data).iifa), assignment
                    if not iifa_error:
                        assert str(exc).startswith("inconsistent with partial data")
                        assert first_consistent_type(data) is None, assignment
                    outcomes["iifa" if iifa_error else "inconsistent"] += 1
                    continue
                assert check_iifa(data).iifa, assignment
                expected = representation_for_type(first_consistent_type(data), uni)
                assert (rep.u, rep.v) == (expected.u, expected.v), assignment
                outcomes["built"] += 1
        assert sum(outcomes.values()) == 3**7 + 3**8
        assert min(outcomes.values()) > 0, outcomes

    def test_random_representations_roundtrip(self):
        # sample injective utilities, observe their rule, rebuild, compare
        import random as pyrandom

        uni = default_universe(4)
        rng = pyrandom.Random(2718)
        for _ in range(40):
            values = rng.sample(range(1, 100), 8)
            u = tuple(values[:4])
            v = tuple(b - a if b > a else 0 for a, b in zip(values[:4], values[4:]))
            try:
                rep = FUMRepresentation(uni, u, v)
            except DataError:
                continue  # sampled a tie between boosted and base values
            data = DeterministicChoiceData(
                uni, {f: evaluate_fum(rep, f) for f in range(16)}
            )
            rebuilt = build_fum_representation(data)
            report = check_rep_equivalence(rep, rebuilt)
            assert report.clauses_hold and report.same_choice_function


class TestRepEquivalence:
    def test_scaling_equivalent(self):
        r1 = FUMRepresentation(UNI2, (2, 1), (3, 2))
        r2 = FUMRepresentation(UNI2, (20, 10), (30, 20))
        report = check_rep_equivalence(r1, r2)
        assert report.clauses_hold and report.same_choice_function

    def test_different_argmax_decisive(self):
        r1 = FUMRepresentation(UNI2, (2, 1), (0, 0))
        r2 = FUMRepresentation(UNI2, (1, 2), (0, 0))
        report = check_rep_equivalence(r1, r2)
        assert not report.same_base_argmax
        assert not report.same_choice_function

    def test_swapped_boosted_ranking_detected(self):
        uni = Universe(("a", "b", "c"))
        # both boosts clear u(a)=10, but their order differs: distinguishable
        # at the frame where both are boosted
        r1 = FUMRepresentation(uni, (10, 1, 2), (0, 19, 14))
        r2 = FUMRepresentation(uni, (10, 1, 2), (0, 14, 19))
        report = check_rep_equivalence(r1, r2)
        assert not report.same_boosted_ranking
        assert not report.same_choice_function

    def test_inert_argmax_boost_is_not_identified(self):
        uni = Universe(("a", "b"))
        # boosting the default below the other cleared boost changes nothing
        r1 = FUMRepresentation(uni, (10, 1), (1, 20))
        r2 = FUMRepresentation(uni, (10, 1), (0, 20))
        report = check_rep_equivalence(r1, r2)
        assert report.same_choice_function
        assert report.clauses_hold

    def test_indistinguishable_utility_types(self):
        # same boosted ranking, all boosts clear the default's base value,
        # bottom base order swapped: identical behavior everywhere
        uni = Universe(("a", "b", "c"))
        r1 = FUMRepresentation(uni, (1, 2, 3), (9, 6, 2))
        r2 = FUMRepresentation(uni, (2, 1, 3), (8, 7, 2))
        report = check_rep_equivalence(r1, r2)
        assert report.clauses_hold
        assert report.same_choice_function
