"""Deterministic model: axioms, representation construction, type enumeration."""

import itertools
import random

import pytest

from framechoice import detfum
from framechoice.core import DataError, DeterministicChoiceData, Universe
from framechoice.detfum import (
    AxiomReport,
    AxiomWitness,
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
from oracles import first_consistent_type, iifa_witnesses

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


def _outcome_against_oracle(data):
    """Build, check the outcome against ``first_consistent_type`` and name it."""
    oracle = first_consistent_type(data)
    try:
        rep = build_fum_representation(data)
    except FUMRejectionError as exc:
        assert oracle is None, data.choices
        if isinstance(exc, IIFAViolationError):
            assert not check_iifa(data).iifa, data.choices
            return "iifa"
        assert check_iifa(data).iifa, data.choices
        assert str(exc) == (
            "inconsistent with partial data: no choice type matches every observation"
        )
        return "inconsistent"
    assert oracle is not None, data.choices
    uni = data.universe
    if uni.n == 1:
        expected = FUMRepresentation(uni, (1,), (0,))
    else:
        expected = representation_for_type(oracle, uni)
    assert (rep.u, rep.v) == (expected.u, expected.v), data.choices
    return "built"


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

    def test_rejected_rules_keep_their_witnesses(self):
        # every witness of the failing Table-1 rows, in report order
        expected = {
            "c4": [("IIFA2", B, EMPTY, "c({b})=a but c({})=b")],
            "c5": [("IIFA1", AB, A, "c({a|b})=a but c({a})=b")],
            "c6": [("IIFA2", A, EMPTY, "c({a})=b but c({})=a"),
                   ("IIFA1", AB, A, "c({a|b})=a but c({a})=b")],
            "c7": [("IIFA2", B, EMPTY, "c({b})=a but c({})=b"),
                   ("IIFA1", AB, A, "c({a|b})=a but c({a})=b")],
            "c8": [("IIFA2", A, EMPTY, "c({a})=b but c({})=a"),
                   ("IIFA1", AB, A, "c({a|b})=a but c({a})=b")],
        }
        for name, witnesses in expected.items():
            report = check_iifa(rule(RULES[name]))
            assert report.witnesses == tuple(AxiomWitness(*w) for w in witnesses), name

    def test_corrupted_rules_list_every_witness_in_order(self):
        # type-induced rules with one or two cells changed, on the full domain
        # at n = 3 and on random domains at n = 4 and 5, against the pair scan
        # written from the axioms; the clean ones against no witness at all
        rng = random.Random(13)
        broken = 0
        for n, count in ((3, 200), (4, 150), (5, 60)):
            uni = default_universe(n)
            types = enumerate_types(uni)
            frames = range(1 << n)
            for i in range(count):
                ctype = rng.choice(types)
                domain = frames if n == 3 else rng.sample(frames, rng.randint(1, len(frames)))
                choices = {f: ctype.choose(f) for f in domain}
                for f in rng.sample(list(domain), min(len(domain), 1 + i % 2)):
                    choices[f] = rng.randrange(n)
                data = DeterministicChoiceData(uni, choices)
                report = check_iifa(data)
                found = [(w.axiom, w.frame, w.subframe) for w in report.witnesses]
                assert found == iifa_witnesses(data), (n, choices)
                assert report.iifa1 == all(w[0] != "IIFA1" for w in found)
                assert report.iifa2 == all(w[0] != "IIFA2" for w in found)
                broken += not report.iifa
        assert broken > 100

    def test_type_induced_rule_passes_without_pair_scan(self):
        # the pair scan reads choices[F] for every comparable pair, about
        # 3^12 reads here; a matching type settles both axioms without it
        class CountedReads(dict):
            reads = 0

            def __getitem__(self, frame):
                CountedReads.reads += 1
                return super().__getitem__(frame)

        uni = default_universe(12)
        ctype = ChoiceType((3, 1, 7, 0, 5), 4)
        data = DeterministicChoiceData(uni, {f: ctype.choose(f) for f in range(1 << 12)})
        # the constructor keeps its own copy: count the reads of that one
        object.__setattr__(data, "choices", CountedReads(data.choices))
        report = check_iifa(data)
        assert report == AxiomReport(True, True, ())
        assert CountedReads.reads == 0

    def test_later_changes_to_the_input_dict_change_no_answer(self):
        # the rule of det_broken_n3 in the report corpus: {a} picks c
        uni = Universe(("a", "b", "c"))
        choices = {0: 2, 0b001: 2, 0b010: 1, 0b100: 2, 0b011: 1, 0b101: 0, 0b110: 1, 0b111: 1}
        data = DeterministicChoiceData(uni, choices)
        report = check_iifa(data)
        del choices[0b111]
        choices[0b001] = 0
        assert data.choices[0b111] == 1 and data.choices[0b001] == 2
        assert check_iifa(data) == report and not report.iifa
        with pytest.raises(IIFAViolationError):
            build_fum_representation(data)

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

    def test_type_found_without_axiom_scan(self, monkeypatch):
        # the pairwise IIFA scan is O(4^n); a matching type already proves both axioms
        def no_scan(data):
            raise AssertionError("check_iifa ran although a type matches")

        monkeypatch.setattr(detfum, "check_iifa", no_scan)
        uni = default_universe(12)
        ctype = ChoiceType((3, 0, 7, 11, 5), 3)
        data = DeterministicChoiceData(uni, {f: ctype.choose(f) for f in range(1 << 12)})
        rep = build_fum_representation(data)
        assert rep == representation_for_type(ctype, uni)

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

    def test_every_dataset_up_to_n3_exhaustive(self):
        # every assignment on every domain at n = 1, 2 and 3 (65,621
        # datasets): construction raises exactly when the oracle finds no
        # type, with IIFAViolationError exactly when the axioms fail, and
        # otherwise gives exactly the numbers of the oracle type's realization
        # (at n = 1 the fixed u = 1, v = 0)
        outcomes = {"iifa": 0, "built": 0, "inconsistent": 0}
        for n in (1, 2, 3):
            uni = default_universe(n)
            frames = range(1 << n)
            for size in range(len(frames) + 1):
                for domain in itertools.combinations(frames, size):
                    for assignment in itertools.product(range(n), repeat=size):
                        data = DeterministicChoiceData(uni, dict(zip(domain, assignment)))
                        outcome = _outcome_against_oracle(data)
                        outcomes[outcome] += 1
        assert sum(outcomes.values()) == 2**2 + 3**4 + 4**8
        assert min(outcomes.values()) > 0, outcomes

    def test_random_partial_domains_match_the_oracle(self):
        # seeded type-induced rules on random domains at n = 4, 5 and 6, some
        # with corrupted cells, and sparse arbitrary ones
        rng = random.Random(4242)
        outcomes = {"iifa": 0, "built": 0, "inconsistent": 0}
        for n, count in ((4, 150), (5, 100), (6, 40)):
            uni = default_universe(n)
            types = enumerate_types(uni)
            frames = range(1 << n)
            for i in range(count):
                if i % 3 == 2:
                    domain = rng.sample(frames, rng.randint(0, 2 * n))
                    choices = {f: rng.randrange(n) for f in domain}
                else:
                    ctype = rng.choice(types)
                    domain = rng.sample(frames, rng.randint(0, len(frames)))
                    choices = {f: ctype.choose(f) for f in domain}
                    for f in rng.sample(domain, min(len(domain), i % 3)):
                        choices[f] = rng.randrange(n)
                outcome = _outcome_against_oracle(DeterministicChoiceData(uni, choices))
                outcomes[outcome] += 1
        assert min(outcomes.values()) > 0, outcomes

    def test_ranking_cycle_is_rejected(self):
        # no frame holds another, so the axioms are silent, but each framed
        # pick must outrank the next one round the cycle
        uni = default_universe(3)
        data = DeterministicChoiceData(uni, {0b011: 0, 0b110: 1, 0b101: 2})
        assert check_iifa(data).iifa
        with pytest.raises(FUMRejectionError, match="inconsistent with partial data") as info:
            build_fum_representation(data)
        assert not isinstance(info.value, IIFAViolationError)

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
