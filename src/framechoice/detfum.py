"""Deterministic frame-dependent utility: axioms, representation, choice types.

A decision maker carries a base value ``u(x)`` for each alternative and a
nonnegative boost ``v(x)`` that applies only while ``x`` is framed; the choice
at frame ``F`` maximizes ``u(x) + v(x)*[x in F]``.  The model allows finitely
many distinct choice functions, the choice types, and this module enumerates
them.  It tests choice data against the axioms characterizing the model (IIFA),
and builds a representation of consistent data by constructing the first
choice type that matches every observation, with no search over the types,
and realizing that type with integer values.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import permutations
from .core import DataError, DeterministicChoiceData, FramedValues, Number, Universe, members

MAX_ENUMERATION = 8  # type count grows as sum_i i! * C(n,i) * i


@dataclass(frozen=True)
class ChoiceType:
    """One deterministic frame-dependent choice rule in canonical encoding.

    ``priority`` lists the alternatives whose framed versions outrank the best
    unframed value, best first; ``default_index`` (1-based position into
    ``priority``) names the alternative chosen when no priority member is
    framed.  Evaluation: pick the first priority member present in the frame,
    otherwise the default.
    """

    priority: tuple[int, ...]
    default_index: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "priority", tuple(self.priority))
        k = len(self.priority)
        if k < 1:
            raise DataError("priority list must be non-empty")
        if len(set(self.priority)) != k or min(self.priority) < 0:
            raise DataError("priority entries must be distinct nonnegative alternative indices")
        if not 1 <= self.default_index <= k:
            raise DataError(f"default_index must be in 1..{k}")

    @property
    def default(self) -> int:
        return self.priority[self.default_index - 1]

    def choose(self, frame: int) -> int:
        for alt in self.priority:
            if frame & (1 << alt):
                return alt
        return self.default


def enumerate_types(universe: Universe) -> list[ChoiceType]:
    """All distinct frame-dependent choice types, in canonical order.

    Ordered by priority length, then lexicographic priority, then default
    position.  No two types induce the same choice function.
    """
    n = universe.n
    if n > MAX_ENUMERATION:
        raise DataError(f"type enumeration supported for n <= {MAX_ENUMERATION}, got {n}")
    out = []
    for k in range(1, n + 1):
        for prio in permutations(range(n), k):
            for j in range(1, k + 1):
                out.append(ChoiceType(prio, j))
    return out


def type_count(n: int) -> int:
    """Closed-form count of distinct choice types for an n-alternative universe."""
    from math import comb, factorial

    return sum(factorial(i) * comb(n, i) * i for i in range(1, n + 1))


# ---------------------------------------------------------------------------
# utility representations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FUMRepresentation(FramedValues):
    """Base values ``u`` and nonnegative framed boosts ``v`` per alternative.

    Distinct alternatives must never tie under any frame-status combination
    (base vs base, base vs boosted, boosted vs boosted), so every frame has a
    unique maximizer.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        if any(b < 0 for b in self.v):
            raise DataError("framed boosts must be nonnegative")
        n = self.universe.n
        for x in range(n):
            for y in range(x + 1, n):
                vals_x = {self.u[x], self.u[x] + self.v[x]}
                vals_y = {self.u[y], self.u[y] + self.v[y]}
                if vals_x & vals_y:
                    raise DataError("non-injective utility")

    def value(self, alt: int, frame: int) -> Number:
        return self.u[alt] + self.v[alt] if frame & (1 << alt) else self.u[alt]


def evaluate_fum(rep: FUMRepresentation, frame: int) -> int:
    """Maximizer of the frame-adjusted utility at a frame (unique: ``rep`` is injective)."""
    best, best_val = 0, rep.value(0, frame)
    for alt in range(1, rep.universe.n):
        val = rep.value(alt, frame)
        if val > best_val:
            best, best_val = alt, val
    return best


def choice_function(rep: FUMRepresentation) -> tuple[int, ...]:
    """The full choice function induced by a representation, by frame mask."""
    return tuple(evaluate_fum(rep, f) for f in range(1 << rep.universe.n))


def representation_for_type(ctype: ChoiceType, universe: Universe) -> FUMRepresentation:
    """An integer-valued representation whose choices match the type everywhere."""
    n = universe.n
    prio = ctype.priority
    in_prio = set(prio)
    # top-to-bottom symbol order: boosted priorities, the default's base value,
    # then everything else with each boost directly above its base
    order: list[tuple[int, bool]] = [(a, True) for a in prio]
    order.append((ctype.default, False))
    for x in range(n):
        if x not in in_prio:
            order.append((x, True))
            order.append((x, False))
        elif x != ctype.default:
            order.append((x, False))
    rank = {sym: 2 * n - pos for pos, sym in enumerate(order)}
    u = tuple(rank[(x, False)] for x in range(n))
    v = tuple(rank[(x, True)] - rank[(x, False)] for x in range(n))
    return FUMRepresentation(universe, u, v)


# ---------------------------------------------------------------------------
# axiom checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomWitness:
    axiom: str
    frame: int
    subframe: int
    explanation: str


@dataclass(frozen=True)
class AxiomReport:
    """Verdicts for the frame-shrinking consistency axioms.

    ``iifa1`` covers shrinkage that keeps a framed winner framed; ``iifa2``
    covers shrinkage when the winner was outside the frame.  The combined
    axiom holds exactly when both do.
    """

    iifa1: bool
    iifa2: bool
    witnesses: tuple[AxiomWitness, ...]

    @property
    def iifa(self) -> bool:
        return self.iifa1 and self.iifa2

    def to_json_dict(self, universe: Universe) -> dict:
        return {
            "iifa1": self.iifa1,
            "iifa2": self.iifa2,
            "iifa": self.iifa,
            "witnesses": [
                {
                    "axiom": w.axiom,
                    "frame": universe.frame_str(w.frame),
                    "subframe": universe.frame_str(w.subframe),
                    "explanation": w.explanation,
                }
                for w in self.witnesses
            ],
        }


class FUMRejectionError(DataError):
    """Well-formed choice data that no frame-dependent utility reproduces.

    Carries the axiom report, which passes unless the subclass below is raised.
    """

    def __init__(self, message: str, report: AxiomReport):
        super().__init__(message)
        self.report = report


class IIFAViolationError(FUMRejectionError):
    """Raised when construction is attempted on axiom-violating data."""


def check_iifa(data: DeterministicChoiceData) -> AxiomReport:
    """Both axioms: a matching choice type passes them, else every frame pair is scanned."""
    if _first_consistent_type(data) is not None:
        return AxiomReport(True, True, ())
    uni = data.universe
    witnesses: list[AxiomWitness] = []
    ok1 = ok2 = True
    for big in data.domain:
        chosen = data.choices[big]
        cbit = 1 << chosen
        for small in data.domain:
            if small == big or (small & big) != small:
                continue
            other = data.choices[small]
            if other == chosen:
                continue
            # a framed winner that stays framed breaks IIFA1; an unframed one, IIFA2
            broken1, broken2 = bool(cbit & small), not cbit & big
            if not (broken1 or broken2):
                continue
            desc = (
                f"c({{{uni.frame_str(big)}}})={uni.names[chosen]} but "
                f"c({{{uni.frame_str(small)}}})={uni.names[other]}"
            )
            if broken1:
                ok1 = False
                witnesses.append(AxiomWitness("IIFA1", big, small, desc))
            if broken2:
                ok2 = False
                witnesses.append(AxiomWitness("IIFA2", big, small, desc))
    return AxiomReport(ok1, ok2, tuple(witnesses))


# ---------------------------------------------------------------------------
# representation construction
# ---------------------------------------------------------------------------


def build_fum_representation(data: DeterministicChoiceData) -> FUMRepresentation:
    """Construct a representation reproducing the data, or raise on rejection.

    :func:`_first_consistent_type` builds the first enumerated type matching
    every observation (with every frame of size <= 3 observed it is the only
    one) and :func:`representation_for_type` realizes it.  A choice type
    satisfies both axioms on any domain, so the axioms are checked only when
    no type matches: data violating them raises :class:`IIFAViolationError`,
    other data :class:`FUMRejectionError`.
    """
    uni = data.universe
    ctype = _first_consistent_type(data)
    if ctype is None:
        report = check_iifa(data)
        if not report.iifa:
            raise IIFAViolationError("choice data violates IIFA", report)
        raise FUMRejectionError(
            "inconsistent with partial data: no choice type matches every observation", report
        )
    if uni.n == 1:
        return FUMRepresentation(uni, (1,), (0,))
    rep = representation_for_type(ctype, uni)
    for frame, chosen in data.choices.items():
        if evaluate_fum(rep, frame) != chosen:  # pragma: no cover - guarded by theory
            raise DataError("constructed representation fails to reproduce the data")
    return rep


def _first_consistent_type(data: DeterministicChoiceData) -> ChoiceType | None:
    """The first type, in :func:`enumerate_types` order, matching every observation.

    Every pick is listed; an unframed pick is the default and no member of its
    frame may be listed; a framed pick ranks above the frame's other listed
    members.  The shortest such list holds exactly the picks (``{0}`` with no
    observations), and its first order is the greedy smallest-ready
    topological order of those rankings.  None when two unframed picks
    differ, a barred member is picked, or the rankings cycle.
    """
    picks = defaults = barred = 0
    framed: dict[int, int] = {}  # pick -> the other members of its framed frames
    for frame, chosen in data.choices.items():
        bit = 1 << chosen
        picks |= bit
        if frame & bit:
            framed[chosen] = framed.get(chosen, 0) | frame ^ bit
        else:
            defaults |= bit
            barred |= frame
    if defaults & (defaults - 1) or picks & barred:
        return None
    left = picks or 1
    above = {x: sum(1 << c for c, f in framed.items() if f >> x & 1) for x in members(left)}
    prio: list[int] = []
    while left:
        ready = [x for x in members(left) if not above[x] & left]
        if not ready:
            return None
        prio.append(ready[0])
        left &= ~(1 << ready[0])
    return ChoiceType(tuple(prio), prio.index(defaults.bit_length() - 1) + 1 if defaults else 1)


# ---------------------------------------------------------------------------
# representation equivalence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RepEquivalenceReport:
    """Clause-by-clause comparison of two representations.

    The three ordinal clauses are what the data can identify: the unframed
    winner, which boosts clear that winner, and the ranking among the boosts
    that do.  ``same_choice_function`` compares induced choices on every frame.
    """

    same_base_argmax: bool
    same_boost_comparisons: bool
    same_boosted_ranking: bool
    same_choice_function: bool

    @property
    def clauses_hold(self) -> bool:
        return self.same_base_argmax and self.same_boost_comparisons and self.same_boosted_ranking

    def to_json_dict(self) -> dict:
        return asdict(self)


def _cleared_boost_ranking(rep: FUMRepresentation, argmax: int) -> list[int]:
    # boosted values clearing the best base value, best first; the argmax's
    # own boost is dropped when it ranks last there, because a boost that
    # never beats another cleared boost cannot show up in any choice
    top = [x for x in range(rep.universe.n) if rep.u[x] + rep.v[x] > rep.u[argmax]]
    top.sort(key=lambda x: rep.u[x] + rep.v[x], reverse=True)
    if top and top[-1] == argmax:
        top.pop()
    return top


def check_rep_equivalence(r1: FUMRepresentation, r2: FUMRepresentation) -> RepEquivalenceReport:
    """Compare two representations on the identified ordinal content."""
    if r1.universe != r2.universe:
        raise DataError("representations must share a universe")
    n = r1.universe.n
    a1 = max(range(n), key=lambda x: r1.u[x])
    a2 = max(range(n), key=lambda x: r2.u[x])
    same_argmax = a1 == a2
    same_signs = False
    same_ranking = False
    if same_argmax:
        a = a1
        same_signs = all(
            (r1.u[a] > r1.u[x] + r1.v[x]) == (r2.u[a] > r2.u[x] + r2.v[x]) for x in range(n)
        )
        same_ranking = _cleared_boost_ranking(r1, a) == _cleared_boost_ranking(r2, a)
    return RepEquivalenceReport(
        same_base_argmax=same_argmax,
        same_boost_comparisons=same_signs,
        same_boosted_ranking=same_ranking,
        same_choice_function=choice_function(r1) == choice_function(r2),
    )
