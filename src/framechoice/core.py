"""Alternatives, frames, choice datasets, parsing, and the shared numeric policy.

Alternatives are referenced by index ``0..n-1`` into a :class:`Universe`;
frames are ``n``-bit integer masks over those indices, so subset tests and
lattice iteration are plain integer arithmetic.  All analysis modules work in
one of two numeric modes: ``float64`` with a tolerance ``eps``, or exact
rational arithmetic backed by :class:`fractions.Fraction`.
"""

from __future__ import annotations

import csv
import io
import json
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import comb
from typing import Iterable, Iterator, Union

import numpy as np

Number = Union[float, Fraction]

MAX_UNIVERSE = 20  # lattice tables are O(n * 2^n)
MAX_EXPONENT = 4300  # as Python's int digit limit; 1e-1000000 would build a 3.3M-bit Fraction
_RESERVED = ("|", ",")


class DataError(ValueError):
    """Malformed or inconsistent choice data."""


# ---------------------------------------------------------------------------
# numeric policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NumericPolicy:
    """Numeric mode shared by a dataset and everything derived from it.

    ``float64`` compares with tolerance ``eps`` (scaled up for deeper
    alternating sums by the caller); ``rational`` parses decimal strings
    exactly and compares without tolerance.
    """

    mode: str = "float64"
    eps: float = 1e-9

    def __post_init__(self) -> None:
        if self.mode not in ("float64", "rational"):
            raise DataError(f"unknown numeric mode {self.mode!r}")
        if not 0 <= self.eps < 1:  # compared against probabilities and sums of them
            raise DataError(f"eps must be finite and in [0, 1), got {self.eps}")

    @property
    def exact(self) -> bool:
        return self.mode == "rational"

    def parse(self, text: str) -> Number:
        """Parse a number literal (decimal, or ``p/q`` in rational mode)."""
        text = text.strip()
        try:
            if self.exact:
                _, marker, exponent = text.upper().partition("E")
                if marker and abs(int(exponent)) > MAX_EXPONENT:
                    raise ValueError("exponent out of range")
                return Fraction(text)
            return float(Fraction(text)) if "/" in text else float(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise DataError(f"bad number literal {text!r}") from exc

    def zero(self) -> Number:
        return Fraction(0) if self.exact else 0.0

    def one(self) -> Number:
        return Fraction(1) if self.exact else 1.0

    def convert(self, x: Number) -> Number:
        """Coerce a number into this policy's representation (exactly)."""
        if self.exact:
            return x if isinstance(x, Fraction) else Fraction(x)
        return float(x)

    def is_close(self, x: Number, y: Number, scale: int = 1) -> bool:
        if self.exact:
            return x == y
        return abs(x - y) <= scale * self.eps

    def is_nonneg(self, x: Number, scale: int = 1) -> bool:
        if self.exact:
            return x >= 0
        return x >= -scale * self.eps


FLOAT64 = NumericPolicy("float64")
RATIONAL = NumericPolicy("rational")


def number_to_str(x: Number) -> str:
    """Render a number losslessly (exact decimal for Fractions when possible)."""
    # the exact-type test first: isinstance against Fraction goes through ABCMeta
    if type(x) is not float and isinstance(x, Fraction):
        dec = _terminating_decimal(x)
        return dec if dec is not None else f"{x.numerator}/{x.denominator}"
    return repr(float(x))


def number_to_json(x: Number) -> object:
    """JSON encoding: floats stay numbers, Fractions become strings."""
    return number_to_str(x) if type(x) is not float and isinstance(x, Fraction) else float(x)


def _terminating_decimal(x: Fraction) -> str | None:
    d = x.denominator
    twos = fives = 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        return None
    k = max(twos, fives)
    scaled = x.numerator * 10**k // x.denominator
    if k == 0:
        return str(scaled)
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(k + 1, "0")
    return f"{sign}{digits[:-k]}.{digits[-k:]}"


# ---------------------------------------------------------------------------
# universe and frames
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Universe:
    """Ordered set of distinct alternative labels.

    The grand set of alternatives stays fixed; only the framed subset varies.
    Labels may not contain the separator characters ``|`` or ``,``.
    """

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if not 1 <= len(names) <= MAX_UNIVERSE:
            raise DataError(f"universe size must be in 1..{MAX_UNIVERSE}, got {len(names)}")
        if len(set(names)) != len(names):
            raise DataError("duplicate alternative labels")
        for name in names:
            if not name or any(ch in name for ch in _RESERVED):
                raise DataError(f"bad alternative label {name!r}")
        # label lookup and the frame_str memo; not dataclass fields, so
        # equality, hash and repr still see only ``names``
        object.__setattr__(self, "_index", {name: i for i, name in enumerate(names)})
        object.__setattr__(self, "_texts", {})

    def __reduce__(self):
        """Pickle by names alone; a copy fills its own memo."""
        return (Universe, (self.names,))

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def full_frame(self) -> int:
        return (1 << self.n) - 1

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise DataError(f"unknown alternative {label!r}") from None

    def frame(self, labels: Iterable[str] | str) -> int:
        """Build a frame mask from labels (iterable, or a ``|``-joined string).

        Blanks around each label of a string are ignored.
        """
        if isinstance(labels, str):
            labels = [] if labels == "" else [label.strip() for label in labels.split("|")]
        mask = 0
        for label in labels:
            bit = 1 << self.index(label)
            if mask & bit:
                raise DataError(f"duplicate label {label!r} in frame")
            mask |= bit
        return mask

    def frame_str(self, mask: int) -> str:
        """Canonical text form of a frame: ``|``-joined sorted labels (memoized)."""
        text = self._texts.get(mask)
        if text is None:
            text = "|".join(sorted(self.names[i] for i in members(mask)))
            self._texts[mask] = text
        return text

    def frames(self) -> Iterator[int]:
        """All 2^n frames in ascending mask order."""
        return iter(range(1 << self.n))


def cell_records(universe: Universe, cells: Iterable, key: str) -> list[dict]:
    """JSON records ``{alternative, frame, <key>}`` of (alternative, frame, value) cells."""
    return [
        {"alternative": universe.names[a], "frame": universe.frame_str(f), key: number_to_json(v)}
        for a, f, v in cells
    ]


def members(mask: int) -> tuple[int, ...]:
    """Indices contained in a frame mask, ascending."""
    if mask < 0:
        raise DataError(f"negative frame mask {mask}")
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def submasks(mask: int) -> Iterator[int]:
    """All subsets of ``mask`` (including 0 and ``mask`` itself)."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def supersets(mask: int, n: int) -> Iterator[int]:
    """All supersets of ``mask`` within an n-element universe."""
    free = ((1 << n) - 1) & ~mask
    for extra in submasks(free):
        yield mask | extra


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------


def _observed_cells(
    domain: tuple[int, ...], values: np.ndarray, observed: np.ndarray
) -> Iterator[tuple[int, int, Number]]:
    """(alternative, frame, value) of each observed cell: frame by frame, alternatives ascending."""
    columns, alts = np.nonzero(observed.T)
    frames = np.array(domain, np.int64)[columns]
    return zip(alts.tolist(), frames.tolist(), values.T[observed.T].tolist())


class CellView(Mapping):
    """Read-only mapping ``(alternative, frame) -> probability`` over a frame matrix.

    Column ``j`` of ``values``/``observed`` holds frame ``domain[j]`` (sorted
    masks).  A lookup bisects ``domain``; iteration walks the observed cells
    frame by frame, alternatives ascending within a frame, as ``to_csv``
    writes them.  ``get``, ``in``, ``items``, ``values`` and ``==`` come from
    :class:`~collections.abc.Mapping`, one lookup per key.
    """

    __slots__ = ("_domain", "_values", "_observed")

    def __init__(self, domain: tuple[int, ...], values: np.ndarray, observed: np.ndarray):
        self._domain, self._values, self._observed = domain, values, observed

    def __getitem__(self, key: tuple[int, int]) -> Number:
        try:
            alt, frame = key
            a, f = int(alt), int(frame)
            j = bisect_left(self._domain, f)
            # as in a dict, a key equal to an int pair finds its cell: (0.0, 3) but not (0.5, 3)
            if (a, f) == key and j < len(self._domain) and self._domain[j] == f:
                if 0 <= a < len(self._observed) and self._observed.item(a, j):
                    return self._values.item(a, j)
        except (TypeError, ValueError, OverflowError):  # no pair, or int() refused it (nan, inf)
            pass
        raise KeyError(key)

    def __len__(self) -> int:
        return int(np.count_nonzero(self._observed))

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return ((a, f) for a, f, _ in _observed_cells(self._domain, self._values, self._observed))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


@dataclass(frozen=True)
class StochasticChoiceData:
    """A stochastic choice rule: probability of each alternative at each frame.

    Probability may be positive for alternatives outside the frame; that is
    the point of the model.  A frame is *complete* when all ``n`` alternatives
    carry an entry; complete frames must sum to one.  Frames observed only for
    some alternatives are permitted (they arise in falsification work on
    partial data) but most analyses require complete frames.

    The constructor checks the caller's ``probs`` and builds from it one
    frame matrix, column ``j`` holding frame ``domain[j]``: ``values[a, j]``
    (``float64``, or the caller's ``Fraction`` objects; 0 where unobserved)
    and ``observed[a, j]``, both read-only.  It then replaces ``probs`` with
    a :class:`CellView` of that matrix and keeps no reference to the caller's
    mapping, so the cells are stored once and changing the input afterwards
    changes no answer.  ``values`` and ``observed`` are not fields; equality
    and repr see the cells through ``probs``.
    """

    universe: Universe
    probs: Mapping[tuple[int, int], Number]
    policy: NumericPolicy = FLOAT64
    domain: tuple[int, ...] = field(init=False)
    partial: bool = field(init=False)

    def __post_init__(self) -> None:
        n = self.universe.n
        full = self.universe.full_frame
        exact = self.policy.exact
        native = Fraction if exact else float  # spares most cells the ABCMeta isinstance
        floor = 0 if exact else -self.policy.eps  # is_nonneg(x) is x >= floor
        for (alt, frame), p in self.probs.items():
            if not 0 <= alt < n:
                raise DataError(f"alternative index {alt} out of range")
            if not 0 <= frame <= full:
                raise DataError(f"frame mask {frame} out of range")
            if type(p) is not native and exact != isinstance(p, Fraction):
                raise DataError("probability representation does not match numeric mode")
            if not (p >= floor and 1 - p >= floor):
                raise DataError(
                    f"probability {number_to_str(p)} for ({self.universe.names[alt]!r}, "
                    f"{self.universe.frame_str(frame)!r}) outside [0,1]"
                )
        cells = len(self.probs)
        dtype = object if exact else np.float64
        keys = np.fromiter(chain.from_iterable(self.probs), np.int64, 2 * cells).reshape(cells, 2)
        probs = np.fromiter(self.probs.values(), dtype, cells)
        domain, column = np.unique(keys[:, 1], return_inverse=True)
        values = np.zeros((n, len(domain)), dtype)
        values[keys[:, 0], column] = probs
        observed = np.zeros(values.shape, bool)
        observed[keys[:, 0], column] = True
        totals = np.zeros(len(domain), dtype)  # 0 + p1 + p2 ..., in row order, as sum() adds
        np.add.at(totals, column, probs)
        complete = observed.all(axis=0)
        near_one = self.policy.is_close(totals, self.policy.one(), scale=n)
        # a complete frame must sum to one, a partial one may fall short of it
        failing = ~near_one & (complete | (totals > 1))
        if failing.any():
            j = column[failing[column].argmax()]  # the failing frame whose first row comes first
            where, total = self.universe.frame_str(int(domain[j])), number_to_str(totals[j])
            if complete[j]:
                raise DataError(f"frame sum for {where!r} is {total}, expected 1")
            raise DataError(f"observed mass {total} at partial frame {where!r} exceeds 1")
        object.__setattr__(self, "domain", tuple(domain.tolist()))
        object.__setattr__(self, "partial", not complete.all())
        values.flags.writeable = observed.flags.writeable = False  # the one store of the cells
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "observed", observed)
        object.__setattr__(self, "probs", CellView(self.domain, values, observed))

    def rho(self, alt: int, frame: int) -> Number:
        p = self.get(alt, frame)
        if p is None:
            where = f"({self.universe.names[alt]!r}, {self.universe.frame_str(frame)!r})"
            raise DataError(f"no observation for {where}")
        return p

    def get(self, alt: int, frame: int) -> Number | None:
        return self.probs.get((alt, frame))

    def is_complete_frame(self, frame: int) -> bool:
        return all((alt, frame) in self.probs for alt in range(self.universe.n))

    @property
    def full_domain(self) -> bool:
        """True when every frame of the power set is completely observed."""
        return len(self.domain) == 1 << self.universe.n and not self.partial

    def contains_frames_up_to(self, k: int) -> bool:
        """True when every frame of at most ``k`` members is completely observed."""
        n = self.universe.n
        complete = np.array(self.domain, np.int64)[self.observed.all(axis=0)]
        sizes = ((complete[:, None] >> np.arange(n)) & 1).sum(axis=1)
        return int(np.count_nonzero(sizes <= k)) == sum(comb(n, j) for j in range(k + 1))

    def positivity(self) -> bool:
        """Whether every observed probability is strictly positive."""
        return bool((self.values[self.observed] > 0).all())

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(f"# universe: {'|'.join(self.universe.names)}\n")
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["frame", "alternative", "probability"])
        writer.writerows(
            [self.universe.frame_str(frame), self.universe.names[alt], number_to_str(p)]
            for alt, frame, p in _observed_cells(self.domain, self.values, self.observed)
        )
        return out.getvalue()

    def to_json_dict(self) -> dict:
        cells = _observed_cells(self.domain, self.values, self.observed)
        return {
            "universe": list(self.universe.names),
            "numeric_mode": self.policy.mode,
            "frames": [self.universe.frame_str(f) for f in self.domain],
            "probs": cell_records(self.universe, cells, "p"),
        }


@dataclass(frozen=True)
class DeterministicChoiceData:
    """A deterministic choice rule: one chosen alternative per observed frame.

    The chosen alternative need not belong to the frame.
    """

    universe: Universe
    choices: Mapping[int, int]
    domain: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "choices", dict(self.choices))  # not the caller's dict
        n = self.universe.n
        full = self.universe.full_frame
        for frame, alt in self.choices.items():
            if not 0 <= frame <= full:
                raise DataError(f"frame mask {frame} out of range")
            if not 0 <= alt < n:
                raise DataError(f"alternative index {alt} out of range")
        object.__setattr__(self, "domain", tuple(sorted(self.choices)))

    def choice(self, frame: int) -> int:
        try:
            return self.choices[frame]
        except KeyError:
            raise DataError(f"no observation for frame {self.universe.frame_str(frame)!r}") from None

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(f"# universe: {'|'.join(self.universe.names)}\n")
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["frame", "choice"])
        for frame in self.domain:
            writer.writerow([self.universe.frame_str(frame), self.universe.names[self.choices[frame]]])
        return out.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "universe": list(self.universe.names),
            "frames": [self.universe.frame_str(f) for f in self.domain],
            "choices": [
                {"frame": self.universe.frame_str(f), "choice": self.universe.names[self.choices[f]]}
                for f in self.domain
            ],
        }


# ---------------------------------------------------------------------------
# CSV parsing
# ---------------------------------------------------------------------------


def _read_columns(text: str, header: list[str]) -> tuple[list[list[str]], Universe | None]:
    """The body's stripped cells, one list per header field, and any ``# universe:``."""
    explicit: Universe | None = None
    lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.lower().startswith("universe:"):
                labels = body.split(":", 1)[1].strip()
                names = tuple(lbl.strip() for lbl in labels.split("|"))
                explicit = Universe(names) if labels else None
            continue
        lines.append(raw)
    if not lines:
        raise DataError("missing header row")
    rows = list(csv.reader(lines))
    got = [cell.strip() for cell in rows[0]]
    if got != header:
        raise DataError(f"expected header {','.join(header)!r}, got {','.join(got)!r}")
    body = rows[1:]
    for row in body:
        if len(row) != len(header):
            raise DataError(f"row {row!r} has {len(row)} fields, expected {len(header)}")
    return [[row[i].strip() for row in body] for i in range(len(header))], explicit


def _infer_universe(alts: list[str], frames: list[str]) -> Universe:
    """The sorted labels of the alternative column and of every frame."""
    labels = set(alts)
    for frame_s in set(frames):
        labels.update(filter(None, (lbl.strip() for lbl in frame_s.split("|"))))
    if not labels:
        raise DataError("cannot infer a universe from empty data; add a '# universe:' header")
    return Universe(tuple(sorted(labels)))


def parse_stochastic(
    text: str,
    policy: NumericPolicy = FLOAT64,
    allow_partial: bool = False,
) -> StochasticChoiceData:
    """Parse ``frame,alternative,probability`` CSV content.

    The frame field is a ``|``-joined label list (empty string for the empty
    frame).  The universe is the union of labels seen, unless an explicit
    ``# universe: a|b|c`` comment is present.  Frames with observations for
    only some alternatives are rejected unless ``allow_partial`` is set; they
    are never renormalized.  An unknown alternative is reported before a bad
    frame, and both before the first duplicate row or bad number.
    """
    (frames, alts, ps), explicit = _read_columns(text, ["frame", "alternative", "probability"])
    universe = explicit or _infer_universe(alts, frames)
    # each string once, in order of first appearance: a full domain repeats every frame n times
    index = {s: universe.index(s) for s in dict.fromkeys(alts)}
    mask = {s: universe.frame(s) for s in dict.fromkeys(frames)}
    probs: dict[tuple[int, int], Number] = {}
    for frame_s, alt_s, p_s in zip(frames, alts, ps):
        key = (index[alt_s], mask[frame_s])
        if key in probs:
            raise DataError(f"duplicate row for ({alt_s!r}, {frame_s!r})")
        probs[key] = policy.parse(p_s)
    data = StochasticChoiceData(universe, probs, policy)
    if data.partial and not allow_partial:
        raise DataError(
            "incomplete frames (missing alternatives are not imputed as 0): "
            + ", ".join(repr(universe.frame_str(f)) for f in _incomplete_frames(data))
        )
    return data


def parse_deterministic(text: str) -> DeterministicChoiceData:
    """Parse ``frame,choice`` CSV content into a deterministic choice rule."""
    (frames, picks), explicit = _read_columns(text, ["frame", "choice"])
    universe = explicit or _infer_universe(picks, frames)
    choices: dict[int, int] = {}
    for frame_s, choice_s in zip(frames, picks):
        frame = universe.frame(frame_s)
        if frame in choices:
            raise DataError(f"duplicate row for frame {frame_s!r}")
        choices[frame] = universe.index(choice_s)
    return DeterministicChoiceData(universe, choices)


# ---------------------------------------------------------------------------
# validation report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    """Summary of a stochastic dataset: frame sums, coverage, positivity."""

    frame_sums: Mapping[int, Number]
    full_domain: bool
    contains_all_frames_up_to: Mapping[int, bool]
    positivity: bool
    partial_frames: tuple[int, ...]

    def to_json_dict(self, universe: Universe) -> dict:
        return {
            "frame_sums": {
                universe.frame_str(f): number_to_json(s) for f, s in sorted(self.frame_sums.items())
            },
            "full_domain": self.full_domain,
            "contains_all_frames_up_to": {
                str(k): v for k, v in sorted(self.contains_all_frames_up_to.items())
            },
            "positivity": self.positivity,
            "partial_frames": [universe.frame_str(f) for f in self.partial_frames],
        }


def _incomplete_frames(data: StochasticChoiceData) -> tuple[int, ...]:
    return tuple(np.array(data.domain, np.int64)[~data.observed.all(axis=0)].tolist())


def validate(data: StochasticChoiceData) -> ValidationReport:
    """Report-only health check: sums, domain completeness, positivity."""
    sums = sum(data.values, 0)  # row by row: alternative order from 0 (np.add.reduce may pair)
    return ValidationReport(
        frame_sums=dict(zip(data.domain, sums.tolist())),
        full_domain=data.full_domain,
        contains_all_frames_up_to={k: data.contains_frames_up_to(k) for k in range(4)},
        positivity=data.positivity(),
        partial_frames=_incomplete_frames(data),
    )


def dumps_json(payload: dict) -> str:
    """Canonical JSON used everywhere: sorted keys, stable separators."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
