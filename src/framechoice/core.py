"""Alternatives, frames, choice datasets, parsing, and the shared numeric policy.

Alternatives are referenced by index ``0..n-1`` into a :class:`Universe`;
frames are ``n``-bit integer masks over those indices, so subset tests and
lattice iteration are plain integer arithmetic.  All analysis modules work in
one of two numeric modes: ``float64`` with a tolerance ``eps``, or exact
rational arithmetic backed by :class:`fractions.Fraction`.
"""

from __future__ import annotations

import csv
import json
from bisect import bisect_left
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii
from math import comb, isfinite, lcm
from operator import attrgetter, index, itemgetter
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, NamedTuple, Union

import numpy as np

Number = Union[float, Fraction]

MAX_UNIVERSE = 20  # lattice tables are O(n * 2^n)
MAX_EXPONENT = 4300  # as Python's int digit limit; 1e-1000000 would build a 3.3M-bit Fraction
_RESERVED = ("|", ",")
RECORD_BLOCK = 4096  # records that a report joins, or quoted CSV rows that the reader takes, at a time
TEXT_BLOCK = 1 << 19  # characters of CSV text that the reader takes at a time (bytes, from a file)
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"  # where str.splitlines breaks


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
                top, _, bottom = text.partition("/")
                if top.isdigit() and bottom.isdigit() and text.isascii():  # plain p/q: no regex
                    return Fraction(int(top), int(bottom))
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
    Labels may not contain ``|`` or ``,``, start with ``#``, carry blanks at
    either end or break a line: CSV would not read them back.
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
            reads_back = name.splitlines() == [name] == [name.strip()] and name[:1] != "#"
            if not reads_back or any(ch in name for ch in _RESERVED):
                raise DataError(f"bad alternative label {name!r}")
        # label lookup, the name-sorted (label, bit) order and the frame_str memo;
        # not dataclass fields, so equality, hash and repr still see only ``names``
        object.__setattr__(self, "_index", {name: i for i, name in enumerate(names)})
        object.__setattr__(self, "_order", sorted((name, 1 << i) for i, name in enumerate(names)))
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
            if mask < 0 or mask >> self.n:
                raise DataError(f"{'negative' if mask < 0 else 'out-of-range'} frame mask {mask}")
            text = "|".join([label for label, bit in self._order if mask & bit])
            self._texts[mask] = text
        return text


class Records(Sequence):
    """JSON records kept as columns until :func:`dumps_json` writes them.

    ``columns`` maps each field to ``(keys, lookup)``: record ``i`` holds
    ``lookup(keys[i])``.  A column whose lookup is ``number_to_json`` holds
    numbers, each written as ``json`` writes it (``float.__repr__`` for a
    finite float); any other column is written once per distinct key, so a
    label or frame shared by many records is encoded once.
    ``json_pieces`` lays each block of ``RECORD_BLOCK`` records out as one
    flat list of fixed key pieces and column texts, and joins it once.
    Indexing, iteration and ``==`` build the records as dicts, so the records
    compare equal to the list of dicts that would be written the same way.
    """

    __slots__ = ("_columns",)

    def __init__(self, columns: dict[str, tuple[Sequence, Callable]]):
        self._columns = sorted(columns.items())  # the key order of dumps_json

    @classmethod
    def cells(
        cls, universe: Universe, alts: Sequence, frames: Sequence, values: Sequence, key: str
    ) -> Records:
        """Records ``{alternative, frame, <key>}`` of cells given as three columns."""
        return cls({
            "alternative": (alts, universe.names.__getitem__),
            "frame": (frames, universe.frame_str),
            key: (values, number_to_json),
        })

    def __len__(self) -> int:
        return len(self._columns[0][1][0]) if self._columns else 0

    def __getitem__(self, i: int) -> dict:
        return {name: lookup(keys[i]) for name, (keys, lookup) in self._columns}

    def __eq__(self, other) -> bool:
        return list(self) == (list(other) if isinstance(other, Records) else other)

    def __repr__(self) -> str:
        return repr(list(self))

    def json_pieces(self) -> Iterator[str]:
        """The records' JSON text, a block of ``RECORD_BLOCK`` records at a time."""
        texts = []
        for _, (keys, lookup) in self._columns:
            if lookup is number_to_json:
                texts.append(_number_texts(keys))
            else:
                once = {k: _json_text(lookup(k)) for k in dict.fromkeys(keys)}
                texts.append(map(once.__getitem__, keys))
        # one record's pieces, ',{"a":' text ',"b":' text ... '}': the texts go in the odd slots
        record = [piece for name, _ in self._columns for piece in ("," + json.dumps(name) + ":", None)]
        record[0] = ",{" + record[0][1:]
        record.append("}")
        count = len(self)
        yield "["
        for start in range(0, count, RECORD_BLOCK):  # a block at a time: the flat list stays small
            flat = record * min(RECORD_BLOCK, count - start)
            for slot, column in enumerate(texts):
                flat[2 * slot + 1 :: len(record)] = islice(column, RECORD_BLOCK)
            if start == 0:
                flat[0] = flat[0][1:]  # no separator before the first record
            yield "".join(flat)
        yield "]"


def _json_text(value: object) -> str:
    """``json.dumps(value)``; a string goes straight to the encoder that ``json.dumps`` would call."""
    return encode_basestring_ascii(value) if isinstance(value, str) else json.dumps(value)


def _number_texts(values: Sequence) -> Iterable[str]:
    """``json.dumps(number_to_json(x))`` for each number of a column."""
    kinds = set(map(type, values))
    if kinds == {float} and all(map(isfinite, values)):
        return map(float.__repr__, values)
    if kinds == {Fraction}:  # digits, sign, point and slash: nothing to escape
        # each distinct object once (a table shares one Fraction per distinct value),
        # keyed by identity: hashing a Fraction can cost more than rendering it
        distinct = dict(zip(map(id, values), values))
        if len(distinct) == len(values):  # nothing repeats: render as the records consume them
            return ('"' + number_to_str(x) + '"' for x in values)
        once = {key: '"' + number_to_str(x) + '"' for key, x in distinct.items()}
        return map(once.__getitem__, map(id, values))
    return (json.dumps(number_to_json(x)) for x in values)


def columns_of(rows: Sequence[tuple], width: int) -> tuple[list, ...]:
    """The ``width`` columns of a sequence of tuples."""
    return tuple(list(map(itemgetter(i), rows)) for i in range(width))


def _csv_fields(texts: Iterable[str]) -> list[str]:
    """Each string as ``csv`` writes it inside a row.

    Each is written as the first of two fields: alone, an empty field would
    be written ``""``, which a row of several fields never does.
    """
    lines: list[str] = []
    csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n").writerows(
        (text, "") for text in texts
    )
    return [line[:-2] for line in lines]


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


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------


def _observed_cells(
    domain: tuple[int, ...], values: np.ndarray, observed: np.ndarray
) -> tuple[list[int], list[int], list[Number]]:
    """Alternative, frame and value columns of the observed cells.

    Frame by frame, alternatives ascending within a frame.
    """
    columns, alts = np.nonzero(observed.T)
    return alts.tolist(), np.array(domain, np.int64)[columns].tolist(), values.T[observed.T].tolist()


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
        alts, frames, _ = _observed_cells(self._domain, self._values, self._observed)
        return zip(alts, frames)

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
    and ``observed[a, j]``, both read-only.  In rational mode it also keeps
    each cell's parts, read once, in the same layout: ``numerators`` and
    ``denominators``, object arrays of Python ints (0 and 1 where
    unobserved), which the exact layers compute on, and their lcm
    ``common_denominator``, or None when it needs more than ``63 - n`` bits
    (the bound of the ``int64`` lattice transform).  It then replaces
    ``probs`` with a :class:`CellView` of that matrix and keeps no reference
    to the caller's mapping, so the cells are stored once and changing the
    input afterwards changes no answer.  ``values``, ``observed`` and the
    parts are not fields; equality and repr see the cells through ``probs``.
    Of several faulty cells, the first in the caller's order is reported.
    """

    universe: Universe
    probs: Mapping[tuple[int, int], Number]
    policy: NumericPolicy = FLOAT64
    domain: tuple[int, ...] = field(init=False)
    partial: bool = field(init=False)

    def __post_init__(self) -> None:
        n = self.universe.n
        exact = self.policy.exact
        native = Fraction if exact else float
        dtype = object if exact else np.float64
        parsed = isinstance(self.probs, _Cells)
        if parsed:  # the parser's columns: every key is in range, every value native
            alts, frames, probs = self.probs
            odd = np.zeros(len(probs), bool)
        else:
            cells = len(self.probs)
            try:
                flat = np.fromiter(map(index, chain.from_iterable(self.probs)), np.int64)
                pairs = flat.reshape(cells, 2)
                probs = np.fromiter(self.probs.values(), dtype, cells)
            except (TypeError, ValueError, OverflowError):  # a key that is no pair of ints...
                for key, p in self.probs.items():
                    self._check_cell(key, p)  # ...out of range is named as a cell check would
                raise
            alts, frames = pairs.T
            if set(map(type, self.probs.values())) <= {native}:
                odd = np.zeros(cells, bool)
            else:  # a float mode int, a string...: those cells are checked one by one
                odd = np.fromiter((type(p) is not native for p in self.probs.values()), bool, cells)
        # the checks as array comparisons; a cell they flag is checked again on its
        # own, in the caller's order, so the first faulty cell names the error
        flagged = odd | (alts < 0) | (alts >= n) | (frames < 0) | (frames > self.universe.full_frame)
        fine = probs[~flagged]
        if exact:  # 0 <= p <= 1 on Python ints: 0 <= numerator <= denominator
            top, bottom = fraction_parts(fine)
            flagged[~flagged] = (top < 0) | (top > bottom)
        else:
            floor = -self.policy.eps  # is_nonneg(x) is x >= floor
            flagged[~flagged] = ~((fine >= floor) & (1 - fine >= floor))
        if flagged.any():
            keys = zip(alts.tolist(), frames.tolist())
            given = list(zip(keys, probs.tolist()) if parsed else self.probs.items())
            for i in np.flatnonzero(flagged).tolist():
                self._check_cell(*given[i])
            if exact:  # the flagged cells passed as Fraction subclasses: read them with the rest
                top, bottom = fraction_parts(probs)
        domain, column = np.unique(frames, return_inverse=True)
        values = np.zeros((n, len(domain)), dtype)
        values[alts, column] = probs
        observed = np.zeros(values.shape, bool)
        observed[alts, column] = True
        complete = observed.all(axis=0)
        if exact:  # each frame's sum is mass / whole, both Python ints
            numerators, denominators = np.zeros(values.shape, object), np.ones(values.shape, object)
            numerators[alts, column], denominators[alts, column] = top, bottom
            numerators.flags.writeable = denominators.flags.writeable = False
            object.__setattr__(self, "numerators", numerators)
            object.__setattr__(self, "denominators", denominators)
            mass, whole = _frame_totals(numerators, denominators)
            near_one, above_one = mass == whole, mass > whole
            object.__setattr__(self, "common_denominator", _common_denominator(whole, 63 - n))
        else:
            totals = np.zeros(len(domain), dtype)  # 0 + p1 + p2 ..., in row order, as sum() adds
            np.add.at(totals, column, probs)
            near_one, above_one = self.policy.is_close(totals, self.policy.one(), scale=n), totals > 1
        # a complete frame must sum to one, a partial one may fall short of it
        failing = ~near_one & (complete | above_one)
        if failing.any():
            j = column[failing[column].argmax()]  # the failing frame whose first row comes first
            total = Fraction(mass[j], whole[j]) if exact else totals[j]
            where, total = self.universe.frame_str(int(domain[j])), number_to_str(total)
            if complete[j]:
                raise DataError(f"frame sum for {where!r} is {total}, expected 1")
            raise DataError(f"observed mass {total} at partial frame {where!r} exceeds 1")
        object.__setattr__(self, "domain", tuple(domain.tolist()))
        object.__setattr__(self, "partial", not complete.all())
        values.flags.writeable = observed.flags.writeable = False  # the one store of the cells
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "observed", observed)
        object.__setattr__(self, "probs", CellView(self.domain, values, observed))

    def _check_cell(self, key, p) -> None:
        """Every check of one cell; the array checks flag the cells that this then names."""
        alt, frame = key
        if not 0 <= alt < self.universe.n:
            raise DataError(f"alternative index {alt} out of range")
        if not 0 <= frame <= self.universe.full_frame:
            raise DataError(f"frame mask {frame} out of range")
        exact = self.policy.exact
        if type(p) is not (Fraction if exact else float) and exact != isinstance(p, Fraction):
            raise DataError("probability representation does not match numeric mode")
        floor = 0 if exact else -self.policy.eps
        if not (p >= floor and 1 - p >= floor):
            raise DataError(
                f"probability {number_to_str(p)} for ({self.universe.names[alt]!r}, "
                f"{self.universe.frame_str(frame)!r}) outside [0,1]"
            )

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
        cells = self.numerators if self.policy.exact else self.values  # a fraction has its numerator's sign
        return bool((cells[self.observed] > 0).all())

    def to_csv(self) -> str:
        uni = self.universe
        alts, frames, values = _observed_cells(self.domain, self.values, self.observed)
        frame = dict(zip(self.domain, _csv_fields(map(uni.frame_str, self.domain))))
        numbers = map(number_to_str if self.policy.exact else float.__repr__, values)
        rows = map(
            "{},{},{}\n".format,
            map(frame.__getitem__, frames),
            map(_csv_fields(uni.names).__getitem__, alts),
            numbers,  # a number literal holds nothing that csv quotes
        )
        return f"# universe: {'|'.join(uni.names)}\nframe,alternative,probability\n" + "".join(rows)

    def to_json_dict(self) -> dict:
        return {
            "universe": list(self.universe.names),
            "numeric_mode": self.policy.mode,
            "frames": [self.universe.frame_str(f) for f in self.domain],
            "probs": Records.cells(
                self.universe, *_observed_cells(self.domain, self.values, self.observed), "p"
            ),
        }


# an array of Fractions (or ints) -> its numerators and its denominators, as
# object arrays of Python ints
fraction_parts = np.frompyfunc(attrgetter("numerator", "denominator"), 1, 2)


def _frame_totals(top: np.ndarray, bottom: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's exact sum of a matrix of fractions ``top / bottom``, as ``mass / whole``.

    ``whole`` is the lcm of the column's denominators and ``mass`` the sum of
    its numerators scaled to it: Python ints, of any size.
    """
    whole = np.lcm.reduce(bottom, axis=0)
    return (top * (whole // bottom)).sum(axis=0), whole


def _common_denominator(wholes: np.ndarray, bits: int) -> int | None:
    """The lcm of ``wholes`` (Python ints), or None once it needs more than ``bits`` bits."""
    common = 1
    for whole in set(wholes.tolist()):
        common = lcm(common, whole)
        if common.bit_length() > bits:
            return None
    return common


class _Cells(NamedTuple):
    """Parsed cells as row-order columns: alternative, frame mask and value arrays."""

    alts: np.ndarray
    frames: np.ndarray
    values: np.ndarray


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
        uni = self.universe
        labels = _csv_fields(uni.names)
        picks = (labels[self.choices[f]] for f in self.domain)
        rows = map("{},{}\n".format, _csv_fields(map(uni.frame_str, self.domain)), picks)
        return f"# universe: {'|'.join(uni.names)}\nframe,choice\n" + "".join(rows)

    def to_json_dict(self) -> dict:
        uni = self.universe
        return {
            "universe": list(uni.names),
            "frames": [uni.frame_str(f) for f in self.domain],
            "choices": Records({
                "frame": (self.domain, uni.frame_str),
                "choice": ([self.choices[f] for f in self.domain], uni.names.__getitem__),
            }),
        }


# ---------------------------------------------------------------------------
# CSV parsing
# ---------------------------------------------------------------------------


def _line_blocks(text: str | Iterable[str]) -> Iterator[tuple[str, list[str]]]:
    """Text given whole or in blocks, as ``(chunk, lines)`` of about ``TEXT_BLOCK`` characters.

    Small blocks are joined.  ``lines`` are the complete lines of ``chunk``
    without their breaks; the line that a chunk's end cuts is carried into the
    next.  A ``\\r\\n`` cut between blocks reads as a break and a blank line.
    """
    pending: list[str] = []
    size, floor = 0, TEXT_BLOCK
    for block in [text] if isinstance(text, str) else text:
        pending.append(block)
        size += len(block)
        if size < floor:
            continue
        chunk = "".join(pending)
        lines = chunk.splitlines()
        pending = [] if chunk[-1] in _LINE_BREAKS else [lines.pop()]
        size = len(pending[0]) if pending else 0
        floor = max(TEXT_BLOCK, 2 * size)  # a line longer than a block is joined again once it doubles
        yield chunk, lines
    chunk = "".join(pending)
    yield chunk, chunk.splitlines()


def _read_columns(
    text: str | Iterable[str], header: list[str], numbers: Callable[[list[str]], None] | None = None
) -> tuple[list[tuple[np.ndarray, list[str]]], Universe | None]:
    """Tokenize CSV text given whole or in blocks; returns its label columns and any ``# universe:``.

    For each header field the result holds the code of each row's string and
    the distinct strings, unstripped, numbered in order of first appearance
    across blocks.  With ``numbers``, the last field is not numbered: its
    strings go to ``numbers`` a batch of rows at a time.  A bad ``# universe:``
    line raises as it is read; a missing or wrong header and the first row of
    the wrong width or unreadable by ``csv`` are raised after the last line,
    since a bad ``# universe:`` line further on is named first.  Rows are split
    on commas a block at a time until the text holds a ``"``; from that block
    on the rest is read by ``csv``, whose quoted fields may span lines.
    """
    width = len(header)
    distinct: list[dict[str, int]] = [{} for _ in range(width - (numbers is not None))]
    codes: list[list[np.ndarray]] = [[] for _ in distinct]
    explicit: Universe | None = None
    quoted = False

    def body() -> Iterator[list[str]]:  # each block's lines less blanks and comments
        nonlocal explicit, quoted
        for chunk, lines in _line_blocks(text):
            quoted = quoted or '"' in chunk
            if "#" not in chunk:
                yield list(filter(str.strip, lines))
                continue
            kept = []
            for raw in lines:
                line = raw.strip()
                if line.startswith("#"):
                    comment = line[1:].strip()
                    if comment.lower().startswith("universe:"):
                        labels = comment.split(":", 1)[1].strip()
                        names = tuple(lbl.strip() for lbl in labels.split("|"))
                        explicit = Universe(names) if labels else None
                elif line:
                    kept.append(raw)
            yield kept

    def take(columns: Sequence[list[str]]) -> None:  # a batch of rows, as columns
        for column, seen, out in zip(columns, distinct, codes):
            new = [s for s in dict.fromkeys(column) if s not in seen]
            seen.update(zip(new, range(len(seen), len(seen) + len(new))))
            out.append(np.fromiter(map(seen.__getitem__, column), np.int32, len(column)))
        if numbers is not None:
            numbers(columns[-1])

    def head_fault(row: list[str]) -> DataError | None:
        got = [cell.strip() for cell in row]
        if got != header:
            return DataError(f"expected header {','.join(header)!r}, got {','.join(got)!r}")
        return None

    def width_fault(row: list[str]) -> DataError:
        return DataError(f"row {row!r} has {len(row)} fields, expected {width}")

    def read_quoted(lines: Iterator[str]) -> DataError | None:
        nonlocal seen_head
        batch, count = [], 0
        try:
            for row in csv.reader(lines):
                if not seen_head:
                    seen_head = True
                    if fault := head_fault(row):
                        return fault
                    continue
                count += 1
                if len(row) != width:
                    return width_fault(row)
                batch.append(row)
                if len(batch) == RECORD_BLOCK:
                    take(columns_of(batch, width))
                    batch = []
        except csv.Error as exc:  # such as a quoted field past csv's field size limit
            where = f"row {count + 1} after the header" if seen_head else "the header row"
            seen_head = True
            return DataError(f"cannot read {where}: {exc}")
        if batch:
            take(columns_of(batch, width))
        return None

    blocks = body()
    fault, seen_head = None, False
    for lines in blocks:
        if quoted:
            fault = read_quoted(chain(lines, chain.from_iterable(blocks)))
            break
        if lines and not seen_head:
            seen_head = True
            if fault := head_fault(lines[0].split(",")):
                break
            lines = lines[1:]
        commas = np.fromiter(map(str.count, lines, repeat(",")), np.int64, len(lines))
        wrong = np.flatnonzero(commas != width - 1)
        if wrong.size:
            fault = width_fault(lines[wrong[0]].split(","))
            break
        if lines:  # one split of the block, once each line has width - 1 commas
            fields = ",".join(lines).split(",")
            take([fields[i::width] for i in range(width)])
    for _ in blocks:  # after a fault: the '# universe:' lines still to come
        pass
    if not seen_head:
        raise DataError("missing header row")
    if fault:
        raise fault
    columns = [
        (np.concatenate(out) if out else np.zeros(0, np.int32), list(seen))
        for seen, out in zip(distinct, codes)
    ]
    return columns, explicit


def _infer_universe(alts: Iterable[str], frames: Iterable[str]) -> Universe:
    """The sorted labels of the alternative column and of every frame."""
    labels = set(alts)
    for frame_s in set(frames):
        labels.update(filter(None, (lbl.strip() for lbl in frame_s.split("|"))))
    if not labels:
        raise DataError("cannot infer a universe from empty data; add a '# universe:' header")
    return Universe(tuple(sorted(labels)))


class _Numbers:
    """A column of number literals, read a batch of rows at a time.

    In float mode ``float`` converts a batch at once.  Otherwise each distinct
    literal goes through ``policy.parse`` once: once per batch in float mode,
    once per file in rational mode, so rows that repeat a literal share its
    ``Fraction``.  ``float`` takes a subset of the blanks that ``policy.parse``
    strips, so where it succeeds the two agree.  A bad literal reads as zero;
    the first bad row and its error are kept in ``bad`` for the caller to
    raise after the faults that come first.
    """

    def __init__(self, policy: NumericPolicy):
        self.policy = policy
        self.parts: list[np.ndarray] = []
        self.rows = 0
        self.memo: dict[str, Number] = {}
        self.bad: tuple[int, DataError] | None = None

    def __call__(self, texts: list[str]) -> None:
        policy = self.policy
        values = None
        if not policy.exact:
            try:
                values = np.fromiter(map(float, texts), np.float64, len(texts))
            except ValueError:
                pass
        if values is None:
            memo = self.memo if policy.exact else {}
            for text in dict.fromkeys(texts):
                if text not in memo:
                    try:
                        memo[text] = policy.parse(text)
                    except DataError as exc:  # first seen here, so its first row is in this batch
                        memo[text] = policy.zero()
                        if self.bad is None:
                            self.bad = (self.rows + texts.index(text), exc)
            dtype = object if policy.exact else np.float64
            values = np.fromiter(map(memo.__getitem__, texts), dtype, len(texts))
        self.parts.append(values)
        self.rows += len(texts)

    def values(self) -> np.ndarray:
        """The column's numbers; the batches are let go."""
        if not self.parts:
            return np.zeros(0, object if self.policy.exact else np.float64)
        values = np.concatenate(self.parts)
        self.parts.clear()
        return values


def _first_repeat(key: np.ndarray) -> int:
    """The first row whose key an earlier row holds, or the number of rows."""
    order = np.argsort(key, kind="stable")
    repeats = order[1:][key[order[1:]] == key[order[:-1]]]
    return int(repeats.min()) if repeats.size else len(key)


def parse_stochastic(
    text: str | Iterable[str],
    policy: NumericPolicy = FLOAT64,
    allow_partial: bool = False,
) -> StochasticChoiceData:
    """Parse ``frame,alternative,probability`` CSV content.

    ``text`` is the whole content, or its text in blocks of any size (an
    open text file, say), read a block at a time.  The frame field is a
    ``|``-joined label list (empty string for the empty frame).  The
    universe is the union of labels seen, unless an explicit
    ``# universe: a|b|c`` comment is present.  Frames with observations for
    only some alternatives are rejected unless ``allow_partial`` is set; they
    are never renormalized.  An unknown alternative is reported before a bad
    frame, and both before the first duplicate row or bad number.
    """
    numbers = _Numbers(policy)
    columns, explicit = _read_columns(text, ["frame", "alternative", "probability"], numbers)
    (frame_codes, frames), (alt_col, alts) = columns
    del columns  # the code arrays are freed as they are replaced
    frame_text, alt_text = [s.strip() for s in frames], [s.strip() for s in alts]
    universe = explicit or _infer_universe(alt_text, frame_text)
    # each distinct string converts once, labels first: a full domain repeats every frame n times
    label = {s: universe.index(s) for s in dict.fromkeys(alt_text)}
    mask = {s: universe.frame(s) for s in dict.fromkeys(frame_text)}
    alt_col = np.array([label[s] for s in alt_text], np.int32)[alt_col]
    frame_col = np.array([mask[s] for s in frame_text], np.int32)[frame_codes]
    rows = len(alt_col)
    first = _first_repeat(frame_col * universe.n + alt_col)  # n * 2^n fits in int32
    if numbers.bad is not None and numbers.bad[0] < first:  # a bad number before the first repeated row
        raise numbers.bad[1]
    if first < rows:
        where = f"({universe.names[alt_col[first]]!r}, {frame_text[frame_codes[first]]!r})"
        raise DataError(f"duplicate row for {where}")
    data = StochasticChoiceData(universe, _Cells(alt_col, frame_col, numbers.values()), policy)
    if data.partial and not allow_partial:
        raise DataError(
            "incomplete frames (missing alternatives are not imputed as 0): "
            + ", ".join(repr(universe.frame_str(f)) for f in _incomplete_frames(data))
        )
    return data


def parse_deterministic(text: str | Iterable[str]) -> DeterministicChoiceData:
    """Parse ``frame,choice`` CSV content, given whole or in blocks, into a deterministic choice rule."""
    columns, explicit = _read_columns(text, ["frame", "choice"])
    (frame_codes, frames), (pick_codes, picks) = columns
    frame_text, pick_text = [s.strip() for s in frames], [s.strip() for s in picks]
    universe = explicit or _infer_universe(pick_text, frame_text)
    choices: dict[int, int] = {}
    for f, c in zip(frame_codes.tolist(), pick_codes.tolist()):  # row by row: the first faulty row is reported
        frame = universe.frame(frame_text[f])
        if frame in choices:
            raise DataError(f"duplicate row for frame {frame_text[f]!r}")
        choices[frame] = universe.index(pick_text[c])
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
    if data.policy.exact:
        mass, whole = _frame_totals(data.numerators, data.denominators)
        sums = list(map(Fraction, mass.tolist(), whole.tolist()))
    else:
        sums = sum(data.values, 0).tolist()  # row by row: alternative order from 0 (np.add.reduce may pair)
    return ValidationReport(
        frame_sums=dict(zip(data.domain, sums)),
        full_domain=data.full_domain,
        contains_all_frames_up_to={k: data.contains_frames_up_to(k) for k in range(4)},
        positivity=data.positivity(),
        partial_frames=_incomplete_frames(data),
    )


def _json_pieces(payload: object) -> Iterator[str]:
    """The canonical JSON text of ``payload``, piece by piece.

    :class:`Records` are written from their columns.  A dict that holds a
    dict or records is written key by key (its keys are strings); anything
    else goes to ``json`` whole.
    """
    if isinstance(payload, Records):
        yield from payload.json_pieces()
    elif isinstance(payload, dict) and any(isinstance(v, (dict, Records)) for v in payload.values()):
        for i, (key, value) in enumerate(sorted(payload.items())):
            yield ("," if i else "{") + json.dumps(key) + ":"
            yield from _json_pieces(value)
        yield "}"
    else:
        yield json.dumps(payload, sort_keys=True, separators=(",", ":"))


def dumps_json(payload: object, write: Callable[[str], object] | None = None) -> str | None:
    """Canonical JSON used everywhere: sorted keys, stable separators.

    Returns the text; with ``write``, hands it each piece as it is built
    instead, so a large report is never held whole.
    """
    if write is None:
        return "".join(_json_pieces(payload))
    for piece in _json_pieces(payload):
        write(piece)
    return None
