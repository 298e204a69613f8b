"""Correctness checks computed apart from the program.

Nothing here calls into ``framechoice``: inputs are re-read from the CSV files
with this module's own reader, tables come from this module's own transform,
choice types from its own enumeration and aggregation, and the program's
reports are judged against those or against properties every correct answer
has (flow conservation, exact certificates, containment).
"""

from __future__ import annotations

import csv
import functools
import math
from fractions import Fraction
from itertools import permutations

import numpy as np

FLOAT_EPS = 1e-9  # the program's default tolerance: a float entry below -eps is a violation
FLOAT_TOL = 1e-11  # rounding allowance for float sums of up to 2^13 terms of size <= 1


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def read_cells(path: str, exact: bool) -> tuple[list[str], dict]:
    """The ``# universe:`` labels and {(alt, frame mask): value} of a CSV input."""
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
        names = first.split(":", 1)[1].strip().split("|")
        index = {name: i for i, name in enumerate(names)}
        reader = csv.reader(fh)
        next(reader)
        number = Fraction if exact else float
        cells = {}
        for frame, alt, value in reader:
            cells[(index[alt], frame_mask(frame, index))] = number(value)
    return names, cells


def frame_mask(text: str, index: dict) -> int:
    mask = 0
    for label in text.split("|") if text else ():
        mask |= 1 << index[label]
    return mask


def dense(cells: dict, n: int, dtype) -> np.ndarray:
    out = np.zeros((1 << n, n), dtype=dtype)
    for (alt, frame), value in cells.items():
        out[frame, alt] = value
    return out


# ---------------------------------------------------------------------------
# lattice tables
# ---------------------------------------------------------------------------


def superset_signed_sums(values: np.ndarray) -> np.ndarray:
    """out[F] = sum over B >= F of (-1)^|B - F| values[B], along axis 0."""
    out = values.copy()
    size = out.shape[0]
    masks = np.arange(size)
    for bit in range(size.bit_length() - 1):
        lower = masks[(masks >> bit) & 1 == 0]
        out[lower] -= out[lower | (1 << bit)]
    return out


def tables(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """q and y over a dense (frames x alternatives) rule, and the 'a in F' mask."""
    size, n = rho.shape
    framed = ((np.arange(size)[:, None] >> np.arange(n)[None, :]) & 1).astype(bool)
    q = superset_signed_sums(rho)
    y = superset_signed_sums(np.where(framed, 0, rho))  # y keeps only B that leave a out
    return q, y, framed


def direct_sum(rho: np.ndarray, alt: int, frame: int, kind: str) -> float:
    """One table entry by inclusion-exclusion over the supersets of ``frame``."""
    masks = np.arange(rho.shape[0])
    keep = (masks & frame) == frame
    if kind == "y":
        keep &= (masks >> alt) & 1 == 0
    signs = np.where(np.bitwise_count(masks ^ frame) % 2, -1.0, 1.0)
    return float((signs * rho[:, alt])[keep].sum())


def reported_table(report: dict, names: list[str], number) -> tuple[np.ndarray, np.ndarray]:
    """Dense q and y arrays from a ``bm`` report (zeros where undefined)."""
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    dtype = object if number is Fraction else np.float64
    q = np.zeros((1 << n, n), dtype=dtype)
    y = np.zeros((1 << n, n), dtype=dtype)
    masks: dict[str, int] = {}
    for key, target in (("q", q), ("y", y)):
        for entry in report[key]:
            frame = masks.get(entry["frame"])
            if frame is None:
                frame = masks[entry["frame"]] = frame_mask(entry["frame"], index)
            target[frame, index[entry["alternative"]]] = number(entry["value"])
    return q, y


def flow_residuals(q: np.ndarray, y: np.ndarray, framed: np.ndarray, top=1) -> np.ndarray:
    """Outflow plus leakage minus inflow at every node (inflow ``top`` at the top)."""
    size, n = q.shape
    outflow = np.where(framed, q, y).sum(axis=1)
    inflow = np.zeros(size, dtype=q.dtype)
    inflow[size - 1] = top
    masks = np.arange(size)
    for alt in range(n):
        bit = 1 << alt
        without = masks[(masks & bit) == 0]
        inflow[without] = inflow[without] + q[without | bit, alt]
    return outflow - inflow


def violation_set(q, y, framed, below) -> set:
    qa = np.argwhere(framed & (q < below))
    ya = np.argwhere(~framed & (y < below))
    return {("q", int(a), int(f)) for f, a in qa} | {("y", int(a), int(f)) for f, a in ya}


def reported_violations(verdict: dict, names: list[str], number) -> dict:
    index = {name: i for i, name in enumerate(names)}
    return {
        (v["kind"], index[v["alternative"]], frame_mask(v["frame"], index)): number(v["value"])
        for v in verdict["violations"]
    }


# ---------------------------------------------------------------------------
# choice types and mixtures
# ---------------------------------------------------------------------------


def all_types(n: int) -> list[tuple[tuple[int, ...], int]]:
    """Every (priority list, default position): framed winners first, else the default."""
    return [
        (prio, pos)
        for k in range(1, n + 1)
        for prio in permutations(range(n), k)
        for pos in range(k)
    ]


def choose(prio: tuple[int, ...], pos: int, frame: int) -> int:
    for alt in prio:
        if frame >> alt & 1:
            return alt
    return prio[pos]


def aggregate(weights: dict, frames, n: int) -> dict:
    """Choice probabilities of a mixture, summed as integers over a common denominator."""
    scale = math.lcm(*(w.denominator for w in weights.values()))
    mass = {(a, f): 0 for f in frames for a in range(n)}
    for (prio, pos), w in weights.items():
        k = w.numerator * (scale // w.denominator)
        for f in frames:
            mass[(choose(prio, pos, f), f)] += k
    return {key: Fraction(k, scale) for key, k in mass.items()}


def reported_mixture(payload: dict) -> dict:
    """{(priority, default position): Fraction} from a TypeDistribution report."""
    index = {name: i for i, name in enumerate(payload["universe"])}
    out = {}
    for entry in payload["weights"]:
        prio = tuple(index[a] for a in entry["priority"])
        out[(prio, prio.index(index[entry["default"]]))] = Fraction(entry["weight"])
    return out


def mixture_errors(label: str, weights: dict, cells: dict, n: int) -> list[str]:
    errors = []
    if any(w < 0 for w in weights.values()):
        errors.append(f"{label}: negative weight")
    if sum(weights.values(), Fraction(0)) != 1:
        errors.append(f"{label}: weights do not sum to 1")
    frames = sorted({f for _, f in cells})
    agg = aggregate(weights, frames, n)
    if any(agg[key] != value for key, value in cells.items()):
        errors.append(f"{label}: does not re-aggregate to the input")
    return errors


# ---------------------------------------------------------------------------
# partial data: interval sums and LP certificates
# ---------------------------------------------------------------------------


def _signed_frames(lo: int, hi: int) -> tuple:
    """(frame, sign) over the interval [lo, hi]: sign is (-1)^|frame - lo|."""
    out = []
    sub = gap = hi & ~lo
    while True:
        out.append((lo | sub, -1 if bin(sub).count("1") % 2 else 1))
        if sub == 0:
            return tuple(out)
        sub = (sub - 1) & gap


def interval_sum(cells: dict, alt: int, lo: int, hi: int):
    return sum(sign * cells[(alt, f)] for f, sign in _signed_frames(lo, hi))


@functools.cache
def _intervals(n: int, observed: frozenset) -> tuple:
    """(alt, lo, hi, ((frame, sign), ...)) for every fully observed interval of a kind the model bounds."""
    out = []
    for alt in range(n):
        bit = 1 << alt
        frames = sorted(f for a, f in observed if a == alt)
        for lo in frames:
            for hi in frames:
                if lo == hi or lo & ~hi or not (lo & bit or not hi & bit):
                    continue
                terms = _signed_frames(lo, hi)
                if all((alt, f) in observed for f, _ in terms):
                    out.append((alt, lo, hi, terms))
    return tuple(out)


def negative_interval_sums(cells: dict, n: int) -> list[tuple]:
    """(value, alt, lo, hi) for every fully observed interval with a negative sum."""
    out = []
    for alt, lo, hi, terms in _intervals(n, frozenset(cells)):
        total = sum(sign * cells[(alt, f)] for f, sign in terms)
        if total < 0:
            out.append((total, alt, lo, hi))
    return out


@functools.cache
def _residual_lp(n: int, keys: tuple) -> tuple[np.ndarray, np.ndarray]:
    types = all_types(n)
    rows = [[1.0 if choose(p, d, f) == a else 0.0 for p, d in types] for a, f in keys]
    rows.append([1.0] * len(types))
    m = len(rows)
    a_eq = np.hstack([np.array(rows), np.eye(m), -np.eye(m)])
    return a_eq, np.r_[np.zeros(len(types)), np.ones(2 * m)]


def float_lp_residual(cells: dict, n: int) -> float:
    """Least L1 distance from the data to any mixture of types (float LP, scipy's HiGHS)."""
    from scipy.optimize import linprog

    keys = tuple(sorted(cells))
    a_eq, cost = _residual_lp(n, keys)
    b_eq = np.array([float(cells[k]) for k in keys] + [1.0])
    result = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if result.status != 0:
        raise RuntimeError(f"residual LP failed: {result.message}")
    return float(result.fun)


def farkas_errors(cert: dict, cells: dict, names: list[str]) -> list[str]:
    """y.b > 0 and y.a_t <= 0 for every type t, b the observations plus normalization."""
    index = {name: i for i, name in enumerate(names)}
    coeff = {
        (index[c["alternative"]], frame_mask(c["frame"], index)): Fraction(c["coefficient"])
        for c in cert["coefficients"]
    }
    norm = Fraction(cert["normalization_coefficient"])
    if set(coeff) != set(cells):
        return ["farkas: coefficients do not cover exactly the observations"]
    errors = []
    if not sum(c * cells[k] for k, c in coeff.items()) + norm > 0:
        errors.append("farkas: y.b is not positive")
    frames = sorted({f for _, f in cells})
    for prio, pos in all_types(len(names)):
        picks = {(choose(prio, pos, f), f) for f in frames}
        if sum(c for k, c in coeff.items() if k in picks) + norm > 0:
            errors.append(f"farkas: y.a_t > 0 for type {prio}/{pos}")
            break
    return errors


def interval_errors(cert: dict, cells: dict, names: list[str]) -> list[str]:
    index = {name: i for i, name in enumerate(names)}
    alt = index[cert["alternative"]]
    lo = frame_mask(cert["frame"], index)
    hi = frame_mask(cert["upper_frame"], index)
    value = Fraction(cert["value"])
    errors = []
    framed = cert["kind"] == "interim_Q"
    if lo & ~hi or (framed and not lo >> alt & 1) or (not framed and hi >> alt & 1):
        errors.append("interval: certificate names an invalid interval")
    elif interval_sum(cells, alt, lo, hi) != value:
        errors.append("interval: certificate does not re-sum to its value")
    if not value < 0:
        errors.append("interval: certificate value is not negative")
    return errors


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def polygon_contains(vertices: list, point) -> bool:
    """Exact test on the first two barycentric coordinates; any vertex order."""
    pts = [(v[0], v[1]) for v in vertices]
    p = (point[0], point[1])
    if len(pts) == 1:
        return pts[0] == p
    if len(pts) == 2:
        a, b = pts
        return _cross(a, b, p) == 0 and min(a, b) <= p <= max(a, b)
    crosses = [_cross(pts[i], pts[(i + 1) % len(pts)], p) for i in range(len(pts))]
    return all(c >= 0 for c in crosses) or all(c <= 0 for c in crosses)


def region_errors(regions: list, weights: dict, names: list[str]) -> list[str]:
    index = {name: i for i, name in enumerate(names)}
    errors = []
    for region in regions:
        target = frame_mask(region["label"], index)
        verts = [tuple(Fraction(c) for c in v) for v in region["vertices"]]
        if any(c < 0 for v in verts for c in v) or any(sum(v) != 1 for v in verts):
            errors.append(f"plot: region {region['label']!r} leaves the simplex")
        agg = aggregate(weights, [target], len(names))
        point = tuple(agg[(a, target)] for a in range(len(names)))
        if not polygon_contains(verts, point):
            errors.append(f"plot: region {region['label']!r} misses the generating mixture")
    return errors


# ---------------------------------------------------------------------------
# per-workload checks of one session's reports
# ---------------------------------------------------------------------------
#
# ``out`` maps an op name to (exit code, parsed report); ``inputs`` is the
# manifest's record of the run's inputs, ``path`` resolves their files and
# ``seed`` is the run seed.  Each returns its errors; those that can meet the
# known fault also return the names of the ops it made fail.


def _expect(out: dict, name: str, code: int, errors: list) -> dict:
    got, payload = out[name]
    if got != code:
        errors.append(f"{name}: exit code {got}, expected {code}")
    return payload.get("report", payload) if isinstance(payload, dict) else {}


def check_float_lattice(out: dict, inputs: dict, path, seed: int) -> tuple[list, set]:
    errors: list[str] = []
    accepted = _expect(out, "accepted.test-frum", 0, errors)
    if not accepted.get("accepted") or accepted.get("violations"):
        errors.append("accepted.test-frum: a parametric rule must be accepted without violations")

    names, cells = read_cells(path(inputs["arbitrary"]["file"]), exact=False)
    rho = dense(cells, len(names), np.float64)
    q, y, framed = tables(rho)
    verdict = _expect(out, "arbitrary.test-frum", 2, errors)
    reported = reported_violations(verdict, names, float)
    own = violation_set(q, y, framed, -FLOAT_EPS)
    near = violation_set(q, y, framed, -FLOAT_EPS + FLOAT_TOL) - violation_set(
        q, y, framed, -FLOAT_EPS - FLOAT_TOL
    )
    if (set(reported) ^ own) - near:
        errors.append(f"arbitrary.test-frum: {len((set(reported) ^ own) - near)} violations differ")
    for (kind, alt, frame), value in reported.items():
        if abs(value - (q if kind == "q" else y)[frame, alt]) > FLOAT_TOL:
            errors.append("arbitrary.test-frum: violation values disagree")
            break

    table = _expect(out, "arbitrary.bm", 0, errors)
    rq, ry = reported_table(table, names, float)
    if np.abs(np.where(framed, rq - q, ry - y)).max() > FLOAT_TOL:
        errors.append("arbitrary.bm: table disagrees with the independent transform")
    rng = np.random.default_rng(seed)
    for _ in range(64):
        frame, alt = int(rng.integers(rho.shape[0])), int(rng.integers(len(names)))
        kind = "q" if framed[frame, alt] else "y"
        reported_value = (rq if kind == "q" else ry)[frame, alt]
        if abs(reported_value - direct_sum(rho, alt, frame, kind)) > FLOAT_TOL:
            errors.append(f"arbitrary.bm: {kind}({alt}, {frame}) differs from inclusion-exclusion")
            break
    if np.abs(flow_residuals(rq, ry, framed)).max() > FLOAT_EPS:
        errors.append("arbitrary.bm: reported table does not conserve flow")
    return errors, set()


def check_exact_lattice(out: dict, inputs: dict, path) -> list:
    errors: list[str] = []
    rule = _expect(out, "rule.test-frum", 0, errors)
    if not rule.get("accepted") or rule.get("violations"):
        errors.append("rule.test-frum: a parametric rule must be accepted without violations")

    sample = inputs["frequencies"]["sample_size"]
    names, cells = read_cells(path(inputs["frequencies"]["file"]), exact=True)
    counts = {key: value * sample for key, value in cells.items()}
    if any(c.denominator != 1 for c in counts.values()):
        errors.append("frequencies: input is not counts over the sample size")
    q, y, framed = tables(dense({k: int(c) for k, c in counts.items()}, len(names), np.int64))
    verdict = _expect(out, "frequencies.test-frum", 2, errors)
    reported = reported_violations(verdict, names, Fraction)
    own = violation_set(q, y, framed, 0)
    if set(reported) != own:
        errors.append(f"frequencies.test-frum: {len(reported)} violations reported, {len(own)} counted")
    elif any(v * sample != (q if k == "q" else y)[f, a] for (k, a, f), v in reported.items()):
        errors.append("frequencies.test-frum: violation values disagree")
    table = _expect(out, "frequencies.bm", 0, errors)
    rq, ry = reported_table(table, names, Fraction)
    rq, ry = rq * sample, ry * sample
    if not (np.where(framed, rq == q, ry == y)).all():
        errors.append("frequencies.bm: table disagrees with the integer transform")
    if any(r != 0 for r in flow_residuals(rq, ry, framed, top=sample)):
        errors.append("frequencies.bm: reported table does not conserve flow")

    names, cells = read_cells(path(inputs["mixture"]["file"]), exact=True)
    n = len(names)
    verdict = _expect(out, "mixture.test-frum", 0, errors)
    if not verdict.get("accepted") or verdict.get("witness") is None:
        errors.append("mixture.test-frum: a type mixture must be accepted with a witness")
    else:
        errors += mixture_errors("mixture.test-frum witness", reported_mixture(verdict["witness"]), cells, n)
    branch = reported_mixture(_expect(out, "mixture.recover-branch", 0, errors))
    constructive = reported_mixture(_expect(out, "mixture.recover-constructive", 0, errors))
    if branch != constructive:
        errors.append("mixture.recover: branch and constructive recovery disagree")
    errors += mixture_errors("mixture.recover-branch", branch, cells, n)
    prop2 = out["mixture.check_prop2"][1]
    if Fraction(prop2["max_discrepancy"]) != 0:
        errors.append("mixture.check_prop2: discrepancy is not exactly 0")
    return errors


def check_partial_lp(out: dict, inputs: dict, path) -> tuple[list, set]:
    errors: list[str] = []
    names, cells = read_cells(path(inputs["lp_mixture"]["file"]), exact=True)
    result = _expect(out, "lp_mixture.feasible", 0, errors)
    if not result.get("feasible") or result.get("witness") is None:
        errors.append("lp_mixture.feasible: a type mixture must be feasible")
    else:
        errors += mixture_errors("lp_mixture.feasible witness", reported_mixture(result["witness"]), cells, len(names))

    names, cells = read_cells(path(inputs["lp_interval"]["file"]), exact=True)
    result = _expect(out, "lp_interval.feasible", 2, errors)
    cert = result.get("certificate") or {}
    if result.get("feasible") or cert.get("kind") not in ("interim_Q", "interim_Y"):
        errors.append("lp_interval.feasible: expected an interval certificate")
    else:
        errors += interval_errors(cert, cells, names)

    names, cells = read_cells(path(inputs["lp_farkas"]["file"]), exact=True)
    result = _expect(out, "lp_farkas.feasible", 2, errors)
    cert = result.get("certificate") or {}
    if result.get("feasible") or cert.get("kind") != "dual":
        errors.append("lp_farkas.feasible: expected a Farkas certificate")
    else:
        errors += farkas_errors(cert, cells, names)

    plot = _expect(out, "plot.plot", 0, errors)
    regions = plot.get("plot", {}).get("regions", [])
    names = read_cells(path(inputs["plot"]["file"]), exact=True)[0]
    weights = {(tuple(p), d): Fraction(w) for p, d, w in inputs["plot"]["mixture"]}
    if len(regions) != 2:
        errors.append("plot.plot: expected regions for the grand and the empty frame")
    errors += region_errors(regions, weights, names)

    verdict = _expect(out, "float_mixture.test-frum", 0, errors)
    if not verdict.get("accepted"):
        errors.append("float_mixture.test-frum: a type mixture must be accepted")
    failed = set()
    code, feasible = out["float_mixture.feasible"]
    if not isinstance(feasible, dict) or feasible["report"]["feasible"] != verdict.get("accepted"):
        failed.add("float_mixture.feasible")
    return errors, failed


def check(workload: str, out: dict, inputs: dict, path, seed: int) -> tuple[list, set]:
    if workload == "float_lattice":
        return check_float_lattice(out, inputs, path, seed)
    errors, failed = check_partial_lp(out, inputs, path)
    return check_exact_lattice(out, inputs, path) + errors, failed
