"""Anonymity metrics over guard/exit selection distributions.

Three views of how exposed circuit endpoints are:

* uniformity degree: Shannon entropy of the joint guard-exit distribution,
  normalized by the maximum log2(N*K).  1 means perfectly uniform
  endpoint selection, 0 means a single deterministic pair.
* guessing entropy: the expected number of relays a greedy adversary must
  compromise, always grabbing the relay that unlocks the most additional
  probability mass against the endpoints already held, until both ends of
  the target circuit are covered.
* grouped diversity: endpoint selection probability aggregated by country
  or autonomous system.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .consensus import _NAMES, ConsensusSnapshot, _sorted_unique
from .errors import InvariantError, UndefinedMetricError
from .waterfill import ProbabilityVector

PROBABILITY_TOLERANCE = 1e-9

# Cells per block in the analysis kernels: a block's temporaries stay small
# next to a Tor-size joint, which is never copied whole.
BLOCK_CELLS = 1 << 16


def shannon_entropy(probabilities) -> float:
    """Base-2 entropy with the 0*log(0) = 0 convention.

    The sum of ``x * log2(x)`` over the positive cells, in C order, is
    the one ``np.add.reduce`` gives on a vector of those products, bit for
    bit, in bounded memory.  On a contiguous float64 vector of more than
    128 terms numpy's pairwise sum adds the sums of its two halves, split
    at ``n // 2`` rounded down to a multiple of 8; this follows the same
    tree down to leaves of at most BLOCK_CELLS terms, each gathered from
    the cells and reduced by numpy, so no full-size vector or mask is made.
    """
    p = np.asarray(probabilities, dtype=np.float64).ravel()
    blocks = [p[start : start + BLOCK_CELLS] for start in range(0, p.size, BLOCK_CELLS)]
    positives = (block[block > 0] for block in blocks)
    pending = np.empty(0)

    def tree(n: int):
        nonlocal pending
        if n > BLOCK_CELLS:
            half = n // 2
            half -= half % 8
            return tree(half) + tree(n - half)
        while pending.size < n:
            pending = np.concatenate([pending, next(positives)])
        leaf, pending = pending[:n], pending[n:]
        leaf *= np.log2(leaf)
        return np.add.reduce(leaf)

    return float(-tree(sum(np.count_nonzero(block > 0) for block in blocks)))


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Joint probability of picking guard i together with exit j."""

    guards: tuple[str, ...]
    exits: tuple[str, ...]
    p: np.ndarray  # shape (len(guards), len(exits))

    def __post_init__(self):
        matrix = np.asarray(self.p, dtype=np.float64)
        object.__setattr__(self, "p", matrix)
        if matrix.shape != (len(self.guards), len(self.exits)):
            raise InvariantError("matrix shape does not match the index maps")
        if matrix.size:
            # a NaN carries through both reductions and fails both bounds
            low, high = matrix.min(), matrix.max()
            if not (-math.inf < low and high < math.inf):
                raise InvariantError("non-finite cell probability")
            if low < 0:
                raise InvariantError("negative cell probability")
        total = float(matrix.sum())
        if abs(total - 1.0) > PROBABILITY_TOLERANCE:
            raise InvariantError(f"cell probabilities sum to {total!r}, not 1")


def _rows(snapshot: ConsensusSnapshot, vector: ProbabilityVector) -> np.ndarray:
    """The vector's rows, which must index ``snapshot``'s own table."""
    if vector.table is not snapshot.table:
        raise ValueError("a probability vector was drawn from another snapshot's table")
    return vector.rows


def estimate_joint_analytic(
    snapshot: ConsensusSnapshot,
    entry: ProbabilityVector,
    exit_: ProbabilityVector,
) -> JointDistribution:
    """Independent product of the two positions with conflicting pairs zeroed.

    Pairs that could never share a circuit (same relay, same family, same
    /16) get probability zero and the rest is renormalized.  The product is
    the only full-size array: conflicts are found and zeroed one block of
    guard rows at a time, and the renormalization divides in place.  Both
    vectors must index the snapshot's own table (ValueError otherwise).
    """
    table = snapshot.table
    guard_rows = _rows(snapshot, entry)[:, None]
    exit_rows = _rows(snapshot, exit_)[None, :]
    matrix = np.outer(entry.probabilities, exit_.probabilities)
    step = max(1, BLOCK_CELLS // max(1, exit_rows.size))
    for start in range(0, len(guard_rows), step):
        block = matrix[start : start + step]
        block[table.conflict(guard_rows[start : start + step], exit_rows)] = 0.0
    total = matrix.sum()
    if total <= 0:
        raise UndefinedMetricError("every guard-exit pair conflicts; no circuit exists")
    matrix /= total
    return JointDistribution(entry.fingerprints, exit_.fingerprints, matrix)


def uniformity_degree(jd: JointDistribution) -> float:
    """Normalized entropy of the joint distribution, in [0, 1]."""
    cells = jd.p.size
    if cells < 2:
        raise UndefinedMetricError("uniformity degree needs at least two guard-exit cells")
    return shannon_entropy(jd.p) / float(np.log2(cells))


@dataclass(frozen=True, eq=False)
class GuessingTrace:
    """Greedy compromise order and its marginal success probabilities.

    picks[i] is ("G", index) or ("E", index); q[i] is the probability mass
    newly covered by that pick; g is the expected number of picks needed,
    sum over i of (i+1) * q[i].
    """

    picks: tuple[tuple[str, int], ...]
    q: np.ndarray
    g: float

    def __post_init__(self):
        q = np.asarray(self.q, dtype=np.float64)
        object.__setattr__(self, "q", q)
        if q.ndim != 1 or not q.size:
            raise InvariantError("a trace needs a non-empty vector of marginal gains")
        if len(self.picks) != len(q):
            raise InvariantError(f"{len(self.picks)} picks but {len(q)} marginal gains")
        if not np.isfinite(q).all():
            raise InvariantError("non-finite marginal gain")
        if q[0] != 0.0:
            raise InvariantError("the first pick alone can never succeed")
        if (q < -PROBABILITY_TOLERANCE).any():
            raise InvariantError("negative marginal gain")
        if q.sum() > 1.0 + PROBABILITY_TOLERANCE:
            raise InvariantError("marginal gains exceed total probability")
        expected = float((np.arange(1, len(q) + 1) * q).sum())
        if not abs(self.g - expected) <= PROBABILITY_TOLERANCE * max(1.0, abs(expected)):
            raise InvariantError(f"g = {self.g!r} is not sum((i + 1) * q[i]) = {expected!r}")


def guessing_entropy(jd: JointDistribution) -> GuessingTrace:
    """Trace the greedy node-compromise strategy over the joint distribution.

    The first two picks take the highest-probability cell (its guard first,
    for a deterministic trace); afterwards each step picks whichever
    unpicked guard or exit adds the most mass against the opposite side
    already held.  Ties prefer the guard side, then the lowest index.

    A step allocates no array: each side's gains are kept in place with every
    picked relay at -inf, which the row and column additions leave at -inf,
    so one argmax per side finds the best unpicked relay.
    """
    p = jd.p
    n_guards, n_exits = p.shape
    # gain[x] = newly covered mass if x were picked now
    guard_gain = np.zeros(n_guards)
    exit_gain = np.zeros(n_exits)
    picks: list[tuple[str, int]] = []
    q = np.empty(n_guards + n_exits)

    def take_guard(i: int, gain: float):
        q[len(picks)] = gain
        picks.append(("G", i))
        guard_gain[i] = -np.inf
        np.add(exit_gain, p[i, :], out=exit_gain)

    def take_exit(j: int, gain: float):
        q[len(picks)] = gain
        picks.append(("E", j))
        exit_gain[j] = -np.inf
        np.add(guard_gain, p[:, j], out=guard_gain)

    seed_guard, seed_exit = np.unravel_index(int(np.argmax(p)), p.shape)
    take_guard(int(seed_guard), 0.0)
    take_exit(int(seed_exit), exit_gain[seed_exit])

    guards_left, exits_left = n_guards - 1, n_exits - 1
    while guards_left or exits_left:
        if guards_left:
            best_g = int(guard_gain.argmax())
        if exits_left:
            best_e = int(exit_gain.argmax())
        if guards_left and (not exits_left or guard_gain[best_g] >= exit_gain[best_e]):
            take_guard(best_g, guard_gain[best_g])
            guards_left -= 1
        else:
            take_exit(best_e, exit_gain[best_e])
            exits_left -= 1

    g = float((np.arange(1, len(q) + 1) * q).sum())
    return GuessingTrace(tuple(picks), q, g)


def group_diversity(
    snapshot: ConsensusSnapshot,
    entry: ProbabilityVector,
    key: Literal["country", "as"],
) -> list[tuple[str | None, float]]:
    """Selection probability per country or AS, sorted by falling weight,
    then by label.  The vector must index the snapshot's own table
    (ValueError otherwise).

    The groups are the distinct codes of the ``country_code`` or
    ``as_number`` column at the vector's rows.  The relays with no value
    (code -1) form their own group, labelled None, which follows the named
    groups of equal probability; a country named "unknown" is a named
    group like any other.  One ``bincount`` over the codes' ranks among the
    groups sums each group's probabilities in row order, as a loop over the
    rows would; an AS number is never an index, since one of 4 bytes would
    size the sums by its value.  Only the groups' labels are decoded.
    """
    if key not in ("country", "as"):
        raise ValueError(f"unknown grouping key {key!r}")
    rows = _rows(snapshot, entry)
    values = (snapshot.table.country_code if key == "country" else snapshot.table.as_number)[rows]
    groups = _sorted_unique(values)
    sums = np.bincount(np.searchsorted(groups, values), weights=entry.probabilities)
    decode = _NAMES["country_code"].names.__getitem__ if key == "country" else "AS{}".format
    labels = [decode(g) if g >= 0 else None for g in groups.tolist()]
    return sorted(zip(labels, sums.tolist()), key=lambda item: (-item[1], item[0] is None, item[0]))


def joint_to_csv(jd: JointDistribution) -> str:
    """Header row of exit fingerprints; one row per guard.

    A name is quoted where CSV needs it, so ``joint_from_csv`` reads every
    name back.  ValueError names a fingerprint holding a carriage return or
    a NUL: the writer leaves a lone carriage return unquoted, and reading a
    file with newline translation (``Path.read_text``) turns each one into a
    line feed; Python 3.10's CSV reader rejects a line holding a NUL.
    """
    import csv
    import io

    bad = next((name for name in (*jd.guards, *jd.exits) if "\r" in name or "\0" in name), None)
    if bad is not None:
        raise ValueError(f"fingerprint {bad!r} holds a carriage return or a NUL, which CSV cannot carry")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["guard", *jd.exits])
    for i, guard in enumerate(jd.guards):
        writer.writerow([guard, *map(repr, jd.p[i].tolist())])
    return out.getvalue()


def joint_from_csv(text: str) -> JointDistribution:
    import csv
    import io

    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:  # a NUL on Python 3.10, an over-long field
        raise UndefinedMetricError(f"joint CSV: {exc}") from None
    rows = [row for row in rows if row]
    if len(rows) < 2 or len(rows[0]) < 2:
        raise UndefinedMetricError("joint CSV needs a header row and at least one guard row")
    exits = tuple(rows[0][1:])
    guards = []
    data = []
    for row in rows[1:]:
        if len(row) != len(exits) + 1:
            raise UndefinedMetricError(f"row for {row[0]!r} has {len(row) - 1} cells, expected {len(exits)}")
        guards.append(row[0])
        try:
            cells = [float(v) for v in row[1:]]
        except ValueError as exc:
            raise UndefinedMetricError(f"row for {row[0]!r}: {exc}") from None
        for exit_, v in zip(exits, cells):
            if not 0 <= v < math.inf:  # also false for NaN
                raise UndefinedMetricError(
                    f"row for {row[0]!r}, column {exit_!r}: cell {v!r} is not a finite "
                    "non-negative probability"
                )
        data.append(cells)
    for side, labels in (("guard row", guards), ("exit column", exits)):
        counts = Counter(labels)
        repeated = next((fp for fp in labels if counts[fp] > 1), None)
        if repeated is not None:
            raise UndefinedMetricError(f"joint CSV has more than one {side} for {repeated!r}")
    matrix = np.asarray(data)
    with np.errstate(over="ignore"):  # an overflowing total is rejected below
        total = matrix.sum()
    if not 0 < total < math.inf:
        raise UndefinedMetricError(f"joint CSV cells sum to {float(total)}, not a positive finite total")
    matrix /= total
    return JointDistribution(tuple(guards), exits, matrix)
