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
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .consensus import ConflictIndex, ConsensusSnapshot
from .errors import InvariantError, UndefinedMetricError
from .waterfill import ProbabilityVector

PROBABILITY_TOLERANCE = 1e-9


def shannon_entropy(probabilities) -> float:
    """Base-2 entropy with the 0*log(0) = 0 convention."""
    p = np.asarray(probabilities, dtype=np.float64).ravel()
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


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
        if (matrix < 0).any():
            raise InvariantError("negative cell probability")
        total = float(matrix.sum())
        if abs(total - 1.0) > PROBABILITY_TOLERANCE:
            raise InvariantError(f"cell probabilities sum to {total!r}, not 1")


def estimate_joint_analytic(
    snapshot: ConsensusSnapshot,
    entry: ProbabilityVector,
    exit_: ProbabilityVector,
) -> JointDistribution:
    """Independent product of the two positions with conflicting pairs zeroed.

    Pairs that could never share a circuit (same relay, same family, same
    /16) get probability zero and the rest is renormalized.
    """
    table = snapshot.table
    matrix = np.outer(entry.probabilities, exit_.probabilities)
    conflicts = ConflictIndex(table).conflict(
        entry.rows_in(table)[:, None], exit_.rows_in(table)[None, :]
    )
    matrix[conflicts] = 0.0
    total = matrix.sum()
    if total <= 0:
        raise UndefinedMetricError("every guard-exit pair conflicts; no circuit exists")
    return JointDistribution(entry.fingerprints, exit_.fingerprints, matrix / total)


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
        if q[0] != 0.0:
            raise InvariantError("the first pick alone can never succeed")
        if (q < -PROBABILITY_TOLERANCE).any():
            raise InvariantError("negative marginal gain")
        if q.sum() > 1.0 + PROBABILITY_TOLERANCE:
            raise InvariantError("marginal gains exceed total probability")


def guessing_entropy(jd: JointDistribution) -> GuessingTrace:
    """Trace the greedy node-compromise strategy over the joint distribution.

    The first two picks take the highest-probability cell (its guard first,
    for a deterministic trace); afterwards each step picks whichever
    unpicked guard or exit adds the most mass against the opposite side
    already held.  Ties prefer the guard side, then the lowest index.
    """
    p = jd.p
    n_guards, n_exits = p.shape
    guard_picked = np.zeros(n_guards, dtype=bool)
    exit_picked = np.zeros(n_exits, dtype=bool)
    # gain[x] = newly covered mass if x were picked now
    guard_gain = np.zeros(n_guards)
    exit_gain = np.zeros(n_exits)
    picks: list[tuple[str, int]] = []
    q: list[float] = []

    def take_guard(i: int, gain: float):
        picks.append(("G", int(i)))
        q.append(float(gain))
        guard_picked[i] = True
        exit_gain[:] += p[i, :]

    def take_exit(j: int, gain: float):
        picks.append(("E", int(j)))
        q.append(float(gain))
        exit_picked[j] = True
        guard_gain[:] += p[:, j]

    seed_guard, seed_exit = np.unravel_index(int(np.argmax(p)), p.shape)
    take_guard(seed_guard, 0.0)
    take_exit(seed_exit, exit_gain[seed_exit])

    for _ in range(n_guards + n_exits - 2):
        best_g, gain_g = _argmax_unpicked(guard_gain, guard_picked)
        best_e, gain_e = _argmax_unpicked(exit_gain, exit_picked)
        if best_g >= 0 and (best_e < 0 or gain_g >= gain_e):
            take_guard(best_g, gain_g)
        else:
            take_exit(best_e, gain_e)

    gains = np.asarray(q)
    g = float((np.arange(1, len(gains) + 1) * gains).sum())
    return GuessingTrace(tuple(picks), gains, g)


def _argmax_unpicked(gain: np.ndarray, picked: np.ndarray) -> tuple[int, float]:
    if picked.all():
        return -1, -1.0
    masked = np.where(picked, -np.inf, gain)
    idx = int(np.argmax(masked))
    return idx, float(masked[idx])


def group_diversity(
    snapshot: ConsensusSnapshot,
    entry: ProbabilityVector,
    key: Literal["country", "as"],
) -> list[tuple[str, float]]:
    """Selection probability per country or AS, sorted by falling weight."""
    if key not in ("country", "as"):
        raise ValueError(f"unknown grouping key {key!r}")
    table = snapshot.table
    if key == "country":
        labels = [c if c is not None else "unknown" for c in table.country]
    else:
        labels = [f"AS{a}" if a is not None else "unknown" for a in table.as_number]
    groups: dict[str, float] = {}
    for row, prob in zip(entry.rows_in(table).tolist(), entry.probabilities.tolist()):
        label = labels[row]
        groups[label] = groups.get(label, 0.0) + prob
    return sorted(groups.items(), key=lambda item: (-item[1], item[0]))


def joint_to_csv(jd: JointDistribution) -> str:
    """Header row of exit fingerprints; one row per guard."""
    lines = ["guard," + ",".join(jd.exits)]
    for i, guard in enumerate(jd.guards):
        cells = ",".join(repr(float(v)) for v in jd.p[i])
        lines.append(f"{guard},{cells}")
    return "\n".join(lines) + "\n"


def joint_from_csv(text: str) -> JointDistribution:
    import csv
    import io

    rows = list(csv.reader(io.StringIO(text)))
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
    matrix = np.asarray(data)
    with np.errstate(over="ignore"):  # an overflowing total is rejected below
        total = matrix.sum()
    if not 0 < total < math.inf:
        raise UndefinedMetricError(f"joint CSV cells sum to {float(total)}, not a positive finite total")
    return JointDistribution(tuple(guards), exits, matrix / total)
