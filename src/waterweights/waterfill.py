"""Per-relay waterfilling over the scalar positional weights.

Instead of scaling every relay in a pool by the same positional weight,
waterfilling caps the amount of bandwidth each relay devotes to the scarce
position at a common "water level": relays above the level all contribute
exactly the level (the surplus goes to the middle position), relays below
it contribute their full capacity.  The pool's aggregate contribution to
the position is unchanged, but selection probabilities flatten toward
uniform, which is the point.

For a descending bandwidth list BW_1 >= ... >= BW_K and a target
contribution t, the pivot N is the smallest index such that

    L(N) = (t - sum_{i>N} BW_i) / N    satisfies   BW_{N+1} <= L(N) <= BW_N

(with BW_{K+1} taken as 0).  Relays 1..N get fraction L/BW_i, the rest get
fraction 1, so every relay keeps exactly min(BW_i, L).  The scan and the
water level are exact rationals; each relay's rendering (``RelayShare``) is
its nearest-float fraction and its weights rounded to the integer grid.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .consensus import EXIT, GUARD, ConsensusSnapshot, RelayTable
from .errors import EmptyPoolError, InvariantError, NotApplicableError
from .weights import SCALE, PositionWeights


class TargetPool(enum.Enum):
    GUARDS = "guards"  # Guard-flagged, not Exit-flagged
    DSET = "dset"  # Guard+Exit flagged


class Position(enum.Enum):
    ENTRY = "entry"
    MIDDLE = "middle"
    EXIT = "exit"


class RelayShare(NamedTuple):
    """One relay's rendered share: the kept fraction and its grid weights."""

    fingerprint: str
    bandwidth: int
    fraction: float  # nearest float of min(bandwidth, L) / bandwidth
    scaled: tuple[tuple[str, int], ...]  # (name, weight on the 0..SCALE grid), by name


@dataclass(frozen=True)
class WaterfillSolution:
    """One pool's water level, with its relays in solved order.

    ``fingerprints`` and ``bandwidths`` run in descending bandwidth with a
    fingerprint tiebreak, zero-weight relays last.  A relay of rank ``i``
    (0-based) keeps ``min(BW_i, L)`` of its bandwidth in the solved
    position(s): the fraction L/BW_i when ``i < pivot_index``, else all of
    it.
    """

    pool: TargetPool
    fingerprints: tuple[str, ...]
    bandwidths: tuple[int, ...]
    water_level: Fraction
    pivot_index: int  # 1-based rank of the last relay above the water level
    target: Fraction  # pool total times its positional weight
    conservation_residual: Fraction  # sum(min(bandwidth, level)) - target
    source_weights: PositionWeights
    table: RelayTable = field(compare=False, repr=False)  # the table solved
    rows: np.ndarray = field(compare=False, repr=False)  # its rows, in solved order

    @cached_property
    def shares(self) -> tuple[RelayShare, ...]:
        """Each relay's kept fraction and its weights on the 0..SCALE grid,
        built on first read.

        A relay of bandwidth ``bw`` above the pivot keeps the fraction
        ``p/(q*bw)`` of the water level ``p/q``; every other relay keeps 1.
        Each weight is its exact value times ``SCALE``, rounded half to even.
        The relays below the pivot share one (immutable) set of weights.
        """
        ends, middle = self._weight_split()

        def scaled(num: int, den: int) -> tuple[tuple[str, int], ...]:
            values = [
                (name, _round_half_even(SCALE * share.numerator * num, share.denominator * den))
                for name, share in ends
            ]
            values.append((middle, _round_half_even(SCALE * (den - num), den)))
            return tuple(sorted(values))

        p, q = self.water_level.numerator, self.water_level.denominator
        pivot = self.pivot_index
        above = zip(self.fingerprints[:pivot], self.bandwidths[:pivot])
        # int / int is correctly rounded, so this is float(Fraction(p, q * bw))
        out = [RelayShare(fp, bw, p / (q * bw), scaled(p, q * bw)) for fp, bw in above]
        whole = scaled(1, 1)
        below = zip(self.fingerprints[pivot:], self.bandwidths[pivot:])
        out.extend(RelayShare(fp, bw, 1.0, whole) for fp, bw in below)
        return tuple(out)

    def _weight_split(self) -> tuple[tuple[tuple[str, Fraction], ...], str]:
        """The end-position weights, each with its share of the kept fraction,
        and the name of the middle weight, which takes the rest."""
        if self.pool is TargetPool.GUARDS:
            return (("Wgg", Fraction(1)),), "Wmg"
        return (
            ("Wgd", self.end_share(Position.ENTRY)),
            ("Wed", self.end_share(Position.EXIT)),
        ), "Wmd"

    def end_share(self, position: Position) -> Fraction:
        """The part of the kept fraction that serves an end position.

        The guard pool keeps it all for the entry; the dual pool splits it
        between entry and exit in the ratio Wgd : Wed of the weights it was
        solved with.
        """
        if self.pool is TargetPool.GUARDS:
            return Fraction(1)
        w = self.source_weights
        return (w.Wgd if position is Position.ENTRY else w.Wed) / (w.Wgd + w.Wed)


def find_water_level(bandwidths: Sequence[int], target: Fraction) -> tuple[Fraction, int]:
    """Locate (water_level, pivot) for a descending positive bandwidth list.

    Runs the linear pivot scan in cross-multiplied integer arithmetic, so
    the feasibility test at each candidate N is exact.
    """
    k = len(bandwidths)
    if k == 0:
        raise NotApplicableError("no positive-bandwidth relays to waterfill")
    target = target if isinstance(target, Fraction) else Fraction(target)
    p, q = target.numerator, target.denominator
    suffixes = [0] * (k + 1)  # suffixes[n] = sum of bandwidths after rank n
    for i in range(k - 1, -1, -1):
        suffixes[i] = suffixes[i + 1] + bandwidths[i]
    total = suffixes[0]
    if not 0 < target <= total:
        raise InvariantError(
            f"waterfill target {float(target):.6g} outside (0, pool total {total}]"
        )
    for n in range(1, k + 1):
        t_n = p - q * suffixes[n]  # q * n * L(n)
        if t_n < 0:
            continue
        qn = q * n
        below = bandwidths[n] if n < k else 0
        if qn * below <= t_n <= qn * bandwidths[n - 1]:
            return Fraction(t_n, qn), n
    raise InvariantError("pivot scan found no feasible water level")


def _solve_pool(
    snapshot: ConsensusSnapshot,
    pool: TargetPool,
    positional_weight: Fraction,
    source: PositionWeights,
) -> WaterfillSolution:
    table = snapshot.table
    members = np.flatnonzero(table.pool == (GUARD | EXIT if pool is TargetPool.DSET else GUARD))
    if not members.size:
        raise NotApplicableError(f"{pool.value} pool is empty")
    fps = table.fingerprints
    # (-weight, fingerprint) order: a stable sort by falling weight over the
    # members sorted by fingerprint in Python's string order
    by_fingerprint = np.array(sorted(members.tolist(), key=fps.__getitem__), dtype=np.int64)
    order = by_fingerprint[np.argsort(-table.weights[by_fingerprint], kind="stable")]
    bandwidths = table.weights[order]
    positive = bandwidths[: np.count_nonzero(bandwidths)]  # zeros sort last
    pool_total = sum(positive.tolist())
    if pool_total == 0:
        raise NotApplicableError(f"{pool.value} pool has zero total weight")
    target = positional_weight * pool_total
    level, pivot = find_water_level(positive.tolist(), target)
    # sum(min(BW_i, L)) over L's denominator; each BW_i meets L directly, not
    # through the pivot, so this checks the scan rather than restating it
    p, q = level.numerator, level.denominator
    capped = bandwidths >= -(-p // q)  # q * BW_i >= p
    kept = int(capped.sum()) * p + q * sum(bandwidths[~capped].tolist())
    return WaterfillSolution(
        pool=pool,
        fingerprints=tuple(map(fps.__getitem__, order.tolist())),
        bandwidths=tuple(bandwidths.tolist()),
        water_level=level,
        pivot_index=pivot,
        target=target,
        conservation_residual=Fraction(kept, q) - target,
        source_weights=source,
        table=table,
        rows=order,
    )


def solve_guard_waterfill(snapshot: ConsensusSnapshot, w: PositionWeights) -> WaterfillSolution:
    """Waterfill the guard pool's entry-position weight.

    Applicable only when 0 < Wgg < 1; at the boundaries there is no
    bandwidth to move, and callers should keep the scalar weights.
    The derived per-relay weights are Wgg_i = fraction, Wmg_i = 1 - fraction.
    """
    if not 0 < w.Wgg < 1:
        raise NotApplicableError(f"Wgg = {float(w.Wgg):.6g}; waterfilling needs 0 < Wgg < 1")
    return _solve_pool(snapshot, TargetPool.GUARDS, w.Wgg, w)


def solve_dset_waterfill(snapshot: ConsensusSnapshot, w: PositionWeights) -> WaterfillSolution:
    """Waterfill the dual-role (Guard+Exit) pool's combined end-position weight.

    The kept fraction Wd_i covers both end positions and is split between
    them in the same ratio as the scalar Wgd : Wed; the remainder moves to
    the middle position.
    """
    if w.Wgd + w.Wed == 0:
        raise NotApplicableError("Wgd + Wed = 0; the dual pool serves only middles")
    return _solve_pool(snapshot, TargetPool.DSET, w.Wgd + w.Wed, w)


# ---------------------------------------------------------------------------
# Selection distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ProbabilityVector:
    """Selection probabilities over a fixed fingerprint order.

    A vector from ``selection_distribution`` also carries the table it was
    drawn from and its relays' rows there.
    """

    fingerprints: tuple[str, ...]
    probabilities: np.ndarray  # float64, sums to 1
    table: RelayTable | None = None
    rows: np.ndarray | None = None

    def rows_in(self, table: RelayTable) -> np.ndarray:
        """The vector's relays as rows of ``table``; KeyError names one absent."""
        if table is self.table:
            return self.rows
        return np.array([table.row[fp] for fp in self.fingerprints], dtype=np.int64)


def _scalar_factors(w: PositionWeights, position: Position) -> dict[int, Fraction]:
    """Scalar weight factor per pool code; absent codes get 0.

    Unflagged relays count fully toward the middle position.
    """
    if position is Position.ENTRY:
        return {GUARD: w.Wgg, GUARD | EXIT: w.Wgd}
    if position is Position.MIDDLE:
        return {GUARD: w.Wmg, GUARD | EXIT: w.Wmd, EXIT: w.Wme, 0: Fraction(1)}
    return {GUARD | EXIT: w.Wed, EXIT: w.Wee}


def _weight_fractions(
    snapshot: ConsensusSnapshot,
    w: PositionWeights,
    position: Position,
    solutions: dict[TargetPool, WaterfillSolution],
) -> tuple[np.ndarray, np.ndarray]:
    """Each relay's exact weight at a position, as numerator and denominator.

    The weight is consensus_weight times the relay's factor: the scalar
    factor of its pool, or, for a G (D) relay, the guard (dual) solution's
    waterfilled factor.  A relay above that solution's pivot keeps ``L`` of
    its bandwidth ``bw`` at the end position(s) and moves ``bw - L`` to the
    middle; any other relay of the pool keeps its whole bandwidth at the end
    position(s).  Both arrays hold Python ints.
    """
    table = snapshot.table
    scalars = _scalar_factors(w, position)
    num = np.zeros(len(table), dtype=object)
    den = np.ones(len(table), dtype=object)
    for code, factor in scalars.items():
        members = table.pool == code
        num[members] = factor.numerator
        den[members] = factor.denominator
    for code, pool in ((GUARD, TargetPool.GUARDS), (GUARD | EXIT, TargetPool.DSET)):
        sol = solutions.get(pool)
        if sol is None or code not in scalars:
            continue
        middle = position is Position.MIDDLE
        share = Fraction(0) if middle else sol.end_share(position)
        num[sol.rows] = share.numerator
        den[sol.rows] = share.denominator
        rows = sol.rows[: sol.pivot_index]  # the relays above the water level
        p, q = sol.water_level.numerator, sol.water_level.denominator
        q_bw = q * np.array(sol.bandwidths[: sol.pivot_index], dtype=object)
        if middle:
            num[rows] = q_bw - p
            den[rows] = q_bw
        else:
            num[rows] = share.numerator * p
            den[rows] = share.denominator * q_bw
    return num * table.weights.astype(object), den


def selection_distribution(
    snapshot: ConsensusSnapshot,
    w: PositionWeights,
    position: Position,
    waterfills: Iterable[WaterfillSolution] = (),
    stream: int | None = None,
) -> ProbabilityVector:
    """Selection probabilities for one circuit position.

    Each eligible relay is weighted by consensus_weight times its positional
    weight factor and the vector is normalized.  For the exit position,
    ``stream`` (the destination port) filters candidates through their exit
    policies.  The waterfills must be solved on this snapshot's table.
    Weights are exact until each is converted to the nearest float; the
    normalizing total sums those floats in document order.
    """
    solutions = {sol.pool: sol for sol in waterfills}
    if any(sol.table is not snapshot.table for sol in solutions.values()):
        raise ValueError("a waterfill solution was solved on another snapshot's table")
    keep = None
    if position is Position.EXIT:
        if stream is None:
            raise ValueError("exit position needs a destination port for policy filtering")
        keep = snapshot.table.accepts(stream)

    num, den = _weight_fractions(snapshot, w, position, solutions)
    keep = num > 0 if keep is None else keep & (num > 0)
    rows = np.flatnonzero(keep)
    raw = (num[rows] / den[rows]).tolist()  # int / int: correctly rounded, as float(Fraction)
    total = sum(raw)  # builtin sum in document order; np.sum would round differently
    if total <= 0:
        raise EmptyPoolError(f"no eligible relay carries weight for {position.value}")
    probs = np.asarray(raw, dtype=np.float64) / total
    fingerprints = tuple(map(snapshot.table.fingerprints.__getitem__, rows.tolist()))
    return ProbabilityVector(fingerprints, probs, snapshot.table, rows)


# ---------------------------------------------------------------------------
# Consensus-document rendering
# ---------------------------------------------------------------------------

def _round_half_even(num: int, den: int) -> int:
    """``round(Fraction(num, den))`` for ``den > 0``: ties go to the even integer."""
    floor, rem = divmod(num, den)
    if 2 * rem > den or (2 * rem == den and floor & 1):
        return floor + 1
    return floor


def wfbw_lines(solution: WaterfillSolution) -> list[str]:
    """Per-relay ``wfbw`` status-entry lines with 0..SCALE integer weights."""
    shares = solution.shares
    # the relays below the pivot share one weight set: format each set once
    text = {w: " ".join(f"{k}={v}" for k, v in w) for w in {s.scaled for s in shares}}
    return [f"{s.fingerprint} wfbw {text[s.scaled]}" for s in shares]


def quantization_residual(solution: WaterfillSolution) -> Fraction:
    """Conservation error after rounding each relay's kept fraction once
    to the 0..SCALE grid."""
    p, q = solution.water_level.numerator, solution.water_level.denominator
    pivot = solution.pivot_index
    kept = SCALE * sum(solution.bandwidths[pivot:]) + sum(
        _round_half_even(SCALE * p, q * bw) * bw for bw in solution.bandwidths[:pivot]
    )
    return Fraction(kept, SCALE) - solution.target
