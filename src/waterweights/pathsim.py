"""Seeded Monte Carlo simulation of client circuit construction.

Clients walk a chronological sequence of snapshots, keep a small persistent
guard list (refilled on churn and rotated on randomized deadlines), and
build one circuit per schedule tick: the exit is drawn first from the
policy-filtered exit distribution, the guard uniformly from the live guard
list, the middle from the middle distribution, with conflicting hops
rejection-resampled up to a bounded attempt count.  A circuit counts as
compromised when its guard and its exit both belong to the adversary
(correlation is treated as instantaneous and perfect).

Adversary relays are injected into every snapshot where they are live
*before* pool totals and positional weights are computed, so the injected
bandwidth reshapes the weights exactly as organic bandwidth would.

The loop runs period by period.  In each period it walks the clients only
for what is theirs alone: guard churn, rotation and refill, and their own
random draws.  Everything else (the exit and middle lookups, the guard
slots, the conflict checks and redraw rounds, the adversary mask and the
per-client tallies) runs once over all clients' streams of the period.  A
client whose guard deadline falls inside the period takes part in one more
round, from the deadline on.  That period kernel is the only circuit
builder, and its conflict checks are ``RelayTable.conflict``, the rule
the joint metrics apply too.

Everything is deterministic given the seed: each client draws from its own
substream derived from (seed, client_id), and makes the same calls, of the
same sizes and in the same order, as it would alone.  What a client draws
depends only on its own draws so far, so results are independent of which
clients share a batch, of execution order and of the number of workers.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .consensus import (
    ACCEPT_ALL,
    ConsensusSnapshot,
    INT64_MAX,
    LoadCase,
    REJECT_ALL,
    RelayEntry,
    classify_load_case,
    fingerprint_codes,
)
from .errors import (
    EmptyPoolError,
    InvariantError,
    NotApplicableError,
    ParseError,
    UnsupportedLoadCaseError,
    WaterweightsError,
)
from . import strictjson
from .waterfill import (
    Position,
    solve_dset_waterfill,
    solve_guard_waterfill,
    selection_distribution,
)
from .weights import WeightMode, compute_weights

DAY = 86_400
GUARD_ROTATION_MIN = 60 * DAY
GUARD_ROTATION_MAX = 90 * DAY
DEFAULT_SNAPSHOT_PERIOD = 3_600
MAX_HOP_ATTEMPTS = 64

GUARD_LIKE_FLAGS = frozenset({"Guard", "Fast", "Stable", "Running", "Valid"})
EXIT_LIKE_FLAGS = frozenset({"Exit", "Fast", "Running", "Valid"})


class Algorithm(enum.Enum):
    ABWRS = "abwrs"  # scalar adjusted bandwidth-weight random selection
    WATERFILLING = "wf"
    WATERFILLING_GE = "wf-ge"  # waterfilling over guard-exit-equalized weights


class RoleHint(enum.Enum):
    GUARD_LIKE = "guard"
    EXIT_LIKE = "exit"


@dataclass(frozen=True)
class AdversaryRelay:
    """One relay the adversary operates; its role sets its flags and policy."""

    role: RoleHint
    consensus_weight: int
    join_time: int = 0


_ADVERSARY_RELAY_KEYS = frozenset({"role", "consensus_weight", "join_time", "count"})


@dataclass(frozen=True)
class AdversarySpec:
    """The adversary's relays; injection always recomputes pool totals."""

    relays: tuple[AdversaryRelay, ...] = ()

    def fingerprint(self, index: int) -> str:
        return f"ADV{index:03d}{self.relays[index].role.value.upper()}"

    @property
    def fingerprints(self) -> tuple[str, ...]:
        return tuple(self.fingerprint(i) for i in range(len(self.relays)))

    def joined(self, at_time: int) -> frozenset[str]:
        """The fingerprints of the relays live at ``at_time``."""
        return frozenset(
            self.fingerprint(i) for i, adv in enumerate(self.relays) if adv.join_time <= at_time
        )

    def relay_entries(self, at_time: int) -> list[RelayEntry]:
        entries = []
        for i, adv in enumerate(self.relays):
            if adv.join_time > at_time:
                continue
            guard = adv.role is RoleHint.GUARD_LIKE
            entries.append(
                RelayEntry(
                    fingerprint=self.fingerprint(i),
                    nickname=f"adv{i:03d}",
                    consensus_weight=adv.consensus_weight,
                    flags=GUARD_LIKE_FLAGS if guard else EXIT_LIKE_FLAGS,
                    exit_policy=(REJECT_ALL,) if guard else (ACCEPT_ALL,),
                    subnet16=f"250.{i}",  # one /16 each; 250.256 and up match no real address
                )
            )
        return entries

    @staticmethod
    def from_json_dict(doc) -> "AdversarySpec":
        """Read an ``adv.json`` document; a malformed one raises ParseError."""
        if not isinstance(doc, dict) or not isinstance(doc.get("relays"), list):
            raise ParseError("adversary document must be an object with a 'relays' list")
        strictjson.reject_unknown_keys(doc, {"relays"}, "adversary document")
        relays = []
        for n, item in enumerate(doc["relays"]):
            where = f"relays[{n}]"
            if not isinstance(item, dict):
                raise ParseError(f"{where} must be an object")
            strictjson.reject_unknown_keys(item, _ADVERSARY_RELAY_KEYS, where)
            if "role" not in item or "consensus_weight" not in item:
                raise ParseError(f"{where} needs 'role' and 'consensus_weight'")
            roles = [hint.value for hint in RoleHint]
            if item["role"] not in roles:
                raise ParseError(f"{where}.role must be one of {roles}, not {item['role']!r}")
            numbers = {
                "consensus_weight": item["consensus_weight"],
                "count": item.get("count", 1),
                "join_time": item.get("join_time", 0),
            }
            for key, value in numbers.items():
                if type(value) is not int:  # type(True) is bool: booleans are no integers
                    raise ParseError(f"{where}.{key} must be an integer, not {value!r}")
            weight, count, join_time = numbers.values()
            if count < 1:
                raise ParseError(f"{where}.count must be at least 1, not {count}")
            if weight < 0:
                raise ParseError(f"{where}.consensus_weight must not be negative, not {weight}")
            if weight > INT64_MAX:
                raise ParseError(f"{where}.consensus_weight {weight} does not fit in 64 bits")
            relays.extend(
                AdversaryRelay(
                    role=RoleHint(item["role"]),
                    consensus_weight=weight,
                    join_time=join_time,
                )
                for _ in range(count)
            )
        return AdversarySpec(tuple(relays))


def inject_adversary(snapshot: ConsensusSnapshot, adversary: AdversarySpec) -> ConsensusSnapshot:
    """Append the adversary's relays live at the snapshot's time as rows;
    the totals count them."""
    extra = adversary.relay_entries(snapshot.valid_after)
    if not extra:
        return snapshot
    return snapshot.with_relays(extra)


@dataclass(frozen=True)
class StreamSchedule:
    """Circuit cadence: one circuit per interval, around the clock."""

    circuit_interval: int = 600
    destination_port: int = 443

    def __post_init__(self):
        if self.circuit_interval < 1:
            raise InvariantError("circuit interval must be at least one second")
        if self.circuit_interval > INT64_MAX:
            raise WaterweightsError(
                f"circuit interval {self.circuit_interval} does not fit in 64 bits"
            )
        if not 1 <= self.destination_port <= 65_535:
            raise InvariantError(f"destination port {self.destination_port} out of range")

    def stream_times(self, start: int, end: int) -> np.ndarray:
        """The times ``start + k * circuit_interval`` before ``end``, as
        int64.  The times rise, so the first and the last are checked, over
        Python ints: WaterweightsError names one outside int64."""
        count = max(0, -(-(end - start) // self.circuit_interval))
        if not count:
            return np.empty(0, dtype=np.int64)
        for t in (start, start + (count - 1) * self.circuit_interval):
            if not -INT64_MAX - 1 <= t <= INT64_MAX:
                raise WaterweightsError(f"stream time {t} does not fit in 64 bits")
        return start + self.circuit_interval * np.arange(count, dtype=np.int64)


class Circuit(NamedTuple):
    time: int
    guard: str
    middle: str
    exit: str


@dataclass(frozen=True)
class CompromiseRecord:
    """Per-client outcome; times are seconds since simulation start."""

    client_id: int
    first_compromise_time: int | None
    circuits_built: int
    circuits_compromised: int

    def __post_init__(self):
        if not 0 <= self.circuits_compromised <= self.circuits_built:
            raise InvariantError(
                f"{self.circuits_compromised} circuits compromised of {self.circuits_built} built"
            )
        if (self.first_compromise_time is not None) != (self.circuits_compromised > 0):
            raise InvariantError(
                "first_compromise_time must be present exactly when circuits were compromised"
            )
        if self.first_compromise_time is not None and self.first_compromise_time < 0:
            raise InvariantError(f"first_compromise_time {self.first_compromise_time} is negative")


# ---------------------------------------------------------------------------
# Prepared per-snapshot selection state
# ---------------------------------------------------------------------------

class _Pool:
    """Eligible relay indices with cumulative selection probabilities."""

    __slots__ = ("indices", "cumulative")

    def __init__(self, indices: np.ndarray, cumulative: np.ndarray):
        self.indices = indices
        self.cumulative = cumulative

    def pick(self, u: np.ndarray) -> np.ndarray:
        """The relay rows that uniform draws ``u`` select."""
        return self.indices[np.searchsorted(self.cumulative, u, side="right")]

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return self.pick(rng.random(count))


class NetworkState:
    """A snapshot with adversary injected, weights solved, pools prepared.

    ``adv_mask`` marks the rows of the adversary fingerprints live in the
    snapshot, found through ``RelayTable.rows``; ``guard`` marks the
    Guard-flagged rows.
    """

    def __init__(
        self,
        snapshot: ConsensusSnapshot,
        algorithm: Algorithm,
        adversary_fps: frozenset[str],
        start: int,
        end: int,
    ):
        self.snapshot = snapshot
        self.start = start
        self.end = end
        case, detail = classify_load_case(snapshot.totals)
        if case is LoadCase.UNSUPPORTED:
            raise UnsupportedLoadCaseError(f"snapshot at {snapshot.valid_after}: {detail}")
        self.case = case
        mode = (
            WeightMode.GUARD_EXIT_EQUALIZED
            if algorithm is Algorithm.WATERFILLING_GE and case is LoadCase.CASE_3A
            else WeightMode.STANDARD
        )
        self.weights = compute_weights(snapshot.totals, case, mode)
        self.waterfills = []
        if algorithm in (Algorithm.WATERFILLING, Algorithm.WATERFILLING_GE):
            try:
                self.waterfills.append(solve_guard_waterfill(snapshot, self.weights))
            except NotApplicableError:
                pass
            if case is LoadCase.CASE_3B:
                try:
                    self.waterfills.append(solve_dset_waterfill(snapshot, self.weights))
                except NotApplicableError:
                    pass

        self.guard = snapshot.table.guard
        rows = snapshot.table.rows(fingerprint_codes(adversary_fps))
        self.adv_mask = np.zeros(len(snapshot.table), dtype=bool)
        self.adv_mask[rows[rows >= 0]] = True  # an adversary relay not live has no row

        self.entry = self._pool(Position.ENTRY)
        self.middle = self._pool(Position.MIDDLE)

    def _pool(self, position: Position, stream=None) -> _Pool:
        dist = selection_distribution(
            self.snapshot, self.weights, position, waterfills=self.waterfills, stream=stream
        )
        cumulative = np.cumsum(dist.probabilities)
        cumulative /= cumulative[-1]  # exact 1.0 endpoint, monotonicity preserved
        return _Pool(dist.rows, cumulative)

    def exit_pool(self, port: int) -> _Pool | None:
        """The exit pool for ``port``, built on each call; None when no exit
        relay carries weight for it."""
        try:
            return self._pool(Position.EXIT, stream=port)
        except EmptyPoolError:
            return None

    def summary(self) -> dict:
        """The period's load case, weights and water levels, as simulate reports them."""
        return {
            "valid_after": self.snapshot.valid_after,
            "covers": [self.start, self.end],
            "case": self.case.value,
            "mode": self.weights.mode.value,
            "Wgg": float(self.weights.Wgg),
            "waterfill": {
                sol.pool.value: {
                    "water_level": float(sol.water_level),
                    "pivot_index": sol.pivot_index,
                }
                for sol in self.waterfills
            },
        }


def prepare_sequence(
    sequence: Iterable[ConsensusSnapshot],
    adversary: AdversarySpec,
    algorithm: Algorithm,
    duration: int | None = None,
) -> Iterator[NetworkState]:
    """Cut a chronological snapshot sequence into periods and yield each state.

    The sequence is read once, in order, so it may be any iterable, and
    nothing is read before the first state is asked for.  A snapshot
    extends the open period when both its relay list and its live
    adversary relays repeat those of the snapshot that opened the period;
    two different relay lists at one time are an error.  A period's state
    is prepared and yielded as soon as the next period, or the end, fixes
    where it ends.  While a state is out, only its period's opener and the
    snapshot that closed the period are held, and no state is kept once
    the next one is asked for.  Errors are raised as the generator is
    read, when the sequence reaches them.  ``duration`` defaults to the
    span of the sequence plus one snapshot period.  ``simulate_prepared``
    runs the states from the first one's start.
    """
    snapshots = iter(sequence)
    opener = next(snapshots, None)
    if opener is None:
        raise WaterweightsError("consensus sequence is empty")
    last = opener.valid_after  # of the snapshot read before
    sim_end = None if duration is None else last + duration
    joined = adversary.joined(last)
    adv_fps = frozenset(adversary.fingerprints)
    prepared = 0

    def prepare(snap: ConsensusSnapshot, end: int) -> tuple[NetworkState, ...]:
        # a tuple for ``yield from``, which lets go of the state when the
        # next one is asked for
        nonlocal prepared
        if sim_end is not None:
            end = min(end, sim_end)
        if end <= snap.valid_after:
            return ()
        prepared += 1
        live = inject_adversary(snap, adversary)
        return (NetworkState(live, algorithm, adv_fps, snap.valid_after, end),)

    for snap in snapshots:
        if snap.valid_after < last:
            raise WaterweightsError(f"consensus sequence not chronological at {snap.valid_after}")
        now_joined = adversary.joined(snap.valid_after)
        if now_joined == joined and (snap is opener or snap.table == opener.table):
            last = snap.valid_after
            del snap  # not held while the next snapshot is read
            continue  # republished relay list, same adversary: extend the open period
        if snap.valid_after == last:
            raise WaterweightsError(f"two different relay lists at valid_after {snap.valid_after}")
        yield from prepare(opener, snap.valid_after)
        opener, joined, last = snap, now_joined, snap.valid_after
    if sim_end is None:
        sim_end = last + DEFAULT_SNAPSHOT_PERIOD
    yield from prepare(opener, sim_end)
    if not prepared:
        raise WaterweightsError("simulation duration covers no snapshot")


# ---------------------------------------------------------------------------
# Guard-list management
# ---------------------------------------------------------------------------

# A client's guard list is a list of (fingerprint code, rotation deadline)
# slots, in list order: a circuit draws its guard as a slot index, so the
# order is part of every later draw.  A code names the same relay in every
# table, so the lists outlive the period that drew them.

def _draw_guard(
    state: NetworkState, rng: np.random.Generator, exclude: set[int]
) -> int | None:
    """The fingerprint code of an entry-pool draw not in ``exclude``, else
    None after MAX_HOP_ATTEMPTS draws.  Within a table a row and its code
    are one-to-one, so the draws are those of a list of rows."""
    codes, entry = state.snapshot.table.fingerprint, state.entry
    for _ in range(MAX_HOP_ATTEMPTS):
        code = int(codes[entry.draw(rng, 1)[0]])
        if code not in exclude:
            return code
    return None


def _refill_guards(
    slots: list[tuple[int, int]], size: int, state: NetworkState,
    rng: np.random.Generator, now: int,
) -> None:
    current = {code for code, _ in slots}
    while len(slots) < size:
        code = _draw_guard(state, rng, current)
        if code is None:
            break  # pool smaller than the list; run with what exists
        current.add(code)
        slots.append((code, now + int(rng.uniform(GUARD_ROTATION_MIN, GUARD_ROTATION_MAX))))


def _rotate_expired(
    slots: list[tuple[int, int]], state: NetworkState, rng: np.random.Generator, now: int
) -> int:
    """Draw a replacement for every slot past its deadline; returns how many expired.

    One pass leaves no slot expired.  A client's streams stop at the first
    time at or past its next deadline, and periods are contiguous, so a
    deadline lies less than one circuit interval before ``now``.
    ``simulate_prepared`` refuses an interval above GUARD_ROTATION_MIN, and
    a replacement's deadline lies at least that far past the old one, so
    past ``now``.
    """
    expired = [slot for slot in slots if slot[1] <= now]
    for slot in expired:
        slots.remove(slot)
        code = _draw_guard(state, rng, {c for c, _ in slots})
        if code is not None:
            deadline = slot[1] + int(rng.uniform(GUARD_ROTATION_MIN, GUARD_ROTATION_MAX))
            slots.append((code, deadline))
    return len(expired)


class _GuardLists:
    """Every client's guard list as arrays, one row per client.

    Slot ``j`` of client ``c`` is ``(codes[c, j], deadlines[c, j])`` for
    ``j < size[c]``: the guard's fingerprint code and its rotation
    deadline.  Unused slots hold -1 and INT64_MAX, so a client's smallest
    deadline is its next rotation, and ``RelayTable.rows`` finds no row
    for an unused slot.  A list holds distinct relays of one table, so
    ``widen`` makes the arrays only as wide as the largest of min(list
    size, table length) over the periods so far, however large a list
    size is asked for.
    """

    def __init__(self, clients: int):
        self.codes = np.full((clients, 1), -1, dtype=np.int64)
        self.deadlines = np.full((clients, 1), INT64_MAX, dtype=np.int64)
        self.size = np.zeros(clients, dtype=np.int64)

    def widen(self, capacity: int) -> None:
        extra = capacity - self.codes.shape[1]
        if extra > 0:
            pad = ((0, 0), (0, extra))
            self.codes = np.pad(self.codes, pad, constant_values=-1)
            self.deadlines = np.pad(self.deadlines, pad, constant_values=INT64_MAX)

    def get(self, c: int) -> list[tuple[int, int]]:
        k = self.size[c]
        return list(zip(self.codes[c, :k].tolist(), self.deadlines[c, :k].tolist()))

    def put(self, c: int, slots: list[tuple[int, int]]) -> None:
        k = len(slots)
        self.codes[c] = -1
        self.deadlines[c] = INT64_MAX
        if k:
            self.codes[c, :k], self.deadlines[c, :k] = zip(*slots)
        self.size[c] = k


# ---------------------------------------------------------------------------
# Circuit construction
# ---------------------------------------------------------------------------

class _Built(NamedTuple):
    """One batch's circuits, one entry per stream, grouped by client."""

    client: np.ndarray  # the stream's client, as a position in the batch
    guard: np.ndarray
    middle: np.ndarray
    exit: np.ndarray
    guard_failed: np.ndarray  # no list guard compatible with the exit
    middle_failed: np.ndarray  # no middle compatible with the guard and the exit


def _resample(rngs: list, client: np.ndarray, place, first: np.ndarray, draw) -> np.ndarray:
    """Place one hop's ``first`` draws, then redraw it where it conflicts.

    ``place(streams, values)`` stores the hop for ``streams`` and says which
    of them conflict.  Each of at most MAX_HOP_ATTEMPTS - 1 rounds, every
    client ``i`` with such streams makes one ``draw(rng, i, count)`` call.
    Returns the streams still in conflict.
    """
    bad = place(slice(None), first)
    for _ in range(MAX_HOP_ATTEMPTS - 1):
        retry = np.flatnonzero(bad)
        if not retry.size:
            break
        ids, counts = np.unique(client[retry], return_counts=True)
        bad[retry] = place(retry, np.concatenate(
            [draw(rngs[i], i, n) for i, n in zip(ids.tolist(), counts.tolist())]
        ))
    return bad


def _build_circuits(
    state: NetworkState,
    pool: _Pool,
    rngs: list[np.random.Generator],
    members: np.ndarray,
    sizes: list[int],
    counts: np.ndarray,
) -> _Built:
    """Build ``counts[i]`` circuits for each client ``i`` of a batch.

    Client ``i`` draws from ``rngs[i]`` against its guard list
    ``members[i, :sizes[i]]`` (table rows), making the calls a lone client
    would make, in the same order and of the same sizes: exits, guard
    slots, the slot redraws for guards that conflict with their exit,
    middles, then the middle redraws.  Lookups and conflict checks run once
    over the whole batch.  Batch composition therefore changes no draw.
    """
    client = np.repeat(np.arange(len(rngs)), counts)
    draws = [
        (rng.random(m), rng.integers(0, k, size=m))
        for rng, k, m in zip(rngs, sizes, counts.tolist())
    ]
    exit_idx = pool.pick(np.concatenate([u for u, _ in draws]))
    guard_idx = np.empty_like(exit_idx)
    middle_idx = np.empty_like(exit_idx)
    conflict = state.snapshot.table.conflict

    def place_guard(streams, slots):
        guard_idx[streams] = members[client[streams], slots]
        return conflict(guard_idx[streams], exit_idx[streams])

    def place_middle(streams, u):
        middle_idx[streams] = state.middle.pick(u)
        hop = middle_idx[streams]
        return conflict(hop, guard_idx[streams]) | conflict(hop, exit_idx[streams])

    guard_failed = _resample(
        rngs, client, place_guard, np.concatenate([s for _, s in draws]),
        lambda rng, i, n: rng.integers(0, sizes[i], size=n),
    )
    middle_failed = _resample(
        rngs, client, place_middle,
        np.concatenate([rng.random(m) for rng, m in zip(rngs, counts.tolist())]),
        lambda rng, i, n: rng.random(n),
    )
    return _Built(client, guard_idx, middle_idx, exit_idx, guard_failed, middle_failed)


# ---------------------------------------------------------------------------
# Full simulation
# ---------------------------------------------------------------------------

@dataclass
class SimulationTrace:
    """A run's records, its circuits when collected, its periods, and what
    it counted.

    ``periods`` holds each period's ``NetworkState.summary()``, in order,
    and ``circuits_scheduled`` counts the streams scheduled over all of
    them, one per client and stream time.  ``streams_skipped`` counts
    streams no exit accepted in their period and ``circuits_failed``
    circuits whose relay constraints were not met within MAX_HOP_ATTEMPTS
    draws: ``circuits_failed_guard`` found no list guard compatible with
    the exit, ``circuits_failed_middle`` no middle compatible with the
    guard and the exit.  ``guard_replacements`` counts guard slots
    dropped because their relay left the guard pool, ``guard_rotations``
    slots replaced at their rotation deadline.
    """

    records: list[CompromiseRecord]
    circuits: list[tuple[int, Circuit]]  # (client_id, circuit); only when traced
    periods: list[dict] = field(default_factory=list)
    circuits_scheduled: int = 0
    streams_skipped: int = 0
    circuits_failed: int = 0
    circuits_failed_guard: int = 0
    circuits_failed_middle: int = 0
    guard_replacements: int = 0
    guard_rotations: int = 0

    def merge(self, part: "SimulationTrace") -> None:
        """Append the records and circuits of a later client range and add its
        counts; every range walks the same periods."""
        self.records.extend(part.records)
        self.circuits.extend(part.circuits)
        self.periods = part.periods
        for f in fields(self)[3:]:  # the counts
            setattr(self, f.name, getattr(self, f.name) + getattr(part, f.name))


class _Run(NamedTuple):
    """What every client range of one simulation shares."""

    seed: int
    states: Iterable[NetworkState]  # read once, in order
    schedule: StreamSchedule
    num_entry_guards: int


def _simulate_range(run: _Run, lo: int, hi: int, collect: bool) -> SimulationTrace:
    """Simulate clients ``lo`` to ``hi - 1``, period by period.

    Each period first drops every client's guards that left the guard pool
    and refills the lists.  Then it builds circuits in rounds: in each
    round, every client still short of the period's end rotates its expired
    guards, refills its list, and takes the streams up to its next guard
    deadline; one ``_build_circuits`` call serves them all.  A client whose
    deadline falls inside the period takes part in one more round.

    The guard lists hold fingerprint codes, which name a relay in every
    table, so the states are read once, in order, and none is held once
    the next is asked for.  Each period looks up the lists' rows in its
    table once, and each round the rows of its batch.
    """
    n, size = hi - lo, run.num_entry_guards
    sim_start = None
    rngs = [np.random.default_rng([run.seed, client_id]) for client_id in range(lo, hi)]
    guards = _GuardLists(n)
    built = np.zeros(n, dtype=np.int64)
    compromised = np.zeros(n, dtype=np.int64)
    first = np.full(n, -1, dtype=np.int64)
    circuits: list[list[tuple[int, Circuit]]] = [[] for _ in range(n)]
    counts: Counter = Counter()
    periods = []

    for state in run.states:
        if sim_start is None:
            sim_start = state.start
        table = state.snapshot.table
        fps = table.fingerprints if collect else None
        times = run.schedule.stream_times(state.start, state.end)
        periods.append(state.summary())
        counts["circuits_scheduled"] += n * len(times)
        guards.widen(min(size, len(table)))
        rows = table.rows(guards.codes)  # -1 for a relay that left, or an unused slot
        keep = (rows >= 0) & state.guard[rows]  # -1 reads the last row, masked out
        kept = keep.sum(axis=1)
        counts["guard_replacements"] += int((guards.size - kept).sum())
        for c in np.flatnonzero(kept < size).tolist():
            slots = [slot for slot, k in zip(guards.get(c), keep[c].tolist()) if k]
            _refill_guards(slots, size, state, rngs[c], state.start)
            guards.put(c, slots)

        pool = state.exit_pool(run.schedule.destination_port)
        position = np.zeros(n, dtype=np.int64)
        active = np.arange(n if len(times) else 0)
        while active.size:
            start = position[active]
            now = times[start]
            due = (guards.deadlines[active].min(axis=1) <= now) | (guards.size[active] < size)
            for c, t in zip(active[due].tolist(), now[due].tolist()):
                slots = guards.get(c)
                counts["guard_rotations"] += _rotate_expired(slots, state, rngs[c], t)
                _refill_guards(slots, size, state, rngs[c], t)
                guards.put(c, slots)
            # rotate mid-period: each client's streams stop at its next guard deadline
            horizon = guards.deadlines[active].min(axis=1)
            stop = np.maximum(np.searchsorted(times, horizon, side="left"), start + 1)
            position[active] = stop
            m = stop - start
            ready = (guards.size[active] > 0) & (pool is not None)
            counts["streams_skipped"] += int(m[~ready].sum())
            batch, start, m = active[ready], start[ready], m[ready]
            active = active[stop < len(times)]
            if not batch.size:
                continue

            made = _build_circuits(
                state, pool, [rngs[c] for c in batch.tolist()], table.rows(guards.codes[batch]),
                guards.size[batch].tolist(), m,
            )
            owner = batch[made.client]
            offsets = np.cumsum(m) - m
            when = times[np.arange(len(owner)) + np.repeat(start - offsets, m)]
            ok = ~(made.guard_failed | made.middle_failed)
            hit = ok & state.adv_mask[made.guard] & state.adv_mask[made.exit]
            built += np.bincount(owner[ok], minlength=n)
            compromised += np.bincount(owner[hit], minlength=n)
            counts["circuits_failed"] += int(len(ok) - ok.sum())
            counts["circuits_failed_guard"] += int(made.guard_failed.sum())
            counts["circuits_failed_middle"] += int((made.middle_failed & ~made.guard_failed).sum())
            hits = np.flatnonzero(hit)
            if hits.size:
                # streams run client by client, in time order: the first hit is the earliest
                who, at = np.unique(owner[hits], return_index=True)
                unset = first[who] < 0
                first[who[unset]] = when[hits[at[unset]]] - sim_start
            if collect:
                for c, t, g, mi, e in zip(
                    owner[ok].tolist(), when[ok].tolist(), made.guard[ok].tolist(),
                    made.middle[ok].tolist(), made.exit[ok].tolist(),
                ):
                    circuits[c].append((lo + c, Circuit(t, fps[g], fps[mi], fps[e])))
        del state  # so that it is freed before the next state is prepared

    records = [
        CompromiseRecord(lo + c, f if f >= 0 else None, b, k)
        for c, (f, b, k) in enumerate(zip(first.tolist(), built.tolist(), compromised.tolist()))
    ]
    return SimulationTrace(records, [x for mine in circuits for x in mine], periods, **counts)


# The run a process pool works on.  simulate_prepared sets it just before
# the pool forks its workers, which inherit it; jobs carry only a client range.
_RUN: _Run | None = None


def _pool_job(bounds: tuple[int, int]) -> SimulationTrace:
    return _simulate_range(_RUN, *bounds, collect=False)


def run_simulation(
    consensus_sequence: Iterable[ConsensusSnapshot],
    adversary: AdversarySpec,
    algorithm: Algorithm,
    clients: int,
    seed: int,
    *,
    schedule: StreamSchedule | None = None,
    num_entry_guards: int = 3,
    duration: int | None = None,
    workers: int = 1,
) -> list[CompromiseRecord]:
    """Simulate ``clients`` independent clients over the snapshot sequence.

    Returns one CompromiseRecord per client, ordered by client_id.  Fully
    deterministic for a given argument tuple; workers only split the client
    range and cannot change the results.
    """
    return simulate_prepared(
        prepare_sequence(consensus_sequence, adversary, algorithm, duration), clients, seed,
        schedule=schedule, num_entry_guards=num_entry_guards, workers=workers,
    ).records


def simulate_prepared(
    states: Iterable[NetworkState],
    clients: int,
    seed: int,
    *,
    schedule: StreamSchedule | None = None,
    num_entry_guards: int = 3,
    workers: int = 1,
    collect: bool = False,
) -> SimulationTrace:
    """Simulate over ``prepare_sequence``'s states; the trace counts what went unbuilt.

    The arguments are checked before the first state is taken.  A circuit
    interval above GUARD_ROTATION_MIN (60 days) is refused, so that one
    rotation pass renews every expired guard (``_rotate_expired``).  Serially,
    the states are read once, in order, and each is let go once the next
    is asked for, so ``prepare_sequence``'s generator keeps one period
    live.  With ``workers`` > 1 the states are first gathered in a tuple,
    and the client range is split over a pool of forked processes, which
    inherit the run from this one; each job carries only its client
    range.  Where the platform cannot fork, and for ``collect`` (keep every
    built circuit), the clients run serially.  Each client draws from its
    own substream, so the split cannot change any result.  A client's
    guard list holds fingerprint codes, so it carries over from one
    period's table to the next without the earlier state.
    """
    global _RUN
    if clients < 1:
        raise WaterweightsError("need at least one client")
    if workers < 1:
        raise WaterweightsError("need at least one worker")
    if num_entry_guards < 1:
        raise WaterweightsError("need at least one entry guard")
    if seed < 0:
        raise WaterweightsError(f"seed must be at least 0, not {seed}")
    schedule = schedule or StreamSchedule()
    if schedule.circuit_interval > GUARD_ROTATION_MIN:
        raise WaterweightsError(
            f"circuit interval {schedule.circuit_interval} s is longer than the shortest"
            f" guard lifetime ({GUARD_ROTATION_MIN} s, 60 days)"
        )
    run = _Run(seed, states, schedule, num_entry_guards)
    if workers == 1 or collect or clients < 2 * workers:
        return _simulate_range(run, 0, clients, collect)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if "fork" not in multiprocessing.get_all_start_methods():
        return _simulate_range(run, 0, clients, collect)

    # every worker walks all the periods, so they must exist before the fork
    run = run._replace(states=tuple(states))
    bounds = np.linspace(0, clients, workers + 1, dtype=int)
    jobs = [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    trace = SimulationTrace(records=[], circuits=[])
    _RUN = run
    try:
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("fork")
        ) as pool:
            for part in pool.map(_pool_job, jobs):
                trace.merge(part)
    finally:
        _RUN = None
    return trace


def network_summaries(
    consensus_sequence: Iterable[ConsensusSnapshot],
    adversary: AdversarySpec,
    algorithm: Algorithm,
    duration: int | None = None,
) -> list[dict]:
    """Per-period weight and waterfill summaries, as the simulation sees them."""
    states = prepare_sequence(consensus_sequence, adversary, algorithm, duration)
    return [state.summary() for state in states]


# ---------------------------------------------------------------------------
# Records I/O
# ---------------------------------------------------------------------------

RECORDS_HEADER = "client_id,first_compromise_time,circuits_built,circuits_compromised"


def records_to_csv(records: Sequence[CompromiseRecord]) -> str:
    lines = [RECORDS_HEADER]
    for r in sorted(records, key=lambda r: r.client_id):
        first = "" if r.first_compromise_time is None else str(r.first_compromise_time)
        lines.append(f"{r.client_id},{first},{r.circuits_built},{r.circuits_compromised}")
    return "\n".join(lines) + "\n"


def records_from_csv(text: str) -> list[CompromiseRecord]:
    """Parse a records CSV; a malformed or impossible row names its line."""
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or lines[0][1] != RECORDS_HEADER:
        raise WaterweightsError("records CSV missing the expected header")
    records = []
    seen: set[int] = set()
    for number, ln in lines[1:]:
        try:
            cid, first, built, comp = ln.split(",")
            record = CompromiseRecord(
                int(cid),
                int(first) if first else None,
                int(built),
                int(comp),
            )
        except (ValueError, InvariantError) as exc:
            raise WaterweightsError(f"records CSV line {number}: {exc}") from None
        if record.client_id in seen:
            raise WaterweightsError(
                f"records CSV line {number}: client_id {record.client_id} repeats"
            )
        seen.add(record.client_id)
        records.append(record)
    return records
