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
from dataclasses import dataclass, fields
from typing import NamedTuple, Sequence

import numpy as np

from .consensus import (
    ACCEPT_ALL,
    ConsensusSnapshot,
    INT64_MAX,
    LoadCase,
    REJECT_ALL,
    RelayEntry,
    RelayTable,
    classify_load_case,
)
from .errors import (
    EmptyPoolError,
    InvariantError,
    NotApplicableError,
    ParseError,
    UnsupportedLoadCaseError,
    WaterweightsError,
)
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


def _reject_unknown_keys(doc: dict, known, where: str) -> None:
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise ParseError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}")


@dataclass(frozen=True)
class AdversarySpec:
    """The adversary's relays; injection always recomputes pool totals."""

    relays: tuple[AdversaryRelay, ...] = ()

    def fingerprint(self, index: int) -> str:
        return f"ADV{index:03d}{self.relays[index].role.value.upper()}"

    @property
    def fingerprints(self) -> tuple[str, ...]:
        return tuple(self.fingerprint(i) for i in range(len(self.relays)))

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
        _reject_unknown_keys(doc, {"relays"}, "adversary document")
        relays = []
        for n, item in enumerate(doc["relays"]):
            where = f"relays[{n}]"
            if not isinstance(item, dict):
                raise ParseError(f"{where} must be an object")
            _reject_unknown_keys(item, _ADVERSARY_RELAY_KEYS, where)
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
        if not 1 <= self.destination_port <= 65_535:
            raise InvariantError(f"destination port {self.destination_port} out of range")

    def stream_times(self, start: int, end: int) -> np.ndarray:
        count = max(0, -(-(end - start) // self.circuit_interval))
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
    """A snapshot with adversary injected, weights solved, pools prepared."""

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

        table = snapshot.table
        self.guard = table.guard
        self.adv_mask = np.zeros(len(table), dtype=bool)
        self.adv_mask[[table.row[fp] for fp in adversary_fps if fp in table.row]] = True

        self.entry = self._pool(Position.ENTRY)
        self.middle = self._pool(Position.MIDDLE)
        self._exit_pools: dict[int, _Pool | None] = {}

    def _pool(self, position: Position, stream=None) -> _Pool:
        dist = selection_distribution(
            self.snapshot, self.weights, position, waterfills=self.waterfills, stream=stream
        )
        cumulative = np.cumsum(dist.probabilities)
        cumulative /= cumulative[-1]  # exact 1.0 endpoint, monotonicity preserved
        return _Pool(dist.rows, cumulative)

    def exit_pool(self, port: int) -> _Pool | None:
        if port not in self._exit_pools:
            try:
                self._exit_pools[port] = self._pool(Position.EXIT, stream=port)
            except EmptyPoolError:
                self._exit_pools[port] = None
        return self._exit_pools[port]

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
    sequence: Sequence[ConsensusSnapshot],
    adversary: AdversarySpec,
    algorithm: Algorithm,
    duration: int | None = None,
) -> tuple[NetworkState, ...]:
    """Cut a chronological snapshot list into periods and prepare each state.

    A snapshot whose relay list repeats the previous one extends that
    period; two different relay lists at one time are an error.
    ``duration`` defaults to the span of the list plus one snapshot period.
    ``simulate_prepared`` runs the states from the first one's start.
    """
    if not sequence:
        raise WaterweightsError("consensus sequence is empty")
    boundaries: list[ConsensusSnapshot] = []
    for before, snap in zip([None, *sequence], sequence):
        if before is not None:
            if snap.valid_after < before.valid_after:
                raise WaterweightsError(
                    f"consensus sequence not chronological at {snap.valid_after}"
                )
            if snap is before or snap.table == before.table:
                continue  # republished relay list: extend the previous state's period
            if snap.valid_after == before.valid_after:
                raise WaterweightsError(
                    f"two different relay lists at valid_after {snap.valid_after}"
                )
        boundaries.append(snap)
    sim_start = sequence[0].valid_after
    if duration is None:
        duration = (sequence[-1].valid_after - sim_start) + DEFAULT_SNAPSHOT_PERIOD
    sim_end = sim_start + duration
    states = []
    adv_fps = frozenset(adversary.fingerprints)
    for i, snap in enumerate(boundaries):
        start = snap.valid_after
        end = boundaries[i + 1].valid_after if i + 1 < len(boundaries) else sim_end
        end = min(end, sim_end)
        if end <= start:
            continue
        live = inject_adversary(snap, adversary)
        states.append(NetworkState(live, algorithm, adv_fps, start, end))
    if not states:
        raise WaterweightsError("simulation duration covers no snapshot")
    return tuple(states)


# ---------------------------------------------------------------------------
# Guard-list management
# ---------------------------------------------------------------------------

# A client's guard list is a list of (table row, rotation deadline) slots,
# in list order: a circuit draws its guard as a slot index, so the order is
# part of every later draw.

def _draw_guard(
    state: NetworkState, rng: np.random.Generator, exclude: set[int]
) -> int | None:
    for _ in range(MAX_HOP_ATTEMPTS):
        row = int(state.entry.draw(rng, 1)[0])
        if row not in exclude:
            return row
    return None


def _refill_guards(
    slots: list[tuple[int, int]], size: int, state: NetworkState,
    rng: np.random.Generator, now: int,
) -> None:
    current = {row for row, _ in slots}
    while len(slots) < size:
        row = _draw_guard(state, rng, current)
        if row is None:
            break  # pool smaller than the list; run with what exists
        current.add(row)
        slots.append((row, now + int(rng.uniform(GUARD_ROTATION_MIN, GUARD_ROTATION_MAX))))


def _rotate_expired(
    slots: list[tuple[int, int]], state: NetworkState, rng: np.random.Generator, now: int
) -> int:
    """Draw a replacement for every slot past its deadline; returns how many expired."""
    # replacements advance the deadline by at least the rotation minimum, so
    # this terminates even after a long inactive gap
    rotated = 0
    while True:
        expired = [slot for slot in slots if slot[1] <= now]
        if not expired:
            return rotated
        rotated += len(expired)
        for slot in expired:
            slots.remove(slot)
            row = _draw_guard(state, rng, {r for r, _ in slots})
            if row is not None:
                deadline = slot[1] + int(rng.uniform(GUARD_ROTATION_MIN, GUARD_ROTATION_MAX))
                slots.append((row, deadline))


class _GuardLists:
    """Every client's guard list as arrays, one row per client.

    Slot ``j`` of client ``c`` is ``(rows[c, j], deadlines[c, j])`` for
    ``j < size[c]``; unused slots hold -1 and INT64_MAX, so a client's
    smallest deadline is its next rotation.
    """

    def __init__(self, clients: int, capacity: int):
        self.rows = np.full((clients, capacity), -1, dtype=np.int64)
        self.deadlines = np.full((clients, capacity), INT64_MAX, dtype=np.int64)
        self.size = np.zeros(clients, dtype=np.int64)

    def get(self, c: int) -> list[tuple[int, int]]:
        k = self.size[c]
        return list(zip(self.rows[c, :k].tolist(), self.deadlines[c, :k].tolist()))

    def put(self, c: int, slots: list[tuple[int, int]]) -> None:
        k = len(slots)
        self.rows[c] = -1
        self.deadlines[c] = INT64_MAX
        if k:
            self.rows[c, :k], self.deadlines[c, :k] = zip(*slots)
        self.size[c] = k

    def move(self, old: RelayTable, new: RelayTable) -> None:
        """Readdress the held rows from table ``old`` to ``new``; -1 where a relay left."""
        held = self.rows >= 0
        rows, inverse = np.unique(self.rows[held], return_inverse=True)
        fps, row = old.fingerprints, new.row
        moved = np.array([row.get(fps[r], -1) for r in rows.tolist()], dtype=np.int64)
        self.rows[held] = moved[inverse]


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
    """A run's records, its circuits when collected, and what it counted.

    ``streams_skipped`` counts streams no exit accepted in their period and
    ``circuits_failed`` circuits whose relay constraints were not met within
    MAX_HOP_ATTEMPTS draws: ``circuits_failed_guard`` found no list guard
    compatible with the exit, ``circuits_failed_middle`` no middle compatible
    with the guard and the exit.  ``guard_replacements`` counts guard slots
    dropped because their relay left the guard pool, ``guard_rotations``
    slots replaced at their rotation deadline.
    """

    records: list[CompromiseRecord]
    circuits: list[tuple[int, Circuit]]  # (client_id, circuit); only when traced
    streams_skipped: int = 0
    circuits_failed: int = 0
    circuits_failed_guard: int = 0
    circuits_failed_middle: int = 0
    guard_replacements: int = 0
    guard_rotations: int = 0

    def merge(self, part: "SimulationTrace") -> None:
        """Append the records and circuits of a later client range and add its counts."""
        self.records.extend(part.records)
        self.circuits.extend(part.circuits)
        for f in fields(self)[2:]:  # the counts
            setattr(self, f.name, getattr(self, f.name) + getattr(part, f.name))


class _Run(NamedTuple):
    """What every client range of one simulation shares."""

    seed: int
    states: tuple[NetworkState, ...]
    state_times: list[np.ndarray]  # each period's stream times, the same for every client
    port: int
    num_entry_guards: int


def _simulate_range(run: _Run, lo: int, hi: int, collect: bool) -> SimulationTrace:
    """Simulate clients ``lo`` to ``hi - 1``, period by period.

    Each period first drops every client's guards that left the guard pool
    and refills the lists.  Then it builds circuits in rounds: in each
    round, every client still short of the period's end rotates its expired
    guards, refills its list, and takes the streams up to its next guard
    deadline; one ``_build_circuits`` call serves them all.  A client whose
    deadline falls inside the period takes part in one more round.
    """
    n, size = hi - lo, run.num_entry_guards
    sim_start = run.states[0].start
    rngs = [np.random.default_rng([run.seed, client_id]) for client_id in range(lo, hi)]
    guards = _GuardLists(n, size)
    built = np.zeros(n, dtype=np.int64)
    compromised = np.zeros(n, dtype=np.int64)
    first = np.full(n, -1, dtype=np.int64)
    circuits: list[list[tuple[int, Circuit]]] = [[] for _ in range(n)]
    counts: Counter = Counter()
    previous = None

    for state, times in zip(run.states, run.state_times):
        if previous is not None:
            guards.move(previous.snapshot.table, state.snapshot.table)
        previous = state
        rows = guards.rows
        keep = (rows >= 0) & state.guard[rows]  # -1 reads the last row, masked out
        kept = keep.sum(axis=1)
        counts["guard_replacements"] += int((guards.size - kept).sum())
        for c in np.flatnonzero(kept < size).tolist():
            slots = [slot for slot, k in zip(guards.get(c), keep[c].tolist()) if k]
            _refill_guards(slots, size, state, rngs[c], state.start)
            guards.put(c, slots)

        pool = state.exit_pool(run.port)
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
                state, pool, [rngs[c] for c in batch.tolist()], guards.rows[batch],
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
                fps = state.snapshot.table.fingerprints
                for c, t, g, mi, e in zip(
                    owner[ok].tolist(), when[ok].tolist(), made.guard[ok].tolist(),
                    made.middle[ok].tolist(), made.exit[ok].tolist(),
                ):
                    circuits[c].append((lo + c, Circuit(t, fps[g], fps[mi], fps[e])))

    records = [
        CompromiseRecord(lo + c, f if f >= 0 else None, b, k)
        for c, (f, b, k) in enumerate(zip(first.tolist(), built.tolist(), compromised.tolist()))
    ]
    return SimulationTrace(records, [x for mine in circuits for x in mine], **counts)


# The run a process pool works on.  simulate_prepared sets it just before
# the pool forks its workers, which inherit it; jobs carry only a client range.
_RUN: _Run | None = None


def _pool_job(bounds: tuple[int, int]) -> SimulationTrace:
    return _simulate_range(_RUN, *bounds, collect=False)


def run_simulation(
    consensus_sequence: Sequence[ConsensusSnapshot],
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
    states: tuple[NetworkState, ...],
    clients: int,
    seed: int,
    *,
    schedule: StreamSchedule | None = None,
    num_entry_guards: int = 3,
    workers: int = 1,
    collect: bool = False,
) -> SimulationTrace:
    """Simulate over ``prepare_sequence``'s states; the trace counts what went unbuilt.

    With ``workers`` > 1 the client range is split over a pool of forked
    processes, which inherit the prepared run from this one; each job
    carries only its client range.  Where the platform cannot fork, and
    for ``collect`` (keep every built circuit), the clients run serially.
    Each client draws from its own substream, so the split cannot change
    any result.
    """
    global _RUN
    if clients < 1:
        raise WaterweightsError("need at least one client")
    if workers < 1:
        raise WaterweightsError("need at least one worker")
    if num_entry_guards < 1:
        raise WaterweightsError("need at least one entry guard")
    schedule = schedule or StreamSchedule()
    run = _Run(
        seed, states, [schedule.stream_times(s.start, s.end) for s in states],
        schedule.destination_port, num_entry_guards,
    )
    if workers == 1 or collect or clients < 2 * workers:
        return _simulate_range(run, 0, clients, collect)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if "fork" not in multiprocessing.get_all_start_methods():
        return _simulate_range(run, 0, clients, collect)

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
    consensus_sequence: Sequence[ConsensusSnapshot],
    adversary: AdversarySpec,
    algorithm: Algorithm,
    duration: int | None = None,
) -> list[dict]:
    """Per-period weight and waterfill summaries, as the simulation sees them."""
    states = prepare_sequence(consensus_sequence, adversary, algorithm, duration)
    return [state.summary() for state in states]


# ---------------------------------------------------------------------------
# Compromise curves and records I/O
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TimeSeries:
    times: np.ndarray
    values: np.ndarray


def compromise_curve(
    records: Sequence[CompromiseRecord], horizon: int, resolution: int
) -> TimeSeries:
    """Cumulative fraction of clients first compromised by each grid time.

    The grid runs from 0 to the horizon in resolution steps; the horizon
    itself is always the final point.
    """
    if not records:
        raise WaterweightsError("no records to summarize")
    hits = np.sort(
        np.array(
            [r.first_compromise_time for r in records if r.first_compromise_time is not None],
            dtype=np.int64,
        )
    )
    times = np.arange(0, horizon + 1, resolution, dtype=np.int64)
    if times[-1] != horizon:
        times = np.append(times, horizon)
    counts = np.searchsorted(hits, times, side="right")
    return TimeSeries(times, counts / len(records))


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
