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

Everything is deterministic given the seed: each client draws from its own
substream derived from (seed, client_id), so results are independent of
execution order and of the number of workers.
"""

from __future__ import annotations

import enum
import multiprocessing
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .consensus import (
    ACCEPT_ALL,
    ConflictIndex,
    ConsensusSnapshot,
    INT64_MAX,
    LoadCase,
    PolicyRule,
    REJECT_ALL,
    RelayEntry,
    classify_load_case,
)
from .errors import (
    CircuitFailureError,
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
    """One relay the adversary operates; flags/policy default by role."""

    role: RoleHint
    consensus_weight: int
    join_time: int = 0
    flags: frozenset[str] | None = None
    exit_policy: tuple[PolicyRule, ...] | None = None


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
            if adv.flags is not None:
                flags = adv.flags
            else:
                flags = GUARD_LIKE_FLAGS if adv.role is RoleHint.GUARD_LIKE else EXIT_LIKE_FLAGS
            if adv.exit_policy is not None:
                policy = adv.exit_policy
            else:
                policy = (ACCEPT_ALL,) if "Exit" in flags else (REJECT_ALL,)
            entries.append(
                RelayEntry(
                    fingerprint=self.fingerprint(i),
                    nickname=f"adv{i:03d}",
                    consensus_weight=adv.consensus_weight,
                    flags=flags,
                    exit_policy=policy,
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
            count = int(item.get("count", 1))
            weight = int(item["consensus_weight"])
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
                    join_time=int(item.get("join_time", 0)),
                )
                for _ in range(count)
            )
        return AdversarySpec(tuple(relays))


def inject_adversary(
    snapshot: ConsensusSnapshot, adversary: AdversarySpec, at_time: int | None = None
) -> ConsensusSnapshot:
    """Append the adversary's live relays as rows; the totals count them."""
    when = snapshot.valid_after if at_time is None else at_time
    extra = adversary.relay_entries(when)
    if not extra:
        return snapshot
    return snapshot.with_relays(extra)


@dataclass(frozen=True)
class StreamSpec:
    """One application stream: when it happens and where it connects."""

    time: int
    destination_port: int

    def __post_init__(self):
        if not 1 <= self.destination_port <= 65_535:
            raise InvariantError(f"destination port {self.destination_port} out of range")


@dataclass(frozen=True)
class StreamSchedule:
    """Circuit cadence: one circuit per interval inside the active windows.

    Windows are (start_hour, end_hour) half-open ranges over the UTC day;
    the default keeps the client active around the clock.
    """

    circuit_interval: int = 600
    destination_port: int = 443
    active_windows: tuple[tuple[float, float], ...] = ((0.0, 24.0),)

    def __post_init__(self):
        if self.circuit_interval < 1:
            raise InvariantError("circuit interval must be at least one second")
        if not 1 <= self.destination_port <= 65_535:
            raise InvariantError(f"destination port {self.destination_port} out of range")

    def stream_times(self, start: int, end: int) -> np.ndarray:
        if end <= start:
            return np.empty(0, dtype=np.int64)
        count = -(-(end - start) // self.circuit_interval)
        times = start + self.circuit_interval * np.arange(count, dtype=np.int64)
        times = times[times < end]
        hours = (times % DAY) / 3600.0
        mask = np.zeros(len(times), dtype=bool)
        for lo, hi in self.active_windows:
            mask |= (hours >= lo) & (hours < hi)
        return times[mask]


@dataclass
class GuardSlot:
    fingerprint: str
    rotation_deadline: int


@dataclass
class ClientState:
    """Mutable per-client state: the persistent guard list."""

    num_entry_guards: int = 3
    guard_list: list[GuardSlot] = field(default_factory=list)


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

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        picks = np.searchsorted(self.cumulative, rng.random(count), side="right")
        return self.indices[picks]


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
        self.table = table
        self.index = ConflictIndex(table)
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

    def has_guard(self, fingerprint: str) -> bool:
        idx = self.table.row.get(fingerprint)
        return idx is not None and bool(self.guard[idx])

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


@dataclass(frozen=True, eq=False)
class PreparedSequence:
    """The per-period network states of one run, each prepared once.

    Built by ``prepare_sequence`` and run by ``simulate_prepared``; a caller
    that also reports the periods reads ``NetworkState.summary`` off
    ``states``.
    """

    states: tuple[NetworkState, ...]
    sim_start: int
    sim_end: int


def prepare_sequence(
    sequence: Sequence[ConsensusSnapshot],
    adversary: AdversarySpec,
    algorithm: Algorithm,
    duration: int | None = None,
) -> PreparedSequence:
    """Cut a chronological snapshot list into periods and prepare each state.

    A snapshot whose relay list repeats the previous one extends that
    period.  ``duration`` defaults to the span of the list plus one
    snapshot period.
    """
    if not sequence:
        raise WaterweightsError("consensus sequence is empty")
    sim_start = sequence[0].valid_after
    boundaries: list[ConsensusSnapshot] = []
    previous = None
    for snap in sequence:
        if previous is not None:
            if snap.valid_after < previous.valid_after:
                raise WaterweightsError(
                    f"consensus sequence not chronological at {snap.valid_after}"
                )
            if snap is previous or snap.table == previous.table:
                continue  # republished relay list: extend the previous state's period
        boundaries.append(snap)
        previous = snap
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
    return PreparedSequence(tuple(states), sim_start, sim_end)


# ---------------------------------------------------------------------------
# Guard-list management
# ---------------------------------------------------------------------------

def _draw_guard(
    state: NetworkState, rng: np.random.Generator, exclude: set[str]
) -> str | None:
    for _ in range(MAX_HOP_ATTEMPTS):
        idx = int(state.entry.draw(rng, 1)[0])
        fp = state.table.fingerprints[idx]
        if fp not in exclude:
            return fp
    return None


def _refill_guards(
    client: ClientState, state: NetworkState, rng: np.random.Generator, now: int
):
    current = {slot.fingerprint for slot in client.guard_list}
    while len(client.guard_list) < client.num_entry_guards:
        fp = _draw_guard(state, rng, current)
        if fp is None:
            break  # pool smaller than the list; run with what exists
        current.add(fp)
        deadline = now + int(rng.uniform(GUARD_ROTATION_MIN, GUARD_ROTATION_MAX))
        client.guard_list.append(GuardSlot(fp, deadline))


def _apply_churn(client: ClientState, state: NetworkState, rng: np.random.Generator) -> int:
    """Drop guards that left the guard pool and refill; returns the number dropped."""
    kept = [slot for slot in client.guard_list if state.has_guard(slot.fingerprint)]
    dropped = len(client.guard_list) - len(kept)
    client.guard_list = kept
    _refill_guards(client, state, rng, state.start)
    return dropped


def _rotate_expired(
    client: ClientState, state: NetworkState, rng: np.random.Generator, now: int
) -> int:
    """Draw a replacement for every slot past its deadline; returns how many expired."""
    # replacements advance the deadline by at least the rotation minimum, so
    # this terminates even after a long inactive gap
    rotated = 0
    while True:
        expired = [slot for slot in client.guard_list if slot.rotation_deadline <= now]
        if not expired:
            return rotated
        rotated += len(expired)
        for slot in expired:
            client.guard_list.remove(slot)
            current = {s.fingerprint for s in client.guard_list}
            fp = _draw_guard(state, rng, current)
            if fp is not None:
                deadline = slot.rotation_deadline + int(
                    rng.uniform(GUARD_ROTATION_MIN, GUARD_ROTATION_MAX)
                )
                client.guard_list.append(GuardSlot(fp, deadline))


# ---------------------------------------------------------------------------
# Circuit construction
# ---------------------------------------------------------------------------

class _BatchResult(NamedTuple):
    times: np.ndarray  # successfully built circuits only
    guard: np.ndarray
    middle: np.ndarray
    exit: np.ndarray
    compromised: np.ndarray
    skipped: int
    failed: int
    failed_guard: int  # no list guard compatible with the exit
    failed_middle: int  # guard found, but no compatible middle


def _build_batch(
    state: NetworkState,
    times: np.ndarray,
    guard_slots: list[GuardSlot],
    rng: np.random.Generator,
    port: int,
) -> _BatchResult:
    """Build one circuit per stream time against a fixed guard list."""
    empty = np.empty(0, dtype=np.int64)
    m = len(times)
    if m == 0:
        return _BatchResult(empty, empty, empty, empty, empty.astype(bool), 0, 0, 0, 0)
    pool = state.exit_pool(port)
    if pool is None or not guard_slots:
        return _BatchResult(empty, empty, empty, empty, empty.astype(bool), m, 0, 0, 0)

    exit_idx = pool.draw(rng, m)

    row = state.table.row
    members = np.array([row[s.fingerprint] for s in guard_slots], dtype=np.int64)
    # conflict matrix between each list member and each chosen exit
    conflicts = state.index.conflict(members[:, None], exit_idx[None, :])
    columns = np.arange(m)
    slot = rng.integers(0, len(members), size=m)
    bad = conflicts[slot, columns]
    for _ in range(MAX_HOP_ATTEMPTS - 1):
        if not bad.any():
            break
        retry = np.nonzero(bad)[0]
        slot[retry] = rng.integers(0, len(members), size=len(retry))
        bad = conflicts[slot, columns]
    guard_failed = bad
    guard_idx = members[slot]

    middle_idx = state.middle.draw(rng, m)
    conflict = state.index.conflict
    bad = conflict(middle_idx, guard_idx) | conflict(middle_idx, exit_idx)
    for _ in range(MAX_HOP_ATTEMPTS - 1):
        if not bad.any():
            break
        retry = np.nonzero(bad)[0]
        middle_idx[retry] = state.middle.draw(rng, len(retry))
        bad[retry] = conflict(middle_idx[retry], guard_idx[retry]) | conflict(
            middle_idx[retry], exit_idx[retry]
        )
    ok = ~(guard_failed | bad)
    compromised = ok & state.adv_mask[guard_idx] & state.adv_mask[exit_idx]
    return _BatchResult(
        times[ok],
        guard_idx[ok],
        middle_idx[ok],
        exit_idx[ok],
        compromised[ok],
        0,
        int((~ok).sum()),
        int(guard_failed.sum()),
        int((bad & ~guard_failed).sum()),
    )


def build_circuit(
    client: ClientState,
    state: NetworkState,
    stream: StreamSpec,
    rng: np.random.Generator,
) -> Circuit:
    """Build a single circuit for one client.

    The exit hop is drawn first (filtered by the stream's destination
    port), then a guard uniformly from the client's guard list (refilled
    from the entry distribution when short), then the middle hop.  Raises
    EmptyPoolError when no exit accepts the port and CircuitFailureError
    when rejection-resampling cannot satisfy the circuit constraints.
    """
    _rotate_expired(client, state, rng, stream.time)
    client.guard_list = [
        slot for slot in client.guard_list if state.has_guard(slot.fingerprint)
    ]
    _refill_guards(client, state, rng, stream.time)
    if state.exit_pool(stream.destination_port) is None:
        raise EmptyPoolError(f"no exit accepts port {stream.destination_port}")
    result = _build_batch(
        state,
        np.array([stream.time], dtype=np.int64),
        client.guard_list,
        rng,
        stream.destination_port,
    )
    if result.failed or len(result.times) == 0:
        raise CircuitFailureError("circuit constraints unsatisfiable within attempt bound")
    fps = state.table.fingerprints
    return Circuit(
        int(result.times[0]),
        fps[int(result.guard[0])],
        fps[int(result.middle[0])],
        fps[int(result.exit[0])],
    )


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

    def add(self, record: CompromiseRecord, counts: Counter) -> None:
        """Append one client's record and add its counts, keyed by field name."""
        self.records.append(record)
        for name, value in counts.items():
            setattr(self, name, getattr(self, name) + value)


def _simulate_client(
    client_id: int,
    seed: int,
    states: Sequence[NetworkState],
    state_times: list[np.ndarray],
    schedule: StreamSchedule,
    num_entry_guards: int,
    sim_start: int,
    collect: bool,
) -> tuple[CompromiseRecord, list[tuple[int, Circuit]], Counter]:
    rng = np.random.default_rng([seed, client_id])
    client = ClientState(num_entry_guards=num_entry_guards)
    built = 0
    compromised = 0
    first_time: int | None = None
    counts: Counter = Counter()
    circuits: list[tuple[int, Circuit]] = []

    for state, times in zip(states, state_times):
        counts["guard_replacements"] += _apply_churn(client, state, rng)
        position = 0
        while position < len(times):
            now = int(times[position])
            counts["guard_rotations"] += _rotate_expired(client, state, rng, now)
            _refill_guards(client, state, rng, now)
            deadlines = [s.rotation_deadline for s in client.guard_list]
            horizon = min(deadlines) if deadlines else None
            if horizon is None:
                stop = len(times)
            else:
                # rotate mid-state: batch only up to the next guard deadline
                stop = int(np.searchsorted(times, horizon, side="left"))
                stop = max(stop, position + 1)
            batch = _build_batch(
                state, times[position:stop], client.guard_list, rng, schedule.destination_port
            )
            built += len(batch.times)
            compromised += int(batch.compromised.sum())
            if first_time is None and batch.compromised.any():
                first_time = int(batch.times[batch.compromised][0]) - sim_start
            counts["streams_skipped"] += batch.skipped
            counts["circuits_failed"] += batch.failed
            counts["circuits_failed_guard"] += batch.failed_guard
            counts["circuits_failed_middle"] += batch.failed_middle
            if collect:
                fps = state.table.fingerprints
                for t, g, mi, e in zip(
                    batch.times.tolist(), batch.guard.tolist(),
                    batch.middle.tolist(), batch.exit.tolist(),
                ):
                    circuits.append((client_id, Circuit(t, fps[g], fps[mi], fps[e])))
            position = stop

    record = CompromiseRecord(client_id, first_time, built, compromised)
    return record, circuits, counts


# The run a process pool works on: (seed, states, state_times, schedule,
# num_entry_guards, sim_start).  simulate_prepared sets it just before the
# pool forks its workers, which inherit it; jobs carry only a client range.
_RUN: tuple | None = None


def _simulate_range(bounds: tuple[int, int]) -> list[tuple[CompromiseRecord, Counter]]:
    seed, states, state_times, schedule, num_entry_guards, sim_start = _RUN
    out = []
    for client_id in range(*bounds):
        record, _, counts = _simulate_client(
            client_id, seed, states, state_times, schedule,
            num_entry_guards, sim_start, collect=False,
        )
        out.append((record, counts))
    return out


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
    prepared: PreparedSequence,
    clients: int,
    seed: int,
    *,
    schedule: StreamSchedule | None = None,
    num_entry_guards: int = 3,
    workers: int = 1,
    collect: bool = False,
) -> SimulationTrace:
    """Simulate over prepared states; the trace counts what went unbuilt.

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
    states, sim_start = prepared.states, prepared.sim_start
    state_times = [schedule.stream_times(s.start, s.end) for s in states]
    trace = SimulationTrace(records=[], circuits=[])

    if (
        workers > 1 and not collect and clients >= 2 * workers
        and "fork" in multiprocessing.get_all_start_methods()
    ):
        bounds = np.linspace(0, clients, workers + 1, dtype=int)
        jobs = [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
        _RUN = (seed, states, state_times, schedule, num_entry_guards, sim_start)
        try:
            with ProcessPoolExecutor(
                max_workers=workers, mp_context=multiprocessing.get_context("fork")
            ) as pool:
                for chunk in pool.map(_simulate_range, jobs):
                    for record, counts in chunk:
                        trace.add(record, counts)
        finally:
            _RUN = None
    else:
        for client_id in range(clients):
            record, circuits, counts = _simulate_client(
                client_id, seed, states, state_times, schedule,
                num_entry_guards, sim_start, collect,
            )
            trace.add(record, counts)
            trace.circuits.extend(circuits)

    trace.records.sort(key=lambda r: r.client_id)
    return trace


def network_summaries(
    consensus_sequence: Sequence[ConsensusSnapshot],
    adversary: AdversarySpec,
    algorithm: Algorithm,
    duration: int | None = None,
) -> list[dict]:
    """Per-period weight and waterfill summaries, as the simulation sees them."""
    prepared = prepare_sequence(consensus_sequence, adversary, algorithm, duration)
    return [state.summary() for state in prepared.states]


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
