"""The benchmark's workloads: parameters, inputs, commands and checks.

Two kinds of workload exist.  A simulate workload runs
``waterweights simulate`` over a generated snapshot sequence; an analyze
workload runs the paper's metrics pipeline through the library.  Both have
a traced form (``simulate_traced``, ``analyze``) that calls the same public
functions with a span around each call; nothing inside ``src/`` is traced.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from dataclasses import asdict, dataclass
from pathlib import Path

from perfbench import inputs
from perfbench.inputs import NetworkSpec

PROBABILITY_TOLERANCE = 1e-9


@dataclass(frozen=True)
class SimulateParams:
    network: NetworkSpec
    snapshots: int
    period: int  # seconds between snapshots
    adversary: tuple[int, int, int, int]  # guards, guard weight, exits, exit weight
    clients: int
    duration: int
    workers: int
    algo: str = "wf"
    interval: int = 600
    port: int = 443
    kind: str = "simulate"


@dataclass(frozen=True)
class AnalyzeParams:
    networks: tuple[NetworkSpec, ...]
    algos: tuple[str, ...] = ("abwrs", "wf")
    port: int = 443
    kind: str = "analyze"


DAY = 86_400
TOR_ADVERSARY = (10, 100_000, 10, 100_000)
SMALL_ADVERSARY = (1, 12_000, 1, 8_000)

WORKLOADS = {
    # Tor-size snapshots every four hours across one day; parsing and state
    # preparation dominate, and the CLI prepares every state twice.
    "tor-day": SimulateParams(
        inputs.TOR_3A, snapshots=6, period=4 * 3600, adversary=TOR_ADVERSARY,
        clients=500, duration=DAY, workers=1,
    ),
    # A small network over four months: the per-circuit and per-(client,
    # period) loop dominates and guard rotation fires.
    "small-long": SimulateParams(
        inputs.SMALL_3A, snapshots=120, period=DAY, adversary=SMALL_ADVERSARY,
        clients=25, duration=120 * DAY, workers=1,
    ),
    # The metrics path: joint matrix, guessing entropy, exact waterfilling
    # on a Tor-size 3a snapshot and a half-Tor-size 3b one; never touches
    # the simulator.
    "analyze-tor": AnalyzeParams((inputs.TOR_3A, inputs.TOR_3B_HALF)),
    # tor-day through the process-pool path; same inputs, same records CSV.
    "tor-day-w2": SimulateParams(
        inputs.TOR_3A, snapshots=6, period=4 * 3600, adversary=TOR_ADVERSARY,
        clients=500, duration=DAY, workers=2,
    ),
}

# Sizes small enough for the benchmark's own tests to run in seconds.
TINY_3B = NetworkSpec(46, 36, 25, 20, inputs.LoadCase.CASE_3B)
TINY = {
    "tor-day": SimulateParams(
        inputs.SMALL_3A, snapshots=3, period=4 * 3600, adversary=SMALL_ADVERSARY,
        clients=20, duration=12 * 3600, workers=1,
    ),
    "small-long": SimulateParams(
        inputs.SMALL_3A, snapshots=8, period=DAY, adversary=SMALL_ADVERSARY,
        clients=4, duration=8 * DAY, workers=1,
    ),
    "analyze-tor": AnalyzeParams((inputs.SMALL_3A, TINY_3B)),
    "tor-day-w2": SimulateParams(
        inputs.SMALL_3A, snapshots=3, period=4 * 3600, adversary=SMALL_ADVERSARY,
        clients=20, duration=12 * 3600, workers=2,
    ),
}


def lookup(name: str, tiny: bool = False):
    return (TINY if tiny else WORKLOADS)[name]


def describe(params) -> dict:
    """The full parameter tuple, as plain JSON."""
    doc = asdict(params)
    return json.loads(json.dumps(doc, default=str))


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def generate(params, seed: int, directory: Path) -> dict:
    """Write the workload's input files; returns their paths and digest."""
    from waterweights.pathsim import AdversarySpec

    snapdir = directory / "snapshots"
    if params.kind == "simulate":
        doc = inputs.adversary_doc(*params.adversary)
        adversary = AdversarySpec.from_json_dict(doc)
        snapshots = inputs.snapshot_sequence(
            seed, params.network, params.snapshots, params.period, adversary
        )
        inputs.write_sequence(snapdir, snapshots)
        adv_path = inputs.write_json(directory / "adv.json", doc)
    else:
        snapshots = [
            inputs.snapshot_sequence(seed, spec, 1, 3600, AdversarySpec())[0]
            for spec in params.networks
        ]
        inputs.write_sequence(snapdir, snapshots)
        adv_path = None
    return {
        "snapshots": str(snapdir),
        "adversary": None if adv_path is None else str(adv_path),
        "valid_after": [s.valid_after for s in snapshots],
        "inputs_sha256": inputs.tree_digest(directory),
    }


def cli_args(params: SimulateParams, manifest: dict, seed: int, out: Path) -> list[str]:
    """Arguments after ``python -m waterweights.cli``."""
    return [
        "--quiet", "simulate",
        "--snapshots", manifest["snapshots"],
        "--adversary", manifest["adversary"],
        "--algo", params.algo,
        "--clients", str(params.clients),
        "--seed", str(seed),
        "--out", str(out),
        "--duration", str(params.duration),
        "--interval", str(params.interval),
        "--port", str(params.port),
        "--workers", str(params.workers),
    ]


def periods(params: SimulateParams, valid_after: list[int]) -> list[tuple[int, int]]:
    """The (start, end) period of each state, as the simulator cuts them."""
    sim_end = valid_after[0] + params.duration
    bounds = list(valid_after[1:]) + [sim_end]
    return [(s, min(e, sim_end)) for s, e in zip(valid_after, bounds) if min(e, sim_end) > s]


def streams_per_client(params: SimulateParams, valid_after: list[int]) -> int:
    from waterweights.pathsim import StreamSchedule

    schedule = StreamSchedule(circuit_interval=params.interval, destination_port=params.port)
    return sum(len(schedule.stream_times(s, e)) for s, e in periods(params, valid_after))


# ---------------------------------------------------------------------------
# Correctness gates
# ---------------------------------------------------------------------------

class CheckFailed(Exception):
    """An output broke the benchmark's correctness gate."""


def check_simulate(params: SimulateParams, scheduled: int, csv_text: str, summary: dict) -> dict:
    """Validate one simulate run's records CSV and JSON summary.

    ``scheduled`` is the number of streams each client is due.  Returns the
    run's counts and the CSV digest; raises CheckFailed on any breach.
    """
    from waterweights.errors import WaterweightsError
    from waterweights.pathsim import records_from_csv, records_to_csv

    try:
        records = records_from_csv(csv_text)
    except WaterweightsError as exc:
        raise CheckFailed(f"records CSV does not parse: {exc}") from None
    ids = [r.client_id for r in records]
    if ids != list(range(params.clients)):
        raise CheckFailed(f"records CSV holds {len(ids)} rows, not clients 0..{params.clients - 1} in order")
    if records_to_csv(records) != csv_text:
        raise CheckFailed("records CSV is not in canonical form")
    over = [r.client_id for r in records if r.circuits_built > scheduled]
    if over:
        raise CheckFailed(f"clients {over[:5]} built more circuits than the {scheduled} scheduled")
    compromised = sum(1 for r in records if r.circuits_compromised > 0)
    if summary.get("clients_compromised") != compromised:
        raise CheckFailed(
            f"JSON says {summary.get('clients_compromised')} clients compromised, CSV says {compromised}"
        )
    if summary.get("clients") != params.clients or summary.get("snapshots") != params.snapshots:
        raise CheckFailed("JSON summary does not echo the run's clients and snapshots")
    built = sum(r.circuits_built for r in records)
    streams = scheduled * params.clients
    return {
        "records_sha256": hashlib.sha256(csv_text.encode()).hexdigest(),
        "streams_scheduled": streams,
        "circuits_built": built,
        "circuits_unbuilt": streams - built,
        "clients_compromised": compromised,
    }


def check_analysis(result: dict):
    """Validate one analysis run's gate inputs; raises CheckFailed on any breach."""
    checks = result["checks"]
    if any(r != "0" for r in checks["conservation_residuals"]):
        raise CheckFailed(f"non-zero conservation residual: {checks['conservation_residuals']}")
    worst = max(checks["probability_sum_errors"])
    if worst > PROBABILITY_TOLERANCE:
        raise CheckFailed(f"a probability vector misses 1 by {worst!r}")
    if not all(0.0 <= u <= 1.0 for u in checks["uniformity"]):
        raise CheckFailed(f"uniformity outside [0, 1]: {checks['uniformity']}")


# ---------------------------------------------------------------------------
# The analysis pipeline (library calls, optionally traced)
# ---------------------------------------------------------------------------

def analyze(params: AnalyzeParams, snapshot_paths: list[Path], tracer) -> dict:
    """Weights, waterfilling and anonymity metrics for each snapshot and algorithm.

    Returns the outputs' digest, the gate inputs and the operation count.
    """
    from waterweights.consensus import LoadCase, classify_load_case, snapshot_from_json
    from waterweights.metrics import (
        estimate_joint_analytic,
        group_diversity,
        guessing_entropy,
        uniformity_degree,
    )
    from waterweights.waterfill import (
        Position,
        quantization_residual,
        selection_distribution,
        solve_dset_waterfill,
        solve_guard_waterfill,
        wfbw_lines,
    )
    from waterweights.weights import check_balance, compute_weights

    operations = 0
    digest_doc = []
    checks = {"conservation_residuals": [], "probability_sum_errors": [], "uniformity": []}
    for path in snapshot_paths:
        text = path.read_text()
        with tracer.span("consensus.parse") as counts:
            snap = snapshot_from_json(text)
            counts["relays"] = len(snap.relays)
        case, _ = tracer.call("consensus.classify", classify_load_case, snap.totals)
        operations += 2
        for algo in params.algos:
            w = tracer.call("weights.solve", compute_weights, snap.totals, case)
            balance = tracer.call("weights.balance", check_balance, snap.totals, w)
            solutions = []
            if algo == "wf":
                solvers = [solve_guard_waterfill]
                if case is LoadCase.CASE_3B:
                    solvers.append(solve_dset_waterfill)
                for solve in solvers:
                    with tracer.span("waterfill.solve") as counts:
                        sol = solve(snap, w)
                        counts["pool_relays"] = len(sol.shares)
                    solutions.append(sol)
            rendered = []
            for sol in solutions:
                lines = tracer.call("waterfill.render", wfbw_lines, sol)
                residual = tracer.call("waterfill.render", quantization_residual, sol)
                checks["conservation_residuals"].append(str(sol.conservation_residual))
                rendered.append({
                    "pool": sol.pool.value,
                    "water_level": str(sol.water_level),
                    "pivot": sol.pivot_index,
                    "target": str(sol.target),
                    "conservation_residual": str(sol.conservation_residual),
                    "quantization_residual": str(residual),
                    "wfbw_sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
                })
            vectors = {}
            for position, stream in ((Position.ENTRY, None), (Position.MIDDLE, None),
                                      (Position.EXIT, params.port)):
                vectors[position] = tracer.call(
                    "waterfill.distribution", selection_distribution,
                    snap, w, position, waterfills=solutions, stream=stream,
                )
            entry, exit_ = vectors[Position.ENTRY], vectors[Position.EXIT]
            with tracer.span("metrics.joint") as counts:
                jd = estimate_joint_analytic(snap, entry, exit_)
            counts["cells"] = int(jd.p.size)
            counts["conflict_cells"] = int((jd.p == 0).sum())
            uniformity = tracer.call("metrics.uniformity", uniformity_degree, jd)
            with tracer.span("metrics.guessing") as counts:
                guess = guessing_entropy(jd)
            counts["picks"] = len(guess.picks)
            groups = {
                key: tracer.call("metrics.group", group_diversity, snap, entry, key)
                for key in ("country", "as")
            }
            # weights, balance, 3 distributions, joint, uniformity, guessing,
            # 2 group tables; a solve and 2 renders per waterfill
            operations += 10 + 3 * len(solutions)
            for vector in vectors.values():
                checks["probability_sum_errors"].append(abs(float(vector.probabilities.sum()) - 1.0))
            checks["probability_sum_errors"].append(abs(float(jd.p.sum()) - 1.0))
            checks["uniformity"].append(uniformity)
            digest_doc.append({
                "valid_after": snap.valid_after,
                "case": case.value,
                "algo": algo,
                "weights": {k: str(v) for k, v in sorted(w.as_dict().items())},
                "balance": [str(balance.entry_middle_residual), str(balance.entry_exit_residual)],
                "waterfill": rendered,
                "joint_shape": list(jd.p.shape),
                "uniformity": round(uniformity, 9),
                "guessing_entropy": round(guess.g, 6),
                "groups": {k: [[g, round(p, 9)] for g, p in v] for k, v in groups.items()},
            })
    canonical = json.dumps(digest_doc, sort_keys=True).encode()
    return {
        "digest": hashlib.sha256(canonical).hexdigest(),
        "checks": checks,
        "operations": operations,
    }


# ---------------------------------------------------------------------------
# The traced simulate run: the CLI's calls, then per-layer probes
# ---------------------------------------------------------------------------

def simulate_traced(params: SimulateParams, manifest: dict, seed: int, out: Path, tracer) -> dict:
    """Replay ``waterweights simulate`` through its public calls, traced.

    The ``replica`` span makes the same calls the CLI makes, in the same
    order, so its spans can be set against the CLI's untraced wall time.
    The ``probe`` span then repeats the per-snapshot preparation one public
    call at a time, so that weights, waterfilling, distributions and state
    preparation each get their own time.  ``run_simulation`` prepares its
    states internally; its client loop is its time minus the probe's
    preparation time.
    """
    from waterweights.consensus import LoadCase, classify_load_case, snapshot_from_json
    from waterweights.pathsim import (
        AdversarySpec,
        Algorithm,
        NetworkState,
        StreamSchedule,
        inject_adversary,
        network_summaries,
        records_to_csv,
        run_simulation,
    )
    from waterweights.waterfill import (
        Position,
        selection_distribution,
        solve_dset_waterfill,
        solve_guard_waterfill,
    )
    from waterweights.weights import WeightMode, compute_weights

    algorithm = Algorithm(params.algo)
    schedule = StreamSchedule(circuit_interval=params.interval, destination_port=params.port)
    with tracer.span("replica"):
        sequence = []
        for path in sorted(Path(manifest["snapshots"]).iterdir()):
            text = path.read_text()
            with tracer.span("consensus.parse") as counts:
                snap = snapshot_from_json(text)
                counts["relays"] = len(snap.relays)
            sequence.append(snap)
        sequence.sort(key=lambda s: s.valid_after)
        adv_doc = json.loads(Path(manifest["adversary"]).read_text())
        adversary = tracer.call("pathsim.adversary", AdversarySpec.from_json_dict, adv_doc)
        with tracer.span("pathsim.simulate"):
            records = run_simulation(
                sequence, adversary, algorithm, params.clients, seed,
                schedule=schedule, duration=params.duration, workers=params.workers,
            )
        with tracer.span("pathsim.records_csv"):
            csv_text = records_to_csv(records)
            out.write_text(csv_text)
        compromised = sum(1 for r in records if r.circuits_compromised > 0)
        with tracer.span("pathsim.summaries"):
            summaries = network_summaries(sequence, adversary, algorithm, params.duration)
        with tracer.span("cli.emit"):
            summary = {
                "algo": params.algo,
                "clients": params.clients,
                "snapshots": len(sequence),
                "clients_compromised": compromised,
                "periods": summaries,
            }
            json.dumps(summary, sort_keys=True, indent=2)

    adv_fps = frozenset(adversary.fingerprints)
    cuts = periods(params, [s.valid_after for s in sequence])
    with tracer.span("probe"):
        states = []
        for snap, (start, end) in zip(sequence, cuts):
            live = tracer.call("pathsim.inject", inject_adversary, snap, adversary)
            case, _ = tracer.call("consensus.classify", classify_load_case, live.totals)
            mode = (
                WeightMode.GUARD_EXIT_EQUALIZED
                if algorithm is Algorithm.WATERFILLING_GE and case is LoadCase.CASE_3A
                else WeightMode.STANDARD
            )
            w = tracer.call("weights.solve", compute_weights, live.totals, case, mode)
            solutions = []
            if algorithm is not Algorithm.ABWRS:
                solvers = [solve_guard_waterfill]
                if case is LoadCase.CASE_3B:
                    solvers.append(solve_dset_waterfill)
                for solve in solvers:
                    with tracer.span("waterfill.solve") as counts:
                        sol = solve(live, w)
                        counts["pool_relays"] = len(sol.shares)
                    solutions.append(sol)
            for position, stream in ((Position.ENTRY, None), (Position.MIDDLE, None),
                                     (Position.EXIT, params.port)):
                tracer.call(
                    "waterfill.distribution", selection_distribution,
                    live, w, position, waterfills=solutions, stream=stream,
                )
            with tracer.span("pathsim.prepare"):
                states.append(NetworkState(live, algorithm, adv_fps, start, end))
        # what one process-pool job carries besides its client range
        jobs = params.workers if params.workers > 1 and params.clients >= 2 * params.workers else 0
        job_bytes = 0
        if jobs:
            state_times = [schedule.stream_times(s.start, s.end) for s in states]
            job_bytes = len(pickle.dumps((states, state_times, schedule)))
    return {
        "csv_text": csv_text,
        "summary": summary,
        "jobs": jobs,
        "job_state_mb": job_bytes / 2**20,
    }
