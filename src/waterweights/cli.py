"""The ``waterweights`` command line: parse, weigh, waterfill, simulate,
measure, and compare.

All subcommands are deterministic for identical inputs and seeds, emit
CSV/JSON only (plotting stays external), and exit with 0 on success, 2 on
input errors, 3 when a computation is infeasible or not applicable, and 4
on internal invariant breaches.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import click
import numpy as np

from . import __version__
from .consensus import (
    classify_load_case,
    parse_native,
    parse_v3_subset,
    snapshot_from_json,
    snapshot_to_json,
)
from .errors import (
    ConfigMismatchError,
    InvariantError,
    NotApplicableError,
    ParseError,
    WaterweightsError,
)
from .metrics import (
    group_diversity,
    guessing_entropy,
    joint_from_csv,
    uniformity_degree,
)
from .pathsim import (
    MAX_HOP_ATTEMPTS,
    AdversarySpec,
    Algorithm,
    StreamSchedule,
    compromise_curve,
    prepare_sequence,
    records_from_csv,
    records_to_csv,
    simulate_prepared,
)
from .waterfill import (
    ProbabilityVector,
    WaterfillSolution,
    quantization_residual,
    solve_dset_waterfill,
    solve_guard_waterfill,
    wfbw_lines,
)
from .weights import WeightMode, check_balance, compute_weights

MODE_BY_FLAG = {
    "standard": WeightMode.STANDARD,
    "ge-equalized": WeightMode.GUARD_EXIT_EQUALIZED,
}


# ---------------------------------------------------------------------------
# Report operations (importable without the CLI)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CostReport:
    """What a guard-position bandwidth target costs an adversary here."""

    water_level: float
    target_guard_weight: int
    entry_weight: float  # scalar share of the target devoted to guarding
    effective_guard_weight: float  # target * entry_weight
    node_equivalents: int  # relays at the water level matching that effect
    waterfill_bandwidth: float  # node_equivalents * water_level
    bandwidth_ratio: float  # effective / target: relays at the level guard full-time


def report_adversary_cost(
    water_level: Fraction | float,
    target_guard_weight: int,
    entry_weight,
) -> CostReport:
    """How many water-level relays equal one big relay's guard traffic.

    The target's effective guard weight is target * entry_weight (under
    scalar weights only that share of the relay serves the entry position),
    and the node count is the ceiling of effective weight over the water
    level.  The target weight must be at least 0, the entry weight in
    [0, 1] and both numbers finite.
    """
    if target_guard_weight < 0:
        raise WaterweightsError(f"target weight must be at least 0, not {target_guard_weight}")
    for name, value in (("water level", water_level), ("entry weight", entry_weight)):
        if isinstance(value, float) and not math.isfinite(value):
            raise WaterweightsError(f"{name} must be finite, not {value}")
    entry_fraction = Fraction(entry_weight)
    if not 0 <= entry_fraction <= 1:
        raise WaterweightsError(f"entry weight must lie in [0, 1], not {float(entry_fraction)}")
    level = Fraction(water_level)
    if level <= 0:
        raise NotApplicableError("water level must be positive to price an adversary")
    effective = target_guard_weight * entry_fraction
    nodes = math.ceil(effective / level)
    return CostReport(
        water_level=float(level),
        target_guard_weight=target_guard_weight,
        entry_weight=float(entry_fraction),
        effective_guard_weight=float(effective),
        node_equivalents=nodes,
        waterfill_bandwidth=float(nodes * level),
        bandwidth_ratio=float(entry_fraction),
    )


Z_95 = 1.959963984540054  # the standard normal's 97.5% quantile
LOGRANK_ALPHA = 0.01  # significance level of compare's verdict


def _wilson_interval(hits: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion hits / n."""
    z2 = Z_95 * Z_95
    center = (hits + z2 / 2) / (n + z2)
    half = Z_95 * math.sqrt(hits * (n - hits) / n + z2 / 4) / (n + z2)
    return center - half, center + half


def _logrank(times_a: np.ndarray, times_b: np.ndarray, n: int):
    """Log-rank statistic for two arms of n clients each, given each arm's
    sorted event times; every other client is censored after the last.

    Returns (expected events in A, hypergeometric variance, z), with z the
    standardized excess of A's observed events over that expectation.
    """
    event_times = np.unique(np.concatenate([times_a, times_b]))
    if not event_times.size:
        return 0.0, 0.0, 0.0
    earlier_a = np.searchsorted(times_a, event_times, side="left")
    earlier_b = np.searchsorted(times_b, event_times, side="left")
    deaths = (
        np.searchsorted(times_a, event_times, side="right") - earlier_a
        + np.searchsorted(times_b, event_times, side="right") - earlier_b
    )
    # each arm's clients still uncompromised just before each event time
    risk_a, risk_b = n - earlier_a, n - earlier_b
    at_risk = risk_a + risk_b
    share_a, share_b = risk_a / at_risk, risk_b / at_risk
    expected = float((deaths * share_a).sum())
    variance = float((deaths * share_a * share_b * (at_risk - deaths) / np.maximum(at_risk - 1, 1)).sum())
    z = (len(times_a) - expected) / math.sqrt(variance) if variance > 0 else 0.0
    return expected, variance, z


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    times: np.ndarray
    curve_a: np.ndarray
    curve_b: np.ndarray
    terminal_delta: float  # a minus b at the horizon
    delta_ci95: tuple[float, float]  # Newcombe hybrid score interval on terminal_delta
    events_a: int  # clients first compromised by the horizon
    events_b: int
    expected_a: float  # A's expected events under equal hazards
    variance: float  # hypergeometric variance of A's events
    z: float  # (events_a - expected_a) / sqrt(variance); 0 when the variance is 0
    p_value: float  # two-sided log-rank p-value
    verdict: str  # "a_above", "b_above", or "indistinguishable"


def compare_runs(
    records_a,
    records_b,
    horizon: int,
    resolution: int | None = None,
) -> ComparisonReport:
    """Pair two simulations' compromise curves and judge their ordering.

    The verdict is a log-rank test on each client's time to first
    compromise, right-censored at the horizon (ties take the hypergeometric
    variance), at level ``LOGRANK_ALPHA``.  The terminal difference gets a
    95% Newcombe hybrid score interval, which stays wide when an arm has no
    compromised client.
    Both record sets must cover the same client ids, each once.
    ``horizon`` must be at least 0 and ``resolution``, when given, at least 1.
    """
    if len(records_a) != len(records_b):
        raise ConfigMismatchError(
            f"record sets cover {len(records_a)} vs {len(records_b)} clients"
        )
    ids_a, ids_b = {r.client_id for r in records_a}, {r.client_id for r in records_b}
    for arm, records, ids in (("A", records_a, ids_a), ("B", records_b, ids_b)):
        if len(ids) < len(records):
            repeated = min(k for k, n in Counter(r.client_id for r in records).items() if n > 1)
            raise ConfigMismatchError(f"record set {arm} repeats client {repeated}")
    if ids_a != ids_b:
        only_a, only_b = sorted(ids_a - ids_b), sorted(ids_b - ids_a)
        raise ConfigMismatchError(
            f"record sets cover different clients: {len(only_a)} only in A "
            f"(first {only_a[0]}), {len(only_b)} only in B (first {only_b[0]})"
        )
    if horizon < 0:
        raise WaterweightsError(f"horizon must be at least 0, not {horizon}")
    if resolution is None:
        resolution = max(1, horizon // 100)
    elif resolution < 1:
        raise WaterweightsError(f"resolution must be at least 1, not {resolution}")
    curve_a = compromise_curve(records_a, horizon, resolution)
    curve_b = compromise_curve(records_b, horizon, resolution)

    def event_times(records) -> np.ndarray:
        times = [r.first_compromise_time for r in records]
        return np.sort(np.array([t for t in times if t is not None and t <= horizon], dtype=np.int64))

    times_a, times_b = event_times(records_a), event_times(records_b)
    n = len(records_a)
    expected_a, variance, z = _logrank(times_a, times_b, n)
    p_value = math.erfc(abs(z) / math.sqrt(2.0))
    if p_value < LOGRANK_ALPHA:
        verdict = "a_above" if z > 0 else "b_above"
    else:
        verdict = "indistinguishable"
    share_a, share_b = len(times_a) / n, len(times_b) / n
    low_a, high_a = _wilson_interval(len(times_a), n)
    low_b, high_b = _wilson_interval(len(times_b), n)
    delta = share_a - share_b
    ci = (  # clipped, so rounding cannot push a bound past +-1
        max(-1.0, delta - math.hypot(share_a - low_a, high_b - share_b)),
        min(1.0, delta + math.hypot(high_a - share_a, share_b - low_b)),
    )
    return ComparisonReport(
        times=curve_a.times,
        curve_a=curve_a.values,
        curve_b=curve_b.values,
        terminal_delta=delta,
        delta_ci95=ci,
        events_a=len(times_a),
        events_b=len(times_b),
        expected_a=expected_a,
        variance=variance,
        z=z,
        p_value=p_value,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------

def _emit(doc: dict):
    click.echo(json.dumps(doc, sort_keys=True, indent=2))


def _stamp(doc: dict, seed: int | None = None) -> dict:
    doc["version"] = __version__
    doc["seed"] = seed
    return doc


def _weights_json(totals, case, w) -> dict:
    report = check_balance(totals, w)
    doc = {name: float(value) for name, value in w.as_dict().items()}
    doc.update(
        {
            "case": case.value,
            "mode": w.mode.value,
            "notes": list(w.notes),
            "residuals": {
                "entry_middle": float(report.entry_middle_residual),
                "entry_exit": float(report.entry_exit_residual),
            },
            "position_bandwidth": {
                "entry": float(report.entry),
                "middle": float(report.middle),
                "exit": float(report.exit),
            },
            "scaled_10000": w.scaled(),
            "totals": {"G": totals.G, "M": totals.M, "E": totals.E, "D": totals.D, "T": totals.T},
        }
    )
    return doc


def _solution_json(sol: WaterfillSolution) -> dict:
    return {
        "pool": sol.pool.value,
        "water_level": float(sol.water_level),
        "pivot_index": sol.pivot_index,
        "target": float(sol.target),
        "conservation_residual": float(sol.conservation_residual),
        "post_quantization_residual": float(quantization_residual(sol)),
        "source_Wgg": float(sol.source_weights.Wgg),
        "relays": [
            {
                "fingerprint": s.fingerprint,
                "bandwidth": s.bandwidth,
                "fraction": s.fraction,
                "scaled_10000": dict(s.scaled),
            }
            for s in sol.shares
        ],
    }


def _not_nan(ctx, param, value):
    if value is not None and math.isnan(value):  # NaN passes every range check
        raise click.BadParameter("nan is not a number")
    return value


def _load_snapshot(path: Path):
    text = path.read_text()
    if path.suffix == ".json":
        return snapshot_from_json(text)
    return parse_native(text)


class _Group(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except WaterweightsError as err:
            click.echo(f"error: {err}", err=True)
            sys.exit(err.exit_code)
        except AssertionError as err:
            click.echo(f"internal invariant breach: {err}", err=True)
            sys.exit(4)


@click.group(cls=_Group)
@click.version_option(__version__)
@click.option("--seed", type=int, default=None, help="Default seed for randomized subcommands.")
@click.option("--json", "json_only", is_flag=True, help="Suppress non-JSON text output.")
@click.option("--quiet", is_flag=True, help="Suppress warnings and progress on stderr.")
@click.pass_context
def main(ctx, seed, json_only, quiet):
    """Relay-network balance analysis: positional weights, waterfilling,
    compromise simulation, and anonymity metrics."""
    ctx.obj = {"seed": seed, "json": json_only, "quiet": quiet}


@main.command()
@click.option("--format", "fmt", type=click.Choice(["native", "v3"]), default="native")
@click.option("--out", type=click.Path(path_type=Path), default=None)
@click.argument("file", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.pass_context
def parse(ctx, fmt, out, file):
    """Parse a relay-list document into canonical snapshot JSON."""
    text = file.read_text()
    if fmt == "native":
        snapshot = parse_native(text)
    else:
        warnings: list[str] = []
        snapshot = parse_v3_subset(text, warnings=warnings)
        if not ctx.obj["quiet"]:
            for note in warnings:
                click.echo(f"warning: {note}", err=True)
    rendered = snapshot_to_json(snapshot)
    if out is None:
        click.echo(rendered, nl=False)
    else:
        out.write_text(rendered)
        if not ctx.obj["quiet"]:
            click.echo(f"wrote {out}", err=True)


@main.command()
@click.option("--mode", type=click.Choice(sorted(MODE_BY_FLAG)), default="standard")
@click.argument("snapshot", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.pass_context
def weights(ctx, mode, snapshot):
    """Positional weights for a snapshot's load case."""
    snap = _load_snapshot(snapshot)
    case, _ = classify_load_case(snap.totals)
    w = compute_weights(snap.totals, case, MODE_BY_FLAG[mode])
    if w.notes and not ctx.obj["quiet"]:
        for note in w.notes:
            click.echo(f"warning: {note}", err=True)
    _emit(_weights_json(snap.totals, case, w))


@main.command()
@click.option("--mode", type=click.Choice(sorted(MODE_BY_FLAG)), default="standard")
@click.option("--pools", default="guards", help="Comma list from: guards, dset.")
@click.argument("snapshot", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.pass_context
def waterfill(ctx, mode, pools, snapshot):
    """Per-relay waterfilling weights plus wfbw consensus lines."""
    snap = _load_snapshot(snapshot)
    case, _ = classify_load_case(snap.totals)
    w = compute_weights(snap.totals, case, MODE_BY_FLAG[mode])
    requested = [p.strip() for p in pools.split(",") if p.strip()]
    solvers = {"guards": solve_guard_waterfill, "dset": solve_dset_waterfill}
    unknown = [p for p in requested if p not in solvers]
    if unknown:
        raise click.BadOptionUsage("--pools", f"unknown pool(s): {', '.join(unknown)}")
    if not requested:
        raise click.BadOptionUsage("--pools", "no pool named; give one or both of guards, dset")
    repeated = sorted({p for p in requested if requested.count(p) > 1})
    if repeated:
        raise click.BadOptionUsage("--pools", f"pool(s) named twice: {', '.join(repeated)}")
    results = {}
    solved = []
    for pool in requested:
        try:
            solution = solvers[pool](snap, w)
        except NotApplicableError as err:
            results[pool] = {"not_applicable": str(err)}
        else:
            results[pool] = _solution_json(solution)
            solved.append(solution)
    doc = {"case": case.value, "mode": w.mode.value, "pools": results}
    _emit(doc)
    if not ctx.obj["json"]:
        for solution in solved:
            for line in wfbw_lines(solution):
                click.echo(line)
    if not solved:
        raise NotApplicableError("no requested pool admits waterfilling here")


@main.command()
@click.option("--snapshots", type=click.Path(exists=True, file_okay=False, path_type=Path), required=True)
@click.option("--adversary", type=click.Path(exists=True, path_type=Path), required=True)
@click.option("--algo", type=click.Choice([a.value for a in Algorithm]), required=True)
@click.option("--clients", type=int, required=True)
@click.option("--seed", type=int, default=None, help="Required here or at the group level.")
@click.option("--out", type=click.Path(path_type=Path), required=True)
@click.option("--duration", type=int, default=None, help="Seconds simulated past the first snapshot.")
@click.option("--interval", type=click.IntRange(min=1), default=600, show_default=True,
              help="Seconds between circuits.")
@click.option("--port", type=click.IntRange(1, 65_535), default=443, show_default=True,
              help="Destination port of the streams.")
@click.option("--num-guards", type=click.IntRange(min=1), default=3, show_default=True)
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True)
@click.pass_context
def simulate(ctx, snapshots, adversary, algo, clients, seed, out, duration,
             interval, port, num_guards, workers):
    """Monte Carlo compromise simulation; writes one CSV row per client."""
    if seed is None:
        seed = ctx.obj["seed"]
    if seed is None:
        raise click.UsageError("simulate needs an explicit --seed")
    files = sorted(p for p in snapshots.iterdir() if p.is_file())
    if not files:
        raise ParseError(f"no snapshot files under {snapshots}")
    sequence = []
    for path in files:
        try:
            sequence.append(_load_snapshot(path))
        except ParseError as err:
            raise ParseError(f"{path}: {err}") from None
    sequence.sort(key=lambda s: s.valid_after)
    try:
        adversary_spec = AdversarySpec.from_json_dict(json.loads(adversary.read_text()))
    except (json.JSONDecodeError, ParseError, TypeError, ValueError) as exc:
        raise ParseError(f"bad adversary file {adversary}: {exc}") from None
    schedule = StreamSchedule(circuit_interval=interval, destination_port=port)
    states = prepare_sequence(sequence, adversary_spec, Algorithm(algo), duration)
    snapshot_count = len(sequence)
    del sequence  # the client loop reads only the prepared states
    trace = simulate_prepared(
        states, clients, seed,
        schedule=schedule, num_entry_guards=num_guards, workers=workers,
    )
    records = trace.records
    out.write_text(records_to_csv(records))
    compromised = sum(1 for r in records if r.circuits_compromised > 0)
    periods = [state.summary() for state in states]
    scheduled = clients * sum(len(schedule.stream_times(s.start, s.end)) for s in states)
    unbuilt = scheduled - sum(r.circuits_built for r in records)
    skipped, failed = trace.streams_skipped, trace.circuits_failed
    on_guard, on_middle = trace.circuits_failed_guard, trace.circuits_failed_middle
    if unbuilt != skipped + failed:
        raise InvariantError(
            f"{unbuilt} circuits unbuilt, but {skipped} skipped and {failed} failed"
        )
    if failed != on_guard + on_middle:
        raise InvariantError(
            f"{failed} circuits failed, but {on_guard} on the guard and {on_middle} on the middle"
        )
    if unbuilt and not ctx.obj["quiet"]:
        causes = []
        if skipped:
            causes.append(f"{skipped} found no exit accepting port {port}")
        if failed:
            hops = [
                f"{count} {hop}"
                for count, hop in (
                    (on_guard, "found no list guard compatible with the exit"),
                    (on_middle, "found no middle compatible with the guard and exit"),
                )
                if count
            ]
            causes.append(
                f"{failed} could not meet the relay constraints in {MAX_HOP_ATTEMPTS} draws"
                f" ({', '.join(hops)})"
            )
        click.echo(
            f"warning: {unbuilt} of {scheduled} scheduled circuits were not built: "
            + "; ".join(causes),
            err=True,
        )
    summary = _stamp(
        {
            "algo": algo,
            "clients": clients,
            "snapshots": snapshot_count,
            "adversary_relays": len(adversary_spec.relays),
            "records": str(out),
            "circuits_scheduled": scheduled,
            "circuits_unbuilt": unbuilt,
            "circuits_skipped": skipped,
            "circuits_failed": failed,
            "circuits_failed_guard": on_guard,
            "circuits_failed_middle": on_middle,
            "guard_replacements": trace.guard_replacements,
            "guard_rotations": trace.guard_rotations,
            "clients_compromised": compromised,
            "compromised_fraction": compromised / clients,
            "periods": periods,
        },
        seed=seed,
    )
    _emit(summary)


@main.command()
@click.option("--joint", type=click.Path(exists=True, path_type=Path), required=True)
@click.option("--snapshot", type=click.Path(exists=True, path_type=Path), default=None,
              help="Relay metadata for country/AS grouping of the guard marginal.")
@click.pass_context
def metrics(ctx, joint, snapshot):
    """Anonymity metrics over a joint guard-exit distribution CSV."""
    jd = joint_from_csv(joint.read_text())
    trace = guessing_entropy(jd)
    doc = {
        "uniformity_degree": uniformity_degree(jd),
        "guessing_entropy": trace.g,
        "trace": {
            "picks": [{"side": side, "index": index} for side, index in trace.picks],
            "q": [float(v) for v in trace.q],
        },
    }
    if snapshot is not None:
        snap = _load_snapshot(snapshot)
        absent = [fp for fp in jd.guards if fp not in snap.table.row]
        if absent:
            raise ConfigMismatchError(
                f"{len(absent)} guard(s) of {joint} absent from {snapshot}, first {absent[0]}"
            )
        marginal = ProbabilityVector(jd.guards, jd.p.sum(axis=1))
        doc["group_tables"] = {
            key: [{"group": g, "probability": p} for g, p in group_diversity(snap, marginal, key)]
            for key in ("country", "as")
        }
    _emit(_stamp(doc))


@main.command()
@click.option("--waterfill", "waterfill_file", type=click.Path(exists=True, path_type=Path),
              required=True, help="JSON produced by the waterfill subcommand.")
@click.option("--target-weight", type=click.IntRange(min=0), required=True,
              help="Consensus weight of the relay the adversary wants to match.")
@click.option("--entry-weight", type=click.FloatRange(0, 1), default=None, callback=_not_nan,
              help="Scalar entry share of the target; defaults to the solution's Wgg.")
@click.pass_context
def report(ctx, waterfill_file, target_weight, entry_weight):
    """Adversary cost statistics derived from a waterfilling solution."""
    try:
        doc = json.loads(waterfill_file.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad waterfill file {waterfill_file}: {exc}") from None
    pools = doc.get("pools") if type(doc) is dict else None
    guards = pools.get("guards") if type(pools) is dict else None
    if type(guards) is not dict or "water_level" not in guards:
        raise ParseError(f"{waterfill_file} carries no solved guard pool")
    wanted = ["water_level"] + (["source_Wgg"] if entry_weight is None else [])
    for key in wanted:
        value = guards.get(key)
        if type(value) not in (int, float) or not math.isfinite(value):
            raise ParseError(f"{waterfill_file}: pools.guards.{key} must be a number, not {value!r}")
    if entry_weight is None:
        entry_weight = guards["source_Wgg"]
    cost = report_adversary_cost(guards["water_level"], target_weight, entry_weight)
    _emit(
        _stamp(
            {
                "input": str(waterfill_file),
                "target_guard_weight": cost.target_guard_weight,
                "entry_weight": cost.entry_weight,
                "water_level": cost.water_level,
                "effective_guard_weight": cost.effective_guard_weight,
                "node_equivalents": cost.node_equivalents,
                "waterfill_bandwidth": cost.waterfill_bandwidth,
                "bandwidth_ratio": cost.bandwidth_ratio,
            }
        )
    )


@main.command()
@click.argument("records_a", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.argument("records_b", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--horizon", type=click.IntRange(min=0), required=True)
@click.option("--resolution", type=click.IntRange(min=1), default=None)
@click.pass_context
def compare(ctx, records_a, records_b, horizon, resolution):
    """Compare two simulations' compromise curves (A versus B)."""
    a = records_from_csv(records_a.read_text())
    b = records_from_csv(records_b.read_text())
    result = compare_runs(a, b, horizon, resolution)
    _emit(
        _stamp(
            {
                "records_a": str(records_a),
                "records_b": str(records_b),
                "horizon": horizon,
                "terminal_delta": result.terminal_delta,
                "terminal_delta_ci95": list(result.delta_ci95),
                "logrank": {
                    "events_a": result.events_a,
                    "events_b": result.events_b,
                    "expected_a": result.expected_a,
                    "variance": result.variance,
                    "z": result.z,
                    "p_value": result.p_value,
                    "verdict": result.verdict,
                },
                "curves": {
                    "times": result.times.tolist(),
                    "a": result.curve_a.tolist(),
                    "b": result.curve_b.tolist(),
                },
            }
        )
    )


if __name__ == "__main__":
    main()
