"""The ``waterweights`` command line: parse, weigh, waterfill, simulate,
measure, and compare.

All subcommands are deterministic for identical inputs and seeds, emit
CSV/JSON only (plotting stays external), and exit with 0 on success, 2 on
input errors, 3 when a computation is infeasible or not applicable, and 4
on internal invariant breaches.  ``metrics`` and ``stats`` are imported
inside the commands that call them, so ``simulate`` loads neither.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import sys
from pathlib import Path

import click

from . import __version__, strictjson
from .consensus import (
    classify_load_case,
    fingerprint_codes,
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
from .pathsim import (
    MAX_HOP_ATTEMPTS,
    AdversarySpec,
    Algorithm,
    StreamSchedule,
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


# ``snapshot_to_json`` sorts its keys, so a document it wrote ends in its
# top-level ``valid_after``
_JSON_TAIL = re.compile(rb'"valid_after"\s*:\s*(-?[0-9]+)\s*}\s*\Z')


def _read_ahead_time(path: Path) -> int | None:
    """A snapshot file's ``valid_after`` from a cheap read, or None where
    that read finds none: a JSON document's tail, or a native file's first
    line that is neither blank nor a comment, which must be its header."""
    try:
        if path.suffix == ".json":
            with path.open("rb") as f:
                f.seek(max(0, f.seek(0, 2) - 128))
                match = _JSON_TAIL.search(f.read())
            return int(match[1]) if match else None
        with path.open() as f:
            for raw in f:
                for line in raw.splitlines():  # the lines parse_native sees
                    fields = line.split()
                    if fields and not fields[0].startswith("#"):
                        header = fields[0] == "snapshot" and len(fields) == 2
                        return int(fields[1]) if header else None
    except (OSError, ValueError):  # a file the parse will reject, or a bad number
        return None
    return None


def _parse_file(path: Path, at: int | None = None):
    """Parse one snapshot file, a JSON document by its ``.json`` suffix and
    the native format otherwise: every command's one snapshot loader.  A
    ParseError names the file, and so does a ``valid_after`` other than
    ``at``, the time it was ordered by."""
    text = path.read_text()
    try:
        snapshot = snapshot_from_json(text) if path.suffix == ".json" else parse_native(text)
    except ParseError as err:
        raise ParseError(f"{path}: {err}") from None
    if at is not None and snapshot.valid_after != at:
        raise ParseError(
            f"{path}: valid_after is {snapshot.valid_after}, but it was ordered at {at}"
        )
    return snapshot


def _snapshots_in_time_order(files: list[Path]):
    """Parse each snapshot file when its turn comes, in ``valid_after``
    order, files of one time in the order given.

    The order comes from ``_read_ahead_time``; a file it cannot place is
    parsed once up front for its time, and that parse is dropped.  Each
    parse must agree with the time it was ordered by.  Nothing is read
    before the first snapshot is asked for.
    """
    ahead = []
    for path in files:
        at = _read_ahead_time(path)
        ahead.append((_parse_file(path).valid_after if at is None else at, path))
    ahead.sort(key=lambda item: item[0])
    for at, path in ahead:
        yield _parse_file(path, at)  # held by the caller alone


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
@click.option("--json", "json_only", is_flag=True, help="Suppress non-JSON text output.")
@click.option("--quiet", is_flag=True, help="Suppress warnings and progress on stderr.")
@click.pass_context
def main(ctx, json_only, quiet):
    """Relay-network balance analysis: positional weights, waterfilling,
    compromise simulation, and anonymity metrics."""
    ctx.obj = {"json": json_only, "quiet": quiet}


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
    snap = _parse_file(snapshot)
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
    snap = _parse_file(snapshot)
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
@click.option("--seed", type=click.IntRange(min=0), required=True)
@click.option("--out", type=click.Path(path_type=Path), required=True)
@click.option("--duration", type=int, default=None, help="Seconds simulated past the first snapshot.")
@click.option("--interval", type=click.IntRange(min=1), default=600, show_default=True,
              help="Seconds between circuits, at most 60 days.")
@click.option("--port", type=click.IntRange(1, 65_535), default=443, show_default=True,
              help="Destination port of the streams.")
@click.option("--num-guards", type=click.IntRange(min=1), default=3, show_default=True)
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True)
@click.pass_context
def simulate(ctx, snapshots, adversary, algo, clients, seed, out, duration,
             interval, port, num_guards, workers):
    """Monte Carlo compromise simulation; writes one CSV row per client."""
    files = sorted(p for p in snapshots.iterdir() if p.is_file())
    if not files:
        raise ParseError(f"no snapshot files under {snapshots}")
    try:
        adversary_spec = AdversarySpec.from_json_dict(strictjson.loads(adversary.read_text()))
    except (ParseError, TypeError, ValueError) as exc:
        raise ParseError(f"bad adversary file {adversary}: {exc}") from None
    schedule = StreamSchedule(circuit_interval=interval, destination_port=port)
    # one live period: each file is parsed, prepared and simulated in turn,
    # once simulate_prepared has checked its arguments
    states = prepare_sequence(
        _snapshots_in_time_order(files), adversary_spec, Algorithm(algo), duration
    )
    trace = simulate_prepared(
        states, clients, seed,
        schedule=schedule, num_entry_guards=num_guards, workers=workers,
    )
    records = trace.records
    out.write_text(records_to_csv(records))
    compromised = sum(1 for r in records if r.circuits_compromised > 0)
    scheduled = trace.circuits_scheduled
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
            "snapshots": len(files),
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
            "periods": trace.periods,
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
    from .metrics import group_diversity, guessing_entropy, joint_from_csv, uniformity_degree

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
        snap = _parse_file(snapshot)
        rows = snap.table.rows(fingerprint_codes(jd.guards))
        absent = [fp for fp, row in zip(jd.guards, rows.tolist()) if row < 0]
        if absent:
            raise ConfigMismatchError(
                f"{len(absent)} guard(s) of {joint} absent from {snapshot}, first {absent[0]}"
            )
        marginal = ProbabilityVector(snap.table, rows, jd.p.sum(axis=1))
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
    from .stats import report_adversary_cost

    try:
        doc = strictjson.loads(waterfill_file.read_text())
    except ParseError as exc:
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
    _emit(_stamp({"input": str(waterfill_file), **dataclasses.asdict(cost)}))


@main.command()
@click.argument("records_a", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.argument("records_b", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--horizon", type=click.IntRange(min=0), required=True)
@click.option("--resolution", type=click.IntRange(min=1), default=None)
@click.pass_context
def compare(ctx, records_a, records_b, horizon, resolution):
    """Compare two simulations' compromise curves (A versus B)."""
    from .stats import compare_runs

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
