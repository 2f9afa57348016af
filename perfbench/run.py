"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tor-day --seed 1 --seconds 20 --trace 0

Run from the repository root.  The inputs are generated from the seed into
a scratch directory under ``.perfbench-work/`` before any timing starts.
With ``--trace 0`` the command is timed in fresh child processes, tracing
off, and the end-to-end metrics are reported; with ``--trace 1`` the
workload's traced form also runs and the per-layer metrics are reported,
with the spans written to ``.perfbench-out/``.  Every output is checked;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
OUT = ROOT / ".perfbench-out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

MIN_ITERATIONS = 3  # untraced measuring rounds per run, even past --seconds
MAX_ITERATIONS = 50
RUN_DEADLINE_S = 170  # every child is killed past this point of a run

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "snapshots_per_s": "1/s",
}


class ChildFailed(Exception):
    pass


class Runner:
    """Starts child processes with ``src`` and the root on PYTHONPATH."""

    def __init__(self, scratch: Path, deadline: float):
        self.scratch = scratch
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))
        self._serial = 0

    def path(self, stem: str, suffix: str) -> Path:
        self._serial += 1
        return self.scratch / f"{stem}-{self._serial}{suffix}"

    def run(self, argv: list[str]) -> tuple[float, str]:
        """Run to completion; returns (wall seconds, stdout)."""
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise ChildFailed(f"{argv[:4]} passed the run deadline") from None
        except BaseException:  # interrupted: take the child's whole group down first
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise ChildFailed(f"{argv[:4]} exited {proc.returncode}: {err.strip()[-2000:]}")
        return wall, out

    def child(self, mode: str, request: dict) -> tuple[float, dict]:
        request = dict(request, result=str(self.path(mode, ".json")))
        request_path = self.path(f"{mode}-request", ".json")
        request_path.write_text(json.dumps(request))
        wall, _ = self.run([sys.executable, "-m", "perfbench.child", mode, str(request_path)])
        return wall, json.loads(Path(request["result"]).read_text())


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance() -> dict:
    import importlib.metadata

    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": importlib.metadata.version("click"),
        "git_commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# Workload commands
# ---------------------------------------------------------------------------

class Workload:
    """One workload's command, checks and metrics within a single run."""

    def __init__(self, name: str, seed: int, tiny: bool, runner: Runner):
        from perfbench import workloads

        self.w = workloads
        self.name = name
        self.seed = seed
        self.tiny = tiny
        self.params = workloads.lookup(name, tiny)
        self.runner = runner
        self.manifest = workloads.generate(self.params, seed, runner.scratch / "inputs")
        self.request = {
            "workload": name, "tiny": tiny, "seed": seed, "manifest": self.manifest,
        }
        self.digests: set[str] = set()
        self.counts: dict | None = None
        if self.params.kind == "simulate":
            self.scheduled = workloads.streams_per_client(self.params, self.manifest["valid_after"])

    @property
    def snapshots(self) -> int:
        return len(self.manifest["valid_after"])

    def setup(self) -> float:
        wall, _ = self.runner.child("load", self.request)
        return wall

    def command(self, params=None) -> float:
        """Run the workload's command once, untraced; check it; return wall time."""
        params = params or self.params
        if params.kind == "analyze":
            wall, result = self.runner.child("analyze", self.request)
            self.check_analysis(result)
            return wall
        out = self.runner.path("records", ".csv")
        argv = [sys.executable, "-m", "waterweights.cli"]
        argv += self.w.cli_args(params, self.manifest, self.seed, out)
        wall, stdout = self.runner.run(argv)
        self.check_records(out.read_text(), json.loads(stdout))
        return wall

    def check_analysis(self, result: dict):
        self.w.check_analysis(result)
        self.record(result["digest"], {"operations": result["operations"]})

    def check_records(self, csv_text: str, summary: dict):
        counts = self.w.check_simulate(self.params, self.scheduled, csv_text, summary)
        self.record(counts.pop("records_sha256"), counts)

    def record(self, digest: str, counts: dict):
        """Every command of a run must give the same output and counts."""
        self.digests.add(digest)
        if len(self.digests) > 1:
            raise self.w.CheckFailed(f"outputs differ between commands: {sorted(self.digests)}")
        if self.counts is not None and counts != self.counts:
            raise self.w.CheckFailed(f"counts differ between commands: {self.counts} vs {counts}")
        self.counts = counts

    def traced(self, run_id: str) -> tuple[float, dict, list[dict]]:
        from perfbench.trace import load_spans

        spans_path = OUT / f"{self.name}-seed{self.seed}-{run_id}.spans.json"
        request = dict(self.request, run_id=run_id, spans=str(spans_path))
        if self.params.kind == "simulate":
            out = self.runner.path("records-traced", ".csv")
            request["out"] = str(out)
        wall, result = self.runner.child("traced", request)
        if self.params.kind == "simulate":
            self.check_records(out.read_text(), result["summary"])
        else:
            self.check_analysis(result)
        return wall, result, load_spans(spans_path)

    def operations(self) -> int:
        """Operations one command attempts: scheduled streams, or metric computations.

        An operation fails when its command exits non-zero or fails a check.
        A circuit the simulator could not build is a modelled outcome, not a
        failure; it shows in ``pathsim.circuits_unbuilt``.
        """
        if self.params.kind == "simulate":
            return self.counts["streams_scheduled"]
        return self.counts["operations"]

    def reference_check(self) -> str:
        """Compare the run's output digest with the committed reference."""
        reference = json.loads(REFERENCE.read_text())
        if self.tiny or self.seed != reference["seed"]:
            return "no reference for this seed; commands agreed with each other"
        expected = reference["digests"].get(self.name)
        (actual,) = self.digests
        if expected != actual:
            raise self.w.CheckFailed(f"output digest {actual} != reference {expected}")
        return "matches reference"


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------

LAYER_UNITS = {
    "consensus.parse_s": "s",
    "consensus.parse_ms_p50": "ms",
    "consensus.parse_ms_tail": "ms",
    "consensus.parse_ms_tail_n": "count",
    "consensus.relays_parsed": "count",
    "consensus.snapshots_loaded": "count",
    "weights.solve_s": "s",
    "weights.solves": "count",
    "waterfill.solve_s": "s",
    "waterfill.solves": "count",
    "waterfill.pool_relays": "count",
    "waterfill.distribution_s": "s",
    "waterfill.distributions": "count",
    "waterfill.render_s": "s",
    "pathsim.inject_s": "s",
    "pathsim.prepare_s": "s",
    "pathsim.prepare_ms_p50": "ms",
    "pathsim.prepare_ms_tail": "ms",
    "pathsim.prepare_ms_tail_n": "count",
    "pathsim.states": "count",
    "pathsim.summaries_s": "s",
    "pathsim.simulate_s": "s",
    "pathsim.client_loop_s": "s",
    "pathsim.client_periods": "count",
    "pathsim.us_per_client_period": "us",
    "pathsim.streams_scheduled": "count",
    "pathsim.circuits_built": "count",
    "pathsim.circuits_unbuilt": "count",
    "pathsim.build_ratio": "ratio",
    "pathsim.failed_frac": "ratio",
    "pathsim.circuits_per_s": "1/s",
    "pathsim.clients_compromised": "count",
    "pathsim.job_state_mb": "MB",
    "pathsim.jobs": "count",
    "pathsim.records_csv_s": "s",
    "metrics.joint_s": "s",
    "metrics.joint_cells": "count",
    "metrics.conflict_cells": "count",
    "metrics.joint_ns_per_cell": "ns",
    "metrics.guessing_s": "s",
    "metrics.guessing_picks": "count",
    "metrics.uniformity_s": "s",
    "metrics.group_s": "s",
    "cli.import_s": "s",
    "cli.other_s": "s",
    "trace.overhead_frac": "ratio",
}

DERIVED = {
    "pathsim.client_loop_s": "pathsim.simulate_s - pathsim.prepare_s (run_simulation prepares internally)",
    "cli.other_s": "untraced wall_s - traced command spans (cli.import plus the replica or pipeline)",
    "trace.overhead_frac": "(traced command time - untraced wall_s) / untraced wall_s",
}

def layer_times(spans: list[dict], traced_wall: float, wall_s: float) -> dict:
    """Per-layer times of one traced command, in seconds."""
    from perfbench import trace as t

    def total(*names):
        return sum(t.total(spans, n) for n in names)

    top = [s for s in spans if s["parent"] is None]
    probe = sum(t.duration(s) for s in top if s["name"] == "probe")
    command = sum(t.duration(s) for s in top if s["name"] != "probe")
    simulate = total("pathsim.simulate")
    prepare = total("pathsim.prepare")
    return {
        "consensus.parse_s": total("consensus.parse"),
        "weights.solve_s": total("weights.solve", "weights.balance"),
        "waterfill.solve_s": total("waterfill.solve"),
        "waterfill.distribution_s": total("waterfill.distribution"),
        "waterfill.render_s": total("waterfill.render"),
        "pathsim.inject_s": total("pathsim.inject"),
        "pathsim.prepare_s": prepare,
        "pathsim.summaries_s": total("pathsim.summaries"),
        "pathsim.simulate_s": simulate,
        "pathsim.client_loop_s": simulate - prepare if simulate else 0.0,
        "pathsim.records_csv_s": total("pathsim.records_csv"),
        "metrics.joint_s": total("metrics.joint"),
        "metrics.guessing_s": total("metrics.guessing"),
        "metrics.uniformity_s": total("metrics.uniformity"),
        "metrics.group_s": total("metrics.group"),
        "cli.import_s": total("cli.import"),
        "cli.other_s": wall_s - command,
        "trace.overhead_frac": (traced_wall - probe - wall_s) / wall_s,
    }


def layer_counts(spans: list[dict], result: dict, workload: Workload) -> dict:
    from perfbench import trace as t

    params = workload.params
    states = len(t.samples(spans, "pathsim.prepare"))
    counts = {
        "consensus.relays_parsed": t.count(spans, "consensus.parse", "relays"),
        "consensus.snapshots_loaded": len(t.samples(spans, "consensus.parse")),
        "weights.solves": len(t.samples(spans, "weights.solve")),
        "waterfill.solves": len(t.samples(spans, "waterfill.solve")),
        "waterfill.pool_relays": t.count(spans, "waterfill.solve", "pool_relays"),
        "waterfill.distributions": len(t.samples(spans, "waterfill.distribution")),
        "pathsim.states": states,
        "pathsim.client_periods": params.clients * states if params.kind == "simulate" else 0,
        "pathsim.streams_scheduled": 0,
        "pathsim.circuits_built": 0,
        "pathsim.circuits_unbuilt": 0,
        "pathsim.clients_compromised": 0,
        "pathsim.jobs": result.get("jobs", 0),
        "metrics.joint_cells": t.count(spans, "metrics.joint", "cells"),
        "metrics.conflict_cells": t.count(spans, "metrics.joint", "conflict_cells"),
        "metrics.guessing_picks": t.count(spans, "metrics.guessing", "picks"),
    }
    if params.kind == "simulate":
        for key in ("streams_scheduled", "circuits_built", "circuits_unbuilt", "clients_compromised"):
            counts[f"pathsim.{key}"] = workload.counts[key]
    return counts


def self_time_by_name(traced: list[tuple[float, dict, list[dict]]]) -> dict:
    """Median over traced commands of each span name's total self time."""
    from perfbench import trace as t

    per_command = []
    for _, _, spans in traced:
        own = t.self_times(spans)
        totals: dict[str, float] = {}
        for span in spans:
            totals[span["name"]] = totals.get(span["name"], 0.0) + own[span["id"]]
        per_command.append(totals)
    return {name: statistics.median(c.get(name, 0.0) for c in per_command)
            for name in sorted(per_command[0])}


def per_layer(traced: list[tuple[float, dict, list[dict]]], wall_s: float, workload: Workload) -> dict:
    from perfbench import trace as t

    times = [layer_times(spans, traced_wall, wall_s) for traced_wall, _, spans in traced]
    counts = [layer_counts(spans, result, workload) for _, result, spans in traced]
    for other in counts[1:]:
        if other != counts[0]:
            raise workload.w.CheckFailed(f"per-layer counts differ between traced commands: {counts}")
    values = {k: statistics.median(ts[k] for ts in times) for k in times[0]}
    values.update(counts[0])
    # per-call samples from the first traced command, so the sample count repeats
    first_spans = traced[0][2]
    for layer in ("consensus.parse", "pathsim.prepare"):
        calls = t.samples(first_spans, layer)
        tail, n = t.tail(calls)
        values[f"{layer}_ms_p50"] = 1e3 * statistics.median(calls) if calls else 0.0
        values[f"{layer}_ms_tail"] = 1e3 * tail
        values[f"{layer}_ms_tail_n"] = n
    values["pathsim.job_state_mb"] = traced[0][1].get("job_state_mb", 0.0)
    periods = values["pathsim.client_periods"]
    loop = values["pathsim.client_loop_s"]
    values["pathsim.us_per_client_period"] = 1e6 * loop / periods if periods else 0.0
    cells = values["metrics.joint_cells"]
    values["metrics.joint_ns_per_cell"] = 1e9 * values["metrics.joint_s"] / cells if cells else 0.0
    streams = values["pathsim.streams_scheduled"]
    built = values["pathsim.circuits_built"]
    values["pathsim.build_ratio"] = built / streams if streams else 0.0
    values["pathsim.failed_frac"] = values["pathsim.circuits_unbuilt"] / streams if streams else 0.0
    values["pathsim.circuits_per_s"] = built / wall_s
    return values


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------

def measure(workload: Workload, seconds: int, trace: bool, notes: dict) -> tuple[dict, int]:
    """Time the workload in rounds until ``seconds`` pass; returns (metrics, commands).

    Untraced, a round is one set-up process and one command, and at least
    MIN_ITERATIONS rounds run.  Traced, a round is one untraced command and
    one traced command, and at least one round runs.  Interleaving spreads
    each kind of sample over the whole window, so a slow spell of the
    machine hits both alike.
    """
    workload.setup()  # warm-up: byte-compiles and fills the page cache
    if workload.params.kind == "simulate" and workload.params.workers > 1:
        # untimed serial command: the pool must reproduce its CSV byte for byte
        workload.command(dataclasses.replace(workload.params, workers=1))
    start = time.monotonic()
    setups: list[float] = []
    walls: list[float] = []
    traced = []
    while len(walls) < MAX_ITERATIONS:
        round_start = time.monotonic()
        if trace:
            walls.append(workload.command())
            traced.append(workload.traced(f"t{len(traced)}"))
        else:
            setups.append(workload.setup())
            walls.append(workload.command())
        elapsed = time.monotonic() - start
        enough = len(walls) >= (1 if trace else MIN_ITERATIONS)
        if enough and elapsed + (time.monotonic() - round_start) > seconds:
            break
    notes["setup_s_samples"] = setups
    notes["wall_s_samples"] = walls
    wall_s = statistics.median(walls)
    if trace:
        values = per_layer(traced, wall_s, workload)
        notes["traced_commands"] = len(traced)
        notes["self_s"] = self_time_by_name(traced)
        notes["derived"] = DERIVED
        units = LAYER_UNITS
    else:
        values = {
            "wall_s": wall_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
            "snapshots_per_s": workload.snapshots / wall_s,
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return metrics, len(walls) + len(traced)


def parse_args(argv):
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="test-sized inputs")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "waterweights" / "__init__.py").is_file():
        print(f"error: no waterweights package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    args = parse_args(argv)
    # a SIGTERM unwinds like an exception, so children and scratch files go too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    WORK.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    from perfbench.workloads import CheckFailed, describe

    notes = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "provenance": provenance()}
    correct = True
    attempted = failed = 0
    metrics = {}
    try:
        workload = Workload(args.workload, args.seed, args.tiny, Runner(scratch, deadline))
        notes["params"] = describe(workload.params)
        notes["inputs_sha256"] = workload.manifest["inputs_sha256"]
        try:
            metrics, commands = measure(workload, args.seconds, bool(args.trace), notes)
            notes["counts"] = workload.counts
            notes["output_sha256"] = sorted(workload.digests)
            notes["reference"] = workload.reference_check()
            attempted = commands * workload.operations()
        except (ChildFailed, CheckFailed) as exc:
            correct = False
            notes["error"] = f"{type(exc).__name__}: {exc}"
            attempted = failed = max(1, workload.operations() if workload.counts else 1)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    notes["run_s"] = time.monotonic() - started
    print(json.dumps(notes, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
