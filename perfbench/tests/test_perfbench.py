"""The benchmark's own tests, at sizes that run in seconds.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from perfbench import run, workloads  # noqa: E402
from perfbench.inputs import tree_digest  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_each_workload_runs_end_to_end(workload, trace):
    notes, result = run_bench(workload, trace)
    assert result["correct"], notes.get("error")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in listed)
    assert notes["provenance"]["nproc"] >= 1
    assert notes["params"]["kind"] in ("simulate", "analyze")


def test_generator_is_deterministic_and_seed_sensitive(tmp_path):
    params = workloads.lookup("tor-day", tiny=True)
    first = workloads.generate(params, 5, tmp_path / "a")
    again = workloads.generate(params, 5, tmp_path / "b")
    other = workloads.generate(params, 6, tmp_path / "c")
    assert first["inputs_sha256"] == again["inputs_sha256"]
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")
    assert first["inputs_sha256"] != other["inputs_sha256"]


def test_metric_names_and_units():
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.LAYER_UNITS
    assert set(run.DERIVED) <= set(run.LAYER_UNITS)


def _simulated(tmp_path):
    """A real tiny simulate run: its params, schedule, CSV and JSON summary."""
    params = workloads.lookup("tor-day", tiny=True)
    manifest = workloads.generate(params, 4, tmp_path / "inputs")
    out = tmp_path / "records.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "waterweights.cli"]
        + workloads.cli_args(params, manifest, 4, out),
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    scheduled = workloads.streams_per_client(params, manifest["valid_after"])
    return params, scheduled, out.read_text(), json.loads(proc.stdout)


def test_gate_accepts_the_real_output_and_rejects_tampering(tmp_path):
    params, scheduled, csv_text, summary = _simulated(tmp_path)
    counts = workloads.check_simulate(params, scheduled, csv_text, summary)
    assert counts["circuits_built"] + counts["circuits_unbuilt"] == counts["streams_scheduled"]

    header, *rows = csv_text.splitlines()
    clean = next(row for row in rows if row.endswith(",0"))
    tampered = {
        "row dropped": "\n".join([header] + rows[:-1]) + "\n",
        "rows swapped": "\n".join([header, rows[1], rows[0]] + rows[2:]) + "\n",
        "too many circuits": csv_text.replace(
            "\n" + clean + "\n", "\n" + clean.split(",")[0] + f",,{scheduled + 1},0\n", 1
        ),
        "compromise added": csv_text.replace(
            "\n" + clean + "\n", "\n" + clean.split(",")[0] + f",600,{scheduled},1\n", 1
        ),
    }
    for label, text in tampered.items():
        with pytest.raises(workloads.CheckFailed):
            workloads.check_simulate(params, scheduled, text, summary)
            pytest.fail(f"gate accepted a CSV with {label}")
    liar = dict(summary, clients_compromised=summary["clients_compromised"] + 1)
    with pytest.raises(workloads.CheckFailed):
        workloads.check_simulate(params, scheduled, csv_text, liar)
