"""Output digests that must hold across builds.

Acceptance criterion 10 checks that two runs of one build agree; these
digests pin the outputs themselves.  They were computed at commit feb27d6
(before the snapshot column table and the array form of
``selection_distribution``) and every later build must reproduce them byte
for byte.  If a change moves them, that change altered the arithmetic:
find out why before re-pinning.
"""

import hashlib
import json

import numpy as np
from click.testing import CliRunner

from waterweights.cli import main
from waterweights.consensus import (
    ConsensusSnapshot,
    LoadCase,
    RelayEntry,
    classify_load_case,
    parse_policy,
    serialize_native,
)

from conftest import make_snapshot
from test_acceptance import CALIBRATION_SPEC

CRITERION_10_RECORDS = "cd92663ce4b2bf36b99550265d6e2db4b49b73c0b845f09594036e781ff4e272"
CRITERION_10_PERIODS = "4ba3d2628adabcf833b988cf4c5d0688c562edd9b4433c7eaa220595aeae88de"
DUAL_WF_GE_RECORDS = "d3d7dc2b9d75fd54eda058800ec760b5fd9b2da56b9430b3f5b6d967c4e7dd08"
DUAL_WF_GE_PERIODS = "b9e9d338dac5000e89675ea2d567b86a7a515062cc8b1ecbac13048a0e496192"
DUAL_WATERFILL_OUTPUT = "d7cfb046f1b1074f5d7c20a99194239485486e73960801d185f2204c88c8842d"

WEB = "accept:80,443;reject:*"
ROLE_FLAGS = {
    "g": {"Guard", "Fast", "Stable", "Running", "Valid"},
    "m": {"Fast", "Running", "Valid"},
    "e": {"Exit", "Fast", "Running", "Valid"},
    "d": {"Guard", "Exit", "Fast", "Stable", "Running", "Valid"},
}


def sha256(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def dual_snapshot(hour: int) -> ConsensusSnapshot:
    """A case-3b network with zero weights, shared /16s, families and mixed
    exit policies; each hour drops and reweights a few relays."""
    rng = np.random.default_rng([2017, hour])
    relays = []
    for role, count, scale in (("g", 24, 400), ("m", 14, 400), ("e", 7, 500), ("d", 12, 1500)):
        for i, draw in enumerate(rng.pareto(2.5, count) + 1.0):
            if (i + hour) % 11 == 5:
                continue  # gone this hour
            weight = 0 if i == count - 1 else int(draw * scale)
            policy = "accept:*" if role == "d" or i % 3 else WEB
            relays.append(
                RelayEntry(
                    fingerprint=f"{role.upper()}{i:02d}",
                    nickname=f"{role}{i:02d}",
                    consensus_weight=weight,
                    flags=frozenset(ROLE_FLAGS[role]),
                    exit_policy=parse_policy(policy if role in "ed" else "reject:*"),
                    family=frozenset({f"{role.upper()}{i + 1:02d}"}) if i % 5 == 0 else frozenset(),
                    subnet16=f"{20 + i % 9}.{i % 4}",
                )
            )
    return ConsensusSnapshot.from_relays(1_432_548_000 + 3600 * hour, relays)


def simulate(tmp_path, snapshots, adversary, algo, clients, seed, duration):
    directory = tmp_path / "snapshots"
    directory.mkdir()
    for i, snap in enumerate(snapshots):
        (directory / f"{i:02d}.snapshot").write_text(serialize_native(snap))
    adv = tmp_path / "adv.json"
    adv.write_text(json.dumps({"relays": adversary}))
    out = tmp_path / "records.csv"
    result = CliRunner().invoke(main, [
        "--quiet", "simulate", "--snapshots", str(directory), "--adversary", str(adv),
        "--algo", algo, "--clients", str(clients), "--seed", str(seed),
        "--out", str(out), "--duration", str(duration),
    ])
    assert result.exit_code == 0, result.output
    periods = json.loads(result.stdout)["periods"]
    return out.read_bytes(), json.dumps(periods, sort_keys=True)


def test_criterion_10_fixture_outputs(tmp_path):
    records, periods = simulate(
        tmp_path, [make_snapshot(CALIBRATION_SPEC)],
        [{"role": "guard", "consensus_weight": 300}, {"role": "exit", "consensus_weight": 100}],
        "wf", clients=100, seed=444, duration=30000,
    )
    assert sha256(records) == CRITERION_10_RECORDS
    assert sha256(periods) == CRITERION_10_PERIODS


def test_dual_pool_wf_ge_simulate(tmp_path):
    snapshots = [dual_snapshot(hour) for hour in range(3)]
    assert {classify_load_case(s.totals)[0] for s in snapshots} == {LoadCase.CASE_3B}
    records, periods = simulate(
        tmp_path, snapshots,
        [{"role": "guard", "consensus_weight": 2500, "count": 2},
         {"role": "exit", "consensus_weight": 400}],
        "wf-ge", clients=60, seed=9, duration=3 * 3600,
    )
    assert sha256(records) == DUAL_WF_GE_RECORDS
    assert sha256(periods) == DUAL_WF_GE_PERIODS


def test_waterfill_guards_and_dset_output(tmp_path):
    doc = tmp_path / "net.snapshot"
    doc.write_text(serialize_native(dual_snapshot(0)))
    result = CliRunner().invoke(main, ["waterfill", "--pools", "guards,dset", str(doc)])
    assert result.exit_code == 0, result.output
    assert "wfbw Wed=" in result.stdout
    assert sha256(result.stdout) == DUAL_WATERFILL_OUTPUT
