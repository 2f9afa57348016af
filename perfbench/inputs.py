"""Deterministic synthetic inputs for the benchmark workloads.

Everything here is a pure function of the seed: the same seed gives
byte-identical snapshot and adversary files.  Weights follow the
heavy-tailed construction of the test suite (Pareto(1.2) times 1000, at
least 1).  Each relay gets a random /16, a country and an AS; a tenth of the
relays sit in families of two to five; exits carry one of four policy
shapes.  Successive snapshots jitter every weight by about 5%
(multiplicatively, cumulative) and leave out 2% of the relays.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from waterweights.consensus import (
    ConsensusSnapshot,
    LoadCase,
    RelayEntry,
    classify_load_case,
    parse_policy,
    snapshot_to_json,
)
from waterweights.errors import InfeasibleWeightsError
from waterweights.pathsim import AdversarySpec, inject_adversary
from waterweights.weights import compute_weights

START_TIME = 1_432_548_000  # 2015-05-25 10:00 UTC
PARETO_ALPHA = 1.2
JITTER = 0.05
DROPOUT = 0.02
FAMILY_SHARE = 0.10
MAX_ATTEMPTS = 16  # redraws before a seed is declared unusable

GUARD_FLAGS = frozenset({"Guard", "Fast", "Stable", "Running", "Valid"})
EXIT_FLAGS = frozenset({"Exit", "Fast", "Running", "Valid"})
DUAL_FLAGS = GUARD_FLAGS | EXIT_FLAGS
MIDDLE_FLAGS = frozenset({"Fast", "Running", "Valid"})
POOL_FLAGS = {"G": GUARD_FLAGS, "M": MIDDLE_FLAGS, "E": EXIT_FLAGS, "D": DUAL_FLAGS}

REDUCED_EXIT_PORTS = (
    "20-23,43,53,79-81,88,110,143,194,220,389,443,464-465,531,543-544,554,563,"
    "587,636,706,749,853,873,902-904,981,989-995,1194,1220,1293,1500,1533,1677,"
    "1723,1755,1863,2082-2083,2086-2087,2095-2096,2102-2104,3128,3389,3690,4321,"
    "4643,5050,5190,5222-5223,5228,5900,6660-6669,6679,6697,8000,8008,8074,8080,"
    "8082,8087-8088,8232-8233,8332-8333,8443,8888,9418,9999,10000,11371,19294,"
    "19638,50002,64738"
)
EXIT_POLICIES = (
    parse_policy("accept:*"),
    parse_policy("accept:80,443;reject:*"),
    parse_policy(f"accept:{REDUCED_EXIT_PORTS};reject:*"),
    parse_policy("reject:25;accept:*"),
)
NON_EXIT_POLICY = parse_policy("reject:*")

COUNTRIES = tuple(
    "de us fr nl ru gb se ca ch fi at ro pl cz ua it es no lu dk jp sg au br in "
    "hk bg lt lv is md hu sk si hr ee be ie pt gr il tr za ar cl mx nz kr tw th".split()
)
AS_COUNT = 800


@dataclass(frozen=True)
class NetworkSpec:
    """Pool sizes (relay counts) and the load case they must produce."""

    guards: int
    middles: int
    exits: int
    duals: int
    case: LoadCase


TOR_3A = NetworkSpec(3500, 2200, 500, 150, LoadCase.CASE_3A)
TOR_3B_HALF = NetworkSpec(1150, 900, 625, 500, LoadCase.CASE_3B)
SMALL_3A = NetworkSpec(120, 50, 25, 5, LoadCase.CASE_3A)


class GenerationError(RuntimeError):
    """The seed gave no sequence with the intended load case."""


def adversary_doc(guards: int, guard_weight: int, exits: int, exit_weight: int) -> dict:
    """An ``adv.json`` document with one guard-like and one exit-like group."""
    return {
        "relays": [
            {"role": "guard", "consensus_weight": guard_weight, "count": guards},
            {"role": "exit", "consensus_weight": exit_weight, "count": exits},
        ]
    }


def _labels(rng: np.random.Generator, n: int, choices: int) -> np.ndarray:
    """Zipf-like group labels: a few large groups and a long tail."""
    ranks = np.arange(1, choices + 1, dtype=np.float64)
    p = 1.0 / ranks
    return rng.choice(choices, size=n, p=p / p.sum())


def _base_relays(rng: np.random.Generator, spec: NetworkSpec) -> list[dict]:
    pools = ["G"] * spec.guards + ["M"] * spec.middles + ["E"] * spec.exits + ["D"] * spec.duals
    n = len(pools)
    weights = np.maximum(1, np.round((rng.pareto(PARETO_ALPHA, n) + 1.0) * 1000)).astype(np.int64)
    fps = [bytes(row).hex().upper() for row in rng.integers(0, 256, size=(n, 20), dtype=np.uint8)]
    octets = rng.integers(0, 256, size=(n, 2))
    octets[:, 0] = octets[:, 0] % 223 + 1
    countries = _labels(rng, n, len(COUNTRIES))
    ases = _labels(rng, n, AS_COUNT)
    policy_ids = rng.integers(0, len(EXIT_POLICIES), size=n)
    families: list[list[int]] = [[] for _ in range(n)]
    order = rng.permutation(n)[: int(round(FAMILY_SHARE * n))]
    pos = 0
    while pos < len(order):
        size = int(rng.integers(2, 6))
        group = [int(i) for i in order[pos : pos + size]]
        pos += size
        if len(group) < 2:
            break
        for i in group:
            families[i] = [j for j in group if j != i]
    return [
        {
            "fingerprint": fps[i],
            "nickname": f"relay{i}",
            "pool": pools[i],
            "weight": int(weights[i]),
            "subnet16": f"{octets[i, 0]}.{octets[i, 1]}",
            "country": COUNTRIES[countries[i]],
            "as_number": 1000 + int(ases[i]),
            "policy": int(policy_ids[i]),
            "family": frozenset(fps[j] for j in families[i]),
        }
        for i in range(n)
    ]


def _snapshot(base: list[dict], weights: np.ndarray, present: np.ndarray, valid_after: int):
    relays = []
    for relay, weight, keep in zip(base, weights, present):
        if not keep:
            continue
        exit_ = relay["pool"] in ("E", "D")
        relays.append(
            RelayEntry(
                fingerprint=relay["fingerprint"],
                nickname=relay["nickname"],
                consensus_weight=int(weight),
                flags=POOL_FLAGS[relay["pool"]],
                exit_policy=EXIT_POLICIES[relay["policy"]] if exit_ else NON_EXIT_POLICY,
                family=relay["family"],
                subnet16=relay["subnet16"],
                country=relay["country"],
                as_number=relay["as_number"],
            )
        )
    return ConsensusSnapshot.from_relays(valid_after, relays)


def _attempt(rng, spec, count, period, adversary):
    base = _base_relays(rng, spec)
    weights = np.array([r["weight"] for r in base], dtype=np.float64)
    snapshots = []
    for k in range(count):
        if k:
            weights = weights * np.exp(JITTER * rng.standard_normal(len(base)))
        present = rng.random(len(base)) >= DROPOUT
        rounded = np.maximum(1, np.round(weights)).astype(np.int64)
        snap = _snapshot(base, rounded, present, START_TIME + k * period)
        for checked in (snap, inject_adversary(snap, adversary)):
            case, _ = classify_load_case(checked.totals)
            if case is not spec.case:
                return None
            try:
                w = compute_weights(checked.totals, case)
            except InfeasibleWeightsError:
                return None
            if not 0 < w.Wgg < 1:
                return None  # no guard waterfilling to measure
        snapshots.append(snap)
    return snapshots


def snapshot_sequence(
    seed: int, spec: NetworkSpec, count: int, period: int, adversary: AdversarySpec
) -> list[ConsensusSnapshot]:
    """``count`` snapshots ``period`` seconds apart, all of ``spec.case``.

    The case, feasible weights and a guard weight strictly between 0 and 1
    are checked with and without the adversary injected.  A draw that
    misses any of them is redrawn from the next substream of the seed; after
    MAX_ATTEMPTS misses the seed is rejected loudly.
    """
    for attempt in range(MAX_ATTEMPTS):
        rng = np.random.default_rng([seed, spec.guards, spec.duals, count, attempt])
        snapshots = _attempt(rng, spec, count, period, adversary)
        if snapshots is not None:
            return snapshots
    raise GenerationError(
        f"seed {seed}: no {count}-snapshot sequence of case {spec.case.value} "
        f"in {MAX_ATTEMPTS} attempts"
    )


def write_sequence(directory: Path, snapshots) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for k, snap in enumerate(snapshots):
        path = directory / f"snapshot-{k:04d}.json"
        path.write_text(snapshot_to_json(snap))
        paths.append(path)
    return paths


def write_json(path: Path, doc) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return path


def tree_digest(root: Path) -> str:
    """sha256 over every file under ``root``: relative path, then bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()
