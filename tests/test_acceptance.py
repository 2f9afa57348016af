"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is
pinned here; the random criteria use fixed seeds and are fully
deterministic.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from waterweights.cli import main as cli_main
from waterweights.consensus import (
    ConsensusSnapshot,
    LoadCase,
    PoolTotals,
    classify_load_case,
)
from waterweights.metrics import JointDistribution, guessing_entropy, shannon_entropy
from waterweights.pathsim import (
    AdversaryRelay,
    AdversarySpec,
    Algorithm,
    RoleHint,
    inject_adversary,
    run_simulation,
)
from waterweights.stats import compare_runs, report_adversary_cost
from waterweights.waterfill import find_water_level, solve_guard_waterfill
from waterweights.weights import WeightMode, check_balance, compute_weights

from conftest import analytic_compromise, make_snapshot, pareto_weights, serialize_native


def ok(number, message):
    print(f"PASS criterion {number}: {message}")


def conservation_instances():
    """The shared fixture for criteria 2 and 5: 1000 seeded heavy-tailed
    guard sets of size 10..2000 with a random entry weight each."""
    rng = np.random.default_rng(20150525)
    for _ in range(1000):
        size = int(rng.integers(10, 2001))
        alpha = float(rng.uniform(1.0, 2.0))
        bandwidths = sorted(pareto_weights(rng, size, alpha), reverse=True)
        wgg = Fraction(float(rng.uniform(0.001, 0.999)))
        yield bandwidths, wgg


def test_criterion_01_greedy_entropy_golden_trace():
    p = np.array([[1 / 6, 1 / 18], [5 / 18, 1 / 3], [1 / 24, 1 / 8]])
    jd = JointDistribution(("g1", "g2", "g3"), ("e1", "e2"), p)
    trace = guessing_entropy(jd)  # warm-up, excluded from timing
    best = min(
        _timed(lambda: guessing_entropy(jd))
        for _ in range(5)
    )
    assert trace.picks == (("G", 1), ("E", 1), ("E", 0), ("G", 0), ("G", 2))
    assert np.allclose(trace.q, [0, 1 / 3, 5 / 18, 2 / 9, 1 / 6], atol=1e-12)
    assert abs(trace.g - 3.2222) <= 1e-4
    assert best < 1e-3, f"took {best * 1e3:.3f} ms"
    ok(1, f"picks (g2,e2,e1,g1,g3), g={trace.g:.4f}, {best * 1e6:.0f} us")


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_02_waterfilling_conservation_at_scale():
    start = time.perf_counter()
    checked = 0
    for bandwidths, wgg in conservation_instances():
        pool = sum(bandwidths)
        target = wgg * pool
        level, pivot = find_water_level(bandwidths, target)
        num, den = level.numerator, level.denominator
        # plateau: every relay above the pivot contributes exactly the level,
        # so its kept fraction level/bw must not exceed 1
        assert all(num <= den * bw for bw in bandwidths[:pivot])
        # conservation: pivot * level + full tail == Wgg * G, exactly
        kept = Fraction(num * pivot, den) + sum(bandwidths[pivot:])
        residual = abs(kept - target)
        assert residual <= Fraction(1, 10**6) * target
        # boundary ordering
        assert level <= bandwidths[pivot - 1]
        if pivot < len(bandwidths):
            assert bandwidths[pivot] <= level
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 1000
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    ok(2, f"1000 heavy-tailed instances conserved exactly in {elapsed:.2f}s")


def test_criterion_03_hand_solved_instance_exact():
    snap = make_snapshot(
        [
            ("G1", 100, "g"), ("G2", 60, "g"), ("G3", 20, "g"),
            ("M1", 60, "m"), ("E1", 50, "e"), ("D1", 10, "d"),
        ]
    )
    case, _ = classify_load_case(snap.totals)
    w = compute_weights(snap.totals, case)
    assert w.Wgg == Fraction(2, 3)  # target Wgg*G = 120 over [100, 60, 20]
    solution = solve_guard_waterfill(snap, w)
    assert solution.water_level == Fraction(50)
    assert solution.pivot_index == 2
    level = solution.water_level
    kept = [min(Fraction(bw), level) / bw for bw in solution.bandwidths.tolist()]
    assert kept == [Fraction(1, 2), Fraction(5, 6), Fraction(1)]
    assert [s.scaled for s in solution.shares] == [
        (("Wgg", 5000), ("Wmg", 5000)),
        (("Wgg", 8333), ("Wmg", 1667)),
        (("Wgg", 10000), ("Wmg", 0)),
    ]
    assert solution.conservation_residual == 0
    ok(3, "level 50, pivot 2, fractions (1/2, 5/6, 1) by rational comparison")


def _random_case3a_totals(rng):
    while True:
        m = int(rng.integers(1, 50_000))
        g = m + int(rng.integers(1, 50_000))
        cap = (g + m) // 2
        if cap < 2:
            continue
        e = int(rng.integers(0, cap))
        d = int(rng.integers(0, cap - e))
        totals = PoolTotals(G=g, M=m, E=e, D=d)
        if 3 * (e + d) < totals.T and classify_load_case(totals)[0] is LoadCase.CASE_3A:
            return totals


def test_criterion_04_balance_residual_directions():
    rng = np.random.default_rng(97)
    for _ in range(200):
        totals = _random_case3a_totals(rng)
        standard = check_balance(totals, compute_weights(totals, LoadCase.CASE_3A))
        assert abs(standard.entry_middle_residual) <= Fraction(totals.T, 10**9)
        assert standard.entry_exit_residual > 0
        equalized = check_balance(
            totals,
            compute_weights(totals, LoadCase.CASE_3A, WeightMode.GUARD_EXIT_EQUALIZED),
        )
        assert abs(equalized.entry_exit_residual) <= Fraction(totals.T, 10**9)
        assert equalized.entry_middle_residual < 0
    ok(4, "200 random 3a networks: standard binds entry=middle, variant entry=exit")


def test_criterion_05_entropy_never_drops():
    strict_checked = 0
    for bandwidths, wgg in conservation_instances():
        pool = sum(bandwidths)
        level, pivot = find_water_level(bandwidths, wgg * pool)
        flat = np.asarray(bandwidths, dtype=np.float64)
        filled = flat.copy()
        filled[:pivot] = float(level)
        h_flat = shannon_entropy(flat / flat.sum())
        h_filled = shannon_entropy(filled / filled.sum())
        assert h_filled >= h_flat
        if pivot >= 1:
            assert h_filled > h_flat
            strict_checked += 1
    assert strict_checked == 1000  # entry weight below 1 always caps someone
    ok(5, f"entropy never lower, strictly higher on all {strict_checked} instances")


CALIBRATION_SPEC = [
    ("G1", 200, "g"), ("G2", 150, "g"), ("G3", 100, "g"), ("G4", 80, "g"),
    ("G5", 70, "g"), ("G6", 50, "g"), ("G7", 30, "g"), ("G8", 20, "g"),
    ("E1", 150, "e"), ("E2", 250, "e"),
    ("M1", 400, "m"), ("M2", 200, "m"),
]


def test_criterion_06_simulator_matches_enumerator():
    snap = make_snapshot(CALIBRATION_SPEC)
    hourly = [
        ConsensusSnapshot.from_relays(snap.valid_after + 3600 * i, snap.relays)
        for i in range(167)
    ]
    adversary = AdversarySpec(
        (AdversaryRelay(RoleHint.GUARD_LIKE, 300), AdversaryRelay(RoleHint.EXIT_LIKE, 100))
    )
    clients, circuits = 10_000, 1000
    start = time.perf_counter()
    records = run_simulation(
        hourly, adversary, Algorithm.ABWRS, clients=clients, seed=20150525,
        duration=circuits * 600,
    )
    elapsed = time.perf_counter() - start
    assert all(r.circuits_built == circuits for r in records)

    entry_probs = {
        fp: weight / 1000
        for fp, weight, role in CALIBRATION_SPEC
        if role == "g"
    }
    entry_probs[adversary.fingerprints[0]] = 300 / 1000
    p_any, mean = analytic_compromise(
        entry_probs, {adversary.fingerprints[0]}, adv_exit_prob=100 / 500,
        list_size=3, circuits=circuits,
    )
    observed_any = np.mean([r.circuits_compromised > 0 for r in records])
    se_any = math.sqrt(p_any * (1 - p_any) / clients)
    assert abs(observed_any - p_any) <= 3 * se_any, (observed_any, p_any, se_any)

    counts = np.array([r.circuits_compromised for r in records])
    se_mean = counts.std(ddof=1) / math.sqrt(clients)
    assert abs(counts.mean() - mean) <= 3 * se_mean, (counts.mean(), mean, se_mean)
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    ok(
        6,
        f"10000 clients x 1000 circuits in {elapsed:.1f}s; "
        f"compromised {observed_any:.4f} vs analytic {p_any:.4f} (3se {3 * se_any:.4f})",
    )


def test_criterion_07_adversary_weight_enters_totals_before_weights():
    snap = make_snapshot(CALIBRATION_SPEC)
    adversary = AdversarySpec(
        (AdversaryRelay(RoleHint.GUARD_LIKE, 300), AdversaryRelay(RoleHint.EXIT_LIKE, 100))
    )
    injected = inject_adversary(snap, adversary)
    assert injected.totals.G == snap.totals.G + 300
    assert injected.totals.E == snap.totals.E + 100
    assert injected.totals.M == snap.totals.M
    assert injected.totals.D == snap.totals.D
    before = compute_weights(snap.totals, classify_load_case(snap.totals)[0])
    after = compute_weights(injected.totals, classify_load_case(injected.totals)[0])
    assert before.Wgg != after.Wgg  # the injected bandwidth reshapes the weights

    # regression: the simulation classifies with the adversary included;
    # without injection these totals are an unsupported load case
    lopsided = make_snapshot(
        [("G1", 200, "g"), ("M1", 300, "m"), ("E1", 100, "e")]
    )
    assert classify_load_case(lopsided.totals)[0] is LoadCase.UNSUPPORTED
    heavy_guard = AdversarySpec((AdversaryRelay(RoleHint.GUARD_LIKE, 200),))
    records = run_simulation(
        [lopsided], heavy_guard, Algorithm.ABWRS, clients=5, seed=1, duration=1800
    )
    assert len(records) == 5  # would raise if weights ignored the adversary
    ok(7, "pool totals shift by exactly the injected weight before weighting")


def synthetic_heavy_tailed_consensus(seed=0):
    rng = np.random.default_rng(seed)
    guards = np.maximum(1, np.round((rng.pareto(1.15, 120) + 1.0) * 2000).astype(int))
    middles = np.maximum(1, np.round((rng.pareto(1.3, 50) + 1.0) * 1200).astype(int))
    exits = np.maximum(1, np.round((rng.pareto(1.3, 30) + 1.0) * 1500).astype(int))
    spec = [(f"G{i:03d}", int(w), "g") for i, w in enumerate(guards)]
    spec += [(f"M{i:03d}", int(w), "m") for i, w in enumerate(middles)]
    spec += [(f"E{i:03d}", int(w), "e") for i, w in enumerate(exits)]
    return make_snapshot(spec), int(guards.max()), int(exits.sum())


def test_criterion_08_waterfilling_beats_scalar_weights():
    snap, top_guard, exit_total = synthetic_heavy_tailed_consensus()
    assert len(snap.relays) == 200
    assert classify_load_case(snap.totals)[0] is LoadCase.CASE_3A
    adversary = AdversarySpec(
        (
            AdversaryRelay(RoleHint.GUARD_LIKE, int(top_guard * 1.25)),  # the top relay
            AdversaryRelay(RoleHint.EXIT_LIKE, max(1, exit_total // 4)),
        )
    )
    start = time.perf_counter()
    waterfilling_lower = 0
    last_comparison = None
    for seed in range(20):
        shared = dict(clients=200, seed=seed, duration=150 * 600)
        scalar = run_simulation([snap], adversary, Algorithm.ABWRS, **shared)
        filled = run_simulation([snap], adversary, Algorithm.WATERFILLING, **shared)
        f_scalar = np.mean([r.circuits_compromised > 0 for r in scalar])
        f_filled = np.mean([r.circuits_compromised > 0 for r in filled])
        if f_filled < f_scalar:
            waterfilling_lower += 1
        last_comparison = compare_runs(scalar, filled, horizon=150 * 600)
    elapsed = time.perf_counter() - start
    assert last_comparison.terminal_delta > 0  # scalar curve ends above
    assert last_comparison.verdict == "a_above"
    # one-sided sign test against H0 "ordering is a coin flip"
    trials = 20
    p_value = sum(math.comb(trials, k) for k in range(waterfilling_lower, trials + 1)) / 2.0**trials
    assert p_value < 0.01, f"waterfilling lower in only {waterfilling_lower}/20 runs"
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    ok(
        8,
        f"terminal compromise lower under waterfilling in {waterfilling_lower}/20 runs "
        f"(sign test p={p_value:.2e}) in {elapsed:.1f}s",
    )


def test_criterion_09_adversary_cost_arithmetic():
    # a solved instance whose water level lands exactly on 8710
    level, pivot = find_water_level([10_000, 8_000], Fraction(16_710))
    assert level == Fraction(8710) and pivot == 1
    cost = report_adversary_cost(level, 480_310, 0.622)
    assert cost.node_equivalents == 35  # ceil(298752.8 / 8710)
    assert cost.effective_guard_weight == pytest.approx(298_752.8, abs=0.1)
    assert report_adversary_cost(level, 8_710, 1).node_equivalents == 1
    assert report_adversary_cost(level, 2 * 8_710, 0.5).node_equivalents == 1
    ok(9, "480310 consensus weight at Wgg=0.622 equals 35 water-level relays")


def test_criterion_10_simulate_cli_byte_identical(tmp_path):
    snap = make_snapshot(CALIBRATION_SPEC)
    snapshots = tmp_path / "snapshots"
    snapshots.mkdir()
    (snapshots / "cons.snapshot").write_text(serialize_native(snap))
    adv = tmp_path / "adv.json"
    adv.write_text(
        '{"relays": [{"role": "guard", "consensus_weight": 300},'
        ' {"role": "exit", "consensus_weight": 100}]}'
    )
    runner = CliRunner()
    outputs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        result = runner.invoke(
            cli_main,
            [
                "simulate", "--snapshots", str(snapshots), "--adversary", str(adv),
                "--algo", "wf", "--clients", "100", "--seed", "444",
                "--out", str(out), "--duration", "30000",
            ],
        )
        assert result.exit_code == 0, result.output
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith(b"client_id,first_compromise_time,")
    ok(10, "simulate twice with identical flags: records.csv byte-identical")
