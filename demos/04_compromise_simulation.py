"""Time-to-first-compromise under a top-guard adversary.

Simulates the same clients under scalar weighting and under waterfilling
and prints the paired compromise curves: capping the top guard at the
water level is what defuses it.  Run: python demos/04_compromise_simulation.py
"""

import numpy as np

from waterweights.consensus import ConsensusSnapshot, RelayEntry, parse_policy
from waterweights.pathsim import (
    AdversaryRelay,
    AdversarySpec,
    Algorithm,
    RoleHint,
    run_simulation,
)
from waterweights.stats import compare_runs

rng = np.random.default_rng(11)


def relay(fp, weight, flags, subnet, policy="reject:*"):
    return RelayEntry(fp, fp.lower(), weight, frozenset(flags), parse_policy(policy), subnet16=subnet)


relays = []
for i, draw in enumerate(rng.pareto(1.15, 80) + 1.0):
    relays.append(relay(f"G{i:02d}", max(1, int(draw * 1500)), {"Guard", "Fast", "Stable"}, f"10.{i}"))
for i, draw in enumerate(rng.pareto(1.3, 40) + 1.0):
    relays.append(relay(f"M{i:02d}", max(1, int(draw * 900)), {"Fast"}, f"20.{i}"))
for i, draw in enumerate(rng.pareto(1.3, 25) + 1.0):
    relays.append(relay(f"E{i:02d}", max(1, int(draw * 1200)), {"Exit", "Fast"}, f"30.{i}", "accept:*"))
snapshot = ConsensusSnapshot.from_relays(1_432_548_000, relays)

top_guard = max(r.consensus_weight for r in relays if "Guard" in r.flags)
exit_total = sum(r.consensus_weight for r in relays if "Exit" in r.flags)
adversary = AdversarySpec(
    (
        AdversaryRelay(RoleHint.GUARD_LIKE, int(top_guard * 1.2)),
        AdversaryRelay(RoleHint.EXIT_LIKE, exit_total // 4),
    )
)
print(f"adversary guard weight {int(top_guard * 1.2)} (network top: {top_guard}), "
      f"adversary exit weight {exit_total // 4}")

horizon = 200 * 600  # 200 circuits per client at the 10-minute cadence
shared = dict(clients=400, seed=2015, duration=horizon)
scalar = run_simulation([snapshot], adversary, Algorithm.ABWRS, **shared)
filled = run_simulation([snapshot], adversary, Algorithm.WATERFILLING, **shared)

result = compare_runs(scalar, filled, horizon=horizon, resolution=horizon // 10)
print()
print("cumulative fraction of clients with a compromised circuit:")
print("   hours   scalar   waterfilling")
for t, a, b in zip(result.times, result.curve_a, result.curve_b):
    print(f"  {t / 3600:6.1f}   {a:.4f}   {b:.4f}")
print()
print(f"terminal difference (scalar - waterfilling): {result.terminal_delta:+.4f}")
low, high = result.delta_ci95
print(f"95% interval on that difference: [{low:+.4f}, {high:+.4f}]")
print(f"log-rank test on time to first compromise: {result.events_a} vs {result.events_b} "
      f"clients compromised, z = {result.z:+.2f}, p = {result.p_value:.2e}, "
      f"verdict: {result.verdict}")
