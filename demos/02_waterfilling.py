"""Per-relay waterfilling on a heavy-tailed guard pool.

Shows the water level, the pivot, and how selection probabilities flatten
compared to scalar weighting, plus the wfbw consensus lines a directory
would publish.  Run: python demos/02_waterfilling.py
"""

import numpy as np

from waterweights.consensus import ConsensusSnapshot, RelayEntry, classify_load_case, parse_policy
from waterweights.metrics import shannon_entropy
from waterweights.waterfill import Position, selection_distribution, solve_guard_waterfill, wfbw_lines
from waterweights.weights import compute_weights

rng = np.random.default_rng(7)

relays = []
for i, draw in enumerate(rng.pareto(1.2, 40) + 1.0):
    relays.append(
        RelayEntry(
            fingerprint=f"G{i:02d}",
            nickname=f"guard{i:02d}",
            consensus_weight=max(1, int(draw * 500)),
            flags=frozenset({"Guard", "Fast", "Stable"}),
            exit_policy=parse_policy("reject:*"),
            subnet16=f"10.{i}",
        )
    )
relays.append(
    RelayEntry("M00", "middle", 9000, frozenset({"Fast"}), parse_policy("reject:*"), subnet16="11.0")
)
relays.append(
    RelayEntry("E00", "exit", 4000, frozenset({"Exit", "Fast"}), parse_policy("accept:*"), subnet16="12.0")
)
snapshot = ConsensusSnapshot.from_relays(1_432_548_000, relays)

case, _ = classify_load_case(snapshot.totals)
weights = compute_weights(snapshot.totals, case)
solution = solve_guard_waterfill(snapshot, weights)

print(f"load case {case.value}, Wgg = {float(weights.Wgg):.4f}")
print(f"water level {float(solution.water_level):.1f}, "
      f"pivot {solution.pivot_index} of {len(solution.shares)} guards")
print(f"conservation residual: {float(solution.conservation_residual)}")
print()

print("rank bandwidth  kept-fraction  devoted-to-entry")
for rank, share in enumerate(solution.shares[:12], start=1):
    marker = "<- pivot" if rank == solution.pivot_index else ""
    print(f"{rank:4d} {share.bandwidth:9d}  {share.fraction:13.4f}"
          f"  {share.fraction * share.bandwidth:16.1f} {marker}")
print("...")
print()

flat = selection_distribution(snapshot, weights, Position.ENTRY)
filled = selection_distribution(snapshot, weights, Position.ENTRY, waterfills=[solution])
print(f"entry-selection entropy, scalar weights:  {shannon_entropy(flat.probabilities):.4f} bits")
print(f"entry-selection entropy, waterfilling:    {shannon_entropy(filled.probabilities):.4f} bits")
print(f"top guard selection probability: {flat.probabilities.max():.4f} -> "
      f"{filled.probabilities.max():.4f}")
print()

print("consensus lines for the first relays:")
for line in wfbw_lines(solution)[:5]:
    print("  " + line)
