import tracemalloc

import numpy as np
import pytest

from waterweights.consensus import (
    ConsensusSnapshot,
    PoolTotals,
    RelayEntry,
    parse_policy,
    policy_accepts,
)

GUARD_FLAGS = frozenset({"Guard", "Fast", "Stable", "Running", "Valid"})
EXIT_FLAGS = frozenset({"Exit", "Fast", "Running", "Valid"})
DUAL_FLAGS = frozenset({"Guard", "Exit", "Fast", "Stable", "Running", "Valid"})
MIDDLE_FLAGS = frozenset({"Fast", "Running", "Valid"})

ACCEPT_ALL = parse_policy("accept:*")

_ROLE_FLAGS = {"g": GUARD_FLAGS, "e": EXIT_FLAGS, "d": DUAL_FLAGS, "m": MIDDLE_FLAGS}


def make_relay(fp, weight, role="g", policy=None, subnet=None, **kwargs):
    """Quick relay constructor; role is one of g/e/d/m."""
    if policy is None:
        policy = ACCEPT_ALL if role in ("e", "d") else parse_policy("reject:*")
    return RelayEntry(
        fingerprint=fp,
        nickname=f"nick{fp}",
        consensus_weight=weight,
        flags=_ROLE_FLAGS[role],
        exit_policy=policy,
        subnet16=subnet,
        **kwargs,
    )


def make_snapshot(spec, valid_after=1_432_548_000, distinct_subnets=True):
    """Build a snapshot from (fp, weight, role) triples."""
    relays = []
    for i, (fp, weight, role) in enumerate(spec):
        subnet = f"10.{i}" if distinct_subnets else "10.0"
        relays.append(make_relay(fp, weight, role, subnet=subnet))
    return ConsensusSnapshot.from_relays(valid_after, relays)


def is_guard(relay) -> bool:
    return "Guard" in relay.flags


def is_exit(relay) -> bool:
    return "Exit" in relay.flags


def accepts_port(relay, port: int) -> bool:
    return policy_accepts(relay.exit_policy, port)


def pool_of(relay) -> str:
    """Which of G/M/E/D a relay's weight counts toward."""
    if is_guard(relay):
        return "D" if is_exit(relay) else "G"
    return "E" if is_exit(relay) else "M"


def totals_of(relays) -> PoolTotals:
    """Totals summed relay by relay: the reference for ``RelayTable.totals``."""
    sums = {"G": 0, "M": 0, "E": 0, "D": 0}
    for relay in relays:
        sums[pool_of(relay)] += relay.consensus_weight
    return PoolTotals(**sums)


def probabilities(vector) -> dict[str, float]:
    """A ``ProbabilityVector`` as a fingerprint -> probability dict."""
    return dict(zip(vector.fingerprints, vector.probabilities.tolist()))


def traced_peak(call):
    """``(call(), peak, kept)``: the traced bytes allocated at the peak of the
    call, and those still held once it returns, past what was held before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
        return result, peak - before, kept - before
    finally:
        tracemalloc.stop()


def relays_conflict(a, b):
    """Whether two relays may not share a circuit, one pair at a time.

    The reference for ``RelayTable.conflict``: the same relay, either relay
    listing the other as family, or a shared /16 (unknown subnets never
    match).
    """
    if a.fingerprint == b.fingerprint:
        return True
    if b.fingerprint in a.family or a.fingerprint in b.family:
        return True
    return a.subnet16 is not None and a.subnet16 == b.subnet16


def pareto_weights(rng: np.random.Generator, size: int, alpha: float) -> list[int]:
    """Heavy-tailed positive integer consensus weights."""
    draws = rng.pareto(alpha, size=size) + 1.0
    return [max(1, int(round(x * 1000))) for x in draws]


def enumerate_guard_lists(entry_probs, list_size):
    """All ordered distinct draws from the entry distribution, with exact
    probabilities (each draw renormalized over the relays not yet chosen)."""
    outcomes = []

    def extend(chosen, probability, remaining_mass):
        if len(chosen) == list_size or len(chosen) == len(entry_probs):
            outcomes.append((tuple(chosen), probability))
            return
        for fp, p in entry_probs.items():
            if fp in chosen:
                continue
            extend(chosen + [fp], probability * p / remaining_mass, remaining_mass - p)

    extend([], 1.0, sum(entry_probs.values()))
    return outcomes


def analytic_compromise(entry_probs, adversary_guards, adv_exit_prob, list_size, circuits):
    """P(at least one compromised circuit) and E[compromised circuits].

    Brute-force oracle over guard-list outcomes: per circuit the guard slot
    is uniform over the list and the exit draw is independent, so with k
    adversary guards in a list of size L each circuit is compromised with
    probability (k / L) * adv_exit_prob, independently.
    """
    p_any = 0.0
    mean = 0.0
    for guards, prob in enumerate_guard_lists(entry_probs, list_size):
        k = sum(1 for fp in guards if fp in adversary_guards)
        per_circuit = (k / len(guards)) * adv_exit_prob
        p_any += prob * (1.0 - (1.0 - per_circuit) ** circuits)
        mean += prob * per_circuit * circuits
    return p_any, mean


@pytest.fixture
def rng():
    return np.random.default_rng(20150525)
