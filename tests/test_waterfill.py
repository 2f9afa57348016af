import json
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from waterweights.cli import _solution_json
from waterweights.consensus import ConsensusSnapshot, LoadCase, classify_load_case, parse_policy
from waterweights.errors import EmptyPoolError, NotApplicableError
from waterweights.waterfill import (
    Position,
    TargetPool,
    _round_half_even,
    find_water_level,
    quantization_residual,
    selection_distribution,
    solve_dset_waterfill,
    solve_guard_waterfill,
    wfbw_lines,
)
from waterweights.weights import SCALE, PositionWeights, compute_weights

from conftest import (
    accepts_port,
    is_exit,
    is_guard,
    make_relay,
    make_snapshot,
    pareto_weights,
    probabilities,
)


def share_for(sol, fingerprint):
    """The solved share of one relay, or None when the solution omits it."""
    if fingerprint not in sol.fingerprints:
        return None
    return sol.shares[sol.fingerprints.index(fingerprint)]


def kept_fractions(sol):
    """Each relay's exact kept fraction min(BW_i, L) / BW_i, in solved order."""
    level = sol.water_level
    return [min(Fraction(bw), level) / bw if bw else Fraction(1) for bw in sol.bandwidths]


def oracle_level(bws, target):
    """Independent water-level solver: walk the breakpoints of the monotone
    function phi(L) = sum(min(bw, L)) and solve the linear segment exactly."""
    target = Fraction(target)

    def phi(level):
        return sum(min(Fraction(bw), level) for bw in bws)

    lo = Fraction(0)
    hi = Fraction(max(bws))
    for v in sorted(set(bws)):
        if phi(Fraction(v)) >= target:
            hi = Fraction(v)
            break
        lo = Fraction(v)
    slope = sum(1 for bw in bws if bw > lo)
    level = lo + (target - phi(lo)) / slope
    assert lo < level <= hi
    assert phi(level) == target
    return level


def oracle_pivot(bws, level):
    return sum(1 for bw in bws if bw > level)


def scalar_weights(Wgg):
    Wgg = Fraction(Wgg)
    return PositionWeights(
        Wgg=Wgg, Wmg=1 - Wgg, Wee=Fraction(1), Wme=Fraction(0),
        Wgd=Fraction(0), Wmd=Fraction(0), Wed=Fraction(1),
    )


def dual_weights(Wgg, Wgd, Wed):
    Wgg, Wgd, Wed = Fraction(Wgg), Fraction(Wgd), Fraction(Wed)
    return PositionWeights(
        Wgg=Wgg, Wmg=1 - Wgg, Wee=Fraction(1), Wme=Fraction(0),
        Wgd=Wgd, Wmd=1 - Wgd - Wed, Wed=Wed,
    )


def entropy(p):
    p = np.asarray(p, dtype=float)
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


class TestFindWaterLevel:
    def test_hand_instance(self):
        level, pivot = find_water_level([100, 60, 20], Fraction(120))
        assert level == Fraction(50)
        assert pivot == 2

    def test_hand_instance_matches_oracle(self):
        level, pivot = find_water_level([100, 60, 20], Fraction(120))
        assert level == oracle_level([100, 60, 20], 120)
        assert pivot == oracle_pivot([100, 60, 20], level)

    def test_equal_nodes_share_equally(self):
        level, pivot = find_water_level([100, 100, 100], Fraction(240))
        assert level == Fraction(80)
        assert pivot == 3

    def test_single_node(self):
        level, pivot = find_water_level([100], Fraction(60))
        assert level == Fraction(60)
        assert pivot == 1

    def test_target_equal_to_total_is_identity(self):
        level, pivot = find_water_level([70, 30], Fraction(100))
        assert level == Fraction(70)
        assert pivot == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_random_instances_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        bws = sorted(pareto_weights(rng, int(rng.integers(2, 40)), 1.5), reverse=True)
        total = sum(bws)
        target = Fraction(int(rng.integers(1, total)), int(rng.integers(1, 4)))
        if target > total:
            target = Fraction(total)
        level, pivot = find_water_level(bws, target)
        assert level == oracle_level(bws, target)
        assert pivot == oracle_pivot(bws, level)
        # conservation, exactly
        kept = sum(min(Fraction(bw), level) for bw in bws)
        assert kept == target


class TestGuardWaterfill:
    def snapshot(self):
        return make_snapshot(
            [
                ("G1", 100, "g"), ("G2", 60, "g"), ("G3", 20, "g"),
                ("M1", 60, "m"), ("E1", 50, "e"), ("D1", 10, "d"),
            ]
        )

    def test_full_stack_hand_instance(self):
        snap = self.snapshot()
        case, _ = classify_load_case(snap.totals)
        assert case is LoadCase.CASE_3A
        w = compute_weights(snap.totals, case)
        assert w.Wgg == Fraction(2, 3)  # (180+60) / (2*180), target 120
        sol = solve_guard_waterfill(snap, w)
        assert sol.water_level == Fraction(50)
        assert sol.pivot_index == 2
        assert kept_fractions(sol) == [Fraction(1, 2), Fraction(5, 6), Fraction(1)]
        assert [s.fraction for s in sol.shares] == [0.5, float(Fraction(5, 6)), 1.0]
        assert [s.scaled for s in sol.shares] == [
            (("Wgg", 5000), ("Wmg", 5000)),
            (("Wgg", 8333), ("Wmg", 1667)),
            (("Wgg", 10000), ("Wmg", 0)),
        ]
        assert sol.conservation_residual == 0
        assert sol.target == Fraction(120)

    def test_derived_middle_weights(self):
        sol = solve_guard_waterfill(self.snapshot(), scalar_weights(Fraction(2, 3)))
        for share, kept in zip(sol.shares, kept_fractions(sol), strict=True):
            weights = dict(share.scaled)
            assert weights["Wgg"] == round(kept * SCALE)
            assert weights["Wmg"] == round((1 - kept) * SCALE)
            assert weights["Wgg"] + weights["Wmg"] == SCALE
            assert share.fraction == float(kept)

    def test_boundary_wgg_not_applicable(self):
        snap = self.snapshot()
        for Wgg in (0, 1):
            with pytest.raises(NotApplicableError):
                solve_guard_waterfill(snap, scalar_weights(Wgg))

    def test_empty_guard_pool_not_applicable(self):
        snap = make_snapshot([("E1", 10, "e"), ("M1", 10, "m")])
        with pytest.raises(NotApplicableError):
            solve_guard_waterfill(snap, scalar_weights(Fraction(1, 2)))

    def test_zero_weight_guard_kept_whole(self):
        snap = make_snapshot(
            [("G1", 100, "g"), ("G2", 60, "g"), ("G3", 20, "g"), ("GZ", 0, "g")]
        )
        sol = solve_guard_waterfill(snap, scalar_weights(Fraction(2, 3)))
        zero = share_for(sol, "GZ")
        assert zero.fraction == 1
        assert sol.water_level == Fraction(50)  # unchanged by the idle relay

    def test_permutation_invariance(self, rng):
        spec = [(f"G{i}", int(w), "g") for i, w in enumerate(pareto_weights(rng, 30, 1.3))]
        w = scalar_weights(Fraction(3, 5))
        base = solve_guard_waterfill(make_snapshot(spec), w)
        for _ in range(5):
            shuffled = list(spec)
            rng.shuffle(shuffled)
            other = solve_guard_waterfill(make_snapshot(shuffled), w)
            assert other.water_level == base.water_level
            assert other.pivot_index == base.pivot_index
            assert {s.fingerprint: s for s in other.shares} == {
                s.fingerprint: s for s in base.shares
            }

    def test_equal_bandwidth_ties_get_identical_fractions(self):
        snap = make_snapshot([("B", 80, "g"), ("A", 80, "g"), ("C", 40, "g")])
        sol = solve_guard_waterfill(snap, scalar_weights(Fraction(1, 2)))
        # sorted by descending weight then fingerprint: A, B, C
        assert [s.fingerprint for s in sol.shares] == ["A", "B", "C"]
        a, b = share_for(sol, "A"), share_for(sol, "B")
        assert (a.fraction, a.scaled) == (b.fraction, b.scaled)


class TestDsetWaterfill:
    def test_two_equal_duals(self):
        snap = make_snapshot([("D1", 50, "d"), ("D2", 50, "d")])
        w = dual_weights(Fraction(1, 2), Fraction(1, 5), Fraction(3, 10))
        sol = solve_dset_waterfill(snap, w)
        assert sol.target == Fraction(50)
        assert sol.water_level == Fraction(25)
        for share, kept in zip(sol.shares, kept_fractions(sol), strict=True):
            assert kept == Fraction(1, 2)
            assert kept * sol.end_share(Position.ENTRY) == Fraction(1, 5)
            assert kept * sol.end_share(Position.EXIT) == Fraction(3, 10)
            assert share.fraction == 0.5
            assert share.scaled == (("Wed", 3000), ("Wgd", 2000), ("Wmd", 5000))

    def test_full_end_share_is_identity(self):
        snap = make_snapshot([("D1", 90, "d"), ("D2", 30, "d")])
        w = dual_weights(Fraction(1, 2), Fraction(1, 4), Fraction(3, 4))
        sol = solve_dset_waterfill(snap, w)
        assert kept_fractions(sol) == [1, 1]
        assert all(s.fraction == 1.0 for s in sol.shares)
        assert [s.scaled for s in sol.shares] == [(("Wed", 7500), ("Wgd", 2500), ("Wmd", 0))] * 2
        assert sol.water_level == Fraction(90)  # the largest dual relay

    def test_single_dual_keeps_combined_weight(self):
        snap = make_snapshot([("D1", 70, "d")])
        w = dual_weights(Fraction(1, 2), Fraction(1, 8), Fraction(1, 4))
        sol = solve_dset_waterfill(snap, w)
        assert kept_fractions(sol) == [Fraction(3, 8)]  # Wgd + Wed exactly
        assert sol.shares[0].scaled == (("Wed", 2500), ("Wgd", 1250), ("Wmd", 6250))

    def test_zero_end_share_not_applicable(self):
        snap = make_snapshot([("D1", 70, "d")])
        w = dual_weights(Fraction(1, 2), 0, 0)
        with pytest.raises(NotApplicableError):
            solve_dset_waterfill(snap, w)

    def test_empty_pool_not_applicable(self):
        snap = make_snapshot([("G1", 10, "g")])
        with pytest.raises(NotApplicableError):
            solve_dset_waterfill(snap, dual_weights(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))


class TestConservationProperty:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_heavy_tailed_pools(self, seed):
        rng = np.random.default_rng(1000 + seed)
        size = int(rng.integers(10, 400))
        alpha = float(rng.uniform(1.0, 2.0))
        spec = [(f"G{i:04d}", w, "g") for i, w in enumerate(pareto_weights(rng, size, alpha))]
        snap = make_snapshot(spec)
        Wgg = Fraction(float(rng.uniform(0.05, 0.95)))
        sol = solve_guard_waterfill(snap, scalar_weights(Wgg))

        assert sol.conservation_residual == 0
        bws = list(sol.bandwidths)
        assert bws == sorted(bws, reverse=True)
        n = sol.pivot_index
        level = sol.water_level
        # plateau above the pivot, whole relays below it
        kept = [f * bw for f, bw in zip(kept_fractions(sol), bws)]
        assert set(kept[:n]) == {level}
        assert kept[n:] == bws[n:]
        assert sum(kept) == sol.target
        assert [s.bandwidth for s in sol.shares] == bws
        above = [float(level / bw) for bw in bws[:n]]
        assert [s.fraction for s in sol.shares] == above + [1.0] * (len(bws) - n)
        # boundary ordering
        assert level <= bws[0] if n == 0 else level <= bws[n - 1]
        if n < len(bws):
            assert bws[n] <= level
        assert level == oracle_level(bws, sol.target)


class TestEntropyDirection:
    @pytest.mark.parametrize("seed", range(10))
    def test_waterfilling_never_reduces_entry_entropy(self, seed):
        rng = np.random.default_rng(2000 + seed)
        size = int(rng.integers(10, 300))
        spec = [(f"G{i:04d}", w, "g") for i, w in enumerate(pareto_weights(rng, size, 1.2))]
        snap = make_snapshot(spec)
        w = scalar_weights(Fraction(float(rng.uniform(0.05, 0.95))))
        sol = solve_guard_waterfill(snap, w)
        flat = selection_distribution(snap, w, Position.ENTRY)
        filled = selection_distribution(snap, w, Position.ENTRY, waterfills=[sol])
        h_flat, h_filled = entropy(flat.probabilities), entropy(filled.probabilities)
        assert h_filled >= h_flat
        distinct = len({r.consensus_weight for r in snap.relays}) == len(snap.relays)
        if sol.pivot_index >= 1 and distinct:
            assert h_filled > h_flat


class TestSelectionDistribution:
    def test_scalar_entry_probabilities(self):
        snap = make_snapshot([("G1", 100, "g"), ("G2", 300, "g")])
        dist = selection_distribution(snap, scalar_weights(Fraction(1, 2)), Position.ENTRY)
        assert probabilities(dist) == {"G1": 0.25, "G2": 0.75}

    def test_waterfilled_entry_shifts_mass_to_small_relay(self):
        snap = make_snapshot([("G1", 100, "g"), ("G2", 300, "g")])
        w = scalar_weights(Fraction(160, 400))
        sol = solve_guard_waterfill(snap, w)
        # level 80 caps the big relay; both then contribute 80
        assert sol.water_level == Fraction(80)
        assert sol.pivot_index == 2
        dist = selection_distribution(snap, w, Position.ENTRY, waterfills=[sol])
        assert probabilities(dist) == {"G1": 0.5, "G2": 0.5}
        flat = selection_distribution(snap, w, Position.ENTRY)
        assert probabilities(dist)["G1"] > probabilities(flat)["G1"]

    def test_exit_policy_filtering(self):
        snap = make_snapshot([("E1", 100, "e"), ("G1", 50, "g")])
        w = scalar_weights(Fraction(1, 2))
        dist = selection_distribution(snap, w, Position.EXIT, stream=443)
        assert probabilities(dist) == {"E1": 1.0}

    def test_no_exit_accepts_port(self):
        snap = make_snapshot(
            [("E1", 100, "e"), ("G1", 50, "g")],
        )
        # replace E1's policy with one that rejects everything
        from waterweights.consensus import parse_policy
        from conftest import make_relay
        from waterweights.consensus import ConsensusSnapshot

        snap = ConsensusSnapshot.from_relays(
            0,
            [
                make_relay("E1", 100, "e", policy=parse_policy("reject:*")),
                make_relay("G1", 50, "g"),
            ],
        )
        with pytest.raises(EmptyPoolError):
            selection_distribution(snap, scalar_weights(Fraction(1, 2)), Position.EXIT, stream=443)

    def test_middle_includes_unflagged_fully(self):
        snap = make_snapshot([("G1", 100, "g"), ("M1", 100, "m"), ("E1", 100, "e")])
        w = dual_weights(Fraction(1, 2), Fraction(0), Fraction(1))
        dist = selection_distribution(snap, w, Position.MIDDLE)
        probs = probabilities(dist)
        # guard contributes 100*(1-Wgg)=50, middle 100, exit 100*Wme=0
        assert probs == {"G1": 50 / 150, "M1": 100 / 150}


class TestRendering:
    def test_wfbw_lines_quantized(self):
        snap = make_snapshot([("G1", 100, "g"), ("G2", 60, "g"), ("G3", 20, "g")])
        sol = solve_guard_waterfill(snap, scalar_weights(Fraction(2, 3)))
        lines = wfbw_lines(sol)
        assert lines[0] == "G1 wfbw Wgg=5000 Wmg=5000"
        assert lines[1] == "G2 wfbw Wgg=8333 Wmg=1667"
        assert lines[2] == "G3 wfbw Wgg=10000 Wmg=0"

    def test_quantization_residual_small(self):
        snap = make_snapshot([("G1", 100, "g"), ("G2", 60, "g"), ("G3", 20, "g")])
        sol = solve_guard_waterfill(snap, scalar_weights(Fraction(2, 3)))
        residual = quantization_residual(sol)
        # 8333/10000 * 60 vs exact 5/6 * 60: off by 60 * (1/3)/10000
        assert abs(residual) <= Fraction(1, 100)
        assert residual == Fraction(-1, 500)

    def test_dset_lines_carry_three_weights(self):
        snap = make_snapshot([("D1", 50, "d"), ("D2", 50, "d")])
        sol = solve_dset_waterfill(
            snap, dual_weights(Fraction(1, 2), Fraction(1, 5), Fraction(3, 10))
        )
        assert sol.pool is TargetPool.DSET
        line = wfbw_lines(sol)[0]
        assert line == "D1 wfbw Wed=3000 Wgd=2000 Wmd=5000"

    def test_guard_half_ties_round_to_even(self):
        # L = 8001, pivot 2: Ga keeps 8001/36576, so Wgg = 2187.5 and
        # Wmg = 7812.5 on the grid; Gb keeps 8001/20000, so Wgg = 4000.5 and
        # Wmg = 5999.5
        snap = make_snapshot([("Ga", 36576, "g"), ("Gb", 20000, "g"), ("Gc", 5000, "g")])
        sol = solve_guard_waterfill(snap, scalar_weights(Fraction(21002, 61576)))
        assert (sol.water_level, sol.pivot_index) == (8001, 2)
        halves = [part * SCALE for kept in kept_fractions(sol)[:2] for part in (kept, 1 - kept)]
        assert [h.denominator for h in halves] == [2] * 4
        assert {int(h) % 2 for h in halves} == {0, 1}  # k even and k odd in k + 1/2
        assert wfbw_lines(sol) == [
            "Ga wfbw Wgg=2188 Wmg=7812",
            "Gb wfbw Wgg=4000 Wmg=6000",
            "Gc wfbw Wgg=10000 Wmg=0",
        ]
        assert (wfbw_lines(sol), quantization_residual(sol)) == reference_rendering(snap, sol)

    def test_dual_half_ties_round_to_even(self):
        # L = 20, pivot 1; end shares 1/20000 and 19999/20000: a relay below
        # the pivot keeps everything, so Wgd = 0.5 and Wed = 9999.5 on the grid
        snap = make_snapshot([("D1", 30, "d"), ("D2", 10, "d"), ("D3", 10, "d")])
        sol = solve_dset_waterfill(
            snap, dual_weights(Fraction(1, 2), Fraction(1, 25000), Fraction(19999, 25000))
        )
        assert (sol.water_level, sol.pivot_index) == (20, 1)
        assert kept_fractions(sol)[1:] == [1, 1]
        below = [sol.end_share(position) * SCALE for position in (Position.ENTRY, Position.EXIT)]
        assert below == [Fraction(1, 2), Fraction(19999, 2)]
        lines = wfbw_lines(sol)
        assert lines[1:] == ["D2 wfbw Wed=10000 Wgd=0 Wmd=0", "D3 wfbw Wed=10000 Wgd=0 Wmd=0"]
        assert (lines, quantization_residual(sol)) == reference_rendering(snap, sol)


# ---------------------------------------------------------------------------
# Exactness of the array form against the per-relay Fraction loop
# ---------------------------------------------------------------------------

def position_weight(relay, position, w, shares):
    """The per-relay weight factor, one Fraction at a time (the reference).

    ``shares`` maps each solved pool to its ``eager_shares`` by fingerprint.
    """
    guard, exit_ = is_guard(relay), is_exit(relay)
    if guard and exit_:
        share = shares.get(TargetPool.DSET, {}).get(relay.fingerprint)
        if position is Position.ENTRY:
            return share.weights["Wgd"] if share else w.Wgd
        if position is Position.MIDDLE:
            return share.weights["Wmd"] if share else w.Wmd
        return share.weights["Wed"] if share else w.Wed
    if guard:
        share = shares.get(TargetPool.GUARDS, {}).get(relay.fingerprint)
        if position is Position.ENTRY:
            return share.weights["Wgg"] if share else w.Wgg
        if position is Position.MIDDLE:
            return share.weights["Wmg"] if share else w.Wmg
        return Fraction(0)
    if exit_:
        if position is Position.MIDDLE:
            return w.Wme
        if position is Position.EXIT:
            return w.Wee
        return Fraction(0)
    return Fraction(1) if position is Position.MIDDLE else Fraction(0)


def oracle_distribution(snapshot, w, position, solutions, port):
    """(fingerprints, probabilities) from the reference loop; None if empty."""
    by_pool = {
        sol.pool: {s.fingerprint: s for s in eager_shares(snapshot, sol)} for sol in solutions
    }
    fingerprints, raw = [], []
    for relay in snapshot.relays:
        if port is not None and not accepts_port(relay, port):
            continue
        weight = relay.consensus_weight * position_weight(relay, position, w, by_pool)
        if weight > 0:
            fingerprints.append(relay.fingerprint)
            raw.append(float(weight))
    total = sum(raw)
    if total <= 0:
        return None
    return tuple(fingerprints), np.asarray(raw, dtype=np.float64) / total


class ExactShare(NamedTuple):
    """One relay's exact kept fraction and weights (the oracle's row)."""

    fingerprint: str
    bandwidth: int
    fraction: Fraction
    weights: dict[str, Fraction]


def eager_shares(snapshot, sol):
    """Each relay's exact kept fraction and weights, straight from the relays."""
    dual = sol.pool is TargetPool.DSET
    relays = [r for r in snapshot.relays if is_guard(r) and is_exit(r) == dual]
    relays.sort(key=lambda r: (-r.consensus_weight, r.fingerprint))
    out = []
    for rank, relay in enumerate(relays, start=1):
        bw = relay.consensus_weight
        fraction = sol.water_level / bw if bw and rank <= sol.pivot_index else Fraction(1)
        if dual:
            w = sol.source_weights
            combined = w.Wgd + w.Wed
            weights = {
                "Wgd": fraction * w.Wgd / combined,
                "Wed": fraction * w.Wed / combined,
                "Wmd": 1 - fraction,
            }
        else:
            weights = {"Wgg": fraction, "Wmg": 1 - fraction}
        out.append(ExactShare(relay.fingerprint, bw, fraction, weights))
    return tuple(out)


def reference_rendering(snapshot, sol):
    """``wfbw`` lines and quantization residual by ``round(Fraction)``.

    Rounds each of ``eager_shares``' exact weights and fractions the way
    ``Fraction.__round__`` does: to the nearest integer, ties to even.
    """
    shares = eager_shares(snapshot, sol)
    lines = [
        f"{s.fingerprint} wfbw "
        + " ".join(f"{name}={round(value * SCALE)}" for name, value in sorted(s.weights.items()))
        for s in shares
    ]
    kept = sum((Fraction(round(s.fraction * SCALE), SCALE) * s.bandwidth for s in shares), Fraction(0))
    return lines, kept - sol.target


POLICIES = tuple(
    parse_policy(text)
    for text in ("accept:*", "accept:80,443;reject:*", "reject:443;accept:*", "reject:*")
)


def fractions_in(lo, hi):
    """Small rationals, or floats, whose exact values have huge denominators."""
    return st.one_of(
        st.fractions(min_value=lo, max_value=hi, max_denominator=1000),
        st.floats(min_value=lo, max_value=hi).map(Fraction),
    )


@st.composite
def weight_sets(draw):
    Wgg = draw(fractions_in(0, 1).filter(lambda f: 0 < f < 1))
    Wee = draw(fractions_in(0, 1))
    Wgd = draw(fractions_in(0, 1))
    Wed = draw(fractions_in(0, 1)) * (1 - Wgd)
    return PositionWeights(
        Wgg=Wgg, Wmg=1 - Wgg, Wee=Wee, Wme=1 - Wee, Wgd=Wgd, Wmd=1 - Wgd - Wed, Wed=Wed
    )


@st.composite
def snapshots(draw, names=tuple(f"R{i:02d}" for i in range(30))):
    chosen = draw(st.lists(st.sampled_from(names), unique=True, max_size=len(names)))
    relays = [
        make_relay(
            fp,
            draw(st.one_of(st.just(0), st.integers(1, 50), st.integers(1, 10**7))),
            draw(st.sampled_from("gmed")),
            policy=draw(st.sampled_from(POLICIES)),
        )
        for fp in chosen
    ]
    return ConsensusSnapshot.from_relays(0, relays)


def solve_all(snapshot, w):
    out = []
    for solve in (solve_guard_waterfill, solve_dset_waterfill):
        try:
            out.append(solve(snapshot, w))
        except NotApplicableError:
            pass
    return out


class TestArrayFormIsExact:
    def check(self, snapshot, w, solutions):
        for position, port in (
            (Position.ENTRY, None), (Position.MIDDLE, None),
            (Position.EXIT, 443), (Position.EXIT, 80),
        ):
            expected = oracle_distribution(snapshot, w, position, solutions, port)
            if expected is None:
                with pytest.raises(EmptyPoolError):
                    selection_distribution(snapshot, w, position, solutions, stream=port)
                continue
            got = selection_distribution(snapshot, w, position, solutions, stream=port)
            assert got.fingerprints == expected[0]
            assert got.probabilities.tobytes() == expected[1].tobytes()

    @settings(max_examples=150, deadline=None)
    @given(snapshots(), weight_sets())
    def test_own_solutions(self, snapshot, w):
        solutions = solve_all(snapshot, w)
        for sol in solutions:
            assert sol.conservation_residual == 0
        self.check(snapshot, w, solutions)
        self.check(snapshot, w, [])

    @settings(max_examples=50, deadline=None)
    @given(snapshots(), weight_sets())
    def test_solutions_from_another_snapshot(self, snapshot, w):
        # a solution applies only to the table it was solved on, even where
        # another snapshot lists the same relays
        twin = ConsensusSnapshot.from_relays(snapshot.valid_after, snapshot.relays)
        for sol in solve_all(snapshot, w):
            for position, port in ((Position.ENTRY, None), (Position.MIDDLE, None), (Position.EXIT, 443)):
                with pytest.raises(ValueError, match="another snapshot"):
                    selection_distribution(twin, w, position, [sol], stream=port)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(1, 10**9), min_size=1, max_size=60),
        st.integers(0, 5),
        fractions_in(0, 1).filter(lambda f: 0 < f < 1),
    )
    def test_level_and_residual_over_random_pools(self, bws, zeros, Wgg):
        spec = [(f"G{i:02d}", bw, "g") for i, bw in enumerate(bws + [0] * zeros)]
        sol = solve_guard_waterfill(make_snapshot(spec), scalar_weights(Wgg))
        assert sol.conservation_residual == 0
        assert sol.water_level == oracle_level(bws, sol.target)
        assert sol.pivot_index == oracle_pivot(bws, sol.water_level)
        assert sol.bandwidths == tuple(sorted(bws, reverse=True)) + (0,) * zeros


@st.composite
def half_tie_cases(draw):
    """A snapshot and weights whose grid weights sit exactly on k + 1/2.

    The top guard, of bandwidth 2 * SCALE * c, keeps the water level
    L = (2k + 1) * c, so its Wgg and Wmg are k + 1/2 and SCALE - k - 1/2 on
    the grid.  The dual pool splits its kept fraction (2a + 1) : (2 SCALE -
    2a - 1) between entry and exit, so every dual relay that keeps its whole
    bandwidth has Wgd = a + 1/2 and Wed = SCALE - a - 1/2.
    """
    c = draw(st.integers(1, 50))
    k = draw(st.integers(0, SCALE - 1))
    level = (2 * k + 1) * c
    rest = draw(st.lists(st.integers(1, level), max_size=8))
    guards = [2 * SCALE * c] + rest
    a = draw(st.integers(0, SCALE - 1))
    combined = draw(st.fractions(min_value=0, max_value=1, max_denominator=1000).filter(bool))
    entry = Fraction(2 * a + 1, 2 * SCALE)
    duals = draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=8))
    spec = [(f"G{i:02d}", bw, "g") for i, bw in enumerate(guards)]
    spec += [(f"D{i:02d}", bw, "d") for i, bw in enumerate(duals)]
    Wgg = Fraction(level + sum(rest), sum(guards))
    return make_snapshot(spec), dual_weights(Wgg, combined * entry, combined * (1 - entry))


def oracle_json_rows(snapshot, sol):
    """The ``waterfill`` JSON rows by ``float(Fraction)`` and ``round(Fraction)``."""
    return [
        {
            "fingerprint": s.fingerprint,
            "bandwidth": s.bandwidth,
            "fraction": float(s.fraction),
            "scaled_10000": {k: round(v * SCALE) for k, v in sorted(s.weights.items())},
        }
        for s in eager_shares(snapshot, sol)
    ]


@st.composite
def rounding_cases(draw):
    """(num, den) with den > 0 over wide ranges, and exact k + 1/2 ties."""
    wide = st.integers(-(10**40), 10**40)
    if draw(st.booleans()):
        m = draw(st.integers(1, 10**20))
        return (2 * draw(wide) + 1) * m, 2 * m  # (k + 1/2) * 2m / 2m
    return draw(wide), draw(st.integers(1, 10**40))


class TestRenderingIsExact:
    def check_rows(self, snapshot, sol):
        expected = oracle_json_rows(snapshot, sol)
        assert [
            (s.fingerprint, s.bandwidth, s.fraction, dict(s.scaled)) for s in sol.shares
        ] == [tuple(row.values()) for row in expected]
        assert all(type(s.fraction) is float for s in sol.shares)
        assert all(type(v) is int for s in sol.shares for _, v in s.scaled)
        # byte for byte, key order included
        assert json.dumps(_solution_json(sol)["relays"]) == json.dumps(expected)
        assert (wfbw_lines(sol), quantization_residual(sol)) == reference_rendering(snapshot, sol)

    @settings(max_examples=150, deadline=None)
    @given(snapshots(), weight_sets())
    def test_rows_and_json_match_the_fraction_oracle(self, snapshot, w):
        for sol in solve_all(snapshot, w):
            self.check_rows(snapshot, sol)

    @settings(max_examples=150, deadline=None)
    @given(half_tie_cases())
    def test_half_ties_in_rows_and_json_match_the_fraction_oracle(self, case):
        snapshot, w = case
        solutions = solve_all(snapshot, w)
        assert [sol.pool for sol in solutions] == [TargetPool.GUARDS, TargetPool.DSET]
        top = eager_shares(snapshot, solutions[0])[0]
        assert (top.weights["Wgg"] * SCALE).denominator == 2
        for sol in solutions:
            self.check_rows(snapshot, sol)

    @settings(max_examples=500, deadline=None)
    @given(rounding_cases())
    @example((5, 2)).via("2.5 rounds down to even")
    @example((7, 2)).via("3.5 rounds up to even")
    @example((-5, 2)).via("a negative tie")
    @example((0, 1)).via("zero")
    def test_round_half_even_matches_fraction_rounding(self, case):
        num, den = case
        assert _round_half_even(num, den) == round(Fraction(num, den))
