from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waterweights.consensus import ConsensusSnapshot, LoadCase, classify_load_case, parse_policy
from waterweights.errors import EmptyPoolError, NotApplicableError
from waterweights.waterfill import (
    Position,
    RelayShare,
    TargetPool,
    find_water_level,
    quantization_residual,
    selection_distribution,
    solve_dset_waterfill,
    solve_guard_waterfill,
    wfbw_lines,
)
from waterweights.weights import PositionWeights, compute_weights

from conftest import make_relay, make_snapshot, pareto_weights


def share_for(sol, fingerprint):
    """The solved share of one relay, or None when the solution omits it."""
    if fingerprint not in sol.fingerprints:
        return None
    return sol.shares[sol.fingerprints.index(fingerprint)]


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
        fractions = [s.fraction for s in sol.shares]
        assert fractions == [Fraction(1, 2), Fraction(5, 6), Fraction(1)]
        assert sol.conservation_residual == 0
        assert sol.target == Fraction(120)

    def test_derived_middle_weights(self):
        sol = solve_guard_waterfill(self.snapshot(), scalar_weights(Fraction(2, 3)))
        for share in sol.shares:
            assert share.weights["Wmg"] == 1 - share.weights["Wgg"]
            assert share.weights["Wgg"] == share.fraction

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
            assert {s.fingerprint: s.fraction for s in other.shares} == {
                s.fingerprint: s.fraction for s in base.shares
            }

    def test_equal_bandwidth_ties_get_identical_fractions(self):
        snap = make_snapshot([("B", 80, "g"), ("A", 80, "g"), ("C", 40, "g")])
        sol = solve_guard_waterfill(snap, scalar_weights(Fraction(1, 2)))
        # sorted by descending weight then fingerprint: A, B, C
        assert [s.fingerprint for s in sol.shares] == ["A", "B", "C"]
        assert share_for(sol, "A").fraction == share_for(sol, "B").fraction


class TestDsetWaterfill:
    def test_two_equal_duals(self):
        snap = make_snapshot([("D1", 50, "d"), ("D2", 50, "d")])
        w = dual_weights(Fraction(1, 2), Fraction(1, 5), Fraction(3, 10))
        sol = solve_dset_waterfill(snap, w)
        assert sol.target == Fraction(50)
        assert sol.water_level == Fraction(25)
        for share in sol.shares:
            assert share.fraction == Fraction(1, 2)
            assert share.weights["Wgd"] == Fraction(1, 5)
            assert share.weights["Wed"] == Fraction(3, 10)
            assert share.weights["Wmd"] == Fraction(1, 2)

    def test_full_end_share_is_identity(self):
        snap = make_snapshot([("D1", 90, "d"), ("D2", 30, "d")])
        w = dual_weights(Fraction(1, 2), Fraction(1, 4), Fraction(3, 4))
        sol = solve_dset_waterfill(snap, w)
        assert all(s.fraction == 1 for s in sol.shares)
        assert all(s.weights["Wmd"] == 0 for s in sol.shares)
        assert sol.water_level == Fraction(90)  # the largest dual relay

    def test_single_dual_keeps_combined_weight(self):
        snap = make_snapshot([("D1", 70, "d")])
        w = dual_weights(Fraction(1, 2), Fraction(1, 8), Fraction(1, 4))
        sol = solve_dset_waterfill(snap, w)
        assert sol.shares[0].fraction == Fraction(3, 8)  # Wgd + Wed exactly

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
        bws = [s.bandwidth for s in sol.shares]
        assert bws == sorted(bws, reverse=True)
        n = sol.pivot_index
        level = sol.water_level
        # plateau above the pivot, whole relays below it
        assert {s.fraction * s.bandwidth for s in sol.shares[:n]} == {level}
        assert all(s.fraction == 1 for s in sol.shares[n:])
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
        assert dist.as_dict() == {"G1": 0.25, "G2": 0.75}

    def test_waterfilled_entry_shifts_mass_to_small_relay(self):
        snap = make_snapshot([("G1", 100, "g"), ("G2", 300, "g")])
        w = scalar_weights(Fraction(160, 400))
        sol = solve_guard_waterfill(snap, w)
        # level 80 caps the big relay; both then contribute 80
        assert sol.water_level == Fraction(80)
        assert sol.pivot_index == 2
        dist = selection_distribution(snap, w, Position.ENTRY, waterfills=[sol])
        assert dist.as_dict() == {"G1": 0.5, "G2": 0.5}
        flat = selection_distribution(snap, w, Position.ENTRY)
        assert dist.as_dict()["G1"] > flat.as_dict()["G1"]

    def test_exit_policy_filtering(self):
        snap = make_snapshot([("E1", 100, "e"), ("G1", 50, "g")])
        w = scalar_weights(Fraction(1, 2))
        dist = selection_distribution(snap, w, Position.EXIT, stream=443)
        assert dist.as_dict() == {"E1": 1.0}

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
        probs = dist.as_dict()
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


# ---------------------------------------------------------------------------
# Exactness of the array form against the per-relay Fraction loop
# ---------------------------------------------------------------------------

def position_weight(relay, position, w, waterfills):
    """The per-relay weight factor, one Fraction at a time (the reference)."""
    guard, exit_ = relay.is_guard, relay.is_exit
    if guard and exit_:
        sol = waterfills.get(TargetPool.DSET)
        share = share_for(sol, relay.fingerprint) if sol else None
        if position is Position.ENTRY:
            return share.weights["Wgd"] if share else w.Wgd
        if position is Position.MIDDLE:
            return share.weights["Wmd"] if share else w.Wmd
        return share.weights["Wed"] if share else w.Wed
    if guard:
        sol = waterfills.get(TargetPool.GUARDS)
        share = share_for(sol, relay.fingerprint) if sol else None
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
    by_pool = {sol.pool: sol for sol in solutions}
    fingerprints, raw = [], []
    for relay in snapshot.relays:
        if port is not None and not relay.accepts_port(port):
            continue
        weight = relay.consensus_weight * position_weight(relay, position, w, by_pool)
        if weight > 0:
            fingerprints.append(relay.fingerprint)
            raw.append(float(weight))
    total = sum(raw)
    if total <= 0:
        return None
    return tuple(fingerprints), np.asarray(raw, dtype=np.float64) / total


def eager_shares(snapshot, sol):
    """The shares as the solver used to build them, straight from the relays."""
    dual = sol.pool is TargetPool.DSET
    relays = [r for r in snapshot.relays if r.is_guard and r.is_exit == dual]
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
        out.append(RelayShare(relay.fingerprint, bw, fraction, weights))
    return tuple(out)


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
            assert sol.shares == eager_shares(snapshot, sol)
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
