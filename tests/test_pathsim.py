import concurrent.futures
import dataclasses
import multiprocessing
import os
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waterweights.consensus import ConsensusSnapshot, RelayTable
from waterweights.errors import InvariantError, WaterweightsError
from waterweights import pathsim
from waterweights.pathsim import (
    AdversaryRelay,
    AdversarySpec,
    Algorithm,
    CompromiseRecord,
    DAY,
    RoleHint,
    StreamSchedule,
    inject_adversary,
    network_summaries,
    prepare_sequence,
    records_from_csv,
    records_to_csv,
    run_simulation,
    simulate_prepared,
)
from waterweights.stats import compromise_curve
from waterweights.waterfill import TargetPool

from conftest import (
    accepts_port,
    analytic_compromise,
    make_relay,
    make_snapshot,
    relays_conflict,
)


def adversary(guard_weights=(), exit_weights=()):
    relays = tuple(AdversaryRelay(RoleHint.GUARD_LIKE, w) for w in guard_weights) + tuple(
        AdversaryRelay(RoleHint.EXIT_LIKE, w) for w in exit_weights
    )
    return AdversarySpec(relays)


def traced(sequence, adversary, algorithm, clients, seed, *, duration=None, **kwargs):
    """One run that keeps every built circuit, for audits."""
    states = prepare_sequence(sequence, adversary, algorithm, duration)
    return simulate_prepared(states, clients, seed, collect=True, **kwargs)


def calibration_snapshot():
    """Guard pool 700 honest, exit pool 400 honest, middles 600: case 3a."""
    spec = [
        ("G1", 200, "g"), ("G2", 150, "g"), ("G3", 100, "g"), ("G4", 80, "g"),
        ("G5", 70, "g"), ("G6", 50, "g"), ("G7", 30, "g"), ("G8", 20, "g"),
        ("E1", 150, "e"), ("E2", 250, "e"),
        ("M1", 400, "m"), ("M2", 200, "m"),
    ]
    return make_snapshot(spec)


def mixed_sequence():
    """Two hours of a small 3a network: G3 leaves the guard pool in the
    second hour, and G1, G2 share a /16 with the exit E2, so a one-guard
    list holding either cannot build to E2."""
    relays = [
        make_relay("G1", 300, "g", subnet="10.1"),
        make_relay("G2", 200, "g", subnet="10.1"),
        make_relay("G3", 150, "g", subnet="10.2"),
        make_relay("G4", 120, "g", subnet="10.6"),
        make_relay("M1", 400, "m", subnet="10.3"),
        make_relay("M2", 200, "m", subnet="10.4"),
        make_relay("E1", 120, "e", subnet="10.5"),
        make_relay("E2", 80, "e", subnet="10.1"),
    ]
    first = ConsensusSnapshot.from_relays(0, relays)
    second = ConsensusSnapshot.from_relays(3600, [r for r in relays if r.fingerprint != "G3"])
    adv = adversary(guard_weights=(100,), exit_weights=(50,))
    return tuple(
        prepare_sequence([first, second], adv, Algorithm.WATERFILLING, duration=3 * 3600)
    )


MIXED = mixed_sequence()


def counts(trace) -> dict:
    return {k: v for k, v in vars(trace).items() if k not in ("records", "circuits", "periods")}


class TestAdversaryInjection:
    def test_totals_shift_by_exactly_the_injected_weight(self):
        snap = calibration_snapshot()
        adv = adversary(guard_weights=(300,), exit_weights=(100,))
        injected = inject_adversary(snap, adv)
        assert injected.totals.G == snap.totals.G + 300
        assert injected.totals.E == snap.totals.E + 100
        assert injected.totals.M == snap.totals.M
        assert injected.totals.D == snap.totals.D

    def test_join_time_gates_injection(self):
        snap = calibration_snapshot()
        joins_at = snap.valid_after + 7_200
        late = AdversarySpec((AdversaryRelay(RoleHint.GUARD_LIKE, 300, join_time=joins_at),))
        assert inject_adversary(snap, late).totals == snap.totals
        before = ConsensusSnapshot.from_relays(joins_at - 1, snap.relays)
        assert inject_adversary(before, late).totals == snap.totals
        at_join = ConsensusSnapshot.from_relays(joins_at, snap.relays)
        assert inject_adversary(at_join, late).totals.G == snap.totals.G + 300

    def test_adversary_relays_carry_distinct_subnets(self):
        adv = adversary(guard_weights=(10, 10), exit_weights=(10,))
        entries = adv.relay_entries(at_time=0)
        subnets = {r.subnet16 for r in entries}
        assert len(subnets) == 3

    def test_more_than_256_relays_keep_distinct_subnets(self):
        adv = adversary(guard_weights=(10,) * 256, exit_weights=(10,))
        entries = adv.relay_entries(at_time=0)
        assert len({r.subnet16 for r in entries}) == 257
        assert [r.subnet16 for r in entries[:256]] == [f"250.{i}" for i in range(256)]
        first, last = entries[0], entries[256]
        assert (first.fingerprint, last.fingerprint) == ("ADV000GUARD", "ADV256EXIT")
        assert not relays_conflict(first, last)

    def test_first_and_257th_relay_share_a_circuit(self):
        # every other adversary guard weighs 0, so ADV000GUARD is the only
        # guard and ADV256EXIT the only exit
        adv = adversary(guard_weights=(10,) + (0,) * 255, exit_weights=(10,))
        trace = traced([make_snapshot([("M1", 5, "m")])], adv, Algorithm.ABWRS, 3, 5, duration=600)
        assert counts(trace)["circuits_failed"] == 0
        assert len(trace.circuits) == 3
        assert {(c.guard, c.exit) for _, c in trace.circuits} == {("ADV000GUARD", "ADV256EXIT")}

    def test_from_json_dict_expands_count(self):
        adv = AdversarySpec.from_json_dict(
            {"relays": [{"role": "guard", "consensus_weight": 8710, "count": 35}]}
        )
        assert len(adv.relays) == 35
        assert all(r.consensus_weight == 8710 for r in adv.relays)
        assert len(set(adv.fingerprints)) == 35


class TestBuildCircuit:
    def test_unique_circuit_forced(self):
        snap = make_snapshot([("G1", 100, "g"), ("M1", 100, "m"), ("E1", 100, "e")])
        trace = traced([snap], AdversarySpec(), Algorithm.ABWRS, 4, 1)
        assert len(trace.circuits) == 4 * 6 and counts(trace)["circuits_failed"] == 0
        assert {(c.guard, c.middle, c.exit) for _, c in trace.circuits} == {("G1", "M1", "E1")}

    def test_impossible_middle_fails_after_bounded_attempts(self):
        relays = [
            make_relay("G1", 100, "g", subnet="10.0"),
            make_relay("M1", 100, "m", subnet="10.0"),  # same /16 as the only guard
            make_relay("E1", 100, "e", subnet="10.1"),
        ]
        snap = ConsensusSnapshot.from_relays(0, relays)
        trace = traced([snap], AdversarySpec(), Algorithm.ABWRS, 4, 1)
        assert trace.circuits == []
        assert counts(trace) == {
            "circuits_scheduled": 4 * 6,
            "streams_skipped": 0, "circuits_failed": 4 * 6, "circuits_failed_guard": 0,
            "circuits_failed_middle": 4 * 6, "guard_replacements": 0, "guard_rotations": 0,
        }

    def test_no_exit_for_port(self):
        from waterweights.consensus import parse_policy

        relays = [
            make_relay("G1", 100, "g"),
            make_relay("M1", 100, "m"),
            make_relay("E1", 100, "e", policy=parse_policy("accept:80;reject:*")),
        ]
        snap = ConsensusSnapshot.from_relays(0, relays)
        trace = traced([snap], AdversarySpec(), Algorithm.ABWRS, 4, 1)
        assert trace.circuits == []
        assert counts(trace)["streams_skipped"] == 4 * 6
        assert counts(trace)["circuits_failed"] == 0

    def test_expired_guard_is_rotated_before_use(self):
        # a one-guard list over 100 days, one circuit a day: each client's
        # guard expires once (deadlines fall 60 to 90 days out) and every
        # circuit is still built
        snap = make_snapshot([("G1", 100, "g"), ("G2", 100, "g"), ("M1", 100, "m"), ("E1", 100, "e")])
        trace = traced(
            [snap], AdversarySpec(), Algorithm.ABWRS, 5, 3, duration=100 * DAY,
            schedule=StreamSchedule(circuit_interval=DAY), num_entry_guards=1,
        )
        assert counts(trace)["guard_rotations"] == 5
        assert [r.circuits_built for r in trace.records] == [100] * 5

    def test_an_interval_of_sixty_days_rotates_in_one_pass(self, monkeypatch):
        # the longest interval accepted: every rotation leaves each slot's
        # deadline past the time it ran at, so no second pass is needed
        rotate, rotated = pathsim._rotate_expired, []

        def checked(slots, state, rng, now):
            rotated.append(rotate(slots, state, rng, now))
            assert all(deadline > now for _, deadline in slots)
            return rotated[-1]

        monkeypatch.setattr(pathsim, "_rotate_expired", checked)
        snap = make_snapshot([("G1", 100, "g"), ("G2", 100, "g"), ("M1", 100, "m"), ("E1", 100, "e")])
        trace = traced(
            [snap], AdversarySpec(), Algorithm.ABWRS, 5, 3, duration=400 * DAY,
            schedule=StreamSchedule(circuit_interval=pathsim.GUARD_ROTATION_MIN),
            num_entry_guards=2,
        )
        assert counts(trace)["guard_rotations"] == sum(rotated) > 0
        assert [r.circuits_built for r in trace.records] == [7] * 5  # days 0, 60, ..., 360

    def test_first_circuit_guard_matches_selection_probability(self):
        # adversary holds half the entry-position weight; with a single-entry
        # guard list the first circuit's guard follows the selection
        # distribution directly
        snap = calibration_snapshot()  # honest guards total 700
        adv = adversary(guard_weights=(700,))
        trace = traced(
            [snap], adv, Algorithm.ABWRS, clients=10_000, seed=99,
            schedule=StreamSchedule(circuit_interval=600),
            num_entry_guards=1, duration=600,  # exactly one circuit per client
        )
        first = {}
        for client_id, circuit in trace.circuits:
            first.setdefault(client_id, circuit)
        hits = sum(1 for c in first.values() if c.guard == adv.fingerprints[0])
        assert len(first) == 10_000
        assert abs(hits / 10_000 - 0.5) < 0.015


class TestRunSimulation:
    def test_no_adversary_means_no_compromise(self):
        records = run_simulation(
            [calibration_snapshot()], AdversarySpec(), Algorithm.ABWRS,
            clients=20, seed=5, duration=6000,
        )
        assert all(r.circuits_compromised == 0 for r in records)
        assert all(r.first_compromise_time is None for r in records)

    def test_total_adversary_compromises_first_circuit(self):
        snap = make_snapshot([("M1", 500, "m"), ("M2", 300, "m")])
        adv = adversary(guard_weights=(500, 400), exit_weights=(150, 100))
        records = run_simulation([snap], adv, Algorithm.ABWRS, clients=25, seed=11, duration=6000)
        assert all(r.first_compromise_time == 0 for r in records)
        assert all(r.circuits_compromised == r.circuits_built for r in records)

    def test_calibration_against_enumerator(self):
        snap = calibration_snapshot()
        adv = adversary(guard_weights=(300,), exit_weights=(100,))
        clients, circuits = 2000, 30
        records = run_simulation(
            [snap], adv, Algorithm.ABWRS, clients=clients, seed=42,
            duration=circuits * 600,
        )
        assert all(r.circuits_built == circuits for r in records)

        entry_probs = {f"G{i}": w / 1000 for i, w in
                       enumerate([200, 150, 100, 80, 70, 50, 30, 20], start=1)}
        entry_probs[adv.fingerprints[0]] = 300 / 1000
        adv_exit_prob = 100 / 500
        p_any, mean = analytic_compromise(
            entry_probs, {adv.fingerprints[0]}, adv_exit_prob, 3, circuits
        )
        observed_any = np.mean([r.circuits_compromised > 0 for r in records])
        se_any = np.sqrt(p_any * (1 - p_any) / clients)
        assert abs(observed_any - p_any) <= 3 * se_any

        counts = np.array([r.circuits_compromised for r in records])
        se_mean = counts.std(ddof=1) / np.sqrt(clients)
        assert abs(counts.mean() - mean) <= 3 * se_mean

    def test_deterministic_records(self):
        snap = calibration_snapshot()
        adv = adversary(guard_weights=(300,), exit_weights=(100,))
        kwargs = dict(clients=50, seed=123, duration=18_000)
        a = run_simulation([snap], adv, Algorithm.WATERFILLING, **kwargs)
        b = run_simulation([snap], adv, Algorithm.WATERFILLING, **kwargs)
        assert a == b

    def test_workers_do_not_change_results(self):
        snap = calibration_snapshot()
        adv = adversary(guard_weights=(300,), exit_weights=(100,))
        kwargs = dict(clients=40, seed=7, duration=12_000)
        sequential = run_simulation([snap], adv, Algorithm.ABWRS, workers=1, **kwargs)
        parallel = run_simulation([snap], adv, Algorithm.ABWRS, workers=3, **kwargs)
        assert sequential == parallel

    def test_repeated_identical_snapshots_merge(self):
        snap = calibration_snapshot()
        adv = adversary(guard_weights=(300,), exit_weights=(100,))
        hourly = [
            ConsensusSnapshot.from_relays(snap.valid_after + 3600 * i, snap.relays)
            for i in range(5)
        ]
        merged = run_simulation(hourly, adv, Algorithm.ABWRS, clients=10, seed=3)
        assert all(r.circuits_built == 30 for r in merged)  # 5h at 10min cadence
        # and the relay-list republication is equivalent to one long period
        single = run_simulation(
            [hourly[0]], adv, Algorithm.ABWRS, clients=10, seed=3, duration=5 * 3600
        )
        assert merged == single

    def test_adversary_joining_at_a_republished_list_is_injected(self):
        snap = make_snapshot([
            ("G1", 500, "g"), ("G2", 300, "g"), ("G3", 200, "g"),
            ("M1", 400, "m"), ("E1", 200, "e"), ("D1", 50, "d"),
        ])
        t = snap.valid_after
        again = ConsensusSnapshot.from_relays(t + 3600, snap.relays)
        adv = AdversarySpec((
            AdversaryRelay(RoleHint.GUARD_LIKE, 300, join_time=t + 3600),
            AdversaryRelay(RoleHint.EXIT_LIKE, 100, join_time=t + 3600),
        ))
        states = tuple(prepare_sequence([snap, again], adv, Algorithm.ABWRS))
        assert [(s.start, s.end) for s in states] == [(t, t + 3600), (t + 3600, t + 7200)]
        assert [int(s.adv_mask.sum()) for s in states] == [0, 2]

    def test_preparation_streams(self):
        # each snapshot is freed once the next one has fixed its period's end
        base = calibration_snapshot()
        adv = adversary(guard_weights=(300,), exit_weights=(100,))

        def hour(i):
            first = dataclasses.replace(base.relays[0], consensus_weight=200 + i)
            return ConsensusSnapshot.from_relays(
                base.valid_after + 3600 * i, (first, *base.relays[1:])
            )

        refs, alive = [], []

        def one_shot():
            for i in range(6):
                snap = hour(i)
                refs.append(weakref.ref(snap))
                yield snap
                del snap
                alive.append(sum(ref() is not None for ref in refs))

        states = tuple(prepare_sequence(one_shot(), adv, Algorithm.WATERFILLING))
        assert len(alive) == 6 and max(alive) <= 2, alive
        listed = tuple(
            prepare_sequence([hour(i) for i in range(6)], adv, Algorithm.WATERFILLING)
        )
        assert len(states) == len(listed) == 6
        for got, want in zip(states, listed):
            assert (got.start, got.end, got.summary()) == (want.start, want.end, want.summary())
            assert got.snapshot == want.snapshot
            assert np.array_equal(got.adv_mask, want.adv_mask)

    def test_each_state_comes_as_soon_as_its_period_ends(self):
        # the generator reads nothing before the first state is asked for,
        # and one snapshot past a state's period before it yields it
        base = calibration_snapshot()
        read = []

        def hours():
            for i in range(4):
                read.append(i)
                first = dataclasses.replace(base.relays[0], consensus_weight=200 + i)
                yield ConsensusSnapshot.from_relays(
                    base.valid_after + 3600 * i, (first, *base.relays[1:])
                )

        states = prepare_sequence(hours(), AdversarySpec(), Algorithm.ABWRS)
        assert read == []
        seen = []
        for state in states:
            seen.append((state.start - base.valid_after) // 3600)
            assert read == list(range(min(seen[-1] + 2, 4)))
        assert seen == [0, 1, 2, 3]

    def test_errors_come_as_the_states_are_read(self):
        early = calibration_snapshot()
        late = ConsensusSnapshot.from_relays(early.valid_after - 3600, early.relays)
        states = prepare_sequence([early, late], AdversarySpec(), Algorithm.ABWRS)
        with pytest.raises(WaterweightsError, match="chronological"):
            next(states)
        with pytest.raises(WaterweightsError, match="empty"):
            next(prepare_sequence([], AdversarySpec(), Algorithm.ABWRS))

    def test_different_relay_lists_at_one_time_rejected(self):
        relays = [make_relay(fp, 100, fp[0].lower()) for fp in ("G1", "G2", "G3", "M1", "E1")]
        first = ConsensusSnapshot.from_relays(1000, [r for r in relays if r.fingerprint != "G3"])
        second = ConsensusSnapshot.from_relays(1000, [r for r in relays if r.fingerprint != "G2"])
        for sequence in ([first, second], [first, first, second], [first, second, first]):
            with pytest.raises(WaterweightsError, match="valid_after 1000") as err:
                tuple(prepare_sequence(sequence, AdversarySpec(), Algorithm.ABWRS))
            assert err.value.exit_code == 2

    def test_prepared_sequence_stands_in_for_the_list(self):
        base = calibration_snapshot()
        later = ConsensusSnapshot.from_relays(base.valid_after + 3600, base.relays[1:])
        adv = adversary(guard_weights=(300,), exit_weights=(100,))
        args = ([base, later], adv, Algorithm.WATERFILLING)
        states = tuple(prepare_sequence(*args, duration=9000))
        assert [(s.start, s.end) for s in states] == [
            (base.valid_after, later.valid_after),
            (later.valid_after, base.valid_after + 9000),
        ]
        kwargs = dict(clients=20, seed=5)
        assert simulate_prepared(states, **kwargs).records == run_simulation(
            *args, duration=9000, **kwargs
        )
        audit = simulate_prepared(states, collect=True, **kwargs)
        assert audit.circuits == traced(*args, duration=9000, **kwargs).circuits
        summaries = [state.summary() for state in states]
        assert summaries == network_summaries(*args, 9000) == audit.periods
        streams = sum(len(StreamSchedule().stream_times(s.start, s.end)) for s in states)
        assert audit.circuits_scheduled == 20 * streams

    def test_unordered_sequence_rejected(self):
        early = calibration_snapshot()
        late = ConsensusSnapshot.from_relays(early.valid_after - 3600, early.relays)
        with pytest.raises(WaterweightsError, match="chronological"):
            run_simulation([early, late], AdversarySpec(), Algorithm.ABWRS, clients=1, seed=1)

    def test_unsupported_case_names_snapshot(self):
        # guard capacity scarce: unsupported load case
        snap = make_snapshot([("G1", 10, "g"), ("M1", 500, "m"), ("E1", 400, "e")])
        with pytest.raises(WaterweightsError, match=str(snap.valid_after)):
            run_simulation([snap], AdversarySpec(), Algorithm.ABWRS, clients=1, seed=1)

    def test_constraint_audit(self):
        # relays with shared subnets, families, and dual roles in one net
        relays = [
            make_relay("G1", 300, "g", subnet="10.1"),
            make_relay("G2", 200, "g", subnet="10.1"),
            make_relay("G3", 150, "g", subnet="10.2", family=frozenset({"M1"})),
            make_relay("D1", 100, "d", subnet="10.3"),
            make_relay("M1", 400, "m", subnet="10.2", family=frozenset({"G3"})),
            make_relay("M2", 200, "m", subnet="10.4"),
            make_relay("E1", 120, "e", subnet="10.5"),
            make_relay("E2", 80, "e", subnet="10.1"),
        ]
        snap = ConsensusSnapshot.from_relays(1_432_548_000, relays)
        adv = adversary(guard_weights=(100,), exit_weights=(50,))
        trace = traced(
            [snap], adv, Algorithm.WATERFILLING, clients=60, seed=17, duration=30_000
        )
        assert trace.circuits, "no circuits built"
        live = inject_adversary(snap, adv)
        by_fp = {r.fingerprint: r for r in live.relays}
        for _, circuit in trace.circuits:
            g, m, e = by_fp[circuit.guard], by_fp[circuit.middle], by_fp[circuit.exit]
            assert len({circuit.guard, circuit.middle, circuit.exit}) == 3
            assert not relays_conflict(g, m)
            assert not relays_conflict(g, e)
            assert not relays_conflict(m, e)
            assert "Guard" in g.flags
            assert accepts_port(e, 443)

    def test_guard_persistence_without_churn(self):
        snap = calibration_snapshot()
        trace = traced(
            [snap], AdversarySpec(), Algorithm.ABWRS, clients=30, seed=23, duration=60_000
        )
        per_client: dict[int, set] = {}
        for client_id, circuit in trace.circuits:
            per_client.setdefault(client_id, set()).add(circuit.guard)
        for guards in per_client.values():
            assert len(guards) <= 3

    def test_rotation_fires_past_the_deadline_window(self):
        # deadlines land in 60..90 days, so a 154-day horizon forces at least
        # one rotation per client while a 30-day horizon allows none
        snap = calibration_snapshot()
        schedule = StreamSchedule(circuit_interval=6 * 3600)
        counts = {}
        rotations = {}
        for days in (30, 154):
            trace = traced(
                [snap], AdversarySpec(), Algorithm.ABWRS, clients=10, seed=3,
                schedule=schedule, duration=days * 86_400,
            )
            per_client: dict[int, set] = {}
            for client_id, circuit in trace.circuits:
                per_client.setdefault(client_id, set()).add(circuit.guard)
            counts[days] = [len(s) for _, s in sorted(per_client.items())]
            rotations[days] = trace.guard_rotations
        assert all(c <= 3 for c in counts[30])
        assert all(later > early for early, later in zip(counts[30], counts[154]))
        assert rotations[30] == 0
        assert rotations[154] >= 10 * 3  # every first deadline falls within 90 days

    def test_case_3b_applies_both_waterfills(self):
        from waterweights.pathsim import network_summaries
        from fractions import Fraction
        from waterweights.consensus import classify_load_case
        from waterweights.consensus import LoadCase
        from waterweights.weights import compute_weights

        snap = case_3b_snapshot()
        case, _ = classify_load_case(snap.totals)
        assert case is LoadCase.CASE_3B
        # hand-derived: Wed=44/45, Wgd=Wmd=1/90, Wgg=7/8
        w = compute_weights(snap.totals, case)
        assert w.Wed == Fraction(44, 45)
        assert w.Wgg == Fraction(7, 8)
        summary = network_summaries([snap], AdversarySpec(), Algorithm.WATERFILLING)[0]
        assert summary["waterfill"]["guards"] == {"water_level": 675.0, "pivot_index": 2}
        assert summary["waterfill"]["dset"]["pivot_index"] == 1
        assert summary["waterfill"]["dset"]["water_level"] == pytest.approx(1750 / 3)
        records = run_simulation(
            [snap], AdversarySpec(), Algorithm.WATERFILLING, clients=10, seed=4, duration=6000
        )
        assert all(r.circuits_built == 10 for r in records)

    def test_churned_guard_not_used_after_flag_loss(self):
        base = [
            ("G1", 500, "g"), ("G2", 300, "g"), ("G3", 200, "g"),
            ("M1", 400, "m"), ("E1", 200, "e"),
        ]
        first = make_snapshot(base, valid_after=1000)
        # same network an hour later except G3 lost its Guard flag
        demoted = [
            make_relay(fp, w, "m" if fp == "G3" else role, subnet=f"10.{i}")
            for i, (fp, w, role) in enumerate(base)
        ]
        second = ConsensusSnapshot.from_relays(4600, demoted)
        trace = traced(
            [first, second], AdversarySpec(), Algorithm.ABWRS,
            clients=40, seed=31, duration=10_000,
        )
        used_late = {
            c.guard for _, c in trace.circuits if c.time >= second.valid_after
        }
        assert "G3" not in used_late
        used_early = {c.guard for _, c in trace.circuits if c.time < second.valid_after}
        assert "G3" in used_early  # the guard was in service before the flag loss


def case_3b_snapshot():
    """Case 3b: guard and dual pools both waterfill."""
    return make_snapshot(
        [("G0", 900, "g"), ("G1", 700, "g"), ("G2", 400, "g"),
         ("M0", 800, "m"), ("M1", 700, "m"), ("E0", 300, "e"),
         ("D0", 600, "d"), ("D1", 500, "d"), ("D2", 400, "d")]
    )


class TestNoNamesDecoded:
    @pytest.mark.parametrize("algorithm", [Algorithm.WATERFILLING, Algorithm.WATERFILLING_GE])
    def test_no_fingerprint_is_decoded_while_states_are_prepared_and_run(self, algorithm):
        # states solve their pools from bandwidths and rows alone, and the
        # clients' guard lists hold codes: only a printed name is decoded
        decode = RelayTable._names

        def names(table, column, *args, **kwargs):
            if column == "fingerprint":
                raise AssertionError("a fingerprint was decoded")
            return decode(table, column, *args, **kwargs)

        adv = adversary(guard_weights=(100,), exit_weights=(50,))
        for snap, pools in ((calibration_snapshot(), {TargetPool.GUARDS}),
                            (case_3b_snapshot(), {TargetPool.GUARDS, TargetPool.DSET})):
            with mock.patch.object(RelayTable, "_names", names):
                states = tuple(prepare_sequence([snap], adv, algorithm, duration=7200))
                trace = simulate_prepared(states, clients=6, seed=3, num_entry_guards=1)
            assert {sol.pool for state in states for sol in state.waterfills} == pools
            assert sum(r.circuits_built for r in trace.records) > 0


class TestRunCounts:
    def test_guard_constraint_failures_and_churn_are_counted(self):
        trace = simulate_prepared(MIXED, clients=30, seed=5, num_entry_guards=1)
        assert trace.circuits_failed_guard > 0
        assert trace.circuits_failed_middle == 0
        assert trace.circuits_failed == trace.circuits_failed_guard
        assert trace.guard_replacements > 0  # the clients that held G3
        assert trace.guard_rotations == 0

    def test_middle_constraint_failures_are_counted(self):
        relays = [
            make_relay("G1", 100, "g", subnet="10.0"),
            make_relay("M1", 100, "m", subnet="10.0"),  # same /16 as the only guard
            make_relay("E1", 100, "e", subnet="10.1"),
        ]
        snap = ConsensusSnapshot.from_relays(0, relays)
        states = prepare_sequence([snap], AdversarySpec(), Algorithm.ABWRS, duration=3000)
        trace = simulate_prepared(states, clients=4, seed=2)
        assert trace.circuits_failed == trace.circuits_failed_middle == 4 * 5
        assert trace.circuits_failed_guard == 0

    def test_dropped_guard_counts_a_replacement(self):
        base = [
            ("G1", 500, "g"), ("G2", 300, "g"), ("G3", 200, "g"),
            ("M1", 400, "m"), ("E1", 200, "e"),
        ]
        first = make_snapshot(base, valid_after=1000)
        # G3 is gone an hour later; every three-guard list held it
        second = make_snapshot([r for r in base if r[0] != "G3"], valid_after=4600)
        trace = traced(
            [first, second], AdversarySpec(), Algorithm.ABWRS,
            clients=40, seed=31, duration=10_000,
        )
        assert trace.guard_replacements == 40
        assert trace.guard_rotations == 0


    @pytest.mark.parametrize("guards", [1, 3])
    def test_guard_lists_keep_their_relays_when_every_row_shifts(self, guards):
        # the second snapshot republishes the first one's relays in reverse
        # order behind one new guard, so no relay keeps its row.  The names
        # are this test's own and the second list is coded first, so no
        # relay's row is its fingerprint code either
        spec = [("G1", 400, "g"), ("G2", 300, "g"), ("G3", 200, "g"), ("G4", 100, "g"),
                ("M1", 300, "m"), ("E1", 300, "e"), ("E2", 200, "e")]
        relays = [make_relay(f"shift-{fp}", w, role, subnet=f"10.{i}")
                  for i, (fp, w, role) in enumerate(spec)]
        second = ConsensusSnapshot.from_relays(
            3600, [make_relay("shift-G0", 500, "g", subnet="10.9"), *reversed(relays)]
        )
        first = ConsensusSnapshot.from_relays(0, relays)
        assert all(second.relays[i] != r for i, r in enumerate(relays))
        trace = traced(
            [first, second], AdversarySpec(), Algorithm.ABWRS, clients=20, seed=41,
            duration=7200, schedule=StreamSchedule(circuit_interval=60),
            num_entry_guards=guards,
        )
        held: dict[tuple[int, int], set] = {}
        for client_id, circuit in trace.circuits:
            held.setdefault((client_id, circuit.time // 3600), set()).add(circuit.guard)
        assert len(held) == 2 * 20
        for client_id in range(20):
            # every guard of the list was used in period 1, and is a guard relay
            assert len(held[client_id, 0]) == guards
            assert held[client_id, 0] <= {f"shift-G{i}" for i in range(1, 5)}
            assert held[client_id, 1] == held[client_id, 0]
        assert trace.guard_replacements == 0
        assert trace.guard_rotations == trace.circuits_failed == 0

    def test_a_list_size_past_every_table_allocates_only_the_table(self):
        # a list holds distinct relays of its period's table, so a size no
        # array could hold runs as any size above every table does: each
        # refill stops on its MAX_HOP_ATTEMPTS bound.  The second table is
        # the larger, so the lists widen after the first period
        base = [("G1", 300, "g"), ("G2", 200, "g"), ("M1", 400, "m"), ("E1", 200, "e")]
        first = make_snapshot(base, valid_after=0)
        second = make_snapshot(
            base + [("G3", 250, "g"), ("G4", 150, "g"), ("E2", 100, "e")], valid_after=3600
        )
        spec = adversary(guard_weights=(100,), exit_weights=(50,))

        def run(size):
            states = prepare_sequence([first, second], spec, Algorithm.ABWRS, duration=7200)
            return simulate_prepared(states, clients=3, seed=11, num_entry_guards=size)

        huge, large = run(10**18), run(10**4)
        assert huge.records == large.records
        assert counts(huge) == counts(large)
        assert sum(r.circuits_built for r in huge.records) > 0


class TestWorkers:
    def test_jobs_do_not_pickle_the_states(self, monkeypatch):
        def refuse(self, protocol):
            raise AssertionError("a NetworkState was pickled")

        serial = simulate_prepared(MIXED, clients=30, seed=8).records
        monkeypatch.setattr(pathsim.NetworkState, "__reduce_ex__", refuse)
        assert simulate_prepared(MIXED, clients=30, seed=8, workers=2).records == serial

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), clients=st.integers(1, 24))
    def test_records_and_counts_do_not_depend_on_workers(self, seed, clients):
        runs = [
            simulate_prepared(MIXED, clients, seed, num_entry_guards=1, workers=w)
            for w in (1, 2, 3)
        ]
        for run in runs[1:]:
            assert run.records == runs[0].records
            assert counts(run) == counts(runs[0])
            assert run.periods == runs[0].periods == [s.summary() for s in MIXED]

    def test_slot_is_cleared_after_a_run(self):
        simulate_prepared(MIXED, clients=8, seed=1, workers=2)
        assert pathsim._RUN is None

    def test_slot_is_cleared_when_a_worker_raises(self, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError(f"client failed in process {os.getpid()}")

        monkeypatch.setattr(pathsim, "_simulate_range", fail)
        with pytest.raises(RuntimeError, match="client failed in process") as err:
            simulate_prepared(MIXED, clients=8, seed=1, workers=2)
        assert str(err.value) != f"client failed in process {os.getpid()}"  # a worker's
        assert pathsim._RUN is None

    def test_without_fork_the_clients_run_serially(self, monkeypatch):
        serial = simulate_prepared(MIXED, clients=12, seed=4, num_entry_guards=1)

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was created")

        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        pooled = simulate_prepared(MIXED, clients=12, seed=4, num_entry_guards=1, workers=2)
        assert pooled.records == serial.records
        assert counts(pooled) == counts(serial)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(WaterweightsError, match="worker"):
            simulate_prepared(MIXED, clients=4, seed=1, workers=workers)

    def test_no_entry_guards_rejected(self):
        with pytest.raises(WaterweightsError, match="entry guard"):
            simulate_prepared(MIXED, clients=4, seed=1, num_entry_guards=0)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("arguments,problem", [
        (dict(clients=4, seed=-1), "seed must be at least 0, not -1"),
        (dict(clients=0, seed=1), "client"),
        (dict(clients=4, seed=1, num_entry_guards=0), "entry guard"),
        (
            dict(clients=4, seed=1, schedule=StreamSchedule(circuit_interval=60 * DAY + 1)),
            f"circuit interval {60 * DAY + 1} s is longer than the shortest guard lifetime",
        ),
    ])
    def test_arguments_are_checked_before_the_first_state(self, arguments, problem, workers):
        taken = []

        def states():
            taken.append(True)
            yield from MIXED

        with pytest.raises(WaterweightsError, match=problem):
            simulate_prepared(states(), workers=workers, **arguments)
        assert taken == []

    def test_the_pool_takes_the_states_from_a_generator(self):
        # the workers must not inherit the generator: each would read it anew
        serial = simulate_prepared(MIXED, clients=12, seed=6, num_entry_guards=1)
        pooled = simulate_prepared(
            (state for state in MIXED), clients=12, seed=6, num_entry_guards=1, workers=2
        )
        assert pooled.records == serial.records
        assert counts(pooled) == counts(serial)
        assert pooled.periods == serial.periods


class TestBatchComposition:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), guards=st.integers(1, 3), data=st.data())
    def test_a_client_does_not_depend_on_who_shares_its_batch(self, seed, guards, data):
        total = data.draw(st.integers(2, 24))
        n = data.draw(st.integers(1, total - 1))
        few = simulate_prepared(MIXED, n, seed, num_entry_guards=guards).records
        many = simulate_prepared(MIXED, total, seed, num_entry_guards=guards).records
        assert few == many[:n]

    @pytest.mark.parametrize("guards", [1, 2, 3])
    def test_collecting_circuits_changes_no_record_or_count(self, guards):
        kept = simulate_prepared(MIXED, 30, 5, num_entry_guards=guards, collect=True)
        plain = simulate_prepared(MIXED, 30, 5, num_entry_guards=guards)
        assert kept.records == plain.records
        assert counts(kept) == counts(plain)
        assert len(kept.circuits) == sum(r.circuits_built for r in plain.records)
        assert plain.guard_replacements > 0
        if guards == 1:
            assert plain.circuits_failed_guard > 0


class TestCompromiseCurve:
    def record(self, cid, t, built=10):
        return CompromiseRecord(cid, t, built, 1 if t is not None else 0)

    def test_all_at_zero(self):
        curve = compromise_curve([self.record(i, 0) for i in range(4)], horizon=30, resolution=10)
        assert curve.values.tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_none_compromised(self):
        curve = compromise_curve([self.record(i, None) for i in range(4)], 30, 10)
        assert curve.values.tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_two_steps(self):
        curve = compromise_curve([self.record(0, 10), self.record(1, 20)], 30, 10)
        assert curve.times.tolist() == [0, 10, 20, 30]
        assert curve.values.tolist() == [0.0, 0.5, 1.0, 1.0]

    def test_monotone_non_decreasing(self, rng):
        records = [
            self.record(i, int(t) if t >= 0 else None)
            for i, t in enumerate(rng.integers(-50, 100, size=40))
        ]
        curve = compromise_curve(records, horizon=100, resolution=7)
        assert (np.diff(curve.values) >= 0).all()
        assert ((curve.values >= 0) & (curve.values <= 1)).all()
        assert curve.times[-1] == 100  # horizon included even off the grid


class TestRecordsCsv:
    def test_roundtrip(self):
        records = [
            CompromiseRecord(0, None, 12, 0),
            CompromiseRecord(1, 600, 12, 3),
        ]
        assert records_from_csv(records_to_csv(records)) == records

    def test_sorted_by_client(self):
        records = [CompromiseRecord(5, None, 1, 0), CompromiseRecord(2, None, 1, 0)]
        text = records_to_csv(records)
        assert text.splitlines()[1].startswith("2,")

    def test_invariant_on_record(self):
        impossible = [
            (0, None, 5, 2), (0, 100, 5, 0),  # time and count disagree
            (0, -1, 5, 1), (0, 10, 2, 3), (0, None, 5, -1),
        ]
        for fields in impossible:
            with pytest.raises(InvariantError):
                CompromiseRecord(*fields)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_roundtrip_property(self, data):
        ids = data.draw(st.lists(st.integers(0, 10**6), unique=True, max_size=20))
        records = []
        for cid in ids:
            built = data.draw(st.integers(0, 10**4))
            compromised = data.draw(st.integers(0, built))
            first = data.draw(st.integers(0, 10**8)) if compromised else None
            records.append(CompromiseRecord(cid, first, built, compromised))
        text = records_to_csv(records)
        assert records_from_csv(text) == sorted(records, key=lambda r: r.client_id)
        assert records_to_csv(records_from_csv(text)) == text


class TestStreamSchedule:
    def test_interval_and_bounds(self):
        times = StreamSchedule(circuit_interval=600).stream_times(0, 3600)
        assert times.tolist() == [0, 600, 1200, 1800, 2400, 3000]
        schedule = StreamSchedule(circuit_interval=3600)
        assert schedule.stream_times(100, 7301).tolist() == [100, 3700, 7300]
        assert schedule.stream_times(0, 86_400).tolist() == [h * 3600 for h in range(24)]
        for start, end in ((5, 5), (5, 3)):
            empty = schedule.stream_times(start, end)
            assert empty.dtype == np.int64 and empty.size == 0

    def test_an_interval_past_64_bits_is_refused(self):
        assert StreamSchedule(circuit_interval=2**63 - 1).stream_times(0, 1).tolist() == [0]
        for interval in (2**63, 10**20):
            with pytest.raises(WaterweightsError, match=f"^circuit interval {interval} does not"):
                StreamSchedule(circuit_interval=interval)

    def test_a_start_past_64_bits_is_refused(self):
        with pytest.raises(WaterweightsError, match=f"^stream time {2**63 + 5} does not fit"):
            StreamSchedule().stream_times(2**63 + 5, 2**63 + 3600)

    def test_a_time_past_64_bits_is_refused_not_wrapped(self):
        schedule = StreamSchedule(circuit_interval=2**62)
        end = 1_000_000 + 3 * 2**62
        last = 1_000_000 + 2 * 2**62
        with pytest.raises(WaterweightsError, match=f"^stream time {last} does not fit"):
            schedule.stream_times(1_000_000, end)
        assert schedule.stream_times(1_000_000, end - 2**62).tolist() == [
            1_000_000, 1_000_000 + 2**62,
        ]

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.integers(-2**63, 2**63 - 1),
            st.integers(-2**63 - 5, -2**63 + 5),
            st.integers(2**63 - 5, 2**63 + 5),
            st.integers(-2**70, 2**70),
        ),
        st.one_of(st.integers(1, 1000), st.integers(1, 2**63 - 1)),
        st.integers(0, 20),
        st.data(),
    )
    def test_times_are_start_plus_k_intervals_or_refused(self, start, interval, count, data):
        # ``end`` lies past the last of ``count`` times, by at most one interval
        end = start + (count - 1) * interval + data.draw(st.integers(1, interval))
        if not count:
            end = start - data.draw(st.integers(0, 10))
        expected = [start + k * interval for k in range(count)]  # Python ints
        schedule = StreamSchedule(circuit_interval=interval)
        outside = [t for t in expected if not -2**63 <= t < 2**63]
        if outside:
            # the times rise: the first is named if it lies outside, else the last
            named = expected[0] if expected[0] in outside else expected[-1]
            with pytest.raises(WaterweightsError, match=f"^stream time {named} does not"):
                schedule.stream_times(start, end)
        else:
            times = schedule.stream_times(start, end)
            assert times.dtype == np.int64
            assert times.tolist() == expected

    def test_port_validation(self):
        assert StreamSchedule(destination_port=65_535).destination_port == 65_535
        with pytest.raises(InvariantError):
            StreamSchedule(destination_port=70_000)

    def test_schedule_validation(self):
        with pytest.raises(InvariantError):
            StreamSchedule(circuit_interval=0)
        with pytest.raises(InvariantError):
            StreamSchedule(destination_port=0)


class TestRecordsCsvErrors:
    def test_bad_line_reports_number(self):
        from waterweights.pathsim import RECORDS_HEADER

        with pytest.raises(WaterweightsError, match="line 2"):
            records_from_csv(RECORDS_HEADER + "\n1,notanumber,2,3\n")

    def test_missing_header(self):
        with pytest.raises(WaterweightsError, match="header"):
            records_from_csv("1,,2,0\n")

    def test_line_numbers_count_blank_lines(self):
        from waterweights.pathsim import RECORDS_HEADER

        with pytest.raises(WaterweightsError, match="line 4: client_id 1 repeats"):
            records_from_csv(RECORDS_HEADER + "\n1,,2,0\n\n1,,2,0\n")
