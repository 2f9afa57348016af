import gc
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waterweights.consensus import (
    EXIT,
    ConsensusSnapshot,
    LoadCase,
    PoolTotals,
    classify_load_case,
    parse_native,
    parse_policy,
    parse_v3_subset,
    policy_accepts,
    serialize_native,
    snapshot_from_json,
    snapshot_to_json,
)
from waterweights.errors import (
    DegenerateNetworkError,
    DuplicateRelayError,
    InvariantError,
    ParseError,
)

from conftest import make_relay, make_snapshot, relays_conflict

NATIVE_TWO_RELAY = """\
snapshot 1432548000
relay AAAA alice 100 flags=Guard,Fast policy=reject:* subnet=1.2
relay BBBB bob 300 flags=Exit,Fast policy=accept:80,443;reject:* subnet=3.4 country=de as=3320
"""


class TestParseNative:
    def test_two_relay_totals(self):
        snap = parse_native(NATIVE_TWO_RELAY)
        assert snap.valid_after == 1432548000
        assert [r.fingerprint for r in snap.relays] == ["AAAA", "BBBB"]
        assert snap.totals == PoolTotals(G=100, M=0, E=300, D=0)

    def test_empty_relay_section(self):
        snap = parse_native("snapshot 12345\n")
        assert snap.relays == ()
        assert snap.totals == PoolTotals()
        assert snap.totals.T == 0

    def test_duplicate_fingerprint_names_both_lines(self):
        doc = (
            "snapshot 1\n"
            "relay XX a 10 flags=Guard\n"
            "relay XX b 20 flags=Exit\n"
        )
        with pytest.raises(DuplicateRelayError) as err:
            parse_native(doc)
        assert "line 3" in str(err.value)
        assert "line 2" in str(err.value)

    def test_malformed_line_reports_number(self):
        doc = "snapshot 1\nrelay onlytwo fields\n"
        with pytest.raises(ParseError, match="line 2"):
            parse_native(doc)

    def test_bad_weight_reports_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_native("snapshot 1\nrelay AA nick notanumber\n")

    def test_optional_fields_roundtrip(self):
        snap = parse_native(NATIVE_TWO_RELAY)
        bob = next(r for r in snap.relays if r.fingerprint == "BBBB")
        assert bob.country == "de"
        assert bob.as_number == 3320
        assert bob.accepts_port(443)
        assert not bob.accepts_port(25)

    def test_missing_header(self):
        with pytest.raises(ParseError, match="snapshot header"):
            parse_native("relay AA nick 5\n")


class TestRoundTrip:
    def test_serialize_then_parse_is_identity(self):
        snap = parse_native(NATIVE_TWO_RELAY)
        again = parse_native(serialize_native(snap))
        assert again == snap

    def test_roundtrip_preserves_unknown_flags(self):
        doc = "snapshot 7\nrelay AA a 5 flags=Guard,HSDir,V2Dir\n"
        snap = parse_native(doc)
        assert "HSDir" in snap.relays[0].flags
        assert parse_native(serialize_native(snap)) == snap
        # unknown flags never affect pool accounting
        assert snap.totals == PoolTotals(G=5)

    def test_json_roundtrip(self):
        snap = parse_native(NATIVE_TWO_RELAY)
        assert snapshot_from_json(snapshot_to_json(snap)) == snap

    def test_json_rejects_tampered_totals(self):
        text = snapshot_to_json(parse_native(NATIVE_TWO_RELAY))
        with pytest.raises(ParseError, match="totals"):
            snapshot_from_json(text.replace('"G": 100', '"G": 999'))

    @pytest.mark.parametrize("enabled", [True, False])
    def test_json_parse_leaves_the_collector_as_it_found_it(self, enabled):
        text = snapshot_to_json(parse_native(NATIVE_TWO_RELAY))
        (gc.enable if enabled else gc.disable)()
        try:
            snapshot_from_json(text)
            assert gc.isenabled() is enabled
            with pytest.raises(ParseError):
                snapshot_from_json(text.replace('"G": 100', '"G": 999'))
            assert gc.isenabled() is enabled
        finally:
            gc.enable()


class TestPoolPartition:
    @pytest.mark.parametrize("role,pool", [("g", "G"), ("m", "M"), ("e", "E"), ("d", "D")])
    def test_each_relay_lands_in_one_pool(self, role, pool):
        relay = make_relay("FP", 42, role)
        assert relay.pool() == pool
        totals = PoolTotals.from_relays([relay])
        assert getattr(totals, pool) == 42
        assert totals.T == 42

    def test_partition_is_exhaustive(self, rng):
        roles = rng.choice(["g", "m", "e", "d"], size=50)
        weights = rng.integers(0, 1000, size=50)
        relays = [make_relay(f"R{i}", int(w), r) for i, (w, r) in enumerate(zip(weights, roles))]
        totals = PoolTotals.from_relays(relays)
        assert totals.T == sum(int(w) for w in weights)

    def test_from_relays_walks_the_relays_once(self):
        # a one-shot iterator: a second pass over it would see no relay
        relays = [make_relay(f"R{i}", 10 * i, "gmed"[i % 4]) for i in range(8)]
        snap = ConsensusSnapshot.from_relays(0, iter(relays))
        assert snap.relays == tuple(relays)
        assert snap.totals == PoolTotals.from_relays(relays) == PoolTotals(G=40, M=60, E=80, D=100)


class TestParseV3:
    MINIMAL = """\
valid-after 2015-05-25 10:00:00
r nick1 AAAA dig 2015-05-25 08:00:00 1.2.3.4 9001 0
s Fast Guard Running Valid
w Bandwidth=20
p reject 25
"""

    def test_minimal_router(self):
        snap = parse_v3_subset(self.MINIMAL)
        assert len(snap.relays) == 1
        relay = snap.relays[0]
        assert relay.consensus_weight == 20
        assert relay.subnet16 == "1.2"
        assert relay.flags == frozenset({"Fast", "Guard", "Running", "Valid"})
        assert relay.accepts_port(443)
        assert not relay.accepts_port(25)
        # 2015-05-25 10:00:00 UTC
        assert snap.valid_after == 1432548000

    def test_guard_exit_counts_in_dual_pool(self):
        doc = (
            "valid-after 2015-01-01 00:00:00\n"
            "r nick AAAA dig 2015-01-01 00:00:00 1.2.3.4 9001 0\n"
            "s Exit Guard Running\n"
            "w Bandwidth=77\n"
        )
        snap = parse_v3_subset(doc)
        assert snap.totals == PoolTotals(D=77)

    @pytest.mark.parametrize("bandwidth", [-1, 2**63])
    def test_bandwidth_outside_int64_is_a_parse_error(self, bandwidth):
        doc = self.MINIMAL.replace("Bandwidth=20", f"Bandwidth={bandwidth}")
        with pytest.raises(ParseError, match="line 4"):
            parse_v3_subset(doc)

    def test_largest_int64_bandwidth_is_exact(self):
        snap = parse_v3_subset(self.MINIMAL.replace("Bandwidth=20", f"Bandwidth={2**63 - 1}"))
        assert snap.totals.G == 2**63 - 1

    def test_missing_w_defaults_zero_with_warning(self):
        doc = (
            "valid-after 2015-01-01 00:00:00\n"
            "r nick AAAA dig 2015-01-01 00:00:00 1.2.3.4 9001 0\n"
            "s Guard\n"
        )
        warnings = []
        snap = parse_v3_subset(doc, warnings=warnings)
        assert snap.relays[0].consensus_weight == 0
        assert len(warnings) == 1
        assert "AAAA" in warnings[0]

    def test_unknown_lines_ignored(self):
        doc = self.MINIMAL + "directory-footer\nbandwidth-weights Wgg=5000\n"
        snap = parse_v3_subset(doc)
        assert len(snap.relays) == 1

    def test_missing_valid_after(self):
        with pytest.raises(ParseError, match="valid-after"):
            parse_v3_subset("r nick AAAA dig 2015-01-01 00:00:00 1.2.3.4 9001 0\n")

    def test_r_line_field_count(self):
        doc = "valid-after 2015-01-01 00:00:00\nr nick AAAA 1.2.3.4 9001 0\n"
        with pytest.raises(ParseError, match="line 2"):
            parse_v3_subset(doc)

    def test_duplicate_router(self):
        doc = (
            "valid-after 2015-01-01 00:00:00\n"
            "r nick AAAA dig 2015-01-01 00:00:00 1.2.3.4 9001 0\n"
            "r nick2 AAAA dig 2015-01-01 00:00:00 5.6.7.8 9001 0\n"
        )
        with pytest.raises(DuplicateRelayError):
            parse_v3_subset(doc)


class TestGoldenFiles:
    """Frozen fixtures: any parser or rendering change shows up as a diff."""

    def test_v3_document_matches_golden_json(self):
        from pathlib import Path

        data = Path(__file__).parent / "data"
        warnings = []
        snap = parse_v3_subset((data / "mini_status_v3.txt").read_text(), warnings=warnings)
        assert snapshot_to_json(snap) == (data / "mini_status_v3.expected.json").read_text()
        assert warnings == [
            "router DDDD33 (line 14) has no w line; consensus weight defaults to 0"
        ]
        assert snap.totals == PoolTotals(G=4130, M=0, E=2200, D=910)


class TestClassifyLoadCase:
    def test_case_3a(self):
        # E+D = 150 < 950/3 and G > M
        case, detail = classify_load_case(PoolTotals(G=500, M=300, E=100, D=50))
        assert case is LoadCase.CASE_3A
        assert detail == ""

    def test_case_3b(self):
        # E = 100 < 350 = T/3 <= E+D = 350
        case, _ = classify_load_case(PoolTotals(G=400, M=300, E=100, D=250))
        assert case is LoadCase.CASE_3B

    def test_balanced_symmetric(self):
        case, _ = classify_load_case(PoolTotals(G=100, M=100, E=100, D=0))
        assert case is LoadCase.BALANCED

    def test_unsupported_carries_reason(self):
        # exit scarce but G <= M: the unimplemented 3a subcase
        case, detail = classify_load_case(PoolTotals(G=300, M=500, E=100, D=50))
        assert case is LoadCase.UNSUPPORTED
        assert "guard pool" in detail

    def test_guard_scarce_unsupported(self):
        case, detail = classify_load_case(PoolTotals(G=10, M=500, E=400, D=0))
        assert case is LoadCase.UNSUPPORTED
        assert "guard capacity" in detail

    def test_degenerate_network(self):
        with pytest.raises(DegenerateNetworkError):
            classify_load_case(PoolTotals())

    def test_total_and_deterministic(self, rng):
        for _ in range(300):
            g, m, e, d = (int(x) for x in rng.integers(0, 10_000, size=4))
            if g + m + e + d == 0:
                continue
            totals = PoolTotals(G=g, M=m, E=e, D=d)
            first = classify_load_case(totals)
            assert first == classify_load_case(totals)
            assert first[0] in LoadCase


class TestExitPolicy:
    def test_first_match_wins(self):
        policy = parse_policy("reject:80;accept:1-100;reject:*")
        assert not policy_accepts(policy, 80)
        assert policy_accepts(policy, 99)
        assert not policy_accepts(policy, 443)

    def test_terminal_rule_appended(self):
        policy = parse_policy("accept:443")
        assert policy_accepts(policy, 443)
        assert not policy_accepts(policy, 80)

    def test_snapshot_requires_unique_fingerprints(self):
        with pytest.raises(DuplicateRelayError):
            ConsensusSnapshot.from_relays(
                0, [make_relay("A", 1, "g"), make_relay("A", 2, "e")]
            )

    def test_snapshot_order_preserved(self):
        snap = make_snapshot([("C", 1, "g"), ("A", 2, "e"), ("B", 3, "m")])
        assert [r.fingerprint for r in snap.relays] == ["C", "A", "B"]


# Fingerprints a family may name: the first few are in the relay list, the
# rest (and the X ones) are absent, so families can be one-sided, name the
# relay itself, name relays missing from the snapshot, or be empty.
FAMILY_NAMES = [f"R{i}" for i in range(8)] + ["X0", "X1"]


@st.composite
def relay_lists(draw):
    count = draw(st.integers(min_value=0, max_value=7))
    return [
        make_relay(
            f"R{i}",
            1,
            "m",
            subnet=draw(st.sampled_from([None, "1.1", "1.2", "2.1"])),
            family=draw(st.frozensets(st.sampled_from(FAMILY_NAMES), max_size=4)),
        )
        for i in range(count)
    ]


def table_of(relays):
    return ConsensusSnapshot.from_relays(0, relays).table


def reference_matrix(rows, cols):
    return np.array(
        [[relays_conflict(a, b) for b in cols] for a in rows], dtype=bool
    ).reshape(len(rows), len(cols))


class TestConflictIndex:
    """``RelayTable.conflict`` against the pairwise reference."""

    @settings(max_examples=200, deadline=None)
    @given(relay_lists())
    def test_elementwise_matches_reference(self, relays):
        table = table_of(relays)
        every = np.arange(len(relays))
        expected = reference_matrix(relays, relays)
        assert np.array_equal(table.conflict(every[:, None], every[None, :]), expected)
        a, b = np.repeat(every, len(relays)), np.tile(every, len(relays))
        assert np.array_equal(table.conflict(a, b), expected.ravel())

    @settings(max_examples=200, deadline=None)
    @given(relay_lists(), st.data())
    def test_matrix_matches_reference(self, relays, data):
        # rows and columns may repeat a relay
        table = table_of(relays)
        axis = st.lists(st.integers(0, max(len(relays) - 1, 0)), max_size=10 if relays else 0)
        rows = np.array(data.draw(axis), dtype=np.int64)
        cols = np.array(data.draw(axis), dtype=np.int64)
        expected = reference_matrix([relays[i] for i in rows], [relays[j] for j in cols])
        assert np.array_equal(table.conflict(rows[:, None], cols[None, :]), expected)

    def test_family_declared_on_one_side_only(self):
        relays = [
            make_relay("A", 1, "g", subnet="1.1", family=frozenset({"B", "GONE"})),
            make_relay("B", 1, "e", subnet="2.2"),
        ]
        table = table_of(relays)
        assert table.conflict(0, 1) and table.conflict(1, 0)
        assert table.conflict(np.array([[1]]), np.array([[0]])).tolist() == [[True]]

    def test_unknown_subnets_never_match(self):
        table = table_of([make_relay("A", 1, "g"), make_relay("B", 1, "e")])
        every = np.arange(2)
        assert table.conflict(every[:, None], every).tolist() == [[True, False], [False, True]]

    @pytest.mark.parametrize("family", [frozenset(), frozenset({"B"})])
    def test_broadcast_axes_may_repeat_a_relay(self, family):
        table = table_of([make_relay("A", 1, "g", family=family), make_relay("B", 1, "e")])
        related = bool(family)
        rows, cols = np.array([0, 0, 1]), np.array([1, 1, 0, 0])
        assert table.conflict(rows[:, None], cols[None, :]).tolist() == [
            [related, related, True, True],
            [related, related, True, True],
            [True, True, related, related],
        ]


POLICY_TEXTS = ["accept:*", "reject:*", "accept:80,443;reject:*", "reject:443;accept:1-1024"]


class TestSnapshotColumns:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 10**12), st.sampled_from("gmed"), st.sampled_from(POLICY_TEXTS)),
            max_size=12,
        ),
        st.integers(1, 65535),
    )
    def test_columns_match_the_relays(self, spec, port):
        relays = [
            make_relay(f"R{i}", weight, role, policy=parse_policy(text))
            for i, (weight, role, text) in enumerate(spec)
        ]
        cols = ConsensusSnapshot.from_relays(0, relays).table
        assert cols.fingerprints == tuple(r.fingerprint for r in relays)
        assert cols.weights.tolist() == [r.consensus_weight for r in relays]
        assert all(type(w) is int for w in cols.weights.tolist())
        assert cols.guard.tolist() == [r.is_guard for r in relays]
        assert ((cols.pool & EXIT) != 0).tolist() == [r.is_exit for r in relays]
        assert cols.accepts(port).tolist() == [r.accepts_port(port) for r in relays]
        assert len(cols.policies) == len({r.exit_policy for r in relays})

    @pytest.mark.parametrize("render", [serialize_native, snapshot_to_json])
    def test_parsers_share_one_parsed_policy_per_text(self, render):
        web = parse_policy("accept:80,443;reject:*")
        snap = ConsensusSnapshot.from_relays(0, [
            make_relay("A", 5, "e", policy=web),
            make_relay("B", 6, "e", policy=parse_policy("accept:80,443;reject:*")),
            make_relay("C", 7, "d"),
        ])
        parse = parse_native if render is serialize_native else snapshot_from_json
        a, b, c = parse(render(snap)).relays
        assert a.exit_policy == web and a.exit_policy is b.exit_policy
        assert c.exit_policy == parse_policy("accept:*")


def one_relay_document(**fields):
    """A valid two-relay snapshot document with ``fields`` set on relay 1."""
    snap = ConsensusSnapshot.from_relays(100, [
        make_relay("AAAA", 10, "g", subnet="1.1", country="de", as_number=3320),
        make_relay("BBBB", 20, "e", subnet="2.2", family=frozenset({"AAAA"})),
    ])
    doc = json.loads(snapshot_to_json(snap))
    del doc["totals"]
    doc["relays"][1].update(fields)
    return doc


class TestJsonFieldTypes:
    """Wrong-typed fields are rejected, naming the relay and the field."""

    def test_the_fixture_parses(self):
        snap = snapshot_from_json(json.dumps(one_relay_document()))
        assert snap.totals == PoolTotals(G=10, E=20)

    @pytest.mark.parametrize("field,value", [
        ("consensus_weight", 1.7),
        ("consensus_weight", "12"),
        ("consensus_weight", True),
        ("flags", "Guard"),
        ("flags", ["Guard", 1]),
        ("family", "BC"),
        ("exit_policy", {"accept:*": 1}),
        ("subnet16", 12),
        ("country", 49),
        ("as_number", "3320"),
        ("as_number", True),
        ("as_number", 3320.0),
        ("fingerprint", None),
        ("nickname", 5),
        ("flags", ["Guard", ["Exit"]]),
        ("exit_policy", ["accept:*", 5]),
        ("exit_policy", ["accept:bogus"]),
        ("family", ["AAAA", None]),
    ], ids=lambda v: repr(v))
    def test_wrong_type_is_rejected(self, field, value):
        with pytest.raises(ParseError, match=rf"relays\[1\]\.{field}"):
            snapshot_from_json(json.dumps(one_relay_document(**{field: value})))

    @pytest.mark.parametrize("value", [100.9, "100", True])
    def test_valid_after_must_be_an_integer(self, value):
        doc = one_relay_document()
        doc["valid_after"] = value
        with pytest.raises(ParseError, match="valid_after"):
            snapshot_from_json(json.dumps(doc))

    @pytest.mark.parametrize("key,value", [
        ("G", 10.9), ("M", False), ("E", "20"), ("D", " 0 "), ("T", "30"), ("T", 30.0), ("T", None),
    ], ids=repr)
    def test_stored_totals_must_be_integers(self, key, value):
        doc = one_relay_document()
        doc["totals"] = {"G": 10, "M": 0, "E": 20, "D": 0, "T": 30}
        assert snapshot_from_json(json.dumps(doc)).totals.T == 30
        doc["totals"][key] = value
        with pytest.raises(ParseError, match=rf"totals\.{key}"):
            snapshot_from_json(json.dumps(doc))

    def test_stored_totals_must_be_an_object(self):
        doc = one_relay_document()
        doc["totals"] = [10, 0, 20, 0, 30]
        with pytest.raises(ParseError, match="totals"):
            snapshot_from_json(json.dumps(doc))

    @pytest.mark.parametrize("weight", [-1, 2**63])
    def test_weight_outside_int64_is_rejected(self, weight):
        with pytest.raises(ParseError, match=r"relays\[1\]\.consensus_weight"):
            snapshot_from_json(json.dumps(one_relay_document(consensus_weight=weight)))

    def test_largest_int64_weight_is_exact(self):
        snap = snapshot_from_json(json.dumps(one_relay_document(consensus_weight=2**63 - 1)))
        assert snap.totals.E == 2**63 - 1
        assert snap.relays[1].consensus_weight == 2**63 - 1

    def test_relay_list_weight_outside_int64_is_an_invariant_breach(self):
        with pytest.raises(InvariantError, match="64 bits"):
            ConsensusSnapshot.from_relays(0, [make_relay("A", 2**63, "g")])

    def test_native_weight_outside_int64_is_a_parse_error(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_native(f"snapshot 1\nrelay AA a {2**63}\n")
