import copy
import dataclasses
import gc
import json
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waterweights.consensus import (
    EXIT,
    REJECT_ALL,
    SNAPSHOT_FORMAT,
    ConsensusSnapshot,
    LoadCase,
    PolicyRule,
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
from waterweights.consensus import _ROW_FIELDS
from waterweights.errors import (
    DegenerateNetworkError,
    DuplicateRelayError,
    InvariantError,
    ParseError,
)

from conftest import (
    DUAL_FLAGS,
    EXIT_FLAGS,
    GUARD_FLAGS,
    MIDDLE_FLAGS,
    accepts_port,
    is_exit,
    is_guard,
    make_relay,
    make_snapshot,
    pool_of,
    relays_conflict,
    totals_of,
    traced_peak,
)

DATA = Path(__file__).parent / "data"

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
        assert accepts_port(bob, 443)
        assert not accepts_port(bob, 25)

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

    @pytest.mark.parametrize("field,value", [
        ("fingerprint", "A A"), ("nickname", "a b"), ("nickname", ""), ("subnet16", ""),
        ("subnet16", "1.\t2"), ("country", "d\ne"), ("flags", frozenset({"X,Y"})),
        ("flags", frozenset({""})), ("family", frozenset({"B C"})), ("family", frozenset({"B,C"})),
    ], ids=repr)
    def test_native_rejects_what_a_relay_line_cannot_carry(self, field, value):
        # each value used to be written, and read back as something else or not at all
        relay = make_relay("AAAA", 10, "g", subnet="1.1", country="de")
        snap = ConsensusSnapshot.from_relays(0, [
            make_relay("ZZZZ", 5, "e"), dataclasses.replace(relay, **{field: value}),
        ])
        with pytest.raises(ValueError, match=rf"relays\[1\] .*: {field} "):
            serialize_native(snap)

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
        assert pool_of(relay) == pool
        totals = totals_of([relay])
        assert getattr(totals, pool) == 42
        assert totals.T == 42

    def test_partition_is_exhaustive(self, rng):
        roles = rng.choice(["g", "m", "e", "d"], size=50)
        weights = rng.integers(0, 1000, size=50)
        relays = [make_relay(f"R{i}", int(w), r) for i, (w, r) in enumerate(zip(weights, roles))]
        totals = totals_of(relays)
        assert totals.T == sum(int(w) for w in weights)

    def test_from_relays_walks_the_relays_once(self):
        # a one-shot iterator: a second pass over it would see no relay
        relays = [make_relay(f"R{i}", 10 * i, "gmed"[i % 4]) for i in range(8)]
        snap = ConsensusSnapshot.from_relays(0, iter(relays))
        assert snap.relays == tuple(relays)
        assert snap.totals == totals_of(relays) == PoolTotals(G=40, M=60, E=80, D=100)


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
        assert accepts_port(relay, 443)
        assert not accepts_port(relay, 25)
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

    def test_p_line_holds_one_rule(self):
        doc = self.MINIMAL.replace("p reject 25", "p accept 80;reject:*")
        with pytest.raises(ParseError, match="line 5: bad p line"):
            parse_v3_subset(doc)

    def test_duplicate_router(self):
        doc = (
            "valid-after 2015-01-01 00:00:00\n"
            "r nick AAAA dig 2015-01-01 00:00:00 1.2.3.4 9001 0\n"
            "r nick2 AAAA dig 2015-01-01 00:00:00 5.6.7.8 9001 0\n"
        )
        with pytest.raises(DuplicateRelayError):
            parse_v3_subset(doc)

    def test_repeated_valid_after_names_both_lines(self):
        text = (DATA / "mini_status_v3.txt").read_text()
        assert parse_v3_subset(text).valid_after == 1432548000
        repeated = text + "valid-after 2016-06-01 00:00:00\n"
        last = len(repeated.splitlines())
        with pytest.raises(ParseError, match=rf"^line {last}: valid-after line repeats line 1$"):
            parse_v3_subset(repeated)

    @pytest.mark.parametrize("line", ["s Exit", "w Bandwidth=9", "p accept 80"])
    def test_repeated_router_line_names_both_lines(self, line):
        keyword = line.split()[0]
        first = {"s": 3, "w": 4, "p": 5}[keyword]
        with pytest.raises(ParseError, match=rf"^line 6: {keyword} line repeats line {first}"):
            parse_v3_subset(self.MINIMAL + line + "\n")

    def test_repeated_bandwidth_item(self):
        doc = self.MINIMAL.replace("Bandwidth=20", "Bandwidth=5 Bandwidth=7")
        with pytest.raises(ParseError, match="^line 4: repeated Bandwidth item$"):
            parse_v3_subset(doc)


class TestGoldenFiles:
    """Frozen fixtures: any parser or rendering change shows up as a diff."""

    def test_v3_document_matches_golden_json(self):
        warnings = []
        snap = parse_v3_subset((DATA / "mini_status_v3.txt").read_text(), warnings=warnings)
        assert snapshot_to_json(snap) == (DATA / "mini_status_v3.expected.json").read_text()
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

    @pytest.mark.parametrize("extra", [["B"], ["C", "C"], ["C", "A"]])
    def test_appended_rows_may_not_repeat_a_fingerprint(self, extra):
        base = ConsensusSnapshot.from_relays(0, [make_relay("A", 1, "g"), make_relay("B", 2, "e")])
        with pytest.raises(DuplicateRelayError, match=f"^duplicate fingerprint {extra[-1]}$"):
            base.with_relays([make_relay(fp, 3, "m") for fp in extra])

    def test_snapshot_order_preserved(self):
        snap = make_snapshot([("C", 1, "g"), ("A", 2, "e"), ("B", 3, "m")])
        assert [r.fingerprint for r in snap.relays] == ["C", "A", "B"]

    def test_parsed_policies_are_memoized_by_text(self):
        text = ";".join(["accept:80,443", "reject:*"])  # built at run time
        assert parse_policy(text) is parse_policy("accept:80,443;reject:*")

    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.tuples(
            st.sampled_from(["accept", "reject", "allow", ""]),
            st.sampled_from([":", ": ", "", "::"]),
            st.one_of(
                st.just("*"),
                st.lists(
                    st.integers(0, 70_000).map(str)
                    | st.tuples(st.integers(0, 70_000), st.integers(0, 70_000)).map(
                        lambda t: f"{t[0]}-{t[1]}"
                    ),
                    min_size=1, max_size=3,
                ).map(",".join),
                st.text(max_size=8),
            ),
        ).map("".join),
        max_size=4,
    ).map(";".join))
    def test_memo_matches_the_unmemoized_parser(self, text):
        def outcome(parse):
            try:
                return parse(text)
            except ValueError as err:
                return type(err), str(err)

        assert outcome(parse_policy) == outcome(parse_policy.__wrapped__)


def first_repeat(fingerprints):
    """``(earlier, later)``: the first row that repeats an earlier row's
    fingerprint and that earlier row, as a dict loop finds them; None when
    no fingerprint repeats."""
    seen = {}
    for later, fp in enumerate(fingerprints):
        earlier = seen.setdefault(fp, later)
        if earlier != later:
            return earlier, later
    return None


class TestRepeatedFingerprints:
    """Every front end names the first row that repeats an earlier one, and
    that earlier row, in its own terms: one check over the finished
    fingerprint column finds both, the base's rows and the new ones alike."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.sampled_from("ABCD"), unique=True),
        st.lists(st.sampled_from("ABCDEF"), max_size=7),
        st.lists(st.integers(0, 2), min_size=11, max_size=11),
    )
    def test_the_first_repeat_and_the_row_it_repeats_are_named(self, base, new, gaps):
        fingerprints = base + new
        repeat = first_repeat(fingerprints)
        relays = [make_relay(fp, k, "g") for k, fp in enumerate(fingerprints)]

        # native and v3 documents, blank and comment lines among the rows,
        # with the line each row starts on
        native, v3 = ["snapshot 1"], ["valid-after 2015-05-25 10:00:00"]
        native_lines, v3_lines = [], []
        for k, fp in enumerate(fingerprints):
            native += ["", "# relay"][: gaps[k]]
            native.append(f"relay {fp} n{k} {k}")
            native_lines.append(len(native))
            v3 += ["", "x relay"][: gaps[k]]
            v3.append(f"r n{k} {fp} dig 2015-05-25 08:00:00 1.2.3.4 9001 0")
            v3_lines.append(len(v3))
            v3.append(f"w Bandwidth={k}")
        doc = {"format": SNAPSHOT_FORMAT, "valid_after": 1, "relays": [
            {"fingerprint": fp, "nickname": "n", "consensus_weight": 1} for fp in fingerprints
        ]}
        base_snapshot = ConsensusSnapshot.from_relays(0, relays[: len(base)])
        parses = {
            "native": lambda: parse_native("\n".join(native) + "\n"),
            "v3": lambda: parse_v3_subset("\n".join(v3) + "\n"),
            "json": lambda: snapshot_from_json(json.dumps(doc)),
            "from_relays": lambda: ConsensusSnapshot.from_relays(0, relays),
            "with_relays": lambda: base_snapshot.with_relays(relays[len(base):]),
        }
        if repeat is None:
            for parse in parses.values():
                assert [r.fingerprint for r in parse().relays] == fingerprints
            return
        i, j = repeat
        fp = fingerprints[j]
        on_lines = "line {}: fingerprint %s already declared on line {}" % fp
        messages = {
            "native": on_lines.format(native_lines[j], native_lines[i]),
            "v3": on_lines.format(v3_lines[j], v3_lines[i]),
            "json": f"relays[{j}].fingerprint {fp} repeats relays[{i}]",
            "from_relays": f"duplicate fingerprint {fp}",
            "with_relays": f"duplicate fingerprint {fp}",
        }
        for name, parse in parses.items():
            with pytest.raises(DuplicateRelayError) as err:
                parse()
            assert str(err.value) == messages[name], name

    def test_a_bad_value_after_a_repeat_is_the_error(self):
        # the repeat check runs once every row is in, so a later bad value wins
        text = "snapshot 1\nrelay AA a 1\nrelay AA b 2\nrelay BB c 9223372036854775808\n"
        with pytest.raises(ParseError) as err:
            parse_native(text)
        assert type(err.value) is ParseError
        assert str(err.value).startswith("line 4: consensus weight 9223372036854775808 is outside")
        doc = one_relay_document(fingerprint="AAAA")
        doc["relays"].append(dict(doc["relays"][0], fingerprint="BBBB", consensus_weight=2**63))
        with pytest.raises(ParseError) as err:
            snapshot_from_json(json.dumps(doc))
        assert type(err.value) is ParseError
        assert str(err.value).startswith("relays[2].consensus_weight: consensus weight")
        relays = [make_relay("A", 1, "g"), make_relay("A", 2, "e"), make_relay("B", 2**63, "m")]
        with pytest.raises(InvariantError, match="^B: consensus weight 9223372036854775808 "):
            ConsensusSnapshot.from_relays(0, relays)


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
        assert cols.guard.tolist() == [is_guard(r) for r in relays]
        assert ((cols.pool & EXIT) != 0).tolist() == [is_exit(r) for r in relays]
        assert cols.accepts(port).tolist() == [accepts_port(r, port) for r in relays]
        assert len(set(cols.policy_id.tolist())) == len({r.exit_policy for r in relays})

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

    def test_relay_list_negative_weight_is_an_invariant_breach(self):
        # the table's weight bound is the one check, for a new list and appended rows
        negative = make_relay("A", -1, "g")
        with pytest.raises(InvariantError, match=r"^A: consensus weight -1 is outside"):
            ConsensusSnapshot.from_relays(0, [negative])
        with pytest.raises(InvariantError, match=r"^A: consensus weight -1 is outside"):
            ConsensusSnapshot.from_relays(0, [make_relay("B", 1, "g")]).with_relays([negative])

    @pytest.mark.parametrize("field,value", [
        ("consensus_weight", 5.5), ("consensus_weight", True), ("fingerprint", 5),
        ("nickname", None), ("subnet16", 7), ("country", 5), ("as_number", "1 2"),
        ("flags", frozenset({"Guard", 1})), ("family", frozenset({None})),
        ("exit_policy", (PolicyRule(True, ((80, 80),)),)),  # no terminal wildcard
        ("exit_policy", (PolicyRule(True, ((90, 80),)), REJECT_ALL)),
        ("exit_policy", (PolicyRule(True, ((0, 80),)), REJECT_ALL)),
        ("exit_policy", (PolicyRule(True, [(80, 80)]), REJECT_ALL)),  # unhashable ports
    ], ids=repr)
    def test_relay_list_field_no_parser_passes_is_an_invariant_breach(self, field, value):
        # each used to be stored as it was, or altered (5.5 -> 5, True -> 1),
        # or, for a flag or list ports, to raise a bare TypeError
        relay = dataclasses.replace(make_relay("A", 10, "e"), **{field: value})
        message = rf"^{relay.fingerprint}: {field} "
        with pytest.raises(InvariantError, match=message):
            ConsensusSnapshot.from_relays(0, [relay])
        with pytest.raises(InvariantError, match=message):
            ConsensusSnapshot.from_relays(0, [make_relay("B", 1, "g")]).with_relays([relay])

    def test_native_weight_outside_int64_is_a_parse_error(self):
        for weight in (-1, 2**63):
            with pytest.raises(ParseError, match="line 2"):
                parse_native(f"snapshot 1\nrelay AA a {weight}\n")

    @pytest.mark.parametrize("as_number", [-1, -5, 2**32, 10**29])
    def test_as_number_outside_4_bytes_is_rejected_by_every_reader(self, as_number):
        # each used to be stored and round-trip; -1 also marks no AS in the column
        outside = rf"as_number {as_number} is outside \[0, 2\*\*32 - 1\]$"
        with pytest.raises(ParseError, match=rf"^line 3: {outside}"):
            parse_native(f"snapshot 1\nrelay AA a 5\nrelay BB b 5 as={as_number}\n")
        with pytest.raises(ParseError, match=rf"^relays\[1\]\.as_number: {outside}"):
            snapshot_from_json(json.dumps(one_relay_document(as_number=as_number)))
        relay = make_relay("A", 10, "e", as_number=as_number)
        with pytest.raises(InvariantError, match=rf"^A: {outside}"):
            ConsensusSnapshot.from_relays(0, [relay])
        with pytest.raises(InvariantError, match=rf"^A: {outside}"):
            ConsensusSnapshot.from_relays(0, [make_relay("B", 1, "g")]).with_relays([relay])

    @pytest.mark.parametrize("as_number", [0, 2**32 - 1])
    def test_as_number_at_either_bound_round_trips(self, as_number):
        snap = ConsensusSnapshot.from_relays(0, [
            make_relay("A", 10, "e", as_number=as_number), make_relay("B", 1, "g"),
        ])
        assert snap.table.as_number.dtype == np.int64
        assert snap.table.as_number.tolist() == [as_number, -1]
        assert [r.as_number for r in snap.relays] == [as_number, None]
        assert f" as={as_number}\n" in serialize_native(snap)
        for again in (
            parse_native(serialize_native(snap)),
            snapshot_from_json(snapshot_to_json(snap)),
            pickle.loads(pickle.dumps(snap)),
        ):
            assert again == snap
            assert [r.as_number for r in again.relays] == [as_number, None]
        doc = snapshot_from_json(json.dumps(one_relay_document(as_number=as_number)))
        assert doc.relays[1].as_number == as_number

    def test_repeated_fingerprint_names_both_relays(self):
        doc = one_relay_document(fingerprint="AAAA")
        repeat = r"relays\[1\]\.fingerprint AAAA repeats relays\[0\]"
        with pytest.raises(DuplicateRelayError, match=repeat):
            snapshot_from_json(json.dumps(doc))


JSON_POLICIES = ["accept:*", "reject:*", "accept:80,443;reject:*", "reject:25;accept:*"]


@st.composite
def relay_documents(draw):
    """A valid snapshot document as a dict: relays with unique fingerprints,
    some family names dangling, totals kept or left out."""
    count = draw(st.integers(1, 6))
    fingerprints = [f"R{i}" for i in range(count)]
    relays = [
        make_relay(
            fp, draw(st.integers(0, 10**6)), draw(st.sampled_from("gmed")),
            policy=parse_policy(draw(st.sampled_from(JSON_POLICIES))),
            subnet=draw(st.sampled_from([None, "1.1", "2.2"])),
            family=frozenset(draw(st.lists(st.sampled_from(fingerprints + ["GONE"]), max_size=2))),
            country=draw(st.sampled_from([None, "de", "us"])),
            as_number=draw(st.sampled_from([None, 3320, 7922])),
        )
        for fp in fingerprints
    ]
    snap = ConsensusSnapshot.from_relays(draw(st.integers(0, 2**40)), relays)
    doc = json.loads(snapshot_to_json(snap))
    if draw(st.booleans()):
        del doc["totals"]
    return doc


def dumps_repeating(value, target, key, again, position) -> str:
    """JSON text of ``value`` in which the object ``target`` (by identity)
    lists ``key`` a second time, with value ``again``, at ``position``."""
    def dump(v):
        if isinstance(v, dict):
            items = list(v.items())
            if v is target:
                items.insert(position, (key, again))
            return "{" + ", ".join(f"{json.dumps(k)}: {dump(x)}" for k, x in items) + "}"
        if isinstance(v, list):
            return "[" + ", ".join(map(dump, v)) + "]"
        return json.dumps(v)
    return dump(value)


def in_place(change):
    """An edit that makes ``change`` to the document, then writes it."""
    def edit(doc):
        change(doc)
        return json.dumps(doc)
    return edit


def relay_copy(doc, i, **fields):
    return {**copy.deepcopy(doc["relays"][i]), **fields}


def rename_key(relay, old, new):
    relay[new] = relay.pop(old)


def repeat_key(where, key, again):
    """An edit that writes ``where(doc)`` with ``key`` a second time."""
    return lambda doc: dumps_repeating(doc, where(doc), key, again, len(where(doc)))


TOTALS = {"G": 10, "M": 0, "E": 20, "D": 0, "T": 30}
RELAY_KEYS = ", ".join(map(repr, sorted(_ROW_FIELDS)))

# Each fault's edit writes the valid two-relay document (AAAA, then BBBB)
# with one fault; the error is its type and its message's start.  The
# first 14 are the 13 faults (a relay nested in family in two forms) that
# the relay-by-relay reading used to hand to a second, row-loop reading;
# that reading accepted the first, second, fifth and sixth.  Several copy a listed fingerprint, so the one pass
# meets a repeated fingerprint before the misplaced relay's own fault.
JSON_FAULTS = [
    pytest.param(
        in_place(lambda doc: doc.update(extra=relay_copy(doc, 0))),
        ParseError, "snapshot document: unknown key(s) 'extra'",
        id="relay under an unknown key",
    ),
    pytest.param(
        in_place(lambda doc: doc.update(totals={**TOTALS, "X": relay_copy(doc, 1)})),
        ParseError, "totals: unknown key(s) 'X'",
        id="relay inside totals",
    ),
    pytest.param(
        in_place(lambda doc: doc["relays"][1]["family"].append(relay_copy(doc, 0, nickname="x"))),
        ParseError, "relays[1].family must be a list of strings, not ['AAAA', {",
        id="relay nested in family",
    ),
    pytest.param(
        in_place(lambda doc: doc["relays"][1]["family"].append({"fingerprint": 5})),
        ParseError, "relays[1].family must be a list of strings, not ['AAAA', {'fingerprint': 5}]",
        id="bad relay nested in family",
    ),
    pytest.param(
        in_place(lambda doc: doc["relays"][0].update(extra=relay_copy(doc, 1))),
        ParseError, "relays[0]: unknown key(s) 'extra'",
        id="relay under a relay's unknown key",
    ),
    pytest.param(
        in_place(lambda doc: doc.update(relay_copy(doc, 0))),
        ParseError, f"snapshot document: unknown key(s) {RELAY_KEYS}",
        id="relay as the document",
    ),
    pytest.param(
        in_place(lambda doc: doc["relays"].insert(1, None)),
        ParseError, "relays[1] must be an object",
        id="non-object element",
    ),
    pytest.param(
        in_place(lambda doc: doc["relays"][1].pop("fingerprint")),
        ParseError, "relays[1].fingerprint must be a string, not None",
        id="relay without a fingerprint",
    ),
    pytest.param(
        in_place(lambda doc: doc["relays"].append(relay_copy(doc, 0, nickname="again"))),
        DuplicateRelayError, "relays[2].fingerprint AAAA repeats relays[0]",
        id="repeated fingerprint",
    ),
    pytest.param(
        in_place(lambda doc: doc["relays"][1].update(consensus_weight=2**63)),
        ParseError, "relays[1].consensus_weight: consensus weight 9223372036854775808 is outside"
        " [0, 2**63 - 1] (64 bits)",
        id="weight of 2**63",
    ),
    pytest.param(
        in_place(lambda doc: doc["relays"][1].update(exit_policy=["accept:bogus"])),
        ParseError, "relays[1].exit_policy: bad policy value 'accept:bogus'",
        id="bad policy",
    ),
    pytest.param(
        in_place(lambda doc: doc.update(totals={"G": 1, "M": 0, "E": 0, "D": 0, "T": 1})),
        ParseError, "stored totals do not match relay list",
        id="totals mismatch",
    ),
    pytest.param(
        in_place(lambda doc: doc.update(valid_after=True)),
        ParseError, "valid_after must be an integer, not True",
        id="bool valid_after",
    ),
    pytest.param(
        in_place(lambda doc: doc["relays"][1]["flags"].append(1)),
        ParseError,
        "relays[1].flags must be a list of strings, not ['Exit', 'Fast', 'Running', 'Valid', 1]",
        id="flag that is no string",
    ),
    pytest.param(
        in_place(lambda doc: doc.update(comment="hand-edited")),
        ParseError, "snapshot document: unknown key(s) 'comment'",
        id="unknown top-level key",
    ),
    *(
        pytest.param(
            in_place(lambda doc, old=old, new=new: rename_key(doc["relays"][1], old, new)),
            ParseError, f"relays[1]: unknown key(s) '{new}'",
            id=f"native key name {new}",
        )
        for old, new in [("exit_policy", "policy"), ("subnet16", "subnet"), ("as_number", "as")]
    ),
    pytest.param(
        repeat_key(lambda doc: doc, "valid_after", 5),
        ParseError, "top level: repeated key 'valid_after'",
        id="repeated top-level key",
    ),
    pytest.param(
        repeat_key(lambda doc: doc.setdefault("totals", dict(TOTALS)), "G", 10),
        ParseError, "totals: repeated key 'G'",
        id="repeated totals key",
    ),
    pytest.param(
        repeat_key(lambda doc: doc["relays"][1], "consensus_weight", 9),
        ParseError, "relays[1]: repeated key 'consensus_weight'",
        id="repeated relay key",
    ),
    pytest.param(
        in_place(lambda doc: doc.update(format="waterweights-snapshot-v2")),
        ParseError, "format must be 'waterweights-snapshot-v1', not 'waterweights-snapshot-v2'",
        id="wrong format",
    ),
    pytest.param(
        in_place(lambda doc: doc.pop("format")),
        ParseError, "format must be 'waterweights-snapshot-v1', not missing",
        id="missing format",
    ),
    pytest.param(
        lambda doc: json.dumps(doc)[:-1],
        ParseError, "invalid JSON: ",
        id="truncated",
    ),
]


class TestJsonDocument:
    """One strict reading: every fault is an error of its own, located."""

    @pytest.mark.parametrize("edit,error,message", JSON_FAULTS)
    def test_fault_is_rejected(self, edit, error, message):
        with pytest.raises(ParseError) as err:
            snapshot_from_json(edit(one_relay_document()))
        assert type(err.value) is error
        assert str(err.value).startswith(message), str(err.value)

    @settings(max_examples=100, deadline=None)
    @given(relay_documents())
    def test_a_document_reads_back_as_written(self, doc):
        again = json.loads(snapshot_to_json(snapshot_from_json(json.dumps(doc))))
        doc.setdefault("totals", again["totals"])
        assert again == doc

    @settings(max_examples=150, deadline=None)
    @given(relay_documents(), st.data())
    def test_a_repeated_key_is_named(self, doc, data):
        objects = [("top level", doc), *[(f"relays[{i}]", r) for i, r in enumerate(doc["relays"])]]
        if "totals" in doc:
            objects.append(("totals", doc["totals"]))
        where, target = data.draw(st.sampled_from(objects))
        key = data.draw(st.sampled_from(sorted(target)))
        again = data.draw(st.sampled_from([target[key], None, 7]))
        text = dumps_repeating(doc, target, key, again, data.draw(st.integers(0, len(target))))
        with pytest.raises(ParseError) as err:
            snapshot_from_json(text)
        assert type(err.value) is ParseError
        assert str(err.value) == f"{where}: repeated key {key!r}"

    @settings(max_examples=50, deadline=None)
    @given(relay_documents(), st.data())
    def test_a_truncated_document_is_invalid_json(self, doc, data):
        text = json.dumps(doc)
        with pytest.raises(ParseError, match="^invalid JSON: "):
            snapshot_from_json(text[: data.draw(st.integers(0, len(text) - 1))])

    def test_repeated_relays_key_is_rejected(self):
        # a second "relays" list used to replace the first, with no error
        doc = one_relay_document()
        text = json.dumps(doc)[:-1] + ', "relays": ' + json.dumps(doc["relays"][:1]) + "}"
        with pytest.raises(ParseError, match=r"^top level: repeated key 'relays'$"):
            snapshot_from_json(text)

    def test_null_totals_are_no_totals(self):
        doc = one_relay_document()
        doc["totals"] = None
        assert snapshot_from_json(json.dumps(doc)).totals == PoolTotals(G=10, E=20)


def tor_size_document(relays=6000, seed=16) -> str:
    """A snapshot document the size of a Tor consensus, with every field set.

    Written with ``json.dumps`` over plain dicts, not through a table: a
    table interns its strings, and on CPython 3.12 an interned string is
    never freed, so a parse measured later would find its relays' strings
    already made.
    """
    rng = np.random.default_rng(seed)
    digests = rng.integers(0, 256, (relays, 20), np.uint8)
    fingerprints = [bytes(row).hex().upper() for row in digests]
    octets = rng.integers(1, 224, (relays, 2)).tolist()
    role_flags = dict(zip("gmed", (GUARD_FLAGS, MIDDLE_FLAGS, EXIT_FLAGS, DUAL_FLAGS)))
    totals = dict.fromkeys("GMED", 0)
    rows = []
    for i, (fp, (a, b)) in enumerate(zip(fingerprints, octets)):
        weight, role = int(rng.integers(1, 10**5)), "gmed"[int(rng.integers(4))]
        totals[role.upper()] += weight
        rows.append({
            "as_number": 1000 + i % 800,
            "consensus_weight": weight,
            "country": ("de", "us", "fr", "nl")[i % 4],
            "exit_policy": list(map(str, parse_policy(JSON_POLICIES[i % 4]))),
            # a tenth of the relays sit in families of two
            "family": [fingerprints[i ^ 1]] if i < relays // 10 else [],
            "fingerprint": fp,
            "flags": sorted(role_flags[role]),
            "nickname": f"nick{fp}",
            "subnet16": f"{a}.{b}",
        })
    doc = {
        "format": SNAPSHOT_FORMAT,
        "relays": rows,
        "totals": {**totals, "T": sum(totals.values())},
        "valid_after": 1_432_548_000,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


class TestParseMemory:
    @pytest.fixture(scope="class")
    def tor_size(self):
        return tor_size_document()

    def test_json_parse_holds_little_past_the_snapshot(self, tor_size):
        snap, peak, kept = traced_peak(lambda: snapshot_from_json(tor_size))
        assert len(snap.table) == 6000
        assert peak <= 1.5 * kept, f"peak {peak / kept:.2f}x what the snapshot keeps"

    def test_reading_relays_keeps_nothing(self, tor_size):
        snap = snapshot_from_json(tor_size)
        count, _, kept = traced_peak(lambda: len(snap.relays))
        assert count == 6000
        assert kept < 64 * 1024, f"reading relays kept {kept} bytes"

    def test_a_second_parse_keeps_at_most_half_of_the_first(self):
        # relays no other test parses: on CPython 3.12 interned strings
        # outlive their tables, so a document parsed before would make the
        # first parse here share its strings too
        text = tor_size_document(seed=18)
        first, _, kept_first = traced_peak(lambda: snapshot_from_json(text))
        second, _, kept_second = traced_peak(lambda: snapshot_from_json(text))
        assert second == first
        assert kept_second <= 0.5 * kept_first, (
            f"the second parse kept {kept_second} bytes, the first {kept_first}"
        )
        # code columns, not a fingerprint dict and per-row tuples
        assert kept_second <= 0.5 * 2**20, f"the second parse kept {kept_second} bytes"


def shared_strings_snapshot() -> ConsensusSnapshot:
    """Relays with every string field set, no string a single character
    (CPython keeps one object per single-character string anyway)."""
    return ConsensusSnapshot.from_relays(1_432_548_000, [
        make_relay(
            f"RELAY{i:02d}", 100 + i, "gmed"[i % 4], subnet=f"10.{i % 3}",
            country=("de", "us")[i % 2], as_number=3320,
            family=frozenset({f"RELAY{i ^ 1:02d}", "GONE00"}) if i < 4 else frozenset(),
            policy=parse_policy(("accept:80,443", "reject:25;accept:*")[i % 2]),
        )
        for i in range(8)
    ])


class TestSharedValues:
    """Two parses of one document share one object per distinct relay
    string and policy, so memory grows with the distinct relays."""

    @pytest.mark.parametrize("fmt", ["json", "native", "v3"])
    def test_two_parses_share_every_relay_string(self, fmt):
        if fmt == "v3":
            text, parse = (DATA / "mini_status_v3.txt").read_text(), parse_v3_subset
        elif fmt == "native":
            text, parse = serialize_native(shared_strings_snapshot()), parse_native
        else:
            text, parse = snapshot_to_json(shared_strings_snapshot()), snapshot_from_json
        a, b = parse(text).table, parse(text).table
        assert (a.family_id >= 0).any() or fmt == "v3"
        # every decoded field but the weight and the AS number, then each
        # flag and family name; an empty set or a None is no relay string
        cells = [
            pair for x, y in zip(a._cells(), b._cells())
            for pair in zip(x[:2] + x[3:8], y[:2] + y[3:8]) if pair[0]
        ]
        names = [
            pair for x, y in cells if isinstance(x, frozenset) for pair in zip(sorted(x), sorted(y))
        ]
        assert [x for x, y in cells + names if x is not y] == []
        assert len(cells) > 4 * len(a) and names
