"""The column table against its ``RelayEntry`` input rows, over random relay lists.

Each snapshot's relays are stored as one column table, built from
``RelayEntry`` rows or a parser; ``relays`` decodes the rows back through
the table's one decoder.  These properties check that every view of the
table (totals, conflicts, group labels, adversary rows, the waterfill
order) says what the input rows say, with the per-relay references of
``conftest``, and that each format round-trips, over arbitrary strings
too.
"""

import dataclasses
import pickle
from datetime import datetime, timezone
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waterweights import consensus
from waterweights.consensus import (
    ConsensusSnapshot,
    PolicyRule,
    RelayEntry,
    fingerprint_codes,
    parse_native,
    parse_policy,
    parse_v3_subset,
    serialize_native,
    snapshot_from_json,
    snapshot_to_json,
)
from waterweights.metrics import group_diversity
from waterweights.pathsim import (
    AdversaryRelay,
    AdversarySpec,
    Algorithm,
    NetworkState,
    RoleHint,
    inject_adversary,
)
from waterweights.waterfill import (
    TargetPool,
    find_water_level,
    solve_dset_waterfill,
    solve_guard_waterfill,
)
from waterweights.weights import PositionWeights

from conftest import is_exit, is_guard, make_relay, relays_conflict, totals_of, vector_of

ADVERSARY = AdversarySpec((
    AdversaryRelay(RoleHint.GUARD_LIKE, 3),
    AdversaryRelay(RoleHint.EXIT_LIKE, 2),
    AdversaryRelay(RoleHint.GUARD_LIKE, 0, join_time=10**12),  # never live
))
NAMES = [f"R{i}" for i in range(8)]
# family members: relays of the list, absent ones, and the adversary's
FAMILY_NAMES = NAMES + ["X0", "X1"] + list(ADVERSARY.fingerprints)
FLAGS = ["Guard", "Exit", "Fast", "Stable", "Running", "Valid", "HSDir", "V2Dir", "Weird"]
POLICIES = [parse_policy(t) for t in ("accept:*", "reject:*", "accept:80,443;reject:*")]
# "250.0" and "250.1" are the adversary's first two /16s
SUBNETS = [None, "1.1", "1.2", "250.0", "250.1"]

weights = st.one_of(st.integers(0, 5), st.integers(0, 10**6), st.integers(2**62, 2**63 - 1))


# each RelayEntry field's values in ``relay_lists``; a fingerprint that no
# list holds, so that it stays unique
FIELD_VALUES = {
    "fingerprint": st.just("NEW"),
    "nickname": st.sampled_from(["a", "b", "Unnamed"]),
    "consensus_weight": weights,
    "flags": st.frozensets(st.sampled_from(FLAGS)),
    "exit_policy": st.sampled_from(POLICIES),
    "family": st.frozensets(st.sampled_from(FAMILY_NAMES), max_size=4),
    "subnet16": st.sampled_from(SUBNETS),
    "country": st.sampled_from([None, "de", "us"]),
    "as_number": st.sampled_from([None, 3320, 7922]),
}


@st.composite
def relay_lists(draw, max_size=8, heavy=True):
    chosen = draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=max_size))
    return [
        RelayEntry(
            fingerprint=fp,
            nickname=draw(st.sampled_from(["a", "b", "Unnamed"])),
            consensus_weight=draw(weights if heavy else st.integers(0, 5)),
            flags=draw(st.frozensets(st.sampled_from(FLAGS))),
            exit_policy=draw(st.sampled_from(POLICIES)),
            family=draw(st.frozensets(st.sampled_from(FAMILY_NAMES), max_size=4)),
            subnet16=draw(st.sampled_from(SUBNETS)),
            country=draw(st.sampled_from([None, "de", "us"])),
            as_number=draw(st.sampled_from([None, 3320, 7922])),
        )
        for fp in chosen
    ]


# any string: non-ASCII, quotes, control characters, whitespace, commas,
# ""; half are drawn free of whitespace, so that a fault can sit in any field
texts = st.one_of(
    st.text(
        st.characters().filter(lambda c: not c.isspace()) | st.just(","), min_size=1, max_size=5
    ),
    st.text(st.characters() | st.sampled_from(", =\t\n"), max_size=5),
)


@st.composite
def text_relay_lists(draw):
    """Relays whose every string field is drawn from ``st.text()``; family
    names are other relays' fingerprints or any string."""
    fingerprints = draw(st.lists(texts, unique=True, max_size=6))
    names = st.one_of(texts, st.sampled_from(fingerprints)) if fingerprints else texts
    return [
        RelayEntry(
            fingerprint=fp,
            nickname=draw(texts),
            consensus_weight=draw(weights),
            flags=draw(st.frozensets(texts, max_size=3)),
            exit_policy=draw(st.sampled_from(POLICIES)),
            family=draw(st.frozensets(names, max_size=3)),
            subnet16=draw(st.none() | texts),
            country=draw(st.none() | texts),
            as_number=draw(st.sampled_from([None, 3320, 7922])),
        )
        for fp in fingerprints
    ]


def native_fault(relays):
    """The first (row, field) whose value a native relay line cannot carry:
    an empty or whitespace-holding word, or a list item that also holds a
    comma; None when every value fits."""
    def word(s):
        return s != "" and not any(c.isspace() for c in s)

    for i, r in enumerate(relays):
        for field in ("fingerprint", "nickname", "subnet16", "country"):
            value = getattr(r, field)
            if value is not None and not word(value):
                return i, field
        for field in ("flags", "family"):
            if any(not word(s) or "," in s for s in getattr(r, field)):
                return i, field
    return None


# a p line's spans: () is "*", else single ports and inclusive ranges
port_spans = st.one_of(
    st.just(()),
    st.lists(
        st.tuples(st.integers(1, 65535), st.integers(0, 100)).map(
            lambda t: (t[0], min(t[0] + t[1], 65535))
        ),
        min_size=1, max_size=4,
    ).map(tuple),
)


def render_spans(spans) -> str:
    return ",".join(str(lo) if lo == hi else f"{lo}-{hi}" for lo, hi in spans) or "*"


def conflicts_match(snapshot):
    relays = snapshot.relays
    rows = np.arange(len(relays))
    got = snapshot.table.conflict(rows[:, None], rows[None, :])
    expected = [[relays_conflict(a, b) for b in relays] for a in relays]
    return got.tolist() == expected


class TestRoundTrips:
    @settings(max_examples=100, deadline=None)
    @given(relay_lists())
    def test_native_and_json(self, relays):
        snap = ConsensusSnapshot.from_relays(1_432_548_000, relays)
        assert snap.relays == tuple(relays)
        for again in (
            parse_native(serialize_native(snap)),
            snapshot_from_json(snapshot_to_json(snap)),
        ):
            assert again == snap
            assert again.relays == tuple(relays)
            assert again.table == snap.table

    @settings(max_examples=200, deadline=None)
    @given(text_relay_lists())
    def test_json_over_arbitrary_strings(self, relays):
        snap = ConsensusSnapshot.from_relays(1_432_548_000, relays)
        again = snapshot_from_json(snapshot_to_json(snap))
        assert again == snap
        assert again.relays == snap.relays == tuple(relays)

    @settings(max_examples=200, deadline=None)
    @given(text_relay_lists())
    def test_native_reads_back_or_raises(self, relays):
        # a value the format cannot carry raises instead of being rewritten
        snap = ConsensusSnapshot.from_relays(1_432_548_000, relays)
        fault = native_fault(relays)
        if fault is None:
            assert parse_native(serialize_native(snap)) == snap
        else:
            i, field = fault
            with pytest.raises(ValueError, match=rf"^relays\[{i}\] .*\): {field} "):
                serialize_native(snap)

    @settings(max_examples=100, deadline=None)
    @given(relay_lists(), st.data())
    def test_v3(self, relays, data):
        # v3 carries no family, country or AS; its address gives the /16
        lines = ["valid-after 2015-05-25 10:00:00"]
        expected = []
        for k, r in enumerate(relays):
            address = f"{r.subnet16 or f'9.{k}'}.7.7"
            accept = data.draw(st.booleans())
            spans = data.draw(port_spans)
            lines.append(f"r {r.nickname} {r.fingerprint} dig 2015-05-25 08:00:00 {address} 9001 0")
            lines.append("s " + " ".join(sorted(r.flags)))
            lines.append(f"w Bandwidth={r.consensus_weight}")
            lines.append(f"p {'accept' if accept else 'reject'} {render_spans(spans)}")
            # the listed rule, then the opposite wildcard
            policy = (PolicyRule(accept, spans), PolicyRule(not accept, ()))
            expected.append(RelayEntry(
                r.fingerprint, r.nickname, r.consensus_weight, r.flags, policy,
                subnet16=".".join(address.split(".")[:2]),
            ))
        stamp = int(datetime(2015, 5, 25, 10, tzinfo=timezone.utc).timestamp())
        snap = parse_v3_subset("\n".join(lines) + "\n")
        assert snap.relays == tuple(expected)
        assert snap == ConsensusSnapshot.from_relays(stamp, expected)


class TestViews:
    @settings(max_examples=100, deadline=None)
    @given(relay_lists(), relay_lists(), st.integers(0, 2**64))
    def test_totals_and_conflicts(self, relays, others, salt):
        snap = ConsensusSnapshot.from_relays(0, relays)
        assert snap.totals == totals_of(relays)
        assert snap.table.guard.tolist() == [is_guard(r) for r in relays]
        assert conflicts_match(snap)

        # /16 codes are kept per process, so a table's codes depend on the
        # tables parsed before it; what the codes say must not.  Table B is
        # parsed alone, and again, under a second salt that makes its /16s
        # new to the process, after a table A that shares some of them
        def salted(entries, tag, prefix=""):
            return [
                dataclasses.replace(
                    r, fingerprint=prefix + r.fingerprint,
                    subnet16=None if r.subnet16 is None else f"{tag}:{r.subnet16}",
                )
                for r in entries
            ]

        def views(table):
            rows = np.arange(len(table))
            unsalted = [
                (*cells[:6], cells[6] and cells[6].partition(":")[2], *cells[7:])
                for cells in table._cells()
            ]
            names = [name.partition(":")[2] for name in table._known("subnet")]
            return table.conflict(rows[:, None], rows[None, :]).tolist(), unsalted, names

        alone = ConsensusSnapshot.from_relays(0, salted(relays, f"{salt}a")).table
        a = salted(others, f"{salt}b", "A") + salted(relays[1::2], f"{salt}b", "B")
        ConsensusSnapshot.from_relays(0, a)
        after = ConsensusSnapshot.from_relays(0, salted(relays, f"{salt}b"))
        assert views(after.table) == views(alone)
        # relays that share a /16 conflict across an injected copy's rows
        assert conflicts_match(after.with_relays(a))

    @settings(max_examples=200, deadline=None)
    @given(relay_lists(), st.sampled_from(sorted(FIELD_VALUES)), st.data())
    def test_tables_are_equal_exactly_when_their_rows_are(self, relays, field, data):
        # one field of one relay redrawn, possibly to the value it had
        other = list(relays)
        if relays:
            i = data.draw(st.integers(0, len(relays) - 1))
            other[i] = dataclasses.replace(other[i], **{field: data.draw(FIELD_VALUES[field])})
        a = ConsensusSnapshot.from_relays(0, relays).table
        b = ConsensusSnapshot.from_relays(0, other).table
        assert (a == b) is (relays == other)

    @settings(max_examples=100, deadline=None)
    @given(relay_lists())
    def test_injection_appends_rows(self, relays):
        snap = ConsensusSnapshot.from_relays(0, relays)
        live = inject_adversary(snap, ADVERSARY)
        fresh = ConsensusSnapshot.from_relays(0, relays + ADVERSARY.relay_entries(0))
        assert live == fresh
        assert live.totals == totals_of(fresh.relays)
        # ``==`` compares the family codes as published, not how they resolved
        assert np.array_equal(live.table.family_keys, fresh.table.family_keys)
        assert np.array_equal(live.table.in_family, fresh.table.in_family)
        assert np.array_equal(live.table.subnet, fresh.table.subnet)
        # the adversary's /16 matches a real relay's, and families naming
        # an adversary fingerprint pair with it once it is injected
        assert conflicts_match(live)

    @settings(max_examples=100, deadline=None)
    @given(relay_lists(), st.data())
    def test_group_labels(self, relays, data):
        snap = ConsensusSnapshot.from_relays(0, relays)
        picked = data.draw(st.permutations(relays))[: data.draw(st.integers(0, len(relays)))]
        probs = np.array(data.draw(st.lists(
            st.floats(0, 1), min_size=len(picked), max_size=len(picked)
        )))
        vector = vector_of(snap, [r.fingerprint for r in picked], probs)
        for key in ("country", "as"):
            expected: dict[str | None, float] = {}
            for relay, p in zip(picked, probs):
                value = relay.country if key == "country" else relay.as_number
                label = value if value is None or key == "country" else f"AS{value}"
                expected[label] = expected.get(label, 0.0) + float(p)
            # the relays with no value last among groups of equal probability
            assert group_diversity(snap, vector, key) == sorted(
                expected.items(), key=lambda item: (-item[1], item[0] is None, item[0] or "")
            )

    @settings(max_examples=100, deadline=None)
    @given(
        relay_lists(heavy=False),
        st.lists(st.integers(0, 2), min_size=3, max_size=3),
        st.lists(st.sampled_from(["X0", "X1", "ADV999GUARD", *NAMES]), max_size=3),
    )
    def test_adversary_mask_and_guards(self, relays, joins, named):
        # a fixed 3a network underneath, so every list has a supported case;
        # at time 1 an adversary relay that joins at 2 is not yet live, and
        # the adversary also names relays no table holds, or real relays
        base = [
            make_relay("G1", 1000, "g", subnet="1.1"), make_relay("G2", 500, "g"),
            make_relay("M1", 600, "m"), make_relay("E1", 100, "e", subnet="250.0"),
        ]
        spec = AdversarySpec(tuple(
            dataclasses.replace(relay, join_time=t) for relay, t in zip(ADVERSARY.relays, joins)
        ))
        live = inject_adversary(ConsensusSnapshot.from_relays(1, base + relays), spec)
        adversary = frozenset(spec.fingerprints) | frozenset(named)
        state = NetworkState(live, Algorithm.WATERFILLING, adversary, 1, 3600)
        relays = live.relays
        assert state.adv_mask.tolist() == [r.fingerprint in adversary for r in relays]
        assert state.guard.tolist() == [is_guard(r) for r in relays]
        # the entry pool holds rows of weighted guards, in document order
        rows = state.entry.indices.tolist()
        assert rows == sorted(rows)
        assert all(is_guard(relays[i]) and relays[i].consensus_weight for i in rows)


def another_process(first):
    """The process-wide code tables of a process that coded the names
    ``first`` in each name table, and a flag set, a policy and a family set
    that no table here holds in the others, before anything else, in place
    of this one's."""
    tables = {column: consensus._NameTable(t.intern) for column, t in consensus._NAMES.items()}
    for column in consensus._NAME_COLUMNS:
        for name in first:
            tables[column][name]
    tables["flag_id"][frozenset({"NoTestFlag"})]
    tables["policy_id"][parse_policy("accept:7;reject:*")]
    tables["family_id"][frozenset({"NO-TEST-RELAY"})]
    return mock.patch.object(consensus, "_NAMES", tables)


def test_a_pickled_table_keeps_its_subnets_in_another_process():
    relays = [
        make_relay("G1", 1000, "g", subnet="7.1"), make_relay("G2", 500, "g", subnet="7.2"),
        make_relay("M1", 600, "m"), make_relay("E1", 100, "e", subnet="7.1"),
    ]
    data = pickle.dumps(ConsensusSnapshot.from_relays(0, relays))
    # a fresh process's name tables, which code another /16 first
    with another_process(["7.2"]):
        again = pickle.loads(data)
        assert again.relays == tuple(relays)
        assert list(again.table._known("subnet")) == ["7.1", "7.2"]
        joined = again.with_relays([make_relay("E2", 100, "e", subnet="7.2")])
        assert conflicts_match(joined)


def test_prepared_states_survive_pickling():
    base = [
        make_relay("G1", 1000, "g", subnet="1.1", family=frozenset({"ADV001EXIT"})),
        make_relay("G2", 500, "g"), make_relay("M1", 600, "m"), make_relay("E1", 100, "e"),
    ]
    live = inject_adversary(ConsensusSnapshot.from_relays(0, base), ADVERSARY)
    state = NetworkState(live, Algorithm.WATERFILLING, frozenset(ADVERSARY.fingerprints), 0, 3600)
    again = pickle.loads(pickle.dumps(state))
    assert again.snapshot == live and again.snapshot.relays == live.relays
    assert again.adv_mask.tolist() == state.adv_mask.tolist()
    table, before = again.snapshot.table, state.snapshot.table
    assert np.array_equal(table.family_keys, before.family_keys)
    assert np.array_equal(table.in_family, before.in_family)
    assert again.waterfills[0].table is again.snapshot.table
    assert again.summary() == state.summary()


class TestCodes:
    """The code columns against the names they code, and the one map from
    fingerprints to rows."""

    @settings(max_examples=50, deadline=None)
    @given(text_relay_lists(), text_relay_lists(), st.lists(texts, max_size=4))
    def test_rows_agree_with_a_dict_of_the_fingerprints(self, relays, others, unknown):
        ConsensusSnapshot.from_relays(0, others)  # names coded, but absent from the table
        table = ConsensusSnapshot.from_relays(0, relays).table
        row_of = {fp: i for i, fp in enumerate(table.fingerprints)}
        names = [
            *table.fingerprints, *(r.fingerprint for r in others), *unknown,
            *(fp + "\x00" for fp in table.fingerprints),
        ]
        coded = len(consensus._NAMES["fingerprint"])
        rows = table.rows(fingerprint_codes(names))
        assert rows.tolist() == [row_of.get(name, -1) for name in names]
        assert len(consensus._NAMES["fingerprint"]) == coded  # a lookup adds no name

    @settings(max_examples=50, deadline=None)
    @given(text_relay_lists(), text_relay_lists())
    def test_codes_are_equal_exactly_when_names_are(self, a, b):
        a = ConsensusSnapshot.from_relays(0, a).table
        b = ConsensusSnapshot.from_relays(0, b).table
        for column in ("fingerprint", "nickname", "country_code"):
            equal = getattr(a, column)[:, None] == getattr(b, column)[None, :]
            assert equal.tolist() == [
                [x == y for y in b._names(column)] for x in a._names(column)
            ]

    @settings(max_examples=50, deadline=None)
    @given(text_relay_lists(), st.lists(texts, max_size=6))
    def test_a_pickle_decodes_to_the_same_rows_in_another_process(self, relays, first):
        snap = inject_adversary(ConsensusSnapshot.from_relays(0, relays), ADVERSARY)
        expected = snap.relays
        conflicts = snap.table.conflict(np.arange(len(expected))[:, None], np.arange(len(expected)))
        data = pickle.dumps(snap)
        with another_process(first):
            again = pickle.loads(data)
            assert again.relays == expected
            assert again == ConsensusSnapshot.from_relays(0, expected)
            rows = again.table.rows(fingerprint_codes(r.fingerprint for r in expected))
            assert rows.tolist() == list(range(len(expected)))
            assert np.array_equal(
                again.table.conflict(np.arange(len(expected))[:, None], np.arange(len(expected))),
                conflicts,
            )


class TestEveryColumnIsAnArray:
    """Every relay value lives in a numpy column; nothing per relay sits
    beside the columns, so equality compares arrays only."""

    @settings(max_examples=50, deadline=None)
    @given(relay_lists())
    def test_every_per_row_slot_is_an_array_of_the_rows(self, relays):
        table = inject_adversary(ConsensusSnapshot.from_relays(0, relays), ADVERSARY).table
        for slot in type(table).__slots__:
            value = getattr(table, slot)
            assert isinstance(value, np.ndarray), slot
            if slot != "family_keys":  # the resolved family pairs, not one per row
                assert value.shape == (len(table),), slot

    @pytest.mark.parametrize("field,value", [
        ("flags", frozenset({"Fast", "Running", "Valid", "Weird"})),  # still a middle
        ("exit_policy", parse_policy("accept:80,443;reject:*")),
        ("family", frozenset({"X0"})),  # names no relay, so no pair resolves
    ])
    def test_tables_differing_in_one_relays_set_or_policy_are_unequal(self, field, value):
        relays = [
            make_relay("G1", 1000, "g", family=frozenset({"E1"})), make_relay("M1", 600, "m"),
            make_relay("E1", 100, "e", family=frozenset({"G1"})),
        ]
        other = [relays[0], dataclasses.replace(relays[1], **{field: value}), relays[2]]
        a, b = (ConsensusSnapshot.from_relays(0, r).table for r in (relays, other))
        assert np.array_equal(a.pool, b.pool) and np.array_equal(a.family_keys, b.family_keys)
        assert a != b
        assert a == ConsensusSnapshot.from_relays(0, relays).table


def pool_rows(relays, dual):
    return [i for i, r in enumerate(relays) if is_guard(r) and is_exit(r) == dual]


class TestWaterfillOrder:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.text("ABCab\x00", min_size=1, max_size=3),
                st.one_of(st.integers(0, 3), st.integers(0, 10**9)),
                st.sampled_from("gd"),
            ),
            unique_by=lambda t: t[0], max_size=30,
        ),
        st.fractions(min_value=0, max_value=1, max_denominator=10**6).filter(lambda f: 0 < f < 1),
    )
    def test_order_and_pivot_against_sorted_and_the_scan(self, spec, share):
        relays = [make_relay(fp, w, role) for fp, w, role in spec]
        snap = ConsensusSnapshot.from_relays(0, relays)
        w = PositionWeights(
            Wgg=share, Wmg=1 - share, Wee=1, Wme=0, Wgd=share / 2, Wmd=1 - share, Wed=share / 2,
        )
        for solve, pool in ((solve_guard_waterfill, TargetPool.GUARDS),
                            (solve_dset_waterfill, TargetPool.DSET)):
            # the solve runs by falling weight, then row; the rendering by
            # falling weight, then fingerprint
            rows = sorted(
                pool_rows(relays, pool is TargetPool.DSET),
                key=lambda i: (-relays[i].consensus_weight, i),
            )
            bandwidths = [relays[i].consensus_weight for i in rows]
            positive = [b for b in bandwidths if b]
            if not positive:
                continue
            sol = solve(snap, w)
            assert sol.rows.tolist() == rows
            assert sol.bandwidths.tolist() == bandwidths
            assert (sol.water_level, sol.pivot_index) == find_water_level(positive, sol.target)
            names = sorted((-relays[i].consensus_weight, relays[i].fingerprint) for i in rows)
            assert [s.fingerprint for s in sol.shares] == [fp for _, fp in names]
