"""Relay lists, pool totals, and network-load classification.

A snapshot is an hourly relay list with one consensus-weight integer per
relay.  Relays are partitioned into four pools by their flags:

    G  relays with the Guard flag and not the Exit flag
    M  relays with neither flag
    E  relays with the Exit flag and not the Guard flag
    D  relays with both flags

Exit-policy permissiveness never affects pool membership; it only filters
exit candidates per stream.  Two formats are supported: a line-oriented
native format (reviewable in diffs) and a subset of the Tor v3
network-status format (``valid-after`` plus ``r``/``s``/``w``/``p`` lines).
"""

from __future__ import annotations

import enum
import gc
import json
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import (
    DegenerateNetworkError,
    DuplicateRelayError,
    InvariantError,
    ParseError,
)

PORT_MIN = 1
PORT_MAX = 65535


@dataclass(frozen=True)
class PolicyRule:
    """One accept/reject rule over port ranges (address is a wildcard)."""

    accept: bool
    ports: tuple[tuple[int, int], ...]  # inclusive (lo, hi) ranges; () means all ports

    def matches(self, port: int) -> bool:
        if not self.ports:
            return True
        return any(lo <= port <= hi for lo, hi in self.ports)

    def __str__(self) -> str:
        verb = "accept" if self.accept else "reject"
        if not self.ports:
            return f"{verb}:*"
        spans = ",".join(str(lo) if lo == hi else f"{lo}-{hi}" for lo, hi in self.ports)
        return f"{verb}:{spans}"


REJECT_ALL = PolicyRule(accept=False, ports=())
ACCEPT_ALL = PolicyRule(accept=True, ports=())


def parse_policy(text: str) -> tuple[PolicyRule, ...]:
    """Parse ``accept:80,443;reject:*`` style policy strings.

    A terminal wildcard rule is appended (reject) when the input does not
    end with one, so every policy decides every port.
    """
    rules = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        verb, sep, spans = chunk.partition(":")
        if not sep or verb not in ("accept", "reject"):
            raise ValueError(f"bad policy rule {chunk!r}")
        rules.append(PolicyRule(accept=(verb == "accept"), ports=_parse_port_spans(spans)))
    if not rules or rules[-1].ports:
        rules.append(REJECT_ALL)
    return tuple(rules)


def _parse_policy_once(parsed: dict[str, tuple[PolicyRule, ...]], text: str):
    """parse_policy through a per-document cache.

    Rules are frozen, so relays with the same policy text can share one
    parsed tuple.
    """
    policy = parsed.get(text)
    if policy is None:
        policy = parsed[text] = parse_policy(text)
    return policy


def _parse_port_spans(spans: str) -> tuple[tuple[int, int], ...]:
    if spans.strip() == "*":
        return ()
    out = []
    for item in spans.split(","):
        item = item.strip()
        lo, sep, hi = item.partition("-")
        a = int(lo)
        b = int(hi) if sep else a
        if not (PORT_MIN <= a <= b <= PORT_MAX):
            raise ValueError(f"bad port span {item!r}")
        out.append((a, b))
    return tuple(out)


def policy_accepts(policy: tuple[PolicyRule, ...], port: int) -> bool:
    """First matching rule decides; the terminal wildcard guarantees a match."""
    for rule in policy:
        if rule.matches(port):
            return rule.accept
    return False


@dataclass(frozen=True)
class RelayEntry:
    """One relay as published in a snapshot."""

    fingerprint: str
    nickname: str
    consensus_weight: int
    flags: frozenset[str] = frozenset()
    exit_policy: tuple[PolicyRule, ...] = (REJECT_ALL,)
    family: frozenset[str] = frozenset()
    subnet16: str | None = None  # first two octets; None means unknown
    country: str | None = None
    as_number: int | None = None

    def __post_init__(self):
        if self.consensus_weight < 0:
            raise InvariantError(f"{self.fingerprint}: negative consensus weight")
        if not self.exit_policy:
            raise InvariantError(f"{self.fingerprint}: empty exit policy")

    @property
    def is_guard(self) -> bool:
        return "Guard" in self.flags

    @property
    def is_exit(self) -> bool:
        return "Exit" in self.flags

    def accepts_port(self, port: int) -> bool:
        return policy_accepts(self.exit_policy, port)

    def pool(self) -> str:
        """Which of G/M/E/D this relay's weight counts toward."""
        if self.is_guard and self.is_exit:
            return "D"
        if self.is_guard:
            return "G"
        if self.is_exit:
            return "E"
        return "M"


@dataclass(frozen=True)
class PoolTotals:
    """Consensus-weight sums of the four relay pools."""

    G: int = 0
    M: int = 0
    E: int = 0
    D: int = 0

    @property
    def T(self) -> int:
        return self.G + self.M + self.E + self.D

    @staticmethod
    def from_relays(relays) -> "PoolTotals":
        """Totals summed relay by relay: a reference for ``RelayTable.totals``."""
        sums = {"G": 0, "M": 0, "E": 0, "D": 0}
        for relay in relays:
            sums[relay.pool()] += relay.consensus_weight
        return PoolTotals(**sums)


# A relay's pool code: bit GUARD for the Guard flag, bit EXIT for the Exit flag.
GUARD = 1
EXIT = 2
POOL_NAMES = ("M", "G", "E", "D")  # indexed by pool code

INT64_MAX = 2**63 - 1


def _pool_code(flags) -> int:
    return ("Guard" in flags) * GUARD | ("Exit" in flags) * EXIT


class RelayTable:
    """One snapshot's relays as columns, in document order.

    Weights are int64; exact products and sums convert them to Python ints.
    ``pool`` holds each relay's pool code.  Flag sets and exit policies are
    interned: a row holds an id into the table's distinct values, so
    unknown flags round-trip.  ``subnet_codes`` maps each known /16 string
    to its code; a relay with no known subnet gets the code ``-(row + 1)``,
    which matches only itself.  ``family`` keeps each non-empty family set
    as published; ``family_keys`` holds the resolved pairs as sorted
    ``i*n + j`` keys in both directions, and ``dangling`` the (row, name)
    entries that name no relay here, in case a later row does;
    ``in_family`` marks the rows that take part in a resolved pair.  ``row``
    maps each fingerprint to its row.
    """

    __slots__ = (
        "fingerprints", "nicknames", "weights", "pool", "flag_id", "flag_sets",
        "policy_id", "policies", "subnet", "subnet_codes", "family", "family_keys",
        "in_family", "dangling", "country", "as_number", "row",
    )

    def __init__(self, **columns):
        for name in self.__slots__:
            setattr(self, name, columns[name])

    def __len__(self) -> int:
        return len(self.fingerprints)

    @property
    def guard(self) -> np.ndarray:
        return (self.pool & GUARD) != 0

    def totals(self) -> PoolTotals:
        """Exact weight sums per pool code, over Python ints."""
        return PoolTotals(**{
            name: sum(self.weights[self.pool == code].tolist())
            for code, name in enumerate(POOL_NAMES)
        })

    def conflict(self, a, b) -> np.ndarray:
        """Element-wise conflict of relay rows ``a`` and ``b`` (broadcasts).

        Two relays may not share a circuit when they are the same relay,
        when either lists the other as family, or when they share a known
        /16 subnet.  Every /16 code matches itself, so comparing codes also
        covers the same-relay rule; family pairs are looked up in
        ``family_keys`` only where both relays have family.
        """
        a = np.asarray(a)
        b = np.asarray(b)
        out = np.asarray(self.subnet[a] == self.subnet[b])
        keys = self.family_keys
        if keys.size:
            # flat positions where both relays have family; the broadcast
            # rows are read only there
            both = np.flatnonzero(self.in_family[a] & self.in_family[b])
            if both.size:
                wanted = (
                    np.broadcast_to(a, out.shape).flat[both] * len(self)
                    + np.broadcast_to(b, out.shape).flat[both]
                )
                found = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
                out.reshape(-1)[both] |= keys[found] == wanted
        return out

    def accepts(self, port: int) -> np.ndarray:
        """Mask of the relays whose exit policy accepts ``port``."""
        verdicts = np.array([policy_accepts(p, port) for p in self.policies], dtype=bool)
        return verdicts[self.policy_id]

    def relays(self) -> tuple["RelayEntry", ...]:
        flag_sets, policies, names, family = (
            self.flag_sets, self.policies, tuple(self.subnet_codes), self.family
        )
        columns = zip(
            self.fingerprints, self.nicknames, self.weights.tolist(), self.flag_id.tolist(),
            self.policy_id.tolist(), self.subnet.tolist(), self.country, self.as_number,
        )
        return tuple(
            RelayEntry(
                fp, nick, weight, flag_sets[f], policies[p], family.get(i, frozenset()),
                names[s] if s >= 0 else None, country, as_number,
            )
            for i, (fp, nick, weight, f, p, s, country, as_number) in enumerate(columns)
        )

    def _cells(self) -> tuple:
        """Per-row values of the interned columns, comparable across tables."""
        names = tuple(self.subnet_codes)
        return (
            [self.flag_sets[i] for i in self.flag_id.tolist()],
            [self.policies[i] for i in self.policy_id.tolist()],
            [names[c] if c >= 0 else None for c in self.subnet.tolist()],
            self.family,
        )

    def __eq__(self, other) -> bool:
        """Equal exactly when the two tables' relay tuples are."""
        if not isinstance(other, RelayTable):
            return NotImplemented
        return (
            np.array_equal(self.weights, other.weights)
            and self.fingerprints == other.fingerprints
            and self.nicknames == other.nicknames
            and self.country == other.country
            and self.as_number == other.as_number
            and self._cells() == other._cells()
        )

    __hash__ = None


class _TableBuilder:
    """Collects rows in document order, after the rows of an optional base."""

    def __init__(self, base: RelayTable | None = None):
        self.base = base
        self.first = 0 if base is None else len(base)
        self.fingerprints: list[str] = []
        self.nicknames: list[str] = []
        self.weights: list[int] = []
        self.pool: list[int] = []
        self.flag_id: list[int] = []
        self.policy_id: list[int] = []
        self.subnet: list[int] = []
        self.country: list = []
        self.as_number: list = []
        self.family: dict[int, frozenset[str]] = {}
        if base is None:
            self.row: dict[str, int] = {}
            self.flag_ids: dict[frozenset[str], int] = {}
            self.policy_ids: dict[tuple[PolicyRule, ...], int] = {}
            self.subnet_codes: dict[str, int] = {}
        else:
            self.row = dict(base.row)
            self.flag_ids = {flags: i for i, flags in enumerate(base.flag_sets)}
            self.policy_ids = {policy: i for i, policy in enumerate(base.policies)}
            self.subnet_codes = dict(base.subnet_codes)

    def flag_set(self, flags: frozenset[str]) -> int:
        return self.flag_ids.setdefault(flags, len(self.flag_ids))

    def policy(self, policy: tuple[PolicyRule, ...]) -> int:
        return self.policy_ids.setdefault(policy, len(self.policy_ids))

    def add(self, fingerprint, nickname, weight, pool, flag_id, policy_id, family,
            subnet16, country, as_number) -> None:
        """Append one row; a repeated fingerprint raises DuplicateRelayError."""
        i = self.first + len(self.fingerprints)
        if self.row.setdefault(fingerprint, i) != i:
            raise DuplicateRelayError(f"duplicate fingerprint {fingerprint}")
        self.fingerprints.append(fingerprint)
        self.nicknames.append(nickname)
        self.weights.append(weight)
        self.pool.append(pool)
        self.flag_id.append(flag_id)
        self.policy_id.append(policy_id)
        if family:
            self.family[i] = family
        if subnet16 is None:
            self.subnet.append(-(i + 1))
        else:
            self.subnet.append(self.subnet_codes.setdefault(subnet16, len(self.subnet_codes)))
        self.country.append(country)
        self.as_number.append(as_number)

    def add_flagged(self, fingerprint, nickname, weight, flags, policy, family=frozenset(),
                    subnet16=None, country=None, as_number=None) -> None:
        """``add`` with the flag set and exit policy given as values."""
        self.add(
            fingerprint, nickname, weight, _pool_code(flags), self.flag_set(flags),
            self.policy(policy), family, subnet16, country, as_number,
        )

    def add_relay(self, relay: "RelayEntry") -> None:
        if relay.consensus_weight > INT64_MAX:
            raise InvariantError(f"{relay.fingerprint}: consensus weight does not fit in 64 bits")
        self.add_flagged(
            relay.fingerprint, relay.nickname, relay.consensus_weight, relay.flags,
            relay.exit_policy, relay.family, relay.subnet16, relay.country, relay.as_number,
        )

    def finish(self) -> RelayTable:
        base, first, row = self.base, self.first, self.row
        n = first + len(self.fingerprints)
        families = self.family.items()
        if base is not None:
            families = chain(((i, (name,)) for i, name in base.dangling), families)
        left, right, dangling = [], [], []
        for i, names in families:
            for name in names:
                j = row.get(name)
                if j is None:
                    dangling.append((i, name))
                else:
                    left.append(i)
                    right.append(j)
        left = np.array(left, dtype=np.int64)
        right = np.array(right, dtype=np.int64)
        keys = [left * n + right, right * n + left]
        if base is not None and base.family_keys.size:
            i, j = np.divmod(base.family_keys, first)  # re-encode for the new row count
            keys.append(i * n + j)

        family_keys = np.unique(np.concatenate(keys))
        in_family = np.zeros(n, dtype=bool)
        if family_keys.size:  # keys run both ways, so i covers every member
            in_family[family_keys // n] = True

        def column(name, dtype):
            fresh = np.array(getattr(self, name), dtype=dtype)
            return fresh if base is None else np.concatenate([getattr(base, name), fresh])

        def values(name):
            fresh = tuple(getattr(self, name))
            return fresh if base is None else getattr(base, name) + fresh

        return RelayTable(
            fingerprints=values("fingerprints"),
            nicknames=values("nicknames"),
            weights=column("weights", np.int64),
            pool=column("pool", np.int8),
            flag_id=column("flag_id", np.int32),
            flag_sets=tuple(self.flag_ids),
            policy_id=column("policy_id", np.int32),
            policies=tuple(self.policy_ids),
            subnet=column("subnet", np.int64),
            subnet_codes=self.subnet_codes,
            family=self.family if base is None else {**base.family, **self.family},
            family_keys=family_keys,
            in_family=in_family,
            dangling=tuple(dangling),
            country=values("country"),
            as_number=values("as_number"),
            row=row,
        )


def _build_snapshot(valid_after: int, builder: _TableBuilder, relays) -> "ConsensusSnapshot":
    for relay in relays:
        builder.add_relay(relay)
    table = builder.finish()
    return ConsensusSnapshot(valid_after, table, table.totals())


@dataclass(frozen=True, eq=False)
class ConsensusSnapshot:
    """One relay list, stored as a column table, with its pool totals.

    Build one with ``from_relays`` or a parser.  ``relays`` is the same list
    as ``RelayEntry`` objects, built on first read; equality compares the
    content.
    """

    valid_after: int  # UTC seconds
    table: RelayTable
    totals: PoolTotals

    @staticmethod
    def from_relays(valid_after: int, relays) -> "ConsensusSnapshot":
        """Snapshot of a relay list, read once."""
        return _build_snapshot(valid_after, _TableBuilder(), relays)

    def with_relays(self, relays) -> "ConsensusSnapshot":
        """This snapshot with ``relays`` appended after its own."""
        return _build_snapshot(self.valid_after, _TableBuilder(self.table), relays)

    @cached_property
    def relays(self) -> tuple[RelayEntry, ...]:
        """The relays as ``RelayEntry`` objects, built on first read."""
        return self.table.relays()

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConsensusSnapshot):
            return NotImplemented
        return (
            self.valid_after == other.valid_after
            and self.totals == other.totals
            and self.table == other.table
        )

    __hash__ = None


class LoadCase(enum.Enum):
    """The network-load regimes this package knows how to weight.

    The two scarce-exit cases use the Tor dir-spec naming: 3aE=SG>M means
    exit capacity is scarce even counting dual-role relays and the guard
    pool exceeds the middle pool; 3bE=S means pure exits are scarce but
    dual-role relays cover the gap.
    """

    BALANCED = "balanced"
    CASE_3A = "3aE=SG>M"
    CASE_3B = "3bE=S"
    UNSUPPORTED = "unsupported"


def classify_load_case(totals: PoolTotals) -> tuple[LoadCase, str]:
    """Classify totals into a load case; returns (case, detail).

    detail is empty for supported cases and explains why otherwise.
    Comparisons against T/3 are exact (3x cross-multiplied integers).
    """
    T = totals.T
    if T <= 0:
        raise DegenerateNetworkError("all pool totals are zero")
    G, M, E, D = totals.G, totals.M, totals.E, totals.D
    if 3 * (E + D) < T:
        if G > M:
            return LoadCase.CASE_3A, ""
        return (
            LoadCase.UNSUPPORTED,
            "exit capacity scarce (E+D < T/3) but guard pool does not exceed middle pool",
        )
    if 3 * E < T:
        return LoadCase.CASE_3B, ""
    if 3 * (G + D) >= T:
        return LoadCase.BALANCED, ""
    return (
        LoadCase.UNSUPPORTED,
        "guard capacity scarce (G+D < T/3) with exits plentiful",
    )


# ---------------------------------------------------------------------------
# Native format
# ---------------------------------------------------------------------------

def parse_native(text: str) -> ConsensusSnapshot:
    """Parse the native line format.

    Layout: a ``snapshot <valid_after>`` header followed by ``relay`` lines:

        relay <fingerprint> <nickname> <weight> [flags=..] [policy=..]
              [family=..] [subnet=a.b] [country=cc] [as=N]

    Raises ParseError with a line number on any malformed line and
    DuplicateRelayError naming both lines for a repeated fingerprint.
    """
    valid_after = None
    builder = _TableBuilder()
    seen_lines: dict[str, int] = {}
    policies: dict[str, tuple[PolicyRule, ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        keyword = fields[0]
        if keyword == "snapshot":
            if valid_after is not None:
                raise ParseError("repeated snapshot header", line=lineno)
            if len(fields) != 2:
                raise ParseError("snapshot header needs exactly one timestamp", line=lineno)
            try:
                valid_after = int(fields[1])
            except ValueError:
                raise ParseError(f"bad timestamp {fields[1]!r}", line=lineno) from None
        elif keyword == "relay":
            if valid_after is None:
                raise ParseError("relay line before snapshot header", line=lineno)
            fingerprint = fields[1] if len(fields) > 1 else None
            if fingerprint in seen_lines:
                raise DuplicateRelayError(
                    f"fingerprint {fingerprint} already declared on line "
                    f"{seen_lines[fingerprint]}",
                    line=lineno,
                )
            _add_relay_line(builder, fields[1:], lineno, policies)
            seen_lines[fingerprint] = lineno
        else:
            raise ParseError(f"unknown keyword {keyword!r}", line=lineno)
    if valid_after is None:
        raise ParseError("missing snapshot header")
    table = builder.finish()
    return ConsensusSnapshot(valid_after, table, table.totals())


def _add_relay_line(
    builder: _TableBuilder,
    fields: list[str],
    lineno: int,
    policies: dict[str, tuple[PolicyRule, ...]],
) -> None:
    if len(fields) < 3:
        raise ParseError("relay line needs fingerprint, nickname, and weight", line=lineno)
    fingerprint, nickname, weight_text = fields[0], fields[1], fields[2]
    try:
        weight = int(weight_text)
    except ValueError:
        raise ParseError(f"bad consensus weight {weight_text!r}", line=lineno) from None
    if weight < 0:
        raise ParseError("consensus weight must be non-negative", line=lineno)
    if weight > INT64_MAX:
        raise ParseError("consensus weight does not fit in 64 bits", line=lineno)
    kwargs = {"flags": frozenset(), "policy": (REJECT_ALL,)}
    for token in fields[3:]:
        key, sep, value = token.partition("=")
        if not sep:
            raise ParseError(f"expected key=value, got {token!r}", line=lineno)
        try:
            if key == "flags":
                kwargs["flags"] = frozenset(v for v in value.split(",") if v)
            elif key == "policy":
                kwargs["policy"] = _parse_policy_once(policies, value)
            elif key == "family":
                kwargs["family"] = frozenset(v for v in value.split(",") if v)
            elif key == "subnet":
                kwargs["subnet16"] = value
            elif key == "country":
                kwargs["country"] = value
            elif key == "as":
                kwargs["as_number"] = int(value)
            else:
                raise ParseError(f"unknown field {key!r}", line=lineno)
        except (ValueError, TypeError) as exc:
            raise ParseError(f"bad {key} value {value!r}: {exc}", line=lineno) from None
    builder.add_flagged(fingerprint, nickname, weight, **kwargs)


def serialize_native(snapshot: ConsensusSnapshot) -> str:
    """Inverse of parse_native; optional fields are emitted only when set."""
    lines = [f"snapshot {snapshot.valid_after}"]
    for r in snapshot.relays:
        parts = [f"relay {r.fingerprint} {r.nickname} {r.consensus_weight}"]
        if r.flags:
            parts.append("flags=" + ",".join(sorted(r.flags)))
        parts.append("policy=" + ";".join(str(rule) for rule in r.exit_policy))
        if r.family:
            parts.append("family=" + ",".join(sorted(r.family)))
        if r.subnet16 is not None:
            parts.append(f"subnet={r.subnet16}")
        if r.country is not None:
            parts.append(f"country={r.country}")
        if r.as_number is not None:
            parts.append(f"as={r.as_number}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Tor v3 network-status subset
# ---------------------------------------------------------------------------

def parse_v3_subset(text: str, warnings: list[str] | None = None) -> ConsensusSnapshot:
    """Parse the v3 network-status subset: valid-after, r, s, w, p lines.

    Unknown lines are skipped.  Routers lacking a ``w`` line get weight 0;
    a note is appended to ``warnings`` when a list is supplied.
    """
    valid_after = None
    builder = _TableBuilder()
    seen_fp: dict[str, int] = {}
    current: dict | None = None

    def flush():
        nonlocal current
        if current is None:
            return
        line = current.pop("line")
        if current["weight"] is None:
            current["weight"] = 0
            if warnings is not None:
                warnings.append(
                    f"router {current['fingerprint']} (line {line}) has no "
                    "w line; consensus weight defaults to 0"
                )
        builder.add_flagged(**current)
        current = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        keyword = fields[0]
        if keyword == "valid-after":
            try:
                stamp = datetime.strptime(" ".join(fields[1:3]), "%Y-%m-%d %H:%M:%S")
            except (ValueError, IndexError):
                raise ParseError("bad valid-after line", line=lineno) from None
            valid_after = int(stamp.replace(tzinfo=timezone.utc).timestamp())
        elif keyword == "r":
            flush()
            if len(fields) != 9:
                raise ParseError(
                    f"r line has {len(fields) - 1} fields, expected 8", line=lineno
                )
            fingerprint = fields[2]
            if fingerprint in seen_fp:
                raise DuplicateRelayError(
                    f"fingerprint {fingerprint} already declared on line {seen_fp[fingerprint]}",
                    line=lineno,
                )
            seen_fp[fingerprint] = lineno
            address = fields[6]
            octets = address.split(".")
            subnet16 = ".".join(octets[:2]) if len(octets) == 4 else None
            current = {
                "fingerprint": fingerprint,
                "nickname": fields[1],
                "weight": None,
                "flags": frozenset(),
                "policy": (REJECT_ALL,),
                "subnet16": subnet16,
                "line": lineno,
            }
        elif keyword == "s" and current is not None:
            current["flags"] = frozenset(fields[1:])
        elif keyword == "w" and current is not None:
            for item in fields[1:]:
                key, sep, value = item.partition("=")
                if key == "Bandwidth" and sep:
                    try:
                        current["weight"] = int(value)
                    except ValueError:
                        raise ParseError(f"bad Bandwidth value {value!r}", line=lineno) from None
                    if not 0 <= current["weight"] <= INT64_MAX:
                        raise ParseError(
                            f"Bandwidth {value} is outside [0, 2**63 - 1]", line=lineno
                        )
        elif keyword == "p" and current is not None:
            if len(fields) != 3 or fields[1] not in ("accept", "reject"):
                raise ParseError("bad p line", line=lineno)
            try:
                spans = _parse_port_spans(fields[2])
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
            listed = PolicyRule(accept=(fields[1] == "accept"), ports=spans)
            default = REJECT_ALL if listed.accept else ACCEPT_ALL
            current["policy"] = (listed, default)
        # anything else: ignored
    flush()
    if valid_after is None:
        raise ParseError("missing valid-after line")
    table = builder.finish()
    return ConsensusSnapshot(valid_after, table, table.totals())


# ---------------------------------------------------------------------------
# Canonical JSON rendering
# ---------------------------------------------------------------------------

def snapshot_to_json(snapshot: ConsensusSnapshot) -> str:
    """Stable-key-order JSON; relays keep document order."""
    doc = {
        "format": "waterweights-snapshot-v1",
        "valid_after": snapshot.valid_after,
        "totals": {
            "G": snapshot.totals.G,
            "M": snapshot.totals.M,
            "E": snapshot.totals.E,
            "D": snapshot.totals.D,
            "T": snapshot.totals.T,
        },
        "relays": [
            {
                "fingerprint": r.fingerprint,
                "nickname": r.nickname,
                "consensus_weight": r.consensus_weight,
                "flags": sorted(r.flags),
                "exit_policy": [str(rule) for rule in r.exit_policy],
                "family": sorted(r.family),
                "subnet16": r.subnet16,
                "country": r.country,
                "as_number": r.as_number,
            }
            for r in snapshot.relays
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# Each relay field's JSON types and their name; type(True) is bool, so
# booleans are no integers.  The items of a list must be strings.
_RELAY_FIELDS = (
    ("fingerprint", (str,), "a string"),
    ("nickname", (str,), "a string"),
    ("consensus_weight", (int,), "an integer"),
    ("flags", (list,), "a list of strings"),
    ("exit_policy", (list,), "a list of strings"),
    ("family", (list,), "a list of strings"),
    ("subnet16", (str, type(None)), "a string or null"),
    ("country", (str, type(None)), "a string or null"),
    ("as_number", (int, type(None)), "an integer or null"),
)


def _field_error(r: dict, i: int) -> ParseError:
    """The ParseError naming relay ``i``'s first field of a wrong type."""
    return next(
        ParseError(f"relays[{i}].{field} must be {wanted}, not {value!r}")
        for field, types, wanted in _RELAY_FIELDS
        for value in [r.get(field, [] if list in types else None)]
        if type(value) not in types or list in types and not all(type(s) is str for s in value)
    )


def snapshot_from_json(text: str) -> ConsensusSnapshot:
    """Read a snapshot document straight into a column table, row by row.

    Field types are checked, not coerced: weights and ``valid_after`` are
    JSON integers, ``flags``, ``family`` and ``exit_policy`` lists of
    strings, ``subnet16`` and ``country`` strings or null, ``as_number`` an
    integer or null.  A wrong type raises ParseError naming the relay
    index and the field.
    """
    # The decoded document holds no reference cycles, so the collector's
    # passes over it while it is built free nothing; pause it, and leave it
    # as the caller had it.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _snapshot_from_json(text)
    finally:
        if enabled:
            gc.enable()


def _snapshot_from_json(text: str) -> ConsensusSnapshot:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if type(doc) is not dict or type(doc.get("relays")) is not list:
        raise ParseError("snapshot document must be an object with a 'relays' list")
    valid_after = doc.get("valid_after")
    if type(valid_after) is not int:
        raise ParseError(f"valid_after must be an integer, not {valid_after!r}")
    b = _TableBuilder()
    # flag and rule lists seen so far; a key holds strings only, so a hit
    # needs no item check
    flag_ids: dict[tuple, tuple[int, int]] = {}  # flags -> (pool code, flag-set id)
    policy_ids: dict[tuple, int] = {}
    texts: dict[str, tuple[PolicyRule, ...]] = {}
    for i, r in enumerate(doc["relays"]):
        if type(r) is not dict:
            raise ParseError(f"relays[{i}] must be an object")
        fingerprint, nickname = r.get("fingerprint"), r.get("nickname")
        weight, subnet16 = r.get("consensus_weight"), r.get("subnet16")
        flags, rules, family = r.get("flags", []), r.get("exit_policy", []), r.get("family", [])
        country, as_number = r.get("country"), r.get("as_number")
        if (
            type(fingerprint) is not str or type(nickname) is not str or type(weight) is not int
            or type(flags) is not list or type(rules) is not list or type(family) is not list
            or not (subnet16 is None or type(subnet16) is str)
            or not (country is None or type(country) is str)
            or not (as_number is None or type(as_number) is int)
        ):
            raise _field_error(r, i)
        if not 0 <= weight <= INT64_MAX:
            raise ParseError(f"relays[{i}].consensus_weight {weight} is outside [0, 2**63 - 1]")
        try:
            flags, rules = tuple(flags), tuple(rules)
            codes, policy_id = flag_ids.get(flags), policy_ids.get(rules)
        except TypeError:  # an unhashable item, which is no string
            raise _field_error(r, i) from None
        if codes is None:
            if not all(type(s) is str for s in flags):
                raise _field_error(r, i)
            codes = flag_ids[flags] = _pool_code(flags), b.flag_set(frozenset(flags))
        if policy_id is None:
            if not all(type(s) is str for s in rules):
                raise _field_error(r, i)
            try:
                policy = _parse_policy_once(texts, ";".join(rules)) if rules else (REJECT_ALL,)
            except ValueError as exc:
                raise ParseError(f"relays[{i}].exit_policy: {exc}") from None
            policy_id = policy_ids[rules] = b.policy(policy)
        if family:
            if not all(type(s) is str for s in family):
                raise _field_error(r, i)
            family = frozenset(family)
        b.add(
            fingerprint, nickname, weight, *codes, policy_id, family, subnet16, country, as_number
        )
    table = b.finish()
    snapshot = ConsensusSnapshot(valid_after, table, table.totals())
    stored = doc.get("totals")
    if stored is not None:
        expected = {k: getattr(snapshot.totals, k) for k in "GMED"}
        expected["T"] = snapshot.totals.T
        if type(stored) is not dict:
            raise ParseError("totals must be an object")
        for k in expected:
            if type(value := stored.get(k)) is not int:
                raise ParseError(f"totals.{k} must be an integer, not {value!r}")
        if {k: stored[k] for k in expected} != expected:
            raise ParseError("stored totals do not match relay list")
    return snapshot
