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
import json
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateNetworkError,
    DuplicateRelayError,
    InvariantError,
    ParseError,
)

KNOWN_FLAGS = frozenset({"Guard", "Exit", "Fast", "Stable", "Running", "Valid"})

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
        sums = {"G": 0, "M": 0, "E": 0, "D": 0}
        for relay in relays:
            sums[relay.pool()] += relay.consensus_weight
        return PoolTotals(**sums)


@dataclass(frozen=True)
class ConsensusSnapshot:
    """Immutable relay list with precomputed pool totals.

    Left out, ``totals`` is computed from the relays; given, it is checked
    against them.
    """

    valid_after: int  # UTC seconds
    relays: tuple[RelayEntry, ...]
    totals: PoolTotals | None = None

    def __post_init__(self):
        recomputed = PoolTotals.from_relays(self.relays)
        if self.totals is None:
            object.__setattr__(self, "totals", recomputed)
        elif recomputed != self.totals:
            raise InvariantError(
                f"stored totals {self.totals} do not match relays ({recomputed})"
            )
        seen = set()
        for relay in self.relays:
            if relay.fingerprint in seen:
                raise DuplicateRelayError(f"duplicate fingerprint {relay.fingerprint}")
            seen.add(relay.fingerprint)

    @staticmethod
    def from_relays(valid_after: int, relays) -> "ConsensusSnapshot":
        return ConsensusSnapshot(valid_after, tuple(relays))

    @cached_property
    def columns(self) -> "SnapshotColumns":
        """The relay list as per-field arrays, built on first use."""
        return SnapshotColumns(self.relays)


class SnapshotColumns:
    """One snapshot's relays as columns, in document order.

    Consensus weights stay exact Python ints (an object array), so products
    with rational weight factors are exact.  Each relay's exit policy is an
    id into the snapshot's distinct policies; ``accepts`` evaluates each
    distinct policy once per port.
    """

    __slots__ = ("fingerprints", "weights", "guard", "exit", "policy_id", "policies")

    def __init__(self, relays):
        self.fingerprints = tuple(r.fingerprint for r in relays)
        self.weights = np.array([r.consensus_weight for r in relays], dtype=object)
        self.guard = np.array([r.is_guard for r in relays], dtype=bool)
        self.exit = np.array([r.is_exit for r in relays], dtype=bool)
        ids: dict[tuple[PolicyRule, ...], int] = {}
        self.policy_id = np.array(
            [ids.setdefault(r.exit_policy, len(ids)) for r in relays], dtype=np.int64
        )
        self.policies = tuple(ids)

    def __len__(self) -> int:
        return len(self.fingerprints)

    def accepts(self, port: int) -> np.ndarray:
        """Mask of the relays whose exit policy accepts ``port``."""
        verdicts = np.array([policy_accepts(p, port) for p in self.policies], dtype=bool)
        return verdicts[self.policy_id]


class ConflictIndex:
    """Which relays of one list may not share a circuit.

    Two relays conflict when they are the same relay, when either lists
    the other as family, or when they share a known /16 subnet.  Relays
    are addressed by their position in the list.  Each relay gets an
    integer /16 code; an unknown subnet gets a code of its own, so it only
    ever matches the relay itself.  Every code matches itself, so comparing
    codes also covers the same-relay rule.  Family pairs are kept as sorted
    ``i*n + j`` keys in both directions; family members absent from the
    list are dropped.
    """

    __slots__ = ("position", "subnet", "family_keys")

    def __init__(self, relays):
        self.position = {r.fingerprint: i for i, r in enumerate(relays)}
        n = len(relays)
        codes: dict[str, int] = {}
        self.subnet = np.array(
            [
                -(i + 1) if r.subnet16 is None else codes.setdefault(r.subnet16, len(codes))
                for i, r in enumerate(relays)
            ],
            dtype=np.int64,
        )
        pairs = np.array(
            [
                (i, j)
                for i, r in enumerate(relays)
                for fp in r.family
                if (j := self.position.get(fp)) is not None
            ],
            dtype=np.int64,
        ).reshape(-1, 2)
        self.family_keys = np.unique(
            np.concatenate([pairs[:, 0] * n + pairs[:, 1], pairs[:, 1] * n + pairs[:, 0]])
        )

    def positions(self, fingerprints) -> np.ndarray:
        return np.array([self.position[fp] for fp in fingerprints], dtype=np.int64)

    def conflict(self, a, b) -> np.ndarray:
        """Element-wise conflict of relay positions ``a`` and ``b`` (broadcasts)."""
        a = np.asarray(a)
        b = np.asarray(b)
        out = self.subnet[a] == self.subnet[b]
        keys = self.family_keys
        if keys.size:
            wanted = a * len(self.subnet) + b
            found = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
            out |= keys[found] == wanted
        return out

    def matrix(self, rows, cols) -> np.ndarray:
        """Conflict mask of shape (len(rows), len(cols)); positions must be distinct."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        out = self.subnet[rows][:, None] == self.subnet[cols][None, :]
        i, j = np.divmod(self.family_keys, len(self.subnet))
        r, c = self._slots(rows)[i], self._slots(cols)[j]
        hit = (r >= 0) & (c >= 0)
        out[r[hit], c[hit]] = True
        return out

    def _slots(self, idx: np.ndarray) -> np.ndarray:
        """Where each relay sits in ``idx``, or -1."""
        slots = np.full(len(self.subnet), -1, dtype=np.int64)
        order = np.arange(len(idx))
        slots[idx] = order
        if (slots[idx] != order).any():
            raise InvariantError("conflict matrix axes repeat a relay")
        return slots


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
    relays = []
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
            relay = _parse_relay_line(fields[1:], lineno, policies)
            if relay.fingerprint in seen_lines:
                raise DuplicateRelayError(
                    f"fingerprint {relay.fingerprint} already declared on line "
                    f"{seen_lines[relay.fingerprint]}",
                    line=lineno,
                )
            seen_lines[relay.fingerprint] = lineno
            relays.append(relay)
        else:
            raise ParseError(f"unknown keyword {keyword!r}", line=lineno)
    if valid_after is None:
        raise ParseError("missing snapshot header")
    return ConsensusSnapshot.from_relays(valid_after, relays)


def _parse_relay_line(
    fields: list[str], lineno: int, policies: dict[str, tuple[PolicyRule, ...]]
) -> RelayEntry:
    if len(fields) < 3:
        raise ParseError("relay line needs fingerprint, nickname, and weight", line=lineno)
    fingerprint, nickname, weight_text = fields[0], fields[1], fields[2]
    try:
        weight = int(weight_text)
    except ValueError:
        raise ParseError(f"bad consensus weight {weight_text!r}", line=lineno) from None
    if weight < 0:
        raise ParseError("consensus weight must be non-negative", line=lineno)
    kwargs = {
        "flags": frozenset(),
        "exit_policy": (REJECT_ALL,),
        "family": frozenset(),
        "subnet16": None,
        "country": None,
        "as_number": None,
    }
    for token in fields[3:]:
        key, sep, value = token.partition("=")
        if not sep:
            raise ParseError(f"expected key=value, got {token!r}", line=lineno)
        try:
            if key == "flags":
                kwargs["flags"] = frozenset(v for v in value.split(",") if v)
            elif key == "policy":
                kwargs["exit_policy"] = _parse_policy_once(policies, value)
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
    return RelayEntry(fingerprint, nickname, weight, **kwargs)


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
    relays = []
    seen_fp: dict[str, int] = {}
    current: dict | None = None

    def flush():
        nonlocal current
        if current is None:
            return
        if current["weight"] is None:
            current["weight"] = 0
            if warnings is not None:
                warnings.append(
                    f"router {current['fingerprint']} (line {current['line']}) has no "
                    "w line; consensus weight defaults to 0"
                )
        relays.append(
            RelayEntry(
                fingerprint=current["fingerprint"],
                nickname=current["nickname"],
                consensus_weight=current["weight"],
                flags=current["flags"],
                exit_policy=current["policy"],
                subnet16=current["subnet16"],
            )
        )
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
    return ConsensusSnapshot.from_relays(valid_after, relays)


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


def snapshot_from_json(text: str) -> ConsensusSnapshot:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    policies: dict[str, tuple[PolicyRule, ...]] = {}
    try:
        relays = [
            RelayEntry(
                fingerprint=r["fingerprint"],
                nickname=r["nickname"],
                consensus_weight=int(r["consensus_weight"]),
                flags=frozenset(r.get("flags", ())),
                exit_policy=_parse_policy_once(policies, ";".join(r["exit_policy"]))
                if r.get("exit_policy")
                else (REJECT_ALL,),
                family=frozenset(r.get("family", ())),
                subnet16=r.get("subnet16"),
                country=r.get("country"),
                as_number=r.get("as_number"),
            )
            for r in doc["relays"]
        ]
        snapshot = ConsensusSnapshot.from_relays(int(doc["valid_after"]), relays)
    except InvariantError as exc:
        raise ParseError(str(exc)) from None
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad snapshot document: {exc!r}") from None
    stored = doc.get("totals")
    if stored is not None:
        expected = {k: getattr(snapshot.totals, k) for k in "GMED"}
        expected["T"] = snapshot.totals.T
        if {k: int(stored[k]) for k in expected} != expected:
            raise ParseError("stored totals do not match relay list")
    return snapshot
