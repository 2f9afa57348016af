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
import sys
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from functools import lru_cache
from itertools import chain, islice, starmap

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


@lru_cache(maxsize=4096)
def parse_policy(text: str) -> tuple[PolicyRule, ...]:
    """Parse ``accept:80,443;reject:*`` style policy strings.

    A terminal wildcard rule is appended (reject) when the input does not
    end with one, so every policy decides every port.  Results are
    memoized by text, so every snapshot shares one tuple per distinct
    policy (the tuple and its rules are immutable).  The memo's bound of
    4096 texts is not measured against real consensus data: the benchmark
    workloads hold five distinct policies, the v3 sample in the tests
    three.  Past the bound the least recently used texts are parsed
    again, to equal tuples that are no longer shared.
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
    """One relay as an input row, for ``from_relays``, ``with_relays`` and
    adversary injection; the table checks each field's type and the
    weight when it adds the row."""

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
        if not self.exit_policy:
            raise InvariantError(f"{self.fingerprint}: empty exit policy")


_ROW_FIELDS = tuple(f.name for f in fields(RelayEntry))  # also the JSON relay keys


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

    Fingerprints, nicknames, countries, /16 strings, flag names and family
    names are interned strings (``sys.intern``), and policies come from
    the ``parse_policy`` memo, so tables that share relays share these
    objects too.  On CPython 3.10 and 3.11 an interned string is freed
    with its last table, though the interpreter's intern table keeps the
    slots it grew to; on 3.12, ``sys.intern`` makes a string immortal, so
    every distinct string lives until the process exits.
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

    def _cells(self, flags=None, policy=None, family=None):
        """Each row's fields in ``RelayEntry`` order, the interned columns
        decoded: the table's one decoder.  ``flags`` and ``policy``, when
        given, render each distinct value once, and a row gets the rendering
        of its own; ``family`` renders each row's family set.
        """
        flag_sets = self.flag_sets if flags is None else [flags(f) for f in self.flag_sets]
        policies = self.policies if policy is None else [policy(p) for p in self.policies]
        families = self.family if family is None else {i: family(f) for i, f in self.family.items()}
        empty = frozenset() if family is None else family(frozenset())
        names = tuple(self.subnet_codes)
        return zip(
            self.fingerprints, self.nicknames, self.weights.tolist(),
            [flag_sets[i] for i in self.flag_id.tolist()],
            [policies[i] for i in self.policy_id.tolist()],
            [families.get(i, empty) for i in range(len(self))],
            [names[c] if c >= 0 else None for c in self.subnet.tolist()],
            self.country, self.as_number,
        )

    def __eq__(self, other) -> bool:
        """Equal exactly when the two tables hold the same rows.  The weights
        are compared first: consecutive relay lists mostly differ there."""
        if not isinstance(other, RelayTable):
            return NotImplemented
        return np.array_equal(self.weights, other.weights) and (
            list(self._cells()) == list(other._cells())
        )

    __hash__ = None


class _RowError(ParseError):
    """A row value the table cannot hold; ``field`` names the relay field."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def _interned(values) -> frozenset[str]:
    """``values`` as a frozenset of interned strings; TypeError unless every
    item is a ``str``."""
    return frozenset(map(sys.intern, values))


def _entry_fault(r: RelayEntry) -> str | None:
    """What is wrong with the first field of ``r`` whose type no parser
    passes, else None; ``add`` checks the values."""
    def strings(v):
        return type(v) is frozenset and all(type(s) is str for s in v)

    def rules(v):  # the table keys on the policy, so it must hash
        if type(v) is not tuple or any(type(rule) is not PolicyRule for rule in v):
            return False
        try:
            hash(v)
        except TypeError:
            return False
        return True

    checks = (
        ("fingerprint", type(r.fingerprint) is str, "a string"),
        ("nickname", type(r.nickname) is str, "a string"),
        ("consensus_weight", type(r.consensus_weight) is int, "an integer"),
        ("flags", strings(r.flags), "a frozenset of strings"),
        ("exit_policy", rules(r.exit_policy), "a hashable tuple of PolicyRules"),
        ("family", strings(r.family), "a frozenset of strings"),
        ("subnet16", r.subnet16 is None or type(r.subnet16) is str, "a string or None"),
        ("country", r.country is None or type(r.country) is str, "a string or None"),
        ("as_number", r.as_number is None or type(r.as_number) is int, "an integer or None"),
    )
    return next(
        (f"{field} must be {wanted}, not {getattr(r, field)!r}"
         for field, ok, wanted in checks if not ok),
        None,
    )


class _TableBuilder:
    """Collects rows in document order, after the rows of an optional base.

    Every string a row keeps is interned, and every parsed policy comes
    from the ``parse_policy`` memo, so the tables of consecutive snapshots
    hold one object per distinct fingerprint, nickname, country, /16,
    flag name, family name and policy, not one per relay per snapshot.
    An interned string lives until its last table goes on CPython 3.10
    and 3.11, and until the process exits on 3.12 (``RelayTable``).
    """

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
        self.as_numbers: dict = {}  # one object per distinct AS number
        # interned values: by the value an add passed, then by content
        self.flag_keys: dict = {}  # passed flags -> (pool code, flag-set id)
        self.policy_keys: dict = {}  # passed policy -> policy id
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

    def add(self, fingerprint, nickname, weight, flags=frozenset(), policy=(REJECT_ALL,),
            family=(), subnet16=None, country=None, as_number=None) -> None:
        """Append one row: the only way a row enters a table.

        ``flags`` is any hashable collection of flag names; ``policy`` a
        policy text or a tuple of rule texts or of ``PolicyRule``s.  A weight
        outside [0, 2**63 - 1] or a policy that does not parse raises
        _RowError, a string or item that is no ``str`` TypeError, and a
        repeated fingerprint DuplicateRelayError (``row`` keeps its first
        row).  Strings are interned; a /16 and a flag set only the first
        time the table sees them.
        """
        if not 0 <= weight <= INT64_MAX:
            raise _RowError(
                "consensus_weight",
                f"consensus weight {weight} is outside [0, 2**63 - 1] (64 bits)",
            )
        codes = self.flag_keys.get(flags)
        if codes is None:
            content = _interned(flags)
            codes = self.flag_keys[flags] = (
                _pool_code(content), self.flag_ids.setdefault(content, len(self.flag_ids))
            )
        policy_id = self.policy_keys.get(policy)
        if policy_id is None:
            policy_id = self.policy_keys[policy] = self._policy_id(policy)
        if family:
            family = _interned(family)
        fingerprint = sys.intern(fingerprint)
        i = self.first + len(self.fingerprints)
        if self.row.setdefault(fingerprint, i) != i:
            raise DuplicateRelayError(f"duplicate fingerprint {fingerprint}")
        self.fingerprints.append(fingerprint)
        self.nicknames.append(sys.intern(nickname))
        self.weights.append(weight)
        self.pool.append(codes[0])
        self.flag_id.append(codes[1])
        self.policy_id.append(policy_id)
        if family:
            self.family[i] = family
        if subnet16 is None:
            self.subnet.append(-(i + 1))
        else:
            code = self.subnet_codes.get(subnet16)
            if code is None:
                code = self.subnet_codes[sys.intern(subnet16)] = len(self.subnet_codes)
            self.subnet.append(code)
        self.country.append(None if country is None else sys.intern(country))
        self.as_number.append(self.as_numbers.setdefault(as_number, as_number))

    def _policy_id(self, policy) -> int:
        if policy and all(isinstance(rule, PolicyRule) for rule in policy):
            # rules built by hand: valid exactly when their text reads back as them
            try:
                text = ";".join(map(str, policy))
                parsed = parse_policy(text)
            except (TypeError, ValueError) as exc:
                raise _RowError("exit_policy", f"exit_policy {policy!r}: {exc}") from None
            if parsed != policy:
                raise _RowError(
                    "exit_policy",
                    f"exit_policy {policy!r} is not what its text {text!r} parses to "
                    "(a policy ends in a wildcard rule)",
                )
        else:
            # a policy text, or a tuple of rule texts
            text = policy if isinstance(policy, str) else ";".join(policy)
            try:
                parsed = parse_policy(text)
            except ValueError as exc:
                raise _RowError("exit_policy", f"bad policy value {text!r}: {exc}") from None
        return self.policy_ids.setdefault(parsed, len(self.policy_ids))

    def snapshot(self, valid_after: int, relays=()) -> "ConsensusSnapshot":
        """The snapshot of the rows so far, then of ``relays`` (``RelayEntry``
        objects, read once).  A field of a type no parser passes, or a value
        the table cannot hold, breaks an invariant: InvariantError names the
        relay and the field.
        """
        for r in relays:
            fault = _entry_fault(r)
            if fault is None:
                try:
                    self.add(
                        r.fingerprint, r.nickname, r.consensus_weight, r.flags, r.exit_policy,
                        r.family, r.subnet16, r.country, r.as_number,
                    )
                    continue
                except _RowError as err:
                    fault = str(err)
            raise InvariantError(f"{r.fingerprint}: {fault}")
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

        table = RelayTable(
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
        return ConsensusSnapshot(valid_after, table, table.totals())


@dataclass(frozen=True, eq=False)
class ConsensusSnapshot:
    """One relay list, stored as a column table, with its pool totals.

    Build one with ``from_relays`` or a parser; equality compares the
    content.  Every command and both serializers read only ``table``.
    """

    valid_after: int  # UTC seconds
    table: RelayTable
    totals: PoolTotals

    @staticmethod
    def from_relays(valid_after: int, relays) -> "ConsensusSnapshot":
        """Snapshot of a relay list, read once."""
        return _TableBuilder().snapshot(valid_after, relays)

    def with_relays(self, relays) -> "ConsensusSnapshot":
        """This snapshot with ``relays`` appended after its own."""
        return _TableBuilder(self.table).snapshot(self.valid_after, relays)

    @property
    def relays(self) -> tuple[RelayEntry, ...]:
        """The rows as ``RelayEntry`` objects, rebuilt on each read.

        No command reads this view.  It is kept because the benchmark counts
        ``len(snapshot.relays)`` inside its parse span; the benchmark change
        that counts ``len(snapshot.table)`` instead (ROADMAP item 4) removes
        its last reader.
        """
        return tuple(starmap(RelayEntry, self.table._cells()))

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
            _add_located(
                builder, _relay_args(fields[1:], lineno), {"fingerprint": lineno}, text, "relay"
            )
        else:
            raise ParseError(f"unknown keyword {keyword!r}", line=lineno)
    if valid_after is None:
        raise ParseError("missing snapshot header")
    return builder.snapshot(valid_after)


# a relay line's optional keys, and the ``_TableBuilder.add`` argument each sets
_NATIVE_KEYS = {
    "flags": "flags", "policy": "policy", "family": "family", "subnet": "subnet16",
    "country": "country", "as": "as_number",
}


def _relay_args(fields: list[str], lineno: int) -> dict:
    """The ``_TableBuilder.add`` arguments of a relay line's fields."""
    if len(fields) < 3:
        raise ParseError("relay line needs fingerprint, nickname, and weight", line=lineno)
    fingerprint, nickname, weight_text = fields[0], fields[1], fields[2]
    try:
        weight = int(weight_text)
    except ValueError:
        raise ParseError(f"bad consensus weight {weight_text!r}", line=lineno) from None
    args = {"fingerprint": fingerprint, "nickname": nickname, "weight": weight}
    for token in fields[3:]:
        key, sep, value = token.partition("=")
        if not sep:
            raise ParseError(f"expected key=value, got {token!r}", line=lineno)
        if key not in _NATIVE_KEYS:
            raise ParseError(f"unknown field {key!r}", line=lineno)
        if key in ("flags", "family"):
            value = frozenset(v for v in value.split(",") if v)
        elif key == "as":
            try:
                value = int(value)
            except ValueError as exc:
                raise ParseError(f"bad as value {value!r}: {exc}", line=lineno) from None
        args[_NATIVE_KEYS[key]] = value
    return args


def _add_located(builder: _TableBuilder, args: dict, lines: dict[str, int], text: str,
                 keyword: str) -> None:
    """``builder.add(**args)``, its errors naming the line of their field,
    ``lines[field]``, else of the fingerprint.  A repeated fingerprint also
    names the line of its first row: row k came from the k-th ``keyword`` line.
    """
    try:
        builder.add(**args)
    except DuplicateRelayError:
        fingerprint = args["fingerprint"]
        starts = (n for n, raw in enumerate(text.splitlines(), 1) if raw.split()[:1] == [keyword])
        first = next(islice(starts, builder.row[fingerprint], None))
        raise DuplicateRelayError(
            f"fingerprint {fingerprint} already declared on line {first}",
            line=lines["fingerprint"],
        ) from None
    except _RowError as err:
        raise ParseError(str(err), line=lines.get(err.field, lines["fingerprint"])) from None


def serialize_native(snapshot: ConsensusSnapshot) -> str:
    """Inverse of parse_native; optional fields are emitted only when set.

    A value that a relay line cannot carry raises ValueError naming the
    relay and the field: a fingerprint, nickname, /16 or country that is
    empty or holds whitespace, or a flag or family item that is empty or
    holds a comma or whitespace.
    """
    _check_native(snapshot.table)
    rows = snapshot.table._cells(
        flags=lambda f: " flags=" + ",".join(sorted(f)) if f else "",
        policy=lambda p: " policy=" + ";".join(map(str, p)),
        family=lambda f: " family=" + ",".join(sorted(f)) if f else "",
    )
    lines = [f"snapshot {snapshot.valid_after}"]
    for fp, nickname, weight, flags, policy, family, subnet, country, as_number in rows:
        line = f"relay {fp} {nickname} {weight}{flags}{policy}{family}"
        if subnet is not None:
            line += f" subnet={subnet}"
        if country is not None:
            line += f" country={country}"
        if as_number is not None:
            line += f" as={as_number}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def _words(values, items: bool) -> bool:
    """Whether every value is one token of a relay line: non-empty and free
    of whitespace, and, for list ``items``, of commas.  A string joined by
    single spaces splits back into its parts exactly then."""
    values = list(values)
    joined = " ".join(values)
    return joined.split() == values and not (items and "," in joined)


def _check_native(t: RelayTable) -> None:
    """ValueError naming the first relay, and its field, whose value a relay
    line cannot carry.  The columns and distinct values are checked whole first,
    each in one join and split; only a failed check walks the rows."""
    if all(_words(values, items) for values, items in (
        (t.fingerprints, False), (t.nicknames, False), (t.subnet_codes, False),
        ([c for c in t.country if c is not None], False),
        (chain.from_iterable(t.flag_sets), True), (chain.from_iterable(t.family.values()), True),
    )):
        return
    for i, row in enumerate(t._cells()):
        relay = dict(zip(_ROW_FIELDS, row))
        for field in ("fingerprint", "nickname", "subnet16", "country", "flags", "family"):
            items = field in ("flags", "family")
            value = relay[field]
            if value is not None and not _words(value if items else [value], items):
                raise ValueError(
                    f"relays[{i}] ({relay['fingerprint']!r}): {field} {value!r} does not fit "
                    "a relay line: its words must be non-empty and hold no whitespace, and "
                    "flags and family items no comma"
                )


# ---------------------------------------------------------------------------
# Tor v3 network-status subset
# ---------------------------------------------------------------------------

# a router's s, w and p lines, and the ``_TableBuilder.add`` field each sets
_V3_ROUTER_FIELDS = {"s": "flags", "w": "consensus_weight", "p": "exit_policy"}


def parse_v3_subset(text: str, warnings: list[str] | None = None) -> ConsensusSnapshot:
    """Parse the v3 network-status subset: valid-after, r, s, w, p lines.

    Unknown lines are skipped.  Routers lacking a ``w`` line get weight 0;
    a note is appended to ``warnings`` when a list is supplied.  A second
    ``valid-after`` line, a router's second ``s``, ``w`` or ``p`` line, and
    a second ``Bandwidth`` item on one ``w`` line raise ParseError.
    """
    valid_after = None
    valid_after_line = None
    builder = _TableBuilder()
    current: dict | None = None  # the open router's add() arguments
    lines: dict[str, int] = {}  # the line each of its fields came from

    def flush():
        nonlocal current
        if current is None:
            return
        if current["weight"] is None:
            current["weight"] = 0
            if warnings is not None:
                warnings.append(
                    f"router {current['fingerprint']} (line {lines['fingerprint']}) has no "
                    "w line; consensus weight defaults to 0"
                )
        _add_located(builder, current, lines, text, "r")
        current = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        keyword = fields[0]
        if keyword == "valid-after":
            if valid_after_line is not None:
                raise ParseError(f"valid-after line repeats line {valid_after_line}", line=lineno)
            valid_after_line = lineno
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
            octets = fields[6].split(".")
            subnet16 = ".".join(octets[:2]) if len(octets) == 4 else None
            current = {"fingerprint": fields[2], "nickname": fields[1], "weight": None,
                       "subnet16": subnet16}
            lines = {"fingerprint": lineno}
        elif keyword in _V3_ROUTER_FIELDS and current is not None:
            field = _V3_ROUTER_FIELDS[keyword]
            if field in lines:
                raise ParseError(
                    f"{keyword} line repeats line {lines[field]} for router "
                    f"{current['fingerprint']}",
                    line=lineno,
                )
            lines[field] = lineno
            if keyword == "s":
                current["flags"] = frozenset(fields[1:])
            elif keyword == "w":
                for item in fields[1:]:
                    key, sep, value = item.partition("=")
                    if key == "Bandwidth" and sep:
                        if current["weight"] is not None:
                            raise ParseError("repeated Bandwidth item", line=lineno)
                        try:
                            current["weight"] = int(value)
                        except ValueError:
                            raise ParseError(
                                f"bad Bandwidth value {value!r}", line=lineno
                            ) from None
            else:
                # the listed rule, then the opposite wildcard
                if len(fields) != 3 or fields[1] not in ("accept", "reject") or ";" in fields[2]:
                    raise ParseError("bad p line", line=lineno)
                default = "reject" if fields[1] == "accept" else "accept"
                current["policy"] = f"{fields[1]}:{fields[2]};{default}:*"
        # anything else: ignored
    flush()
    if valid_after is None:
        raise ParseError("missing valid-after line")
    return builder.snapshot(valid_after)


# ---------------------------------------------------------------------------
# Canonical JSON rendering
# ---------------------------------------------------------------------------

def snapshot_to_json(snapshot: ConsensusSnapshot) -> str:
    """Stable-key-order JSON; relays keep document order."""
    totals = snapshot.totals
    rows = snapshot.table._cells(flags=sorted, policy=lambda p: list(map(str, p)), family=sorted)
    doc = {
        "format": "waterweights-snapshot-v1",
        "valid_after": snapshot.valid_after,
        "totals": {"G": totals.G, "M": totals.M, "E": totals.E, "D": totals.D, "T": totals.T},
        "relays": [dict(zip(_ROW_FIELDS, row)) for row in rows],
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
    """Read a snapshot document straight into a column table, relay by relay.

    Field types are checked, not coerced: weights and ``valid_after`` are
    JSON integers, ``flags``, ``family`` and ``exit_policy`` lists of
    strings, ``subnet16`` and ``country`` strings or null, ``as_number`` an
    integer or null.  A wrong type raises ParseError naming the relay
    index and the field.

    Each relay object becomes a table row as soon as it is decoded, so the
    decoded document is never held whole.  A document that does not parse
    that way (invalid JSON, a bad row, a relay-shaped object outside
    ``relays``) is read again by the row loop, which gives the error or
    accepts the document.
    """
    # The decoded objects hold no reference cycles, so the collector's
    # passes over them while they are built free nothing; pause it, and
    # leave it as the caller had it.
    enabled = gc.isenabled()
    gc.disable()
    try:
        snapshot = _snapshot_relay_by_relay(text)
        return _snapshot_from_json(text) if snapshot is None else snapshot
    finally:
        if enabled:
            gc.enable()


_ADDED = object()  # what the relay-by-relay decoder leaves in place of a relay it added


def _snapshot_relay_by_relay(text: str) -> ConsensusSnapshot | None:
    """The snapshot of a document whose ``relays`` list held exactly the
    relay objects (those with a ``fingerprint`` key), each added to the
    table as the decoder finished it; None for any other document.
    """
    b = _TableBuilder()

    def add(obj: dict):
        if "fingerprint" not in obj:
            return obj
        _add_relay(b, obj)
        return _ADDED

    try:
        doc = json.loads(text, object_hook=add)
        if type(doc) is not dict or type(relays := doc.get("relays")) is not list:
            return None
        if not relays.count(_ADDED) == len(relays) == len(b.fingerprints):
            return None
        return _checked_totals(doc, b.snapshot(_valid_after(doc)))
    except (json.JSONDecodeError, ParseError):
        return None


def _snapshot_from_json(text: str) -> ConsensusSnapshot:
    """The row loop over the decoded document: the reference reading, and
    the one that locates every error."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if type(doc) is not dict or type(doc.get("relays")) is not list:
        raise ParseError("snapshot document must be an object with a 'relays' list")
    valid_after = _valid_after(doc)
    b = _TableBuilder()
    for r in doc["relays"]:
        _add_relay(b, r)
    return _checked_totals(doc, b.snapshot(valid_after))


def _valid_after(doc: dict) -> int:
    valid_after = doc.get("valid_after")
    if type(valid_after) is not int:
        raise ParseError(f"valid_after must be an integer, not {valid_after!r}")
    return valid_after


def _add_relay(b: _TableBuilder, r) -> None:
    """Check relay object ``r`` and add its row to ``b``: every per-row rule
    of the JSON format.  ``r`` is ``relays[i]`` for ``i`` the rows ``b``
    holds, since a failed ``add`` appends nothing."""
    i = len(b.fingerprints)
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
    try:
        b.add(fingerprint, nickname, weight, tuple(flags), tuple(rules), family, subnet16,
              country, as_number)
    except TypeError:  # a list item that is no string
        raise _field_error(r, i) from None
    except DuplicateRelayError:
        raise DuplicateRelayError(
            f"relays[{i}].fingerprint {fingerprint} repeats relays[{b.row[fingerprint]}]"
        ) from None
    except _RowError as err:
        raise ParseError(f"relays[{i}].{err.field}: {err}") from None


def _checked_totals(doc: dict, snapshot: ConsensusSnapshot) -> ConsensusSnapshot:
    """``snapshot``, once the document's stored totals, if any, match it."""
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
