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
from itertools import chain, starmap
from operator import itemgetter

import numpy as np

from . import strictjson
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
AS_NUMBER_MAX = 2**32 - 1  # RFC 6793: AS numbers are 4 bytes


def _pool_code(flags) -> int:
    return ("Guard" in flags) * GUARD | ("Exit" in flags) * EXIT


class RelayTable:
    """One snapshot's relays as columns, in document order.

    Every per-relay column is a numpy array.  Weights are int64; exact
    products and sums convert them to Python ints.  ``as_number`` is int64,
    -1 for a relay with no AS (a number is 4 bytes, so no other value is
    negative).  ``pool`` holds each relay's pool code.  The other seven are
    code columns: each row holds the code of its value in that column's
    process-wide code table (``_NAMES``), so equal values get equal codes
    in every table.  ``fingerprint``, ``nickname``, ``country_code`` and
    ``subnet`` code names, and ``fingerprints`` decodes the first on each
    read; ``flag_id`` codes flag sets (so unknown flags round-trip),
    ``policy_id`` exit policies and ``family_id`` family sets, each set
    kept as published, names that match no row included.  A relay with no
    country or no family gets the code -1, one with no known subnet
    ``-(row + 1)``, which matches only itself.  ``rows`` maps fingerprint
    codes to rows: outside the table a relay is a fingerprint code or a
    row, and values are decoded only where they are printed, through
    ``_names``.  ``family_keys`` holds the family pairs that resolve to
    rows of this table as sorted ``i*n + j`` keys in both directions, and
    ``in_family`` marks the rows that take part in such a pair.

    A code table only grows, so every value coded in a process lives until
    the process exits, on every Python version.  Its flag and family names
    are interned strings (``sys.intern``), and its policies come from the
    ``parse_policy`` memo, so tables share these objects too.
    """

    __slots__ = (
        "fingerprint", "nickname", "weights", "pool", "flag_id", "policy_id", "subnet",
        "family_id", "family_keys", "in_family", "country_code", "as_number",
    )

    def __init__(self, **columns):
        for name in self.__slots__:
            setattr(self, name, columns[name])

    def __len__(self) -> int:
        return len(self.fingerprint)

    @property
    def guard(self) -> np.ndarray:
        return (self.pool & GUARD) != 0

    # the fingerprints, decoded on each read
    fingerprints = property(lambda self: tuple(self._names("fingerprint")))

    def _names(self, column: str, rows=slice(None), render=None, absent=None) -> list:
        """Code column ``column`` decoded through its code table, at ``rows``
        if given: each distinct value rendered once by ``render`` if given,
        and ``absent`` for a negative code."""
        codes = getattr(self, column)[rows].tolist()
        values = _NAMES[column].names
        if render is not None:
            values = {c: render(values[c]) for c in set(codes) if c >= 0}
        return [values[c] if c >= 0 else absent for c in codes]

    def _known(self, column: str) -> dict:
        """Each value code column ``column`` holds, to its code, in first-row order."""
        return {n: c for n, c in zip(self._names(column), getattr(self, column).tolist()) if c >= 0}

    def rows(self, codes) -> np.ndarray:
        """The row of each fingerprint code in ``codes``, -1 where no row
        has it: the one map from fingerprints to rows.  ``codes`` must be
        this process's fingerprint codes or -1.  One lookup array over the
        fingerprint code table holds each code's row; the code -1 reads its
        one extra last slot, which no row sets."""
        lookup = np.full(len(_NAMES["fingerprint"].names) + 1, -1, dtype=np.int64)
        lookup[self.fingerprint] = np.arange(len(self))
        return lookup[codes]

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
        """Mask of the relays whose exit policy accepts ``port``.  Each
        policy this table uses is evaluated once; the process's other
        coded policies are not."""
        policies = _NAMES["policy_id"].names
        used = _sorted_unique(self.policy_id)
        verdicts = np.zeros(len(policies), dtype=bool)
        verdicts[used] = [policy_accepts(policies[c], port) for c in used.tolist()]
        return verdicts[self.policy_id]

    def _cells(self, flags=None, policy=None, family=None):
        """Each row's fields in ``RelayEntry`` order, the code columns
        decoded: the table's one decoder.  ``flags``, ``policy`` and
        ``family``, when given, render each distinct value once, and a row
        gets the rendering of its own; a row with no family gets the empty
        set, or its rendering.
        """
        empty = frozenset() if family is None else family(frozenset())
        return zip(
            self._names("fingerprint"), self._names("nickname"), self.weights.tolist(),
            self._names("flag_id", render=flags), self._names("policy_id", render=policy),
            self._names("family_id", render=family, absent=empty),
            self._names("subnet"), self._names("country_code"),
            [a if a >= 0 else None for a in self.as_number.tolist()],
        )

    def __reduce__(self):
        # the code columns index this process's code tables, so a pickle
        # carries each column's values, and the loading process codes them afresh
        columns = {name: getattr(self, name) for name in self.__slots__}
        return _unpickle_table, (columns, {c: self._known(c) for c in _NAMES})

    def __eq__(self, other) -> bool:
        """Equal exactly when the two tables hold the same rows.  Within one
        process equal codes mean equal values, so equal rows give equal
        columns, and the derived ``pool``, ``family_keys`` and ``in_family``
        follow.  The weights are compared first: consecutive relay lists
        mostly differ there."""
        if not isinstance(other, RelayTable):
            return NotImplemented
        arrays = ("weights", *_NAMES, "as_number")
        return all(np.array_equal(getattr(self, c), getattr(other, c)) for c in arrays)

    __hash__ = None


class _RowError(ParseError):
    """A row value the table cannot hold; ``field`` names the relay field."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


class _Repeat(DuplicateRelayError):
    """Row ``later`` repeats the fingerprint ``name`` of the earlier row
    ``first``; each front end names the two rows its own way."""

    def __init__(self, name: str, first: int, later: int):
        super().__init__(f"duplicate fingerprint {name}")
        self.name, self.first, self.later = name, first, later


class _NameTable(dict):
    """A process-wide code table: each value a table has held (a name, a
    flag set, a policy or a family set), to its code, and ``names``, the
    values by code.

    Indexing by a value the table lacks adds ``intern(value)``; ``get``
    never adds one.  A table only grows, bounded by the distinct values the
    process has seen, so its values live until the process exits.
    """

    def __init__(self, intern=sys.intern):
        self.intern = intern
        self.names: list = []

    def __missing__(self, value) -> int:
        value = self.intern(value)
        code = self[value] = len(self.names)
        self.names.append(value)
        return code


def _interned(values) -> frozenset[str]:
    """``values`` as a frozenset of interned strings; TypeError unless every
    item is a ``str``."""
    return frozenset(map(sys.intern, values))


# Each code column's code table.  Tables keep only codes, so no table holds
# a value of its own, and a code means the same value in every table.  Sets
# are keyed by content, and a policy is already the memo's one tuple.
_NAME_COLUMNS = ("fingerprint", "nickname", "country_code", "subnet")
_NAMES: dict[str, _NameTable] = {
    **{column: _NameTable() for column in _NAME_COLUMNS},
    "flag_id": _NameTable(_interned),
    "policy_id": _NameTable(lambda policy: policy),
    "family_id": _NameTable(_interned),
}


def fingerprint_codes(names) -> np.ndarray:
    """The code of each fingerprint in ``names``, for ``RelayTable.rows``;
    -1 for a fingerprint no table has held.  Adds no name."""
    return np.array([_NAMES["fingerprint"].get(name, -1) for name in names], dtype=np.int64)


def _unpickle_table(columns: dict, known: dict[str, dict[str, int]]) -> RelayTable:
    for column, codes in known.items():
        recode = {code: _NAMES[column][name] for name, code in codes.items()}
        old = columns[column]
        columns[column] = np.array([recode.get(c, c) for c in old.tolist()], dtype=old.dtype)
    return RelayTable(**columns)


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` of a 1-d array.  A plain ``np.unique`` call
    asks ``np.ma.is_masked``, which imports numpy.ma (about 1.5 MB of RSS
    and 10-12 ms) on first use in a process; a sort and an adjacent
    difference do not."""
    values = np.sort(values)
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


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


# The int columns a builder collects, each with its dtype in the table.
_INT_COLUMNS = {
    "fingerprint": np.int32, "nickname": np.int32, "weights": np.int64, "pool": np.int8,
    "flag_id": np.int32, "policy_id": np.int32, "subnet": np.int64, "family_id": np.int32,
    "country_code": np.int32, "as_number": np.int64,
}


class _TableBuilder:
    """Collects rows in document order, after the rows of an optional base.

    A row keeps the code of each of its values in the process-wide code
    tables (its fingerprint, nickname, flag set, policy, family set, /16 and
    country), its pool code and its AS number (-1 for none), each in a list
    per ``_INT_COLUMNS`` column; names are interned, and every parsed
    policy comes from the ``parse_policy`` memo.  So the tables of
    consecutive snapshots hold one object per distinct value, not one per
    relay per snapshot.  Codes do not depend on row order, so the builder
    takes nothing from its base but its columns.  ``snapshot`` checks the
    finished fingerprint column for repeats, the base's rows and the new
    ones alike, and resolves every family entry of the base and of the new
    rows in one pass, so an extended table is the table a fresh build of
    the same rows gives.
    """

    def __init__(self, base: RelayTable | None = None):
        self.base = base
        self.first = 0 if base is None else len(base)
        for name in _INT_COLUMNS:  # each a list of the rows' values
            setattr(self, name, [])
        # by the value an add passed: a memo of this build only
        self.flag_keys: dict = {}  # passed flags -> (pool code, flag-set code)
        self.policy_keys: dict = {}  # passed policy -> policy code

    def add(self, fingerprint, nickname, weight, flags=frozenset(), policy=(REJECT_ALL,),
            family=(), subnet16=None, country=None, as_number=None) -> None:
        """Append one row: the only way a row enters a table.

        ``flags`` and ``family`` are any collections of names (``flags``
        hashable); ``policy`` a policy text or a tuple of rule texts or of
        ``PolicyRule``s.  A weight outside [0, 2**63 - 1], an AS number
        outside [0, 2**32 - 1] (RFC 6793's 4 bytes; -1 marks no AS in the
        column) or a policy that does not parse raises _RowError, and a
        string or item that is no ``str`` TypeError.  A repeated fingerprint
        is left to ``snapshot``, so a bad value after a repeat is the error
        a document reports.  A code table codes a value only the first time
        the process sees it.
        """
        if not 0 <= weight <= INT64_MAX:
            raise _RowError(
                "consensus_weight",
                f"consensus weight {weight} is outside [0, 2**63 - 1] (64 bits)",
            )
        if as_number is not None and not 0 <= as_number <= AS_NUMBER_MAX:
            raise _RowError("as_number", f"as_number {as_number} is outside [0, 2**32 - 1]")
        codes = self.flag_keys.get(flags)
        if codes is None:
            codes = self.flag_keys[flags] = (_pool_code(flags), _NAMES["flag_id"][frozenset(flags)])
        policy_id = self.policy_keys.get(policy)
        if policy_id is None:
            policy_id = self.policy_keys[policy] = self._policy_id(policy)
        family_id = _NAMES["family_id"][frozenset(family)] if family else -1
        i = self.first + len(self.fingerprint)
        self.fingerprint.append(_NAMES["fingerprint"][fingerprint])
        self.nickname.append(_NAMES["nickname"][nickname])
        self.weights.append(weight)
        self.pool.append(codes[0])
        self.flag_id.append(codes[1])
        self.policy_id.append(policy_id)
        self.family_id.append(family_id)
        self.subnet.append(-(i + 1) if subnet16 is None else _NAMES["subnet"][subnet16])
        self.country_code.append(-1 if country is None else _NAMES["country_code"][country])
        self.as_number.append(-1 if as_number is None else as_number)

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
        return _NAMES["policy_id"][parsed]

    def snapshot(self, valid_after: int, relays=()) -> "ConsensusSnapshot":
        """The snapshot of the rows so far, then of ``relays`` (``RelayEntry``
        objects, read once).  A field of a type no parser passes, or a value
        the table cannot hold, breaks an invariant: InvariantError names the
        relay and the field.  Then one check over the finished fingerprint
        column finds the first row that repeats an earlier row's
        fingerprint, as a loop over the rows would, base rows and new rows
        alike: ``_Repeat`` (a DuplicateRelayError, ``duplicate fingerprint
        X``) carries both rows.
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
        base = self.base

        def column(name, dtype):
            fresh = np.array(getattr(self, name), dtype=dtype)
            return fresh if base is None else np.concatenate([getattr(base, name), fresh])

        table = RelayTable(
            **{name: column(name, dtype) for name, dtype in _INT_COLUMNS.items()},
            family_keys=None, in_family=None,
        )
        # a stable sort keeps each fingerprint's rows in row order, so every
        # row after the first of its run repeats an earlier one
        codes = table.fingerprint
        order = np.argsort(codes, kind="stable")
        later = order[1:][codes[order[1:]] == codes[order[:-1]]]
        if later.size:  # the first row that repeats one, and the row it repeats
            j = int(later.min())
            first = int(np.argmax(codes == codes[j]))
            raise _Repeat(_NAMES["fingerprint"].names[codes[j]], first, j)
        # every (row, name) family entry, resolved against every row: a name
        # that was never coded, or names no row here, gets -1
        n = len(table)
        members = np.flatnonzero(table.family_id >= 0)
        sets = [_NAMES["family_id"].names[f] for f in table.family_id[members].tolist()]
        left = np.repeat(members, [len(f) for f in sets])
        right = table.rows(fingerprint_codes(chain.from_iterable(sets)))
        left, right = left[right >= 0], right[right >= 0]
        table.family_keys = _sorted_unique(np.concatenate([left * n + right, right * n + left]))
        table.in_family = np.zeros(n, dtype=bool)
        if table.family_keys.size:  # keys run both ways, so i covers every member
            table.in_family[table.family_keys // n] = True
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
            _add_located(builder, _relay_args(fields[1:], lineno), {"fingerprint": lineno})
        else:
            raise ParseError(f"unknown keyword {keyword!r}", line=lineno)
    if valid_after is None:
        raise ParseError("missing snapshot header")
    return _located_snapshot(builder, valid_after, text, "relay")


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


def _add_located(builder: _TableBuilder, args: dict, lines: dict[str, int]) -> None:
    """``builder.add(**args)``, its errors naming the line of their field,
    ``lines[field]``, else of the fingerprint."""
    try:
        builder.add(**args)
    except _RowError as err:
        raise ParseError(str(err), line=lines.get(err.field, lines["fingerprint"])) from None


def _located_snapshot(builder: _TableBuilder, valid_after: int, text: str,
                      keyword: str) -> "ConsensusSnapshot":
    """``builder.snapshot(valid_after)``, a repeated fingerprint naming the
    lines of both rows: row k came from the k-th ``keyword`` line."""
    try:
        return builder.snapshot(valid_after)
    except _Repeat as err:
        starts = [n for n, raw in enumerate(text.splitlines(), 1) if raw.split()[:1] == [keyword]]
        raise DuplicateRelayError(
            f"fingerprint {err.name} already declared on line {starts[err.first]}",
            line=starts[err.later],
        ) from None


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
    line cannot carry.  The distinct names and values are checked whole first,
    each kind in one join and split; only a failed check walks the rows."""
    if all(_words(values, items) for values, items in (
        *((t._known(column), False) for column in _NAME_COLUMNS),
        *((chain.from_iterable(t._known(column)), True) for column in ("flag_id", "family_id")),
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
        _add_located(builder, current, lines)
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
    return _located_snapshot(builder, valid_after, text, "r")


# ---------------------------------------------------------------------------
# JSON snapshot documents, format v1
# ---------------------------------------------------------------------------

# The v1 key sets: a key outside its object's set is rejected.
SNAPSHOT_FORMAT = "waterweights-snapshot-v1"
_DOCUMENT_KEYS = frozenset({"format", "valid_after", "totals", "relays"})
_TOTALS_KEYS = frozenset("GMEDT")
_RELAY_KEYS = frozenset(_ROW_FIELDS)


def snapshot_to_json(snapshot: ConsensusSnapshot) -> str:
    """Stable-key-order JSON; relays keep document order."""
    rows = snapshot.table._cells(flags=sorted, policy=lambda p: list(map(str, p)), family=sorted)
    doc = {
        "format": SNAPSHOT_FORMAT,
        "valid_after": snapshot.valid_after,
        "totals": _totals_json(snapshot.totals),
        "relays": [dict(zip(_ROW_FIELDS, row)) for row in rows],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _totals_json(t: PoolTotals) -> dict:
    return {"G": t.G, "M": t.M, "E": t.E, "D": t.D, "T": t.T}


# Each relay field's JSON types and their name, in ``_ROW_FIELDS`` order;
# type(True) is bool, so booleans are no integers.  The items of a list
# must be strings.
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


_row_values = itemgetter(*_ROW_FIELDS)  # a relay object's values, if it has every key


def _relay_values(r: dict) -> tuple:
    """Relay object ``r``'s values in ``_ROW_FIELDS`` order; an absent list
    is empty, any other absent value None."""
    return tuple(r.get(field, [] if list in types else None) for field, types, _ in _RELAY_FIELDS)


def _field_fault(r: dict, i: int) -> ParseError | None:
    """The ParseError naming relay ``i``'s first field of a wrong type, if any."""
    return next((
        ParseError(f"relays[{i}].{field} must be {wanted}, not {value!r}")
        for (field, types, wanted), value in zip(_RELAY_FIELDS, _relay_values(r))
        if type(value) not in types or list in types and not all(type(s) is str for s in value)
    ), None)


def snapshot_from_json(text: str) -> ConsensusSnapshot:
    """Read a ``waterweights-snapshot-v1`` document into a column table.

    The document is an object with the keys ``format`` (exactly
    ``SNAPSHOT_FORMAT``), ``valid_after`` (an integer), ``relays`` (a list
    of relay objects) and, optionally, ``totals`` (null, or an object with
    the integers ``G``, ``M``, ``E``, ``D`` and ``T``, which must match the
    relays).  A relay object has the keys of ``RelayEntry``: ``fingerprint``
    and ``nickname`` strings and a ``consensus_weight`` integer, required;
    ``flags``, ``exit_policy`` and ``family`` lists of strings (default
    empty; an empty policy rejects every port); ``subnet16`` and
    ``country`` strings or null and ``as_number`` an integer or null
    (default null).  Types are checked, not coerced.

    ParseError is raised, with its location, for: text that is not JSON; a
    key repeated in any object (``<path>: repeated key '<key>'``); a key
    outside its object's set (``snapshot document``, ``totals`` or
    ``relays[i]``: ``unknown key(s) ...``); a missing or other ``format``; a
    missing or wrong-typed ``valid_after``, ``relays``, ``totals`` or total;
    a relays item that is no object; a relay field of a wrong type
    (``relays[i].field must be ...``); a weight outside 64 bits or a policy
    that does not parse (``relays[i].field: ...``); stored totals that do
    not match.  A repeated fingerprint raises DuplicateRelayError naming
    both relays.

    There is one decoding pass: each relay object becomes a table row as
    soon as it is decoded, so the decoded document is never held whole.
    Only that pass accepts a document.  When it fails, a second read, on
    this error path only, checks the document's shape (the top level,
    then each relay in order); a shape fault it finds is the error, since
    it also places the relays the first pass counted.  Otherwise the first
    pass's error stands.
    """
    # The decoded objects hold no reference cycles, so the collector's
    # passes over them while they are built free nothing; pause it, and
    # leave it as the caller had it.
    enabled = gc.isenabled()
    gc.disable()
    try:
        b = _TableBuilder()
        try:
            doc = strictjson.loads(text, _relay_adder(b))
            relays = _document_relays(doc)
            if relays.count(_ADDED) == len(relays) == len(b.fingerprint):
                try:
                    snapshot = b.snapshot(doc["valid_after"])
                except _Repeat as err:
                    raise DuplicateRelayError(
                        f"relays[{err.later}].fingerprint {err.name} repeats relays[{err.first}]"
                    ) from None
                return _checked_totals(doc, snapshot)
            error = ParseError("relay object outside 'relays'")
        except ParseError as err:
            error = err
        raise _shape_fault(text) or error
    finally:
        if enabled:
            gc.enable()


_ADDED = object()  # what the decoder leaves in place of a relay it added


def _relay_adder(b: _TableBuilder):
    """The decoder hook that checks each relay object (one with a
    ``fingerprint``) and adds it to ``b`` as a row, leaving ``_ADDED`` in
    its place; other objects pass unchanged.  A relay is named
    ``relays[i]`` for ``i`` the rows ``b`` holds, which is its place in the
    list when the document's shape is sound (a failed ``add`` appends
    nothing)."""
    def add(r: dict):
        if "fingerprint" not in r:
            return r
        i = len(b.fingerprint)
        try:  # all nine keys and no other, as snapshot_to_json writes them
            values = _row_values(r) if len(r) == len(_ROW_FIELDS) else None
        except KeyError:
            values = None
        if values is None:
            strictjson.reject_unknown_keys(r, _RELAY_KEYS, f"relays[{i}]")
            values = _relay_values(r)
        fingerprint, nickname, weight, flags, rules, family, subnet16, country, as_number = values
        if (
            type(fingerprint) is not str or type(nickname) is not str or type(weight) is not int
            or type(flags) is not list or type(rules) is not list or type(family) is not list
            or not (subnet16 is None or type(subnet16) is str)
            or not (country is None or type(country) is str)
            or not (as_number is None or type(as_number) is int)
        ):
            raise _field_fault(r, i)
        try:
            b.add(fingerprint, nickname, weight, tuple(flags), tuple(rules), family, subnet16,
                  country, as_number)
        except TypeError:  # a list item that is no string
            raise _field_fault(r, i) from None
        except _RowError as err:
            raise ParseError(f"relays[{i}].{err.field}: {err}") from None
        return _ADDED

    return add


def _shape_fault(text: str) -> ParseError | None:
    """The first fault in the document's shape, located: a plain read that
    checks the top level, then each relay's keys and field types in order.
    None if it finds none; it never builds a snapshot."""
    try:
        for i, r in enumerate(_document_relays(strictjson.loads(text))):
            if type(r) is not dict:
                return ParseError(f"relays[{i}] must be an object")
            strictjson.reject_unknown_keys(r, _RELAY_KEYS, f"relays[{i}]")
            if (fault := _field_fault(r, i)) is not None:
                return fault
    except ParseError as err:
        return err
    return None


def _document_relays(doc) -> list:
    """The ``relays`` list of snapshot document ``doc``, once its top level
    (keys, format, valid_after, totals) is checked."""
    if type(doc) is not dict:
        raise ParseError("snapshot document must be an object with a 'relays' list")
    strictjson.reject_unknown_keys(doc, _DOCUMENT_KEYS, "snapshot document")
    if doc.get("format") != SNAPSHOT_FORMAT:
        found = repr(doc["format"]) if "format" in doc else "missing"
        raise ParseError(f"format must be {SNAPSHOT_FORMAT!r}, not {found}")
    if type(valid_after := doc.get("valid_after")) is not int:
        raise ParseError(f"valid_after must be an integer, not {valid_after!r}")
    if type(relays := doc.get("relays")) is not list:
        raise ParseError("snapshot document must be an object with a 'relays' list")
    if (stored := doc.get("totals")) is not None:
        if type(stored) is not dict:
            raise ParseError("totals must be an object")
        strictjson.reject_unknown_keys(stored, _TOTALS_KEYS, "totals")
        for k in "GMEDT":
            if type(value := stored.get(k)) is not int:
                raise ParseError(f"totals.{k} must be an integer, not {value!r}")
    return relays


def _checked_totals(doc: dict, snapshot: ConsensusSnapshot) -> ConsensusSnapshot:
    """``snapshot``, once the document's stored totals, if any, match it."""
    if doc.get("totals") not in (None, _totals_json(snapshot.totals)):
        raise ParseError("stored totals do not match relay list")
    return snapshot
