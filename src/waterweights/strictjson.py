"""The package's one JSON reader.

``json.loads`` alone keeps the last value of a repeated key, so
``{"consensus_weight": 5, "consensus_weight": 900}`` reads as 900 with no
error.  Every JSON input (snapshot documents, adversary files, waterfill
solutions) is decoded by ``loads`` here instead, which rejects a repeated
key in any object, naming the key and where the object sits.
"""

from __future__ import annotations

import json

from .errors import ParseError


class _RepeatedKey(Exception):
    """Raised inside the decoder; ``loads`` locates it."""


class _Pairs(list):
    """An object's key-value pairs in document order, repeats kept."""


def loads(text: str, hook=None):
    """Decode ``text``, rejecting a repeated key in any object.

    ``hook``, if given, is called on each object, as a dict, as soon as the
    decoder finishes it (innermost first, in document order), and what it
    returns stands in for the object.  Text that is not JSON raises
    ParseError ``invalid JSON: ...``; a repeated key raises ParseError
    ``<path>: repeated key '<key>'``, for a path such as ``relays[0]``,
    ``pools.guards`` or ``top level``.  An error the hook raises is passed on
    as it is.
    """
    def pairs(items):
        obj = dict(items)
        if len(obj) != len(items):
            raise _RepeatedKey
        return obj if hook is None else hook(obj)

    try:
        try:
            return json.loads(text, object_pairs_hook=pairs)
        except _RepeatedKey:
            # a second read, on this error path only, to find the object
            tree = json.loads(text, object_pairs_hook=_Pairs)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    path, key = _first_repeat(tree, "")
    raise ParseError(f"{path or 'top level'}: repeated key {key!r}")


def _first_repeat(value, path: str):
    """``(path, key)`` of the first object that repeats a key, in the order
    the decoder finishes objects; None if no object does."""
    if type(value) is _Pairs:
        for key, item in value:
            if found := _first_repeat(item, f"{path}.{key}" if path else key):
                return found
        seen = set()
        for key, _ in value:
            if key in seen:
                return path, key
            seen.add(key)
    elif type(value) is list:
        for i, item in enumerate(value):
            if found := _first_repeat(item, f"{path}[{i}]"):
                return found
    return None


def reject_unknown_keys(obj: dict, known, where: str) -> None:
    """Raise ParseError naming each key of ``obj`` outside the set ``known``."""
    if not obj.keys() <= known:
        unknown = sorted(obj.keys() - known)
        raise ParseError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}")
