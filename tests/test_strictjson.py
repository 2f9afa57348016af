import re
from pathlib import Path

import pytest

from waterweights import strictjson
from waterweights.errors import ParseError

SRC = Path(strictjson.__file__).parent


def test_every_json_reader_is_the_strict_one():
    # a reader that called json itself would skip the repeated-key check
    direct = re.compile(r"\bjson\.load|\bJSONDecoder\b|\bfrom json import\b")
    offenders = [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(SRC.glob("*.py")) if path != Path(strictjson.__file__)
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if direct.search(line)
    ]
    assert offenders == []


@pytest.mark.parametrize("text,message", [
    ('{"a": 1, "a": 1}', "top level: repeated key 'a'"),
    ('{"a": [{"b": {"c": 1, "c": 2}}]}', "a[0].b: repeated key 'c'"),
    ('[0, {"pools": {"guards": {"w": 1, "v": 2, "w": 3}}}]', "[1].pools.guards: repeated key 'w'"),
    # objects are checked as the decoder finishes them: innermost first
    ('{"x": 1, "x": 2, "y": {"z": 1, "z": 1}}', "y: repeated key 'z'"),
    ('{"x": {"z": 1, "z": 1}, "y": {"q": 1, "q": 1}}', "x: repeated key 'z'"),
    # text that is not JSON is reported as such, whatever it repeats first
    ('{"x": {"z": 1, "z": 1}, ', "invalid JSON: "),
])
def test_repeated_key_is_located(text, message):
    with pytest.raises(ParseError) as err:
        strictjson.loads(text)
    assert str(err.value).startswith(message)


def test_the_hook_sees_each_object_innermost_first():
    seen = []

    def hook(obj):
        seen.append(dict(obj))
        return len(seen)

    assert strictjson.loads('{"a": {"b": {}}, "c": [{"d": 1}]}', hook) == 4
    assert seen == [{}, {"b": 1}, {"d": 1}, {"a": 2, "c": [3]}]


def test_a_hook_error_passes_unchanged():
    def hook(obj):
        raise ParseError(f"no {sorted(obj)}")

    with pytest.raises(ParseError, match=r"^no \['a'\]$"):
        strictjson.loads('{"a": 1}', hook)


def test_unknown_keys_are_named_in_order():
    strictjson.reject_unknown_keys({"a": 1}, {"a", "b"}, "doc")
    with pytest.raises(ParseError, match=r"^doc: unknown key\(s\) 'c', 'd'$"):
        strictjson.reject_unknown_keys({"d": 1, "a": 1, "c": 2}, frozenset("ab"), "doc")
