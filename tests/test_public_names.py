"""Every public function and class of the package has a user besides the tests.

A top-level ``def`` or ``class`` in ``src/waterweights`` whose name does not
start with an underscore must be referenced (imported, or read as a name or
an attribute) outside its own definition, in ``src/``, ``demos/`` or
``perfbench/`` (its tests aside), or named in a code span of ``README.md``.
A click command counts as used through the decorator that registers it.  A
helper that only tests call belongs in ``tests/``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "waterweights"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def names_read(node) -> set[str]:
    """The names that ``node`` imports or reads, as names or attributes."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name.rpartition(".")[2])
    return names


def names_used() -> set[str]:
    """Every name read in the package, the demos and the benchmark, a
    definition's reads of its own name left out."""
    directories = [ROOT / name for name in ("src", "demos", "perfbench")]
    assert all(d.is_dir() for d in directories), "the scan needs src/, demos/ and perfbench/"
    sources = [path for d in directories for path in d.rglob("*.py")
               if "tests" not in path.relative_to(ROOT).parts]
    used = set()
    for path in sources:
        for statement in ast.parse(path.read_text()).body:
            names = names_read(statement)
            if isinstance(statement, DEFINITIONS):
                names.discard(statement.name)
            used |= names
    return used


def names_documented() -> set[str]:
    """The words in the inline code spans of ``README.md``."""
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    return set(re.findall(r"\w+", " ".join(re.findall(r"`([^`]+)`", text))))


def is_command(definition) -> bool:
    """Whether a click ``@<group>.command(...)`` or ``.group(...)`` registers it."""
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group")
        for d in definition.decorator_list
    )


def test_no_public_name_is_used_only_by_tests():
    known = names_used() | names_documented()
    unused = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, DEFINITIONS) and not node.name.startswith("_")
        and node.name not in known and not is_command(node)
    ]
    assert unused == []
