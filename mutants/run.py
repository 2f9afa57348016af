"""Run the committed mutant set: each mutant must make one of its tests fail.

A mutant in ``mutants.json`` names a file under ``src/``, an exact old text
that occurs there once, the new text that replaces it, and the test ids
that are expected to fail once it is applied.  The runner copies ``src/``,
``tests/``, ``demos/``, ``perfbench/``, ``README.md`` and ``pyproject.toml``
(what the tests read) to a temporary directory, checks that the union of
the listed tests passes there unmutated, then applies one mutant at a time
and runs its tests against the copy.  A mutant is killed when
pytest reports a failed test; it survives when its tests pass, and any
other outcome (a collection error, no test found, a timeout) is an error.
A listed test that passes under its mutant is named in the report.

    python mutants/run.py

It exits 0 only when every mutant run is killed.  An old text found other
than exactly once stops the run before any test starts.  Hypothesis runs
with a fixed seed, so a run draws the same examples each time, and it
reports the first failing example without shrinking it: a kill needs no
minimal example, and shrinking one took minutes.  Every mutant's tests get
``MUTANT_TIMEOUT_S`` seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = Path(__file__).resolve().parent / "mutants.json"
MUTANT_TIMEOUT_S = 300
PYTEST = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
          "-p", "mutant_profile", "--hypothesis-seed=0"]
# a pytest plugin, imported before any test module, so every @settings
# inherits its phases
PROFILE = """\
from hypothesis import Phase, settings

settings.register_profile("mutants", phases=(Phase.explicit, Phase.reuse, Phase.generate),
                          database=None)
settings.load_profile("mutants")
"""


def load() -> list[dict]:
    """Every mutant; SystemExit for a repeated name or an old text that its
    file does not hold exactly once."""
    mutants = json.loads(MUTANTS.read_text())
    if len({m["name"] for m in mutants}) != len(mutants):
        sys.exit("mutants.json repeats a name")
    faults = []
    for m in mutants:
        count = (ROOT / "src" / m["file"]).read_text().count(m["old"])
        if count != 1:
            faults.append(f"{m['name']}: old text found {count} times in src/{m['file']}")
        if not m["tests"]:
            faults.append(f"{m['name']}: lists no test")
    if faults:
        sys.exit("\n".join(["mutants.json no longer matches the source:", *faults]))
    return mutants


def pytest(work: Path, tests: list[str]) -> tuple[int | None, list[str], str]:
    """Run ``tests`` in ``work``: (exit code or None on timeout, the failed
    test ids, the output)."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(work / "src"), str(work)]),
           "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run(PYTEST + tests, cwd=work, env=env, capture_output=True, text=True,
                              timeout=MUTANT_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        return None, [], str(exc.stdout or "")
    failed = [line[len("FAILED "):].split(" - ")[0] for line in done.stdout.splitlines()
              if line.startswith("FAILED ")]
    return done.returncode, failed, done.stdout + done.stderr


def main() -> int:
    mutants = load()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        work = Path(tmp)
        for tree in ("src", "tests", "demos", "perfbench"):
            shutil.copytree(ROOT / tree, work / tree, ignore=shutil.ignore_patterns("__pycache__"))
        for name in ("README.md", "pyproject.toml"):
            shutil.copy(ROOT / name, work)
        (work / "mutant_profile.py").write_text(PROFILE)
        # the copy, not an installed package, is what the tests import
        where = subprocess.run(
            [sys.executable, "-c", "import waterweights; print(waterweights.__file__)"],
            cwd=work, env={**os.environ, "PYTHONPATH": str(work / "src")},
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        if not Path(where).resolve().is_relative_to((work / "src").resolve()):
            sys.exit(f"waterweights imports from {where}, not from the copy")

        tests = list(dict.fromkeys(t for m in mutants for t in m["tests"]))
        code, failed, output = pytest(work, tests)
        if code != 0:
            print(output)
            sys.exit(f"the unmutated copy does not pass the listed tests (pytest exit {code})")

        outcomes = {}
        for m in mutants:
            path = work / "src" / m["file"]
            original = path.read_text()
            path.write_text(original.replace(m["old"], m["new"]))
            start = time.perf_counter()
            try:
                code, failed, output = pytest(work, m["tests"])
            finally:
                path.write_text(original)
            if code == 1 and failed:
                outcome = f"killed ({len(failed)} of {len(m['tests'])} listed tests failed)"
            elif code == 0:
                outcome = "SURVIVED"
            else:
                outcome = "ERROR (timed out)" if code is None else f"ERROR (pytest exit {code})"
                print(output[-4000:])
            outcomes[m["name"]] = outcome
            print(f"{m['name']}: {outcome} in {time.perf_counter() - start:.1f} s", flush=True)
            for test in failed:
                print(f"    failed {test}")
            for test in (t for t in m["tests"] if code == 1 and t not in failed):
                print(f"    listed, but passed: {test}")

    bad = [name for name, outcome in outcomes.items() if not outcome.startswith("killed")]
    print(f"{len(outcomes) - len(bad)} of {len(outcomes)} mutants killed")
    if bad:
        print("not killed: " + ", ".join(bad))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
