"""The narrative scripts under demos/ and the README's library tour run
to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from waterweights.consensus import LoadCase, classify_load_case
from waterweights.weights import compute_weights

from conftest import make_snapshot, serialize_native

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script):
    assert run_python([str(script)], ROOT)


def test_readme_library_tour_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    tour = re.search(r"^## Library tour\n\n```python\n(.*?)^```$", readme, re.S | re.M)
    assert tour, "README.md has no python block under '## Library tour'"
    # case 3a with 0 < Wgg < 1, so the guard pool admits waterfilling
    snapshot = make_snapshot([
        ("G1", 200, "g"), ("G2", 150, "g"), ("G3", 100, "g"), ("G4", 80, "g"),
        ("G5", 70, "g"), ("G6", 50, "g"), ("G7", 30, "g"), ("G8", 20, "g"),
        ("E1", 150, "e"), ("E2", 250, "e"), ("M1", 400, "m"), ("M2", 200, "m"),
    ])
    case, _ = classify_load_case(snapshot.totals)
    assert case is LoadCase.CASE_3A
    assert 0 < compute_weights(snapshot.totals, case).Wgg < 1
    (tmp_path / "consensus.snapshot").write_text(serialize_native(snapshot))
    level, pivot = run_python(["-c", tour.group(1)], tmp_path).split()
    assert float(level) > 0 and int(pivot) >= 0
