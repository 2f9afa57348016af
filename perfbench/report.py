"""Run every workload once and print each metric by name, value and unit.

    python3 perfbench/report.py --seed 1 --seconds 24 --trace 0

Each workload runs as its own ``perfbench/run.py`` process.  The exit code
is 1 when any workload reports ``correct: false`` or fails to run.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{workload}: run failed (exit {proc.returncode}): {proc.stderr.strip()[-500:]}")
            ok = False
            continue
        notes, result = json.loads(lines[-2]), json.loads(lines[-1])
        ok &= result["correct"]
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} reference={notes.get('reference', notes.get('error'))}")
        for name, metric in result["metrics"].items():
            print(f"  {name:32s} {metric['value']:>16.6g} {metric['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
