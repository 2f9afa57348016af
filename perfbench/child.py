"""Child-process entry points of the benchmark.

    python3 -m perfbench.child load <request.json>
    python3 -m perfbench.child analyze <request.json>
    python3 -m perfbench.child traced <request.json>

``load`` imports waterweights and loads the workload's files through the
public parsers (the set-up every command pays).  ``analyze`` runs the
analysis pipeline untraced.  ``traced`` runs a workload's traced form and
writes its spans.  Each writes a JSON result to ``request["result"]``.
``run.py`` starts these with ``src`` and the repository root on PYTHONPATH.
"""

import json
import sys
from pathlib import Path


def load(request: dict):
    import waterweights  # noqa: F401
    from waterweights.consensus import snapshot_from_json
    from waterweights.pathsim import AdversarySpec

    manifest = request["manifest"]
    for path in sorted(Path(manifest["snapshots"]).iterdir()):
        snapshot_from_json(path.read_text())
    if manifest["adversary"] is not None:
        AdversarySpec.from_json_dict(json.loads(Path(manifest["adversary"]).read_text()))
    return {}


def analyze(request: dict, tracer):
    from perfbench import workloads

    params = workloads.lookup(request["workload"], request["tiny"])
    paths = sorted(Path(request["manifest"]["snapshots"]).iterdir())
    return workloads.analyze(params, paths, tracer)


def traced(request: dict):
    from perfbench.trace import Tracer

    tracer = Tracer(request["run_id"])
    with tracer.span("cli.import"):
        import waterweights.cli  # noqa: F401
    from perfbench import workloads

    params = workloads.lookup(request["workload"], request["tiny"])
    if params.kind == "analyze":
        result = analyze(request, tracer)
    else:
        result = workloads.simulate_traced(
            params, request["manifest"], request["seed"], Path(request["out"]), tracer
        )
        result.pop("csv_text")
    tracer.write(Path(request["spans"]))
    return result


def main(argv: list[str]) -> int:
    mode, request_path = argv
    request = json.loads(Path(request_path).read_text())
    if mode == "load":
        result = load(request)
    elif mode == "analyze":
        from perfbench.trace import NullTracer

        result = analyze(request, NullTracer())
    elif mode == "traced":
        result = traced(request)
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    Path(request["result"]).write_text(json.dumps(result, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
