"""Benchmark of the Medusa reproduction: one workload per process.

Usage, from the repository root::

    python3 perfbench/run.py --workload artifact --seed 1 --seconds 20

Workloads are ``artifact``, ``cluster`` and ``fleet`` (see GLOSSARY.md).
The run prints one line per metric with its unit and clock, the operation
accounting and a digest of every simulated-clock output, and as its last
line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  With ``--trace 1`` the spans are written to
``perfbench/out/``.

Exit codes: 0 when every operation and check passed, 1 when any failed,
2 when the program's sources or arguments are unusable.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import sys

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def report(result, trace: bool, seed: int, out_dir: pathlib.Path) -> dict:
    """Print the human-readable lines of ``result`` (spans go to
    ``out_dir``); returns the metrics for the JSON line."""
    import harness
    name = result.workload.name
    for kind, (attempted, good, failed) in result.accounting().items():
        print(f"ops {name} {kind}: attempted={attempted} "
              f"succeeded={good} failed={failed}")
    for record in result.records:
        if not record.ok:
            print(f"failed op {record.op_id} ({record.kind}): {record.error}")
    ratio = result.failed / max(1, result.attempted)
    print(f"failed_ratio {ratio:.6g} (failed {result.failed} of "
          f"{result.attempted} operations, checks included)")
    print(f"sim_digest {result.sim_digest()}")
    if trace:
        metrics = harness.per_layer(result)
        units = harness.per_layer_units()
        path = out_dir / f"trace-{name}-seed{seed}.jsonl"
        result.tracer.write(path)
        print(f"spans written to {path}")
        print("core.chunks.bytes_read is the summed size of the chunk "
              "blobs a plain restore touched")
        for metric, value in metrics.items():
            print(f"layer {metric} = {value:.6g} {units[metric][0]}")
        return {metric: {"value": value, "unit": units[metric][0]}
                for metric, value in metrics.items()}
    metrics = result.end_to_end()
    for metric, value in metrics.items():
        unit, _, clock = harness.END_TO_END[metric]
        print(f"metric {metric} = {value:.6g} {unit} ({clock})")
    p90, samples = result.restore_p90()
    print(f"info restore_p90_s = {p90:.6g} s over {samples} restores "
          f"(not gated: fewer than 100 samples)")
    return {metric: {"value": value, "unit": harness.END_TO_END[metric][0]}
            for metric, value in metrics.items()}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the repro sources are missing ({SRC}); run from "
              f"a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import harness
    workload = harness.WORKLOADS.get(args.workload)
    if workload is None or args.seconds <= 0:
        print(f"perfbench: unknown workload {args.workload!r} or bad "
              f"--seconds; workloads: {', '.join(harness.WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        result = harness.run_workload(workload, args.seed, args.seconds,
                                      bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = report(result, bool(args.trace), args.seed, OUT)
    correct = result.failed == 0
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
