"""Simulator throughput: simulated requests per wall second.

One single-model pool — Llama2-7B on 8 GPUs under a diurnal day of
ShareGPT-shaped arrivals at a nominal 12 RPS, cold starts priced by the
vLLM engine's own cold start — run a few times with ``perf_counter``
around the pool only (workload generation and the engine cold start are
set-up).  The full run simulates a 2,400 s day five times and prints the
median wall time, the simulated requests per wall second, and the
kernel's dispatched events and recorded spans per request.

Most decode iterations admit and complete nothing, and the pool
dispatches each stretch of them as one event, so events per request
measure how far that coalescing reaches.  ``--quick`` simulates a 400 s
day once and exits 1 when they exceed :data:`MAX_EVENTS_PER_REQUEST`: an
exact count of a deterministic run, so unlike a requests-per-second
floor it cannot flake on a slow runner.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_sim_throughput.py --quick
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from repro.engine import LLMEngine, Strategy
from repro.serverless import (
    ClusterSimulator,
    ServingCostModel,
    ShareGPTWorkload,
    SimulationConfig,
)

MODEL = "Llama2-7B"
NUM_GPUS = 8
RPS = 12.0
SHAPE = "diurnal"
SEED = 1
#: Simulated seconds of arrivals and timed runs: full run, ``--quick``.
DURATION, REPEATS = 2400.0, 5
QUICK_DURATION, QUICK_REPEATS = 400.0, 1
#: Events per request the coalesced decode runs stay under on this pool
#: (~4.9 measured at 400 s; one event per decode iteration gave ~64).
MAX_EVENTS_PER_REQUEST = 6.0


def run_bench(duration: float, repeats: int) -> dict:
    """Run the pool ``repeats`` times; returns its throughput figures."""
    costs = ServingCostModel(MODEL)
    report = LLMEngine(MODEL, Strategy.VLLM, seed=SEED).cold_start()
    config = SimulationConfig.from_report(report, num_gpus=NUM_GPUS)
    requests = ShareGPTWorkload(rps=RPS, duration=duration, seed=SEED,
                                shape=SHAPE).generate()
    walls = []
    for _ in range(repeats):
        simulator = ClusterSimulator(costs, config)
        start = time.perf_counter()
        metrics = simulator.run(requests, horizon=duration)
        walls.append(time.perf_counter() - start)
    wall = statistics.median(walls)
    count = len(requests)
    return {
        "requests": count,
        "completed": metrics.completed,
        "wall_s": wall,
        "req_per_s": count / wall,
        "events_per_req": simulator.loop.dispatched / count,
        "spans_per_req": len(simulator.loop.trace.spans) / count,
    }


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        description="simulator throughput benchmark")
    parser.add_argument("--quick", action="store_true",
                        help=f"CI mode: one {QUICK_DURATION:g} s day, and "
                             "exit 1 when events per request exceed "
                             f"{MAX_EVENTS_PER_REQUEST:g}")
    args = parser.parse_args(argv)
    duration, repeats = ((QUICK_DURATION, QUICK_REPEATS) if args.quick
                         else (DURATION, REPEATS))

    result = run_bench(duration, repeats)
    print(f"{MODEL}, {NUM_GPUS} GPUs, {SHAPE} {RPS:g} RPS x {duration:g} s: "
          f"{result['requests']} requests ({result['completed']} completed)")
    print(f"wall {result['wall_s']:.3f} s (median of {repeats}), "
          f"{result['req_per_s']:.0f} simulated requests per wall second")
    print(f"{result['events_per_req']:.3f} events and "
          f"{result['spans_per_req']:.3f} spans per request")
    if args.quick and result["events_per_req"] > MAX_EVENTS_PER_REQUEST:
        print(f"FAIL: {result['events_per_req']:.3f} events per request "
              f"exceed {MAX_EVENTS_PER_REQUEST:g}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
