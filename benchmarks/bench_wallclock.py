"""Wall-clock benchmark for artifact load and restore.

Unlike the figure benches (which report *simulated* seconds), this harness
times the restoration machinery itself with ``time.perf_counter``: binary
artifact save, eager vs lazy load, a plain vs a guarded (degradation
policy armed, no fault) load+restore over a paper-scale artifact (~16k
graph nodes, ~65k replay events for Qwen1.5-4B), a chunk-store get, and
the artifact's allocation replay done one allocator call per event vs in
one ``DeviceAllocator.replay`` loop.  It writes ``BENCH_restore.json``
with the p50 wall-clock numbers plus the simulated critical-path seconds
per strategy.  With ``--quick`` (the CI perf-smoke gate) it exits non-zero
unless the guarded restore stays within ``QUICK_MAX_GUARDED_RATIO`` of the
plain one and the batch replay beats the per-event one by
``QUICK_MIN_REPLAY_SPEEDUP``; both are same-machine ratios, so the gate
does not depend on the runner's speed.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_wallclock.py --quick
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
import time
from typing import Callable, Dict, List

from repro.core.binfmt import LazyArtifact, load_binary, save_binary
from repro.core.offline import run_offline
from repro.core.online import prepare_medusa_cold_start
from repro.engine import LLMEngine, Strategy
from repro.faults import DegradationPolicy
from repro.simgpu.costmodel import CostModel
from repro.simgpu.memory import DeviceAllocator, replay_per_event, replay_rows

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: ``--quick`` fails unless the batch replay is this many times faster
#: than the per-event one.
QUICK_MIN_REPLAY_SPEEDUP = 3.0
#: ``--quick`` fails when the guarded load+restore p50 exceeds the plain
#: one by more than this factor: an armed policy with no fault must run
#: the same restore.
QUICK_MAX_GUARDED_RATIO = 1.5


def _p50(fn: Callable[[], object], repeats: int) -> float:
    """Median wall-clock seconds of ``repeats`` calls to ``fn``."""
    samples: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _restore_p50(model: str, npz_path: pathlib.Path, policy,
                 repeats: int) -> float:
    """p50 wall-clock of one full restore (lazy npz open + cold start).

    Each repeat opens the artifact afresh and builds a fresh engine, so
    the measurement covers exactly what a cold start pays: the npz index
    read plus the restoration itself.
    """
    def run():
        engine, restorer = prepare_medusa_cold_start(
            model, LazyArtifact(npz_path), seed=9600, policy=policy)
        engine.cold_start(restorer=restorer)
    return _p50(run, repeats)


def _replay_p50s(npz_path: pathlib.Path, repeats: int) -> Dict[str, float]:
    """p50 wall-clock of the artifact's whole allocation replay, per event
    vs batched, each from a fresh allocator holding the structure prefix.

    The per-event replay loops over plain-int rows converted once, outside
    the timed region, as the restorer did before the batch loop existed.
    """
    artifact = LazyArtifact(npz_path)
    table = artifact.replay_table()
    rows = replay_rows(table)
    capacity = CostModel().gpu.total_memory_bytes

    def timed(replay: Callable[[DeviceAllocator], object]) -> float:
        samples: List[float] = []
        for _ in range(repeats):
            allocator = DeviceAllocator(base=0x7F00_0000_0000,
                                        capacity_bytes=capacity)
            for size, tag in artifact.structure_prefix:
                allocator.malloc(size, tag=tag)
            start = time.perf_counter()
            replay(allocator)
            samples.append(time.perf_counter() - start)
        return statistics.median(samples)

    return {
        "replay_sequential": timed(
            lambda allocator: replay_per_event(allocator, rows)),
        "replay_batch": timed(lambda allocator: allocator.replay(table)),
    }


def _chunk_get_p50(artifact, workdir: pathlib.Path, repeats: int) -> float:
    """p50 wall-clock of one chunk-store get.

    ``ArtifactStore.get`` reassembles the artifact from its manifest's
    content-addressed chunks.  The store has its cache disabled, so every
    get pays the full decompress.
    """
    from repro.core.store import ArtifactStore

    root = workdir / "chunk-store"
    ArtifactStore(root).put(artifact)
    store = ArtifactStore(root, cache_size=0)
    key = (artifact.gpu_name, artifact.model_name)
    return _p50(lambda: store.get(*key), repeats)


def _simulated_critical_paths(model: str, artifact,
                              lazy_path) -> Dict[str, Dict[str, float]]:
    """Simulated loading/ready/total seconds for every strategy."""
    results: Dict[str, Dict[str, float]] = {}
    for strategy in Strategy:
        if strategy is Strategy.MEDUSA:
            engine, restorer = prepare_medusa_cold_start(
                model, artifact, seed=9601)
            report = engine.cold_start(restorer=restorer)
        else:
            report = LLMEngine(model, strategy, seed=9601).cold_start()
        results[strategy.value] = {
            "loading": report.loading_time,
            "ready": report.ready_time,
            "total": report.timeline.total,
        }
    engine, restorer = prepare_medusa_cold_start(
        model, LazyArtifact(lazy_path), seed=9601)
    report = engine.cold_start(restorer=restorer)
    results["medusa-pipelined"] = {
        "loading": report.loading_time,
        "ready": report.ready_time,
        "total": report.timeline.total,
    }
    return results


def run_bench(model: str, repeats: int, output: pathlib.Path,
              workdir: pathlib.Path) -> Dict[str, object]:
    """Run every measurement and write the JSON report to ``output``."""
    print(f"materializing {model} (offline phase)...", flush=True)
    artifact, _ = run_offline(model, seed=9600)
    npz_path = workdir / f"{model}.medusa.npz"

    print(f"timing save/load/restore ({repeats} repeats)...", flush=True)
    save_p50 = _p50(lambda: save_binary(artifact, npz_path), repeats)
    eager_load_p50 = _p50(lambda: load_binary(npz_path), repeats)
    lazy_open_p50 = _p50(lambda: LazyArtifact(npz_path), repeats)
    restore_p50 = _restore_p50(model, npz_path, None, repeats)
    guarded_p50 = _restore_p50(model, npz_path, DegradationPolicy(),
                               repeats)
    replay_p50s = _replay_p50s(npz_path, repeats)

    print("timing chunk-store gets...", flush=True)
    chunk_get_p50 = _chunk_get_p50(artifact, workdir, repeats)

    print("deriving simulated critical paths per strategy...", flush=True)
    simulated = _simulated_critical_paths(model, artifact, npz_path)

    report = {
        "model": model,
        "repeats": repeats,
        "artifact": {
            "graph_nodes": artifact.total_nodes,
            "replay_events": len(artifact.replay_events),
            "npz_bytes": npz_path.stat().st_size,
        },
        "wallclock_p50_s": {
            "save_binary": save_p50,
            "load_binary_eager": eager_load_p50,
            "lazy_open": lazy_open_p50,
            # Full load+restore wall-clock (lazy npz open + restore),
            # without and with a degradation policy armed.
            "load_restore": restore_p50,
            "load_restore_guarded": guarded_p50,
            # Content-addressed chunk store: full get (manifest +
            # decompress + reassemble).
            "chunk_get": chunk_get_p50,
            # The whole allocation replay: one allocator call per event
            # vs the DeviceAllocator.replay loop.
            **replay_p50s,
        },
        "speedup": {
            "load": eager_load_p50 / max(lazy_open_p50, 1e-9),
            "replay": replay_p50s["replay_sequential"]
            / max(replay_p50s["replay_batch"], 1e-9),
        },
        "guarded_over_plain": guarded_p50 / max(restore_p50, 1e-9),
        "simulated_critical_path_s": simulated,
    }
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"[written to {output}]")
    return report


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        description="wall-clock restore benchmark (writes BENCH_restore.json)")
    parser.add_argument("--model", default="Qwen1.5-4B",
                        help="model to materialize (paper scale: Qwen1.5-4B)")
    parser.add_argument("--repeats", type=int, default=7,
                        help="samples per measurement (p50 is reported)")
    parser.add_argument("--output", default=str(REPO_ROOT /
                                                "BENCH_restore.json"))
    parser.add_argument("--workdir", default=None,
                        help="where the .npz artifact is written "
                             "(default: a temp directory)")
    parser.add_argument("--quick", action="store_true",
                        help="CI perf-smoke mode: smaller model, fewer "
                             "repeats, a guarded-restore gate (at most "
                             f"{QUICK_MAX_GUARDED_RATIO:g}x the plain "
                             "restore) and a "
                             f"{QUICK_MIN_REPLAY_SPEEDUP:g}x batch-replay "
                             "gate")
    args = parser.parse_args(argv)
    model, repeats = args.model, args.repeats
    if args.quick:
        model = "Qwen1.5-0.5B" if args.model == "Qwen1.5-4B" else args.model
        repeats = min(repeats, 3)

    if args.workdir is None:
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            report = run_bench(model, repeats, pathlib.Path(args.output),
                               pathlib.Path(tmp))
    else:
        report = run_bench(model, repeats, pathlib.Path(args.output),
                           pathlib.Path(args.workdir))

    wall = report["wallclock_p50_s"]
    guarded_ratio = report["guarded_over_plain"]
    print(f"load+restore p50: plain {wall['load_restore'] * 1e3:.1f} ms, "
          f"guarded {wall['load_restore_guarded'] * 1e3:.1f} ms "
          f"({guarded_ratio:.2f}x)")
    replay_speedup = report["speedup"]["replay"]
    print(f"allocation replay p50: per event "
          f"{wall['replay_sequential'] * 1e3:.1f} ms, batch "
          f"{wall['replay_batch'] * 1e3:.1f} ms ({replay_speedup:.1f}x)")
    if args.quick and guarded_ratio > QUICK_MAX_GUARDED_RATIO:
        print(f"FAIL: guarded restore is {guarded_ratio:.2f}x the plain "
              f"one (allowed {QUICK_MAX_GUARDED_RATIO:g}x)", file=sys.stderr)
        return 1
    if args.quick and replay_speedup < QUICK_MIN_REPLAY_SPEEDUP:
        print(f"FAIL: batch replay is only {replay_speedup:.2f}x the "
              f"per-event replay (required {QUICK_MIN_REPLAY_SPEEDUP:g}x)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
