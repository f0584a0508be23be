"""Named end-to-end simulator scenarios with committed golden summaries.

Each scenario is one deterministic, fully-configured simulation run
(fixed seeds, fixed shapes, fixed policies) that exercises a distinct
slice of the serverless stack: bursty single-model autoscaling,
multi-model pool contention, scale-from-zero spikes, chunk-level sibling
warmth, the degradation ladder, locality-vs-flat placement, startup
aborts above a warm floor, and tensor-parallel cold-start preemption.  A
scenario returns a dict of named sections, each a metrics ``summary()``
dict; ``tests/integration/golden_scenarios.json`` pins every scalar
bit-exactly (JSON round-trips floats exactly).

The definitions live here — importable by the regression test, the
mutation suite (``tests/serverless/test_autoscale_mutations.py``), and
``scripts/refresh_goldens.py`` — so all three agree on what "the
scenario" is.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict

from repro.engine.loadplan import ScheduledStage, Timeline
from repro.serverless import (
    ClusterSimulator,
    ColdStartProfile,
    ModelDeployment,
    MultiModelCluster,
    ServingCostModel,
    ShareGPTWorkload,
    SimulationConfig,
    tag_workloads,
)

#: Committed golden snapshots for every scenario below.
GOLDEN_PATH = Path(__file__).parent / "golden_scenarios.json"

Summary = Dict[str, float]
Sections = Dict[str, Summary]


class _Chunk:
    """Duck-typed chunk record (repro.core.chunks.ChunkMeta shape)."""

    def __init__(self, digest: str, nbytes: float,
                 foreground: bool = True) -> None:
        self.name = f"chunk-{digest}"
        self.digest = digest
        self.nbytes = nbytes
        self.foreground = foreground


#: Two sibling artifacts sharing 900 of 1000 foreground bytes.
_SIBLING_CHUNKS = (_Chunk("shared-1", 600.0), _Chunk("shared-2", 300.0),
                   _Chunk("own-1", 100.0),
                   _Chunk("tail-1", 400.0, foreground=False))


def _fetch_profile(fetch: float = 2.0,
                   degrade: bool = False) -> ColdStartProfile:
    """A stage-granular profile with a real ``fetch_artifact`` stage.

    ``degrade=True`` appends a degradation-ladder rung (the cold start
    lost its full graph restore and re-captured), tagging the profile so
    the simulator counts it as a degraded cold start.
    """
    stages = [
        ScheduledStage("fetch_artifact", 0.0, fetch, lane="disk"),
        ScheduledStage("replay_alloc", fetch, fetch + 0.2, lane="cpu"),
        ScheduledStage("restore_graph[1]", fetch + 0.2, fetch + 0.8,
                       lane="gpu_compute", critical=True),
    ]
    rung = ""
    total = fetch + 0.8
    if degrade:
        stages.append(ScheduledStage("degrade_recapture", total,
                                     total + 0.6, lane="gpu_compute",
                                     critical=True))
        total += 0.6
        rung = "recapture"
    return ColdStartProfile(loading_time=total, ready_time=total,
                            timeline=Timeline(None, stages),
                            degraded_rung=rung)


def single_model_burst() -> Sections:
    """Bursty traffic on one model under the cold-cost-aware policy.

    10 s bursts at 4x the nominal rate, 30 s quiet gaps: the cold-cost
    window (observed cold cost x 3) expires inside every gap, so the
    policy retires instances between bursts and pays a fresh cold start
    per wave — the GPU-seconds-vs-TTFT trade the autoscale benchmark
    gates.
    """
    workload = ShareGPTWorkload(rps=2.0, duration=160.0, seed=21,
                                shape="burst")
    simulator = ClusterSimulator(
        ServingCostModel("Llama2-7B"),
        SimulationConfig(num_gpus=3, cold_start_latency=2.5,
                         placement="flat", autoscale="cold-cost",
                         slo_ttft=0.8))
    metrics = simulator.run(workload.generate(), horizon=160.0)
    return {"metrics": metrics.summary()}


def multi_model_contention() -> Sections:
    """Two models contending for a shared pool under histogram windows.

    Model ``a`` sees bursts, ``b`` steady Poisson; the per-deployment
    histogram policies learn different idle windows from the observed
    gaps, and the shared pool forces idle-victim eviction when a
    zero-capacity model's wave lands.
    """
    deployments = [
        ModelDeployment(name="a", costs=ServingCostModel("Llama2-7B"),
                        cold_start_latency=3.0),
        ModelDeployment(name="b", costs=ServingCostModel("Qwen1.5-4B"),
                        cold_start_latency=1.5),
    ]
    cluster = MultiModelCluster(deployments, num_gpus=4,
                                placement="flat", autoscale="histogram",
                                slo_ttft=1.0)
    workloads = {
        "a": ShareGPTWorkload(rps=2.5, duration=90.0, seed=31,
                              shape="burst"),
        "b": ShareGPTWorkload(rps=2.5, duration=90.0, seed=32),
    }
    per_model = cluster.run(tag_workloads(workloads), horizon=90.0)
    sections = {model: metrics.summary()
                for model, metrics in sorted(per_model.items())}
    sections["__aggregate__"] = cluster.aggregate().summary()
    return sections


def scale_from_zero_spike() -> Sections:
    """Spike-train arrivals from zero capacity under the queue-SLO policy.

    1 s spikes at 8x the base rate every 30 s hit an empty pool; the
    queue-delay predictor breaches the 0.6 s TTFT budget and launches
    ahead of the backlog, then the enforced keep-alive drains the extra
    capacity between spikes.
    """
    workload = ShareGPTWorkload(rps=2.0, duration=150.0, seed=41,
                                shape="spike_train")
    simulator = ClusterSimulator(
        ServingCostModel("Qwen1.5-4B"),
        SimulationConfig(num_gpus=4, cold_start_latency=2.0,
                         placement="flat", autoscale="queue-slo",
                         slo_ttft=0.6, keep_alive=10.0))
    metrics = simulator.run(workload.generate(), horizon=150.0)
    return {"metrics": metrics.summary()}


def chunk_warm_sibling() -> Sections:
    """Zero keep-alive churn over a chunk-warm locality cache.

    ``keep_alive=0`` retires the instance after every drained queue (the
    only configuration where the legacy fixed-window comparison actually
    fires), so the run cold-starts repeatedly on the same node; the
    chunk-granular cache serves the repeated chunks from warm tiers and
    the summary pins the dedup accounting.
    """
    workload = ShareGPTWorkload(rps=0.8, duration=60.0, seed=51)
    simulator = ClusterSimulator(
        ServingCostModel("Qwen1.5-4B"),
        SimulationConfig(num_gpus=2, profile=_fetch_profile(2.0),
                         cold_start_latency=2.8, placement="locality",
                         chunks=_SIBLING_CHUNKS, keep_alive=0.0,
                         autoscale="keep-alive"))
    metrics = simulator.run(workload.generate(), horizon=60.0)
    return {"metrics": metrics.summary()}


def degraded_ladder() -> Sections:
    """Cold starts landing on a degradation-ladder rung, cost-aware.

    Every cold start executes a ``degrade_recapture`` stage (the full
    restore was lost), lengthening the observed cold cost; the
    cold-cost policy therefore holds instances warm longer than it would
    for a clean Medusa restore — the paper's economics inverted.
    """
    workload = ShareGPTWorkload(rps=1.2, duration=80.0, seed=61,
                                shape="ramp")
    simulator = ClusterSimulator(
        ServingCostModel("Llama2-7B"),
        SimulationConfig(num_gpus=2,
                         profile=_fetch_profile(1.5, degrade=True),
                         cold_start_latency=3.9, placement="flat",
                         autoscale="cold-cost", slo_ttft=1.0))
    metrics = simulator.run(workload.generate(), horizon=80.0)
    return {"metrics": metrics.summary()}


def locality_vs_flat() -> Sections:
    """The same churny run under locality and flat placement.

    Cold-cost retirement forces repeated cold starts; locality placement
    re-lands them on the node caching the artifact and rewrites the
    fetch stage to the warm tier's cost, while flat pays the remote
    fetch every time.  Both summaries are pinned so the placement win
    itself is regression-tested end to end.
    """
    sections: Sections = {}
    for placement in ("locality", "flat"):
        workload = ShareGPTWorkload(rps=1.0, duration=90.0, seed=71,
                                    shape="burst")
        simulator = ClusterSimulator(
            ServingCostModel("Qwen1.5-4B"),
            SimulationConfig(num_gpus=2, profile=_fetch_profile(2.5),
                             cold_start_latency=3.3,
                             placement=placement, autoscale="cold-cost"))
        metrics = simulator.run(workload.generate(), horizon=90.0)
        sections[placement] = metrics.summary()
    return sections


def abort_warm_floor() -> Sections:
    """Startup aborts above a warm floor under affinity placement.

    One instance is provisioned warm at t=0 (``initial_instances=1``,
    the retirement floor); Poisson arrivals at ``max_running=2`` launch
    stage-granular cold starts, and whenever ready capacity frees up
    before a cold start finishes, ``abort_cold_starts`` cancels it at the
    next stage boundary and re-routes its queue.  Affinity placement
    re-lands the repeated cold starts on nodes caching the artifact.
    """
    workload = ShareGPTWorkload(rps=3.0, duration=120.0, seed=81)
    simulator = ClusterSimulator(
        ServingCostModel("Qwen1.5-4B"),
        SimulationConfig(num_gpus=4, profile=_fetch_profile(2.0),
                         cold_start_latency=2.8, placement="affinity",
                         abort_cold_starts=True, initial_instances=1,
                         max_running=2, keep_alive=1.0, slo_ttft=1.0))
    metrics = simulator.run(workload.generate(), horizon=120.0)
    return {"metrics": metrics.summary()}


def tp_preemption() -> Sections:
    """A zero-capacity model preempts a tensor-parallel cold start.

    ``big`` spans two GPUs per instance; its bursts fill the 4-GPU pool
    with two instances, one still cold-starting, when ``small`` has no
    instance left.  The pool cancels the ``big`` cold start at its next
    stage boundary, re-routes its queue onto the surviving ``big``
    instance, and launches ``small`` on the freed GPUs.
    """
    deployments = [
        ModelDeployment(name="big", costs=ServingCostModel("Llama2-13B"),
                        cold_start_latency=3.8, profile=_fetch_profile(3.0),
                        gpus_per_instance=2, max_running=4),
        ModelDeployment(name="small", costs=ServingCostModel("Qwen1.5-4B"),
                        cold_start_latency=1.8, profile=_fetch_profile(1.0),
                        max_running=4),
    ]
    cluster = MultiModelCluster(deployments, num_gpus=4,
                                placement="locality", keep_alive=1.0,
                                slo_ttft=1.0)
    workloads = {
        "big": ShareGPTWorkload(rps=1.5, duration=90.0, seed=91,
                                shape="burst"),
        "small": ShareGPTWorkload(rps=1.5, duration=90.0, seed=92),
    }
    per_model = cluster.run(tag_workloads(workloads), horizon=90.0)
    sections = {model: metrics.summary()
                for model, metrics in sorted(per_model.items())}
    sections["__aggregate__"] = cluster.aggregate().summary()
    return sections


#: Every named scenario, in documentation order.
SCENARIOS: Dict[str, Callable[[], Sections]] = {
    "single_model_burst": single_model_burst,
    "multi_model_contention": multi_model_contention,
    "scale_from_zero_spike": scale_from_zero_spike,
    "chunk_warm_sibling": chunk_warm_sibling,
    "degraded_ladder": degraded_ladder,
    "locality_vs_flat": locality_vs_flat,
    "abort_warm_floor": abort_warm_floor,
    "tp_preemption": tp_preemption,
}


def run_scenario(name: str) -> Sections:
    """Execute one named scenario and return its summary sections."""
    return SCENARIOS[name]()


def load_goldens() -> Dict[str, Sections]:
    """The committed golden snapshots for every scenario."""
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)
