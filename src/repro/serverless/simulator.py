"""The discrete-event cluster simulator (paper §7.5).

Requests arrive (Poisson, ShareGPT-like shapes) at a router over a pool of
GPUs.  The router sends each request to the least-loaded live instance; when
every instance is saturated and a GPU is free, the autoscaling policy
launches a new instance, which becomes ready after the *strategy-specific
cold-start latency* — the quantity Medusa shrinks.  Runtime initialization
is assumed warm-pooled (as in the paper: "the time required to launch an
inference serving instance is equal to the duration of the loading phase").

A single-model run is a one-deployment :class:`repro.serverless.cluster.
MultiModelCluster`: :class:`ClusterSimulator` only maps one
:class:`SimulationConfig` onto that deployment and the pool's options.
When the scenario carries a :class:`ColdStartProfile` with a scheduled
LoadPlan timeline, cold starts are stage-granular: instances admit requests at
``Timeline.ready`` (ahead of the background restore tail), tail stages
contend with early serving, and — with ``abort_cold_starts`` enabled — a
startup whose queued requests can be absorbed by freed capacity is
cancelled at the next stage boundary instead of running to completion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import InvalidValueError
from repro.serverless.cluster import (
    ModelDeployment,
    MultiModelCluster,
    TaggedRequest,
)
from repro.serverless.costs import ServingCostModel
from repro.serverless.instance import ColdStartProfile
from repro.serverless.metrics import SimulationMetrics
from repro.serverless.placement import TierSpec
from repro.serverless.workload import Request


@dataclass(frozen=True)
class SimulationConfig:
    """One cluster-simulation scenario."""

    num_gpus: int = 4
    cold_start_latency: float = 3.0       # loading-phase time of the strategy
    use_cuda_graphs: bool = True
    deferred_capture: bool = False        # §2.4: capture lazily while serving
    max_running: int = 14                 # per-instance concurrent sequences
    initial_instances: int = 0            # serverless: scale from zero
    hot_spares: int = 0                   # §2.4: always-on warm instances
    keep_alive: float = 20.0              # idle seconds before retiring
    drain: bool = True                    # serve queued work past the horizon
    profile: Optional[ColdStartProfile] = None   # plan trace, if derived
    #: Fractional serving slowdown while a pipelined restore's background
    #: tail is still streaming (stage-granular cold starts only).
    background_tail_penalty: float = 0.15
    #: Scale-down policy: cancel an in-flight stage-granular cold start at
    #: its next stage boundary when ready instances can absorb every
    #: request queued on it (ServerlessLLM-style startup abort).
    abort_cold_starts: bool = False
    #: Optional ArtifactStore(-like) object fetched from on every cold
    #: start, with ``artifact_key = (gpu_name, model_name)``: models
    #: repeated cold starts on one node hitting the store's in-memory LRU,
    #: surfaced as store_cache_hits/misses in the metrics.
    artifact_store: Optional[object] = None
    artifact_key: Optional[Tuple[str, str]] = None
    #: Artifact placement across the cluster's nodes: a registered policy
    #: name ("flat", "locality", "affinity"), a PlacementPolicy factory,
    #: or an instance.  ``"flat"`` reproduces the pre-placement simulator
    #: bit for bit; the default locality policy routes each cold start to
    #: the node holding the artifact in the warmest tier and rewrites the
    #: plan's ``fetch_artifact`` stage to that tier's fetch time.
    placement: object = "locality"
    #: Per-node tier ladder (warmest first, remote backstop last); None
    #: uses :data:`repro.serverless.placement.DEFAULT_TIERS`.
    tiers: Optional[Tuple[TierSpec, ...]] = None
    #: Artifact footprint in tier-capacity units.
    artifact_size: float = 1.0
    #: Optional chunk-stream description of the artifact (``ChunkMeta``
    #: -shaped objects with ``digest``/``nbytes``/``foreground``; see
    #: :func:`repro.core.chunks.simulation_chunks`).  When set, cold
    #: starts resolve tier residency chunk by chunk — a node that hosted
    #: a sibling model sharing chunks starts partially warm — and the
    #: metrics gain ``chunk_hits`` / ``bytes_deduped`` /
    #: ``fetch_bytes_foreground``.  None keeps blob-granular fetches
    #: (the golden-pinned behaviour).
    chunks: Optional[Tuple[object, ...]] = None
    #: Autoscaling policy: a registered name ("keep-alive", "histogram",
    #: "cold-cost", "queue-slo"), an AutoscalePolicy factory, or an
    #: instance.  The default keep-alive policy reproduces the
    #: pre-policy simulator bit for bit (``keep_alive`` seeds its
    #: window); the others enforce their idle windows with kernel-level
    #: idle ticks and may scale up proactively.
    autoscale: object = "keep-alive"
    #: TTFT SLO budget in seconds (0.0 = none): feeds the metrics'
    #: ``slo_attainment`` accounting and the queue-delay policy's
    #: scale-up threshold.
    slo_ttft: float = 0.0

    def __post_init__(self) -> None:
        if self.num_gpus <= 0:
            raise InvalidValueError("num_gpus must be positive")
        if self.initial_instances + self.hot_spares > self.num_gpus:
            raise InvalidValueError(
                "initial_instances + hot_spares cannot exceed num_gpus")

    @classmethod
    def from_report(cls, report, **overrides) -> "SimulationConfig":
        """Derive the strategy-dependent fields from one cold start.

        Routes every consumer (the CLI, benchmarks, tooling) through the
        scheduled LoadPlan's :class:`ColdStartProfile` instead of
        hand-copying per-strategy flags; ``overrides`` set the remaining
        scenario fields (``num_gpus``, ``hot_spares``, ...).
        """
        profile = ColdStartProfile.from_report(report)
        return cls(cold_start_latency=profile.serving_ready_time,
                   use_cuda_graphs=profile.use_cuda_graphs,
                   deferred_capture=profile.deferred_capture,
                   profile=profile, **overrides)


class ClusterSimulator(MultiModelCluster):
    """One scenario's single-model pool: a one-deployment cluster.

    Maps ``config`` onto one :class:`ModelDeployment` named after the
    cost model's model (:attr:`model`); ``metrics`` and ``instances`` are
    keyed by that name, as on any :class:`MultiModelCluster`.
    """

    # Its own class entry, so per-class instrumentation (perfbench's
    # tracer patches ``vars(cls)["_route"]``) counts each route once.
    _route = MultiModelCluster._route

    def __init__(self, costs: ServingCostModel, config: SimulationConfig):
        self.costs = costs
        self.config = config
        self.model = costs.config.name
        artifact_key = config.artifact_key
        deployment = ModelDeployment(
            name=self.model, costs=costs,
            cold_start_latency=config.cold_start_latency,
            use_cuda_graphs=config.use_cuda_graphs,
            deferred_capture=config.deferred_capture,
            hot_spares=config.hot_spares, max_running=config.max_running,
            profile=config.profile,
            background_tail_penalty=config.background_tail_penalty,
            artifact_size=config.artifact_size,
            initial_instances=config.initial_instances,
            abort_cold_starts=config.abort_cold_starts,
            artifact_key=artifact_key if artifact_key is not None
            else ("cluster", self.model),
            chunks=config.chunks)
        super().__init__(
            [deployment], config.num_gpus, keep_alive=config.keep_alive,
            placement=config.placement, tiers=config.tiers,
            autoscale=config.autoscale, slo_ttft=config.slo_ttft,
            drain=config.drain,
            # The store is keyed by (gpu, model): without an explicit
            # artifact_key there is nothing to fetch.
            artifact_store=config.artifact_store
            if artifact_key is not None else None)

    def run(self, requests: List[Request], horizon: float
            ) -> SimulationMetrics:
        """Simulate the full trace; returns the run's metrics."""
        tagged = [TaggedRequest(self.model, request) for request in requests]
        return super().run(tagged, horizon)[self.model]
