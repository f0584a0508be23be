"""The serverless GPU pool: one or many model deployments on shared GPUs.

A serverless platform hosts *many* model types behind one GPU pool; an
instance serves exactly one model, so every model needs its own warm
capacity.  That is precisely why the paper calls hot spares unaffordable:
"the diversity of model types makes it unaffordable to over-provision for
every type of model" (§2.4).  :class:`MultiModelCluster` simulates such a
pool — requests tagged with a model, per-model instance sets, one global
GPU bound — with per-model plus aggregate metrics.  The single-model
§7.5 experiments (Figures 10/11) are the same pool with one deployment
(:class:`repro.serverless.simulator.ClusterSimulator`).

The pool runs on the :mod:`repro.sim` kernel.  A deployment may carry a
:class:`ColdStartProfile`: its cold starts then execute the scheduled
LoadPlan stage by stage (each :class:`repro.engine.loadplan.
ScheduledStage` becomes a ``cold_stage_done`` event), instances admit
requests at ``Timeline.ready`` ahead of the background restore tail, and
two decisions can cancel an in-flight cold start at its next stage
boundary: a startup abort when the model's ready instances can absorb
its queue (``abort_cold_starts``), and — the preemption the shared pool
unlocks — a model with *zero* capacity on an exhausted pool taking over
another model's cold start whose queue its siblings can absorb.  Event
kinds tie-break in declared order (arrivals before stage completions
before readiness before step completions before idle ticks).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import InvalidValueError, SchedulingError
from repro.serverless.autoscale import AutoscalePolicy, make_autoscaler
from repro.serverless.costs import ServingCostModel
from repro.serverless.instance import (
    ColdStartProfile,
    DecodeRun,
    Instance,
    InstanceConfig,
)
from repro.serverless.metrics import SimulationMetrics
from repro.serverless.placement import (
    TIER_DRAM,
    ChunkFetchSummary,
    FetchResolution,
    PlacementPolicy,
    TierSpec,
    fetch_duration,
    make_policy,
)
from repro.serverless.workload import Request, ShareGPTWorkload
from repro.sim import EventLoop

#: Event kinds, in tie-break (dispatch-priority) order.  IDLE_TICK
#: deliberately sorts *after* every other kind: an arrival, stage
#: completion, or step completion co-timed with an idle re-check always
#: dispatches first, so a request landing at the exact instant a
#: keep-alive window expires reaches the instance before the retirement
#: decision runs — the tie-break is the kernel's ``(time, priority,
#: seq)`` order, not handler luck.
ARRIVAL = "arrival"
COLD_STAGE_DONE = "cold_stage_done"
INSTANCE_READY = "instance_ready"
STEP_DONE = "step_done"
IDLE_TICK = "idle_tick"

_EPS = 1e-12


def _track(instance: Instance) -> str:
    """The trace track one instance's events land on."""
    return f"instance-{instance.instance_id}"


@dataclass(frozen=True)
class ModelDeployment:
    """One hosted model's serving profile on the shared cluster."""

    name: str
    costs: ServingCostModel
    cold_start_latency: float
    use_cuda_graphs: bool = True
    deferred_capture: bool = False
    hot_spares: int = 0
    max_running: int = 14
    gpus_per_instance: int = 1   # tensor-parallel deployments span GPUs
    #: Scheduled-LoadPlan cold-start profile; when present, cold starts
    #: are stage-granular (ready at ``Timeline.ready``, cancellable at
    #: stage boundaries) and ``cold_start_latency`` is superseded by
    #: ``profile.serving_ready_time``.
    profile: Optional[ColdStartProfile] = None
    #: Fractional serving slowdown under a pipelined restore's background
    #: tail (stage-granular cold starts only).
    background_tail_penalty: float = 0.15
    #: This model's artifact footprint in tier-capacity units — what its
    #: residency costs in a node's cache hierarchy.
    artifact_size: float = 1.0
    #: Instances provisioned warm at t=0; with ``hot_spares`` they form
    #: the floor keep-alive retirement and startup aborts preserve.
    initial_instances: int = 0
    #: Cancel an in-flight stage-granular cold start at its next stage
    #: boundary when this model's ready instances can absorb every
    #: request queued on it (ServerlessLLM-style startup abort).
    abort_cold_starts: bool = False
    #: The artifact's identity: keys the nodes' tier caches (None keys
    #: them by ``("model", name)``) and, on a pool with an
    #: ``artifact_store``, the store fetch every cold start makes.
    artifact_key: Optional[Tuple[str, str]] = None
    #: Optional chunk-stream description of the artifact (``ChunkMeta``
    #: -shaped objects with ``digest``/``nbytes``/``foreground``; see
    #: :func:`repro.core.chunks.simulation_chunks`): cold starts then
    #: resolve tier residency chunk by chunk, so a node that hosted a
    #: sibling model sharing chunks starts partially warm.
    chunks: Optional[Tuple[object, ...]] = None

    def __post_init__(self) -> None:
        for field, least in (("max_running", 1), ("gpus_per_instance", 1),
                             ("hot_spares", 0), ("initial_instances", 0),
                             ("cold_start_latency", 0)):
            value = getattr(self, field)
            if value < least:
                raise InvalidValueError(
                    f"{field} must be >= {least}, got {value}")

    @property
    def warm_floor(self) -> int:
        """Live instances retirement and startup aborts never go below."""
        return self.initial_instances + self.hot_spares


@dataclass(frozen=True)
class TaggedRequest:
    """A request bound for one deployment."""

    model: str
    request: Request


def tag_workloads(workloads: Dict[str, ShareGPTWorkload]
                  ) -> List[TaggedRequest]:
    """Merge per-model workloads into one time-ordered arrival stream."""
    tagged: List[TaggedRequest] = []
    for model, workload in workloads.items():
        tagged.extend(TaggedRequest(model, request)
                      for request in workload.generate())
    tagged.sort(key=lambda t: t.request.arrival_time)
    return tagged


class MultiModelCluster:
    """One GPU pool shared by one or more model deployments.

    ``keep_alive`` seeds the default keep-alive autoscale window;
    ``placement``/``tiers`` pick the artifact placement policy and its
    per-node tier ladder; ``autoscale`` names the per-deployment
    autoscale policy and ``slo_ttft`` the TTFT budget.  ``drain=False``
    drops arrivals past the horizon instead of serving them, and
    ``artifact_store`` (an ``ArtifactStore``-like object) is fetched from
    on every cold start of a deployment with an ``artifact_key``, so
    repeated cold starts hit its in-memory LRU.
    """

    def __init__(self, deployments: List[ModelDeployment], num_gpus: int,
                 keep_alive: float = 20.0, placement: object = "locality",
                 tiers: Optional[Tuple[TierSpec, ...]] = None,
                 autoscale: object = "keep-alive", slo_ttft: float = 0.0,
                 drain: bool = True, artifact_store: Optional[object] = None):
        if num_gpus <= 0:
            raise InvalidValueError("num_gpus must be positive")
        names = [d.name for d in deployments]
        if len(set(names)) != len(names):
            raise InvalidValueError(f"duplicate deployment names in {names}")
        warm_gpus = sum(d.warm_floor * d.gpus_per_instance
                        for d in deployments)
        if warm_gpus > num_gpus:
            raise InvalidValueError(
                f"hot spares and initial instances across deployments "
                f"({warm_gpus} GPUs) exceed the GPU pool ({num_gpus}) — "
                f"the §2.4 affordability wall")
        if any(d.gpus_per_instance > num_gpus for d in deployments):
            raise InvalidValueError(
                "a deployment's gpus_per_instance exceeds the pool size")
        self.deployments = {d.name: d for d in deployments}
        self.num_gpus = num_gpus
        self.keep_alive = keep_alive
        self._placement_spec = placement
        self._tiers = tiers
        self._autoscale_spec = autoscale
        self.slo_ttft = slo_ttft
        self.drain = drain
        self.artifact_store = artifact_store
        self.placement_policy: PlacementPolicy = make_policy(
            placement, num_gpus, tiers)
        # One policy per deployment: idle-window prediction (histograms,
        # cold-cost windows) is a per-model signal on a shared pool.
        self.autoscalers: Dict[str, AutoscalePolicy] = \
            self._build_autoscalers()
        self.instances: Dict[str, List[Instance]] = {name: []
                                                     for name in names}
        self.metrics: Dict[str, SimulationMetrics] = {
            name: SimulationMetrics() for name in names}
        self._begin_run(horizon=0.0)

    def _build_autoscalers(self) -> Dict[str, AutoscalePolicy]:
        """Fresh per-deployment autoscale policies for one run."""
        return {name: make_autoscaler(self._autoscale_spec,
                                      keep_alive=self.keep_alive,
                                      slo_ttft=self.slo_ttft)
                for name in self.deployments}

    # -- capacity ------------------------------------------------------------

    def _live_instances(self, model: Optional[str] = None) -> List[Instance]:
        """Non-retired instances, pool-wide or for one ``model``."""
        if model:
            return [inst for inst in self.instances[model]
                    if not inst.retired]
        return [inst for pool in self.instances.values() for inst in pool
                if not inst.retired]

    @property
    def gpus_in_use(self) -> int:
        """GPUs occupied by live instances (TP deployments span several)."""
        return sum(self.deployments[inst.model_name].gpus_per_instance
                   for inst in self._live_instances())

    def _has_room(self, deployment: ModelDeployment) -> bool:
        """Whether the pool can host one more instance of ``deployment``."""
        return (self.gpus_in_use + deployment.gpus_per_instance
                <= self.num_gpus)

    # -- artifact placement ---------------------------------------------------

    @staticmethod
    def _placement_key(deployment: ModelDeployment) -> Tuple[str, str]:
        """The artifact identity the node caches are keyed by."""
        if deployment.artifact_key is not None:
            return deployment.artifact_key
        return ("model", deployment.name)

    def _free_nodes(self) -> List[int]:
        """Nodes not occupied by any live instance, ascending."""
        occupied = {node for inst in self._live_instances()
                    for node in inst.node_ids}
        return [node for node in range(self.num_gpus)
                if node not in occupied]

    def _resolve_placement(self, key: Optional[Tuple], size: float,
                           base_fetch: float, needed: int = 1,
                           cold: bool = True, chunks: Optional[Sequence] = None
                           ) -> Tuple[Tuple[int, ...],
                                      Optional[FetchResolution]]:
        """Pick the node(s) for one launch and price its artifact fetch.

        Returns ``(node_ids, resolution)``: the nodes the instance will
        occupy (empty when too few nodes are free) and the policy's
        tier-resolved fetch outcome (None under the flat policy and for
        warm launches — the caller then charges the plan's own fetch
        duration unchanged).

        ``chunks`` optionally describes the artifact as a content-
        addressed chunk stream (``ChunkMeta``-shaped objects with
        ``digest``/``nbytes``/``foreground``): the fetch then resolves
        chunk by chunk against the node's chunk-level residency, and the
        returned resolution carries a :class:`ChunkFetchSummary` plus a
        duration equal to the tier-resolved *foreground* fetch seconds.
        """
        policy = self.placement_policy
        free = self._free_nodes()
        if len(free) < needed:
            return (), None
        if cold and key is not None:
            primary = policy.place(free, key)
        else:
            primary = min(free)
        policy.record_placement(primary)
        others = [node for node in free if node != primary][:needed - 1]
        nodes = (primary, *others)
        resolution = None
        if cold:
            resolution = policy.resolve_fetch(primary, key, size,
                                              base_fetch)
            if chunks and resolution is not None:
                resolution = self._resolve_chunk_stream(
                    policy, primary, chunks, size, base_fetch, resolution)
        return nodes, resolution

    def _resolve_chunk_stream(self, policy: PlacementPolicy, node_id: int,
                              chunks: Sequence, size: float,
                              base_fetch: float,
                              resolution: FetchResolution
                              ) -> FetchResolution:
        """Re-price one cold start's fetch as a per-chunk stream.

        Each chunk resolves independently against ``node_id``'s chunk
        residency (content-addressed, so sibling models share warmth);
        the aggregate keeps the blob-granular resolution's node/tier/hit
        bookkeeping but replaces its duration with the summed foreground
        chunk fetch times and attaches the :class:`ChunkFetchSummary`
        the metrics layer consumes.  A policy that does not track chunks
        (flat) leaves the blob-granular resolution untouched.
        """
        total_bytes = float(sum(c.nbytes for c in chunks)) or 1.0
        fg_bytes = float(sum(c.nbytes for c in chunks if c.foreground)) \
            or 1.0
        hits = 0
        bytes_deduped = 0.0
        fetched_fg_bytes = 0.0
        fg_seconds = 0.0
        fg_base = 0.0
        evicted = list(resolution.evicted)
        for chunk in chunks:
            # Foreground chunks split the plan's foreground fetch budget
            # by byte share; background chunks are priced by the same
            # per-byte rate but do not gate readiness.
            per_base = base_fetch * (chunk.nbytes / fg_bytes)
            per_size = size * (chunk.nbytes / total_bytes)
            resolved = policy.resolve_chunk_fetch(
                node_id, chunk.digest, per_size, per_base)
            if resolved is None:
                return resolution
            if resolved.hit:
                hits += 1
                bytes_deduped += chunk.nbytes
            elif chunk.foreground:
                fetched_fg_bytes += chunk.nbytes
            if chunk.foreground:
                fg_seconds += resolved.duration
                fg_base += per_base
            evicted.extend(resolved.evicted)
        summary = ChunkFetchSummary(
            chunks=len(chunks), hits=hits, bytes_deduped=bytes_deduped,
            foreground_bytes=fetched_fg_bytes,
            foreground_seconds=fg_seconds)
        return replace(resolution, duration=fg_seconds,
                       base_duration=fg_base, evicted=tuple(evicted),
                       chunks=summary)

    def _tier_resolved_profile(self, profile,
                               resolution: Optional[FetchResolution],
                               store_hit: bool = False):
        """Rewrite a profile's ``fetch_artifact`` stage to its tier cost.

        ``resolution`` prices the fetch from the placement layer's cache
        hierarchy; ``store_hit`` (the artifact store's in-memory LRU)
        independently caps it at the DRAM tier's cost — the deserialized
        bytes are already in host memory, so the flat remote fetch must
        not be charged again.  Returns the profile unchanged when there
        is nothing to rewrite (no timeline, no fetch stage, same cost).
        """
        if profile is None:
            return None
        base = profile.fetch_duration
        if base <= 0:
            return profile
        duration = base if resolution is None else resolution.duration
        if store_hit:
            tiers = self.placement_policy.tiers
            if any(tier.name == TIER_DRAM for tier in tiers):
                duration = min(duration,
                               fetch_duration(tiers, TIER_DRAM, base))
        return profile.with_fetch_duration(duration)

    def _record_placement(self, instance: Instance,
                          resolution: Optional[FetchResolution]) -> None:
        """Flow one fetch resolution into metrics and the kernel trace."""
        if resolution is None:
            return
        instance.fetch_tier = resolution.tier
        metrics = self.metrics[instance.model_name]
        metrics.record_tier_fetch(resolution.tier, resolution.hit,
                                  resolution.seconds_saved)
        now = self.loop.now
        self.loop.trace.mark(
            "artifact_fetch", now, track=_track(instance),
            node=resolution.node_id, tier=resolution.tier,
            hit=resolution.hit,
            seconds=round(resolution.duration, 6))
        if resolution.chunks is not None:
            summary = resolution.chunks
            metrics.record_chunk_fetch(summary.hits, summary.bytes_deduped,
                                       summary.foreground_bytes)
            self.loop.trace.mark(
                "chunk_fetch", now, track=_track(instance),
                node=resolution.node_id, chunks=summary.chunks,
                hits=summary.hits,
                bytes_deduped=round(summary.bytes_deduped, 3),
                foreground_bytes=round(summary.foreground_bytes, 3),
                foreground_seconds=round(summary.foreground_seconds, 6))
        if resolution.promoted is not None:
            metrics.record_tier_promotion(resolution.promoted[1])
            self.loop.trace.mark(
                "artifact_promoted", now, track=_track(instance),
                node=resolution.node_id,
                from_tier=resolution.promoted[0],
                to_tier=resolution.promoted[1])
        for key, tier in resolution.evicted:
            metrics.record_tier_eviction(tier)
            self.loop.trace.mark(
                "artifact_evicted", now, track=_track(instance),
                node=resolution.node_id, artifact=list(key), tier=tier)

    # -- lifecycle ---------------------------------------------------------------

    def _begin_run(self, horizon: float) -> None:
        """Build a fresh event loop with the pool's handlers registered."""
        self.horizon = horizon
        self._instance_ids = itertools.count()
        loop = EventLoop()
        loop.on(ARRIVAL, self._on_arrival, priority=0)
        loop.on(COLD_STAGE_DONE, self._on_cold_stage_done, priority=1)
        loop.on(INSTANCE_READY, self._on_instance_ready, priority=2)
        loop.on(STEP_DONE, self._on_step_done, priority=3)
        loop.on(IDLE_TICK, self._on_idle_tick, priority=4)
        self.loop = loop

    def _launch(self, model: str, now: float, cold: bool = True,
                hot_spare: bool = False) -> Instance:
        """Provision one instance of ``model``'s deployment.

        Cold launches go through the placement layer: the policy picks
        the node(s) the instance occupies (TP deployments span several;
        the artifact lives on the first), and the resolved tier rewrites
        the profile's ``fetch_artifact`` stage before the kernel
        schedules the cold start — so admission, background tails, and
        traces all reflect locality.  A hit on the artifact store's
        in-memory LRU likewise caps the fetch at the DRAM tier's cost:
        the bytes are already deserialized in host memory, so charging
        the flat remote fetch would double-bill.
        """
        deployment = self.deployments[model]
        metrics = self.metrics[model]
        profile = deployment.profile if cold else None
        resolution = None
        store = self.artifact_store \
            if deployment.artifact_key is not None else None
        if cold:
            store_hit = False
            if store is not None:
                hits_before = store.cache_hits
                store.get(*deployment.artifact_key)
                store_hit = store.cache_hits > hits_before
            base_fetch = profile.fetch_duration \
                if profile is not None else 0.0
            node_ids, resolution = self._resolve_placement(
                self._placement_key(deployment), deployment.artifact_size,
                base_fetch, needed=deployment.gpus_per_instance,
                chunks=deployment.chunks)
            profile = self._tier_resolved_profile(profile, resolution,
                                                  store_hit=store_hit)
        else:
            node_ids, _ = self._resolve_placement(
                None, 0.0, 0.0, needed=deployment.gpus_per_instance,
                cold=False)
        if not cold:
            latency = 0.0
        elif profile is not None:
            latency = profile.serving_ready_time
        else:
            latency = deployment.cold_start_latency
        instance = Instance(
            costs=deployment.costs,
            config=InstanceConfig(
                max_running=deployment.max_running,
                use_cuda_graphs=deployment.use_cuda_graphs,
                deferred_capture=deployment.deferred_capture,
                background_tail_penalty=deployment.background_tail_penalty),
            launched_at=now,
            cold_start_latency=latency,
            profile=profile,
            model_name=model,
            instance_id=next(self._instance_ids))
        instance.hot_spare = hot_spare
        instance.node_ids = node_ids
        self.instances[model].append(instance)
        if cold:
            metrics.cold_starts += 1
            if profile is not None and profile.degraded_rung:
                metrics.record_degraded_cold_start(profile.degraded_rung)
            if store is not None:
                metrics.record_store_cache(hit=store_hit)
            self._record_placement(instance, resolution)
        self._launch_events(instance)
        return instance

    def _launch_events(self, instance: Instance) -> None:
        """Schedule the ready event and every cold-stage completion."""
        events = [self.loop.schedule(instance.ready_at, INSTANCE_READY,
                                     instance)]
        for stage in instance.cold_stages:
            events.append(self.loop.schedule(
                instance.launched_at + stage.end, COLD_STAGE_DONE,
                (instance, stage)))
        instance.cold_events = events

    def _cancel_cold_start(self, instance: Instance, now: float,
                           reason: str = "") -> Optional[Tuple[float, str]]:
        """Abort ``instance``'s cold start at the next stage boundary.

        Cancels every pending event past the boundary (later restore
        stages and the ready event), retires the instance there, and
        records the cancellation; returns ``(boundary_time, stage_name)``
        or ``None`` when the instance refused (see
        :meth:`Instance.cancel_cold_start`).  The caller is responsible
        for re-routing any requests still waiting on the instance.
        """
        boundary = instance.cancel_cold_start(now)
        if boundary is None:
            return None
        boundary_time, boundary_stage = boundary
        for event in instance.cold_events:
            if event.time > boundary_time + _EPS:
                self.loop.cancel(event)
        self.metrics[instance.model_name].record_cancelled_cold_start(
            boundary_stage)
        self.loop.trace.mark("cold_start_cancelled", now,
                             track=_track(instance), stage=boundary_stage,
                             effective_at=boundary_time, reason=reason)
        return boundary

    # -- routing ---------------------------------------------------------------

    def _route(self, tagged: TaggedRequest, now: float) -> None:
        """Least-loaded routing within one deployment, scaling from zero."""
        model = tagged.model
        deployment = self.deployments.get(model)
        if deployment is None:
            raise SchedulingError(f"no deployment for model {model!r}")
        live = self._live_instances(model)
        candidates = [inst for inst in live
                      if inst.load < deployment.max_running]
        if candidates:
            target = min(candidates, key=lambda inst: (inst.load,
                                                       inst.ready_at))
        elif self._has_room(deployment):
            target = self._launch(model, now)
        elif live:
            # Saturated: queue at the shortest backlog.
            target = min(live, key=lambda inst: inst.load)
        else:
            # Pool exhausted by *other* models and this one has no instance:
            # free a GPU (an idle instance, else a preemptable cold start).
            target = self._launch_when_possible(model, now)
        target.enqueue(tagged.request)
        if target.run_event is not None:
            self._cut_run(target, now)
        self._maybe_step(target, now)

    def _launch_when_possible(self, model: str, now: float) -> Instance:
        """Free one GPU for a zero-capacity model, then launch on it.

        Preference order: retire an idle ready instance of another model
        (the pre-kernel behaviour); else cancel another model's in-flight
        stage-granular cold start at its next stage boundary, provided its
        queued requests fit on its sibling instances — the
        ServerlessLLM-style "abort a startup that another replica makes
        redundant" decision, now possible *mid-cold-start* because stages
        are events.
        """
        idle = [instance for pool in self.instances.values()
                for instance in pool
                if (not instance.retired and not instance.has_work
                    and not instance.stepping
                    and not instance.hot_spare)]
        if idle:
            # Which idle instance to retire is a *placement* decision:
            # evicting the node that holds this model's artifact in a warm
            # tier forfeits the residency the launch could have reused.
            # The flat policy picks index 0 — the legacy first-found scan.
            nodes = [inst.node_ids[0] if inst.node_ids else None
                     for inst in idle]
            pick = self.placement_policy.choose_victim(
                nodes, self._placement_key(self.deployments[model]))
            if not 0 <= pick < len(idle):
                pick = 0
            victim = idle[pick]
            victim.retired = True
            victim.retired_at = now
            return self._launch(model, now)
        preempted = self._preempt_cold_start(model, now)
        if preempted is not None:
            return preempted
        raise SchedulingError(
            f"GPU pool exhausted and no instance of {model!r} exists; "
            f"increase num_gpus or lower hot_spares")

    def _preempt_cold_start(self, model: str, now: float
                            ) -> Optional[Instance]:
        """Cancel a preemptable cold start and launch ``model`` on its GPU.

        A victim must still be cold-starting with stage boundaries ahead,
        must not be a hot spare, and its model must keep at least one
        other live instance to re-route the victim's queued requests onto
        (they queue deeper there — a tail hit for the victim's model, but
        the zero-capacity model gets served at all).  Among eligible
        victims the one with the most cold-start work remaining (latest
        ready instant) is cancelled: least sunk cost, earliest boundary.
        """
        best: Optional[Instance] = None
        for victim_model, pool in self.instances.items():
            if victim_model == model:
                continue
            for victim in pool:
                if (victim.retired or victim.hot_spare or victim.running
                        or victim.stepping or not victim.cold_stages
                        or now >= victim.ready_at):
                    continue
                siblings = [inst
                            for inst in self._live_instances(victim_model)
                            if inst is not victim]
                if victim.waiting and not siblings:
                    continue
                if best is None or victim.ready_at > best.ready_at:
                    best = victim
        if best is None:
            return None
        freed = self.deployments[best.model_name].gpus_per_instance
        needed = self.deployments[model].gpus_per_instance
        if self.gpus_in_use - freed + needed > self.num_gpus:
            return None   # a TP deployment needs more GPUs than one victim
        victim_model = best.model_name
        rerouted = list(best.waiting)
        best.waiting.clear()
        boundary = self._cancel_cold_start(best, now,
                                           reason="pool_exhausted")
        if boundary is None:
            best.waiting.extend(rerouted)
            return None
        # Claim the victim's GPU *before* re-routing its queue: the new
        # instance's cold start begins at the boundary where the GPU
        # frees, and the re-routed requests must queue on the victim's
        # siblings rather than re-grab the slot being handed over.
        replacement = self._launch(model, boundary[0])
        for request in rerouted:
            self._route(TaggedRequest(victim_model, request), now)
        return replacement

    def _consider_abort(self, instance: Instance, now: float) -> None:
        """Cancel a now-pointless cold start at this stage boundary.

        If the model's ready instances have freed enough capacity to
        absorb every request queued on a still-cold instance (above the
        deployment's warm floor), finishing the startup only wastes GPU
        time: re-route the queue and abort at the boundary we are
        standing on.
        """
        model = instance.model_name
        deployment = self.deployments[model]
        if not deployment.abort_cold_starts:
            return
        if instance.retired or instance.running or instance.stepping:
            return
        if now >= instance.ready_at:
            return
        live = self._live_instances(model)
        if len(live) <= deployment.warm_floor:
            return
        ready = [inst for inst in live
                 if inst is not instance and now >= inst.ready_at]
        spare = sum(max(0, deployment.max_running - inst.load)
                    for inst in ready)
        if spare < len(instance.waiting):
            return
        rerouted = list(instance.waiting)
        instance.waiting.clear()
        if self._cancel_cold_start(instance, now,
                                   reason="free_capacity") is None:
            instance.waiting.extend(rerouted)
            return
        for request in rerouted:
            self._route(TaggedRequest(model, request), now)

    # -- event handlers -------------------------------------------------------

    def _on_arrival(self, event) -> None:
        """Notify the autoscaler, route the arrival, apply scale-up.

        Arrivals past the horizon are dropped unless the pool drains.
        """
        now = self.loop.now
        if not self.drain and now > self.horizon:
            return
        tagged = event.payload
        policy = self.autoscalers.get(tagged.model)
        if policy is not None:
            policy.on_arrival(self, tagged.model, now)
        self._route(tagged, now)
        if policy is not None:
            self._apply_scale_up(policy, tagged.model, now)

    def _on_cold_stage_done(self, event) -> None:
        """Account one completed cold-start stage and poll the policies."""
        instance, stage = event.payload
        now = self.loop.now
        self.metrics[instance.model_name].record_cold_stage(stage.name,
                                                            stage.duration)
        self.loop.trace.span(
            stage.name, instance.launched_at + stage.start,
            instance.launched_at + stage.end, track=_track(instance),
            lane=getattr(stage, "lane", ""),
            background=bool(getattr(stage, "background", False)),
            critical=bool(getattr(stage, "critical", False)),
            cold_start=True)
        if stage.name.startswith("degrade_"):
            # A degradation-ladder rung executed on this cold start: make
            # it visible at cluster level, not only inside the engine.
            self.loop.trace.mark("ladder_rung", now, track=_track(instance),
                                 stage=stage.name)
        self.autoscalers[instance.model_name].on_stage_boundary(
            self, instance, stage, now)
        self._consider_abort(instance, now)

    def _on_instance_ready(self, event) -> None:
        """An instance finished its foreground cold start: start serving."""
        instance = event.payload
        if instance.retired:
            return
        self.loop.trace.mark("instance_ready", self.loop.now,
                             track=_track(instance))
        self._maybe_step(instance, self.loop.now)
        if not instance.has_work and not instance.stepping \
                and not instance.hot_spare:
            # Ready with nothing queued: start the idle clock so window
            # -enforcing policies retire it even if it never serves.
            self._schedule_idle_tick(
                self.autoscalers[instance.model_name], instance,
                self.loop.now)

    def _on_step_done(self, event) -> None:
        """Record one step event's TTFTs/completions; continue."""
        instance, result = event.payload
        now = self.loop.now
        instance.stepping = False
        if isinstance(result, DecodeRun):
            # Pure decode: nothing to record but the span.
            instance.finish_run(result)
            instance.run_event = None
            self.loop.trace.span(
                "serve_step", result.start, now, track=_track(instance),
                admitted=0, completed=0, contended=False,
                steps=result.steps)
        else:
            metrics = self.metrics[instance.model_name]
            for request, ttft in result.ttfts:
                metrics.record_ttft(
                    ttft, cold_tax=self._cold_tax(instance, request, ttft))
            for completion in result.completed:
                metrics.record_completion(
                    completion.latency,
                    in_horizon=completion.completion_time <= self.horizon)
            if result.background_contention > 0:
                metrics.record_background_contention(
                    result.background_contention)
        self._maybe_step(instance, now)
        self._maybe_retire(instance, now)

    # -- serving / retirement -------------------------------------------------

    def _maybe_step(self, instance: Instance, now: float) -> None:
        """Start the instance's next step event if it can serve.

        The event is a decode run when the next iterations are pure
        decode (see :meth:`Instance.decode_run`), else one ordinary
        continuous-batching iteration.
        """
        if (instance.stepping or instance.retired
                or now < instance.ready_at or not instance.has_work):
            return
        instance.stepping = True
        run = instance.decode_run(now)
        if run is not None:
            instance.run_event = self.loop.schedule(run.end, STEP_DONE,
                                                    (instance, run))
            return
        result = instance.run_step(now)
        self.loop.schedule(now + result.duration, STEP_DONE,
                           (instance, result))
        self.loop.trace.span(
            "serve_step", now, now + result.duration,
            track=_track(instance), admitted=len(result.ttfts),
            completed=len(result.completed),
            contended=result.background_contention > 0, steps=1)

    def _cut_run(self, instance: Instance, now: float) -> None:
        """End ``instance``'s decode run where a request just routed onto
        it gets admitted: the first iteration boundary at or after
        ``now``.  A full batch admits nothing until a completion, which
        the run already stops before, so it runs on uncut.

        Keeping an iteration that ends exactly at ``now`` (``bisect_left``)
        relies on every route at ``t`` dispatching before any STEP_DONE
        at ``t``: routes start only from ARRIVAL and COLD_STAGE_DONE
        handlers, which :meth:`_begin_run` ranks ahead of STEP_DONE.  A
        route started from a step-done or idle-tick handler would admit
        its request one iteration earlier than single-stepping does.
        """
        if len(instance.running) >= instance.config.max_running:
            return
        run = instance.run_event.payload[1]
        if run.cut(now):
            self.loop.cancel(instance.run_event)
            instance.run_event = self.loop.schedule(run.end, STEP_DONE,
                                                    (instance, run))

    def _maybe_retire(self, instance: Instance, now: float) -> None:
        """Retire an idle instance once its policy's window expires.

        The decision is delegated to the deployment's autoscale policy
        (``should_retire``) and never takes the model below its warm
        floor.  When the policy declines *and* wants the window actually
        enforced (``idle_check_delay``), an :data:`IDLE_TICK` is
        scheduled at the window's expiry — it tie-breaks after any
        co-timed arrival, so a request landing at the exact expiry
        instant always wins.
        """
        if instance.has_work or instance.stepping or instance.retired:
            return
        if instance.hot_spare:
            return   # §2.4: hot spares stay provisioned (and waste GPUs)
        model = instance.model_name
        policy = self.autoscalers[model]
        if not policy.should_retire(self, instance, now):
            self._schedule_idle_tick(policy, instance, now)
        elif len(self._live_instances(model)) \
                > self.deployments[model].warm_floor:
            policy._decide("retire")
            instance.retired = True
            instance.retired_at = now
            self.loop.trace.mark("retired", now, track=_track(instance))
        # Otherwise the window expired but the instance holds the warm
        # floor: it stays, and no tick is armed — the expired window
        # would fire one at once, forever.

    # -- autoscale mechanism ---------------------------------------------------

    def _cold_tax(self, instance: Instance, request, ttft: float) -> float:
        """Seconds of one request's TTFT attributable to a cold start.

        The part of the wait spent before the serving instance's ready
        instant: a request admitted by an already-warm instance pays 0.
        """
        return min(ttft, max(0.0, instance.ready_at - request.arrival_time))

    def _schedule_idle_tick(self, policy: AutoscalePolicy,
                            instance: Instance, now: float) -> None:
        """Arm one idle re-check at the policy's requested delay.

        The tick carries the instance's current ``last_busy_at`` as a
        staleness stamp: serving work between scheduling and firing
        advances the stamp, and the stale tick is ignored (the next idle
        period arms its own).
        """
        delay = policy.idle_check_delay(self, instance, now)
        if delay is None:
            return
        policy._decide("idle_tick_armed")
        self.loop.schedule(now + max(0.0, delay), IDLE_TICK,
                           (instance, instance.last_busy_at))

    def _on_idle_tick(self, event) -> None:
        """Re-evaluate retirement for a (possibly no longer) idle instance."""
        instance, stamp = event.payload
        now = self.loop.now
        if (instance.retired or instance.stepping or instance.has_work
                or instance.last_busy_at != stamp):
            return   # stale: the instance served (or died) since arming
        self.autoscalers[instance.model_name].on_idle_tick(self, instance,
                                                           now)
        self._maybe_retire(instance, now)

    def _apply_scale_up(self, policy: AutoscalePolicy, model: str,
                        now: float) -> None:
        """Launch cold instances until the policy's target is met.

        Best-effort: stops at the pool's capacity.  Every proactive
        launch is counted on the policy and marked in the trace.
        """
        target = policy.target_instances(self, model, now)
        if target <= 0:
            return
        deployment = self.deployments[model]
        while len(self._live_instances(model)) < target \
                and self._has_room(deployment):
            instance = self._launch(model, now)
            policy._decide("scale_up")
            self.loop.trace.mark("autoscale_up", now,
                                 track=_track(instance), policy=policy.name)

    # -- main loop -----------------------------------------------------------------

    def run(self, tagged_requests: List[TaggedRequest],
            horizon: float) -> Dict[str, SimulationMetrics]:
        """Simulate the merged arrival stream; returns per-model metrics."""
        self.metrics = {name: SimulationMetrics(horizon=horizon,
                                                slo_ttft=self.slo_ttft)
                        for name in self.deployments}
        self.instances = {name: [] for name in self.deployments}
        # Fresh cache state per run: residency must not leak across runs,
        # and neither must the autoscalers' observed histograms (a
        # caller-supplied policy *instance* is reused as-is).
        self.placement_policy = make_policy(self._placement_spec,
                                            self.num_gpus, self._tiers)
        self.autoscalers = self._build_autoscalers()
        self._begin_run(horizon)
        for tagged in tagged_requests:
            self.metrics[tagged.model].arrived += 1
            self.loop.schedule(tagged.request.arrival_time, ARRIVAL, tagged)
        for name, deployment in self.deployments.items():
            for _ in range(deployment.initial_instances):
                self._launch(name, 0.0, cold=False)
            for _ in range(deployment.hot_spares):
                self._launch(name, 0.0, cold=False, hot_spare=True)

        self.loop.run()

        # GPU-time accounting (the §2.4 hot-spares waste argument).
        end_of_run = max(horizon, self.loop.now)
        for model, pool in self.instances.items():
            for instance in pool:
                until = getattr(instance, "retired_at", end_of_run)
                self.metrics[model].record_instance_lifetime(
                    max(0.0, until - instance.ready_at),
                    instance.busy_time)
        for model, policy in self.autoscalers.items():
            self.metrics[model].record_autoscale_decisions(policy.decisions)
        return self.metrics

    # -- aggregate view --------------------------------------------------------------

    def aggregate(self) -> SimulationMetrics:
        """Fold every deployment's metrics into one cluster-wide view."""
        total = SimulationMetrics(
            horizon=max((m.horizon for m in self.metrics.values()),
                        default=0.0))
        for metrics in self.metrics.values():
            total.merge(metrics)
        return total
