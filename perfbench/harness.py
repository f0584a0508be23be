"""Workloads, operations, checks and metrics of the benchmark.

Every workload runs the same four operation kinds on its own models and
its own simulated pool (see ``GLOSSARY.md`` for why each was chosen):

- ``restore``: plain Medusa restore from the on-disk chunk store
  (``get_lazy`` -> ``prepare_medusa_cold_start`` -> ``cold_start``);
- ``guarded``: the same with a ``DegradationPolicy`` armed and no faults;
- ``materialize``: ``run_offline`` with lint -> ``put`` into a second,
  empty store -> ``get`` read-back -> ``delete``;
- ``simulate``: one run of the workload's serverless pool over requests
  generated from the seed during set-up.

A run sets up ``SETUP_REPEATS`` times (materialize each model into a
fresh store, restore it once for its cold-start profile, generate the
requests), then runs a closed loop of operations for the measured
seconds.  Workloads with ``validate`` compare restored outputs against
eager forwarding before and after the loop.  Each operation's wall time
covers only the calls above; its checks run after the clock stops.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import pathlib
import random
import resource
import shutil
import signal
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import repro.core.offline as offline
import repro.core.online as online
from repro.core.chunks import simulation_chunks
from repro.core.store import ArtifactStore
from repro.core.validation import validate_restoration
from repro.faults import DegradationPolicy
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

from tracing import Tracer, installed, stage_family

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Seeds of the offline capture and of every restoring engine.  Fixed, so
#: every run restores the same artifact; the workload seed varies only
#: the simulated requests and the order of operations.
OFFLINE_SEED = 9600
ENGINE_SEED = 1
#: TTFT budget of every simulated pool, in simulated seconds.
SLO_TTFT = 1.0

OP_KINDS = ("restore", "guarded", "materialize", "simulate")

#: Seconds one run of :func:`_reference_work` takes when the machine runs
#: at its quiet speed (2-vCPU sandbox, 2.0 GHz).  Wall metrics are
#: reported at this reference speed; see :class:`SpeedProbe`.
CALIBRATION_REF_S = 0.0028


def _reference_work() -> int:
    """Fixed interpreter work: dict updates, tuple allocation, a sort."""
    table: Dict[int, int] = {}
    items = []
    for i in range(9000):
        key = i % 257
        table[key] = table.get(key, 0) + i
        items.append((key, i))
    items.sort()
    return len(items) + len(table)


def _reference_seconds() -> float:
    """Seconds of one :func:`_reference_work`, with the collector paused
    so that the operation's own heap does not slow the sample."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _reference_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Measures how fast the machine ran while an operation ran.

    Neighbours on a shared machine slow this process by up to ~1.6x in
    phases that last from a fraction of a second to minutes, long enough
    to shift a whole run.  The probe times a fixed loop the program never
    runs (:func:`_reference_work`) three times before and after the
    operation and, from a wall-clock interval timer, every
    ``PERIOD_S`` while it runs.  ``CALIBRATION_REF_S`` over the mean of
    those samples is the speed factor: an operation's wall time times the
    factor is its time at the reference speed.  A change to the program
    moves the scaled time as it moves the wall time.  The samples taken
    inside the operation are charged to the probe, not to the operation
    (:meth:`elapsed`).
    """

    PERIOD_S = 0.2

    def __init__(self, sample_inside: bool = True):
        self.sample_inside = sample_inside
        self.samples: List[float] = []
        #: (perf_counter at the start of an in-operation sample, its cost)
        self._charged: List[Tuple[float, float]] = []

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(_reference_seconds())
        self._charged.append((start, time.perf_counter() - start))

    @contextlib.contextmanager
    def running(self) -> Iterator["SpeedProbe"]:
        self.samples.extend(_reference_seconds() for _ in range(3))
        previous = None
        if self.sample_inside:
            previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S,
                             self.PERIOD_S)
        try:
            yield self
        finally:
            if self.sample_inside:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            self.samples.extend(_reference_seconds() for _ in range(3))

    def elapsed(self, start: float) -> float:
        """Wall seconds since ``start`` minus the probe's own samples."""
        now = time.perf_counter()
        return now - start - sum(cost for at, cost in self._charged
                                 if start <= at <= now)

    @property
    def speed(self) -> float:
        return CALIBRATION_REF_S / statistics.mean(self.samples)


# -- simulated pools ---------------------------------------------------------


@dataclass
class SimRun:
    """What one simulation returns to the benchmark."""

    loop: object                       # the pool's sim.kernel.EventLoop
    total: object                      # cluster-wide SimulationMetrics
    per_model: Dict[str, object]       # model -> SimulationMetrics
    chunk_fetches: int                 # chunk residency lookups made


@dataclass
class Simulation:
    """A pool with its generated requests, ready to run repeatedly."""

    requests: int
    generate_s: float
    run: Callable[[], SimRun]


def single_model_pool(model: str, num_gpus: int, shape: str, rps: float,
                      duration: float) -> Callable:
    """A ``ClusterSimulator`` of ``model`` with locality placement over
    the stored artifact's chunks and the default keep-alive autoscaler."""
    def build(ctx: "SetUp", seed: int) -> Simulation:
        start = time.perf_counter()
        requests = ShareGPTWorkload(rps=rps, duration=duration, seed=seed,
                                    shape=shape).generate()
        generate_s = time.perf_counter() - start
        chunks = simulation_chunks(ctx.store.manifest(ctx.gpu, model))
        config = SimulationConfig.from_report(
            ctx.reports[model], num_gpus=num_gpus, placement="locality",
            chunks=chunks, artifact_key=(ctx.gpu, model),
            slo_ttft=SLO_TTFT)
        costs = ServingCostModel(model)

        def run() -> SimRun:
            simulator = ClusterSimulator(costs, config)
            metrics = simulator.run(requests, horizon=duration)
            return SimRun(simulator.loop, metrics, {model: metrics},
                          metrics.cold_starts * len(chunks))
        return Simulation(len(requests), generate_s, run)
    return build


def multi_model_pool(arrivals: Tuple[Tuple[str, str, float], ...],
                     num_gpus: int, duration: float,
                     autoscale: str) -> Callable:
    """A ``MultiModelCluster`` over ``(model, shape, rps)`` arrivals, each
    model deployed with the profile of its own set-up restore."""
    def build(ctx: "SetUp", seed: int) -> Simulation:
        start = time.perf_counter()
        tagged = tag_workloads({
            model: ShareGPTWorkload(rps=rps, duration=duration,
                                    seed=seed * 1000 + position, shape=shape)
            for position, (model, shape, rps) in enumerate(arrivals)})
        generate_s = time.perf_counter() - start
        deployments = []
        for model, _, _ in arrivals:
            profile = ColdStartProfile.from_report(ctx.reports[model])
            deployments.append(ModelDeployment(
                name=model, costs=ServingCostModel(model),
                cold_start_latency=profile.serving_ready_time,
                profile=profile))

        def run() -> SimRun:
            cluster = MultiModelCluster(deployments, num_gpus=num_gpus,
                                        placement="locality",
                                        autoscale=autoscale,
                                        slo_ttft=SLO_TTFT)
            per_model = cluster.run(tagged, horizon=duration)
            return SimRun(cluster.loop, cluster.aggregate(),
                          dict(per_model), 0)
        return Simulation(len(tagged), generate_s, run)
    return build


# -- workloads ---------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One named input set: models, the pool they serve, and the share of
    measured time each operation kind gets."""

    name: str
    why: str
    models: Tuple[str, ...]
    primary: str                       # model of restore/materialize ops
    shares: Dict[str, float]
    pool: Callable[["SetUp", int], Simulation]
    #: Compare restored replay with eager forwarding, untimed, before and
    #: after the loop.
    validate: bool = False


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="artifact",
        why="restores and materializations of Qwen1.5-0.5B on one chunk "
            "store, so the restore, offline and store layers do the work",
        models=("Qwen1.5-0.5B",),
        primary="Qwen1.5-0.5B",
        shares={"restore": 0.4, "guarded": 0.2, "materialize": 0.25,
                "simulate": 0.15},
        pool=single_model_pool("Qwen1.5-0.5B", num_gpus=4, shape="poisson",
                               rps=8.0, duration=300.0),
        validate=True),
    Workload(
        name="cluster",
        why="Llama2-7B on 8 GPUs under diurnal arrivals, few cold starts, "
            "so decode steps in the event loop do the work",
        models=("Llama2-7B",),
        primary="Llama2-7B",
        shares={"restore": 0.15, "guarded": 0.15, "materialize": 0.2,
                "simulate": 0.5},
        pool=single_model_pool("Llama2-7B", num_gpus=8, shape="diurnal",
                               rps=12.0, duration=400.0)),
    Workload(
        name="fleet",
        why="three models scale from zero on 4 GPUs and evict each other, "
            "so routing, placement, autoscale and cold stages do the work",
        models=("Qwen1.5-0.5B", "Qwen1.5-1.8B", "Llama2-7B"),
        primary="Qwen1.5-1.8B",
        shares={"restore": 0.15, "guarded": 0.15, "materialize": 0.2,
                "simulate": 0.5},
        pool=multi_model_pool((("Qwen1.5-0.5B", "burst", 1.0),
                               ("Qwen1.5-1.8B", "spike_train", 1.0),
                               ("Llama2-7B", "burst", 0.6)),
                              num_gpus=4, duration=600.0,
                              autoscale="cold-cost")),
)}


# -- set-up ------------------------------------------------------------------


@dataclass
class SetUp:
    """A materialized store, one restore report per model, and the pool."""

    root: pathlib.Path
    store: ArtifactStore
    gpu: str
    reports: Dict[str, object] = field(default_factory=dict)
    simulation: Optional[Simulation] = None


def set_up(workload: Workload, seed: int, root: pathlib.Path) -> SetUp:
    """Materialize every model of ``workload`` into a fresh store under
    ``root``, restore each once for its profile, and build the pool."""
    store = ArtifactStore(root / "store")
    ctx: Optional[SetUp] = None
    for model in workload.models:
        artifact, _ = offline.run_offline(model, seed=OFFLINE_SEED)
        store.put(artifact)
        if ctx is None:
            ctx = SetUp(root, store, artifact.gpu_name)
        _, engine, _, report = restore(ctx, model)
        check_restore(engine, report, artifact.graphs)
        ctx.reports[model] = report
    ctx.simulation = workload.pool(ctx, seed)
    return ctx


# -- operations --------------------------------------------------------------


def restore(ctx: SetUp, model: str, policy=None):
    """One Medusa cold start from the store: (lazy, engine, restorer,
    report)."""
    lazy = ctx.store.get_lazy(ctx.gpu, model)
    engine, restorer = online.prepare_medusa_cold_start(
        model, lazy, seed=ENGINE_SEED, policy=policy)
    report = engine.cold_start(restorer=restorer)
    return lazy, engine, restorer, report


def check_restore(engine, report, batches) -> None:
    """Every captured batch size must have a published graph exec."""
    published = set(engine.capture_artifacts.execs) \
        if engine.capture_artifacts is not None else set()
    missing = sorted(set(batches) - published)
    if missing:
        raise CheckFailed(f"{report.model}: restore published no graph "
                          f"exec for batch sizes {missing}")


def sim_stages(report) -> Dict[str, float]:
    """Simulated seconds per load-plan stage, indexed stages summed."""
    stages: Dict[str, float] = {}
    for name, seconds in report.stage_durations.items():
        family = stage_family(name)
        stages[family] = stages.get(family, 0.0) + seconds
    return stages


@dataclass
class OpRecord:
    """The outcome of one operation."""

    op_id: int
    kind: str
    ok: bool
    wall_s: float = 0.0
    #: The SpeedProbe factor measured while the op ran.
    speed: float = 1.0
    traced: bool = False
    extras: Dict[str, object] = field(default_factory=dict)
    error: str = ""


class Runner:
    """Runs and checks operations of one workload against one set-up."""

    def __init__(self, workload: Workload, ctx: SetUp,
                 tracer: Optional[Tracer]):
        self.workload = workload
        self.ctx = ctx
        self.tracer = tracer
        self.records: List[OpRecord] = []
        #: Guarded restores that walked the degradation ladder.
        self.degraded = 0
        #: First outcome of each kind; later ones must repeat it exactly.
        self.reference: Dict[str, object] = {
            "restore": (ctx.reports[workload.primary].ready_time,
                        sim_stages(ctx.reports[workload.primary]))}
        self._scratch = ctx.root / "materialize"
        #: Set afresh by :meth:`op` for each operation.
        self.probe = SpeedProbe()

    # -- the four kinds ----------------------------------------------------

    def _restore(self, policy) -> Tuple[float, Dict[str, object]]:
        model = self.workload.primary
        start = time.perf_counter()
        lazy, engine, _, report = restore(self.ctx, model, policy)
        wall = self.probe.elapsed(start)
        check_restore(engine, report, lazy.batches)
        kind = "restore" if policy is None else "guarded"
        outcome = (report.ready_time, sim_stages(report))
        expected = self.reference.setdefault(kind, outcome)
        if outcome != expected:
            raise CheckFailed(
                f"{kind} restore of {model} is not deterministic: simulated "
                f"ready {outcome[0]!r} and stages differ from the first "
                f"restore's {expected[0]!r}")
        extras: Dict[str, object] = {"ready_s": report.ready_time,
                                     "stages": outcome[1]}
        if policy is None:
            manifest = lazy.chunk_manifest
            touched = lazy.reader.loaded_chunks
            extras["bytes_read"] = sum(ref.nbytes for ref in manifest.chunks
                                       if ref.name in touched)
        else:
            if report.degradation is not None:
                self.degraded += 1
                raise CheckFailed(
                    f"guarded restore of {model} degraded with no fault "
                    f"injected: {report.degradation}")
        return wall, extras

    def _materialize(self) -> Tuple[float, Dict[str, object]]:
        model = self.workload.primary
        start = time.perf_counter()
        artifact, _ = offline.run_offline(model, seed=OFFLINE_SEED)
        store = ArtifactStore(self._scratch)
        store.put(artifact)
        back = store.get(artifact.gpu_name, model)
        store.delete(artifact.gpu_name, model)
        wall = self.probe.elapsed(start)
        if back != artifact:
            raise CheckFailed(f"store read-back of {model} differs from "
                              f"the artifact that was put")
        if store.list():
            raise CheckFailed(f"store still lists {store.list()} after "
                              f"delete")
        return wall, {"chunks_written": store.chunks_written,
                      "chunks_deduped": store.chunks_deduped}

    def _simulate(self) -> Tuple[float, Dict[str, object]]:
        simulation = self.ctx.simulation
        start = time.perf_counter()
        result = simulation.run()
        summaries = {name: metrics.summary()
                     for name, metrics in sorted(result.per_model.items())}
        summaries["*"] = result.total.summary()
        wall = self.probe.elapsed(start)
        check_accounting(result, simulation.requests)
        expected = self.reference.setdefault("simulate", summaries)
        if summaries != expected:
            raise CheckFailed("simulation is not deterministic: the metrics "
                              "summary differs from the first run's")
        total = result.total
        completed = len(total.latencies)
        hits = sum(total.tier_hits.values())
        return wall, {
            "summaries": summaries,
            "req_per_s": completed / wall,
            "ttft_p50_s": total.p50_ttft,
            "ttft_p99_s": total.p99_ttft,
            "slo_attainment": total.slo_attainment,
            "gpu_s": total.provisioned_gpu_seconds,
            "events_per_req": result.loop.dispatched / simulation.requests,
            "spans_per_req": len(result.loop.trace.spans)
            / simulation.requests,
            "tier_hit_ratio": hits / max(1, hits + total.tier_misses),
            "chunk_hit_ratio": total.chunk_hits
            / max(1, result.chunk_fetches),
            "idle_ticks": total.autoscale_decisions.get("idle_tick_armed",
                                                        0),
            "decisions": sum(total.autoscale_decisions.values()),
            "cold_starts": total.cold_starts,
            "cancelled_ratio": total.cancelled_cold_starts
            / max(1, total.cold_starts),
            "cold_start_tax_s": total.cold_start_tax_seconds,
            "wasted_warm_s": total.wasted_warm_seconds,
        }

    def _run(self, kind: str) -> Tuple[float, Dict[str, object]]:
        if kind == "restore":
            return self._restore(None)
        if kind == "guarded":
            return self._restore(DegradationPolicy())
        if kind == "materialize":
            return self._materialize()
        return self._simulate()

    def op(self, kind: str, traced: bool = False) -> OpRecord:
        """Run one operation; failures are recorded, never raised."""
        op_id = len(self.records)
        record = OpRecord(op_id, kind, ok=False, traced=traced)
        self.records.append(record)
        gc.collect()
        tracer = self.tracer if traced else None
        # The interval timer would land inside traced spans.
        self.probe = SpeedProbe(sample_inside=not traced)
        start = time.perf_counter()
        try:
            with self.probe.running():
                if tracer is None:
                    record.wall_s, record.extras = self._run(kind)
                else:
                    with installed(tracer), tracer.operation(op_id, kind):
                        record.wall_s, record.extras = self._run(kind)
            record.ok = True
        except Exception as exc:  # noqa: BLE001 - one op must not end the run
            # Charged to the scheduler, so a failing kind cannot spin.
            record.wall_s = self.probe.elapsed(start)
            record.error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc()
        record.speed = self.probe.speed
        return record

    def validate(self) -> OpRecord:
        """Untimed: restored graph replay vs eager forwarding, all batches."""
        op_id = len(self.records)
        record = OpRecord(op_id, "validate", ok=False)
        self.records.append(record)
        model = self.workload.primary
        try:
            lazy = self.ctx.store.get_lazy(self.ctx.gpu, model)
            report = validate_restoration(model, lazy,
                                          batches=sorted(lazy.batches))
            if report.batches_checked != sorted(lazy.batches):
                raise CheckFailed(f"validation checked only "
                                  f"{report.batches_checked}")
            record.ok = True
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            record.error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc()
        return record


def check_accounting(result: SimRun, requests: int) -> None:
    """Request conservation and GPU-second accounting of one simulation."""
    arrived = 0
    for name, metrics in sorted(result.per_model.items()):
        arrived += metrics.arrived
        if not metrics.arrived == len(metrics.latencies) \
                == len(metrics.ttfts):
            raise CheckFailed(
                f"{name}: {metrics.arrived} requests arrived but "
                f"{len(metrics.latencies)} completed and "
                f"{len(metrics.ttfts)} got a first token")
        busy_plus_wasted = metrics.busy_gpu_seconds \
            + metrics.wasted_warm_seconds
        if not math.isclose(metrics.provisioned_gpu_seconds,
                            busy_plus_wasted, rel_tol=1e-9, abs_tol=1e-6):
            raise CheckFailed(
                f"{name}: provisioned {metrics.provisioned_gpu_seconds!r} "
                f"GPU-s != busy + wasted {busy_plus_wasted!r}")
    if arrived != requests:
        raise CheckFailed(f"{requests} requests generated but {arrived} "
                          f"arrived")


# -- the run -----------------------------------------------------------------


def _schedule(runner: Runner, workload: Workload, seconds: float,
              seed: int, traced: bool) -> List[Tuple[OpRecord, ...]]:
    """Closed loop: every kind once in seeded order, then the kind with
    the least measured time for its share that still fits the deadline.
    With ``traced``, each step runs the operation untraced and traced
    (alternating which goes first) so the difference is the overhead."""
    kinds = list(OP_KINDS)
    random.Random(seed).shuffle(kinds)
    spent = {kind: 0.0 for kind in OP_KINDS}
    last = {kind: 0.0 for kind in OP_KINDS}
    steps: List[Tuple[OpRecord, ...]] = []
    start = time.perf_counter()
    pending = list(kinds)
    while True:
        elapsed = time.perf_counter() - start
        if pending:
            kind = pending.pop(0)
        else:
            fits = [k for k in kinds
                    if elapsed + last[k] * (2 if traced else 1) <= seconds]
            if not fits:
                break
            kind = min(fits, key=lambda k: spent[k] / workload.shares[k])
        if traced:
            order = (False, True) if len(steps) % 2 == 0 else (True, False)
            step = tuple(runner.op(kind, traced=flag) for flag in order)
        else:
            step = (runner.op(kind),)
        steps.append(step)
        last[kind] = max(record.wall_s for record in step)
        spent[kind] += sum(record.wall_s for record in step)
    return steps


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 workdir: pathlib.Path) -> "Result":
    """Set up, validate, run the loop, validate; returns the result."""
    setup_times: List[float] = []
    generate_times: List[float] = []
    ctx: Optional[SetUp] = None
    for repeat in range(SETUP_REPEATS):
        if ctx is not None:
            shutil.rmtree(ctx.root)
        gc.collect()
        probe = SpeedProbe()
        start = time.perf_counter()
        with probe.running():
            ctx = set_up(workload, seed, workdir / f"setup-{repeat}")
        setup_times.append(probe.elapsed(start) * probe.speed)
        generate_times.append(ctx.simulation.generate_s)
    # Set-up objects live for the whole run; keep the collector from
    # walking them during every timed operation.
    gc.collect()
    gc.freeze()
    tracer = Tracer() if trace else None
    runner = Runner(workload, ctx, tracer)
    if workload.validate:
        runner.validate()
    steps = _schedule(runner, workload, seconds, seed, trace)
    if workload.validate:
        runner.validate()
    gc.unfreeze()
    return Result(workload, runner, steps, setup_times, generate_times,
                  tracer)


@dataclass
class Result:
    """Everything one run measured."""

    workload: Workload
    runner: Runner
    steps: List[Tuple[OpRecord, ...]]
    setup_times: List[float]
    generate_times: List[float]
    tracer: Optional[Tracer]

    @property
    def records(self) -> List[OpRecord]:
        return self.runner.records

    def ok(self, kind: str, traced: Optional[bool] = None) -> List[OpRecord]:
        return [r for r in self.records if r.kind == kind and r.ok
                and (traced is None or r.traced == traced)]

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if not r.ok)

    def accounting(self) -> Dict[str, Tuple[int, int, int]]:
        """kind -> (attempted, succeeded, failed)."""
        out = {}
        for kind in OP_KINDS + ("validate",):
            records = [r for r in self.records if r.kind == kind]
            good = sum(1 for r in records if r.ok)
            out[kind] = (len(records), good, len(records) - good)
        return out

    def _walls(self, kind: str, scaled: bool = True) -> List[float]:
        """Untraced wall seconds of ``kind``, at reference speed unless
        ``scaled`` is off."""
        return [r.wall_s * (r.speed if scaled else 1.0)
                for r in self.ok(kind, traced=False)]

    def _extra(self, kind: str, key: str) -> float:
        return _median([r.extras[key] for r in self.ok(kind)])

    def end_to_end(self) -> Dict[str, float]:
        """Every end-to-end metric, from untraced operations."""
        return {
            "setup_s": _median(self.setup_times),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "restore_p50_s": _median(self._walls("restore")),
            "restore_guarded_p50_s": _median(self._walls("guarded")),
            "materialize_p50_s": _median(self._walls("materialize")),
            "sim_coldstart_ready_s": self._extra("restore", "ready_s"),
            "sim_guarded_ready_s": self._extra("guarded", "ready_s"),
            "sim_req_per_s": _median(
                [r.extras["req_per_s"] / r.speed
                 for r in self.ok("simulate", traced=False)]),
            "sim_ttft_p50_s": self._extra("simulate", "ttft_p50_s"),
            "sim_ttft_p99_s": self._extra("simulate", "ttft_p99_s"),
            "sim_slo_attainment": self._extra("simulate", "slo_attainment"),
            "sim_gpu_s": self._extra("simulate", "gpu_s"),
        }

    def restore_p90(self) -> Tuple[float, int]:
        walls = sorted(self._walls("restore"))
        if len(walls) < 2:
            return (walls[0] if walls else 0.0), len(walls)
        return statistics.quantiles(walls, n=10)[-1], len(walls)

    def sim_digest(self) -> str:
        """sha256 over every simulated-clock output of the run."""
        outputs = {}
        for kind in ("restore", "guarded"):
            first = self.ok(kind)
            if first:
                outputs[kind] = {"ready_s": first[0].extras["ready_s"],
                                 "stages": first[0].extras["stages"]}
        simulated = self.ok("simulate")
        if simulated:
            outputs["simulate"] = simulated[0].extras["summaries"]
        for name, value in self.end_to_end().items():
            if name.startswith("sim_") and name != "sim_req_per_s":
                outputs[name] = value
        text = json.dumps(outputs, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()

    def overhead(self) -> Tuple[float, float]:
        """(traced - untraced seconds per operation, their ratio - 1) over
        the steps where both halves succeeded."""
        pairs = [step for step in self.steps
                 if len(step) == 2 and all(r.ok for r in step)]
        if not pairs:
            return 0.0, 0.0
        traced = sum(r.wall_s for step in pairs for r in step if r.traced)
        plain = sum(r.wall_s for step in pairs for r in step if not r.traced)
        return (traced - plain) / len(pairs), traced / plain - 1.0


# -- metric definitions ----------------------------------------------------

#: name -> (unit, better, clock).  ``wall`` is the time our Python takes;
#: ``sim`` is what the cost model charges.
END_TO_END: Dict[str, Tuple[str, str, str]] = {
    "setup_s": ("s", "lower", "wall"),
    "peak_rss_mb": ("MB", "lower", "wall"),
    "restore_p50_s": ("s", "lower", "wall"),
    "restore_guarded_p50_s": ("s", "lower", "wall"),
    "materialize_p50_s": ("s", "lower", "wall"),
    "sim_coldstart_ready_s": ("sim_s", "lower", "sim"),
    "sim_guarded_ready_s": ("sim_s", "lower", "sim"),
    "sim_req_per_s": ("req/s", "higher", "wall"),
    "sim_ttft_p50_s": ("sim_s", "lower", "sim"),
    "sim_ttft_p99_s": ("sim_s", "lower", "sim"),
    "sim_slo_attainment": ("share", "higher", "sim"),
    "sim_gpu_s": ("gpu_sim_s", "lower", "sim"),
}


def _span(name: str, own: bool = False) -> Callable:
    return lambda record, spans, tallies: spans.get(name, (0.0, 0.0))[
        1 if own else 0]


def _calls(*names: str) -> Callable:
    return lambda record, spans, tallies: sum(
        tallies.get(name, (0, 0.0, 0.0))[0] for name in names)


def _tally_s(*names: str, own: bool = False) -> Callable:
    return lambda record, spans, tallies: sum(
        tallies.get(name, (0, 0.0, 0.0))[2 if own else 1] for name in names)


def _extra(key: str) -> Callable:
    return lambda record, spans, tallies: record.extras[key]


def _stage(name: str) -> Callable:
    return lambda record, spans, tallies: record.extras["stages"].get(
        name, 0.0)


_ALLOC = ("simgpu.memory.malloc", "simgpu.memory.free",
          "simgpu.memory.pool_free")
PLAIN_STAGES = ("structure_init", "fetch_chunk", "load_weights",
                "load_tokenizer", "kv_init", "replay_alloc", "medusa_warmup",
                "restore_graph")
GUARDED_STAGES = ("structure_init", "load_weights", "load_tokenizer",
                  "kv_init", "medusa_warmup", "medusa_restore")
EVENT_KINDS = ("arrival", "step_done", "cold_stage_done", "instance_ready",
               "idle_tick")

#: (name, unit, better, operation kind, value of one traced operation).
#: A metric is the median of its value over the run's traced operations
#: of that kind.
PER_LAYER: List[Tuple[str, str, str, str, Callable]] = [
    # restore path, per plain restore
    ("core.store.get_lazy_s", "s", "lower", "restore",
     _span("core.store.get_lazy")),
    ("core.online.prepare_s", "s", "lower", "restore",
     _span("core.online.prepare")),
    ("engine.cold_start_s", "s", "lower", "restore",
     _span("engine.cold_start")),
    ("engine.cold_start_self_s", "s", "lower", "restore",
     _span("engine.cold_start", own=True)),
    *[(f"core.fastpath.{action}_s", "s", "lower", "restore",
       _span(f"core.fastpath.{action}"))
      for action in ("fetch_chunk", "restore_kv", "replay_alloc",
                     "restore_warmup", "restore_graph")],
    ("simgpu.memory.malloc_calls", "count", "lower", "restore",
     _calls("simgpu.memory.malloc")),
    ("simgpu.memory.free_calls", "count", "lower", "restore",
     _calls("simgpu.memory.free", "simgpu.memory.pool_free")),
    ("simgpu.memory.alloc_s", "s", "lower", "restore", _tally_s(*_ALLOC)),
    ("core.chunks.bytes_read", "bytes", "lower", "restore",
     _extra("bytes_read")),
    *[(f"engine.sim.{stage}_s", "sim_s", "lower", "restore", _stage(stage))
      for stage in PLAIN_STAGES],
    # guarded path, per guarded restore
    *[(f"core.online.{action}_s", "s", "lower", "guarded",
       _span(f"core.online.{action}"))
      for action in ("restore_kv", "restore_warmup", "restore_tail")],
    *[(f"engine.sim.guarded.{stage}_s", "sim_s", "lower", "guarded",
       _stage(stage)) for stage in GUARDED_STAGES],
    # write path, per materialize op
    ("core.offline.capture_s", "s", "lower", "materialize",
     _span("engine.cold_start")),
    ("core.offline.self_s", "s", "lower", "materialize",
     _span("core.offline.run", own=True)),
    ("simgpu.stream.launches", "count", "lower", "materialize",
     _calls("simgpu.stream.launch_kernel")),
    ("core.pointer_analysis.analyze_s", "s", "lower", "materialize",
     _span("core.pointer_analysis.analyze")),
    ("analysis.lint_s", "s", "lower", "materialize", _span("analysis.lint")),
    ("core.chunks.chunk_model_s", "s", "lower", "materialize",
     _span("core.chunks.chunk_model")),
    *[(f"core.store.{method}_s", "s", "lower", "materialize",
       _span(f"core.store.{method}")) for method in ("put", "get", "delete")],
    ("core.store.chunks_written", "count", "lower", "materialize",
     _extra("chunks_written")),
    ("core.store.chunks_deduped", "count", "higher", "materialize",
     _extra("chunks_deduped")),
    # event loop, per simulation
    ("sim.kernel.events_per_req", "count", "lower", "simulate",
     _extra("events_per_req")),
    ("sim.kernel.spans_per_req", "count", "lower", "simulate",
     _extra("spans_per_req")),
    *[(f"serverless.pool.{kind}_s", "s", "lower", "simulate",
       _tally_s(f"serverless.pool.{kind}", own=True))
      for kind in EVENT_KINDS],
    *[(f"serverless.pool.{kind}_events", "count", "lower", "simulate",
       _calls(f"serverless.pool.{kind}")) for kind in EVENT_KINDS],
    ("serverless.metrics.summary_s", "s", "lower", "simulate",
     _tally_s("serverless.metrics.summary")),
    # placement and autoscale, per simulation
    ("serverless.placement.place_s", "s", "lower", "simulate",
     _tally_s("serverless.placement.place")),
    ("serverless.cluster.route_s", "s", "lower", "simulate",
     _tally_s("serverless.cluster.route")),
    ("serverless.placement.tier_hit_ratio", "share", "higher", "simulate",
     _extra("tier_hit_ratio")),
    ("serverless.placement.chunk_hit_ratio", "share", "higher", "simulate",
     _extra("chunk_hit_ratio")),
    ("serverless.autoscale.idle_ticks", "count", "lower", "simulate",
     _extra("idle_ticks")),
    ("serverless.autoscale.decisions", "count", "lower", "simulate",
     _extra("decisions")),
    ("serverless.pool.cold_starts", "count", "lower", "simulate",
     _extra("cold_starts")),
    ("serverless.pool.cancelled_cold_start_ratio", "share", "lower",
     "simulate", _extra("cancelled_ratio")),
    ("serverless.metrics.cold_start_tax_s", "sim_s", "lower", "simulate",
     _extra("cold_start_tax_s")),
    ("serverless.metrics.wasted_warm_s", "sim_s", "lower", "simulate",
     _extra("wasted_warm_s")),
]

#: Per-layer metrics that are not a median over traced operations.
RUN_LEVEL: Dict[str, Tuple[str, str]] = {
    "faults.ladder.degraded_restores": ("count", "lower"),
    "serverless.workload.generate_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_ratio": ("share", "lower"),
}


def per_layer_units() -> Dict[str, Tuple[str, str]]:
    """Every per-layer metric name -> (unit, better), in report order."""
    units = {name: (unit, better)
             for name, unit, better, _, _ in PER_LAYER}
    units.update(RUN_LEVEL)
    return units


def per_layer(result: Result) -> Dict[str, float]:
    """Every per-layer metric of a traced run."""
    tracer = result.tracer
    values: Dict[str, float] = {}
    for name, _, _, kind, value_of in PER_LAYER:
        samples = [value_of(record, tracer.layer_times(record.op_id),
                            tracer.tallies_for(record.op_id))
                   for record in result.ok(kind, traced=True)]
        values[name] = _median(samples)
    overhead_s, overhead_ratio = result.overhead()
    values.update({
        "faults.ladder.degraded_restores": result.runner.degraded,
        "serverless.workload.generate_s": _median(result.generate_times),
        "trace.overhead_s": overhead_s,
        "trace.overhead_ratio": overhead_ratio,
    })
    return values
