"""The online phase's entry points: Medusa cold starts (paper §3, §4.2, §5).

A Medusa cold start is an :class:`~repro.engine.engine.LLMEngine` whose
loading phase binds the restore actions of one
:class:`~repro.core.fastpath.VectorizedRestorer` — the single restorer,
which also carries the fault-injection sites and the degradation ladder.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.fastpath import VectorizedRestorer
from repro.engine.engine import ColdStartReport, LLMEngine
from repro.engine.kvcache import KVCacheConfig
from repro.engine.strategies import Strategy
from repro.errors import RestorationError
from repro.faults.ladder import DegradationPolicy
from repro.models.zoo import get_model_config
from repro.simgpu.costmodel import CostModel
from repro.simgpu.process import ExecutionMode

#: The restorer's former name, still imported by ``perfbench/tracing.py``.
OnlineRestorer = VectorizedRestorer


def prepare_medusa_cold_start(config, artifact, seed: int = 1,
                              mode: ExecutionMode = ExecutionMode.TIMING,
                              cost_model: Optional[CostModel] = None,
                              kv_config: Optional[KVCacheConfig] = None,
                              checkpoints=None, injector=None,
                              policy: Optional[DegradationPolicy] = None):
    """Build the (engine, restorer) pair for one Medusa cold start.

    ``artifact`` may be an eager :class:`MaterializedModel` or a
    :class:`repro.core.binfmt.LazyArtifact`; its form picks the LoadPlan
    (see :meth:`VectorizedRestorer.load_plan`).  ``injector`` and
    ``policy`` arm the restorer's fault sites and degradation ladder
    without changing the plan.

    Exposed separately from :func:`medusa_cold_start` so callers (the
    wall-clock bench, validation) can inspect or wrap the restorer before
    running ``engine.cold_start(restorer=...)``.
    """
    if isinstance(config, str):
        config = get_model_config(config)
    if artifact.model_name != config.name:
        raise RestorationError(
            f"artifact is for {artifact.model_name}, engine wants {config.name}")
    restorer = VectorizedRestorer(artifact, injector=injector, policy=policy)
    engine = LLMEngine(config, Strategy.MEDUSA, seed=seed, mode=mode,
                       cost_model=cost_model, kv_config=kv_config,
                       checkpoints=checkpoints, plan=restorer.load_plan(),
                       injector=injector)
    # Artifacts are keyed by <GPU type, model type> (§3): the profiled KV
    # memory and graph structure are only valid on the GPU they came from.
    if artifact.gpu_name != engine.cost_model.gpu.name:
        raise RestorationError(
            f"artifact was materialized on {artifact.gpu_name!r}, this "
            f"engine runs on {engine.cost_model.gpu.name!r} — the offline "
            f"phase is per <GPU type, model type> (§3)")
    return engine, restorer


def medusa_cold_start(config, artifact, seed: int = 1,
                      mode: ExecutionMode = ExecutionMode.TIMING,
                      cost_model: Optional[CostModel] = None,
                      kv_config: Optional[KVCacheConfig] = None,
                      checkpoints=None, injector=None,
                      policy: Optional[DegradationPolicy] = None
                      ) -> Tuple[LLMEngine, ColdStartReport]:
    """One Medusa cold start: fresh process, restore-based loading phase.

    ``injector`` threads a :class:`repro.faults.FaultInjector` through the
    process/driver and the restorer; ``policy`` opts the restorer into the
    graceful-degradation ladder (see :mod:`repro.faults.ladder`).
    ``artifact`` may be eager or a :class:`~repro.core.binfmt.LazyArtifact`.
    """
    engine, restorer = prepare_medusa_cold_start(
        config, artifact, seed=seed, mode=mode, cost_model=cost_model,
        kv_config=kv_config, checkpoints=checkpoints, injector=injector,
        policy=policy)
    report = engine.cold_start(restorer=restorer)
    return engine, report


def cold_start_for(config, strategy: Strategy, artifact=None, seed: int = 0,
                   **engine_kwargs) -> Tuple[LLMEngine, ColdStartReport]:
    """One cold start under any strategy; returns ``(engine, report)``.

    The single entry point the CLI (and tooling) routes every strategy
    through: ``MEDUSA`` requires a materialized ``artifact``
    and goes through :func:`medusa_cold_start`; every other strategy runs
    a plain :class:`LLMEngine` cold start.
    """
    if strategy is Strategy.MEDUSA:
        if artifact is None:
            raise RestorationError(
                "Strategy.MEDUSA requires a materialized artifact "
                "(run the offline phase first)")
        return medusa_cold_start(config, artifact, seed=seed,
                                 **engine_kwargs)
    engine = LLMEngine(config, strategy, seed=seed, **engine_kwargs)
    return engine, engine.cold_start()
