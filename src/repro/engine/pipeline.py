"""Loading-phase timeline names.

Each strategy's timeline is ``plan_for(strategy).schedule(...)``: the
declarative stage graphs in :mod:`repro.engine.loadplan` and the
per-strategy plans registered in :mod:`repro.engine.strategies`.  This
module re-exports the canonical stage names and the
:class:`Timeline`/:class:`ScheduledStage` types (defined in ``loadplan``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.loadplan import (   # noqa: F401  (re-exported names)
    CAPTURE,
    FETCH_ARTIFACT,
    KV_INIT,
    MEDUSA_RESTORE,
    MEDUSA_WARMUP,
    REPLAY_ALLOC,
    STRUCTURE,
    TOKENIZER,
    WEIGHTS,
    LoadPlan,
    PlanStage,
    ScheduledStage,
    restore_graph_stage,
    Timeline,
)


@dataclass(frozen=True)
class StageTiming:
    """Measured duration of one stage (execution-order independent)."""

    name: str
    duration: float

