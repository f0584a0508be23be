"""The fault matrix: every fault type × every ladder rung policy × both
artifact forms.

Each cell injects one fault into a Tiny-2L restore (COMPUTE mode) under one
:class:`DegradationPolicy`, from the eager artifact (``medusa`` plan) or a
chunk-backed one (``medusa-chunked`` plan), and asserts the ladder
guarantees:

1. the cold start completes on the expected rung (the fault's natural rung,
   clamped downward by what the policy forbids),
2. the engine still serves every batch size with outputs bit-identical to
   an eager forwarding (the oracle),
3. the report and timeline *name* the rung — its degradation stage appears
   as a scheduled LoadPlan stage, and
4. the fault did not change the plan: it is the one the artifact's form
   picks.
"""

from __future__ import annotations

import pytest

from repro.core.online import medusa_cold_start
from repro.faults import (
    DEGRADE_EAGER,
    DEGRADE_PARTIAL,
    DEGRADE_RECAPTURE,
    DegradationPolicy,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    PHASE_KV,
    PHASE_WARMUP,
    Rung,
)
from repro.simgpu.process import ExecutionMode

from tests.conftest import tiny_cost_model
from tests.faults.conftest import assert_serves_correctly, chunked

#: (case id, fault spec, natural rung under the default policy).
FAULT_CASES = [
    ("corruption", FaultSpec(kind=FaultKind.ARTIFACT_CORRUPTION),
     Rung.PARTIAL),
    ("divergence-warmup", FaultSpec(kind=FaultKind.REPLAY_DIVERGENCE,
                                    phase=PHASE_WARMUP), Rung.RECAPTURE),
    ("divergence-kv", FaultSpec(kind=FaultKind.REPLAY_DIVERGENCE,
                                phase=PHASE_KV), Rung.EAGER),
    ("oom-warmup", FaultSpec(kind=FaultKind.REPLAY_OOM,
                             phase=PHASE_WARMUP), Rung.RECAPTURE),
    ("oom-kv", FaultSpec(kind=FaultKind.REPLAY_OOM, phase=PHASE_KV),
     Rung.EAGER),
    ("hidden-kernel", FaultSpec(kind=FaultKind.HIDDEN_KERNEL_UNRESOLVED),
     Rung.RECAPTURE),
    ("bitflip", FaultSpec(kind=FaultKind.PERMANENT_DUMP_BITFLIP),
     Rung.RECAPTURE),
    ("trigger-timeout", FaultSpec(kind=FaultKind.TRIGGER_TIMEOUT),
     Rung.RECAPTURE),
]

POLICIES = [
    ("default", DegradationPolicy()),
    ("no-partial", DegradationPolicy(allow_partial=False)),
    ("eager-only", DegradationPolicy(allow_partial=False,
                                     allow_recapture=False)),
]

#: The timeline stage that must appear for each degraded rung.
RUNG_STAGE = {
    Rung.PARTIAL: DEGRADE_PARTIAL,
    Rung.RECAPTURE: DEGRADE_RECAPTURE,
    Rung.EAGER: DEGRADE_EAGER,
}


def expected_rung(natural: Rung, policy: DegradationPolicy) -> Rung:
    """Clamp a fault's natural rung by what the policy forbids."""
    rung = natural
    if rung is Rung.PARTIAL and not policy.allow_partial:
        rung = Rung.RECAPTURE
    if rung is Rung.RECAPTURE and not policy.allow_recapture:
        rung = Rung.EAGER
    return rung


def run_faulted(artifact, spec, policy, chaos_seed):
    injector = FaultInjector(FaultPlan(seed=chaos_seed, faults=(spec,)))
    engine, report = medusa_cold_start(
        "Tiny-2L", artifact, seed=3, mode=ExecutionMode.COMPUTE,
        cost_model=tiny_cost_model(), injector=injector, policy=policy)
    assert injector.fired, f"fault {spec.kind.value} never fired"
    return engine, report


MATRIX_POLICIES = pytest.mark.parametrize(
    "policy_id,policy", POLICIES, ids=[p for p, _ in POLICIES])
MATRIX_FAULTS = pytest.mark.parametrize(
    "case_id,spec,natural", FAULT_CASES, ids=[c for c, _, _ in FAULT_CASES])


@MATRIX_POLICIES
@MATRIX_FAULTS
def test_fault_matrix(tiny2l_artifact, chaos_seed, case_id, spec, natural,
                      policy_id, policy):
    """The eager artifact form (``medusa`` plan)."""
    artifact, _ = tiny2l_artifact
    check_cell(artifact, artifact, "medusa", spec, natural, policy,
               chaos_seed, f"{case_id}/{policy_id}")


@MATRIX_POLICIES
@MATRIX_FAULTS
def test_fault_matrix_chunked(tiny2l_artifact, tiny2l_store, chaos_seed,
                              case_id, spec, natural, policy_id, policy):
    """The chunk-backed artifact form (``medusa-chunked`` plan)."""
    artifact, _ = tiny2l_artifact
    check_cell(chunked(tiny2l_store, artifact), artifact, "medusa-chunked",
               spec, natural, policy, chaos_seed,
               f"chunked/{case_id}/{policy_id}")


def check_cell(restored, oracle, plan_name, spec, natural, policy,
               chaos_seed, cell) -> None:
    """Restore ``restored`` with one fault and check every guarantee;
    ``oracle`` is the eager artifact the outputs are checked against."""
    engine, report = run_faulted(restored, spec, policy, chaos_seed)
    assert engine.plan.name == plan_name

    degradation = report.degradation
    assert degradation is not None, "degraded cold start reported no ladder"
    rung = expected_rung(natural, policy)
    assert degradation.rung is rung, (
        f"{cell}: expected rung {rung.label}, landed on "
        f"{degradation.rung_name}:\n{degradation.describe()}")
    assert degradation.rung_name == rung.label

    # The rung's degradation stage is a real scheduled timeline stage.
    stage_names = {stage.name for stage in report.timeline.stages}
    assert RUNG_STAGE[rung] in stage_names, (
        f"{cell}: timeline {sorted(stage_names)} does not "
        f"name stage {RUNG_STAGE[rung]}")
    placed = report.timeline.stage(RUNG_STAGE[rung])
    assert placed.end <= report.timeline.total + 1e-9

    # The engine still serves — correctly — on whatever rung it landed.
    assert_serves_correctly(engine, oracle)


def test_degradation_costs_latency(tiny2l_artifact, chaos_seed):
    """A degraded cold start is slower than a clean one — the ladder trades
    latency for availability, and the timeline accounts for the cost."""
    artifact, _ = tiny2l_artifact
    _, clean = medusa_cold_start("Tiny-2L", artifact, seed=3,
                                 mode=ExecutionMode.COMPUTE,
                                 cost_model=tiny_cost_model())
    _, degraded = run_faulted(
        artifact, FaultSpec(kind=FaultKind.REPLAY_OOM, phase=PHASE_KV),
        DegradationPolicy(), chaos_seed)
    assert degraded.loading_time > clean.loading_time


def artifact_forms(store, artifact):
    """Openers for the eager and the chunk-backed form of ``artifact``."""
    return (lambda: artifact, lambda: chunked(store, artifact))


class TestEmptyPlanIsByteIdentical:
    """A policy with no faults must not perturb the restore at all, from
    either artifact form."""

    def test_inactive_injector_and_policy_do_nothing(self, tiny2l_artifact,
                                                     tiny2l_store):
        artifact, _ = tiny2l_artifact
        for open_artifact in artifact_forms(tiny2l_store, artifact):
            _, baseline = medusa_cold_start(
                "Tiny-2L", open_artifact(), seed=5,
                mode=ExecutionMode.COMPUTE, cost_model=tiny_cost_model())
            injector = FaultInjector(FaultPlan(seed=1, faults=()))
            _, chaotic = medusa_cold_start(
                "Tiny-2L", open_artifact(), seed=5,
                mode=ExecutionMode.COMPUTE, cost_model=tiny_cost_model(),
                injector=injector, policy=DegradationPolicy())
            assert chaotic.degradation is None
            assert not injector.fired
            assert baseline.stage_durations == chaotic.stage_durations
            assert baseline.loading_time == chaotic.loading_time
            assert baseline.ready_time == chaotic.ready_time
            assert [(s.name, s.start, s.end, s.lane, s.critical)
                    for s in baseline.timeline.stages] == \
                   [(s.name, s.start, s.end, s.lane, s.critical)
                    for s in chaotic.timeline.stages]

    def test_clean_restore_with_policy_stays_on_full_rung(
            self, tiny2l_artifact, tiny2l_store):
        artifact, _ = tiny2l_artifact
        for open_artifact in artifact_forms(tiny2l_store, artifact):
            engine, report = medusa_cold_start(
                "Tiny-2L", open_artifact(), seed=5,
                mode=ExecutionMode.COMPUTE, cost_model=tiny_cost_model(),
                policy=DegradationPolicy())
            assert report.degradation is None
            assert_serves_correctly(engine, artifact)


def test_divergent_structure_prefix_rolls_back_only_the_replay(
        tiny2l_artifact):
    """A KV restore that fails its structure-prefix check has replayed
    nothing: the ladder's rollback must leave structure-init buffers live."""
    import copy
    artifact, _ = tiny2l_artifact
    broken = copy.deepcopy(artifact)
    size, tag = broken.structure_prefix[0]
    broken.structure_prefix[0] = (size + 256, tag)
    engine, report = medusa_cold_start(
        "Tiny-2L", broken, seed=3, mode=ExecutionMode.COMPUTE,
        cost_model=tiny_cost_model(), policy=DegradationPolicy())
    assert report.degradation.rung is Rung.EAGER
    allocator = engine.process.allocator
    assert all(allocator.is_live(allocator.buffer_by_alloc_index(i).address)
               for i in range(len(artifact.structure_prefix)))
    assert_serves_correctly(engine, artifact)
