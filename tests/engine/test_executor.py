"""Lane list-scheduler tests: ``LoadPlan.schedule`` on hand-built stage
graphs, and every strategy's registered plan against the legacy closed
forms (the test-local oracle in ``tests.engine.test_loadplan``)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.lanes import CPU, DISK, GPU_COMPUTE
from repro.engine.loadplan import LoadPlan, PlanStage
from repro.engine.strategies import Strategy, plan_for
from repro.errors import EngineError

from tests.engine.test_loadplan import oracle_placements


def schedule(*stages, **durations):
    """Schedule a one-off plan of ``stages`` on ``durations``."""
    return LoadPlan("scratch", stages).schedule(durations)


class TestExecutor:
    def test_sequential_on_one_lane(self):
        timeline = schedule(PlanStage("a", CPU), PlanStage("b", CPU),
                            a=1.0, b=2.0)
        assert timeline.stage("b").start == 1.0
        assert timeline.total == 3.0

    def test_parallel_on_different_lanes(self):
        timeline = schedule(PlanStage("a", CPU), PlanStage("b", DISK),
                            a=1.0, b=2.0)
        assert timeline.stage("a").start == 0.0
        assert timeline.stage("b").start == 0.0
        assert timeline.total == 2.0

    def test_dependencies_respected(self):
        timeline = schedule(
            PlanStage("a", CPU),
            PlanStage("b", DISK, deps=("a",)),
            PlanStage("c", GPU_COMPUTE, deps=("b",)),
            a=1.0, b=1.0, c=1.0)
        assert timeline.stage("c").start == 2.0

    def test_cycle_detected(self):
        with pytest.raises(EngineError):
            LoadPlan("cycle", (PlanStage("a", CPU, deps=("b",)),
                               PlanStage("b", CPU, deps=("a",))))

    def test_unknown_dependency_rejected(self):
        with pytest.raises(EngineError):
            LoadPlan("ghost", (PlanStage("a", CPU, deps=("ghost",)),))

    def test_duplicate_names_rejected(self):
        with pytest.raises(EngineError):
            LoadPlan("twice", (PlanStage("a", CPU), PlanStage("a", DISK)))

    def test_overlap_measurement(self):
        timeline = schedule(PlanStage("a", CPU), PlanStage("b", DISK),
                            a=3.0, b=2.0)
        a, b = timeline.stage("a"), timeline.stage("b")
        assert min(a.end, b.end) - max(a.start, b.start) == 2.0


PAPER = {
    "structure_init": 0.85, "load_weights": 0.39, "load_tokenizer": 0.21,
    "kv_init": 0.50, "capture": 0.90,
}
MEDUSA = {
    "structure_init": 0.85, "load_weights": 0.39, "load_tokenizer": 0.21,
    "kv_init": 0.02, "medusa_warmup": 0.15, "medusa_restore": 0.40,
}


def makespan_matches_oracle(strategy, durations) -> bool:
    timeline = plan_for(strategy).schedule(
        durations, {"weight_kv_interference": 0.08}, strategy=strategy)
    oracle = oracle_placements(strategy, durations, 0.08)
    return timeline.total == pytest.approx(
        max(end for _start, end in oracle.values()))


class TestClosedFormsMatchExecutor:
    """The strategies' plans must reach the legacy closed-form makespan."""

    @pytest.mark.parametrize("strategy,durations", [
        (Strategy.VLLM, PAPER),
        (Strategy.NO_CUDA_GRAPH, PAPER),
        (Strategy.VLLM_ASYNC, PAPER),
        (Strategy.MEDUSA, MEDUSA),
    ])
    def test_makespan_matches(self, strategy, durations):
        assert makespan_matches_oracle(strategy, durations)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0.0, 5.0), min_size=5, max_size=5))
    def test_async_matches_for_random_durations(self, values):
        durations = dict(zip(
            ("structure_init", "load_weights", "load_tokenizer",
             "kv_init", "capture"), values))
        assert makespan_matches_oracle(Strategy.VLLM_ASYNC, durations)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0.0, 5.0), min_size=6, max_size=6))
    def test_medusa_matches_for_random_durations(self, values):
        durations = dict(zip(
            ("structure_init", "load_weights", "load_tokenizer",
             "kv_init", "medusa_warmup", "medusa_restore"), values))
        assert makespan_matches_oracle(Strategy.MEDUSA, durations)
