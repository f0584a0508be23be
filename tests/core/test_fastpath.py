"""Restorer tests: plan choice by artifact form, the pipelined LoadPlan,
the pointer gather and the batch allocation replay."""

import numpy as np
import pytest

from repro.core.binfmt import LazyArtifact, save_binary
from repro.core.fastpath import PackedParams, VectorizedRestorer
from repro.core.online import medusa_cold_start, prepare_medusa_cold_start
from repro.core.store import ArtifactStore
from repro.engine.loadplan import restore_graph_stage
from repro.errors import RestorationError
from repro.faults import (
    DegradationPolicy,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
)
from repro.simgpu.memory import replay_per_event, replay_rows
from repro.simgpu.process import ExecutionMode

from tests.conftest import tiny_cost_model
from tests.faults.conftest import assert_serves_correctly
from tests.simgpu.replay_helpers import allocator_snapshot

MODEL = "Tiny-2L"


@pytest.fixture(scope="session")
def tiny2l_npz(tmp_path_factory, tiny2l_artifact):
    artifact, _ = tiny2l_artifact
    path = tmp_path_factory.mktemp("fastpath") / "tiny2l.medusa.npz"
    save_binary(artifact, path)
    return path


def fast_cold_start(path, mode=ExecutionMode.TIMING, **kwargs):
    return medusa_cold_start(MODEL, LazyArtifact(path), seed=7, mode=mode,
                             cost_model=tiny_cost_model(), **kwargs)


class TestFastPathCorrectness:
    def test_serves_identical_outputs(self, tiny2l_npz, tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        engine, report = fast_cold_start(tiny2l_npz,
                                         mode=ExecutionMode.COMPUTE)
        assert report.timeline.plan == "medusa-pipelined"
        assert_serves_correctly(engine, artifact)

    def test_verify_dumps_vectorized(self, tiny2l_npz):
        engine, report = fast_cold_start(
            tiny2l_npz, mode=ExecutionMode.COMPUTE,
            policy=DegradationPolicy(verify_dumps=True))
        assert report.timeline.plan == "medusa-pipelined"
        assert report.degradation is None
        assert engine.capture_artifacts.execs


@pytest.fixture
def artifact_forms(tiny2l_artifact, tiny2l_npz, tmp_path):
    """(plan the form restores under, opener) for every artifact form."""
    artifact, _ = tiny2l_artifact
    store = ArtifactStore(tmp_path / "store")
    store.put(artifact)
    return [
        ("medusa", lambda: artifact),
        ("medusa-pipelined", lambda: LazyArtifact(tiny2l_npz)),
        ("medusa-chunked",
         lambda: store.get_lazy(artifact.gpu_name, artifact.model_name)),
    ]


class TestPathSelection:
    """One restorer; the artifact's form alone picks the plan."""

    def test_lazy_artifact_auto_routes_to_fast_path(self, tiny2l_npz):
        engine, restorer = prepare_medusa_cold_start(
            MODEL, LazyArtifact(tiny2l_npz), cost_model=tiny_cost_model())
        assert isinstance(restorer, VectorizedRestorer)
        assert engine.plan.name == "medusa-pipelined"

    def test_eager_artifact_gets_monolithic_plan(self, tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        engine, restorer = prepare_medusa_cold_start(
            artifact.model_name, artifact, cost_model=tiny_cost_model())
        assert isinstance(restorer, VectorizedRestorer)
        assert engine.plan.name == "medusa"

    def test_policy_keeps_the_plan(self, artifact_forms):
        for plan_name, open_artifact in artifact_forms:
            engine, _ = prepare_medusa_cold_start(
                MODEL, open_artifact(), cost_model=tiny_cost_model(),
                policy=DegradationPolicy())
            assert engine.plan.name == plan_name

    def test_chaos_run_keeps_the_plan_and_degrades(self, artifact_forms,
                                                   tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        for plan_name, open_artifact in artifact_forms:
            spec = FaultSpec(kind=FaultKind.ARTIFACT_CORRUPTION)
            injector = FaultInjector(FaultPlan(seed=11, faults=(spec,)))
            engine, report = medusa_cold_start(
                MODEL, open_artifact(), seed=7, mode=ExecutionMode.COMPUTE,
                cost_model=tiny_cost_model(), injector=injector,
                policy=DegradationPolicy())
            assert injector.fired
            assert engine.plan.name == plan_name
            assert report.degradation.degraded
            assert_serves_correctly(engine, artifact)


class _SequentialRestorer(VectorizedRestorer):
    """The fast path with the allocation replay done one call per event."""

    def _replay(self, process, stop_alloc_index):
        start = self._replay_cursor
        self._allocator = process.allocator
        self._replay_cursor = replay_per_event(
            process.allocator, replay_rows(self.artifact.replay_table()),
            start, stop_alloc_index)
        if stop_alloc_index is None:
            history = process.allocator.history
            self._addr_by_alloc = np.array([b.address for b in history],
                                           dtype=np.int64)
            self._size_by_alloc = np.array([b.size for b in history],
                                           dtype=np.int64)
        return self._replay_cursor - start


ZOO = ["Falcon-7B", "Llama2-7B", "Llama2-13B", "Qwen1.5-0.5B",
       "Qwen1.5-1.8B", "Qwen1.5-4B", "Qwen1.5-7B", "Qwen1.5-14B", "Yi-6B",
       "Yi-9B", "Tiny-2L", "Tiny-4L", "Tiny-Wide"]


class TestBatchReplayZooSweep:
    """For every zoo model the fast path restores, the batch replay's
    address/size tables (and the whole restore) equal a per-event replay's."""

    @pytest.mark.parametrize("model", ZOO)
    def test_tables_match_sequential_replay(self, model, tmp_path):
        from repro.core.offline import run_offline
        from repro.models.zoo import get_model_config
        subset = tuple(get_model_config(model).capture_batch_sizes[:3])
        artifact, _ = run_offline(model, seed=11, batch_subset=subset)
        path = tmp_path / "zoo.medusa.npz"
        save_binary(artifact, path)
        runs = []
        for restorer_class in (VectorizedRestorer, _SequentialRestorer):
            engine, _restorer = prepare_medusa_cold_start(
                model, LazyArtifact(path), seed=5)
            restorer = restorer_class(LazyArtifact(path))
            report = engine.cold_start(restorer=restorer)
            runs.append((restorer, engine, report))
        (batch, batch_engine, batch_report), \
            (sequential, sequential_engine, sequential_report) = runs
        assert batch._addr_by_alloc.tolist() == \
            sequential._addr_by_alloc.tolist()
        assert batch._size_by_alloc.tolist() == \
            sequential._size_by_alloc.tolist()
        assert allocator_snapshot(batch_engine.process.allocator) == \
            allocator_snapshot(sequential_engine.process.allocator)
        assert batch_report.timeline == sequential_report.timeline


class TestReplayErrors:
    def test_corrupted_alloc_index_raises_replay_drift(self, tiny2l_npz):
        artifact = LazyArtifact(tiny2l_npz)
        table = artifact.replay_table()
        position = int(np.flatnonzero(table.kind == 0)[-1])
        table.alloc_index[position] += 1
        engine, restorer = prepare_medusa_cold_start(
            MODEL, artifact, seed=7, cost_model=tiny_cost_model())
        with pytest.raises(RestorationError, match="replay drift"):
            engine.cold_start(restorer=restorer)
        # The drifting allocation was made, and nothing after it.
        allocator = engine.process.allocator
        assert allocator.events[-1].kind == "alloc"
        assert allocator.num_allocations == int(table.alloc_index[position])


class TestPipelinedTimeline:
    def test_non_first_restore_stages_are_background(self, tiny2l_npz,
                                                     tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        _engine, report = fast_cold_start(tiny2l_npz)
        batches = sorted(artifact.graphs, reverse=True)
        stages = {stage.name: stage for stage in report.timeline.stages}
        first = stages[restore_graph_stage(batches[0])]
        assert not first.background
        assert first.critical
        for batch in batches[1:]:
            stage = stages[restore_graph_stage(batch)]
            assert stage.background
            assert not stage.critical

    def test_ready_precedes_background_tail(self, tiny2l_npz):
        _engine, report = fast_cold_start(tiny2l_npz)
        timeline = report.timeline
        assert timeline.ready < timeline.total
        assert report.ready_time == timeline.ready
        assert report.loading_time == timeline.total

    def test_fast_ready_beats_object_path(self, tiny2l_npz, tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        _engine, fast = fast_cold_start(tiny2l_npz)
        _engine, slow = medusa_cold_start(
            artifact.model_name, artifact, seed=7,
            cost_model=tiny_cost_model())
        assert slow.ready_time == slow.timeline.total
        assert fast.ready_time < slow.ready_time


class TestPackedParams:
    def _params(self):
        sizes = np.array([8, 8, 4], dtype=np.int64)
        values = np.array([10, 20, 30], dtype=np.int64)
        return sizes, values, PackedParams(sizes, values, 0, 3)

    def test_len_get_and_iter(self):
        _sizes, _values, params = self._params()
        assert len(params) == 3
        assert params[0].value == 10
        assert params[-1].size == 4
        assert [p.value for p in params] == [10, 20, 30]

    def test_setitem_writes_through(self):
        from repro.simgpu.kernels import KernelParam
        _sizes, values, params = self._params()
        params[1] = KernelParam(8, 99)
        assert values[1] == 99

    def test_out_of_range_raises(self):
        _sizes, _values, params = self._params()
        with pytest.raises(IndexError):
            params[3]

    def test_slice_window(self):
        sizes = np.array([8] * 5, dtype=np.int64)
        values = np.arange(5, dtype=np.int64)
        window = PackedParams(sizes, values, 2, 4)
        assert len(window) == 2
        assert [p.value for p in window] == [2, 3]
