"""Stamped forwardings vs the per-launch oracle.

``Model.forward`` runs the prologue, layer 0 and the epilogue through the
full launch path and stamps layers 1..L-1 from one layer program
(``CudaProcess.stamp``).  :class:`FullPathModel` drives every layer through
``Stream.launch_kernel`` one call at a time.  The two must leave the
process in the same state, event for event: the interceptor callbacks, the
allocator's history, log and free lists, the captured graphs, the
simulated clock's bits and, in COMPUTE mode, every payload.
"""

import numpy as np
import pytest

import repro.engine.engine as engine_module
from repro.core.interception import attach, detach
from repro.core.offline import run_offline
from repro.core.validation import validate_restoration
from repro.engine import LLMEngine, Strategy
from repro.errors import CaptureViolationError, InvalidValueError
from repro.models.kernels_catalog import build_catalog
from repro.models.model import Model, layer_program
from repro.models.zoo import PAPER_MODELS, TINY_MODELS, get_model_config
from repro.simgpu.graph import GraphExecMeta
from repro.simgpu.process import CudaProcess, ExecutionMode
from repro.simgpu.profiler import profile
from tests.conftest import tiny_cost_model
from tests.models.full_path_oracle import FullPathModel
from tests.models.test_model_forward import make_ctx

ZOO = [config.name for config in PAPER_MODELS + TINY_MODELS]


def _zoo_batches(name):
    """A few capture sizes of a zoo model: the smallest, one from the
    middle and the largest (which also launches the batch-reduce kernel
    when the model has one).  The Figure 9 / Table 1 tables pin the full
    capture lists."""
    sizes = sorted(get_model_config(name).capture_batch_sizes)
    return tuple(sorted({sizes[0], sizes[len(sizes) // 2], sizes[-1]}))


def _payload(array):
    return None if array is None else array.tobytes()


def _state(engine):
    """Everything a forwarding leaves behind in the engine's process."""
    process = engine.process
    allocator = process.allocator
    graphs = {}
    if engine.capture_artifacts is not None:
        for batch, graph in engine.capture_artifacts.graphs.items():
            graphs[batch] = (
                [(node.kernel_address, node.params, node.launch_dims)
                 for node in graph.nodes],
                sorted(graph.edges))
    return {
        "history": [(b.address, b.size, b.alloc_index, b.tag, b.pool,
                     b.live, b.freed_at_index, _payload(b.payload))
                    for b in allocator.history],
        "events": allocator.events,
        "log": list(allocator._log),
        "free_lists": {key: [(address, pooled, _payload(payload))
                             for address, pooled, payload in entries]
                       for key, entries in allocator._free_lists.items()},
        "live": sorted(allocator._live),
        "counters": (allocator._cursor, allocator.bytes_in_use,
                     allocator.peak_bytes, allocator.num_allocations),
        "graphs": graphs,
        "magic": dict(process._magic),
        "now": process.clock.now.hex(),
    }


def _cold_start(model_cls, name, mode, hook, monkeypatch):
    """A vLLM cold start (KV profiling, warm-ups, captures of a few batch
    sizes) of ``name`` with ``model_cls`` as the engine's model, under
    ``hook``."""
    monkeypatch.setattr(engine_module, "Model", model_cls)
    tiny = get_model_config(name).family == "tiny"
    engine = LLMEngine(name, Strategy.VLLM, seed=31, mode=mode,
                       cost_model=tiny_cost_model() if tiny else None,
                       capture_batch_sizes=sorted(_zoo_batches(name),
                                                  reverse=True))
    observed = None
    if hook == "trace":
        observed = attach(engine.process)
    elif hook == "profiler":
        observed = profile(engine.process, keep_samples=True)
    engine.cold_start()
    if hook == "trace":
        observed = detach(engine.process, observed).events
    elif hook == "profiler":
        observed = (observed.samples, observed.summary())
    return engine, observed


class TestLayerProgram:
    @pytest.mark.parametrize("name", ZOO)
    def test_program_launches_the_template(self, name):
        layer_kernels = get_model_config(name).kernel_template().layer_kernels
        program = layer_program(layer_kernels)
        assert tuple(step.key for step in program.launches) == layer_kernels
        assert program.temps == len(layer_kernels)

    def test_program_is_built_once_per_template(self):
        layer_kernels = get_model_config("Tiny-2L").kernel_template() \
            .layer_kernels
        assert layer_program(layer_kernels) is layer_program(layer_kernels)

    def test_stamping_bypasses_the_launch_path(self, monkeypatch):
        """Only the prologue, layer 0 and the epilogue reach
        ``Stream.launch_kernel``."""
        from repro.simgpu.stream import Stream
        calls = []
        original = Stream.launch_kernel

        def counted(self, *args, **kwargs):
            calls.append(args[0].name)
            return original(self, *args, **kwargs)
        monkeypatch.setattr(Stream, "launch_kernel", counted)
        config = get_model_config("Tiny-4L")
        process = CudaProcess(seed=3, catalog=build_catalog(config))
        model = Model(config, process)
        model.initialize_structure()
        from repro.models.weights import CheckpointStore
        model.load_weights(CheckpointStore())
        model.forward(1, 1, make_ctx(process))
        per_layer = len(config.kernel_template().layer_kernels)
        assert len(calls) == config.nodes_for_batch(1) \
            - (config.num_layers - 1) * per_layer


class TestOracleTiming:
    @pytest.mark.parametrize("hook", ["trace", "profiler", None])
    def test_cold_start_matches_full_path(self, hook, monkeypatch):
        stamped, seen = _cold_start(Model, "Qwen1.5-0.5B",
                                    ExecutionMode.TIMING, hook, monkeypatch)
        oracle, expected = _cold_start(FullPathModel, "Qwen1.5-0.5B",
                                       ExecutionMode.TIMING, hook,
                                       monkeypatch)
        assert seen == expected
        assert _state(stamped) == _state(oracle)

    @pytest.mark.parametrize("name", ZOO)
    def test_artifact_bytes_and_report_times(self, name, monkeypatch):
        batches = _zoo_batches(name)
        artifact, report = run_offline(name, seed=41, batch_subset=batches)
        monkeypatch.setattr(engine_module, "Model", FullPathModel)
        oracle, oracle_report = run_offline(name, seed=41,
                                            batch_subset=batches)
        assert artifact.to_json() == oracle.to_json()
        assert report.capture_stage_time.hex() \
            == oracle_report.capture_stage_time.hex()
        assert report.analysis_time.hex() == oracle_report.analysis_time.hex()
        assert report.stats == oracle_report.stats


class TestOracleCompute:
    @pytest.mark.parametrize("name", ["Tiny-2L", "Tiny-4L", "Tiny-Wide"])
    @pytest.mark.parametrize("hook", ["trace", "profiler", None])
    def test_cold_start_matches_full_path(self, name, hook, monkeypatch):
        stamped, seen = _cold_start(Model, name, ExecutionMode.COMPUTE,
                                    hook, monkeypatch)
        oracle, expected = _cold_start(FullPathModel, name,
                                       ExecutionMode.COMPUTE, hook,
                                       monkeypatch)
        assert seen == expected
        assert _state(stamped) == _state(oracle)

    @pytest.mark.parametrize("name", ["Tiny-2L", "Tiny-4L", "Tiny-Wide"])
    def test_eager_outputs_match(self, name, monkeypatch):
        outputs = []
        for model_cls in (Model, FullPathModel):
            engine, _ = _cold_start(model_cls, name, ExecutionMode.COMPUTE,
                                    None, monkeypatch)
            ctx = engine.serving_context()
            ctx.input_buffer.write(np.arange(16.0).reshape(4, 4) % 4)
            engine.model.forward(2, 2, ctx)
            outputs.append(ctx.output_buffer.read().copy())
        np.testing.assert_array_equal(outputs[0], outputs[1])

    @pytest.mark.parametrize("name", ["Tiny-2L", "Tiny-4L", "Tiny-Wide"])
    def test_stamped_artifact_validates(self, name):
        config = get_model_config(name)
        artifact, _ = run_offline(config, seed=43,
                                  mode=ExecutionMode.COMPUTE,
                                  cost_model=tiny_cost_model())
        batches = sorted(config.capture_batch_sizes)
        report = validate_restoration(config, artifact,
                                      batches=[batches[0], batches[-1]],
                                      cost_model=tiny_cost_model())
        assert report.passed
        assert report.max_abs_error == 0.0


class TestWarmth:
    def _model(self):
        config = get_model_config("Tiny-2L")
        process = CudaProcess(seed=5, catalog=build_catalog(config),
                              mode=ExecutionMode.TIMING)
        model = Model(config, process)
        model.initialize_structure()
        return model, process

    def test_capture_without_warm_up_fails_in_layer_0(self):
        """Warm everything, then drop the magic workspaces (what the
        capture stage does before its warm-ups): a capture begun without
        a fresh warm-up violates at layer 0's magic-workspace kernel."""
        model, process = self._model()
        ctx = make_ctx(process)
        model.forward(1, 1, ctx)
        process.reset_magic_workspaces()
        profiler = profile(process)
        process.default_stream.begin_capture(GraphExecMeta())
        with pytest.raises(CaptureViolationError, match="workspace"):
            model.forward(1, 1, ctx)
        # embed_tokens and layer 0's input_layernorm were recorded; the
        # violation came from layer 0's qkv_proj, before any stamping.
        assert profiler.captured_launches == 2
        assert not process.default_stream.is_capturing

    def test_cold_capture_fails_before_stamping(self):
        model, process = self._model()
        ctx = make_ctx(process)
        profiler = profile(process)
        process.default_stream.begin_capture(GraphExecMeta())
        with pytest.raises(CaptureViolationError):
            model.forward(1, 1, ctx)
        per_layer = len(model.config.kernel_template().layer_kernels)
        assert profiler.captured_launches <= 1 + per_layer

    def test_stamp_refuses_a_cold_kernel(self):
        model, process = self._model()
        ctx = make_ctx(process)
        program = layer_program(model.config.kernel_template().layer_kernels)
        stamp = model._stamp_program(program, 256)
        allocations = process.allocator.num_allocations
        with pytest.raises(InvalidValueError, match="not warm"):
            process.stamp(stamp, model._layer_bindings(program, ctx, False),
                          ctx.input_buffer, {"batch_size": 1})
        assert process.allocator.num_allocations == allocations

    def test_kv_pointer_outside_the_kv_buffer_is_refused(self):
        model, process = self._model()
        ctx = make_ctx(process)
        model.forward(1, 1, ctx)
        ctx.kv_layer_stride = ctx.kv_buffer.size
        process.default_stream.begin_capture(GraphExecMeta())
        with pytest.raises(InvalidValueError, match="KV"):
            model.forward(1, 1, ctx)
