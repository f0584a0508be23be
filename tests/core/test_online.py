"""Online restoration tests: the heart of the reproduction.

A fresh process (new heap base, new ASLR layout) restores the offline
artifact and must produce ready-to-execute graphs whose replay output equals
eager forwarding bit-for-bit.
"""

import numpy as np
import pytest

from repro.core.online import medusa_cold_start
from repro.core.validation import make_input_ids, validate_restoration
from repro.engine import LLMEngine, Strategy
from repro.errors import RestorationError
from repro.models.zoo import get_model_config
from repro.simgpu.process import ExecutionMode

from tests.conftest import tiny_cost_model

TINY2 = get_model_config("Tiny-2L")


def restore(artifact, seed=303, mode=ExecutionMode.COMPUTE):
    return medusa_cold_start("Tiny-2L", artifact, seed=seed, mode=mode,
                             cost_model=tiny_cost_model())


class TestRestoredEngine:
    def test_graphs_restored_for_all_batches(self, tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        engine, _report = restore(artifact)
        assert set(engine.capture_artifacts.execs) == \
            set(TINY2.capture_batch_sizes)

    def test_kv_restored_without_profiling(self, tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        engine, report = restore(artifact)
        assert engine.kv_bytes == artifact.kv_bytes
        assert engine.kv_region.num_blocks == artifact.kv_num_blocks
        # Restored KV init is far cheaper than a profiling forwarding.
        assert report.stage_durations["kv_init"] < 0.1

    def test_restored_addresses_differ_from_offline(self, tiny2l_artifact):
        """ASLR: the restored kernel addresses are process-local."""
        artifact, _ = tiny2l_artifact
        engine_a, _ = restore(artifact, seed=1)
        engine_b, _ = restore(artifact, seed=2)
        node_a = engine_a.capture_artifacts.graphs[1].nodes[0]
        node_b = engine_b.capture_artifacts.graphs[1].nodes[0]
        assert node_a.kernel_address != node_b.kernel_address

    def test_edges_restored(self, tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        engine, _ = restore(artifact)
        for batch, graph in engine.capture_artifacts.graphs.items():
            assert graph.edges == set(map(tuple, artifact.graph(batch).edges))

    def test_medusa_loading_beats_vanilla(self, tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        vanilla = LLMEngine("Tiny-2L", Strategy.VLLM, seed=9,
                            cost_model=tiny_cost_model()).cold_start()
        _engine, medusa = restore(artifact, mode=ExecutionMode.TIMING)
        assert medusa.loading_time < vanilla.loading_time


class TestOutputEquivalence:
    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_replay_equals_eager_across_process_seeds(self, tiny2l_artifact,
                                                      seed):
        """The paper's validation (§4), in a fresh process per seed."""
        artifact, _ = tiny2l_artifact
        report = validate_restoration("Tiny-2L", artifact,
                                      batches=list(TINY2.capture_batch_sizes),
                                      seed=seed,
                                      cost_model=tiny_cost_model())
        assert report.passed
        assert report.max_abs_error == 0.0

    def test_restored_graph_matches_offline_graph_output(self,
                                                         tiny2l_artifact):
        """Offline capture and online restore compute the same function."""
        artifact, _ = tiny2l_artifact
        # Offline-side reference: fresh vanilla engine (same checkpoint).
        vanilla = LLMEngine("Tiny-2L", Strategy.VLLM, seed=77,
                            mode=ExecutionMode.COMPUTE,
                            cost_model=tiny_cost_model())
        vanilla.cold_start()
        restored, _ = restore(artifact, seed=78)
        ids = make_input_ids(seed=5)
        outputs = []
        for engine in (vanilla, restored):
            ctx = engine.serving_context()
            ctx.input_buffer.write(ids)
            engine.reset_kv_state()
            engine.capture_artifacts.execs[2].replay()
            outputs.append(ctx.output_buffer.read().copy())
        np.testing.assert_array_equal(outputs[0], outputs[1])


class TestRestorationFailures:
    def test_wrong_model_rejected(self, tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        with pytest.raises(RestorationError):
            medusa_cold_start("Tiny-4L", artifact,
                              cost_model=tiny_cost_model())

    def test_structure_prefix_divergence_detected(self, tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        import copy
        broken = copy.deepcopy(artifact)
        size, tag = broken.structure_prefix[0]
        broken.structure_prefix[0] = (size + 256, tag)
        with pytest.raises(RestorationError):
            restore(broken, mode=ExecutionMode.TIMING)

    def test_missing_kernel_library_mapping_detected(self, tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        import copy
        broken = copy.deepcopy(artifact)
        # Drop a library mapping for a kernel outside the first layer.
        victim = broken.graphs[1].nodes[-1].kernel_name
        first_layer_names = {n.kernel_name
                             for n in broken.graphs[1].nodes[
                                 :broken.first_layer_nodes]}
        assert victim not in first_layer_names
        del broken.kernel_libraries[victim]
        with pytest.raises(RestorationError):
            restore(broken, mode=ExecutionMode.TIMING)

    def test_out_of_range_indirect_index_detected(self, tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        import copy
        from repro.core.pointer_analysis import ParamRestore
        broken = copy.deepcopy(artifact)
        node = broken.graphs[1].nodes[0]
        for position, restore_rule in enumerate(node.param_restores):
            if restore_rule.kind == "ptr":
                node.param_restores[position] = ParamRestore.pointer(
                    10**9, 0)
                break
        with pytest.raises(RestorationError):
            restore(broken, mode=ExecutionMode.TIMING)


class TestCorruptionIsCaught:
    def test_validation_catches_swapped_pointer(self, tiny2l_artifact):
        """If the analysis had produced a wrong indirect index, output
        validation must notice (the §4 guarantee)."""
        artifact, _ = tiny2l_artifact
        import copy
        from repro.core.pointer_analysis import ParamRestore
        from repro.errors import ValidationError
        from repro.errors import IllegalMemoryAccessError
        broken = copy.deepcopy(artifact)
        graph = broken.graphs[1]
        # Swap the weight pointers of the two layernorm weights: outputs
        # change but every access stays legal.
        nodes = [n for n in graph.nodes if "input_layernorm" in n.kernel_name]
        assert len(nodes) >= 2
        spec_positions = [i for i, r in enumerate(nodes[0].param_restores)
                          if r.kind == "ptr"]
        weight_pos = spec_positions[1]   # input, weight, output order
        a = nodes[0].param_restores[weight_pos]
        b = nodes[1].param_restores[weight_pos]
        nodes[0].param_restores[weight_pos] = b
        nodes[1].param_restores[weight_pos] = a
        with pytest.raises((ValidationError, IllegalMemoryAccessError)):
            validate_restoration("Tiny-2L", broken, batches=[1],
                                 cost_model=tiny_cost_model())
