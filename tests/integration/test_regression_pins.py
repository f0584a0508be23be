"""Regression pins: quantities that must not drift silently.

These run the paper-scale offline phase once and pin its aggregate
statistics to bands.  A change to the allocator, capture flow, model
definition, or analysis that alters Medusa-relevant structure shows up
here even if all behavioural tests still pass.
"""

import pytest

from repro.core.offline import run_offline


@pytest.fixture(scope="module")
def qwen_artifact():
    artifact, report = run_offline("Qwen1.5-4B", seed=1234)
    return artifact, report


class TestOfflinePins:
    def test_node_total_is_table1(self, qwen_artifact):
        artifact, _ = qwen_artifact
        assert artifact.total_nodes == 16150

    def test_pointer_constant_split(self, qwen_artifact):
        artifact, _ = qwen_artifact
        stats = artifact.stats
        # ~3 pointers per node on average in this kernel taxonomy.
        assert 2.5 < stats["pointer_params"] / artifact.total_nodes < 4.0
        assert stats["const_params"] > 0

    def test_permanent_fraction_near_paper(self, qwen_artifact):
        artifact, _ = qwen_artifact
        assert 0.06 < artifact.stats["permanent_kernel_fraction"] < 0.12

    def test_interior_pointers_cover_kv_layers(self, qwen_artifact):
        artifact, _ = qwen_artifact
        # 39 interior KV pointers per graph (layer 0 hits the base address).
        expected = 39 * len(artifact.graphs)
        assert artifact.stats["interior_pointers"] == expected

    def test_no_false_positive_demotions_in_standard_models(self,
                                                            qwen_artifact):
        artifact, _ = qwen_artifact
        assert artifact.stats["demoted_false_positives"] == 0

    def test_replay_event_volume(self, qwen_artifact):
        artifact, _ = qwen_artifact
        # Two forwardings per batch size, each allocating/freeing ~a node's
        # worth of transients: tens of thousands of events, not millions.
        assert 20_000 < artifact.total_replay_events < 200_000

    def test_offline_times_in_paper_band(self, qwen_artifact):
        _, report = qwen_artifact
        assert 5.0 < report.capture_stage_time < 20.0    # paper: ~9.7 avg
        assert 20.0 < report.analysis_time < 45.0
        assert report.total_time < 60.0                  # paper: < 1 minute

#: Simulated seconds of one eager-artifact restore (the monolithic
#: ``medusa`` plan) per tiny model: (ready time, per-stage durations).  Any
#: reordered or regrouped clock advance in the restorer changes a last bit.
EAGER_RESTORE_PINS = {
    "Tiny-2L": (0.4189970193626838, {
        "structure_init": 0.3011609833472,
        "load_weights": 0.0008225882352941305,
        "load_tokenizer": 0.060255999999999976,
        "kv_init": 0.020089999999999997,
        "medusa_warmup": 0.04617603601548381,
        "medusa_restore": 0.051570000000000005,
    }),
    "Tiny-4L": (0.4261538294300905, {
        "structure_init": 0.30464393338879997,
        "load_weights": 0.003289976470587652,
        "load_tokenizer": 0.06051200000000001,
        "kv_init": 0.020165000000000044,
        "medusa_warmup": 0.047191896041290426,
        "medusa_restore": 0.05415300000000006,
    }),
}


class TestEagerRestorePins:
    @pytest.mark.parametrize("model", sorted(EAGER_RESTORE_PINS))
    def test_simulated_times_are_exact(self, model, tiny2l_artifact,
                                       tiny4l_artifact):
        from repro.core.online import medusa_cold_start
        from tests.conftest import tiny_cost_model
        artifact, _ = {"Tiny-2L": tiny2l_artifact,
                       "Tiny-4L": tiny4l_artifact}[model]
        _, report = medusa_cold_start(model, artifact, seed=21,
                                      cost_model=tiny_cost_model())
        ready, stages = EAGER_RESTORE_PINS[model]
        assert report.timeline.plan == "medusa"
        assert report.stage_durations == stages
        assert report.ready_time == ready
