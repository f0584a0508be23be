"""Serving cost model and instance batching tests."""

import pytest

from repro.errors import SchedulingError
from repro.models.zoo import PAPER_MODELS, TINY_MODELS
from repro.serverless.costs import ServingCostModel
from repro.serverless.instance import Instance, InstanceConfig
from repro.serverless.workload import Request


@pytest.fixture
def costs():
    return ServingCostModel("Llama2-7B")


class TestServingCosts:
    def test_graphs_accelerate_decode(self, costs):
        eager = costs.decode_step_time(1, 200, use_graphs=False)
        graph = costs.decode_step_time(1, 200, use_graphs=True)
        assert graph < eager

    def test_figure3_speedup_band(self):
        """Figure 3: up to ~2.4x end-to-end acceleration; Qwen1.5-4B peaks."""
        speedups = {}
        for name in ("Llama2-7B", "Llama2-13B", "Qwen1.5-4B", "Yi-6B"):
            c = ServingCostModel(name)
            with_graphs = c.request_latency(161, 338, use_graphs=True)
            without = c.request_latency(161, 338, use_graphs=False)
            speedups[name] = without / with_graphs
        assert all(1.2 < s < 2.6 for s in speedups.values())
        assert max(speedups, key=speedups.get) == "Qwen1.5-4B"
        assert speedups["Qwen1.5-4B"] == pytest.approx(2.4, abs=0.3)

    def test_decode_grows_with_context(self, costs):
        short = costs.decode_step_time(8, 100, use_graphs=True)
        long = costs.decode_step_time(8, 4000, use_graphs=True)
        assert long > short

    def test_prefill_grows_with_prompt(self, costs):
        assert costs.prefill_time(1000) > costs.prefill_time(10)

    def test_padded_batch(self, costs):
        assert costs.padded_batch(3) == 4
        assert costs.padded_batch(8) == 8
        assert costs.padded_batch(1000) == 256

    @pytest.mark.parametrize("model", ["Llama2-7B", "Qwen1.5-0.5B",
                                       "Tiny-2L"])
    def test_padded_batch_matches_linear_scan(self, model):
        """The bisect lookup equals the old per-step scan for every batch
        size from 0 to five past the largest captured one."""
        costs = ServingCostModel(model)
        sizes = costs.config.capture_batch_sizes
        for batch_size in range(max(sizes) + 6):
            candidates = [b for b in sizes if b >= batch_size]
            expected = min(candidates) if candidates else max(sizes)
            assert costs.padded_batch(batch_size) == expected


class TestDecodeRunTimes:
    """``decode_run_times`` is ``decode_step_time`` per step, to the bit."""

    @pytest.mark.parametrize("model", [config.name for config
                                       in PAPER_MODELS + TINY_MODELS])
    def test_equals_decode_step_time_elementwise(self, model):
        costs = ServingCostModel(model)
        steps = 9
        for use_graphs in (True, False):
            for batch_size in range(1, InstanceConfig().max_running + 1):
                for context_sum in (batch_size, 7 * batch_size + 3,
                                    161 * batch_size + batch_size // 2,
                                    4093 * batch_size + 1):
                    times = costs.decode_run_times(batch_size, context_sum,
                                                   steps, use_graphs)
                    expected = [costs.decode_step_time(
                        batch_size,
                        (context_sum + step * batch_size) / batch_size,
                        use_graphs) for step in range(steps)]
                    assert times.tolist() == expected

    def test_zero_steps_is_empty(self, costs):
        assert costs.decode_run_times(3, 300, 0, True).tolist() == []


def request(rid, arrival=0.0, prompt=100, output=3):
    return Request(request_id=rid, arrival_time=arrival,
                   prompt_tokens=prompt, output_tokens=output)


class TestInstance:
    def make(self, costs, cold=1.0, max_running=2):
        return Instance(costs, InstanceConfig(max_running=max_running),
                        launched_at=0.0, cold_start_latency=cold)

    def test_ready_after_cold_start(self, costs):
        instance = self.make(costs, cold=2.5)
        assert instance.ready_at == 2.5

    def test_step_without_work_rejected(self, costs):
        with pytest.raises(SchedulingError):
            self.make(costs).run_step(0.0)

    def test_admission_respects_batch_cap(self, costs):
        instance = self.make(costs, max_running=2)
        for rid in range(4):
            instance.enqueue(request(rid))
        result = instance.run_step(10.0)
        assert len(result.ttfts) == 2          # only two admitted
        assert len(instance.waiting) == 2

    def test_ttft_includes_queueing(self, costs):
        instance = self.make(costs)
        instance.enqueue(request(0, arrival=1.0))
        result = instance.run_step(5.0)
        (_req, ttft), = result.ttfts
        assert ttft > 4.0        # waited from t=1 to t=5 plus prefill

    def test_request_completes_after_output_tokens(self, costs):
        instance = self.make(costs)
        instance.enqueue(request(0, output=3))
        now = 0.0
        completions = []
        for _ in range(5):
            if not instance.has_work:
                break
            result = instance.run_step(now)
            now += result.duration
            completions.extend(result.completed)
        assert len(completions) == 1
        # 3 steps: prefill(+1 token) then two decode iterations.
        assert completions[0].request.request_id == 0
        assert not instance.has_work

    def test_completed_ttft_is_first_token_not_total(self, costs):
        instance = self.make(costs)
        instance.enqueue(request(0, output=5))
        now = 0.0
        done = []
        while instance.has_work:
            result = instance.run_step(now)
            now += result.duration
            done.extend(result.completed)
        assert done[0].ttft < done[0].latency

    def test_retired_instance_rejects_work(self, costs):
        instance = self.make(costs)
        instance.retired = True
        with pytest.raises(SchedulingError):
            instance.enqueue(request(0))


class TestDecodeRun:
    def make(self, costs, max_running=2):
        return Instance(costs, InstanceConfig(max_running=max_running),
                        launched_at=0.0, cold_start_latency=0.0)

    def test_run_stops_before_the_first_completion(self, costs):
        instance = self.make(costs)
        instance.enqueue(request(0, output=6))
        instance.enqueue(request(1, output=9))
        end = instance.run_step(0.0).duration   # admits both: 1 token each
        run = instance.decode_run(end)
        # Request 0 completes on its 6th token: tokens 2..5 are pure.
        assert run.steps == 4
        assert run.start == end
        assert run.ends == sorted(run.ends)

    def test_run_matches_single_steps(self, costs):
        """A finished run leaves the instance as its iterations would."""
        runs = []
        for coalesce in (False, True):
            instance = self.make(costs)
            instance.enqueue(request(0, output=7))
            now = instance.run_step(0.0).duration
            run = instance.decode_run(now)
            if coalesce:
                instance.finish_run(run)
                now = run.end
            else:
                for _ in range(run.steps):
                    now += instance.run_step(now).duration
            runs.append((now, instance.busy_time, instance.last_busy_at,
                         instance.running[0].generated))
        assert runs[0] == runs[1]

    def test_no_run_when_a_request_can_be_admitted(self, costs):
        instance = self.make(costs, max_running=2)
        instance.enqueue(request(0, output=9))
        now = instance.run_step(0.0).duration
        instance.enqueue(request(1, output=9))
        assert instance.decode_run(now) is None

    def test_full_batch_runs_with_requests_waiting(self, costs):
        instance = self.make(costs, max_running=1)
        instance.enqueue(request(0, output=9))
        now = instance.run_step(0.0).duration
        instance.enqueue(request(1, output=9))
        assert instance.decode_run(now).steps == 7

    def test_no_run_before_the_completing_step(self, costs):
        instance = self.make(costs)
        instance.enqueue(request(0, output=2))
        now = instance.run_step(0.0).duration
        assert instance.decode_run(now) is None

    def test_cut_keeps_steps_up_to_the_first_end_at_or_after_now(self,
                                                                 costs):
        instance = self.make(costs)
        instance.enqueue(request(0, output=12))
        run = instance.decode_run(instance.run_step(0.0).duration)
        assert run.steps == 10
        assert run.cut(run.ends[3])           # an end itself: keep 0..3
        assert run.steps == 4
        assert run.cut(run.ends[1] - 1e-9)    # mid-step 1: keep 0..1
        assert run.steps == 2
        assert not run.cut(run.ends[1])       # already ends there
        assert run.steps == 2
