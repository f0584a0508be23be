"""Property-based tests of workload + cluster simulation invariants."""

import json

from hypothesis import example, given, settings, strategies as st

from repro.engine.loadplan import ScheduledStage, Timeline
from repro.errors import SchedulingError
from repro.serverless import (
    ClusterSimulator,
    ColdStartProfile,
    ModelDeployment,
    MultiModelCluster,
    ServingCostModel,
    ShareGPTWorkload,
    SimulationConfig,
    TaggedRequest,
)
from repro.serverless.cluster import STEP_DONE
from repro.serverless.workload import Request
from repro.utils.stats import percentile

_COSTS = ServingCostModel("Qwen1.5-4B")


class TestSimulationInvariants:
    @settings(max_examples=12, deadline=None)
    @given(rps=st.floats(0.5, 6.0), seed=st.integers(0, 10_000),
           cold=st.floats(0.1, 5.0))
    def test_conservation_and_sane_ttfts(self, rps, seed, cold):
        workload = ShareGPTWorkload(rps=rps, duration=40, seed=seed)
        requests = workload.generate()
        simulator = ClusterSimulator(_COSTS, SimulationConfig(
            num_gpus=2, cold_start_latency=cold))
        metrics = simulator.run(requests, horizon=40)
        assert metrics.arrived == len(requests)
        assert len(metrics.ttfts) == len(requests)      # no request lost
        assert len(metrics.latencies) == len(requests)  # all drained
        assert all(t > 0 for t in metrics.ttfts)
        assert all(lat >= 0 for lat in metrics.latencies)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_cold_start_monotonicity(self, seed):
        """A strictly shorter cold start never worsens mean TTFT."""
        workload = ShareGPTWorkload(rps=3, duration=60, seed=seed)
        requests = workload.generate()
        means = []
        for cold in (0.5, 5.0):
            simulator = ClusterSimulator(_COSTS, SimulationConfig(
                num_gpus=2, cold_start_latency=cold))
            means.append(simulator.run(requests, horizon=60).mean_ttft)
        assert means[0] <= means[1] + 1e-9

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_determinism(self, seed):
        workload = ShareGPTWorkload(rps=2, duration=30, seed=seed)
        requests = workload.generate()
        runs = []
        for _ in range(2):
            simulator = ClusterSimulator(_COSTS, SimulationConfig(num_gpus=2))
            runs.append(simulator.run(requests, horizon=30).ttfts)
        assert runs[0] == runs[1]


class _SingleStep:
    """The reference pool: every step event is one ordinary iteration."""

    def _maybe_step(self, instance, now):
        if (instance.stepping or instance.retired
                or now < instance.ready_at or not instance.has_work):
            return
        instance.stepping = True
        result = instance.run_step(now)
        self.loop.schedule(now + result.duration, STEP_DONE,
                           (instance, result))


class _SingleStepSimulator(_SingleStep, ClusterSimulator):
    pass


class _SingleStepCluster(_SingleStep, MultiModelCluster):
    pass


def _staged_profile(pipelined):
    """A staged cold start: ready at 1.0 s with a background tail to
    1.3 s (contended early steps) when ``pipelined``, else foreground
    stages ready at 1.3 s (cancellable, preemptable)."""
    stages = [ScheduledStage("fetch_artifact", 0.0, 0.4, lane="disk"),
              ScheduledStage("replay_alloc", 0.4, 0.7, lane="cpu"),
              ScheduledStage("restore_graph[1]", 0.7, 1.0,
                             lane="gpu_compute", critical=True),
              ScheduledStage("restore_graph[4]", 1.0, 1.3,
                             lane="gpu_compute", background=pipelined)]
    return ColdStartProfile(loading_time=1.3,
                            ready_time=1.0 if pipelined else 0.0,
                            timeline=Timeline(None, stages))


def _observed(pool, per_model):
    """Everything the coalesced and single-step pools must agree on."""
    out = {}
    for name, metrics in sorted(per_model.items()):
        out[name] = (metrics.ttfts, metrics.latencies,
                     json.dumps(metrics.summary(), sort_keys=True),
                     metrics.busy_gpu_seconds,
                     metrics.provisioned_gpu_seconds,
                     metrics.background_contended_steps,
                     [(inst.instance_id, inst.busy_time, inst.last_busy_at)
                      for inst in pool.instances[name]])
    return out


#: (gap, prompt, output) arrivals: co-timed and closely spaced ones (which
#: cut runs in flight), 1-3 token outputs that leave no pure-decode
#: iteration, and long ones that make decode runs.
_ARRIVALS = st.lists(
    st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 0.1),
                        st.floats(0.0, 3.0)),
              st.integers(1, 400),
              st.one_of(st.integers(1, 3), st.integers(4, 400))),
    min_size=1, max_size=30)


def _requests(arrivals, first_id=0):
    requests, now = [], 0.0
    for offset, (gap, prompt, output) in enumerate(arrivals):
        now += gap
        requests.append(Request(first_id + offset, now, prompt, output))
    return requests


class TestDecodeRunEquivalence:
    """Decode runs change how many events a pool dispatches, never what
    it computes: every simulated output matches the single-step pool's
    bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(arrivals=_ARRIVALS,
           max_running=st.integers(1, 3),
           num_gpus=st.integers(1, 3),
           cold=st.sampled_from(["scalar", "pipelined", "staged"]),
           serving=st.sampled_from(["graphs", "eager", "deferred"]),
           abort=st.booleans(),
           warm=st.integers(0, 1),
           keep_alive=st.floats(0.5, 20.0),
           autoscale=st.sampled_from(["keep-alive", "cold-cost",
                                      "queue-slo"]))
    def test_single_model_pool(self, arrivals, max_running, num_gpus, cold,
                               serving, abort, warm, keep_alive, autoscale):
        config = SimulationConfig(
            num_gpus=num_gpus, cold_start_latency=1.5,
            use_cuda_graphs=serving != "eager",
            deferred_capture=serving == "deferred",
            max_running=max_running, initial_instances=warm,
            keep_alive=keep_alive,
            profile=None if cold == "scalar"
            else _staged_profile(cold == "pipelined"),
            abort_cold_starts=abort, autoscale=autoscale, slo_ttft=0.5)
        requests = _requests(arrivals)
        horizon = requests[-1].arrival_time + 1.0
        observed = []
        for pool_type in (ClusterSimulator, _SingleStepSimulator):
            pool = pool_type(_COSTS, config)
            metrics = pool.run(requests, horizon=horizon)
            observed.append(_observed(pool, {pool.model: metrics}))
        assert observed[0] == observed[1]

    @settings(max_examples=40, deadline=None)
    @example(first=[(0.0, 64, 50), (0.1, 64, 50)], second=[(0.9, 64, 50)],
             max_running=1, pipelined=False)
    @given(first=_ARRIVALS, second=_ARRIVALS,
           max_running=st.integers(1, 3),
           pipelined=st.booleans())
    def test_two_model_pool_that_preempts(self, first, second, max_running,
                                          pipelined):
        """Two models on two GPUs: the first's staged cold starts can
        exhaust the pool, and the second then preempts one."""
        deployments = [
            ModelDeployment(name="a", costs=ServingCostModel("Llama2-7B"),
                            cold_start_latency=3.0, max_running=max_running,
                            profile=_staged_profile(pipelined)),
            ModelDeployment(name="b", costs=_COSTS, cold_start_latency=0.5,
                            max_running=max_running)]
        tagged = sorted(
            [TaggedRequest("a", r) for r in _requests(first)]
            + [TaggedRequest("b", r)
               for r in _requests(second, first_id=len(first))],
            key=lambda t: t.request.arrival_time)
        horizon = tagged[-1].request.arrival_time + 1.0
        observed = []
        for pool_type in (MultiModelCluster, _SingleStepCluster):
            pool = pool_type(deployments, num_gpus=2, keep_alive=2.0)
            try:
                observed.append(_observed(pool, pool.run(tagged, horizon)))
            except SchedulingError as exc:
                # No GPU could be freed for a zero-capacity model (its
                # victim had no stage boundary left): both pools must
                # reach that dead end alike.
                observed.append(str(exc))
        assert observed[0] == observed[1]


class TestPercentileProperties:
    @settings(max_examples=80, deadline=None)
    @given(values=st.lists(st.floats(0, 1e6), min_size=1, max_size=200),
           q=st.floats(0, 100))
    def test_percentile_bounded_by_extremes(self, values, q):
        result = percentile(values, q)
        slack = 1e-9 * max(abs(v) for v in values)   # interpolation rounding
        assert min(values) - slack <= result <= max(values) + slack

    @settings(max_examples=80, deadline=None)
    @given(values=st.lists(st.floats(0, 1e6), min_size=1, max_size=200),
           q_low=st.floats(0, 100), q_high=st.floats(0, 100))
    def test_percentile_monotone_in_q(self, values, q_low, q_high):
        if q_low > q_high:
            q_low, q_high = q_high, q_low
        low = percentile(values, q_low)
        high = percentile(values, q_high)
        assert low <= high + 1e-12 * max(abs(low), abs(high))
