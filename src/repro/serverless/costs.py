"""Analytic serving costs for the discrete-event simulator.

The cluster simulator needs step-level timings without dragging a live
simulated process per instance; these formulas are the same ones the real
engine's clock advances by (``repro.simgpu.costmodel``), extended with the
KV-cache read traffic that grows with context length during decoding.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.engine.strategies import Strategy
from repro.models.config import ModelConfig
from repro.models.zoo import get_model_config
from repro.simgpu.costmodel import CostModel


@dataclass
class ServingCostModel:
    """Per-iteration serving times for one model under one cost model."""

    config: ModelConfig
    cost_model: CostModel = field(default_factory=CostModel)
    _capture_sizes: Tuple[int, ...] = field(init=False, repr=False,
                                            compare=False)

    def __post_init__(self) -> None:
        if isinstance(self.config, str):
            self.config = get_model_config(self.config)
        self._capture_sizes = tuple(sorted(self.config.capture_batch_sizes))

    # -- components ---------------------------------------------------------

    def _kv_read_bytes(self, batch_size: int, avg_context: float) -> float:
        """K+V read volume for one decode step across the batch."""
        return (batch_size * avg_context * self.config.hidden_size
                * 2 * 2 * self.config.num_layers)

    def padded_batch(self, batch_size: int) -> int:
        """The smallest captured batch size >= ``batch_size`` (the largest
        one when ``batch_size`` exceeds them all)."""
        sizes = self._capture_sizes
        position = bisect_left(sizes, batch_size)
        return sizes[position] if position < len(sizes) else sizes[-1]

    # -- iteration times ---------------------------------------------------------

    def prefill_time(self, prompt_tokens: int) -> float:
        """Eager prefill of one request (vLLM prefills outside graphs)."""
        cm = self.cost_model
        kernels = self.config.nodes_for_batch(1)
        return cm.eager_step_time(self.config.param_bytes, prompt_tokens,
                                  kernels)

    def _decode_fixed(self, batch_size: int,
                      use_graphs: bool) -> Tuple[float, float]:
        """(compute seconds, launch overhead) of one decode iteration: the
        parts that do not depend on the context length."""
        cm = self.cost_model
        effective_batch = self.padded_batch(batch_size) if use_graphs \
            else batch_size
        compute = (2.0 * self.config.num_params * effective_batch
                   / cm.gpu.effective_flops)
        if use_graphs:
            return compute, cm.graph_launch_overhead
        return compute, self.config.nodes_for_batch(1) * cm.launch_gap

    def decode_step_time(self, batch_size: int, avg_context: float,
                         use_graphs: bool) -> float:
        """One decode iteration over ``batch_size`` running sequences."""
        compute, overhead = self._decode_fixed(batch_size, use_graphs)
        memory = ((self.config.param_bytes
                   + self._kv_read_bytes(batch_size, avg_context))
                  / self.cost_model.gpu.effective_mem_bandwidth)
        return max(compute, memory) + overhead

    def decode_run_times(self, batch_size: int, context_sum: int,
                         steps: int, use_graphs: bool) -> np.ndarray:
        """``steps`` consecutive decode iterations of one fixed batch.

        The batch's summed context starts at ``context_sum`` and grows by
        ``batch_size`` per iteration (every sequence gains one token).
        Element ``i`` equals ``decode_step_time(batch_size, (context_sum
        + i * batch_size) / batch_size, use_graphs)`` bit for bit: the
        same IEEE operations in the same order, elementwise, with the
        context-free parts computed once.
        """
        compute, overhead = self._decode_fixed(batch_size, use_graphs)
        sums = np.arange(steps, dtype=np.int64) * batch_size + context_sum
        avg_context = sums / batch_size
        memory = ((self.config.param_bytes
                   + self._kv_read_bytes(batch_size, avg_context))
                  / self.cost_model.gpu.effective_mem_bandwidth)
        return np.maximum(compute, memory) + overhead

    def deferred_capture_penalty(self, batch_size: int) -> float:
        """One-off cost of lazily capturing a batch size while serving (§2.4):
        a warm-up forwarding, the capturing forwarding, and instantiation."""
        cm = self.cost_model
        padded = self.padded_batch(batch_size)
        kernels = self.config.nodes_for_batch(padded)
        warm_up = cm.eager_step_time(self.config.param_bytes, padded, kernels)
        return (warm_up + cm.capture_forward_time(kernels)
                + cm.instantiate_time(kernels))

    def request_latency(self, prompt_tokens: int, output_tokens: int,
                        use_graphs: bool, batch_size: int = 1) -> float:
        """Unloaded single-request latency (Figure 3's quantity)."""
        total = self.prefill_time(prompt_tokens)
        for step in range(max(0, output_tokens - 1)):
            context = prompt_tokens + step
            total += self.decode_step_time(batch_size, context, use_graphs)
        return total
