"""Interceptors hooking the allocator and ``cudaLaunchKernel`` (§3, §4.1).

Medusa's offline capturing stage attaches a :class:`TraceInterceptor` to the
simulated process before the cold start begins; every allocation, free, and
kernel launch lands in one ordered :class:`repro.core.trace.Trace`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.trace import (
    AllocTraceEvent,
    EmptyCacheTraceEvent,
    FreeTraceEvent,
    LaunchTraceEvent,
    Trace,
)
from repro.simgpu.memory import Buffer
from repro.simgpu.process import CudaProcess, Interceptor
from repro.simgpu.stream import LaunchRecord


class TraceInterceptor(Interceptor):
    """Builds the offline trace from the process's hook callbacks.

    The callbacks run once per allocation, free and launch of a capture
    (tens of thousands for a paper-scale model), so each appends its event
    with positional arguments and an inlined sequence counter.
    """

    def __init__(self):
        self.trace = Trace()
        self._seq = 0

    def on_alloc(self, buffer: Buffer) -> None:
        seq = self._seq
        self._seq = seq + 1
        self.trace.events.append(AllocTraceEvent(
            seq, buffer.alloc_index, buffer.address, buffer.size, buffer.tag,
            buffer.pool))

    def on_free(self, buffer: Buffer) -> None:
        # The interceptor sees the free *after* it happened: a pool free
        # leaves the buffer live (its block stays mapped), a cudaFree does
        # not — so ``buffer.live`` is the pooled flag.
        seq = self._seq
        self._seq = seq + 1
        self.trace.events.append(FreeTraceEvent(
            seq, buffer.alloc_index, buffer.address, buffer.live))

    def on_empty_cache(self) -> None:
        seq = self._seq
        self._seq = seq + 1
        self.trace.events.append(EmptyCacheTraceEvent(seq))

    def on_launch(self, record: LaunchRecord) -> None:
        seq = self._seq
        self._seq = seq + 1
        params = record.params
        self.trace.events.append(LaunchTraceEvent(
            seq, record.kernel_name, record.library,
            tuple([p.size for p in params]), tuple([p.value for p in params]),
            tuple(sorted(record.launch_dims.items())), record.captured))


def attach(process: CudaProcess) -> TraceInterceptor:
    """Hook a fresh tracer onto ``process`` (start of the offline phase)."""
    interceptor = TraceInterceptor()
    process.add_interceptor(interceptor)
    return interceptor


def detach(process: CudaProcess, interceptor: TraceInterceptor) -> Trace:
    """Unhook the tracer and hand back its completed trace."""
    process.remove_interceptor(interceptor)
    return interceptor.trace
