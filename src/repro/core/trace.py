"""Offline capture-stage traces: the raw material of Medusa's analysis.

The trace is one globally ordered stream of allocation, free, empty-cache,
and kernel-launch events, exactly what interposing on the allocator and on
``cudaLaunchKernel`` yields (§4.1).  Sequence numbers give the "backwards
from its corresponding cudaLaunchKernel()" ordering the trace-based matching
needs.

The event records are slotted, not frozen: an offline capture builds tens
of thousands of them, and a frozen dataclass costs several times as much
to construct.  Nothing mutates an event after the interceptor appends it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass(slots=True)
class AllocTraceEvent:
    seq: int
    alloc_index: int      # global allocation index in the process
    address: int
    size: int
    tag: str
    pool: str = "default"


@dataclass(slots=True)
class FreeTraceEvent:
    seq: int
    alloc_index: int      # allocation being freed
    address: int
    pooled: bool


@dataclass(slots=True)
class EmptyCacheTraceEvent:
    seq: int


@dataclass(slots=True)
class LaunchTraceEvent:
    seq: int
    kernel_name: str
    library: str
    param_sizes: Tuple[int, ...]
    param_values: Tuple[int, ...]
    launch_dims: Tuple[Tuple[str, int], ...]
    captured: bool        # recorded into a CUDA graph (vs eager warm-up)


@dataclass
class Trace:
    """The full intercepted event stream of one offline capture stage."""

    events: List[object] = field(default_factory=list)

    def allocations(self) -> List[AllocTraceEvent]:
        return [e for e in self.events if isinstance(e, AllocTraceEvent)]

    def frees(self) -> List[FreeTraceEvent]:
        return [e for e in self.events if isinstance(e, FreeTraceEvent)]

    def launches(self) -> List[LaunchTraceEvent]:
        return [e for e in self.events if isinstance(e, LaunchTraceEvent)]

    def captured_launches(self) -> List[LaunchTraceEvent]:
        return [e for e in self.launches() if e.captured]

    def freed_alloc_indices(self) -> Dict[int, int]:
        """alloc_index -> seq of its free event (pool or cudaFree)."""
        return {e.alloc_index: e.seq for e in self.frees()}

    @property
    def num_events(self) -> int:
        return len(self.events)
