"""In-memory span and tally recorder for the benchmark's traced run.

The recorder measures each layer from outside the program: while one
traced operation runs, :func:`installed` swaps attributes of ``repro``
modules and classes for wrappers that time the call, and puts the
originals back when the operation ends.  Nothing in ``src/`` knows it is
being traced.

Two kinds of record:

- a **span** (name, start, end, parent span, operation id) for calls that
  happen a few times per operation, such as one store ``get`` or one
  load-plan stage;
- a **tally** (count, total seconds, self seconds per name and operation)
  for calls that happen thousands of times per operation, such as one
  simulated ``malloc`` or one event-loop handler.  Recording each of those
  as a span would hold millions of objects, so only the sums are kept.

Both nest: a call's duration is charged to the enclosing frame's child
time, so self time is span time minus the time its children cover.
"""

from __future__ import annotations

import contextlib
import json
import re
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Tuple

_clock = time.perf_counter

#: ``fetch_chunk[3]`` and ``restore_graph[16]`` become ``fetch_chunk`` and
#: ``restore_graph``: one layer, summed over its indexed stages.
_INDEXED = re.compile(r"\[[^\]]*\]$")


def stage_family(name: str) -> str:
    """A load-plan stage or action name without its ``[index]`` suffix."""
    return _INDEXED.sub("", name)


@dataclass
class Span:
    """One timed call at a layer boundary."""

    span_id: int
    name: str
    start: float
    parent: int
    op_id: int
    end: float = 0.0
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.span_id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "op": self.op_id,
                "self_s": self.duration - self.child_s}


class _Frame:
    """The open-call record of a tally: only its children's time."""

    __slots__ = ("child_s",)

    def __init__(self) -> None:
        self.child_s = 0.0


class Tracer:
    """Spans and tallies of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: (op id, name) -> [calls, total seconds, self seconds]
        self.tallies: Dict[Tuple[int, str], List[float]] = {}
        self.op_id = -1
        self._stack: List[object] = []
        self._next_span = 0

    # -- recording -----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record the enclosed block as one span under the current frame."""
        parent = self._stack[-1] if self._stack else None
        span = Span(self._next_span, name, _clock(),
                    parent.span_id if isinstance(parent, Span) else -1,
                    self.op_id)
        self._next_span += 1
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = _clock()
            self._stack.pop()
            if parent is not None:
                parent.child_s += span.duration
            self.spans.append(span)

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` recorded as a span named ``name`` on every call."""
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def tally(self, fn: Callable, name: str) -> Callable:
        """``fn`` counted and timed into the per-operation sums."""
        tallies = self.tallies
        stack = self._stack

        def counted(*args, **kwargs):
            frame = _Frame()
            stack.append(frame)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                stack.pop()
                if stack:
                    stack[-1].child_s += elapsed
                key = (self.op_id, name)
                entry = tallies.get(key)
                if entry is None:
                    tallies[key] = [1, elapsed, elapsed - frame.child_s]
                else:
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += elapsed - frame.child_s
        return counted

    @contextlib.contextmanager
    def operation(self, op_id: int, kind: str) -> Iterator[Span]:
        """One benchmark operation: the root span all its records share."""
        self.op_id = op_id
        try:
            with self.span(kind) as root:
                yield root
        finally:
            self.op_id = -1

    # -- reading back --------------------------------------------------------

    def layer_times(self, op_id: int) -> Dict[str, Tuple[float, float]]:
        """Span name -> (total seconds, self seconds) within one operation."""
        out: Dict[str, Tuple[float, float]] = {}
        for span in self.spans:
            if span.op_id != op_id:
                continue
            total, own = out.get(span.name, (0.0, 0.0))
            out[span.name] = (total + span.duration,
                              own + span.duration - span.child_s)
        return out

    def tallies_for(self, op_id: int) -> Dict[str, List[float]]:
        """Tally name -> [calls, total seconds, self seconds]."""
        return {name: entry for (op, name), entry in self.tallies.items()
                if op == op_id}

    def write(self, path) -> None:
        """Write every span, then every tally, as JSON lines."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps({"span": span.to_dict()}) + "\n")
            for (op_id, name), (calls, total, own) in sorted(
                    self.tallies.items()):
                out.write(json.dumps({"tally": {
                    "op": op_id, "name": name, "calls": calls,
                    "total_s": total, "self_s": own}}) + "\n")


def _wrapped_stage_actions(tracer: Tracer, original: Callable,
                           layer: str) -> Callable:
    """A ``stage_actions`` that wraps every action of the returned dict."""
    def stage_actions(self, engine):
        actions = original(self, engine)
        return {name: tracer.wrap(action,
                                  f"{layer}.{stage_family(name)}")
                for name, action in actions.items()}
    return stage_actions


def _wrapped_on(tracer: Tracer, original: Callable) -> Callable:
    """An ``EventLoop.on`` that registers a tallied handler per kind."""
    def on(self, kind, handler, priority=None):
        return original(self, kind,
                        tracer.tally(handler, f"serverless.pool.{kind}"),
                        priority)
    return on


def _patches(tracer: Tracer) -> List[Tuple[object, str, Callable]]:
    """(owner, attribute, replacement) for every traced boundary."""
    import repro.analysis
    import repro.core.offline
    import repro.core.online
    import repro.core.store
    from repro.core.fastpath import VectorizedRestorer
    from repro.core.online import OnlineRestorer
    from repro.core.store import ArtifactStore
    from repro.engine.engine import LLMEngine
    from repro.serverless.cluster import MultiModelCluster
    from repro.serverless.metrics import SimulationMetrics
    from repro.serverless.placement import PlacementPolicy
    from repro.serverless.simulator import ClusterSimulator
    from repro.sim.kernel import EventLoop
    from repro.simgpu.memory import DeviceAllocator
    from repro.simgpu.stream import Stream

    span, tally = tracer.wrap, tracer.tally
    patches = [
        (repro.core.online, "prepare_medusa_cold_start",
         lambda fn: span(fn, "core.online.prepare")),
        (repro.core.offline, "run_offline",
         lambda fn: span(fn, "core.offline.run")),
        (repro.core.offline, "analyze_graph_params",
         lambda fn: span(fn, "core.pointer_analysis.analyze")),
        (repro.analysis, "lint_artifact",
         lambda fn: span(fn, "analysis.lint")),
        (repro.core.store, "chunk_model",
         lambda fn: span(fn, "core.chunks.chunk_model")),
        (LLMEngine, "cold_start", lambda fn: span(fn, "engine.cold_start")),
        (VectorizedRestorer, "stage_actions",
         lambda fn: _wrapped_stage_actions(tracer, fn, "core.fastpath")),
        (OnlineRestorer, "stage_actions",
         lambda fn: _wrapped_stage_actions(tracer, fn, "core.online")),
        (DeviceAllocator, "malloc",
         lambda fn: tally(fn, "simgpu.memory.malloc")),
        (DeviceAllocator, "free",
         lambda fn: tally(fn, "simgpu.memory.free")),
        (DeviceAllocator, "pool_free",
         lambda fn: tally(fn, "simgpu.memory.pool_free")),
        (Stream, "launch_kernel",
         lambda fn: tally(fn, "simgpu.stream.launch_kernel")),
        (EventLoop, "on", lambda fn: _wrapped_on(tracer, fn)),
        (ClusterSimulator, "_route",
         lambda fn: tally(fn, "serverless.cluster.route")),
        (MultiModelCluster, "_route",
         lambda fn: tally(fn, "serverless.cluster.route")),
        (SimulationMetrics, "summary",
         lambda fn: tally(fn, "serverless.metrics.summary")),
    ]
    for method in ("get_lazy", "get", "put", "delete"):
        patches.append((ArtifactStore, method,
                        lambda fn, m=method: span(fn, f"core.store.{m}")))
    # Every policy class that defines its own ``place`` (none of them
    # calls another's, so no call is counted twice).
    pending = [PlacementPolicy]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "place" in vars(cls):
            patches.append((cls, "place", lambda fn: tally(
                fn, "serverless.placement.place")))
    return patches


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Trace every boundary for the enclosed block."""
    saved = []
    try:
        for owner, attr, make in _patches(tracer):
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
