"""The runtime side of fault injection: site hooks + deterministic targets.

A :class:`FaultInjector` wraps one :class:`~repro.faults.plan.FaultPlan` and
is threaded through the layers a restore actually crosses — the artifact
store (load-time corruption), the simulated driver (symbol resolution), and
the restorer (allocation replay, permanent dumps, trigger launches).
``prepare(artifact)`` resolves every underspecified fault target against the
artifact's columnar view using the plan's seeded RNG, so the same (plan,
artifact) pair always faults at the same site, whatever the artifact's form.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.artifact import MaterializedModel, ReplayEvent
from repro.core.binfmt import POINTER_CODE, GraphTable, LazyArtifact, \
    lazy_view
from repro.core.pointer_analysis import POINTER
from repro.errors import InvalidValueError, OutOfMemoryError
from repro.faults.plan import (
    PHASE_KV,
    PHASE_WARMUP,
    FaultKind,
    FaultPlan,
    FaultSpec,
)

#: Offset pushed into a corrupted pointer restore — far outside any
#: simulated allocation, so the restore check (§4.2) must trip.
_CORRUPT_OFFSET = 1 << 40
#: Perturbation applied to a diverged replay event's allocation index.
_DIVERGENCE_SHIFT = 7919


def _pointer_sites(param_restores) -> List[int]:
    """Indices of POINTER-kind restores in one node's restore list."""
    return [i for i, restore in enumerate(param_restores)
            if getattr(restore, "kind", None) == POINTER
            or (isinstance(restore, dict) and restore.get("kind") == POINTER)]


def _pick_corruption_site(nodes, restores_of) -> Tuple[int, int]:
    """(node index, param index) to corrupt in one graph: its last pointer.

    The last pointer sits after the first-layer prefix whenever the graph
    has one there, so the poison stays local to the graph's restore tail
    instead of breaking the shared warm-up.  :meth:`FaultInjector.
    corrupted_tables` picks the same slot in the packed columns.
    """
    for node_index in range(len(nodes) - 1, -1, -1):
        sites = _pointer_sites(restores_of(nodes[node_index]))
        if sites:
            return node_index, sites[-1]
    raise InvalidValueError(
        "graph has no pointer-restore parameters to corrupt")


def corrupt_graph_payload(payload: Dict, batch_size: Optional[int] = None) -> Dict:
    """Apply the canonical ARTIFACT_CORRUPTION mutation to a raw artifact
    JSON payload (the same mutation the injector applies to a loaded
    artifact) — used by the lint-sync tests to show MED011 catches it."""
    graphs = payload["graphs"]
    key = str(batch_size) if batch_size is not None else sorted(graphs)[0]
    nodes = graphs[key]["nodes"]
    node_index, param_index = _pick_corruption_site(
        nodes, lambda node: node["param_restores"])
    nodes[node_index]["param_restores"][param_index]["offset"] = _CORRUPT_OFFSET
    return payload


@dataclass
class _ResolvedFault:
    """A FaultSpec with every target pinned against one artifact."""

    spec: FaultSpec
    batch_size: Optional[int] = None
    event_index: Optional[int] = None
    kernel_name: str = ""
    alloc_index: Optional[int] = None

    @property
    def kind(self) -> FaultKind:
        return self.spec.kind


class FaultInjector:
    """Injects one FaultPlan's faults at their restoration sites."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._resolved: List[_ResolvedFault] = []
        self._prepared = False
        #: (site, description) log of every fault that actually fired.
        self.fired: List[Tuple[str, str]] = []

    @property
    def active(self) -> bool:
        return not self.plan.is_empty

    def record(self, site: str, description: str) -> None:
        self.fired.append((site, description))

    # ------------------------------------------------------------------
    # Target resolution
    # ------------------------------------------------------------------

    def prepare(self, artifact) -> None:
        """Pin every fault's target against ``artifact`` (idempotent).

        ``artifact`` is a :class:`~repro.core.binfmt.LazyArtifact` or an
        eager :class:`MaterializedModel` (resolved over its
        :func:`~repro.core.binfmt.lazy_view`, so both forms of one artifact
        pin the same targets).
        """
        if self._prepared or not self.active:
            self._prepared = True
            return
        if isinstance(artifact, MaterializedModel):
            artifact = lazy_view(artifact)
        self._resolved = [self._resolve(index, spec, artifact)
                          for index, spec in enumerate(self.plan.faults)]
        self._prepared = True

    def _resolve(self, index: int, spec: FaultSpec,
                 artifact: LazyArtifact) -> _ResolvedFault:
        rng = self.plan.rng("fault", index, spec.kind.value)
        resolved = _ResolvedFault(spec=spec)
        batches = artifact.batches
        if spec.kind is FaultKind.ARTIFACT_CORRUPTION:
            resolved.batch_size = spec.batch_size if spec.batch_size in \
                batches else batches[int(rng.integers(len(batches)))]
        elif spec.kind in (FaultKind.REPLAY_DIVERGENCE, FaultKind.REPLAY_OOM):
            resolved.event_index = self._resolve_replay_target(
                spec, artifact, rng)
        elif spec.kind is FaultKind.HIDDEN_KERNEL_UNRESOLVED:
            # Only kernels outside the captured first-layer prefix ever go
            # through dlsym/enumeration — prefix kernels get their address
            # from the captured warm-up graph and would never miss.
            prefix = set(artifact.graph_table(max(batches))
                         .node_kernel_names()[:artifact.first_layer_nodes])
            names = sorted(set(artifact.kernel_name_table()) - prefix) \
                or sorted(artifact.kernel_libraries)
            resolved.kernel_name = spec.kernel_name or \
                names[int(rng.integers(len(names)))]
        elif spec.kind is FaultKind.PERMANENT_DUMP_BITFLIP:
            dumps = sorted(artifact.permanent_contents)
            if spec.alloc_index in dumps:
                resolved.alloc_index = spec.alloc_index
            elif dumps:
                resolved.alloc_index = dumps[int(rng.integers(len(dumps)))]
        elif spec.kind is FaultKind.TRIGGER_TIMEOUT:
            if spec.kernel_name:
                resolved.kernel_name = spec.kernel_name
            else:
                nodes = artifact.graph_table(max(batches)).node_kernel_names()
                prefix = nodes[:artifact.first_layer_nodes] or nodes
                names = sorted(set(prefix))
                resolved.kernel_name = names[int(rng.integers(len(names)))]
        return resolved

    @staticmethod
    def _resolve_replay_target(spec: FaultSpec, artifact: LazyArtifact,
                               rng) -> Optional[int]:
        table = artifact.replay_table()
        count = len(table)
        if spec.event_index is not None:
            return spec.event_index if 0 <= spec.event_index < count \
                else None
        # Both replay faults model cudaMalloc misbehavior (an unexpected
        # return or a failure), so only alloc events are meaningful targets.
        is_alloc = np.asarray(table.kind) == 0
        kv_hits = np.flatnonzero(is_alloc & (np.asarray(table.alloc_index)
                                             == artifact.kv_alloc_index))
        kv_pos = int(kv_hits[0]) if kv_hits.size else count - 1
        phase = spec.phase or PHASE_WARMUP
        low, high = (0, kv_pos + 1) if phase == PHASE_KV \
            else (kv_pos + 1, count)
        candidates = np.flatnonzero(is_alloc[low:high]) + low
        if not candidates.size:
            return kv_pos if phase == PHASE_KV else None
        return int(candidates[int(rng.integers(candidates.size))])

    def _faults(self, *kinds: FaultKind) -> List[_ResolvedFault]:
        return [f for f in self._resolved if f.kind in kinds]

    # ------------------------------------------------------------------
    # Site hooks
    # ------------------------------------------------------------------

    def corrupted_artifact(self, artifact: MaterializedModel
                           ) -> MaterializedModel:
        """Apply ARTIFACT_CORRUPTION faults to an eager artifact (the
        store's load path); returns a mutated deep copy (or ``artifact``
        itself when no corruption fault targets it)."""
        self.prepare(artifact)
        faults = self._faults(FaultKind.ARTIFACT_CORRUPTION)
        if not faults:
            return artifact
        corrupted = copy.deepcopy(artifact)
        for fault in faults:
            graph = corrupted.graph(fault.batch_size)
            node_index, param_index = _pick_corruption_site(
                graph.nodes, lambda node: node.param_restores)
            restore = graph.nodes[node_index].param_restores[param_index]
            graph.nodes[node_index].param_restores[param_index] = \
                replace(restore, offset=_CORRUPT_OFFSET)
            self._record_corruption(fault.batch_size, node_index, param_index)
        return corrupted

    def corrupted_tables(self, artifact: LazyArtifact
                         ) -> Dict[int, GraphTable]:
        """Apply ARTIFACT_CORRUPTION faults to the columnar view.

        Returns batch size -> a copy of that graph's table whose packed
        ``param_byte_offsets`` column has the canonical corruption (the
        graph's last pointer slot pushed out of bounds); the artifact's own
        arrays stay untouched.
        """
        self.prepare(artifact)
        tables: Dict[int, GraphTable] = {}
        for fault in self._faults(FaultKind.ARTIFACT_CORRUPTION):
            batch = fault.batch_size
            table = tables.get(batch) or artifact.graph_table(batch)
            pointers = np.flatnonzero(
                np.asarray(table.param_kinds) == POINTER_CODE)
            if not pointers.size:
                raise InvalidValueError(
                    "graph has no pointer-restore parameters to corrupt")
            position = int(pointers[-1])
            offsets = np.array(table.param_byte_offsets, copy=True)
            offsets[position] = _CORRUPT_OFFSET
            corrupted = copy.copy(table)
            corrupted.param_byte_offsets = offsets
            tables[batch] = corrupted
            node_index = int(np.searchsorted(table.param_offsets, position,
                                             side="right")) - 1
            self._record_corruption(
                batch, node_index,
                position - int(table.param_offsets[node_index]))
        return tables

    def _record_corruption(self, batch_size: int, node_index: int,
                           param_index: int) -> None:
        self.record("store.load",
                    f"corrupted batch-{batch_size} graph node {node_index} "
                    f"param {param_index} (offset pushed out of bounds)")

    def replay_fault_positions(self) -> List[int]:
        """Replay-event positions a REPLAY_OOM or REPLAY_DIVERGENCE fault
        pins, ascending: where the restorer must stop its batch replay and
        hand the event to :meth:`on_replay_event`."""
        return sorted({fault.event_index for fault in self._faults(
            FaultKind.REPLAY_OOM, FaultKind.REPLAY_DIVERGENCE)
            if fault.event_index is not None})

    def on_replay_event(self, position: int,
                        event: ReplayEvent) -> ReplayEvent:
        """Called at a pinned replay event; may perturb it or raise OOM."""
        for fault in self._faults(FaultKind.REPLAY_OOM):
            if fault.event_index == position:
                self.record("replay.event",
                            f"cudaMalloc OOM at replay event {position}")
                raise OutOfMemoryError(
                    f"cudaMalloc failed during allocation replay (event "
                    f"{position}, fault injection): device memory exhausted")
        for fault in self._faults(FaultKind.REPLAY_DIVERGENCE):
            if fault.event_index == position:
                self.record("replay.event",
                            f"diverged replay event {position} "
                            f"({event.kind} {event.alloc_index})")
                return replace(
                    event,
                    alloc_index=event.alloc_index + _DIVERGENCE_SHIFT)
        return event

    def symbol_blocked(self, kernel_name: str) -> bool:
        """HIDDEN_KERNEL_UNRESOLVED: neither dlsym nor enumeration may see
        the targeted kernel (its module looks never-loaded)."""
        for fault in self._faults(FaultKind.HIDDEN_KERNEL_UNRESOLVED):
            if fault.kernel_name == kernel_name:
                self.record("driver.resolve",
                            f"blocked symbol resolution of {kernel_name}")
                return True
        return False

    def permanent_payload(self, alloc_index: int,
                          payload: np.ndarray) -> np.ndarray:
        """PERMANENT_DUMP_BITFLIP: flip one element of a restored dump."""
        for fault in self._faults(FaultKind.PERMANENT_DUMP_BITFLIP):
            if fault.alloc_index != alloc_index:
                continue
            flipped = np.array(payload, copy=True)
            rng = self.plan.rng("bitflip", alloc_index)
            flat = flipped.reshape(-1)
            position = int(rng.integers(flat.size))
            flat[position] = -(flat[position] + 1.0)   # guaranteed different
            self.record("restore.permanent",
                        f"flipped element {position} of permanent dump "
                        f"{alloc_index}")
            return flipped
        return payload

    def trigger_times_out(self, kernel_name: str) -> bool:
        """TRIGGER_TIMEOUT: does this trigger launch wedge?  Fires once."""
        for fault in self._faults(FaultKind.TRIGGER_TIMEOUT):
            if fault.kernel_name == kernel_name:
                self.record("warmup.trigger",
                            f"trigger launch of {kernel_name} timed out")
                self._resolved.remove(fault)
                return True
        return False
