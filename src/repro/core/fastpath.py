"""Vectorized, pipelined restoration fast path (perf counterpart of §4.2).

:class:`repro.core.online.OnlineRestorer` rehydrates the artifact into
per-node Python objects and rewrites every parameter in serial loops.  This
module is the array-native alternative over a
:class:`repro.core.binfmt.LazyArtifact`:

- **Pointer substitution is one gather** — per graph, the flat
  ``param_values`` column is copied once, the pointer slots are translated
  ``alloc_index -> fresh base address + byte offset`` through two int64
  lookup tables built from the replayed allocations, and the bounds checks
  (unknown index, offset past the buffer end) are vector comparisons.
- **Allocation replay is one loop** — the recorded (de)allocation
  columns go through :meth:`repro.simgpu.memory.DeviceAllocator.replay`,
  which returns the lookup tables above and builds ``Buffer`` objects only
  for the allocations still live afterwards.
- **Parameters stay packed** — each restored node holds a
  :class:`PackedParams` view into the resolved arrays; individual
  :class:`~repro.simgpu.kernels.KernelParam` objects materialize only when
  something indexes or iterates them (COMPUTE-mode execution, validation).
- **Restoration is pipelined** — the stage actions match
  :func:`repro.engine.strategies.pipelined_medusa_plan`: ``fetch_artifact``
  (DISK), ``restore_kv``, ``replay_alloc`` (CPU), ``restore_warmup``, and
  one ``restore_graph[bs]`` per captured batch size, the largest in the
  foreground and the rest behind the serving-ready instant.

The fast path has no per-event hooks: with a
:class:`~repro.faults.FaultInjector` or
:class:`~repro.faults.DegradationPolicy` present,
:func:`repro.core.online.prepare_medusa_cold_start` falls back to the
object path, which is also the measured baseline for
``benchmarks/bench_wallclock.py``.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.binfmt import GraphTable, LazyArtifact
from repro.engine.capture_runner import CaptureArtifacts
from repro.engine.kvcache import BlockManager, KVCacheRegion
from repro.engine.loadplan import FETCH_ARTIFACT, REPLAY_ALLOC, \
    fetch_chunk_stage, restore_graph_stage
from repro.errors import (
    ModuleNotLoadedError,
    RestorationError,
    SymbolNotFoundError,
)
from repro.simgpu.graph import CudaGraph, CudaGraphNode, GraphExecMeta
from repro.simgpu.kernels import PAYLOAD_DIM, KernelParam
from repro.simgpu.memory import Buffer

#: On-disk code for pointer-kind parameter slots (see ``binfmt._KIND_CODES``).
_POINTER_CODE = 1


class PackedParams:
    """A node's parameter array as a view into the resolved flat arrays.

    Quacks like the ``List[KernelParam]`` a :class:`CudaGraphNode` stores —
    ``len``, indexing, iteration, and item assignment (what
    ``CudaGraphNode.set_param`` uses) all work — but holds only two array
    references and a slot range.  A 16k-node graph therefore restores
    without creating ~112k ``KernelParam`` objects; they materialize lazily
    when COMPUTE-mode execution iterates the node.
    """

    __slots__ = ("sizes", "values", "start", "stop")

    def __init__(self, sizes: np.ndarray, values: np.ndarray,
                 start: int, stop: int):
        self.sizes = sizes          # flat per-slot byte sizes (shared)
        self.values = values        # flat resolved values (shared, mutable)
        self.start = start
        self.stop = stop

    def __len__(self) -> int:
        return self.stop - self.start

    def _position(self, index: int) -> int:
        length = self.stop - self.start
        if index < 0:
            index += length
        if not 0 <= index < length:
            raise IndexError(f"param index {index} out of range "
                             f"for {length} slots")
        return self.start + index

    def __getitem__(self, index: int) -> KernelParam:
        position = self._position(index)
        return KernelParam(int(self.sizes[position]),
                           int(self.values[position]))

    def __setitem__(self, index: int, param: KernelParam) -> None:
        # Slot sizes are fixed by the kernel ABI; only the value moves.
        self.values[self._position(index)] = param.value

    def __iter__(self) -> Iterator[KernelParam]:
        sizes = self.sizes[self.start:self.stop].tolist()
        values = self.values[self.start:self.stop].tolist()
        for size, value in zip(sizes, values):
            yield KernelParam(size, value)


# ---------------------------------------------------------------------------
# Kernel address resolution (§5) — shared with the object path
# ---------------------------------------------------------------------------

def resolve_kernel_addresses(engine, first_layer_graph: CudaGraph,
                             needed_names, kernel_libraries: Dict[str, str],
                             table: Dict[str, int],
                             tolerate: bool = False) -> set:
    """Resolve materialized kernel names to this process's addresses (§5).

    Fills ``table`` in place from three sources, in order: the captured
    first-layer graph nodes (they carry fresh addresses), ``dlsym`` ->
    ``cudaGetFuncBySymbol`` for visible kernels, and
    ``cuModuleEnumerateFunctions`` over already-loaded modules for the
    hidden remainder (their modules were loaded by the triggering kernels).
    With ``tolerate=True`` unresolvable kernels are collected and returned
    instead of raising (the degradation ladder poisons only the graphs
    referencing them); strict mode always returns an empty set.
    """
    driver = engine.process.driver
    cm = engine.cost_model
    for node in first_layer_graph.nodes:
        table[driver.cu_func_get_name(node.kernel_address)] = \
            node.kernel_address
    needed = sorted(set(needed_names) - set(table))
    enumerated: Dict[Tuple[str, str], Dict[str, int]] = {}
    unresolved: set = set()
    for kernel_name in needed:
        library = kernel_libraries.get(kernel_name)
        if library is None:
            if tolerate:
                unresolved.add(kernel_name)
                continue
            raise RestorationError(
                f"artifact has no library mapping for {kernel_name}")
        try:
            symbol = driver.dlsym(library, kernel_name)
        except SymbolNotFoundError:
            try:
                address = _enumerate_modules(engine, library, kernel_name,
                                             enumerated)
            except (RestorationError, ModuleNotLoadedError):
                if tolerate:
                    unresolved.add(kernel_name)
                    continue
                raise
        else:
            address = driver.cuda_get_func_by_symbol(symbol)
        table[kernel_name] = address
    total_enumerated = sum(len(v) for v in enumerated.values())
    engine.process.clock.advance(
        cm.module_enumerate_per_kernel * total_enumerated)
    return unresolved


def _enumerate_modules(engine, library: str, kernel_name: str,
                       enumerated) -> int:
    """cuModuleEnumerateFunctions over loaded modules of ``library``."""
    driver = engine.process.driver
    for lib_name, module_name in driver.loaded_modules():
        if lib_name != library:
            continue
        key = (lib_name, module_name)
        if key not in enumerated:
            names: Dict[str, int] = {}
            for address in driver.cu_module_enumerate_functions(
                    lib_name, module_name):
                names[driver.cu_func_get_name(address)] = address
            enumerated[key] = names
        address = enumerated[key].get(kernel_name)
        if address is not None:
            return address
    raise RestorationError(
        f"kernel {kernel_name} is hidden and its module was never "
        f"loaded — no triggering kernel covered it (§5)")


# ---------------------------------------------------------------------------
# The vectorized restorer
# ---------------------------------------------------------------------------

class VectorizedRestorer:
    """Array-native restoration of a :class:`LazyArtifact`.

    Binds the stage actions of
    :func:`repro.engine.strategies.pipelined_medusa_plan`; outputs are
    identical to :class:`repro.core.online.OnlineRestorer` over the same
    artifact (the COMPUTE-mode equivalence is pinned by
    ``tests/core/test_fastpath.py``), only the inner loops differ.
    ``verify_dumps`` turns on the permanent-dump readback check, done as
    one stacked comparison per payload shape rather than per buffer.
    """

    def __init__(self, artifact: LazyArtifact, verify_dumps: bool = False):
        if not isinstance(artifact, LazyArtifact):
            raise RestorationError(
                "the vectorized fast path reads a LazyArtifact — open the "
                ".npz with repro.core.binfmt.LazyArtifact (or use "
                "OnlineRestorer for eager artifacts)")
        self.artifact = artifact
        self.verify_dumps = verify_dumps
        #: No ladder on the fast path (hooks fall back to the object path).
        self.degradation = None
        self._allocator = None
        self._replay_cursor = 0
        self._name_to_address: Dict[str, int] = {}
        self._addr_by_alloc: Optional[np.ndarray] = None
        self._size_by_alloc: Optional[np.ndarray] = None
        self._capture: Optional[CaptureArtifacts] = None
        self._warm: Optional[Tuple[Buffer, Buffer, CudaGraph]] = None

    # -- stage actions ------------------------------------------------------

    def stage_action_names(self) -> Tuple[str, ...]:
        """The action names :meth:`stage_actions` will register.

        Static (no engine needed), so the plan verifier
        (`repro.analysis.planlint`) can resolve PLN004 bindings before a
        restore binds anything.
        """
        from repro.engine.loadplan import restore_graph_stage
        manifest = getattr(self.artifact, "chunk_manifest", None)
        chunk_names = () if manifest is None else tuple(
            fetch_chunk_stage(position)
            for position in range(len(manifest.chunks)))
        return ("fetch_artifact", "restore_kv", "replay_alloc",
                "restore_warmup") + chunk_names + tuple(
                    restore_graph_stage(batch)
                    for batch in sorted(self.artifact.graphs, reverse=True))

    def stage_actions(self, engine) -> Dict[str, object]:
        """The actions the pipelined Medusa plan binds its stages to.

        Keys: ``fetch_artifact``, ``restore_kv``, ``replay_alloc``,
        ``restore_warmup``, and one ``restore_graph[bs]`` per captured
        batch size (largest first; the first one also builds the kernel
        address table and publishes ``engine.capture_artifacts``, so the
        instance can serve as soon as its foreground stage ends).
        """
        artifact = self.artifact
        process = engine.process
        clock = process.clock
        cm = engine.cost_model

        def fetch_artifact() -> float:
            start = clock.now
            clock.advance(cm.artifact_load_base)
            # The real I/O: decompress the replay columns + name table.
            artifact.replay_table()
            artifact.kernel_name_table()
            return clock.now - start

        def restore_kv() -> float:
            start = clock.now
            clock.advance(cm.kv_restore_time)
            self._verify_structure_prefix(engine)
            consumed = self._replay(
                process, stop_alloc_index=artifact.kv_alloc_index)
            clock.advance(cm.alloc_replay_per_event * consumed)
            kv_buffer = self._buffer(artifact.kv_alloc_index)
            kv_buffer.write(np.zeros((PAYLOAD_DIM, PAYLOAD_DIM)))
            engine.kv_bytes = artifact.kv_bytes
            engine.kv_region = KVCacheRegion(
                buffer=kv_buffer,
                num_blocks=artifact.kv_num_blocks,
                block_bytes=engine.kv_config.block_bytes(engine.config),
                layer_stride=artifact.kv_layer_stride,
            )
            engine.block_manager = BlockManager(
                artifact.kv_num_blocks, engine.kv_config.block_size_tokens)
            return clock.now - start

        def replay_alloc() -> float:
            start = clock.now
            consumed = self._replay(process, stop_alloc_index=None)
            clock.advance(cm.alloc_replay_per_event * consumed)
            return clock.now - start

        def restore_warmup() -> float:
            start = clock.now
            self._restore_permanent_contents()
            graph_input = self._buffer(artifact.graph_input_alloc_index)
            graph_output = self._buffer(artifact.graph_output_alloc_index)
            zeros = np.zeros((PAYLOAD_DIM, PAYLOAD_DIM))
            graph_input.write(zeros)
            graph_output.write(zeros)
            batch_order = sorted(artifact.batches, reverse=True)
            for batch_size in batch_order:
                self._launch_first_layer(engine, batch_size)
            self._run_trigger_plans(engine)
            first_layer_graph = self._capture_first_layer(
                engine, batch_order[0])
            self._warm = (graph_input, graph_output, first_layer_graph)
            return clock.now - start

        actions: Dict[str, object] = {
            FETCH_ARTIFACT: fetch_artifact,
            "restore_kv": restore_kv,
            REPLAY_ALLOC: replay_alloc,
            "restore_warmup": restore_warmup,
        }
        manifest = getattr(artifact, "chunk_manifest", None)
        if manifest is not None:
            # Chunk-backed artifact: one fetch action per manifest chunk.
            # The simulated cost splits ``artifact_load_base`` by chunk
            # size (the whole stream still sums to one monolithic fetch);
            # the real I/O decompresses exactly this chunk into the
            # reader's cache.
            total_bytes = float(manifest.total_bytes) or 1.0
            for position, ref in enumerate(manifest.chunks):
                actions[fetch_chunk_stage(position)] = \
                    self._make_fetch_chunk(engine, ref, total_bytes)
        batches = sorted(artifact.batches, reverse=True)
        for position, batch_size in enumerate(batches):
            actions[restore_graph_stage(batch_size)] = \
                self._make_restore_graph(engine, batch_size,
                                         first=position == 0)
        return actions

    def _make_fetch_chunk(self, engine, ref, total_bytes: float):
        def fetch_chunk() -> float:
            clock = engine.process.clock
            start = clock.now
            clock.advance(engine.cost_model.artifact_load_base
                          * (ref.nbytes / total_bytes))
            self.artifact.reader.chunk(ref.name)
            return clock.now - start
        return fetch_chunk

    def _make_restore_graph(self, engine, batch_size: int, first: bool):
        def restore_graph() -> float:
            clock = engine.process.clock
            cm = engine.cost_model
            start = clock.now
            table = self.artifact.graph_table(batch_size)
            clock.advance(cm.artifact_deserialize_per_node * table.num_nodes)
            if first:
                if self._warm is None:
                    raise RestorationError(
                        "restore_graph scheduled before the warm-up ran — "
                        "the plan must order medusa_warmup before the first "
                        "restore_graph stage")
                graph_input, graph_output, first_layer_graph = self._warm
                resolve_kernel_addresses(
                    engine, first_layer_graph,
                    self.artifact.kernel_name_table(),
                    self.artifact.kernel_libraries,
                    self._name_to_address)
                self._capture = CaptureArtifacts(
                    graph_input=graph_input,
                    graph_output=graph_output,
                    capture_marker=self.artifact.capture_marker,
                )
                # Published before the background graphs restore: the
                # engine serves (by padding to this batch size) while the
                # rest finish behind the ready instant.
                engine.capture_artifacts = self._capture
            if self._capture is None:
                raise RestorationError(
                    "restore_graph for a non-first batch size ran before "
                    "the first one — the plan must chain them")
            graph = self._assemble_graph(table)
            self._capture.graphs[batch_size] = graph
            self._capture.execs[batch_size] = \
                graph.instantiate(engine.process)
            clock.advance(cm.restore_fill_per_node * table.num_nodes)
            return clock.now - start
        return restore_graph

    # -- allocation replay (§4.2) -------------------------------------------

    def _verify_structure_prefix(self, engine) -> None:
        """Check the deterministic-control-flow assumption (§2.5) holds."""
        allocator = engine.process.allocator
        expected = self.artifact.structure_prefix
        made = allocator.num_allocations
        if made < len(expected):
            raise RestorationError(
                f"online process made {made} allocations before "
                f"restore; artifact expects a {len(expected)}-allocation "
                f"structure-init prefix")
        for position, (size, tag) in enumerate(expected):
            buffer = allocator.buffer_by_alloc_index(position)
            if (buffer.size, buffer.tag) != (size, tag):
                raise RestorationError(
                    f"allocation {position} diverged from the offline run: "
                    f"got ({buffer.size}, {buffer.tag!r}), artifact has "
                    f"({size}, {tag!r}) — control flow is not deterministic")

    def _replay(self, process, stop_alloc_index: Optional[int]) -> int:
        """Resume the recorded events in the allocator's batch replay.

        Stops after allocating ``stop_alloc_index`` (the KV buffer), or
        runs to the end and keeps the dense alloc-index -> (base address,
        size) tables the pointer gather reads: freed buffers keep their
        recorded base, and indices past the sequence fail the gather's
        bounds check.  Returns the number of events replayed.
        """
        start = self._replay_cursor
        self._allocator = process.allocator
        cursor, addresses, sizes = process.replay(
            self.artifact.replay_table(), start=start,
            stop_alloc_index=stop_alloc_index)
        self._replay_cursor = cursor
        if stop_alloc_index is None:
            self._addr_by_alloc, self._size_by_alloc = addresses, sizes
        return cursor - start

    def _buffer(self, alloc_index: int) -> Buffer:
        allocator = self._allocator
        if allocator is None \
                or not 0 <= alloc_index < allocator.num_allocations:
            raise RestorationError(
                f"indirect index {alloc_index} points outside the replayed "
                f"allocation sequence")
        return allocator.buffer_by_alloc_index(alloc_index)

    # -- permanent dumps (§4.3) ---------------------------------------------

    def _restore_permanent_contents(self) -> None:
        """Write every dumped payload; verify as one comparison per shape."""
        artifact = self.artifact
        written: List[Tuple[Buffer, np.ndarray]] = []
        for alloc_index in sorted(artifact.permanent_contents):
            payload = artifact.permanent_payload(alloc_index)
            buffer = self._buffer(alloc_index)
            buffer.write(payload)
            written.append((buffer, payload))
        if not self.verify_dumps or not written:
            return
        by_shape: Dict[Tuple[int, ...], Tuple[list, list]] = {}
        for buffer, payload in written:
            actual, expected = by_shape.setdefault(payload.shape, ([], []))
            actual.append(buffer.read())
            expected.append(payload)
        for shape in sorted(by_shape):
            actual, expected = by_shape[shape]
            if not np.array_equal(np.stack(actual), np.stack(expected)):
                raise RestorationError(
                    "permanent dump readback mismatch — a stored dump is "
                    "corrupt (§4.3)")

    # -- pointer substitution (§4.2, the gather) ----------------------------

    def _resolved_values(self, table: GraphTable,
                         stop: Optional[int] = None) -> np.ndarray:
        """Translate one graph's flat param column in a single gather.

        Returns an int64 copy of ``param_values[:stop]`` with every
        pointer slot rewritten to ``fresh base address + byte offset``;
        both failure modes of the object path (unknown allocation index,
        offset past the buffer end) are vector comparisons raising the
        same errors.
        """
        if self._addr_by_alloc is None or self._size_by_alloc is None:
            raise RestorationError(
                "pointer substitution before the allocation replay — the "
                "plan must order replay_alloc before graph restoration")
        end = int(table.param_offsets[-1]) if stop is None else stop
        values = table.param_values[:end].astype(np.int64, copy=True)
        pointer_mask = table.param_kinds[:end] == _POINTER_CODE
        if not pointer_mask.any():
            return values
        alloc_indices = values[pointer_mask]
        offsets = table.param_byte_offsets[:end][pointer_mask]
        known = self._addr_by_alloc.shape[0]
        bad = (alloc_indices < 0) | (alloc_indices >= known)
        if bad.any():
            raise RestorationError(
                f"indirect index {int(alloc_indices[bad][0])} points "
                f"outside the replayed allocation sequence")
        bases = self._addr_by_alloc[alloc_indices]
        missing = bases < 0
        if missing.any():
            raise RestorationError(
                f"indirect index {int(alloc_indices[missing][0])} points "
                f"outside the replayed allocation sequence")
        limits = self._size_by_alloc[alloc_indices]
        over = offsets >= limits
        if over.any():
            raise RestorationError(
                f"offset {int(offsets[over][0])} exceeds replayed buffer "
                f"size {int(limits[over][0])} "
                f"(alloc {int(alloc_indices[over][0])})")
        values[pointer_mask] = bases + offsets
        return values

    # -- triggering-kernel warm-up (§5.1, §5.2) -----------------------------

    def _first_layer_plan(self, engine, batch_size: int):
        """The prologue + first-layer launches as (spec, params, dims)."""
        artifact = self.artifact
        # first_layer_table is the whole graph on a monolithic npz, but a
        # chunk-backed artifact serves just the head chunk — the warmup
        # never forces a tail decompress.
        table = artifact.first_layer_table(batch_size)
        count = min(artifact.first_layer_nodes, table.num_nodes)
        stop = int(table.param_offsets[count])
        resolved = self._resolved_values(table, stop=stop)
        names = table.kernel_names
        kernel_ids = table.kernel_ids[:count].tolist()
        offsets = table.param_offsets[:count + 1].tolist()
        dims = table.batch_dims[:count].tolist()
        plan = []
        for position, kernel_id in enumerate(kernel_ids):
            spec = engine.catalog.kernel(names[kernel_id])
            params = PackedParams(table.param_sizes, resolved,
                                  offsets[position], offsets[position + 1])
            plan.append((spec, params, {"batch_size": dims[position]}))
        return plan

    def _launch_first_layer(self, engine, batch_size: int) -> None:
        """Warm up the prologue + first layer eagerly (restored params)."""
        process = engine.process
        plan = self._first_layer_plan(engine, batch_size)
        for spec, params, launch_dims in plan:
            process.launch(spec, params, launch_dims=launch_dims,
                           preset_magic=True)
        cm = engine.cost_model
        layer_gpu = (cm.forward_gpu_time(engine.config.param_bytes,
                                         batch_size)
                     / max(1, engine.config.num_layers))
        process.clock.advance(layer_gpu + len(plan) * cm.launch_gap)

    def _run_trigger_plans(self, engine) -> None:
        """Handwritten trigger launches for modules the first layer misses."""
        for plan in self.artifact.trigger_plans:
            batch_size, node_index = plan.node_ref
            table = self.artifact.graph_table(batch_size)
            start = int(table.param_offsets[node_index])
            end = int(table.param_offsets[node_index + 1])
            resolved = self._resolved_values(table, stop=end)
            spec = engine.catalog.kernel(plan.kernel_name)
            params = PackedParams(table.param_sizes, resolved, start, end)
            engine.process.launch(
                spec, params,
                launch_dims={"batch_size": int(table.batch_dims[node_index])},
                preset_magic=True)
            engine.process.clock.advance(engine.cost_model.launch_gap)

    def _capture_first_layer(self, engine, batch_size: int) -> CudaGraph:
        """Capture the warmed-up first layer; its nodes expose addresses."""
        process = engine.process
        stream = process.default_stream
        plan = self._first_layer_plan(engine, batch_size)
        stream.begin_capture(GraphExecMeta(
            param_bytes=0, num_tokens=batch_size, batch_size=batch_size))
        for spec, params, launch_dims in plan:
            process.launch(spec, params, launch_dims=launch_dims,
                           preset_magic=True)
        return stream.end_capture()

    # -- graph assembly -----------------------------------------------------

    def _assemble_graph(self, table: GraphTable) -> CudaGraph:
        """Build one restored graph around the gathered parameter arrays."""
        resolved = self._resolved_values(table)
        name_table = self._name_to_address
        addresses = []
        for name in table.node_kernel_names():
            address = name_table.get(name)
            if address is None:
                raise RestorationError(
                    f"no restored address for kernel {name}")
            addresses.append(address)
        offsets = table.param_offsets.tolist()
        dims = table.batch_dims.tolist()
        sizes = table.param_sizes
        nodes = [
            CudaGraphNode(
                kernel_address=addresses[index],
                params=PackedParams(sizes, resolved,
                                    offsets[index], offsets[index + 1]),
                launch_dims={"batch_size": dims[index]},
            )
            for index in range(table.num_nodes)
        ]
        return CudaGraph(
            nodes=nodes,
            edges={tuple(edge) for edge in table.edges.tolist()},
            exec_meta=GraphExecMeta(
                param_bytes=table.param_bytes,
                num_tokens=table.num_tokens,
                batch_size=table.batch_size,
            ),
        )
