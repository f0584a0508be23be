"""The online phase's restorer: restore instead of profile/capture (§4.2, §5, §6).

:class:`VectorizedRestorer` restores one materialized model into a fresh
process, array-native over the artifact's columnar view
(:class:`repro.core.binfmt.LazyArtifact`; an eager
:class:`~repro.core.artifact.MaterializedModel` is read through
:func:`~repro.core.binfmt.lazy_view`):

- **KV restore (§6)** — verifies the engine's structure-init allocation
  prefix against the artifact (the deterministic-control-flow assumption,
  checked rather than assumed), replays the recorded (de)allocation
  sequence up to the KV region, and adopts the materialized block count —
  no profiling forwarding.
- **Allocation replay is one loop** — the recorded (de)allocation
  columns go through :meth:`repro.simgpu.memory.DeviceAllocator.replay`,
  which returns the alloc-index -> address/size lookup tables the gather
  reads and builds ``Buffer`` objects only for the allocations still live
  afterwards.
- **Warm-up** — restores the permanent buffer contents (§4.3), then warms
  up and captures only the *first layer* per batch size: its kernels are
  the triggering-kernels that force every hidden module to load (§5.2),
  plus any handwritten trigger plans (§5.1).
- **Pointer substitution is one gather** — per graph, the flat
  ``param_values`` column is copied once, the pointer slots are translated
  ``alloc_index -> fresh base address + byte offset``, and the bounds
  checks (unknown index, offset past the buffer end) are vector
  comparisons.  Each restored node holds a :class:`PackedParams` view into
  the resolved arrays.
- **Kernel addresses** — every materialized kernel name resolves to this
  process's address (first-layer graph nodes -> dlsym ->
  cuModuleEnumerateFunctions) before the graphs are instantiated.

The artifact's form picks the LoadPlan (:meth:`VectorizedRestorer.
load_plan`): an eager artifact restores under the monolithic ``medusa``
plan, an ``.npz`` under ``medusa-pipelined`` and a chunk-backed one under
``medusa-chunked``.  A :class:`~repro.faults.FaultInjector` fires at the
sites its :class:`~repro.faults.FaultPlan` pins, and a
:class:`~repro.faults.DegradationPolicy` turns restore failures into
degradation-ladder steps; neither changes the plan.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.core.artifact import MaterializedModel
from repro.core.binfmt import POINTER_CODE, GraphTable, LazyArtifact, \
    ReplayTable, lazy_view
from repro.engine.capture_runner import (
    CaptureArtifacts,
    capture_one,
    prepare_capture_stage,
    run_capture_stage,
)
from repro.engine.kvcache import BlockManager, KVCacheRegion
from repro.engine.loadplan import FETCH_ARTIFACT, REPLAY_ALLOC, LoadPlan, \
    fetch_chunk_stage, restore_graph_stage
from repro.engine import strategies
from repro.errors import (
    CudaError,
    MaterializationError,
    ModuleNotLoadedError,
    RestorationError,
    SymbolNotFoundError,
    TriggerTimeoutError,
)
from repro.faults.ladder import (
    DEGRADE_EAGER,
    DEGRADE_KV_PROFILE,
    DEGRADE_PARTIAL,
    DEGRADE_RECAPTURE,
    RESTORE_VERIFY,
    DegradationPolicy,
    DegradationReport,
    LadderStep,
    Rung,
)
from repro.simgpu.graph import CudaGraph, CudaGraphNode, GraphExecMeta
from repro.simgpu.kernels import PAYLOAD_DIM, KernelParam
from repro.simgpu.memory import Buffer
from repro.simgpu.process import ExecutionMode

#: What the degradation ladder may catch and recover from: Medusa-level
#: restore failures and realistic driver/runtime errors.  Engine-level
#: errors (mis-wired plans, exhausted KV budgets) still propagate.
_LADDER_ERRORS = (MaterializationError, CudaError)

#: The actions the monolithic ``medusa`` plan binds (eager artifacts).
MONOLITHIC_ACTIONS = ("restore_kv", "restore_warmup", "restore_tail")


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
# Kernel address resolution (§5)
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
# The restorer
# ---------------------------------------------------------------------------

class VectorizedRestorer:
    """Restores one materialized model into a fresh process.

    ``artifact``: an eager :class:`MaterializedModel` or a
    :class:`LazyArtifact` (``.npz`` or chunk-backed); its form alone picks
    the plan :meth:`load_plan` returns and :meth:`stage_actions` binds.
    ``injector``: optional :class:`repro.faults.FaultInjector` whose faults
    fire at this restorer's injection sites (chaos testing).
    ``policy``: optional :class:`repro.faults.DegradationPolicy`.  When set,
    restore failures walk the degradation ladder (partial -> recapture ->
    eager) instead of killing the cold start; when ``None`` every failure
    propagates.
    """

    def __init__(self, artifact, injector=None,
                 policy: Optional[DegradationPolicy] = None):
        self._monolithic = isinstance(artifact, MaterializedModel)
        if self._monolithic:
            artifact = lazy_view(artifact)
        elif not isinstance(artifact, LazyArtifact):
            raise RestorationError(
                f"cannot restore a {type(artifact).__name__}: expected a "
                f"MaterializedModel or a repro.core.binfmt.LazyArtifact")
        active = injector is not None and injector.active
        self.artifact = artifact
        self.injector = injector if active else None
        self.policy = policy
        self.degradation = DegradationReport()
        # Without a policy nothing is caught: ``except ()`` matches nothing.
        self._catch = _LADDER_ERRORS if policy is not None else ()
        self._verify_dumps = policy is not None and (
            policy.verify_dumps if policy.verify_dumps is not None
            else active)
        self._verify_outputs = policy is not None and (
            policy.verify_outputs if policy.verify_outputs is not None
            else active)
        #: batch size -> graph table with an injected corruption.
        self._tables: Dict[int, GraphTable] = \
            injector.corrupted_tables(artifact) if active else {}
        self._allocator = None
        self._replay_start = 0
        self._replay_cursor = 0
        self._name_to_address: Dict[str, int] = {}
        self._addr_by_alloc: Optional[np.ndarray] = None
        self._size_by_alloc: Optional[np.ndarray] = None
        self._warm: Optional[Tuple[Buffer, Buffer, CudaGraph]] = None
        self._capture: Optional[CaptureArtifacts] = None
        self._tail_duration: Optional[float] = None
        self._kv_broken = False
        self._warm_broken = False
        self._unresolved: set = set()
        self._poisoned: set = set()

    # -- plan and stage actions ---------------------------------------------

    def _manifest(self):
        return getattr(self.artifact, "chunk_manifest", None)

    def load_plan(self) -> LoadPlan:
        """The Medusa LoadPlan for this artifact's form.

        Eager -> the strategy's registered (monolithic) ``medusa`` plan;
        chunk-backed -> ``medusa-chunked`` (one fetch stage per chunk);
        ``.npz`` -> ``medusa-pipelined``.
        """
        if self._monolithic:
            return strategies.plan_for(strategies.Strategy.MEDUSA)
        manifest = self._manifest()
        if manifest is not None:
            return strategies.chunked_medusa_plan(manifest)
        return strategies.pipelined_medusa_plan(self.artifact.batches)

    def stage_action_names(self) -> Tuple[str, ...]:
        """The action names :meth:`stage_actions` will register.

        Static (no engine needed), so the plan verifier
        (`repro.analysis.planlint`) can resolve PLN004 bindings before a
        restore binds anything.
        """
        if self._monolithic:
            return MONOLITHIC_ACTIONS
        manifest = self._manifest()
        chunk_names = () if manifest is None else tuple(
            fetch_chunk_stage(position)
            for position in range(len(manifest.chunks)))
        return (FETCH_ARTIFACT, "restore_kv", REPLAY_ALLOC,
                "restore_warmup") + chunk_names + tuple(
                    restore_graph_stage(batch)
                    for batch in sorted(self.artifact.batches, reverse=True))

    def stage_actions(self, engine) -> Dict[str, object]:
        """The actions :meth:`load_plan`'s stages bind to.

        Monolithic: ``restore_kv``, ``restore_warmup`` (the rest of the
        allocation replay, the warm-up window, and the serial restore tail
        measured right after it) and ``restore_tail`` (reports that tail).
        Pipelined/chunked: ``fetch_artifact`` or one ``fetch_chunk[i]`` per
        manifest chunk, ``restore_kv``, ``replay_alloc``,
        ``restore_warmup``, and one ``restore_graph[bs]`` per captured
        batch size (largest first; the first one also builds the kernel
        address table and publishes ``engine.capture_artifacts``, so the
        instance can serve as soon as its foreground stage ends).

        With a policy, the last graph action (``restore_tail`` when
        monolithic) verifies outputs and resolves the ladder, so the engine
        always leaves the cold start able to serve.
        """
        actions: Dict[str, object] = {
            "restore_kv": lambda: self._restore_kv(engine),
            "restore_warmup": lambda: self._restore_warmup(engine),
        }
        if self._monolithic:
            actions["restore_tail"] = lambda: self._restore_tail(engine)
            return actions
        actions[FETCH_ARTIFACT] = lambda: self._fetch_artifact(engine)
        actions[REPLAY_ALLOC] = lambda: self._replay_alloc(engine)
        manifest = self._manifest()
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
        batches = sorted(self.artifact.batches, reverse=True)
        for position, batch_size in enumerate(batches):
            actions[restore_graph_stage(batch_size)] = \
                self._make_restore_graph(engine, batch_size,
                                         first=position == 0,
                                         last=position == len(batches) - 1)
        return actions

    @property
    def _broken(self) -> bool:
        """Whether the ladder gave up on the replay (nothing to restore)."""
        return self._kv_broken or self._warm_broken

    def _fetch_artifact(self, engine) -> float:
        clock = engine.process.clock
        start = clock.now
        clock.advance(engine.cost_model.artifact_load_base)
        # The real I/O: decompress the replay columns + name table.
        self.artifact.replay_table()
        self.artifact.kernel_name_table()
        return clock.now - start

    def _make_fetch_chunk(self, engine, ref, total_bytes: float):
        def fetch_chunk() -> float:
            clock = engine.process.clock
            start = clock.now
            clock.advance(engine.cost_model.artifact_load_base
                          * (ref.nbytes / total_bytes))
            self.artifact.reader.chunk(ref.name)
            return clock.now - start
        return fetch_chunk

    def _restore_kv(self, engine) -> float:
        clock = engine.process.clock
        start = clock.now
        try:
            self._restore_kv_region(engine)
        except self._catch as exc:
            base = clock.now - start
            self.degradation.note_failure("kv_restore", exc)
            self._kv_broken = True
            fallback_start = clock.now
            # The aborted replay leaked whatever it had allocated so far
            # (possibly the near-full KV region): release it and collapse
            # the allocator's high-water mark, or the re-profiling below
            # sees a peak it cannot size under.
            self._rollback_replay(engine.process)
            engine.adopt_kv_bytes(engine.profile_available_kv_bytes())
            self.degradation.record(LadderStep(
                rung=Rung.EAGER, stage=DEGRADE_KV_PROFILE,
                reason="allocation replay broke before the KV region; "
                       "re-profiled KV sizing eagerly",
                duration=clock.now - fallback_start))
            return base
        return clock.now - start

    def _replay_alloc(self, engine) -> float:
        clock = engine.process.clock
        start = clock.now
        if not self._broken:
            try:
                self._replay_rest(engine)
            except self._catch as exc:
                self._break_warmup(engine, exc)
        return clock.now - start

    def _restore_warmup(self, engine) -> float:
        clock = engine.process.clock
        start = clock.now
        if not self._broken:
            try:
                if self._monolithic:
                    self._replay_rest(engine)
                self._warm_up(engine)
            except self._catch as exc:
                self._break_warmup(engine, exc)
        duration = clock.now - start
        if self._monolithic:
            tail_start = clock.now
            if not self._broken:
                self._run_tail(engine)
            self._tail_duration = clock.now - tail_start
        return duration

    def _restore_tail(self, engine) -> float:
        if self._tail_duration is None:
            raise RestorationError(
                "restore tail scheduled before the warm-up ran — the "
                "plan must order medusa_warmup before medusa_restore")
        if self.policy is not None:
            self._finish_ladder(engine)
        return self._tail_duration

    def _make_restore_graph(self, engine, batch_size: int, first: bool,
                            last: bool):
        def restore_graph() -> float:
            clock = engine.process.clock
            cm = engine.cost_model
            start = clock.now
            if not self._broken:
                table = self._graph_table(batch_size)
                clock.advance(cm.artifact_deserialize_per_node
                              * table.num_nodes)
                if first:
                    # Published before the background graphs restore: the
                    # engine serves (by padding to this batch size) while
                    # the rest finish behind the ready instant.
                    self._publish(engine)
                if self._capture is not None:
                    self._restore_graph(engine, batch_size, table)
                elif self.policy is None:
                    raise RestorationError(
                        "restore_graph for a non-first batch size ran "
                        "before the first one — the plan must chain them")
                clock.advance(cm.restore_fill_per_node * table.num_nodes)
            duration = clock.now - start
            if last and self.policy is not None:
                self._finish_ladder(engine)
            return duration
        return restore_graph

    # -- KV restore and allocation replay (§4.2, §6) ------------------------

    def _restore_kv_region(self, engine) -> None:
        artifact = self.artifact
        process = engine.process
        clock = process.clock
        cm = engine.cost_model
        clock.advance(cm.kv_restore_time)
        # The replay's allocations start here: a rollback frees from this
        # index on, so a divergent structure prefix rolls back nothing.
        self._replay_start = process.allocator.num_allocations
        self._verify_structure_prefix(engine)
        consumed = self._replay(process,
                                stop_alloc_index=artifact.kv_alloc_index)
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

    def _replay_rest(self, engine) -> None:
        consumed = self._replay(engine.process, stop_alloc_index=None)
        engine.process.clock.advance(
            engine.cost_model.alloc_replay_per_event * consumed)

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
        table = self.artifact.replay_table()
        start = cursor = self._replay_cursor
        self._allocator = process.allocator
        if self.injector is not None:
            cursor = self._replay_faults(process, table, cursor,
                                         stop_alloc_index)
        cursor, addresses, sizes = process.replay(
            table, start=cursor, stop_alloc_index=stop_alloc_index)
        self._replay_cursor = cursor
        if stop_alloc_index is None:
            self._addr_by_alloc, self._size_by_alloc = addresses, sizes
        return cursor - start

    def _replay_faults(self, process, table: ReplayTable, cursor: int,
                       stop_alloc_index: Optional[int]) -> int:
        """Batch-replay up to each fault-pinned event of this replay
        segment and feed that event through the injector, which raises OOM
        or returns it diverged (the batch replay's drift check then
        raises).  Returns the cursor after the last pinned event."""
        end = len(table)
        if stop_alloc_index is not None:
            hits = np.flatnonzero(
                (np.asarray(table.kind[cursor:]) == 0)
                & (np.asarray(table.alloc_index[cursor:])
                   == stop_alloc_index))
            if hits.size:
                end = cursor + int(hits[0]) + 1
        for position in self.injector.replay_fault_positions():
            if not cursor <= position < end:
                continue
            process.replay(_rows(table, 0, position), start=cursor)
            event = self.injector.on_replay_event(position,
                                                  table.event(position))
            process.replay(_rows(table, position, position + 1,
                                 alloc_index=event.alloc_index))
            cursor = position + 1
        return cursor

    def _rollback_replay(self, process) -> None:
        """Undo an aborted allocation replay before degrading to profiling.

        Frees every buffer the replay allocated that is still live, flushes
        the caching allocator's free lists, and resets the peak watermark —
        the fallback ``profile_available_kv_bytes`` sizes against
        ``peak_bytes``, which must reflect the post-rollback state, not the
        replay's leak.  Structure-init allocations predate the replay and
        stay untouched.
        """
        allocator = process.allocator
        for index in reversed(range(self._replay_start,
                                    allocator.num_allocations)):
            address = allocator.buffer_by_alloc_index(index).address
            if allocator.is_live(address):
                process.free(address)
        process.empty_cache()
        allocator.reset_peak()

    def _buffer(self, alloc_index: int) -> Buffer:
        allocator = self._allocator
        if allocator is None \
                or not 0 <= alloc_index < allocator.num_allocations:
            raise RestorationError(
                f"indirect index {alloc_index} points outside the replayed "
                f"allocation sequence")
        return allocator.buffer_by_alloc_index(alloc_index)

    # -- warm-up window (§4.3, §5.1, §5.2) ----------------------------------

    def _warm_up(self, engine) -> None:
        """Restore permanent contents, warm up + capture the first layer."""
        artifact = self.artifact
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
        first_layer_graph = self._capture_first_layer(engine, batch_order[0])
        self._warm = (graph_input, graph_output, first_layer_graph)

    def _break_warmup(self, engine, exc: Exception) -> None:
        self.degradation.note_failure("warmup", exc)
        self._warm_broken = True
        stream = engine.process.default_stream
        if stream.is_capturing:
            stream.end_capture()   # abandon the half-built capture

    def _restore_permanent_contents(self) -> None:
        """Write every dumped payload; with ``verify_dumps`` compare the
        readback against the stored dumps, one comparison per shape."""
        artifact = self.artifact
        by_shape: Dict[Tuple[int, ...], Tuple[list, list, list]] = {}
        for alloc_index in sorted(artifact.permanent_contents):
            stored = artifact.permanent_payload(alloc_index)
            payload = stored if self.injector is None else \
                self.injector.permanent_payload(alloc_index, stored)
            buffer = self._buffer(alloc_index)
            buffer.write(payload)
            indices, actual, expected = by_shape.setdefault(
                stored.shape, ([], [], []))
            indices.append(alloc_index)
            actual.append(buffer)
            expected.append(stored)
        if not self._verify_dumps:
            return
        corrupt = []
        for indices, buffers, expected in by_shape.values():
            readback = np.stack([buffer.read() for buffer in buffers])
            same = (readback == np.stack(expected)).reshape(
                len(indices), -1).all(axis=1)
            corrupt += [indices[row] for row in np.flatnonzero(~same)]
        if corrupt:
            raise RestorationError(
                f"permanent dump readback mismatch at alloc {min(corrupt)} "
                f"— the stored dump is corrupt (§4.3)")

    def _check_trigger(self, engine, kernel_name: str) -> None:
        """Watchdog on a triggering-kernel launch (fault-injection site).

        A wedged trigger launch charges its full watchdog budget to the
        clock and raises, instead of hanging the warm-up window forever.
        """
        if self.injector is None \
                or not self.injector.trigger_times_out(kernel_name):
            return
        budget = engine.cost_model.trigger_timeout_seconds
        engine.process.clock.advance(budget)
        raise TriggerTimeoutError(
            f"triggering kernel {kernel_name} exceeded its {budget}s "
            f"watchdog budget during warm-up")

    def _first_layer_plan(self, engine, batch_size: int):
        """The prologue + first-layer launches as (spec, params, dims)."""
        artifact = self.artifact
        # first_layer_table is the whole graph on a monolithic npz, but a
        # chunk-backed artifact serves just the head chunk — the warmup
        # never forces a tail decompress.
        table = self._tables.get(batch_size) \
            or artifact.first_layer_table(batch_size)
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
            self._check_trigger(engine, spec.name)
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
            self._check_trigger(engine, plan.kernel_name)
            batch_size, node_index = plan.node_ref
            table = self._graph_table(batch_size)
            start = int(table.param_offsets[node_index])
            end = int(table.param_offsets[node_index + 1])
            resolved = self._resolved_values(table, start, end)
            spec = engine.catalog.kernel(plan.kernel_name)
            params = PackedParams(table.param_sizes[start:end], resolved,
                                  0, end - start)
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

    # -- graph restoration (§4.2, §5) ---------------------------------------

    def _graph_table(self, batch_size: int) -> GraphTable:
        return self._tables.get(batch_size) \
            or self.artifact.graph_table(batch_size)

    def _run_tail(self, engine) -> None:
        """The monolithic plan's serial restore tail: address table, fill,
        instantiate — charging the clock in exactly this order."""
        artifact = self.artifact
        cm = engine.cost_model
        clock = engine.process.clock
        clock.advance(cm.artifact_load_base
                      + cm.artifact_deserialize_per_node * artifact.total_nodes)
        if self._publish(engine):
            for batch_size in sorted(artifact.batches, reverse=True):
                self._restore_graph(engine, batch_size,
                                    self._graph_table(batch_size))
        clock.advance(cm.restore_fill_per_node * artifact.total_nodes)

    def _publish(self, engine) -> bool:
        """Build the kernel address table and publish the (still empty)
        restored graph set on the engine.

        Under a policy, unresolvable kernels are collected instead of
        raising, so only the graphs referencing them are poisoned; any
        other failure poisons every graph.  Returns whether the graph set
        was published.
        """
        if self._warm is None:
            raise RestorationError(
                "graph restore scheduled before the warm-up ran — the plan "
                "must order medusa_warmup before the first graph stage")
        graph_input, graph_output, first_layer_graph = self._warm
        try:
            self._unresolved = resolve_kernel_addresses(
                engine, first_layer_graph, self.artifact.kernel_name_table(),
                self.artifact.kernel_libraries, self._name_to_address,
                tolerate=self.policy is not None)
        except self._catch as exc:
            self.degradation.note_failure("restore_tail", exc)
            self._poisoned.update(self.artifact.batches)
            return False
        if self._unresolved:
            self.degradation.note_failure(
                "address_table",
                RestorationError(f"unresolved kernel address(es): "
                                 f"{sorted(self._unresolved)}"))
        self._capture = CaptureArtifacts(
            graph_input=graph_input,
            graph_output=graph_output,
            capture_marker=self.artifact.capture_marker,
        )
        engine.capture_artifacts = self._capture
        return True

    def _restore_graph(self, engine, batch_size: int,
                       table: GraphTable) -> None:
        """Assemble and instantiate one graph; under a policy a failure
        poisons only this batch size."""
        if self._unresolved \
                and self._unresolved & set(table.node_kernel_names()):
            self._poisoned.add(batch_size)
            return
        capture = self._capture
        try:
            graph = self._assemble_graph(table)
            capture.graphs[batch_size] = graph
            capture.execs[batch_size] = graph.instantiate(engine.process)
        except self._catch as exc:
            self.degradation.note_failure(f"assemble batch {batch_size}",
                                          exc)
            capture.graphs.pop(batch_size, None)
            capture.execs.pop(batch_size, None)
            self._poisoned.add(batch_size)

    def _resolved_values(self, table: GraphTable, start: int = 0,
                         stop: Optional[int] = None) -> np.ndarray:
        """Translate param slots ``start:stop`` of one graph in a single
        gather.

        Returns an int64 copy of ``param_values[start:stop]`` with every
        pointer slot rewritten to ``fresh base address + byte offset``;
        an unknown allocation index and an offset past the buffer end are
        vector comparisons raising :class:`RestorationError`.
        """
        if self._addr_by_alloc is None or self._size_by_alloc is None:
            raise RestorationError(
                "pointer substitution before the allocation replay — the "
                "plan must order replay_alloc before graph restoration")
        end = int(table.param_offsets[-1]) if stop is None else stop
        values = table.param_values[start:end].astype(np.int64, copy=True)
        pointer_mask = table.param_kinds[start:end] == POINTER_CODE
        if not pointer_mask.any():
            return values
        alloc_indices = values[pointer_mask]
        offsets = table.param_byte_offsets[start:end][pointer_mask]
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

    # -- the degradation ladder (policy set) --------------------------------

    def _finish_ladder(self, engine) -> None:
        self._poisoned |= self._verify_restored(engine)
        self._resolve_ladder(engine)

    def _verify_restored(self, engine) -> set:
        """Output-oracle verification of every restored graph (§4).

        Replays each restored graph against an eager forwarding over
        identical inputs and KV state; mismatching batch sizes are poisoned
        and dropped.  COMPUTE mode only (the oracle is a real forwarding);
        recorded as its own ``restore_verify`` timeline stage.
        """
        artifacts = self._capture
        if (not self._verify_outputs
                or engine.process.mode is not ExecutionMode.COMPUTE
                or artifacts is None or not artifacts.execs
                or engine.kv_region is None):
            return set()
        clock = engine.process.clock
        start = clock.now
        ctx = artifacts.context(engine.kv_region)
        bad: set = set()
        batches = sorted(artifacts.execs)
        # Settle one-time eager-path state (workspace setup) first, so the
        # reference forwarding and the replay see identical process state.
        ctx.input_buffer.write(_verify_input(batches[0]))
        engine.model.forward(batches[0], batches[0], ctx)
        for batch_size in batches:
            ctx.input_buffer.write(_verify_input(batch_size))
            engine.reset_kv_state()
            snapshot = engine.process.snapshot_payloads()
            engine.model.forward(batch_size, batch_size, ctx)
            expected = ctx.output_buffer.read().copy()
            engine.process.restore_payloads(snapshot)
            artifacts.execs[batch_size].replay()
            if not np.array_equal(ctx.output_buffer.read(), expected):
                bad.add(batch_size)
        for batch_size in bad:
            artifacts.graphs.pop(batch_size, None)
            artifacts.execs.pop(batch_size, None)
            self.degradation.note_failure(
                f"verify batch {batch_size}",
                RestorationError("restored graph output diverged from the "
                                 "eager oracle"))
        self.degradation.record(LadderStep(
            rung=Rung.FULL, stage=RESTORE_VERIFY,
            reason=f"output verification over batches {batches}",
            batches=tuple(sorted(bad)),
            duration=clock.now - start))
        return bad

    def _resolve_ladder(self, engine) -> None:
        """Walk the ladder until the engine can serve every batch size."""
        policy = self.policy
        clock = engine.process.clock
        all_batches = set(self.artifact.batches)
        artifacts = self._capture
        if self._kv_broken:
            # No trustworthy replay at all: vanilla eager capture on the
            # re-profiled KV region (the bottom rung).
            start = clock.now
            engine.capture_artifacts = run_capture_stage(
                engine.process, engine.model, engine.kv_region)
            self.degradation.record(LadderStep(
                rung=Rung.EAGER, stage=DEGRADE_EAGER,
                reason="replay broken before the KV region; captured all "
                       "graphs eagerly",
                batches=tuple(sorted(all_batches)),
                duration=clock.now - start))
            return
        if not self._warm_broken and artifacts is not None \
                and not self._poisoned:
            return   # full restore — stay on the top rung
        survivors = set(artifacts.execs) if artifacts is not None else set()
        missing = sorted(all_batches - survivors)
        if survivors and policy.allow_partial:
            self.degradation.record(LadderStep(
                rung=Rung.PARTIAL, stage=DEGRADE_PARTIAL,
                reason="dropped poisoned graphs; their batch sizes serve "
                       "through padding to a surviving graph",
                batches=tuple(missing)))
            return
        if policy.allow_recapture:
            start = clock.now
            if artifacts is None:
                artifacts = prepare_capture_stage(engine.process,
                                                  engine.model)
                engine.capture_artifacts = artifacts
            for batch_size in sorted(missing, reverse=True):
                capture_one(engine.process, engine.model, artifacts,
                            engine.kv_region, batch_size)
            self.degradation.record(LadderStep(
                rung=Rung.RECAPTURE, stage=DEGRADE_RECAPTURE,
                reason="re-captured poisoned graphs live (restored KV "
                       "region kept)",
                batches=tuple(missing),
                duration=clock.now - start))
            return
        start = clock.now
        engine.capture_artifacts = run_capture_stage(
            engine.process, engine.model, engine.kv_region)
        self.degradation.record(LadderStep(
            rung=Rung.EAGER, stage=DEGRADE_EAGER,
            reason="degradation policy forbids partial/recapture; captured "
                   "all graphs eagerly",
            batches=tuple(sorted(all_batches)),
            duration=clock.now - start))


def _rows(table: ReplayTable, start: int, stop: int,
          alloc_index: Optional[int] = None) -> ReplayTable:
    """Events ``start:stop`` of ``table`` as a table of their own (column
    views), optionally with one replacement allocation index."""
    cut = slice(start, stop)
    indices = table.alloc_index[cut] if alloc_index is None \
        else np.array([alloc_index], dtype=np.int64)
    return ReplayTable(table.kind[cut], indices, table.size[cut],
                       table.pooled[cut], table.tag_id[cut],
                       table.pool_id[cut], table.tags, table.pools)


def _verify_input(batch_size: int) -> np.ndarray:
    """Deterministic oracle input for restore-time output verification."""
    base = np.arange(PAYLOAD_DIM, dtype=np.float64)
    grid = np.outer(base + batch_size, np.ones(PAYLOAD_DIM))
    return grid / PAYLOAD_DIM
