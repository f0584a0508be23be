"""Property-based tests of the device allocator (hypothesis).

These pin the invariants DESIGN.md §6 lists: live buffers never overlap,
accounting never exceeds capacity, LIFO reuse, and replaying any recorded
event sequence on a fresh allocator reproduces the same relative layout.
They also pin ``DeviceAllocator.replay`` to one allocator call per event:
same addresses, same final state, and the same errors at the same event.
"""

from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import IllegalMemoryAccessError, OutOfMemoryError
from repro.simgpu.memory import (
    ALIGNMENT,
    DeviceAllocator,
    replay_per_event,
    replay_rows,
)

from tests.simgpu.replay_helpers import (
    POOLS,
    TAGS,
    allocator_snapshot,
    make_table,
)

CAPACITY = 1 << 22          # 4 MiB keeps examples fast

# An operation program: alloc(size) | free(k) | pool_free(k) | empty_cache,
# where k picks among currently live allocations.
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), st.integers(1, 8192)),
        st.tuples(st.just("free"), st.integers(0, 30)),
        st.tuples(st.just("pool_free"), st.integers(0, 30)),
        st.tuples(st.just("empty_cache"), st.just(0)),
    ),
    max_size=60,
)


def _run_program(allocator: DeviceAllocator, program) -> List[int]:
    """Apply a program, skipping infeasible steps; returns live addresses."""
    live: List[int] = []
    for op, arg in program:
        if op == "alloc":
            try:
                buffer = allocator.malloc(arg, tag="t")
            except OutOfMemoryError:
                continue
            live.append(buffer.address)
        elif op in ("free", "pool_free") and live:
            address = live.pop(arg % len(live))
            try:
                getattr(allocator, op)(address)
            except IllegalMemoryAccessError:
                pass
        elif op == "empty_cache":
            allocator.empty_cache()
    return live


class TestAllocatorInvariants:
    @settings(max_examples=120, deadline=None)
    @given(program=_ops)
    def test_live_buffers_never_overlap(self, program):
        allocator = DeviceAllocator(base=0x7F00_0000_0000,
                                    capacity_bytes=CAPACITY)
        _run_program(allocator, program)
        spans = sorted((b.address, b.end) for b in allocator.live_buffers)
        for (start_a, end_a), (start_b, _end_b) in zip(spans, spans[1:]):
            assert end_a <= start_b

    @settings(max_examples=120, deadline=None)
    @given(program=_ops)
    def test_accounting_within_capacity(self, program):
        allocator = DeviceAllocator(base=0x7F00_0000_0000,
                                    capacity_bytes=CAPACITY)
        _run_program(allocator, program)
        assert 0 <= allocator.bytes_in_use <= CAPACITY
        assert allocator.peak_bytes <= CAPACITY
        assert allocator.bytes_in_use <= allocator.peak_bytes

    @settings(max_examples=120, deadline=None)
    @given(program=_ops)
    def test_alloc_indices_strictly_increase(self, program):
        allocator = DeviceAllocator(base=0x7F00_0000_0000,
                                    capacity_bytes=CAPACITY)
        _run_program(allocator, program)
        indices = [b.alloc_index for b in allocator.history]
        assert indices == sorted(indices)
        assert len(set(indices)) == len(indices)

    @settings(max_examples=100, deadline=None)
    @given(program=_ops)
    def test_resolve_finds_every_live_buffer(self, program):
        allocator = DeviceAllocator(base=0x7F00_0000_0000,
                                    capacity_bytes=CAPACITY)
        live = _run_program(allocator, program)
        for address in live:
            # Superseded addresses resolve to their newest owner.
            assert allocator.resolve(address).address <= address

    @settings(max_examples=100, deadline=None)
    @given(program=_ops)
    def test_replay_reproduces_relative_layout(self, program):
        """The §4.2 property: replaying the recorded event sequence on a
        fresh allocator (different base) reproduces every address *offset*
        and the same alloc-index aliasing structure."""
        first = DeviceAllocator(base=0x7F00_0000_0000,
                                capacity_bytes=CAPACITY)
        _run_program(first, program)
        second = DeviceAllocator(base=0x7E00_0000_0000,
                                 capacity_bytes=CAPACITY)
        index_to_addr = {}
        for event in first.events:
            if event.kind == "alloc":
                buffer = second.malloc(event.size, tag=event.tag,
                                       pool=event.pool)
                assert buffer.alloc_index == event.alloc_index
                index_to_addr[event.alloc_index] = buffer.address
            elif event.kind == "free":
                address = index_to_addr[event.alloc_index]
                if event.pooled:
                    second.pool_free(address)
                else:
                    second.free(address)
            elif event.kind == "empty_cache":
                second.empty_cache()
        for event in first.events:
            if event.kind == "alloc":
                assert (event.address - first.base
                        == index_to_addr[event.alloc_index] - second.base)


class TestLifoProperty:
    @settings(max_examples=60, deadline=None)
    @given(size=st.integers(1, 4096))
    def test_pool_free_then_alloc_same_size_reuses(self, size):
        allocator = DeviceAllocator(base=0x7F00_0000_0000,
                                    capacity_bytes=CAPACITY)
        first = allocator.malloc(size)
        allocator.pool_free(first.address)
        second = allocator.malloc(size)
        assert second.address == first.address

    @settings(max_examples=60, deadline=None)
    @given(size_a=st.integers(1, 2048), size_b=st.integers(2049, 4096))
    def test_different_bucket_no_reuse(self, size_a, size_b):
        allocator = DeviceAllocator(base=0x7F00_0000_0000,
                                    capacity_bytes=CAPACITY)
        first = allocator.malloc(size_a)
        allocator.pool_free(first.address)
        if (size_a + ALIGNMENT - 1) // ALIGNMENT == \
                (size_b + ALIGNMENT - 1) // ALIGNMENT:
            return   # same bucket after alignment: reuse is legal
        second = allocator.malloc(size_b)
        assert second.address != first.address


# ---------------------------------------------------------------------------
# Batch replay (DeviceAllocator.replay) vs one call per event
# ---------------------------------------------------------------------------

_LARGE = 64 * 1024
_size = st.one_of(st.integers(1, 4096),
                  st.integers(_LARGE - 512, _LARGE + 4096))
# A program step: alloc(size, tag, pool, with payload) | free(k) |
# pool_free(k) | empty_cache | write(k); k picks among live buffers.
# ``write`` is a payload store, so it runs only between replays.
_step = st.one_of(
    st.tuples(st.just("alloc"), _size, st.integers(0, len(TAGS) - 1),
              st.integers(0, len(POOLS) - 1), st.booleans()),
    st.tuples(st.just("free"), st.integers(0, 40)),
    st.tuples(st.just("pool_free"), st.integers(0, 40)),
    st.tuples(st.just("empty_cache")),
    st.tuples(st.just("write"), st.integers(0, 40)),
)
_steps = st.lists(_step, max_size=40)
# A segment: the steps recorded into one replay table, an optional split
# (the restore_kv/replay_alloc boundary: stop after the split-th
# allocation, write its payload, resume), and sequential steps after it.
_segments = st.lists(
    st.tuples(_steps, st.one_of(st.none(), st.integers(0, 40)), _steps),
    min_size=1, max_size=3)


def _fresh(capacity: int = CAPACITY) -> DeviceAllocator:
    return DeviceAllocator(base=0x7F00_0000_0000, capacity_bytes=capacity)


def _apply(allocator: DeviceAllocator, step):
    """Run one step directly; returns its replay-table row (or None when
    the step is infeasible here or, like ``write``, not replayable)."""
    op = step[0]
    if op == "alloc":
        _op, size, tag, pool, with_payload = step
        payload = np.full((2, 2), float(allocator.num_allocations)) \
            if with_payload else None
        try:
            buffer = allocator.malloc(size, tag=TAGS[tag], pool=POOLS[pool],
                                      payload=payload)
        except OutOfMemoryError:
            return None
        return (0, buffer.alloc_index, size, 0, tag, pool)
    if op == "empty_cache":
        allocator.empty_cache()
        return (2, -1, 0, 0, 0, 0)
    if op == "write":
        live = allocator.live_buffers
        if live:
            target = live[step[1] % len(live)]
            target.write(np.full((2, 2), -float(target.alloc_index)))
        return None
    candidates = [b for b in allocator.live_buffers
                  if allocator.is_live(b.address)]
    if not candidates:
        return None
    target = candidates[step[1] % len(candidates)]
    getattr(allocator, op)(target.address)
    return (1, target.alloc_index, 0, int(op == "pool_free"), 0, 0)


def _record(recorder: DeviceAllocator, steps) -> list:
    return [row for row in (_apply(recorder, step) for step in steps
                            if step[0] != "write")
            if row is not None]


def _split_index(rows, split):
    allocs = [row[1] for row in rows if row[0] == 0]
    if split is None or not allocs:
        return None
    return allocs[split % len(allocs)]


class TestBatchReplayEquivalence:
    """``replay`` returns the addresses, and leaves the state, that one
    malloc/free/pool_free/empty_cache call per event does."""

    @settings(max_examples=150, deadline=None)
    @given(setup=_steps, segments=_segments)
    def test_matches_sequential_calls(self, setup, segments):
        batch, sequential, recorder = _fresh(), _fresh(), _fresh()
        for step in setup:
            for allocator in (batch, sequential, recorder):
                _apply(allocator, step)
        for steps, split, after in segments:
            rows = _record(recorder, steps)
            table = make_table(rows)
            stop = _split_index(rows, split)
            cursor, addresses, sizes = batch.replay(
                table, stop_alloc_index=stop)
            assert cursor == replay_per_event(
                sequential, replay_rows(table), stop_alloc_index=stop)
            if stop is not None:
                for allocator in (batch, sequential):
                    allocator.buffer_by_alloc_index(stop).write(
                        np.full((2, 2), 7.0))
                resumed, addresses, sizes = batch.replay(table, start=cursor)
                assert resumed == replay_per_event(
                    sequential, replay_rows(table), start=cursor)
            reference = sequential.history
            assert addresses.tolist() == [b.address for b in reference]
            assert sizes.tolist() == [b.size for b in reference]
            for step in after:
                for allocator in (batch, sequential, recorder):
                    _apply(allocator, step)
        assert allocator_snapshot(batch) == allocator_snapshot(sequential)
        history = batch.history
        for buffer in batch.live_buffers:
            assert history[buffer.alloc_index] is buffer
        assert all(a is b for a, b in zip(history, batch.history))

    def test_builds_buffers_only_for_live_allocations(self):
        allocator = _fresh()
        rows = []
        for index in range(100):
            rows.append((0, index, 1024, 0, 2, 1))
            if index % 10:
                rows.append((1, index, 0, 1, 0, 0))
        allocator.replay(make_table(rows))
        live = {b.alloc_index for b in allocator.live_buffers}
        assert len(allocator._buffers) == len(live)
        assert allocator.buffer_by_alloc_index(1).live is False  # on demand
        assert len(allocator._buffers) == len(live) + 1
        assert len(allocator.history) == 100

    # Corners random programs seldom reach.  Setup: allocation 0 holds a
    # payload and is pool-freed.  Rows: (kind, alloc_index, size, pooled,
    # tag_id, pool_id).
    @pytest.mark.parametrize("rows", [
        # Allocation 1 reuses the block, carrying its payload, and is
        # cudaFree'd: the carried payload must come back poisoned.
        [(0, 1, 256, 0, 0, 0), (1, 1, 0, 0, 0, 0)],
        # Reusing a cudaFree'd block sets a new peak.
        [(0, 1, 1024, 0, 0, 0), (1, 1, 0, 0, 0, 0), (0, 2, 512, 0, 0, 0),
         (0, 3, 768, 0, 0, 0), (0, 4, 1024, 0, 0, 0)],
        # A free naming a dead allocation whose block was reused frees
        # (and logs) the block's current owner.
        [(0, 1, 512, 0, 0, 0), (1, 1, 0, 0, 0, 0), (0, 2, 512, 0, 0, 0),
         (1, 1, 0, 0, 0, 0)],
    ], ids=["poison-carried", "peak-on-reuse", "free-reused-block"])
    def test_matches_sequential_calls_on_corners(self, rows):
        batch, sequential = _fresh(), _fresh()
        for allocator in (batch, sequential):
            buffer = allocator.malloc(256, payload=np.full((2, 2), 3.0))
            allocator.pool_free(buffer.address)
        table = make_table(rows)
        batch.replay(table)
        replay_per_event(sequential, replay_rows(table))
        assert allocator_snapshot(batch) == allocator_snapshot(sequential)


def _corrupt(rows, kind, pick):
    """One defect injected into a valid recording; None if inapplicable."""
    rows = list(rows)
    allocs = [i for i, row in enumerate(rows) if row[0] == 0]
    frees = [i for i, row in enumerate(rows) if row[0] == 1]
    if kind == "drift" and allocs:
        i = allocs[pick % len(allocs)]
        rows[i] = (0, rows[i][1] + 1) + rows[i][2:]
    elif kind == "size" and allocs:
        i = allocs[pick % len(allocs)]
        rows[i] = rows[i][:2] + (-(pick % 3) * 100,) + rows[i][3:]
    elif kind == "double_free" and frees:
        i = frees[pick % len(frees)]
        rows.insert(i + 1, rows[i][:3] + (pick % 2,) + rows[i][4:])
    elif kind == "unknown_index" and frees:
        i = frees[pick % len(frees)]
        rows[i] = (1, [-1, 10_000][pick % 2]) + rows[i][2:]
    else:
        return None
    return rows


class TestBatchReplayErrorParity:
    """Every replay error matches the per-event calls: same exception type
    and message, raised at the same event, leaving the same state."""

    @settings(max_examples=150, deadline=None)
    @given(setup=_steps, steps=_steps.filter(bool),
           kind=st.sampled_from(["oom", "drift", "size", "double_free",
                                 "unknown_index"]),
           pick=st.integers(0, 1000), split=st.booleans())
    def test_errors_match_sequential_calls(self, setup, steps, kind, pick,
                                           split):
        recorder = _fresh()
        for step in setup:
            _apply(recorder, step)
        in_use = recorder.bytes_in_use
        recorder.reset_peak()
        rows = _record(recorder, steps)
        capacity = CAPACITY
        if kind == "oom":
            peak = recorder.peak_bytes
            if peak <= in_use:
                return
            capacity = in_use + (peak - in_use) * (pick % 100) // 100
        else:
            rows = _corrupt(rows, kind, pick)
            if rows is None:
                return
        batch, sequential = _fresh(), _fresh()
        for allocator in (batch, sequential):
            for step in setup:
                _apply(allocator, step)
            allocator.capacity_bytes = capacity
        table = make_table(rows)
        stop = _split_index([row[:2] for row in rows], pick) if split \
            else None
        outcomes = []
        for allocator, run in ((batch, lambda a, **kw: a.replay(
                table, **kw)[0]), (sequential, lambda a, **kw:
                                   replay_per_event(a, replay_rows(table),
                                                    **kw))):
            try:
                cursor = run(allocator, stop_alloc_index=stop)
                if stop is not None and cursor < len(table):
                    run(allocator, start=cursor)
                outcomes.append(None)
            except Exception as exc:  # noqa: BLE001 - compared below
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] is not None
        assert outcomes[0] == outcomes[1]
        assert allocator_snapshot(batch) == allocator_snapshot(sequential)
