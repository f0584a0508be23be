"""Replay tables and allocator state snapshots for the batch-replay tests.

:meth:`repro.simgpu.memory.DeviceAllocator.replay` must match
:func:`repro.simgpu.memory.replay_per_event` (one ``malloc``/``free``/
``pool_free``/``empty_cache`` call per recorded event);
:func:`allocator_snapshot` is the observable state the two are compared
on.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.binfmt import ReplayTable
from repro.simgpu.memory import Buffer, DeviceAllocator

TAGS = ["", "weight", "activation", "kv"]
POOLS = ["default", "graph"]

#: One replay-table row: (kind, alloc_index, size, pooled, tag_id, pool_id).
Row = Tuple[int, int, int, int, int, int]


def make_table(rows: Sequence[Row]) -> ReplayTable:
    """A :class:`ReplayTable` with the on-disk column dtypes."""
    columns = list(zip(*rows)) if rows else [()] * 6
    dtypes = (np.int8, np.int64, np.int64, np.int8, np.int16, np.int8)
    arrays = [np.array(column, dtype=dtype)
              for column, dtype in zip(columns, dtypes)]
    return ReplayTable(*arrays, tags=list(TAGS), pools=list(POOLS))


def _payload(payload: Optional[np.ndarray]):
    return None if payload is None else (payload.shape, payload.tobytes())


def buffer_state(buffer: Buffer) -> tuple:
    """Every field of a buffer, payload by value (NaN-safe)."""
    return (buffer.address, buffer.size, buffer.alloc_index, buffer.tag,
            buffer.pool, _payload(buffer.payload), buffer.live,
            buffer.freed_at_index)


def allocator_snapshot(allocator: DeviceAllocator) -> dict:
    """The allocator's observable state, order-sensitive where it is."""
    return {
        "live": [(address, buffer_state(buffer))
                 for address, buffer in allocator._live.items()],
        "large": [(address, buffer.alloc_index)
                  for address, buffer in allocator._large_live.items()],
        "free_lists": [
            (key, [(address, pooled, _payload(payload))
                   for address, pooled, payload in entries])
            for key, entries in allocator._free_lists.items()],
        "pending": sorted(allocator._pending),
        "bytes_in_use": allocator.bytes_in_use,
        "peak_bytes": allocator.peak_bytes,
        "cursor": allocator._cursor,
        "allocations": allocator.num_allocations,
        "events": allocator.events,
        "history": [buffer_state(buffer) for buffer in allocator.history],
    }
