"""Simulated device memory: cudaMalloc/cudaFree with realistic hazards.

Two properties of real ``cudaMalloc`` matter to Medusa and are reproduced
faithfully here:

1. **Non-deterministic addresses across process launches.**  The heap base is
   randomized per process (see :class:`repro.simgpu.process.CudaProcess`), so
   raw pointers recorded in a CUDA graph are invalid in the next cold start —
   Challenge I of the paper (§2.5).
2. **Address reuse within a launch.**  Freed regions are recycled LIFO, so a
   later allocation of a compatible size returns an address that an *earlier,
   already-freed* allocation also returned.  Naively matching a kernel
   parameter against "all addresses ever returned" then finds multiple
   candidates — the false-positive scenario of Figure 6 that motivates
   trace-based backward matching (§4.1).

Buffers additionally carry a small numpy *payload* decoupled from their
*declared* byte size: declared sizes drive memory accounting at real-model
scale (a 40 GB device "filling up" exactly as in the paper), payloads keep
kernel compute cheap while remaining real data whose corruption is
observable.  Freed buffers keep a poisoned payload: a stale pointer that
sneaks through restoration produces visibly corrupt output, never a silent
pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import (
    IllegalMemoryAccessError,
    InvalidValueError,
    OutOfMemoryError,
    RestorationError,
)

#: Allocation granularity, mirroring the CUDA allocator's 256-byte alignment.
ALIGNMENT = 256

#: Value poured into a buffer's payload when it is freed.
POISON_VALUE = float("nan")

#: Buffers above this size are indexed for interior-pointer resolution.
_LARGE_THRESHOLD = 64 * 1024


def _align(size: int) -> int:
    return (size + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


@dataclass
class Buffer:
    """One live (or historical) device allocation."""

    address: int
    size: int                      # declared bytes (drives memory accounting)
    alloc_index: int               # position in this process's allocation sequence
    tag: str = ""                  # provenance label: weight/activation/workspace/kv/...
    pool: str = "default"          # memory pool (PyTorch keeps graph pools private)
    payload: Optional[np.ndarray] = None
    live: bool = True
    freed_at_index: Optional[int] = None   # event index of the free, if freed

    @property
    def end(self) -> int:
        return self.address + self.size

    def contains(self, address: int) -> bool:
        return self.address <= address < self.end

    def write(self, data: np.ndarray) -> None:
        """Set payload contents (a device-side memcpy destination)."""
        if not self.live:
            raise IllegalMemoryAccessError(
                f"write to freed buffer at 0x{self.address:x}")
        self.payload = np.array(data, dtype=np.float64, copy=True)

    def read(self) -> np.ndarray:
        """Read payload contents (raises on a dangling pointer)."""
        if not self.live:
            raise IllegalMemoryAccessError(
                f"read from freed buffer at 0x{self.address:x}")
        if self.payload is None:
            raise IllegalMemoryAccessError(
                f"read from uninitialized buffer at 0x{self.address:x}")
        return self.payload


@dataclass
class AllocationEvent:
    """One entry of the (de)allocation sequence Medusa replays (§4.2)."""

    kind: str                      # "alloc" | "free"
    address: int
    size: int                      # bytes for alloc; 0 for free
    alloc_index: Optional[int]     # sequence index of the allocation (both kinds)
    tag: str = ""
    pooled: bool = False           # free kind: caching-allocator free vs cudaFree
    pool: str = "default"          # memory pool the block belongs to


#: Event codes of the columnar log: ``alloc_index << 2 | code``.
_ALLOC, _FREE, _POOL_FREE, _EMPTY_CACHE = 0, 1, 2, 3


class DeviceAllocator:
    """cudaMalloc/cudaFree over a randomized heap with LIFO reuse.

    ``base`` is the randomized heap start supplied by the owning process.
    The allocator is a bump allocator with per-size free lists; freeing and
    re-allocating the same size returns the most recently freed address,
    exactly the aliasing behaviour the paper's Figure 6 illustrates.

    The allocation history and the (de)allocation sequence are columnar:
    one address, ``(pool, size)`` key and tag per allocation index and one
    int per event.  :class:`Buffer` objects exist for every allocation made
    through :meth:`malloc`/:meth:`map_fixed` and for every allocation a
    :meth:`replay` leaves live; the buffers a replay allocated and freed
    materialize only when :attr:`history` or :meth:`buffer_by_alloc_index`
    asks for them, and :attr:`events` is built from the log on access.
    """

    def __init__(self, base: int, capacity_bytes: int):
        if base % ALIGNMENT:
            raise InvalidValueError(f"heap base 0x{base:x} is not aligned")
        self.base = base
        self.capacity_bytes = capacity_bytes
        self._cursor = base
        self._free_lists: Dict[Tuple[str, int], List[tuple]] = {}
        self._live: Dict[int, Buffer] = {}
        self.bytes_in_use = 0
        self.peak_bytes = 0
        self._alloc_counter = 0
        self._pending: set = set()            # addresses sitting on free lists
        self._large_live: Dict[int, Buffer] = {}   # interior-pointer targets
        # Columnar history, indexed by allocation index.
        self._addresses: List[int] = []
        self._keys: List[Tuple[str, int]] = []     # (pool, aligned size)
        self._tags: List[str] = []
        self._buffers: Dict[int, Buffer] = {}      # materialized so far
        # Payload (if not None) of the replayed allocations that have no
        # Buffer yet, and the free event of every allocation by index
        # (-1: not freed), rebuilt from the log when it has grown.
        self._payloads: Dict[int, np.ndarray] = {}
        self._free_positions = np.empty(0, dtype=np.int64)
        self._free_positions_length = 0
        # The replayable sequence: one ``alloc_index << 2 | code`` per event.
        self._log: List[int] = []
        self._events: List[AllocationEvent] = []   # decoded prefix of _log

    # -- core API -----------------------------------------------------------

    def malloc(self, size: int, tag: str = "",
               payload: Optional[np.ndarray] = None,
               pool: str = "default") -> Buffer:
        """Allocate ``size`` declared bytes; optionally seed a payload.

        ``pool`` namespaces the free lists: blocks freed in one pool are
        never handed to allocations from another.  This mirrors PyTorch's
        private CUDA-graph memory pools — the property that keeps ordinary
        eager allocations from claiming (and later corrupting) memory that
        captured graphs still execute through.
        """
        if size <= 0:
            raise InvalidValueError(f"cudaMalloc of non-positive size {size}")
        aligned = _align(size)
        if self.bytes_in_use + aligned > self.capacity_bytes:
            raise OutOfMemoryError(
                f"device OOM: in use {self.bytes_in_use} + request {aligned} "
                f"> capacity {self.capacity_bytes}")
        key = (pool, aligned)
        free_list = self._free_lists.get(key)
        carried_payload: Optional[np.ndarray] = None
        if free_list:
            address, pooled, carried_payload = free_list.pop()  # LIFO reuse
            self._pending.discard(address)
            if pooled:
                # A pool-freed block handed out again: the old Buffer object
                # stops resolving, but the memory (and its stale contents)
                # carries over to the new owner — exactly how the caching
                # allocator behaves on real GPUs.  bytes_in_use was never
                # decremented by the pooled free, so it does not grow here.
                superseded = self._live.pop(address, None)
                if superseded is not None:
                    superseded.live = False
            else:
                self.bytes_in_use += aligned
        else:
            address = self._cursor
            self._cursor += aligned
            self.bytes_in_use += aligned
        buffer = self._record_alloc(address, key, tag, payload,
                                    carried_payload)
        self.peak_bytes = max(self.peak_bytes, self.bytes_in_use)
        return buffer

    def map_fixed(self, address: int, size: int, tag: str = "",
                  pool: str = "default",
                  payload: Optional[np.ndarray] = None) -> Buffer:
        """Map a buffer at a *fixed* address (CRIU-style snapshot restore).

        Checkpoint/restore systems reconstruct an address space verbatim so
        raw pointers inside driver objects stay valid; this is the primitive
        that makes the §9 baseline implementable.  The address must not
        overlap any live allocation.
        """
        if address % ALIGNMENT:
            raise InvalidValueError(
                f"fixed mapping at unaligned address 0x{address:x}")
        aligned = _align(size)
        if self.bytes_in_use + aligned > self.capacity_bytes:
            raise OutOfMemoryError(
                f"device OOM mapping 0x{address:x} (+{aligned})")
        for live in self._live.values():
            if address < live.end and live.address < address + aligned:
                raise IllegalMemoryAccessError(
                    f"fixed mapping 0x{address:x}..+{aligned} overlaps live "
                    f"buffer 0x{live.address:x}..+{live.size}")
        buffer = self._record_alloc(address, (pool, aligned), tag, payload)
        self.bytes_in_use += aligned
        self.peak_bytes = max(self.peak_bytes, self.bytes_in_use)
        self._cursor = max(self._cursor, address + aligned)
        return buffer

    def _record_alloc(self, address: int, key: Tuple[str, int], tag: str,
                      payload: Optional[np.ndarray],
                      carried_payload: Optional[np.ndarray] = None
                      ) -> Buffer:
        """Append one allocation to the history and the live set."""
        index = self._alloc_counter
        self._alloc_counter += 1
        pool, aligned = key
        buffer = Buffer(address=address, size=aligned, alloc_index=index,
                        tag=tag, pool=pool)
        if carried_payload is not None:
            buffer.payload = carried_payload
        if payload is not None:
            buffer.write(payload)
        self._addresses.append(address)
        self._keys.append(key)
        self._tags.append(tag)
        self._buffers[index] = buffer
        self._live[address] = buffer
        if aligned > _LARGE_THRESHOLD:
            self._large_live[address] = buffer
        self._log.append(index << 2 | _ALLOC)
        return buffer

    def is_live(self, address: int) -> bool:
        """Whether ``address`` resolves and is not sitting on a free list."""
        return address in self._live and address not in self._pending

    def reset_peak(self) -> None:
        """Collapse the high-water mark to current usage.

        Used after rolling back an aborted restore replay: the leaked
        allocations are gone, and profiling-based KV sizing (which reads
        ``peak_bytes``) must not keep charging for them.
        """
        self.peak_bytes = self.bytes_in_use

    def free(self, address: int) -> None:
        """``cudaFree``: return memory to the driver.

        The payload is poisoned and the address stops resolving — a graph
        that still references it faults on replay (the hazard PyTorch avoids
        by never cudaFree-ing capture-referenced memory, §2.2).
        """
        buffer = self._live.get(address)
        if buffer is None or address in self._pending:
            raise IllegalMemoryAccessError(
                f"cudaFree of unknown or already-freed address 0x{address:x}")
        del self._live[address]
        buffer.live = False
        buffer.freed_at_index = len(self._log)
        if buffer.payload is not None:
            buffer.payload = np.full_like(buffer.payload, POISON_VALUE)
        self._free_lists.setdefault((buffer.pool, buffer.size), []).append(
            (address, False, None))
        self._pending.add(address)
        self._large_live.pop(address, None)
        self.bytes_in_use -= buffer.size
        self._log.append(buffer.alloc_index << 2 | _FREE)

    def pool_free(self, address: int) -> None:
        """Caching-allocator free (the PyTorch CUDA allocator's ``free``).

        The block returns to the allocator's free list for LIFO reuse, but
        the memory stays mapped: the buffer keeps resolving and its stale
        contents stay readable until another allocation claims the block.
        This is what makes replaying a graph whose "temporary" buffers were
        freed both possible and safe (paper §4.3) — and what creates the
        address-reuse false positives of Figure 6.
        """
        buffer = self._live.get(address)
        if buffer is None or address in self._pending:
            raise IllegalMemoryAccessError(
                f"pool free of unknown or already-freed address 0x{address:x}")
        buffer.freed_at_index = len(self._log)
        self._free_lists.setdefault((buffer.pool, buffer.size), []).append(
            (address, True, buffer.payload))
        self._pending.add(address)
        self._log.append(buffer.alloc_index << 2 | _POOL_FREE)

    def empty_cache(self) -> int:
        """``torch.cuda.empty_cache()``: cudaFree every cached free block.

        Pool-freed blocks are truly released (they stop resolving, their
        contents are poisoned, and the device's free memory grows); blocks
        that were already cudaFree'd simply leave the free lists.  Returns
        the number of bytes released.  Recorded as a single replayable event.
        """
        released = 0
        for entries in self._free_lists.values():
            for address, pooled, _payload in entries:
                if not pooled:
                    continue
                buffer = self._live.pop(address, None)
                if buffer is None:
                    continue
                buffer.live = False
                self._large_live.pop(address, None)
                if buffer.payload is not None:
                    buffer.payload = np.full_like(buffer.payload, POISON_VALUE)
                self.bytes_in_use -= buffer.size
                released += buffer.size
        self._free_lists.clear()
        self._pending.clear()
        self._log.append(_EMPTY_CACHE)
        return released

    # -- batch replay (§4.2) -------------------------------------------------

    def replay(self, table, start: int = 0,
               stop_alloc_index: Optional[int] = None
               ) -> Tuple[int, np.ndarray, np.ndarray]:
        """Replay recorded events ``start..`` in one loop over int columns.

        ``table`` is a replay-event table (``repro.core.binfmt.ReplayTable``
        or anything with its ``kind``/``alloc_index``/``size``/``pooled``/
        ``pool_id``/``tag_id`` arrays and ``tags``/``pools`` name lists).
        Kind 0 allocates, kind 1 frees the block of the recorded allocation
        index (``pooled`` picks :meth:`pool_free` over :meth:`free`), any
        other kind is :meth:`empty_cache`.  Replay stops after the event
        allocating ``stop_alloc_index``, if given.

        The result is exactly what calling :meth:`malloc`, :meth:`free`,
        :meth:`pool_free` and :meth:`empty_cache` once per event would give
        — addresses, live set, free lists with carried payloads, counters,
        :attr:`events` and :attr:`history` — from whatever state the
        allocator is in, including a replay cut short earlier.  Errors match
        too, and leave the state the sequential calls would have left: a
        non-positive size, an OOM, a free of an unknown or already-freed
        block, a free naming an allocation not made yet (as
        :meth:`buffer_by_alloc_index` raises), and an allocation whose index
        differs from the recorded one (replay drift, raised after the
        allocation).  Only allocations still live at the end get
        :class:`Buffer` objects.

        Returns ``(cursor, addresses, sizes)``: the position after the last
        replayed event and int64 arrays mapping every allocation index of
        this allocator to its base address and aligned size (freed
        allocations keep theirs).
        """
        kind_column = np.asarray(table.kind)
        index_column = np.asarray(table.alloc_index, dtype=np.int64)
        end = len(kind_column)
        if stop_alloc_index is not None:
            hits = np.flatnonzero((kind_column[start:] == 0)
                                  & (index_column[start:] == stop_alloc_index))
            if hits.size:
                end = start + int(hits[0]) + 1
        kind_slice = kind_column[start:end]
        is_alloc = kind_slice == 0
        wanted_column = index_column[start:end]
        # One code per event, the log's: alloc, cudaFree, pool free, empty.
        code_column = np.where(
            is_alloc, _ALLOC,
            np.where(kind_slice == 1,
                     np.where(np.asarray(table.pooled[start:end]) != 0,
                              _POOL_FREE, _FREE),
                     _EMPTY_CACHE))
        codes = code_column.tolist()
        wanted = wanted_column.tolist()
        first_new = counter = self._alloc_counter
        # Recorded indices are checked up front: the k-th allocation must
        # come back as index first_new + k, and a free must name an
        # allocation made before it.  The loop stops at the first event
        # failing either check (after making the allocation, for drift)
        # and raises for it below — unless an earlier event raises first.
        made = first_new + np.cumsum(is_alloc) - is_alloc
        bad = np.flatnonzero(
            np.where(is_alloc, wanted_column != made,
                     (kind_slice == 1) & ((wanted_column < 0)
                                          | (wanted_column >= made))))
        stop = int(bad[0]) if bad.size else len(codes)
        drift = stop < len(codes) and codes[stop] == _ALLOC
        alloc_positions = np.flatnonzero(is_alloc) + start
        raw_sizes = np.asarray(table.size)[alloc_positions].astype(np.int64)
        new_sizes = (raw_sizes + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT
        # The free-list key of every allocation this slice can make goes
        # into the key column up front (trimmed back if replay stops short).
        # Equal keys share one tuple (a replay has a few dozen distinct
        # ones), which keeps the loop's free-list lookups cheap: pairs are
        # deduped as pool id x size rank, exact for any size.
        key_column = self._keys
        pools = table.pools
        unique_sizes, size_rank = np.unique(new_sizes, return_inverse=True)
        width = max(len(unique_sizes), 1)
        pairs, key_of = np.unique(
            np.asarray(table.pool_id)[alloc_positions].astype(np.int64)
            * width + size_rank, return_inverse=True)
        size_list = unique_sizes.tolist()
        shared = [(pools[pair // width] if pools else "default",
                   size_list[pair % width]) for pair in pairs.tolist()]
        key_column.extend(map(shared.__getitem__, key_of.tolist()))

        log_base = len(self._log)    # log position of event 0 of the slice
        addresses = self._addresses
        address_append = addresses.append
        free_lists = self._free_lists
        buffers = self._buffers
        payloads = self._payloads
        # The allocation owning each reserved block, by address: ``~owner``
        # while the block is pool-freed (sitting on its free list), which
        # stands in for the pending set.  Allocation indices below
        # first_new have Buffers; the rest are plain ints until the commit.
        owners = {address: ~buffer.alloc_index if address in self._pending
                  else buffer.alloc_index
                  for address, buffer in self._live.items()}
        large = {address: buffer.alloc_index
                 for address, buffer in self._large_live.items()}
        # Frees whose block belongs to another allocation than the recorded
        # one (its address was reused): event position -> actual owner.
        odd: Dict[int, int] = {}
        cursor = self._cursor
        in_use = self.bytes_in_use
        peak = self.peak_bytes
        capacity = self.capacity_bytes
        large_threshold = _LARGE_THRESHOLD
        replayed = 0      # events done: the position of one that raises
        try:
            for replayed, code, recorded in zip(range(stop + drift), codes,
                                                wanted):
                if code == 0:                               # malloc
                    key = key_column[counter]
                    size = key[1]
                    if size <= 0:
                        raise InvalidValueError(
                            f"cudaMalloc of non-positive size "
                            f"{int(raw_sizes[counter - first_new])}")
                    if in_use + size > capacity:
                        raise OutOfMemoryError(
                            f"device OOM: in use {in_use} + request {size} "
                            f"> capacity {capacity}")
                    free_list = free_lists.get(key)
                    if free_list:
                        address, was_pooled, carried = free_list.pop()
                        if was_pooled:
                            previous = owners.pop(address, None)
                            if previous is not None \
                                    and ~previous < first_new:
                                buffers[~previous].live = False
                        else:
                            in_use += size
                            if in_use > peak:
                                peak = in_use
                        if carried is not None:
                            payloads[counter] = carried
                    else:
                        address = cursor
                        cursor += size
                        in_use += size
                        if in_use > peak:
                            peak = in_use
                    address_append(address)
                    owners[address] = counter
                    if size > large_threshold:
                        large[address] = counter
                    counter += 1
                elif code == 2:                             # pool free
                    address = addresses[recorded]
                    owner = owners.get(address)
                    if owner is None or owner < 0:
                        raise IllegalMemoryAccessError(
                            f"pool free of unknown or already-freed "
                            f"address 0x{address:x}")
                    owners[address] = ~owner
                    if owner != recorded:
                        odd[replayed] = owner
                    if owner < first_new:
                        buffer = buffers[owner]
                        buffer.freed_at_index = log_base + replayed
                        carried = buffer.payload
                    else:
                        carried = payloads.get(owner) if payloads else None
                    key = key_column[owner]
                    free_list = free_lists.get(key)
                    if free_list is None:
                        free_list = free_lists[key] = []
                    free_list.append((address, True, carried))
                elif code == 1:                             # cudaFree
                    address = addresses[recorded]
                    owner = owners.get(address)
                    if owner is None or owner < 0:
                        raise IllegalMemoryAccessError(
                            f"cudaFree of unknown or already-freed "
                            f"address 0x{address:x}")
                    del owners[address]
                    if owner != recorded:
                        odd[replayed] = owner
                    if owner < first_new:
                        buffer = buffers[owner]
                        buffer.live = False
                        buffer.freed_at_index = log_base + replayed
                        buffer.payload = _poisoned(buffer.payload)
                    elif owner in payloads:
                        payloads[owner] = _poisoned(payloads[owner])
                    key = key_column[owner]
                    free_lists.setdefault(key, []).append(
                        (address, False, None))
                    large.pop(address, None)
                    in_use -= key[1]
                else:                                       # empty_cache
                    for entries in free_lists.values():
                        for address, was_pooled, _carried in entries:
                            if not was_pooled:
                                continue
                            owner = owners.pop(address, None)
                            if owner is None:
                                continue
                            owner = ~owner
                            if owner < first_new:
                                buffer = buffers[owner]
                                buffer.live = False
                                buffer.payload = _poisoned(buffer.payload)
                            elif owner in payloads:
                                payloads[owner] = _poisoned(payloads[owner])
                            large.pop(address, None)
                            in_use -= key_column[owner][1]
                    free_lists.clear()
            else:
                replayed = stop + drift
            if drift:
                raise RestorationError(
                    f"replay drift: allocation came back as index "
                    f"{counter - 1}, artifact expects {wanted[stop]}")
            if stop < len(codes):
                raise InvalidValueError(
                    f"allocation index {wanted[stop]} out of range "
                    f"(process performed {counter} allocations)")
        finally:
            self._cursor = cursor
            self.bytes_in_use = in_use
            self.peak_bytes = peak
            self._alloc_counter = counter
            del key_column[counter:]
            self._log_replayed(code_column[:replayed], made[:replayed],
                               wanted_column[:replayed], odd)
            self._commit_replay(table, alloc_positions[:counter - first_new],
                                owners, large)
        sizes = np.concatenate((
            np.fromiter(map(itemgetter(1), key_column[:first_new]),
                        dtype=np.int64, count=first_new),
            new_sizes))
        return (start + len(codes), np.array(addresses, dtype=np.int64),
                sizes)

    def _log_replayed(self, codes: np.ndarray, made: np.ndarray,
                      recorded: np.ndarray, odd: Dict[int, int]) -> None:
        """Append replayed events to the log: an allocation logs the index
        it made, a free the recorded index or, from ``odd``, the block's
        actual owner."""
        frees = (codes == _FREE) | (codes == _POOL_FREE)
        indices = np.where(codes == _ALLOC, made, np.where(frees, recorded, 0))
        for position, owner in odd.items():
            indices[position] = owner
        self._index_frees()
        base = len(self._log)
        self._log.extend((indices << 2 | codes).tolist())
        freed = np.flatnonzero(frees)
        self._add_free_positions(indices[freed], freed + base)

    def _index_frees(self) -> None:
        """Bring the free-event index up to date with the log."""
        indexed = self._free_positions_length
        if indexed != len(self._log):
            log = np.array(self._log[indexed:], dtype=np.int64)
            code = log & 3
            freed = np.flatnonzero((code == _FREE) | (code == _POOL_FREE))
            self._add_free_positions(log[freed] >> 2, freed + indexed)

    def _add_free_positions(self, indices: np.ndarray,
                            positions: np.ndarray) -> None:
        """Index log positions of frees (an allocation is freed at most
        once) and mark the whole log as indexed."""
        table = np.full(self._alloc_counter, -1, dtype=np.int64)
        table[:len(self._free_positions)] = self._free_positions
        table[indices] = positions
        self._free_positions = table
        self._free_positions_length = len(self._log)

    def _free_position(self, index: int) -> Optional[int]:
        """Log position of the free of allocation ``index`` (None if it was
        not freed)."""
        self._index_frees()
        position = int(self._free_positions[index])
        return None if position < 0 else position

    def _commit_replay(self, table, positions: np.ndarray,
                       owners: Dict[int, int],
                       large: Dict[int, int]) -> None:
        """Tags of the replayed allocations (made at event ``positions``)
        and Buffers for the live ones."""
        if table.tags:
            tag_ids = np.asarray(table.tag_id)[positions]
            self._tags.extend(
                np.asarray(table.tags, dtype=object)[tag_ids].tolist())
        else:
            self._tags.extend([""] * len(positions))
        buffers = self._buffers
        live: Dict[int, Buffer] = {}
        for address, owner in owners.items():
            pool_freed = owner < 0
            if pool_freed:
                owner = ~owner
            buffer = buffers.get(owner)
            if buffer is None:
                pool, size = self._keys[owner]
                buffer = buffers[owner] = Buffer(
                    address=address, size=size, alloc_index=owner,
                    tag=self._tags[owner], pool=pool,
                    payload=self._payloads.pop(owner, None),
                    freed_at_index=self._free_position(owner)
                    if pool_freed else None)
            live[address] = buffer
        self._live = live
        self._large_live = {address: live[address] for address in large}
        self._pending = {address for entries in self._free_lists.values()
                         for address, _pooled, _payload in entries}

    @property
    def reserved_bytes(self) -> int:
        """Bytes sitting on free lists awaiting reuse (pool-freed only)."""
        total = 0
        for (_pool, size), entries in self._free_lists.items():
            total += sum(size for _addr, pooled, _payload in entries if pooled)
        return total

    # -- lookups -------------------------------------------------------------

    def resolve(self, address: int) -> Buffer:
        """Map a raw pointer to the live buffer containing it.

        Pointers may land inside a buffer, not only at its start (§4.1:
        "matched when the addresses are identical or within the range of the
        allocated buffer").
        """
        buffer = self._live.get(address)
        if buffer is not None:
            return buffer
        for candidate in self._large_live.values():
            if candidate.contains(address):
                return candidate
        for candidate in self._live.values():
            if candidate.contains(address):
                return candidate
        raise IllegalMemoryAccessError(
            f"pointer 0x{address:x} maps to no live allocation")

    def try_resolve(self, address: int) -> Optional[Buffer]:
        try:
            return self.resolve(address)
        except IllegalMemoryAccessError:
            return None

    def buffer_by_alloc_index(self, index: int) -> Buffer:
        """The buffer returned by the ``index``-th allocation of this process."""
        if not 0 <= index < self._alloc_counter:
            raise InvalidValueError(
                f"allocation index {index} out of range "
                f"(process performed {self._alloc_counter} allocations)")
        return self._buffer_at(index)

    def _buffer_at(self, index: int) -> Buffer:
        """The (cached) Buffer of one allocation, built on first access."""
        buffer = self._buffers.get(index)
        if buffer is None:
            # Only replayed allocations that died in the replay lack one.
            pool, size = self._keys[index]
            buffer = self._buffers[index] = Buffer(
                address=self._addresses[index], size=size, alloc_index=index,
                tag=self._tags[index], pool=pool,
                payload=self._payloads.pop(index, None), live=False,
                freed_at_index=self._free_position(index))
        return buffer

    @property
    def live_buffers(self) -> Tuple[Buffer, ...]:
        return tuple(self._live.values())

    @property
    def history(self) -> Tuple[Buffer, ...]:
        """Every buffer ever allocated, by allocation index."""
        return tuple(self._buffer_at(index)
                     for index in range(self._alloc_counter))

    @property
    def events(self) -> Tuple[AllocationEvent, ...]:
        """The replayable (de)allocation sequence (decoded from the log)."""
        events = self._events
        for code in self._log[len(events):]:
            events.append(self._decode_event(code))
        return tuple(events)

    def _decode_event(self, code: int) -> AllocationEvent:
        kind, index = code & 3, code >> 2
        if kind == _EMPTY_CACHE:
            return AllocationEvent("empty_cache", 0, 0, None)
        address, tag = self._addresses[index], self._tags[index]
        if kind == _ALLOC:
            pool, size = self._keys[index]
            return AllocationEvent("alloc", address, size, index, tag,
                                   pool=pool)
        return AllocationEvent("free", address, 0, index, tag,
                               pooled=kind == _POOL_FREE)

    @property
    def num_allocations(self) -> int:
        return self._alloc_counter

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.bytes_in_use


def _poisoned(payload: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """What a freed buffer's payload becomes (None stays None)."""
    if payload is None:
        return None
    return np.full_like(payload, POISON_VALUE)


def replay_rows(table) -> List[Tuple[int, int, int, int, str, str]]:
    """A replay table's events as plain ``(kind, alloc_index, size, pooled,
    tag, pool)`` tuples, the input of :func:`replay_per_event`."""
    tags, pools = table.tags, table.pools
    return [(kind, alloc_index, size, pooled, tags[tag] if tags else "",
             pools[pool] if pools else "default")
            for kind, alloc_index, size, pooled, tag, pool in zip(
                np.asarray(table.kind).tolist(),
                np.asarray(table.alloc_index).tolist(),
                np.asarray(table.size).tolist(),
                np.asarray(table.pooled).tolist(),
                np.asarray(table.tag_id).tolist(),
                np.asarray(table.pool_id).tolist())]


def replay_per_event(allocator: DeviceAllocator,
                     rows: List[Tuple[int, int, int, int, str, str]],
                     start: int = 0,
                     stop_alloc_index: Optional[int] = None) -> int:
    """The reference :meth:`DeviceAllocator.replay` is pinned to.

    Replays ``rows`` (from :func:`replay_rows`) with one :meth:`malloc`,
    :meth:`free`, :meth:`pool_free` or :meth:`empty_cache` call per event,
    with the same drift check and stopping rule, and returns the cursor.
    """
    position = start
    total = len(rows)
    while position < total:
        kind, alloc_index, size, pooled, tag, pool = rows[position]
        position += 1
        if kind == 0:
            buffer = allocator.malloc(size, tag=tag, pool=pool)
            if buffer.alloc_index != alloc_index:
                raise RestorationError(
                    f"replay drift: allocation came back as index "
                    f"{buffer.alloc_index}, artifact expects {alloc_index}")
            if alloc_index == stop_alloc_index:
                break
        elif kind == 1:
            address = allocator.buffer_by_alloc_index(alloc_index).address
            if pooled:
                allocator.pool_free(address)
            else:
                allocator.free(address)
        else:
            allocator.empty_cache()
    return position
