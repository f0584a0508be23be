"""Process-level tests: pools, magic workspaces, interception, snapshots."""

import numpy as np
import pytest

from repro.errors import IllegalMemoryAccessError, InvalidValueError
from repro.simgpu.kernels import magic_values
from repro.simgpu.memory import Buffer
from repro.simgpu.process import CudaProcess, ExecutionMode, Interceptor


class TestMemoryPools:
    def test_pools_do_not_share_free_lists(self, process):
        with process.memory_pool("graph"):
            graph_buf = process.malloc(512, tag="act")
            process.pool_free(graph_buf.address)
        default_buf = process.malloc(512, tag="act")
        assert default_buf.address != graph_buf.address

    def test_same_pool_reuses_lifo(self, process):
        with process.memory_pool("graph"):
            first = process.malloc(512)
            process.pool_free(first.address)
            second = process.malloc(512)
        assert second.address == first.address
        assert first.live is False      # superseded

    def test_pool_scope_restores_previous(self, process):
        with process.memory_pool("graph"):
            pass
        buf = process.malloc(256)
        assert buf.pool == "default"

    def test_pool_freed_buffer_still_readable(self, process):
        buf = process.malloc(256, payload=np.ones((2, 2)))
        process.pool_free(buf.address)
        np.testing.assert_array_equal(buf.read(), np.ones((2, 2)))

    def test_empty_cache_releases_pool_freed(self, process):
        buf = process.malloc(256, payload=np.ones((2, 2)))
        process.pool_free(buf.address)
        released = process.empty_cache()
        assert released == 256
        with pytest.raises(IllegalMemoryAccessError):
            process.allocator.resolve(buf.address)


class TestMagicWorkspaces:
    def test_setup_writes_magic_values(self, process):
        spec = process.catalog.kernel("_ZN7cublas_sim4gemmEv")
        addr_a, addr_b = process.setup_magic(spec)
        want_a, want_b = magic_values(spec.name)
        assert process.allocator.resolve(addr_a).read()[0, 0] == want_a
        assert process.allocator.resolve(addr_b).read()[0, 0] == want_b
        assert process.has_magic(spec.name)

    def test_reset_magic_workspaces_frees_and_clears(self, process):
        spec = process.catalog.kernel("_ZN7cublas_sim4gemmEv")
        addr_a, _addr_b = process.setup_magic(spec)
        process.reset_magic_workspaces()
        assert not process.has_magic(spec.name)
        # Buffers went back to the pool: same-size malloc reuses them.
        reused = process.malloc(4)
        assert reused.address in (addr_a, _addr_b)


class TestInterception:
    class _Recorder(Interceptor):
        def __init__(self):
            self.allocs = []
            self.frees = []
            self.empties = 0

        def on_alloc(self, buffer: Buffer):
            self.allocs.append(buffer.alloc_index)

        def on_free(self, buffer: Buffer):
            self.frees.append(buffer.alloc_index)

        def on_empty_cache(self):
            self.empties += 1

    def test_hooks_fire(self, process):
        recorder = self._Recorder()
        process.add_interceptor(recorder)
        buf = process.malloc(256)
        process.pool_free(buf.address)
        process.empty_cache()
        process.remove_interceptor(recorder)
        process.malloc(256)
        assert recorder.allocs == [buf.alloc_index]
        assert recorder.frees == [buf.alloc_index]
        assert recorder.empties == 1

    def test_interception_costs_time(self, process):
        before = process.clock.now
        process.malloc(256)
        assert process.clock.now == before   # no interceptor: free
        process.add_interceptor(self._Recorder())
        process.malloc(256)
        assert process.clock.now > before

    def test_batch_replay_refused_while_intercepting(self, process):
        from tests.simgpu.replay_helpers import make_table
        table = make_table([(0, 0, 256, 0, 0, 0)])
        recorder = self._Recorder()
        process.add_interceptor(recorder)
        with pytest.raises(InvalidValueError, match="interceptor"):
            process.replay(table)
        assert process.allocator.num_allocations == 0
        process.remove_interceptor(recorder)
        assert process.replay(table)[0] == 1


class TestSnapshots:
    def test_snapshot_restore_roundtrip(self, process):
        buf = process.malloc(256, payload=np.ones((2, 2)))
        snapshot = process.snapshot_payloads()
        buf.write(np.zeros((2, 2)))
        process.restore_payloads(snapshot)
        np.testing.assert_array_equal(buf.read(), np.ones((2, 2)))

    def test_snapshot_handles_uninitialized(self, process):
        buf = process.malloc(256)
        snapshot = process.snapshot_payloads()
        buf.write(np.ones((2, 2)))
        process.restore_payloads(snapshot)
        assert buf.payload is None
