"""Chunk-granular artifact serialization (repro.core.chunks) and the
content-addressed chunk store paths built on it."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.core.binfmt import load_binary, save_binary
from repro.core.chunks import (
    KIND_GRAPH_HEAD,
    KIND_GRAPH_TAIL,
    ChunkManifest,
    ChunkedLazyArtifact,
    chunk_digest,
    chunk_model,
    graph_head_chunk_name,
    pack_chunk,
    simulation_chunks,
    unpack_chunk,
)
from repro.core.store import ArtifactStore
from repro.errors import ArtifactError


@pytest.fixture(scope="module")
def tiny2l(tiny2l_artifact):
    artifact, _ = tiny2l_artifact
    return artifact


@pytest.fixture(scope="module")
def chunked(tiny2l):
    return chunk_model(tiny2l)


class TestPackFormat:
    def test_round_trip(self):
        members = {"a": np.arange(7, dtype=np.int64),
                   "b": np.linspace(0.0, 1.0, 5)}
        blob = pack_chunk(members)
        back = unpack_chunk(blob)
        assert set(back) == {"a", "b"}
        np.testing.assert_array_equal(back["a"], members["a"])
        np.testing.assert_array_equal(back["b"], members["b"])

    def test_pack_is_deterministic_regardless_of_insertion_order(self):
        a = {"x": np.ones(3), "y": np.zeros(2)}
        b = {"y": np.zeros(2), "x": np.ones(3)}
        assert pack_chunk(a) == pack_chunk(b)
        assert chunk_digest(pack_chunk(a)) == chunk_digest(pack_chunk(b))

    def test_corrupt_blob_is_rejected(self):
        blob = pack_chunk({"a": np.arange(3)})
        with pytest.raises(ArtifactError):
            unpack_chunk(b"XXXX" + blob[4:])


class TestChunkModel:
    def test_manifest_is_deterministic(self, tiny2l):
        m1, blobs1 = chunk_model(tiny2l)
        m2, blobs2 = chunk_model(tiny2l)
        assert m1.to_json() == m2.to_json()
        assert blobs1 == blobs2

    def test_manifest_json_round_trip(self, chunked):
        manifest, _ = chunked
        back = ChunkManifest.from_json(manifest.to_json())
        assert back.to_json() == manifest.to_json()
        assert back.batches == manifest.batches

    def test_every_graph_has_head_and_tail(self, tiny2l, chunked):
        manifest, _ = chunked
        kinds = {}
        for ref in manifest.chunks:
            kinds.setdefault(ref.kind, []).append(ref)
        batches = sorted(tiny2l.graphs)
        assert sorted(r.batch for r in kinds[KIND_GRAPH_HEAD]) == batches
        assert sorted(r.batch for r in kinds[KIND_GRAPH_TAIL]) == batches

    def test_foreground_excludes_only_nonlargest_tails(self, chunked):
        manifest, _ = chunked
        background = manifest.background_chunks()
        largest = max(manifest.batches)
        assert background
        for ref in background:
            assert ref.kind == KIND_GRAPH_TAIL and ref.batch != largest
        assert manifest.foreground_bytes < manifest.total_bytes

    def test_materialize_is_byte_identical_to_monolithic(self, tiny2l,
                                                         chunked,
                                                         tmp_path):
        manifest, blobs = chunked
        path = tmp_path / "mono.npz"
        save_binary(tiny2l, path)
        mono = load_binary(path)
        lazy = ChunkedLazyArtifact.from_blobs(manifest, blobs)
        assert lazy.materialize().to_json() == mono.to_json()

    def test_simulation_chunks_mirror_manifest(self, chunked):
        manifest, _ = chunked
        metas = simulation_chunks(manifest)
        assert [m.name for m in metas] == [r.name for r in manifest.chunks]
        assert sum(m.nbytes for m in metas) == manifest.total_bytes
        assert sum(m.nbytes for m in metas if m.foreground) \
            == manifest.foreground_bytes


class TestChunkedLazyArtifact:
    def test_first_layer_table_loads_only_head_chunks(self, chunked):
        manifest, blobs = chunked
        lazy = ChunkedLazyArtifact.from_blobs(manifest, blobs)
        batch = max(manifest.batches)
        table = lazy.first_layer_table(batch)
        assert table.num_nodes > 0
        loaded = lazy.reader.loaded_chunks
        assert graph_head_chunk_name(batch) in loaded
        assert not any(manifest.chunk(name).kind == KIND_GRAPH_TAIL
                       for name in loaded)

    def test_graph_table_concatenates_head_and_tail(self, tiny2l, chunked):
        manifest, blobs = chunked
        lazy = ChunkedLazyArtifact.from_blobs(manifest, blobs)
        for batch in manifest.batches:
            table = lazy.graph_table(batch)
            assert table.num_nodes == tiny2l.graphs[batch].num_nodes

    def test_permanent_contents_come_from_dumps_chunk(self, tiny2l,
                                                      chunked):
        manifest, blobs = chunked
        lazy = ChunkedLazyArtifact.from_blobs(manifest, blobs)
        assert set(lazy.permanent_contents) \
            == set(tiny2l.permanent_contents)


class TestStoreChunking:
    def test_sibling_model_dedups_every_chunk(self, tiny2l, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put(tiny2l)
        sibling = dataclasses.replace(tiny2l, model_name="Tiny-2L-twin")
        store.put(sibling)
        stats = store.stats()
        assert stats["total_chunks"] == 2 * stats["unique_chunks"]
        assert stats["dedup_ratio"] == pytest.approx(2.0)
        assert store.chunks_deduped > 0
        # Both identities materialize independently and identically.
        a = store.get(tiny2l.gpu_name, tiny2l.model_name)
        b = store.get(sibling.gpu_name, sibling.model_name)
        assert a.model_name != b.model_name
        assert a.graphs.keys() == b.graphs.keys()

    def test_delete_keeps_shared_chunks_until_last_reference(
            self, tiny2l, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put(tiny2l)
        sibling = dataclasses.replace(tiny2l, model_name="Tiny-2L-twin")
        store.put(sibling)
        store.delete(sibling.gpu_name, sibling.model_name)
        # The survivor still materializes: its chunks were not GC'd.
        survivor = store.get(tiny2l.gpu_name, tiny2l.model_name)
        assert survivor.model_name == tiny2l.model_name
        assert store.stats()["unique_chunks"] > 0
        store.delete(tiny2l.gpu_name, tiny2l.model_name)
        assert store.stats()["unique_chunks"] == 0

    def test_stats_shape_is_json_serializable(self, tiny2l, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put(tiny2l)
        stats = store.stats()
        encoded = json.loads(json.dumps(stats))
        key = f"{tiny2l.gpu_name}::{tiny2l.model_name}"
        assert encoded["models"][key]["chunks"] \
            == len(store.manifest(tiny2l.gpu_name,
                                  tiny2l.model_name).chunks)


class TestChunkedColdStart:
    def test_chunked_plan_cold_start_matches_pipelined_graphs(
            self, tiny2l, tmp_path):
        from repro.core.binfmt import LazyArtifact
        from repro.core.online import prepare_medusa_cold_start
        from repro.simgpu.process import ExecutionMode
        from tests.conftest import tiny_cost_model

        store = ArtifactStore(tmp_path / "store")
        store.put(tiny2l)
        lazy = store.get_lazy(tiny2l.gpu_name, tiny2l.model_name)
        engine, restorer = prepare_medusa_cold_start(
            "Tiny-2L", lazy, mode=ExecutionMode.COMPUTE,
            cost_model=tiny_cost_model())
        report = engine.cold_start(restorer=restorer)
        assert report.timeline.plan == "medusa-chunked"

        npz = tmp_path / "mono.npz"
        save_binary(tiny2l, npz)
        engine2, restorer2 = prepare_medusa_cold_start(
            "Tiny-2L", LazyArtifact(npz), mode=ExecutionMode.COMPUTE,
            cost_model=tiny_cost_model())
        baseline = engine2.cold_start(restorer=restorer2)
        assert baseline.timeline.plan == "medusa-pipelined"
        assert set(engine.capture_artifacts.execs) \
            == set(engine2.capture_artifacts.execs)

    def test_foreground_fetch_is_smaller_than_monolithic(self, tiny2l,
                                                         tmp_path):
        from repro.core.binfmt import LazyArtifact
        from repro.core.online import prepare_medusa_cold_start
        from repro.engine.loadplan import (
            FETCH_ARTIFACT,
            FETCH_CHUNK_PATTERN,
        )
        from repro.simgpu.process import ExecutionMode
        from tests.conftest import tiny_cost_model

        store = ArtifactStore(tmp_path / "store")
        store.put(tiny2l)
        lazy = store.get_lazy(tiny2l.gpu_name, tiny2l.model_name)
        engine, restorer = prepare_medusa_cold_start(
            "Tiny-2L", lazy, mode=ExecutionMode.TIMING,
            cost_model=tiny_cost_model())
        chunked = engine.cold_start(restorer=restorer).timeline

        npz = tmp_path / "mono.npz"
        save_binary(tiny2l, npz)
        engine2, restorer2 = prepare_medusa_cold_start(
            "Tiny-2L", LazyArtifact(npz), mode=ExecutionMode.TIMING,
            cost_model=tiny_cost_model())
        mono = engine2.cold_start(restorer=restorer2).timeline

        fg_fetch = sum(
            s.duration for s in chunked.stages
            if FETCH_CHUNK_PATTERN.match(s.name) and not s.background)
        bg_fetch = sum(
            s.duration for s in chunked.stages
            if FETCH_CHUNK_PATTERN.match(s.name) and s.background)
        mono_fetch = mono.stage(FETCH_ARTIFACT).duration
        assert fg_fetch < mono_fetch
        # The whole stream still moves the same simulated bytes.
        assert fg_fetch + bg_fetch == pytest.approx(mono_fetch)
