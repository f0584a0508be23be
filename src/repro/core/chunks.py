"""Chunk-granular, content-addressed artifact format (§7.4 fetch path).

A monolithic ``.npz`` artifact forces a cold remote fetch to pay for every
byte before ``restore_graph[0]`` can begin, and two structurally identical
artifacts (the same model on two nodes, or a fine-tune sibling) share zero
bytes on the wire.  This module splits the same arrays
:func:`repro.core.binfmt.save_binary` writes into **fixed-policy chunks**,
each addressed by the sha256 of its (deterministic) serialized bytes:

- ``kernels`` — the shared kernel-name/pool/tag string tables;
- ``replay[j]`` — the six replay-event columns, sharded every
  :data:`REPLAY_SHARD_EVENTS` rows;
- ``dumps`` — the permanent-buffer contents (§4.3), pulled out of the
  metadata so the manifest stays small;
- ``graph[b].head`` — the first ``min(first_layer_nodes, num_nodes)``
  nodes of batch ``b``'s graph table (everything ``restore_warmup``
  touches);
- ``graph[b].tail`` — the remaining nodes plus the edge list.

The *manifest* (:class:`ChunkManifest`) is the small JSON that remains:
artifact metadata plus the ordered chunk list with digests and sizes.
Identical content ⇒ identical digest ⇒ one stored blob, however many
manifests reference it — that is the whole dedup story, and it is why
:func:`pack_chunk` is a hand-rolled deterministic container instead of
``np.savez`` (zip entries embed wall-clock timestamps, which would give
identical arrays different digests).

:class:`ChunkReader` re-presents a manifest + chunk loader as the
dict-of-arrays mapping :class:`~repro.core.binfmt.LazyArtifact` reads, so
:class:`ChunkedLazyArtifact` preserves lazy/materialize semantics
byte-identically while loading only the chunks a consumer touches.
"""

from __future__ import annotations

import hashlib
import io
import json
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.artifact import MaterializedModel
from repro.core.binfmt import GraphTable, LazyArtifact, artifact_arrays
from repro.errors import ArtifactError

#: Version byte of the chunk container + manifest schema.
CHUNK_FORMAT_VERSION = 1

#: Replay shard granularity: one chunk per this many replay events.  ~65k
#: events (paper scale) become four shards, so a tier cache can keep the
#: hot prefix without the whole event log.
REPLAY_SHARD_EVENTS = 16384

#: Magic prefix of a packed chunk blob (before zlib).
_CHUNK_MAGIC = b"MCHK\x01"

#: The six replay-event columns sharded into ``replay[j]`` chunks.
REPLAY_MEMBERS = ("ev_kind", "ev_alloc_index", "ev_size", "ev_pooled",
                  "ev_tag", "ev_pool")

#: String-table members of the ``kernels`` chunk.
KERNEL_MEMBERS = ("kernel_names", "pools", "tags")

#: Single member of the ``dumps`` chunk: the permanent-contents mapping as
#: one JSON string (kept out of the manifest metadata).
DUMPS_MEMBER = "permanent_contents_json"

KIND_KERNELS = "kernels"
KIND_REPLAY = "replay"
KIND_DUMPS = "dumps"
KIND_GRAPH_HEAD = "graph_head"
KIND_GRAPH_TAIL = "graph_tail"


def replay_chunk_name(shard: int) -> str:
    """Canonical name of replay shard ``shard``."""
    return f"replay[{shard}]"


def graph_head_chunk_name(batch: int) -> str:
    """Canonical name of batch ``batch``'s first-layer head chunk."""
    return f"graph[{batch}].head"


def graph_tail_chunk_name(batch: int) -> str:
    """Canonical name of batch ``batch``'s tail chunk."""
    return f"graph[{batch}].tail"


# ---------------------------------------------------------------------------
# Deterministic chunk container
# ---------------------------------------------------------------------------

def pack_chunk(members: Dict[str, np.ndarray]) -> bytes:
    """Serialize ``members`` deterministically and compress with zlib.

    Layout (before compression): magic, then for each member in sorted
    name order a ``<I``-length-prefixed UTF-8 name followed by a
    ``<Q``-length-prefixed ``np.save`` payload.  Nothing in the container
    depends on when it was written, so equal arrays always produce equal
    bytes — the property content addressing needs.
    """
    raw = io.BytesIO()
    raw.write(_CHUNK_MAGIC)
    for name in sorted(members):
        payload = io.BytesIO()
        np.save(payload, members[name], allow_pickle=False)
        encoded = name.encode("utf-8")
        raw.write(struct.pack("<I", len(encoded)))
        raw.write(encoded)
        data = payload.getvalue()
        raw.write(struct.pack("<Q", len(data)))
        raw.write(data)
    return zlib.compress(raw.getvalue(), 6)


def unpack_chunk(blob: bytes) -> Dict[str, np.ndarray]:
    """Invert :func:`pack_chunk`."""
    try:
        raw = zlib.decompress(blob)
    except zlib.error as exc:
        raise ArtifactError(f"corrupt chunk blob: {exc}") from exc
    if not raw.startswith(_CHUNK_MAGIC):
        raise ArtifactError("corrupt chunk blob: bad magic")
    members: Dict[str, np.ndarray] = {}
    view = memoryview(raw)
    offset = len(_CHUNK_MAGIC)
    total = len(raw)
    while offset < total:
        (name_len,) = struct.unpack_from("<I", view, offset)
        offset += 4
        name = bytes(view[offset:offset + name_len]).decode("utf-8")
        offset += name_len
        (data_len,) = struct.unpack_from("<Q", view, offset)
        offset += 8
        members[name] = np.load(
            io.BytesIO(bytes(view[offset:offset + data_len])),
            allow_pickle=False)
        offset += data_len
    return members


def chunk_digest(blob: bytes) -> str:
    """Content address of a packed chunk blob."""
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChunkRef:
    """One chunk as the manifest records it."""
    name: str
    digest: str
    nbytes: int
    kind: str
    members: Tuple[str, ...]
    batch: Optional[int] = None

    def to_dict(self) -> dict:
        entry = {"name": self.name, "digest": self.digest,
                 "nbytes": self.nbytes, "kind": self.kind,
                 "members": list(self.members)}
        if self.batch is not None:
            entry["batch"] = self.batch
        return entry

    @classmethod
    def from_dict(cls, entry: dict) -> "ChunkRef":
        return cls(name=entry["name"], digest=entry["digest"],
                   nbytes=int(entry["nbytes"]), kind=entry["kind"],
                   members=tuple(entry["members"]),
                   batch=entry.get("batch"))


@dataclass(frozen=True)
class ChunkMeta:
    """What the cluster simulator needs to know about one chunk."""
    name: str
    digest: str
    nbytes: int
    foreground: bool = True


@dataclass(frozen=True)
class ChunkManifest:
    """The small JSON that replaces a monolithic artifact file.

    ``metadata`` is the :func:`~repro.core.binfmt.artifact_arrays` metadata
    dict with ``permanent_contents`` hollowed out (it lives in the
    ``dumps`` chunk); ``chunks`` is the canonical fetch order — kernels,
    replay shards, dumps, graph heads (batches descending), graph tails
    (batches descending).  Serialization sorts keys, so equal manifests
    are equal bytes and the store's content-hash LRU keeps working.
    """
    metadata: dict
    chunks: Tuple[ChunkRef, ...]

    @property
    def model_name(self) -> str:
        return self.metadata["model_name"]

    @property
    def gpu_name(self) -> str:
        return self.metadata["gpu_name"]

    @property
    def batches(self) -> List[int]:
        return [int(b) for b in self.metadata["batches"]]

    @property
    def total_bytes(self) -> int:
        """Sum of all chunk sizes (compressed, as stored)."""
        return sum(ref.nbytes for ref in self.chunks)

    @property
    def foreground_bytes(self) -> int:
        """Bytes a cold start must fetch before it can serve."""
        return sum(ref.nbytes for ref in self.foreground_chunks())

    def chunk(self, name: str) -> ChunkRef:
        for ref in self.chunks:
            if ref.name == name:
                return ref
        raise ArtifactError(f"manifest has no chunk named {name!r}")

    def chunk_index(self, name: str) -> int:
        for index, ref in enumerate(self.chunks):
            if ref.name == name:
                return index
        raise ArtifactError(f"manifest has no chunk named {name!r}")

    def foreground_chunks(self) -> Tuple[ChunkRef, ...]:
        """Chunks ``restore_graph[0]`` needs: everything except the tails
        of the non-largest batches (which stream in the background, like
        PR 4's background ``restore_graph`` stages)."""
        largest = max(self.batches) if self.batches else None
        return tuple(
            ref for ref in self.chunks
            if ref.kind != KIND_GRAPH_TAIL or ref.batch == largest)

    def background_chunks(self) -> Tuple[ChunkRef, ...]:
        """Tail chunks of the non-largest batches, batches descending."""
        largest = max(self.batches) if self.batches else None
        return tuple(
            ref for ref in self.chunks
            if ref.kind == KIND_GRAPH_TAIL and ref.batch != largest)

    def to_json(self) -> str:
        # The metadata dict is embedded pre-serialized (the same trick
        # save_binary uses for the npz metadata member): sort_keys on the
        # envelope keeps equal manifests byte-equal, while the embedded
        # string preserves the artifact's own key order — materializing
        # from a round-tripped manifest stays byte-identical.
        return json.dumps({
            "chunk_format_version": CHUNK_FORMAT_VERSION,
            "metadata": json.dumps(self.metadata),
            "chunks": [ref.to_dict() for ref in self.chunks],
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ChunkManifest":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ArtifactError(f"unreadable chunk manifest: {exc}") from exc
        version = payload.get("chunk_format_version")
        if version != CHUNK_FORMAT_VERSION:
            raise ArtifactError(
                f"chunk manifest has format version {version!r} but this "
                f"code reads version {CHUNK_FORMAT_VERSION}")
        metadata = payload["metadata"]
        if isinstance(metadata, str):
            metadata = json.loads(metadata)
        return cls(metadata=metadata,
                   chunks=tuple(ChunkRef.from_dict(entry)
                                for entry in payload["chunks"]))


def simulation_chunks(manifest: ChunkManifest) -> Tuple[ChunkMeta, ...]:
    """The manifest's chunks as the duck-typed records
    :class:`repro.serverless.simulator.SimulationConfig` accepts."""
    foreground = {ref.name for ref in manifest.foreground_chunks()}
    return tuple(ChunkMeta(name=ref.name, digest=ref.digest,
                           nbytes=ref.nbytes,
                           foreground=ref.name in foreground)
                 for ref in manifest.chunks)


# ---------------------------------------------------------------------------
# Chunking policy: arrays -> (manifest, blobs)
# ---------------------------------------------------------------------------

def chunk_model(artifact: MaterializedModel,
                replay_shard_events: int = REPLAY_SHARD_EVENTS,
                ) -> Tuple[ChunkManifest, Dict[str, bytes]]:
    """Split ``artifact`` into content-addressed chunks.

    Returns the manifest plus ``digest -> packed blob`` for every chunk it
    references.  Chunks with equal content collapse to one dict entry, so
    ``len(blobs)`` can be smaller than ``len(manifest.chunks)`` even for a
    single artifact.
    """
    if replay_shard_events < 1:
        raise ArtifactError("replay_shard_events must be >= 1")
    arrays, metadata = artifact_arrays(artifact)
    refs: List[ChunkRef] = []
    blobs: Dict[str, bytes] = {}

    def emit(name: str, kind: str, members: Dict[str, np.ndarray],
             batch: Optional[int] = None) -> None:
        blob = pack_chunk(members)
        digest = chunk_digest(blob)
        blobs[digest] = blob
        refs.append(ChunkRef(name=name, digest=digest, nbytes=len(blob),
                             kind=kind, members=tuple(sorted(members)),
                             batch=batch))

    emit(KIND_KERNELS, KIND_KERNELS,
         {member: arrays[member] for member in KERNEL_MEMBERS})

    num_events = int(arrays["ev_kind"].shape[0])
    shards = max(1, -(-num_events // replay_shard_events))
    for shard in range(shards):
        lo = shard * replay_shard_events
        hi = min(num_events, lo + replay_shard_events)
        emit(replay_chunk_name(shard), KIND_REPLAY,
             {member: arrays[member][lo:hi] for member in REPLAY_MEMBERS})

    dumps_json = json.dumps(metadata["permanent_contents"], sort_keys=True)
    emit(KIND_DUMPS, KIND_DUMPS, {DUMPS_MEMBER: np.array([dumps_json])})

    batches = sorted(metadata["batches"], reverse=True)
    first_layer = int(metadata["first_layer_nodes"])
    splits = {}
    for batch in batches:
        prefix = f"g{batch}_"
        num_nodes = int(arrays[prefix + "kernel"].shape[0])
        count = min(first_layer, num_nodes)
        pstop = int(arrays[prefix + "param_offsets"][count])
        splits[batch] = (count, pstop)
        emit(graph_head_chunk_name(batch), KIND_GRAPH_HEAD, {
            prefix + "kernel": arrays[prefix + "kernel"][:count],
            prefix + "batchdim": arrays[prefix + "batchdim"][:count],
            prefix + "param_offsets":
                arrays[prefix + "param_offsets"][:count + 1],
            prefix + "param_sizes": arrays[prefix + "param_sizes"][:pstop],
            prefix + "param_kinds": arrays[prefix + "param_kinds"][:pstop],
            prefix + "param_values": arrays[prefix + "param_values"][:pstop],
            prefix + "param_byte_offsets":
                arrays[prefix + "param_byte_offsets"][:pstop],
        }, batch=batch)
    for batch in batches:
        prefix = f"g{batch}_"
        count, pstop = splits[batch]
        emit(graph_tail_chunk_name(batch), KIND_GRAPH_TAIL, {
            prefix + "kernel": arrays[prefix + "kernel"][count:],
            prefix + "batchdim": arrays[prefix + "batchdim"][count:],
            prefix + "param_offsets":
                arrays[prefix + "param_offsets"][count + 1:],
            prefix + "param_sizes": arrays[prefix + "param_sizes"][pstop:],
            prefix + "param_kinds": arrays[prefix + "param_kinds"][pstop:],
            prefix + "param_values": arrays[prefix + "param_values"][pstop:],
            prefix + "param_byte_offsets":
                arrays[prefix + "param_byte_offsets"][pstop:],
            prefix + "edges": arrays[prefix + "edges"],
        }, batch=batch)

    metadata = dict(metadata)
    metadata["permanent_contents"] = {}
    manifest = ChunkManifest(metadata=metadata, chunks=tuple(refs))
    return manifest, blobs


# ---------------------------------------------------------------------------
# Readers
# ---------------------------------------------------------------------------

def directory_loader(chunk_dir) -> Callable[[ChunkRef], bytes]:
    """A loader reading blobs from ``chunk_dir/<digest>`` files."""
    root = Path(chunk_dir)

    def load(ref: ChunkRef) -> bytes:
        path = root / ref.digest
        try:
            return path.read_bytes()
        except FileNotFoundError as exc:
            raise ArtifactError(
                f"chunk {ref.name} ({ref.digest[:12]}…) missing from "
                f"{root}") from exc
    return load


def memory_loader(blobs: Dict[str, bytes]) -> Callable[[ChunkRef], bytes]:
    """A loader serving the in-memory ``digest -> blob`` mapping
    :func:`chunk_model` returns."""
    def load(ref: ChunkRef) -> bytes:
        try:
            return blobs[ref.digest]
        except KeyError as exc:
            raise ArtifactError(
                f"chunk {ref.name} ({ref.digest[:12]}…) missing from "
                f"in-memory blob set") from exc
    return load


class ChunkReader:
    """Present manifest + loader as the member mapping ``np.load`` returns.

    ``reader[member]`` locates the chunk(s) owning ``member`` in manifest
    order, decompresses them on first touch (verifying each blob against
    its content address), and concatenates multi-chunk members — replay
    columns across shards, graph arrays across head and tail.  Only the
    chunks a member actually lives in are loaded, which is what keeps
    :meth:`ChunkedLazyArtifact.first_layer_table` from paying for tails.
    """

    def __init__(self, manifest: ChunkManifest,
                 loader: Callable[[ChunkRef], bytes]):
        self.manifest = manifest
        self._loader = loader
        self._chunks: Dict[str, Dict[str, np.ndarray]] = {}
        self._refs: Dict[str, ChunkRef] = {}
        self._sources: Dict[str, List[str]] = {}
        for ref in manifest.chunks:
            self._refs[ref.name] = ref
            for member in ref.members:
                self._sources.setdefault(member, []).append(ref.name)

    def __contains__(self, member: str) -> bool:
        return member in self._sources

    def __iter__(self) -> Iterator[str]:
        return iter(self._sources)

    def keys(self):
        return self._sources.keys()

    @property
    def loaded_chunks(self) -> frozenset:
        """Names of the chunks decompressed so far."""
        return frozenset(self._chunks)

    def _decode(self, name: str) -> Dict[str, np.ndarray]:
        ref = self._refs[name]
        blob = self._loader(ref)
        if chunk_digest(blob) != ref.digest:
            raise ArtifactError(
                f"chunk {ref.name} failed content-hash verification "
                f"(expected {ref.digest[:12]}…)")
        return unpack_chunk(blob)

    def chunk(self, name: str) -> Dict[str, np.ndarray]:
        """The decompressed member dict of one chunk (cached)."""
        members = self._chunks.get(name)
        if members is None:
            if name not in self._refs:
                raise ArtifactError(f"manifest has no chunk named {name!r}")
            members = self._decode(name)
            self._chunks[name] = members
        return members

    def __getitem__(self, member: str) -> np.ndarray:
        sources = self._sources.get(member)
        if not sources:
            raise KeyError(member)
        parts = [self.chunk(name)[member] for name in sources]
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts)


class ChunkedLazyArtifact(LazyArtifact):
    """A :class:`~repro.core.binfmt.LazyArtifact` backed by chunks.

    Every inherited accessor works unchanged — the :class:`ChunkReader`
    stands in for the npz mapping, concatenating shards and head/tail
    splits back into the exact arrays :func:`save_binary` wrote.  On top
    of that it (a) serves ``permanent_contents`` from the ``dumps`` chunk
    (the manifest metadata carries an empty placeholder) and (b) overrides
    :meth:`first_layer_table` to decompress only the head chunk, which is
    what lets a chunked load plan keep graph tails off the foreground
    fetch path.
    """

    def __init__(self, manifest: ChunkManifest,
                 loader: Callable[[ChunkRef], bytes], path="<chunks>"):
        reader = ChunkReader(manifest, loader)
        super().__init__(path, data=reader, meta=dict(manifest.metadata))
        self.chunk_manifest = manifest
        self.reader = reader
        self._dump_rows: Optional[dict] = None
        self._head_tables: Dict[int, GraphTable] = {}

    @classmethod
    def from_blobs(cls, manifest: ChunkManifest, blobs: Dict[str, bytes],
                   path="<chunks>") -> "ChunkedLazyArtifact":
        return cls(manifest, memory_loader(blobs), path=path)

    def _dumps(self) -> dict:
        if self._dump_rows is None:
            member = self.reader.chunk(KIND_DUMPS)[DUMPS_MEMBER]
            self._dump_rows = json.loads(str(member[0]))
        return self._dump_rows

    @property
    def permanent_contents(self) -> Dict[int, List[List[float]]]:
        """Alloc index -> dumped payload rows, from the dumps chunk."""
        return {int(k): v for k, v in self._dumps().items()}

    def permanent_payload(self, alloc_index: int) -> np.ndarray:
        rows = self._dumps().get(str(alloc_index))
        if rows is None:
            raise ArtifactError(
                f"no dumped contents for allocation {alloc_index}")
        return np.array(rows, dtype=np.float64)

    def first_layer_table(self, batch: int) -> GraphTable:
        """Batch ``batch``'s warmup prefix from the head chunk alone."""
        table = self._head_tables.get(batch)
        if table is None:
            if batch not in self.batches:
                raise ArtifactError(
                    f"artifact for {self.model_name} has no graph for "
                    f"batch {batch} (has: {self.batches})")
            members = self.reader.chunk(graph_head_chunk_name(batch))
            prefix = f"g{batch}_"
            meta = self._meta["graph_meta"][str(batch)]
            table = GraphTable(
                batch_size=batch,
                kernel_ids=members[prefix + "kernel"],
                kernel_names=self.kernel_name_table(),
                batch_dims=members[prefix + "batchdim"],
                param_offsets=members[prefix + "param_offsets"],
                param_sizes=members[prefix + "param_sizes"],
                param_kinds=members[prefix + "param_kinds"],
                param_values=members[prefix + "param_values"],
                param_byte_offsets=members[prefix + "param_byte_offsets"],
                edges=np.empty((0, 2), dtype=np.int64),
                param_bytes=int(meta[0]),
                num_tokens=int(meta[1]),
            )
            self._head_tables[batch] = table
        return table
