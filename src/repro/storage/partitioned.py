"""Out-of-core, time-partitioned page directories (PR 8).

A *partitioned* graph directory holds one PR 3 page set
(:meth:`~repro.storage.numpy_backend.NumpyStorage.save` layout) per time
interval under ``part-00000/``, ``part-00001/``, ... plus a top-level
``manifest.json``::

    {
      "format": "repro-numpy-pages-partitioned",
      "version": 1,
      "name": "<graph name>",
      "n_events": 123456,
      "partition_events": 65536,
      "partitions": [
        {"dir": "part-00000", "ev_lo": 0, "n_events": 65531,
         "t_min": 0.0, "t_max": 812.0},
        ...
      ]
    }

Three invariants make the layout queryable without touching the pages:

* ``ev_lo`` offsets are contiguous (``ev_lo[p] + n_events[p] ==
  ev_lo[p+1]``), so a global event index maps to a partition by one
  bisect over the manifest;
* partitions are time-ordered and **tick-aligned** — ``t_max[p] <
  t_min[p+1]`` strictly, i.e. all events sharing a timestamp live in one
  partition — so a closed time window maps to a contiguous partition
  range by two bisects over the manifest bounds;
* each partition is a self-contained flat page set, so opening one is a
  plain :func:`~repro.storage.numpy_backend.load_pages` mmap.

:func:`write_partitioned` produces the layout from an event *stream*
with bounded memory (it never holds more than roughly one partition of
events), in the chunked-merge idiom: buffer, sort/validate the buffer,
hold back the trailing same-timestamp run so ticks never straddle a
partition edge, flush the rest as one partition.  A tick larger than
``partition_events`` simply grows its partition until the tick ends.

:class:`PartitionedStorage` opens partitions lazily (``mmap_mode="r"``)
and keeps at most ``max_resident`` of them open in an LRU, so the
resident set stays bounded no matter how large the directory is.  It is
**read-only** (:meth:`append` raises); the hot windowed queries touch
only the partitions overlapping the window, while the whole-stream
materialized views (``events``, ``times``, the adjacency dicts) remain
available as O(m) correctness fallbacks.  Those fallbacks, and a slice
of the whole multi-partition stream, void the memory bound, so they are
loud: each counts ``storage.partition.materialize`` and the first per
storage warns.  Serial ``enumerate_instances`` and root-shard routing
of a predicate that is not shard-safe take that path.  Census
execution over a partitioned graph routes through the sharded engine
even at ``jobs=1`` (see
:attr:`~repro.storage.base.GraphStorage.prefers_sharded_execution`):
each shard rebuilds an in-memory numpy storage covering just its
δ-overlapped window, so peak memory follows the largest shard, not the
stream.
"""

from __future__ import annotations

import bisect
import json
import os
import shutil
import tempfile
import warnings
import weakref
from collections import OrderedDict
from typing import ClassVar, Iterable, Iterator, Mapping, Sequence

import repro.obs as _obs
from repro.core.events import Event, validate_events
from repro.storage.base import GraphStorage
from repro.storage.numpy_backend import NumpyStorage, available, load_pages

try:  # optional dependency — mirrors numpy_backend's guard
    import numpy as np
except ImportError:  # pragma: no cover
    np = None

#: Format tag of the top-level ``manifest.json``.
PARTITIONED_FORMAT = "repro-numpy-pages-partitioned"

#: Layout version this build reads and writes.
PARTITIONED_VERSION = 1

#: File name of the top-level manifest inside a partitioned directory.
MANIFEST_NAME = "manifest.json"

#: Default events per partition for :func:`write_partitioned`.
DEFAULT_PARTITION_EVENTS = 65536

#: Default bound on simultaneously open (mmap-resident) partitions.
DEFAULT_MAX_RESIDENT = 4

#: ``shard_payload`` marker: workers rebuild the range from the manifest.
_SHARD_KIND = PARTITIONED_FORMAT + "-range"


# ----------------------------------------------------------------------
# streaming writer
# ----------------------------------------------------------------------
def write_partitioned(
    events: Iterable[Event],
    path: str | os.PathLike,
    *,
    partition_events: int = DEFAULT_PARTITION_EVENTS,
    name: str = "",
) -> dict:
    """Write ``events`` as a partitioned page directory; return the manifest.

    The input may be any iterable of :class:`Event` or plain 3-tuples.
    Memory stays bounded by roughly one partition: events are buffered
    up to ``partition_events``, each buffer is validated and
    ``(t, u, v)``-sorted on its own, and the trailing run sharing the
    buffer's final timestamp is held back for the next buffer so no tick
    ever straddles a partition boundary.  Consequently the input may
    arrive in any order *within* a buffer, but an event whose timestamp
    is at or before an already-flushed partition raises
    :class:`ValueError` — streams far from time order need an external
    sort first.
    """
    if not available():  # pragma: no cover - numpy-less builds
        raise RuntimeError("writing partitioned page graphs requires NumPy")
    partition_events = int(partition_events)
    if partition_events < 1:
        raise ValueError(f"partition_events must be >= 1, got {partition_events}")
    path = os.fspath(path)
    os.makedirs(path, exist_ok=True)

    partitions: list[dict] = []
    n_total = 0
    watermark: float | None = None  # t_max of the last flushed partition

    def flush(chunk: Sequence[Event]) -> None:
        nonlocal n_total, watermark
        sub = f"part-{len(partitions):05d}"
        NumpyStorage.from_events(chunk, presorted=True).save(os.path.join(path, sub))
        partitions.append(
            {
                "dir": sub,
                "ev_lo": n_total,
                "n_events": len(chunk),
                "t_min": chunk[0].t,
                "t_max": chunk[-1].t,
            }
        )
        n_total += len(chunk)
        watermark = chunk[-1].t

    def sealed(buf: list[Event]) -> list[Event]:
        chunk = validate_events(buf)
        if watermark is not None and chunk and chunk[0].t <= watermark:
            raise ValueError(
                f"event at t={chunk[0].t!r} arrived after partition covering "
                f"up to t={watermark!r} was flushed; write_partitioned needs "
                "input within one buffer of time order (pre-sort the stream)"
            )
        return chunk

    buf: list[Event] = []
    for ev in events:
        buf.append(ev if isinstance(ev, Event) else Event(*ev[:3]))
        if len(buf) < partition_events:
            continue
        chunk = sealed(buf)
        # Hold back the (possibly still growing) trailing tick.
        cut = bisect.bisect_left([e.t for e in chunk], chunk[-1].t)
        if cut == 0:
            buf = chunk  # one giant tick — keep buffering until it ends
            continue
        flush(chunk[:cut])
        buf = chunk[cut:]
    if buf:
        flush(sealed(buf))

    manifest = {
        "format": PARTITIONED_FORMAT,
        "version": PARTITIONED_VERSION,
        "name": name,
        "n_events": n_total,
        "partition_events": partition_events,
        "partitions": partitions,
    }
    with open(os.path.join(path, MANIFEST_NAME), "w") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest


# ----------------------------------------------------------------------
# manifest access
# ----------------------------------------------------------------------
def is_partitioned(path: str | os.PathLike) -> bool:
    """True when ``path`` is a directory holding a partitioned manifest."""
    return os.path.exists(os.path.join(os.fspath(path), MANIFEST_NAME))


def partitioned_meta(path: str | os.PathLike) -> dict:
    """Read and sanity-check a partitioned directory's ``manifest.json``.

    Beyond the format/version tags this validates the two structural
    invariants every query relies on: contiguous ``ev_lo`` offsets and
    strictly increasing, tick-aligned time bounds.
    """
    path = os.fspath(path)
    manifest_path = os.path.join(path, MANIFEST_NAME)
    if not os.path.exists(manifest_path):
        raise FileNotFoundError(
            f"{path!r} is not a partitioned page graph directory (no manifest.json)"
        )
    with open(manifest_path) as fh:
        meta = json.load(fh)
    if meta.get("format") != PARTITIONED_FORMAT:
        raise ValueError(
            f"{path!r}: unrecognized partitioned format {meta.get('format')!r}"
        )
    if meta.get("version") != PARTITIONED_VERSION:
        raise ValueError(
            f"{path!r}: partitioned layout version {meta.get('version')!r} is "
            f"not supported (this build reads version {PARTITIONED_VERSION})"
        )
    offset = 0
    prev_t_max: float | None = None
    for part in meta.get("partitions", ()):
        if part["ev_lo"] != offset:
            raise ValueError(
                f"{path!r}: partition {part['dir']!r} starts at event "
                f"{part['ev_lo']} but {offset} events precede it"
            )
        if part["n_events"] < 1:
            raise ValueError(f"{path!r}: partition {part['dir']!r} is empty")
        if prev_t_max is not None and part["t_min"] <= prev_t_max:
            raise ValueError(
                f"{path!r}: partition {part['dir']!r} opens at t={part['t_min']!r}, "
                f"inside or before the previous partition (t_max={prev_t_max!r}); "
                "partitions must be tick-aligned and time-ordered"
            )
        offset += part["n_events"]
        prev_t_max = part["t_max"]
    if offset != meta.get("n_events"):
        raise ValueError(
            f"{path!r}: partitions hold {offset} events but the manifest "
            f"records {meta.get('n_events')}"
        )
    return meta


def load_partitioned(
    path: str | os.PathLike,
    *,
    mmap: bool = True,
    max_resident: int = DEFAULT_MAX_RESIDENT,
) -> tuple["PartitionedStorage", dict]:
    """Open a partitioned directory; return the storage and its manifest.

    The partitioned counterpart of
    :func:`~repro.storage.numpy_backend.load_pages` — only the manifest
    is read here; partitions open lazily as queries touch them.
    """
    storage = PartitionedStorage(path, mmap=mmap, max_resident=max_resident)
    return storage, storage.meta


# ----------------------------------------------------------------------
# the storage engine
# ----------------------------------------------------------------------
class PartitionedStorage(GraphStorage):
    """Lazy, bounded-residency view over a partitioned page directory.

    Partitions open on demand via
    :func:`~repro.storage.numpy_backend.load_pages` (memory-mapped by
    default) and are evicted least-recently-used once more than
    ``max_resident`` are open.  All whole-stream index arithmetic
    (event-index -> partition, time -> event-index) happens against the
    manifest, so queries touch only the partitions they need.

    Censuses route through the sharded engine
    (``prefers_sharded_execution``) whose workers rebuild plain
    in-memory :class:`NumpyStorage` shards.  A plan run directly on this
    storage (serial ``enumerate_instances``) takes the block lane over
    ``slice_range(0, m)``: the whole stream in memory, so that fold warns.
    """

    backend_name: ClassVar[str] = "partitioned"
    prefers_sharded_execution: ClassVar[bool] = True
    supports_append: ClassVar[bool] = False

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        mmap: bool = True,
        max_resident: int = DEFAULT_MAX_RESIDENT,
    ) -> None:
        self._path = os.fspath(path)
        self._meta = partitioned_meta(self._path)
        self._mmap = bool(mmap)
        self._max_resident = max(1, int(max_resident))
        parts = self._meta["partitions"]
        self._dirs: list[str] = [p["dir"] for p in parts]
        self._ev_lo: list[int] = [p["ev_lo"] for p in parts]
        self._n_part: list[int] = [p["n_events"] for p in parts]
        self._t_min: list[float] = [p["t_min"] for p in parts]
        self._t_max: list[float] = [p["t_max"] for p in parts]
        self._n: int = self._meta["n_events"]
        self._resident: OrderedDict[int, NumpyStorage] = OrderedDict()
        # Whole-stream materialized views (correctness fallbacks, O(m)).
        self._events_cache: tuple[Event, ...] | None = None
        self._times_cache: list[float] | None = None
        self._node_maps: tuple[dict, dict] | None = None
        self._edge_maps: tuple[dict, dict] | None = None
        self._materialize_warned = False

    # ------------------------------------------------------------------
    # construction / conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_events(
        cls,
        events: Iterable[Event],
        *,
        presorted: bool = False,
        partition_events: int = DEFAULT_PARTITION_EVENTS,
        name: str = "",
    ) -> "PartitionedStorage":
        """Write ``events`` to a managed temporary directory and open it.

        Exists to satisfy the storage contract (and to make the backend
        constructible through the registry); real out-of-core use writes
        a durable directory with :func:`write_partitioned` and opens it
        with :class:`PartitionedStorage` / ``TemporalGraph.load``.  The
        temporary directory is removed when the storage is garbage
        collected.
        """
        stream = events if presorted else validate_events(events)
        tmp = tempfile.mkdtemp(prefix="repro-partitioned-")
        try:
            write_partitioned(
                stream, tmp, partition_events=partition_events, name=name
            )
            storage = cls(tmp)
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        storage._owned_tmp = weakref.finalize(
            storage, shutil.rmtree, tmp, ignore_errors=True
        )
        return storage

    # ------------------------------------------------------------------
    # manifest / residency introspection
    # ------------------------------------------------------------------
    @property
    def meta(self) -> dict:
        """The parsed top-level manifest."""
        return self._meta

    @property
    def path(self) -> str:
        """The partitioned directory this storage reads from."""
        return self._path

    @property
    def n_partitions(self) -> int:
        return len(self._dirs)

    @property
    def resident_partitions(self) -> tuple[int, ...]:
        """Indices of currently open partitions, LRU-oldest first."""
        return tuple(self._resident)

    def partition(self, p: int) -> NumpyStorage:
        """The (lazily opened) flat storage of partition ``p``.

        Opening may evict the least-recently-used resident partition;
        callers must not hold references across other partition calls if
        they rely on the residency bound.
        """
        storage = self._resident.get(p)
        rec = _obs.ACTIVE
        if storage is not None:
            self._resident.move_to_end(p)
            if rec is not None:
                rec.inc("storage.partition.hits")
            return storage
        storage, _meta = load_pages(
            os.path.join(self._path, self._dirs[p]), mmap=self._mmap
        )
        self._resident[p] = storage
        if rec is not None:
            rec.inc("storage.partition.opens")
        while len(self._resident) > self._max_resident:
            self._resident.popitem(last=False)
            if rec is not None:
                rec.inc("storage.partition.evictions")
        return storage

    # ------------------------------------------------------------------
    # manifest arithmetic
    # ------------------------------------------------------------------
    def _locate(self, idx: int) -> tuple[int, int]:
        """Map a global event index to ``(partition, local index)``."""
        if idx < 0:
            idx += self._n
        if not 0 <= idx < self._n:
            raise IndexError(f"event index {idx} out of range [0, {self._n})")
        p = bisect.bisect_right(self._ev_lo, idx) - 1
        return p, idx - self._ev_lo[p]

    def _parts_in(self, t_lo: float, t_hi: float) -> range:
        """Partitions possibly intersecting the closed window."""
        first = bisect.bisect_left(self._t_max, t_lo)
        last = bisect.bisect_right(self._t_min, t_hi)
        return range(first, last)

    # ------------------------------------------------------------------
    # materialized views (O(m) correctness fallbacks)
    # ------------------------------------------------------------------
    def _materialize(self, what: str) -> None:
        """Count a fold of every partition into memory; warn on the first."""
        rec = _obs.ACTIVE
        if rec is not None:
            rec.inc("storage.partition.materialize")
        if not self._materialize_warned:
            self._materialize_warned = True
            warnings.warn(
                f"partitioned graph {self._path!r}: building the whole-stream "
                f"{what} folds all {self.n_partitions} partitions into memory; "
                "this path is not memory-bounded",
                RuntimeWarning,
                stacklevel=3,
            )

    @property
    def events(self) -> tuple[Event, ...]:
        if self._events_cache is None:
            self._materialize("events view")
            out: list[Event] = []
            for p in range(self.n_partitions):
                out.extend(self.partition(p).events)
            self._events_cache = tuple(out)
        return self._events_cache

    @property
    def times(self) -> list[float]:
        if self._times_cache is None:
            self._materialize("times view")
            out: list[float] = []
            for p in range(self.n_partitions):
                out.extend(self.partition(p).times)
            self._times_cache = out
        return self._times_cache

    def _node_views(self) -> tuple[dict, dict]:
        if self._node_maps is None:
            self._materialize("node maps")
            idxs: dict[int, list[int]] = {}
            ts: dict[int, list[float]] = {}
            for p in range(self.n_partitions):
                off = self._ev_lo[p]
                part = self.partition(p)
                for node, local in part.node_events.items():
                    idxs.setdefault(node, []).extend(i + off for i in local)
                for node, local_t in part.node_times.items():
                    ts.setdefault(node, []).extend(local_t)
            self._node_maps = (idxs, ts)
        return self._node_maps

    def _edge_views(self) -> tuple[dict, dict]:
        if self._edge_maps is None:
            self._materialize("edge maps")
            idxs: dict[tuple[int, int], list[int]] = {}
            ts: dict[tuple[int, int], list[float]] = {}
            for p in range(self.n_partitions):
                off = self._ev_lo[p]
                part = self.partition(p)
                for edge, local in part.edge_events.items():
                    idxs.setdefault(edge, []).extend(i + off for i in local)
                for edge, local_t in part.edge_times.items():
                    ts.setdefault(edge, []).extend(local_t)
            self._edge_maps = (idxs, ts)
        return self._edge_maps

    @property
    def node_events(self) -> Mapping[int, list[int]]:
        return self._node_views()[0]

    @property
    def node_times(self) -> Mapping[int, list[float]]:
        return self._node_views()[1]

    @property
    def edge_events(self) -> Mapping[tuple[int, int], list[int]]:
        return self._edge_views()[0]

    @property
    def edge_times(self) -> Mapping[tuple[int, int], list[float]]:
        return self._edge_views()[1]

    # ------------------------------------------------------------------
    # scalar views
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    @property
    def nodes(self) -> set[int]:
        # Partition slot dicts (same package) give the key sets without
        # materializing the global adjacency views.
        out: set[int] = set()
        for p in range(self.n_partitions):
            out.update(self.partition(p)._node_index()[0])
        return out

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        seen: set[tuple[int, int]] = set()
        for p in range(self.n_partitions):
            seen.update(self.partition(p)._edge_index()[0])
        return len(seen)

    @property
    def start_time(self) -> float | None:
        return self._t_min[0] if self._dirs else None

    @property
    def end_time(self) -> float | None:
        return self._t_max[-1] if self._dirs else None

    def event_at(self, idx: int) -> Event:
        p, loc = self._locate(idx)
        return self.partition(p).event_at(loc)

    def iter_uvt(self) -> Iterator[tuple[int, int, float]]:
        for p in range(self.n_partitions):
            yield from self.partition(p).iter_uvt()

    # ------------------------------------------------------------------
    # shard-planning seams (manifest-resolution time index)
    # ------------------------------------------------------------------
    def time_at(self, idx: int) -> float:
        p, loc = self._locate(idx)
        return self.partition(p).time_at(loc)

    def bisect_time_left(self, t: float) -> int:
        # Partitions strictly before the first with t_max >= t lie
        # entirely below t; one in-partition bisect finishes the job.
        p = bisect.bisect_left(self._t_max, t)
        if p == self.n_partitions:
            return self._n
        return self._ev_lo[p] + self.partition(p).bisect_time_left(t)

    def bisect_time_right(self, t: float) -> int:
        # Mirror image: partitions after the last with t_min <= t lie
        # entirely above t (bounds are tick-aligned and disjoint).
        p = bisect.bisect_right(self._t_min, t) - 1
        if p < 0:
            return 0
        return self._ev_lo[p] + self.partition(p).bisect_time_right(t)

    def shard_count_hint(self) -> int:
        return self.n_partitions

    # ------------------------------------------------------------------
    # point lookups
    # ------------------------------------------------------------------
    def node_event_indices(self, node: int) -> list[int]:
        out: list[int] = []
        for p in range(self.n_partitions):
            off = self._ev_lo[p]
            out.extend(i + off for i in self.partition(p).node_event_indices(node))
        return out

    # ------------------------------------------------------------------
    # windowed queries (partition-pruned: only overlapping partitions open)
    # ------------------------------------------------------------------
    def node_events_in(self, node: int, t_lo: float, t_hi: float) -> list[int]:
        out: list[int] = []
        for p in self._parts_in(t_lo, t_hi):
            off = self._ev_lo[p]
            out.extend(i + off for i in self.partition(p).node_events_in(node, t_lo, t_hi))
        return out

    def count_node_events_in(self, node: int, t_lo: float, t_hi: float) -> int:
        return sum(
            self.partition(p).count_node_events_in(node, t_lo, t_hi)
            for p in self._parts_in(t_lo, t_hi)
        )

    def count_edge_events_in(
        self, edge: tuple[int, int], t_lo: float, t_hi: float
    ) -> int:
        return sum(
            self.partition(p).count_edge_events_in(edge, t_lo, t_hi)
            for p in self._parts_in(t_lo, t_hi)
        )

    def node_events_between(self, node: int, t_lo: float, t_hi: float) -> list[int]:
        # The closed-window partition range is a superset of the
        # half-open one; out-of-window partitions contribute nothing.
        out: list[int] = []
        for p in self._parts_in(t_lo, t_hi):
            off = self._ev_lo[p]
            out.extend(
                i + off
                for i in self.partition(p).node_events_between(node, t_lo, t_hi)
            )
        return out

    # ------------------------------------------------------------------
    # slicing / sharding
    # ------------------------------------------------------------------
    def slice_range(self, lo: int, hi: int) -> NumpyStorage:
        """Materialize ``[lo, hi)`` as one in-memory flat storage.

        Memory follows the slice, not the stream: covered partitions are
        opened one at a time (respecting the residency bound) and their
        column slices concatenated.  A single-partition slice stays a
        zero-copy view of the mmap'd columns.
        """
        rec = _obs.ACTIVE
        if rec is not None:
            rec.inc("storage.slice_range.calls")
        lo = max(0, min(lo, self._n))
        hi = max(lo, min(hi, self._n))
        if hi == lo:
            return NumpyStorage.from_events((), presorted=True)
        p_lo, _ = self._locate(lo)
        p_hi, _ = self._locate(hi - 1)
        if p_lo == p_hi:
            part = self.partition(p_lo)
            a, b = lo - self._ev_lo[p_lo], hi - self._ev_lo[p_lo]
            return NumpyStorage.from_arrays(part._u[a:b], part._v[a:b], part._t[a:b])
        if lo == 0 and hi == self._n:
            self._materialize("slice")
        us, vs, ts = [], [], []
        for p in range(p_lo, p_hi + 1):
            part = self.partition(p)
            a = max(0, lo - self._ev_lo[p])
            b = min(self._n_part[p], hi - self._ev_lo[p])
            us.append(np.asarray(part._u[a:b]))
            vs.append(np.asarray(part._v[a:b]))
            ts.append(np.asarray(part._t[a:b]))
        return NumpyStorage.from_arrays(
            np.concatenate(us), np.concatenate(vs), np.concatenate(ts)
        )

    def slice_time(self, t_lo: float, t_hi: float) -> NumpyStorage:
        rec = _obs.ACTIVE
        if rec is not None:
            rec.inc("storage.slice_time.calls")
        return self.slice_range(self.bisect_time_left(t_lo), self.bisect_time_right(t_hi))

    def shard_payload(self, lo: int, hi: int) -> dict:
        """A constant-size payload: workers re-open the directory themselves.

        Shipping ``(path, lo, hi)`` instead of event data keeps the
        parent's task list O(shards) regardless of stream size — the
        essence of out-of-core execution.
        """
        return {
            "kind": _SHARD_KIND,
            "path": self._path,
            "lo": int(lo),
            "hi": int(hi),
            "mmap": self._mmap,
        }

    @classmethod
    def from_shard_payload(cls, payload) -> GraphStorage:
        if isinstance(payload, dict) and payload.get("kind") == _SHARD_KIND:
            source = cls(payload["path"], mmap=payload.get("mmap", True), max_resident=2)
            return source.slice_range(payload["lo"], payload["hi"])
        return super().from_shard_payload(payload)

    # ------------------------------------------------------------------
    # mutation (unsupported: the directory is the source of truth)
    # ------------------------------------------------------------------
    def append(self, event: Event) -> int:
        raise NotImplementedError(
            "PartitionedStorage is read-only; append to an in-memory backend "
            "and re-save with TemporalGraph.save(path, partition_events=...)"
        )
