"""Indexed temporal graph: the substrate for all motif enumeration.

The :class:`TemporalGraph` is a facade over a pluggable storage engine
(:mod:`repro.storage`).  The engine owns the time-sorted event list and the
three index families the enumeration engine and the model restrictions
depend on:

* per-node adjacency: for each node, the time-sorted list of indices of
  events that touch it (used for connected-growth candidate generation and
  the Kovanen consecutive-events restriction),
* per-edge occurrences: for each directed static edge ``(u, v)``, the
  time-sorted list of event indices on that edge (used for the constrained
  dynamic graphlet restriction),
* the static projection (used for static inducedness checks).

Three backends ship with the library: ``"list"`` (the original plain-list
indices — the default), ``"columnar"`` (flat ``array`` columns with CSR
offsets — cheaper to build, lighter in memory), and ``"numpy"``
(contiguous ``ndarray`` columns with vectorized ``searchsorted`` window
kernels and memory-mapped persistence via :meth:`TemporalGraph.save` /
:meth:`TemporalGraph.load`).  Select one per graph with ``backend=...`` or
globally via the ``REPRO_STORAGE`` environment variable; every backend
answers every query identically, which the parity test-suite enforces.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.core.events import Event, interevent_times
from repro.storage import GraphStorage, get_backend


class TemporalGraph:
    """A directed temporal network with time-sorted, indexed events.

    Parameters
    ----------
    events:
        Iterable of :class:`Event` (or 3-tuples), handed to the storage
        engine, which validates them with
        :func:`~repro.core.events.validate_events`'s errors and stores
        them sorted by ``(t, u, v)``.  The ``numpy`` backend reads plain
        int/float rows as whole columns without building an
        :class:`Event` per row.
    name:
        Optional label used by dataset registry and experiment reports.
    backend:
        Storage engine name (``"list"``, ``"columnar"``, or any name
        registered with :func:`repro.storage.register_backend`).  ``None``
        defers to the ``REPRO_STORAGE`` environment variable, then the
        library default.  Transformations (:meth:`slice`, :meth:`head`,
        ...) propagate the parent graph's backend.

    Notes
    -----
    Event *indices* (positions in :attr:`events`) are the universal handle
    throughout the library: enumerators yield tuples of indices, restriction
    checkers take tuples of indices, and counters convert indices to motif
    codes.  Indices are stable because events only ever change through
    :meth:`append`/:meth:`extend`, which admit strictly end-of-stream
    events.
    """

    def __init__(
        self,
        events: Iterable[Event],
        *,
        name: str = "",
        backend: str | None = None,
    ) -> None:
        self._storage: GraphStorage = get_backend(backend).from_events(events)
        self.name = name

    @classmethod
    def _from_storage(cls, storage: GraphStorage, *, name: str = "") -> "TemporalGraph":
        """Wrap an existing storage engine without re-validating its events."""
        graph = cls.__new__(cls)
        graph._storage = storage
        graph.name = name
        return graph

    # ------------------------------------------------------------------
    # storage facade
    # ------------------------------------------------------------------
    @property
    def storage(self) -> GraphStorage:
        """The storage engine answering this graph's index queries."""
        return self._storage

    @property
    def backend(self) -> str:
        """Name of the storage backend serving this graph."""
        return self._storage.backend_name

    @property
    def events(self) -> tuple[Event, ...]:
        """Time-sorted events; position in this tuple is the event index."""
        return self._storage.events

    @property
    def times(self) -> list[float]:
        """Timestamps parallel to :attr:`events` (bisect keys)."""
        return self._storage.times

    def to_events(self) -> tuple[Event, ...]:
        """The graph's events as an immutable time-sorted tuple.

        The round-trip ``TemporalGraph(g.to_events())`` rebuilds an
        identical graph (same indices, same index-mapping iteration
        order), which is how parallel workers obtain their own copy.
        """
        return self._storage.to_events()

    @property
    def node_events(self) -> Mapping[int, list[int]]:
        """node -> time-sorted event indices touching the node."""
        return self._storage.node_events

    @property
    def node_times(self) -> Mapping[int, list[float]]:
        """node -> timestamps parallel to :attr:`node_events` (bisect keys)."""
        return self._storage.node_times

    @property
    def edge_events(self) -> Mapping[tuple[int, int], list[int]]:
        """directed edge -> time-sorted event indices on that edge."""
        return self._storage.edge_events

    @property
    def edge_times(self) -> Mapping[tuple[int, int], list[float]]:
        """directed edge -> timestamps parallel to :attr:`edge_events`."""
        return self._storage.edge_times

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._storage)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<TemporalGraph{label}: {self.num_nodes} nodes, "
            f"{len(self)} events, {self.num_edges} edges>"
        )

    @property
    def nodes(self) -> set[int]:
        """The set of nodes appearing in at least one event."""
        return self._storage.nodes

    @property
    def num_nodes(self) -> int:
        return self._storage.num_nodes

    @property
    def num_edges(self) -> int:
        """Number of distinct directed static edges."""
        return self._storage.num_edges

    @property
    def timespan(self) -> float:
        """Time difference between the last and first events (0 if empty)."""
        start = self._storage.start_time
        if start is None:
            return 0.0
        return self._storage.end_time - start

    # ------------------------------------------------------------------
    # static projection
    # ------------------------------------------------------------------
    def static_edges(self) -> set[tuple[int, int]]:
        """All distinct directed edges of the static projection."""
        return set(self.edge_events)

    def static_neighbors(self, node: int) -> set[int]:
        """Nodes adjacent to ``node`` in the (directed) static projection."""
        return self._storage.neighbors(node)

    def induced_static_edges(self, nodes: Iterable[int]) -> set[tuple[int, int]]:
        """Directed static edges with both endpoints in ``nodes``.

        This is the edge set that a *statically induced* motif on ``nodes``
        (Hulovatyy / Paranjape sense, Section 4.1) must fully cover.
        """
        node_set = set(nodes)
        storage = self._storage
        events = storage.events
        found: set[tuple[int, int]] = set()
        for node in node_set:
            for idx in storage.node_event_indices(node):
                ev = events[idx]
                if ev.u in node_set and ev.v in node_set:
                    found.add(ev.edge)
        return found

    # ------------------------------------------------------------------
    # windowed queries (the hot path of every restriction checker)
    # ------------------------------------------------------------------
    def node_events_in(self, node: int, t_lo: float, t_hi: float) -> list[int]:
        """Indices of events touching ``node`` with ``t_lo <= t <= t_hi``."""
        return self._storage.node_events_in(node, t_lo, t_hi)

    def count_node_events_in(self, node: int, t_lo: float, t_hi: float) -> int:
        """Number of events touching ``node`` in the closed window."""
        return self._storage.count_node_events_in(node, t_lo, t_hi)

    def edge_events_in(self, edge: tuple[int, int], t_lo: float, t_hi: float) -> list[int]:
        """Indices of events on directed ``edge`` with ``t_lo <= t <= t_hi``.

        Every event on a directed edge touches its source node, so this
        filters the source's closed window; the result stays ascending.
        """
        storage = self._storage
        return [
            idx
            for idx in storage.node_events_in(edge[0], t_lo, t_hi)
            if storage.event_at(idx).edge == edge
        ]

    def count_edge_events_in(self, edge: tuple[int, int], t_lo: float, t_hi: float) -> int:
        """Number of events on directed ``edge`` in the closed window."""
        return self._storage.count_edge_events_in(edge, t_lo, t_hi)

    def events_in(self, t_lo: float, t_hi: float) -> list[int]:
        """Indices of all events with ``t_lo <= t <= t_hi``."""
        storage = self._storage
        return list(range(storage.bisect_time_left(t_lo), storage.bisect_time_right(t_hi)))

    def event_at(self, idx: int) -> Event:
        """The event at one index in O(1).

        Equivalent to ``graph.events[idx]``, but on a live (growing) graph
        it avoids re-snapshotting the whole :attr:`events` tuple after
        every :meth:`append` — use it to resolve per-arrival indices, e.g.
        from :func:`repro.algorithms.streaming.match_live`.
        """
        return self._storage.event_at(idx)

    # ------------------------------------------------------------------
    # persistence (numpy page directory, mmap-loadable)
    # ------------------------------------------------------------------
    def save(self, path, *, partition_events: int | None = None) -> None:
        """Write this graph as a memory-mappable page directory.

        With the default ``partition_events=None`` the layout is the flat
        ``"numpy"`` backend ``.npy`` page format (columns + CSR index
        pages + ``meta.json``); graphs on any other backend are converted
        on the way out.  With ``partition_events=N`` the out-of-core
        *partitioned* layout is written instead: one flat page set per
        roughly-``N``-event time interval under a top-level
        ``manifest.json`` (see :mod:`repro.storage.partitioned`), which
        :meth:`load` reopens with a bounded resident set.  Either way the
        graph's :attr:`name` round-trips through the manifest.  Requires
        NumPy.
        """
        if partition_events is not None:
            from repro.storage.partitioned import write_partitioned

            write_partitioned(
                self._storage.iter_uvt(),
                path,
                partition_events=partition_events,
                name=self.name,
            )
            return
        from repro.storage.numpy_backend import NumpyStorage

        storage = self._storage
        if not isinstance(storage, NumpyStorage):
            storage = NumpyStorage.from_events(storage.events, presorted=True)
        storage.save(path, name=self.name)

    @classmethod
    def load(cls, path, *, mmap: bool = True, name: str | None = None) -> "TemporalGraph":
        """Reopen a :meth:`save` page directory, flat or partitioned.

        The layout is auto-detected from the directory's manifest: a
        top-level ``manifest.json`` opens as an out-of-core
        :class:`~repro.storage.partitioned.PartitionedStorage` (lazily
        mmap'd partitions, bounded resident set, read-only), a flat
        ``meta.json`` page set opens as a ``"numpy"``-backed graph.  With
        ``mmap=True`` (the default) pages are opened read-only via
        ``np.load(..., mmap_mode="r")``: queries fault in only the pages
        they touch, and — on the flat layout — appends land in an
        in-memory tail without ever writing to the backing files.
        ``name`` overrides the name recorded in the manifest.

        This is the one open entry point; prefer it (or
        :func:`repro.sources.resolve`) over calling the low-level
        :func:`~repro.storage.numpy_backend.load_pages` /
        :func:`~repro.storage.partitioned.load_partitioned` openers
        directly — those remain for code that needs the raw storage plus
        manifest, and know nothing about the other layout.
        """
        from repro.storage.partitioned import is_partitioned, load_partitioned

        if is_partitioned(path):
            storage, meta = load_partitioned(path, mmap=mmap)
        else:
            from repro.storage.numpy_backend import load_pages

            storage, meta = load_pages(path, mmap=mmap)
        return cls._from_storage(
            storage, name=meta.get("name", "") if name is None else name
        )

    # ------------------------------------------------------------------
    # mutation (live/streaming graphs)
    # ------------------------------------------------------------------
    def append(self, event: Event) -> int:
        """Add one end-of-stream event; return its (stable) index.

        The event's timestamp must be at or after the current last event —
        the non-decreasing arrival order of a live stream — so that all
        previously issued event indices stay valid.  This is the substrate
        for matching patterns against a growing graph
        (:func:`repro.algorithms.streaming.match_live`).
        """
        return self._storage.append(event)

    def extend(self, events: Iterable[Event]) -> list[int]:
        """Append a time-sorted batch of events; return their indices."""
        return self._storage.update(list(events))

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def slice(self, t_lo: float, t_hi: float, *, name: str | None = None) -> "TemporalGraph":
        """A new graph holding only events in the closed window."""
        return TemporalGraph._from_storage(
            self._storage.slice_time(t_lo, t_hi), name=name or self.name
        )

    def slice_nodes(
        self, nodes: Iterable[int], *, name: str | None = None
    ) -> "TemporalGraph":
        """The subgraph induced by ``nodes``.

        Keeps exactly the events whose endpoints *both* lie in ``nodes``
        (event indices are renumbered; timestamps are untouched).
        """
        return TemporalGraph._from_storage(
            self._storage.slice_nodes(nodes), name=name or self.name
        )

    def head(self, n: int, *, name: str | None = None) -> "TemporalGraph":
        """A new graph holding the earliest ``n`` events."""
        return TemporalGraph(self.events[:n], name=name or self.name, backend=self.backend)

    def degrade_resolution(self, resolution: float, *, name: str | None = None) -> "TemporalGraph":
        """Snap every timestamp down to a multiple of ``resolution``.

        This is the "degrade the resolution to 300 s" operation of
        Section 5.1.2 (Table 4): it creates snapshot-like co-occurring
        timestamps, which is what the constrained dynamic graphlet
        restriction was designed around.
        """
        return TemporalGraph._from_storage(
            self._storage.coarsen(resolution), name=name or self.name
        )

    def filter_events(
        self, predicate: Callable[[Event], bool], *, name: str | None = None
    ) -> "TemporalGraph":
        """A new graph holding only events for which ``predicate`` is true."""
        return TemporalGraph(
            (ev for ev in self.events if predicate(ev)),
            name=name or self.name,
            backend=self.backend,
        )

    def relabeled(self, *, name: str | None = None) -> "TemporalGraph":
        """A copy with nodes renamed to 0..n-1 in order of first appearance."""
        mapping: dict[int, int] = {}
        out: list[Event] = []
        for ev in self.events:
            for node in ev.nodes:
                if node not in mapping:
                    mapping[node] = len(mapping)
            out.append(Event(mapping[ev.u], mapping[ev.v], ev.t))
        return TemporalGraph(out, name=name or self.name, backend=self.backend)

    def with_backend(self, backend: str, *, name: str | None = None) -> "TemporalGraph":
        """The same graph re-indexed under another storage backend."""
        return TemporalGraph(
            self.events, name=name or self.name, backend=backend
        )

    # ------------------------------------------------------------------
    # statistics (Table 2 building blocks)
    # ------------------------------------------------------------------
    def unique_timestamps(self) -> int:
        """Number of distinct timestamps across the whole timespan (#T)."""
        return len(set(self.times))

    def unique_timestamp_fraction(self) -> float:
        """Fraction of events whose timestamp is shared with no other event.

        Table 2 column |Eu|/|E|.  Returns 0.0 for an empty graph.
        """
        times = self.times
        if not times:
            return 0.0
        counts: dict[float, int] = defaultdict(int)
        for t in times:
            counts[t] += 1
        unique = sum(1 for t in times if counts[t] == 1)
        return unique / len(times)

    def median_interevent_time(self) -> float:
        """Median gap between consecutive events (Table 2 column m(Δt))."""
        gaps = interevent_times(list(self.events))
        if not gaps:
            return 0.0
        gaps.sort()
        mid = len(gaps) // 2
        if len(gaps) % 2 == 1:
            return gaps[mid]
        return (gaps[mid - 1] + gaps[mid]) / 2

    # ------------------------------------------------------------------
    # convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_tuples(
        cls,
        triples: Sequence[tuple[int, int, float]],
        *,
        name: str = "",
        backend: str | None = None,
    ) -> "TemporalGraph":
        """Build a graph from plain ``(u, v, t)`` tuples."""
        return cls((Event(*tri) for tri in triples), name=name, backend=backend)
