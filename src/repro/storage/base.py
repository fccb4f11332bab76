"""The storage-engine contract behind :class:`~repro.core.temporal_graph.TemporalGraph`.

A :class:`GraphStorage` owns the time-sorted event list of one temporal
network plus whatever indices it needs to answer the library's windowed
queries.  The facade (:class:`~repro.core.temporal_graph.TemporalGraph`)
delegates *all* index maintenance and window bisection here, so backends
can evolve independently of the motif models: a backend may keep plain
Python lists (:class:`~repro.storage.list_backend.ListStorage`), flat
columns with CSR offsets
(:class:`~repro.storage.columnar.ColumnarStorage`), or NumPy/mmap pages
(:class:`~repro.storage.numpy_backend.NumpyStorage`), without touching
enumeration or restriction code.

Contract invariants every backend must uphold
---------------------------------------------

* Events are stored sorted by ``(t, u, v)`` and addressed by their
  position (*event index*), the universal handle of the library.
* ``node_events`` / ``edge_events`` map each node (directed edge) to the
  time-sorted list of indices of events touching it; ``node_times`` /
  ``edge_times`` are the parallel timestamp lists used as bisect keys.
  Mapping iteration follows **first-appearance order** (the order a seed
  ``dict`` would have been filled in one pass over the events) so that
  seeded randomized consumers — e.g. the link-shuffling null model — are
  reproducible across backends.
* All window queries treat ``[t_lo, t_hi]`` as a **closed** interval;
  :meth:`node_events_between` alone is half-open ``(t_lo, t_hi]``, which
  is the enumeration engine's strict-ordering window.
* :meth:`append` only accepts events at or after :attr:`end_time`
  (non-decreasing time), which is what keeps event indices stable on a
  live, growing graph.  Storages only grow, so the engine keys what it
  derives from a storage by its event count.

A backend declares nothing to the execution engine.  The engine's
block lane (:func:`repro.engine.kernels.lane_arrays`) reads a compacted
numpy storage's own arrays and builds int64/float64 columns from
:meth:`iter_uvt` for every other storage, once per event count; the
generic kernel reaches the backend only through
:meth:`adjacent_events_between`, :meth:`event_at` and the scalar views.
"""

from __future__ import annotations

import bisect
from abc import ABC, abstractmethod
from typing import ClassVar, Iterable, Iterator, Mapping, Sequence

import repro.obs as _obs
from repro.core.events import Event, validate_events


class GraphStorage(ABC):
    """Abstract index/query engine for one temporal event list."""

    #: Registry key of the backend (``"list"``, ``"columnar"``, ...).
    backend_name: ClassVar[str] = ""

    #: When True, whole-graph census entry points route through the
    #: sharded engine even at ``jobs=1``: the backend would rather run a
    #: sequence of bounded shard rebuilds than let the serial loop
    #: materialize its full event stream.  Out-of-core backends (the
    #: partitioned page directory) set this; in-memory backends keep the
    #: cheaper direct loop.
    prefers_sharded_execution: ClassVar[bool] = False

    #: Whether :meth:`append` is implemented.  Read-only engines (the
    #: partitioned directory view, whose source of truth is on disk)
    #: set this False; mutation-contract consumers (the online engine,
    #: the append parity suite) skip them.
    supports_append: ClassVar[bool] = True

    # ------------------------------------------------------------------
    # construction / conversion
    # ------------------------------------------------------------------
    @classmethod
    @abstractmethod
    def from_events(
        cls, events: Iterable[Event], *, presorted: bool = False
    ) -> "GraphStorage":
        """Build a storage engine from events.

        With ``presorted=False`` (what :class:`TemporalGraph
        <repro.core.temporal_graph.TemporalGraph>` passes) the backend
        validates its own input: it raises exactly the errors of
        :func:`~repro.core.events.validate_events` (for the first bad
        event in input order) and stores the events in its stable
        ``(t, u, v)`` order.  Calling ``validate_events`` is always a
        correct way to do so; a backend may certify its input another
        way as long as the errors and the order stay the same.
        ``presorted=True`` promises the input is already validated and
        ``(t, u, v)``-sorted (e.g. a slice of another storage), letting
        backends skip re-validation.
        """

    def to_events(self) -> tuple[Event, ...]:
        """The stored events as an immutable time-sorted tuple."""
        return self.events

    # ------------------------------------------------------------------
    # materialized views (source-compatible with the pre-storage graph)
    # ------------------------------------------------------------------
    @property
    @abstractmethod
    def events(self) -> tuple[Event, ...]:
        """Time-sorted events; position in this tuple is the event index."""

    @property
    @abstractmethod
    def times(self) -> list[float]:
        """Timestamps parallel to :attr:`events`."""

    @property
    @abstractmethod
    def node_events(self) -> Mapping[int, list[int]]:
        """node -> time-sorted event indices touching the node."""

    @property
    @abstractmethod
    def node_times(self) -> Mapping[int, list[float]]:
        """node -> timestamps parallel to :attr:`node_events`."""

    @property
    @abstractmethod
    def edge_events(self) -> Mapping[tuple[int, int], list[int]]:
        """directed edge -> time-sorted event indices on that edge."""

    @property
    @abstractmethod
    def edge_times(self) -> Mapping[tuple[int, int], list[float]]:
        """directed edge -> timestamps parallel to :attr:`edge_events`."""

    # ------------------------------------------------------------------
    # scalar views
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    @property
    def nodes(self) -> set[int]:
        """The set of nodes appearing in at least one event."""
        return set(self.node_events)

    @property
    def num_nodes(self) -> int:
        return len(self.node_events)

    @property
    def num_edges(self) -> int:
        """Number of distinct directed static edges."""
        return len(self.edge_events)

    @property
    def start_time(self) -> float | None:
        """Timestamp of the earliest event (``None`` when empty)."""
        times = self.times
        return times[0] if times else None

    @property
    def end_time(self) -> float | None:
        """Timestamp of the latest event (``None`` when empty)."""
        times = self.times
        return times[-1] if times else None

    # ------------------------------------------------------------------
    # point lookups
    # ------------------------------------------------------------------
    @abstractmethod
    def node_event_indices(self, node: int) -> list[int]:
        """All event indices touching ``node`` (empty list if unknown)."""

    def neighbors(self, node: int) -> set[int]:
        """Nodes adjacent to ``node`` in the directed static projection.

        Reads the node's events one by one through :meth:`event_at`, so
        no backend builds its whole :attr:`events` tuple to answer it.
        """
        event_at = self.event_at
        out: set[int] = set()
        for idx in self.node_event_indices(node):
            ev = event_at(idx)
            out.add(ev.v if ev.u == node else ev.u)
        out.discard(node)
        return out

    def event_at(self, idx: int) -> Event:
        """The event at one index, in O(1) without snapshotting the stream.

        Equivalent to ``storage.events[idx]`` but — on backends whose
        :attr:`events` tuple is materialized on demand — without paying an
        O(m) rebuild per access on a mutating (live) graph.
        """
        return self.events[idx]

    def iter_uvt(self) -> Iterator[tuple[int, int, float]]:
        """Yield ``(u, v, t)`` triples in event-index order.

        Columnar backends override this to stream straight from their
        columns; the default unpacks the event records.
        """
        return iter(self.events)

    # ------------------------------------------------------------------
    # shard-planning seams (partition-aware planners go through these
    # instead of materializing ``times``; the defaults delegate to the
    # cached timestamp list, so in-memory backends behave as before)
    # ------------------------------------------------------------------
    def time_at(self, idx: int) -> float:
        """Timestamp of the event at ``idx`` (supports negative indices)."""
        return self.times[idx]

    def bisect_time_left(self, t: float) -> int:
        """First event index with timestamp ``>= t``."""
        return bisect.bisect_left(self.times, t)

    def bisect_time_right(self, t: float) -> int:
        """First event index with timestamp ``> t``."""
        return bisect.bisect_right(self.times, t)

    def shard_count_hint(self) -> int:
        """Minimum shard count this backend wants from the planner.

        Zero means "no preference" (in-memory backends: one shard per
        worker is ideal).  Partitioned storages return their partition
        count so that each shard's δ-overlapped window stays roughly one
        partition wide — the knob that bounds worker peak memory.
        """
        return 0

    # ------------------------------------------------------------------
    # windowed queries (the hot path of every restriction checker)
    # ------------------------------------------------------------------
    @abstractmethod
    def node_events_in(self, node: int, t_lo: float, t_hi: float) -> list[int]:
        """Indices of events touching ``node`` with ``t_lo <= t <= t_hi``."""

    @abstractmethod
    def count_node_events_in(self, node: int, t_lo: float, t_hi: float) -> int:
        """Number of events touching ``node`` in the closed window."""

    @abstractmethod
    def count_edge_events_in(
        self, edge: tuple[int, int], t_lo: float, t_hi: float
    ) -> int:
        """Number of events on directed ``edge`` in the closed window."""

    @abstractmethod
    def node_events_between(self, node: int, t_lo: float, t_hi: float) -> list[int]:
        """Indices of events touching ``node`` with ``t_lo < t <= t_hi``.

        The half-open window of connected-growth candidate generation:
        strictly-later events only (total ordering), up to a deadline.
        """

    # ------------------------------------------------------------------
    # candidate generation
    # ------------------------------------------------------------------
    def adjacent_events_between(
        self, nodes: Sequence[int], t_lo: float, t_hi: float
    ) -> list[int]:
        """Sorted, deduplicated union of :meth:`node_events_between` over ``nodes``.

        The enumeration engine's candidate-generation primitive: events
        adjacent to *any* motif node in the half-open ``(t_lo, t_hi]``
        window, each index once (an event touching two motif nodes appears
        in two adjacency lists), sorted for determinism.
        """
        found: set[int] = set()
        for node in nodes:
            found.update(self.node_events_between(node, t_lo, t_hi))
        out = sorted(found)
        rec = _obs.ACTIVE
        if rec is not None:
            rec.inc("storage.adjacent_events_between.calls")
            rec.observe("storage.adjacent_events_between.candidates", len(out))
        return out

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def slice_time(self, t_lo: float, t_hi: float) -> "GraphStorage":
        """A new storage holding only events in the closed window."""
        rec = _obs.ACTIVE
        if rec is not None:
            rec.inc("storage.slice_time.calls")
        times = self.times
        lo = bisect.bisect_left(times, t_lo)
        hi = bisect.bisect_right(times, t_hi)
        return type(self).from_events(self.events[lo:hi], presorted=True)

    def slice_range(self, lo: int, hi: int) -> "GraphStorage":
        """A new storage over the contiguous event-index range ``[lo, hi)``.

        The slice of a time-sorted stream is itself time-sorted, so no
        re-validation happens; local index ``i`` of the result corresponds
        to index ``lo + i`` of this storage.  Array-backed engines override
        this with zero-copy column views.
        """
        rec = _obs.ACTIVE
        if rec is not None:
            rec.inc("storage.slice_range.calls")
        return type(self).from_events(self.events[lo:hi], presorted=True)

    def shard_payload(self, lo: int, hi: int):
        """A picklable payload representing ``events[lo:hi]`` for workers.

        Whatever this returns must round-trip through
        :meth:`from_shard_payload` on the same backend class.  The generic
        payload is the event tuple; array-backed engines ship column
        slices instead, skipping the per-event boxing on both sides.
        """
        return self.events[lo:hi]

    @classmethod
    def from_shard_payload(cls, payload) -> "GraphStorage":
        """Rebuild a worker-side storage from :meth:`shard_payload` output."""
        return cls.from_events(payload, presorted=True)

    def slice_nodes(self, nodes: Iterable[int]) -> "GraphStorage":
        """A new storage with only events whose endpoints both lie in ``nodes``."""
        node_set = set(nodes)
        kept = [
            ev for ev in self.events if ev.u in node_set and ev.v in node_set
        ]
        return type(self).from_events(kept, presorted=True)

    def coarsen(self, resolution: float) -> "GraphStorage":
        """A new storage with timestamps snapped down to ``resolution`` multiples.

        Snapping can merge previously distinct timestamps, so events are
        re-sorted under the ``(t, u, v)`` key — matching what rebuilding a
        graph from the snapped events has always done.
        """
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        snapped = (
            Event(ev.u, ev.v, (ev.t // resolution) * resolution)
            for ev in self.events
        )
        return type(self).from_events(validate_events(snapped), presorted=True)

    # ------------------------------------------------------------------
    # mutation (live/streaming graphs)
    # ------------------------------------------------------------------
    @abstractmethod
    def append(self, event: Event) -> int:
        """Add one event at the end of the stream; return its index.

        The event's timestamp must be ``>= end_time`` so existing indices
        stay stable.  Backends should call :meth:`_check_appendable`.
        """

    def update(self, events: Event | Iterable[Event]) -> list[int]:
        """Append one event or a time-sorted batch; return the new indices.

        The whole batch is validated *before* any event is committed, so a
        rejected batch leaves the storage untouched — callers may fix the
        input and retry without duplicating a partially applied prefix.
        """
        if isinstance(events, Event):
            return [self.append(events)]
        batch = [ev if isinstance(ev, Event) else Event(*ev) for ev in events]
        last = self.end_time
        for ev in batch:
            last = _validate_arrival(ev, last)
        return [self.append(ev) for ev in batch]

    def _check_appendable(self, event: Event) -> Event:
        """Validate one incoming event for the append path."""
        ev = event if isinstance(event, Event) else Event(*event)
        _validate_arrival(ev, self.end_time)
        return ev


def _validate_arrival(ev: Event, last: float | None) -> float:
    """Check one arriving event against the stream tail; return its time."""
    if ev.t < 0:
        raise ValueError(f"event {ev} has a negative timestamp")
    if ev.t != ev.t:
        raise ValueError(f"event {ev} has a NaN timestamp")
    if ev.is_loop():
        raise ValueError(f"event {ev} is a self-loop; motif models exclude loops")
    if last is not None and ev.t < last:
        raise ValueError(
            f"append requires non-decreasing timestamps: got t={ev.t} "
            f"after t={last} (indices must stay stable)"
        )
    return ev.t
