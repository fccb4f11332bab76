"""Columnar storage backend: flat ``array`` columns with CSR offset indices.

Layout
------

The event stream is stored as three flat columns — ``u`` and ``v`` in
``array('q')`` (int64) and ``t`` in ``array('d')`` (float64) — instead of
per-event Python objects: the ``events`` tuple (and the per-node/per-edge
dict views) are materialized from the columns on first access and cached,
so query-only workloads never box an event, and :meth:`event_at` resolves
a single index in O(1) without snapshotting the stream.  The per-node and
per-edge indices are CSR-style:
one flat ``array('q')`` of event indices grouped by node (edge), one
parallel ``array('d')`` of timestamps, and an offsets list mapping each
node (edge) *slot* to its ``[start, end)`` range.  A window query is then a
slot lookup plus a :mod:`bisect` over a bounded range of the flat timestamp
array — no per-node list objects, no boxed floats, ~4× less index memory
than dict-of-lists.

Construction is vectorized through NumPy when available — the numpy
backend's CSR builders (:func:`~repro.storage.numpy_backend.build_node_csr`,
:func:`~repro.storage.numpy_backend.build_edge_csr`) run over zero-copy
views of the columns instead of millions of interpreter-level ``append``
calls — with a pure-Python counting-sort fallback, so the backend works —
just slower — on interpreters without NumPy.

Appends land in a small *tail* (plain dict-of-lists delta) so a live graph
never rebuilds its columns per event; the tail is folded into the columns
once it exceeds :attr:`ColumnarStorage.compact_threshold`.  Because
:meth:`append` requires non-decreasing timestamps, every merged query is a
cheap concatenation of a CSR range and a tail range.

Node ids must fit in a signed 64-bit integer (the ``'q'`` typecode);
anything wider raises at construction.
"""

from __future__ import annotations

import bisect
from array import array
from typing import Iterable, Iterator

import repro.obs as _obs
from repro.core.events import Event, validate_events
from repro.storage.base import GraphStorage
from repro.storage.numpy_backend import build_edge_csr, build_node_csr

try:  # NumPy accelerates construction only; queries never need it.
    import numpy as _np
except Exception:  # pragma: no cover - the image bakes numpy in
    _np = None


class ColumnarStorage(GraphStorage):
    """Flat-column event store with CSR per-node / per-edge indices."""

    backend_name = "columnar"

    #: Tail appends tolerated before the columns are rebuilt in one pass.
    compact_threshold = 4096

    def __init__(self, events: Iterable[Event], *, presorted: bool = False) -> None:
        validated = (
            list(events) if presorted else validate_events(events)
        )
        self._build(tuple(validated))

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_events(
        cls, events: Iterable[Event], *, presorted: bool = False
    ) -> "ColumnarStorage":
        return cls(events, presorted=presorted)

    def _build(self, events: tuple[Event, ...]) -> None:
        """(Re)build columns and CSR indices from a validated event tuple.

        The event *objects* are not retained — only the columns are.  The
        :attr:`events` tuple is rebuilt from the columns on first access
        (and cached), so query-only workloads never hold boxed events.
        """
        self._m = len(events)
        self._main_cache: tuple[Event, ...] | None = None
        # Tail delta for appends: events, per-node/edge index+time lists.
        self._tail: list[Event] = []
        self._tail_node_events: dict[int, list[int]] = {}
        self._tail_node_times: dict[int, list[float]] = {}
        self._tail_edge_events: dict[tuple[int, int], list[int]] = {}
        self._tail_edge_times: dict[tuple[int, int], list[float]] = {}
        self._invalidate_views()

        m = len(events)
        self._col_u = array("q")
        self._col_v = array("q")
        self._col_t = array("d")
        if m == 0:
            self._node_slot: dict[int, int] = {}
            self._node_off: list[int] = [0]
            self._node_idx = array("q")
            self._node_t = array("d")
            self._edge_slot: dict[tuple[int, int], int] = {}
            self._edge_off: list[int] = [0]
            self._edge_idx = array("q")
            self._edge_t = array("d")
            return
        built = False
        if _np is not None:
            built = self._build_numpy(events)
        if not built:
            self._build_python(events)

    def _build_numpy(self, events: tuple[Event, ...]) -> bool:
        """Vectorized index construction; returns False to request fallback."""
        np = _np
        try:
            # The columns are built straight from the event fields — much
            # cheaper than np.array(events) — and NumPy works on zero-copy
            # views of their buffers.
            self._col_u = array("q", [ev[0] for ev in events])
            self._col_v = array("q", [ev[1] for ev in events])
            self._col_t = array("d", [ev[2] for ev in events])
        except (TypeError, ValueError, OverflowError):
            # e.g. node ids wider than int64: let the pure-Python path try
            # (its array() calls will raise a clear error if truly unfit).
            self._col_u = array("q")
            self._col_v = array("q")
            self._col_t = array("d")
            return False
        u = np.frombuffer(self._col_u, dtype=np.int64)
        v = np.frombuffer(self._col_v, dtype=np.int64)
        t = np.frombuffer(self._col_t, dtype=np.float64)

        node_slot, node_off, node_idx, _keys = build_node_csr(u, v)
        self._node_slot = node_slot
        self._node_off = node_off.tolist()
        self._node_idx = array("q")
        self._node_idx.frombytes(node_idx.tobytes())
        self._node_t = array("d")
        self._node_t.frombytes(t[node_idx].tobytes())
        edge_slot, edge_off, edge_idx = build_edge_csr(u, v)
        self._edge_slot = edge_slot
        self._edge_off = edge_off.tolist()
        self._edge_idx = array("q")
        self._edge_idx.frombytes(edge_idx.tobytes())
        self._edge_t = array("d")
        self._edge_t.frombytes(t[edge_idx].tobytes())
        return True

    def _build_python(self, events: tuple[Event, ...]) -> None:
        """Counting-sort fallback used when NumPy is absent or ids overflow."""
        self._col_u = array("q", (ev.u for ev in events))
        self._col_v = array("q", (ev.v for ev in events))
        self._col_t = array("d", (ev.t for ev in events))

        node_slot: dict[int, int] = {}
        node_counts: list[int] = []
        edge_slot: dict[tuple[int, int], int] = {}
        edge_counts: list[int] = []
        for ev in events:
            for node in (ev.u, ev.v) if ev.u != ev.v else (ev.u,):
                slot = node_slot.setdefault(node, len(node_slot))
                if slot == len(node_counts):
                    node_counts.append(0)
                node_counts[slot] += 1
            eslot = edge_slot.setdefault(ev.edge, len(edge_slot))
            if eslot == len(edge_counts):
                edge_counts.append(0)
            edge_counts[eslot] += 1

        node_off = _prefix_sum(node_counts)
        edge_off = _prefix_sum(edge_counts)
        node_idx = array("q", bytes(8 * node_off[-1]))
        node_t = array("d", bytes(8 * node_off[-1]))
        edge_idx = array("q", bytes(8 * edge_off[-1]))
        edge_t = array("d", bytes(8 * edge_off[-1]))
        ncursor = list(node_off[:-1])
        ecursor = list(edge_off[:-1])
        for idx, ev in enumerate(events):
            for node in (ev.u, ev.v) if ev.u != ev.v else (ev.u,):
                c = ncursor[node_slot[node]]
                node_idx[c] = idx
                node_t[c] = ev.t
                ncursor[node_slot[node]] = c + 1
            c = ecursor[edge_slot[ev.edge]]
            edge_idx[c] = idx
            edge_t[c] = ev.t
            ecursor[edge_slot[ev.edge]] = c + 1

        self._node_slot = node_slot
        self._node_off = node_off
        self._node_idx = node_idx
        self._node_t = node_t
        self._edge_slot = edge_slot
        self._edge_off = edge_off
        self._edge_idx = edge_idx
        self._edge_t = edge_t

    # ------------------------------------------------------------------
    # cached materialized views
    # ------------------------------------------------------------------
    def _invalidate_views(self) -> None:
        self._events_cache: tuple[Event, ...] | None = None
        self._times_cache: list[float] | None = None
        self._node_events_cache: dict[int, list[int]] | None = None
        self._node_times_cache: dict[int, list[float]] | None = None
        self._edge_events_cache: dict[tuple[int, int], list[int]] | None = None
        self._edge_times_cache: dict[tuple[int, int], list[float]] | None = None

    @property
    def events(self) -> tuple[Event, ...]:
        if self._events_cache is None:
            main = self._main_cache
            if main is None:
                main = self._main_cache = tuple(
                    map(Event, self._col_u, self._col_v, self._col_t)
                )
            self._events_cache = main + tuple(self._tail) if self._tail else main
        return self._events_cache

    @property
    def times(self) -> list[float]:
        if self._times_cache is None:
            times = self._col_t.tolist()
            times.extend(ev.t for ev in self._tail)
            self._times_cache = times
        return self._times_cache

    @property
    def node_events(self) -> dict[int, list[int]]:
        if self._node_events_cache is None:
            out = {
                node: self._node_idx[
                    self._node_off[slot] : self._node_off[slot + 1]
                ].tolist()
                for node, slot in self._node_slot.items()
            }
            for node, idxs in self._tail_node_events.items():
                out.setdefault(node, []).extend(idxs)
            self._node_events_cache = out
        return self._node_events_cache

    @property
    def node_times(self) -> dict[int, list[float]]:
        if self._node_times_cache is None:
            times = self.times
            self._node_times_cache = {
                node: [times[i] for i in idxs]
                for node, idxs in self.node_events.items()
            }
        return self._node_times_cache

    @property
    def edge_events(self) -> dict[tuple[int, int], list[int]]:
        if self._edge_events_cache is None:
            out = {
                edge: self._edge_idx[
                    self._edge_off[slot] : self._edge_off[slot + 1]
                ].tolist()
                for edge, slot in self._edge_slot.items()
            }
            for edge, idxs in self._tail_edge_events.items():
                out.setdefault(edge, []).extend(idxs)
            self._edge_events_cache = out
        return self._edge_events_cache

    @property
    def edge_times(self) -> dict[tuple[int, int], list[float]]:
        if self._edge_times_cache is None:
            times = self.times
            self._edge_times_cache = {
                edge: [times[i] for i in idxs]
                for edge, idxs in self.edge_events.items()
            }
        return self._edge_times_cache

    # ------------------------------------------------------------------
    # scalar views (avoid materializing the dict caches)
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> set[int]:
        out = set(self._node_slot)
        out.update(self._tail_node_events)
        return out

    @property
    def num_nodes(self) -> int:
        extra = sum(1 for n in self._tail_node_events if n not in self._node_slot)
        return len(self._node_slot) + extra

    @property
    def num_edges(self) -> int:
        extra = sum(1 for e in self._tail_edge_events if e not in self._edge_slot)
        return len(self._edge_slot) + extra

    @property
    def start_time(self) -> float | None:
        if len(self._col_t):
            return self._col_t[0]
        return self._tail[0].t if self._tail else None

    @property
    def end_time(self) -> float | None:
        if self._tail:
            return self._tail[-1].t
        return self._col_t[-1] if len(self._col_t) else None

    def __len__(self) -> int:
        return self._m + len(self._tail)

    def event_at(self, idx: int) -> Event:
        """O(1) event lookup straight from the columns (or the tail)."""
        if idx < 0:
            idx += len(self)
        if idx >= self._m:
            return self._tail[idx - self._m]
        if self._main_cache is not None:
            return self._main_cache[idx]
        return Event(self._col_u[idx], self._col_v[idx], self._col_t[idx])

    # ------------------------------------------------------------------
    # point lookups
    # ------------------------------------------------------------------
    def _node_range(self, node: int) -> tuple[int, int]:
        slot = self._node_slot.get(node)
        if slot is None:
            return (0, 0)
        return self._node_off[slot], self._node_off[slot + 1]

    def _edge_range(self, edge: tuple[int, int]) -> tuple[int, int]:
        slot = self._edge_slot.get(edge)
        if slot is None:
            return (0, 0)
        return self._edge_off[slot], self._edge_off[slot + 1]

    def node_event_indices(self, node: int) -> list[int]:
        lo, hi = self._node_range(node)
        out = self._node_idx[lo:hi].tolist()
        tail = self._tail_node_events.get(node)
        if tail:
            out.extend(tail)
        return out

    def iter_uvt(self) -> Iterator[tuple[int, int, float]]:
        yield from zip(self._col_u, self._col_v, self._col_t)
        for ev in self._tail:
            yield (ev.u, ev.v, ev.t)

    # ------------------------------------------------------------------
    # windowed queries
    # ------------------------------------------------------------------
    def node_events_in(self, node: int, t_lo: float, t_hi: float) -> list[int]:
        lo, hi = self._node_range(node)
        a = bisect.bisect_left(self._node_t, t_lo, lo, hi)
        b = bisect.bisect_right(self._node_t, t_hi, lo, hi)
        out = self._node_idx[a:b].tolist()
        if self._tail:
            out.extend(self._tail_window(self._tail_node_times.get(node),
                                         self._tail_node_events.get(node),
                                         t_lo, t_hi))
        return out

    def count_node_events_in(self, node: int, t_lo: float, t_hi: float) -> int:
        lo, hi = self._node_range(node)
        n = bisect.bisect_right(self._node_t, t_hi, lo, hi) - bisect.bisect_left(
            self._node_t, t_lo, lo, hi
        )
        if self._tail:
            times = self._tail_node_times.get(node)
            if times:
                n += bisect.bisect_right(times, t_hi) - bisect.bisect_left(times, t_lo)
        return n

    def count_edge_events_in(
        self, edge: tuple[int, int], t_lo: float, t_hi: float
    ) -> int:
        lo, hi = self._edge_range(edge)
        n = bisect.bisect_right(self._edge_t, t_hi, lo, hi) - bisect.bisect_left(
            self._edge_t, t_lo, lo, hi
        )
        if self._tail:
            times = self._tail_edge_times.get(edge)
            if times:
                n += bisect.bisect_right(times, t_hi) - bisect.bisect_left(times, t_lo)
        return n

    def node_events_between(self, node: int, t_lo: float, t_hi: float) -> list[int]:
        lo, hi = self._node_range(node)
        a = bisect.bisect_right(self._node_t, t_lo, lo, hi)
        b = bisect.bisect_right(self._node_t, t_hi, lo, hi)
        out = self._node_idx[a:b].tolist()
        if self._tail:
            times = self._tail_node_times.get(node)
            if times:
                idxs = self._tail_node_events[node]
                a = bisect.bisect_right(times, t_lo)
                b = bisect.bisect_right(times, t_hi)
                out.extend(idxs[a:b])
        return out

    @staticmethod
    def _tail_window(
        times: list[float] | None, idxs: list[int] | None, t_lo: float, t_hi: float
    ) -> list[int]:
        if not times:
            return []
        a = bisect.bisect_left(times, t_lo)
        b = bisect.bisect_right(times, t_hi)
        return idxs[a:b]

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def append(self, event: Event) -> int:
        ev = self._check_appendable(event)
        idx = self._m + len(self._tail)
        self._tail.append(ev)
        for node in (ev.u, ev.v):
            self._tail_node_events.setdefault(node, []).append(idx)
            self._tail_node_times.setdefault(node, []).append(ev.t)
        self._tail_edge_events.setdefault(ev.edge, []).append(idx)
        self._tail_edge_times.setdefault(ev.edge, []).append(ev.t)
        self._invalidate_views()
        if len(self._tail) >= self.compact_threshold:
            self.compact()
        return idx

    def compact(self) -> None:
        """Fold tail appends into the flat columns (one vectorized rebuild)."""
        if self._tail:
            rec = _obs.ACTIVE
            if rec is not None:
                rec.inc("storage.compact.calls")
                rec.observe("storage.compact.tail_events", len(self._tail))
            self._build(self.events)


def _prefix_sum(counts: list[int]) -> list[int]:
    out = [0] * (len(counts) + 1)
    total = 0
    for i, c in enumerate(counts):
        total += c
        out[i + 1] = total
    return out
