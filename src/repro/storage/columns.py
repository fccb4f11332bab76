"""The column-store core shared by the columnar and numpy backends.

:class:`ColumnStore` answers everything a flat-column event store
answers the same way whatever its columns are made of: the append
*tail*, the materialized views, the point lookups and the closed-window
queries.  A subclass owns only how it builds, holds, compacts and
persists its columns and CSR indexes, and shows them to the core as
sequences that yield Python numbers:

* ``_col_u``, ``_col_v``, ``_col_t`` — the main (compacted) columns,
  ``_m`` events long;
* :meth:`~ColumnStore._node_columns` / :meth:`~ColumnStore._edge_columns`
  — ``(slot, off, idx, times)`` of the per-node / per-edge CSR index:
  ``slot`` maps a node (directed edge) to its slot, ``idx[off[s] :
  off[s + 1]]`` are its strictly increasing event indices and ``times``
  the timestamps parallel to ``idx``.

The columnar backend's ``array`` columns are such sequences as they
are; the numpy backend hands the core ``memoryview`` s of its arrays,
read-only mmap pages included.  A window query is then a slot lookup
plus two :mod:`bisect` calls over a bounded range of one flat timestamp
sequence — the index ``np.searchsorted`` returns, without a NumPy call
per query — and every answer is a plain ``int`` or ``float``.  This
module imports no NumPy.

Appends land in a small tail: the events plus per-node and per-edge
index and time lists, so a live graph never rebuilds its columns per
event.  Once the tail holds :attr:`ColumnStore.compact_threshold`
events the subclass's :meth:`~ColumnStore.compact` folds it into the
columns.  Because :meth:`~ColumnStore.append` requires non-decreasing
timestamps, every merged answer is a CSR range followed by a tail
range.  The events of the main columns, once boxed, stay cached across
appends.
"""

from __future__ import annotations

from abc import abstractmethod
from bisect import bisect_left, bisect_right
from operator import attrgetter
from typing import Iterator, Sequence

from repro.core.events import Event
from repro.storage.base import GraphStorage

_time = attrgetter("t")


class ColumnStore(GraphStorage):
    """Flat main columns plus an append tail, queried through CSR indexes."""

    #: Tail appends tolerated before :meth:`compact` folds them into the columns.
    compact_threshold = 4096

    _m: int
    _col_u: Sequence[int]
    _col_v: Sequence[int]
    _col_t: Sequence[float]

    @abstractmethod
    def _node_columns(self) -> tuple:
        """``(slot, off, idx, times)`` of the per-node CSR index (main columns)."""

    @abstractmethod
    def _edge_columns(self) -> tuple:
        """``(slot, off, idx, times)`` of the per-edge CSR index (main columns)."""

    @abstractmethod
    def compact(self) -> None:
        """Fold the tail into the main columns, then call :meth:`_clear_tail`."""

    def _clear_tail(self) -> None:
        """Empty the tail and drop every cache: new main columns are in place."""
        self._main_cache: tuple[Event, ...] | None = None
        self._tail: list[Event] = []
        self._tail_node_events: dict[int, list[int]] = {}
        self._tail_node_times: dict[int, list[float]] = {}
        self._tail_edge_events: dict[tuple[int, int], list[int]] = {}
        self._tail_edge_times: dict[tuple[int, int], list[float]] = {}
        self._invalidate_views()

    def _invalidate_views(self) -> None:
        self._events_cache: tuple[Event, ...] | None = None
        self._times_cache: list[float] | None = None
        self._node_events_cache: dict[int, list[int]] | None = None
        self._node_times_cache: dict[int, list[float]] | None = None
        self._edge_events_cache: dict[tuple[int, int], list[int]] | None = None
        self._edge_times_cache: dict[tuple[int, int], list[float]] | None = None

    # ------------------------------------------------------------------
    # materialized views
    # ------------------------------------------------------------------
    @property
    def events(self) -> tuple[Event, ...]:
        if self._events_cache is None:
            main = self._main_cache
            if main is None:
                main = self._main_cache = tuple(map(Event, self._col_u, self._col_v, self._col_t))
            self._events_cache = main + tuple(self._tail) if self._tail else main
        return self._events_cache

    @property
    def times(self) -> list[float]:
        if self._times_cache is None:
            times = self._col_t.tolist()
            times.extend(map(_time, self._tail))
            self._times_cache = times
        return self._times_cache

    @property
    def node_events(self) -> dict[int, list[int]]:
        if self._node_events_cache is None:
            self._node_events_cache = _grouped(self._node_columns(), self._tail_node_events)
        return self._node_events_cache

    @property
    def node_times(self) -> dict[int, list[float]]:
        if self._node_times_cache is None:
            self._node_times_cache = _timed(self.node_events, self.times)
        return self._node_times_cache

    @property
    def edge_events(self) -> dict[tuple[int, int], list[int]]:
        if self._edge_events_cache is None:
            self._edge_events_cache = _grouped(self._edge_columns(), self._tail_edge_events)
        return self._edge_events_cache

    @property
    def edge_times(self) -> dict[tuple[int, int], list[float]]:
        if self._edge_times_cache is None:
            self._edge_times_cache = _timed(self.edge_events, self.times)
        return self._edge_times_cache

    # ------------------------------------------------------------------
    # scalar views (no dict view materialized)
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> set[int]:
        out = set(self._node_columns()[0])
        out.update(self._tail_node_events)
        return out

    @property
    def num_nodes(self) -> int:
        slot = self._node_columns()[0]
        return len(slot) + sum(1 for n in self._tail_node_events if n not in slot)

    @property
    def num_edges(self) -> int:
        slot = self._edge_columns()[0]
        return len(slot) + sum(1 for e in self._tail_edge_events if e not in slot)

    @property
    def start_time(self) -> float | None:
        if self._m:
            return self._col_t[0]
        return self._tail[0].t if self._tail else None

    @property
    def end_time(self) -> float | None:
        if self._tail:
            return self._tail[-1].t
        return self._col_t[-1] if self._m else None

    def __len__(self) -> int:
        return self._m + len(self._tail)

    # ------------------------------------------------------------------
    # point lookups and time seams
    # ------------------------------------------------------------------
    def event_at(self, idx: int) -> Event:
        """O(1) event lookup straight from the columns (or the tail)."""
        if idx < 0:
            idx += len(self)
        if idx >= self._m:
            return self._tail[idx - self._m]
        if self._main_cache is not None:
            return self._main_cache[idx]
        return Event(self._col_u[idx], self._col_v[idx], self._col_t[idx])

    def iter_uvt(self) -> Iterator[tuple[int, int, float]]:
        yield from zip(self._col_u, self._col_v, self._col_t)
        for ev in self._tail:
            yield (ev.u, ev.v, ev.t)

    def time_at(self, idx: int) -> float:
        if idx < 0:
            idx += len(self)
        if idx >= self._m:
            return self._tail[idx - self._m].t
        return self._col_t[idx]

    def bisect_time_left(self, t: float) -> int:
        lo = bisect_left(self._col_t, t)
        if lo == self._m and self._tail:
            lo += bisect_left(self._tail, t, key=_time)
        return lo

    def bisect_time_right(self, t: float) -> int:
        hi = bisect_right(self._col_t, t)
        if hi == self._m and self._tail:
            hi += bisect_right(self._tail, t, key=_time)
        return hi

    def node_event_indices(self, node: int) -> list[int]:
        slot, off, idx, _times = self._node_columns()
        s = slot.get(node)
        out = [] if s is None else idx[off[s] : off[s + 1]].tolist()
        tail = self._tail_node_events.get(node)
        if tail:
            out.extend(tail)
        return out

    # ------------------------------------------------------------------
    # windowed queries
    # ------------------------------------------------------------------
    def node_events_in(self, node: int, t_lo: float, t_hi: float) -> list[int]:
        return self._node_window(node, t_lo, t_hi, bisect_left)

    def node_events_between(self, node: int, t_lo: float, t_hi: float) -> list[int]:
        return self._node_window(node, t_lo, t_hi, bisect_right)

    def _node_window(self, node: int, t_lo: float, t_hi: float, first) -> list[int]:
        """The node's event indices in ``[t_lo, t_hi]`` (``first`` is
        ``bisect_left``) or ``(t_lo, t_hi]`` (``bisect_right``)."""
        slot, off, idx, times = self._node_columns()
        s = slot.get(node)
        if s is None:
            out = []
        else:
            lo, hi = off[s], off[s + 1]
            out = idx[first(times, t_lo, lo, hi) : bisect_right(times, t_hi, lo, hi)].tolist()
        if self._tail:
            times = self._tail_node_times.get(node)
            if times:
                a, b = first(times, t_lo), bisect_right(times, t_hi)
                out.extend(self._tail_node_events[node][a:b])
        return out

    # The two counts are the restriction checkers' per-query path, so each
    # is written out: a shared helper's extra call costs ~10% per count.
    def count_node_events_in(self, node: int, t_lo: float, t_hi: float) -> int:
        slot, off, _idx, times = self._node_columns()
        s = slot.get(node)
        n = 0
        if s is not None:
            lo, hi = off[s], off[s + 1]
            n = bisect_right(times, t_hi, lo, hi) - bisect_left(times, t_lo, lo, hi)
        if self._tail:
            times = self._tail_node_times.get(node)
            if times:
                n += bisect_right(times, t_hi) - bisect_left(times, t_lo)
        return n

    def count_edge_events_in(self, edge: tuple[int, int], t_lo: float, t_hi: float) -> int:
        slot, off, _idx, times = self._edge_columns()
        s = slot.get(edge)
        n = 0
        if s is not None:
            lo, hi = off[s], off[s + 1]
            n = bisect_right(times, t_hi, lo, hi) - bisect_left(times, t_lo, lo, hi)
        if self._tail:
            times = self._tail_edge_times.get(edge)
            if times:
                n += bisect_right(times, t_hi) - bisect_left(times, t_lo)
        return n

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


def _grouped(columns: tuple, tail: dict) -> dict:
    """key -> event indices: the CSR index's ranges, then the tail's."""
    slot, off, idx, _times = columns
    out = {key: idx[off[s] : off[s + 1]].tolist() for key, s in slot.items()}
    for key, idxs in tail.items():
        out.setdefault(key, []).extend(idxs)
    return out


def _timed(grouped: dict, times: list[float]) -> dict:
    """key -> the timestamps parallel to ``grouped``'s event indices."""
    return {key: [times[i] for i in idxs] for key, idxs in grouped.items()}
