"""NumPy page storage backend: contiguous columns, ``searchsorted`` kernels, mmap pages.

Layout
------

The event stream lives in three contiguous ``ndarray`` columns — ``u`` and
``v`` as int64, ``t`` as float64 — and the per-node / per-edge indices are
CSR-style: one flat int64 array of event indices grouped by node (edge)
slot, a parallel float64 array of their timestamps, and an offsets array
mapping each slot to its ``[start, end)`` range.  The views, the scalar
window queries and the append tail are the column-store core's
(:class:`~repro.storage.columns.ColumnStore`, shared with the columnar
backend): it reads the columns and the CSR arrays through ``memoryview`` s
cached beside them, so a scalar window query is two :mod:`bisect` calls
over one slot's range of the flat timestamp array — the index
``np.searchsorted`` returns, at a fraction of a NumPy call's overhead, on
in-memory arrays and read-only mmap pages alike.

The engine's block lane answers *many* window probes at once with a
constant number of vectorized ``searchsorted`` calls: the node CSR that
:meth:`NumpyStorage.extension_arrays` hands it is shifted so each slot's
segment sits in a disjoint band (``index + slot * m``), which keeps the
concatenated array globally sorted.

Construction reads the three columns straight from the input rows, one
``itemgetter`` pass per column.  Unsorted input is certified with
whole-array checks and put in ``(t, u, v)`` order by one ``argsort`` of
an int64 composite key; rows the checks cannot certify (odd types or
arity, bad times, loops) go through
:func:`~repro.core.events.validate_events`, so the errors are its own.

CSR indices are built lazily (first per-node/per-edge query) and
vectorized by :func:`build_node_csr` (one sort of a composite int64
key) and :func:`build_edge_csr` (one ``np.lexsort``), which the
columnar backend's construction shares; so :meth:`slice_time` and
:meth:`slice_range` are zero-copy column views with deferred index cost.
Each build is observed as ``storage.index.seconds{index=node|edge}``
when a recorder is active, as is the neighbour table that
:meth:`NumpyStorage.node_adjacent_events` derives from the node index
(``{index=node_adjacent}``).

Persistence
-----------

:meth:`save` writes an ``.npz``-style *page directory*: one ``.npy`` file
per column and per CSR page plus a ``meta.json`` manifest.
:meth:`load` (and the :meth:`TemporalGraph.load
<repro.core.temporal_graph.TemporalGraph.load>` facade) reopens the pages
with ``np.load(..., mmap_mode="r")`` by default: the three column pages at
load, the index pages on first index use, so a multi-million-event stream
is queryable without materializing anything beyond the touched pages, and
a slice or a time bisect never maps the index at all.  Appends after a
load land in the core's tail (the columns — possibly read-only maps —
are never written); :meth:`NumpyStorage.compact` concatenates the tail
onto fresh in-memory columns and forgets the index pages, which no
longer describe them.

Node ids must fit in int64; anything wider raises at construction (use the
``"list"`` backend for exotic ids).
"""

from __future__ import annotations

import json
import os
import time
from operator import itemgetter
from typing import Any, Iterable, Sequence

import repro.obs as _obs
from repro.core.events import Event, validate_events
from repro.obs import labeled
from repro.storage.columns import ColumnStore

try:  # The whole backend requires NumPy; registration is gated on this.
    import numpy as np
except Exception:  # pragma: no cover - the image bakes numpy in
    np = None

#: ``meta.json`` manifest identifier of the page directory layout.
PAGE_FORMAT = "repro-numpy-pages"

#: Version stamp written to (and checked against) ``meta.json``.
PAGE_VERSION = 1

#: Column pages: (file stem, attribute, dtype).
_COLUMN_PAGES = (("u", "_u", "int64"), ("v", "_v", "int64"), ("t", "_t", "float64"))

_U, _V, _T = itemgetter(0), itemgetter(1), itemgetter(2)

#: Row types whose indexing reads what ``Event(*row)`` reads.
_ROW_TYPES = frozenset((Event, tuple, list))

#: Times below 2**53 are exact in float64 whatever their Python type.
_EXACT_TIME = 2.0**53

#: Composite int64 sort keys must stay below this bound.
_KEY_LIMIT = 2**63

#: Histogram names of the lazy CSR builds (one observation per build).
_NODE_INDEX_SECONDS = labeled("storage.index.seconds", index="node")
_EDGE_INDEX_SECONDS = labeled("storage.index.seconds", index="edge")
_NODE_ADJACENT_SECONDS = labeled("storage.index.seconds", index="node_adjacent")


def available() -> bool:
    """Whether the backend can run (NumPy importable)."""
    return np is not None


class NumpyStorage(ColumnStore):
    """Contiguous-``ndarray`` event store with vectorized window kernels.

    ``NumpyStorage(events)`` validates like every backend (the errors of
    :func:`~repro.core.events.validate_events`, ``(t, u, v)`` order) but
    builds no :class:`Event` per row when the rows are plain
    ``Event``/tuple/list triples of int node ids and int or float times:
    those are read as whole columns and checked and sorted as arrays.
    ``presorted=True`` reads the columns as they come.
    """

    backend_name = "numpy"

    def __init__(self, events: Iterable[Event] = (), *, presorted: bool = False) -> None:
        if np is None:  # pragma: no cover - exercised only without numpy
            raise RuntimeError("the 'numpy' storage backend requires NumPy")
        if not isinstance(events, (list, tuple)):
            events = list(events)
        columns = None if presorted else _certified_columns(events)
        if columns is None:
            columns = _read_columns(events if presorted else validate_events(events))
        self._set_columns(*columns)

    # ------------------------------------------------------------------
    # construction / conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_events(
        cls, events: Iterable[Event], *, presorted: bool = False
    ) -> "NumpyStorage":
        return cls(events, presorted=presorted)

    @classmethod
    def from_arrays(cls, u, v, t) -> "NumpyStorage":
        """Wrap pre-sorted column arrays without copying when possible.

        The arrays must describe a valid ``(t, u, v)``-sorted, loop-free
        event stream (e.g. a slice of another :class:`NumpyStorage` or
        pages read back from :meth:`save`); no re-validation happens here.
        """
        if np is None:  # pragma: no cover
            raise RuntimeError("the 'numpy' storage backend requires NumPy")
        storage = cls.__new__(cls)
        storage._set_columns(
            _as_column(u, np.int64), _as_column(v, np.int64), _as_column(t, np.float64)
        )
        return storage

    def _set_columns(self, u, v, t) -> None:
        """Install the three columns and reset every derived structure."""
        self._u = u
        self._v = v
        self._t = t
        self._m = len(t)
        # What the column-store core reads: the columns as Python numbers.
        self._col_u, self._col_v, self._col_t = map(memoryview, (u, v, t))
        # Page directory whose index pages describe these columns, mapped
        # on first index use (see load_pages); new columns forget it.
        self._index_dir: str | None = None
        # Lazy CSR indices: (slot dict, offsets, flat indices).
        self._node_csr: tuple | None = None
        self._edge_csr: tuple | None = None
        # Lazy flat timestamp arrays parallel to the CSR index arrays.
        self._node_t: Any | None = None
        self._edge_t: Any | None = None
        # Lazy (slot, off, idx, times) memoryview tuples the core bisects.
        self._node_cols: tuple | None = None
        self._edge_cols: tuple | None = None
        # Lazy banded copy of the node CSR (the block lane's probe array).
        self._node_banded: Any | None = None
        # Lazy sorted node-id array (vectorized node -> slot resolution).
        self._node_keys_sorted: Any | None = None
        # Lazy per-event previous/next times on the same edge.
        self._edge_adjacent: tuple | None = None
        # Lazy per-event-side previous/next event of the same node.
        self._node_adjacent: tuple | None = None
        self._clear_tail()

    def __getstate__(self) -> dict:
        # memoryviews do not pickle: ship the arrays, view them anew on arrival.
        state = self.__dict__.copy()
        for name in ("_col_u", "_col_v", "_col_t", "_node_cols", "_edge_cols"):
            del state[name]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._col_u, self._col_v, self._col_t = map(memoryview, (self._u, self._v, self._t))
        self._node_cols = self._edge_cols = None

    # ------------------------------------------------------------------
    # lazy CSR indices
    # ------------------------------------------------------------------
    def _map_index_pages(self) -> bool:
        """Map the saved index pages this storage was loaded beside.

        True when the pages were installed; False when there is no
        pending directory or a page is missing, and the caller builds
        the index from the columns.  The directory is consumed either way.
        """
        path, self._index_dir = self._index_dir, None
        return path is not None and self._read_index_pages(path, "r")

    def _read_index_pages(self, path: str, mode: str | None) -> bool:
        """Install a page directory's CSR index pages.

        Returns False, installing nothing, when any index page is
        missing: index pages are optional, and the lazy CSR build
        recreates them.
        """
        try:
            node_keys = _page(path, "node_keys", mode)
            node_slots = _page(path, "node_slots", mode)
            node_off = _page(path, "node_off", mode)
            node_idx = _page(path, "node_idx", mode)
            node_t = _page(path, "node_t", mode)
            edge_keys = _page(path, "edge_keys", mode)
            edge_slots = _page(path, "edge_slots", mode)
            edge_off = _page(path, "edge_off", mode)
            edge_idx = _page(path, "edge_idx", mode)
            edge_t = _page(path, "edge_t", mode)
        except FileNotFoundError:
            return False
        rec = _obs.ACTIVE
        if rec is not None:
            rec.inc("storage.pages.index_opens")
        self._node_csr = (
            dict(zip(node_keys.tolist(), node_slots.tolist())),
            node_off,
            node_idx,
        )
        self._node_t = node_t
        self._edge_csr = (
            dict(zip(map(tuple, edge_keys.tolist()), edge_slots.tolist())),
            edge_off,
            edge_idx,
        )
        self._edge_t = edge_t
        return True

    def _node_index(self) -> tuple:
        """``(slot, off, idx)`` of the per-node CSR index (see :func:`build_node_csr`)."""
        if self._node_csr is None and not self._map_index_pages():
            slot, off, idx, self._node_keys_sorted = _timed_build(
                _NODE_INDEX_SECONDS, build_node_csr, self._u, self._v
            )
            self._node_csr = (slot, off, idx)
        return self._node_csr

    def _node_banded_index(self):
        """``idx + slot_of_position * m``: the node CSR shifted so each
        slot occupies a disjoint band, making the flat array globally
        sorted — one ``searchsorted`` then answers a probe for any node.
        Built on first :meth:`extension_arrays` call (mmap loads stay lazy
        until then).
        """
        if self._node_banded is None:
            _slot, off, idx = self._node_index()
            counts = np.diff(off)
            self._node_banded = idx + np.repeat(
                np.arange(len(counts), dtype=np.int64), counts
            ) * np.int64(self._m)
        return self._node_banded

    def _node_keys(self):
        """Distinct node ids, ascending — position in this array == slot."""
        if self._node_keys_sorted is None:
            slot = self._node_index()[0]
            keys = np.fromiter(slot.keys(), dtype=np.int64, count=len(slot))
            order = np.fromiter(slot.values(), dtype=np.int64, count=len(slot))
            # Slots enumerate the value-sorted group layout, so scattering
            # the keys by slot yields them in ascending order.
            out = np.empty_like(keys)
            out[order] = keys
            self._node_keys_sorted = out
        return self._node_keys_sorted

    def _node_times_flat(self):
        """Timestamps parallel to the node CSR index array (lazy gather)."""
        if self._node_t is None and not self._map_index_pages():
            idx = self._node_index()[2]
            self._node_t = np.ascontiguousarray(self._t[idx])
        return self._node_t

    def _edge_times_flat(self):
        """Timestamps parallel to the edge CSR index array (lazy gather)."""
        if self._edge_t is None and not self._map_index_pages():
            idx = self._edge_index()[2]
            self._edge_t = np.ascontiguousarray(self._t[idx])
        return self._edge_t

    def _edge_index(self) -> tuple:
        """``(slot, off, idx)`` of the per-edge CSR index."""
        if self._edge_csr is None and not self._map_index_pages():
            self._edge_csr = _timed_build(
                _EDGE_INDEX_SECONDS, build_edge_csr, self._u, self._v
            )
        return self._edge_csr

    def _node_columns(self) -> tuple:
        if self._node_cols is None:
            slot, off, idx = self._node_index()
            self._node_cols = (slot, *map(memoryview, (off, idx, self._node_times_flat())))
        return self._node_cols

    def _edge_columns(self) -> tuple:
        if self._edge_cols is None:
            slot, off, idx = self._edge_index()
            self._edge_cols = (slot, *map(memoryview, (off, idx, self._edge_times_flat())))
        return self._edge_cols

    # ------------------------------------------------------------------
    # kernel arrays
    # ------------------------------------------------------------------
    def extension_arrays(self) -> dict[str, Any] | None:
        """Kernel hook: the flat arrays the vectorized extension kernel probes.

        Returns the timestamp/endpoint columns plus the node CSR in its
        banded form (``idx + slot*m``, globally sorted; see
        :meth:`_node_banded_index`), with ``keys`` the ascending node ids
        whose position equals the CSR slot.
        Returns ``None`` while tail appends are pending: the tail lists
        are not banded, so the engine builds its lane columns from
        :meth:`iter_uvt` instead (:func:`repro.engine.kernels.lane_arrays`).
        """
        if self._tail:
            return None
        return {
            "t": self._t,
            "u": self._u,
            "v": self._v,
            "keys": self._node_keys(),
            "banded": self._node_banded_index(),
            "idx": self._node_index()[2],
            "m": self._m,
        }

    def edge_adjacent_times(self) -> tuple | None:
        """Per-event ``(prev_t, next_t)``: the times of the events just
        before and just after each event on its own directed edge.

        Two float64 columns of length ``len(self)``, ``-inf`` / ``inf``
        where the event is its edge's first / last.  Along an edge the
        events sit in index order, so "no other event on ``e_i``'s edge
        in ``[t_lo, t_i]``" is ``prev_t[i] < t_lo``, and likewise
        ``next_t[i] > t_hi`` for ``[t_i, t_hi]`` — the CDG restriction's
        row form reads both with two gathers.  Built on first use;
        ``None`` while tail appends are pending (the tail is not in the
        edge CSR).
        """
        if self._tail:
            return None
        if self._edge_adjacent is None:
            _slot, off, order = self._edge_index()
            seg_t = self._edge_times_flat()
            prev_sorted = np.empty_like(seg_t)
            next_sorted = np.empty_like(seg_t)
            if len(seg_t):
                prev_sorted[1:] = seg_t[:-1]
                next_sorted[:-1] = seg_t[1:]
                prev_sorted[off[:-1]] = -np.inf
                next_sorted[off[1:] - 1] = np.inf
            prev_t = np.empty_like(seg_t)
            next_t = np.empty_like(seg_t)
            prev_t[order] = prev_sorted
            next_t[order] = next_sorted
            self._edge_adjacent = (prev_t, next_t)
        return self._edge_adjacent

    def node_adjacent_events(self) -> tuple | None:
        """Per-event-side ``(prev, next)``: each endpoint's events just
        before and just after each event.

        Two ``(2, m)`` int64 arrays, row 0 the ``u`` side and row 1 the
        ``v`` side: ``prev[s, i]`` is the global index of the previous
        event touching endpoint ``s`` of event ``i``, ``-1`` where ``i``
        is that node's first; ``next[s, i]`` the next one, ``m`` where
        ``i`` is its last.  A node's events sit in index order in its
        node CSR slot, so both are that slot shifted by one; a self-loop
        is listed once in its node's slot, and both of its sides read
        the same neighbours.  The consecutive-events restriction's row
        form reads them with gathers.  Built on first use; ``None``
        while tail appends are pending (the tail is not in the node CSR).
        """
        if self._tail:
            return None
        if self._node_adjacent is None:
            self._node_adjacent = _timed_build(
                _NODE_ADJACENT_SECONDS, self._build_node_adjacent
            )
        return self._node_adjacent

    def _build_node_adjacent(self) -> tuple:
        m = self._m
        prev = np.empty((2, m), dtype=np.int64)
        nxt = np.empty((2, m), dtype=np.int64)
        if not m:
            return prev, nxt
        _slot, off, idx = self._node_index()
        prev_sorted = np.empty(len(idx), dtype=np.int64)
        next_sorted = np.empty(len(idx), dtype=np.int64)
        prev_sorted[1:] = idx[:-1]
        next_sorted[:-1] = idx[1:]
        prev_sorted[off[:-1]] = -1
        next_sorted[off[1:] - 1] = m
        # Entry k of the CSR lists event idx[k] under the node of its
        # slot: its u side when that node is the event's u.
        node = np.repeat(self._node_keys(), np.diff(off))
        side = (node != self._u[idx]).astype(np.int64)
        prev[side, idx] = prev_sorted
        nxt[side, idx] = next_sorted
        loops = np.flatnonzero(self._u == self._v)
        prev[1, loops] = prev[0, loops]
        nxt[1, loops] = nxt[0, loops]
        return prev, nxt

    # ------------------------------------------------------------------
    # transformations / shard plumbing
    # ------------------------------------------------------------------
    def slice_time(self, t_lo: float, t_hi: float) -> "NumpyStorage":
        """Zero-copy column views over the closed window (lazy indices)."""
        rec = _obs.ACTIVE
        if rec is not None:
            rec.inc("storage.slice_time.calls")
        if self._tail:
            self.compact()
        return self.slice_range(self.bisect_time_left(t_lo), self.bisect_time_right(t_hi))

    def slice_range(self, lo: int, hi: int) -> "NumpyStorage":
        """A new storage over ``events[lo:hi]`` as zero-copy column views."""
        rec = _obs.ACTIVE
        if rec is not None:
            rec.inc("storage.slice_range.calls")
        if self._tail:
            self.compact()
        return type(self).from_arrays(
            self._u[lo:hi], self._v[lo:hi], self._t[lo:hi]
        )

    def shard_payload(self, lo: int, hi: int) -> dict[str, Any]:
        """Column slices as a picklable payload (no event-tuple round-trip)."""
        if self._tail:
            self.compact()
        return {
            "kind": PAGE_FORMAT,
            "u": self._u[lo:hi],
            "v": self._v[lo:hi],
            "t": self._t[lo:hi],
        }

    @classmethod
    def from_shard_payload(cls, payload) -> "NumpyStorage":
        if isinstance(payload, dict) and payload.get("kind") == PAGE_FORMAT:
            return cls.from_arrays(payload["u"], payload["v"], payload["t"])
        return super().from_shard_payload(payload)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def compact(self) -> None:
        """Fold tail appends into fresh in-memory columns.

        Also the escape hatch from read-only memory-mapped pages: the
        rebuilt columns are ordinary arrays, so a loaded graph keeps
        accepting appends without ever writing to its backing files.
        """
        if not self._tail:
            return
        rec = _obs.ACTIVE
        if rec is not None:
            rec.inc("storage.compact.calls")
            rec.observe("storage.compact.tail_events", len(self._tail))
        heads = (self._u, self._v, self._t)
        self._set_columns(
            *(
                np.concatenate((np.asarray(head), column))
                for head, column in zip(heads, _read_columns(self._tail))
            )
        )

    # ------------------------------------------------------------------
    # persistence (mmap page directory)
    # ------------------------------------------------------------------
    def save(self, path: str | os.PathLike, *, name: str = "") -> None:
        """Write the columns and CSR index pages under directory ``path``.

        The layout is one ``.npy`` page per array plus a ``meta.json``
        manifest, so :meth:`load` can reopen each page memory-mapped.
        Index pages are saved too (forcing their lazy build), which keeps
        a subsequent mmap load free of any O(events) index pass.
        """
        if self._tail:
            self.compact()
        path = os.fspath(path)
        os.makedirs(path, exist_ok=True)
        for stem, attr, _dtype in _COLUMN_PAGES:
            np.save(os.path.join(path, f"{stem}.npy"), np.asarray(getattr(self, attr)))
        node_slot, node_off, node_idx = self._node_index()
        edge_slot, edge_off, edge_idx = self._edge_index()
        # Slot dicts serialize as two parallel arrays in first-appearance
        # order, preserving the seed iteration order across a round-trip.
        np.save(
            os.path.join(path, "node_keys.npy"),
            np.fromiter(node_slot.keys(), dtype=np.int64, count=len(node_slot)),
        )
        np.save(
            os.path.join(path, "node_slots.npy"),
            np.fromiter(node_slot.values(), dtype=np.int64, count=len(node_slot)),
        )
        np.save(os.path.join(path, "node_off.npy"), node_off)
        np.save(os.path.join(path, "node_idx.npy"), node_idx)
        np.save(os.path.join(path, "node_t.npy"), self._node_times_flat())
        edge_keys = np.empty((len(edge_slot), 2), dtype=np.int64)
        for row, (eu, ev) in enumerate(edge_slot):
            edge_keys[row, 0] = eu
            edge_keys[row, 1] = ev
        np.save(os.path.join(path, "edge_keys.npy"), edge_keys)
        np.save(
            os.path.join(path, "edge_slots.npy"),
            np.fromiter(edge_slot.values(), dtype=np.int64, count=len(edge_slot)),
        )
        np.save(os.path.join(path, "edge_off.npy"), edge_off)
        np.save(os.path.join(path, "edge_idx.npy"), edge_idx)
        np.save(os.path.join(path, "edge_t.npy"), self._edge_times_flat())
        meta = {
            "format": PAGE_FORMAT,
            "version": PAGE_VERSION,
            "n_events": self._m,
            "name": name,
        }
        with open(os.path.join(path, "meta.json"), "w") as fh:
            json.dump(meta, fh, indent=2)

    @classmethod
    def load(cls, path: str | os.PathLike, *, mmap: bool = True) -> "NumpyStorage":
        """Reopen a :meth:`save` page directory (memory-mapped by default)."""
        storage, _meta = load_pages(path, mmap=mmap)
        return storage


def _timed_build(metric: str, build, *args):
    """``build(*args)``, observed under ``metric`` when a recorder is active."""
    rec = _obs.ACTIVE
    if rec is None:
        return build(*args)
    start = time.perf_counter()
    out = build(*args)
    rec.observe(metric, time.perf_counter() - start)
    return out


def build_node_csr(u, v) -> tuple:
    """``(slot, off, idx, keys)``: the per-node CSR index of columns ``u``, ``v``.

    ``slot`` maps node -> group position in the sorted layout, with dict
    insertion following first appearance (seed iteration order);
    ``idx[off[s]:off[s+1]]`` is the node's strictly increasing event
    indices (a self-loop listed once); ``keys`` the ascending node ids,
    position equal to slot.
    """
    m = len(u)
    if m == 0:
        empty = np.empty(0, dtype=np.int64)
        return ({}, np.zeros(1, dtype=np.int64), empty, empty)
    ar = np.arange(m, dtype=np.int64)
    # Each event is indexed under both endpoints; position keys
    # 2i / 2i+1 reproduce the seed's insertion order (within a
    # node by event index, across nodes by first touch).
    endpoints = np.concatenate((u, v))
    pos = np.concatenate((2 * ar, 2 * ar + 1))
    loops = u == v
    if loops.any():
        keep = np.concatenate((np.ones(m, dtype=bool), ~loops))
        endpoints = endpoints[keep]
        pos = pos[keep]
    # Positions are distinct, so sorting the one key
    # (endpoint - lo) * 2m + pos groups by node, positions ascending.
    lo = int(endpoints.min())
    width = 2 * m
    if (int(endpoints.max()) - lo + 1) * width <= _KEY_LIMIT:
        key = np.sort((endpoints - lo) * width + pos)
        offset = key // width
        grouped_pos = key - offset * width
        grouped_nodes = offset + lo
    else:
        order = np.lexsort((pos, endpoints))
        grouped_nodes = endpoints[order]
        grouped_pos = pos[order]
    idx = np.ascontiguousarray(grouped_pos >> 1)
    starts = np.flatnonzero(np.diff(grouped_nodes)) + 1
    starts = np.concatenate((np.zeros(1, dtype=np.int64), starts))
    keys = grouped_nodes[starts]
    appearance = np.argsort(grouped_pos[starts], kind="stable")
    slot = dict(zip(keys[appearance].tolist(), appearance.tolist()))
    off = np.concatenate((starts, np.array([len(idx)], dtype=np.int64)))
    return (slot, off, idx, keys)


def build_edge_csr(u, v) -> tuple:
    """``(slot, off, idx)``: the per-directed-edge CSR index of ``u``, ``v``."""
    m = len(u)
    if m == 0:
        return ({}, np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64))
    # Stable sort by (u, v): ties keep event (time) order.
    order = np.ascontiguousarray(np.lexsort((v, u)))
    su, sv = u[order], v[order]
    starts = np.flatnonzero((np.diff(su) != 0) | (np.diff(sv) != 0)) + 1
    starts = np.concatenate((np.zeros(1, dtype=np.int64), starts))
    appearance = np.argsort(order[starts], kind="stable")
    slot = dict(
        zip(
            zip(
                su[starts][appearance].tolist(),
                sv[starts][appearance].tolist(),
            ),
            appearance.tolist(),
        )
    )
    off = np.concatenate((starts, np.array([m], dtype=np.int64)))
    return (slot, off, order)


def _read_columns(events: Sequence) -> tuple:
    """The ``u``/``v``/``t`` columns of validated, sorted rows, read as-is."""
    m = len(events)
    try:
        u = np.fromiter(map(_U, events), dtype=np.int64, count=m)
        v = np.fromiter(map(_V, events), dtype=np.int64, count=m)
    except OverflowError:
        raise ValueError(
            "the 'numpy' storage backend requires int64 node ids; "
            "use the 'list' backend for wider identifiers"
        ) from None
    return u, v, np.fromiter(map(_T, events), dtype=np.float64, count=m)


def _certified_columns(rows: Sequence) -> tuple | None:
    """``(t, u, v)``-sorted columns of rows that validate unchanged, or None.

    Certifies with whole-array tests that :func:`validate_events` would
    accept the rows and that the columns hold the values it compares:
    every row an :class:`Event`, tuple or list of three items; node ids
    that NumPy reads as signed integers; times that are Python ``int``
    or ``float`` (a NumPy ``float32`` compares in float32), non-negative,
    not NaN and below 2**53 (so an ``int`` compares as its float64
    does); no self-loops.  None means "not certified": the caller
    validates row by row, which raises the first bad event's error.
    """
    types = set(map(type, rows))
    if not types <= _ROW_TYPES or (types - {Event} and set(map(len, rows)) != {3}):
        return None
    if not all(issubclass(tp, (int, float)) for tp in set(map(type, map(_T, rows)))):
        return None
    try:
        u = np.array(list(map(_U, rows)))
        v = np.array(list(map(_V, rows)))
        t = np.fromiter(map(_T, rows), dtype=np.float64, count=len(rows))
    except (TypeError, ValueError, OverflowError):
        return None
    if u.ndim != 1 or v.ndim != 1 or u.dtype.kind != "i" or v.dtype.kind != "i":
        return None
    # NaN fails both comparisons; an int rounded to 2**53 fails the second.
    if not ((t >= 0) & (t < _EXACT_TIME)).all() or (u == v).any():
        return None
    u = u.astype(np.int64, copy=False)
    v = v.astype(np.int64, copy=False)
    order = _time_order(u, v, t)
    if order is None:
        return u, v, t
    return u[order], v[order], t[order]


def _time_order(u, v, t):
    """The stable ``(t, u, v)`` sort permutation, or None when already sorted.

    One ``argsort`` of the int64 key ``(tie group of t, u - min u,
    v - min v)`` when it fits (checked with Python ints), else
    ``np.lexsort``.  The tie group is the rank of ``t`` among the
    distinct times.
    """
    dt = np.diff(t)
    if (dt >= 0).all():
        ties = dt == 0
        du = np.diff(u)
        if not (ties & ((du < 0) | ((du == 0) & (np.diff(v) < 0)))).any():
            return None
        group = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(~ties)))
    else:
        group = np.unique(t, return_inverse=True)[1].astype(np.int64, copy=False)
    u_lo, v_lo = int(u.min()), int(v.min())
    u_span = int(u.max()) - u_lo + 1
    v_span = int(v.max()) - v_lo + 1
    if (int(group.max()) + 1) * u_span * v_span > _KEY_LIMIT:
        return np.lexsort((v, u, t))
    key = (group * u_span + (u - u_lo)) * v_span + (v - v_lo)
    return np.argsort(key, kind="stable")


def _as_column(a, dtype):
    """Coerce to ``dtype`` without copying (or retyping) when already right.

    ``np.asanyarray`` keeps ``np.memmap`` instances as memmaps, so columns
    opened from disk stay visibly memory-mapped.
    """
    a = np.asanyarray(a)
    return a if a.dtype == dtype else a.astype(dtype)


def page_meta(path: str | os.PathLike) -> dict:
    """Read and sanity-check a page directory's ``meta.json`` manifest."""
    path = os.fspath(path)
    meta_path = os.path.join(path, "meta.json")
    if not os.path.exists(meta_path):
        raise FileNotFoundError(
            f"{path!r} is not a numpy-page graph directory (no meta.json)"
        )
    with open(meta_path) as fh:
        meta = json.load(fh)
    if meta.get("format") != PAGE_FORMAT:
        raise ValueError(f"{path!r}: unrecognized page format {meta.get('format')!r}")
    if meta.get("version") != PAGE_VERSION:
        raise ValueError(
            f"{path!r}: page layout version {meta.get('version')!r} is not "
            f"supported (this build reads version {PAGE_VERSION})"
        )
    return meta


def load_pages(
    path: str | os.PathLike, *, mmap: bool = True
) -> tuple[NumpyStorage, dict]:
    """Open a page directory; return the storage and its manifest.

    With ``mmap=True`` only the three column pages open here, each an
    ``np.load(..., mmap_mode="r")`` read-only map; the ten index pages
    map on the storage's first index use (a windowed query, the
    extension arrays, ``nodes``), so slicing and time bisects never
    touch them.  Opening a multi-million-event stream touches only the
    manifest and the column page headers, and queries fault in just the
    pages they probe.  With ``mmap=False`` every page is read into
    memory now: the storage is a snapshot that outlives later writes to
    the directory.  Either way a missing index page falls back to
    building the index from the columns.  Appends remain possible —
    they land in the in-memory tail, never in the backing files.
    """
    if np is None:  # pragma: no cover
        raise RuntimeError("loading numpy-page graphs requires NumPy")
    meta = page_meta(path)
    path = os.fspath(path)
    mode = "r" if mmap else None
    storage = NumpyStorage.from_arrays(
        _page(path, "u", mode), _page(path, "v", mode), _page(path, "t", mode)
    )
    if len(storage) != meta["n_events"]:
        raise ValueError(
            f"{path!r}: column pages hold {len(storage)} events but the "
            f"manifest records {meta['n_events']}"
        )
    if mmap:
        storage._index_dir = path
    else:
        storage._read_index_pages(path, None)
    return storage, meta


def _page(path: str, stem: str, mode: str | None):
    return np.load(os.path.join(path, f"{stem}.npy"), mmap_mode=mode)

