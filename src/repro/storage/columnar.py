"""Columnar storage backend: flat ``array`` columns with CSR offset indices.

Layout
------

The event stream is stored as three flat columns — ``u`` and ``v`` in
``array('q')`` (int64) and ``t`` in ``array('d')`` (float64) — instead of
per-event Python objects.  The per-node and per-edge indices are
CSR-style: one flat ``array('q')`` of event indices grouped by node
(edge), one parallel ``array('d')`` of timestamps, and an offsets list
mapping each node (edge) *slot* to its ``[start, end)`` range — no
per-node list objects, no boxed floats, ~4× less index memory than
dict-of-lists.  These ``array`` s are what the column-store core
(:class:`~repro.storage.columns.ColumnStore`) bisects: the views, the
window queries and the append tail are the core's, shared with the numpy
backend.

Construction is vectorized through NumPy when available — the numpy
backend's CSR builders (:func:`~repro.storage.numpy_backend.build_node_csr`,
:func:`~repro.storage.numpy_backend.build_edge_csr`) run over zero-copy
views of the columns instead of millions of interpreter-level ``append``
calls — with a pure-Python counting-sort fallback, so the backend works —
just slower — on interpreters without NumPy.

Appends land in the core's tail; :meth:`ColumnarStorage.compact` folds
it into the columns by rebuilding them from the events.

Node ids must fit in a signed 64-bit integer (the ``'q'`` typecode);
anything wider raises at construction.
"""

from __future__ import annotations

from array import array
from typing import Iterable

import repro.obs as _obs
from repro.core.events import Event, validate_events
from repro.storage.columns import ColumnStore
from repro.storage.numpy_backend import build_edge_csr, build_node_csr

try:  # NumPy accelerates construction only; queries never need it.
    import numpy as _np
except Exception:  # pragma: no cover - the image bakes numpy in
    _np = None


class ColumnarStorage(ColumnStore):
    """Flat-column event store with CSR per-node / per-edge indices."""

    backend_name = "columnar"

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
        self._clear_tail()
        if not (events and _np is not None and self._build_numpy(events)):
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
            return False
        u = np.frombuffer(self._col_u, dtype=np.int64)
        v = np.frombuffer(self._col_v, dtype=np.int64)
        t = np.frombuffer(self._col_t, dtype=np.float64)

        def flat(slot, off, idx) -> tuple:
            times = array("d", t[idx].tobytes())
            return (slot, off.tolist(), array("q", idx.tobytes()), times)

        self._set_index(flat(*build_node_csr(u, v)[:3]), flat(*build_edge_csr(u, v)))
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

        self._set_index(
            (node_slot, node_off, node_idx, node_t),
            (edge_slot, edge_off, edge_idx, edge_t),
        )

    def _set_index(self, node: tuple, edge: tuple) -> None:
        """Install the ``(slot, off, idx, times)`` node and edge CSR indexes."""
        self._node_cols = node
        self._edge_cols = edge
        # Each field by name too, as the CSR parity tests read them.
        self._node_slot, self._node_off, self._node_idx, self._node_t = node
        self._edge_slot, self._edge_off, self._edge_idx, self._edge_t = edge

    def _node_columns(self) -> tuple:
        return self._node_cols

    def _edge_columns(self) -> tuple:
        return self._edge_cols

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
