"""The plain-list storage backend (the library's original representation).

This is the index layout :class:`~repro.core.temporal_graph.TemporalGraph`
was born with, extracted verbatim so behavior is bit-identical: per-node
and per-edge indices are Python lists of integers with parallel timestamp
lists, and every window query is a :mod:`bisect` over one of them.  It is
the default backend and the reference implementation the parity tests
hold every other backend against.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import Iterable

from repro.core.events import Event, validate_events
from repro.storage.base import GraphStorage


class ListStorage(GraphStorage):
    """Dict-of-lists indices over a Python event list."""

    backend_name = "list"

    def __init__(self, events: Iterable[Event], *, presorted: bool = False) -> None:
        validated = list(events) if presorted else validate_events(events)
        self._events: list[Event] = validated
        self._events_tuple: tuple[Event, ...] | None = None
        self._times: list[float] = [ev.t for ev in validated]

        node_events: dict[int, list[int]] = defaultdict(list)
        edge_events: dict[tuple[int, int], list[int]] = defaultdict(list)
        for idx, ev in enumerate(validated):
            node_events[ev.u].append(idx)
            if ev.v != ev.u:
                node_events[ev.v].append(idx)
            edge_events[ev.edge].append(idx)

        times = self._times
        self._node_events: dict[int, list[int]] = dict(node_events)
        self._node_times: dict[int, list[float]] = {
            node: [times[i] for i in idxs] for node, idxs in node_events.items()
        }
        self._edge_events: dict[tuple[int, int], list[int]] = dict(edge_events)
        self._edge_times: dict[tuple[int, int], list[float]] = {
            edge: [times[i] for i in idxs] for edge, idxs in edge_events.items()
        }

    # ------------------------------------------------------------------
    # construction / conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_events(
        cls, events: Iterable[Event], *, presorted: bool = False
    ) -> "ListStorage":
        return cls(events, presorted=presorted)

    # ------------------------------------------------------------------
    # materialized views
    # ------------------------------------------------------------------
    @property
    def events(self) -> tuple[Event, ...]:
        if self._events_tuple is None:
            self._events_tuple = tuple(self._events)
        return self._events_tuple

    @property
    def times(self) -> list[float]:
        return self._times

    @property
    def node_events(self) -> dict[int, list[int]]:
        return self._node_events

    @property
    def node_times(self) -> dict[int, list[float]]:
        return self._node_times

    @property
    def edge_events(self) -> dict[tuple[int, int], list[int]]:
        return self._edge_events

    @property
    def edge_times(self) -> dict[tuple[int, int], list[float]]:
        return self._edge_times

    # ------------------------------------------------------------------
    # point lookups
    # ------------------------------------------------------------------
    def event_at(self, idx: int) -> Event:
        return self._events[idx]

    def node_event_indices(self, node: int) -> list[int]:
        return self._node_events.get(node, [])

    # ------------------------------------------------------------------
    # windowed queries
    # ------------------------------------------------------------------
    def node_events_in(self, node: int, t_lo: float, t_hi: float) -> list[int]:
        times = self._node_times.get(node)
        if times is None:
            return []
        lo = bisect.bisect_left(times, t_lo)
        hi = bisect.bisect_right(times, t_hi)
        return self._node_events[node][lo:hi]

    def count_node_events_in(self, node: int, t_lo: float, t_hi: float) -> int:
        times = self._node_times.get(node)
        if times is None:
            return 0
        return bisect.bisect_right(times, t_hi) - bisect.bisect_left(times, t_lo)

    def count_edge_events_in(
        self, edge: tuple[int, int], t_lo: float, t_hi: float
    ) -> int:
        times = self._edge_times.get(edge)
        if times is None:
            return 0
        return bisect.bisect_right(times, t_hi) - bisect.bisect_left(times, t_lo)

    def node_events_between(self, node: int, t_lo: float, t_hi: float) -> list[int]:
        times = self._node_times.get(node)
        if not times:
            return []
        lo = bisect.bisect_right(times, t_lo)
        hi = bisect.bisect_right(times, t_hi)
        return self._node_events[node][lo:hi]

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def append(self, event: Event) -> int:
        ev = self._check_appendable(event)
        idx = len(self._events)
        self._events.append(ev)
        self._events_tuple = None
        self._times.append(ev.t)
        for node in (ev.u, ev.v):
            self._node_events.setdefault(node, []).append(idx)
            self._node_times.setdefault(node, []).append(ev.t)
        self._edge_events.setdefault(ev.edge, []).append(idx)
        self._edge_times.setdefault(ev.edge, []).append(ev.t)
        return idx
