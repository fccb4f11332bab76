"""Fuzz and edge-case tests for the storage append seam.

The online engine trusts three corners of the mutation contract that the
parity suite never stressed directly:

* ``append`` of an event at *exactly* the current max timestamp (the
  same-tick tail tick every bursty stream produces),
* ``extend`` with an empty batch (a no-op that must not disturb state),
* appends after ``load(mmap=True)`` — the in-memory tail over read-only
  mapped pages — with windowed queries straddling the tail/compacted
  boundary.

Oracle comparisons are order-insensitive (sets of events, counts): a
fresh ``from_events`` build may legally order same-timestamp events
differently (``(t, u, v)`` sort) than arrival order does.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import Event
from repro.core.temporal_graph import TemporalGraph
from repro.storage import ListStorage, available_backends, get_backend

# Only appendable engines are under contract here; read-only views
# (the partitioned directory backend) opt out via supports_append.
BACKENDS = tuple(
    name for name in available_backends() if get_backend(name).supports_append
)

BASE = [
    Event(0, 1, 1.0),
    Event(0, 2, 2.0),
    Event(1, 2, 2.0),
    Event(2, 3, 5.0),
]


def _windows(storage):
    """A sweep of closed windows that straddle every interesting boundary."""
    times = sorted({0.0, *storage.times})
    edges = times + [t + 0.5 for t in times] + [times[-1] + 10.0]
    return [(lo, hi) for lo in edges for hi in edges if lo <= hi]


def _assert_query_parity(storage, oracle):
    """Every windowed query answers identically (order-insensitively)."""
    events = storage.events
    oracle_events = oracle.events
    assert sorted(events) == sorted(oracle_events)
    assert sorted(storage.times) == sorted(oracle.times)
    assert storage.nodes == oracle.nodes
    assert storage.num_edges == oracle.num_edges
    nodes = sorted(oracle.nodes)
    edges = sorted({ev.edge for ev in oracle_events})
    for lo, hi in _windows(oracle):
        span = slice(storage.bisect_time_left(lo), storage.bisect_time_right(hi))
        oracle_span = slice(oracle.bisect_time_left(lo), oracle.bisect_time_right(hi))
        assert span.stop - span.start == oracle_span.stop - oracle_span.start
        assert set(events[span]) == set(oracle_events[oracle_span])
        for node in nodes:
            assert storage.count_node_events_in(node, lo, hi) == (
                oracle.count_node_events_in(node, lo, hi)
            )
            assert {events[i] for i in storage.node_events_in(node, lo, hi)} == {
                oracle_events[i] for i in oracle.node_events_in(node, lo, hi)
            }
            assert {events[i] for i in storage.node_events_between(node, lo, hi)} == {
                oracle_events[i] for i in oracle.node_events_between(node, lo, hi)
            }
        for edge in edges:
            assert storage.count_edge_events_in(edge, lo, hi) == (
                oracle.count_edge_events_in(edge, lo, hi)
            )
        adj = storage.adjacent_events_between(nodes[:3], lo, hi)
        oadj = oracle.adjacent_events_between(nodes[:3], lo, hi)
        assert {events[i] for i in adj} == {oracle_events[i] for i in oadj}


@pytest.mark.parametrize("backend", BACKENDS)
class TestAppendEdges:
    def test_append_at_exact_max_timestamp(self, backend):
        storage = get_backend(backend).from_events(list(BASE))
        idx = storage.append(Event(3, 4, 5.0))  # == end_time, same tick
        assert idx == len(BASE)
        assert storage.end_time == 5.0
        oracle = get_backend("list").from_events(BASE + [Event(3, 4, 5.0)])
        _assert_query_parity(storage, oracle)

    def test_append_same_tick_repeatedly(self, backend):
        storage = get_backend(backend).from_events(list(BASE))
        for k in range(4):
            storage.append(Event(k, k + 1, 5.0))
        assert storage.bisect_time_right(5.0) - storage.bisect_time_left(5.0) == 5
        assert storage.count_node_events_in(2, 5.0, 5.0) == 3

    def test_extend_empty_batch_is_a_noop(self, backend):
        storage = get_backend(backend).from_events(list(BASE))
        before = storage.to_events()
        assert storage.update([]) == []
        assert storage.to_events() == before
        assert len(storage) == len(BASE)
        # an empty batch on an empty storage is equally inert
        empty = get_backend(backend).from_events([])
        assert empty.update([]) == []
        assert len(empty) == 0
        assert empty.start_time is None and empty.end_time is None

    def test_rejected_batch_leaves_storage_untouched(self, backend):
        storage = get_backend(backend).from_events(list(BASE))
        with pytest.raises(ValueError, match="non-decreasing"):
            storage.update([Event(0, 1, 6.0), Event(1, 2, 4.0)])
        assert storage.to_events() == tuple(BASE)


# ----------------------------------------------------------------------
# hypothesis fuzz: random base + random same-or-later appended tail
# ----------------------------------------------------------------------
def _stream(draw_gaps, n_nodes=4):
    return st.lists(
        st.tuples(
            st.integers(0, n_nodes - 1),
            st.integers(0, n_nodes - 1),
            draw_gaps,
        ).filter(lambda e: e[0] != e[1]),
        min_size=0,
        max_size=12,
    )


@pytest.mark.parametrize("backend", BACKENDS)
@given(
    base=_stream(st.sampled_from([0.0, 1.0, 2.0])),
    tail=_stream(st.sampled_from([0.0, 0.0, 1.0, 3.0])),
)
@settings(max_examples=25, deadline=None)
def test_fuzz_append_tail_queries(backend, base, tail):
    t = 0.0
    base_events = []
    for u, v, dt in base:
        t += dt
        base_events.append(Event(u, v, t))
    base_events.sort(key=lambda e: (e.t, e.u, e.v))
    t = base_events[-1].t if base_events else 0.0
    appended = []
    for u, v, dt in tail:
        t += dt
        appended.append(Event(u, v, t))
    oracle = get_backend("list").from_events(base_events + appended)
    cls = get_backend(backend)
    # Once as configured, once with appends crossing compactions.
    for threshold in (None, 3) if hasattr(cls, "compact_threshold") else (None,):
        with pytest.MonkeyPatch.context() as patch:
            if threshold is not None:
                patch.setattr(cls, "compact_threshold", threshold)
            storage = cls.from_events(base_events)
            arrival = ListStorage.from_events(base_events)
            for ev in appended:
                storage.append(ev)
                arrival.append(ev)
            _assert_arrival_parity(storage, arrival)
            _assert_query_parity(storage, oracle)


def _assert_arrival_parity(storage, ref):
    """Point lookups, scalars and views equal those of ``ref``, a list
    storage fed the same appends: same indices, same key order."""
    n = len(ref)
    assert len(storage) == n
    assert [storage.event_at(i) for i in range(-n, n)] == [
        ref.event_at(i) for i in range(-n, n)
    ]
    assert [storage.time_at(i) for i in range(-n, n)] == [
        ref.time_at(i) for i in range(-n, n)
    ]
    assert list(storage.iter_uvt()) == list(ref.iter_uvt())
    assert (storage.start_time, storage.end_time) == (ref.start_time, ref.end_time)
    assert (storage.num_nodes, storage.num_edges) == (ref.num_nodes, ref.num_edges)
    for view in ("node_events", "node_times", "edge_events", "edge_times"):
        got, want = getattr(storage, view), getattr(ref, view)
        assert got == want, view
        assert list(got) == list(want), view


# ----------------------------------------------------------------------
# append-after-mmap-load: the tail/compacted boundary (PR 3's corner)
# ----------------------------------------------------------------------
@pytest.fixture()
def saved_pages(tmp_path):
    pytest.importorskip("numpy", reason="page persistence requires numpy")
    graph = TemporalGraph(BASE, backend="numpy")
    path = tmp_path / "pages"
    graph.save(path)
    return path


class TestAppendAfterMmapLoad:
    def test_straddling_windows_after_append(self, saved_pages):
        graph = TemporalGraph.load(saved_pages, mmap=True)
        appended = [Event(3, 4, 5.0), Event(4, 0, 5.0), Event(0, 3, 7.0)]
        for ev in appended:
            graph.append(ev)
        oracle = TemporalGraph(BASE + appended, backend="list")
        _assert_query_parity(graph.storage, oracle.storage)

    def test_straddling_windows_after_forced_compaction(self, saved_pages, monkeypatch):
        from repro.storage.numpy_backend import NumpyStorage

        monkeypatch.setattr(NumpyStorage, "compact_threshold", 2)
        graph = TemporalGraph.load(saved_pages, mmap=True)
        appended = [Event(3, 4, 5.0), Event(4, 0, 6.0), Event(0, 3, 7.0)]
        for ev in appended:
            graph.append(ev)  # crosses the compaction threshold mid-stream
        oracle = TemporalGraph(BASE + appended, backend="list")
        _assert_query_parity(graph.storage, oracle.storage)

    def test_backing_pages_stay_untouched(self, saved_pages):
        before = {
            p.name: p.read_bytes() for p in saved_pages.iterdir() if p.suffix == ".npy"
        }
        graph = TemporalGraph.load(saved_pages, mmap=True)
        for k in range(6):
            graph.append(Event(k % 3, k % 3 + 1, 5.0 + k))
        graph.storage.compact()
        after = {
            p.name: p.read_bytes() for p in saved_pages.iterdir() if p.suffix == ".npy"
        }
        assert before == after

    def test_reload_sees_only_saved_events(self, saved_pages):
        graph = TemporalGraph.load(saved_pages, mmap=True)
        graph.append(Event(3, 4, 9.0))
        again = TemporalGraph.load(saved_pages, mmap=True)
        assert len(again) == len(BASE)
