"""NumPy backend specifics: page persistence, mmap loads, vectorized kernels.

Cross-backend answer parity is covered by the randomized suite in
``test_storage.py`` (``"numpy"`` sits in its ``BACKENDS``); this module
tests what is unique to the tensor engine — the ``.npy`` page directory
layout, memory-mapped loads (including append-after-load), zero-copy
slicing, and the batched query seams the enumeration fast path and the
benchmark sweep rely on.
"""

from __future__ import annotations

import json
import os
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.core.events import Event
from repro.core.temporal_graph import TemporalGraph
from repro.datasets.generators import ActivityConfig, generate
from repro.storage import ListStorage, NumpyStorage
from repro.storage.numpy_backend import PAGE_FORMAT, PAGE_VERSION, load_pages, page_meta

EVENTS = [(0, 1, 10), (1, 2, 20), (0, 1, 30), (2, 0, 40), (1, 2, 40)]


@pytest.fixture(scope="module")
def events():
    """A mechanism-rich generated stream with same-timestamp bursts."""
    config = ActivityConfig(
        n_nodes=40,
        n_events=300,
        timespan=30_000.0,
        p_reply=0.4,
        p_repeat=0.3,
        p_cc=0.3,
        p_forward=0.25,
        p_in_burst=0.2,
        cc_same_timestamp=True,
        reaction_mean=60.0,
    )
    return generate(config, seed=77).events


@pytest.fixture
def storage(events) -> NumpyStorage:
    return NumpyStorage.from_events(events, presorted=True)


@pytest.fixture
def pages(tmp_path, storage) -> str:
    path = os.fspath(tmp_path / "graph-pages")
    storage.save(path, name="paged")
    return path


class TestColumns:
    def test_columns_are_contiguous_ndarrays(self, storage):
        assert storage._u.dtype == np.int64
        assert storage._v.dtype == np.int64
        assert storage._t.dtype == np.float64
        assert storage._u.flags["C_CONTIGUOUS"]

    def test_events_materialize_python_scalars(self):
        storage = NumpyStorage.from_events([Event(*t) for t in EVENTS])
        ev = storage.events[0]
        assert type(ev.u) is int and type(ev.v) is int
        assert isinstance(ev.t, float) and not isinstance(ev.t, np.floating)

    def test_wide_node_ids_raise_with_guidance(self):
        with pytest.raises(ValueError, match="int64"):
            NumpyStorage.from_events([Event(2**70, 1, 5.0)])

    def test_from_arrays_is_zero_copy(self, storage):
        other = NumpyStorage.from_arrays(storage._u, storage._v, storage._t)
        assert np.shares_memory(other._t, storage._t)
        assert other.to_events() == storage.to_events()

    def test_slice_time_and_range_are_views(self, storage):
        t0, t1 = storage.start_time, storage.end_time
        sliced = storage.slice_time(t0, (t0 + t1) / 2)
        assert np.shares_memory(sliced._t, storage._t)
        ranged = storage.slice_range(5, 50)
        assert np.shares_memory(ranged._u, storage._u)
        assert ranged.to_events() == storage.events[5:50]


class TestBatchedKernels:
    def test_batch_counts_match_scalar_loop(self, storage, events):
        ref = ListStorage.from_events(events)
        t0, t1 = storage.start_time, storage.end_time
        span = t1 - t0
        nodes = (sorted(storage.nodes)[:20] + [-5, 10**7]) * 3
        t_los = [t0 + (i % 9) * span / 9 - 1 for i in range(len(nodes))]
        t_his = [lo + span / 6 for lo in t_los]
        batch = storage.count_node_events_in_batch(nodes, t_los, t_his)
        assert list(batch) == [
            ref.count_node_events_in(n, lo, hi)
            for n, lo, hi in zip(nodes, t_los, t_his)
        ]

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 7), st.integers(1, 7), st.integers(0, 12)),
            min_size=1,
            max_size=40,
        ),
        st.lists(
            st.tuples(st.integers(-2, 10), st.integers(-1, 14), st.integers(0, 6)),
            min_size=1,
            max_size=30,
        ),
        st.randoms(use_true_random=False),
    )
    def test_batch_counts_match_list_in_any_query_order(self, raw, raw_queries, rng):
        # Small integer times give ties; ids -2, -1, 8, 9, 10 are unknown
        # nodes.  The band probes run in key order, so the counts must
        # scatter back into this shuffled order, repeats included.
        events = [Event(u, (u + d) % 8, t) for u, d, t in raw]
        queries = raw_queries + raw_queries[: len(raw_queries) // 2]
        rng.shuffle(queries)
        nodes = [node for node, _lo, _width in queries]
        t_los = [float(lo) for _node, lo, _width in queries]
        t_his = [float(lo + width) for _node, lo, width in queries]
        got = NumpyStorage.from_events(events).count_node_events_in_batch(
            nodes, t_los, t_his
        )
        ref = ListStorage.from_events(events).count_node_events_in_batch(
            nodes, t_los, t_his
        )
        assert list(got) == ref

    def test_batch_counts_are_an_int64_array(self, storage):
        # The consecutive-events row form compares the counts as an
        # array; a list result would be converted straight back.
        nodes = sorted(storage.nodes)[:5]
        t0, t1 = storage.start_time, storage.end_time
        batch = storage.count_node_events_in_batch(nodes, [t0] * 5, [t1] * 5)
        assert isinstance(batch, np.ndarray) and batch.dtype == np.int64
        assert batch.tolist() == [storage.count_node_events_in(n, t0, t1) for n in nodes]

    def test_batch_counts_through_tail(self, storage):
        t1 = storage.end_time
        storage.append(Event(0, 1, t1 + 5))
        batch = storage.count_node_events_in_batch([0, 1], [t1, t1], [t1 + 9, t1 + 9])
        assert batch == [
            storage.count_node_events_in(0, t1, t1 + 9),
            storage.count_node_events_in(1, t1, t1 + 9),
        ]

    def test_adjacent_events_between_matches_generic_union(self, storage, events):
        ref = ListStorage.from_events(events)
        t0, t1 = storage.start_time, storage.end_time
        span = t1 - t0
        nodes = sorted(storage.nodes)[:6] + [10**7]
        for lo, hi in [(t0 - 1, t1 + 1), (t0 + span / 3, t0 + 2 * span / 3), (t1, t0)]:
            assert storage.adjacent_events_between(
                nodes, lo, hi
            ) == ref.adjacent_events_between(nodes, lo, hi)


class TestPagePersistence:
    def test_meta_manifest(self, pages):
        meta = page_meta(pages)
        assert meta["format"] == PAGE_FORMAT
        assert meta["version"] == PAGE_VERSION
        assert meta["name"] == "paged"

    @pytest.mark.parametrize("mmap", [True, False])
    def test_roundtrip_is_answer_identical(self, pages, storage, mmap):
        loaded = NumpyStorage.load(pages, mmap=mmap)
        assert loaded.to_events() == storage.to_events()
        assert loaded.node_events == storage.node_events
        assert list(loaded.node_events) == list(storage.node_events)
        assert loaded.edge_events == storage.edge_events
        assert list(loaded.edge_events) == list(storage.edge_events)
        assert loaded.node_times == storage.node_times
        assert loaded.edge_times == storage.edge_times

    def test_mmap_load_opens_read_only_maps(self, pages):
        loaded = NumpyStorage.load(pages)
        assert isinstance(loaded._t, np.memmap)
        assert not loaded._t.flags.writeable

    def test_roundtrip_queries(self, pages, storage):
        loaded = NumpyStorage.load(pages)
        t0, t1 = storage.start_time, storage.end_time
        mid = (t0 + t1) / 2
        for node in sorted(storage.nodes)[:10]:
            assert loaded.node_events_in(node, t0, mid) == storage.node_events_in(
                node, t0, mid
            )
            assert loaded.node_events_between(node, mid, t1) == (
                storage.node_events_between(node, mid, t1)
            )
        assert loaded.bisect_time_left(mid) == storage.bisect_time_left(mid)
        assert loaded.bisect_time_right(t1) == storage.bisect_time_right(t1)

    def test_append_after_mmap_load(self, pages, storage):
        loaded = NumpyStorage.load(pages)
        t1 = loaded.end_time
        fresh = [Event(1, 2, t1 + 1), Event(2, 3, t1 + 1), Event(1, 2, t1 + 4)]
        idxs = loaded.update(fresh)
        assert idxs == [len(storage) + k for k in range(3)]
        reference = ListStorage.from_events(storage.to_events() + tuple(fresh))
        assert loaded.to_events() == reference.to_events()
        assert loaded.node_events == reference.node_events
        assert TemporalGraph._from_storage(loaded).edge_events_in((1, 2), t1 + 1, t1 + 9) == (
            TemporalGraph._from_storage(reference).edge_events_in((1, 2), t1 + 1, t1 + 9)
        )
        # Compaction folds the tail into ordinary in-memory arrays; the
        # read-only backing pages are never written.
        loaded.compact()
        assert not isinstance(loaded._t, np.memmap)
        assert loaded.to_events() == reference.to_events()
        assert loaded.node_events == reference.node_events

    def test_save_compacts_pending_tail(self, tmp_path, storage):
        storage.append(Event(5, 6, storage.end_time + 2))
        path = os.fspath(tmp_path / "with-tail")
        storage.save(path)
        loaded = NumpyStorage.load(path)
        assert loaded.to_events() == storage.to_events()

    def test_load_without_index_pages_rebuilds_lazily(self, pages, storage):
        for stem in ("node_keys", "node_slots", "node_off", "node_idx", "node_t",
                     "edge_keys", "edge_slots", "edge_off", "edge_idx", "edge_t"):
            os.remove(os.path.join(pages, f"{stem}.npy"))
        loaded = NumpyStorage.load(pages)
        assert loaded.node_events == storage.node_events
        assert loaded.edge_events == storage.edge_events

    def test_load_rejects_missing_or_foreign_directories(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="meta.json"):
            NumpyStorage.load(os.fspath(tmp_path / "nowhere"))
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "meta.json").write_text(json.dumps({"format": "other"}))
        with pytest.raises(ValueError, match="unrecognized page format"):
            NumpyStorage.load(os.fspath(bad))

    def test_load_rejects_future_versions(self, pages):
        meta = page_meta(pages)
        meta["version"] = PAGE_VERSION + 1
        with open(os.path.join(pages, "meta.json"), "w") as fh:
            json.dump(meta, fh)
        with pytest.raises(ValueError, match="version"):
            load_pages(pages)

    def test_load_rejects_truncated_columns(self, pages):
        np.save(os.path.join(pages, "t.npy"), np.zeros(3))
        np.save(os.path.join(pages, "u.npy"), np.zeros(3, dtype=np.int64))
        np.save(os.path.join(pages, "v.npy"), np.ones(3, dtype=np.int64))
        with pytest.raises(ValueError, match="manifest"):
            NumpyStorage.load(pages)


INDEX_PAGES = tuple(
    f"{kind}_{name}" for kind in ("node", "edge") for name in ("keys", "slots", "off", "idx", "t")
)


def _answers(storage, reference) -> list:
    """Every index-backed query over a spread of nodes, edges and windows."""
    t0, t1 = reference.start_time, reference.end_time
    mid = (t0 + t1) / 2
    nodes = sorted(reference.nodes)[:8] + [10**9]
    edges = list(reference.edge_events)[:8] + [(10**9, 0)]
    graph = TemporalGraph._from_storage(storage)
    out = [sorted(storage.nodes), storage.num_edges]
    for node in nodes:
        out.append(storage.node_events_in(node, t0, mid))
        out.append(storage.count_node_events_in(node, mid, t1))
        out.append(storage.node_events_between(node, t0, mid))
    for edge in edges:
        out.append(graph.edge_events_in(edge, t0, t1))
        out.append(storage.count_edge_events_in(edge, mid, t1))
    out.append(list(storage.count_node_events_in_batch(nodes, [t0] * 9, [mid] * 9)))
    out.append(storage.adjacent_events_between(nodes[:3], t0, mid))
    return out


def _index_opens(run) -> int:
    import repro.obs as obs

    registry = obs.enable(obs.MetricsRegistry())
    try:
        run()
    finally:
        obs.disable()
    return registry.counters.get("storage.pages.index_opens", 0)


class TestLazyIndexPages:
    """``mmap=True`` loads map the index pages on first index use only."""

    def test_column_seams_leave_the_index_unopened(self, pages, storage):
        def column_seams():
            loaded = NumpyStorage.load(pages)
            assert len(loaded) == len(storage)
            assert loaded.time_at(7) == storage.time_at(7)
            mid = storage.time_at(len(storage) // 2)
            assert loaded.bisect_time_left(mid) == storage.bisect_time_left(mid)
            assert loaded.bisect_time_right(mid) == storage.bisect_time_right(mid)
            assert loaded.slice_range(5, 60).to_events() == storage.events[5:60]

        assert _index_opens(column_seams) == 0

    def test_first_query_maps_the_saved_pages(self, pages, storage, events):
        loaded = NumpyStorage.load(pages)
        node = storage.event_at(0).u
        t0, t1 = storage.start_time, storage.end_time
        assert _index_opens(lambda: loaded.node_events_in(node, t0, t1)) == 1
        # Reused, not rebuilt: the CSR arrays are the saved page maps.
        for index in (loaded._node_index(), loaded._edge_index()):
            assert isinstance(index[1], np.memmap)
            assert isinstance(index[2], np.memmap)
        oracle = NumpyStorage.from_events(events, presorted=True)
        assert _index_opens(lambda: _answers(loaded, oracle)) == 0
        assert _answers(loaded, oracle) == _answers(oracle, oracle)

    def test_eager_load_survives_the_directory_being_overwritten(self, pages, storage, events):
        loaded = NumpyStorage.load(pages, mmap=False)
        other = NumpyStorage.from_events(
            [Event(ev.v, ev.u, ev.t + 1.5) for ev in events[::3]]
        )
        other.save(pages)
        assert NumpyStorage.load(pages).to_events() == other.to_events()
        assert loaded.to_events() == storage.to_events()
        assert _answers(loaded, storage) == _answers(storage, storage)

    def test_deleted_index_pages_rebuild_from_the_columns(self, pages, storage):
        loaded = NumpyStorage.load(pages)
        for stem in INDEX_PAGES:
            os.remove(os.path.join(pages, f"{stem}.npy"))
        assert _index_opens(lambda: _answers(loaded, storage)) == 0
        assert not isinstance(loaded._node_index()[2], np.memmap)
        assert _answers(loaded, storage) == _answers(storage, storage)

    def test_compaction_forgets_the_index_pages(self, pages, storage):
        loaded = NumpyStorage.load(pages)
        t1 = loaded.end_time
        fresh = [Event(1, 2, t1 + 1), Event(2, 3, t1 + 1), Event(3, 1, t1 + 4)]
        loaded.update(fresh)
        loaded.compact()
        oracle = NumpyStorage.from_events(storage.to_events() + tuple(fresh))
        assert _index_opens(lambda: _answers(loaded, oracle)) == 0
        assert _answers(loaded, oracle) == _answers(oracle, oracle)
        reference = ListStorage.from_events(oracle.to_events())
        assert loaded.node_events == reference.node_events
        assert loaded.edge_events == reference.edge_events


class TestShardPayload:
    def test_payload_pickles_column_slices(self, storage):
        payload = storage.shard_payload(3, 40)
        assert payload["kind"] == PAGE_FORMAT
        rebuilt = NumpyStorage.from_shard_payload(pickle.loads(pickle.dumps(payload)))
        assert rebuilt.to_events() == storage.events[3:40]

    def test_event_tuple_payload_still_accepted(self, storage):
        rebuilt = NumpyStorage.from_shard_payload(storage.events[3:40])
        assert rebuilt.to_events() == storage.events[3:40]


class TestTemporalGraphFacade:
    def test_save_load_roundtrip_preserves_name_and_backend(self, tmp_path, events):
        graph = TemporalGraph(events, name="facade", backend="numpy")
        path = os.fspath(tmp_path / "facade-pages")
        graph.save(path)
        loaded = TemporalGraph.load(path)
        assert loaded.backend == "numpy"
        assert loaded.name == "facade"
        assert loaded.events == graph.events
        assert TemporalGraph.load(path, name="override").name == "override"

    def test_save_converts_other_backends(self, tmp_path, events):
        graph = TemporalGraph(events, name="col", backend="columnar")
        path = os.fspath(tmp_path / "converted-pages")
        graph.save(path)
        loaded = TemporalGraph.load(path, mmap=False)
        assert loaded.backend == "numpy"
        assert loaded.events == graph.events

    def test_loaded_graph_supports_live_appends(self, tmp_path, events):
        graph = TemporalGraph(events, backend="numpy")
        path = os.fspath(tmp_path / "live-pages")
        graph.save(path)
        loaded = TemporalGraph.load(path)
        idx = loaded.append(Event(3, 4, loaded.times[-1] + 1))
        assert loaded.event_at(idx) == Event(3, 4, graph.times[-1] + 1)
        assert len(loaded) == len(graph) + 1
