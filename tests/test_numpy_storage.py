"""NumPy backend specifics: page persistence, mmap loads, vectorized kernels.

Cross-backend answer parity is covered by the randomized suite in
``test_storage.py`` (``"numpy"`` sits in its ``BACKENDS``); this module
tests what is unique to the tensor engine — the ``.npy`` page directory
layout, memory-mapped loads (including append-after-load), zero-copy
slicing, and the CSR builders the columnar backend shares.
"""

from __future__ import annotations

import json
import math
import os
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.algorithms.counting import run_census
from repro.core.constraints import TimingConstraints
from repro.core.events import Event, validate_events
from repro.core.temporal_graph import TemporalGraph
from repro.datasets.generators import ActivityConfig, generate
from repro.storage import ColumnarStorage, ListStorage, NumpyStorage
from repro.storage import columnar as columnar_module
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

    def test_scalar_views_gather_no_index_times(self, storage):
        fresh = NumpyStorage.from_arrays(storage._u, storage._v, storage._t)
        reference = ListStorage.from_events(storage.to_events())
        assert fresh.nodes == reference.nodes
        assert fresh.num_nodes == reference.num_nodes
        assert fresh.num_edges == reference.num_edges
        # Node and edge counts read the slot maps only: the timestamps
        # parallel to each CSR index are gathered by the first window query.
        assert fresh._node_t is None
        assert fresh._edge_t is None

    def test_slice_time_and_range_are_views(self, storage):
        t0, t1 = storage.start_time, storage.end_time
        sliced = storage.slice_time(t0, (t0 + t1) / 2)
        assert np.shares_memory(sliced._t, storage._t)
        ranged = storage.slice_range(5, 50)
        assert np.shares_memory(ranged._u, storage._u)
        assert ranged.to_events() == storage.events[5:50]


class TestBatchedKernels:
    def test_adjacent_events_between_matches_generic_union(self, storage, events):
        ref = ListStorage.from_events(events)
        t0, t1 = storage.start_time, storage.end_time
        span = t1 - t0
        nodes = sorted(storage.nodes)[:6] + [10**7]
        for lo, hi in [(t0 - 1, t1 + 1), (t0 + span / 3, t0 + 2 * span / 3), (t1, t0)]:
            assert storage.adjacent_events_between(
                nodes, lo, hi
            ) == ref.adjacent_events_between(nodes, lo, hi)


#: Node ids: a small tie-prone range plus ids near +-2**62, whose span
#: times 2m passes ``_KEY_LIMIT`` and takes the builder's lexsort branch.
_CSR_IDS = st.one_of(
    st.integers(-3, 4), st.sampled_from([-(2**62), -(2**62) + 1, 2**62 - 1, 2**62])
)


class TestSharedCsrBuild:
    """Columnar construction and the numpy backend share one CSR builder."""

    @staticmethod
    def _csr(slot, off, idx, times) -> tuple:
        return (
            list(slot.items()),
            list(off),
            np.asarray(idx, dtype=np.int64).tobytes(),
            np.asarray(times, dtype=np.float64).tobytes(),
        )

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), _CSR_IDS, _CSR_IDS), max_size=30))
    @example([])
    @example([(0, -(2**62), 2**62), (0, 2**62, 2**62), (1, 1, -(2**62))])
    def test_columnar_csr_equals_numpy_csr(self, raw):
        # Rows are (t, u, v) triples, so sorting them is the storage order;
        # presorted=True skips validation, so self-loops (u == v) get in.
        rows = [Event(u, v, float(t)) for t, u, v in sorted(raw)]
        col = ColumnarStorage.from_events(rows, presorted=True)
        num = NumpyStorage.from_events(rows, presorted=True)
        node_slot, node_off, node_idx = num._node_index()
        edge_slot, edge_off, edge_idx = num._edge_index()
        assert self._csr(
            col._node_slot, col._node_off, col._node_idx, col._node_t
        ) == self._csr(node_slot, node_off, node_idx, num._node_times_flat())
        assert self._csr(
            col._edge_slot, col._edge_off, col._edge_idx, col._edge_t
        ) == self._csr(edge_slot, edge_off, edge_idx, num._edge_times_flat())
        # The pure-Python counting sort is an independent oracle of the
        # per-node and per-edge event lists, iteration order included.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(columnar_module, "_np", None)
            fallback = ColumnarStorage.from_events(rows, presorted=True)
        for view in ("node_events", "node_times", "edge_events", "edge_times"):
            assert list(getattr(fallback, view).items()) == list(
                getattr(num, view).items()
            )


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


# ----------------------------------------------------------------------
# column ingest: certified columns against the validated-list construction
# ----------------------------------------------------------------------
#: Node-id pools: small ids fit every composite sort key; ids near 2**62
#: overflow both int64 keys and force the ``np.lexsort`` fallbacks.
_NARROW_IDS = st.integers(-3, 6)
_WIDE_IDS = st.sampled_from([0, 5, 2**62, -(2**62), 2**62 - 9])
#: Few distinct times, as ints or floats: ties everywhere.
_TIMES = st.integers(0, 12) | st.integers(0, 12).map(float) | st.just(-0.0)


@st.composite
def _streams(draw):
    ids = draw(st.sampled_from([_NARROW_IDS, _WIDE_IDS]))
    triples = draw(
        st.lists(st.tuples(ids, ids, _TIMES).filter(lambda r: r[0] != r[1]), max_size=40)
    )
    layout = draw(st.sampled_from(["as-drawn", "sorted", "time-sorted", "reversed"]))
    if layout == "sorted":
        triples.sort(key=lambda r: (r[2], r[0], r[1]))
    elif layout == "time-sorted":
        triples.sort(key=lambda r: r[2])
    elif layout == "reversed":
        triples.reverse()
    forms = draw(
        st.lists(
            st.sampled_from([Event, tuple, list]),
            min_size=len(triples),
            max_size=len(triples),
        )
    )
    return [form(row) if form is not Event else Event(*row) for form, row in zip(forms, triples)]


def _csr(index) -> tuple:
    slot, off, idx = index
    return list(slot.items()), off.tolist(), idx.tolist()


def _snapshot(storage) -> tuple:
    """Columns (bit for bit), both CSR indices, node keys, kernel arrays."""
    arrays = storage.extension_arrays()
    return (
        [(col.dtype.str, col.tobytes()) for col in (storage._u, storage._v, storage._t)],
        _csr(storage._node_index()),
        _csr(storage._edge_index()),
        storage._node_keys().tolist(),
        {k: a.tolist() if hasattr(a, "tolist") else a for k, a in arrays.items()},
    )


def _census(graph) -> tuple:
    census = run_census(graph, 3, TimingConstraints(delta_c=4.0, delta_w=8.0), max_nodes=3)
    return (
        census.total,
        list(census.code_counts.items()),
        list(census.pair_counts.items()),
        list(census.pair_sequence_counts.items()),
    )


class TestColumnIngest:
    """``TemporalGraph(rows, backend="numpy")`` reads rows as columns; it
    must build exactly what construction from the validated list builds."""

    @settings(max_examples=80, deadline=None)
    @given(rows=_streams(), as_generator=st.booleans())
    def test_matches_construction_from_the_validated_list(self, rows, as_generator):
        source = (row for row in rows) if as_generator else rows
        got = TemporalGraph(source, backend="numpy")
        want = NumpyStorage(validate_events(rows), presorted=True)
        assert _snapshot(got.storage) == _snapshot(want)
        # Both storages share the CSR code, so hold it to the list reference.
        ref = ListStorage(validate_events(rows), presorted=True)
        assert list(got.storage.node_events.items()) == list(ref.node_events.items())
        assert list(got.storage.edge_events.items()) == list(ref.edge_events.items())
        assert got.storage._node_keys().tolist() == sorted(ref.node_events)
        reference = TemporalGraph._from_storage(ref)
        assert _census(got) == _census(reference)

    def test_wide_ids_take_both_lexsort_fallbacks(self, monkeypatch):
        import repro.storage.numpy_backend as nb

        calls = []
        lexsort = np.lexsort
        monkeypatch.setattr(nb.np, "lexsort", lambda keys: calls.append(len(keys)) or lexsort(keys))
        rows = [(2**62, 0, 5.0), (-(2**62), 3, 1.0), (0, 2**62, 1.0), (3, 0, 5.0)]
        storage = TemporalGraph(rows, backend="numpy").storage
        storage._node_index()
        # The event sort (three keys), then the node CSR (two keys).
        assert calls == [3, 2]
        ref = ListStorage(validate_events(rows), presorted=True)
        assert storage.events == ref.events
        assert list(storage.node_events.items()) == list(ref.node_events.items())

    def test_narrow_ids_sort_without_lexsort(self, monkeypatch):
        import repro.storage.numpy_backend as nb

        def no_lexsort(keys):
            raise AssertionError("composite keys fit: lexsort must not run")

        monkeypatch.setattr(nb.np, "lexsort", no_lexsort)
        rows = [(2, 0, 5.0), (1, 3, 1.0), (0, 2, 1.0), (0, 1, 1)]
        storage = TemporalGraph(rows, backend="numpy").storage
        assert storage.events == tuple(validate_events(rows))
        assert storage._node_keys().tolist() == [0, 1, 2, 3]

    @pytest.mark.parametrize(
        "rows",
        [
            [(0, 1, 2**53 + 1), (1, 2, float(2**53))],
            [(0, 1, math.inf), (1, 2, 3.0)],
            [(0.5, 1, 2.0), (0.25, 2, 2.0)],
            [(0, 1, 2.0), (True, 2, 2.0)],
            [(0, 1, np.float32(0.1)), (1, 2, 0.1)],
            [(np.int64(3), 1, 2.0), (1, 2, 2)],
            [(0, 1, 5.0, 9)],
            [{0: 7, 1: 8, 2: 9}],
            [],
        ],
        ids=[
            "int-past-2**53",
            "inf",
            "float-ids",
            "bool-id",
            "float32-time",
            "numpy-scalars",
            "four-items",
            "mapping",
            "empty",
        ],
    )
    def test_uncertified_rows_build_as_validated(self, rows):
        """Rows the column checks cannot certify go through
        ``validate_events`` and build what it returns, or raise its error."""
        try:
            want = NumpyStorage(validate_events(rows), presorted=True)
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc)) as got:
                TemporalGraph(rows, backend="numpy")
            assert str(got.value) == str(exc)
            return
        assert _snapshot(TemporalGraph(rows, backend="numpy").storage) == _snapshot(want)


#: Bad items, each raising (or, for wide ids, passing) ``validate_events``.
_BAD_ROWS = {
    "negative": lambda i: (0, 1, -1.0 - i),
    "loop": lambda i: (i, i, 1.0),
    "arity-2": lambda i: (0, 1),
    "arity-4": lambda i: (0, 1, 2.0, 3.0),
    "none-time": lambda i: (0, 1, None),
    "str-time": lambda i: (0, 1, "7"),
    "nan-time": lambda i: (0, 1, math.nan),
    "wide-id": lambda i: (2**63 + i, 1, 2.0),
}


def _outcome(build):
    try:
        build()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return None


class TestIngestErrorParity:
    @settings(max_examples=60, deadline=None)
    @given(
        base=st.lists(
            st.tuples(_NARROW_IDS, _NARROW_IDS, _TIMES).filter(lambda r: r[0] != r[1]),
            max_size=12,
        ),
        bad=st.lists(
            st.tuples(st.sampled_from(sorted(_BAD_ROWS)), st.integers(0, 12)),
            min_size=1,
            max_size=3,
        ),
    )
    def test_errors_match_the_list_backend(self, base, bad):
        rows = list(base)
        for i, (kind, at) in enumerate(bad):
            rows.insert(min(at, len(rows)), _BAD_ROWS[kind](i))
        want = _outcome(lambda: TemporalGraph(rows, backend="list"))
        got = _outcome(lambda: TemporalGraph(iter(rows), backend="numpy"))
        if want is None:
            # Only wide ids are bad: the list backend keeps them, numpy
            # refuses them with its own guidance, as it always has.
            assert got is not None and got[0] is ValueError and "int64" in got[1]
        else:
            assert got == want


class TestIndexBuildTimer:
    """``storage.index.seconds{index=...}``: one observation per CSR build."""

    def _histograms(self, run) -> dict:
        import repro.obs as obs

        registry = obs.enable(obs.MetricsRegistry())
        try:
            run()
        finally:
            obs.disable()
        return {
            name: hist["count"]
            for name, hist in registry.snapshot()["histograms"].items()
            if name.startswith("storage.index.")
        }

    def test_one_observation_per_build(self, events):
        def build_and_query():
            storage = NumpyStorage.from_events(events, presorted=True)
            storage.extension_arrays()
            storage.extension_arrays()
            storage.count_edge_events_in((0, 1), 0.0, 1e9)
            storage.edge_adjacent_times()
            storage.node_adjacent_events()
            storage.node_adjacent_events()

        assert self._histograms(build_and_query) == {
            "storage.index.seconds{index=node}": 1,
            "storage.index.seconds{index=edge}": 1,
            "storage.index.seconds{index=node_adjacent}": 1,
        }

    def test_mapped_index_pages_are_not_builds(self, pages, storage):
        node = storage.event_at(0).u

        def query_loaded():
            loaded = NumpyStorage.load(pages)
            loaded.node_events_in(node, 0.0, 1e9)
            loaded.count_edge_events_in((0, 1), 0.0, 1e9)
            loaded.extension_arrays()

        assert self._histograms(query_loaded) == {}
