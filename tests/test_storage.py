"""The storage-engine contract and cross-backend parity suite.

Every backend registered in :mod:`repro.storage` must answer every query
identically to :class:`~repro.storage.ListStorage`, the reference
implementation extracted verbatim from the original ``TemporalGraph``.
The parity tests here sweep randomized generated graphs, so adding a
backend to ``BACKENDS`` below subjects it to the full contract.

``"numpy"`` registers only when NumPy is importable, so ``BACKENDS`` is
filtered against the live registry — on a NumPy-less interpreter the
suite covers the two pure-Python backends and skips the rest.
"""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro

from repro.algorithms.counting import run_census
from repro.algorithms.enumeration import enumerate_instances
from repro.core.constraints import TimingConstraints
from repro.core.events import Event
from repro.core.temporal_graph import TemporalGraph
from repro.datasets.generators import ActivityConfig, generate
from repro.storage import (
    ColumnarStorage,
    ENV_VAR,
    GraphStorage,
    ListStorage,
    NumpyStorage,
    available_backends,
    get_backend,
    make_storage,
    register_backend,
)
from repro.storage.columns import ColumnStore

BACKENDS = tuple(
    name for name in ("list", "columnar", "numpy") if name in available_backends()
)

#: The backends parity-checked against the ``"list"`` reference.
NON_REFERENCE_BACKENDS = tuple(name for name in BACKENDS if name != "list")

EVENTS = [(0, 1, 10), (1, 2, 20), (0, 1, 30), (2, 0, 40), (1, 2, 40)]


def random_graph(seed: int, *, same_ts: bool = False) -> TemporalGraph:
    """A small, mechanism-rich generated graph (always list-backed)."""
    pytest.importorskip("numpy", reason="graph synthesis is numpy-seeded")
    config = ActivityConfig(
        n_nodes=40,
        n_events=300,
        timespan=30_000.0,
        p_reply=0.4,
        p_repeat=0.3,
        p_cc=0.3,
        p_forward=0.25,
        p_in_burst=0.2,
        cc_same_timestamp=same_ts,
        reaction_mean=60.0,
    )
    return generate(config, seed=seed)


def reference_and(backend: str, events) -> tuple[GraphStorage, GraphStorage]:
    """The ``"list"`` reference plus one backend under test, same events."""
    return (
        ListStorage.from_events(events),
        get_backend(backend).from_events(events),
    )


class TestRegistry:
    def test_available_backends(self):
        assert set(BACKENDS) <= set(available_backends())

    def test_get_backend_by_name(self):
        assert get_backend("list") is ListStorage
        assert get_backend("columnar") is ColumnarStorage

    def test_unknown_backend_raises_with_choices(self):
        with pytest.raises(ValueError, match="columnar"):
            get_backend("no-such-engine")

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "columnar")
        assert get_backend() is ColumnarStorage
        g = TemporalGraph.from_tuples(EVENTS)
        assert g.backend == "columnar"
        assert isinstance(g.storage, ColumnarStorage)

    def test_explicit_backend_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "columnar")
        assert TemporalGraph.from_tuples(EVENTS, backend="list").backend == "list"

    def test_register_backend_roundtrip(self):
        class Fake(ListStorage):
            backend_name = "fake-for-test"

        register_backend("fake-for-test", Fake)
        try:
            assert get_backend("fake-for-test") is Fake
            assert TemporalGraph.from_tuples(
                EVENTS, backend="fake-for-test"
            ).backend == "fake-for-test"
        finally:
            from repro.storage import _BACKENDS

            _BACKENDS.pop("fake-for-test")

    def test_make_storage(self):
        storage = make_storage([Event(0, 1, 5.0)], backend="columnar")
        assert isinstance(storage, ColumnarStorage)
        assert storage.to_events() == (Event(0, 1, 5.0),)

    def test_numpy_backend_registered_iff_numpy_available(self):
        from repro.storage import NumpyStorage, numpy_backend

        if numpy_backend.available():
            assert "numpy" in available_backends()
            assert get_backend("numpy") is NumpyStorage
        else:
            assert "numpy" not in available_backends()

    def test_numpy_less_interpreter_runs_pure_python(self):
        """With NumPy unimportable the package imports, registers only the
        pure-Python backends and still counts motifs."""
        script = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from repro import TemporalGraph, TimingConstraints, run_census\n"
            "from repro.storage import available_backends\n"
            "names = available_backends()\n"
            "assert names == ('columnar', 'list'), names\n"
            "g = TemporalGraph.from_tuples([(0, 1, 10), (1, 2, 20), (0, 2, 25)])\n"
            "c = run_census(g, n_events=3, constraints=TimingConstraints.only_w(60))\n"
            "print(dict(c.code_counts))\n"
            # The restriction module imports, and its census runs, NumPy-free.
            "from repro.algorithms.restrictions import satisfies_consecutive_events\n"
            "g = TemporalGraph.from_tuples([(0, 1, 10), (1, 2, 20), (0, 3, 22), (0, 2, 25)])\n"
            "c = run_census(g, n_events=3, constraints=TimingConstraints.only_w(60),\n"
            "               predicate=satisfies_consecutive_events)\n"
            "print(dict(c.code_counts))\n"
            # Columnar and its column-store core answer NumPy-free, with a
            # compaction crossed and a tail pending.
            "g = TemporalGraph.from_tuples([(0, 1, 10), (1, 2, 20), (0, 2, 25)],\n"
            "                              backend='columnar')\n"
            "s = g.storage\n"
            "s.compact_threshold = 3\n"
            "g.extend([(2, 0, 30), (0, 1, 31), (1, 2, 40), (2, 3, 41)])\n"
            "print(len(s._tail), s.count_node_events_in(0, 20, 31),\n"
            "      s.node_events_in(1, 10, 40), s.bisect_time_left(31))\n"
            "c = run_census(g, n_events=3, constraints=TimingConstraints.only_w(11))\n"
            "print(dict(c.code_counts))\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = {k: v for k, v in os.environ.items() if k != ENV_VAR}
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        assert out.stdout.splitlines() == [
            "{'011202': 1}",
            # Without the restriction the census would also hold the
            # triangle, which (0, 3, 22) interrupts at node 0.
            "{'010203': 1, '011203': 1}",
            # A one-event tail; the list backend gives the same answers.
            "1 3 [0, 1, 4, 5] 4",
            "{'011220': 2, '012112': 1, '012120': 1, '011002': 1, '012003': 1, "
            "'011203': 1, '011223': 1}",
        ]


#: Every abstract member of the storage contract.  The windowed
#: ``events_in``/``edge_events_in`` answers live on the facade, built on
#: the bisection seams and ``node_events_in``.
CONTRACT = {
    "from_events",
    "events",
    "times",
    "node_events",
    "node_times",
    "edge_events",
    "edge_times",
    "node_event_indices",
    "node_events_in",
    "count_node_events_in",
    "count_edge_events_in",
    "node_events_between",
    "append",
}


def test_abstract_contract_is_thirteen_members():
    assert GraphStorage.__abstractmethods__ == CONTRACT


#: What the column-store core writes once for both column backends: the
#: append tail, the views, the point lookups and the window queries.
CORE = {
    "compact_threshold",
    "_clear_tail",
    "_invalidate_views",
    "append",
    "__len__",
    "events",
    "times",
    "node_events",
    "node_times",
    "edge_events",
    "edge_times",
    "nodes",
    "num_nodes",
    "num_edges",
    "start_time",
    "end_time",
    "event_at",
    "iter_uvt",
    "time_at",
    "bisect_time_left",
    "bisect_time_right",
    "node_event_indices",
    "node_events_in",
    "count_node_events_in",
    "count_edge_events_in",
    "node_events_between",
}


def test_column_backends_keep_no_copy_of_the_core():
    assert CORE <= set(vars(ColumnStore))
    for cls in (NumpyStorage, ColumnarStorage):
        assert issubclass(cls, ColumnStore)
        assert not CORE & set(vars(cls)), cls.__name__


class TestContract:
    """Backend-agnostic contract checks, run against each backend."""

    @pytest.fixture(params=BACKENDS)
    def storage(self, request) -> GraphStorage:
        return make_storage(
            [Event(*tri) for tri in EVENTS], backend=request.param
        )

    def test_events_sorted_and_indexed(self, storage):
        assert [ev.t for ev in storage.events] == [10, 20, 30, 40, 40]
        assert storage.times == [10, 20, 30, 40, 40]
        assert len(storage) == 5

    def test_scalars(self, storage):
        assert storage.nodes == {0, 1, 2}
        assert storage.num_nodes == 3
        assert storage.num_edges == 3
        assert storage.start_time == 10
        assert storage.end_time == 40

    def test_empty(self, storage):
        empty = type(storage).from_events([])
        assert empty.to_events() == ()
        assert empty.start_time is None and empty.end_time is None
        assert empty.times == []
        assert empty.num_nodes == 0 and empty.num_edges == 0
        assert empty.bisect_time_right(1e9) - empty.bisect_time_left(0) == 0
        assert empty.node_events_in(0, 0, 1e9) == []

    def test_rejects_nan_timestamps(self, storage):
        nan = float("nan")
        with pytest.raises(ValueError, match="NaN timestamp"):
            type(storage).from_events([(0, 1, 1.0), (1, 2, nan)])
        with pytest.raises(ValueError, match="NaN timestamp"):
            storage.append(Event(0, 1, nan))
        with pytest.raises(ValueError, match="NaN timestamp"):
            storage.update([Event(0, 1, 50.0), Event(1, 2, nan)])
        assert len(storage) == 5

    def test_window_queries(self, storage):
        assert storage.node_events_in(0, 10, 30) == [0, 2]
        assert storage.count_node_events_in(1, 10, 40) == 4
        graph = TemporalGraph._from_storage(storage)
        assert graph.edge_events_in((1, 2), 20, 40) == [1, 3]
        assert storage.count_edge_events_in((9, 9), 0, 100) == 0
        assert graph.events_in(20, 40) == [1, 2, 3, 4]

    def test_node_events_between_is_half_open(self, storage):
        assert storage.node_events_between(0, 10, 40) == [2, 4]
        assert storage.node_events_between(0, 9, 40) == [0, 2, 4]
        assert storage.node_events_between(99, 0, 100) == []

    def test_point_lookups(self, storage):
        assert storage.node_event_indices(2) == [1, 3, 4]
        assert storage.edge_events[(0, 1)] == [0, 2]
        assert storage.neighbors(0) == {1, 2}

    def test_iter_uvt(self, storage):
        assert [tuple(x) for x in storage.iter_uvt()] == [
            (ev.u, ev.v, ev.t) for ev in storage.events
        ]

    def test_slice_time(self, storage):
        sliced = storage.slice_time(20, 40)
        assert sliced.to_events() == storage.events[1:]
        assert type(sliced) is type(storage)

    def test_slice_nodes(self, storage):
        sliced = storage.slice_nodes([0, 1])
        assert sliced.to_events() == (Event(0, 1, 10), Event(0, 1, 30))

    def test_coarsen(self, storage):
        coarse = storage.coarsen(25)
        assert set(ev.t for ev in coarse.to_events()) == {0, 25}
        assert len(coarse) == len(storage)
        with pytest.raises(ValueError):
            storage.coarsen(0)

    def test_append_and_update(self, storage):
        idx = storage.append(Event(3, 0, 41))
        assert idx == 5
        assert storage.events[5] == Event(3, 0, 41)
        assert storage.node_events_in(3, 0, 100) == [5]
        assert storage.num_nodes == 4
        assert storage.update([Event(3, 0, 41), Event(0, 1, 50)]) == [6, 7]
        assert storage.edge_events[(3, 0)] == [5, 6]
        assert storage.end_time == 50

    def test_append_rejects_out_of_order(self, storage):
        with pytest.raises(ValueError, match="non-decreasing"):
            storage.append(Event(5, 6, 1))

    def test_update_is_atomic_on_invalid_batch(self, storage):
        before = storage.to_events()
        with pytest.raises(ValueError, match="non-decreasing"):
            storage.update([Event(1, 5, 50), Event(1, 6, 45)])
        assert storage.to_events() == before  # nothing committed
        with pytest.raises(ValueError, match="self-loop"):
            storage.update([Event(1, 5, 50), Event(6, 6, 51)])
        assert storage.to_events() == before

    def test_event_at_matches_events_tuple(self, storage):
        for idx in range(len(storage)):
            assert storage.event_at(idx) == storage.events[idx]
        assert storage.event_at(-1) == storage.events[-1]
        storage.append(Event(7, 8, 99))
        assert storage.event_at(len(storage) - 1) == Event(7, 8, 99)

    def test_pickles_with_indexes_built_and_a_tail(self, storage):
        storage.count_node_events_in(0, 0, 100)
        storage.append(Event(3, 0, 41))
        for clone in (pickle.loads(pickle.dumps(storage)), copy.deepcopy(storage)):
            assert clone.to_events() == storage.to_events()
            assert clone.node_events_in(0, 0, 100) == [0, 2, 4, 5]
            assert clone.count_edge_events_in((0, 1), 10, 30) == 2

    def test_append_rejects_loops_and_negatives(self, storage):
        with pytest.raises(ValueError):
            storage.append(Event(5, 5, 99))
        empty = type(storage).from_events([])
        with pytest.raises(ValueError):
            empty.append(Event(0, 1, -1))


@pytest.mark.parametrize("backend", available_backends())
def test_construction_rejects_nan_timestamps(backend):
    """A NaN time breaks every time bisect, so no backend stores one."""
    rows = [(0, 1, 1.0), (1, 2, float("nan")), (2, 0, 3.0)]
    with pytest.raises(ValueError, match=r"event Event\(u=1, v=2, t=nan\) has a NaN timestamp"):
        TemporalGraph(rows, backend=backend)
    graph = TemporalGraph(rows[:1], backend=backend)
    if graph.storage.supports_append:
        with pytest.raises(ValueError, match="NaN timestamp"):
            graph.extend([Event(1, 2, 2.0), Event(2, 0, float("nan"))])
        assert len(graph) == 1


class TestColumnarInternals:
    def test_columns_are_flat_arrays(self):
        from array import array

        storage = ColumnarStorage.from_events([Event(*t) for t in EVENTS])
        assert isinstance(storage._col_u, array)
        assert storage._col_u.typecode == "q"
        assert storage._col_t.typecode == "d"
        assert list(storage._col_u) == [0, 1, 0, 1, 2]

    def test_python_fallback_matches_numpy_build(self):
        fast = ColumnarStorage.from_events([Event(*t) for t in EVENTS])
        slow = ColumnarStorage.from_events([])
        slow._build_python(fast.events)
        assert slow._node_slot.keys() == fast._node_slot.keys()
        for node in fast._node_slot:
            assert slow.node_event_indices(node) == fast.node_event_indices(node)
        assert slow.edge_events == fast.edge_events
        assert list(slow._col_u) == list(fast._col_u)
        assert list(slow._col_t) == list(fast._col_t)

    def test_tail_compaction_preserves_answers(self):
        storage = ColumnarStorage.from_events([Event(*t) for t in EVENTS])
        storage.compact_threshold = 3
        for k in range(8):
            storage.append(Event(k % 3, (k + 1) % 3, 50 + k))
        assert len(storage._tail) < 3  # compaction fired
        reference = ListStorage.from_events(storage.to_events())
        assert storage.node_events == reference.node_events
        assert storage.edge_times == reference.edge_times

    def test_views_invalidate_on_append(self):
        storage = ColumnarStorage.from_events([Event(*t) for t in EVENTS])
        before = dict(storage.node_events)
        storage.append(Event(0, 2, 60))
        assert storage.node_events[0] == before[0] + [5]
        assert storage.times[-1] == 60


class TestBackendParity:
    """Every registered backend must be answer-identical to ListStorage."""

    @pytest.fixture(scope="class", params=[101, 202, 303])
    def seed_events(self, request):
        return random_graph(request.param, same_ts=request.param == 202).events

    @pytest.fixture(scope="class", params=NON_REFERENCE_BACKENDS)
    def pair(self, request, seed_events):
        return reference_and(request.param, seed_events)

    def test_views_identical_including_order(self, pair):
        ref, col = pair
        assert ref.events == col.events
        assert ref.times == col.times
        assert ref.node_events == col.node_events
        assert list(ref.node_events) == list(col.node_events)
        assert ref.node_times == col.node_times
        assert ref.edge_events == col.edge_events
        assert list(ref.edge_events) == list(col.edge_events)
        assert ref.edge_times == col.edge_times

    def test_windowed_queries_identical(self, pair):
        ref, col = pair
        t0, t1 = ref.start_time, ref.end_time
        span = t1 - t0
        cuts = [t0 - 1, t0, t0 + span / 4, t0 + span / 2, t0 + 3 * span / 4, t1, t1 + 1]
        nodes = sorted(ref.nodes)[:12] + [10**6]
        edges = list(ref.edge_events)[:12] + [(10**6, 10**6 + 1)]
        ref_graph = TemporalGraph._from_storage(ref)
        col_graph = TemporalGraph._from_storage(col)
        for lo in cuts:
            for hi in cuts:
                assert ref_graph.events_in(lo, hi) == col_graph.events_in(lo, hi)
                for node in nodes:
                    assert ref.node_events_in(node, lo, hi) == col.node_events_in(
                        node, lo, hi
                    )
                    assert ref.count_node_events_in(
                        node, lo, hi
                    ) == col.count_node_events_in(node, lo, hi)
                    assert ref.node_events_between(
                        node, lo, hi
                    ) == col.node_events_between(node, lo, hi)
                for edge in edges:
                    assert ref_graph.edge_events_in(edge, lo, hi) == (
                        col_graph.edge_events_in(edge, lo, hi)
                    )
                    assert ref.count_edge_events_in(
                        edge, lo, hi
                    ) == col.count_edge_events_in(edge, lo, hi)

    def test_slices_identical(self, pair):
        ref, col = pair
        t0, t1 = ref.start_time, ref.end_time
        mid = (t0 + t1) / 2
        assert ref.slice_time(t0, mid).to_events() == col.slice_time(t0, mid).to_events()
        some_nodes = sorted(ref.nodes)[::3]
        assert (
            ref.slice_nodes(some_nodes).to_events()
            == col.slice_nodes(some_nodes).to_events()
        )
        assert ref.coarsen(300).to_events() == col.coarsen(300).to_events()

    def test_neighbors_identical(self, pair):
        ref, col = pair
        for node in ref.nodes:
            assert ref.neighbors(node) == col.neighbors(node)

    def test_batched_queries_identical(self, pair):
        ref, col = pair
        t0, t1 = ref.start_time, ref.end_time
        span = t1 - t0
        nodes = sorted(ref.nodes)[:5]
        windows = [(t0, t1), (t0 + span / 3, t0 + 2 * span / 3), (t1, t0), (t1, t1)]
        for lo, hi in windows:
            assert col.adjacent_events_between(
                nodes, lo, hi
            ) == ref.adjacent_events_between(nodes, lo, hi)

    def test_slice_range_and_shard_payload_identical(self, pair):
        ref, col = pair
        assert col.slice_range(3, 40).to_events() == ref.slice_range(3, 40).to_events()
        rebuilt = type(col).from_shard_payload(col.shard_payload(3, 40))
        assert rebuilt.to_events() == ref.events[3:40]
        assert type(rebuilt) is type(col)


class TestGraphLevelParity:
    """Whole-pipeline parity: enumeration and censuses across backends."""

    @pytest.mark.parametrize("seed", [7, 8])
    def test_enumerate_instances_identical(self, seed):
        graph = random_graph(seed)
        constraints = TimingConstraints(delta_c=600, delta_w=1800)
        per_backend = [
            list(
                enumerate_instances(
                    graph.with_backend(backend), 3, constraints, max_nodes=3
                )
            )
            for backend in BACKENDS
        ]
        assert per_backend[0], "sweep should find instances"
        assert all(insts == per_backend[0] for insts in per_backend[1:])

    @pytest.mark.parametrize("seed", [9, 10])
    def test_run_census_identical(self, seed):
        graph = random_graph(seed, same_ts=seed == 10)
        constraints = TimingConstraints.only_w(1800)
        censuses = [
            run_census(
                graph.with_backend(backend),
                3,
                constraints,
                max_nodes=3,
                collect_timespans=True,
            )
            for backend in BACKENDS
        ]
        first = censuses[0]
        assert first.total > 0
        for census in censuses[1:]:
            assert census.code_counts == first.code_counts
            assert census.pair_counts == first.pair_counts
            assert census.pair_sequence_counts == first.pair_sequence_counts
            assert census.timespans == first.timespans
            assert census.total == first.total


class TestTemporalGraphFacade:
    def test_backend_propagates_through_transformations(self):
        g = TemporalGraph.from_tuples(EVENTS, backend="columnar")
        assert g.backend == "columnar"
        for derived in (
            g.slice(10, 30),
            g.slice_nodes([0, 1]),
            g.head(2),
            g.degrade_resolution(25),
            g.filter_events(lambda ev: ev.u == 0),
            g.relabeled(),
        ):
            assert derived.backend == "columnar"

    def test_slice_nodes_induced_subgraph(self):
        g = TemporalGraph.from_tuples(EVENTS)
        sub = g.slice_nodes([0, 1])
        assert [ev.edge for ev in sub.events] == [(0, 1), (0, 1)]
        assert sub.nodes == {0, 1}
        assert sub.times == [10, 30]

    def test_slice_nodes_keeps_name_and_accepts_override(self):
        g = TemporalGraph.from_tuples(EVENTS, name="base")
        assert g.slice_nodes([0, 1]).name == "base"
        assert g.slice_nodes([0, 1], name="sub").name == "sub"

    def test_slice_nodes_empty_selection(self):
        g = TemporalGraph.from_tuples(EVENTS)
        assert len(g.slice_nodes([7, 8])) == 0

    def test_slice_nodes_then_census_roundtrip(self):
        graph = random_graph(55)
        nodes = sorted(graph.nodes)[: len(graph.nodes) // 2]
        constraints = TimingConstraints.only_w(900)
        direct = run_census(graph.slice_nodes(nodes), 2, constraints)
        rebuilt = run_census(
            TemporalGraph(graph.slice_nodes(nodes).events), 2, constraints
        )
        assert direct.code_counts == rebuilt.code_counts

    def test_append_extends_live_graph(self):
        g = TemporalGraph.from_tuples(EVENTS, backend="columnar")
        idx = g.append(Event(2, 1, 45))
        assert idx == 5
        assert g.events[idx] == Event(2, 1, 45)
        assert g.num_edges == 4
        assert g.extend([Event(2, 1, 50), Event(1, 0, 50)]) == [6, 7]
        assert g.edge_events_in((2, 1), 0, 100) == [5, 6]

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(1, 5), st.integers(0, 20)),
            min_size=1,
            max_size=30,
        ),
        st.lists(
            st.tuples(
                st.tuples(st.integers(0, 7), st.integers(0, 7)),
                st.integers(-2, 22),
                st.integers(-2, 22),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_window_facade_matches_brute_force(self, raw, queries):
        # Ids 6 and 7 never occur, and (n, n) is never an edge, so some
        # queried edges are unknown; lo > hi windows are empty.
        events = sorted(
            (Event(u, (u + d) % 6, float(t)) for u, d, t in raw),
            key=lambda ev: (ev.t, ev.u, ev.v),
        )
        graphs = [TemporalGraph(events, backend=name) for name in BACKENDS]
        # Live graphs: the later half arrives through the append tail.
        half = len(events) // 2
        for name in BACKENDS:
            live = TemporalGraph(events[:half], backend=name)
            live.extend(events[half:])
            graphs.append(live)
        with tempfile.TemporaryDirectory() as path:
            if "numpy" in BACKENDS:
                TemporalGraph(events).save(path, partition_events=4)
                graphs.append(TemporalGraph.load(path))
            for graph in graphs:
                stream = list(graph.storage.iter_uvt())
                for edge, lo, hi in queries:
                    assert graph.events_in(lo, hi) == [
                        i for i, (_u, _v, t) in enumerate(stream) if lo <= t <= hi
                    ]
                    assert graph.edge_events_in(edge, lo, hi) == [
                        i
                        for i, (u, v, t) in enumerate(stream)
                        if (u, v) == edge and lo <= t <= hi
                    ]

    def test_with_backend_preserves_content(self):
        g = TemporalGraph.from_tuples(EVENTS, name="g")
        h = g.with_backend("columnar")
        assert h.backend == "columnar"
        assert h.events == g.events
        assert h.name == "g"
