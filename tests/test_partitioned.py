"""Out-of-core partitioned page directories (PR 8).

Three layers under contract:

* the **writer** — ``write_partitioned`` streams events into per-interval
  page sets with bounded memory, never splitting a same-timestamp tick
  across a partition boundary;
* the **storage** — ``PartitionedStorage`` answers the full
  ``GraphStorage`` query contract identically to an in-memory build,
  while keeping at most ``max_resident`` partitions open;
* the **execution** — censuses over a partitioned graph route through
  the shard planner (even at ``jobs=1``) and stay **bit-identical** to
  the in-memory serial answer, counter key order included.

The Hypothesis property drives streams heavy on same-timestamp ticks
with a tiny ``partition_events`` so ticks land on (and straddle would-be)
partition edges; the session-scoped backend fixture replays the whole
module per storage backend, which is how the in-memory oracle covers
list, columnar and numpy.
"""

from __future__ import annotations

import json
import os

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.counting import run_census
from repro.core.constraints import TimingConstraints
from repro.core.events import Event, validate_events
from repro.core.temporal_graph import TemporalGraph
from repro.parallel.shards import plan_shards
from repro.storage import available_backends
from repro.storage.numpy_backend import NumpyStorage
from repro.storage.partitioned import (
    MANIFEST_NAME,
    PartitionedStorage,
    is_partitioned,
    load_partitioned,
    partitioned_meta,
    write_partitioned,
)

LOOSE = TimingConstraints(delta_c=50.0, delta_w=50.0)


def _stream(m: int, *, tick: int = 3, n_nodes: int = 9) -> list[Event]:
    """A deterministic bursty stream: ticks of ``tick`` same-time events."""
    out = []
    for i in range(m):
        u = (i * 5) % n_nodes
        v = (u + 1 + (i // 7) % (n_nodes - 1)) % n_nodes
        out.append(Event(u, v, float(i // tick)))
    return validate_events(out)


def _census_items(graph, *, jobs=1):
    census = run_census(graph, n_events=3, constraints=LOOSE, jobs=jobs)
    return (
        list(census.code_counts.items()),
        list(census.pair_counts.items()),
        census.total,
    )


# ----------------------------------------------------------------------
# writer
# ----------------------------------------------------------------------
def test_writer_round_trip(tmp_path):
    events = _stream(100)
    manifest = write_partitioned(events, tmp_path, partition_events=16, name="bursty")
    assert is_partitioned(tmp_path)
    assert manifest == partitioned_meta(tmp_path)
    assert manifest["n_events"] == 100
    assert manifest["name"] == "bursty"
    assert len(manifest["partitions"]) > 1

    storage, meta = load_partitioned(tmp_path)
    assert meta["name"] == "bursty"
    assert list(storage.events) == events
    # Each partition is itself a valid flat page set.
    for part in manifest["partitions"]:
        assert os.path.exists(tmp_path / part["dir"] / "meta.json")


def test_writer_never_splits_a_tick(tmp_path):
    # Ticks of 7 events with partition_events=5: every flush lands inside
    # a tick, so the hold-back rule is exercised at every boundary.
    events = _stream(70, tick=7)
    manifest = write_partitioned(events, tmp_path, partition_events=5)
    parts = manifest["partitions"]
    assert len(parts) > 1
    for prev, cur in zip(parts, parts[1:]):
        assert prev["t_max"] < cur["t_min"]
        assert prev["ev_lo"] + prev["n_events"] == cur["ev_lo"]


def test_writer_giant_tick_grows_partition(tmp_path):
    # All events share one timestamp: partition_events=1 must still yield
    # a single partition (a tick can never straddle an edge).
    events = [Event(i, i + 1, 5.0) for i in range(12)]
    manifest = write_partitioned(events, tmp_path, partition_events=1)
    assert len(manifest["partitions"]) == 1
    assert manifest["partitions"][0]["n_events"] == 12


def test_writer_accepts_within_buffer_disorder(tmp_path):
    events = _stream(30)
    shuffled = events[::-1]  # fully reversed, but fits in one buffer
    write_partitioned(shuffled, tmp_path, partition_events=64)
    storage, _ = load_partitioned(tmp_path)
    assert list(storage.events) == events


def test_writer_rejects_out_of_order_beyond_buffer(tmp_path):
    events = _stream(40) + [Event(0, 1, 0.0)]  # t=0 after t≈13 flushed
    with pytest.raises(ValueError, match="time order"):
        write_partitioned(events, tmp_path, partition_events=8)


def test_writer_empty_stream(tmp_path):
    manifest = write_partitioned([], tmp_path, partition_events=8)
    assert manifest["n_events"] == 0
    assert manifest["partitions"] == []
    storage, _ = load_partitioned(tmp_path)
    assert len(storage) == 0
    assert storage.start_time is None and storage.end_time is None
    assert storage.events == ()
    assert plan_shards(TemporalGraph._from_storage(storage), 10.0, 4)


def test_writer_rejects_bad_partition_events(tmp_path):
    with pytest.raises(ValueError, match="partition_events"):
        write_partitioned([], tmp_path, partition_events=0)


# ----------------------------------------------------------------------
# manifest validation
# ----------------------------------------------------------------------
def _tamper(path, mutate):
    manifest_path = os.path.join(path, MANIFEST_NAME)
    with open(manifest_path) as fh:
        meta = json.load(fh)
    mutate(meta)
    with open(manifest_path, "w") as fh:
        json.dump(meta, fh)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda m: m.update(format="something-else"), "unrecognized"),
        (lambda m: m.update(version=99), "version"),
        (lambda m: m["partitions"][1].update(ev_lo=3), "starts at event"),
        (lambda m: m["partitions"][1].update(t_min=0.0), "tick-aligned"),
        (lambda m: m.update(n_events=7), "records"),
        (lambda m: m["partitions"][0].update(n_events=0, ev_lo=0), "empty"),
    ],
)
def test_manifest_validation_rejects_corruption(tmp_path, mutate, message):
    write_partitioned(_stream(40), tmp_path, partition_events=8)
    _tamper(tmp_path, mutate)
    with pytest.raises(ValueError, match=message):
        partitioned_meta(tmp_path)


def test_missing_manifest(tmp_path):
    assert not is_partitioned(tmp_path)
    with pytest.raises(FileNotFoundError):
        partitioned_meta(tmp_path)


# ----------------------------------------------------------------------
# storage parity + residency
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def parity_pair(tmp_path_factory):
    events = _stream(120, tick=4)
    path = tmp_path_factory.mktemp("parts")
    write_partitioned(events, path, partition_events=16, name="parity")
    storage, _ = load_partitioned(path, max_resident=2)
    oracle = NumpyStorage.from_events(events, presorted=True)
    return storage, oracle


def test_query_parity_against_flat(parity_pair):
    storage, oracle = parity_pair
    assert len(storage) == len(oracle)
    assert list(storage.events) == list(oracle.events)
    assert list(storage.times) == list(oracle.times)
    assert storage.nodes == oracle.nodes
    assert storage.num_nodes == oracle.num_nodes
    assert storage.num_edges == oracle.num_edges
    assert storage.start_time == oracle.start_time
    assert storage.end_time == oracle.end_time
    # First-appearance iteration order of the adjacency views is part of
    # the contract (seeded consumers depend on it).
    assert list(storage.node_events) == list(oracle.node_events)
    assert dict(storage.node_events) == {
        k: list(v) for k, v in oracle.node_events.items()
    }
    assert list(storage.edge_events) == list(oracle.edge_events)
    assert dict(storage.edge_times) == {
        k: list(v) for k, v in oracle.edge_times.items()
    }
    for idx in (0, 1, len(oracle) // 2, len(oracle) - 1, -1):
        assert storage.event_at(idx) == oracle.event_at(idx)
        assert storage.time_at(idx) == oracle.time_at(idx)
    assert list(storage.iter_uvt()) == list(oracle.iter_uvt())


def test_windowed_query_parity(parity_pair):
    storage, oracle = parity_pair
    ts = sorted({*oracle.times})
    windows = [
        (ts[0], ts[-1]),
        (ts[2], ts[5]),
        (ts[3] + 0.5, ts[7] + 0.5),
        (-10.0, -1.0),
        (ts[-1] + 1, ts[-1] + 5),
        (ts[4], ts[4]),
    ]
    nodes = sorted(oracle.nodes)
    edges = list(oracle.edge_events)[:6]
    graph = TemporalGraph._from_storage(storage)
    oracle_graph = TemporalGraph._from_storage(oracle)
    for lo, hi in windows:
        assert storage.bisect_time_left(lo) == oracle.bisect_time_left(lo)
        assert storage.bisect_time_right(hi) == oracle.bisect_time_right(hi)
        for node in nodes:
            assert storage.node_events_in(node, lo, hi) == oracle.node_events_in(
                node, lo, hi
            )
            assert storage.count_node_events_in(
                node, lo, hi
            ) == oracle.count_node_events_in(node, lo, hi)
            assert storage.node_events_between(
                node, lo, hi
            ) == oracle.node_events_between(node, lo, hi)
        for edge in edges:
            assert graph.edge_events_in(edge, lo, hi) == oracle_graph.edge_events_in(
                edge, lo, hi
            )
        assert storage.adjacent_events_between(
            nodes[:4], lo, hi
        ) == oracle.adjacent_events_between(nodes[:4], lo, hi)


def test_slice_parity(parity_pair):
    storage, oracle = parity_pair
    m = len(oracle)
    for lo, hi in [(0, m), (5, 9), (10, 70), (m - 3, m), (40, 40)]:
        sliced = storage.slice_range(lo, hi)
        assert isinstance(sliced, NumpyStorage)
        assert list(sliced.events) == list(oracle.slice_range(lo, hi).events)
    assert list(storage.slice_time(3.0, 11.0).events) == list(
        oracle.slice_time(3.0, 11.0).events
    )


def test_lru_residency_bound(tmp_path):
    write_partitioned(_stream(128), tmp_path, partition_events=8)
    storage, _ = load_partitioned(tmp_path, max_resident=2)
    assert storage.n_partitions > 4
    assert storage.resident_partitions == ()
    for idx in range(0, len(storage), 5):
        storage.event_at(idx)
        assert len(storage.resident_partitions) <= 2
    # The LRU keeps the most recently touched partition resident.
    last = storage.resident_partitions[-1]
    storage.event_at(len(storage) - 1)
    assert storage.resident_partitions[-1] >= last


def test_shard_payload_round_trip(tmp_path):
    write_partitioned(_stream(60), tmp_path, partition_events=8)
    storage, _ = load_partitioned(tmp_path)
    payload = storage.shard_payload(10, 45)
    # Constant-size wire form: no event data crosses the pool boundary.
    assert payload["path"] == str(tmp_path)
    rebuilt = PartitionedStorage.from_shard_payload(payload)
    assert isinstance(rebuilt, NumpyStorage)
    assert list(rebuilt.events) == list(storage.events)[10:45]


def test_append_is_refused(tmp_path):
    write_partitioned(_stream(10), tmp_path, partition_events=4)
    storage, _ = load_partitioned(tmp_path)
    assert not PartitionedStorage.supports_append
    with pytest.raises(NotImplementedError):
        storage.append(Event(0, 1, 99.0))


def test_registry_from_events_round_trip():
    assert "partitioned" in available_backends()
    events = _stream(40)
    storage = PartitionedStorage.from_events(events, partition_events=8, name="reg")
    assert storage.n_partitions > 1
    assert list(storage.events) == events
    assert storage.meta["name"] == "reg"


# ----------------------------------------------------------------------
# planning + execution
# ----------------------------------------------------------------------
def test_plan_shards_parity_with_flat(tmp_path):
    events = _stream(200, tick=5)
    write_partitioned(events, tmp_path, partition_events=32)
    storage, _ = load_partitioned(tmp_path, max_resident=2)
    part_graph = TemporalGraph._from_storage(storage, name="plan")
    flat_graph = TemporalGraph._from_storage(
        NumpyStorage.from_events(events, presorted=True), name="plan"
    )
    delta = LOOSE.loose_timespan_bound(3)
    for n_shards in (1, 2, 4, 7):
        assert plan_shards(part_graph, delta, n_shards) == plan_shards(
            flat_graph, delta, n_shards
        )


def test_shard_count_hint_covers_partitions(tmp_path):
    write_partitioned(_stream(96), tmp_path, partition_events=12)
    storage, _ = load_partitioned(tmp_path)
    assert storage.prefers_sharded_execution
    assert storage.shard_count_hint() == storage.n_partitions > 1


def test_whole_stream_materialization_is_loud(tmp_path):
    import warnings

    import repro.obs as obs
    from repro.algorithms.enumeration import enumerate_instances
    from repro.algorithms.restrictions import is_static_induced, satisfies_cdg

    write_partitioned(_stream(120, tick=4), tmp_path, partition_events=16)
    constraints = TimingConstraints(delta_c=2.0, delta_w=4.0)
    graph = TemporalGraph.load(tmp_path)
    assert graph.storage.n_partitions > 2

    def materializations(run, *, warns):
        registry = obs.enable(obs.MetricsRegistry())
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                run()
        finally:
            obs.disable()
        loud = [w for w in caught if "folds all" in str(w.message)]
        assert len(loud) == warns, [str(w.message) for w in caught]
        return registry.counters.get("storage.partition.materialize", 0)

    # Time shards of a shard-safe predicate stay within their windows.
    assert materializations(
        lambda: run_census(graph, 3, constraints, predicate=satisfies_cdg), warns=0
    ) == 0
    # Root shards of a predicate that is not shard-safe rebuild the whole
    # stream in every shard's storage: counted per shard, warned per storage.
    # Serial shards slice the parent storage, so it warns once.
    n_shards = graph.storage.shard_count_hint()
    assert materializations(
        lambda: run_census(graph, 3, constraints, predicate=is_static_induced),
        warns=1,
    ) == n_shards
    # Serial enumeration reads the whole-stream views: one warning for
    # this storage, one count per view built, none once built.  A fresh
    # storage, so the root-shard warning above has not been spent on it.
    graph = TemporalGraph.load(tmp_path)

    def serial():
        list(enumerate_instances(graph, 3, constraints))

    assert materializations(serial, warns=1) >= 1
    assert materializations(serial, warns=0) == 0


def test_static_neighbors_stay_out_of_core(tmp_path):
    import warnings

    events = _stream(150, tick=4)
    write_partitioned(events, tmp_path, partition_events=16)
    graph = TemporalGraph.load(tmp_path)
    reference = TemporalGraph(events, backend="list")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = {node: graph.static_neighbors(node) for node in reference.nodes}
    assert got == {node: reference.static_neighbors(node) for node in reference.nodes}


def test_root_sampling_stays_out_of_core(tmp_path):
    import warnings

    import numpy as np

    import repro.obs as obs
    from repro.algorithms.sampling import estimate_counts_root_sampling

    events = _stream(150, tick=4)
    write_partitioned(events, tmp_path, partition_events=16)
    graph = TemporalGraph.load(tmp_path)
    constraints = TimingConstraints(delta_c=2.0, delta_w=4.0)
    registry = obs.enable(obs.MetricsRegistry())
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            estimate = estimate_counts_root_sampling(
                graph, 3, constraints, 0.5, rng=np.random.default_rng(11)
            )
    finally:
        obs.disable()
    assert registry.counters.get("storage.partition.materialize", 0) == 0
    reference = estimate_counts_root_sampling(
        TemporalGraph(events), 3, constraints, 0.5, rng=np.random.default_rng(11)
    )
    assert estimate and estimate == reference


def test_window_sampling_stays_out_of_core(tmp_path):
    import warnings

    import repro.obs as obs
    from repro.algorithms.sampling import estimate_counts_window_sampling

    events = _stream(150, tick=4)
    write_partitioned(events, tmp_path, partition_events=16)
    constraints = TimingConstraints(delta_c=2.0, delta_w=4.0)

    def estimate(graph):
        rng = np.random.default_rng(11)
        return estimate_counts_window_sampling(graph, 3, constraints, window=6.0, q=0.5, rng=rng)

    registry = obs.enable(obs.MetricsRegistry())
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sampled = estimate(TemporalGraph.load(tmp_path))
    finally:
        obs.disable()
    assert registry.counters.get("storage.partition.materialize", 0) == 0
    assert sampled and sampled == estimate(TemporalGraph(events))


@pytest.mark.parametrize("restriction", ("consecutive", "cdg"))
def test_predicated_census_never_maps_index_pages(tmp_path, restriction):
    import repro.obs as obs
    from repro.algorithms.restrictions import (
        satisfies_cdg,
        satisfies_consecutive_events,
    )

    predicate = {
        "consecutive": satisfies_consecutive_events,
        "cdg": satisfies_cdg,
    }[restriction]
    events = _stream(150, tick=4)
    write_partitioned(events, tmp_path, partition_events=16)
    graph = TemporalGraph.load(tmp_path)
    constraints = TimingConstraints(delta_c=2.0, delta_w=4.0)
    registry = obs.enable(obs.MetricsRegistry())
    try:
        census = run_census(graph, 3, constraints, predicate=predicate, jobs=1)
    finally:
        obs.disable()
    # Planning and shard slicing read only the column pages.
    assert registry.counters["storage.partition.opens"] > 0
    assert registry.counters.get("storage.pages.index_opens", 0) == 0
    reference = run_census(TemporalGraph(events), 3, constraints, predicate=predicate, jobs=1)
    assert census.total > 0
    assert list(census.code_counts.items()) == list(reference.code_counts.items())


def test_census_bit_identity(tmp_path):
    events = _stream(150, tick=4)
    write_partitioned(events, tmp_path, partition_events=16, name="census")
    storage, _ = load_partitioned(tmp_path, max_resident=2)
    part_graph = TemporalGraph._from_storage(storage, name="census")
    memory_graph = TemporalGraph(events, name="census")

    reference = _census_items(memory_graph, jobs=1)
    assert reference[2] > 0
    assert _census_items(part_graph, jobs=1) == reference
    assert _census_items(part_graph, jobs=4) == reference


# ----------------------------------------------------------------------
# facade integration (save/load autodetect, name round-trip)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ("list", "columnar", "numpy"))
@pytest.mark.parametrize("partition_events", (None, 16))
def test_facade_save_load_name_round_trip(tmp_path, backend, partition_events):
    if backend not in available_backends():
        pytest.skip(f"{backend} backend unavailable")
    events = _stream(50)
    graph = TemporalGraph(events, name="round-trip", backend=backend)
    target = tmp_path / "pages"
    graph.save(target, partition_events=partition_events)
    assert is_partitioned(target) == (partition_events is not None)
    loaded = TemporalGraph.load(target)
    assert loaded.name == "round-trip"
    assert list(loaded.events) == events
    renamed = TemporalGraph.load(target, name="other")
    assert renamed.name == "other"


# ----------------------------------------------------------------------
# the property: ticks straddling partition edges never change a census
# ----------------------------------------------------------------------
tick_streams = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=1, max_value=5),  # offset, so u != v
        # Few distinct timestamps → heavy same-timestamp ticks, which a
        # tiny partition_events forces onto partition edges.
        st.integers(min_value=0, max_value=6).map(float),
    ),
    min_size=1,
    max_size=28,
)


@settings(max_examples=25, deadline=None)
@given(tuples=tick_streams)
def test_partitioned_census_matches_flat_and_memory(tuples, tmp_path_factory):
    events = validate_events(Event(u, (u + off) % 6, t) for u, off, t in tuples)
    memory_graph = TemporalGraph(events, name="prop")

    base = tmp_path_factory.mktemp("prop")
    flat_dir, part_dir = base / "flat", base / "parts"
    memory_graph.save(flat_dir)
    memory_graph.save(part_dir, partition_events=4)

    flat_graph = TemporalGraph.load(flat_dir, mmap=True)
    part_graph = TemporalGraph.load(part_dir)
    assert part_graph.name == flat_graph.name == "prop"

    reference = _census_items(memory_graph, jobs=1)
    assert _census_items(flat_graph, jobs=1) == reference
    assert _census_items(part_graph, jobs=1) == reference
    assert _census_items(part_graph, jobs=2) == reference


# ----------------------------------------------------------------------
# serial shards slice the parent's open partitions
# ----------------------------------------------------------------------
def _traced_opens(run) -> int:
    import repro.obs as obs

    registry = obs.enable(obs.MetricsRegistry())
    try:
        run()
    finally:
        obs.disable()
    return registry.counters.get("storage.partition.opens", 0)


def test_serial_census_reads_the_parent_partitions(tmp_path):
    from repro.algorithms.restrictions import satisfies_cdg

    events = _stream(150, tick=4)
    meta = write_partitioned(events, tmp_path, partition_events=16)
    n_partitions = len(meta["partitions"])
    storage, _ = load_partitioned(tmp_path, max_resident=n_partitions)
    graph = TemporalGraph._from_storage(storage)
    constraints = TimingConstraints(delta_c=2.0, delta_w=4.0)

    def census():
        return run_census(graph, 3, constraints, predicate=satisfies_cdg, jobs=1)

    assert 0 < _traced_opens(census) <= n_partitions
    # Every partition is resident now: a second census opens none.
    assert _traced_opens(census) == 0
    reference = run_census(TemporalGraph(events), 3, constraints, predicate=satisfies_cdg)
    assert census().total > 0
    assert list(census().code_counts.items()) == list(reference.code_counts.items())


def test_serial_census_keeps_the_residency_bound(tmp_path):
    events = _stream(150, tick=4)
    write_partitioned(events, tmp_path, partition_events=16)
    storage, _ = load_partitioned(tmp_path, max_resident=2)
    assert storage.n_partitions > 2
    graph = TemporalGraph._from_storage(storage)
    constraints = TimingConstraints(delta_c=2.0, delta_w=4.0)
    census = run_census(graph, 3, constraints, jobs=1)
    assert len(storage.resident_partitions) <= 2
    reference = run_census(TemporalGraph(events), 3, constraints)
    assert census.total > 0
    assert list(census.code_counts.items()) == list(reference.code_counts.items())


@pytest.mark.parametrize("restriction", (None, "consecutive", "cdg"))
def test_sharded_census_on_ties_matches_memory(tmp_path, restriction):
    from repro.algorithms.restrictions import (
        satisfies_cdg,
        satisfies_consecutive_events,
    )

    predicate = {
        None: None,
        "consecutive": satisfies_consecutive_events,
        "cdg": satisfies_cdg,
    }[restriction]
    # Six events per timestamp and partitions of five: every partition
    # edge splits a tie.
    events = _stream(180, tick=6, n_nodes=30)
    write_partitioned(events, tmp_path, partition_events=5)
    constraints = TimingConstraints(delta_c=2.0, delta_w=3.0)

    def items(graph, jobs):
        census = run_census(
            graph, 3, constraints, predicate=predicate, jobs=jobs,
            collect_timespans=True, collect_positions=True,
        )
        return (
            list(census.code_counts.items()),
            list(census.pair_counts.items()),
            list(census.timespans.items()),
            list(census.intermediate_positions.items()),
            census.total,
        )

    reference = items(TemporalGraph(events), 1)
    assert reference[-1] > 0
    for jobs in (1, 2):
        assert items(TemporalGraph.load(tmp_path), jobs) == reference, jobs
