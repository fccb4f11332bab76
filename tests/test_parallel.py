"""The parallel engine: shard planning, executors, merges, and the
serial-vs-parallel parity contract.

The parity tests assert *bit-identical* output — not just equal counts
but equal counter key order and equal sample lists — because downstream
seeded consumers depend on first-appearance iteration order.  The whole
module runs under both storage backends via the session ``storage_backend``
fixture.
"""

from __future__ import annotations

import math
import os
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.counting import (
    count_event_pairs,
    count_motifs,
    run_census,
)
from repro.algorithms.enumeration import enumerate_instances
from repro.algorithms.restrictions import (
    combine,
    is_static_induced,
    satisfies_cdg,
    satisfies_consecutive_events,
)
from repro.core.constraints import TimingConstraints
from repro.core.temporal_graph import TemporalGraph
from repro.datasets.generators import ActivityConfig, generate
from repro.parallel import (
    ENV_JOBS,
    ParallelExecutor,
    SerialExecutor,
    Shard,
    default_jobs,
    get_executor,
    is_shard_safe,
    mark_shard_safe,
    merge_censuses,
    merge_counts,
    merge_instances,
    parallel_map,
    plan_root_shards,
    plan_shards,
    resolve_jobs,
    shard_graph,
)

CONSTRAINTS = TimingConstraints(delta_c=40.0, delta_w=90.0)


def _square(x: int) -> int:
    return x * x


def _raise_attribute_error(x):
    raise AttributeError("worker boom")


def _few_nodes(graph: TemporalGraph, instance) -> bool:
    """A deliberately unmarked predicate (forces the root-shard fallback)."""
    nodes = set()
    for i in instance:
        ev = graph.events[i]
        nodes.update(ev.nodes)
    return len(nodes) == 3


@pytest.fixture(scope="module")
def medium_graph(storage_backend: str) -> TemporalGraph:
    """~2k events of bursty synthetic activity, enough to span many shards."""
    pytest.importorskip("numpy", reason="graph synthesis is numpy-seeded")
    config = ActivityConfig(
        n_nodes=120,
        n_events=2_000,
        timespan=20_000.0,
        p_reply=0.3,
        p_repeat=0.2,
        p_cc=0.1,
        p_forward=0.1,
    )
    return generate(config, seed=7)


# ----------------------------------------------------------------------
# shard planning
# ----------------------------------------------------------------------
class TestPlanShards:
    def test_anchors_partition_the_stream(self, medium_graph):
        shards = plan_shards(medium_graph, 90.0, 4)
        assert shards[0].root_lo == 0
        assert shards[-1].root_hi == len(medium_graph)
        for a, b in zip(shards, shards[1:]):
            assert a.root_hi == b.root_lo

    def test_windows_cover_owned_roots(self, medium_graph):
        delta = CONSTRAINTS.loose_timespan_bound(3)
        times = medium_graph.times
        for shard in plan_shards(medium_graph, delta, 5):
            assert shard.ev_lo <= shard.root_lo
            assert shard.ev_hi >= shard.root_hi
            # every event inside [t_root, t_root + delta] of any owned root
            # must lie inside the shard's event range
            t_last_root = times[shard.root_hi - 1]
            for idx in range(shard.root_lo, len(medium_graph)):
                if times[idx] > t_last_root + delta:
                    break
                assert shard.ev_lo <= idx < shard.ev_hi
            # backward extension: same-timestamp events of the first root
            if shard.root_lo > 0 and times[shard.root_lo - 1] == times[shard.root_lo]:
                assert shard.ev_lo < shard.root_lo

    def test_more_shards_than_events(self):
        graph = TemporalGraph.from_tuples([(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)])
        shards = plan_shards(graph, 10.0, 16)
        assert len(shards) == 3
        assert [s.n_roots for s in shards] == [1, 1, 1]

    def test_empty_graph(self):
        graph = TemporalGraph([])
        assert plan_shards(graph, 5.0, 4) == [Shard(0, 0, 0, 0, 0)]
        assert plan_root_shards(graph, 4) == [Shard(0, 0, 0, 0, 0)]

    def test_infinite_delta_degrades_to_one_shard(self, medium_graph):
        shards = plan_shards(medium_graph, math.inf, 4)
        assert len(shards) == 1
        assert shards[0].n_events == len(medium_graph)

    def test_negative_delta_rejected(self, medium_graph):
        with pytest.raises(ValueError):
            plan_shards(medium_graph, -1.0, 2)

    def test_root_shards_see_everything(self, medium_graph):
        shards = plan_root_shards(medium_graph, 3)
        assert all(s.ev_lo == 0 and s.ev_hi == len(medium_graph) for s in shards)
        assert sum(s.n_roots for s in shards) == len(medium_graph)

    def test_shard_graph_preserves_backend_and_indices(self, medium_graph):
        shard = plan_shards(medium_graph, 90.0, 4)[1]
        sub = shard_graph(medium_graph, shard)
        assert sub.backend == medium_graph.backend
        assert len(sub) == shard.n_events
        assert sub.events[0] == medium_graph.events[shard.ev_lo]
        assert shard.to_global((0, 1)) == (shard.ev_lo, shard.ev_lo + 1)


# ----------------------------------------------------------------------
# executors and job resolution
# ----------------------------------------------------------------------
class TestExecutor:
    def test_explicit_jobs_beats_environment(self, monkeypatch):
        monkeypatch.setenv(ENV_JOBS, "7")
        assert resolve_jobs(2) == 2
        assert resolve_jobs(None) == 7

    def test_env_unset_means_serial(self, monkeypatch):
        monkeypatch.delenv(ENV_JOBS, raising=False)
        assert resolve_jobs(None) == 1

    def test_invalid_env_warns_and_runs_serial(self, monkeypatch):
        monkeypatch.setenv(ENV_JOBS, "many")
        with pytest.warns(RuntimeWarning):
            assert resolve_jobs(None) == 1

    def test_nonpositive_means_cpu_count(self, monkeypatch):
        monkeypatch.delenv(ENV_JOBS, raising=False)
        assert resolve_jobs(0) == (os.cpu_count() or 1)
        assert resolve_jobs(-1) == (os.cpu_count() or 1)

    def test_default_jobs_context(self, monkeypatch):
        monkeypatch.delenv(ENV_JOBS, raising=False)
        assert resolve_jobs(None) == 1
        with default_jobs(5):
            assert resolve_jobs(None) == 5
            assert resolve_jobs(2) == 2
        assert resolve_jobs(None) == 1

    def test_get_executor_kinds(self, monkeypatch):
        monkeypatch.delenv(ENV_JOBS, raising=False)
        assert isinstance(get_executor(1), SerialExecutor)
        assert isinstance(get_executor(3), ParallelExecutor)

    def test_pool_map_preserves_order(self):
        assert ParallelExecutor(2).map(_square, range(9)) == [x * x for x in range(9)]

    def test_unpicklable_payload_falls_back_to_serial(self):
        with pytest.warns(RuntimeWarning):
            result = ParallelExecutor(2).map(lambda x: x + 1, [1, 2, 3])
        assert result == [2, 3, 4]

    def test_worker_errors_propagate_without_serial_rerun(self):
        with pytest.raises(AttributeError, match="worker boom"):
            ParallelExecutor(2).map(_raise_attribute_error, [1, 2])

    def test_parallel_map_matches_serial(self):
        assert parallel_map(_square, range(5), jobs=2) == [0, 1, 4, 9, 16]

    def test_explicit_serial_ignores_session_default(self, monkeypatch):
        """jobs=1 must stay serial even with a session default installed."""

        def boom(self, fn, items):
            raise AssertionError("pool used despite jobs=1")

        monkeypatch.setattr(ParallelExecutor, "map", boom)
        graph = TemporalGraph.from_tuples([(0, 1, 10.0), (1, 2, 20.0), (0, 2, 25.0)])
        with default_jobs(4):
            counts = count_motifs(graph, 3, CONSTRAINTS, max_nodes=3, jobs=1)
        assert sum(counts.values()) == 1

    def test_enumerate_stays_lazy_under_session_default(self, monkeypatch):
        """The generator never auto-parallelizes; opt-in is explicit."""

        def boom(self, fn, items):
            raise AssertionError("enumerate_instances materialized via a pool")

        monkeypatch.setattr(ParallelExecutor, "map", boom)
        graph = TemporalGraph.from_tuples([(0, 1, 10.0), (1, 2, 20.0), (0, 2, 25.0)])
        with default_jobs(4):
            first = next(enumerate_instances(graph, 3, CONSTRAINTS), None)
        assert first == (0, 1, 2)


# ----------------------------------------------------------------------
# merges
# ----------------------------------------------------------------------
class TestMerge:
    def test_merge_counts_preserves_first_appearance_order(self):
        merged = merge_counts(
            [Counter({"b": 1, "a": 2}), Counter({"c": 4, "a": 1})],
        )
        assert merged == Counter({"a": 3, "b": 1, "c": 4})
        assert list(merged) == ["b", "a", "c"]

    def test_merge_instances_dedups_by_anchor_ownership(self):
        shards = [Shard(0, 0, 2, 0, 4), Shard(1, 2, 4, 1, 4)]
        # shard 1 redundantly re-found an instance anchored in shard 0
        lists = [[(0, 1), (1, 3)], [(1, 3), (2, 3), (3,)]]
        assert merge_instances(shards, lists) == [(0, 1), (1, 3), (2, 3), (3,)]

    def test_merge_instances_length_mismatch(self):
        with pytest.raises(ValueError):
            merge_instances([Shard(0, 0, 1, 0, 1)], [])

    def test_merge_censuses_requires_input(self):
        with pytest.raises(ValueError):
            merge_censuses([])


# ----------------------------------------------------------------------
# parity: the acceptance bar of the engine
# ----------------------------------------------------------------------
class TestParity:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_census_bit_identical(self, medium_graph, jobs):
        serial = run_census(
            medium_graph,
            3,
            CONSTRAINTS,
            max_nodes=3,
            collect_timespans=True,
            collect_positions=True,
        )
        parallel = run_census(
            medium_graph,
            3,
            CONSTRAINTS,
            max_nodes=3,
            collect_timespans=True,
            collect_positions=True,
            jobs=jobs,
        )
        assert parallel.total == serial.total
        assert parallel.code_counts == serial.code_counts
        assert list(parallel.code_counts) == list(serial.code_counts)
        assert parallel.pair_counts == serial.pair_counts
        assert parallel.pair_sequence_counts == serial.pair_sequence_counts
        assert list(parallel.pair_sequence_counts) == list(serial.pair_sequence_counts)
        assert parallel.timespans == serial.timespans
        assert parallel.intermediate_positions == serial.intermediate_positions

    def test_census_sample_caps(self, medium_graph):
        kwargs = dict(
            max_nodes=3,
            collect_timespans=True,
            collect_positions=True,
            sample_cap=7,
        )
        serial = run_census(medium_graph, 3, CONSTRAINTS, **kwargs)
        parallel = run_census(medium_graph, 3, CONSTRAINTS, jobs=3, **kwargs)
        assert parallel.timespans == serial.timespans
        assert parallel.intermediate_positions == serial.intermediate_positions
        assert all(len(v) <= 7 for v in parallel.timespans.values())

    def test_count_motifs_with_node_filter(self, medium_graph):
        serial = count_motifs(medium_graph, 3, CONSTRAINTS, max_nodes=3, node_counts={3})
        parallel = count_motifs(
            medium_graph,
            3,
            CONSTRAINTS,
            max_nodes=3,
            node_counts={3},
            jobs=4,
        )
        assert parallel == serial
        assert list(parallel) == list(serial)

    def test_count_event_pairs(self, medium_graph):
        serial = count_event_pairs(medium_graph, 3, CONSTRAINTS, max_nodes=3)
        parallel = count_event_pairs(medium_graph, 3, CONSTRAINTS, max_nodes=3, jobs=2)
        assert parallel == serial

    def test_total_instances(self, medium_graph):
        serial = run_census(medium_graph, 3, CONSTRAINTS).total
        assert run_census(medium_graph, 3, CONSTRAINTS, jobs=3).total == serial

    def test_enumerate_yields_serial_order(self, medium_graph):
        serial = list(enumerate_instances(medium_graph, 3, CONSTRAINTS))
        parallel = list(enumerate_instances(medium_graph, 3, CONSTRAINTS, jobs=3))
        assert parallel == serial

    @pytest.mark.parametrize(
        "predicate",
        [satisfies_consecutive_events, satisfies_cdg],
        ids=["consecutive", "cdg"],
    )
    def test_shard_safe_predicates(self, medium_graph, predicate):
        assert is_shard_safe(predicate)
        serial = count_motifs(medium_graph, 3, CONSTRAINTS, max_nodes=3, predicate=predicate)
        parallel = count_motifs(
            medium_graph,
            3,
            CONSTRAINTS,
            max_nodes=3,
            predicate=predicate,
            jobs=4,
        )
        assert parallel == serial

    def test_global_predicate_routes_to_root_shards(self, medium_graph):
        assert not is_shard_safe(is_static_induced)
        serial = count_motifs(
            medium_graph,
            3,
            CONSTRAINTS,
            max_nodes=3,
            predicate=is_static_induced,
        )
        parallel = count_motifs(
            medium_graph,
            3,
            CONSTRAINTS,
            max_nodes=3,
            predicate=is_static_induced,
            jobs=4,
        )
        assert parallel == serial

    def test_unmarked_predicate_still_correct(self, medium_graph):
        serial = count_motifs(medium_graph, 3, CONSTRAINTS, max_nodes=3, predicate=_few_nodes)
        parallel = count_motifs(
            medium_graph,
            3,
            CONSTRAINTS,
            max_nodes=3,
            predicate=_few_nodes,
            jobs=3,
        )
        assert parallel == serial

    def test_four_event_motifs(self, medium_graph):
        serial = count_motifs(medium_graph, 4, CONSTRAINTS, max_nodes=4)
        parallel = count_motifs(medium_graph, 4, CONSTRAINTS, max_nodes=4, jobs=2)
        assert parallel == serial

    def test_empty_graph(self):
        graph = TemporalGraph([])
        assert count_motifs(graph, 3, CONSTRAINTS, jobs=4) == Counter()
        assert run_census(graph, 3, CONSTRAINTS, jobs=4).total == 0


# ----------------------------------------------------------------------
# shard-safety protocol
# ----------------------------------------------------------------------
class TestShardSafety:
    def test_none_predicate_is_safe(self):
        assert is_shard_safe(None)

    def test_mark_shard_safe(self):
        def pred(graph, instance):
            return True

        assert not is_shard_safe(pred)
        assert is_shard_safe(mark_shard_safe(pred))

    def test_combine_propagates_safety(self):
        safe = combine(satisfies_consecutive_events, satisfies_cdg)
        assert is_shard_safe(safe)
        mixed = combine(satisfies_consecutive_events, is_static_induced)
        assert not is_shard_safe(mixed)


# ----------------------------------------------------------------------
# shard-boundary correctness (property test, in-process)
# ----------------------------------------------------------------------
triples = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=50),
    ),
    max_size=40,
).map(lambda raw: [(u, v, float(t)) for (u, v, t) in raw if u != v])


@given(
    events=triples,
    delta=st.integers(1, 30),
    n_shards=st.integers(1, 5),
    scale=st.sampled_from([1.0, 0.1, 1303.2033657968898]),
)
@settings(max_examples=60, deadline=None)
def test_boundary_instances_counted_exactly_once(events, delta, n_shards, scale):
    """Instances straddling a shard edge appear exactly once, in order.

    Enumerates each shard in-process (no pools, so hypothesis can drive
    many examples) and asserts the concatenation equals the serial
    enumeration as a *sequence* — any boundary loss or double count would
    break multiplicity, any mis-merge would break order.  Non-unit
    ``scale`` factors make timestamps binary-inexact, exercising the
    planner's float-slack window bound.
    """
    graph = TemporalGraph.from_tuples([(u, v, t * scale) for (u, v, t) in events])
    constraints = TimingConstraints.only_c(float(delta) * scale)
    serial = list(enumerate_instances(graph, 3, constraints))
    shards = plan_shards(graph, constraints.loose_timespan_bound(3), n_shards)
    gathered = []
    for shard in shards:
        sub = shard_graph(graph, shard)
        gathered.extend(
            shard.to_global(inst)
            for inst in enumerate_instances(sub, 3, constraints, roots=shard.local_roots)
        )
    assert gathered == serial


def test_float_deadline_chain_straddles_window_bound():
    """Chained float deadlines may exceed the single-sum shard bound.

    The serial enumerator extends deadlines step by step (``t + ΔC`` per
    event), so ``(a + dc) + dc`` can land a few ulps *above* the shard
    planner's ``a + 2 * dc`` window bound; the planner's ulp slack must
    keep such instances inside the shard.  Regression for a lost-instance
    bug found by review (values reproduce the float mismatch exactly).
    """
    dc = 1303.2033657968898
    a = 788723.3511355132
    assert (a + dc) + dc > a + 2 * dc  # the float hazard this guards
    graph = TemporalGraph.from_tuples(
        [(7, 8, a - 5 * dc), (0, 1, a), (1, 2, a + dc), (2, 3, (a + dc) + dc)]
    )
    constraints = TimingConstraints.only_c(dc)
    serial = list(enumerate_instances(graph, 3, constraints))
    assert (1, 2, 3) in serial
    shards = plan_shards(graph, constraints.loose_timespan_bound(3), 2)
    gathered = []
    for shard in shards:
        sub = shard_graph(graph, shard)
        gathered.extend(
            shard.to_global(inst)
            for inst in enumerate_instances(sub, 3, constraints, roots=shard.local_roots)
        )
    assert gathered == serial


def test_straddling_instance_deterministic_example():
    """A motif spanning the exact boundary between two shards counts once.

    Six events, two shards of three roots each: the instance (2, 3, 4)
    crosses the boundary (anchor in shard 0, later events in shard 1) and
    must be yielded by shard 0 alone.
    """
    graph = TemporalGraph.from_tuples(
        [(0, 1, 0.0), (1, 2, 10.0), (1, 2, 20.0), (2, 3, 25.0), (3, 1, 28.0), (0, 2, 60.0)]
    )
    constraints = TimingConstraints.only_c(8.0)
    serial = list(enumerate_instances(graph, 3, constraints))
    assert (2, 3, 4) in serial
    shards = plan_shards(graph, constraints.loose_timespan_bound(3), 2)
    assert shards[0].root_hi == 3  # the boundary splits the instance
    per_shard = []
    for shard in shards:
        sub = shard_graph(graph, shard)
        per_shard.append(
            [
                shard.to_global(inst)
                for inst in enumerate_instances(sub, 3, constraints, roots=shard.local_roots)
            ]
        )
    assert sum(inst == (2, 3, 4) for insts in per_shard for inst in insts) == 1
    assert merge_instances(shards, per_shard) == serial


# ----------------------------------------------------------------------
# experiments integration
# ----------------------------------------------------------------------
def test_nullmodels_replica_fanout_matches_serial():
    pytest.importorskip("numpy", reason="null-model shuffles are numpy-seeded")
    from repro.experiments import nullmodels

    serial = nullmodels.run(scale=0.05, n_null=2)
    parallel = nullmodels.run(scale=0.05, n_null=2, jobs=2)
    assert parallel.data == serial.data
