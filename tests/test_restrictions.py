"""Tests for the temporal-inducedness restriction predicates."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.restrictions import (
    combine,
    is_static_induced,
    satisfies_cdg,
    satisfies_consecutive_events,
)
from repro.core.events import Event, validate_events
from repro.core.temporal_graph import TemporalGraph
from repro.storage import available_backends

requires_numpy = pytest.mark.skipif(
    "numpy" not in available_backends(), reason="the numpy storage backend is not registered"
)


class TestConsecutiveEvents:
    def test_uninterrupted_motif_passes(self, triangle_graph):
        assert satisfies_consecutive_events(triangle_graph, (0, 1, 2))

    def test_paper_section_41_example(self):
        """Motif (u,v,5), (v,w,8), (u,v,12): no event may touch u or v inside
        [5, 12]."""
        base = [(0, 1, 5), (1, 2, 8), (0, 1, 12)]
        clean = TemporalGraph.from_tuples(base)
        assert satisfies_consecutive_events(clean, (0, 1, 2))

        # an event touching u=0 inside the window breaks it
        dirty = TemporalGraph.from_tuples(base + [(0, 3, 9)])
        motif = tuple(
            i for i, ev in enumerate(dirty.events) if ev.edge != (0, 3)
        )
        assert not satisfies_consecutive_events(dirty, motif)

    def test_interruption_of_any_member_breaks(self, conversation_graph):
        # motif (0→1@10, 1→0@20, 0→1@30): node 0 touches 0→2@25 inside.
        assert not satisfies_consecutive_events(conversation_graph, (0, 1, 3))

    def test_interruption_outside_window_is_fine(self, conversation_graph):
        # motif (0→1@30, 1→0@40): the 0→2@25 event is before the window.
        assert satisfies_consecutive_events(conversation_graph, (3, 4))

    def test_boundary_event_counts_as_interruption(self):
        g = TemporalGraph.from_tuples([(0, 1, 5), (0, 2, 5), (1, 0, 9)])
        # motif (0→1@5, 1→0@9): node 0 also touches (0,2) at exactly t=5.
        motif = tuple(i for i, ev in enumerate(g.events) if ev.edge != (0, 2))
        assert not satisfies_consecutive_events(g, motif)

    def test_single_event_always_passes(self, star_graph):
        assert satisfies_consecutive_events(star_graph, (1,))

    def test_star_burst_filtered(self, star_graph):
        # hub's events at 10,12,14,16: motif of events 0 and 2 skips event 1.
        assert not satisfies_consecutive_events(star_graph, (0, 2))
        assert satisfies_consecutive_events(star_graph, (0, 1))


class TestCDG:
    def test_repetitions_exempt(self, conversation_graph):
        # consecutive motif events on the same edge never violate CDG.
        g = TemporalGraph.from_tuples([(0, 1, 0), (0, 1, 5), (0, 1, 9)])
        assert satisfies_cdg(g, (0, 1, 2))

    def test_stale_edge_breaks(self, repeated_edge_graph):
        # motif (0→1@0, 2→3@15): edge (2,3) already fired at t=5 in between.
        assert not satisfies_cdg(repeated_edge_graph, (0, 3))

    def test_fresh_edge_passes(self, repeated_edge_graph):
        # motif (0→1@0, 2→3@5): first occurrence of (2,3) since t=0.
        assert satisfies_cdg(repeated_edge_graph, (0, 1))

    def test_paper_formal_statement(self):
        """Events (u1,v1,t1), (u2,v2,t2) consecutive with different edges:
        no (u2,v2,t') may exist with t1 <= t' <= t2."""
        g = TemporalGraph.from_tuples(
            [(0, 1, 10), (1, 2, 12), (1, 2, 20), (0, 2, 25)]
        )
        # motif (0→1@10, 1→2@20): (1,2) occurred at 12 in between -> stale.
        assert not satisfies_cdg(g, (0, 2))
        # motif (0→1@10, 1→2@12): fresh.
        assert satisfies_cdg(g, (0, 1))

    def test_boundary_occurrence_at_t1_counts(self):
        g = TemporalGraph.from_tuples([(1, 2, 10), (0, 1, 10), (1, 2, 15)])
        # motif (0→1@10, 1→2@15): edge (1,2) also fired at exactly t=10.
        motif = (
            [i for i, ev in enumerate(g.events) if ev.edge == (0, 1)][0],
            [i for i, ev in enumerate(g.events) if ev.t == 15][0],
        )
        assert not satisfies_cdg(g, motif)

    def test_single_event_passes(self, star_graph):
        assert satisfies_cdg(star_graph, (2,))


class TestStaticInducedness:
    def test_triangle_covering_all_edges(self, triangle_graph):
        assert is_static_induced(triangle_graph, (0, 1, 2))
        assert is_static_induced(triangle_graph, (0, 1, 2), scope="global")

    def test_missing_diagonal_breaks_global(self):
        """The paper's square example: a diagonal among the motif's nodes."""
        g = TemporalGraph.from_tuples(
            [(0, 1, 0), (1, 2, 5), (2, 3, 10), (0, 3, 15), (0, 2, 100)]
        )
        square = (0, 1, 2, 3)
        # diagonal (0,2) exists in the static projection -> global fails...
        assert not is_static_induced(g, square, scope="global")
        # ...but it is outside the window [0, 15], so window scope passes.
        assert is_static_induced(g, square, scope="window")

    def test_skipped_event_on_covered_edge_ok(self):
        """Hulovatyy's Section 4.1 example: (a,b,2),(b,c,4),(c,a,5),(c,a,6) —
        the triangle of events 1, 2, 4 is valid (3rd event's edge is used)."""
        g = TemporalGraph.from_tuples(
            [(0, 1, 2), (1, 2, 4), (2, 0, 5), (2, 0, 6)]
        )
        assert is_static_induced(g, (0, 1, 3), scope="window")
        assert is_static_induced(g, (0, 1, 3), scope="global")

    def test_skipped_event_on_uncovered_edge_breaks(self):
        g = TemporalGraph.from_tuples(
            [(0, 1, 2), (1, 2, 4), (1, 0, 5), (2, 0, 6)]
        )
        # motif of events (0,1,3) skips (1,0,5) whose edge is NOT in the motif.
        assert not is_static_induced(g, (0, 1, 3), scope="window")

    def test_direction_matters(self):
        g = TemporalGraph.from_tuples([(0, 1, 0), (1, 0, 5), (0, 1, 9)])
        # motif (0→1@0, 0→1@9) skips the reversed edge (1,0) inside window.
        assert not is_static_induced(g, (0, 2), scope="window")

    def test_unknown_scope_raises(self, triangle_graph):
        with pytest.raises(ValueError):
            is_static_induced(triangle_graph, (0, 1, 2), scope="bogus")


class TestCombine:
    def test_combined_predicate(self, triangle_graph):
        both = combine(satisfies_consecutive_events, satisfies_cdg)
        assert both(triangle_graph, (0, 1, 2))

    def test_combined_fails_when_any_fails(self, star_graph):
        both = combine(satisfies_cdg, satisfies_consecutive_events)
        assert not both(star_graph, (0, 2))  # consecutive restriction broken

    def test_row_form_only_when_every_component_has_one(self):
        assert combine(satisfies_consecutive_events, satisfies_cdg).rows is not None
        assert not hasattr(combine(satisfies_cdg, is_static_induced), "rows")
        assert not hasattr(is_static_induced, "rows")

    @pytest.mark.parametrize(
        "components",
        [(satisfies_consecutive_events, satisfies_cdg), (satisfies_cdg, is_static_induced)],
        ids=["row-form", "scalar"],
    )
    def test_pickle_round_trip_keeps_flags_mask_and_verdicts(self, components):
        import pickle

        from repro.algorithms.enumeration import enumerate_instances
        from repro.core.constraints import TimingConstraints

        both = combine(*components)
        copy = pickle.loads(pickle.dumps(both))
        assert copy.shard_safe == both.shard_safe
        assert copy.tick_boundary_sensitive is both.tick_boundary_sensitive is True
        assert hasattr(copy, "rows") == hasattr(both, "rows")
        events = [(0, 1, 0.0), (1, 2, 1.0), (0, 2, 1.0), (2, 0, 2.0), (1, 0, 2.5)]
        events += [(0, 1, 3.0), (2, 1, 3.0), (1, 2, 4.0), (0, 2, 5.0), (2, 0, 5.5)]
        graph = TemporalGraph.from_tuples(events)
        constraints = TimingConstraints(delta_c=3.0, delta_w=5.0)
        instances = list(enumerate_instances(graph, 3, constraints))
        verdicts = [both(graph, inst) for inst in instances]
        assert True in verdicts and False in verdicts
        assert [copy(graph, inst) for inst in instances] == verdicts
        if hasattr(both, "rows"):
            np = pytest.importorskip("numpy")
            rows = np.array(instances, dtype=np.int64)
            assert copy.rows(graph, rows).tolist() == verdicts
            assert both.rows(graph, rows).tolist() == verdicts


# ----------------------------------------------------------------------
# row forms: one bool mask per instance block, equal to the scalar form
# ----------------------------------------------------------------------
#: Node-id relabelings: the row forms must not assume small,
#: non-negative ids.
NODE_IDS = {
    "small": lambda n: n,
    "negative": lambda n: -7 - 3 * n,
    "above 2**40": lambda n: 2**40 + 13 * n,
}

ROW_PREDICATES = {
    "consecutive events": satisfies_consecutive_events,
    "cdg": satisfies_cdg,
    "both": combine(satisfies_consecutive_events, satisfies_cdg),
}


def _tie_heavy_events(steps, relabel):
    """Sorted events from ``(u, v, dt)`` steps: ties, repeats, loops."""
    t = 0.0
    events = []
    for u, v, dt in steps:
        t += dt
        events.append(Event(relabel(u), relabel(v), t))
    return validate_events(events, allow_loops=True)


#: Few nodes and a small alphabet of gaps, so repeated edges, reciprocal
#: edges, self-loops and same-timestamp runs are all common.
tie_heavy_steps = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.integers(0, 3),
        st.sampled_from([0.0, 0.0, 0.0, 1.0, 2.5]),
    ),
    min_size=1,
    max_size=24,
)


def _numpy_graph(events) -> TemporalGraph:
    from repro.storage.numpy_backend import NumpyStorage

    return TemporalGraph._from_storage(NumpyStorage(events, presorted=True))


@requires_numpy
class TestRowForms:
    @settings(max_examples=60, deadline=None)
    @given(
        tie_heavy_steps,
        st.sampled_from(sorted(NODE_IDS)),
        st.integers(2, 5),
        st.data(),
    )
    def test_mask_equals_scalar_predicate_row_by_row(self, steps, ids, k, data):
        import numpy as np

        graph = _numpy_graph(_tie_heavy_events(steps, NODE_IDS[ids]))
        m = len(graph)
        index = st.integers(0, m - 1)
        chronological = st.lists(index, min_size=k, max_size=k).map(sorted)
        # Any index rows at all: the contract is exact equality, so
        # repeated and out-of-order indices must agree too.
        arbitrary = st.lists(index, min_size=k, max_size=k)
        rows = data.draw(st.lists(chronological | arbitrary, max_size=40))
        block = np.array(rows, dtype=np.int64).reshape(len(rows), k)
        for predicate in ROW_PREDICATES.values():
            mask = predicate.rows(graph, block)
            assert mask.dtype == bool and mask.shape == (len(rows),)
            assert mask.tolist() == [predicate(graph, tuple(r)) for r in rows]

    @pytest.mark.parametrize("name", sorted(ROW_PREDICATES))
    def test_storages_without_columns_take_the_scalar_rows(self, name):
        import numpy as np

        predicate = ROW_PREDICATES[name]
        events = [(0, 1, 0.0), (1, 2, 1.0), (0, 1, 1.0), (2, 0, 2.0), (1, 2, 3.0)]
        rows = np.array([[0, 1, 3], [0, 2, 3], [1, 3, 4], [0, 1, 4]], dtype=np.int64)
        flat = TemporalGraph(events, backend="numpy")
        expected = [predicate(flat, tuple(r)) for r in rows.tolist()]
        assert predicate.rows(flat, rows).tolist() == expected
        assert predicate.rows(TemporalGraph(events, backend="list"), rows).tolist() == expected
        # Tail appends pending: the columns are not current.
        tailed = TemporalGraph(events[:2], backend="numpy")
        tailed.storage.extension_arrays()
        for ev in events[2:]:
            tailed.append(ev)
        assert tailed.storage.extension_arrays() is None
        assert predicate.rows(tailed, rows).tolist() == [
            predicate(tailed, tuple(r)) for r in rows.tolist()
        ]
        assert predicate.rows(flat, rows[:0]).tolist() == []

    def test_edge_adjacent_times(self):
        graph = TemporalGraph(
            [(0, 1, 1.0), (1, 2, 1.0), (0, 1, 2.0), (0, 1, 2.0), (2, 1, 3.0)],
            backend="numpy",
        )
        prev_t, next_t = graph.storage.edge_adjacent_times()
        inf = float("inf")
        assert prev_t.tolist() == [-inf, -inf, 1.0, 2.0, -inf]
        assert next_t.tolist() == [2.0, inf, 2.0, inf, inf]


@requires_numpy
def test_combined_census_takes_the_batched_lane(monkeypatch):
    import repro.algorithms.counting as counting
    from repro.algorithms.counting import run_census
    from repro.core.constraints import TimingConstraints

    events = [(0, 1, 0.0), (1, 2, 1.0), (0, 2, 1.0), (2, 0, 2.0), (1, 0, 2.5)]
    events += [(0, 1, 3.0), (2, 1, 3.0), (1, 2, 4.0), (0, 2, 5.0), (2, 0, 5.5)]
    constraints = TimingConstraints(delta_c=3.0, delta_w=5.0)
    both = combine(satisfies_consecutive_events, satisfies_cdg)
    scalar = run_census(
        TemporalGraph(events, backend="list"), 3, constraints, predicate=both
    )

    def tuple_path(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("the predicated census left the batched fold")

    monkeypatch.setattr(counting, "enumerate_instances", tuple_path)
    batched = run_census(
        TemporalGraph(events, backend="numpy"), 3, constraints, predicate=both
    )
    assert scalar.total > 0
    assert list(batched.code_counts.items()) == list(scalar.code_counts.items())
    assert batched.total == scalar.total
