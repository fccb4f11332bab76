"""The engine's two-node counts against an independent counter (``fast2node.py``)."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.counting import count_motifs
from repro.core.constraints import TimingConstraints
from repro.core.temporal_graph import TemporalGraph

from fast2node import count_two_node_motifs, two_node_codes


def oracle(graph: TemporalGraph, n_events: int, delta_w: float) -> Counter:
    """Two-node counts via the generic enumeration engine."""
    return Counter(
        count_motifs(
            graph,
            n_events,
            TimingConstraints.only_w(delta_w),
            max_nodes=2,
            node_counts={2},
        )
    )


class TestBasics:
    def test_repetition_chain(self):
        g = TemporalGraph.from_tuples([(0, 1, 0), (0, 1, 3), (0, 1, 7)])
        counts = count_two_node_motifs(g, 3, delta_w=10)
        assert counts == Counter({"010101": 1})

    def test_window_prunes(self):
        g = TemporalGraph.from_tuples([(0, 1, 0), (0, 1, 3), (0, 1, 7)])
        assert count_two_node_motifs(g, 3, delta_w=6) == Counter()
        assert count_two_node_motifs(g, 2, delta_w=4)["0101"] == 2

    def test_direction_normalization(self):
        """The first event's source becomes node 0 regardless of the
        lo/hi orientation of the pair."""
        g = TemporalGraph.from_tuples([(5, 2, 0), (2, 5, 3)])  # hi→lo then lo→hi
        assert count_two_node_motifs(g, 2, delta_w=10) == Counter({"0110": 1})

    def test_equal_timestamps_never_pair(self):
        g = TemporalGraph.from_tuples([(0, 1, 5), (1, 0, 5)])
        assert count_two_node_motifs(g, 2, delta_w=10) == Counter()

    def test_pairs_filter(self):
        g = TemporalGraph.from_tuples(
            [(0, 1, 0), (0, 1, 2), (4, 5, 0), (4, 5, 2)]
        )
        only = count_two_node_motifs(g, 2, delta_w=10, pairs=[(1, 0)])
        assert only == Counter({"0101": 1})

    def test_rejects_bad_parameters(self, triangle_graph):
        with pytest.raises(ValueError):
            count_two_node_motifs(triangle_graph, 1, delta_w=10)
        with pytest.raises(ValueError):
            count_two_node_motifs(triangle_graph, 3, delta_w=0)

    def test_code_universe(self):
        assert two_node_codes(2) == ("0101", "0110")
        assert len(two_node_codes(3)) == 4
        assert len(two_node_codes(4)) == 8
        from repro.core.notation import motif_codes_with_nodes
        assert set(two_node_codes(3)) == set(motif_codes_with_nodes(3, 2))
        assert set(two_node_codes(4)) == set(motif_codes_with_nodes(4, 2))


class TestAgainstEngine:
    @pytest.mark.parametrize(
        "dataset, n_events, delta_w",
        [pytest.param("small_sms", n, 900.0, id=str(n)) for n in (2, 3, 4)]
        + [pytest.param("quarter_sms", 3, 3000.0, id="quarter-scale-3")],
    )
    def test_dataset_agreement(self, request, dataset, n_events, delta_w):
        graph = request.getfixturevalue(dataset)
        fast = count_two_node_motifs(graph, n_events, delta_w)
        assert fast == oracle(graph, n_events, delta_w)

    def test_dense_single_pair(self):
        g = TemporalGraph.from_tuples(
            [(0, 1, t) if t % 3 else (1, 0, t) for t in range(1, 40)]
        )
        for k in (2, 3, 4):
            assert count_two_node_motifs(g, k, 10.0) == oracle(g, k, 10.0)


# hypothesis strategy: dense streams on one pair plus noise on another
pair_streams = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 30)),
    min_size=1,
    max_size=16,
)


@given(pair_streams, st.integers(2, 16))
@settings(max_examples=60, deadline=None)
def test_property_agreement_with_engine(stream, delta_w):
    events = [((0, 1) if d == 0 else (1, 0)) + (float(t),) for d, t in stream]
    graph = TemporalGraph.from_tuples(events)
    for k in (2, 3):
        fast = count_two_node_motifs(graph, k, float(delta_w))
        assert fast == oracle(graph, k, float(delta_w))
