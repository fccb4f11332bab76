"""Tests for the counting APIs and the one-pass census."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.counting import (
    count_event_pairs,
    count_motifs,
    merge_counters,
    run_census,
)
from repro.algorithms.enumeration import enumerate_instances
from repro.algorithms.restrictions import satisfies_cdg, satisfies_consecutive_events
from repro.core.constraints import TimingConstraints
from repro.core.eventpairs import PairType, classify_pair
from repro.core.notation import canonical_code
from repro.core.temporal_graph import TemporalGraph


class TestCountMotifs:
    def test_triangle(self, triangle_graph, loose):
        counts = count_motifs(triangle_graph, 3, loose)
        assert counts == Counter({"011202": 1})

    def test_node_counts_filter(self, conversation_graph, loose):
        all_counts = count_motifs(conversation_graph, 2, loose)
        two_node = count_motifs(conversation_graph, 2, loose, node_counts={2})
        assert sum(two_node.values()) < sum(all_counts.values())
        assert all(len(set(code)) == 2 for code in two_node)

    def test_predicate_reduces_counts(self, conversation_graph, loose):
        vanilla = count_motifs(conversation_graph, 3, loose, max_nodes=3)
        restricted = count_motifs(
            conversation_graph,
            3,
            loose,
            max_nodes=3,
            predicate=lambda g, i: i[0] == 0,
        )
        assert sum(restricted.values()) <= sum(vanilla.values())

    def test_repetition_code(self):
        g = TemporalGraph.from_tuples([(5, 9, 0), (5, 9, 3), (5, 9, 7)])
        counts = count_motifs(g, 3, TimingConstraints.only_c(10))
        assert counts == Counter({"010101": 1})


class TestQuarterScaleWorkloads:
    """The census workloads on the message networks at scale 0.25."""

    constraints = TimingConstraints(delta_c=1500, delta_w=3000)

    def test_censuses_find_motifs_and_restrictions_subset_them(self, quarter_sms):
        vanilla = count_motifs(quarter_sms, 3, self.constraints, max_nodes=3)
        assert sum(vanilla.values()) > 0
        assert sum(count_motifs(quarter_sms, 4, self.constraints, max_nodes=4).values()) > 0
        for predicate in (satisfies_consecutive_events, satisfies_cdg):
            restricted = count_motifs(
                quarter_sms, 3, self.constraints, max_nodes=3, predicate=predicate
            )
            assert all(n <= vanilla[code] for code, n in restricted.items())

    def test_delta_w_at_twice_delta_c_is_only_delta_c(self, quarter_sms):
        # Three events 1500 s apart at most span 3000 s = ΔW: no extra cut.
        only_c = TimingConstraints.only_c(1500)
        assert count_motifs(quarter_sms, 3, only_c, max_nodes=3) == count_motifs(
            quarter_sms, 3, self.constraints, max_nodes=3
        )


class TestCountEventPairs:
    def test_triangle_pairs(self, triangle_graph, loose):
        pairs = count_event_pairs(triangle_graph, 3, loose)
        assert pairs == Counter({PairType.CONVEY: 1, PairType.IN_BURST: 1})

    def test_pair_total_is_instances_times_m_minus_1(self, small_sms):
        constraints = TimingConstraints(delta_c=300, delta_w=600)
        pairs = count_event_pairs(small_sms, 3, constraints, max_nodes=3)
        instances = run_census(small_sms, 3, constraints, max_nodes=3).total
        assert sum(pairs.values()) == 2 * instances


class TestCensus:
    def test_census_matches_individual_counters(self, small_sms):
        constraints = TimingConstraints(delta_c=300, delta_w=600)
        census = run_census(small_sms, 3, constraints, max_nodes=3)
        assert census.code_counts == count_motifs(
            small_sms, 3, constraints, max_nodes=3
        )
        assert census.pair_counts == count_event_pairs(
            small_sms, 3, constraints, max_nodes=3
        )
        assert census.total == sum(census.code_counts.values())

    def test_pair_sequences_sum_to_total(self, small_sms):
        constraints = TimingConstraints(delta_c=300, delta_w=600)
        census = run_census(small_sms, 3, constraints, max_nodes=3)
        assert sum(census.pair_sequence_counts.values()) == census.total

    def test_sequences_consistent_with_codes(self, triangle_graph, loose):
        census = run_census(triangle_graph, 3, loose)
        assert census.pair_sequence_counts == Counter(
            {(PairType.CONVEY, PairType.IN_BURST): 1}
        )

    def test_timespan_collection(self, triangle_graph, loose):
        census = run_census(
            triangle_graph, 3, loose, collect_timespans=True
        )
        assert census.timespans["011202"] == [15]

    def test_timespan_code_filter(self, conversation_graph, loose):
        census = run_census(
            conversation_graph,
            3,
            loose,
            max_nodes=3,
            collect_timespans=True,
            timespan_codes=["010102"],
        )
        assert set(census.timespans) <= {"010102"}

    def test_position_collection(self, triangle_graph, loose):
        census = run_census(
            triangle_graph, 3, loose, collect_positions=True
        )
        positions = census.intermediate_positions["011202"]
        # second event at t=20 of window [10, 25] -> (20-10)/15
        assert positions == [(1, (20 - 10) / 15)]

    def test_sample_cap_respected(self, small_sms):
        constraints = TimingConstraints(delta_c=300, delta_w=600)
        census = run_census(
            small_sms,
            3,
            constraints,
            max_nodes=3,
            collect_timespans=True,
            sample_cap=5,
        )
        assert all(len(v) <= 5 for v in census.timespans.values())

    def test_codes_with_nodes(self, small_sms):
        constraints = TimingConstraints(delta_c=300, delta_w=600)
        census = run_census(small_sms, 3, constraints, max_nodes=3)
        three = census.codes_with_nodes(3)
        two = census.codes_with_nodes(2)
        assert sum(three.values()) + sum(two.values()) == census.total

    def test_proportions_sum_to_one(self, small_sms):
        constraints = TimingConstraints(delta_c=300, delta_w=600)
        census = run_census(small_sms, 3, constraints, max_nodes=3)
        props = census.proportions()
        assert abs(sum(props.values()) - 1.0) < 1e-9

    def test_empty_census(self, loose):
        census = run_census(TemporalGraph([]), 3, loose)
        assert census.total == 0
        assert census.proportions() == {}
        assert census.pair_group_counts() == {
            "RPIO": 0,
            "CW": 0,
            "mixed": 0,
            "disjoint": 0,
        }


class TestPairGroups:
    def test_pure_rpio_motif(self):
        g = TemporalGraph.from_tuples([(0, 1, 0), (0, 1, 3), (0, 2, 6)])
        census = run_census(g, 3, TimingConstraints.only_c(10))
        assert census.pair_group_counts()["RPIO"] == 1

    def test_pure_cw_motif(self):
        g = TemporalGraph.from_tuples([(0, 1, 0), (1, 2, 3), (2, 0, 6)])
        census = run_census(g, 3, TimingConstraints.only_c(10))
        assert census.pair_group_counts()["CW"] == 1

    def test_mixed_motif(self):
        g = TemporalGraph.from_tuples([(0, 1, 0), (0, 1, 3), (1, 2, 6)])
        census = run_census(g, 3, TimingConstraints.only_c(10))
        groups = census.pair_group_counts()
        assert groups["mixed"] == 1
        assert groups["RPIO"] == 0
        assert groups["CW"] == 0

    def test_groups_sum_to_total(self, small_sms):
        constraints = TimingConstraints(delta_c=300, delta_w=600)
        census = run_census(small_sms, 3, constraints, max_nodes=3)
        assert sum(census.pair_group_counts().values()) == census.total


class TestHelpers:
    def test_total_instances(self, triangle_graph, loose):
        assert run_census(triangle_graph, 3, loose).total == 1

    def test_merge_counters(self):
        merged = merge_counters([Counter({"a": 1}), Counter({"a": 2, "b": 3})])
        assert merged == Counter({"a": 3, "b": 3})


# ----------------------------------------------------------------------
# key order: projections and derived pair counters vs a per-instance fold
# ----------------------------------------------------------------------
def _reference_fold(graph, n_events, constraints, max_nodes):
    """The census counters as a per-instance ``classify_pair`` fold."""
    codes, pairs, sequences = Counter(), Counter(), Counter()
    for inst in enumerate_instances(graph, n_events, constraints, max_nodes=max_nodes, jobs=1):
        edges = [graph.events[i].edge for i in inst]
        codes[canonical_code(edges)] += 1
        sequence = tuple(classify_pair(a, b) for a, b in zip(edges, edges[1:]))
        for ptype in sequence:
            pairs[ptype] += 1
        sequences[sequence] += 1
    return codes, pairs, sequences


def _tie_heavy(steps):
    t = 0.0
    events = []
    for u, v, dt in steps:
        t += dt
        events.append((u, v, t))
    return events


tie_heavy_streams = st.lists(
    st.tuples(
        st.integers(0, 4),
        st.integers(0, 4),
        st.sampled_from([0.0, 0.0, 0.0, 1.0, 2.0]),
    ).filter(lambda e: e[0] != e[1]),
    min_size=1,
    max_size=24,
).map(_tie_heavy)


@settings(max_examples=40, deadline=None)
@given(
    events=tie_heavy_streams,
    n_events=st.integers(1, 4),
    max_nodes=st.sampled_from([None, 3]),
    jobs=st.sampled_from([1, 2]),
    node_counts=st.sampled_from([None, {2}, {3}]),
)
def test_projections_and_pair_counters_keep_key_order(
    events, n_events, max_nodes, jobs, node_counts
):
    """Counts, pairs and sequences come off the code counter in serial order.

    Runs on every registered backend through the session fixture; same-
    timestamp ticks and repeated edges are the corners where first-
    appearance order is easiest to get wrong.
    """
    graph = TemporalGraph.from_tuples(events)
    constraints = TimingConstraints(delta_c=2.0, delta_w=4.0)
    kwargs = dict(max_nodes=max_nodes, jobs=jobs)
    census = run_census(graph, n_events, constraints, **kwargs)
    codes = list(census.code_counts.items())
    expected = [(c, n) for c, n in codes if node_counts is None or len(set(c)) in node_counts]
    counts = count_motifs(graph, n_events, constraints, node_counts=node_counts, **kwargs)
    assert list(counts.items()) == expected
    pairs = count_event_pairs(graph, n_events, constraints, **kwargs)
    assert list(pairs.items()) == list(census.pair_counts.items())
    ref_codes, ref_pairs, ref_sequences = _reference_fold(graph, n_events, constraints, max_nodes)
    assert codes == list(ref_codes.items())
    assert list(census.pair_counts.items()) == list(ref_pairs.items())
    assert list(census.pair_sequence_counts.items()) == list(ref_sequences.items())
    assert census.total == sum(ref_codes.values())
    if n_events == 1:
        assert census.pair_sequence_counts == {(): census.total}
