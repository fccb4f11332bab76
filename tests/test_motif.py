"""Tests for the pattern-level Motif class and node orbits."""

import pytest

from repro.core.constraints import TimingConstraints
from repro.core.eventpairs import PairType
from repro.core.motif import (
    Motif,
    all_orbit_features,
    instance_orbits,
    node_motif_profiles,
    profile_vector,
)
from repro.core.temporal_graph import TemporalGraph


class TestMotifBasics:
    def test_valid_construction(self):
        m = Motif("010210")
        assert m.n_events == 3
        assert m.n_nodes == 3
        assert m.events == [(0, 1), (0, 2), (1, 0)]
        assert m.edges == {(0, 1), (0, 2), (1, 0)}

    def test_rejects_invalid_codes(self):
        for bad in ("0212", "abc", "0123", ""):
            with pytest.raises(ValueError):
                Motif(bad)

    def test_equality_and_hash(self):
        assert Motif("0101") == Motif("0101")
        assert Motif("0101") != Motif("0110")
        assert len({Motif("0101"), Motif("0101"), Motif("0110")}) == 2

    def test_pair_sequence(self):
        # 0→1, 0→2, 1→0: out-burst, then the reply's target is the second
        # event's source — weakly-connected.
        assert Motif("010210").pair_sequence == (
            PairType.OUT_BURST,
            PairType.WEAKLY_CONNECTED,
        )
        assert Motif("010102").pair_sequence == (
            PairType.REPETITION,
            PairType.OUT_BURST,
        )

    def test_conversation_detection(self):
        assert Motif("010110").is_two_node_conversation()
        assert not Motif("010210").is_two_node_conversation()

    def test_transfer_chain_detection(self):
        assert Motif("011220").is_transfer_chain()
        assert not Motif("010102").is_transfer_chain()

    def test_reciprocated_ask_reply(self):
        """All four Table-3 amplified motifs end by reversing the first
        event."""
        for code in ("010210", "011210", "012010", "012110"):
            assert Motif(code).reciprocated(), code
        assert not Motif("010102").reciprocated()


class TestMatchingAndCounting:
    def test_matches(self, triangle_graph):
        assert Motif("011202").matches(triangle_graph, (0, 1, 2))
        assert not Motif("010102").matches(triangle_graph, (0, 1, 2))

    def test_instances_and_count(self, triangle_graph, loose):
        assert list(Motif("011202").instances(triangle_graph, loose)) == [(0, 1, 2)]
        assert Motif("011202").count(triangle_graph, loose) == 1
        assert Motif("011220").count(triangle_graph, loose) == 0

    def test_count_agrees_with_census(self, small_sms):
        from repro.algorithms.counting import count_motifs

        constraints = TimingConstraints(delta_c=300, delta_w=600)
        counts = count_motifs(small_sms, 3, constraints, max_nodes=3)
        for code in ("010101", "010110"):
            assert Motif(code).count(small_sms, constraints) == counts.get(code, 0)


class TestOrbits:
    def test_instance_orbits_by_appearance(self, triangle_graph):
        orbits = instance_orbits(triangle_graph, (0, 1, 2))
        assert orbits == {0: 0, 1: 1, 2: 2}

    def test_orbits_match_code_digits(self):
        g = TemporalGraph.from_tuples([(7, 3, 1), (9, 3, 2)])  # in-burst
        orbits = instance_orbits(g, (0, 1))
        assert orbits == {7: 0, 3: 1, 9: 2}

    def test_node_profiles_total_mass(self, triangle_graph, loose):
        profiles = node_motif_profiles(triangle_graph, 3, loose)
        # one instance, three nodes, one (code, orbit) entry each
        assert set(profiles) == {0, 1, 2}
        assert profiles[0][("011202", 0)] == 1
        assert profiles[2][("011202", 2)] == 1

    def test_profiles_consistent_with_counts(self, small_sms):
        """Summing orbit-0 participation over nodes equals total instances."""
        from repro.algorithms.counting import run_census

        constraints = TimingConstraints(delta_c=300, delta_w=600)
        profiles = node_motif_profiles(small_sms, 3, constraints, max_nodes=3)
        orbit0 = sum(
            n
            for profile in profiles.values()
            for (code, orbit), n in profile.items()
            if orbit == 0
        )
        assert orbit0 == run_census(small_sms, 3, constraints, max_nodes=3).total

    def test_profile_vector_projection(self):
        profile = {("0101", 0): 3, ("0101", 1): 1}
        index = [("0101", 0), ("0101", 1), ("0110", 0)]
        assert profile_vector(profile, index) == [3, 1, 0]

    def test_all_orbit_features_size(self):
        features = all_orbit_features(2, 3)
        # six 2-event codes; 2 orbits for the 2-node ones (0101, 0110),
        # 3 orbits for the four 3-node ones.
        assert len(features) == 2 * 2 + 4 * 3
