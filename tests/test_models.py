"""Tests for the four motif models and the Table-1 aspect matrix."""

import pytest

from repro.algorithms.counting import count_motifs
from repro.algorithms.restrictions import satisfies_consecutive_events
from repro.core.temporal_graph import TemporalGraph
from repro.models import (
    ALL_MODELS,
    HulovatyyModel,
    KovanenModel,
    ParanjapeModel,
    SongModel,
)
from repro.models.aspects import ASPECT_ROWS, aspect_matrix, aspect_table
from repro.algorithms.pattern import EventPattern, PatternEvent


@pytest.fixture
def clean_triangle() -> TemporalGraph:
    """A tight, induced, uninterrupted triangle — valid under all models."""
    return TemporalGraph.from_tuples([(0, 1, 10), (1, 2, 12), (0, 2, 14)])


class TestKovanen:
    def test_valid_on_clean_triangle(self, clean_triangle):
        assert KovanenModel(5).is_valid_instance(clean_triangle, (0, 1, 2))

    def test_delta_c_violation(self, clean_triangle):
        assert not KovanenModel(1).is_valid_instance(clean_triangle, (0, 1, 2))

    def test_consecutive_restriction(self):
        g = TemporalGraph.from_tuples(
            [(0, 1, 10), (0, 3, 11), (1, 2, 12), (0, 2, 14)]
        )
        motif = (0, 2, 3)  # skips the (0,3) event, which touches node 0
        assert not KovanenModel(5).is_valid_instance(g, motif)
        assert KovanenModel(5, enforce_consecutive=False).is_valid_instance(
            g, motif
        )

    def test_allows_equal_timestamps(self):
        """Kovanen supports partial ordering: ties are tolerated."""
        g = TemporalGraph.from_tuples([(0, 1, 10), (1, 2, 10)])
        assert KovanenModel(5).is_valid_instance(g, (0, 1))

    def test_non_induced_allowed(self):
        """A skipped diagonal among motif nodes is fine for Kovanen."""
        g = TemporalGraph.from_tuples([(0, 1, 0), (1, 2, 2), (0, 2, 50)])
        # motif of just the first two events; edge (0,2) exists later but
        # outside any engagement window.
        assert KovanenModel(5).is_valid_instance(g, (0, 1))

    def test_rejects_disconnected(self):
        g = TemporalGraph.from_tuples([(0, 1, 0), (2, 3, 2)])
        assert not KovanenModel(5).is_valid_instance(g, (0, 1))

    def test_count_smoke(self, clean_triangle):
        counts = KovanenModel(5).count(clean_triangle, 3)
        assert counts["011202"] == 1


class TestSong:
    def test_valid_within_window(self, clean_triangle):
        assert SongModel(10).is_valid_instance(clean_triangle, (0, 1, 2))

    def test_window_violation(self, clean_triangle):
        assert not SongModel(3).is_valid_instance(clean_triangle, (0, 1, 2))

    def test_no_inducedness_requirement(self):
        g = TemporalGraph.from_tuples([(0, 1, 0), (0, 2, 2), (1, 2, 3), (0, 2, 4)])
        # motif skipping the (0,2) events is fine for Song.
        assert SongModel(10).is_valid_instance(g, (0, 2))

    def test_pattern_constraint(self, clean_triangle):
        chain = EventPattern(
            events=[PatternEvent("A", "B"), PatternEvent("B", "C"),
                    PatternEvent("A", "C")],
            order=[(0, 1), (1, 2)],
        )
        model = SongModel(10, pattern=chain)
        assert model.is_valid_instance(clean_triangle, (0, 1, 2))

    def test_pattern_mismatch(self, clean_triangle):
        wrong = EventPattern(
            events=[PatternEvent("A", "B"), PatternEvent("A", "B"),
                    PatternEvent("A", "B")],
        )
        model = SongModel(10, pattern=wrong)
        assert not model.is_valid_instance(clean_triangle, (0, 1, 2))


class TestHulovatyy:
    def test_valid_on_clean_triangle(self, clean_triangle):
        assert HulovatyyModel(5).is_valid_instance(clean_triangle, (0, 1, 2))

    def test_requires_total_order(self):
        g = TemporalGraph.from_tuples([(0, 1, 10), (1, 2, 10)])
        assert not HulovatyyModel(5).is_valid_instance(g, (0, 1))

    def test_inducedness_required(self):
        g = TemporalGraph.from_tuples(
            [(0, 1, 10), (1, 2, 12), (2, 1, 13), (0, 2, 14)]
        )
        # skipping (2,1) leaves its edge uncovered -> not induced.
        motif = (0, 1, 3)
        assert not HulovatyyModel(5).is_valid_instance(g, motif)

    def test_no_consecutive_restriction(self):
        """Hulovatyy dropped Kovanen's node-engagement rule."""
        g = TemporalGraph.from_tuples(
            [(0, 1, 10), (0, 3, 11), (1, 2, 12), (0, 2, 14)]
        )
        motif = (0, 2, 3)
        assert HulovatyyModel(5).is_valid_instance(g, motif)
        assert not KovanenModel(5).is_valid_instance(g, motif)

    def test_constrained_variant(self):
        g = TemporalGraph.from_tuples(
            [(0, 1, 10), (1, 2, 11), (1, 2, 13), (0, 2, 14)]
        )
        # motif (0→1@10, 1→2@13, ...): edge (1,2) fired at 11 in between.
        motif = (0, 2, 3)
        assert HulovatyyModel(5).is_valid_instance(g, motif)
        assert not HulovatyyModel(5, constrained=True).is_valid_instance(g, motif)

    def test_durations_shift_adjacency(self):
        g = TemporalGraph.from_tuples([(0, 1, 0), (1, 2, 10)])
        # gap is 10; with a 6-second duration on the first event the
        # end-to-start gap is 4.
        assert not HulovatyyModel(5).is_valid_instance(g, (0, 1))
        with_durations = HulovatyyModel(5, durations={0: 6.0})
        assert with_durations.is_valid_instance(g, (0, 1))


class TestParanjape:
    def test_valid_within_window(self, clean_triangle):
        assert ParanjapeModel(10).is_valid_instance(clean_triangle, (0, 1, 2))

    def test_window_violation(self, clean_triangle):
        assert not ParanjapeModel(3).is_valid_instance(clean_triangle, (0, 1, 2))

    def test_requires_total_order(self):
        g = TemporalGraph.from_tuples([(0, 1, 10), (1, 2, 10)])
        assert not ParanjapeModel(10).is_valid_instance(g, (0, 1))

    def test_induced_by_default(self):
        g = TemporalGraph.from_tuples(
            [(0, 1, 10), (1, 2, 12), (2, 1, 13), (0, 2, 14)]
        )
        motif = (0, 1, 3)
        assert not ParanjapeModel(10).is_valid_instance(g, motif)

    def test_original_non_induced_mode(self):
        g = TemporalGraph.from_tuples(
            [(0, 1, 10), (1, 2, 12), (2, 1, 13), (0, 2, 14)]
        )
        motif = (0, 1, 3)
        assert ParanjapeModel(10, induced=False).is_valid_instance(g, motif)

    def test_no_consecutive_restriction(self):
        """Paranjape relaxed Kovanen's rule to catch short bursts."""
        g = TemporalGraph.from_tuples(
            [(0, 1, 10), (0, 3, 11), (1, 2, 12), (0, 2, 14)]
        )
        motif = (0, 2, 3)
        assert ParanjapeModel(10).is_valid_instance(g, motif)


class TestModelRelationships:
    """Cross-model invariants from the survey's comparison."""

    def test_kovanen_valid_implies_hulovatyy_when_induced(self, clean_triangle):
        """On an induced, uninterrupted motif both ΔC models agree."""
        k = KovanenModel(5).is_valid_instance(clean_triangle, (0, 1, 2))
        h = HulovatyyModel(5).is_valid_instance(clean_triangle, (0, 1, 2))
        assert k and h

    def test_kovanen_counts_subset_of_relaxed(self, small_sms):
        from repro.core.constraints import TimingConstraints
        strict = KovanenModel(600).count(small_sms, 3, max_nodes=3)
        relaxed = KovanenModel(600, enforce_consecutive=False).count(
            small_sms, 3, max_nodes=3
        )
        for code, n in strict.items():
            assert n <= relaxed.get(code, 0)

    def test_song_is_most_permissive(self, small_sms):
        """Every Paranjape-valid instance is Song-valid (same ΔW, no
        inducedness)."""
        from repro.algorithms.enumeration import enumerate_instances
        from repro.core.constraints import TimingConstraints
        song = SongModel(600)
        paranjape = ParanjapeModel(600)
        g = small_sms.head(400)
        for inst in enumerate_instances(
            g, 3, TimingConstraints.only_w(600), max_nodes=3
        ):
            if paranjape.is_valid_instance(g, inst):
                assert song.is_valid_instance(g, inst)


class TestAspects:
    def test_model_metadata_matches_canonical_rows(self):
        for model_cls in ALL_MODELS:
            assert model_cls.aspects == ASPECT_ROWS[model_cls.name]

    def test_exactly_four_models(self):
        assert len(ALL_MODELS) == 4
        assert len(ASPECT_ROWS) == 4

    def test_chronological_years(self):
        years = [m.year for m in ALL_MODELS]
        assert years == sorted(years) == [2011, 2014, 2015, 2017]

    def test_table_renders_all_models(self):
        text = aspect_table()
        for name in ASPECT_ROWS:
            assert name in text

    def test_matrix_shape(self):
        matrix = aspect_matrix()
        assert len(matrix) == 7  # seven aspect rows in Table 1
        for row in matrix.values():
            assert set(row) == set(ASPECT_ROWS)

    def test_delta_constraints_are_exclusive_per_model(self):
        """Each surveyed model uses exactly one of ΔC / ΔW (Table 1)."""
        for row in ASPECT_ROWS.values():
            assert row.uses_delta_c != row.uses_delta_w


class TestCountHandsTheEngineItsRestriction:
    """A model count is the engine census with the model's own restriction."""

    @pytest.mark.parametrize(
        "model, restriction",
        [
            (KovanenModel(1500), satisfies_consecutive_events),
            (KovanenModel(1500, enforce_consecutive=False), None),
            (SongModel(3000), None),
            (ParanjapeModel(3000, induced=False), None),
        ],
        ids=["kovanen", "kovanen-relaxed", "song", "paranjape-non-induced"],
    )
    def test_count_takes_no_scalar_predicate(self, small_sms, model, restriction):
        pytest.importorskip("numpy", reason="the block lane runs on the numpy backend")
        import repro.obs as obs

        graph = small_sms.with_backend("numpy")
        registry = obs.enable(obs.MetricsRegistry())
        try:
            counts = model.count(graph, 3, max_nodes=3)
        finally:
            obs.disable()
        assert registry.counters.get("engine.predicate.scalar", 0) == 0
        direct = count_motifs(graph, 3, model.constraints(), max_nodes=3, predicate=restriction)
        assert list(counts.items()) == list(direct.items())
