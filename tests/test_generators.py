"""Tests for the activity-model dataset generator."""

import pytest

pytest.importorskip("numpy", reason="the activity generator is numpy-seeded")

from repro.core.eventpairs import PairType, classify_pair
from repro.datasets.generators import ActivityConfig, ActivityModel, generate


def small_config(**overrides) -> ActivityConfig:
    base = dict(
        n_nodes=50,
        n_events=800,
        timespan=100_000.0,
        p_reply=0.4,
        p_repeat=0.3,
        p_cc=0.2,
        p_forward=0.15,
        reaction_mean=60.0,
    )
    base.update(overrides)
    return ActivityConfig(**base)


class TestConfigValidation:
    def test_rejects_too_few_nodes(self):
        with pytest.raises(ValueError):
            ActivityConfig(n_nodes=1, n_events=10, timespan=100)

    def test_rejects_no_events(self):
        with pytest.raises(ValueError):
            ActivityConfig(n_nodes=5, n_events=0, timespan=100)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            small_config(p_reply=1.5)

    def test_rejects_bad_timespan(self):
        with pytest.raises(ValueError):
            ActivityConfig(n_nodes=5, n_events=10, timespan=0)

    def test_rejects_bad_reaction_mean(self):
        with pytest.raises(ValueError):
            small_config(reaction_mean=0)

    def test_rejects_bad_delay_factor(self):
        with pytest.raises(ValueError):
            small_config(long_delay_factor=0.5)
        with pytest.raises(ValueError):
            small_config(convey_delay_factor=0)
        with pytest.raises(ValueError):
            small_config(p_return=2.0)

    def test_scaled(self):
        cfg = small_config().scaled(0.5)
        assert cfg.n_nodes == 25
        assert cfg.n_events == 400
        assert cfg.timespan == small_config().timespan

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            small_config().scaled(0)

    def test_scaled_minimum_sizes(self):
        cfg = small_config().scaled(0.0001)
        assert cfg.n_nodes >= 2
        assert cfg.n_events >= 1


class TestGeneration:
    def test_event_count_exact(self):
        g = generate(small_config(), seed=1)
        assert len(g) == 800

    def test_deterministic_given_seed(self):
        a = generate(small_config(), seed=7)
        b = generate(small_config(), seed=7)
        assert a.events == b.events

    def test_different_seeds_differ(self):
        a = generate(small_config(), seed=1)
        b = generate(small_config(), seed=2)
        assert a.events != b.events

    def test_nodes_within_range(self):
        g = generate(small_config(), seed=1)
        assert all(0 <= n < 50 for n in g.nodes)

    def test_no_self_loops(self):
        g = generate(small_config(), seed=3)
        assert not any(ev.is_loop() for ev in g.events)

    def test_times_nonnegative_and_snapped(self):
        g = generate(small_config(), seed=4)
        assert all(ev.t >= 0 for ev in g.events)
        assert all(float(ev.t).is_integer() for ev in g.events)

    def test_named_generation(self):
        g = generate(small_config(), seed=1, name="demo")
        assert g.name == "demo"


class TestMechanisms:
    def _pair_fractions(self, graph, window=600):
        """Fraction of adjacent-in-time event pairs per type (crude probe)."""
        from collections import Counter
        counts: Counter = Counter()
        events = graph.events
        for i in range(len(events) - 1):
            for j in range(i + 1, min(i + 6, len(events))):
                if events[j].t - events[i].t > window:
                    break
                ptype = classify_pair(events[i].edge, events[j].edge)
                if ptype is not None:
                    counts[ptype] += 1
        total = sum(counts.values())
        return {p: counts.get(p, 0) / max(total, 1) for p in PairType}

    def test_reply_heavy_config_yields_ping_pongs(self):
        replies = generate(small_config(p_reply=0.7, p_repeat=0.0, p_cc=0.0,
                                        p_forward=0.0), seed=5)
        silent = generate(small_config(p_reply=0.0, p_repeat=0.0, p_cc=0.0,
                                       p_forward=0.0), seed=5)
        assert (
            self._pair_fractions(replies)[PairType.PING_PONG]
            > self._pair_fractions(silent)[PairType.PING_PONG]
        )

    def test_cc_same_timestamp_lowers_unique_fraction(self):
        with_cc = generate(
            small_config(p_cc=0.6, cc_max=3, cc_same_timestamp=True), seed=6
        )
        without = generate(small_config(p_cc=0.0), seed=6)
        assert (
            with_cc.unique_timestamp_fraction()
            < without.unique_timestamp_fraction()
        )

    def test_no_repeated_edges_mode(self):
        g = generate(small_config(allow_repeated_edges=False, n_events=300), seed=7)
        edges = [ev.edge for ev in g.events]
        assert len(edges) == len(set(edges))

    def test_repeated_edges_default(self):
        g = generate(small_config(p_repeat=0.6), seed=8)
        edges = [ev.edge for ev in g.events]
        assert len(edges) > len(set(edges))

    def test_return_mechanism_creates_triangles(self):
        from repro.algorithms.cycles import enumerate_temporal_cycles
        chained = generate(
            small_config(p_forward=0.5, p_return=0.9, chain_decay=0.9,
                         max_chain_depth=4),
            seed=9,
        )
        cycles = list(
            enumerate_temporal_cycles(chained, delta_w=600, min_length=3,
                                      max_length=3, max_cycles=10)
        )
        assert cycles  # convey triangles exist

    def test_model_reusable_rng(self):
        model = ActivityModel(small_config(), seed=11)
        g = model.run()
        assert len(g) == 800

    def test_named_graph_is_built_once(self, monkeypatch):
        from repro.core.temporal_graph import TemporalGraph

        unnamed = generate(small_config(), seed=12)
        builds = []
        build = TemporalGraph.__init__

        def counted(self, *args, **kwargs):
            builds.append(kwargs.get("name", ""))
            build(self, *args, **kwargs)

        monkeypatch.setattr(TemporalGraph, "__init__", counted)
        named = generate(small_config(), seed=12, name="sms")
        assert builds == ["sms"]
        assert named.name == "sms"
        assert named.events == unnamed.events
