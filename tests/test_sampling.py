"""Tests for sampling-based approximate counting."""

import pytest

np = pytest.importorskip("numpy")

from repro.algorithms.counting import count_motifs
from repro.algorithms.sampling import (
    estimate_counts_root_sampling,
    estimate_counts_window_sampling,
    relative_error,
)
from repro.core.constraints import TimingConstraints
from repro.core.temporal_graph import TemporalGraph


class TestRootSampling:
    def test_q_one_is_exact(self, small_sms):
        constraints = TimingConstraints(delta_c=300, delta_w=600)
        exact = count_motifs(small_sms, 3, constraints, max_nodes=3)
        estimate = estimate_counts_root_sampling(
            small_sms, 3, constraints, q=1.0, max_nodes=3
        )
        assert {c: float(n) for c, n in exact.items()} == estimate

    def test_rejects_bad_q(self, small_sms):
        constraints = TimingConstraints.only_c(100)
        for q in (0, -0.5, 1.5):
            with pytest.raises(ValueError):
                estimate_counts_root_sampling(small_sms, 3, constraints, q=q)

    def test_empty_graph(self):
        estimate = estimate_counts_root_sampling(
            TemporalGraph([]), 3, TimingConstraints.only_c(10), q=0.5
        )
        assert estimate == {}

    def test_estimates_scaled_by_inverse_q(self, small_sms):
        constraints = TimingConstraints(delta_c=300, delta_w=600)
        estimate = estimate_counts_root_sampling(
            small_sms,
            3,
            constraints,
            q=0.5,
            max_nodes=3,
            rng=np.random.default_rng(0),
        )
        # every estimated value is raw/0.5, i.e. a multiple of 2
        assert all(v == int(v) and int(v) % 2 == 0 for v in estimate.values())

    def test_unbiasedness_over_replicates(self, small_sms):
        """Mean estimate over seeds ≈ exact total (Horvitz–Thompson)."""
        constraints = TimingConstraints(delta_c=300, delta_w=600)
        exact_total = sum(
            count_motifs(small_sms, 3, constraints, max_nodes=3).values()
        )
        totals = []
        for seed in range(12):
            est = estimate_counts_root_sampling(
                small_sms,
                3,
                constraints,
                q=0.3,
                max_nodes=3,
                rng=np.random.default_rng(seed),
            )
            totals.append(sum(est.values()))
        mean = np.mean(totals)
        assert abs(mean - exact_total) / max(exact_total, 1) < 0.25

    def test_accuracy_improves_with_q(self, small_sms):
        constraints = TimingConstraints(delta_c=300, delta_w=600)
        exact = count_motifs(small_sms, 3, constraints, max_nodes=3)

        def err(q):
            errors = []
            for seed in range(6):
                est = estimate_counts_root_sampling(
                    small_sms,
                    3,
                    constraints,
                    q=q,
                    max_nodes=3,
                    rng=np.random.default_rng(seed),
                )
                errors.append(relative_error(exact, est))
            return np.mean(errors)

        assert err(0.8) < err(0.1) + 0.05  # generous slack for tiny samples

    def test_single_q01_sample_accuracy(self, quarter_sms):
        constraints = TimingConstraints(delta_c=1500, delta_w=3000)
        estimate = estimate_counts_root_sampling(
            quarter_sms, 3, constraints, q=0.1, max_nodes=3, rng=np.random.default_rng(1)
        )
        exact = count_motifs(quarter_sms, 3, constraints, max_nodes=3)
        # One q=0.1 sample lands within 60% relative error on this workload.
        assert relative_error(exact, estimate) < 0.6


class TestWindowSampling:
    def test_q_one_is_exact(self, small_sms):
        constraints = TimingConstraints(delta_c=300, delta_w=600)
        exact = count_motifs(small_sms, 3, constraints, max_nodes=3)
        estimate = estimate_counts_window_sampling(
            small_sms, 3, constraints, window=3600, q=1.0, max_nodes=3
        )
        assert {c: float(n) for c, n in exact.items()} == estimate

    def test_rejects_bad_window(self, small_sms):
        with pytest.raises(ValueError):
            estimate_counts_window_sampling(
                small_sms, 3, TimingConstraints.only_c(100), window=0, q=0.5
            )

    def test_rejects_bad_q(self, small_sms):
        with pytest.raises(ValueError):
            estimate_counts_window_sampling(
                small_sms, 3, TimingConstraints.only_c(100), window=100, q=0
            )

    def test_empty_graph(self):
        estimate = estimate_counts_window_sampling(
            TemporalGraph([]), 3, TimingConstraints.only_c(10), window=10, q=0.5
        )
        assert estimate == {}


class TestParallelSampling:
    """The estimators route through the parallel engine (``jobs=``)."""

    def test_root_sampling_jobs_parity(self, small_sms):
        constraints = TimingConstraints(delta_c=300, delta_w=600)
        serial = estimate_counts_root_sampling(
            small_sms, 3, constraints, q=0.4, max_nodes=3,
            rng=np.random.default_rng(11), jobs=1
        )
        sharded = estimate_counts_root_sampling(
            small_sms, 3, constraints, q=0.4, max_nodes=3,
            rng=np.random.default_rng(11), jobs=4
        )
        # Bit-identical, key order included: sampled roots are ascending,
        # so shards partition them exactly like the full search.
        assert sharded == serial
        assert list(sharded) == list(serial)

    def test_window_sampling_jobs_parity(self, small_sms):
        constraints = TimingConstraints(delta_c=300, delta_w=600)
        serial = estimate_counts_window_sampling(
            small_sms, 3, constraints, window=1800, q=0.5, max_nodes=3,
            rng=np.random.default_rng(13), jobs=1
        )
        sharded = estimate_counts_window_sampling(
            small_sms, 3, constraints, window=1800, q=0.5, max_nodes=3,
            rng=np.random.default_rng(13), jobs=4
        )
        assert sharded == serial
        assert list(sharded) == list(serial)


class TestRelativeError:
    def test_zero_for_identical(self):
        assert relative_error({"a": 10}, {"a": 10.0}) == 0.0

    def test_counts_missing_codes(self):
        assert relative_error({"a": 10}, {}) == 1.0
        assert relative_error({"a": 10}, {"a": 10.0, "b": 5.0}) == 0.5

    def test_empty_exact(self):
        assert relative_error({}, {}) == 0.0
        assert relative_error({}, {"a": 1.0}) == float("inf")
