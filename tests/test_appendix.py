"""Tests for the appendix experiments (Figures 7–11)."""

from repro.experiments import run_experiment
from repro.experiments.appendix import (
    FIGURE7_DATASETS,
    FIGURE8_DATASETS,
    FIGURE9_PANELS,
    FIGURE10_DATASETS,
    FIGURE11_DATASETS,
)
from repro.datasets.registry import dataset_names

import pytest

np = pytest.importorskip("numpy", reason="appendix experiments run on numpy-seeded datasets")


class TestDatasetCoverage:
    def test_figures_7_and_8_cover_all_datasets(self):
        assert set(FIGURE7_DATASETS) | set(FIGURE8_DATASETS) == set(dataset_names())
        assert not set(FIGURE7_DATASETS) & set(FIGURE8_DATASETS)

    def test_panel_datasets_are_registered(self):
        names = set(dataset_names())
        assert {name for name, _code in FIGURE9_PANELS} <= names
        assert set(FIGURE10_DATASETS) <= names
        assert set(FIGURE11_DATASETS) <= names

    def test_figure9_panels_use_valid_codes(self):
        from repro.core.notation import is_valid_code

        for _name, code in FIGURE9_PANELS:
            assert is_valid_code(code)


class TestRuns:
    def test_figure7_retitled_and_structured(self):
        result = run_experiment(
            "figure7",
            datasets=["calls-copenhagen"],
            scale=0.2,
            n_events_list=(3,),
        )
        assert result.experiment_id == "figure7"
        assert result.text.startswith("Figure 7 (appendix)")
        assert "calls-copenhagen" in result.data

    def test_figure9_accepts_dataset_override(self):
        result = run_experiment("figure9", datasets=["sms-copenhagen"], scale=0.2)
        assert result.experiment_id == "figure9"
        assert any(key.startswith("sms-copenhagen") for key in result.data)

    def test_figure10_shares_figure5_schema(self):
        result = run_experiment("figure10", datasets=["sms-copenhagen"], scale=0.3)
        per_config = result.data["sms-copenhagen"]
        assert {"only-ΔC", "ΔC/ΔW=0.66", "only-ΔW"} <= set(per_config)
        for entry in per_config.values():
            assert "uniformity" in entry
            assert "histogram" in entry

    def test_figure11_shares_figure6_schema(self):
        result = run_experiment("figure11", datasets=["sms-copenhagen"], scale=0.3)
        entry = result.data["sms-copenhagen"]
        assert len(entry["matrix"]) == 6
        assert "asymmetries" in entry

    def test_figure7_repetition_share_at_paper_scale(self, paper_scale):
        # Repetition share decreases (or stays flat) toward only-ΔC everywhere.
        for name, per_size in paper_scale("figure7", n_events_list=(3,)).data.items():
            per_config = per_size["3e"]
            assert per_config["only-ΔC"]["R"] <= per_config["only-ΔW"]["R"] + 0.02, name

    def test_figure8_pair_shares_sum_to_one(self, paper_scale):
        for name, per_size in paper_scale("figure8", n_events_list=(3,)).data.items():
            assert sum(per_size["3e"]["only-ΔW"].values()) > 0.99, name

    def test_figure9_skew_regularizes(self, paper_scale):
        for panel, per_config in paper_scale("figure9").data.items():
            w, c = per_config["only-ΔW"], per_config["only-ΔC"]
            if min(w["samples"], c["samples"]) >= 50:  # a stable sample
                assert abs(c["skew"]) <= abs(w["skew"]) + 0.05, panel

    def test_figure10_at_paper_scale(self, paper_scale):
        for name, per_config in paper_scale("figure10").data.items():
            only_w = per_config["only-ΔW"]
            if only_w["summary"].count >= 50:
                assert only_w["summary"].maximum <= 3000, name
                assert only_w["uniformity"] >= per_config["only-ΔC"]["uniformity"] - 0.05, name

    def test_figure11_at_paper_scale(self, paper_scale):
        for name, entry in paper_scale("figure11").data.items():
            if np.array(entry["matrix"]).sum() >= 100:
                assert entry["asymmetries"]["C_then_O_vs_O_then_C"] > 0, name
