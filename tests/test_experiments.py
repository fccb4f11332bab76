"""Integration tests: every experiment runs and shows the paper's shapes.

Each storage backend pass runs the experiments at a small scale on a
subset of datasets, with *lenient* shape assertions (signs and orderings
that are robust at small scale).  The ``*_paper_scale`` tests check the
paper's shapes over every dataset at scale 0.5, the scale they are
calibrated on, through the session's ``paper_scale`` runs.
"""

import pytest

np = pytest.importorskip("numpy", reason="experiments run on numpy-seeded datasets")

from repro.algorithms.counting import count_motifs
from repro.core.constraints import TimingConstraints
from repro.core.eventpairs import ALL_PAIR_TYPES, PairType
from repro.datasets.registry import dataset_names, get_dataset
from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.runner import run_all

SCALE = 0.25
MSG = ["sms-copenhagen", "college-msg"]
MESSAGES = ("sms-copenhagen", "college-msg", "sms-a")


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        expected = {
            "table1",
            "table2",
            "table3",
            "table4",
            "table5",
            "table6",
            "table7",
            "figure1",
            "figure3",
            "figure4",
            "figure5",
            "figure6",
            "figure7",
            "figure8",
            "figure9",
            "figure10",
            "figure11",
            "nullmodels",
            "stream",
        }
        assert set(EXPERIMENTS) == expected

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError, match="known experiments"):
            run_experiment("table99")


class TestConceptualExperiments:
    def test_table1_matches_paper(self):
        result = run_experiment("table1")
        assert result.data["mismatches"] == []

    def test_figure1_matches_paper(self):
        result = run_experiment("figure1")
        assert result.data["agreement"]
        assert result.data["verdicts"] == result.data["expected"]


class TestTable2:
    def test_rows_for_each_dataset(self):
        result = run_experiment("table2", datasets=MSG, scale=SCALE)
        assert set(result.data) == set(MSG)
        for row in result.data.values():
            assert row["events"] > 0
            assert 0 < row["unique_ts_fraction"] <= 1

    def test_dataset_signatures(self, paper_scale):
        data = paper_scale("table2").data
        # Email's cc-at-same-timestamp mechanism gives it the lowest
        # unique-timestamp fraction by a wide margin.
        email = data["email"]["unique_ts_fraction"]
        assert email < 0.75
        assert all(email <= row["unique_ts_fraction"] for row in data.values())
        # Bitcoin-otc: every event is a distinct directed edge.
        assert data["bitcoin-otc"]["events"] == data["bitcoin-otc"]["edges"]
        # Bitcoin has the largest median inter-event time (paper: 707 s);
        # message networks have short ones (paper: 3–37 s).
        bitcoin_med = data["bitcoin-otc"]["median_interevent"]
        assert all(bitcoin_med >= row["median_interevent"] for row in data.values())
        assert data["sms-copenhagen"]["median_interevent"] < 120


class TestTable3:
    def test_restriction_removes_majority(self):
        result = run_experiment("table3", datasets=MSG, scale=SCALE)
        for name in MSG:
            assert result.data[name]["survival"] < 0.5

    def test_restricted_counts_are_subsets(self):
        result = run_experiment("table3", datasets=MSG, scale=SCALE)
        for name in MSG:
            non = result.data[name]["non_consecutive"]
            cons = result.data[name]["consecutive"]
            for code, n in cons.items():
                assert n <= non.get(code, 0)

    def test_survival_at_paper_scale(self, paper_scale):
        # Weakest on bitcoin-otc (paper: ~30% survive vs <5% elsewhere).
        data = paper_scale("table3").data
        bitcoin_survival = data["bitcoin-otc"]["survival"]
        for name, row in data.items():
            if name != "bitcoin-otc":
                assert row["survival"] < 0.5, name
                assert row["survival"] <= bitcoin_survival, name
        for row in data.values():
            for code, n in row["consecutive"].items():
                assert n <= row["non_consecutive"].get(code, 0)

    def test_ask_reply_motifs_gain_rank_in_messages(self, paper_scale):
        data = paper_scale("table3").data
        gain = sum(
            data[name]["rank_changes"][m]
            for name in ("sms-copenhagen", "college-msg")
            for m in ("010210", "011210", "012010", "012110")
        )
        assert gain > 0


class TestTable4:
    def test_bitcoin_row_exactly_zero(self):
        result = run_experiment("table4", datasets=["bitcoin-otc"], scale=0.5)
        assert result.data["bitcoin-otc"]["variance"] == 0.0
        assert all(
            v == 0.0 for v in result.data["bitcoin-otc"]["changes"].values()
        )

    def test_cdg_counts_are_subsets(self):
        result = run_experiment("table4", datasets=MSG, scale=SCALE)
        for name in MSG:
            vanilla = result.data[name]["vanilla"]
            cdg = result.data[name]["cdg"]
            for code, n in cdg.items():
                assert n <= vanilla.get(code, 0)

    def test_delayed_repetition_loses_share_in_messages(self):
        result = run_experiment("table4", datasets=["sms-copenhagen"], scale=0.5)
        changes = result.data["sms-copenhagen"]["changes"]
        assert changes["010201"] <= 0
        assert changes["010102"] >= 0

    def test_repetition_shifts_at_paper_scale(self, paper_scale):
        # Paper: 010201 moves -0.99% .. -18.00%; 010102 gains.
        data = paper_scale("table4").data
        for name in ("sms-copenhagen", "college-msg", "email"):
            assert data[name]["changes"]["010201"] <= 0, name
        for name in MESSAGES:
            assert data[name]["changes"]["010102"] >= 0, name

    def test_qa_sites_barely_affected(self, paper_scale):
        # Paper variance 0.04-0.06, the smallest of the non-bitcoin rows.
        data = paper_scale("table4").data
        qa_var = max(data["stackoverflow"]["variance"], data["superuser"]["variance"])
        assert qa_var < min(data["sms-copenhagen"]["variance"], data["sms-a"]["variance"])

    def test_resolution_degrading_loses_more_in_messages(self):
        # The preamble: at 300 s the dense message network loses more
        # motifs than the ratings network, whose gaps run to thousands of s.
        only_c = TimingConstraints.only_c(1500)
        ratios = {}
        for name in ("sms-copenhagen", "bitcoin-otc"):
            g = get_dataset(name, scale=0.5)
            fine, coarse = (
                sum(count_motifs(h, 3, only_c, max_nodes=3, node_counts={3}).values())
                for h in (g, g.degrade_resolution(300))
            )
            ratios[name] = coarse / max(fine, 1)
        assert ratios["sms-copenhagen"] < ratios["bitcoin-otc"]


class TestTable5:
    def test_counts_monotone_and_rpio_dominant(self):
        result = run_experiment("table5", datasets=["sms-copenhagen"], scale=0.5)
        groups = result.data["sms-copenhagen"]
        w = groups["only-ΔW"]
        both = groups["ΔC/ΔW=0.66"]
        c = groups["only-ΔC"]
        for key in ("RPIO", "CW"):
            assert w[key] >= both[key] >= c[key]
        assert w["RPIO"] > 5 * w["CW"]

    def test_counts_monotone_and_rpio_dominant_at_paper_scale(self, paper_scale):
        data = paper_scale("table5").data
        for name in ("college-msg", "fb-wall", "bitcoin-otc", "sms-copenhagen", "sms-a"):
            w, both, c = (data[name][k] for k in ("only-ΔW", "ΔC/ΔW=0.66", "only-ΔC"))
            for key in ("RPIO", "CW"):
                assert w[key] >= both[key] >= c[key], (name, key)
            # Paper: R,P,I,O outnumbers C,W about 10x.
            assert w["RPIO"] > 5 * max(w["CW"], 1), name

    def test_rpio_reduced_at_least_as_much_as_cw(self):
        result = run_experiment("table5", datasets=["sms-copenhagen"], scale=1.0)
        groups = result.data["sms-copenhagen"]
        w, c = groups["only-ΔW"], groups["only-ΔC"]
        rpio_ratio = c["RPIO"] / max(w["RPIO"], 1)
        cw_ratio = c["CW"] / max(w["CW"], 1)
        assert rpio_ratio <= cw_ratio + 0.02

    def test_rpio_shrinks_at_least_as_fast_in_messages(self, paper_scale):
        data = paper_scale("table5").data
        for name in MESSAGES:
            w, c = data[name]["only-ΔW"], data[name]["only-ΔC"]
            rpio_ratio = c["RPIO"] / max(w["RPIO"], 1)
            assert rpio_ratio <= c["CW"] / max(w["CW"], 1) + 0.03, name


class TestFigures:
    def test_figure3_shares_sum_to_one(self):
        result = run_experiment(
            "figure3",
            datasets=["stackoverflow"],
            scale=SCALE,
            n_events_list=(3,),
        )
        for per_config in result.data["stackoverflow"]["3e"].values():
            assert sum(per_config.values()) == pytest.approx(1.0, abs=1e-9)

    def test_figure3_pair_shares(self, paper_scale):
        data = paper_scale("figure3").data
        # Repetition share decreases from only-ΔW to only-ΔC.
        for name, per_size in data.items():
            for size, shares in per_size.items():
                assert shares["only-ΔC"]["R"] <= shares["only-ΔW"]["R"] + 0.02, (name, size)
        # StackOverflow's answers arrive from many users in a short period:
        # its in-burst share grows under only-ΔC and beats the calls network's.
        so3 = data["stackoverflow"]["3e"]
        assert so3["only-ΔC"]["I"] >= so3["only-ΔW"]["I"] - 0.02
        assert so3["only-ΔC"]["I"] > data["calls-copenhagen"]["3e"]["only-ΔC"]["I"]

    def test_figure4_skew_shrinks_with_delta_c(self):
        result = run_experiment(
            "figure4", panels=(("sms-copenhagen", "010102"),), scale=1.0
        )
        panel = result.data["sms-copenhagen:010102"]
        assert abs(panel["only-ΔC"]["skew"]) <= abs(panel["only-ΔW"]["skew"]) + 0.02

    def test_figure4_every_panel(self, paper_scale):
        data = paper_scale("figure4").data
        for panel, per_config in data.items():
            w, c = per_config["only-ΔW"], per_config["only-ΔC"]
            if min(w["samples"], c["samples"]) >= 50:  # a stable estimate
                assert abs(c["skew"]) <= abs(w["skew"]) + 0.03, panel
        # The repeated event piles up near the first under only-ΔW.
        assert data["sms-copenhagen:010102"]["only-ΔW"]["skew"] < 0

    def test_figure5_uniformity_increases_toward_only_w(self):
        result = run_experiment(
            "figure5", datasets=["sms-copenhagen"], scale=1.0
        )
        per_config = result.data["sms-copenhagen"]
        assert (
            per_config["only-ΔW"]["uniformity"]
            >= per_config["only-ΔC"]["uniformity"] - 0.02
        )

    def test_figure5_every_dataset(self, paper_scale):
        for name, per_config in paper_scale("figure5").data.items():
            only_c, only_w = per_config["only-ΔC"], per_config["only-ΔW"]
            if min(only_c["summary"].count, only_w["summary"].count) < 50:
                continue
            assert only_w["uniformity"] >= only_c["uniformity"] - 0.03, name
            assert only_w["summary"].maximum <= 3000, name  # the ΔW cap
            assert only_w["summary"].count >= only_c["summary"].count, name

    def test_figure6_matrix_shape_and_asymmetry(self):
        result = run_experiment("figure6", datasets=["sms-copenhagen"], scale=0.5)
        entry = result.data["sms-copenhagen"]
        matrix = entry["matrix"]
        assert len(matrix) == 6 and all(len(row) == 6 for row in matrix)
        # convey→out-burst preferred over out-burst→convey
        assert entry["asymmetries"]["C_then_O_vs_O_then_C"] > 0

    def test_figure6_at_paper_scale(self, paper_scale):
        data = paper_scale("figure6").data

        def share(name, pair):
            """The fraction of sequence mass that involves ``pair``."""
            matrix = np.array(data[name]["matrix"])
            i = list(ALL_PAIR_TYPES).index(pair)
            return (matrix[i].sum() + matrix[:, i].sum()) / max(matrix.sum(), 1)

        for name, entry in data.items():
            if np.array(entry["matrix"]).sum() >= 100:
                # Few motifs hold weakly-connected pairs; convey→out-burst
                # beats out-burst→convey.
                assert share(name, PairType.WEAKLY_CONNECTED) < share(name, PairType.REPETITION)
                assert entry["asymmetries"]["C_then_O_vs_O_then_C"] > 0, name
        # Message networks lean on ping-pongs more than the calls network.
        assert share("sms-a", PairType.PING_PONG) > share("calls-copenhagen", PairType.PING_PONG)


class TestAppendixTables:
    def test_table6_covers_all_32_motifs(self):
        result = run_experiment("table6", datasets=MSG, scale=SCALE)
        for changes in result.data["rank_changes"].values():
            assert len(changes) == 32

    def test_table7_changes_sum_to_zero(self):
        result = run_experiment("table7", datasets=MSG, scale=SCALE)
        for changes in result.data["proportion_changes"].values():
            assert sum(changes.values()) == pytest.approx(0.0, abs=1e-6)

    def test_table6_ranks_permute_at_paper_scale(self, paper_scale):
        for name, changes in paper_scale("table6").data["rank_changes"].items():
            assert len(changes) == 32, name
            assert sum(changes.values()) == 0, name

    def test_table7_shares_move_at_paper_scale(self, paper_scale):
        for name, changes in paper_scale("table7").data["proportion_changes"].items():
            assert len(changes) == 32, name
            assert abs(sum(changes.values())) < 1e-6, name


class TestNullModels:
    def test_dilemma_direction(self):
        result = run_experiment(
            "nullmodels", datasets=["sms-copenhagen"], scale=0.3, n_null=3
        )
        entry = result.data["sms-copenhagen"]
        loose = entry["loose (P(t))"]
        restrictive = entry["restrictive (P(Δt))"]
        assert loose["count_shift"] > restrictive["count_shift"]
        assert loose["flagged_fraction"] >= restrictive["flagged_fraction"]

    def test_loose_null_flags_most_motifs(self, paper_scale):
        entry = paper_scale("nullmodels").data["sms-copenhagen"]
        loose, restrictive = entry["loose (P(t))"], entry["restrictive (P(Δt))"]
        assert loose["flagged_fraction"] > 0.7
        # The restrictive null "barely changes" the counts.
        assert loose["count_shift"] > 2 * restrictive["count_shift"]
        assert restrictive["count_shift"] < 0.5


class TestRunner:
    def test_text_reports_are_nonempty(self):
        for eid in ("table1", "figure1"):
            result = run_experiment(eid)
            assert result.title in result.text

    def test_run_all_smoke(self):
        results = run_all(datasets=["sms-copenhagen"], scale=0.1)
        assert len(results) == len(EXPERIMENTS)
