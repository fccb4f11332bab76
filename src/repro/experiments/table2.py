"""Table 2 — statistics of the temporal network datasets.

For every registered dataset: nodes, events, edges, distinct timestamps,
fraction of events with a unique timestamp, and median inter-event time —
side by side with the paper's full-size reference values so the calibration
of the synthetic analogues is visible (absolute sizes are scaled down by
design; the *relative* signatures — Email's low unique-timestamp fraction,
Bitcoin's events == edges, the message networks' short medians — are the
reproduction targets).
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.textplot import table
from repro.datasets.registry import DATASETS
from repro.datasets.statistics import compute_stats
from repro.experiments.base import ExperimentResult, fmt_count, load_graphs

EXPERIMENT_ID = "table2"
TITLE = "Table 2: dataset statistics (synthetic analogues vs paper)"


def run(
    datasets: Iterable[str] | None = None, *, scale: float = 1.0, **_ignored
) -> ExperimentResult:
    """Compute the Table-2 row of every requested dataset."""
    graphs = load_graphs(datasets, scale=scale)
    rows = []
    data: dict[str, dict] = {}
    for graph in graphs:
        stats = compute_stats(graph)
        paper = DATASETS[graph.name].paper_row
        rows.append(
            (
                stats.name,
                fmt_count(stats.nodes),
                fmt_count(stats.events),
                fmt_count(stats.edges),
                fmt_count(stats.unique_timestamps),
                f"{100 * stats.unique_ts_fraction:.1f}%",
                f"{stats.median_interevent:.0f}",
                f"{100 * paper.unique_ts_fraction:.1f}%",
                f"{paper.median_interevent:.0f}",
            )
        )
        data[stats.name] = {
            "nodes": stats.nodes,
            "events": stats.events,
            "edges": stats.edges,
            "unique_timestamps": stats.unique_timestamps,
            "unique_ts_fraction": stats.unique_ts_fraction,
            "median_interevent": stats.median_interevent,
            "paper_unique_ts_fraction": paper.unique_ts_fraction,
            "paper_median_interevent": paper.median_interevent,
        }
    text = table(
        (
            "Name",
            "Nodes",
            "Events",
            "Edges",
            "#T",
            "|Eu|/|E|",
            "m(Δt)",
            "paper |Eu|/|E|",
            "paper m(Δt)",
        ),
        rows,
        title=TITLE,
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, text=text, data=data
    )
