"""Kovanen et al. 2011 — the first temporal motif model.

Definition (Section 4 of the survey): a temporal motif is an ordered set of
events such that

1. the time difference between each pair of *consecutive* events (in the
   whole, time-ordered set) is at most ΔC (temporal adjacency), and
2. for each node of the motif, its adjacent events in the motif are
   consecutive among all of the node's events — the node participates in no
   outside event between its motif events (the *consecutive events
   restriction*, a node-based temporal inducedness).

The model supports a partial ordering among events (ties in timestamps are
tolerated) and is **not** induced in the static sense: skipped edges among
the motif's nodes are allowed.
"""

from __future__ import annotations

from typing import Sequence

from repro.algorithms.restrictions import satisfies_consecutive_events
from repro.core.constraints import TimingConstraints
from repro.core.temporal_graph import TemporalGraph
from repro.models.base import ModelAspects, MotifModel, grows_connected, ordered_weakly


class KovanenModel(MotifModel):
    """ΔC-connected motifs with the consecutive-events restriction."""

    name = "Kovanen et al. [11]"
    year = 2011
    aspects = ModelAspects(
        induced="node-based temporal",
        event_durations=False,
        partial_ordering=True,
        directed_edges=True,
        node_edge_labels=False,
        uses_delta_c=True,
        uses_delta_w=False,
    )

    def __init__(self, delta_c: float, *, enforce_consecutive: bool = True) -> None:
        """
        Parameters
        ----------
        delta_c:
            Maximum gap between consecutive events of a motif, in seconds.
        enforce_consecutive:
            Allow switching the consecutive-events restriction off; the
            paper's Table 3 compares exactly this toggle.
        """
        self.delta_c = delta_c
        self.enforce_consecutive = enforce_consecutive

    def constraints(self) -> TimingConstraints:
        return TimingConstraints.only_c(self.delta_c)

    def is_valid_instance(self, graph: TemporalGraph, instance: Sequence[int]) -> bool:
        if not instance:
            return False
        if not ordered_weakly(graph, instance):
            return False
        if not grows_connected(graph, instance):
            return False
        times = [graph.times[i] for i in instance]
        if not self.constraints().admits(times):
            return False
        if self.enforce_consecutive and not satisfies_consecutive_events(
            graph, instance
        ):
            return False
        return True

    def _restriction(self):
        # Ordering, growth, and ΔC are already guaranteed by the enumerator.
        return satisfies_consecutive_events if self.enforce_consecutive else None
