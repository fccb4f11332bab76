"""Song et al. 2014 — event pattern matching over graph streams.

The model (Section 4 of the survey) comes from complex event processing:
an *event pattern* is a temporal motif with node/edge label predicates and
a partial ordering among its events, and all events of a match must fall
inside a time window ΔW (first-to-last).  There is no inducedness
requirement — non-induced motifs are the point (fraud squares etc.).

For instance-validity judging (Figure 1), only the ΔW window, partial
ordering, and connected growth matter; label-aware streaming matching
lives in :mod:`repro.algorithms.streaming` and can be attached here via
``pattern``.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.constraints import TimingConstraints
from repro.core.temporal_graph import TemporalGraph
from repro.models.base import ModelAspects, MotifModel, grows_connected, ordered_weakly


class SongModel(MotifModel):
    """ΔW-windowed, label-aware, partially ordered event patterns."""

    name = "Song et al. [12]"
    year = 2014
    aspects = ModelAspects(
        induced="none",
        event_durations=False,
        partial_ordering=True,
        directed_edges=True,
        node_edge_labels=True,
        uses_delta_c=False,
        uses_delta_w=True,
    )

    def __init__(self, delta_w: float, *, pattern=None) -> None:
        """
        Parameters
        ----------
        delta_w:
            Window bounding the whole motif (first to last event).
        pattern:
            Optional :class:`repro.algorithms.pattern.EventPattern`; when
            given, :meth:`is_valid_instance` additionally requires the
            instance to match the pattern (labels + partial order).
        """
        self.delta_w = delta_w
        self.pattern = pattern

    def constraints(self) -> TimingConstraints:
        return TimingConstraints.only_w(self.delta_w)

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
        return self.pattern is None or self._matches_pattern(graph, instance)

    def _restriction(self):
        return None if self.pattern is None else self._matches_pattern

    def _matches_pattern(self, graph: TemporalGraph, instance: Sequence[int]) -> bool:
        events = [graph.events[i] for i in instance]
        return self.pattern.matches_sequence(events)
