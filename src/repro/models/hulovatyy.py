"""Hulovatyy et al. 2015 — dynamic graphlets.

The model (Section 4 of the survey) refines Kovanen's in two directions:

* motifs must be **statically induced** — all edges among the motif's
  nodes must be covered by the motif's edge set (the skipped-event example
  of Section 4.1 shows coverage is per-edge, not per-event), and
* the consecutive-events restriction is **dropped** (too restrictive).

Events are **totally ordered**; temporal adjacency uses ΔC between
consecutive events.  Two optional refinements from the original paper are
supported:

* *constrained dynamic graphlets* — a consecutive event on a new edge must
  be the first event on that edge since its predecessor (filters stale
  repeats; evaluated in Table 4), and
* *event durations* — the gap is measured from the **end** of the earlier
  event to the **start** of the later one, the one duration-aware model in
  the literature (Section 4.2).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.algorithms.restrictions import is_static_induced, satisfies_cdg
from repro.core.constraints import TimingConstraints
from repro.core.temporal_graph import TemporalGraph
from repro.models.base import ModelAspects, MotifModel, grows_connected, ordered_strictly


class HulovatyyModel(MotifModel):
    """Statically induced, ΔC-connected, totally ordered dynamic graphlets."""

    name = "Hulovatyy et al. [13]"
    year = 2015
    aspects = ModelAspects(
        induced="static only",
        event_durations=True,
        partial_ordering=False,
        directed_edges=False,
        node_edge_labels=False,
        uses_delta_c=True,
        uses_delta_w=False,
    )

    def __init__(
        self,
        delta_c: float,
        *,
        constrained: bool = False,
        induced_scope: str = "window",
        durations: Mapping[int, float] | None = None,
    ) -> None:
        """
        Parameters
        ----------
        delta_c:
            Maximum gap between consecutive events.
        constrained:
            Apply the constrained-dynamic-graphlet restriction.
        induced_scope:
            ``"window"`` or ``"global"`` — see
            :func:`repro.algorithms.restrictions.is_static_induced`.
        durations:
            Optional event-index → duration map; when given, consecutive
            gaps are measured end-of-first to start-of-second.
        """
        self.delta_c = delta_c
        self.constrained = constrained
        self.induced_scope = induced_scope
        self.durations = durations

    def constraints(self) -> TimingConstraints:
        return TimingConstraints.only_c(self.delta_c)

    def is_valid_instance(self, graph: TemporalGraph, instance: Sequence[int]) -> bool:
        if not instance:
            return False
        if not ordered_strictly(graph, instance):
            return False
        if not grows_connected(graph, instance):
            return False
        if not self._admits_timing(graph, instance):
            return False
        return self._extra_rules(graph, instance)

    def _admits_timing(self, graph: TemporalGraph, instance: Sequence[int]) -> bool:
        """ΔC over consecutive gaps, duration-aware when durations are set."""
        if self.durations is None:
            times = [graph.times[i] for i in instance]
            return self.constraints().admits(times)
        for a, b in zip(instance, instance[1:]):
            end_a = graph.times[a] + self.durations.get(a, 0.0)
            if graph.times[b] - end_a > self.delta_c:
                return False
        return True

    def _restriction(self):
        return self._extra_rules

    def _extra_rules(self, graph: TemporalGraph, instance: Sequence[int]) -> bool:
        """Inducedness, the optional CDG rule and duration-aware gaps."""
        if not is_static_induced(graph, instance, scope=self.induced_scope):
            return False
        if self.constrained and not satisfies_cdg(graph, instance):
            return False
        if self.durations is not None and not self._admits_timing(graph, instance):
            return False
        return True
