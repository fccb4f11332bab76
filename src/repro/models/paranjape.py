"""Paranjape et al. 2017 — δ-temporal motifs.

The model (Section 4 of the survey): a temporal motif is a totally ordered
sequence of events whose whole span — last minus first — fits inside a time
window ΔW.  Kovanen's consecutive-events restriction is deliberately
dropped so that motifs occurring in short bursts are caught.  Per the
survey's Table 1 and Figure 1, motifs are induced in the static projection
(the second Figure-1 example is invalid for this model because it skips a
diagonal edge).

The original WSDM'17 formulation counts non-induced matches; pass
``induced=False`` to get that behaviour — the survey's reading is the
default so Figure 1 reproduces.
"""

from __future__ import annotations

from typing import Sequence

from repro.algorithms.restrictions import is_static_induced
from repro.core.constraints import TimingConstraints
from repro.core.temporal_graph import TemporalGraph
from repro.models.base import ModelAspects, MotifModel, grows_connected, ordered_strictly


class ParanjapeModel(MotifModel):
    """ΔW-windowed, totally ordered, statically induced temporal motifs."""

    name = "Paranjape et al. [14]"
    year = 2017
    aspects = ModelAspects(
        induced="static only",
        event_durations=False,
        partial_ordering=False,
        directed_edges=True,
        node_edge_labels=False,
        uses_delta_c=False,
        uses_delta_w=True,
    )

    def __init__(
        self,
        delta_w: float,
        *,
        induced: bool = True,
        induced_scope: str = "window",
    ) -> None:
        """
        Parameters
        ----------
        delta_w:
            Window bounding the whole motif (first to last event).
        induced:
            Require static inducedness (survey reading).  ``False`` gives
            the original WSDM'17 non-induced counting.
        induced_scope:
            ``"window"`` or ``"global"``.
        """
        self.delta_w = delta_w
        self.induced = induced
        self.induced_scope = induced_scope

    def constraints(self) -> TimingConstraints:
        return TimingConstraints.only_w(self.delta_w)

    def is_valid_instance(self, graph: TemporalGraph, instance: Sequence[int]) -> bool:
        if not instance:
            return False
        if not ordered_strictly(graph, instance):
            return False
        if not grows_connected(graph, instance):
            return False
        times = [graph.times[i] for i in instance]
        if not self.constraints().admits(times):
            return False
        return not self.induced or self._is_induced(graph, instance)

    def _restriction(self):
        return self._is_induced if self.induced else None

    def _is_induced(self, graph: TemporalGraph, instance: Sequence[int]) -> bool:
        return is_static_induced(graph, instance, scope=self.induced_scope)
