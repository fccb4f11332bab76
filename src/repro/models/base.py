"""Common interface for the four temporal motif models.

Each model is a validity judge plus a counter: given a candidate motif
instance (a chronologically ordered tuple of event indices into a
:class:`~repro.core.temporal_graph.TemporalGraph`), ``is_valid_instance``
answers whether that instance is a motif under the model's constraints —
exactly the question Figure 1 of the paper poses for its four examples.
``count`` enumerates and tallies all valid instances per motif code.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.algorithms.counting import count_motifs
from repro.core.constraints import TimingConstraints
from repro.core.temporal_graph import TemporalGraph


@dataclass(frozen=True)
class ModelAspects:
    """One row of the paper's Table 1: which aspects a model handles.

    ``induced`` is one of ``"node-based temporal"``, ``"static only"``,
    or ``"none"``; the booleans mirror the check marks of Table 1.
    """

    induced: str
    event_durations: bool
    partial_ordering: bool
    directed_edges: bool
    node_edge_labels: bool
    uses_delta_c: bool
    uses_delta_w: bool


class MotifModel(ABC):
    """A temporal motif model: validity judge + counter."""

    #: Human-readable model name ("Kovanen et al. [11]" style).
    name: str = ""
    #: Publication year, for ordering in reports.
    year: int = 0
    #: Table-1 row for this model.
    aspects: ModelAspects

    @abstractmethod
    def constraints(self) -> TimingConstraints:
        """The timing constraints this model instance applies."""

    @abstractmethod
    def is_valid_instance(self, graph: TemporalGraph, instance: Sequence[int]) -> bool:
        """Judge a chronologically ordered candidate instance.

        Implementations must require single-component growth and whatever
        ordering, timing, and inducedness rules the model defines.
        """

    def count(
        self,
        graph: TemporalGraph,
        n_events: int,
        *,
        max_nodes: int | None = None,
        node_counts: Iterable[int] | None = None,
    ) -> Counter:
        """Count valid instances per canonical motif code."""
        return count_motifs(
            graph,
            n_events,
            self.constraints(),
            max_nodes=max_nodes,
            node_counts=node_counts,
            predicate=self._restriction(),
        )

    @abstractmethod
    def _restriction(self) -> Callable[[TemporalGraph, Sequence[int]], bool] | None:
        """The filter :meth:`count` hands the enumerator; ``None`` adds none.

        The enumerator already guarantees ordering, growth, and the timing
        constraints returned by :meth:`constraints`, so a model returns only
        its *extra* restriction.  A library restriction goes as itself, so
        the engine keeps its row form and shard marks.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__}: {self.constraints().describe()}>"


def ordered_strictly(graph: TemporalGraph, instance: Sequence[int]) -> bool:
    """Strictly increasing timestamps (total ordering)."""
    times = [graph.times[i] for i in instance]
    return all(b > a for a, b in zip(times, times[1:]))


def ordered_weakly(graph: TemporalGraph, instance: Sequence[int]) -> bool:
    """Non-decreasing timestamps (partial ordering allows ties)."""
    times = [graph.times[i] for i in instance]
    return all(b >= a for a, b in zip(times, times[1:]))


def grows_connected(graph: TemporalGraph, instance: Sequence[int]) -> bool:
    """Single-component growth: each event touches an already-seen node."""
    if not instance:
        return False
    first = graph.events[instance[0]]
    seen = {first.u, first.v}
    for idx in instance[1:]:
        ev = graph.events[idx]
        if ev.u not in seen and ev.v not in seen:
            return False
        seen.add(ev.u)
        seen.add(ev.v)
    return True
