"""Event record types for temporal networks.

Following Section 2 of the paper, a temporal network ``G(V, E)`` is a set of
nodes ``V`` and a time-ordered list of events ``E``.  Each event is a 4-tuple
``(u, v, t, dt)`` — source node, target node, start time, duration.  Because
inter-event times dominate durations in practically all of the paper's
datasets, the paper (and this library's default path) uses the 3-tuple form
``(u, v, t)``; the durative form is kept for the Hulovatyy model, which is
the one model that incorporates durations (Section 4.2).

Events compare by ``(t, index-of-insertion)`` once inside a
:class:`repro.core.temporal_graph.TemporalGraph`; as free-standing records
they compare lexicographically ``(t, u, v)`` so sorted event lists are
deterministic.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, NamedTuple


class Event(NamedTuple):
    """A temporal edge ``(u, v, t)``: ``u`` contacts ``v`` at time ``t``.

    ``u`` and ``v`` are hashable node identifiers (typically ``int``);
    ``t`` is a number (seconds in all paper datasets, resolution 1 s).
    """

    u: int
    v: int
    t: float

    @property
    def edge(self) -> tuple[int, int]:
        """The static projection ``(u, v)`` of this event."""
        return (self.u, self.v)

    @property
    def nodes(self) -> tuple[int, int]:
        """Both endpoints, source first."""
        return (self.u, self.v)

    def reversed(self) -> "Event":
        """The same contact with source and target swapped."""
        return Event(self.v, self.u, self.t)

    def shifted(self, delta: float) -> "Event":
        """A copy of this event translated in time by ``delta``."""
        return Event(self.u, self.v, self.t + delta)

    def is_loop(self) -> bool:
        """True when source equals target (self-loop)."""
        return self.u == self.v


class DurativeEvent(NamedTuple):
    """A temporal edge with a duration, the full 4-tuple of Section 2.

    The Hulovatyy model measures temporal adjacency from the *end* of the
    earlier event to the *start* of the later one; :attr:`end` exists for
    that computation.
    """

    u: int
    v: int
    t: float
    duration: float

    @property
    def edge(self) -> tuple[int, int]:
        """The static projection ``(u, v)`` of this event."""
        return (self.u, self.v)

    @property
    def end(self) -> float:
        """The time at which this event finishes, ``t + duration``."""
        return self.t + self.duration

    def without_duration(self) -> Event:
        """Drop the duration, yielding the 3-tuple convention."""
        return Event(self.u, self.v, self.t)


#: The ``(t, u, v)`` sort key of an event.
_TIME_KEY = itemgetter(2, 0, 1)


def validate_events(events: Iterable[Event], *, allow_loops: bool = False) -> list[Event]:
    """Validate and normalize an iterable of events into a sorted list.

    Events are sorted by ``(t, u, v)`` (a stable sort).  Raises
    :class:`ValueError` on negative or NaN timestamps or (by default)
    self-loops, since none of the four motif models in the paper admits
    self-loops; the error names the first bad event in input order.

    Parameters
    ----------
    events:
        Any iterable of :class:`Event` or plain 3-tuples.
    allow_loops:
        Permit ``u == v`` events (disabled by default).
    """
    out: list[Event] = []
    append = out.append
    for raw in events:
        ev = raw if isinstance(raw, Event) else Event(*raw)
        t = ev[2]
        if t < 0:
            raise ValueError(f"event {ev} has a negative timestamp")
        if t != t:
            raise ValueError(f"event {ev} has a NaN timestamp")
        if ev[0] == ev[1] and not allow_loops:
            raise ValueError(f"event {ev} is a self-loop; motif models exclude loops")
        append(ev)
    out.sort(key=_TIME_KEY)
    return out


def interevent_times(events: list[Event]) -> list[float]:
    """Time gaps between consecutive events of a time-sorted event list.

    This is the quantity whose median appears in Table 2 (column m(Δt));
    it guides the choice of ΔC / ΔW per dataset.
    """
    return [b.t - a.t for a, b in zip(events, events[1:])]


def strip_durations(events: Iterable[DurativeEvent]) -> list[Event]:
    """Project durative events to the instantaneous 3-tuple convention."""
    return [ev.without_duration() for ev in events]
