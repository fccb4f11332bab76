"""The incremental sliding-window census engine.

:class:`OnlineCensus` maintains, for a live event stream, exactly the
counters a batch :func:`~repro.algorithms.counting.run_census` would
produce over the trailing window ``[now - W, now]``:

* **Arrival.**  Events within one motif instance have strictly increasing
  timestamps, so a new arrival can only ever be the chronologically *last*
  event of an instance — every instance it completes is new, and every
  previously counted instance is untouched.  The shared core
  (:mod:`repro.online.multiview`, which also holds the prefix store)
  keeps live *prefixes* (connected-growth sequences of fewer than
  ``n_events`` events that still satisfy the timing bounds), bucketed by
  node: an arrival extends exactly the prefixes sharing one of its
  endpoints whose chained deadline it meets — completing the
  ``n_events - 1``-long ones into counted instances and storing the
  shorter extensions as new prefixes.  Each prefix is built once, when
  its own last event arrives, and carries its motif code, grown one
  digit pair per event, so a completion never re-derives it.  Per-event
  cost is proportional to the arrival's local activity, never to
  history and never to a window rescan.
* **Expiry.**  A batch census of ``slice_time(t - W, t)`` keeps exactly
  the instances whose *anchor* (first event) has ``t_anchor >= t - W``
  — the anchor is the instance's earliest timestamp, so anchor-in-window
  means instance-in-window.  Counted instances sit in a min-heap keyed by
  anchor timestamp (the monotone expiry queue); each arrival pops the
  expired prefix of the heap and decrements the counters.  The horizon
  ``now - W`` is computed with the same arithmetic as the slice
  bisection, so the online counts match the batch slice bit-for-bit even
  at floating-point window edges.
* **Pruning.**  Events older than ``now - min(W, δ)`` (δ = the
  constraints' loose timespan bound) can neither join a future instance
  nor re-enter the window, so :meth:`prune` (or the ``prune_every``
  auto-trigger) drops them and rebases the internal graph, bounding
  memory by window activity on an unbounded stream.  Prefixes carry
  their own timestamps, nodes and codes, so pruning never invalidates
  them.

The storage contract stays the substrate: every arrival lands through the
backends' :meth:`~repro.storage.base.GraphStorage.append` tail path, and
checkpoint restore (:mod:`repro.online.checkpoint`, which reads and
writes the shared core and the facade's solo view) rebuilds the prefix
store by running the batch enumerator — and therefore its
:meth:`~repro.storage.base.GraphStorage.adjacent_events_between`
candidate seam — over the retained tail.

Window-edge conventions mirror the rest of the library: the trailing
window is closed (an anchor at exactly ``now - W`` is still counted,
matching ``slice_time``'s ``bisect_left``), an arrival extends a
prefix when it is strictly later than the prefix's last event and at
or before ``min(t_last + ΔC, t_root + ΔW)`` — the two sums and min of
:meth:`~repro.core.constraints.TimingConstraints.next_event_deadline`,
as the batch enumerator computes them — and the store's bucket
prefilters are widened by the same ulp slack the parallel engine's
shard planner uses, so floating-point never loses an instance at a
boundary.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from typing import Callable, Iterable, Iterator

import repro.obs as _obs
from repro.algorithms.counting import MotifCensus
from repro.algorithms.enumeration import Instance
from repro.core.constraints import TimingConstraints
from repro.core.events import Event
from repro.core.temporal_graph import TemporalGraph
from repro.online.multiview import MultiViewCensus

Predicate = Callable[[TemporalGraph, Instance], bool]

#: The facade's one registered view on its core.
_SOLO_VIEW = "__solo__"


class OnlineCensus:
    """Exact motif counts over the trailing window of a live stream.

    Parameters
    ----------
    n_events:
        Events per motif instance (the paper uses 3 and 4).
    constraints:
        ΔC / ΔW timing bounds applied to every instance, exactly as in
        :func:`~repro.algorithms.counting.run_census`.
    window:
        The sliding-window length W: at any time ``t`` the counters cover
        instances whose events all lie in the closed window
        ``[t - window, t]``.
    max_nodes:
        Optional cap on distinct nodes per instance (e.g. 3 for the
        paper's 3n3e family).
    predicate:
        Optional restriction applied to each complete instance *at
        discovery time*, against the live graph.  Counts match a batch
        census of the window slice when the verdict (a) depends only on
        the instance's δ-neighborhood inside the window — the same
        locality contract as :func:`repro.parallel.mark_shard_safe` —
        and (b) is stable under arrivals strictly later than the
        instance's last event.  Tick-boundary-sensitive predicates (the
        consecutive-events restriction counts an event at *exactly* a
        boundary timestamp as an interruption) satisfy (b) only on
        tie-free streams: a same-tick event arriving after discovery
        could flip an already committed verdict.  Predicates carrying a
        truthy ``tick_boundary_sensitive`` attribute (the library's own
        restrictions mark themselves) raise a :class:`RuntimeWarning`
        once if the stream actually produces a timestamp tie.
    backend:
        Storage backend for the internal live graph (``None`` = the
        ``REPRO_STORAGE`` env var, then the library default).
    prune_every:
        Auto-prune period, in pushed events: every that many arrivals the
        engine drops events no future arrival can touch (see
        :meth:`prune`).  ``None`` disables auto-pruning and the internal
        graph retains the full history.

    Notes
    -----
    ``push`` returns the newly counted instances as tuples of *global*
    event indices — indices keep counting across :meth:`prune` rebases,
    so index ``i`` always refers to the ``i``-th pushed event (plus any
    restored history).  Resolve them against :attr:`graph` only before
    the next prune.

    This class is a facade over a single-view
    :class:`repro.online.multiview.MultiViewCensus` with ``retention ==
    window`` — there is exactly one implementation of the
    push/expire/prune arithmetic.  The core holds the configuration and
    the stream state, the solo view holds the window, the predicate and
    the counters, and the facade keeps no copy of either: checkpoints
    (:mod:`repro.online.checkpoint`) read and write the core and the
    solo view directly.
    """

    def __init__(
        self,
        n_events: int,
        constraints: TimingConstraints,
        window: float,
        *,
        max_nodes: int | None = None,
        predicate: Predicate | None = None,
        backend: str | None = None,
        prune_every: int | None = None,
    ) -> None:
        if not (window > 0 and math.isfinite(window)):
            raise ValueError("window must be positive and finite")
        self._mv = MultiViewCensus(
            n_events,
            constraints,
            window,
            max_nodes=max_nodes,
            backend=backend,
            prune_every=prune_every,
        )
        self._view = self._mv.add_view(_SOLO_VIEW, window, predicate=predicate, backfill=False)
        # The observability recorder binds at construction (the null-
        # recorder contract): enable repro.obs before building the engine
        # you want to watch.  Disabled cost: one ``is None`` per push.
        self._obs = _obs.ACTIVE

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def graph(self) -> TemporalGraph:
        """The internal live graph (the *retained tail* after pruning)."""
        return self._mv.graph

    @property
    def n_events(self) -> int:
        return self._mv.n_events

    @property
    def constraints(self) -> TimingConstraints:
        return self._mv.constraints

    @property
    def window(self) -> float:
        return self._view.window

    @property
    def now(self) -> float | None:
        """The stream clock: the latest pushed (or advanced-to) time."""
        return self._mv.now

    @property
    def pushed(self) -> int:
        """Total events pushed over the engine's lifetime."""
        return self._mv.pushed

    @property
    def discovered(self) -> int:
        """Total instances ever counted (monotone; expiry never lowers it)."""
        return self._view.discovered

    @property
    def expired(self) -> int:
        """Instances retired because their anchor slid out of the window."""
        return self._view.expired

    @property
    def live_instances(self) -> int:
        """Instances currently inside the window (== ``census().total``)."""
        return self._view.total

    @property
    def live_prefixes(self) -> int:
        """Prefixes the store currently retains (a memory gauge)."""
        return self._mv.live_prefixes

    # ------------------------------------------------------------------
    # the stream interface
    # ------------------------------------------------------------------
    def push(self, event: Event | tuple) -> list[Instance]:
        """Feed one arrival; return the newly counted instances.

        The event must not predate the stream clock (non-decreasing
        arrival times, the storage append contract).  Returned instances
        are tuples of global event indices in chronological order, each
        ending at the arrival; instances that fail the window bound or
        the predicate are neither counted nor returned.
        """
        rec = self._obs
        mv = self._mv
        view = self._view
        # The solo view collects the instances it accepts on this push.
        view.just_counted = []
        if rec is None:
            mv._push(event)
            return view.just_counted
        start = time.perf_counter()
        mv._push(event)
        out = view.just_counted
        rec.observe("online.push.seconds", time.perf_counter() - start)
        if out:
            rec.inc("online.push.instances", len(out))
        rec.set_gauge("online.prefix_store.entries", mv._prefixes.entries)
        rec.set_gauge("online.expiry_heap.depth", len(view.heap))
        return out

    def drain(self, events: Iterable[Event | tuple]) -> Iterator[tuple[int, list[Instance]]]:
        """Push a whole (time-sorted) stream lazily.

        Yields ``(global_event_index, new_instances)`` per arrival,
        mirroring :func:`repro.algorithms.streaming.match_live`.
        """
        mv = self._mv
        for event in events:
            idx = mv._offset + len(mv._graph)
            yield idx, self.push(event)

    def advance_to(self, now: float) -> int:
        """Move the stream clock forward without an event; expire instances.

        Returns the number of instances retired.  Subsequent pushes must
        not predate ``now`` (the window never moves backward).
        """
        before = self._view.expired
        self._mv.advance_to(now)
        return self._view.expired - before

    # ------------------------------------------------------------------
    # counters
    # ------------------------------------------------------------------
    def counts(self) -> Counter:
        """Per-code instance counts for the current window (a copy)."""
        return self._mv.counts(_SOLO_VIEW)

    def census(self) -> MotifCensus:
        """The window's counters as a :class:`MotifCensus` snapshot.

        Matches ``run_census(graph.slice(now - W, now), ...)`` on
        ``code_counts`` and ``total``; the pair counters, derived from
        the codes, match as counters (their key order follows this
        window's code order, which expiry can reshuffle).  The per-code
        sample lists (timespans, intermediate positions) are batch-only
        — their caps depend on enumeration order — and stay empty here.
        """
        return self._mv.census(_SOLO_VIEW)

    def proportions(self) -> dict[str, float]:
        """Each code's share of the current window's instance count."""
        return self.census().proportions()

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def prune(self) -> int:
        """Drop retained events no future arrival can touch; return #dropped.

        An event can only matter again if a future arrival (at
        ``t' >= now``) can reach it, i.e. if its timestamp is within
        ``min(W, δ)`` of ``now`` — older events can neither extend a new
        instance (δ bound) nor anchor one inside a future window (W
        bound).  The cutoff is widened by a slack much larger than the
        live prefilters', so pruning can never race discovery at a
        floating-point edge.  Counted instances and live prefixes are
        unaffected (both store timestamps, codes and nodes, not graph
        references), and global event indices stay stable via the rebase
        offset.
        """
        return self._mv.prune()

    # ------------------------------------------------------------------
    # checkpoints (numpy page persistence; see repro.online.checkpoint)
    # ------------------------------------------------------------------
    def snapshot(self, path) -> None:
        """Write a restorable checkpoint directory (prunes first).

        The checkpoint holds the retained graph tail as a ``"numpy"``
        page directory plus a JSON state manifest; requires NumPy.  See
        :func:`repro.online.checkpoint.save_checkpoint`.
        """
        from repro.online.checkpoint import save_checkpoint

        save_checkpoint(self, path)

    @classmethod
    def restore(
        cls,
        path,
        *,
        backend: str | None = None,
        predicate: Predicate | None = None,
        prune_every: int | None = None,
    ) -> "OnlineCensus":
        """Reopen a :meth:`snapshot` checkpoint and resume the stream.

        ``predicate`` is not serializable and must be re-supplied when
        the original engine used one.  See
        :func:`repro.online.checkpoint.load_checkpoint`.
        """
        from repro.online.checkpoint import load_checkpoint

        return load_checkpoint(
            path, backend=backend, predicate=predicate, prune_every=prune_every
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<OnlineCensus {self.n_events}-event "
            f"{self.constraints.describe()} W={self.window:g}: "
            f"{self.live_instances} live instances, {self.pushed} events pushed>"
        )
