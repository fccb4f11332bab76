"""Time-sharding of an event stream for parallel motif enumeration.

A *shard* is a contiguous run of the time-sorted event stream together
with the range of **anchor** (root) event indices it owns.  Every motif
instance has exactly one anchor — its chronologically first event — so
partitioning the anchors partitions the instances: each shard enumerates
only instances rooted in its owned range, and the union over shards is
exactly the serial enumeration, each instance appearing once.

Two planning strategies exist:

* :func:`plan_shards` — **time shards**.  Each shard's event window is
  extended forward by the motif window δ (the loose timespan bound of the
  census's timing constraints) so that every instance rooted in the shard
  is fully contained: no instance is lost at a boundary.  The window is
  also extended *backward* to the start of the first owned anchor's
  timestamp tick, so that window-local restriction predicates (e.g. the
  consecutive-events check) see every same-timestamp event they would see
  on the full graph.
* :func:`plan_root_shards` — **root shards**.  Every shard sees the whole
  event stream and only the owned anchor range differs.  This is the
  always-correct fallback for predicates that consult global context
  (e.g. static inducedness over the whole projection) and for
  unconstrained searches where δ is infinite.

Both strategies produce :class:`Shard` records whose ``ev_lo`` offset
maps shard-local event indices back to global ones, which is what
:func:`Shard.to_global` and the merge helpers rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.core.temporal_graph import TemporalGraph


@dataclass(frozen=True)
class Shard:
    """One unit of sharded enumeration work.

    Attributes
    ----------
    index:
        Position of the shard in the plan (shards merge in this order).
    root_lo / root_hi:
        Global half-open range ``[root_lo, root_hi)`` of anchor event
        indices this shard *owns*: only instances whose first event lies
        in this range belong to the shard.
    ev_lo / ev_hi:
        Global half-open range of events the shard's subgraph contains.
        ``ev_lo <= root_lo`` and ``ev_hi >= root_hi``; the slack is the
        boundary overlap that keeps instances and window predicates
        complete.
    """

    index: int
    root_lo: int
    root_hi: int
    ev_lo: int
    ev_hi: int

    @property
    def n_roots(self) -> int:
        return self.root_hi - self.root_lo

    @property
    def n_events(self) -> int:
        return self.ev_hi - self.ev_lo

    @property
    def local_roots(self) -> range:
        """Owned anchors as local indices into the shard subgraph."""
        return range(self.root_lo - self.ev_lo, self.root_hi - self.ev_lo)

    def owns_anchor(self, global_idx: int) -> bool:
        """Whether an instance anchored at ``global_idx`` belongs here."""
        return self.root_lo <= global_idx < self.root_hi

    def to_global(self, instance: Sequence[int]) -> tuple[int, ...]:
        """Map a shard-local instance back to global event indices."""
        offset = self.ev_lo
        return tuple(offset + i for i in instance)


def plan_shards(graph: TemporalGraph, delta: float, n_shards: int) -> list[Shard]:
    """Split ``graph`` into up to ``n_shards`` overlapping time shards.

    ``delta`` is the maximum timespan of any instance to be enumerated
    (use :meth:`TimingConstraints.loose_timespan_bound`).  Each shard's
    event window runs from the first event sharing its first anchor's
    timestamp through the last event within ``delta`` of its last
    anchor — so an instance rooted at any owned anchor, and every event a
    window-local predicate may consult about it, is fully contained.

    A non-finite ``delta`` cannot bound the overlap, so the plan degrades
    to a single full shard (use :func:`plan_root_shards` to still
    parallelize such searches).
    """
    m = len(graph)
    if m == 0:
        return [Shard(0, 0, 0, 0, 0)]
    if delta < 0:
        raise ValueError("delta must be non-negative")
    n = max(1, min(int(n_shards), m))
    if n == 1 or not math.isfinite(delta):
        return [Shard(0, 0, m, 0, m)]
    # The δ-overlap rule runs against the storage's time-index seams
    # (time_at / bisect_time_*): in-memory backends answer from their
    # cached timestamp list exactly as before, while the partitioned
    # backend bisects its manifest and then opens the one partition
    # holding each boundary (its column pages only), never materializing
    # the stream — the same rule plans both layouts.
    storage = graph.storage
    shards: list[Shard] = []
    for k in range(n):
        root_lo = (m * k) // n
        root_hi = (m * (k + 1)) // n
        if root_hi <= root_lo:
            continue
        ev_lo = storage.bisect_time_left(storage.time_at(root_lo))
        # The serial enumerator chains per-step float deadlines
        # (t_last + delta_c at every extension), which can exceed the
        # single-sum bound t_root + delta by a few ulps of accumulated
        # rounding.  Widen the window by a generous ulp slack: extra
        # events in a shard are always harmless (anchors partition the
        # instances), missing events lose instances.
        bound = storage.time_at(root_hi - 1) + delta
        bound += 32 * math.ulp(bound)
        ev_hi = max(root_hi, storage.bisect_time_right(bound))
        shards.append(Shard(len(shards), root_lo, root_hi, ev_lo, ev_hi))
    return shards


def plan_root_shards(graph: TemporalGraph, n_shards: int) -> list[Shard]:
    """Split only the anchor range; every shard sees the full stream.

    Correct for any predicate (workers reconstruct the whole graph), at
    the cost of shipping the full event list to each worker.
    """
    m = len(graph)
    if m == 0:
        return [Shard(0, 0, 0, 0, 0)]
    n = max(1, min(int(n_shards), m))
    shards: list[Shard] = []
    for k in range(n):
        root_lo = (m * k) // n
        root_hi = (m * (k + 1)) // n
        if root_hi <= root_lo:
            continue
        shards.append(Shard(len(shards), root_lo, root_hi, 0, m))
    return shards


def shard_graph(graph: TemporalGraph, shard: Shard) -> TemporalGraph:
    """Materialize one shard's subgraph under the parent graph's backend.

    Routed through :meth:`~repro.storage.base.GraphStorage.slice_range`:
    the slice of a time-sorted stream is itself time-sorted, so no
    re-validation happens (array-backed engines hand out zero-copy column
    views) and event index ``i`` of the result corresponds to global index
    ``shard.ev_lo + i``.
    """
    storage = graph.storage.slice_range(shard.ev_lo, shard.ev_hi)
    return TemporalGraph._from_storage(storage, name=graph.name)
