"""Multi-view online serving: many trailing windows over one stream.

:class:`MultiViewCensus` generalizes the single-window
:class:`~repro.online.census.OnlineCensus` to *thousands* of concurrent
views over one arrival stream.  The expensive state is paid once,
shared by every view:

* the retained **graph tail** (storage-backend append path + prune
  rebase, exactly as in the single-view engine),
* the node-bucketed **prefix store** of live partial instances
  (:class:`_PrefixStore`, defined here; each prefix carries its motif
  code, grown one digit pair per event, so a completion's code is
  already known when it is counted),
* the compiled **plan/kernel** pair from :mod:`repro.engine`, and
* the **ledger** — a retention-bounded min-heap of every discovered
  instance (anchor time, canonical code, node set) that lets a view
  registered mid-stream backfill its counters instead of starting cold.

Per-view state is deliberately thin: one code counter (pair counters
are derived from it on read), an anchor-time expiry heap of
*references* into the shared ledger entries, and a scheduled wake
time.  One ``push(event)`` therefore runs discovery once
and fans each completed instance out to the views that accept it, in
one fold call per instance (not per view):

* **plain window views** differ only in their window length ``W``; they
  are kept sorted by ``W`` descending so the fan-out loop stops at the
  first view whose window no longer reaches the instance's anchor;
* **node-sliced views** (``nodes=``) count only instances whose node
  set lies inside the view's node set; a node -> views index routes
  each instance to the few views watching its nodes, so ten tenants or
  a thousand cost the same when their node sets are disjoint;
* **restricted views** (``predicate=``) apply their restriction at
  discovery time against the shared graph, with the same
  offset-translation and stability caveats as the single-view engine.

Expiry is *scheduled*, not polled: each view with live instances owns
one entry in a global wake heap keyed by the earliest time its oldest
anchor can leave its window, so a push touches only the views that
actually have something to retire — idle views cost nothing per event.
Wake times are widened down by the library's standard ulp slack and the
exact ``anchor < now - W`` comparison is re-run on fire, so the
floating-point shortcut can fire early (a no-op re-check) but never
late; the per-view insert/expire sequence — and therefore the counter
*key order* — stays bit-identical to an independent ``OnlineCensus``.

``push_many(events)`` feeds a time-sorted batch with the effect of one
push per event.  A batch of at least :data:`LANE_MIN_BATCH` events
finds its instances in one block-lane run per motif length
(:func:`repro.engine.run_plan_blocks`) over the batch and the retained
tail before it, then replays the clock, expiry, fan-out and prune
event by event, so every view's counters, key order included, match.

``retention`` bounds everything: it is the largest window any view may
use, the prefix store's gap bound and the ledger's horizon.  Pass
``math.inf`` for an unbounded ledger (every view added later backfills
to exact from-start parity, at the price of unbounded memory).

Views can be **degraded** under load (:meth:`degrade_view`): a degraded
view leaves the exact fan-out path entirely and answers
:meth:`view_counts` with the PR 5 root-sampling estimator over the
window slice, with per-code Horvitz–Thompson ``stderr`` bars — the same
shape the census service's overflow policy produces for queries.

:class:`~repro.online.census.OnlineCensus` is now a facade over a
single-view ``MultiViewCensus`` with ``retention == window``, so there
is exactly one implementation of the push/expire/prune arithmetic.
"""

from __future__ import annotations

import bisect
import heapq
import math
import time
import warnings
from collections import Counter
from typing import Callable, Iterable, Iterator

import repro.obs as _obs
from repro.algorithms.counting import MotifCensus
from repro.algorithms.enumeration import Instance, enumerate_instances
from repro.core._optional import import_numpy
from repro.core.constraints import TimingConstraints
from repro.core.events import Event
from repro.core.notation import DIGITS, MAX_NOTATION_NODES, canonical_code
from repro.core.temporal_graph import TemporalGraph
from repro.engine import compile_plan, run_plan_blocks
from repro.engine.kernels import MAX_CODE_EVENTS, exact_columns
from repro.storage.base import _validate_arrival

np = import_numpy()

Predicate = Callable[[TemporalGraph, Instance], bool]

__all__ = ["MultiViewCensus"]

#: Ulp multiplier for conservative window widening (mirrors
#: :mod:`repro.parallel.shards`: extra candidates are harmless, the exact
#: per-extension timing checks reject them; missing candidates would lose
#: instances).
_ULP_SLACK = 32.0

#: Pruning uses a much wider slack than the live prefilters so the
#: retained tail always covers everything a live prefix references, even
#: across float binade edges.
_PRUNE_SLACK = 1024.0

#: Smallest batch :meth:`MultiViewCensus.push_many` discovers through
#: the block lane.  A lane batch pays fixed costs the per-event loop
#: does not (window columns, the node CSR, one array run per motif
#: length), so shorter batches take the per-event loop.  Measured on the
#: census service's stream shape (3-event motifs, ``max_nodes=3``, the
#: ``list`` backend, 33 views) on a 2-CPU host, the lane took 1.36x the
#: loop's time at 64 events, 0.97-1.0x at 128 and 0.77x at 256.
LANE_MIN_BATCH = 128


def _widen_down(bound: float) -> float:
    """Lower a window start by a few ulps (conservative prefilter bound)."""
    if not math.isfinite(bound):
        return bound
    return bound - _ULP_SLACK * math.ulp(abs(bound) + 1.0)


def _backward_time(t: float, now: float) -> ValueError:
    """The error a push raises for an arrival before the stream clock."""
    return ValueError(
        f"push requires non-decreasing times: got t={t} "
        f"after the stream clock reached t={now}"
    )


def _codes_and_nodes(u, v, rows, codes) -> tuple[list[str], list[tuple]]:
    """Each lane row's canonical code string and node tuple.

    ``codes`` are the lane's decimal-packed codes.  A code's digits label
    the nodes in first-appearance order, so node ``d`` of every row with
    that code sits in the first endpoint column whose digit is ``d``:
    rows are grouped by code and each group's node columns taken at once.
    """
    n, n_events = rows.shape
    ends = np.empty((n, 2 * n_events), dtype=np.int64)
    ends[:, 0::2] = u[rows]
    ends[:, 1::2] = v[rows]
    order = codes.argsort(kind="stable")
    grouped = codes[order]
    cuts = (np.flatnonzero(grouped[1:] != grouped[:-1]) + 1).tolist()
    code_strs: list[str] = []
    nodes: list[tuple] = []
    for start, stop in zip([0, *cuts], [*cuts, n]):
        code = str(int(grouped[start])).zfill(2 * n_events)
        columns = [code.index(digit) for digit in sorted(set(code))]
        code_strs.extend([code] * (stop - start))
        nodes.extend(map(tuple, ends[order[start:stop]][:, columns].tolist()))
    back = np.empty(n, dtype=np.int64)
    back[order] = np.arange(n)
    back = back.tolist()
    return list(map(code_strs.__getitem__, back)), list(map(nodes.__getitem__, back))


class _Prefix:
    """One live connected-growth prefix (fewer than ``n_events`` events).

    Self-contained — global event indices, motif code, node set (in
    first-appearance order), first/last timestamps — so extending,
    counting and pruning never have to resolve anything against the
    graph.  ``code`` is the prefix's canonical 2n-digit code, grown one
    digit pair per extension; it is ``None`` once the prefix holds more
    than ten nodes, which digit notation cannot write.
    """

    __slots__ = ("seq", "code", "nodes", "t_root", "t_last")

    def __init__(self, seq, code, nodes, t_root, t_last) -> None:
        self.seq = seq
        self.code = code
        self.nodes = nodes
        self.t_root = t_root
        self.t_last = t_last


class _PrefixStore:
    """Live prefixes bucketed by node, scanned from the recent tail only.

    Within a bucket, prefixes are appended in arrival order, so the
    parallel ``t_last`` list is non-decreasing and one bisect finds the
    tail of prefixes an arrival could still extend (any extensible prefix
    has ``t_last`` within ``gap_bound`` — the tightest of ΔC, ΔW and W —
    of the arrival).  Gap-dead prefixes are reclaimed by a sweep whenever
    the stream clock outruns the previous sweep by more than
    ``gap_bound``, which bounds memory to the prefixes of roughly two
    windows without ever touching a still-extensible one.
    """

    __slots__ = ("gap_bound", "entries", "_size", "_buckets", "_sweep_clock")

    def __init__(self, gap_bound: float) -> None:
        self.gap_bound = gap_bound
        #: Total bucketed references (one per (prefix, node)), maintained
        #: incrementally — the O(1) memory gauge behind the observability
        #: layer's ``online.prefix_store.entries``.  ``len()`` counts
        #: distinct prefixes instead.
        self.entries = 0
        self._size = 0
        self._buckets: dict[int, tuple[list[float], list[_Prefix]]] = {}
        self._sweep_clock: float | None = None

    def __len__(self) -> int:
        return self._size

    def add(self, prefix: _Prefix) -> None:
        buckets = self._buckets
        t_last = prefix.t_last
        for node in prefix.nodes:
            bucket = buckets.get(node)
            if bucket is None:
                buckets[node] = ([t_last], [prefix])
            else:
                bucket[0].append(t_last)
                bucket[1].append(prefix)
        self.entries += len(prefix.nodes)
        self._size += 1

    def candidates(self, u: int, v: int, now: float) -> list[_Prefix]:
        """Every prefix touching ``u`` or ``v`` still within the gap bound.

        Each prefix appears once: one holding both endpoints sits in both
        tails (all its references share ``t_last``), so ``v``'s tail
        skips the prefixes that hold ``u``.  The tail bound is
        conservative — exact timing is re-checked per extension — and
        the list is materialized up front so callers may grow the store
        while walking it.
        """
        t_lo = _widen_down(now - self.gap_bound)
        buckets = self._buckets
        out: list[_Prefix] = []
        bucket = buckets.get(u)
        if bucket is not None:
            times, prefixes = bucket
            out = prefixes[bisect.bisect_left(times, t_lo) :]
        bucket = buckets.get(v)
        if bucket is not None:
            times, prefixes = bucket
            start = bisect.bisect_left(times, t_lo)
            if out:
                out.extend([p for p in prefixes[start:] if u not in p.nodes])
            else:
                out = prefixes[start:]
        return out

    def maybe_sweep(self, now: float) -> None:
        """Reclaim gap-dead prefixes once per ``gap_bound`` of stream time."""
        if self._sweep_clock is None:
            self._sweep_clock = now
            return
        if now - self._sweep_clock <= self.gap_bound:
            return
        self._sweep_clock = now
        keep_from = _widen_down(now - self.gap_bound)
        buckets = self._buckets
        for node in list(buckets):
            times, prefixes = buckets[node]
            start = bisect.bisect_left(times, keep_from)
            if start == 0:
                continue
            self.entries -= start
            # Every reference of a prefix shares its t_last, so a sweep
            # drops all of them at once: count each in its first node's
            # bucket only.
            for i in range(start):
                if prefixes[i].nodes[0] == node:
                    self._size -= 1
            if start >= len(prefixes):
                del buckets[node]
            else:
                buckets[node] = (times[start:], prefixes[start:])


class _LedgerEntry:
    """One discovered instance, shared between the ledger and view heaps.

    Self-contained (anchor/last timestamps, canonical code, node tuple,
    global event indices) so views never resolve anything against the
    graph.  Heaps hold ``(anchor_t, seq, entry)``
    triples — the unique ``seq`` tiebreak keeps ordering at C tuple
    speed and the entry itself out of every comparison.
    """

    __slots__ = ("anchor_t", "seq", "code", "nodes", "t_last", "events")

    def __init__(self, anchor_t, seq, code, nodes, t_last, events) -> None:
        self.anchor_t = anchor_t
        self.seq = seq
        self.code = code
        self.nodes = nodes
        self.t_last = t_last
        self.events = events


#: The heap element shape shared by the ledger and every view's heap.
_HeapItem = tuple[float, int, _LedgerEntry]


class _ViewState:
    """Counters + expiry heap: everything one registered view owns."""

    __slots__ = (
        "name",
        "window",
        "predicate",
        "nodes",
        "vseq",
        "mode",
        "q",
        "seed",
        "code_counts",
        "total",
        "discovered",
        "expired",
        "heap",
        "wake_t",
        "dropped",
        "just_counted",
    )

    def __init__(self, name, window, predicate, nodes, vseq) -> None:
        self.name = name
        self.window = window
        self.predicate = predicate
        self.nodes = nodes
        self.vseq = vseq
        self.mode = "exact"
        self.q: float | None = None
        self.seed: int | None = None
        self.code_counts: Counter = Counter()
        self.total = 0
        self.discovered = 0
        self.expired = 0
        self.heap: list[_HeapItem] = []
        self.wake_t: float | None = None
        self.dropped = False
        # A list collects the instances the view accepts (the single-
        # view facade resets it per push); None collects nothing.
        self.just_counted: list[Instance] | None = None


class MultiViewCensus:
    """Exact trailing-window motif counts for many views over one stream.

    Parameters
    ----------
    n_events:
        Events per motif instance, shared by every view.
    constraints:
        ΔC / ΔW timing bounds, shared by every view.
    retention:
        The largest window any view may use, and how long discovered
        instances stay in the backfill ledger.  ``math.inf`` keeps the
        ledger unbounded.
    max_nodes:
        Optional distinct-node cap per instance, shared by every view.
    backend / prune_every:
        As on :class:`~repro.online.census.OnlineCensus`; pruning uses
        the reach ``min(δ, retention)``, widened to the largest
        *degraded* view's window — degraded views estimate over the
        retained window slice at read time, so their whole window must
        survive pruning even when the timing bound δ is shorter.
    registry:
        Metrics registry to record into (``None`` = the process-global
        :data:`repro.obs.ACTIVE` recorder at construction time).  The
        census service passes its own server registry here so stream
        metrics surface in ``stats``.

    Notes
    -----
    Views sharing one engine must share ``(n_events, constraints,
    max_nodes)`` — those parameters shape the prefix store and the
    compiled kernel.  Views differ in window length, node slice and
    restriction predicate, and can be added or dropped live
    (:meth:`add_view` / :meth:`drop_view`).
    """

    def __init__(
        self,
        n_events: int,
        constraints: TimingConstraints,
        retention: float,
        *,
        max_nodes: int | None = None,
        backend: str | None = None,
        prune_every: int | None = None,
        registry=None,
    ) -> None:
        if n_events < 1:
            raise ValueError("n_events must be >= 1")
        if not (retention > 0) or math.isnan(retention):
            raise ValueError("retention must be positive (math.inf = unbounded)")
        if prune_every is not None and prune_every < 1:
            raise ValueError("prune_every must be a positive event count (or None)")
        self._n_events = n_events
        self._constraints = constraints
        self._retention = float(retention)
        self._max_nodes = max_nodes
        self._node_cap = n_events + 1 if max_nodes is None else max_nodes
        self._prune_every = prune_every
        self._delta = constraints.loose_timespan_bound(n_events) if n_events > 1 else 0.0
        bounds = [
            b
            for b in (constraints.delta_c, constraints.delta_w, self._retention)
            if b is not None and math.isfinite(b)
        ]
        self._prefixes = _PrefixStore(min(bounds) if bounds else math.inf)
        self._graph = TemporalGraph((), backend=backend)
        self._plan = compile_plan(
            n_events, constraints, None, self._graph.storage, max_nodes=max_nodes
        )
        self._bind_kernel()
        self._offset = 0
        self._now: float | None = None
        self._last_event_t: float | None = None
        self._saw_tie = False
        self._pushed = 0
        self._discovered = 0
        self._since_prune = 0
        self._seq = 0
        self._ledger: list[_HeapItem] = []
        self._unwarned_sensitive: list[_ViewState] = []
        # View registries: every view by name, the plain (unsliced)
        # exact views sorted by window descending for the early-exit
        # fan-out loop, and the node -> sliced-views routing index.
        self._views: dict[str, _ViewState] = {}
        self._flat: list[_ViewState] = []
        self._node_index: dict[int, list[_ViewState]] = {}
        self._vseq = 0
        # The global wake heap: (wake_t, view.vseq, view) — one live
        # entry per view with instances, plus harmless stale entries
        # invalidated by the view's own wake_t.
        self._wake: list[tuple[float, int, _ViewState]] = []
        self._obs = registry if registry is not None else _obs.ACTIVE

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def graph(self) -> TemporalGraph:
        """The shared live graph (the retained tail after pruning)."""
        return self._graph

    @property
    def n_events(self) -> int:
        return self._n_events

    @property
    def constraints(self) -> TimingConstraints:
        return self._constraints

    @property
    def retention(self) -> float:
        """Upper bound on view windows == the ledger horizon."""
        return self._retention

    @property
    def now(self) -> float | None:
        return self._now

    @property
    def pushed(self) -> int:
        return self._pushed

    @property
    def discovered(self) -> int:
        """Instances ever discovered by the shared core (view-independent)."""
        return self._discovered

    @property
    def live_prefixes(self) -> int:
        return len(self._prefixes)

    @property
    def ledger_depth(self) -> int:
        """Discovered instances still inside the retention horizon."""
        return len(self._ledger)

    def view_names(self) -> tuple[str, ...]:
        """Registered view names, in registration order."""
        return tuple(self._views)

    def __len__(self) -> int:
        return len(self._views)

    def __contains__(self, name: str) -> bool:
        return name in self._views

    # ------------------------------------------------------------------
    # view lifecycle
    # ------------------------------------------------------------------
    def add_view(
        self,
        name: str,
        window: float,
        *,
        predicate: Predicate | None = None,
        nodes: Iterable[int] | None = None,
        backfill: bool = True,
    ) -> _ViewState:
        """Register a view; live on a running stream.

        Parameters
        ----------
        window:
            The view's trailing-window length; must not exceed
            ``retention``.
        predicate:
            Optional restriction, same contract as the single-view
            engine's.  Predicate views cannot backfill (the verdict must
            run at discovery time, against the graph as it then was) —
            pass ``backfill=False`` explicitly to start one cold.
        nodes:
            Optional node slice: the view counts only instances whose
            node set is contained in this set.
        backfill:
            Replay the retained ledger through the new view so its
            counters match an engine that watched the stream from the
            start (exactly, for anchors inside the retention horizon).
            ``False`` starts the view empty, counting only instances
            discovered after registration.

        Returns the view's state record (counters are live references —
        read them through :meth:`counts` / :meth:`view_counts`).
        """
        if not isinstance(name, str) or not name:
            raise ValueError("view name must be a non-empty string")
        if name in self._views:
            raise ValueError(f"view {name!r} already registered")
        if not (window > 0 and math.isfinite(window)):
            raise ValueError("window must be positive and finite")
        if window > self._retention:
            raise ValueError(
                f"view window {window!r} exceeds the engine retention "
                f"{self._retention!r}; raise retention at construction"
            )
        if predicate is not None and backfill:
            raise ValueError(
                "restriction predicates run at discovery time and cannot be "
                "applied to already-discovered ledger entries; pass "
                "backfill=False to start a restricted view cold"
            )
        node_set = None if nodes is None else frozenset(nodes)
        view = _ViewState(name, float(window), predicate, node_set, self._vseq)
        self._vseq += 1
        self._views[name] = view
        if node_set is None:
            self._flat.append(view)
            self._flat.sort(key=lambda v: (-v.window, v.vseq))
        else:
            for node in node_set:
                self._node_index.setdefault(node, []).append(view)
        if predicate is not None and getattr(
            predicate, "tick_boundary_sensitive", False
        ):
            if self._saw_tie:
                self._warn_ties(view)
            else:
                self._unwarned_sensitive.append(view)
        if backfill and self._ledger:
            self._backfill(view)
        rec = self._obs
        if rec is not None:
            rec.inc("online.view.added")
            rec.set_gauge("online.view.live", len(self._views))
        return view

    def drop_view(self, name: str) -> bool:
        """Unregister a view; returns whether it existed."""
        view = self._views.pop(name, None)
        if view is None:
            return False
        view.dropped = True
        self._unroute(view)
        rec = self._obs
        if rec is not None:
            rec.inc("online.view.dropped")
            rec.set_gauge("online.view.live", len(self._views))
        return True

    def degrade_view(self, name: str, *, q: float = 0.25, seed: int | None = None) -> None:
        """Switch a view to sampling-estimate mode (overload degradation).

        The view leaves the exact fan-out path entirely — its counters
        and expiry heap are released — and :meth:`view_counts` answers
        with the root-sampling estimator over the current window slice,
        with per-code Horvitz–Thompson standard errors.  Requires NumPy
        at read time.  A degraded view's restriction predicate (if any)
        is *not* applied to estimates.  Degradation is one-way; drop and
        re-add the view to return to exact counting.
        """
        view = self._require_view(name)
        if not 0 < q <= 1:
            raise ValueError("q must be in (0, 1]")
        if view.mode == "estimate":
            view.q = float(q)
            view.seed = seed
            return
        view.mode = "estimate"
        view.q = float(q)
        view.seed = seed
        view.code_counts.clear()
        view.total = 0
        view.heap = []
        view.wake_t = None
        self._unroute(view)
        rec = self._obs
        if rec is not None:
            rec.inc("online.view.degraded")

    def _unroute(self, view: _ViewState) -> None:
        """Remove a view from the fan-out structures (drop/degrade)."""
        if view.nodes is None:
            if view in self._flat:
                self._flat.remove(view)
        else:
            # Membership-guarded: drop_view after degrade_view unroutes
            # twice, and a shared node bucket may still hold other views.
            for node in view.nodes:
                routed = self._node_index.get(node)
                if routed is not None and view in routed:
                    routed.remove(view)
                    if not routed:
                        del self._node_index[node]

    def _require_view(self, name: str) -> _ViewState:
        view = self._views.get(name)
        if view is None:
            raise KeyError(f"no view named {name!r} (have: {list(self._views)})")
        return view

    def _backfill(self, view: _ViewState) -> None:
        """Replay the retained ledger through a newly registered view.

        Entries are replayed in discovery order with the expiry horizon
        interleaved at each entry's completion time — the exact
        insert/expire sequence a from-start engine would have run over
        these entries, so counts (and, when no live code's history
        predates the retention horizon, counter key order too) match an
        independent :class:`OnlineCensus` of the same window.
        """
        window = view.window
        nodes = view.nodes
        target = (view,)
        for item in sorted(self._ledger, key=lambda item: item[1]):
            entry = item[2]
            if nodes is not None and not nodes.issuperset(entry.nodes):
                continue
            horizon = entry.t_last - window
            self._expire_view(view, horizon)
            if entry.anchor_t < horizon:
                continue
            self._fold(item, target)
        if self._now is not None:
            self._expire_view(view, self._now - window)
        if view.heap:
            self._schedule_wake(view)

    # ------------------------------------------------------------------
    # the stream interface
    # ------------------------------------------------------------------
    def push(self, event: Event | tuple) -> list[Instance]:
        """Feed one arrival to every view; return the new core instances.

        The returned instances are global event-index tuples of every
        instance the shared core discovered (before any per-view window
        /slice/predicate filtering); per-view acceptance shows up in the
        views' counters.
        """
        rec = self._obs
        if rec is None:
            return self._push(event)
        start = time.perf_counter()
        out = self._push(event)
        rec.observe("online.multiview.push.seconds", time.perf_counter() - start)
        if out:
            rec.inc("online.multiview.push.instances", len(out))
        rec.set_gauge("online.prefix_store.entries", self._prefixes.entries)
        rec.set_gauge("online.multiview.ledger.depth", len(self._ledger))
        return out

    def _push(self, event: Event | tuple) -> list[Instance]:
        ev = event if isinstance(event, Event) else Event(*event)
        if self._now is not None and ev.t < self._now:
            raise _backward_time(ev.t, self._now)
        local = self._graph.append(ev)
        gidx = local + self._offset
        t_a = ev.t
        if t_a == self._last_event_t:
            self._note_tie()
        self._last_event_t = t_a
        self._now = t_a
        self._pushed += 1
        self._retire_ledger(t_a - self._retention)
        self._run_wakes(t_a)

        out: list[Instance] = []
        k = self._n_events
        u, v = ev.u, ev.v
        # Completions are (seq, code, anchor time, node tuple).  A code
        # grows one digit pair per event: the kernel's node tuples are in
        # first-appearance order, so an endpoint's digit is its position.
        completions: list[tuple[Instance, str | None, float, tuple]] = []
        if k == 1:
            completions.append(((gidx,), "01", t_a, (u, v)))
        else:
            core_horizon = t_a - self._retention
            prefixes = self._prefixes
            add = prefixes.add
            candidates = prefixes.candidates(u, v, t_a)
            for pos, _idx, new_nodes in self._kernel.extend_frontier(
                candidates, local, local + 1
            ):
                prefix = candidates[pos]
                t_root = prefix.t_root
                if t_root < core_horizon:
                    # Anchored before every window any view may hold:
                    # nothing grown from this prefix can ever be counted.
                    continue
                seq = prefix.seq + (gidx,)
                code = prefix.code
                if code is not None:
                    if len(new_nodes) > MAX_NOTATION_NODES:
                        code = None
                    else:
                        code = code + DIGITS[new_nodes.index(u)] + DIGITS[new_nodes.index(v)]
                if len(seq) == k:
                    completions.append((seq, code, t_root, new_nodes))
                else:
                    add(_Prefix(seq, code, new_nodes, t_root, t_a))
            # Discovery order is event-index order.  The index tuples are
            # distinct, so the plain tuple sort never compares past them.
            completions.sort()
        if completions:
            self._count_completions(completions, t_a, out)
        if k > 1:
            self._prefixes.add(_Prefix((gidx,), "01", (u, v), t_a, t_a))
            self._prefixes.maybe_sweep(t_a)

        self._since_prune += 1
        if self._prune_every is not None and self._since_prune >= self._prune_every:
            self.prune()
        return out

    def _count_completions(self, completions, t_a: float, out: list) -> None:
        """Build ledger entries for this push's completions and fan out."""
        flat = self._flat
        # One horizon per plain view, computed once per completing push
        # with the same ``now - W`` subtraction the expiry path uses.
        horizons = [t_a - view.window for view in flat]
        n_flat = len(flat)
        node_index = self._node_index
        ledger = self._ledger
        fold = self._fold
        for seq, code, t_root, nodes in completions:
            if code is None:
                # Past ten nodes digit notation has no code: canonical_code
                # raises its "too many nodes" error for these events.
                event_at = self._graph.storage.event_at
                offset = self._offset
                code = canonical_code([event_at(i - offset).edge for i in seq])
            entry = _LedgerEntry(t_root, self._seq, code, nodes, t_a, seq)
            item = (t_root, self._seq, entry)
            self._seq += 1
            self._discovered += 1
            heapq.heappush(ledger, item)
            out.append(seq)
            # Views are sorted by window descending, so the views whose
            # window reaches the anchor are a prefix of the list.
            n = 0
            while n < n_flat and t_root >= horizons[n]:
                n += 1
            if n:
                fold(item, flat if n == n_flat else flat[:n])
            # Sliced views are indexed by node: the instance's first node
            # finds every view that could hold its whole node set.
            sliced = node_index.get(nodes[0]) if node_index else None
            if sliced:
                routed = [
                    view
                    for view in sliced
                    if t_root >= t_a - view.window and view.nodes.issuperset(nodes)
                ]
                if routed:
                    fold(item, routed)

    def _fold(self, item: _HeapItem, views) -> None:
        """Count one ledger entry into every view whose window accepts it.

        The one fold: a restricted view runs its predicate first and a
        collecting view records the instance, then every accepting view
        takes the same counter, heap and wake update.  Every view heap
        shares the entry's ledger heap item.
        """
        entry = item[2]
        code = entry.code
        local_inst = None
        heappush = heapq.heappush
        for view in views:
            predicate = view.predicate
            if predicate is not None:
                if local_inst is None:
                    offset = self._offset
                    local_inst = tuple(i - offset for i in entry.events)
                if not predicate(self._graph, local_inst):
                    continue
            if view.just_counted is not None:
                view.just_counted.append(entry.events)
            counts = view.code_counts
            counts[code] = counts.get(code, 0) + 1
            view.total += 1
            view.discovered += 1
            heap = view.heap
            heappush(heap, item)
            if heap[0] is item or view.wake_t is None:
                self._schedule_wake(view)

    def advance_to(self, now: float) -> int:
        """Move the stream clock forward without an event; expire views.

        Returns the total instances retired across all views.
        """
        if self._now is not None and now < self._now:
            raise ValueError(
                f"cannot advance backward: clock is at t={self._now}, got t={now}"
            )
        self._now = now
        self._retire_ledger(now - self._retention)
        return self._run_wakes(now)

    def drain(
        self, events: Iterable[Event | tuple]
    ) -> Iterator[tuple[int, list[Instance]]]:
        """Push a whole (time-sorted) stream lazily, as ``(index, new)``."""
        for event in events:
            idx = self._offset + len(self._graph)
            yield idx, self.push(event)

    # ------------------------------------------------------------------
    # batched pushes: lane discovery, then a per-event replay
    # ------------------------------------------------------------------
    def push_many(self, events: Iterable[Event | tuple]) -> list[Instance]:
        """Feed a time-sorted batch; return the new core instances.

        The same result as one :meth:`push` per event: the same view
        counters (key order included), ledger, expiry and prune
        sequence, and the returned list is the concatenation of what
        those pushes return.  A batch of at least :data:`LANE_MIN_BATCH`
        events discovers its instances in one block-lane run per motif
        length over the batch and the retained tail before it, then
        replays the clock, expiry, fan-out and prune event by event;
        after such a batch the prefix store holds only the prefixes a
        later arrival can still extend.  The per-event loop serves batches
        the lane cannot: a view with a predicate (its verdict must see
        the graph as it was at discovery), a node cap past ten (codes
        may be ``None``), one-event or over-long motifs, node ids that
        are not int64, and an absent NumPy.

        The batch is validated first.  When event ``j`` is invalid,
        events ``< j`` are pushed, then the error :meth:`push` raises
        for event ``j`` is raised.
        """
        rec = self._obs
        start = time.perf_counter() if rec is not None else 0.0
        batch, error = self._validated(events)
        columns = self._lane_columns(batch)
        if columns is None:
            out: list[Instance] = []
            for ev in batch:
                out.extend(self._push(ev))
        else:
            out = self._push_lane(batch, columns, rec)
        if rec is not None and batch:
            rec.observe("online.multiview.push_batch.seconds", time.perf_counter() - start)
            rec.observe("online.multiview.push_batch.events", len(batch))
            if out:
                rec.inc("online.multiview.push.instances", len(out))
            rec.set_gauge("online.prefix_store.entries", self._prefixes.entries)
            rec.set_gauge("online.multiview.ledger.depth", len(self._ledger))
        if error is not None:
            raise error
        return out

    def _validated(self, events) -> tuple[list[Event], ValueError | TypeError | None]:
        """The batch up to its first invalid item, and that item's error.

        Runs :meth:`push`'s checks in its order: coercion to
        :class:`Event`, the stream clock, then the storage's arrival
        checks (negative or NaN time, self-loop).
        """
        batch: list[Event] = []
        now = self._now
        try:
            for item in events:
                ev = item if isinstance(item, Event) else Event(*item)
                if now is not None and ev.t < now:
                    raise _backward_time(ev.t, now)
                _validate_arrival(ev, None)
                batch.append(ev)
                now = ev.t
        except (TypeError, ValueError) as exc:  # raised once the prefix is pushed
            return batch, exc
        return batch, None

    def _lane_columns(self, batch: list[Event]):
        """The lane's window columns for this batch, or ``None`` (per-event loop).

        The window is ``[widen_down(t_first - min(δ, retention)), t_end]``
        of the retained tail plus the batch: it holds the root of every
        instance the per-event path could complete in the batch, and the
        last prune kept all of it.  Returns ``(lo, window, ts, u, v, t)``:
        the local index of the window's first event, its events, their
        times as given, and the three columns.
        """
        k = self._n_events
        if (
            not batch
            or len(batch) < LANE_MIN_BATCH
            or not np
            or not 2 <= k <= MAX_CODE_EVENTS
            or self._node_cap > MAX_NOTATION_NODES
            or any(view.predicate is not None for view in self._views.values())
        ):
            return None
        storage = self._graph.storage
        reach = min(self._delta, self._retention)
        first = len(storage)
        lo = storage.bisect_time_left(_widen_down(batch[0].t - reach))
        event_at = storage.event_at
        window = [event_at(i) for i in range(lo, first)]
        window.extend(batch)
        columns = exact_columns(window)
        if columns is None:
            return None  # ids or times the lane's columns cannot hold exactly
        return lo, window, [ev.t for ev in window], *columns

    def _push_lane(self, batch: list[Event], columns, rec) -> list[Instance]:
        """Append, discover through the lane, replay per event (see push_many)."""
        append = self._graph.append
        for ev in batch:
            append(ev)
        start = time.perf_counter() if rec is not None else 0.0
        completions, bounds, extensible = self._discover(columns, len(batch))
        if rec is not None:
            now = time.perf_counter()
            rec.observe("online.push.discover.seconds", now - start)
            start = now
        out: list[Instance] = []
        retention = self._retention
        prune_every = self._prune_every
        for i, ev in enumerate(batch):
            t_a = ev.t
            if t_a == self._last_event_t:
                self._note_tie()
            self._last_event_t = t_a
            self._now = t_a
            self._pushed += 1
            self._retire_ledger(t_a - retention)
            self._run_wakes(t_a)
            if bounds[i] < bounds[i + 1]:
                self._count_completions(completions[bounds[i] : bounds[i + 1]], t_a, out)
            self._since_prune += 1
            if prune_every is not None and self._since_prune >= prune_every:
                self.prune()
        prefixes = self._prefixes
        for prefix in extensible:
            prefixes.add(prefix)
        prefixes.maybe_sweep(batch[-1].t)
        if rec is not None:
            rec.observe("online.push.fold.seconds", time.perf_counter() - start)
        return out

    def _discover(self, columns, n_batch: int):
        """Every instance and live prefix ending in the batch, from the lane.

        ``columns`` is :meth:`_lane_columns`' window, whose last
        ``n_batch`` events are the batch; window index ``i`` is global
        index ``lo + offset + i``.  One block-lane run per length ``j``
        finds every ``j``-event instance there.  Rows anchored below the
        retention horizon of their last event are dropped, by the
        per-event path's own comparison.  Times are taken from the
        events as given, so ledger entries and prefixes hold what
        :meth:`push` would store.

        Returns the completions as :meth:`_count_completions` takes
        them, ordered by (last index, index tuple); ``bounds``, where
        the completions of batch event ``i`` are
        ``completions[bounds[i]:bounds[i + 1]]``; and the prefixes of
        1..k-1 events a later arrival can still extend, in (t_last,
        last index, seq) order.
        """
        from repro.storage.numpy_backend import NumpyStorage

        lo, window, ts, u, v, t = columns
        storage = NumpyStorage.from_arrays(u, v, t)
        graph = TemporalGraph._from_storage(storage)
        m = len(t)
        n_old = m - n_batch
        base = lo + self._offset
        k = self._n_events
        retention = self._retention
        # A prefix stays extensible while its last event is within the
        # gap bound of the clock, as the store's candidate scan reads it;
        # its root is at most min(δ, retention) before that.
        live_from = _widen_down(ts[-1] - self._prefixes.gap_bound)
        live_roots = range(
            int(t.searchsorted(_widen_down(live_from - min(self._delta, retention)))), m
        )
        extensible = [
            _Prefix((base + i,), "01", (window[i].u, window[i].v), ts[i], ts[i])
            for i in range(max(n_old, int(t.searchsorted(live_from))), m)
        ]
        completions: list = []
        bounds = [0] * (n_batch + 1)
        for j in range(2, k + 1):
            final = j == k
            plan = compile_plan(j, self._constraints, None, storage, max_nodes=self._node_cap)
            blocks = list(run_plan_blocks(plan, graph, roots=None if final else live_roots))
            if not blocks:
                continue
            rows = np.concatenate([rows for rows, _codes in blocks])
            codes = np.concatenate([codes for _rows, codes in blocks])
            t_last = t[rows[:, -1]]
            keep = (rows[:, -1] >= n_old) & (t[rows[:, 0]] >= t_last - retention)
            if not final:
                keep &= t_last >= live_from
            rows = rows[keep]
            if not len(rows):
                continue
            codes = codes[keep]
            if final:
                # (last index, index tuple): lexsort's last key is primary.
                order = np.lexsort([rows[:, c] for c in range(k - 2, -1, -1)] + [rows[:, -1]])
                rows = rows[order]
                codes = codes[order]
                bounds = rows[:, -1].searchsorted(np.arange(n_old, m + 1)).tolist()
            seqs = map(tuple, (rows + base).tolist())
            code_strs, nodes = _codes_and_nodes(u, v, rows, codes)
            t_roots = map(ts.__getitem__, rows[:, 0].tolist())
            if final:
                completions = list(zip(seqs, code_strs, t_roots, nodes))
            else:
                t_lasts = map(ts.__getitem__, rows[:, -1].tolist())
                extensible.extend(map(_Prefix, seqs, code_strs, nodes, t_roots, t_lasts))
        extensible.sort(key=lambda p: (p.t_last, p.seq[-1], p.seq))
        return completions, bounds, extensible

    # ------------------------------------------------------------------
    # expiry: the scheduled wake heap
    # ------------------------------------------------------------------
    def _schedule_wake(self, view: _ViewState) -> None:
        """(Re)arm the view's wake at its oldest anchor's earliest exit.

        The wake time is widened *down* by the library's ulp slack so
        floating point can only make a wake early (a cheap no-op
        re-check), never late — lateness would reorder the per-view
        insert/expire sequence against a single-view engine.
        """
        wake = _widen_down(view.heap[0][0] + view.window)
        if view.wake_t is not None and view.wake_t <= wake:
            return
        view.wake_t = wake
        heapq.heappush(self._wake, (wake, view.vseq, view))

    def _run_wakes(self, now: float) -> int:
        """Expire every view whose scheduled wake has come due.

        Returns the number of instances retired across those views.
        """
        wake_heap = self._wake
        if not wake_heap or wake_heap[0][0] > now:
            return 0
        retired = 0
        resched: list[_ViewState] = []
        while wake_heap and wake_heap[0][0] <= now:
            wake, _vseq, view = heapq.heappop(wake_heap)
            if view.dropped or view.wake_t != wake:
                continue
            view.wake_t = None
            retired += self._expire_view(view, now - view.window)
            if view.heap:
                resched.append(view)
        for view in resched:
            if not view.dropped and view.heap:
                self._schedule_wake(view)
        return retired

    def _expire_view(self, view: _ViewState, horizon: float) -> int:
        """Retire the view's instances anchored strictly below ``horizon``.

        Returns how many it retired.  A code whose count reaches zero
        leaves the counter, so it re-enters at the end of the key order.
        """
        heap = view.heap
        if not heap or heap[0][0] >= horizon:
            return 0
        heappop = heapq.heappop
        counts = view.code_counts
        retired = 0
        while heap and heap[0][0] < horizon:
            code = heappop(heap)[2].code
            left = counts[code] - 1
            if left:
                counts[code] = left
            else:
                del counts[code]
            retired += 1
        view.total -= retired
        view.expired += retired
        if self._obs is not None:
            self._obs.inc("online.expire.retired", retired)
        return retired

    def _retire_ledger(self, horizon: float) -> None:
        """Drop ledger entries anchored below the retention horizon.

        Every view's window is at most ``retention``, so a retired entry
        has already expired from (or was never counted by) every view —
        the ledger only serves :meth:`add_view` backfill.
        """
        ledger = self._ledger
        while ledger and ledger[0][0] < horizon:
            heapq.heappop(ledger)

    # ------------------------------------------------------------------
    # tick-boundary-sensitive restrictions
    # ------------------------------------------------------------------
    def _note_tie(self) -> None:
        """Record a timestamp tie; warn any pending tick-sensitive views."""
        self._saw_tie = True
        pending = self._unwarned_sensitive
        if pending:
            self._unwarned_sensitive = []
            for view in pending:
                if not view.dropped:
                    self._warn_ties(view)

    def _warn_ties(self, view: _ViewState) -> None:
        """Warn once when a tick-sensitive predicate meets timestamp ties.

        Predicates marked ``tick_boundary_sensitive`` (the consecutive-
        events and CDG restrictions) can flip an already committed
        verdict when a *later* arrival shares the boundary timestamp, so
        their online counts may diverge from a batch recount on streams
        with ties.  The engine surfaces that loudly instead of silently
        diverging.
        """
        predicate = view.predicate
        warnings.warn(
            f"view {view.name!r} uses a tick-boundary-sensitive restriction "
            f"({getattr(predicate, '__name__', predicate)!r}) on a stream "
            "with timestamp ties: a same-tick arrival after discovery can "
            "flip a committed verdict, so online counts may diverge from a "
            "batch recount of the window (see the OnlineCensus predicate "
            "contract)",
            RuntimeWarning,
            stacklevel=3,
        )

    # ------------------------------------------------------------------
    # counters
    # ------------------------------------------------------------------
    def counts(self, name: str) -> Counter:
        """Per-code counts of one exact view (a copy)."""
        view = self._require_view(name)
        if view.mode != "exact":
            raise ValueError(
                f"view {name!r} is degraded to estimate mode and keeps no "
                "exact counters; use view_counts()"
            )
        if self._now is not None:
            self._run_wakes(self._now)
        return Counter(view.code_counts)

    def census(self, name: str) -> MotifCensus:
        """One exact view's counters as a :class:`MotifCensus` snapshot."""
        view = self._require_view(name)
        if view.mode != "exact":
            raise ValueError(
                f"view {name!r} is degraded to estimate mode; use view_counts()"
            )
        if self._now is not None:
            self._run_wakes(self._now)
        return MotifCensus(
            n_events=self._n_events,
            constraints=self._constraints,
            code_counts=Counter(view.code_counts),
            total=view.total,
        )

    def proportions(self, name: str) -> dict[str, float]:
        return self.census(name).proportions()

    def view_counts(self, name: str) -> dict:
        """One view's counts as a wire-ready dict (exact or estimated).

        Exact views return ``{"exact": True, "codes": {...}, "total": n,
        ...}``; degraded views return ``{"exact": False, "codes":
        {code: estimate}, "stderr": {...}, "q": q, "method":
        "root_sampling"}`` computed on demand over the current window
        slice (requires NumPy).
        """
        view = self._require_view(name)
        base = {
            "view": name,
            "window": view.window,
            "mode": view.mode,
            "discovered": view.discovered,
            "expired": view.expired,
        }
        if view.mode == "exact":
            if self._now is not None:
                self._run_wakes(self._now)
            base.update(
                exact=True, codes=dict(view.code_counts), total=view.total
            )
            return base
        codes, stderr = self._estimate_view(view)
        base.update(
            exact=False,
            codes=codes,
            stderr=stderr,
            q=view.q,
            method="root_sampling",
        )
        return base

    def _estimate_view(self, view: _ViewState) -> tuple[dict, dict]:
        """Root-sampling estimate over the view's current window slice."""
        from repro.core._optional import import_numpy

        np = import_numpy()
        if not np:
            raise RuntimeError(
                "degraded views estimate via root sampling, which requires NumPy"
            )
        if self._now is None:
            return {}, {}
        from repro.algorithms.sampling import estimate_counts_root_sampling, root_sampling_stderr

        window_graph = self._graph.slice(self._now - view.window, self._now)
        if view.nodes is not None:
            window_graph = window_graph.slice_nodes(view.nodes)
        q = view.q or 0.25
        estimates = estimate_counts_root_sampling(
            window_graph,
            self._n_events,
            self._constraints,
            q,
            max_nodes=self._max_nodes,
            rng=np.random.default_rng(view.seed),
        )
        return estimates, root_sampling_stderr(estimates, q)

    def describe(self) -> dict:
        """Engine + per-view summary (what the service's ``stats`` shows)."""
        return {
            "retention": self._retention,
            "now": self._now,
            "pushed": self._pushed,
            "discovered": self._discovered,
            "ledger": len(self._ledger),
            "prefixes": len(self._prefixes),
            "views": {
                name: {
                    "window": view.window,
                    "mode": view.mode,
                    "live": view.total,
                    "discovered": view.discovered,
                    "expired": view.expired,
                    "sliced": view.nodes is not None,
                    "restricted": view.predicate is not None,
                }
                for name, view in self._views.items()
            },
        }

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def prune(self) -> int:
        """Drop retained events no future arrival or view can touch."""
        rec = self._obs
        if rec is None:
            return self._prune()
        start = time.perf_counter()
        dropped = self._prune()
        rec.observe("online.prune.seconds", time.perf_counter() - start)
        if dropped:
            rec.inc("online.prune.dropped", dropped)
            rec.inc("online.prune.rebases")
        return dropped

    def _prune(self) -> int:
        if self._now is None:
            return 0
        # Exact views only need the timing bound δ of tail (completed
        # instances live in their heaps), but degraded views re-read
        # graph.slice(now - window, now) at estimate time — keep the
        # largest degraded window's worth of events alive.
        reach = self._delta
        for view in self._views.values():
            if view.mode == "estimate" and view.window > reach:
                reach = view.window
        if reach > self._retention:
            reach = self._retention
        cutoff = self._now - reach
        if math.isfinite(cutoff):
            cutoff -= _PRUNE_SLACK * math.ulp(abs(cutoff) + 1.0)
        storage = self._graph.storage
        kept = storage.slice_time(cutoff, math.inf).to_events()
        dropped = len(storage) - len(kept)
        self._since_prune = 0
        if dropped <= 0:
            return 0
        rebuilt = type(storage).from_events(kept, presorted=True)
        self._graph = TemporalGraph._from_storage(rebuilt, name=self._graph.name)
        self._bind_kernel()
        self._offset += dropped
        return dropped

    def _bind_kernel(self) -> None:
        """(Re)bind the plan's kernel to the current retained storage."""
        self._kernel = self._plan.bind(self._graph.storage)

    def _rebuild_prefixes(self) -> None:
        """Regrow the prefix store from the retained tail (restore path)."""
        if self._n_events == 1 or self._now is None:
            return
        graph = self._graph
        now = self._now
        horizon = now - self._retention
        event_at = graph.storage.event_at
        offset = self._offset
        rebuilt: list[_Prefix] = []
        for j in range(1, self._n_events):
            for inst in enumerate_instances(
                graph, j, self._constraints, max_nodes=self._node_cap
            ):
                first = event_at(inst[0])
                last = event_at(inst[-1])
                if first.t < horizon:
                    continue
                if now > self._constraints.next_event_deadline(first.t, last.t):
                    continue
                nodes: tuple[int, ...] = ()
                for idx in inst:
                    ev = event_at(idx)
                    for n in (ev.u, ev.v):
                        if n not in nodes:
                            nodes = nodes + (n,)
                code = (
                    canonical_code([event_at(i).edge for i in inst])
                    if len(nodes) <= MAX_NOTATION_NODES
                    else None
                )
                rebuilt.append(
                    _Prefix(
                        tuple(i + offset for i in inst),
                        code,
                        nodes,
                        first.t,
                        last.t,
                    )
                )
        rebuilt.sort(key=lambda p: (p.t_last, p.seq))
        for prefix in rebuilt:
            self._prefixes.add(prefix)
        self._prefixes._sweep_clock = now

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<MultiViewCensus {self._n_events}-event "
            f"{self._constraints.describe()} retention={self._retention:g}: "
            f"{len(self._views)} views, {self._pushed} events pushed, "
            f"{len(self._ledger)} ledger entries>"
        )
