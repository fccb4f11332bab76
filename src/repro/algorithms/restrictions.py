"""The temporal-inducedness restrictions evaluated in Section 5.1.

Three restriction predicates, each a filter over enumerated instances:

* :func:`satisfies_consecutive_events` — Kovanen et al.'s node-based
  temporal inducedness: while a node is engaged in a motif, it must not
  touch any event outside the motif (Section 4.1, "consecutive events
  restriction").
* :func:`satisfies_cdg` — Hulovatyy et al.'s *constrained dynamic graphlet*
  rule: a consecutive event on a different edge must be the first event on
  that edge since its predecessor (filters "stale" repeated information).
* :func:`is_static_induced` — static inducedness (Hulovatyy / Paranjape):
  every static edge among the motif's nodes (within the motif's window, or
  globally) must appear among the motif's edges.

All predicates take ``(graph, instance)`` so they can be passed directly as
the ``predicate`` of :func:`repro.algorithms.enumeration.enumerate_instances`.

Row forms
---------

The two window-local restrictions, :func:`satisfies_consecutive_events`
and :func:`satisfies_cdg`, also carry an array form as their ``rows``
attribute (next to the ``shard_safe`` and ``tick_boundary_sensitive``
marks): ``pred.rows(graph, rows)`` takes an ``(n, k)`` integer array of
instances, one per row, and returns an ``(n,)`` bool mask that equals
``[pred(graph, tuple(r)) for r in rows]`` exactly.  The engine's block
lane (:func:`repro.engine.run_plan`, :func:`repro.engine.run_plan_blocks`)
filters whole instance blocks with it, so predicated censuses on the
numpy backend take the batched fold.  The masks are vectorized over the
columns of a :class:`~repro.storage.numpy_backend.NumpyStorage`; any
other storage, or one with tail appends pending, gets the scalar
predicate row by row.  :func:`combine` carries a row form
exactly when every component has one.  :func:`is_static_induced` has none
and is evaluated per instance; so is any user predicate without a ``rows``
attribute.  NumPy is imported lazily: the scalar predicates need none.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

from repro.core._optional import import_numpy
from repro.core.temporal_graph import TemporalGraph

np = import_numpy()

Instance = Sequence[int]


def _scalar_rows(predicate, graph: TemporalGraph, rows):
    """The row-form contract, one scalar call per row (the exact fallback)."""
    return np.fromiter(
        (predicate(graph, tuple(row)) for row in rows.tolist()),
        dtype=bool,
        count=len(rows),
    )


def _columns(graph: TemporalGraph):
    """The numpy storage's ``u``/``v``/``t`` columns, or ``None``."""
    arrays = getattr(graph.storage, "extension_arrays", lambda: None)()
    if arrays is None:
        return None
    return arrays["u"], arrays["v"], arrays["t"]


def satisfies_consecutive_events(graph: TemporalGraph, instance: Instance) -> bool:
    """Kovanen's consecutive-events restriction (node-based temporal inducedness).

    For every node of the motif, the graph events touching that node inside
    the closed interval spanned by the node's motif events must be exactly
    the node's motif events.  Example from Section 4.1: with motif events
    ``(u,v,5), (v,w,8), (u,v,12)``, no other event may touch ``u`` in
    ``[5, 12]`` nor ``v`` in ``[5, 12]`` nor ``w`` in ``[8, 8]``.

    Events at exactly the boundary timestamps count as interruptions — a
    node emitting a second contact in the same second it joins the motif is
    engaged elsewhere.
    """
    per_node: dict[int, list[float]] = defaultdict(list)
    for idx in instance:
        ev = graph.event_at(idx)
        per_node[ev.u].append(ev.t)
        per_node[ev.v].append(ev.t)
    for node, stamps in per_node.items():
        t_lo = min(stamps)
        t_hi = max(stamps)
        if graph.count_node_events_in(node, t_lo, t_hi) != len(stamps):
            return False
    return True


def _consecutive_events_rows(graph: TemporalGraph, rows):
    """Row form of :func:`satisfies_consecutive_events`.

    Per row, the ``2k`` endpoint slots group by node; each group's size
    (a self-loop fills two slots, as the scalar form appends its time
    twice) must equal the node's event count over the group's closed
    time span, one batched window count per ``(row, node)``.  The check
    ignores event order, so rows are sorted first: along a sorted row
    the times never decrease, and a group spans from its first slot's
    time to its last slot's.
    """
    rows = np.asarray(rows, dtype=np.int64)
    columns = _columns(graph) if len(rows) else None
    if columns is None:
        return _scalar_rows(satisfies_consecutive_events, graph, rows)
    u, v, t = columns
    rows = np.sort(rows, axis=1)
    n, k = rows.shape
    ends = np.empty((n, 2 * k), dtype=np.int64)
    ends[:, 0::2] = u[rows]
    ends[:, 1::2] = v[rows]
    stamps = t[rows]
    # One query per group, made at the group's first slot.
    queries: list[tuple] = []
    for j in range(2 * k):
        same = ends == ends[:, j : j + 1]
        lead = np.flatnonzero(~same[:, :j].any(axis=1))
        same = same[lead]
        last = 2 * k - 1 - same[:, ::-1].argmax(axis=1)
        t_lo, t_hi = stamps[lead, j // 2], stamps[lead, last // 2]
        queries.append((lead, ends[lead, j], t_lo, t_hi, same.sum(axis=1)))
    row, nodes, t_los, t_his, sizes = (np.concatenate(col) for col in zip(*queries))
    counts = graph.storage.count_node_events_in_batch(nodes, t_los, t_his)
    mask = np.ones(n, dtype=bool)
    mask[row[counts != sizes]] = False
    return mask


satisfies_consecutive_events.rows = _consecutive_events_rows
# Only consults events inside the instance's closed time window, which a
# time shard always contains -> safe for the sharded parallel engine.
satisfies_consecutive_events.shard_safe = True
# A graph event at *exactly* a boundary timestamp counts as an
# interruption, so on a stream with timestamp ties a same-tick arrival
# after discovery can flip a committed verdict -> the online engines
# warn when such a tie actually occurs.
satisfies_consecutive_events.tick_boundary_sensitive = True


def satisfies_cdg(graph: TemporalGraph, instance: Instance) -> bool:
    """Hulovatyy's constrained dynamic graphlet restriction.

    For consecutive motif events ``(u1,v1,t1)`` and ``(u2,v2,t2)`` on
    *different* edges, there must be no graph event on edge ``(u2,v2)``
    within ``[t1, t2]`` other than the motif event itself — i.e. the second
    event is the first occurrence of its edge since the first event fired.
    Repetitions (same edge twice) are exempt, matching the formal statement
    in Section 4.1 ("where u1,v1 ≠ u2,v2").
    """
    for a, b in zip(instance, instance[1:]):
        ev_a = graph.event_at(a)
        ev_b = graph.event_at(b)
        if ev_a.edge == ev_b.edge:
            continue
        if graph.count_edge_events_in(ev_b.edge, ev_a.t, ev_b.t) != 1:
            return False
    return True


def _cdg_rows(graph: TemporalGraph, rows):
    """Row form of :func:`satisfies_cdg`.

    For consecutive ``(a, b)`` on different edges, ``b`` is its edge's
    only event in ``[t_a, t_b]`` iff the edge's previous event is before
    ``t_a`` and its next one after ``t_b`` — two gathers from
    :meth:`~repro.storage.numpy_backend.NumpyStorage.edge_adjacent_times`.
    (``t_a > t_b`` is an empty window, which fails as in the scalar form.)
    """
    rows = np.asarray(rows, dtype=np.int64)
    columns = _columns(graph) if len(rows) else None
    adjacent = graph.storage.edge_adjacent_times() if columns is not None else None
    if adjacent is None:
        return _scalar_rows(satisfies_cdg, graph, rows)
    u, v, t = columns
    prev_t, next_t = adjacent
    a, b = rows[:, :-1], rows[:, 1:]
    t_a, t_b = t[a], t[b]
    same_edge = (u[a] == u[b]) & (v[a] == v[b])
    fresh = (prev_t[b] < t_a) & (next_t[b] > t_b) & (t_a <= t_b)
    return (same_edge | fresh).all(axis=1)


satisfies_cdg.rows = _cdg_rows
# Window-local for the same reason as the consecutive-events check.
satisfies_cdg.shard_safe = True
# Counts edge events in the closed [t1, t2] interval -> same boundary-tie
# instability online as the consecutive-events check.
satisfies_cdg.tick_boundary_sensitive = True


def is_static_induced(
    graph: TemporalGraph,
    instance: Instance,
    *,
    scope: str = "window",
) -> bool:
    """Static inducedness: motif edges must cover all edges among its nodes.

    Section 4.1's Hulovatyy example — events ``(a,b,2), (b,c,4), (c,a,5),
    (c,a,6)`` where the triangle of the 1st, 2nd and 4th events is valid
    because the skipped 3rd event lies on an edge the motif *does* use —
    shows that inducedness is about edge coverage, not event coverage.

    Parameters
    ----------
    scope:
        ``"window"`` (default) considers graph events among the motif's
        nodes whose timestamps fall inside the motif's closed time window;
        ``"global"`` considers the whole static projection.  The window
        scope matches how induced motifs are judged instance-by-instance
        (Figure 1); the global scope matches static graphlet semantics.
    """
    if scope not in ("window", "global"):
        raise ValueError(f"unknown inducedness scope {scope!r}")
    events = graph.events
    nodes: set[int] = set()
    motif_edges: set[tuple[int, int]] = set()
    for idx in instance:
        ev = events[idx]
        nodes.add(ev.u)
        nodes.add(ev.v)
        motif_edges.add(ev.edge)
    if scope == "global":
        return graph.induced_static_edges(nodes) <= motif_edges
    t_lo = events[instance[0]].t
    t_hi = events[instance[-1]].t
    for node in nodes:
        for idx in graph.node_events_in(node, t_lo, t_hi):
            ev = events[idx]
            if ev.u in nodes and ev.v in nodes and ev.edge not in motif_edges:
                return False
    return True


# The window scope judges events at the motif's boundary timestamps, so a
# same-tick arrival can flip a verdict online, as above.  (The global
# scope is not window-local at all and is unsuitable online regardless.)
is_static_induced.tick_boundary_sensitive = True


class _Conjunction:
    """The AND of restriction predicates; :func:`combine` builds it.

    A module-level class rather than a closure, so a conjunction of
    picklable predicates pickles too and travels to shard workers.
    """

    def __init__(self, predicates) -> None:
        self.predicates = tuple(predicates)
        self.shard_safe = all(getattr(pred, "shard_safe", False) for pred in self.predicates)
        # One tie-unstable component makes the conjunction tie-unstable.
        self.tick_boundary_sensitive = any(
            getattr(pred, "tick_boundary_sensitive", False) for pred in self.predicates
        )

    def __call__(self, graph: TemporalGraph, instance: Instance) -> bool:
        return all(pred(graph, instance) for pred in self.predicates)

    def __repr__(self) -> str:
        names = (getattr(pred, "__name__", repr(pred)) for pred in self.predicates)
        return f"combine({', '.join(names)})"


class _RowConjunction(_Conjunction):
    """A conjunction whose every component has a row form."""

    def rows(self, graph: TemporalGraph, rows):
        rows = np.asarray(rows, dtype=np.int64)
        # Each component judges only the rows the earlier ones kept, as
        # the scalar conjunction short-circuits.
        kept = np.arange(len(rows))
        for pred in self.predicates:
            kept = kept[pred.rows(graph, rows[kept])]
        mask = np.zeros(len(rows), dtype=bool)
        mask[kept] = True
        return mask


def combine(*predicates):
    """AND-combine restriction predicates into a single enumerator filter.

    The combined predicate is shard-safe for the parallel engine exactly
    when every component is (see
    :func:`repro.parallel.mark_shard_safe`), and carries a row form
    exactly when every component does: the AND of the component masks.
    It pickles whenever its components do.
    """
    if all(getattr(pred, "rows", None) is not None for pred in predicates):
        return _RowConjunction(predicates)
    return _Conjunction(predicates)
