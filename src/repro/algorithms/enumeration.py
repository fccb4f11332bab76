"""The core temporal-motif instance enumerator.

An *instance* is a chronologically ordered tuple of event indices
``(i1 < i2 < ... < ik)`` into a :class:`~repro.core.temporal_graph.TemporalGraph`
such that

* the events grow as a single component (every event after the first shares
  a node with the union of nodes seen so far — the paper's motif shape rule),
* timestamps are strictly increasing (total ordering; the paper's evaluation
  assumes a total order, so same-timestamp events never share a motif), and
* the :class:`~repro.core.constraints.TimingConstraints` are satisfied:
  consecutive gaps ≤ ΔC and whole span ≤ ΔW, whichever are set.

This module is a thin driver over the unified execution engine
(:mod:`repro.engine`): :func:`enumerate_instances` compiles — or fetches
from the session cache — an :class:`~repro.engine.plan.ExecutionPlan`
(the once-per-run resolution of the chained deadlines and the node cap)
and streams :func:`repro.engine.run_plan`, which grows root-block
frontiers through one :class:`~repro.engine.kernels.ExtensionKernel`.
Whenever NumPy imports, that is the numpy kernel's block lane on every
storage backend: whole root blocks grow with a constant number of
``searchsorted`` probes per frontier level.  The generic kernel — forced
with ``kernel="generic"``, or the only one without NumPy — unions
per-node :meth:`~repro.storage.base.GraphStorage.node_events_between`
bisections via
:meth:`~repro.storage.base.GraphStorage.adjacent_events_between` (the
original per-event path).  The yield order is bit-identical to the
historical recursive DFS (see :mod:`repro.engine.driver` for the
equivalence argument).
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from repro.core.constraints import TimingConstraints
from repro.core.notation import canonical_code
from repro.core.temporal_graph import TemporalGraph
from repro.engine import ExecutionPlan, compile_plan, run_plan

Instance = tuple[int, ...]


def enumerate_instances(
    graph: TemporalGraph,
    n_events: int,
    constraints: TimingConstraints,
    *,
    max_nodes: int | None = None,
    predicate: Callable[[TemporalGraph, Instance], bool] | None = None,
    max_instances: int | None = None,
    roots: Sequence[int] | None = None,
    jobs: int | None = None,
    plan: ExecutionPlan | None = None,
) -> Iterator[Instance]:
    """Yield all motif instances of ``n_events`` events in ``graph``.

    Parameters
    ----------
    graph:
        The temporal network to search.
    n_events:
        Number of events per instance (the paper uses 3 and 4).
    constraints:
        ΔC / ΔW bounds.  At least one should be finite or the search space
        explodes; an unconstrained call is permitted but discouraged.
    max_nodes:
        Upper bound on the number of distinct nodes in an instance (e.g. 3
        for the paper's 2n/3n three-event motifs).  ``None`` allows up to
        ``n_events + 1`` nodes.
    predicate:
        Optional filter applied to each *complete* instance (model
        restrictions plug in here).
    max_instances:
        Optional hard cap on the number of instances yielded; used by
        sampling estimators and runaway protection in exploratory runs.
    roots:
        Restrict the search to instances whose *first* event index is in
        this collection (every instance has exactly one root, so sampling
        roots yields an unbiased sampled census).
    jobs:
        Worker processes for a sharded search (``<= 0`` = one per CPU).
        The parallel path buffers per-shard results and yields them in
        the exact serial order, so it trades the generator's laziness
        for throughput — which is why it requires an *explicit* opt-in:
        ``jobs=None`` (the default) always streams serially here, and
        the session default / ``REPRO_JOBS`` are honored only by the
        counting entry points, not by this generator.  A ``jobs`` value
        is also ignored when ``roots`` or ``max_instances`` is given
        (both are inherently sequential contracts).
    plan:
        A precompiled :class:`~repro.engine.plan.ExecutionPlan` to run
        instead of compiling one from the arguments (advanced: the
        parallel engine ships plans to shard workers; benchmarks force
        specific kernels).  When given, the plan's own ``predicate``
        and node cap win over the ``predicate`` / ``max_nodes``
        arguments, which must describe the same configuration.

    Yields
    ------
    Tuples of event indices in chronological order.
    """
    if n_events < 1:
        raise ValueError("n_events must be >= 1")
    if jobs is not None and roots is None and max_instances is None:
        from repro.parallel.executor import resolve_jobs

        if resolve_jobs(jobs) > 1:
            from repro.parallel import parallel_enumerate

            yield from parallel_enumerate(
                graph,
                n_events,
                constraints,
                jobs=jobs,
                max_nodes=max_nodes,
                predicate=predicate,
                plan=plan,
            )
            return
    if plan is None:
        plan = compile_plan(
            n_events,
            constraints,
            predicate,
            graph.storage,
            max_nodes=max_nodes,
        )
    yield from run_plan(plan, graph, roots=roots, max_instances=max_instances)


def instance_code(graph: TemporalGraph, instance: Instance) -> str:
    """The canonical motif code of an instance (chronological digit notation)."""
    return canonical_code([graph.events[i].edge for i in instance])


def instance_times(graph: TemporalGraph, instance: Instance) -> tuple[float, ...]:
    """Timestamps of an instance's events, in order."""
    return tuple(graph.times[i] for i in instance)


def instance_nodes(graph: TemporalGraph, instance: Instance) -> set[int]:
    """Distinct nodes touched by an instance."""
    nodes: set[int] = set()
    for i in instance:
        ev = graph.events[i]
        nodes.add(ev.u)
        nodes.add(ev.v)
    return nodes


def instance_timespan(graph: TemporalGraph, instance: Instance) -> float:
    """Last-minus-first timestamp of an instance."""
    return graph.times[instance[-1]] - graph.times[instance[0]]


def is_instance(
    graph: TemporalGraph,
    instance: Sequence[int],
    constraints: TimingConstraints,
    *,
    max_nodes: int | None = None,
) -> bool:
    """Validate an arbitrary index tuple against the instance definition.

    Used by tests as a brute-force oracle and by the model classes to judge
    externally supplied candidate motifs (Figure 1 style).
    """
    if not instance:
        return False
    times = [graph.times[i] for i in instance]
    if any(b <= a for a, b in zip(times, times[1:])):
        return False
    if not constraints.admits(times):
        return False
    pairs = [graph.events[i].edge for i in instance]
    seen = {pairs[0][0], pairs[0][1]}
    for u, v in pairs[1:]:
        if u not in seen and v not in seen:
            return False
        seen.add(u)
        seen.add(v)
    if max_nodes is not None and len(seen) > max_nodes:
        return False
    return True
