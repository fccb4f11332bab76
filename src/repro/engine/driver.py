"""The frontier driver: plans + kernels -> instances, in serial DFS order.

:func:`run_plan` walks roots in blocks on one geometric schedule
(:func:`_root_blocks`) and grows each block level-synchronously on one
of two lanes:

* the **block lane** (the numpy kernel, banded arrays ready):
  ``grow_block`` keeps the whole block in arrays and hands back its
  completed instances in yield order, with their motif codes, which
  :func:`run_plan_blocks` passes on to array consumers as they are;
* the **Partial path** (every other run): one
  :meth:`ExtensionKernel.next_frontier` call per non-final level and
  one :meth:`ExtensionKernel.extend_frontier` call at the last.

Either way a scalar predicate filters the instance stream in one place,
and ``max_instances`` cuts it in one place.

Yield order is **bit-identical to the historical recursive DFS**, which
the library's counter key order, capped sample lists and seeded
consumers all depend on.  The equivalence: the old DFS popped a LIFO
stack where each pop pushed its admissible children in ascending event
order, and *only final-level states yield*.  Nothing is emitted at
intermediate depths, so the interleaving of subtrees is unobservable —
all that matters is the order final-level states are popped, and that
order rebuilds level-by-level: the pop order of depth ``d+1`` is, for
each depth-``d`` state in pop order, its children in **descending**
event order (LIFO reversal).  The driver maintains the frontier in
exactly this pop order and emits completions per final-level partial in
ascending event order — the DFS sequence, without the DFS.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import TYPE_CHECKING, Iterable, Iterator

import repro.obs as _obs
from repro.core._optional import import_numpy
from repro.engine.kernels import MAX_CODE_EVENTS, Partial
from repro.obs import labeled

np = import_numpy()

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.temporal_graph import TemporalGraph
    from repro.engine.plan import ExecutionPlan

Instance = tuple[int, ...]

#: Maximum roots expanded per frontier batch: large enough to feed
#: vectorized kernels whole-frontier sweeps while keeping the per-block
#: frontier memory-bounded.
ROOT_BLOCK = 2048

#: First block size.  Blocks grow geometrically from here to
#: :data:`ROOT_BLOCK`, so an early-terminating consumer (``next(...)``,
#: a small ``max_instances``) pays for a few dozen roots, not thousands,
#: while a full scan still amortizes kernel calls over large frontiers.
FIRST_BLOCK = 64


def _root_blocks(root_iter: Iterable[int]) -> Iterator[list[int]]:
    """Chunk roots into the driver's geometric block schedule."""
    block_cap = FIRST_BLOCK
    block: list[int] = []
    for root in root_iter:
        block.append(root)
        if len(block) >= block_cap:
            yield block
            block = []
            if block_cap < ROOT_BLOCK:
                block_cap *= 2
    if block:
        yield block


def _block_roots(roots: Iterable[int] | None, m: int) -> Iterator:
    """The block lane's root blocks, on :func:`_root_blocks`' schedule.

    A full scan (``roots is None``, i.e. ``range(m)``) or any other
    step-1 ``range`` slices ``arange`` blocks straight off the index
    range instead of collecting them root by root.
    """
    if roots is None:
        roots = range(m)
    if not (isinstance(roots, range) and roots.step == 1):
        yield from _root_blocks(roots)
        return
    start, end = roots.start, roots.stop
    block_cap = FIRST_BLOCK
    while start < end:
        stop = min(end, start + block_cap)
        yield np.arange(start, stop, dtype=np.int64)
        start = stop
        block_cap = min(2 * block_cap, ROOT_BLOCK)


def _observe_levels(stats, level_partials, level_ext) -> None:
    """Mirror the per-level frontier histograms for one expanded block.

    Matches the Partial-object path's cadence: the root level is always
    observed; a deeper level only if its frontier was non-empty (the
    level loop stops before observing an empty frontier).
    """
    rec, partials_metric, ext_metric = stats
    for d in range(len(level_partials)):
        if d > 0 and level_partials[d] == 0:
            break
        rec.observe(partials_metric, int(level_partials[d]))
        rec.observe(ext_metric, int(level_ext[d]))


def _bind_stats(plan: "ExecutionPlan"):
    """The run's observability triple, or ``None`` while obs is disabled.

    ``(registry, partials_metric, extensions_metric)``, bound once per
    run: the labeled metric names are built here, never per block or per
    level, and ``stats is None`` is the entire disabled-path cost of a
    block.  Counts the run in ``engine.run_plan.calls``.
    """
    rec = _obs.ACTIVE
    if rec is None:
        return None
    name = plan.kernel_name
    rec.inc(labeled("engine.run_plan.calls", kernel=name))
    return (
        rec,
        labeled("engine.frontier.partials", kernel=name),
        labeled("engine.frontier.extensions", kernel=name),
    )


def _lane_ready(kernel) -> bool:
    """Whether the kernel's block lane can serve this run.

    ``False`` for a kernel without one, and while tail appends are
    pending (``block_ready`` counts that demotion).
    """
    return hasattr(kernel, "grow_block") and kernel.block_ready()


def _lane_blocks(plan, kernel, graph, roots, stats):
    """The block lane: ``(rows, codes)`` per root block, in yield order.

    A restriction predicate with a row form (``predicate.rows``, see
    :mod:`repro.algorithms.restrictions`) filters each block with one
    mask; any other predicate is the caller's to apply per row.
    """
    row_filter = getattr(plan.predicate, "rows", None)
    for block_roots in _block_roots(roots, len(graph.storage)):
        rows, codes, level_partials, level_ext = kernel.grow_block(block_roots)
        if stats is not None:
            _observe_levels(stats, level_partials, level_ext)
        if row_filter is not None:
            keep = row_filter(graph, rows)
            rows = rows[keep]
            if codes is not None:
                codes = codes[keep]
        yield rows, codes


def _partial_instances(plan, kernel, roots, stats) -> Iterator[Instance]:
    """The Partial-object path: each root block grown one kernel call per level."""
    storage = kernel.storage
    m = len(storage)
    times = storage.times
    event_at = storage.event_at
    for block in _root_blocks(range(m) if roots is None else roots):
        frontier = []
        for root in block:
            ev = event_at(root)
            frontier.append(Partial((root,), (ev.u, ev.v), ev.t, ev.t))
        for _depth in range(1, plan.n_events - 1):
            if stats is not None:
                stats[0].observe(stats[1], len(frontier))
            # Next frontier in DFS pop order: parents keep their order,
            # each parent's children flip to descending (the LIFO
            # reversal).
            frontier = kernel.next_frontier(frontier, 0, m, times)
            if stats is not None:
                stats[0].observe(stats[2], len(frontier))
            if not frontier:
                break
        else:
            if stats is not None:
                stats[0].observe(stats[1], len(frontier))
            extensions = kernel.extend_frontier(frontier, 0, m, need_nodes=False)
            if stats is not None:
                stats[0].observe(stats[2], len(extensions))
            for pos, idx, _nodes in extensions:
                yield frontier[pos].seq + (idx,)


def run_plan(
    plan: "ExecutionPlan",
    graph: "TemporalGraph",
    *,
    roots: Iterable[int] | None = None,
    max_instances: int | None = None,
) -> Iterator[Instance]:
    """Enumerate every instance the plan admits, in serial DFS order.

    ``roots`` restricts the search to instances anchored at those event
    indices, in the order given (the sampling estimators' contract);
    ``max_instances`` stops the stream after that many yields.
    """
    predicate = plan.predicate
    storage = graph.storage
    if plan.n_events == 1:
        found = ((root,) for root in (range(len(storage)) if roots is None else roots))
    else:
        kernel = plan.bind(storage)
        stats = _bind_stats(plan)
        if _lane_ready(kernel):
            if getattr(predicate, "rows", None) is not None:
                predicate = None  # applied per block by the lane
            elif predicate is not None and stats is not None:
                stats[0].inc("engine.predicate.scalar")
            blocks = _lane_blocks(plan, kernel, graph, roots, stats)
            found = map(tuple, chain.from_iterable(rows.tolist() for rows, _codes in blocks))
        else:
            found = _partial_instances(plan, kernel, roots, stats)
    if predicate is not None:
        found = (inst for inst in found if predicate(graph, inst))
    yield from islice(found, max_instances)


def run_plan_blocks(
    plan: "ExecutionPlan",
    graph: "TemporalGraph",
    *,
    roots: Iterable[int] | None = None,
):
    """Array-shaped enumeration: instance blocks instead of tuples.

    Returns a generator of ``(rows, codes)`` pairs, one per root block:
    ``rows`` is an ``(n_i, n_events)`` int64 array, the rows
    concatenating to exactly :func:`run_plan`'s yield sequence, and
    ``codes`` the ``(n_i,)`` motif codes the kernel built while growing
    them (see :meth:`~repro.engine.kernels.NumpyExtensionKernel.grow_block`)
    — for consumers that fold instances with array ops (the batched
    census of :mod:`repro.algorithms.batched`).  A restriction
    predicate filters each block through its row form
    (``predicate.rows``, see :mod:`repro.algorithms.restrictions`).
    Returns ``None`` when the block lane cannot serve this run —
    single-event plans, motifs past
    :data:`~repro.engine.kernels.MAX_CODE_EVENTS`, a predicate without a
    row form, a kernel without a block path, or a storage whose banded
    arrays are pending — and the caller takes the tuple path.
    """
    if not 2 <= plan.n_events <= MAX_CODE_EVENTS:
        return None
    if plan.predicate is not None and getattr(plan.predicate, "rows", None) is None:
        return None
    kernel = plan.bind(graph.storage)
    if not _lane_ready(kernel):
        return None
    return _lane_blocks(plan, kernel, graph, roots, _bind_stats(plan))
