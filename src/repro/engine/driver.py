"""The frontier driver: plans + kernels -> instances, in serial DFS order.

:func:`run_plan` walks roots in blocks and grows each block's frontier
level-synchronously, one :meth:`ExtensionKernel.extend_frontier` call
per level — so a vectorized kernel amortizes whole-frontier batches
while the generic kernel degenerates to the familiar per-partial loop.

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
    level loop returns before observing an empty frontier).
    """
    rec, partials_metric, ext_metric = stats
    for d in range(len(level_partials)):
        if d > 0 and level_partials[d] == 0:
            break
        rec.observe(partials_metric, int(level_partials[d]))
        rec.observe(ext_metric, int(level_ext[d]))


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
    m = len(storage)
    root_iter: Iterable[int] = range(m) if roots is None else roots
    yielded = 0

    if plan.n_events == 1:
        for root in root_iter:
            inst = (root,)
            if predicate is None or predicate(graph, inst):
                yield inst
                yielded += 1
                if max_instances is not None and yielded >= max_instances:
                    return
        return

    kernel = plan.bind(storage)
    times = storage.times
    event_at = storage.event_at
    # Observability binds once per run: the labeled metric names are built
    # here, never per block or per level, and ``stats is None`` is the
    # entire disabled-path cost inside ``_expand_block``.
    rec = _obs.ACTIVE
    stats = None
    if rec is not None:
        stats = (
            rec,
            labeled("engine.frontier.partials", kernel=plan.kernel_name),
            labeled("engine.frontier.extensions", kernel=plan.kernel_name),
        )
        rec.inc(labeled("engine.run_plan.calls", kernel=plan.kernel_name))

    # Whole-block lane (numpy kernel): the kernel grows each root block
    # to completion over arrays and hands back the completed instances
    # as an array in the exact DFS yield order — no Partial objects, no
    # intermediate triples.  A predicate with a row form filters each
    # block with one mask; any other predicate filters per row
    # (counted, so the scalar fallback shows in ``stats``).
    # Unavailable (tail appends pending; counted as a demotion) routes
    # to the Partial path below, unchanged.
    expand = getattr(kernel, "expand_block", None)
    if expand is not None and kernel.block_ready():
        row_filter = getattr(predicate, "rows", None)
        scalar = predicate if row_filter is None else None
        if scalar is not None and rec is not None:
            rec.inc("engine.predicate.scalar")
        for block_roots in _block_roots(roots, m):
            rows, level_partials, level_ext = expand(block_roots)
            if stats is not None:
                _observe_levels(stats, level_partials, level_ext)
            if row_filter is not None:
                rows = rows[row_filter(graph, rows)]
            for row in rows.tolist():
                inst = tuple(row)
                if scalar is not None and not scalar(graph, inst):
                    continue
                yield inst
                yielded += 1
                if max_instances is not None and yielded >= max_instances:
                    return
        return

    block_cap = FIRST_BLOCK
    block: list[Partial] = []
    for root in root_iter:
        ev = event_at(root)
        block.append(Partial((root,), (ev.u, ev.v), ev.t, ev.t))
        if len(block) >= block_cap:
            if max_instances is None:
                yield from _expand_block(plan, graph, kernel, block, times, m, stats)
            else:
                for inst in _expand_block(plan, graph, kernel, block, times, m, stats):
                    yield inst
                    yielded += 1
                    if yielded >= max_instances:
                        return
            block = []
            if block_cap < ROOT_BLOCK:
                block_cap *= 2
    if block:
        if max_instances is None:
            yield from _expand_block(plan, graph, kernel, block, times, m, stats)
        else:
            for inst in _expand_block(plan, graph, kernel, block, times, m, stats):
                yield inst
                yielded += 1
                if yielded >= max_instances:
                    return


def _expand_block(plan, graph, kernel, frontier, times, m, stats=None) -> Iterator[Instance]:
    """Grow one root block to completion, one kernel call per level.

    ``stats`` is the driver's pre-bound observability triple
    ``(registry, partials_metric, extensions_metric)`` — or ``None``
    (the default, and the disabled path's only per-level cost).
    """
    n = plan.n_events
    predicate = plan.predicate
    for depth in range(1, n):
        if stats is not None:
            stats[0].observe(stats[1], len(frontier))
        if depth == n - 1:
            extensions = kernel.extend_frontier(frontier, 0, m, need_nodes=False)
            if stats is not None:
                stats[0].observe(stats[2], len(extensions))
            if predicate is None:
                for pos, idx, _nodes in extensions:
                    yield frontier[pos].seq + (idx,)
            else:
                for pos, idx, _nodes in extensions:
                    inst = frontier[pos].seq + (idx,)
                    if predicate(graph, inst):
                        yield inst
            return
        # Next frontier in DFS pop order: parents keep their order, each
        # parent's children flip to descending (the LIFO reversal) —
        # fused with admission inside the kernel.
        frontier = kernel.next_frontier(frontier, 0, m, times)
        if stats is not None:
            stats[0].observe(stats[2], len(frontier))
        if not frontier:
            return


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
    row_filter = getattr(plan.predicate, "rows", None)
    if not 2 <= plan.n_events <= MAX_CODE_EVENTS:
        return None
    if plan.predicate is not None and row_filter is None:
        return None
    storage = graph.storage
    kernel = plan.bind(storage)
    grow = getattr(kernel, "grow_block", None)
    if grow is None or not kernel.block_ready():
        return None
    rec = _obs.ACTIVE
    stats = None
    if rec is not None:
        stats = (
            rec,
            labeled("engine.frontier.partials", kernel=plan.kernel_name),
            labeled("engine.frontier.extensions", kernel=plan.kernel_name),
        )
        rec.inc(labeled("engine.run_plan.calls", kernel=plan.kernel_name))

    def _blocks():
        for block_roots in _block_roots(roots, len(storage)):
            rows, codes, level_partials, level_ext = grow(block_roots)
            if stats is not None:
                _observe_levels(stats, level_partials, level_ext)
            if row_filter is not None:
                keep = row_filter(graph, rows)
                rows = rows[keep]
                codes = codes[keep]
            yield rows, codes

    return _blocks()
