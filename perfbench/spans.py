"""Spans around the program's public functions, recorded from outside.

The traced run wraps each layer's public entry points under the name
its caller looks them up by (a module global, or a class attribute for
methods), so the program runs unchanged apart from the wrappers.  Spans
nest through one stack: a span's parent is the innermost span open when
it starts, so per-shard ``run_census`` calls hang under the outer
census span.  Spans stay in memory; :meth:`Tracer.dump` writes them out
once the run is over.

A layer's self time is its spans' durations minus the time their child
spans cover.  Set-up spans and op spans are kept apart by ``phase``.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import time
from collections import Counter, defaultdict


class Tracer:
    """In-memory spans and work counts of one traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.names: list[str] = []
        self.stack: list[int] = []
        self.phase = "setup"
        self.counts: Counter = Counter()
        self._patches: list[tuple] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _open(self, name: str) -> tuple[int, int]:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        self.names.append(name)
        self.stack.append(idx)
        return idx, parent

    def _close(self, idx: int, parent: int, t0: float) -> None:
        self.spans[idx] = (self.names[idx], t0, time.perf_counter(), parent, self.phase)
        self.stack.pop()

    def wrap(self, name: str, fn, on_return=None):
        """``fn`` recording one span per call; ``on_return`` counts work.

        ``on_return(args, result, nested)`` runs after the span closes;
        ``nested`` says whether the caller is a span of the same name
        (so a count is taken once per outermost call).
        """
        names = self.names

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, parent = self._open(name)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, parent, t0)
            if on_return is not None:
                on_return(args, result, parent >= 0 and names[parent] == name)
            return result

        return traced

    @contextlib.contextmanager
    def region(self, name: str):
        """A span around a block of the benchmark's own code."""
        idx, parent = self._open(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, parent, t0)

    def patch(self, owner, attr: str, name: str, on_return=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper until :meth:`unpatch`."""
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(name, raw.__func__, on_return))
        else:
            new = self.wrap(name, raw, on_return)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def count(self, key: str, n: float = 1) -> None:
        self.counts[(self.phase, key)] += n

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def self_times(self, phase: str) -> dict[str, float]:
        """Self seconds per span name in one phase."""
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                covered[span[3]] += span[2] - span[1]
        out: dict[str, float] = defaultdict(float)
        for idx, span in enumerate(self.spans):
            if span is not None and span[4] == phase:
                out[span[0]] += span[2] - span[1] - covered.get(idx, 0.0)
        return dict(out)

    def totals(self, phase: str) -> dict[str, float]:
        """Inclusive seconds per span name in one phase."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span is not None and span[4] == phase:
                out[span[0]] += span[2] - span[1]
        return dict(out)

    def calls(self, phase: str) -> Counter:
        return Counter(s[0] for s in self.spans if s is not None and s[4] == phase)

    def dump(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent, phase."""
        with gzip.open(path, "wt") as fh:
            for idx, span in enumerate(self.spans):
                if span is not None:
                    name, t0, t1, parent, phase = span
                    fh.write(json.dumps([idx, name, t0, t1, parent, phase]) + "\n")


def install_library_spans(tracer: Tracer) -> None:
    """Wrap every layer seam the in-process workloads cross."""
    import repro.algorithms.counting as counting
    import repro.algorithms.enumeration as enumeration
    import repro.engine as engine
    import repro.online.multiview as multiview
    import repro.parallel.engine as parallel_engine
    from repro.core.temporal_graph import TemporalGraph
    from repro.engine.kernels import ExtensionKernel, NumpyExtensionKernel
    from repro.online import MultiViewCensus
    from repro.storage.numpy_backend import NumpyStorage
    from repro.storage.partitioned import PartitionedStorage

    def count_census(args, census, nested):
        if not nested:
            tracer.count("algorithms.instances", census.total)

    def count_frontier(args, result, nested):
        if not nested:
            tracer.count("engine.partials", len(args[1]))
            tracer.count("engine.extensions", len(result))

    def count_shards(args, shards, nested):
        tracer.count("parallel.shards", len(shards))
        tracer.count("parallel.shard_events", sum(s.ev_hi - s.ev_lo for s in shards))
        tracer.count("parallel.graph_events", len(args[0]))

    for module in (counting, enumeration, engine, parallel_engine, multiview):
        tracer.patch(module, "compile_plan", "engine.compile")
    tracer.patch(counting, "run_census", "algorithms.fold", count_census)
    tracer.patch(ExtensionKernel, "extend_frontier", "engine.expand", count_frontier)
    tracer.patch(ExtensionKernel, "next_frontier", "engine.expand", count_frontier)
    tracer.patch(NumpyExtensionKernel, "next_frontier", "engine.expand", count_frontier)
    tracer.patch(NumpyStorage, "extension_arrays", "storage.index")
    tracer.patch(TemporalGraph, "count_node_events_in", "storage.query")
    tracer.patch(TemporalGraph, "count_edge_events_in", "storage.query")
    tracer.patch(TemporalGraph, "append", "storage.append")
    tracer.patch(parallel_engine, "plan_shards", "parallel.plan", count_shards)
    tracer.patch(parallel_engine, "plan_root_shards", "parallel.plan", count_shards)
    tracer.patch(PartitionedStorage, "shard_payload", "parallel.slice")
    tracer.patch(PartitionedStorage, "from_shard_payload", "parallel.slice")
    tracer.patch(parallel_engine, "merge_censuses", "parallel.merge")
    tracer.patch(MultiViewCensus, "push", "online.push")
    tracer.patch(MultiViewCensus, "prune", "online.prune")


def traced_predicate(tracer: Tracer, predicate):
    """A predicate that records a span per call and keeps its marks.

    ``functools.wraps`` copies the function's ``__dict__``, so the
    ``shard_safe`` mark survives and routing still picks time shards.
    """

    def count_pass(args, passed, nested):
        tracer.count("algorithms.predicate.passed", bool(passed))

    return tracer.wrap("algorithms.predicate", predicate, count_pass)
