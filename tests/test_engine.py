"""The unified execution engine: plans, kernels, drivers, parity.

Three layers of guarantees:

* **plan units** — :func:`repro.engine.compile_plan` resolves node caps,
  shard safety and deadline arithmetic exactly once, caches hashable
  configurations, and pickles (the parallel engine ships plans to shard
  workers);
* **kernel differential** — Hypothesis suites asserting parity between
  the generic kernel (``kernel="generic"``, the lane's independent
  oracle) and the vectorized NumPy kernel's block lane, on every
  registered storage backend;
* **consumer bit-identity** — ``run_census`` (per backend, forced
  kernels, precompiled plans) and ``OnlineCensus`` (push-by-push against
  the batch window, through snapshot/restore) produce identical output,
  key order included — the refactor-parity contract of the engine PR.
"""

from __future__ import annotations

import math
import pickle
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.counting import run_census
from repro.algorithms.enumeration import enumerate_instances, is_instance
from repro.algorithms.restrictions import (
    combine,
    is_static_induced,
    satisfies_cdg,
    satisfies_consecutive_events,
)
from repro.core.constraints import TimingConstraints
from repro.core.events import Event
from repro.core.temporal_graph import TemporalGraph
from repro.engine import (
    ExecutionPlan,
    ExtensionKernel,
    Partial,
    clear_plan_cache,
    compile_plan,
    is_shard_safe,
    run_plan,
    run_plan_blocks,
)
from repro.online import OnlineCensus
from repro.storage import available_backends, get_backend

BACKENDS = tuple(b for b in ("list", "columnar", "numpy") if b in available_backends())

requires_numpy_backend = pytest.mark.skipif(
    "numpy" not in BACKENDS, reason="the numpy storage backend is not registered"
)


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
def event_lists(max_nodes=5, max_events=18):
    """Tie- and burst-heavy sorted event lists (the admission corners)."""
    step = st.tuples(
        st.integers(0, max_nodes - 1),
        st.integers(0, max_nodes - 1),
        st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0, 5.0]),
    ).filter(lambda e: e[0] != e[1])

    def build(steps):
        t = 0.0
        events = []
        for u, v, dt in steps:
            t += dt
            events.append(Event(u, v, t))
        events.sort(key=lambda e: (e.t, e.u, e.v))
        return events

    return st.lists(step, min_size=1, max_size=max_events).map(build)


configs = st.tuples(
    st.sampled_from([2, 3, 3, 4]),          # n_events
    st.sampled_from([2.0, 4.0, None]),      # delta_c
    st.sampled_from([6.0, 12.0, None]),     # delta_w
    st.sampled_from([None, 3]),             # max_nodes
)


def _constraints(delta_c, delta_w) -> TimingConstraints:
    if delta_c is None and delta_w is None:
        return TimingConstraints(delta_w=8.0)
    return TimingConstraints(delta_c=delta_c, delta_w=delta_w)


def _prefix_partials(graph: TemporalGraph, j: int, constraints, max_nodes):
    """Every live ``j``-event partial of ``graph``, as engine Partials."""
    event_at = graph.storage.event_at
    out = []
    for inst in enumerate_instances(graph, j, constraints, max_nodes=max_nodes):
        nodes: tuple[int, ...] = ()
        for idx in inst:
            ev = event_at(idx)
            for n in (ev.u, ev.v):
                if n not in nodes:
                    nodes = nodes + (n,)
        out.append(
            Partial(inst, nodes, event_at(inst[0]).t, event_at(inst[-1]).t)
        )
    return out


# ----------------------------------------------------------------------
# plan compilation units
# ----------------------------------------------------------------------
class TestCompilePlan:
    def test_node_cap_defaults_to_connected_growth_bound(self):
        plan = compile_plan(3, TimingConstraints.only_w(10.0))
        assert plan.node_cap == 4
        capped = compile_plan(3, TimingConstraints.only_w(10.0), max_nodes=3)
        assert capped.node_cap == 3

    def test_rejects_empty_motifs(self):
        with pytest.raises(ValueError):
            compile_plan(0, TimingConstraints.only_w(10.0))

    def test_deadline_matches_constraints_arithmetic(self):
        for delta_c, delta_w in ((2.0, None), (None, 7.5), (1.5, 4.0), (None, None)):
            constraints = TimingConstraints(delta_c=delta_c, delta_w=delta_w)
            plan = compile_plan(3, constraints)
            for t_root, t_last in ((0.0, 0.0), (1.0, 3.5), (2.25, 2.25), (0.1, 7.3)):
                assert plan.deadline(t_root, t_last) == (
                    constraints.next_event_deadline(t_root, t_last)
                )

    def test_infinite_bounds_resolved(self):
        plan = compile_plan(3, TimingConstraints.only_c(2.0))
        assert plan.delta_c == 2.0
        assert math.isinf(plan.delta_w)
        assert plan.delta == 4.0  # (m-1) * delta_c

    def test_shard_safety_resolution(self):
        constraints = TimingConstraints.only_w(10.0)
        assert compile_plan(3, constraints).shard_safe
        assert compile_plan(3, constraints, satisfies_consecutive_events).shard_safe

        def opaque(graph, inst):  # pragma: no cover - never called
            return True

        assert not compile_plan(3, constraints, opaque).shard_safe
        assert is_shard_safe(None)
        assert not is_shard_safe(opaque)

    def test_every_backend_binds_the_numpy_kernel(self):
        # One rule, whatever the storage: the numpy kernel wherever
        # NumPy imports, the generic kernel where it does not.
        constraints = TimingConstraints.only_w(10.0)
        expected = "numpy" if "numpy" in BACKENDS else "generic"
        for backend in BACKENDS:
            storage = get_backend(backend).from_events(
                [Event(0, 1, 1.0)], presorted=True
            )
            plan = compile_plan(3, constraints, None, storage)
            assert plan.kernel_name == "numpy"
            assert plan.bind(storage).kernel_name == expected

    def test_unknown_kernel_name_is_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            compile_plan(3, TimingConstraints.only_w(10.0), kernel="definitely-not-a-kernel")

    def test_explicit_kernel_override(self):
        storage = get_backend(BACKENDS[0]).from_events(
            [Event(0, 1, 1.0)], presorted=True
        )
        plan = compile_plan(
            3, TimingConstraints.only_w(10.0), None, storage, kernel="generic"
        )
        assert plan.kernel_name == "generic"
        assert type(plan.bind(storage)) is ExtensionKernel

    def test_session_cache_reuses_plans(self):
        clear_plan_cache()
        constraints = TimingConstraints(delta_c=3.0, delta_w=9.0)
        first = compile_plan(3, constraints, satisfies_consecutive_events)
        second = compile_plan(3, constraints, satisfies_consecutive_events)
        assert first is second
        different = compile_plan(
            3, constraints, satisfies_consecutive_events, max_nodes=3
        )
        assert different is not first

    def test_unhashable_restriction_still_compiles(self):
        import functools

        unhashable = functools.partial(lambda bad, g, i: True, [1, 2])
        plan = compile_plan(3, TimingConstraints.only_w(10.0), unhashable)
        assert plan.predicate is unhashable

    def test_plan_pickles_for_shard_workers(self):
        plan = compile_plan(
            3,
            TimingConstraints(delta_c=2.0, delta_w=6.0),
            satisfies_consecutive_events,
            max_nodes=3,
        )
        clone = pickle.loads(pickle.dumps(plan))
        assert isinstance(clone, ExecutionPlan)
        assert clone.node_cap == plan.node_cap
        assert clone.kernel_name == plan.kernel_name
        assert clone.deadline(1.0, 2.0) == plan.deadline(1.0, 2.0)
        assert clone.predicate is satisfies_consecutive_events


# ----------------------------------------------------------------------
# kernel differential: generic vs numpy, across backends
# ----------------------------------------------------------------------
class TestKernelParity:
    @settings(max_examples=60, deadline=None)
    @given(event_lists(), configs, st.integers(1, 3))
    def test_generic_kernel_agrees_across_backends(self, events, config, j):
        n_events, delta_c, delta_w, max_nodes = config
        if j >= n_events:
            j = n_events - 1 or 1
        constraints = _constraints(delta_c, delta_w)
        reference = None
        for backend in BACKENDS:
            graph = TemporalGraph(events, backend=backend)
            plan = compile_plan(
                n_events,
                constraints,
                None,
                graph.storage,
                max_nodes=max_nodes,
                kernel="generic",
            )
            partials = _prefix_partials(graph, j, constraints, max_nodes)
            kernel = plan.bind(graph.storage)
            result = kernel.extend_frontier(partials)
            if reference is None:
                reference = result
            else:
                assert result == reference

    @requires_numpy_backend
    @settings(max_examples=60, deadline=None)
    @given(event_lists(), configs, st.integers(1, 3))
    def test_numpy_kernel_matches_generic(self, events, config, j):
        n_events, delta_c, delta_w, max_nodes = config
        if j >= n_events:
            j = n_events - 1 or 1
        constraints = _constraints(delta_c, delta_w)
        graph = TemporalGraph(events, backend="numpy")
        partials = _prefix_partials(graph, j, constraints, max_nodes)
        generic = compile_plan(
            n_events,
            constraints,
            None,
            graph.storage,
            max_nodes=max_nodes,
            kernel="generic",
        ).bind(graph.storage)
        vectorized = compile_plan(
            n_events,
            constraints,
            None,
            graph.storage,
            max_nodes=max_nodes,
            kernel="numpy",
        ).bind(graph.storage)
        assert vectorized.kernel_name == "numpy"
        assert vectorized.extend_frontier(partials) == generic.extend_frontier(partials)
        # need_nodes=False drops only the node tuples, nothing else.
        lean = vectorized.extend_frontier(partials, need_nodes=False)
        assert [(p, i) for p, i, _ in lean] == [
            (p, i) for p, i, _ in generic.extend_frontier(partials)
        ]

    @requires_numpy_backend
    @pytest.mark.parametrize("max_nodes", [1, 2])
    @pytest.mark.parametrize("n_events", [2, 3])
    def test_numpy_kernel_survives_degenerate_node_caps(self, n_events, max_nodes):
        # A root always carries two nodes, so max_nodes=1 partials exceed
        # the cap from the start; the scalar rule still admits extensions
        # that introduce no node, and the vectorized pad must be sized by
        # the partials, not the cap.
        from repro.algorithms.counting import count_motifs

        events = [(0, 1, 1.0), (1, 0, 2.0), (0, 1, 2.5), (1, 2, 3.0), (0, 1, 4.0)]
        constraints = TimingConstraints.only_w(10.0)
        reference = count_motifs(
            TemporalGraph(events, backend="list"),
            n_events,
            constraints,
            max_nodes=max_nodes,
        )
        vectorized = count_motifs(
            TemporalGraph(events, backend="numpy"),
            n_events,
            constraints,
            max_nodes=max_nodes,
        )
        assert vectorized == reference
        assert list(vectorized) == list(reference)

    @requires_numpy_backend
    def test_numpy_kernel_falls_back_while_tail_pending(self):
        graph = TemporalGraph([(0, 1, 1.0), (1, 2, 2.0)], backend="numpy")
        graph.append(Event(0, 2, 3.0))  # lands in the un-banded tail
        constraints = TimingConstraints.only_w(10.0)
        plan = compile_plan(3, constraints, None, graph.storage)
        partials = _prefix_partials(graph, 1, constraints, None)
        kernel = plan.bind(graph.storage)
        generic = compile_plan(
            3, constraints, None, graph.storage, kernel="generic"
        ).bind(graph.storage)
        assert kernel.extend_frontier(partials) == generic.extend_frontier(partials)


# ----------------------------------------------------------------------
# numpy block lane: whole root blocks over arrays, no Partial objects
# ----------------------------------------------------------------------
#: Node-id relabelings: the admission arrays must not assume small,
#: non-negative ids (node tables hold dense slots, never the ids).
NODE_IDS = {
    "small": lambda n: n,
    "negative": lambda n: -5 - 3 * n,
    "above 2**40": lambda n: 2**40 + 11 * n,
}


def _even_last(graph, inst) -> bool:
    return inst[-1] % 2 == 0


@requires_numpy_backend
class TestNumpyBlockLane:
    @settings(max_examples=80, deadline=None)
    @given(
        event_lists(),
        st.integers(2, 5),
        st.sampled_from([None, 1, 2, 3]),
        st.sampled_from([2.0, 4.0, None]),
        st.sampled_from(sorted(NODE_IDS)),
        st.data(),
    )
    def test_expand_block_rows_match_generic_run_plan(
        self, events, n_events, max_nodes, delta_c, ids, data
    ):
        relabel = NODE_IDS[ids]
        graph = TemporalGraph(
            [Event(relabel(e.u), relabel(e.v), e.t) for e in events], backend="numpy"
        )
        constraints = _constraints(delta_c, 8.0)

        def plan_for(kernel, predicate=None):
            return compile_plan(
                n_events,
                constraints,
                predicate,
                graph.storage,
                max_nodes=max_nodes,
                kernel=kernel,
            )

        generic = plan_for("generic")
        vectorized = plan_for("numpy")
        kernel = vectorized.bind(graph.storage)
        assert kernel.kernel_name == "numpy"
        assert kernel.block_ready()
        m = len(graph)
        order = data.draw(st.permutations(range(m)))
        k = data.draw(st.integers(1, m))
        for roots in (list(range(m)), sorted(order[:k]), list(order[:k])):
            expected = list(run_plan(generic, graph, roots=roots))
            rows, _codes, level_partials, level_ext = kernel.grow_block(roots)
            assert rows.shape == (len(expected), n_events)
            assert str(rows.dtype) == "int64"
            assert [tuple(row) for row in rows.tolist()] == expected
            assert int(level_partials[0]) == len(roots)
            assert int(level_ext[-1]) == len(expected)
            assert list(run_plan(vectorized, graph, roots=roots)) == expected
        cap = data.draw(st.integers(1, 6))
        assert list(run_plan(vectorized, graph, max_instances=cap)) == list(
            run_plan(generic, graph, max_instances=cap)
        )
        # Predicate plans take the lane through run_plan, filtered per row.
        for predicate in (satisfies_consecutive_events, _even_last):
            assert list(run_plan(plan_for("numpy", predicate), graph)) == list(
                run_plan(plan_for("generic", predicate), graph)
            )

    def test_block_whose_intermediate_frontier_empties(self):
        # Two-event partials exist, but no third event falls inside any
        # of their windows: the block stops at its second level.
        events = [(0, 1, 1.0), (1, 2, 2.0), (3, 4, 50.0), (4, 5, 51.0)]
        constraints = TimingConstraints(delta_c=2.0, delta_w=4.0)
        graph = TemporalGraph(events, backend="numpy")
        plan = compile_plan(4, constraints, None, graph.storage, kernel="numpy")
        kernel = plan.bind(graph.storage)
        assert kernel.block_ready()
        rows, _codes, level_partials, level_ext = kernel.grow_block([0, 1, 2, 3])
        assert rows.shape == (0, 4)
        assert level_partials.tolist() == [4, 2, 0]
        assert level_ext.tolist() == [2, 0, 0]
        assert list(run_plan(plan, graph)) == []

    def test_frontier_histograms_match_the_partial_path(self, monkeypatch):
        import random

        import repro.obs as obs
        from repro.engine import ROOT_BLOCK, NumpyExtensionKernel, driver

        # Enough roots for several geometric blocks; sparse enough that
        # some blocks' frontiers empty before the final level.
        rng = random.Random(7)
        t = 0.0
        events = []
        for _ in range(600):
            t += rng.choice([0.0, 0.5, 1.0, 3.0, 9.0])
            u, v = rng.sample(range(12), 2)
            events.append((u, v, t))
        graph = TemporalGraph(events, backend="numpy")
        constraints = TimingConstraints(delta_c=2.0, delta_w=5.0)

        def histograms(kernel, blocks=False):
            plan = compile_plan(
                4, constraints, None, graph.storage, max_nodes=3, kernel=kernel
            )
            registry = obs.enable(obs.MetricsRegistry())
            try:
                if blocks:
                    for _rows in run_plan_blocks(plan, graph):
                        pass
                else:
                    list(run_plan(plan, graph))
            finally:
                obs.disable()
            snap = registry.snapshot()
            assert not any(key.startswith("engine.kernel.demote") for key in snap["counters"])
            return [
                (snap["histograms"][key]["count"], snap["histograms"][key]["total"])
                for key in (
                    f"engine.frontier.partials{{kernel={kernel}}}",
                    f"engine.frontier.extensions{{kernel={kernel}}}",
                )
            ]

        reference = histograms("generic")
        # run_plan_blocks drains its run, so its schedule starts at
        # ROOT_BLOCK: the generic path on that schedule is its reference.
        with monkeypatch.context() as patch:
            patch.setattr(driver, "FIRST_BLOCK", ROOT_BLOCK)
            drained_reference = histograms("generic")

        def partial_path(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("the block lane fell back to Partial objects")

        # The numpy kernel must take the block lane on both entry points.
        monkeypatch.setattr(NumpyExtensionKernel, "next_frontier", partial_path)
        monkeypatch.setattr(NumpyExtensionKernel, "extend_frontier", partial_path)
        assert histograms("numpy") == reference
        assert histograms("numpy", blocks=True) == drained_reference

    def test_grow_seconds_histogram_times_each_root_block(self):
        import random
        import time

        import repro.obs as obs
        from repro.engine.driver import ROOT_BLOCK, _block_roots

        rng = random.Random(11)
        t = 0.0
        events = []
        for _ in range(3000):
            t += rng.choice([0.0, 1.0, 2.0, 5.0])
            u, v = rng.sample(range(40), 2)
            events.append((u, v, t))
        graph = TemporalGraph(events, backend="numpy")
        # The census drains its run: blocks of ROOT_BLOCK roots from the start.
        n_blocks = len(list(_block_roots(None, len(graph), ROOT_BLOCK)))
        assert n_blocks == math.ceil(len(graph) / ROOT_BLOCK) > 1
        registry = obs.enable(obs.MetricsRegistry())
        try:
            start = time.perf_counter()
            census = run_census(graph, 3, TimingConstraints(delta_c=4.0, delta_w=8.0))
            wall = time.perf_counter() - start
        finally:
            obs.disable()
        assert census.total > 0
        grow = registry.snapshot()["histograms"]["engine.grow.seconds{kernel=numpy}"]
        assert grow["count"] == n_blocks
        assert 0 < grow["total"] <= wall

    def test_admit_counters_count_gathered_and_admitted_candidates(self):
        import random

        import repro.obs as obs

        rng = random.Random(5)
        t = 0.0
        events = []
        for _ in range(800):
            t += rng.choice([0.0, 1.0, 2.0, 5.0])
            u, v = rng.sample(range(15), 2)
            events.append((u, v, t))
        graph = TemporalGraph(events, backend="numpy")
        constraints = TimingConstraints(delta_c=4.0, delta_w=8.0)
        registry = obs.enable(obs.MetricsRegistry())
        try:
            census = run_census(graph, 3, constraints, max_nodes=3)
        finally:
            obs.disable()
        snap = registry.snapshot()
        candidates = snap["counters"]["engine.admit.candidates{kernel=numpy}"]
        admitted = snap["counters"]["engine.admit.admitted{kernel=numpy}"]
        extensions = snap["histograms"]["engine.frontier.extensions{kernel=numpy}"]
        assert census.total > 0
        assert admitted == extensions["total"]
        # Open partials find each event once per shared node: duplicates.
        assert candidates > admitted


class TestRangeRoots:
    """A step-1 ``range`` of roots (a shard's owned anchors) stays a range."""

    def test_normalize_keeps_step_one_ranges(self):
        from repro.algorithms.counting import _normalize_roots

        owned = range(3, 900)
        assert _normalize_roots(owned) == (owned, True)
        assert _normalize_roots(range(0, 9, 2)) == ([0, 2, 4, 6, 8], True)
        assert _normalize_roots(range(5, 0, -1)) == ([5, 4, 3, 2, 1], False)

    @pytest.mark.parametrize("lo, hi", [(0, 0), (0, 5000), (7, 7), (70, 4321)])
    def test_range_blocks_follow_the_list_schedule(self, lo, hi):
        from repro.engine.driver import _block_roots, _root_blocks

        blocks = list(_block_roots(range(lo, hi), hi))
        expected = list(_root_blocks(list(range(lo, hi))))
        assert [b.tolist() for b in blocks] == expected
        if lo == 0:
            assert [b.tolist() for b in _block_roots(None, hi)] == expected

    @requires_numpy_backend
    @pytest.mark.parametrize("predicate", [None, satisfies_cdg])
    def test_range_roots_census_matches_list_roots(self, predicate):
        import random

        rng = random.Random(11)
        t, events = 0.0, []
        for _ in range(700):
            t += rng.choice([0.0, 0.5, 1.0, 2.0])
            u, v = rng.sample(range(15), 2)
            events.append((u, v, t))
        graph = TemporalGraph(events, backend="numpy")
        constraints = _constraints(2.0, 4.0)
        roots = range(40, 650)

        def census(r):
            return run_census(graph, 3, constraints, predicate=predicate, roots=r)

        by_range, by_list = census(roots), census(list(roots))
        assert by_range.total > 0
        assert list(by_range.code_counts.items()) == list(by_list.code_counts.items())


@requires_numpy_backend
class TestEarlyTermination:
    """An early-stopping consumer grows one ``FIRST_BLOCK`` of roots, no more."""

    @pytest.fixture(scope="class")
    def graph(self):
        import random

        rng = random.Random(5)
        t, events = 0.0, []
        for _ in range(6000):
            t += rng.choice([0.0, 0.5, 1.0, 2.0])
            u, v = rng.sample(range(20), 2)
            events.append((u, v, t))
        return TemporalGraph(events, backend="numpy")

    @pytest.mark.parametrize("kernel", ["numpy", "generic"])
    @pytest.mark.parametrize("stop", ["next", "max_instances"])
    def test_first_instance_grows_one_first_block(self, monkeypatch, graph, kernel, stop):
        from repro.engine import NumpyExtensionKernel
        from repro.engine.driver import FIRST_BLOCK

        plan = compile_plan(3, _constraints(2.0, 4.0), None, graph.storage, kernel=kernel)
        grown: list[int] = []
        if kernel == "numpy":
            grow_block = NumpyExtensionKernel.grow_block

            def counted(self, roots):
                grown.append(len(roots))
                return grow_block(self, roots)

            monkeypatch.setattr(NumpyExtensionKernel, "grow_block", counted)
        else:
            # The Partial path's first kernel call per block takes the
            # block's root partials.
            next_frontier = ExtensionKernel.next_frontier

            def counted(self, partials, times):
                if all(len(p.seq) == 1 for p in partials):
                    grown.append(len(partials))
                return next_frontier(self, partials, times)

            monkeypatch.setattr(ExtensionKernel, "next_frontier", counted)

        if stop == "next":
            first = [next(run_plan(plan, graph))]
        else:
            first = list(run_plan(plan, graph, max_instances=1))
        assert len(graph) >= 5000
        assert grown == [FIRST_BLOCK]
        monkeypatch.undo()
        assert first == list(run_plan(plan, graph, max_instances=1))
        assert first[0] == next(iter(run_plan(plan, graph)))


@requires_numpy_backend
def test_drained_blocks_start_at_root_block(monkeypatch):
    """run_plan_blocks' consumers drain it: no FIRST_BLOCK ramp."""
    import random

    from repro.engine import ROOT_BLOCK, NumpyExtensionKernel

    rng = random.Random(3)
    t, events = 0.0, []
    for _ in range(5000):
        t += rng.choice([0.0, 0.5, 1.0, 2.0])
        u, v = rng.sample(range(20), 2)
        events.append((u, v, t))
    graph = TemporalGraph(events, backend="numpy")
    plan = compile_plan(3, _constraints(2.0, 4.0), None, graph.storage, kernel="numpy")
    grown: list[int] = []
    grow_block = NumpyExtensionKernel.grow_block

    def counted(self, roots):
        grown.append(len(roots))
        return grow_block(self, roots)

    monkeypatch.setattr(NumpyExtensionKernel, "grow_block", counted)
    rows = [r for r, _codes in run_plan_blocks(plan, graph)]
    m = len(graph)
    assert len(grown) == math.ceil(m / ROOT_BLOCK) > 1
    assert grown == [ROOT_BLOCK] * (len(grown) - 1) + [m - ROOT_BLOCK * (len(grown) - 1)]
    monkeypatch.undo()
    assert [tuple(r) for block in rows for r in block.tolist()] == list(run_plan(plan, graph))


# ----------------------------------------------------------------------
# predicated block lane: restriction row forms filter whole blocks
# ----------------------------------------------------------------------
ROW_PREDICATES = {
    "consecutive events": satisfies_consecutive_events,
    "cdg": satisfies_cdg,
    "both": combine(satisfies_cdg, satisfies_consecutive_events),
}


@requires_numpy_backend
class TestPredicatedBlockLane:
    @settings(max_examples=25, deadline=None)
    @given(
        event_lists(max_events=16),
        configs,
        st.sampled_from(sorted(ROW_PREDICATES)),
        st.sampled_from(sorted(NODE_IDS)),
        st.integers(1, 8),
    )
    def test_predicated_census_matches_list_backend(
        self, events, config, name, ids, cap
    ):
        import tempfile

        n_events, delta_c, delta_w, max_nodes = config
        constraints = _constraints(delta_c, delta_w)
        predicate = ROW_PREDICATES[name]
        relabel = NODE_IDS[ids]
        events = [Event(relabel(e.u), relabel(e.v), e.t) for e in events]
        limits = dict(max_nodes=max_nodes, predicate=predicate)
        options = dict(limits, collect_timespans=True, collect_positions=True)

        def census_of(graph, jobs=1):
            census = run_census(graph, n_events, constraints, jobs=jobs, **options)
            return _census_key(census), census.timespans, census.intermediate_positions

        reference = TemporalGraph(events, backend="list")
        expected = census_of(reference)
        graph = TemporalGraph(events, backend="numpy")
        plan = compile_plan(
            n_events, constraints, predicate, graph.storage, max_nodes=max_nodes
        )
        assert run_plan_blocks(plan, graph) is not None
        assert census_of(graph, jobs=1) == expected
        assert census_of(graph, jobs=2) == expected
        with tempfile.TemporaryDirectory() as tmp:
            graph.save(tmp + "/pages", partition_events=4)
            assert census_of(TemporalGraph.load(tmp + "/pages")) == expected
        assert list(
            enumerate_instances(graph, n_events, constraints, max_instances=cap, **limits)
        ) == list(
            enumerate_instances(reference, n_events, constraints, max_instances=cap, **limits)
        )

    def test_scalar_fallback_is_counted(self):
        import repro.obs as obs

        events = [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0), (2, 0, 4.0), (1, 0, 5.0)]
        graph = TemporalGraph(events, backend="numpy")
        constraints = TimingConstraints(delta_c=3.0, delta_w=6.0)

        def scalar_count(predicate):
            plan = compile_plan(3, constraints, predicate, graph.storage, kernel="numpy")
            registry = obs.enable(obs.MetricsRegistry())
            try:
                first = list(run_plan(plan, graph))
                second = list(run_plan(plan, graph))
                assert first == second
            finally:
                obs.disable()
            return registry.counters.get("engine.predicate.scalar", 0)

        assert scalar_count(is_static_induced) == 2
        assert scalar_count(satisfies_consecutive_events) == 0
        assert scalar_count(None) == 0
        # The block entry point filters such a predicate row by row.
        plan = compile_plan(3, constraints, is_static_induced, graph.storage)
        rows = [tuple(r) for block, _codes in run_plan_blocks(plan, graph) for r in block]
        assert rows == list(run_plan(plan, graph))

    def test_row_filter_is_timed_once_per_block(self):
        import time

        import repro.obs as obs
        from repro.engine.driver import ROOT_BLOCK, _block_roots

        events = [(i % 7, (i % 7 + 1 + i % 3) % 7, float(i // 2)) for i in range(5000)]
        graph = TemporalGraph(events, backend="numpy")
        constraints = TimingConstraints(delta_c=3.0, delta_w=6.0)
        n_blocks = len(list(_block_roots(None, len(graph), ROOT_BLOCK)))
        assert n_blocks > 1

        def histograms(predicate):
            plan = compile_plan(3, constraints, predicate, graph.storage)
            registry = obs.enable(obs.MetricsRegistry())
            try:
                start = time.perf_counter()
                for _block in run_plan_blocks(plan, graph):
                    pass
                wall = time.perf_counter() - start
            finally:
                obs.disable()
            found = registry.snapshot()["histograms"]
            return {
                name: (hist["count"], hist["total"] <= wall)
                for name, hist in found.items()
                if name.startswith("algorithms.predicate.")
            }

        name = "algorithms.predicate.rows.seconds{predicate=%s}"
        assert histograms(satisfies_consecutive_events) == {
            name % "satisfies_consecutive_events": (n_blocks, True)
        }
        # A predicate without a row form: the per-row fallback is timed too.
        assert histograms(is_static_induced) == {
            name % "is_static_induced": (n_blocks, True)
        }
        assert histograms(None) == {}


# ----------------------------------------------------------------------
# block-lane motif codes: built during expansion, read by the fold
# ----------------------------------------------------------------------
def _loop_graph(events, backend):
    """A graph that keeps self-loop events (validation rejects them)."""
    from repro.core.events import validate_events
    from repro.storage import get_backend

    events = validate_events(events, allow_loops=True)
    return TemporalGraph._from_storage(get_backend(backend)(events, presorted=True))


@requires_numpy_backend
class TestBlockLaneCodes:
    @settings(max_examples=80, deadline=None)
    @given(
        event_lists(),
        st.integers(2, 5),
        st.sampled_from([None, 1, 2, 3]),
        st.sampled_from([2.0, 4.0, None]),
        st.sampled_from(sorted(NODE_IDS)),
    )
    def test_every_lane_code_is_the_canonical_code_of_its_row(
        self, events, n_events, max_nodes, delta_c, ids
    ):
        from repro.core.notation import canonical_code

        relabel = NODE_IDS[ids]
        graph = TemporalGraph(
            [Event(relabel(e.u), relabel(e.v), e.t) for e in events], backend="numpy"
        )
        plan = compile_plan(
            n_events,
            _constraints(delta_c, 8.0),
            None,
            graph.storage,
            max_nodes=max_nodes,
        )
        edges = [ev.edge for ev in graph.events]
        seen = 0
        for rows, codes in run_plan_blocks(plan, graph):
            assert str(codes.dtype) == "int64"
            assert codes.shape == (len(rows),)
            for row, code in zip(rows.tolist(), codes.tolist()):
                assert str(code).zfill(2 * n_events) == canonical_code([edges[i] for i in row])
            seen += len(rows)
        assert seen == len(list(run_plan(plan, graph)))

    def test_self_loop_census_raises_like_the_list_backend(self):
        # Instances through the loop (1, 1) have no motif code: the block
        # lane must raise the serial encoder's error, while plain
        # enumeration (no codes) still yields them.
        events = [(0, 1, 1.0), (1, 1, 2.0), (1, 2, 3.0), (2, 0, 4.0)]
        constraints = TimingConstraints(delta_c=3.0, delta_w=8.0)
        errors = []
        for backend in ("list", "numpy"):
            graph = _loop_graph(events, backend)
            with pytest.raises(ValueError, match="self-loop") as caught:
                run_census(graph, 3, constraints)
            errors.append(str(caught.value))
        assert errors[0] == errors[1]
        instances = {
            backend: list(enumerate_instances(_loop_graph(events, backend), 3, constraints))
            for backend in ("list", "numpy")
        }
        assert instances["numpy"] == instances["list"]
        assert (0, 1, 2) in instances["numpy"]


def looped_event_lists(max_events=14):
    """Sorted event lists on 2-4 node ids, self-loops and ties included."""

    def steps(n_ids):
        step = st.tuples(
            st.integers(0, n_ids - 1),
            st.integers(0, n_ids - 1),
            st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0]),
        )
        return st.lists(step, min_size=1, max_size=max_events)

    def build(raw):
        t = 0.0
        events = []
        for u, v, dt in raw:
            t += dt
            events.append((u, v, t))
        return events

    return st.integers(2, 4).flatmap(steps).map(build)


@requires_numpy_backend
class TestBlockLaneLoopsAndCaps:
    """Self-loops through the block lane, most partials at the node cap."""

    @settings(max_examples=60, deadline=None)
    @given(
        looped_event_lists(),
        st.integers(2, 4),
        st.sampled_from([None, 1, 2, 3]),
        st.sampled_from([2.0, 4.0, None]),
        st.sampled_from(sorted(NODE_IDS)),
        st.data(),
    )
    def test_grow_block_matches_generic_run_plan(
        self, events, n_events, max_nodes, delta_c, ids, data
    ):
        from repro.core.notation import canonical_code

        relabel = NODE_IDS[ids]
        graph = _loop_graph([(relabel(u), relabel(v), t) for u, v, t in events], "numpy")
        constraints = _constraints(delta_c, 8.0)

        def plan_for(n, kernel):
            return compile_plan(
                n, constraints, None, graph.storage, max_nodes=max_nodes, kernel=kernel
            )

        kernel = plan_for(n_events, "numpy").bind(graph.storage)
        assert kernel.block_ready()
        edges = [ev.edge for ev in graph.events]
        m = len(graph)
        subset = data.draw(st.permutations(range(m)))[: data.draw(st.integers(1, m))]
        for roots in (list(range(m)), sorted(subset)):
            # The generic j-event instances from these roots are exactly
            # the lane's frontier after j - 1 levels.
            prefixes = [
                list(run_plan(plan_for(j, "generic"), graph, roots=roots))
                for j in range(1, n_events + 1)
            ]
            rows, codes, level_partials, level_ext = kernel.grow_block(roots)
            assert [tuple(row) for row in rows.tolist()] == prefixes[-1]
            assert level_partials.tolist() == [len(p) for p in prefixes[:-1]]
            assert level_ext.tolist() == [len(p) for p in prefixes[1:]]
            for row, code in zip(rows.tolist(), codes.tolist()):
                row_edges = [edges[i] for i in row]
                if any(u == v for u, v in row_edges):
                    assert code == -1
                else:
                    assert str(code).zfill(2 * n_events) == canonical_code(row_edges)

    @settings(max_examples=60, deadline=None)
    @given(looped_event_lists(), st.sampled_from(sorted(NODE_IDS)))
    def test_endpoint_slots_match_searchsorted(self, events, ids):
        import numpy as np

        relabel = NODE_IDS[ids]
        looped = [(relabel(u), relabel(v), t) for u, v, t in events]
        # Always hold a self-loop, its endpoint listed once in the CSR.
        looped.append((relabel(0), relabel(0), looped[-1][2]))
        graph = _loop_graph(looped, "numpy")
        kernel = compile_plan(3, _constraints(2.0, 8.0), None, graph.storage).bind(
            graph.storage
        )
        assert kernel.block_ready()
        arrays = graph.storage.extension_arrays()
        block = kernel._block
        assert np.array_equal(block["su"], arrays["keys"].searchsorted(arrays["u"]))
        assert np.array_equal(block["sv"], arrays["keys"].searchsorted(arrays["v"]))
        assert block["loops"]


# ----------------------------------------------------------------------
# block-lane consumer parity: run_census on the numpy kernel vs generic
# ----------------------------------------------------------------------
PARITY_CONSTRAINTS = TimingConstraints(delta_c=3.0, delta_w=8.0)


@requires_numpy_backend
class TestNumpyBlockLaneParity:
    @settings(max_examples=40, deadline=None)
    @given(event_lists(), st.sampled_from([2, 3, 4]), st.sampled_from([None, 3]))
    def test_run_census_with_samples_bit_identical(self, events, n_events, max_nodes):
        graph = TemporalGraph(events, backend="numpy")
        kwargs = dict(
            max_nodes=max_nodes,
            collect_timespans=True,
            collect_positions=True,
            sample_cap=5,  # small enough that the strict cap is exercised
        )
        generic_plan = compile_plan(
            n_events,
            PARITY_CONSTRAINTS,
            None,
            graph.storage,
            max_nodes=max_nodes,
            kernel="generic",
        )
        reference = run_census(graph, n_events, PARITY_CONSTRAINTS, plan=generic_plan, **kwargs)
        lane = run_census(graph, n_events, PARITY_CONSTRAINTS, **kwargs)
        assert _census_key(lane) == _census_key(reference)
        assert lane.timespans == reference.timespans
        assert list(lane.timespans) == list(reference.timespans)
        assert lane.intermediate_positions == reference.intermediate_positions

    def test_sample_values_are_python_scalars(self):
        events = [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0), (2, 0, 4.0)]
        graph = TemporalGraph(events, backend="numpy")
        census = run_census(
            graph, 3, PARITY_CONSTRAINTS, collect_timespans=True, collect_positions=True
        )
        for bucket in census.timespans.values():
            assert all(type(x) is float for x in bucket)
        for bucket in census.intermediate_positions.values():
            assert all(type(pos) is int and type(rel) is float for pos, rel in bucket)

    def test_sample_code_filters_apply(self):
        events = [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0), (1, 0, 3.5), (2, 0, 4.0)]
        graph = TemporalGraph(events, backend="numpy")
        full = run_census(graph, 3, PARITY_CONSTRAINTS, collect_timespans=True)
        target = next(iter(full.timespans))
        filtered = run_census(
            graph, 3, PARITY_CONSTRAINTS, collect_timespans=True, timespan_codes=[target]
        )
        assert set(filtered.timespans) == {target}
        assert filtered.timespans[target] == full.timespans[target]

    @settings(max_examples=30, deadline=None)
    @given(event_lists(), st.sampled_from([2, 3, 4]))
    def test_total_instances_parity(self, events, n_events):
        graph = TemporalGraph(events, backend="numpy")
        reference = run_census(
            TemporalGraph(events, backend="list"), n_events, PARITY_CONSTRAINTS
        ).total
        assert run_census(graph, n_events, PARITY_CONSTRAINTS).total == reference

    @pytest.mark.parametrize("max_nodes", [1, 2])
    def test_degenerate_node_caps(self, max_nodes):
        # A root always carries two nodes, so max_nodes=1 exceeds the cap
        # from the start; only zero-new-node extensions may be admitted.
        events = [(0, 1, 1.0), (1, 0, 2.0), (0, 1, 2.5), (1, 2, 3.0), (0, 1, 4.0)]
        graph = TemporalGraph(events, backend="numpy")
        lane_plan = compile_plan(3, PARITY_CONSTRAINTS, None, graph.storage, max_nodes=max_nodes)
        generic_plan = compile_plan(
            3, PARITY_CONSTRAINTS, None, graph.storage, max_nodes=max_nodes, kernel="generic"
        )
        assert lane_plan.kernel_name == "numpy"
        assert list(run_plan(lane_plan, graph)) == list(run_plan(generic_plan, graph))

    def test_run_plan_blocks_contract(self):
        events = [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0), (2, 3, 4.0)]
        graph = TemporalGraph(events, backend="numpy")
        plan = compile_plan(3, PARITY_CONSTRAINTS, None, graph.storage)
        blocks = run_plan_blocks(plan, graph)
        assert blocks is not None
        rows = [tuple(row) for block, _codes in blocks for row in block.tolist()]
        assert rows == list(run_plan(plan, graph))
        # The lane refuses what it cannot serve bit-identically.
        for n_events in (1, 10):
            oversize = compile_plan(n_events, PARITY_CONSTRAINTS, None, graph.storage)
            assert run_plan_blocks(oversize, graph) is None
        # A predicate without a row form filters each block row by row.
        restricted = compile_plan(3, PARITY_CONSTRAINTS, _even_last, graph.storage)
        rows = [tuple(r) for block, _codes in run_plan_blocks(restricted, graph) for r in block]
        assert rows == list(run_plan(restricted, graph))
        assert rows == [inst for inst in run_plan(plan, graph) if inst[-1] % 2 == 0]

    def test_sharded_census_rebinds_plan_in_workers(self):
        # Plans pickle by kernel *name*; shard workers rebind it.
        events = [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0), (2, 3, 4.0), (1, 3, 5.0)]
        graph = TemporalGraph(events, backend="numpy")
        plan = compile_plan(3, PARITY_CONSTRAINTS, None, graph.storage)
        assert plan.kernel_name == "numpy"
        serial = run_census(graph, 3, PARITY_CONSTRAINTS, plan=plan)
        sharded = run_census(graph, 3, PARITY_CONSTRAINTS, plan=plan, jobs=2)
        assert _census_key(sharded) == _census_key(serial)


# ----------------------------------------------------------------------
# demotion: only without NumPy or int64 node ids, and countable
# ----------------------------------------------------------------------
DEMOTE = "engine.kernel.demote{from=numpy,to=generic}"


@requires_numpy_backend
class TestKernelDemotion:
    @pytest.fixture(autouse=True)
    def _fresh_resolution(self):
        import repro.obs as obs

        clear_plan_cache()
        obs.disable()
        yield
        clear_plan_cache()
        obs.disable()

    def test_numpy_resolves_to_generic_and_counts_once(self, monkeypatch):
        import repro.engine.kernels as kernels
        import repro.obs as obs
        from repro.core._optional import MissingNumpy

        storage = TemporalGraph([(0, 1, 1.0)], backend="numpy").storage
        plan = compile_plan(3, PARITY_CONSTRAINTS, None, storage)
        assert plan.kernel_name == "numpy"
        # NumPy missing at bind time: the generic kernel, one count per bind.
        monkeypatch.setattr(kernels, "np", MissingNumpy())
        registry = obs.enable()
        assert type(plan.bind(storage)) is ExtensionKernel
        assert registry.counters[DEMOTE] == 1

    def test_stale_plan_demotes_at_bind_time(self, monkeypatch):
        import repro.engine.kernels as kernels
        import repro.obs as obs
        from repro.core._optional import MissingNumpy

        events = [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)]
        graph = TemporalGraph(events, backend="numpy")
        plan = compile_plan(3, PARITY_CONSTRAINTS, None, graph.storage)
        assert plan.kernel_name == "numpy"
        # The plan outlives NumPy (a worker unpickling it where NumPy is
        # not installed): binding applies the rule again.
        monkeypatch.setattr(kernels, "np", MissingNumpy())
        registry = obs.enable()
        kernel = plan.bind(graph.storage)
        assert kernel.kernel_name == "generic"
        assert registry.counters[DEMOTE] == 1
        generic = compile_plan(3, PARITY_CONSTRAINTS, None, graph.storage, kernel="generic")
        assert list(run_plan(plan, graph)) == list(run_plan(generic, graph))

    def test_numpy_tail_pending_takes_the_lane(self):
        import repro.obs as obs

        graph = TemporalGraph([(0, 1, 1.0), (1, 2, 2.0)], backend="numpy")
        graph.append(Event(0, 2, 3.0))  # lands in the un-banded tail
        graph.append(Event(2, 1, 3.5))
        plan = compile_plan(3, PARITY_CONSTRAINTS, None, graph.storage)
        registry = obs.enable()
        blocks = run_plan_blocks(plan, graph)
        assert blocks is not None
        rows = [tuple(r) for block, _codes in blocks for r in block.tolist()]
        census = run_census(graph, 3, PARITY_CONSTRAINTS, plan=plan)
        assert DEMOTE not in registry.counters
        obs.disable()
        generic_plan = compile_plan(3, PARITY_CONSTRAINTS, None, graph.storage, kernel="generic")
        assert rows == list(run_plan(generic_plan, graph)) == list(run_plan(plan, graph))
        reference = run_census(graph, 3, PARITY_CONSTRAINTS, plan=generic_plan)
        assert _census_key(census) == _census_key(reference)
        assert census.total > 0

    @pytest.mark.parametrize("ids", [("a", "b", "c"), (2**70, 2**70 + 1, -(2**70))])
    def test_non_int64_node_ids_take_the_scalar_path_and_count_one_demotion(self, ids):
        import repro.obs as obs

        a, b, c = ids
        events = [(a, b, 1.0), (b, c, 2.0), (a, c, 3.0), (c, a, 4.0)]
        graph = TemporalGraph(events, backend="list")
        registry = obs.enable()
        census = run_census(graph, 3, PARITY_CONSTRAINTS, collect_timespans=True)
        assert registry.counters[DEMOTE] == 1
        assert registry.counters["engine.run_plan.calls{kernel=numpy}"] == 1
        obs.disable()
        generic_plan = compile_plan(3, PARITY_CONSTRAINTS, None, graph.storage, kernel="generic")
        reference = run_census(
            graph, 3, PARITY_CONSTRAINTS, collect_timespans=True, plan=generic_plan
        )
        assert _census_key(census) == _census_key(reference)
        assert census.timespans == reference.timespans
        assert census.total > 0


# ----------------------------------------------------------------------
# the lane on every backend, against the forced-generic reference
# ----------------------------------------------------------------------
LANE_PREDICATES = (
    None,
    satisfies_consecutive_events,
    satisfies_cdg,
    is_static_induced,
    _even_last,
)


def _samples_key(census):
    return _census_key(census), census.timespans, census.intermediate_positions


@requires_numpy_backend
class TestLaneOnEveryBackend:
    """Every storage takes the block lane; ``kernel="generic"`` is its oracle."""

    @settings(max_examples=30, deadline=None)
    @given(
        event_lists(),
        configs,
        st.sampled_from(sorted(NODE_IDS)),
        st.integers(1, 6),
        st.data(),
    )
    def test_lane_matches_generic(self, events, config, ids, cap, data):
        n_events, delta_c, delta_w, max_nodes = config
        constraints = _constraints(delta_c, delta_w)
        relabel = NODE_IDS[ids]
        events = [Event(relabel(e.u), relabel(e.v), e.t) for e in events]
        # Events past the split arrive by append: a pending tail on the
        # columnar and numpy backends.
        split = data.draw(st.integers(1, len(events)))
        options = dict(collect_timespans=True, collect_positions=True, sample_cap=5)

        def plan(graph, predicate, kernel=None):
            return compile_plan(
                n_events, constraints, predicate, graph.storage, max_nodes=max_nodes, kernel=kernel
            )

        for backend in BACKENDS:
            graph = TemporalGraph(events[:split], backend=backend)
            for event in events[split:]:
                graph.append(event)
            for predicate in LANE_PREDICATES:
                lane_plan = plan(graph, predicate)
                generic_plan = plan(graph, predicate, "generic")
                expected = list(run_plan(generic_plan, graph))
                assert list(run_plan(lane_plan, graph)) == expected
                assert list(run_plan(lane_plan, graph, max_instances=cap)) == expected[:cap]
                lane = run_census(graph, n_events, constraints, plan=lane_plan, **options)
                reference = run_census(graph, n_events, constraints, plan=generic_plan, **options)
                assert _samples_key(lane) == _samples_key(reference)
                assert list(lane.timespans) == list(reference.timespans)

    @pytest.mark.parametrize("backend", ["list", "columnar", "numpy"])
    def test_census_after_append_sees_the_new_event(self, backend):
        events = [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)]
        graph = TemporalGraph(events, backend=backend)
        before = run_census(graph, 3, PARITY_CONSTRAINTS)
        graph.append(Event(2, 0, 4.0))
        after = run_census(graph, 3, PARITY_CONSTRAINTS)
        generic = compile_plan(3, PARITY_CONSTRAINTS, None, graph.storage, kernel="generic")
        assert _census_key(after) == _census_key(
            run_census(graph, 3, PARITY_CONSTRAINTS, plan=generic)
        )
        assert after.total > before.total > 0

    def test_direct_partitioned_run_warns_once(self, tmp_path):
        import random
        import warnings

        from repro.storage.partitioned import write_partitioned

        rng = random.Random(2)
        t, events = 0.0, []
        for _ in range(60):
            t += rng.choice([0.0, 0.5, 1.0, 2.0])
            u, v = rng.sample(range(6), 2)
            events.append(Event(u, v, t))
        write_partitioned(events, tmp_path, partition_events=8)
        graph = TemporalGraph.load(tmp_path)
        assert graph.storage.n_partitions > 1
        reference = TemporalGraph(events, backend="list")

        def instances():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                found = list(enumerate_instances(graph, 3, PARITY_CONSTRAINTS))
            return found, [w for w in caught if "folds all" in str(w.message)]

        found, loud = instances()
        assert found == list(enumerate_instances(reference, 3, PARITY_CONSTRAINTS))
        assert len(loud) == 1 and "slice" in str(loud[0].message)
        assert instances() == (found, [])

    @pytest.mark.parametrize("backend", ["list", "columnar", "numpy"])
    def test_model_censuses_match_the_tuple_path(self, backend, small_sms):
        from repro.algorithms.counting import count_motifs
        from repro.algorithms.pattern import chain_pattern
        from repro.models.song import SongModel

        graph = small_sms.with_backend(backend)
        constraints = TimingConstraints.only_w(3000.0)
        song = SongModel(3000.0, pattern=chain_pattern(3, total=False))
        for predicate in (is_static_induced, song._restriction()):
            generic = compile_plan(3, constraints, predicate, graph.storage, kernel="generic")
            lane = count_motifs(graph, 3, constraints, predicate=predicate)
            reference = count_motifs(graph, 3, constraints, predicate=predicate, plan=generic)
            assert list(lane.items()) == list(reference.items())
            assert sum(lane.values()) > 0

    def test_stream_push_loop_builds_no_lane_columns(self, monkeypatch):
        import repro.engine.kernels as kernels
        from repro.online import MultiViewCensus

        def no_lane(storage):  # pragma: no cover - failure path
            raise AssertionError("a push built lane columns")

        monkeypatch.setattr(kernels, "lane_arrays", no_lane)
        for backend in BACKENDS:
            engine = MultiViewCensus(
                3, PARITY_CONSTRAINTS, 20.0, max_nodes=3, backend=backend, prune_every=4
            )
            engine.add_view("all", 20.0)
            for i in range(40):
                engine.push(Event(i % 5, (i % 5 + 1 + i % 3) % 5, float(i)))
            assert engine.pushed == 40


# ----------------------------------------------------------------------
# consumer bit-identity
# ----------------------------------------------------------------------
def _census_key(census):
    """Everything bit-identity covers: values *and* counter key order."""
    return (
        dict(census.code_counts),
        list(census.code_counts),
        dict(census.pair_counts),
        list(census.pair_counts),
        dict(census.pair_sequence_counts),
        list(census.pair_sequence_counts),
        census.total,
    )


class TestConsumerParity:
    @settings(max_examples=50, deadline=None)
    @given(event_lists(), configs)
    def test_run_census_identical_across_backends_and_kernels(self, events, config):
        n_events, delta_c, delta_w, max_nodes = config
        constraints = _constraints(delta_c, delta_w)
        reference = None
        for backend in BACKENDS:
            graph = TemporalGraph(events, backend=backend)
            census = run_census(graph, n_events, constraints, max_nodes=max_nodes)
            forced = run_census(
                graph,
                n_events,
                constraints,
                max_nodes=max_nodes,
                plan=compile_plan(
                    n_events,
                    constraints,
                    None,
                    graph.storage,
                    max_nodes=max_nodes,
                    kernel="generic",
                ),
            )
            assert _census_key(forced) == _census_key(census)
            if reference is None:
                reference = _census_key(census)
            else:
                assert _census_key(census) == reference

    @settings(max_examples=40, deadline=None)
    @given(event_lists(max_events=10), configs)
    def test_enumeration_matches_brute_force_oracle(self, events, config):
        n_events, delta_c, delta_w, max_nodes = config
        constraints = _constraints(delta_c, delta_w)
        graph = TemporalGraph(events)
        expected = [
            inst
            for inst in combinations(range(len(graph)), n_events)
            if is_instance(graph, inst, constraints, max_nodes=max_nodes)
        ]
        found = list(
            enumerate_instances(graph, n_events, constraints, max_nodes=max_nodes)
        )
        assert sorted(found) == expected
        assert len(set(found)) == len(found)

    def test_run_plan_respects_roots_and_max_instances(self):
        graph = TemporalGraph(
            [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0), (2, 3, 4.0), (3, 0, 5.0)]
        )
        constraints = TimingConstraints.only_w(10.0)
        plan = compile_plan(2, constraints, None, graph.storage)
        everything = list(run_plan(plan, graph))
        rooted = list(run_plan(plan, graph, roots=[1, 3]))
        assert rooted == [inst for inst in everything if inst[0] in (1, 3)]
        capped = list(run_plan(plan, graph, max_instances=3))
        assert capped == everything[:3]

    def test_explicit_plan_survives_the_parallel_path(self, monkeypatch):
        # A caller-supplied plan (forced kernel, precompiled reuse) must
        # ship to shard workers, not be silently recompiled away when
        # jobs resolve > 1 via argument, session default or REPRO_JOBS.
        import repro.parallel.engine as parallel_engine

        events = [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0), (2, 3, 4.0), (1, 3, 5.0)]
        constraints = TimingConstraints(delta_c=2.0, delta_w=6.0)
        graph = TemporalGraph(events)
        forced = compile_plan(
            3, constraints, None, graph.storage, max_nodes=3, kernel="generic"
        )
        serial = run_census(graph, 3, constraints, max_nodes=3, plan=forced)

        def no_recompile(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("parallel path recompiled a caller-supplied plan")

        monkeypatch.setattr(parallel_engine, "compile_plan", no_recompile)
        sharded = run_census(graph, 3, constraints, max_nodes=3, plan=forced, jobs=2)
        assert _census_key(sharded) == _census_key(serial)

    def test_explicit_plan_survives_parallel_enumeration(self):
        # The jobs>1 branch of enumerate_instances must honor the plan's
        # own predicate/node cap rather than the bare arguments.
        events = [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0), (2, 3, 4.0), (1, 3, 5.0)]
        constraints = TimingConstraints(delta_c=2.0, delta_w=6.0)
        graph = TemporalGraph(events)
        plan = compile_plan(
            3, constraints, satisfies_consecutive_events, graph.storage, max_nodes=3
        )
        serial = list(enumerate_instances(graph, 3, constraints, plan=plan))
        sharded = list(enumerate_instances(graph, 3, constraints, plan=plan, jobs=2))
        assert sharded == serial

    def test_parallel_api_rejects_unsorted_roots(self):
        from repro.parallel import parallel_run_census

        graph = TemporalGraph([(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])
        constraints = TimingConstraints.only_w(10.0)
        with pytest.raises(ValueError, match="non-decreasing roots"):
            parallel_run_census(graph, 2, constraints, roots=[2, 0], jobs=2, sample_cap=10)

    def test_precompiled_plan_reused_across_graphs(self):
        constraints = TimingConstraints(delta_c=2.0, delta_w=6.0)
        plan = compile_plan(3, constraints, max_nodes=3)
        for events in (
            [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)],
            [(3, 4, 0.0), (4, 5, 1.0), (3, 5, 1.5), (5, 3, 2.0)],
        ):
            graph = TemporalGraph(events)
            assert _census_key(
                run_census(graph, 3, constraints, max_nodes=3, plan=plan)
            ) == _census_key(run_census(graph, 3, constraints, max_nodes=3))

    @settings(max_examples=30, deadline=None)
    @given(event_lists(max_events=16), configs, st.sampled_from([3.0, 7.0, 15.0]))
    def test_online_census_matches_batch_window_after_every_push(
        self, events, config, window
    ):
        n_events, delta_c, delta_w, max_nodes = config
        constraints = _constraints(delta_c, delta_w)
        engine = OnlineCensus(
            n_events, constraints, window, max_nodes=max_nodes, prune_every=5
        )
        for count, event in enumerate(events, start=1):
            engine.push(event)
            window_graph = TemporalGraph(
                [e for e in events[:count] if e.t >= event.t - window]
            )
            batch = run_census(
                window_graph, n_events, constraints, max_nodes=max_nodes
            )
            assert engine.counts() == batch.code_counts
            assert engine.live_instances == batch.total

    def test_online_restore_regrows_through_engine(self, tmp_path):
        pytest.importorskip("numpy")
        constraints = TimingConstraints(delta_c=2.0, delta_w=6.0)
        events = [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0), (2, 3, 3.0)]
        events += [(3, 0, 4.5), (1, 3, 5.0), (0, 1, 6.0), (2, 0, 6.0)]
        twin = OnlineCensus(3, constraints, 5.0, max_nodes=3)
        engine = OnlineCensus(3, constraints, 5.0, max_nodes=3)
        for event in events[:5]:
            engine.push(event)
            twin.push(event)
        engine.snapshot(tmp_path / "ckpt")
        resumed = OnlineCensus.restore(tmp_path / "ckpt")
        for event in events[5:]:
            assert resumed.push(event) == twin.push(event)
        assert resumed.counts() == twin.counts()
        assert resumed.census().pair_sequence_counts == (
            twin.census().pair_sequence_counts
        )


# ----------------------------------------------------------------------
# counter-merge dedup (satellite): one implementation, pinned key order
# ----------------------------------------------------------------------
class TestMergeDedup:
    def test_merge_counts_is_merge_counters(self):
        from repro.algorithms.counting import merge_counters
        from repro.parallel import merge_counts
        from repro.parallel.merge import merge_counts as merge_counts_module

        assert merge_counts is merge_counters
        assert merge_counts_module is merge_counters

    def test_merge_preserves_first_appearance_key_order(self):
        from repro.algorithms.counting import merge_counters

        merged = merge_counters(
            [
                Counter({"0110": 2, "0101": 1}),
                Counter({"0102": 4, "0110": 1}),
                Counter({"0101": 5, "0121": 1}),
            ]
        )
        assert list(merged) == ["0110", "0101", "0102", "0121"]
        assert merged == Counter({"0110": 3, "0101": 6, "0102": 4, "0121": 1})
