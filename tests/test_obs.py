"""Tests for the observability layer (:mod:`repro.obs`).

Pins the contracts the rest of the stack builds on: the null-recorder
default records nothing anywhere, histogram/snapshot merges are
associative and commutative (so shard-worker snapshots fold in any
grouping), and an instrumented ``jobs>1`` census ships every worker's
registry back and merges it into the parent — per-shard timings
included.
"""

from __future__ import annotations

import json
import math
import random

import pytest

import repro.obs as obs
from repro.core.constraints import TimingConstraints
from repro.core.events import Event
from repro.core.temporal_graph import TemporalGraph
from repro.obs import (
    Histogram,
    MetricsRegistry,
    labeled,
    merge_snapshots,
    render_table,
    summarize_histogram,
)
from repro.obs.registry import _ZERO_BUCKET, _bucket, iter_layers

CONSTRAINTS = TimingConstraints(delta_c=40.0, delta_w=80.0)


@pytest.fixture(autouse=True)
def _null_recorder():
    """Every test starts and ends on the null recorder."""
    obs.disable()
    yield
    obs.disable()


def _graph(n: int = 300, nodes: int = 12, seed: int = 7) -> TemporalGraph:
    rng = random.Random(seed)
    events: list[tuple[int, int, float]] = []
    t = 0.0
    while len(events) < n:
        t += rng.random()
        u, v = rng.randrange(nodes), rng.randrange(nodes)
        if u != v:
            events.append((u, v, t))
    return TemporalGraph.from_tuples(events)


# ----------------------------------------------------------------------
# the registry primitives
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.inc("a.calls")
        reg.inc("a.calls", 4)
        reg.set_gauge("a.depth", 3)
        reg.set_gauge("a.depth", 2)  # last write wins
        reg.observe("a.sizes", 10.0)
        reg.observe("a.sizes", 20.0)
        assert reg.counters["a.calls"] == 5
        assert reg.gauges["a.depth"] == 2.0
        hist = reg.histograms["a.sizes"]
        assert hist.count == 2
        assert hist.mean == 15.0
        assert hist.vmin == 10.0
        assert hist.vmax == 20.0
        assert len(reg) == 3

    def test_labeled_renders_sorted_labels_into_name(self):
        assert labeled("a.b") == "a.b"
        assert labeled("a.b", k="x") == "a.b{k=x}"
        assert labeled("a.b", z=1, a="q") == "a.b{a=q,z=1}"

    def test_span_times_into_histogram(self):
        reg = MetricsRegistry()
        with reg.span("x.seconds"):
            pass
        with reg.span("x.seconds"):
            pass
        hist = reg.histograms["x.seconds"]
        assert hist.count == 2
        assert hist.vmin >= 0.0

    def test_snapshot_roundtrip_and_json(self):
        reg = MetricsRegistry()
        reg.inc("a.calls", 3)
        reg.set_gauge("a.depth", 7)
        for v in (0.0, 0.5, 3.0, 1e-9):
            reg.observe("a.sizes", v)
        snap = reg.snapshot()
        # JSON-clean (the --stats-json / BENCH sidecar contract).
        parsed = json.loads(json.dumps(snap))
        hist = Histogram.from_snapshot(parsed["histograms"]["a.sizes"])
        assert hist.count == 4
        assert hist.vmin == 0.0
        assert hist.vmax == 3.0
        assert hist.buckets == reg.histograms["a.sizes"].buckets
        assert json.loads(reg.to_json())["counters"]["a.calls"] == 3

    def test_clear(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.observe("b", 1)
        reg.clear()
        assert len(reg) == 0

    def test_iter_layers_groups_by_prefix(self):
        reg = MetricsRegistry()
        reg.inc("storage.x")
        reg.set_gauge("online.y", 1)
        reg.observe("engine.z", 1)
        assert list(iter_layers(reg.snapshot())) == ["engine", "online", "storage"]

    def test_render_table_mentions_every_metric(self):
        reg = MetricsRegistry()
        reg.inc("storage.calls", 2)
        reg.observe("online.push.seconds", 0.001)
        text = render_table(reg.snapshot())
        assert "[storage]" in text and "[online]" in text
        assert "storage.calls" in text
        assert "online.push.seconds" in text
        assert render_table(MetricsRegistry().snapshot()).endswith(
            "(no metrics recorded)"
        )


# ----------------------------------------------------------------------
# histogram bucket encoding and merge algebra
# ----------------------------------------------------------------------
class TestHistogram:
    def test_bucket_edges_are_powers_of_two(self):
        # bucket e covers [2**(e-1), 2**e)
        assert _bucket(1.0) == 1
        assert _bucket(1.999) == 1
        assert _bucket(2.0) == 2
        assert _bucket(0.5) == 0
        assert _bucket(0.0) == _ZERO_BUCKET
        assert _bucket(-3.0) == _ZERO_BUCKET

    def test_quantiles_clamp_to_exact_extremes(self):
        hist = Histogram()
        for v in (0.1, 0.2, 0.4, 0.8, 100.0):
            hist.observe(v)
        assert hist.quantile(0.0) == 0.1
        assert hist.quantile(1.0) == 100.0
        # interior quantiles land on a bucket edge within the range
        assert 0.1 <= hist.quantile(0.5) <= 100.0

    def test_empty_histogram_quantile_is_nan(self):
        assert math.isnan(Histogram().quantile(0.5))
        assert summarize_histogram(Histogram().to_snapshot()) == {"count": 0}

    @staticmethod
    def _random_histogram(seed: int, n: int = 200) -> Histogram:
        rng = random.Random(seed)
        hist = Histogram()
        for _ in range(n):
            hist.observe(rng.random() * 10 ** rng.randrange(-6, 4))
        return hist

    def test_merge_is_associative_and_commutative(self):
        a, b, c = (self._random_histogram(s) for s in (1, 2, 3))

        def merged(parts):
            out = Histogram()
            for part in parts:
                out.merge(part)
            return out.to_snapshot()

        left = Histogram()
        left.merge(a)
        left.merge(b)
        ab_c = Histogram()
        ab_c.merge(left)
        ab_c.merge(c)
        bc = Histogram()
        bc.merge(b)
        bc.merge(c)
        a_bc = Histogram()
        a_bc.merge(a)
        a_bc.merge(bc)
        assert ab_c.to_snapshot() == a_bc.to_snapshot()  # associative
        assert merged([a, b, c]) == merged([c, b, a])  # commutative
        assert merged([a, b, c]) == merged([b, a, c])

    def test_merge_snapshots_matches_inline_recording(self):
        """Recording everything in one registry == merging per-part snapshots."""
        rng = random.Random(11)
        values = [rng.random() * 100 for _ in range(300)]
        whole = MetricsRegistry()
        parts = [MetricsRegistry() for _ in range(4)]
        for i, v in enumerate(values):
            whole.observe("x.sizes", v)
            whole.inc("x.calls")
            parts[i % 4].observe("x.sizes", v)
            parts[i % 4].inc("x.calls")
        merged = merge_snapshots(p.snapshot() for p in parts)
        assert merged["counters"] == whole.snapshot()["counters"]
        got = merged["histograms"]["x.sizes"]
        want = whole.snapshot()["histograms"]["x.sizes"]
        assert got["buckets"] == want["buckets"]
        assert got["count"] == want["count"]
        assert got["min"] == want["min"]
        assert got["max"] == want["max"]
        # summation order differs between the two paths, so the exact
        # totals may differ in the last ulps
        assert got["total"] == pytest.approx(want["total"])

    def test_merge_gauges_keep_peak(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.set_gauge("q.depth", 5)
        b.set_gauge("q.depth", 9)
        assert merge_snapshots([a.snapshot(), b.snapshot()])["gauges"] == {
            "q.depth": 9.0
        }
        assert merge_snapshots([b.snapshot(), a.snapshot()])["gauges"] == {
            "q.depth": 9.0
        }


# ----------------------------------------------------------------------
# the null-recorder default
# ----------------------------------------------------------------------
class TestNullRecorder:
    def test_disabled_by_default_and_span_is_shared_noop(self):
        assert obs.ACTIVE is None
        assert not obs.enabled()
        assert obs.span("a") is obs.span("b")  # one shared object
        with obs.span("a"):
            pass  # no-op, no error

    def test_enable_is_idempotent_disable_resets(self):
        r1 = obs.enable()
        r2 = obs.enable()
        assert r1 is r2
        custom = MetricsRegistry()
        assert obs.enable(custom) is custom
        assert obs.active() is custom
        obs.disable()
        assert obs.active() is None

    def test_disabled_instrumentation_records_nothing(self):
        """Instrumented hot paths leave a detached registry untouched."""
        from repro.algorithms.counting import run_census
        from repro.online import OnlineCensus

        reg = obs.enable()
        obs.disable()
        graph = _graph()
        run_census(graph, 3, CONSTRAINTS, max_nodes=3)
        engine = OnlineCensus(3, CONSTRAINTS, 60.0, max_nodes=3, prune_every=64)
        for event in graph.events:
            engine.push(event)
        engine.prune()
        assert len(reg) == 0
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


# ----------------------------------------------------------------------
# instrumented layers, end to end
# ----------------------------------------------------------------------
class TestInstrumentedLayers:
    def test_serial_census_records_storage_and_engine(self):
        from repro.algorithms.counting import run_census
        from repro.engine import clear_plan_cache, compile_plan

        graph = _graph()
        reg = obs.enable()
        clear_plan_cache()
        compile_plan(3, CONSTRAINTS, None, graph.storage, max_nodes=3)
        compile_plan(3, CONSTRAINTS, None, graph.storage, max_nodes=3)
        assert reg.counters["engine.plan.cache_miss"] == 1
        assert reg.counters["engine.plan.cache_hit"] == 1

        census = run_census(graph, 3, CONSTRAINTS, max_nodes=3)
        assert census.total > 0
        snap = reg.snapshot()
        assert "engine" in set(iter_layers(snap))
        run_keys = [
            k for k in snap["counters"] if k.startswith("engine.run_plan.calls")
        ]
        assert run_keys
        kernel = run_keys[0].split("kernel=")[1].rstrip("}")
        frontier_key = labeled("engine.frontier.partials", kernel=kernel)
        assert snap["histograms"][frontier_key]["count"] > 0
        if kernel == "generic":
            # the generic kernel's candidate seam lives in storage; the
            # vectorized kernel batches through extension_arrays instead
            assert snap["counters"]["storage.adjacent_events_between.calls"] > 0

    def test_online_engine_gauges_and_counters(self):
        from repro.online import OnlineCensus

        graph = _graph(n=400)
        reg = obs.enable()
        engine = OnlineCensus(3, CONSTRAINTS, 60.0, max_nodes=3, prune_every=128)
        for event in graph.events:
            engine.push(event)
        snap = reg.snapshot()
        push = snap["histograms"]["online.push.seconds"]
        assert push["count"] == len(graph) == engine.pushed
        assert snap["counters"]["online.expire.retired"] == engine.expired
        assert snap["counters"]["online.push.instances"] == engine.discovered
        assert snap["counters"]["online.prune.dropped"] > 0
        assert snap["histograms"]["online.prune.seconds"]["count"] >= 1
        # The incremental entries gauge matches a from-scratch recount.
        store = engine._mv._prefixes
        recount = sum(len(prefixes) for _t, prefixes in store._buckets.values())
        assert store.entries == recount
        assert snap["gauges"]["online.prefix_store.entries"] == store.entries
        assert snap["gauges"]["online.expiry_heap.depth"] == len(engine._view.heap)
        summary = summarize_histogram(push)
        assert summary["count"] == engine.pushed
        assert summary["p50"] <= summary["p99"] <= summary["max"]

    def test_online_counts_identical_with_and_without_obs(self):
        from repro.online import OnlineCensus

        graph = _graph(n=350, seed=13)

        def replay():
            engine = OnlineCensus(3, CONSTRAINTS, 60.0, max_nodes=3, prune_every=64)
            for event in graph.events:
                engine.push(event)
            return engine.census()

        plain = replay()
        obs.enable()
        instrumented = replay()
        assert instrumented.code_counts == plain.code_counts
        assert instrumented.total == plain.total

    def test_batched_push_records_once_per_batch(self):
        """push_many records its batch metrics once per batch, the lane
        split only when the lane served it; single pushes keep theirs."""
        pytest.importorskip("numpy")
        from repro.online import MultiViewCensus
        from repro.online.multiview import LANE_MIN_BATCH

        events = _graph(n=LANE_MIN_BATCH + 40).events
        registry = MetricsRegistry()
        engine = MultiViewCensus(3, CONSTRAINTS, 60.0, max_nodes=3, registry=registry)
        engine.add_view("all", 60.0)
        engine.push_many(events[:LANE_MIN_BATCH])  # the lane
        engine.push_many(events[LANE_MIN_BATCH:-1])  # the per-event loop
        snap = registry.snapshot()
        hists = snap["histograms"]
        assert hists["online.multiview.push_batch.seconds"]["count"] == 2
        batch_events = hists["online.multiview.push_batch.events"]
        assert batch_events["count"] == 2 and batch_events["total"] == len(events) - 1
        assert hists["online.push.discover.seconds"]["count"] == 1
        assert hists["online.push.fold.seconds"]["count"] == 1
        assert "online.multiview.push.seconds" not in hists
        assert snap["counters"]["online.multiview.push.instances"] == engine.discovered > 0
        engine.push(events[-1])
        hists = registry.snapshot()["histograms"]
        assert hists["online.multiview.push.seconds"]["count"] == 1
        assert hists["online.multiview.push_batch.seconds"]["count"] == 2

    def test_stream_matcher_shed_counter(self):
        from repro.algorithms.pattern import chain_pattern
        from repro.algorithms.streaming import StreamMatcher

        pattern = chain_pattern(2)
        reg = obs.enable()
        matcher = StreamMatcher(pattern, delta_w=1000.0, max_partials=2)
        for i in range(30):
            matcher.push(Event(i % 5, (i + 1) % 5, float(i)))
        assert matcher.shed > 0
        assert reg.counters["streaming.matcher.shed"] == matcher.shed


# ----------------------------------------------------------------------
# parallel: worker snapshots merge into the parent registry
# ----------------------------------------------------------------------
class TestParallelMerge:
    def test_jobs_run_merges_worker_snapshots(self):
        from repro.algorithms.counting import run_census

        graph = _graph(n=500, seed=21)
        serial = run_census(graph, 3, CONSTRAINTS, max_nodes=3)

        reg = obs.enable()
        parallel = run_census(graph, 3, CONSTRAINTS, max_nodes=3, jobs=4)
        assert parallel.code_counts == serial.code_counts  # instrumentation inert

        snap = reg.snapshot()
        n_shards = int(snap["gauges"]["parallel.shards"])
        assert n_shards >= 1
        # One wall-time observation per shard — the per-shard timings of
        # the merged snapshot.
        for metric in (
            "parallel.shard.seconds",
            "parallel.shard.queue_wait_seconds",
            "parallel.shard.events",
            "parallel.shard.payload_bytes",
            "parallel.slice.seconds",
        ):
            assert snap["histograms"][metric]["count"] == n_shards, metric
        assert snap["gauges"]["parallel.jobs"] == 4.0
        assert snap["counters"][labeled("parallel.execute.calls", kind="census")] == 1
        # Worker-side metrics (recorded inside shard processes) made it
        # back into the parent registry through the snapshot merge: the
        # drivers' run_plan counters only ever increment inside workers
        # on this code path.
        worker_keys = [
            k for k in snap["counters"] if k.startswith("engine.run_plan.calls")
        ]
        assert worker_keys
        assert sum(snap["counters"][k] for k in worker_keys) >= n_shards

    def test_serial_shards_slice_the_parent_and_ship_nothing(self, tmp_path):
        pytest.importorskip("numpy")
        from repro.algorithms.counting import run_census

        graph = _graph(n=500, seed=21)
        graph.save(tmp_path, partition_events=64)
        paged = TemporalGraph.load(tmp_path)
        reg = obs.enable()
        census = run_census(paged, 3, CONSTRAINTS, max_nodes=3, jobs=1)
        assert census.code_counts == run_census(graph, 3, CONSTRAINTS, max_nodes=3).code_counts

        snap = reg.snapshot()
        n_shards = int(snap["gauges"]["parallel.shards"])
        assert n_shards > 1
        # One storage build per shard, each a slice of the parent: no
        # payload is built, so none is sized.
        slices = snap["histograms"]["parallel.slice.seconds"]
        assert slices["count"] == n_shards
        assert 0 < slices["total"] <= snap["histograms"]["parallel.shard.seconds"]["total"]
        assert "parallel.shard.payload_bytes" not in snap["histograms"]

    def test_worker_snapshot_merge_is_order_independent(self):
        """Shard snapshots fold to identical totals in any order/grouping."""
        rng = random.Random(5)
        snaps = []
        for w in range(4):
            worker = MetricsRegistry()
            worker.inc("storage.calls", rng.randrange(1, 50))
            # dyadic values sum exactly in any order, so the equality
            # below is exact rather than last-ulp-approximate
            worker.observe("parallel.shard.seconds", rng.randrange(1, 800) / 8)
            worker.set_gauge("online.depth", rng.randrange(100))
            snaps.append(worker.snapshot())
        direct = merge_snapshots(snaps)
        reversed_ = merge_snapshots(reversed(snaps))
        assert direct == reversed_
        # grouped: ((s0+s1) + (s2+s3)) == flat fold
        grouped = merge_snapshots(
            [merge_snapshots(snaps[:2]), merge_snapshots(snaps[2:])]
        )
        assert grouped == direct


# ----------------------------------------------------------------------
# the REPRO_OBS environment opt-in
# ----------------------------------------------------------------------
class TestEnvOptIn:
    """``REPRO_OBS`` falsy spellings must not enable the recorder.

    Any-non-empty-is-truthy parsing once meant ``REPRO_OBS=false``
    silently *enabled* observability; :func:`repro.obs.env_enabled` pins
    the fixed semantics.
    """

    @pytest.mark.parametrize("value", [None, "", "0", "false", "no", "off"])
    def test_falsy_values_stay_disabled(self, value):
        assert obs.env_enabled(value) is False

    @pytest.mark.parametrize(
        "value", ["FALSE", "No", "OFF", " false ", "\t0\n", "  "]
    )
    def test_falsy_values_case_and_space_insensitive(self, value):
        assert obs.env_enabled(value) is False

    @pytest.mark.parametrize("value", ["1", "true", "yes", "on", "anything"])
    def test_truthy_values_enable(self, value):
        assert obs.env_enabled(value) is True

    @pytest.mark.parametrize(
        "value, expect", [("false", "False"), ("0", "False"), ("1", "True")]
    )
    def test_import_time_gate(self, value, expect):
        """The import-time opt-in honors the parse (fresh interpreter)."""
        import os
        import subprocess
        import sys

        env = dict(os.environ, REPRO_OBS=value)
        env["PYTHONPATH"] = "src"
        out = subprocess.run(
            [sys.executable, "-c", "import repro.obs as o; print(o.enabled())"],
            capture_output=True,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == expect
