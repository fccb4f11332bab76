"""Differential tests: every multi-view window vs an independent engine.

:class:`~repro.online.MultiViewCensus` shares one core (graph tail,
prefix store, compiled kernel, discovery ledger) across many views, so
its contract is pinned differentially: after every push, each exact
unsliced view's counters must be *bit-identical — counter key order
included —* to an independent single-window
:class:`~repro.online.OnlineCensus` replaying the same stream, and each
node-sliced view to an independent engine fed only its slice of the
stream.  The suite stresses the shapes the fan-out can get wrong:
tie-heavy bursty streams, heterogeneous window sets, views added and
dropped mid-stream (ledger backfill), ``prune()`` interleavings, and
every storage backend.

The tick-boundary warning tests pin the predicate-stability caveat:
restrictions that judge events at a motif's boundary timestamps warn
once per view when a stream actually carries a timestamp tie.
"""

from __future__ import annotations

import math
import random
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.restrictions import (
    combine,
    satisfies_cdg,
    satisfies_consecutive_events,
)
from repro.core.constraints import TimingConstraints
from repro.core.events import Event
from repro.core.notation import canonical_code
from repro.online import MultiViewCensus, OnlineCensus
from repro.online import multiview as multiview_module
from repro.storage import available_backends
from tests.test_online import event_streams, tie_free_streams

BACKENDS = tuple(b for b in ("list", "columnar", "numpy") if b in available_backends())

#: The window palette shared by every strategy (small enough that a
#: mid-stream add can be checked against a from-the-start oracle).
WINDOW_PALETTE = (3.0, 7.0, 15.0)

CONSTRAINTS = TimingConstraints(delta_c=3.0, delta_w=6.0)


def _ordered(counter) -> list:
    """Counter items *in key order* — the bit-identity the suite pins."""
    return list(counter.items())


def _make_oracles(windows, *, backend=None, prune_every=None):
    return {
        w: OnlineCensus(
            3, CONSTRAINTS, w, max_nodes=3, backend=backend, prune_every=prune_every
        )
        for w in set(windows)
    }


def assert_fanout_parity(events, windows, *, backend=None, prune_at=(), **mv_kwargs):
    """All views registered up front; ordered parity after every push."""
    engine = MultiViewCensus(
        3, CONSTRAINTS, max(windows), max_nodes=3, backend=backend, **mv_kwargs
    )
    for i, w in enumerate(windows):
        engine.add_view(f"view-{i}", w)
    oracles = _make_oracles(windows, backend=backend)
    for idx, ev in enumerate(events):
        engine.push(ev)
        if idx in prune_at:
            engine.prune()
        for i, w in enumerate(windows):
            oracle = oracles[w]
            if oracle.pushed <= idx:
                oracle.push(ev)
            assert _ordered(engine.counts(f"view-{i}")) == _ordered(oracle.counts())
    return engine


window_sets = st.lists(
    st.sampled_from(WINDOW_PALETTE), min_size=1, max_size=4
)


# ----------------------------------------------------------------------
# the core differential property
# ----------------------------------------------------------------------
@given(event_streams(), window_sets)
@settings(max_examples=50, deadline=None)
def test_every_view_matches_independent_engine(events, windows):
    assert_fanout_parity(events, windows)


@pytest.mark.parametrize("backend", BACKENDS)
@given(events=event_streams(max_events=14), windows=window_sets)
@settings(max_examples=10, deadline=None)
def test_fanout_parity_on_every_backend(backend, events, windows):
    engine = assert_fanout_parity(events, windows, backend=backend)
    assert engine.graph.backend == backend


@given(event_streams(max_events=16), window_sets, st.sets(st.integers(0, 15)))
@settings(max_examples=20, deadline=None)
def test_fanout_parity_survives_prune_interleavings(events, windows, prune_at):
    """Explicit prune() at arbitrary stream positions, plus auto-prune."""
    assert_fanout_parity(events, windows, prune_at=prune_at, prune_every=3)


# ----------------------------------------------------------------------
# views added and dropped mid-stream
# ----------------------------------------------------------------------
@given(
    event_streams(max_events=18),
    st.lists(
        st.tuples(
            st.integers(0, 17),                    # stream position
            st.sampled_from(["add", "drop"]),
            st.sampled_from(WINDOW_PALETTE),
        ),
        max_size=6,
    ),
)
@settings(max_examples=30, deadline=None)
def test_views_added_and_dropped_mid_stream(events, schedule):
    """Unbounded retention: a backfilled add is bit-identical to an
    oracle that watched the stream from the start, and stays identical
    on every later push; drops detach a view without disturbing others.
    """
    engine = MultiViewCensus(3, CONSTRAINTS, math.inf, max_nodes=3)
    oracles = _make_oracles(WINDOW_PALETTE)
    live: dict[str, float] = {}
    engine.add_view("view-0", WINDOW_PALETTE[-1])
    live["view-0"] = WINDOW_PALETTE[-1]
    n_added = 1
    by_position: dict[int, list] = {}
    for pos, action, window in schedule:
        by_position.setdefault(pos, []).append((action, window))
    for idx, ev in enumerate(events):
        engine.push(ev)
        for oracle in oracles.values():
            oracle.push(ev)
        for action, window in by_position.get(idx, ()):
            if action == "add":
                name = f"view-{n_added}"
                n_added += 1
                engine.add_view(name, window, backfill=True)
                live[name] = window
            elif live:
                name = sorted(live)[0]
                assert engine.drop_view(name) is True
                del live[name]
                with pytest.raises(KeyError):
                    engine.counts(name)
        for name, window in live.items():
            assert _ordered(engine.counts(name)) == _ordered(oracles[window].counts())
    assert set(engine.view_names()) == set(live)


def test_finite_retention_backfill_counter_equality():
    """With a finite ledger horizon the backfilled view still agrees
    with a from-the-start oracle as a Counter (key order may differ:
    the oracle's expired-then-reinserted keys re-enter at the tail)."""
    rng = random.Random(3)
    t = 0.0
    events = []
    for _ in range(300):
        t += rng.choice([0.0, 1.0, 1.0, 2.0])
        u, v = rng.randrange(6), rng.randrange(6)
        if u == v:
            v = (v + 1) % 6
        events.append(Event(u, v, t))
    events.sort(key=lambda e: (e.t, e.u, e.v))

    engine = MultiViewCensus(3, CONSTRAINTS, 15.0, max_nodes=3)
    oracle = OnlineCensus(3, CONSTRAINTS, 7.0, max_nodes=3)
    cut = len(events) // 2
    for ev in events[:cut]:
        engine.push(ev)
        oracle.push(ev)
    engine.add_view("late", 7.0, backfill=True)
    assert engine.counts("late") == oracle.counts()
    for ev in events[cut:]:
        engine.push(ev)
        oracle.push(ev)
        assert engine.counts("late") == oracle.counts()


# ----------------------------------------------------------------------
# node-sliced and restricted views
# ----------------------------------------------------------------------
@given(event_streams(max_nodes=6, max_events=20), st.sets(st.integers(0, 5), min_size=2, max_size=4))
@settings(max_examples=30, deadline=None)
def test_sliced_view_matches_filtered_stream_engine(events, nodes):
    """A node-sliced view == an independent engine fed only events with
    both endpoints inside the slice (clock kept in step for expiry)."""
    engine = MultiViewCensus(3, CONSTRAINTS, 15.0, max_nodes=3)
    engine.add_view("all", 15.0)
    engine.add_view("slice", 15.0, nodes=nodes)
    oracle = OnlineCensus(3, CONSTRAINTS, 15.0, max_nodes=3)
    for ev in events:
        engine.push(ev)
        if ev.u in nodes and ev.v in nodes:
            oracle.push(ev)
        else:
            oracle.advance_to(ev.t)
        assert _ordered(engine.counts("slice")) == _ordered(oracle.counts())


@given(tie_free_streams())
@settings(max_examples=20, deadline=None)
def test_restricted_view_matches_predicate_engine(events):
    engine = MultiViewCensus(3, CONSTRAINTS, 6.0, max_nodes=3)
    engine.add_view("all", 6.0)
    engine.add_view(
        "restricted", 6.0, predicate=satisfies_consecutive_events, backfill=False
    )
    oracle = OnlineCensus(
        3, CONSTRAINTS, 6.0, max_nodes=3, predicate=satisfies_consecutive_events
    )
    for ev in events:
        engine.push(ev)
        oracle.push(ev)
        assert _ordered(engine.counts("restricted")) == _ordered(oracle.counts())


# ----------------------------------------------------------------------
# the tick-boundary predicate-stability caveat (regression)
# ----------------------------------------------------------------------
class TestTickBoundaryWarning:
    def _tied_events(self):
        return [Event(0, 1, 1.0), Event(1, 2, 2.0), Event(2, 3, 2.0)]

    def test_online_census_warns_once_on_first_tie(self):
        engine = OnlineCensus(
            3, CONSTRAINTS, 6.0, predicate=satisfies_consecutive_events
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for ev in self._tied_events():
                engine.push(ev)
            engine.push(Event(3, 4, 2.0))  # a second tie: no second warning
        tick = [w for w in caught if "tick-boundary-sensitive" in str(w.message)]
        assert len(tick) == 1
        assert issubclass(tick[0].category, RuntimeWarning)

    def test_no_warning_without_ties(self):
        engine = OnlineCensus(
            3, CONSTRAINTS, 6.0, predicate=satisfies_consecutive_events
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for ev in [Event(0, 1, 1.0), Event(1, 2, 2.0), Event(2, 3, 3.0)]:
                engine.push(ev)

    def test_no_warning_for_stable_predicate(self):
        def anchored_low(graph, instance):
            return min(instance) % 2 == 0

        engine = OnlineCensus(3, CONSTRAINTS, 6.0, predicate=anchored_low)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for ev in self._tied_events():
                engine.push(ev)

    def test_view_added_after_tie_warns_at_registration(self):
        engine = MultiViewCensus(3, CONSTRAINTS, 6.0)
        for ev in self._tied_events():
            engine.push(ev)
        with pytest.warns(RuntimeWarning, match="tick-boundary-sensitive"):
            engine.add_view(
                "late", 6.0, predicate=satisfies_cdg, backfill=False
            )

    def test_combined_predicate_inherits_sensitivity(self):
        combined = combine(satisfies_consecutive_events, satisfies_cdg)
        assert combined.tick_boundary_sensitive is True
        engine = OnlineCensus(3, CONSTRAINTS, 6.0, predicate=combined)
        with pytest.warns(RuntimeWarning, match="tick-boundary-sensitive"):
            for ev in self._tied_events():
                engine.push(ev)


# ----------------------------------------------------------------------
# lifecycle, validation, degradation
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="n_events"):
            MultiViewCensus(0, CONSTRAINTS, 10.0)
        with pytest.raises(ValueError, match="retention"):
            MultiViewCensus(3, CONSTRAINTS, 0.0)
        with pytest.raises(ValueError, match="retention"):
            MultiViewCensus(3, CONSTRAINTS, float("nan"))
        with pytest.raises(ValueError, match="prune_every"):
            MultiViewCensus(3, CONSTRAINTS, 10.0, prune_every=0)

    def test_view_validation(self):
        engine = MultiViewCensus(3, CONSTRAINTS, 10.0)
        engine.add_view("a", 5.0)
        with pytest.raises(ValueError, match="already"):
            engine.add_view("a", 5.0)
        with pytest.raises(ValueError, match="window"):
            engine.add_view("b", 0.0)
        with pytest.raises(ValueError, match="window"):
            engine.add_view("b", float("inf"))
        with pytest.raises(ValueError, match="retention"):
            engine.add_view("b", 20.0)  # wider than the ledger horizon
        with pytest.raises(ValueError, match="name"):
            engine.add_view("", 5.0)

    def test_predicate_views_cannot_backfill(self):
        engine = MultiViewCensus(3, CONSTRAINTS, 10.0)
        with pytest.raises(ValueError, match="discovery time"):
            engine.add_view("p", 5.0, predicate=lambda g, i: True, backfill=True)
        engine.add_view("p", 5.0, predicate=lambda g, i: True, backfill=False)

    def test_membership_and_describe(self):
        engine = MultiViewCensus(3, CONSTRAINTS, 10.0)
        engine.add_view("a", 5.0)
        engine.add_view("b", 3.0, nodes=[1, 2, 3])
        assert len(engine) == 2
        assert "a" in engine and "missing" not in engine
        assert sorted(engine.view_names()) == ["a", "b"]
        info = engine.describe()
        assert info["retention"] == 10.0
        assert info["views"]["b"]["sliced"] is True
        assert info["views"]["a"]["mode"] == "exact"
        with pytest.raises(KeyError, match="no view named"):
            engine.counts("missing")

    def test_drop_is_idempotent(self):
        engine = MultiViewCensus(3, CONSTRAINTS, 10.0)
        engine.add_view("a", 5.0)
        assert engine.drop_view("a") is True
        assert engine.drop_view("a") is False

    def test_push_rejects_backward_time_and_advance(self):
        engine = MultiViewCensus(2, TimingConstraints(delta_w=5.0), 10.0)
        engine.add_view("a", 10.0)
        engine.push(Event(0, 1, 5.0))
        with pytest.raises(ValueError, match="non-decreasing"):
            engine.push(Event(1, 2, 4.0))
        with pytest.raises(ValueError, match="backward"):
            engine.advance_to(1.0)

    def test_degraded_view_estimates_with_stderr(self):
        pytest.importorskip("numpy", reason="degraded views estimate via sampling")
        engine = MultiViewCensus(2, TimingConstraints(delta_w=5.0), 10.0)
        engine.add_view("a", 10.0)
        engine.add_view("sliced", 10.0, nodes={0, 1, 2})
        engine.push(Event(0, 1, 1.0))
        engine.push(Event(1, 2, 2.0))
        engine.push(Event(2, 3, 3.0))
        engine.push(Event(0, 2, 4.0))
        sliced_exact = dict(engine.counts("sliced"))
        engine.degrade_view("a", q=1.0, seed=7)
        engine.degrade_view("sliced", q=1.0, seed=7)
        # A node-sliced view estimates over the sliced window graph.
        assert sliced_exact
        assert engine.view_counts("sliced")["codes"] == sliced_exact
        with pytest.raises(ValueError, match="view_counts"):
            engine.counts("a")
        payload = engine.view_counts("a")
        assert payload["exact"] is False
        assert payload["mode"] == "estimate"
        assert set(payload["stderr"]) == set(payload["codes"])
        # q=1.0 samples every root: the estimate is exact.
        oracle = OnlineCensus(2, TimingConstraints(delta_w=5.0), 10.0)
        for ev in (Event(0, 1, 1.0), Event(1, 2, 2.0), Event(2, 3, 3.0), Event(0, 2, 4.0)):
            oracle.push(ev)
        assert payload["codes"] == dict(oracle.counts())

    def test_degraded_view_estimate_survives_prune(self):
        """Prune must retain the largest degraded view's window, not just
        the timing bound δ — the estimator re-reads the window slice at
        view_counts() time (REVIEW: δ=5 ≪ window=50 undercounted)."""
        pytest.importorskip("numpy", reason="degraded views estimate via sampling")
        constraints = TimingConstraints(delta_c=5.0)
        engine = MultiViewCensus(2, constraints, 50.0)
        engine.add_view("a", 50.0)
        rng = random.Random(0)
        t = 0.0
        for _ in range(300):
            t += rng.choice([0.0, 0.5, 1.0])
            u, v = rng.randrange(10), rng.randrange(10)
            if u == v:
                v = (v + 1) % 10
            engine.push(Event(u, v, t))
        engine.degrade_view("a", q=1.0, seed=1)
        before = engine.view_counts("a")["codes"]
        assert engine.prune() > 0  # still drops events beyond the window
        assert engine.view_counts("a")["codes"] == before
        # q=1.0 samples every root: the post-prune estimate stays exact.
        oracle = OnlineCensus(2, constraints, 50.0)
        rng = random.Random(0)
        t = 0.0
        for _ in range(300):
            t += rng.choice([0.0, 0.5, 1.0])
            u, v = rng.randrange(10), rng.randrange(10)
            if u == v:
                v = (v + 1) % 10
            oracle.push(Event(u, v, t))
        assert before == dict(oracle.counts())

    def test_prune_reach_stays_tight_without_degraded_views(self):
        """Exact-only engines keep the min(δ, retention) reach."""
        constraints = TimingConstraints(delta_c=5.0)
        engine = MultiViewCensus(2, constraints, 50.0)
        engine.add_view("a", 50.0)
        for i in range(60):
            engine.push(Event(i % 7, (i + 1) % 7, float(i)))
        engine.prune()
        # Only events within δ=5 of now (plus slack) survive.
        assert len(engine.graph) <= 7

    def test_drop_after_degrade_on_shared_node_bucket(self):
        """degrade_view unroutes; a later drop_view must not re-remove
        from a node bucket another sliced view still occupies."""
        engine = MultiViewCensus(2, TimingConstraints(delta_w=5.0), 10.0)
        engine.add_view("s1", 10.0, nodes=[1, 2])
        engine.add_view("s2", 10.0, nodes=[1, 3])
        engine.degrade_view("s1", q=0.5)
        assert engine.drop_view("s1") is True
        engine.push(Event(1, 3, 1.0))
        engine.push(Event(1, 3, 2.0))
        assert engine.counts("s2")

    def test_redegrade_validates_q(self):
        engine = MultiViewCensus(2, TimingConstraints(delta_w=5.0), 10.0)
        engine.add_view("a", 10.0)
        engine.degrade_view("a", q=0.5)
        for bad in (0.0, -1.0, 1.5):
            with pytest.raises(ValueError, match="q must be"):
                engine.degrade_view("a", q=bad)
        engine.degrade_view("a", q=0.75)  # valid re-degrade still allowed
        with pytest.raises(ValueError, match="q must be"):
            engine.degrade_view("a", q=2.0)

    def test_exact_view_counts_payload(self):
        engine = MultiViewCensus(2, TimingConstraints(delta_w=5.0), 10.0)
        engine.add_view("a", 10.0)
        engine.push(Event(0, 1, 1.0))
        engine.push(Event(1, 2, 2.0))
        payload = engine.view_counts("a")
        assert payload["exact"] is True
        assert payload["total"] == 1
        assert payload["codes"] == dict(engine.counts("a"))


# ----------------------------------------------------------------------
# the many-view spot check (the acceptance shape, scaled for CI)
# ----------------------------------------------------------------------
def test_many_views_spot_check():
    """120 concurrent views (global + tenant slices) over one bursty
    stream: a seeded sample must be bit-identical to independent
    engines — the scaled-down version of the 1000-view acceptance run
    in benchmarks/bench_multiview.py."""
    rng = random.Random(20260808)
    t = 0.0
    events = []
    for _ in range(2000):
        t += rng.choice([0.0, 0.0, 1.0, 1.0, 2.0, 4.0])
        u, v = rng.randrange(30), rng.randrange(30)
        if u == v:
            v = (v + 1) % 30
        events.append(Event(u, v, t))
    events.sort(key=lambda e: (e.t, e.u, e.v))

    engine = MultiViewCensus(3, CONSTRAINTS, 15.0, max_nodes=3)
    specs: dict[str, dict] = {}
    for i, w in enumerate(WINDOW_PALETTE):
        name = f"global-{i}"
        engine.add_view(name, w)
        specs[name] = {"window": w, "nodes": None}
    for i in range(117):
        name = f"tenant-{i}"
        nodes = frozenset(rng.sample(range(30), 3))
        window = rng.choice(WINDOW_PALETTE)
        engine.add_view(name, window, nodes=nodes)
        specs[name] = {"window": window, "nodes": nodes}
    assert len(engine) == 120

    for ev in events:
        engine.push(ev)

    sample = rng.sample(sorted(specs), 6) + ["global-0"]
    for name in sample:
        spec = specs[name]
        oracle = OnlineCensus(3, CONSTRAINTS, spec["window"], max_nodes=3)
        for ev in events:
            if spec["nodes"] is None or (ev.u in spec["nodes"] and ev.v in spec["nodes"]):
                oracle.push(ev)
            else:
                oracle.advance_to(ev.t)
        assert _ordered(engine.counts(name)) == _ordered(oracle.counts()), name


# ----------------------------------------------------------------------
# carried motif codes: a prefix grows its code one digit pair per event
# ----------------------------------------------------------------------
CODE_BACKENDS = tuple(b for b in ("list", "numpy") if b in available_backends())


def _live_prefixes(store) -> list:
    """Every distinct prefix in the store, deduplicated across buckets."""
    seen: dict[int, object] = {}
    for _times, prefixes in store._buckets.values():
        for prefix in prefixes:
            seen.setdefault(id(prefix), prefix)
    return list(seen.values())


def _code_of(graph, offset: int, seq) -> str:
    """canonical_code of global event indices, resolved against the tail."""
    event_at = graph.storage.event_at
    return canonical_code([event_at(i - offset).edge for i in seq])


@pytest.mark.parametrize("backend", CODE_BACKENDS)
@given(
    events=event_streams(max_events=16),
    n_events=st.integers(1, 4),
    max_nodes=st.sampled_from([None, 2, 3]),
)
@settings(max_examples=25, deadline=None)
def test_carried_codes_match_canonical_code(backend, events, n_events, max_nodes):
    """After every push, each live prefix and ledger entry carries the
    canonical code of its events, and the store's O(1) size matches a
    deduplicating walk over its buckets."""
    engine = MultiViewCensus(n_events, CONSTRAINTS, 15.0, max_nodes=max_nodes, backend=backend)
    engine.add_view("all", 15.0)
    engine.add_view("short", 3.0)
    engine.add_view("slice", 7.0, nodes=range(3))
    for ev in events:
        engine.push(ev)
        graph, offset = engine.graph, engine._offset
        live = _live_prefixes(engine._prefixes)
        assert len(engine._prefixes) == len(live) == engine.live_prefixes
        for prefix in live:
            assert prefix.code == _code_of(graph, offset, prefix.seq)
        for _t, _s, entry in engine._ledger:
            assert entry.code == _code_of(graph, offset, entry.events)


@pytest.mark.skipif(
    "numpy" not in available_backends(), reason="checkpoints use the numpy page format"
)
@pytest.mark.parametrize("backend", CODE_BACKENDS)
@given(
    events=event_streams(max_events=16),
    n_events=st.integers(2, 4),
    max_nodes=st.sampled_from([None, 2, 3]),
    cut=st.integers(1, 16),
)
@settings(max_examples=15, deadline=None)
def test_restored_prefixes_carry_the_uninterrupted_codes(backend, events, n_events, max_nodes, cut):
    """Prefixes regrown on restore carry the codes the live engine grew."""
    engine = OnlineCensus(n_events, CONSTRAINTS, 7.0, max_nodes=max_nodes, backend=backend)
    for ev in events[:cut]:
        engine.push(ev)
    with tempfile.TemporaryDirectory() as tmp:
        engine.snapshot(tmp)
        resumed = OnlineCensus.restore(tmp, backend=backend)
    uninterrupted = {p.seq: p.code for p in _live_prefixes(engine._mv._prefixes)}
    regrown = _live_prefixes(resumed._mv._prefixes)
    assert len(resumed._mv._prefixes) == len(regrown)
    for prefix in regrown:
        assert prefix.code == uninterrupted[prefix.seq]
        assert prefix.code == _code_of(resumed.graph, resumed._mv._offset, prefix.seq)


def _chain(n_edges: int) -> list[Event]:
    """A path 0 -> 1 -> ... -> n_edges, one event per time unit."""
    return [Event(i, i + 1, float(i)) for i in range(n_edges)]


CHAIN_CONSTRAINTS = TimingConstraints(delta_c=2.0, delta_w=100.0)


class TestCarriedCodeErrorPaths:
    """The error paths the carried code relies on instead of branching."""

    @pytest.mark.parametrize("engine_kind", ["online", "multiview"])
    def test_self_loop_rejected_before_any_prefix(self, engine_kind):
        if engine_kind == "online":
            engine = OnlineCensus(3, CONSTRAINTS, 10.0)
            core = engine._mv
        else:
            engine = core = MultiViewCensus(3, CONSTRAINTS, 10.0)
            core.add_view("a", 10.0)
        with pytest.raises(ValueError, match="is a self-loop"):
            engine.push(Event(1, 1, 0.0))
        assert core.live_prefixes == 0 and core.ledger_depth == 0
        engine.push(Event(0, 1, 1.0))
        engine.push(Event(1, 2, 2.0))
        prefixes = core.live_prefixes
        with pytest.raises(ValueError, match="is a self-loop"):
            engine.push(Event(2, 2, 3.0))
        assert core.live_prefixes == prefixes and core.ledger_depth == 0
        assert core.pushed == 2

    @pytest.mark.parametrize("n_events", [10, 11])
    def test_eleven_node_instance_raises_at_its_completion(self, n_events):
        """A prefix past ten nodes has no code; the completing push raises
        canonical_code's error, and every earlier push succeeds."""
        engine = MultiViewCensus(n_events, CHAIN_CONSTRAINTS, 200.0)
        engine.add_view("a", 200.0)
        chain = _chain(n_events)
        for ev in chain[:-1]:
            engine.push(ev)
        assert engine.ledger_depth == 0
        with pytest.raises(ValueError, match="too many nodes for digit notation"):
            engine.push(chain[-1])

    @pytest.mark.skipif(
        "numpy" not in available_backends(),
        reason="checkpoints use the numpy page format",
    )
    def test_restored_overflow_prefix_still_raises(self, tmp_path):
        engine = OnlineCensus(11, CHAIN_CONSTRAINTS, 200.0)
        chain = _chain(11)
        for ev in chain[:-1]:
            engine.push(ev)
        engine.snapshot(tmp_path / "ckpt")
        resumed = OnlineCensus.restore(tmp_path / "ckpt")
        full = [p for p in _live_prefixes(resumed._mv._prefixes) if len(p.seq) == 10]
        assert len(full) == 1 and full[0].code is None
        with pytest.raises(ValueError, match="too many nodes for digit notation"):
            resumed.push(chain[-1])


def test_advance_to_returns_the_views_expired_delta():
    """advance_to reports exactly what the views' expired counters gained."""
    rng = random.Random(7)
    t = 0.0
    engine = MultiViewCensus(3, CONSTRAINTS, 15.0, max_nodes=3)
    engine.add_view("long", 15.0)
    engine.add_view("short", 3.0)
    engine.add_view("slice", 7.0, nodes=range(4))

    def expired() -> int:
        return sum(view.expired for view in engine._views.values())

    retired = 0
    for _ in range(12):
        for _ in range(25):
            t += rng.choice([0.0, 0.5, 1.0])
            u, v = rng.sample(range(6), 2)
            engine.push(Event(u, v, t))
        before = expired()
        t += rng.choice([0.5, 2.0, 5.0])
        got = engine.advance_to(t)
        assert got == expired() - before
        retired += got
    assert retired > 0


# ----------------------------------------------------------------------
# batched pushes: push_many against one push per event
# ----------------------------------------------------------------------
LANE = "numpy" in available_backends()


def _core_state(engine) -> tuple:
    """Everything push_many must leave exactly as per-event pushes do.

    Exact views' counter items in key order, totals and lifetime counts;
    the ledger heap in list order; the prefixes a later arrival can
    still extend; the clock-side counters; and the retained tail.
    """
    store = engine._prefixes
    for times, _prefixes in store._buckets.values():
        assert times == sorted(times)
    views = {
        name: (_ordered(view.code_counts), view.total, view.discovered, view.expired)
        for name, view in engine._views.items()
        if view.mode == "exact"
    }
    ledger = [
        (anchor, seq, entry.events, entry.code, entry.nodes, entry.t_last)
        for anchor, seq, entry in engine._ledger
    ]
    live_from = multiview_module._widen_down(engine.now - store.gap_bound)
    extensible = {
        (p.seq, p.code, p.nodes, p.t_root, p.t_last)
        for p in _live_prefixes(store)
        if p.t_last >= live_from
    }
    tail = list(engine.graph.storage.iter_uvt())
    return views, ledger, extensible, engine.pushed, engine.discovered, engine._offset, tail


def _apply_view_op(engines, op, step: int) -> None:
    """One view lifecycle change, applied alike to every engine."""
    action, window, pick = op
    names = sorted(engines[0].view_names())
    for engine in engines:
        window = min(window, engine.retention)
        if action == "add":
            engine.add_view(f"add-{step}", window)
        elif action == "slice":
            engine.add_view(f"slice-{step}", window, nodes=range(pick, pick + 3))
        elif action == "drop" and names:
            engine.drop_view(names[pick % len(names)])
        elif action == "degrade" and names:
            engine.degrade_view(names[pick % len(names)], q=0.5, seed=pick)


@pytest.mark.skipif(not LANE, reason="the block lane needs NumPy")
@pytest.mark.parametrize("backend", BACKENDS)
@given(
    events=event_streams(max_events=40),
    n_events=st.integers(2, 4),
    max_nodes=st.sampled_from([None, 2, 3]),
    constraints=st.sampled_from([CONSTRAINTS, TimingConstraints(delta_c=3.0)]),
    retention=st.sampled_from([2.0, 15.0, math.inf]),
    prune_every=st.sampled_from([None, 2, 5]),
    cuts=st.lists(st.integers(1, 12), min_size=1, max_size=12),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["add", "slice", "drop", "degrade"]),
            st.sampled_from(WINDOW_PALETTE),
            st.integers(0, 3),
        ),
        max_size=12,
    ),
)
@settings(max_examples=50, deadline=None)
def test_push_many_matches_push_by_push(
    backend, events, n_events, max_nodes, constraints, retention, prune_every, cuts, ops
):
    """Random batches through the lane == one push per event, after
    every batch: counters in key order, ledger order, returned
    instances and the extensible prefixes, with views added, sliced,
    dropped and degraded between batches."""
    engines = [
        MultiViewCensus(
            n_events,
            constraints,
            retention,
            max_nodes=max_nodes,
            backend=backend,
            prune_every=prune_every,
        )
        for _ in range(2)
    ]
    batched, single = engines
    for engine in engines:
        engine.add_view("wide", min(15.0, retention))
        engine.add_view("short", min(3.0, retention))
        engine.add_view("slice", min(7.0, retention), nodes=range(3))
    batches = []
    pos = 0
    for cut in cuts:
        batches.append(events[pos : pos + cut])
        pos += cut
    batches.append(events[pos:])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multiview_module, "LANE_MIN_BATCH", 1)
        for step, batch in enumerate(b for b in batches if b):
            want = [inst for ev in batch for inst in single.push(ev)]
            assert batched.push_many(batch) == want
            assert _core_state(batched) == _core_state(single)
            if step < len(ops):
                _apply_view_op(engines, ops[step], step)


def _error_engines(warm):
    engines = [MultiViewCensus(3, CONSTRAINTS, 15.0, max_nodes=3) for _ in range(2)]
    for engine in engines:
        engine.add_view("wide", 15.0)
        engine.add_view("slice", 7.0, nodes=range(3))
        for ev in warm:
            engine.push(ev)
    return engines


#: The first invalid item at batch position ``j``, per kind: an arrival
#: before the clock, a self-loop, a negative time (which, behind a
#: running clock, is also before it), a NaN time (which no clock check
#: catches) and an item that is not an event.
_BAD_ITEMS = {
    "backward": lambda t: Event(0, 1, 0.5),
    "self_loop": lambda t: Event(2, 2, t),
    "negative": lambda t: Event(0, 1, -1.0),
    "nan": lambda t: Event(0, 1, math.nan),
    "malformed": lambda t: (0, 1),
}


@pytest.mark.parametrize("lane", [True, False], ids=["lane", "loop"])
@pytest.mark.parametrize("kind", sorted(_BAD_ITEMS))
@pytest.mark.parametrize("j", [0, 1, 6])
def test_push_many_error_position(lane, kind, j):
    """Event ``j`` invalid: events ``< j`` are pushed, then the error
    one push per event raises for event ``j`` is raised."""
    if lane and not LANE:
        pytest.skip("the block lane needs NumPy")
    rng = random.Random(j)
    warm = [Event(0, 1, 1.0), Event(1, 2, 1.0)]
    batch = []
    t = 1.0
    for _ in range(10):
        t += rng.choice([0.0, 1.0, 2.0])
        u, v = rng.sample(range(5), 2)
        batch.append(Event(u, v, t))
    batch[j] = _BAD_ITEMS[kind](batch[j - 1].t if j else 1.0)
    batched, single = _error_engines(warm)
    with pytest.raises((TypeError, ValueError)) as want:
        for ev in batch:
            single.push(ev)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multiview_module, "LANE_MIN_BATCH", 1 if lane else 10**9)
        with pytest.raises(type(want.value)) as got:
            batched.push_many(batch)
    assert str(got.value) == str(want.value)
    assert batched.pushed == single.pushed == len(warm) + j
    assert _core_state(batched) == _core_state(single)


def test_push_rejects_a_nan_time():
    """NaN passes every clock comparison; the arrival check refuses it."""
    engine = MultiViewCensus(3, CONSTRAINTS, 15.0)
    engine.push(Event(0, 1, 1.0))
    with pytest.raises(ValueError, match="NaN timestamp"):
        engine.push(Event(1, 2, math.nan))
    assert engine.pushed == 1 and engine.now == 1.0


def test_push_many_negative_time_on_a_fresh_stream():
    """With no clock yet, a negative time fails the storage check."""
    engine = MultiViewCensus(3, CONSTRAINTS, 15.0)
    with pytest.raises(ValueError, match="negative timestamp"):
        engine.push_many([Event(0, 1, -2.0), Event(1, 2, 1.0)])
    assert engine.pushed == 0 and engine.now is None


@pytest.mark.skipif(not LANE, reason="the block lane needs NumPy")
def test_push_many_takes_the_per_event_path_when_the_lane_cannot_serve(monkeypatch):
    """A predicate view (or node ids no int64 column holds) keeps
    discovery per event; without one the lane serves the batch."""
    calls = []
    discover = MultiViewCensus._discover

    def counting(self, *args):
        calls.append(len(args[0][1]))
        return discover(self, *args)

    monkeypatch.setattr(MultiViewCensus, "_discover", counting)
    monkeypatch.setattr(multiview_module, "LANE_MIN_BATCH", 4)
    events = [Event(i % 4, (i + 1) % 4, float(i // 2)) for i in range(24)]
    batched, single = _error_engines([])
    for engine in (batched, single):
        engine.add_view("restricted", 6.0, predicate=lambda graph, inst: True, backfill=False)
    want = [inst for ev in events[:12] for inst in single.push(ev)]
    assert batched.push_many(events[:12]) == want
    assert calls == []
    assert _ordered(batched.counts("restricted")) == _ordered(single.counts("restricted"))
    for engine in (batched, single):
        engine.drop_view("restricted")
    want = [inst for ev in events[12:] for inst in single.push(ev)]
    assert batched.push_many(events[12:]) == want
    assert len(calls) == 1
    assert _core_state(batched) == _core_state(single)

    named = [Event(f"n{ev.u}", f"n{ev.v}", ev.t) for ev in events]
    by_name, one_by_one = (
        MultiViewCensus(3, CONSTRAINTS, 15.0, backend="list") for _ in range(2)
    )
    by_name.add_view("all", 15.0)
    one_by_one.add_view("all", 15.0)
    want = [inst for ev in named for inst in one_by_one.push(ev)]
    assert by_name.push_many(named) == want
    assert len(calls) == 1
    assert _ordered(by_name.counts("all")) == _ordered(one_by_one.counts("all"))
