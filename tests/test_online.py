"""Differential tests: the online census vs batch ``run_census``.

The engine's contract is a single invariant — after every push, its
counters equal a batch census of the equivalent ``slice_time`` window —
so the suite is built around Hypothesis streams that stress the shapes
the incremental path can get wrong: bursty same-timestamp ticks,
multi-edge repetitions, window-edge anchors, pruning rebases, and every
storage backend.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.counting import run_census
from repro.algorithms.restrictions import satisfies_consecutive_events
from repro.core.constraints import TimingConstraints
from repro.core.events import Event
from repro.core.temporal_graph import TemporalGraph
from repro.online import OnlineCensus
from repro.storage import available_backends

BACKENDS = tuple(b for b in ("list", "columnar", "numpy") if b in available_backends())


# ----------------------------------------------------------------------
# strategies: streams with the shapes that break incremental engines
# ----------------------------------------------------------------------
def event_streams(max_nodes=5, max_events=24):
    """Sorted event streams heavy on ties, bursts and repeated edges.

    Gaps are drawn from a zero-heavy palette, so same-timestamp ticks
    (carbon-copy bursts) and multi-edge repetitions appear constantly —
    the corners where strict ordering and window edges matter.
    """
    step = st.tuples(
        st.integers(0, max_nodes - 1),
        st.integers(0, max_nodes - 1),
        st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 5.0]),
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
    st.sampled_from([2, 3, 3, 4]),                      # n_events
    st.sampled_from([2.0, 4.0, None]),                  # delta_c
    st.sampled_from([6.0, 12.0, None]),                 # delta_w
    st.sampled_from([3.0, 7.0, 15.0]),                  # window W
    st.sampled_from([None, 3, 1, 2]),                   # max_nodes
)


def _constraints(delta_c, delta_w):
    if delta_c is None and delta_w is None:
        return TimingConstraints(delta_w=8.0)
    return TimingConstraints(delta_c=delta_c, delta_w=delta_w)


def assert_prefix_parity(events, k, constraints, window, *, max_nodes=None, **engine_kwargs):
    """Push the stream event-by-event; batch-recount after every push."""
    engine = OnlineCensus(k, constraints, window, max_nodes=max_nodes, **engine_kwargs)
    prefix: list[Event] = []
    for ev in events:
        engine.push(ev)
        prefix.append(ev)
        ref = run_census(
            TemporalGraph(prefix).slice(ev.t - window, ev.t),
            k,
            constraints,
            max_nodes=max_nodes,
        )
        online = engine.census()
        assert online.code_counts == ref.code_counts
        assert online.total == ref.total
        assert online.pair_counts == ref.pair_counts
        assert online.pair_sequence_counts == ref.pair_sequence_counts
    return engine


# ----------------------------------------------------------------------
# the core differential property
# ----------------------------------------------------------------------
@given(event_streams(), configs)
@settings(max_examples=60, deadline=None)
def test_every_prefix_matches_batch_census(events, config):
    k, delta_c, delta_w, window, max_nodes = config
    assert_prefix_parity(events, k, _constraints(delta_c, delta_w), window, max_nodes=max_nodes)


@given(event_streams(), configs)
@settings(max_examples=30, deadline=None)
def test_parity_survives_aggressive_pruning(events, config):
    """prune_every=1 rebases the graph after every push; counts must hold."""
    k, delta_c, delta_w, window, max_nodes = config
    assert_prefix_parity(
        events,
        k,
        _constraints(delta_c, delta_w),
        window,
        max_nodes=max_nodes,
        prune_every=1,
    )


@pytest.mark.parametrize("backend", BACKENDS)
@given(events=event_streams(max_events=16))
@settings(max_examples=15, deadline=None)
def test_parity_on_every_backend(backend, events):
    """The engine's live graph runs each backend's append-tail path."""
    constraints = TimingConstraints(delta_c=3.0, delta_w=6.0)
    engine = assert_prefix_parity(
        events, 3, constraints, 10.0, backend=backend, prune_every=7
    )
    assert engine.graph.backend == backend


def tie_free_streams(max_nodes=5, max_events=14):
    """Strictly increasing timestamps: the predicate-stability precondition.

    The consecutive-events restriction treats an event at exactly a
    motif's boundary timestamp as an interruption, so a same-tick arrival
    *after* discovery could flip a committed verdict — which is why the
    engine's predicate contract requires verdicts stable under strictly
    later arrivals.  Without ties that stability holds exactly.
    """
    step = st.tuples(
        st.integers(0, max_nodes - 1),
        st.integers(0, max_nodes - 1),
        st.sampled_from([0.5, 1.0, 1.0, 2.0, 5.0]),
    ).filter(lambda e: e[0] != e[1])

    def build(steps):
        t = 0.0
        events = []
        for u, v, dt in steps:
            t += dt
            events.append(Event(u, v, t))
        return events

    return st.lists(step, min_size=1, max_size=max_events).map(build)


@given(tie_free_streams())
@settings(max_examples=20, deadline=None)
def test_parity_with_shard_safe_predicate(events):
    """A window-local restriction predicate filters both sides alike."""
    constraints = TimingConstraints(delta_c=3.0, delta_w=6.0)
    window = 6.0  # window == ΔW: the slice holds the whole δ-neighborhood
    engine = OnlineCensus(
        3, constraints, window, max_nodes=3, predicate=satisfies_consecutive_events
    )
    prefix: list[Event] = []
    for ev in events:
        engine.push(ev)
        prefix.append(ev)
        ref = run_census(
            TemporalGraph(prefix).slice(ev.t - window, ev.t),
            3,
            constraints,
            max_nodes=3,
            predicate=satisfies_consecutive_events,
        )
        assert engine.counts() == ref.code_counts


def test_consecutive_events_view_never_rebuilds_times(monkeypatch):
    """The predicate reads arrivals through ``event_at``: on a live numpy
    graph every append drops the O(m) ``times`` view, so reading it per
    completion would rebuild it per push."""
    pytest.importorskip("numpy")
    from repro.storage.numpy_backend import NumpyStorage

    rebuilds = []
    times = NumpyStorage.times.fget

    def counted(storage):
        rebuilds.append(len(storage))
        return times(storage)

    monkeypatch.setattr(NumpyStorage, "times", property(counted))
    constraints = TimingConstraints(delta_c=3.0, delta_w=6.0)
    engine = OnlineCensus(
        3,
        constraints,
        6.0,
        max_nodes=3,
        predicate=satisfies_consecutive_events,
        backend="numpy",
        prune_every=64,
    )
    rng = random.Random(7)
    events = []
    for k in range(300):
        u = rng.randrange(6)
        events.append(Event(u, (u + 1 + rng.randrange(5)) % 6, float(k)))
        engine.push(events[-1])
    assert rebuilds == []
    assert engine.counts()
    monkeypatch.undo()
    ref = run_census(
        TemporalGraph(events).slice(299.0 - 6.0, 299.0),
        3,
        constraints,
        max_nodes=3,
        predicate=satisfies_consecutive_events,
    )
    assert engine.counts() == ref.code_counts


# ----------------------------------------------------------------------
# the long randomized stream (the acceptance-criterion shape)
# ----------------------------------------------------------------------
def test_long_randomized_stream_parity():
    """A 10k-event bursty stream: spot-check batch parity along the way.

    Full per-prefix recounts at this size are quadratic, so a twin
    engine under prune_every=1 tracks the primary push-by-push (a full
    cross-check of the incremental state) and the batch recount runs at
    every 500th prefix and at the end.
    """
    rng = random.Random(20220713)
    t = 0.0
    events = []
    for _ in range(10_000):
        t += rng.choice([0.0, 0.0, 1.0, 1.0, 2.0, 3.0, 8.0])
        u = rng.randrange(40)
        v = rng.randrange(40)
        if u == v:
            v = (v + 1) % 40
        events.append(Event(u, v, t))
    events.sort(key=lambda e: (e.t, e.u, e.v))

    constraints = TimingConstraints(delta_c=6.0, delta_w=12.0)
    window = 40.0
    primary = OnlineCensus(3, constraints, window, max_nodes=3)
    twin = OnlineCensus(3, constraints, window, max_nodes=3, prune_every=1)
    prefix: list[Event] = []
    for i, ev in enumerate(events, start=1):
        primary.push(ev)
        twin.push(ev)
        prefix.append(ev)
        assert primary.counts() == twin.counts()
        if i % 500 == 0 or i == len(events):
            ref = run_census(
                TemporalGraph(prefix).slice(ev.t - window, ev.t),
                3,
                constraints,
                max_nodes=3,
            )
            online = primary.census()
            assert online.code_counts == ref.code_counts
            assert online.total == ref.total
    assert primary.discovered > 0
    assert primary.expired > 0
    assert len(twin.graph) < len(primary.graph)  # pruning really dropped history


# ----------------------------------------------------------------------
# window-edge and bookkeeping semantics
# ----------------------------------------------------------------------
class TestWindowEdges:
    def test_anchor_at_exact_window_edge_is_counted(self):
        constraints = TimingConstraints(delta_w=10.0)
        engine = OnlineCensus(2, constraints, 10.0)
        engine.push(Event(0, 1, 0.0))
        new = engine.push(Event(1, 2, 10.0))
        # anchor t=0 sits exactly at now - W = 0: still inside the
        # closed window, like slice_time's bisect_left.
        assert len(new) == 1
        assert engine.live_instances == 1

    def test_anchor_expires_just_past_the_edge(self):
        constraints = TimingConstraints(delta_w=10.0)
        engine = OnlineCensus(2, constraints, 10.0)
        engine.push(Event(0, 1, 0.0))
        engine.push(Event(1, 2, 10.0))
        engine.advance_to(10.5)
        assert engine.live_instances == 0
        assert engine.counts() == {}

    def test_fp_window_edge_matches_slice(self):
        # 8.3 - 4.4 rounds up past 3.9: the anchor check must use the
        # same subtraction as the batch slice, not a rearranged form.
        constraints = TimingConstraints(delta_w=4.4)
        window = 4.4
        events = [Event(0, 1, 3.9), Event(1, 2, 8.3)]
        engine = OnlineCensus(2, constraints, window)
        for ev in events:
            engine.push(ev)
        ref = run_census(
            TemporalGraph(events).slice(8.3 - window, 8.3), 2, constraints
        )
        assert engine.counts() == ref.code_counts

    def test_same_tick_events_never_share_an_instance(self):
        constraints = TimingConstraints(delta_w=10.0)
        engine = OnlineCensus(2, constraints, 10.0)
        engine.push(Event(0, 1, 5.0))
        new = engine.push(Event(1, 2, 5.0))
        assert new == []
        assert engine.live_instances == 0

    def test_instances_wider_than_window_never_counted(self):
        # ΔW admits the pair, but it cannot fit any trailing window.
        constraints = TimingConstraints(delta_w=10.0)
        engine = OnlineCensus(2, constraints, 5.0)
        engine.push(Event(0, 1, 0.0))
        assert engine.push(Event(1, 2, 8.0)) == []
        assert engine.counts() == {}


class TestBookkeeping:
    def test_push_rejects_backward_time(self):
        engine = OnlineCensus(2, TimingConstraints(delta_w=5.0), 10.0)
        engine.push(Event(0, 1, 5.0))
        with pytest.raises(ValueError, match="non-decreasing"):
            engine.push(Event(1, 2, 4.0))

    def test_push_rejects_predating_an_advanced_clock(self):
        engine = OnlineCensus(2, TimingConstraints(delta_w=5.0), 10.0)
        engine.push(Event(0, 1, 5.0))
        engine.advance_to(20.0)
        with pytest.raises(ValueError, match="non-decreasing"):
            engine.push(Event(1, 2, 10.0))

    def test_advance_cannot_go_backward(self):
        engine = OnlineCensus(2, TimingConstraints(delta_w=5.0), 10.0)
        engine.push(Event(0, 1, 5.0))
        with pytest.raises(ValueError, match="backward"):
            engine.advance_to(1.0)

    @pytest.mark.parametrize("start", [None, 5.0])
    def test_advance_rejects_nan(self, start):
        engine = OnlineCensus(2, TimingConstraints(delta_w=5.0), 10.0)
        if start is not None:
            engine.push(Event(0, 1, start))
        with pytest.raises(ValueError, match="NaN"):
            engine.advance_to(math.nan)
        # The clock stays put, so later pushes keep their ordering check.
        assert engine.now == start
        engine.push(Event(1, 2, 6.0))
        with pytest.raises(ValueError, match="non-decreasing"):
            engine.push(Event(0, 2, 1.0))

    def test_constructor_validation(self):
        constraints = TimingConstraints(delta_w=5.0)
        with pytest.raises(ValueError, match="n_events"):
            OnlineCensus(0, constraints, 10.0)
        with pytest.raises(ValueError, match="window"):
            OnlineCensus(2, constraints, 0.0)
        with pytest.raises(ValueError, match="window"):
            OnlineCensus(2, constraints, float("inf"))
        with pytest.raises(ValueError, match="prune_every"):
            OnlineCensus(2, constraints, 10.0, prune_every=0)

    def test_ledger_identity(self):
        """discovered == live + expired, and drain indexes arrivals."""
        rng = random.Random(5)
        t = 0.0
        events = []
        for _ in range(150):
            t += rng.choice([0.0, 1.0, 2.0])
            u, v = rng.randrange(6), rng.randrange(6)
            if u == v:
                v = (v + 1) % 6
            events.append(Event(u, v, t))
        events.sort(key=lambda e: (e.t, e.u, e.v))
        engine = OnlineCensus(3, TimingConstraints(delta_c=2.0, delta_w=4.0), 6.0)
        for idx, new in engine.drain(events):
            for inst in new:
                assert inst[-1] == idx  # every new instance ends at the arrival
        assert engine.pushed == len(events)
        assert engine.discovered == engine.live_instances + engine.expired

    def test_returned_indices_resolve_against_graph(self):
        engine = OnlineCensus(2, TimingConstraints(delta_w=5.0), 10.0)
        engine.push(Event(3, 4, 1.0))
        new = engine.push(Event(4, 5, 2.0))
        assert new == [(0, 1)]
        assert engine.graph.event_at(new[0][0]) == Event(3, 4, 1.0)

    def test_global_indices_survive_pruning(self):
        engine = OnlineCensus(
            2, TimingConstraints(delta_w=2.0), 2.0, prune_every=1
        )
        for i in range(50):
            engine.push(Event(i % 3, (i + 1) % 3, float(10 * i)))
        assert len(engine.graph) < 50  # history was really dropped
        engine.push(Event(0, 1, 500.0))
        assert engine.push(Event(1, 2, 501.0)) == [(50, 51)]  # global indices

    def test_census_snapshot_fields(self):
        engine = OnlineCensus(2, TimingConstraints(delta_w=5.0), 10.0)
        engine.push(Event(0, 1, 1.0))
        engine.push(Event(1, 2, 2.0))
        census = engine.census()
        assert census.n_events == 2
        assert census.total == 1
        assert census.timespans == {} and census.intermediate_positions == {}
        assert sum(engine.proportions().values()) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# checkpoints
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_snapshot_restore_roundtrip_parity(tmp_path, backend):
    pytest.importorskip("numpy", reason="checkpoints use the numpy page format")
    rng = random.Random(11)
    t = 0.0
    events = []
    for _ in range(260):
        t += rng.choice([0.0, 1.0, 2.0])
        u, v = rng.randrange(8), rng.randrange(8)
        if u == v:
            v = (v + 1) % 8
        events.append(Event(u, v, t))
    events.sort(key=lambda e: (e.t, e.u, e.v))
    constraints = TimingConstraints(delta_c=3.0, delta_w=6.0)
    window = 10.0

    engine = OnlineCensus(3, constraints, window, prune_every=64)
    for ev in events[:160]:
        engine.push(ev)
    engine.snapshot(tmp_path / "ckpt")

    resumed = OnlineCensus.restore(tmp_path / "ckpt", backend=backend)
    assert resumed.counts() == engine.counts()
    assert resumed.pushed == engine.pushed
    assert resumed.graph.backend == backend
    for ev in events[160:]:
        engine.push(ev)
        resumed.push(ev)
        assert resumed.counts() == engine.counts()
    ref = run_census(
        TemporalGraph(events).slice(events[-1].t - window, events[-1].t),
        3,
        constraints,
    )
    assert resumed.census().code_counts == ref.code_counts
    assert resumed.census().total == ref.total
    _assert_advance_parity(resumed, engine, events, window)

    # The same advance-only tail straight after a restore, with no push
    # in between, against an engine that never stopped.
    idle = OnlineCensus.restore(tmp_path / "ckpt", backend=backend)
    uninterrupted = OnlineCensus(3, constraints, window, prune_every=64)
    for ev in events[:160]:
        uninterrupted.push(ev)
    _assert_advance_parity(idle, uninterrupted, events[:160], window)


def _assert_advance_parity(resumed, engine, events, window):
    """Step both clocks onto and just past every live anchor's exit time."""
    exits = sorted({ev.t + window for ev in events if ev.t >= events[-1].t - window})
    for exit_t in exits:
        for now in (exit_t, math.nextafter(exit_t, math.inf)):
            assert resumed.advance_to(now) == engine.advance_to(now)
            assert resumed.expired == engine.expired
            assert resumed.live_instances == engine.live_instances
            assert resumed.counts() == engine.counts()
    assert resumed.live_instances == 0


class TestCheckpointValidation:
    @pytest.fixture()
    def checkpoint(self, tmp_path):
        pytest.importorskip("numpy", reason="checkpoints use the numpy page format")
        engine = OnlineCensus(2, TimingConstraints(delta_w=5.0), 10.0)
        engine.push(Event(0, 1, 1.0))
        engine.push(Event(1, 2, 2.0))
        path = tmp_path / "ckpt"
        engine.snapshot(path)
        return path

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            OnlineCensus.restore(tmp_path / "nope")

    def test_wrong_format_rejected(self, checkpoint):
        import json

        state_path = checkpoint / "state.json"
        state = json.loads(state_path.read_text())
        state["format"] = "something-else"
        state_path.write_text(json.dumps(state))
        with pytest.raises(ValueError, match="format"):
            OnlineCensus.restore(checkpoint)

    def test_future_version_rejected(self, checkpoint):
        import json

        state_path = checkpoint / "state.json"
        state = json.loads(state_path.read_text())
        state["version"] = 99
        state_path.write_text(json.dumps(state))
        with pytest.raises(ValueError, match="version"):
            OnlineCensus.restore(checkpoint)

    def test_truncated_ledger_rejected(self, checkpoint):
        import json

        state_path = checkpoint / "state.json"
        state = json.loads(state_path.read_text())
        state["ledger"] = state["ledger"][:-1]
        state_path.write_text(json.dumps(state))
        with pytest.raises(ValueError, match="ledger"):
            OnlineCensus.restore(checkpoint)

    def test_edited_pair_column_rejected(self, checkpoint):
        import json

        state_path = checkpoint / "state.json"
        state = json.loads(state_path.read_text())
        assert state["ledger"][0][1:] == ["0112", ["C"]]
        state["ledger"][0][2] = ["I"]
        state_path.write_text(json.dumps(state))
        with pytest.raises(ValueError, match="ledger entry 0 .*'0112'"):
            OnlineCensus.restore(checkpoint)

    def test_untouched_checkpoint_roundtrips_bit_identically(self, tmp_path):
        pytest.importorskip("numpy", reason="checkpoints use the numpy page format")
        # 4-event motifs reach four nodes, so the ledger's pair columns
        # include disjoint (null) entries as well as every letter.
        rng = random.Random(5)
        engine = OnlineCensus(4, TimingConstraints(delta_w=6.0), 8.0)
        t = 0.0
        for _ in range(60):
            t += rng.choice([0.0, 1.0])
            u = rng.randrange(5)
            engine.push(Event(u, (u + rng.randrange(1, 5)) % 5, t))
        engine.snapshot(tmp_path / "a")
        written = (tmp_path / "a" / "state.json").read_bytes()
        assert b"null" in written
        resumed = OnlineCensus.restore(tmp_path / "a")
        resumed.snapshot(tmp_path / "b")
        assert (tmp_path / "b" / "state.json").read_bytes() == written
        # A restore folds the ledger in anchor order, so the counters
        # match as counters, not in key order.
        before, after = engine.census(), resumed.census()
        assert after.code_counts == before.code_counts
        assert after.pair_counts == before.pair_counts
        assert after.pair_sequence_counts == before.pair_sequence_counts
        assert after.total == before.total

    def test_predicate_mismatch_rejected(self, checkpoint):
        with pytest.raises(ValueError, match="predicate"):
            OnlineCensus.restore(checkpoint, predicate=lambda g, inst: True)

    def test_predicate_required_when_snapshotted_with_one(self, tmp_path):
        pytest.importorskip("numpy", reason="checkpoints use the numpy page format")
        engine = OnlineCensus(
            2,
            TimingConstraints(delta_w=5.0),
            10.0,
            predicate=satisfies_consecutive_events,
        )
        engine.push(Event(0, 1, 1.0))
        path = tmp_path / "ckpt"
        engine.snapshot(path)
        with pytest.raises(ValueError, match="predicate"):
            OnlineCensus.restore(path)
        resumed = OnlineCensus.restore(path, predicate=satisfies_consecutive_events)
        assert resumed.pushed == 1
        # The restored clock is the last event's time, so a push at the
        # snapshot's time is a tie the tick-sensitive predicate warns on.
        with pytest.warns(RuntimeWarning, match="tick-boundary-sensitive"):
            resumed.push(Event(1, 2, 1.0))

    @staticmethod
    def _tie_warnings(tmp_path, edit_state=None):
        """Tick-sensitive warnings over a tie, snapshot, restore, another tie."""
        import json
        import warnings

        pytest.importorskip("numpy", reason="checkpoints use the numpy page format")
        path = tmp_path / "ckpt"
        with warnings.catch_warnings(record=True) as caught:
            # "always": the default filter would hide a repeat warning
            # raised from the same line.
            warnings.simplefilter("always")
            engine = OnlineCensus(
                2,
                TimingConstraints(delta_w=5.0),
                10.0,
                predicate=satisfies_consecutive_events,
            )
            engine.push(Event(0, 1, 1.0))
            engine.push(Event(1, 2, 1.0))
            engine.snapshot(path)
            if edit_state is not None:
                state_path = path / "state.json"
                state = json.loads(state_path.read_text())
                edit_state(state)
                state_path.write_text(json.dumps(state))
            resumed = OnlineCensus.restore(path, predicate=satisfies_consecutive_events)
            resumed.push(Event(2, 3, 1.0))
            resumed.push(Event(3, 0, 2.0))
            resumed.push(Event(0, 2, 2.0))
        assert resumed.pushed == 5
        return [
            w
            for w in caught
            if issubclass(w.category, RuntimeWarning)
            and "tick-boundary-sensitive" in str(w.message)
        ]

    def test_restored_view_warns_once_per_lifetime(self, tmp_path):
        assert len(self._tie_warnings(tmp_path)) == 1

    def test_checkpoint_without_tie_flag_restores_as_tie_free(self, tmp_path):
        # A checkpoint written before the flag existed lacks the key: it
        # still restores, and the resumed stream warns on its own tie.
        def drop_flag(state):
            assert state.pop("saw_tie") is True

        assert len(self._tie_warnings(tmp_path, drop_flag)) == 2
