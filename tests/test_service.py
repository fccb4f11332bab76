"""The census service: protocol, parity vs serial oracles, failure paths.

The serving contract under test:

* every compute op answers **bit-identically** to the serial library
  call it wraps (values *and* key order — the ``merge_counts``
  first-appearance invariant extends over the wire);
* the admission queue sheds deterministically (reject with
  ``retry_after``, or degrade to sampling estimates with error bars);
* the failure paths die cleanly: malformed JSON and oversized frames
  get protocol errors, a client vanishing mid-request never wedges the
  server, and a worker killed mid-request errors that one request,
  respawns, and keeps serving.

Servers boot on a background thread via ``start_in_thread`` with
ephemeral ports, so the suite runs in parallel CI legs without port
coordination.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import threading
import time

import pytest

from repro.algorithms.counting import count_motifs, run_census
from repro.core.constraints import TimingConstraints
from repro.core.temporal_graph import TemporalGraph
from repro.datasets.generators import ActivityConfig, generate
from repro.online import OnlineCensus
from repro.online.multiview import LANE_MIN_BATCH
from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import (
    ProtocolError,
    constraint_fields,
    decode_line,
    encode,
    validate_request,
)
from repro.service.server import start_in_thread
from repro.service.workers import WorkerPool, open_graph_source

CONSTRAINTS = TimingConstraints(delta_c=1500.0, delta_w=3000.0)

CONFIG = ActivityConfig(
    n_nodes=60,
    n_events=400,
    timespan=40_000.0,
    p_reply=0.3,
    p_repeat=0.2,
    p_cc=0.2,
    p_forward=0.15,
)


def _events():
    return [(e.u, e.v, e.t) for e in generate(CONFIG, seed=7).events]


@pytest.fixture(scope="module")
def served_events():
    return _events()


@pytest.fixture(scope="module")
def graph(served_events):
    return TemporalGraph.from_tuples(served_events)


@pytest.fixture(scope="module")
def server(served_events):
    handle = start_in_thread(events=served_events, workers=2)
    yield handle
    handle.stop()


@pytest.fixture
def client(server):
    with ServiceClient(server.host, server.port) as c:
        yield c


# ----------------------------------------------------------------------
# protocol units
# ----------------------------------------------------------------------
class TestProtocol:
    def test_roundtrip(self):
        frame = encode({"op": "health", "id": 3})
        assert frame.endswith(b"\n")
        assert decode_line(frame) == {"op": "health", "id": 3}

    def test_bad_json(self):
        with pytest.raises(ProtocolError) as err:
            decode_line(b"{nope\n")
        assert err.value.code == "bad_json"

    def test_non_object(self):
        with pytest.raises(ProtocolError) as err:
            decode_line(b"[1, 2]\n")
        assert err.value.code == "bad_request"

    def test_missing_op(self):
        with pytest.raises(ProtocolError) as err:
            validate_request({"id": 1})
        assert err.value.code == "bad_request"

    def test_unknown_op(self):
        with pytest.raises(ProtocolError) as err:
            validate_request({"op": "frobnicate"})
        assert err.value.code == "unknown_op"

    def test_constraints_required(self):
        with pytest.raises(ProtocolError) as err:
            constraint_fields({})
        assert err.value.code == "bad_request"
        assert "unconstrained" in err.value.message

    def test_constraints_validate(self):
        assert constraint_fields({"delta_w": 10}) == (None, 10.0)
        assert constraint_fields({"delta_c": 2, "delta_w": 10}) == (2.0, 10.0)
        with pytest.raises(ProtocolError):
            constraint_fields({"delta_c": -1})
        with pytest.raises(ProtocolError):
            constraint_fields({"delta_w": "wide"})


# ----------------------------------------------------------------------
# graph sources
# ----------------------------------------------------------------------
class TestSources:
    def test_events_source(self, served_events, graph):
        opened = open_graph_source({"kind": "events", "events": served_events})
        assert opened.events == graph.events

    def test_dataset_source(self):
        opened = open_graph_source(
            {"kind": "dataset", "name": "sms-copenhagen", "scale": 0.05}
        )
        assert len(opened.events) > 0

    def test_pages_source(self, graph, tmp_path):
        pytest.importorskip("numpy")
        graph.save(tmp_path / "pages")
        opened = open_graph_source({"kind": "pages", "path": str(tmp_path / "pages")})
        assert opened.events == graph.events

    def test_unknown_source(self):
        with pytest.raises(ValueError):
            open_graph_source({"kind": "carrier-pigeon"})


# ----------------------------------------------------------------------
# compute-op parity against the serial library
# ----------------------------------------------------------------------
class TestComputeParity:
    def test_census_bit_identical(self, client, graph):
        result = client.census(
            n_events=3, delta_c=1500.0, delta_w=3000.0, max_nodes=3
        )
        oracle = run_census(graph, 3, CONSTRAINTS, max_nodes=3)
        assert result["total"] == oracle.total
        assert result["codes"] == dict(oracle.code_counts)
        # Key order is part of the contract (first-appearance order).
        assert list(result["codes"]) == list(oracle.code_counts)
        assert result["pair_groups"] == oracle.pair_group_counts()

    def test_count_matches(self, client, graph):
        result = client.count(n_events=3, delta_w=3000.0, max_nodes=3)
        oracle = count_motifs(graph, 3, TimingConstraints(delta_w=3000.0), max_nodes=3)
        assert result["codes"] == dict(oracle)
        assert result["total"] == sum(oracle.values())

    def test_window_matches_slice(self, client, graph):
        times = graph.times
        t_lo, t_hi = times[0], times[len(times) // 2]
        result = client.window(t_lo, t_hi, n_events=3, delta_w=3000.0, max_nodes=3)
        oracle = run_census(
            graph.slice(t_lo, t_hi), 3, TimingConstraints(delta_w=3000.0), max_nodes=3
        )
        assert result["codes"] == dict(oracle.code_counts)
        assert list(result["codes"]) == list(oracle.code_counts)

    def test_per_request_jobs_identical(self, client):
        serial = client.census(n_events=3, delta_w=3000.0, max_nodes=3)
        sharded = client.census(n_events=3, delta_w=3000.0, max_nodes=3, jobs=2)
        assert sharded["codes"] == serial["codes"]
        assert list(sharded["codes"]) == list(serial["codes"])

    def test_estimate_q1_is_exact(self, client, graph):
        pytest.importorskip("numpy")
        result = client.estimate(q=1.0, n_events=3, delta_w=3000.0, max_nodes=3)
        oracle = count_motifs(graph, 3, TimingConstraints(delta_w=3000.0), max_nodes=3)
        assert result["codes"] == {code: float(n) for code, n in oracle.items()}
        assert all(err == 0.0 for err in result["stderr"].values())

    def test_estimate_seeded_reproducible(self, client):
        pytest.importorskip("numpy")
        kwargs = dict(q=0.5, seed=11, n_events=3, delta_w=3000.0, max_nodes=3)
        first = client.estimate(**kwargs)
        second = client.estimate(**kwargs)
        assert first["codes"] == second["codes"]
        assert first["stderr"] == second["stderr"]

    def test_request_validation_over_wire(self, client):
        with pytest.raises(ServiceError) as err:
            client.census()  # no constraints
        assert err.value.code == "bad_request"
        with pytest.raises(ServiceError) as err:
            client.call("window", delta_w=10.0)  # no window bounds
        assert err.value.code == "bad_request"
        with pytest.raises(ServiceError) as err:
            client.census(delta_w=3000.0, n_events=40)
        assert err.value.code == "bad_request"


# ----------------------------------------------------------------------
# push streams
# ----------------------------------------------------------------------
class TestPushStream:
    def test_push_parity_with_online_engine(self, client, served_events):
        window = 6000.0
        chunk = 50
        oracle = OnlineCensus(3, CONSTRAINTS, window, max_nodes=3)
        name = "parity"
        for start in range(0, 300, chunk):
            batch = served_events[start : start + chunk]
            result = client.push(
                batch,
                stream=name,
                window=window,
                delta_c=1500.0,
                delta_w=3000.0,
                n_events=3,
                max_nodes=3,
                want_counts=True,
            )
            for ev in batch:
                oracle.push(ev)
            assert result["accepted"] == len(batch)
            assert result["now"] == oracle.now
            assert result["codes"] == dict(oracle.counts())
        assert client.stream_close(name)["closed"] is True

    def test_lane_sized_batches_match_online_engine(self, client, served_events):
        """Batches past the engine's lane threshold: same counters."""
        window = 6000.0
        chunk = 2 * LANE_MIN_BATCH
        oracle = OnlineCensus(3, CONSTRAINTS, window, max_nodes=3)
        name = "lane-parity"
        for start in range(0, len(served_events), chunk):
            batch = served_events[start : start + chunk]
            result = client.push(
                batch,
                stream=name,
                window=window,
                delta_c=1500.0,
                delta_w=3000.0,
                n_events=3,
                max_nodes=3,
                want_counts=True,
            )
            for ev in batch:
                oracle.push(ev)
            assert result["accepted"] == len(batch)
            assert list(result["codes"].items()) == list(oracle.counts().items())
            assert result["discovered"] == oracle.discovered
        client.stream_close(name)

    @pytest.mark.parametrize("size", [20, 2 * LANE_MIN_BATCH])
    @pytest.mark.parametrize(
        "bad, code",
        [
            ([0, 1, -5.0], "bad_stream"),  # before the stream clock
            ([3, 3, None], "bad_stream"),  # a self-loop (t filled in below)
            (["x", 1, None], "bad_stream"),  # a node id that is not an int
            ([1, 2], "bad_request"),  # not an [u, v, t] triple
        ],
    )
    def test_push_error_keeps_the_events_before_it(
        self, client, served_events, size, bad, code
    ):
        """Event j bad: events before it are pushed, then the error."""
        name = f"bad-{code}-{size}-{bad[0]}-{len(bad)}"
        j = size - 5
        events = [list(ev) for ev in served_events[:size]]
        item = list(bad)
        if len(item) == 3 and item[2] is None:
            item[2] = events[j - 1][2]
        events[j] = item
        response = client.request(
            "push",
            stream=name,
            events=events,
            window=6000.0,
            delta_c=1500.0,
            delta_w=3000.0,
            n_events=3,
            max_nodes=3,
        )
        assert response["ok"] is False
        assert response["error"]["code"] == code
        if code == "bad_stream":
            assert response["error"]["accepted"] == j
        oracle = OnlineCensus(3, CONSTRAINTS, 6000.0, max_nodes=3)
        for ev in served_events[:j]:
            oracle.push(ev)
        result = client.push([], stream=name, want_counts=True)
        assert result["pushed"] == j
        assert list(result["codes"].items()) == list(oracle.counts().items())
        client.stream_close(name)

    def test_push_requires_config(self, client):
        with pytest.raises(ServiceError) as err:
            client.push([(0, 1, 5.0)], stream="unconfigured")
        assert err.value.code == "bad_request"
        assert "window" in str(err.value)

    def test_push_time_regression_rejected(self, client):
        name = "backwards"
        client.push(
            [(0, 1, 100.0)], stream=name, window=50.0, delta_w=10.0
        )
        with pytest.raises(ServiceError) as err:
            client.push([(1, 2, 5.0)], stream=name)
        assert err.value.code == "bad_stream"
        client.stream_close(name)

    def test_push_batch_cap(self, served_events):
        handle = start_in_thread(
            events=served_events[:50], workers=1, max_push_batch=10
        )
        try:
            with ServiceClient(handle.host, handle.port) as c:
                with pytest.raises(ServiceError) as err:
                    c.push(
                        [(0, 1, float(i)) for i in range(11)],
                        window=50.0,
                        delta_w=10.0,
                    )
                assert err.value.code == "payload_too_large"
        finally:
            handle.stop()


# ----------------------------------------------------------------------
# the multi-view stream plane
# ----------------------------------------------------------------------
class TestMultiViewStream:
    def test_multiview_push_parity_with_local_engines(self, client, served_events):
        """Named views over the wire == independent local engines."""
        name = "mv-parity"
        oracles = {
            "default": OnlineCensus(3, CONSTRAINTS, 6000.0, max_nodes=3),
            "wide": OnlineCensus(3, CONSTRAINTS, 12000.0, max_nodes=3),
            "narrow": OnlineCensus(3, CONSTRAINTS, 1500.0, max_nodes=3),
        }
        client.push(
            [],
            stream=name,
            window=6000.0,
            retention=12000.0,
            delta_c=1500.0,
            delta_w=3000.0,
            n_events=3,
            max_nodes=3,
        )
        assert client.view_add("wide", 12000.0, stream=name)["degraded"] is False
        client.view_add("narrow", 1500.0, stream=name)
        chunk = 60
        for start in range(0, 300, chunk):
            batch = served_events[start : start + chunk]
            result = client.push(batch, stream=name, want_counts=True, view="wide")
            for oracle in oracles.values():
                for ev in batch:
                    oracle.push(ev)
            # want_counts answered from the requested view, bit-identically.
            assert list(result["codes"].items()) == list(oracles["wide"].counts().items())
            for view, oracle in oracles.items():
                payload = client.view_counts(view, stream=name)
                assert payload["exact"] is True
                assert list(payload["codes"].items()) == list(oracle.counts().items())
                assert payload["total"] == oracle.live_instances
        assert result["views"]["narrow"]["live"] == oracles["narrow"].live_instances
        client.stream_close(name)

    def test_view_backfill_on_late_add(self, client, served_events):
        """A view added mid-stream backfills from the shared ledger."""
        name = "mv-backfill"
        oracle = OnlineCensus(3, CONSTRAINTS, 3000.0, max_nodes=3)
        client.push(
            served_events[:150],
            stream=name,
            window=6000.0,
            delta_c=1500.0,
            delta_w=3000.0,
            n_events=3,
            max_nodes=3,
        )
        for ev in served_events[:150]:
            oracle.push(ev)
        added = client.view_add("late", 3000.0, stream=name)
        assert added["views"] == 2
        payload = client.view_counts("late", stream=name)
        assert payload["codes"] == dict(oracle.counts())
        client.stream_close(name)

    def test_view_ops_error_codes(self, client):
        with pytest.raises(ServiceError) as err:
            client.view_add("v", 10.0, stream="never-pushed")
        assert err.value.code == "unknown_stream"
        name = "mv-errors"
        client.push([(0, 1, 1.0)], stream=name, window=50.0, delta_w=10.0)
        with pytest.raises(ServiceError) as err:
            client.view_counts("missing", stream=name)
        assert err.value.code == "unknown_view"
        with pytest.raises(ServiceError) as err:
            client.view_add("too-wide", 100.0, stream=name)  # > retention
        assert err.value.code == "bad_request"
        assert "retention" in str(err.value)
        client.stream_close(name)

    def test_view_drop_is_idempotent_over_wire(self, client):
        name = "mv-drop"
        client.push([(0, 1, 1.0)], stream=name, window=50.0, delta_w=10.0)
        client.view_add("v", 25.0, stream=name)
        assert client.view_drop("v", stream=name)["dropped"] is True
        assert client.view_drop("v", stream=name)["dropped"] is False
        with pytest.raises(ServiceError) as err:
            client.view_counts("v", stream=name)
        assert err.value.code == "unknown_view"
        client.stream_close(name)

    def test_view_overload_degrades_to_estimate(self, served_events):
        pytest.importorskip("numpy")
        handle = start_in_thread(
            events=served_events[:50],
            workers=1,
            overflow="degrade",
            max_exact_views=2,
            degrade_q=1.0,
        )
        try:
            with ServiceClient(handle.host, handle.port) as c:
                name = "mv-degrade"
                c.push(
                    served_events[:200],
                    stream=name,
                    window=6000.0,
                    delta_c=1500.0,
                    delta_w=3000.0,
                    n_events=3,
                    max_nodes=3,
                )
                assert c.view_add("exact-2", 3000.0, stream=name)["degraded"] is False
                # The third exact view busts the budget: admitted degraded.
                added = c.view_add("shed", 3000.0, stream=name, seed=11)
                assert added["degraded"] is True
                payload = c.view_counts("shed", stream=name)
                assert payload["exact"] is False
                assert payload["method"] == "root_sampling"
                assert set(payload["stderr"]) == set(payload["codes"])
                # q=1.0 samples every root: the estimate equals the truth.
                exact = c.view_counts("exact-2", stream=name)
                assert payload["codes"] == exact["codes"]
                counters = c.stats(timeout=15)["metrics"]["counters"]
                assert counters["service.view.shed{policy=degrade}"] >= 1
                assert counters["online.view.degraded"] >= 1
        finally:
            handle.stop()

    def test_view_drop_after_degrade_over_wire(self, served_events):
        """Dropping a degraded node-sliced view must not error even when
        another sliced view shares a node bucket (regression: double
        _unroute raised an internal error on the view_drop op)."""
        pytest.importorskip("numpy")
        handle = start_in_thread(
            events=served_events[:50],
            workers=1,
            overflow="degrade",
            max_exact_views=2,
            degrade_q=1.0,
        )
        try:
            with ServiceClient(handle.host, handle.port) as c:
                name = "mv-degrade-drop"
                c.push(
                    served_events[:100],
                    stream=name,
                    window=6000.0,
                    delta_c=1500.0,
                    delta_w=3000.0,
                    n_events=3,
                    max_nodes=3,
                )
                c.view_add("sliced-a", 3000.0, stream=name, nodes=[0, 1, 2])
                # Shares node buckets with sliced-a; busts the exact
                # budget, so it is admitted degraded (pre-unrouted).
                added = c.view_add("shed", 3000.0, stream=name, nodes=[0, 1, 3])
                assert added["degraded"] is True
                assert c.view_drop("shed", stream=name)["dropped"] is True
                # The surviving sliced view still answers exactly.
                assert c.view_counts("sliced-a", stream=name)["exact"] is True
                c.push(served_events[100:120], stream=name)
        finally:
            handle.stop()

    def test_view_overload_rejects_without_degrade(self, served_events):
        handle = start_in_thread(
            events=served_events[:50], workers=1, overflow="reject", max_exact_views=1
        )
        try:
            with ServiceClient(handle.host, handle.port) as c:
                name = "mv-reject"
                c.push([(0, 1, 1.0)], stream=name, window=50.0, delta_w=10.0)
                with pytest.raises(ServiceError) as err:
                    c.view_add("over", 25.0, stream=name)
                assert err.value.code == "overloaded"
                assert "max_exact_views" in str(err.value)
                counters = c.stats(timeout=15)["metrics"]["counters"]
                assert counters["service.view.shed{policy=reject}"] >= 1
        finally:
            handle.stop()

    def test_worker_death_does_not_disturb_streams(self, served_events):
        """Streams live in the server process: a worker dying mid-stream
        loses nothing — named views keep counting through the respawn."""
        handle = start_in_thread(events=served_events[:50], workers=1)
        try:
            oracle = OnlineCensus(3, CONSTRAINTS, 6000.0, max_nodes=3)
            with ServiceClient(handle.host, handle.port) as c:
                name = "mv-survivor"
                c.push(
                    served_events[:100],
                    stream=name,
                    window=6000.0,
                    delta_c=1500.0,
                    delta_w=3000.0,
                    n_events=3,
                    max_nodes=3,
                )
                c.view_add("watch", 3000.0, stream=name)
                for ev in served_events[:100]:
                    oracle.push(ev)
                victim = c.health()["pids"][0]
                os.kill(victim, signal.SIGKILL)
                # The stream plane never touches the pool: pushes keep
                # landing while the dead worker respawns.
                result = c.push(
                    served_events[100:200], stream=name, want_counts=True
                )
                for ev in served_events[100:200]:
                    oracle.push(ev)
                assert result["accepted"] == 100
                assert result["codes"] == dict(oracle.counts())
                assert "watch" in result["views"]
                # The pool notices the death on the next compute request
                # (which may be the one that trips it), respawns, and the
                # stream's views are untouched throughout.
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    try:
                        assert c.count(n_events=2, delta_w=3000.0)["total"] >= 0
                        break
                    except ServiceError as exc:
                        assert exc.code == "worker_died"
                        time.sleep(0.2)
                else:
                    pytest.fail("worker pool did not respawn after SIGKILL")
                assert c.health()["pids"][0] != victim
                payload = c.view_counts("watch", stream=name)
                assert payload["exact"] is True and payload["discovered"] > 0
        finally:
            handle.stop()


# ----------------------------------------------------------------------
# stats / health / observability plumbing
# ----------------------------------------------------------------------
class TestStatsHealth:
    def test_health(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["alive"] == health["workers"] == 2
        assert len(health["pids"]) == 2
        assert health["graph"]["events"] == CONFIG.n_events

    def test_stats_merges_worker_snapshots(self, client):
        client.census(n_events=3, delta_w=3000.0, max_nodes=3)
        stats = client.stats(timeout=15)
        service = stats["service"]
        assert service["pool"]["workers"] == 2
        assert service["worker_snapshots"] >= 1
        metrics = stats["metrics"]
        # Server-side seams...
        assert metrics["counters"]["service.requests{op=census}"] >= 1
        assert "service.request.seconds{op=census}" in metrics["histograms"]
        # ...merged with worker-side engine/storage seams.
        assert any(name.startswith("engine.") for name in metrics["counters"])

    def test_queue_depth_gauge_present(self, client):
        client.count(n_events=2, delta_w=3000.0)
        stats = client.stats(timeout=15)
        assert "service.queue.depth" in stats["metrics"]["gauges"]


# ----------------------------------------------------------------------
# failure paths
# ----------------------------------------------------------------------
def _raw_connection(server) -> socket.socket:
    sock = socket.create_connection((server.host, server.port), timeout=30)
    return sock


class TestFailurePaths:
    def test_malformed_json_keeps_connection(self, server):
        with _raw_connection(server) as sock:
            fh = sock.makefile("rwb")
            fh.write(b"this is not json\n")
            fh.flush()
            response = json.loads(fh.readline())
            assert response["ok"] is False
            assert response["error"]["code"] == "bad_json"
            # The connection survives a malformed frame.
            fh.write(encode({"op": "health", "id": 2}))
            fh.flush()
            response = json.loads(fh.readline())
            assert response["ok"] is True
            assert response["id"] == 2

    def test_oversized_payload_errors_and_closes(self, served_events):
        handle = start_in_thread(events=served_events[:50], workers=1, max_line=4096)
        try:
            with _raw_connection(handle) as sock:
                fh = sock.makefile("rwb")
                fh.write(b'{"op": "count", "pad": "' + b"x" * 8192 + b'"}\n')
                fh.flush()
                response = json.loads(fh.readline())
                assert response["ok"] is False
                assert response["error"]["code"] == "payload_too_large"
                # Documented behavior: the connection closes after an
                # unsynchronizable oversized frame.
                assert fh.readline() == b""
        finally:
            handle.stop()

    def test_client_disconnect_mid_request(self, server):
        # Fire a request and vanish before the response: the server must
        # keep serving everyone else.
        sock = _raw_connection(server)
        sock.sendall(
            encode({"op": "census", "n_events": 3, "delta_w": 3000.0, "max_nodes": 3})
        )
        sock.close()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            with ServiceClient(server.host, server.port) as c:
                health = c.health()
                if health["status"] == "ok":
                    assert c.count(n_events=2, delta_w=3000.0)["total"] >= 0
                    return
            time.sleep(0.2)  # pragma: no cover - only under extreme load
        pytest.fail("server did not recover from a mid-request disconnect")

    def test_worker_death_mid_request_errors_and_respawns(self, served_events):
        handle = start_in_thread(events=served_events[:50], workers=1)
        try:
            with ServiceClient(handle.host, handle.port) as c:
                victim = c.health()["pids"][0]
                errors: list[Exception] = []

                def doomed():
                    try:
                        c.sleep(30.0)
                    except ServiceError as exc:
                        errors.append(exc)

                thread = threading.Thread(target=doomed)
                thread.start()
                time.sleep(0.3)  # let the sleep job land on the worker
                os.kill(victim, signal.SIGKILL)
                thread.join(timeout=30)
                assert not thread.is_alive(), "request hung after worker death"
                assert errors and errors[0].code == "worker_died"

            # The pool respawned: a fresh request works, on a new pid.
            with ServiceClient(handle.host, handle.port) as c:
                health = c.health()
                assert health["alive"] == 1
                assert health["pids"][0] != victim
                assert c.count(n_events=2, delta_w=3000.0)["total"] >= 0
                assert c.stats(timeout=15)["service"]["pool"]["deaths"] == 1
        finally:
            handle.stop()


# ----------------------------------------------------------------------
# admission control / load shedding
# ----------------------------------------------------------------------
class TestAdmission:
    def test_overload_rejects_with_retry_after(self, served_events):
        handle = start_in_thread(
            events=served_events[:50], workers=1, max_pending=1, overflow="reject"
        )
        try:
            blocker = ServiceClient(handle.host, handle.port)
            done = threading.Event()

            def hold():
                try:
                    blocker.sleep(3.0)
                finally:
                    done.set()

            thread = threading.Thread(target=hold)
            thread.start()
            time.sleep(0.3)  # the sleep occupies the only worker
            with ServiceClient(handle.host, handle.port) as c:
                with pytest.raises(ServiceError) as err:
                    c.count(n_events=2, delta_w=3000.0)
                assert err.value.code == "overloaded"
                assert err.value.retry_after > 0
            done.wait(timeout=30)
            thread.join(timeout=5)
            blocker.close()
            with ServiceClient(handle.host, handle.port) as c:
                shed = c.stats(timeout=15)["metrics"]["counters"]
                assert shed["service.shed{policy=reject}"] >= 1
        finally:
            handle.stop()

    def test_overload_degrades_to_estimate(self, served_events):
        pytest.importorskip("numpy")
        handle = start_in_thread(
            events=served_events[:200],
            workers=1,
            max_pending=1,
            overflow="degrade",
            degrade_q=0.5,
        )
        try:
            blocker = ServiceClient(handle.host, handle.port)
            thread = threading.Thread(target=lambda: blocker.sleep(1.5))
            thread.start()
            time.sleep(0.3)
            with ServiceClient(handle.host, handle.port) as c:
                # Queued behind the sleep, but answered — approximately.
                result = c.census(n_events=3, delta_w=3000.0, max_nodes=3, seed=5)
                assert result["degraded"] is True
                assert result["method"] == "root_sampling"
                assert result["q"] == 0.5
                assert set(result["stderr"]) == set(result["codes"])
            thread.join(timeout=30)
            blocker.close()
            with ServiceClient(handle.host, handle.port) as c:
                shed = c.stats(timeout=15)["metrics"]["counters"]
                assert shed["service.shed{policy=degrade}"] >= 1
        finally:
            handle.stop()


# ----------------------------------------------------------------------
# pool units (no TCP in the loop)
# ----------------------------------------------------------------------
class TestWorkerPool:
    def test_least_loaded_dispatch_and_close(self, served_events):
        pool = WorkerPool({"kind": "events", "events": served_events[:50]}, workers=2)
        try:
            # Two sleeps pin one worker each (least-loaded), so the metas
            # behind them must land one per worker too.
            sleeps = [pool.submit({"op": "sleep", "seconds": 0.4}) for _ in range(2)]
            metas = [pool.submit({"op": "meta"}) for _ in range(2)]
            replies = [f.result(timeout=60) for f in sleeps + metas]
            assert all(r["ok"] for r in replies)
            pids = {r["result"]["pid"] for r in replies[2:]}
            assert len(pids) == 2  # both workers took jobs
        finally:
            pool.close()
        with pytest.raises(RuntimeError):
            pool.submit({"op": "meta"})

    def test_worker_error_reply(self, served_events):
        pool = WorkerPool({"kind": "events", "events": served_events[:50]}, workers=1)
        try:
            reply = pool.submit({"op": "count"}).result(timeout=60)
            assert reply["ok"] is False
            assert reply["error"]["code"] == "bad_request"
        finally:
            pool.close()

    def test_snapshots_collects_workers(self, served_events):
        pool = WorkerPool({"kind": "events", "events": served_events[:50]}, workers=2)
        try:
            snaps = pool.snapshots(timeout=30)
            assert len(snaps) == 2
            assert all("counters" in snap for snap in snaps)
        finally:
            pool.close()
