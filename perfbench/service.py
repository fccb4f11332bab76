"""The ``service-mix`` workload: window reads beside stream writes.

The census server runs as its own process (``python -m
repro.experiments serve --pages DIR --workers 1``), so the server, its
one worker and this load generator share the host's cores.  One client
process holds two connections, each a closed loop: a reader sends
``window`` census queries over seeded short spans of the served graph,
and a writer pushes fixed-size batches into a multi-view stream.  Spans
are short, so queue wait, dispatch and IPC are a visible share of a
read, and a push holding the server's event loop shows in read latency.

Every read is checked against the serial library census of the same
slice, and every push's returned counters against an independent
:class:`~repro.OnlineCensus` replay, key order included.
"""

from __future__ import annotations

import gc
import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time

from census import DELTA_C, DELTA_W, MAX_NODES, N_EVENTS, constraints
from inputs import N_NODES, activity_stream
from measure import Outcome, digest, median, settle, vm_hwm_mib
from stream import VIEWS_SEED

GRAPH_EVENTS = 12_000
#: Reads cover seeded spans of this many events.  Spans of fixed
#: length in time would hold anything from a handful to a thousand
#: events of the bursty stream, and the median read with them.
SPAN_EVENTS = 256
SPANS = 256
PUSH_BATCH = 512
#: Think time between pushes.  The reader's think time is the yardstick
#: sample it takes after every read (about 30 ms).  Together they keep
#: the four busy threads (reader, writer, server loop, worker) below two
#: cores, so latency measures the service, not a saturated host.
PUSH_PAUSE = 0.25
STREAM_VIEWS = 32
MAX_PUSHES = 120
SETUP_ROUNDS = 3
WARMUP_READS = 10
WARMUP_PUSHES = 3
BOOT_TIMEOUT = 120.0

MOTIF = dict(delta_c=DELTA_C, delta_w=DELTA_W, n_events=N_EVENTS, max_nodes=MAX_NODES)


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _children(pid: int) -> list[int]:
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            out.append(int(entry))
    return out


class Server:
    """One census server process on a free port, stopped with its workers."""

    def __init__(self, pages: str, workdir: str) -> None:
        self.port = _free_port()
        self.log = os.path.join(workdir, f"serve-{self.port}.log")
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.experiments", "serve",
                    "--pages", pages, "--workers", "1", "--port", str(self.port),
                ],
                stdout=log,
                stderr=subprocess.STDOUT,
                env=dict(os.environ, TMPDIR=workdir),
            )
        deadline = time.monotonic() + BOOT_TIMEOUT
        while "listening on" not in open(self.log).read():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"census server failed to boot:\n{open(self.log).read()}")
            time.sleep(0.005)

    def client(self):
        from repro.service.client import ServiceClient

        return ServiceClient("127.0.0.1", self.port)

    def peak_rss_mib(self) -> float:
        """Server plus its worker (not the multiprocessing resource tracker)."""
        pids = [self.proc.pid]
        for child in _children(self.proc.pid):
            with open(f"/proc/{child}/cmdline", "rb") as fh:
                if b"resource_tracker" not in fh.read():
                    pids.append(child)
        return sum(vm_hwm_mib(pid) for pid in pids)

    def stop(self) -> None:
        children = _children(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for pid in children:
            if not _gone(pid, 10.0):
                os.kill(pid, signal.SIGKILL)
                _gone(pid, 10.0)


def _gone(pid: int, seconds: float) -> bool:
    """Wait up to ``seconds`` for a process that is not our child to end."""
    deadline = time.monotonic() + seconds
    while os.path.exists(f"/proc/{pid}"):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def _wire_census(census) -> dict:
    """A census in the server's reply shape, through a JSON round trip."""
    payload = {
        "total": census.total,
        "codes": dict(census.code_counts),
        "pairs": {
            ("disjoint" if p is None else p.value): n for p, n in census.pair_counts.items()
        },
        "pair_groups": census.pair_group_counts(),
    }
    return json.loads(json.dumps(payload))


def _read_key(result: dict) -> str:
    body = {k: v for k, v in result.items() if k != "elapsed"}
    return digest((sorted(body.items()), list(body["codes"]), list(body["pairs"])))


def _spans(events, rng: random.Random) -> list[tuple[float, float]]:
    out = []
    for _ in range(SPANS):
        lo = rng.randrange(len(events) - SPAN_EVENTS)
        out.append((events[lo][2], events[lo + SPAN_EVENTS - 1][2]))
    return out


def _boot(pages: str, workdir: str):
    """One set-up round: server boot, stream and views."""
    rng = random.Random(VIEWS_SEED)
    server = Server(pages, workdir)
    try:
        with server.client() as client:
            client.push([], window=DELTA_W, prune_every=8192, **MOTIF)
            for i in range(STREAM_VIEWS):
                client.view_add(f"tenant-{i}", DELTA_W, nodes=rng.sample(range(N_NODES), 3))
    except BaseException:
        server.stop()
        raise
    return server


def service_mix(ctx) -> Outcome:
    from repro import TemporalGraph
    from repro.algorithms.counting import run_census

    tracer = ctx.tracer
    if tracer is not None:
        tracer.unpatch()  # nothing of the system runs in this process
    rng = random.Random(ctx.seed)
    events = activity_stream(ctx.seed, GRAPH_EVENTS)
    pushed = activity_stream(ctx.seed + 7919, MAX_PUSHES * PUSH_BATCH)
    spans = _spans(events, rng)
    order = [rng.randrange(SPANS) for _ in range(100_000)]

    out = Outcome()
    # The served pages are the workload's input on disk, written once.
    pages = os.path.join(ctx.workdir, "pages")
    TemporalGraph(events, backend="numpy").save(pages)
    settle(pages)
    server = None
    try:
        for _ in range(SETUP_ROUNDS):
            if server is not None:
                server.stop()
            t0 = time.perf_counter()
            server = _boot(pages, ctx.workdir)
            out.setup_s.append(time.perf_counter() - t0)
            out.setup_at.append(t0)
            out.sample_host()

        # References, outside the timed phase (this process is not measured).
        graph = TemporalGraph(events, backend="list")
        wants = [
            _read_key(
                _wire_census(
                    run_census(graph.slice(lo, hi), N_EVENTS, constraints(), max_nodes=MAX_NODES)
                )
            )
            for lo, hi in spans
        ]
        result = _drive(ctx, server, spans, order, pushed, wants, out)
        out.peak_rss_mib = server.peak_rss_mib()
    finally:
        if server is not None:
            server.stop()
    failed_pushes = _check_pushes(pushed, result["pushes"])
    out.attempted = result["reads"] + len(result["pushes"])
    out.failed = result["failed_reads"] + failed_pushes
    out.notes.append(
        f"{result['reads']} reads of {SPAN_EVENTS}-event spans, "
        f"{len(result['pushes'])} pushes of {PUSH_BATCH} events"
    )
    return out


def _drive(ctx, server, spans, order, pushed, wants, out: Outcome) -> dict:
    """The timed phase: a reader and a writer thread, one connection each."""
    reader, writer = server.client(), server.client()
    try:
        for i in range(WARMUP_READS):
            lo, hi = spans[order[i]]
            reader.window(lo, hi, **MOTIF)
        cursor = 0
        for _ in range(WARMUP_PUSHES):
            writer.push(pushed[cursor : cursor + PUSH_BATCH], want_counts=True)
            cursor += PUSH_BATCH
        traced = ctx.tracer is not None
        split = ctx.seconds / 3 if traced else 0.0
        state = {"reads": 0, "failed_reads": 0, "pushes": [], "depth": 0, "traced": []}
        plain_lat: list[float] = []
        gc.collect()
        gc.freeze()
        gc.disable()
        start = time.perf_counter()
        deadline = start + ctx.seconds
        phase_at = start + split

        def read_loop():
            i = WARMUP_READS
            out.sample_host(collect=False)
            while time.perf_counter() < deadline:
                want = order[i % len(order)]
                lo, hi = spans[want]
                t0 = time.perf_counter()
                if traced and t0 >= phase_at and "served_from" not in state:
                    state["served_from"] = reader.stats()["metrics"]
                    t0 = time.perf_counter()
                try:
                    response = reader.request("window", t_lo=lo, t_hi=hi, **MOTIF)
                except (OSError, ValueError, RuntimeError):
                    # Connection lost: a failed read, then stop.
                    state["failed_reads"] += 1
                    return
                latency = time.perf_counter() - t0
                ok = bool(response.get("ok")) and _read_key(response["result"]) == wants[want]
                state["reads"] += 1
                state["failed_reads"] += not ok
                if t0 < phase_at:
                    plain_lat.append(latency)
                else:
                    out.op_s.append(latency)
                    out.op_at.append(t0)
                    if ok:
                        state["traced"].append((latency, response["result"]["elapsed"]))
                i += 1
                out.sample_host(collect=False)
            if traced:
                state["served_to"] = reader.stats()["metrics"]

        def write_loop(cursor=cursor):
            stats_at = phase_at
            while time.perf_counter() < deadline and cursor + PUSH_BATCH <= len(pushed):
                batch = pushed[cursor : cursor + PUSH_BATCH]
                cursor += PUSH_BATCH
                t0 = time.perf_counter()
                try:
                    response = writer.request(
                        "push", stream="default", events=[list(e) for e in batch], want_counts=True
                    )
                except (OSError, ValueError, RuntimeError):
                    state["pushes"].append((cursor, None))
                    return
                out.write_s.append(time.perf_counter() - t0)
                out.write_at.append(t0)
                ok = response.get("ok") and response["result"]["accepted"] == len(batch)
                state["pushes"].append(
                    (cursor, ok and digest(list(response["result"]["codes"].items())))
                )
                if traced and time.perf_counter() >= stats_at:
                    snap = writer.stats()["metrics"]
                    state.setdefault("first_stats", snap)
                    state["last_stats"] = snap
                    depth = snap["gauges"].get("service.queue.depth", 0)
                    state["depth"] = max(state["depth"], depth)
                    stats_at = time.perf_counter() + 1.0
                time.sleep(PUSH_PAUSE)

        threads = [threading.Thread(target=read_loop), threading.Thread(target=write_loop)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        gc.enable()
        gc.unfreeze()
        if traced:
            _service_layers(out, state, plain_lat)
        else:
            out.op_s = plain_lat + out.op_s
        return state
    finally:
        gc.enable()
        reader.close()
        writer.close()


def _service_layers(out: Outcome, state: dict, plain_lat: list[float]) -> None:
    """Read time split into the worker's own ``elapsed`` and the rest.

    Unattributed time is client latency that no server-side span covers:
    latency minus the server's own ``service.request.seconds`` for the
    same reads (socket, framing, waiting for the event loop).
    """
    reads = len(state["traced"])
    worker = sum(elapsed for _, elapsed in state["traced"])
    out.layers["ops"] = reads
    out.layers["service.worker_s"] = worker / reads
    out.layers["service.overhead_s"] = (sum(lat for lat, _ in state["traced"]) - worker) / reads
    first, last = state["first_stats"], state["last_stats"]
    h0 = first["histograms"].get("service.push.seconds", {"count": 0, "total": 0.0})
    h1 = last["histograms"]["service.push.seconds"]
    out.layers["service.push_s"] = (h1["total"] - h0["total"]) / max(h1["count"] - h0["count"], 1)
    out.layers["service.queue.depth"] = state["depth"]
    out.layers["trace.overhead_ratio"] = median(out.op_s) / median(plain_lat)
    name = "service.request.seconds{op=window}"
    before = state["served_from"]["histograms"].get(name, {"count": 0, "total": 0.0})
    after = state["served_to"]["histograms"][name]
    if after["count"] - before["count"] != len(out.op_s):
        raise RuntimeError("the server counted other window reads than the client sent")
    served = after["total"] - before["total"]
    out.layers["trace.unattributed_s"] = (sum(out.op_s) - served) / len(out.op_s)


def _check_pushes(pushed, pushes) -> int:
    """Pushes whose counters differ from an independent single-view replay."""
    from repro import OnlineCensus

    oracle = OnlineCensus(
        N_EVENTS, constraints(), DELTA_W, max_nodes=MAX_NODES, backend="list", prune_every=8192
    )
    failed, pos = 0, 0
    for boundary, got in pushes:
        for event in pushed[pos:boundary]:
            oracle.push(event)
        pos = boundary
        failed += got != digest(list(oracle.counts().items()))
    return failed
