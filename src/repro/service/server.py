"""Census-as-a-service: the concurrent query/stream server.

One :class:`CensusServer` owns one served graph and fans many clients
over it:

* the **front-end** is a single asyncio event loop speaking the
  :mod:`repro.service.protocol` NDJSON framing over TCP streams —
  stdlib-only, so the service runs wherever the library does;
* the **compute plane** is a :class:`~repro.service.workers.WorkerPool`
  of N processes, each holding the same page-directory-backed
  :class:`~repro.core.temporal_graph.TemporalGraph` open via
  ``mmap_mode="r"`` (one set of read-only column pages, shared through
  the OS page cache) and reusing the PR 5 memoized plan cache per
  request configuration;
* the **stream plane** lives in the server process: one shared
  :class:`~repro.online.MultiViewCensus` engine per pushed stream, fed
  by ``push`` requests and fanning each arrival into many named views
  (``view_add``/``view_drop``/``view_counts``) — heterogeneous window
  lengths and node slices over one graph tail, prefix store and
  compiled kernel, so trailing-window counters are maintained per
  arriving event without a worker round-trip.

The view budget extends admission control to the stream plane: beyond
``max_exact_views`` exact views per stream, ``view_add`` is rejected
(``overflow="reject"``) or admitted in degraded estimate mode
(``overflow="degrade"`` — :meth:`MultiViewCensus.degrade_view`, the PR 5
root-sampling estimator with per-code ``stderr`` bars at read time).
Shed decisions are counted under ``service.view.shed{policy=...}`` and
the engines record their ``online.view.*`` lifecycle metrics straight
into the server registry.

Admission control extends the ``StreamMatcher.shed`` load-shedding
story to the query path: compute requests beyond ``max_pending``
outstanding are either **rejected** with a ``retry_after`` hint
(``overflow="reject"``), or **degraded** to the PR 5 root-sampling
estimator with per-code error bars (``overflow="degrade"`` — a cheap
approximate answer beats no answer; a hard limit of 2x ``max_pending``
still rejects).  Every shed decision is counted
(``service.shed{policy=...}``), queue depth is a gauge, and per-op
latency histograms accumulate in the server's always-on metrics
registry — the ``stats`` op returns them merged with every worker's
observability snapshot, the same associative fold the parallel engine
uses for shard snapshots.

Run it from the experiments CLI (``python -m repro.experiments serve
--datasets sms-copenhagen --workers 4``), embed it via
:func:`start_in_thread` (what the benchmark, the CI smoke drill and the
tests do), or drive a remote instance with
:class:`repro.service.client.ServiceClient`.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import tempfile
import threading
import time
from typing import Any, Mapping

from repro.obs.registry import MetricsRegistry, labeled, merge_snapshots
from repro.service import protocol
from repro.service.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    decode_line,
    encode,
    error_response,
    ok_response,
    validate_request,
)
from repro.service.workers import DEFAULT_REQUEST_TIMEOUT, WorkerDied, WorkerPool

__all__ = ["CensusServer", "ServerHandle", "serve_cli", "start_in_thread"]

#: Default bound on outstanding compute requests (queued + running).
DEFAULT_MAX_PENDING = 32

#: Hard ceiling multiplier: even the degrade policy rejects beyond this.
HARD_LIMIT_FACTOR = 2

#: Per-push-batch event cap (distinct from the line-size cap: a batch of
#: tiny events can be huge in count while small in bytes).
DEFAULT_MAX_PUSH_BATCH = 50_000


def _numpy_available() -> bool:
    from repro.core._optional import import_numpy

    # import_numpy returns a falsy stand-in (not None) when absent.
    return bool(import_numpy())


class _Stream:
    """One named server-side multi-view census plus its bookkeeping."""

    def __init__(self, engine, window: float) -> None:
        self.engine = engine
        self.window = window  # the "default" view's window
        self.created_at = time.monotonic()

    def describe(self) -> dict:
        info = self.engine.describe()
        default = info["views"].get("default", {})
        # The flat keys describe the "default" view (the pre-multi-view
        # response shape); "retention"/"views" carry the full picture.
        return {
            "window": self.window,
            "pushed": info["pushed"],
            "discovered": default.get("discovered", info["discovered"]),
            "expired": default.get("expired", 0),
            "live": default.get("live", 0),
            "prefixes": info["prefixes"],
            "now": info["now"],
            "retention": info["retention"],
            "views": info["views"],
        }


class CensusServer:
    """A concurrent census/stream server over one shared graph.

    Parameters
    ----------
    dataset / scale / seed:
        Serve a registered dataset.  When NumPy is importable the graph
        is materialized once, written to a temporary page directory, and
        every worker mmaps those shared pages; without NumPy each worker
        regenerates the (deterministic) dataset.
    pages:
        Serve an existing page directory (takes precedence over
        ``dataset``); workers open it read-only, zero-copy.
    events:
        Serve an explicit event list (tests, tiny embedded uses).
    workers:
        Compute processes.  Each request may additionally carry
        ``jobs=N`` to shard its own census inside the worker.
    max_pending:
        Admission bound on outstanding compute requests; beyond it the
        ``overflow`` policy applies (``"reject"`` or ``"degrade"``).
    degrade_q:
        Root-sampling probability used for degraded answers.
    max_exact_views:
        Per-stream budget of exact (non-degraded) views; ``None`` (the
        default) means unlimited.  A ``view_add`` past the budget is
        rejected under ``overflow="reject"`` and admitted in estimate
        mode under ``overflow="degrade"`` (when NumPy is available).
    """

    def __init__(
        self,
        *,
        dataset: str | None = None,
        scale: float = 1.0,
        seed: int | None = None,
        pages: str | None = None,
        events: list | None = None,
        workers: int = 2,
        max_pending: int = DEFAULT_MAX_PENDING,
        overflow: str = "reject",
        degrade_q: float = 0.25,
        host: str = "127.0.0.1",
        port: int = 0,
        max_line: int = MAX_LINE_BYTES,
        max_push_batch: int = DEFAULT_MAX_PUSH_BATCH,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
        stream_backend: str | None = None,
        max_exact_views: int | None = None,
    ) -> None:
        if overflow not in ("reject", "degrade"):
            raise ValueError("overflow must be 'reject' or 'degrade'")
        if max_pending < 0:
            raise ValueError("max_pending must be >= 0")
        self._requested = dict(
            dataset=dataset, scale=scale, seed=seed, pages=pages, events=events
        )
        self._workers_n = workers
        self._max_pending = max_pending
        self._overflow = overflow
        self._degrade_q = degrade_q
        self._host = host
        self._port = port
        self._max_line = max_line
        self._max_push_batch = max_push_batch
        self._request_timeout = request_timeout
        self._stream_backend = stream_backend
        if max_exact_views is not None and max_exact_views < 1:
            raise ValueError("max_exact_views must be >= 1 (or None for no cap)")
        self._max_exact_views = max_exact_views

        self.registry = MetricsRegistry()
        self._streams: dict[str, _Stream] = {}
        self._pool: WorkerPool | None = None
        self._server: asyncio.AbstractServer | None = None
        self._tmpdir: tempfile.TemporaryDirectory | None = None
        self._connections = 0
        self._started_at: float | None = None
        self.meta: dict = {}

    # ------------------------------------------------------------------
    # source resolution
    # ------------------------------------------------------------------
    def _resolve_source(self) -> dict:
        """Build the wire spec the worker pool will open.

        All source-kind knowledge lives in :func:`repro.sources.resolve`
        (this used to be a private copy of it); the one piece of policy
        that stays here is *materialization*: a dataset served on a
        NumPy build is generated once, paged out to a server-owned
        temporary directory, and re-resolved as a page source — so every
        worker mmaps the same read-only columns and the parent drops its
        copy.  An explicit ``pages=`` directory may be flat or
        partitioned; ``resolve`` sniffs the manifest.
        """
        from repro import sources

        req = self._requested
        if req["pages"] is not None:
            return sources.resolve(req["pages"]).spec()
        if req["events"] is not None:
            return sources.resolve(req["events"]).spec()
        name = req["dataset"] or "sms-copenhagen"
        source = sources.resolve(name, scale=req["scale"], seed=req["seed"])
        if _numpy_available():
            graph = source.open()
            self._tmpdir = tempfile.TemporaryDirectory(prefix="census-pages-")
            graph.save(self._tmpdir.name)
            return sources.resolve(self._tmpdir.name).spec()
        return source.spec()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Boot the pool and start listening; returns ``(host, port)``."""
        loop = asyncio.get_running_loop()
        source = self._resolve_source()
        self._pool = await loop.run_in_executor(
            None,
            lambda: WorkerPool(
                source,
                self._workers_n,
                request_timeout=self._request_timeout,
            ),
        )
        reply = await asyncio.wrap_future(self._pool.submit({"op": "meta"}))
        self.meta = reply["result"] if reply.get("ok") else {}
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port, limit=self._max_line
        )
        self._started_at = time.monotonic()
        sock = self._server.sockets[0].getsockname()
        self._host, self._port = sock[0], sock[1]
        return self._host, self._port

    @property
    def address(self) -> tuple[str, int]:
        return self._host, self._port

    async def stop(self) -> None:
        """Close the listener, drop connections, shut the pool down."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._pool is not None:
            pool = self._pool
            self._pool = None
            await asyncio.get_running_loop().run_in_executor(None, pool.close)
        self._streams.clear()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        self._connections += 1
        self.registry.set_gauge("service.connections", self._connections)
        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as eof:
                    if eof.partial.strip():
                        # A final unterminated frame: answer it best-effort.
                        response = await self._process_line(eof.partial)
                        writer.write(encode(response))
                        await writer.drain()
                    break
                except asyncio.LimitOverrunError:
                    # The frame exceeds max_line.  The tail of an
                    # oversized frame cannot be re-synchronized reliably,
                    # so answer and close (documented protocol behavior).
                    self.registry.inc("service.errors{code=payload_too_large}")
                    writer.write(
                        encode(
                            error_response(
                                None,
                                "payload_too_large",
                                f"request frame exceeds {self._max_line} bytes",
                            )
                        )
                    )
                    await writer.drain()
                    break
                if not line.strip():
                    continue
                response = await self._process_line(line)
                writer.write(encode(response))
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError, OSError):
            # Client went away mid-request/mid-response: drop the
            # connection; any in-flight worker job completes and is
            # discarded with it.
            self.registry.inc("service.disconnects")
        finally:
            self._connections -= 1
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _process_line(self, line: bytes) -> dict:
        try:
            obj = decode_line(line)
            request_id, op = validate_request(obj)
        except ProtocolError as exc:
            self.registry.inc(f"service.errors{{code={exc.code}}}")
            return error_response(None, exc.code, exc.message, **exc.extra)
        started = time.perf_counter()
        try:
            response = await self._dispatch(request_id, op, obj)
        except ProtocolError as exc:
            self.registry.inc(f"service.errors{{code={exc.code}}}")
            response = error_response(request_id, exc.code, exc.message, **exc.extra)
        except Exception as exc:  # pragma: no cover - defensive
            self.registry.inc("service.errors{code=internal}")
            response = error_response(request_id, "internal", repr(exc))
        self.registry.observe(
            labeled("service.request.seconds", op=op),
            time.perf_counter() - started,
        )
        return response

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    async def _dispatch(self, request_id: Any, op: str, obj: Mapping) -> dict:
        self.registry.inc(labeled("service.requests", op=op))
        if op in protocol.COMPUTE_OPS:
            return await self._dispatch_compute(request_id, op, obj)
        if op == "push":
            return ok_response(request_id, self._handle_push(obj))
        if op == "view_add":
            return ok_response(request_id, self._handle_view_add(obj))
        if op == "view_drop":
            return ok_response(request_id, self._handle_view_drop(obj))
        if op == "view_counts":
            return ok_response(request_id, self._handle_view_counts(obj))
        if op == "stream_close":
            name = obj.get("stream", "default")
            existed = self._streams.pop(name, None) is not None
            return ok_response(request_id, {"stream": name, "closed": existed})
        if op == "stats":
            return ok_response(request_id, await self._handle_stats(obj))
        if op == "health":
            return ok_response(request_id, self._handle_health())
        raise ProtocolError("unknown_op", f"unhandled op {op!r}")  # pragma: no cover

    async def _dispatch_compute(self, request_id: Any, op: str, obj: Mapping) -> dict:
        assert self._pool is not None, "server not started"
        job = dict(obj)
        job["op"] = op
        depth = self._pool.outstanding()
        self.registry.set_gauge("service.queue.depth", depth)
        if op != "sleep" and depth >= self._max_pending:
            job = self._shed(op, job, depth)  # may raise overloaded
        future = self._pool.submit(job)
        try:
            reply = await asyncio.wrap_future(future)
        except WorkerDied as died:
            code = "timeout" if died.timed_out else "worker_died"
            self.registry.inc(f"service.errors{{code={code}}}")
            return error_response(request_id, code, str(died))
        if not reply.get("ok"):
            err = reply.get("error", {})
            code = err.get("code", "internal")
            self.registry.inc(f"service.errors{{code={code}}}")
            return error_response(request_id, code, err.get("message", "?"))
        return ok_response(request_id, reply["result"])

    def _shed(self, op: str, job: dict, depth: int) -> dict:
        """Apply the overflow policy to one over-admission request.

        Returns the (possibly degraded) job to submit, or raises the
        ``overloaded`` :class:`ProtocolError` for the reject path.
        """
        degradable = op in ("census", "count", "window", "estimate")
        hard_limit = max(self._max_pending, 1) * HARD_LIMIT_FACTOR
        if (
            self._overflow == "degrade"
            and degradable
            and depth < hard_limit
            and _numpy_available()
        ):
            self.registry.inc("service.shed{policy=degrade}")
            degraded = dict(job)
            degraded["op"] = "estimate"
            degraded.setdefault("q", self._degrade_q)
            degraded["degraded"] = True
            return degraded
        self.registry.inc("service.shed{policy=reject}")
        raise ProtocolError(
            "overloaded",
            f"admission queue full ({depth} outstanding >= "
            f"{self._max_pending} max_pending); retry later",
            retry_after=self._retry_after(depth),
        )

    def _retry_after(self, depth: int) -> float:
        """Estimate when a slot frees up: mean request latency x backlog."""
        hist = self.registry.histograms.get(
            labeled("service.request.seconds", op="census")
        )
        if hist is None or not hist.count:
            candidates = [
                h
                for name, h in self.registry.histograms.items()
                if name.startswith("service.request.seconds") and h.count
            ]
            hist = candidates[0] if candidates else None
        mean = hist.mean if hist is not None else 0.05
        backlog = max(depth - self._max_pending + 1, 1)
        workers = len(self._pool) if self._pool else 1
        return round(max(0.05, mean * backlog / workers), 3)

    # ------------------------------------------------------------------
    # inline ops
    # ------------------------------------------------------------------
    def _handle_push(self, obj: Mapping) -> dict:
        name = obj.get("stream", "default")
        if not isinstance(name, str):
            raise ProtocolError("bad_request", "stream must be a string")
        events = obj.get("events", [])
        if not isinstance(events, list):
            raise ProtocolError("bad_request", "events must be a list of [u, v, t]")
        if len(events) > self._max_push_batch:
            raise ProtocolError(
                "payload_too_large",
                f"push batch of {len(events)} exceeds the "
                f"{self._max_push_batch}-event cap; split the batch",
            )
        stream = self._streams.get(name)
        if stream is None:
            stream = self._streams[name] = self._create_stream(obj)
        engine = stream.engine
        before = engine.pushed
        with self.registry.span("service.push.seconds"):
            # Parse up to the first bad item: the events before it are
            # pushed, in one batch, before its error is raised, as one
            # push per event would.
            batch = []
            problem: Exception | None = None
            for ev in events:
                if not isinstance(ev, (list, tuple)) or len(ev) != 3:
                    problem = ProtocolError("bad_request", "each event must be [u, v, t]")
                    break
                try:
                    batch.append((int(ev[0]), int(ev[1]), float(ev[2])))
                except (TypeError, ValueError) as exc:
                    problem = exc
                    break
            try:
                engine.push_many(batch)
                if problem is not None:
                    raise problem
            except ProtocolError:
                raise
            except (TypeError, ValueError) as exc:
                # e.g. timestamps going backwards: the stream contract.
                accepted = engine.pushed - before
                self.registry.inc("service.errors{code=bad_stream}")
                raise ProtocolError(
                    "bad_stream",
                    f"push rejected after {accepted} events: {exc}",
                    accepted=accepted,
                ) from None
        accepted = len(batch)
        self.registry.inc("service.push.events", accepted)
        result = {"stream": name, "accepted": accepted}
        result.update(stream.describe())  # "pushed" is the stream's lifetime total
        if obj.get("want_counts"):
            payload = self._view_payload(name, stream, obj.get("view", "default"))
            result["codes"] = payload["codes"]
            if payload["exact"]:
                result["total"] = payload["total"]
            else:
                result["stderr"] = payload["stderr"]
                result["degraded"] = True
        return result

    def _create_stream(self, obj: Mapping) -> _Stream:
        from repro.core.constraints import TimingConstraints
        from repro.online import MultiViewCensus

        window = obj.get("window")
        if window is None:
            raise ProtocolError(
                "bad_request",
                "first push to a stream must configure it: window is required",
            )
        delta_c, delta_w = protocol.constraint_fields(obj)
        n_events = obj.get("n_events", 3)
        try:
            window = float(window)
            # Retention bounds the largest window any later view_add may
            # register; the engine's ledger/prefix horizons follow it.
            retention = float(obj.get("retention", window))
            engine = MultiViewCensus(
                n_events,
                TimingConstraints(delta_c=delta_c, delta_w=delta_w),
                retention,
                max_nodes=obj.get("max_nodes"),
                backend=self._stream_backend,
                prune_every=obj.get("prune_every", 8192),
                registry=self.registry,
            )
            engine.add_view("default", window)
        except (TypeError, ValueError) as exc:
            raise ProtocolError("bad_request", f"bad stream config: {exc}") from None
        self.registry.inc("service.streams.created")
        return _Stream(engine, window)

    # ------------------------------------------------------------------
    # view plane
    # ------------------------------------------------------------------
    def _require_stream(self, obj: Mapping) -> tuple[str, _Stream]:
        name = obj.get("stream", "default")
        if not isinstance(name, str):
            raise ProtocolError("bad_request", "stream must be a string")
        stream = self._streams.get(name)
        if stream is None:
            raise ProtocolError(
                "unknown_stream",
                f"no stream named {name!r}; create it with a push "
                "(window is required on the first one)",
            )
        return name, stream

    @staticmethod
    def _view_name(obj: Mapping, *, default: str | None = None) -> str:
        view = obj.get("view", default)
        if not isinstance(view, str) or not view:
            raise ProtocolError("bad_request", "view must be a non-empty string")
        return view

    def _view_payload(self, name: str, stream: _Stream, view: str) -> dict:
        engine = stream.engine
        if view not in engine:
            raise ProtocolError(
                "unknown_view",
                f"stream {name!r} has no view {view!r} "
                f"(have: {sorted(engine.view_names())})",
            )
        try:
            return engine.view_counts(view)
        except RuntimeError as exc:
            # A degraded view read without NumPy on the server.
            raise ProtocolError("bad_request", str(exc)) from None

    def _handle_view_add(self, obj: Mapping) -> dict:
        name, stream = self._require_stream(obj)
        view = self._view_name(obj)
        window = obj.get("window")
        if window is None:
            raise ProtocolError("bad_request", "view_add requires a window")
        nodes = obj.get("nodes")
        if nodes is not None and not isinstance(nodes, list):
            raise ProtocolError("bad_request", "nodes must be a list of node ids")
        engine = stream.engine
        degrade = False
        if self._max_exact_views is not None:
            exact = sum(
                1
                for info in engine.describe()["views"].values()
                if info["mode"] == "exact"
            )
            if exact >= self._max_exact_views:
                if self._overflow == "degrade" and _numpy_available():
                    degrade = True
                    self.registry.inc("service.view.shed{policy=degrade}")
                else:
                    self.registry.inc("service.view.shed{policy=reject}")
                    raise ProtocolError(
                        "overloaded",
                        f"stream {name!r} already maintains {exact} exact views "
                        f"(max_exact_views={self._max_exact_views}); drop one "
                        "or run the server with overflow='degrade'",
                    )
        try:
            engine.add_view(
                view,
                float(window),
                nodes=None if nodes is None else [int(n) for n in nodes],
                backfill=bool(obj.get("backfill", True)),
            )
            if degrade:
                engine.degrade_view(
                    view,
                    q=float(obj.get("q", self._degrade_q)),
                    seed=obj.get("seed"),
                )
        except (TypeError, ValueError) as exc:
            raise ProtocolError("bad_request", f"bad view config: {exc}") from None
        return {
            "stream": name,
            "view": view,
            "window": float(window),
            "degraded": degrade,
            "views": len(engine),
        }

    def _handle_view_drop(self, obj: Mapping) -> dict:
        name, stream = self._require_stream(obj)
        view = self._view_name(obj)
        dropped = stream.engine.drop_view(view)
        return {
            "stream": name,
            "view": view,
            "dropped": dropped,
            "views": len(stream.engine),
        }

    def _handle_view_counts(self, obj: Mapping) -> dict:
        name, stream = self._require_stream(obj)
        view = self._view_name(obj, default="default")
        payload = self._view_payload(name, stream, view)
        payload["stream"] = name
        return payload

    async def _handle_stats(self, obj: Mapping) -> dict:
        assert self._pool is not None
        timeout = float(obj.get("timeout", 5.0))
        loop = asyncio.get_running_loop()
        worker_snaps = await loop.run_in_executor(
            None, lambda: self._pool.snapshots(timeout) if self._pool else []
        )
        merged = merge_snapshots([self.registry.snapshot(), *worker_snaps])
        service = {
            "uptime_s": (
                time.monotonic() - self._started_at if self._started_at else 0.0
            ),
            "connections": self._connections,
            "max_pending": self._max_pending,
            "overflow": self._overflow,
            "pool": self._pool.stats() if self._pool else {},
            "worker_snapshots": len(worker_snaps),
            "streams": {
                name: stream.describe() for name, stream in self._streams.items()
            },
            "graph": self.meta,
        }
        return {"service": service, "metrics": merged}

    def _handle_health(self) -> dict:
        pool = self._pool
        return {
            "status": "ok" if pool is not None and pool.alive() == len(pool) else "degraded",
            "workers": len(pool) if pool else 0,
            "alive": pool.alive() if pool else 0,
            "pids": pool.pids() if pool else [],
            "outstanding": pool.outstanding() if pool else 0,
            "uptime_s": (
                time.monotonic() - self._started_at if self._started_at else 0.0
            ),
            "graph": self.meta,
        }


# ----------------------------------------------------------------------
# embedding helpers
# ----------------------------------------------------------------------
class ServerHandle:
    """A running server on a background thread (tests, benchmarks, demos)."""

    def __init__(self, server: CensusServer) -> None:
        self.server = server
        self.host: str | None = None
        self.port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._started = threading.Event()
        self._failure: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="census-server", daemon=True
        )

    def _run(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop_event = asyncio.Event()
            try:
                self.host, self.port = await self.server.start()
            except BaseException as exc:
                self._failure = exc
                self._started.set()
                raise
            self._started.set()
            try:
                await self._stop_event.wait()
            finally:
                await self.server.stop()

        try:
            asyncio.run(main())
        except BaseException as exc:  # pragma: no cover - surfaced via start()
            if self._failure is None:
                self._failure = exc

    def start(self, timeout: float = 120.0) -> "ServerHandle":
        self._thread.start()
        if not self._started.wait(timeout):
            raise TimeoutError("census server did not start in time")
        if self._failure is not None:
            raise RuntimeError("census server failed to start") from self._failure
        return self

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is not None and self._stop_event is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout)


def start_in_thread(**kwargs: Any) -> ServerHandle:
    """Boot a :class:`CensusServer` on a background thread; returns the handle.

    ``kwargs`` go to the :class:`CensusServer` constructor.  The handle
    exposes ``host``/``port`` once started and ``stop()`` for a clean
    shutdown (listener closed, workers joined, temp pages removed).
    """
    return ServerHandle(CensusServer(**kwargs)).start()


# ----------------------------------------------------------------------
# CLI entry (python -m repro.experiments serve)
# ----------------------------------------------------------------------
def serve_cli(args: Any) -> int:
    """Run a server in the foreground from parsed experiments-CLI args."""
    dataset = None
    if getattr(args, "datasets", None):
        dataset = args.datasets[0]
    server = CensusServer(
        dataset=dataset,
        scale=getattr(args, "scale", 1.0),
        pages=getattr(args, "pages", None),
        workers=getattr(args, "workers", None) or 2,
        max_pending=getattr(args, "max_pending", None) or DEFAULT_MAX_PENDING,
        overflow=getattr(args, "overflow", None) or "reject",
        host=getattr(args, "host", None) or "127.0.0.1",
        port=getattr(args, "port", None) or 8737,
    )

    async def main() -> int:
        host, port = await server.start()
        meta = server.meta
        print(
            f"census service listening on {host}:{port} — "
            f"{meta.get('events', '?')} events of {meta.get('name', '?')!r} "
            f"({len(server._pool or [])} workers, "
            f"max_pending={server._max_pending}, overflow={server._overflow})"
        )
        print("protocol: one JSON request per line; try "
              '{"op": "health"} or {"op": "count", "delta_w": 3600}')
        # SIGTERM must shut down as cleanly as Ctrl-C: the workers are
        # non-daemonic spawn processes and would outlive a killed parent.
        stop_requested = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop_requested.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        try:
            await stop_requested.wait()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()
        return 0

    try:
        return asyncio.run(main())
    except KeyboardInterrupt:
        print("\nshutting down")
        return 0
