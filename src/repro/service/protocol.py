"""The census service wire protocol: newline-delimited JSON frames.

One request per line, one response per line, UTF-8 JSON — chosen so the
service is reachable from ``netcat``, a five-line client in any
language, and the stdlib-only :mod:`repro.service.client`, with no
dependency beyond ``asyncio`` streams on the server side.

Requests
--------

Every request is an object with an ``op`` and an optional ``id`` (echoed
verbatim on the response so clients may pipeline)::

    {"id": 7, "op": "census", "n_events": 3, "delta_w": 3000.0}

Compute ops (dispatched to the worker pool; all accept ``t_lo``/``t_hi``
to restrict to a closed time window, ``max_nodes``, and per-request
``jobs`` — worker processes *inside* the worker handling the request):

* ``census``   — full :func:`~repro.algorithms.counting.run_census`:
  per-code counts, plus the pair counts and pair-group totals derived
  from them.
* ``count``    — per-code counts only
  (:func:`~repro.algorithms.counting.count_motifs`, the same census
  pass projected onto its code counts).
* ``window``   — ``census`` with ``t_lo``/``t_hi`` *required*: the
  point-lookup shape of a dashboard query.
* ``estimate`` — root-sampling approximate counts
  (:func:`~repro.algorithms.sampling.estimate_counts_root_sampling`)
  with per-code standard errors; ``q`` in (0, 1], optional ``seed``.
  Requires NumPy; also what overloaded ``census``/``count``/``window``
  requests degrade to under the ``degrade`` overflow policy.
* ``sleep``    — hold a worker for ``seconds`` (diagnostic: lets tests
  and load drills fill the admission queue deterministically).

Inline ops (answered by the server process itself):

* ``push``   — append events to a named server-side
  :class:`~repro.online.MultiViewCensus` stream; creates the stream
  (and its ``"default"`` view) on first use (``window`` required then,
  plus the usual motif knobs and an optional ``retention`` — the
  largest window any later view may use, defaulting to ``window``).
* ``view_add`` — register a named view on an existing stream: its own
  ``window``, optional ``nodes`` slice, optional ``backfill`` (default
  true).  Under the ``degrade`` overflow policy a server past its
  ``max_exact_views`` budget admits the view in estimate mode instead
  of rejecting it.
* ``view_drop`` — unregister a view.
* ``view_counts`` — one view's current counters (exact), or its
  root-sampling estimate with ``stderr`` bars when degraded.
* ``stream_close`` — drop a named stream and all its views.
* ``stats``  — service counters + the merged observability snapshot
  (server registry folded with every worker's registry).
* ``health`` — liveness: worker processes alive, uptime, graph size.

Responses
---------

``{"id": ..., "ok": true, "result": {...}}`` on success, or on failure::

    {"id": ..., "ok": false,
     "error": {"code": "overloaded", "message": "...", "retry_after": 0.2}}

Error codes are the :data:`ERROR_CODES` vocabulary; ``retry_after``
(seconds) rides along only on ``overloaded``.  Timing constraints travel
as ``delta_c``/``delta_w`` floats; at least one bound is required on
every compute op — an unconstrained census is unbounded work, which a
shared server must refuse.

Framing limits: a request line longer than the server's ``max_line``
(default :data:`MAX_LINE_BYTES`) is answered with
``payload_too_large`` and the connection is closed (the remainder of an
oversized frame cannot be re-synchronized reliably).  Malformed JSON on
a well-framed line gets ``bad_json`` and the connection stays open.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

__all__ = [
    "COMPUTE_OPS",
    "ERROR_CODES",
    "INLINE_OPS",
    "MAX_LINE_BYTES",
    "ProtocolError",
    "constraint_fields",
    "decode_line",
    "encode",
    "error_response",
    "ok_response",
    "validate_request",
]

#: Default per-line byte budget (requests *and* responses are framed
#: lines; push batches dominate request size, code tables response size).
MAX_LINE_BYTES = 1 << 20

#: Ops executed on the worker pool (admission-controlled).
COMPUTE_OPS = ("census", "count", "window", "estimate", "sleep")

#: Ops answered inline by the server process.
INLINE_OPS = (
    "push",
    "view_add",
    "view_drop",
    "view_counts",
    "stream_close",
    "stats",
    "health",
)

#: The error vocabulary; ``code`` on every error response is one of these.
ERROR_CODES = (
    "bad_json",  # line was not valid JSON
    "bad_request",  # JSON fine, request malformed (missing/invalid fields)
    "unknown_op",  # op not in COMPUTE_OPS + INLINE_OPS
    "payload_too_large",  # frame exceeded max_line; connection closes
    "overloaded",  # admission queue full under the reject policy
    "bad_stream",  # push violated stream rules (e.g. time went backwards)
    "unknown_stream",  # view op addressed a stream no push has created
    "unknown_view",  # view op addressed a view not registered on the stream
    "worker_died",  # the worker crashed mid-request (pool respawns)
    "timeout",  # the worker exceeded the per-request compute budget
    "internal",  # unexpected server-side failure
)


class ProtocolError(ValueError):
    """A request the server refuses; carries a wire-level error code.

    ``extra`` fields (e.g. ``retry_after`` on ``overloaded``) are merged
    into the error object of the response frame.
    """

    def __init__(self, code: str, message: str, **extra: Any) -> None:
        assert code in ERROR_CODES, code
        super().__init__(message)
        self.code = code
        self.message = message
        self.extra = extra


def encode(payload: Mapping[str, Any]) -> bytes:
    """One wire frame: compact JSON + newline."""
    return json.dumps(payload, separators=(",", ":")).encode() + b"\n"


def decode_line(line: bytes) -> dict:
    """Parse one request frame; :class:`ProtocolError` on garbage."""
    try:
        obj = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError("bad_json", f"request is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError("bad_request", "request must be a JSON object")
    return obj


def ok_response(request_id: Any, result: Mapping[str, Any]) -> dict:
    return {"id": request_id, "ok": True, "result": result}


def error_response(request_id: Any, code: str, message: str, **extra: Any) -> dict:
    error: dict[str, Any] = {"code": code, "message": message}
    error.update(extra)
    return {"id": request_id, "ok": False, "error": error}


def _positive_float(params: Mapping, key: str) -> float | None:
    value = params.get(key)
    if value is None:
        return None
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ProtocolError("bad_request", f"{key} must be a number") from None
    if value <= 0:
        raise ProtocolError("bad_request", f"{key} must be positive")
    return value


def constraint_fields(params: Mapping) -> tuple[float | None, float | None]:
    """Extract and validate ``delta_c``/``delta_w``; at least one required.

    An unconstrained enumeration is unbounded work — a shared server
    refuses it at validation time rather than discovering it the hard
    way on a worker.
    """
    delta_c = _positive_float(params, "delta_c")
    delta_w = _positive_float(params, "delta_w")
    if delta_c is None and delta_w is None:
        raise ProtocolError(
            "bad_request",
            "at least one of delta_c/delta_w is required (an unconstrained "
            "census is unbounded work)",
        )
    return delta_c, delta_w


def validate_request(obj: Mapping) -> tuple[Any, str]:
    """Check the envelope; return ``(request id, op)``.

    Field-level validation happens per op (the compute ops validate on
    the worker boundary via :func:`constraint_fields` and friends).
    """
    op = obj.get("op")
    if not isinstance(op, str) or not op:
        raise ProtocolError("bad_request", "request needs a string 'op' field")
    request_id = obj.get("id")
    if op not in COMPUTE_OPS and op not in INLINE_OPS:
        known = ", ".join(COMPUTE_OPS + INLINE_OPS)
        raise ProtocolError("unknown_op", f"unknown op {op!r}; known ops: {known}")
    return request_id, op
