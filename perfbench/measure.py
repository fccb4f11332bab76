"""Timing, sampling, checking and memory helpers shared by the workloads."""

from __future__ import annotations

import bisect
import gc
import hashlib
import os
import random
import resource
import statistics
import time
from dataclasses import dataclass, field

#: Fewest timed ops a run makes, however slow the host: the tail rule
#: needs ten samples beyond the reported percentile.
MIN_OPS = 21

#: Seconds the yardstick work takes on the nominal host.  The host's
#: speed drifts by a fifth from minute to minute: across ten census-batch
#: runs on a 2-CPU VM the op median read 314-384 ms as timed, and
#: 271-289 ms scaled.  Every timing is therefore reported at nominal
#: speed: multiplied by ``YARDSTICK_S`` over the yardstick time measured
#: around it.
YARDSTICK_S = 0.030
#: Yardstick samples on each side of a timed sample that scale it.
HOST_WINDOW = 3


@dataclass
class Outcome:
    """What one workload run measured, before it is turned into metrics.

    Each ``*_s`` list of seconds has an ``*_at`` list beside it: the
    ``time.perf_counter()`` at which each sample started.
    """

    setup_s: list[float] = field(default_factory=list)
    setup_at: list[float] = field(default_factory=list)
    write_s: list[float] = field(default_factory=list)
    write_at: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)
    op_at: list[float] = field(default_factory=list)
    #: Yardstick samples, taken between the timed samples of untraced runs.
    host_s: list[float] = field(default_factory=list)
    host_at: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    peak_rss_mib: float = 0.0
    layers: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def sample_host(self, collect: bool = True) -> None:
        """Time one ``yardstick_work`` into ``host_s``.

        With ``collect`` it is timed like an op (``timed``); without, the
        caller keeps the garbage collector off.
        """
        t0 = time.perf_counter()
        if collect:
            seconds = timed(yardstick_work)[0]
        else:
            yardstick_work()
            seconds = time.perf_counter() - t0
        self.host_at.append(t0)
        self.host_s.append(seconds)


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``: the sorted sample at rank ``n - 11``
    (0-based), which has exactly ten samples above it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        raise ValueError(f"the tail rule needs at least 11 samples, got {n}")
    return ordered[n - 11], 100.0 * (n - 10) / n


def median(samples: list[float]) -> float:
    return statistics.median(samples)


def yardstick_work() -> int:
    """A fixed piece of work that shares no code with the program.

    The same mix the census does: tuples sorted and counted into
    dictionaries in Python, then a sort, a search and a unique over
    integer arrays in numpy.
    """
    import numpy as np

    rng = random.Random(12345)
    items = sorted((rng.randrange(600), rng.randrange(600), i) for i in range(6000))
    counts: dict = {}
    for u, v, _ in items:
        key = (u % 7, v % 5)
        counts[key] = counts.get(key, 0) + 1
        code = f"{u % 3}{v % 3}"
        counts[code] = counts.get(code, 0) + 1
    a = np.random.default_rng(1).integers(0, 1 << 40, 50_000)
    order = np.argsort(a, kind="stable")
    np.searchsorted(a[order], a[:25_000])
    np.unique(a % 100_003, return_index=True)
    return len(counts)


def at_nominal(samples: list[float], at: list[float], out: Outcome) -> list[float]:
    """``samples``, started at times ``at``, at nominal host speed.

    Each is scaled by ``YARDSTICK_S`` over the median of the
    ``2 * HOST_WINDOW`` yardstick samples nearest it, half before and
    half after (fewer at either end of the run): one yardstick sample
    is as noisy as a short op, their median follows the host.
    """
    if len(at) != len(samples):
        raise ValueError(f"{len(samples)} samples but {len(at)} start times")
    scaled = []
    for seconds, t in zip(samples, at):
        k = bisect.bisect(out.host_at, t)
        near = out.host_s[max(k - HOST_WINDOW, 0) : k + HOST_WINDOW]
        scaled.append(seconds * YARDSTICK_S / median(near))
    return scaled


def settle(path: str) -> None:
    """Flush every file under ``path`` to disk.

    Page directories written just before the set-up rounds were still
    being written back during the first ones, which then opened their
    pages at up to twice the later time.
    """
    for root, _, files in os.walk(path):
        for name in files:
            fd = os.open(os.path.join(root, name), os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def peak_rss_mib() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mib(pid: int) -> float:
    """Peak resident set size of another live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def digest(obj) -> str:
    """A short fingerprint of an answer, order-sensitive."""
    return hashlib.sha1(repr(obj).encode()).hexdigest()


def census_key(census) -> tuple:
    """Everything a census answers, with every counter's key order."""
    return (
        census.total,
        list(census.code_counts.items()),
        list(census.pair_counts.items()),
        list(census.pair_sequence_counts.items()),
    )


def timed(fn, *args):
    """``fn(*args)`` from a collected heap with the collector off.

    Returns ``(seconds, result)``.
    """
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        result = fn(*args)
        return time.perf_counter() - t0, result
    finally:
        gc.enable()


def closed_loop(
    op, seconds: float, *, after=None, min_ops: int = MIN_OPS, more=None, out=None
):
    """Run ``op(i)`` back to back for ``seconds``; one caller, no overlap.

    Every op starts from the same heap state: the garbage collector
    runs between ops and is off while one is timed.  ``after(i, result)``
    runs outside the timer (answer fingerprints, interleaved writes);
    ``more()`` false ends the loop early (the inputs ran out).  With an
    ``out``, each op's start goes to ``out.op_at`` and a yardstick
    sample is taken before the first op and after each op.  Returns the
    per-op latencies.
    """
    latencies: list[float] = []
    gc.collect()
    gc.freeze()
    deadline = time.perf_counter() + seconds
    try:
        if out is not None:
            out.sample_host()
        while (time.perf_counter() < deadline or len(latencies) < min_ops) and (
            more is None or more()
        ):
            i = len(latencies)
            if out is not None:
                out.op_at.append(time.perf_counter())
            latency, result = timed(op, i)
            latencies.append(latency)
            if out is not None:
                out.sample_host()
            if after is not None:
                after(i, result)
    finally:
        gc.unfreeze()
    return latencies


def timed_phase(
    ctx, out: Outcome, op, *, warmup: int, after=None, on_start=None, more=None
) -> None:
    """Warm up, then time ``op(i, traced)`` into ``out``.

    ``on_start()`` runs once the warm-up is over.
    Untraced runs time one closed loop, with a yardstick sample
    around every op.  Traced runs take the library
    spans off, time a third of the run untraced, put the spans back and
    time the rest inside one root span per op; the ratio of the two
    medians is the tracing overhead.
    """
    tracer = ctx.tracer
    if tracer is not None:
        tracer.unpatch()
    for i in range(warmup):
        op(i, False)
    if on_start is not None:
        on_start()
    if tracer is None:
        out.op_s = closed_loop(
            lambda i: op(i, False), ctx.seconds, after=after, more=more, out=out
        )
        return
    plain = closed_loop(
        lambda i: op(i, False), ctx.seconds / 3, after=after, min_ops=5, more=more
    )
    ctx.install(tracer)
    tracer.phase = "op"
    root = tracer.region

    def traced_op(i):
        with root("trace.op"):
            return op(len(plain) + i, True)

    traced = closed_loop(
        traced_op,
        2 * ctx.seconds / 3,
        after=None if after is None else (lambda i, r: after(len(plain) + i, r)),
        min_ops=5,
        more=more,
    )
    tracer.phase = "done"
    tracer.unpatch()
    out.op_s = plain + traced
    out.layers["trace.overhead_ratio"] = median(traced) / median(plain)
    out.layers["ops"] = len(traced)
