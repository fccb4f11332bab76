"""Online-census kernels: per-event push cost vs the batch-recount baseline.

The online engine's reason to exist is that maintaining the trailing
window ``[now - W, now]`` incrementally beats re-running
:func:`~repro.algorithms.counting.run_census` over the window after every
arrival.  This benchmark times both sides on the same generated stream,
per storage backend:

* **online_replay** — push the whole stream through
  :class:`~repro.online.OnlineCensus` (auto-pruned), total seconds, the
  median of several replays; the comparison table divides by the event
  count for the amortized per-event cost;
* **batch_recount** — one ``run_census`` over the trailing W-window
  slice, the median of several timings at each of several checkpoints
  spread along the stream, averaged over the checkpoints: the cost a
  recount-per-event design would pay *per event*.

The target: amortized per-event cost at least **10x** cheaper than a
batch recount.  Standalone runs exit with status 1, naming the backend,
when any backend misses it.  Parity is asserted on every timed replay —
the online counters must equal the final batch recount bit-for-bit.

Run it for a comparison table and a BENCH-format JSON record::

    PYTHONPATH=src python benchmarks/bench_online.py --events 20000 \
        --json bench_online.json

Committed baselines for the CI perf-regression gate live in
``benchmarks/baselines/``; see ``benchmarks/check_regression.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import time
from dataclasses import replace

import repro.obs as obs
from bench_storage import CONSTRAINTS, STREAM_CONFIG
from repro.algorithms.counting import run_census
from repro.core.temporal_graph import TemporalGraph
from repro.datasets.generators import generate
from repro.online import OnlineCensus
from repro.storage import available_backends

# The out-of-core partitioned backend has its own harness
# (bench_outofcore.py); the in-memory engines race here.
BACKENDS = tuple(b for b in available_backends() if b != "partitioned")

#: Trailing-window length (= the ΔW bound: every instance fits exactly).
WINDOW = CONSTRAINTS.delta_w

#: Batch recounts are averaged over this many checkpoints on the stream.
RECOUNT_POINTS = 5

#: Each checkpoint's recount is timed this many times; the median counts.
RECOUNT_REPEATS = 5

#: The stream is replayed this many times per backend; the median counts.
REPLAY_REPEATS = 3

#: Minimum per-event speedup of the online engine over a batch recount.
TARGET_SPEEDUP = 10.0


def _replay(events, backend: str) -> OnlineCensus:
    engine = OnlineCensus(
        3, CONSTRAINTS, WINDOW, max_nodes=3, backend=backend, prune_every=8192
    )
    for event in events:
        engine.push(event)
    return engine


def _replay_seconds(events, backend: str, batch) -> float:
    """Median seconds of :data:`REPLAY_REPEATS` replays, each parity-checked.

    One replay of the default stream takes about a second and has
    swung by half its time between runs of the same code, so each
    replay starts from a fresh ``gc.collect()`` and the median counts.
    Every replay's final window must equal ``batch``, the batch recount
    of that window, bit-for-bit.
    """
    runs = []
    for _ in range(REPLAY_REPEATS):
        gc.collect()
        started = time.perf_counter()
        engine = _replay(events, backend)
        runs.append(time.perf_counter() - started)
        online = engine.census()
        assert online.code_counts == batch.code_counts, f"{backend}: parity broken"
        assert online.total == batch.total
    return statistics.median(runs)


def _recount_checkpoints(graph: TemporalGraph) -> list[float]:
    """Median seconds per batch recount at evenly spaced stream positions.

    Each recount is a call of a few ms, so one scheduler hiccup or
    collector pass would decide a single timing.  Every timed call
    starts from a fresh ``gc.collect()``, and each position keeps the
    median of :data:`RECOUNT_REPEATS` timings.
    """
    times = graph.times
    out = []
    for k in range(1, RECOUNT_POINTS + 1):
        now = times[(len(times) * k) // RECOUNT_POINTS - 1]
        runs = []
        for _ in range(RECOUNT_REPEATS):
            gc.collect()
            started = time.perf_counter()
            run_census(graph.slice(now - WINDOW, now), 3, CONSTRAINTS, max_nodes=3)
            runs.append(time.perf_counter() - started)
        out.append(statistics.median(runs))
    return out


def compare(n_events: int = STREAM_CONFIG.n_events) -> dict[str, dict[str, float]]:
    """Per-backend kernel seconds (median replay, averaged recounts)."""
    events = generate(replace(STREAM_CONFIG, n_events=n_events), seed=42).events
    now = events[-1].t
    out: dict[str, dict[str, float]] = {}
    for backend in BACKENDS:
        graph = TemporalGraph(events, backend=backend)
        # Parity: every replay's final window must equal this recount.
        batch = run_census(graph.slice(now - WINDOW, now), 3, CONSTRAINTS, max_nodes=3)
        online_seconds = _replay_seconds(events, backend, batch)
        recounts = _recount_checkpoints(graph)
        out[backend] = {
            "online_replay": online_seconds,
            "batch_recount": sum(recounts) / len(recounts),
        }
    return out


def _obs_snapshot(n_events: int) -> dict:
    """Registry snapshot of one instrumented replay (first backend)."""
    events = generate(replace(STREAM_CONFIG, n_events=n_events), seed=42).events
    prior = obs.ACTIVE
    registry = obs.MetricsRegistry()
    obs.enable(registry)
    try:
        _replay(events, BACKENDS[0])
    finally:
        obs.ACTIVE = prior
    return registry.snapshot()


def main(argv: list[str] | None = None) -> int:  # pragma: no cover - manual tool
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--events",
        type=int,
        default=STREAM_CONFIG.n_events,
        help="generated stream size",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the BENCH json record to PATH",
    )
    args = parser.parse_args(argv)
    results = compare(args.events)
    print(
        f"{'backend':<10}{'replay':>12}{'per-event':>12}{'recount':>12}{'speedup':>10}"
    )
    missed = []
    for backend, row in results.items():
        per_event = row["online_replay"] / args.events
        speedup = row["batch_recount"] / per_event
        if speedup < TARGET_SPEEDUP:
            missed.append(f"{backend} ({speedup:.1f}x)")
        print(
            f"{backend:<10}{row['online_replay']:>10.2f}s"
            f"{per_event * 1e6:>10.1f}us{row['batch_recount'] * 1000:>10.1f}ms"
            f"{speedup:>9.0f}x"
        )
    print(
        "\nspeedup = batch recount seconds per event / amortized online "
        f"seconds per event (target >= {TARGET_SPEEDUP:g}x)"
    )
    if args.json:
        payload = {
            "benchmark": "bench_online",
            "config": {
                "n_events": args.events,
                "window": WINDOW,
                "backends": list(BACKENDS),
            },
            "results": [
                {"backend": backend, "kernel": kernel, "seconds": row[kernel]}
                for backend, row in results.items()
                for kernel in ("online_replay", "batch_recount")
            ],
            # Observability sidecar: one untimed instrumented replay on
            # the first backend, so the record carries push-latency
            # histograms and store/heap gauges next to the timings.
            "obs_snapshot": _obs_snapshot(args.events),
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.json}")
    if missed:
        print(f"FAIL: per-event speedup below {TARGET_SPEEDUP:g}x on: " + ", ".join(missed))
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
