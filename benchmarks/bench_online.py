"""Online-census kernels: per-event push cost vs the batch-recount baseline.

The online engine's reason to exist is that maintaining the trailing
window ``[now - W, now]`` incrementally beats re-running
:func:`~repro.algorithms.counting.run_census` over the window after every
arrival.  This benchmark times both sides on the same generated stream,
per storage backend:

* **online_replay** — push the whole stream through
  :class:`~repro.online.OnlineCensus` (auto-pruned), total seconds; the
  comparison table divides by the event count for the amortized per-event
  cost;
* **batch_recount** — one ``run_census`` over the trailing W-window
  slice, averaged over checkpoints spread along the stream: the cost a
  recount-per-event design would pay *per event*.

The acceptance target of the online-engine PR: amortized per-event cost
at least **10x** cheaper than a batch recount at 100k events.  Parity is
asserted on every timed replay — the online counters must equal the
final batch recount bit-for-bit.

Run under pytest-benchmark like the other kernels, or standalone for a
comparison table and a BENCH-format JSON record::

    PYTHONPATH=src python benchmarks/bench_online.py --events 20000 \
        --json bench_online.json

Committed baselines for the CI perf-regression gate live in
``benchmarks/baselines/``; see ``benchmarks/check_regression.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import time
from dataclasses import replace

import pytest

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


def _replay(events, backend: str) -> OnlineCensus:
    engine = OnlineCensus(
        3, CONSTRAINTS, WINDOW, max_nodes=3, backend=backend, prune_every=8192
    )
    for event in events:
        engine.push(event)
    return engine


def _recount_checkpoints(graph: TemporalGraph) -> list[float]:
    """Seconds per batch recount at evenly spaced stream positions.

    Each recount is one ~10 ms call timed right after the replay, so a
    full collector pass landing inside it would decide its time; each
    timed call starts from a fresh ``gc.collect()`` instead.
    """
    times = graph.times
    out = []
    for k in range(1, RECOUNT_POINTS + 1):
        now = times[(len(times) * k) // RECOUNT_POINTS - 1]
        gc.collect()
        started = time.perf_counter()
        run_census(graph.slice(now - WINDOW, now), 3, CONSTRAINTS, max_nodes=3)
        out.append(time.perf_counter() - started)
    return out


@pytest.fixture(scope="module")
def stream_events():
    return generate(replace(STREAM_CONFIG, n_events=20_000), seed=42).events


@pytest.mark.parametrize("backend", BACKENDS)
def test_online_replay(benchmark, stream_events, backend):
    engine = benchmark(lambda: _replay(stream_events, backend))
    assert engine.discovered > 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_batch_recount_window(benchmark, stream_events, backend):
    graph = TemporalGraph(stream_events, backend=backend)
    now = graph.times[-1]
    census = benchmark(
        lambda: run_census(graph.slice(now - WINDOW, now), 3, CONSTRAINTS, max_nodes=3)
    )
    assert census.total >= 0


def compare(n_events: int = STREAM_CONFIG.n_events) -> dict[str, dict[str, float]]:
    """Per-backend kernel seconds (one replay, averaged recounts)."""
    events = generate(replace(STREAM_CONFIG, n_events=n_events), seed=42).events
    out: dict[str, dict[str, float]] = {}
    for backend in BACKENDS:
        started = time.perf_counter()
        engine = _replay(events, backend)
        online_seconds = time.perf_counter() - started

        graph = TemporalGraph(events, backend=backend)
        recounts = _recount_checkpoints(graph)

        # Parity: the engine's final window must equal the last recount.
        batch = run_census(
            graph.slice(engine.now - WINDOW, engine.now), 3, CONSTRAINTS, max_nodes=3
        )
        online = engine.census()
        assert online.code_counts == batch.code_counts, f"{backend}: parity broken"
        assert online.total == batch.total

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
        help="generated stream size (the acceptance target is at 100k)",
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
    for backend, row in results.items():
        per_event = row["online_replay"] / args.events
        speedup = row["batch_recount"] / per_event
        print(
            f"{backend:<10}{row['online_replay']:>10.2f}s"
            f"{per_event * 1e6:>10.1f}us{row['batch_recount'] * 1000:>10.1f}ms"
            f"{speedup:>9.0f}x"
        )
    print(
        "\nspeedup = batch recount seconds per event / amortized online "
        "seconds per event (target >= 10x at 100k events)"
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
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
