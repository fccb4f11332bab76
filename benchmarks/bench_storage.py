"""Storage-engine kernel benchmarks: construction, window queries, census.

Compares every registered backend on the kernels the storage contract was
designed around:

* **construction** — indexing a pre-validated 100k-event generated stream
  (the acceptance bar of the storage PR: columnar ≥ 1.5× faster than the
  plain-list reference);
* **window query** — per-node closed-window bisections, the restriction
  checkers' scalar path, issued one query at a time;
* **census** — an end-to-end 3-event motif census through the enumeration
  engine, exercising the half-open candidate query.

Run it for a quick comparison table and an optional BENCH-format JSON
record::

    PYTHONPATH=src python benchmarks/bench_storage.py --events 20000 \
        --json bench_storage.json

Committed baselines for the CI perf-regression gate live in
``benchmarks/baselines/``; see ``benchmarks/check_regression.py``.
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import replace

from repro.algorithms.counting import run_census
from repro.core.constraints import TimingConstraints
from repro.datasets.generators import ActivityConfig, generate
from repro.datasets.registry import get_dataset
from repro.storage import available_backends, get_backend

# The out-of-core partitioned backend has its own harness
# (bench_outofcore.py); the in-memory engines race here.
BACKENDS = tuple(b for b in available_backends() if b != "partitioned")

#: A SNAP-ish 100k-event stream: heavy reactions, realistic node reuse.
STREAM_CONFIG = ActivityConfig(
    n_nodes=5_000,
    n_events=100_000,
    timespan=1_000_000.0,
    p_reply=0.3,
    p_repeat=0.2,
    p_cc=0.2,
    p_forward=0.15,
    p_in_burst=0.1,
)

CONSTRAINTS = TimingConstraints(delta_c=1500, delta_w=3000)


def _window_sweep_queries(storage) -> tuple[list[int], list[float], list[float]]:
    """The window sweep: 2 000 nodes, 10 rotating windows."""
    nodes = sorted(storage.nodes)[:2_000]
    t0 = storage.start_time
    span = storage.end_time - t0
    t_los = [t0 + (i % 10) * span / 10 for i in range(len(nodes))]
    t_his = [lo + span / 10 for lo in t_los]
    return nodes, t_los, t_his


#: Each sample repeats its kernel until it spans at least this long, as
#: ``timeit``'s autorange does: a sub-millisecond kernel is then timed
#: over dozens of calls, so one host hiccup cannot set its row.
MIN_SAMPLE_S = 0.02


def _best_of(fn, rounds: int = 5) -> float:
    """Best per-call seconds over ``rounds`` samples of ``MIN_SAMPLE_S`` or more."""
    number, best = 1, float("inf")
    while rounds > 0:
        start = time.perf_counter()
        for _ in range(number):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed < MIN_SAMPLE_S:
            number *= 2
            continue
        best = min(best, elapsed / number)
        rounds -= 1
    return best


KERNELS = ("construct", "window", "census")


def compare(n_events: int = STREAM_CONFIG.n_events) -> dict[str, dict[str, float]]:
    """Best-of-5 per-call kernel seconds per backend (standalone comparison table)."""
    config = replace(STREAM_CONFIG, n_events=n_events)
    events = generate(config, seed=42).events
    sms = get_dataset("sms-copenhagen", scale=0.25)
    out: dict[str, dict[str, float]] = {}
    for backend in BACKENDS:
        cls = get_backend(backend)
        storage = cls.from_events(events, presorted=True)
        nodes, t_los, t_his = _window_sweep_queries(storage)
        graph = sms.with_backend(backend)
        out[backend] = {
            "construct": _best_of(lambda: cls.from_events(events, presorted=True)),
            "window": _best_of(
                lambda: [
                    storage.count_node_events_in(n, lo, hi)
                    for n, lo, hi in zip(nodes, t_los, t_his)
                ]
            ),
            "census": _best_of(
                lambda: run_census(graph, 3, CONSTRAINTS, max_nodes=3), rounds=3
            ),
        }
    return out


def main(argv: list[str] | None = None) -> int:  # pragma: no cover - manual tool
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--events",
        type=int,
        default=STREAM_CONFIG.n_events,
        help="generated stream size for the construction/window kernels",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the BENCH json record to PATH",
    )
    args = parser.parse_args(argv)
    results = compare(args.events)
    print(f"{'backend':<10}" + "".join(f"{k:>14}" for k in KERNELS))
    for backend, row in results.items():
        print(f"{backend:<10}" + "".join(f"{row[k] * 1000:>12.1f}ms" for k in KERNELS))
    ratio = results["list"]["construct"] / results["columnar"]["construct"]
    print(f"\ncolumnar construction speedup over list: {ratio:.2f}x (target >= 1.5x)")
    if args.json:
        payload = {
            "benchmark": "bench_storage",
            "config": {"n_events": args.events, "backends": list(BACKENDS)},
            "results": [
                {"backend": backend, "kernel": kernel, "seconds": row[kernel]}
                for backend, row in results.items()
                for kernel in KERNELS
            ],
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
