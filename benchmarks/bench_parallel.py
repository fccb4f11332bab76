"""Parallel-census speedup curves: workers × storage backends.

Times the end-to-end 3-event motif census on a generated 100k-event
stream for every registered storage backend at 1/2/4/8 workers, and
reports wall-clock speedup relative to the serial run.  Parity is
asserted on every timed run — a parallel census that returned different
counts would be a correctness bug, not a speedup.

Run it for a comparison table and a BENCH-format JSON record::

    PYTHONPATH=src python benchmarks/bench_parallel.py --events 20000 \
        --jobs 1 2 4 --json bench_parallel.json

The JSON payload mirrors ``bench_storage.py --json``: a ``benchmark``
name, the generating ``config``, and a flat ``results`` list — one row
per (backend, jobs) cell — so CI can archive both files side by side.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import replace

from bench_storage import CONSTRAINTS, STREAM_CONFIG, _best_of
from repro.algorithms.counting import run_census
from repro.core.temporal_graph import TemporalGraph
from repro.datasets.generators import generate
from repro.storage import available_backends

# The out-of-core partitioned backend has its own harness
# (bench_outofcore.py); the in-memory engines race here.
BACKENDS = tuple(b for b in available_backends() if b != "partitioned")

#: Worker counts of the speedup curve (1 = the serial baseline).
JOBS_CURVE = (1, 2, 4, 8)


def compare(
    n_events: int = STREAM_CONFIG.n_events,
    jobs_curve: tuple[int, ...] = JOBS_CURVE,
    rounds: int = 3,
) -> dict:
    """Best-of-``rounds`` census seconds per (backend, jobs) cell."""
    config = replace(STREAM_CONFIG, n_events=n_events)
    events = generate(config, seed=42).events
    results: list[dict] = []
    for backend in BACKENDS:
        graph = TemporalGraph(events, backend=backend)
        serial_census = run_census(graph, 3, CONSTRAINTS, max_nodes=3)
        baseline: float | None = None
        for jobs in jobs_curve:
            census = run_census(graph, 3, CONSTRAINTS, max_nodes=3, jobs=jobs)
            if census.code_counts != serial_census.code_counts:
                raise AssertionError(
                    f"parallel census diverged (backend={backend}, jobs={jobs})",
                )
            seconds = _best_of(
                lambda: run_census(graph, 3, CONSTRAINTS, max_nodes=3, jobs=jobs),
                rounds=rounds,
            )
            if baseline is None:
                baseline = seconds
            results.append(
                {
                    "backend": backend,
                    "jobs": jobs,
                    "seconds": seconds,
                    "speedup": baseline / seconds,
                }
            )
    return {
        "benchmark": "bench_parallel",
        "config": {
            "n_events": n_events,
            "jobs_curve": list(jobs_curve),
            "rounds": rounds,
            "backends": list(BACKENDS),
            "delta_c": CONSTRAINTS.delta_c,
            "delta_w": CONSTRAINTS.delta_w,
        },
        "results": results,
    }


def main(argv: list[str] | None = None) -> int:  # pragma: no cover - manual tool
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--events",
        type=int,
        default=STREAM_CONFIG.n_events,
        help="stream size (default 100k, the acceptance-bar census)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        nargs="+",
        default=list(JOBS_CURVE),
        help="worker counts to time (first one is the speedup baseline)",
    )
    parser.add_argument("--rounds", type=int, default=3, help="best-of rounds per cell")
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the BENCH json record to PATH",
    )
    args = parser.parse_args(argv)
    payload = compare(args.events, tuple(args.jobs), rounds=args.rounds)
    print(f"{'backend':<10}{'jobs':>6}{'seconds':>12}{'speedup':>10}")
    for row in payload["results"]:
        print(
            f"{row['backend']:<10}{row['jobs']:>6}"
            f"{row['seconds'] * 1000:>10.1f}ms{row['speedup']:>9.2f}x"
        )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"\nwrote {args.json}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
