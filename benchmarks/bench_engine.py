"""Execution-engine kernels: vectorized frontier extension vs generic.

The engine PR's bargain: one plan/kernel split shared by every counting
path, with the numpy backend's kernel extending whole *batches* of
partial instances per ``searchsorted`` sweep instead of one
``adjacent_events_between`` bisection per DFS state.  This benchmark
times the end-to-end ``run_census`` under both kernels on every
registered backend:

* **census_engine** — the default kernel (what ``run_census`` picks:
  the numpy kernel's block lane on every backend; a backend other than
  a compacted numpy storage gets lane columns built on its first census
  and cached, so that build lands in the warm-up field);
* **census_generic** — the same census with the kernel forced to
  ``"generic"`` via :func:`repro.engine.compile_plan`: the per-state
  bisection path the pre-engine DFS ran, so the engine/generic ratio
  is the vectorization speedup.

Parity is asserted on every timed run — all kernels must produce the
identical census, counter key order included.  Per-kernel warm-up
(the lazy index build) is measured separately and
recorded in the JSON ``warmup`` field, excluded from the timed rounds,
so the regression gate compares steady-state numbers.

The script also checks that disabled instrumentation stays near free:
an obs-enabled census counts its recorder calls, each of which sits
behind one ``rec is not None`` guard that a disabled census tests
instead, and the script exits 1 when that count times the timed cost of
one guard exceeds :data:`OBS_GUARD_BUDGET` of the disabled census time.

Acceptance record (the engine PR): ``run_census`` on the numpy backend
over the 100k-event generated stream took **29.9 s** through the
pre-refactor recursive DFS and **12.0 s** through the engine's
vectorized kernel on the same machine — a **2.5x** end-to-end speedup
against the committed pre-refactor measurement (2.2x against the
engine's own generic kernel, which already ships the refactor's cheaper
census fold).  Reproduce with ``--events 100000``; the committed CI
baseline guards the 20k smoke sizes.

Run it for a comparison table and a BENCH-format JSON record::

    PYTHONPATH=src python benchmarks/bench_engine.py --events 20000 \
        --json bench_engine.json

Committed baselines for the CI perf-regression gate live in
``benchmarks/baselines/``; see ``benchmarks/check_regression.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import time
import timeit
from dataclasses import replace

import repro.obs as obs
from bench_storage import CONSTRAINTS, STREAM_CONFIG
from repro.algorithms.counting import run_census
from repro.core.temporal_graph import TemporalGraph
from repro.datasets.generators import generate
from repro.engine import compile_plan
from repro.storage import available_backends

# The out-of-core partitioned backend has its own harness
# (bench_outofcore.py); the in-memory engines race here.
BACKENDS = tuple(b for b in available_backends() if b != "partitioned")

#: Census configuration (matches bench_storage's census kernel).
N_EVENTS = 3
MAX_NODES = 3

#: Largest share of a disabled census that its recorder guards may cost.
OBS_GUARD_BUDGET = 0.03


def _census(graph: TemporalGraph, kernel: str | None):
    plan = None
    if kernel is not None:
        plan = compile_plan(
            N_EVENTS,
            CONSTRAINTS,
            None,
            graph.storage,
            max_nodes=MAX_NODES,
            kernel=kernel,
        )
    return run_census(graph, N_EVENTS, CONSTRAINTS, max_nodes=MAX_NODES, plan=plan)


def _census_key(census):
    return (
        dict(census.code_counts),
        list(census.code_counts),
        dict(census.pair_sequence_counts),
        census.total,
    )


def _best_of(fn, rounds: int) -> tuple[float, object]:
    best = math.inf
    result = None
    for _ in range(rounds):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def compare(
    n_events: int = STREAM_CONFIG.n_events, *, rounds: int = 2
) -> tuple[dict[str, dict[str, float]], dict[str, dict[str, float]]]:
    """Per-backend kernel seconds and warm-up seconds, parity-checked.

    Each kernel is timed ``rounds`` times and the minimum kept — the
    generic rows measure an identical code path on pure-Python backends,
    so single-run scheduler noise would otherwise read as a kernel
    difference.  The first (untimed) call per kernel is recorded
    separately in the warm-up map: it covers the lazy index build —
    the regression gate compares steady-state medians, never first-call
    cost.
    """
    events = generate(replace(STREAM_CONFIG, n_events=n_events), seed=42).events
    out: dict[str, dict[str, float]] = {}
    warmups: dict[str, dict[str, float]] = {}
    for backend in BACKENDS:
        graph = TemporalGraph(events, backend=backend)
        kernels: dict[str, str | None] = {
            "census_engine": None,
            "census_generic": "generic",
        }
        rows: dict[str, float] = {}
        warm: dict[str, float] = {}
        reference = None
        for label, kernel in kernels.items():
            started = time.perf_counter()
            _census(graph, kernel)  # lazy indices, untimed
            warm[label] = time.perf_counter() - started
            seconds, census = _best_of(lambda k=kernel: _census(graph, k), rounds)
            key = _census_key(census)
            if reference is None:
                reference = key
            else:
                assert key == reference, f"{backend}/{label}: kernel parity broken"
            rows[label] = seconds
        out[backend] = rows
        warmups[backend] = warm
    return out, warmups


class _CountingRegistry(obs.MetricsRegistry):
    """A registry that counts the recording calls it receives.

    Every recording call sits behind a ``rec is not None`` (or ``stats
    is not None``) guard, and every guard a disabled census tests guards
    at least one call here, so the count bounds the guards from above.
    """

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0

    def inc(self, name: str, n: int = 1) -> None:
        self.calls += 1
        super().inc(name, n)

    def set_gauge(self, name: str, value: float) -> None:
        self.calls += 1
        super().set_gauge(name, value)

    def observe(self, name: str, value: float) -> None:
        self.calls += 1
        super().observe(name, value)


def guard_seconds() -> float:
    """The timed cost of one disabled recorder guard (best of 5)."""
    timer = timeit.Timer("rec = obs.ACTIVE\nif rec is not None: pass", globals={"obs": obs})
    number = 200_000
    return min(timer.repeat(5, number)) / number


def instrumentation_overhead(
    n_events: int = STREAM_CONFIG.n_events, *, rounds: int = 2
) -> tuple[dict[str, dict[str, float]], dict]:
    """Disabled-vs-enabled observability timings per backend, plus snapshot.

    ``disabled`` is the null-recorder default every caller pays;
    ``enabled`` runs the same census with a live
    :class:`repro.obs.MetricsRegistry`, and ``ratio`` is
    ``enabled / disabled`` — the price of switching the recorder on.
    ``guards`` counts the recording calls of one more, untimed enabled
    census, and ``guard_share`` is ``guards`` times
    :func:`guard_seconds` over ``disabled``: an upper bound on the share
    of the disabled census its guards cost.  The second return value is
    the merged registry snapshot across backends (the BENCH JSON's
    ``obs_snapshot``).
    """
    events = generate(replace(STREAM_CONFIG, n_events=n_events), seed=42).events
    prior = obs.ACTIVE
    guard = guard_seconds()
    out: dict[str, dict[str, float]] = {}
    snapshots = []
    try:
        for backend in BACKENDS:
            graph = TemporalGraph(events, backend=backend)
            _census(graph, None)  # warm the lazy indices out of the timings
            obs.disable()
            disabled_seconds, _ = _best_of(lambda: _census(graph, None), rounds)
            registry = obs.enable(obs.MetricsRegistry())
            enabled_seconds, _ = _best_of(lambda: _census(graph, None), rounds)
            counting = obs.enable(_CountingRegistry())
            _census(graph, None)
            obs.disable()
            snapshots.append(registry.snapshot())
            out[backend] = {
                "disabled": disabled_seconds,
                "enabled": enabled_seconds,
                "ratio": enabled_seconds / disabled_seconds,
                "guards": counting.calls,
                "guard_share": counting.calls * guard / disabled_seconds,
            }
    finally:
        obs.ACTIVE = prior
    return out, obs.merge_snapshots(snapshots)


def main(argv: list[str] | None = None) -> int:  # pragma: no cover - manual tool
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--events",
        type=int,
        default=STREAM_CONFIG.n_events,
        help="generated stream size (the acceptance target is at 100k)",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=2,
        help="timed rounds per kernel; the minimum is recorded (default 2)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the BENCH json record to PATH",
    )
    args = parser.parse_args(argv)
    results, warmups = compare(args.events, rounds=args.rounds)
    print(f"{'backend':<10}{'kernel':<16}{'seconds':>10}{'warmup':>10}{'speedup':>10}")
    for backend, row in results.items():
        for label, seconds in row.items():
            speedup = row["census_generic"] / seconds
            print(
                f"{backend:<10}{label:<16}{seconds:>9.2f}s"
                f"{warmups[backend][label]:>9.2f}s{speedup:>9.2f}x"
            )
    print(
        "\nspeedup = generic-kernel census seconds / kernel census seconds "
        "(numpy engine target >= 2x at 100k events; warm-up covers lazy "
        "indices and is excluded from the timed rounds)"
    )
    overhead, snapshot = instrumentation_overhead(args.events, rounds=args.rounds)
    print(
        f"\n{'backend':<10}{'obs off':>12}{'obs on':>12}{'overhead':>10}"
        f"{'guards':>10}{'guard cost':>12}"
    )
    over_budget = []
    for backend, row in overhead.items():
        print(
            f"{backend:<10}{row['disabled']:>10.2f}s{row['enabled']:>10.2f}s"
            f"{row['ratio']:>9.2f}x{row['guards']:>10}{row['guard_share']:>11.4%}"
        )
        if row["guard_share"] > OBS_GUARD_BUDGET:
            over_budget.append(backend)
    print(
        "\noverhead = census seconds with a live repro.obs registry / with "
        "the null recorder; guard cost = recorder calls of an enabled census "
        "x the cost of one disabled guard / the disabled census seconds "
        f"(must stay <= {OBS_GUARD_BUDGET:.0%})"
    )
    if args.json:
        payload = {
            "benchmark": "bench_engine",
            "config": {
                "n_events": args.events,
                "rounds": args.rounds,
                "census_events": N_EVENTS,
                "max_nodes": MAX_NODES,
                "backends": list(BACKENDS),
            },
            "results": [
                {
                    "backend": backend,
                    "kernel": kernel,
                    "seconds": seconds,
                    "warmup": warmups[backend][kernel],
                }
                for backend, row in results.items()
                for kernel, seconds in row.items()
            ],
            # Observability sidecar: not regression-gated rows; the
            # guard-cost bound is checked above.
            "instrumentation": overhead,
            "obs_snapshot": snapshot,
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.json}")
    if over_budget:
        print(
            f"FAIL: disabled recorder guards cost more than {OBS_GUARD_BUDGET:.0%} "
            "of the census on: " + ", ".join(over_budget)
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
