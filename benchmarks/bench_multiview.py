"""Multi-view fan-out: events/sec as live view count grows on one stream.

The multi-view engine's reason to exist is that N concurrent windows
over one stream should cost far less than N independent engines: the
expensive per-event work (storage append, prefix-store extension,
kernel candidate generation) happens once in the shared core, and each
registered view only pays counter folds for the completions it accepts.

This benchmark replays one generated stream through
:class:`~repro.online.MultiViewCensus` at increasing view counts — a
small set of global windows plus node-sliced tenant views, the
multi-tenant monitoring shape — and records total replay seconds per
view count.  The headline target (the multi-view PR's acceptance bar):
**1000 live views at no worse than 10x the single-view per-event cost**
(>0.1x single-view throughput), i.e. wildly sublinear in view count.

Every timed replay is parity-checked on a seeded spot sample of its
views: a global view must be bit-identical (counter key order included)
to an independent single-window :class:`~repro.online.OnlineCensus`
replay, and a tenant view to an independent engine fed only its node
slice of the stream.

Run it for a comparison table and a BENCH-format JSON record::

    PYTHONPATH=src python benchmarks/bench_multiview.py --events 20000 \
        --json bench_multiview.json

Committed baselines for the CI perf-regression gate live in
``benchmarks/baselines/``; see ``benchmarks/check_regression.py``.
"""

from __future__ import annotations

import argparse
import json
import random
import time
from dataclasses import replace

import repro.obs as obs
from bench_storage import CONSTRAINTS, STREAM_CONFIG
from repro.datasets.generators import generate
from repro.online import MultiViewCensus, OnlineCensus

#: Trailing-window length of the widest (and the single benchmark) view.
WINDOW = CONSTRAINTS.delta_w

#: Live view counts the comparison table sweeps.
VIEW_COUNTS = (1, 10, 100, 1000)

#: Distinct global-window views per engine; every view beyond these is a
#: node-sliced tenant view (the realistic many-view composition — a
#: dashboard holds a few window lengths but thousands of tenant slices).
MAX_GLOBAL_VIEWS = 8

#: Nodes per tenant slice.
TENANT_NODES = 3

#: Views parity-checked per timed replay (seeded sample).
SPOT_CHECKS = 2


def _view_specs(n_views: int, n_nodes: int, seed: int = 7) -> list[dict]:
    """The view mix for one engine: global windows, then tenant slices."""
    rng = random.Random(seed)
    specs: list[dict] = []
    n_global = min(n_views, MAX_GLOBAL_VIEWS)
    for i in range(n_global):
        # Distinct window lengths, widest first; the widest is WINDOW so
        # the single-view configuration matches bench_online's engine.
        specs.append(
            {"name": f"global-{i}", "window": WINDOW * (1.0 - i / (2 * MAX_GLOBAL_VIEWS))}
        )
    for i in range(n_views - n_global):
        nodes = rng.sample(range(n_nodes), TENANT_NODES)
        specs.append(
            {
                "name": f"tenant-{i}",
                "window": WINDOW * (0.5 + 0.5 * rng.random()),
                "nodes": nodes,
            }
        )
    return specs


def _build(specs: list[dict], backend: str | None = None) -> MultiViewCensus:
    engine = MultiViewCensus(
        3, CONSTRAINTS, WINDOW, max_nodes=3, backend=backend, prune_every=8192
    )
    for spec in specs:
        engine.add_view(spec["name"], spec["window"], nodes=spec.get("nodes"))
    return engine


def _replay(events, specs: list[dict], backend: str | None = None) -> MultiViewCensus:
    engine = _build(specs, backend)
    for event in events:
        engine.push(event)
    return engine


def _oracle_items(events, spec: dict, backend: str | None = None):
    """An independent single-window engine's final ordered counters."""
    oracle = OnlineCensus(
        3, CONSTRAINTS, spec["window"], max_nodes=3, backend=backend, prune_every=8192
    )
    nodes = set(spec.get("nodes") or ())
    for event in events:
        u, v, t = event.u, event.v, event.t
        if not nodes or (u in nodes and v in nodes):
            oracle.push(event)
        else:
            # Keep the oracle's clock in step so expiry parity holds.
            oracle.advance_to(t)
    return list(oracle.counts().items())


def _spot_check(engine: MultiViewCensus, events, specs: list[dict], seed: int) -> int:
    """Bit-identity of a seeded view sample vs independent engines."""
    rng = random.Random(seed)
    sample = rng.sample(specs, min(SPOT_CHECKS, len(specs)))
    for spec in sample:
        got = list(engine.counts(spec["name"]).items())
        want = _oracle_items(events, spec)
        assert got == want, (
            f"view {spec['name']!r} diverged from an independent "
            f"single-window engine: {got[:3]}... != {want[:3]}..."
        )
    return len(sample)


def compare(n_events: int = STREAM_CONFIG.n_events) -> dict[int, dict[str, float]]:
    """Replay seconds per live-view count (parity spot-checked)."""
    events = generate(replace(STREAM_CONFIG, n_events=n_events), seed=42).events
    out: dict[int, dict[str, float]] = {}
    for views in VIEW_COUNTS:
        specs = _view_specs(views, STREAM_CONFIG.n_nodes)
        started = time.perf_counter()
        engine = _replay(events, specs)
        seconds = time.perf_counter() - started
        _spot_check(engine, events, specs, seed=views)
        out[views] = {"multiview_replay": seconds}

    # The acceptance bar: 1000 views cost at most 10x one view per event
    # (the shared core is the dominant cost, fan-out the marginal one).
    per_event_1 = out[VIEW_COUNTS[0]]["multiview_replay"] / n_events
    per_event_max = out[VIEW_COUNTS[-1]]["multiview_replay"] / n_events
    assert per_event_max <= 10 * per_event_1, (
        f"{VIEW_COUNTS[-1]} views cost {per_event_max / per_event_1:.1f}x a "
        f"single view per event (target <= 10x)"
    )
    return out


def _obs_snapshot(n_events: int) -> dict:
    """Registry snapshot of one instrumented replay (10 views)."""
    events = generate(replace(STREAM_CONFIG, n_events=n_events), seed=42).events
    specs = _view_specs(10, STREAM_CONFIG.n_nodes)
    prior = obs.ACTIVE
    registry = obs.MetricsRegistry()
    obs.enable(registry)
    try:
        _replay(events, specs)
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
    base = results[VIEW_COUNTS[0]]["multiview_replay"] / args.events
    print(f"{'views':<8}{'replay':>12}{'per-event':>12}{'vs 1 view':>12}{'events/s':>12}")
    for views, row in results.items():
        seconds = row["multiview_replay"]
        per_event = seconds / args.events
        print(
            f"{views:<8}{seconds:>10.2f}s{per_event * 1e6:>10.1f}us"
            f"{per_event / base:>11.2f}x{args.events / seconds:>12,.0f}"
        )
    print(
        "\nvs 1 view = per-event cost relative to a single-view replay "
        f"(target <= 10x at {VIEW_COUNTS[-1]} views; sublinear fan-out)"
    )
    if args.json:
        payload = {
            "benchmark": "bench_multiview",
            "config": {
                "n_events": args.events,
                "window": WINDOW,
                "view_counts": list(VIEW_COUNTS),
                "max_global_views": MAX_GLOBAL_VIEWS,
                "tenant_nodes": TENANT_NODES,
            },
            "results": [
                {"views": views, "kernel": "multiview_replay", "seconds": row["multiview_replay"]}
                for views, row in results.items()
            ],
            # Observability sidecar: one untimed instrumented replay at 10
            # views, so the record carries fan-out latency histograms and
            # view lifecycle counters next to the timings.
            "obs_snapshot": _obs_snapshot(args.events),
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
