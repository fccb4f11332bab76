"""Streaming replay: the online sliding-window census on a live stream.

Not a paper artifact — an operational experiment for the online engine
(:mod:`repro.online`): replay a registered dataset event-by-event through
:class:`~repro.online.OnlineCensus`, report sustained throughput and the
rolling motif mix, and cross-check the final window against a batch
:func:`~repro.algorithms.counting.run_census` of the equivalent
``slice_time`` window (the engine's core invariant)::

    python -m repro.experiments stream --window 12000

With ``--windows W1,W2,...`` the replay goes through one shared
:class:`~repro.online.MultiViewCensus` engine instead — every window
maintained at once over a single graph tail, prefix store and compiled
kernel, fed in batches through ``push_many`` — and the batch
cross-check runs per view::

    python -m repro.experiments stream --windows 3000,12000,48000
"""

from __future__ import annotations

import time
from itertools import islice
from typing import Iterable

import repro.obs as _obs
from repro.algorithms.counting import run_census
from repro.analysis import textplot
from repro.core.constraints import TimingConstraints
from repro.experiments.base import (
    DELTA_C_INDUCEDNESS,
    DELTA_W_TIMING,
    ExperimentResult,
    fmt_count,
    load_graphs,
)

EXPERIMENT_ID = "stream"
TITLE = "Stream replay: online sliding-window census vs batch recount"

#: Default trailing-window length W, in seconds (4x the ΔW bound, so the
#: window holds several motif lifetimes of context).
DEFAULT_WINDOW = 4 * DELTA_W_TIMING

#: Default replay datasets: the conversation-heavy message network.
DEFAULT_DATASETS = ("sms-copenhagen",)

#: Events per :meth:`~repro.online.MultiViewCensus.push_many` batch in
#: the ``--windows`` replay (the single-window replay pushes one event
#: at a time, because it tracks the peak live count per event).
REPLAY_BATCH = 512


def run(
    datasets: Iterable[str] | None = None,
    *,
    scale: float = 1.0,
    window: float = DEFAULT_WINDOW,
    windows: str | Iterable[float] | None = None,
    delta_c: float = DELTA_C_INDUCEDNESS,
    delta_w: float = DELTA_W_TIMING,
    n_events: int = 3,
    max_nodes: int | None = 3,
    prune_every: int | None = 4096,
    **_ignored,
) -> ExperimentResult:
    """Replay each dataset through the online engine; verify batch parity."""
    from repro.online import OnlineCensus

    constraints = TimingConstraints(delta_c=delta_c, delta_w=delta_w)
    graphs = load_graphs(datasets, scale=scale, default=DEFAULT_DATASETS)
    multi = _parse_windows(windows)
    if multi is not None:
        return _run_multiview(
            graphs,
            multi,
            constraints,
            n_events=n_events,
            max_nodes=max_nodes,
            prune_every=prune_every,
        )
    sections: list[str] = [
        f"Online census replay: {n_events}-event motifs, "
        f"{constraints.describe()}, trailing window W={window:g}s"
    ]
    data: dict[str, dict] = {}
    for graph in graphs:
        engine = OnlineCensus(
            n_events,
            constraints,
            window,
            max_nodes=max_nodes,
            backend=_live_backend(graph),
            prune_every=prune_every,
        )
        rec = _obs.ACTIVE
        total_events = len(graph)
        checkpoints = (
            {max(1, total_events * q // 4) for q in (1, 2, 3, 4)}
            if rec is not None
            else frozenset()
        )
        rolling: list[str] = []
        started = time.perf_counter()
        peak_live = 0
        for i, event in enumerate(graph.storage.iter_uvt(), start=1):
            engine.push(event)
            if engine.live_instances > peak_live:
                peak_live = engine.live_instances
            if i in checkpoints:
                rolling.append(_rolling_line(rec, i, total_events))
        seconds = time.perf_counter() - started
        rate = len(graph) / seconds if seconds > 0 else float("inf")

        batch = run_census(
            graph.slice(engine.now - window, engine.now),
            n_events,
            constraints,
            max_nodes=max_nodes,
        )
        online = engine.census()
        parity = (
            online.code_counts == batch.code_counts
            and online.total == batch.total
            and online.pair_counts == batch.pair_counts
        )

        top = online.code_counts.most_common(6)
        chart = textplot.bar_chart(
            [code for code, _ in top],
            [n for _, n in top],
            title=f"final-window motif mix ({online.total} instances)",
        )
        sections.append(
            "\n".join(
                [
                    f"\n{graph.name}: {fmt_count(len(graph))} events replayed in "
                    f"{seconds:.2f}s ({fmt_count(rate)} events/s)",
                    f"  instances discovered {fmt_count(engine.discovered)}, "
                    f"expired {fmt_count(engine.expired)}, "
                    f"peak live {fmt_count(peak_live)}, "
                    f"retained tail {fmt_count(len(engine.graph))} events",
                    f"  final-window parity vs batch recount: "
                    f"{'ok' if parity else 'MISMATCH'}",
                ]
                + rolling
                + [chart]
            )
        )
        data[graph.name] = {
            "events": len(graph),
            "seconds": seconds,
            "events_per_sec": rate,
            "discovered": engine.discovered,
            "expired": engine.expired,
            "peak_live": peak_live,
            "final_total": online.total,
            "final_counts": dict(online.code_counts),
            "parity": parity,
        }
        if rec is not None:
            hist = rec.histograms.get("online.push.seconds")
            if hist is not None:
                data[graph.name]["push_latency"] = _obs.summarize_histogram(
                    hist.to_snapshot()
                )

    notes = [
        "The online engine maintains the trailing-window census "
        "incrementally; 'parity ok' means its final counters equal a "
        "batch run_census over the matching slice_time window "
        "(the invariant tests/test_online.py asserts push-by-push).",
    ]
    if _obs.enabled():
        notes.append(
            "Observability was enabled (--stats): sections include rolling "
            "push-latency quantiles and store/heap gauges at replay "
            "quarters; the full per-layer table prints after the run."
        )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        text="\n".join(sections),
        data=data,
        notes=notes,
    )


def _live_backend(graph) -> str:
    """The source's backend if it takes appends (a page directory does not)."""
    return graph.backend if graph.storage.supports_append else "numpy"


def _parse_windows(windows: str | Iterable[float] | None) -> list[float] | None:
    """Normalize the ``--windows W1,W2,...`` option to a float list."""
    if windows is None:
        return None
    if isinstance(windows, str):
        parts = [part.strip() for part in windows.split(",") if part.strip()]
    else:
        parts = list(windows)
    if not parts:
        raise ValueError("--windows needs at least one window length")
    try:
        values = [float(part) for part in parts]
    except (TypeError, ValueError):
        raise ValueError(f"--windows must be numbers, got {windows!r}") from None
    return values


def _run_multiview(
    graphs,
    windows: list[float],
    constraints: TimingConstraints,
    *,
    n_events: int,
    max_nodes: int | None,
    prune_every: int | None,
) -> ExperimentResult:
    """Replay each dataset through one shared multi-view engine."""
    from repro.online import MultiViewCensus

    sections: list[str] = [
        f"Multi-view online replay: {n_events}-event motifs, "
        f"{constraints.describe()}, {len(windows)} concurrent windows "
        f"({', '.join(f'{w:g}s' for w in windows)}) over one shared engine"
    ]
    data: dict[str, dict] = {}
    for graph in graphs:
        engine = MultiViewCensus(
            n_events,
            constraints,
            max(windows),
            max_nodes=max_nodes,
            backend=_live_backend(graph),
            prune_every=prune_every,
        )
        names = []
        for i, w in enumerate(windows):
            name = f"W{w:g}" if windows.count(w) == 1 else f"W{w:g}#{i}"
            engine.add_view(name, w)
            names.append(name)
        started = time.perf_counter()
        events = graph.storage.iter_uvt()
        while batch := list(islice(events, REPLAY_BATCH)):
            engine.push_many(batch)
        seconds = time.perf_counter() - started
        rate = len(graph) / seconds if seconds > 0 else float("inf")

        lines = [
            f"\n{graph.name}: {fmt_count(len(graph))} events through "
            f"{len(names)} views in {seconds:.2f}s ({fmt_count(rate)} events/s), "
            f"retained tail {fmt_count(len(engine.graph))} events"
        ]
        views_data: dict[str, dict] = {}
        all_parity = True
        for name in names:
            view_census = engine.census(name)
            window = engine.describe()["views"][name]["window"]
            batch = run_census(
                graph.slice(engine.now - window, engine.now),
                n_events,
                constraints,
                max_nodes=max_nodes,
            )
            parity = (
                view_census.code_counts == batch.code_counts
                and view_census.total == batch.total
            )
            all_parity = all_parity and parity
            lines.append(
                f"  view {name}: {fmt_count(view_census.total)} live instances, "
                f"parity vs batch recount: {'ok' if parity else 'MISMATCH'}"
            )
            views_data[name] = {
                "window": window,
                "final_total": view_census.total,
                "final_counts": dict(view_census.code_counts),
                "parity": parity,
            }
        sections.append("\n".join(lines))
        data[graph.name] = {
            "events": len(graph),
            "seconds": seconds,
            "events_per_sec": rate,
            "windows": list(windows),
            "views": views_data,
            "parity": all_parity,
        }
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        text="\n".join(sections),
        data=data,
        notes=[
            "All windows share one graph tail, prefix store and compiled "
            "kernel (MultiViewCensus); each view's final counters are "
            "cross-checked against an independent batch run_census of the "
            "matching slice_time window.",
        ],
    )


def _rolling_line(rec, done: int, total: int) -> str:
    """One cumulative stats line at a replay checkpoint (obs enabled).

    Reads the live registry the engine is recording into: the cumulative
    push-latency quantiles so far plus the current store/heap gauges.
    """
    from repro.obs.render import format_value

    pct = 100 * done // total
    hist = rec.histograms.get("online.push.seconds")
    if hist is None or not hist.count:
        return f"  [stats {pct:>3}%] (no pushes recorded)"
    gauges = rec.gauges
    return (
        f"  [stats {pct:>3}%] push p50={format_value(hist.quantile(0.5))}s "
        f"p99={format_value(hist.quantile(0.99))}s | "
        f"prefix-store entries={int(gauges.get('online.prefix_store.entries', 0))} "
        f"expiry-heap depth={int(gauges.get('online.expiry_heap.depth', 0))}"
    )
