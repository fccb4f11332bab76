"""The ``stream-views`` workload: one stream fanned into many live views.

A :class:`~repro.MultiViewCensus` (3 events, ΔC=1500, ΔW=3000,
``max_nodes=3``, ``prune_every`` set, ``numpy`` backend) holds a few
global windows and many node-sliced tenant views.  Set-up builds the
engine, registers the views and warms the stream; one op then pushes one
fixed-size batch of events.  After every op the counters of a seeded
sample of views are fingerprinted; once the timed phase is over,
independent single-view :class:`~repro.OnlineCensus` engines replay the
same stream and must reach the same counters, key order included, at
every op boundary.
"""

from __future__ import annotations

import random
import time

from census import MAX_NODES, N_EVENTS, constraints
from inputs import N_NODES, activity_stream
from measure import Outcome, digest, median, peak_rss_mib, timed, timed_phase

WINDOW = 3000.0
GLOBAL_WINDOWS = (WINDOW, 0.875 * WINDOW, 0.75 * WINDOW, 0.625 * WINDOW)
TENANTS = 196
TENANT_NODES = 3
PRUNE_EVERY = 4096
WARM_EVENTS = 1024
BATCH = 2048
#: Pushed events available to the timed phase (it stops early if they run out).
MAX_TIMED_EVENTS = 100 * BATCH
#: Set-up samples before the first op; untraced runs take one more
#: after every op, so set-up times sample the host across the run.  A
#: set-up round takes about a millisecond, so a sample times SETUP_BATCH
#: rounds back to back; setup_s is the median time per round.
SETUP_ROUNDS = 3
SETUP_BATCH = 16
WARMUP_OPS = 4
SPOT_TENANTS = 3
#: The views are the deployment, not the traffic: the same for every
#: seed.  Drawn per seed, the tenants' share of hub nodes moved the
#: fan-out work of a push by 30%.
VIEWS_SEED = 0


def _views() -> list[dict]:
    rng = random.Random(VIEWS_SEED)
    views = [{"name": f"global-{i}", "window": w} for i, w in enumerate(GLOBAL_WINDOWS)]
    for i in range(TENANTS):
        nodes = rng.sample(range(N_NODES), TENANT_NODES)
        views.append({"name": f"tenant-{i}", "window": WINDOW, "nodes": nodes})
    return views


def _engine(views):
    from repro import MultiViewCensus

    engine = MultiViewCensus(
        N_EVENTS,
        constraints(),
        WINDOW,
        max_nodes=MAX_NODES,
        backend="numpy",
        prune_every=PRUNE_EVERY,
    )
    for view in views:
        engine.add_view(view["name"], view["window"], nodes=view.get("nodes"))
    return engine


def stream_views(ctx) -> Outcome:
    from repro.engine import clear_plan_cache

    rng = random.Random(ctx.seed)
    n_total = WARM_EVENTS + (WARMUP_OPS + 1) * BATCH + MAX_TIMED_EVENTS
    events = activity_stream(ctx.seed, n_total)
    views = _views()
    spot = [views[0]] + rng.sample(views[len(GLOBAL_WINDOWS):], SPOT_TENANTS)
    out = Outcome()

    def setup():
        """One set-up round: plan compile, engine, view registration.

        Warming the stream is not part of it: the warm pushes cost what
        the ops cost, and their work moves with the seed.
        """
        clear_plan_cache()
        return _engine(views)

    def setup_sample():
        def rounds():
            for _ in range(SETUP_BATCH):
                engine = setup()
            return engine

        out.setup_at.append(time.perf_counter())
        seconds, engine = timed(rounds)
        out.setup_s.append(seconds / SETUP_BATCH)
        out.layers["setup_rounds"] = SETUP_BATCH * len(out.setup_s)
        return engine

    for _ in range(SETUP_ROUNDS):
        engine = setup_sample()
    for event in events[:WARM_EVENTS]:
        engine.push(event)

    cursor = [WARM_EVENTS]
    boundaries: list[int] = []
    seen: list[list[str]] = []

    def op(i, traced):
        lo = cursor[0]
        push = engine.push
        for event in events[lo : lo + BATCH]:
            push(event)
        cursor[0] = lo + BATCH

    def after(i, _):
        boundaries.append(cursor[0])
        seen.append([digest(list(engine.counts(v["name"]).items())) for v in spot])
        if ctx.tracer is None:
            setup_sample()

    def long_enough():
        return cursor[0] + BATCH <= len(events)

    timed_phase(ctx, out, op, warmup=WARMUP_OPS, after=after, more=long_enough)
    out.peak_rss_mib = peak_rss_mib()
    # The ops are the stream's writes: write_* repeat op_* here.
    out.write_s = list(out.op_s)
    out.write_at = list(out.op_at)
    out.layers["online.live_prefixes"] = engine.live_prefixes
    out.layers["online.ledger_depth"] = engine.ledger_depth
    out.notes.append(
        f"{len(views)} views, {BATCH}-event pushes, "
        f"{median(out.op_s) * 1e3 / BATCH:.3f} ms per pushed event"
    )

    failed = set()
    for col, view in enumerate(spot):
        for i, want in enumerate(_replay(events, view, boundaries)):
            if seen[i][col] != want:
                failed.add(i)
    out.attempted = len(boundaries)
    out.failed = len(failed)
    return out


def _replay(events, view: dict, boundaries: list[int]):
    """An independent single-window engine's counters at each boundary.

    A tenant's engine is fed only the events inside its node slice and
    moves its clock forward on the others, so expiry stays in step.
    """
    from repro import OnlineCensus

    oracle = OnlineCensus(
        N_EVENTS, constraints(), view["window"], max_nodes=MAX_NODES,
        backend="list", prune_every=PRUNE_EVERY,
    )
    nodes = set(view.get("nodes") or ())
    pos = 0
    for boundary in boundaries:
        for u, v, t in events[pos:boundary]:
            if not nodes or (u in nodes and v in nodes):
                oracle.push((u, v, t))
            else:
                oracle.advance_to(t)
        pos = boundary
        yield digest(list(oracle.counts().items()))
