"""The two batch census workloads: ``census-batch`` and ``census-inducedness``.

Both time ``run_census`` (3 events, ΔC=1500, ΔW=3000, ``max_nodes=3``,
``jobs=1``) in this process, one census per op, and check every op's
answer against a census of the same events on the ``list`` backend,
whose kernel is the generic one.  The references are computed after the
timed phase, so census-batch's peak RSS, read at its end, is the
system's alone; census-inducedness reads its peak RSS from a process of
its own (``probe.py``).
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

from inputs import activity_stream
from measure import Outcome, census_key, digest, peak_rss_mib, settle, timed, timed_phase
from spans import traced_predicate

N_EVENTS = 3
MAX_NODES = 3
DELTA_C = 1500.0
DELTA_W = 3000.0

#: Input sizes; BENCHMARK.json says why.  Both workloads cycle their
#: ops over consecutive slices of one stream: 8k-event graphs of one
#: seed hold 24k to 33k instances, and with four graphs a run's census
#: time still moved 13% between seeds.  A predicate census costs from
#: 0.3 to 1.3 s across the 6k-event graphs of one seed, so
#: census-inducedness gives each op kind (graph and predicate) about one
#: op per run, over 16 graphs.
BATCH_EVENTS = 8_000
BATCH_GRAPHS = 12
INDUCED_EVENTS = 6_000
INDUCED_GRAPHS = 16
PARTITION_EVENTS = 1024
#: census-inducedness reads its peak RSS from a census over a longer
#: stream of the same seed (the timed graphs are slices of its prefix).
#: At 6k events the pages are 0.6 MB beside a 31 MiB interpreter floor,
#: so keeping every partition resident would not show; at 64k events
#: they are 6.6 MB, and doing so raises the peak from 36.6 to 45.0 MiB.
PROBE_EVENTS = 64_000

#: Set-up rounds before the first op.  Untraced runs repeat the set-up
#: after every few ops as well (every third census-batch op, whose
#: round builds 12 graphs, and every fourth census-inducedness op, whose
#: round opens 16 page directories), so set-up and write times sample the host across the whole run;
#: setup_s is the median of all rounds.  A write is the part of a
#: set-up round that ingests WRITE_GRAPHS graphs: their build on
#: census-batch, their page open on census-inducedness.  Writes of one
#: 10 ms graph each put the tail at p94 and in the host's hiccups: its
#: spread across runs reached 26%.
SETUP_ROUNDS = 3
BATCH_SETUP_EVERY = 3
INDUCED_SETUP_EVERY = 4
WRITE_GRAPHS = 4
WARMUP_OPS = 4
#: algorithms.instances is the mean census total of the first
#: INSTANCE_KINDS op kinds, which every run reaches (a traced run makes
#: at least ten ops), so it repeats exactly whatever the op count.
INSTANCE_KINDS = 8


def constraints():
    from repro import TimingConstraints

    return TimingConstraints(delta_c=DELTA_C, delta_w=DELTA_W)


def _reference(events, predicate=None) -> str:
    from repro import TemporalGraph
    from repro.algorithms.counting import run_census

    graph = TemporalGraph(events, backend="list")
    census = run_census(
        graph, N_EVENTS, constraints(), max_nodes=MAX_NODES, predicate=predicate
    )
    return digest(census_key(census))


def _instances(totals: dict[int, int]) -> float:
    return sum(totals[k] for k in range(INSTANCE_KINDS)) / INSTANCE_KINDS


def _region(tracer, name):
    return tracer.region(name) if tracer is not None else contextlib.nullcontext()


def census_batch(ctx) -> Outcome:
    import repro.algorithms.counting as counting
    import repro.engine as engine
    from repro import TemporalGraph

    stream = activity_stream(ctx.seed, BATCH_GRAPHS * BATCH_EVENTS)
    inputs = [stream[k : k + BATCH_EVENTS] for k in range(0, len(stream), BATCH_EVENTS)]
    timing = constraints()
    out = Outcome()

    def setup():
        """One set-up round: graph builds, lazy indexes, plan compile."""
        t0 = time.perf_counter()
        with _region(ctx.tracer, "storage.build"):
            graphs = []
            for k in range(0, BATCH_GRAPHS, WRITE_GRAPHS):
                t1 = time.perf_counter()
                for events in inputs[k : k + WRITE_GRAPHS]:
                    graphs.append(TemporalGraph(events, backend="numpy"))
                    graphs[-1].storage.extension_arrays()
                out.write_s.append(time.perf_counter() - t1)
                out.write_at.append(t1)
        engine.clear_plan_cache()
        engine.compile_plan(N_EVENTS, timing, None, graphs[0].storage, max_nodes=MAX_NODES)
        out.setup_s.append(time.perf_counter() - t0)
        out.setup_at.append(t0)
        return graphs

    for _ in range(SETUP_ROUNDS):
        graphs = timed(setup)[1]

    answers: list[str] = []
    totals = {}

    def op(i, traced):
        graph = graphs[i % BATCH_GRAPHS]
        return counting.run_census(graph, N_EVENTS, timing, max_nodes=MAX_NODES, jobs=1)

    def after(i, census):
        answers.append(digest(census_key(census)))
        totals[i % BATCH_GRAPHS] = census.total
        if ctx.tracer is None and i % BATCH_SETUP_EVERY == BATCH_SETUP_EVERY - 1:
            timed(setup)

    timed_phase(ctx, out, op, warmup=WARMUP_OPS, after=after)
    out.peak_rss_mib = peak_rss_mib()
    out.layers["algorithms.instances"] = _instances(totals)
    wants = [_reference(events) for events in inputs]
    out.attempted = len(answers)
    out.failed = sum(a != wants[i % BATCH_GRAPHS] for i, a in enumerate(answers))
    return out


def census_inducedness(ctx) -> Outcome:
    import repro.algorithms.counting as counting
    import repro.engine as engine
    import repro.obs as obs
    from repro import TemporalGraph
    from repro.algorithms.restrictions import satisfies_cdg, satisfies_consecutive_events
    from repro.storage.partitioned import write_partitioned

    stream = activity_stream(ctx.seed, INDUCED_GRAPHS * INDUCED_EVENTS)
    inputs = [stream[k : k + INDUCED_EVENTS] for k in range(0, len(stream), INDUCED_EVENTS)]
    timing = constraints()
    tracer = ctx.tracer
    plain = [satisfies_consecutive_events, satisfies_cdg]
    traced = plain
    if tracer is not None:
        traced = [traced_predicate(tracer, p) for p in plain]
        registry = obs.enable()
    out = Outcome()
    answers: list[str] = []
    workdir = tempfile.mkdtemp(prefix="pages-", dir=ctx.workdir)
    pages = [os.path.join(workdir, f"pages-{k}") for k in range(INDUCED_GRAPHS)]
    #: Op kinds: op i runs predicate i % 2 on graph (i // 2) % INDUCED_GRAPHS.
    kinds = 2 * INDUCED_GRAPHS
    try:
        # The page directories are the workload's input on disk, written
        # once and not timed: page writes are file-system bound.
        for events, path in zip(inputs, pages):
            write_partitioned(events, path, partition_events=PARTITION_EVENTS)
        settle(workdir)

        def setup():
            """One set-up round: open the pages and every partition, compile."""
            t0 = time.perf_counter()
            with _region(tracer, "storage.build"):
                graphs = []
                for k in range(0, INDUCED_GRAPHS, WRITE_GRAPHS):
                    t1 = time.perf_counter()
                    for path in pages[k : k + WRITE_GRAPHS]:
                        graphs.append(TemporalGraph.load(path))
                        for p in range(graphs[-1].storage.n_partitions):
                            graphs[-1].storage.partition(p)
                    out.write_s.append(time.perf_counter() - t1)
                    out.write_at.append(t1)
            engine.clear_plan_cache()
            for predicate in plain + traced:
                engine.compile_plan(
                    N_EVENTS, timing, predicate, graphs[0].storage, max_nodes=MAX_NODES
                )
            out.setup_s.append(time.perf_counter() - t0)
            out.setup_at.append(t0)
            return graphs

        for _ in range(SETUP_ROUNDS):
            graphs = timed(setup)[1]

        def op(i, is_traced):
            k = i % kinds
            return counting.run_census(
                graphs[k // 2],
                N_EVENTS,
                timing,
                max_nodes=MAX_NODES,
                predicate=(traced if is_traced else plain)[k % 2],
                jobs=1,
            )

        totals = {}

        def after(i, census):
            answers.append(digest(census_key(census)))
            totals[i % kinds] = census.total
            if tracer is None and i % INDUCED_SETUP_EVERY == INDUCED_SETUP_EVERY - 1:
                timed(setup)

        before: dict = {}
        timed_phase(
            ctx, out, op, warmup=WARMUP_OPS, after=after,
            on_start=lambda: before.update(registry.counters) if tracer else None,
        )
        if tracer is not None:
            out.layers["algorithms.instances"] = _instances(totals)
            obs.disable()
            for key in ("opens", "evictions"):
                name = f"storage.partition.{key}"
                delta = registry.counters.get(name, 0) - before.get(name, 0)
                out.layers[name] = delta / len(out.op_s)
        else:
            out.peak_rss_mib = _peak_rss_probe(ctx.seed, workdir, out.notes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # Only the op kinds the run reached: a run makes about two ops per graph.
    wants = {
        k: _reference(inputs[k // 2], plain[k % 2])
        for k in sorted({i % kinds for i in range(len(answers))})
    }
    out.attempted = len(answers)
    out.failed = sum(a != wants[i % kinds] for i, a in enumerate(answers))
    return out


def _peak_rss_probe(seed: int, workdir: str, notes: list[str]) -> float:
    """Peak RSS of a fresh process that opens pages and runs one census.

    This process holds the event list and the timing harness, so its own
    peak is not the system's; the probe process holds only the program.
    """
    from repro.storage.partitioned import write_partitioned

    pages = os.path.join(workdir, "probe-pages")
    write_partitioned(
        activity_stream(seed, PROBE_EVENTS), pages, partition_events=PARTITION_EVENTS
    )
    settings = {
        "n_events": N_EVENTS, "max_nodes": MAX_NODES, "delta_c": DELTA_C, "delta_w": DELTA_W
    }
    probe_py = os.path.join(os.path.dirname(__file__), "probe.py")
    proc = subprocess.run(
        [sys.executable, probe_py, pages, json.dumps(settings)],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, TMPDIR=workdir),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"RSS probe failed:\n{proc.stderr}")
    probe = json.loads(proc.stdout.splitlines()[-1])
    notes.append(
        f"peak RSS of a process that only opens {PROBE_EVENTS} events of pages and runs "
        f"the consecutive-events census ({probe['total']} instances): "
        f"{probe['peak_mib']:.1f} MiB, {probe['floor_mib']:.1f} MiB of it before the pages open"
    )
    return probe["peak_mib"]
