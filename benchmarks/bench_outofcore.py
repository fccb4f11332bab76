"""Out-of-core census benchmark: wall time AND peak RSS per run (PR 8).

The partitioned page layout exists so a census can run over a directory
much larger than the memory it is allowed to keep resident.  Wall time
alone cannot verify that claim, so every measured run here happens in a
**subprocess** and reports its ``resource.getrusage`` peak RSS
(``ru_maxrss`` is a per-process high-water mark, hence the isolation;
``RUSAGE_CHILDREN`` folds in pool workers for ``jobs>1`` runs).

One deterministic synthetic stream is written as a partitioned
directory, then censused three ways:

* ``partitioned`` at ``jobs=1`` — the serial out-of-core path (shards
  execute sequentially; peak memory follows the largest shard);
* ``partitioned`` at ``jobs=4`` — the pooled path (workers rebuild
  δ-overlapped shard slices from the manifest);
* ``inmemory`` at ``jobs=1`` — the same stream built as a plain numpy
  graph, the bit-identity oracle and the RSS contrast.

Hard checks (non-zero exit on violation, so the CI bench step fails):

* all three censuses are **bit-identical** (counter key order included);
* the traced ``jobs=1`` census opens at most **two partitions per
  partition**: shard planning opens each at most once, and the serial
  shards slice the parent storage's open partitions, which opens each
  at most once more;
* both partitioned runs stay under the **RSS ceiling**: the measured
  interpreter floor plus ``max(48 MiB, total page bytes / 3)``.  At CI
  smoke scale the 48 MiB slack dominates and the ceiling mostly guards
  against accidentally materializing the stream; past ~150 MB of pages
  the budget is a third of the data, i.e. a genuine out-of-core proof —
  ``--require-outofcore`` additionally *requires* the directory to
  exceed the budget (the acceptance-run configuration)::

      PYTHONPATH=src python benchmarks/bench_outofcore.py \
          --events 1500000 --require-outofcore

The ``--json`` record is the standard BENCH shape; CI gates the
``jobs=1`` rows against ``benchmarks/baselines/BENCH_outofcore.json``
(worker-scaling rows depend on the host's core count, as in
``bench_parallel``).  Peak-RSS numbers ride along in the top-level
``rss`` block — informational in the JSON, enforced by this script.
A ``partitions`` block beside it records what one more, untimed
``jobs=1`` census run with ``repro.obs`` enabled counted: partition
opens and evictions, and how many times a storage mapped its index
pages.  Its open count is checked against the bound above.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time

MiB = 2**20

#: Timing window of the measured census, in stream time units (ticks are
#: 1.0 apart, so the enumeration fans over ~DELTA ticks per anchor).
DELTA = 12.0

N_MOTIF_EVENTS = 3


def _constraints():
    from repro.core.constraints import TimingConstraints

    return TimingConstraints(delta_c=DELTA, delta_w=DELTA)


def _stream(n_events: int, *, n_nodes: int, tick: int, seed: int):
    """A deterministic bursty (u, v, t) stream, yielded lazily.

    ``tick`` events share each integer timestamp, so partition edges
    always abut same-timestamp runs — the layout's hard case.  Node
    choice is a seeded affine walk: cheap, reproducible in any process,
    and no self-loops by construction.
    """
    state = seed * 2654435761 % 2**32
    for i in range(n_events):
        state = (state * 1103515245 + 12345) % 2**31
        u = state % n_nodes
        off = 1 + (state >> 8) % (n_nodes - 1)
        yield u, (u + off) % n_nodes, float(i // tick)


def _digest(census) -> dict:
    """The bit-identity fingerprint: counters with their key order."""
    return {
        "codes": [[code, n] for code, n in census.code_counts.items()],
        "pairs": [[str(pair), n] for pair, n in census.pair_counts.items()],
        "total": census.total,
    }


def _peak_rss_kb() -> int:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb)


# ----------------------------------------------------------------------
# subprocess roles (one measured run each; stdout is one JSON line)
# ----------------------------------------------------------------------
def _open(args):
    """The partitioned directory as a graph, under the ``--max-resident`` bound."""
    from repro.core.temporal_graph import TemporalGraph
    from repro.storage.partitioned import load_partitioned

    storage, meta = load_partitioned(args.path, max_resident=args.max_resident)
    return TemporalGraph._from_storage(storage, name=meta.get("name", ""))


def _child(args) -> int:
    out: dict = {}
    if args.child == "floor":
        # The non-data baseline: interpreter + numpy + manifest parse.
        from repro.storage.partitioned import load_partitioned

        storage, _meta = load_partitioned(args.path, max_resident=args.max_resident)
        out["n_partitions"] = storage.n_partitions
    elif args.child == "census":
        from repro.algorithms.counting import run_census

        graph = _open(args)
        started = time.perf_counter()
        census = run_census(
            graph, N_MOTIF_EVENTS, _constraints(), jobs=args.jobs[0]
        )
        out["seconds"] = time.perf_counter() - started
        out["digest"] = _digest(census)
    elif args.child == "counters":
        import repro.obs as obs
        from repro.algorithms.counting import run_census

        registry = obs.enable(obs.MetricsRegistry())
        try:
            run_census(
                _open(args),
                N_MOTIF_EVENTS,
                _constraints(),
                jobs=args.jobs[0],
            )
        finally:
            obs.disable()
        out["counters"] = {
            key: registry.counters.get(key, 0)
            for key in (
                "storage.partition.opens",
                "storage.partition.evictions",
                "storage.pages.index_opens",
            )
        }
    elif args.child == "inmemory":
        from repro.algorithms.counting import run_census
        from repro.core.events import Event
        from repro.core.temporal_graph import TemporalGraph

        graph = TemporalGraph(
            (
                Event(*t)
                for t in _stream(
                    args.events, n_nodes=args.nodes, tick=args.tick, seed=args.seed
                )
            ),
            backend="numpy",
        )
        started = time.perf_counter()
        census = run_census(graph, N_MOTIF_EVENTS, _constraints(), jobs=1)
        out["seconds"] = time.perf_counter() - started
        out["digest"] = _digest(census)
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown child role {args.child!r}")
    out["rss_kb"] = _peak_rss_kb()
    print(json.dumps(out))
    return 0


def _run_child(role: str, args, *, jobs: int = 1) -> dict:
    argv = [
        sys.executable,
        os.path.abspath(__file__),
        "--child",
        role,
        "--path",
        args.path,
        "--jobs",
        str(jobs),
        "--events",
        str(args.events),
        "--nodes",
        str(args.nodes),
        "--tick",
        str(args.tick),
        "--seed",
        str(args.seed),
        "--max-resident",
        str(args.max_resident),
    ]
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"child {role!r} (jobs={jobs}) failed")
    return json.loads(proc.stdout.splitlines()[-1])


def _dir_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


# ----------------------------------------------------------------------
# the harness
# ----------------------------------------------------------------------
def run(args) -> int:
    from repro.storage.partitioned import write_partitioned

    with tempfile.TemporaryDirectory(prefix="bench-outofcore-") as tmp:
        args.path = tmp
        started = time.perf_counter()
        manifest = write_partitioned(
            _stream(args.events, n_nodes=args.nodes, tick=args.tick, seed=args.seed),
            tmp,
            partition_events=args.partition_events,
            name="bench-outofcore",
        )
        write_seconds = time.perf_counter() - started
        total_bytes = _dir_bytes(tmp)
        largest = max(
            (_dir_bytes(os.path.join(tmp, p["dir"])) for p in manifest["partitions"]),
            default=0,
        )
        print(
            f"wrote {args.events} events -> {len(manifest['partitions'])} "
            f"partitions, {total_bytes / MiB:.1f} MiB on disk "
            f"(largest partition {largest / MiB:.1f} MiB) "
            f"in {write_seconds:.1f}s"
        )

        floor = _run_child("floor", args)
        budget_bytes = max(48 * MiB, total_bytes // 3)
        ceiling_kb = floor["rss_kb"] + budget_bytes // 1024
        outofcore = total_bytes > budget_bytes
        print(
            f"interpreter floor {floor['rss_kb'] / 1024:.1f} MiB, data budget "
            f"{budget_bytes / MiB:.1f} MiB -> RSS ceiling {ceiling_kb / 1024:.1f} MiB"
            + (
                ""
                if outofcore
                else "  [pages fit the budget: smoke scale, ceiling still enforced]"
            )
        )
        if args.require_outofcore and not outofcore:
            print(
                f"FAIL: --require-outofcore, but {total_bytes / MiB:.1f} MiB of "
                f"pages fit the {budget_bytes / MiB:.1f} MiB budget — raise --events"
            )
            return 1

        runs: list[tuple[str, int, dict]] = []
        for jobs in args.jobs:
            runs.append(("partitioned", jobs, _run_child("census", args, jobs=jobs)))
        runs.append(("inmemory", 1, _run_child("inmemory", args)))
        counters = _run_child("counters", args)["counters"]

    failures = 0
    reference = runs[-1][2]["digest"]
    print(f"\n{'mode':<14}{'jobs':>5}{'seconds':>10}{'peak rss':>12}  verdict")
    for mode, jobs, result in runs:
        verdicts = []
        if result["digest"] != reference:
            verdicts.append("DIGEST MISMATCH vs in-memory serial")
            failures += 1
        if mode == "partitioned" and result["rss_kb"] > ceiling_kb:
            verdicts.append(
                f"RSS {result['rss_kb'] / 1024:.1f} MiB OVER the "
                f"{ceiling_kb / 1024:.1f} MiB ceiling"
            )
            failures += 1
        print(
            f"{mode:<14}{jobs:>5}{result['seconds']:>9.2f}s"
            f"{result['rss_kb'] / 1024:>8.1f} MiB  "
            + ("; ".join(verdicts) or "ok (bit-identical, under ceiling)")
        )
    print(
        f"\ntotal instances: {reference['total']}"
        + ("  [out-of-core: pages exceed the budget]" if outofcore else "")
    )
    print(
        "partitioned jobs=1 census (untimed, traced): "
        + ", ".join(f"{key} {n}" for key, n in counters.items())
    )
    open_bound = 2 * floor["n_partitions"]
    if counters["storage.partition.opens"] > open_bound:
        print(
            f"FAIL: {counters['storage.partition.opens']} partition opens, over "
            f"the bound of {open_bound} (2 x {floor['n_partitions']} partitions)"
        )
        failures += 1

    if args.json:
        payload = {
            "benchmark": "bench_outofcore",
            "config": {
                "n_events": args.events,
                "partition_events": args.partition_events,
                "n_nodes": args.nodes,
                "tick": args.tick,
                "seed": args.seed,
                "max_resident": args.max_resident,
                "delta": DELTA,
            },
            "results": [
                {"mode": "write", "jobs": 1, "seconds": write_seconds},
                *(
                    {"mode": mode, "jobs": jobs, "seconds": result["seconds"]}
                    for mode, jobs, result in runs
                ),
            ],
            # Informational sidecar: RSS is asserted above, not gated by
            # check_regression (rows stay keyed on mode/jobs only).
            "rss": {
                "floor_kb": floor["rss_kb"],
                "ceiling_kb": ceiling_kb,
                "total_page_bytes": total_bytes,
                "largest_partition_bytes": largest,
                "runs": {
                    f"{mode}-j{jobs}": result["rss_kb"]
                    for mode, jobs, result in runs
                },
            },
            # Informational: what an untimed jobs=1 census opened.
            "partitions": {"jobs": 1, **counters},
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.json}")
    if failures:
        print(f"\nFAIL: {failures} check(s) violated")
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--events", type=int, default=120_000)
    parser.add_argument("--partition-events", type=int, default=8_192)
    parser.add_argument("--nodes", type=int, default=512)
    parser.add_argument(
        "--tick", type=int, default=4, help="events sharing each timestamp"
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--max-resident", type=int, default=2, help="LRU partition bound"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        nargs="+",
        default=[1, 4],
        help="worker counts for the partitioned census runs",
    )
    parser.add_argument(
        "--require-outofcore",
        action="store_true",
        help="fail unless the page directory exceeds the RSS data budget "
        "(the acceptance-run configuration; needs --events large enough "
        "that pages exceed 144 MiB)",
    )
    parser.add_argument("--json", metavar="PATH", default=None)
    parser.add_argument("--child", choices=("floor", "census", "counters", "inmemory"))
    parser.add_argument("--path", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return _child(args)
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main(None))
