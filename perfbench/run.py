"""One command that runs one benchmark workload and prints its metrics.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload census-batch --seed 1 --seconds 15 --trace 0

The workload's inputs come from ``--seed`` alone, through the
benchmark's own generator (``inputs.py``); the program under test is
imported from ``src/`` and receives only those inputs.  Every timed op's
answer is checked against a reference computed outside the timed
region; a mismatch counts as a failed op and makes the command exit 1.

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the same program with spans around each layer's
public functions (``spans.py``) and prints every per-layer metric,
0 for layers the workload does not reach.  Human-readable lines come
first; the last line of standard output is one JSON object.

End-to-end timings are reported at nominal host speed: a fixed piece
of work that shares no code with the program (the yardstick, in
``measure.py``) is timed beside the ops, and every timing is scaled by
how much slower or faster than nominal the host ran it.  The run's
yardstick time and its unscaled op median are printed beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))


def _bind_source() -> None:
    """Import the program from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


class Context:
    def __init__(self, seed: int, seconds: float, trace: bool, workdir: str) -> None:
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.tracer = None
        if trace:
            from spans import Tracer, install_library_spans

            self.tracer = Tracer()
            self.install = install_library_spans
            self.install(self.tracer)


def _workloads():
    import census
    import service
    import stream

    return {
        "census-batch": census.census_batch,
        "census-inducedness": census.census_inducedness,
        "stream-views": stream.stream_views,
        "service-mix": service.service_mix,
    }


def end_to_end(out) -> dict[str, tuple[float, str]]:
    """End-to-end numbers at nominal host speed, each with how it was taken."""
    from measure import at_nominal, median, tail

    setup = at_nominal(out.setup_s, out.setup_at, out)
    ops = at_nominal(out.op_s, out.op_at, out)
    writes = at_nominal(out.write_s, out.write_at, out)
    op_tail, op_pct = tail(ops)
    write_tail, write_pct = tail(writes)
    return {
        "setup_s": (median(setup), f"median of {len(setup)} set-up samples"),
        "peak_rss_mib": (out.peak_rss_mib, "system under test"),
        "op_p50_ms": (1e3 * median(ops), f"{len(ops)} ops"),
        "op_tail_ms": (1e3 * op_tail, f"p{op_pct:.1f} of {len(ops)} ops"),
        "ops_per_s": (len(ops) / sum(ops), f"over {sum(ops):.2f} s in ops"),
        "write_p50_ms": (1e3 * median(writes), f"{len(writes)} writes"),
        "write_tail_ms": (1e3 * write_tail, f"p{write_pct:.1f} of {len(writes)} writes"),
    }


def host_note(out) -> str:
    """The host's speed in the run, and the op median before scaling."""
    from measure import YARDSTICK_S, median

    run_host = median(out.host_s)
    return (
        f"host: yardstick work took {1e3 * run_host:.2f} ms (median of "
        f"{len(out.host_s)}; nominal {1e3 * YARDSTICK_S:g} ms); "
        f"op p50 as timed {1e3 * median(out.op_s):.4g} ms, "
        f"write p50 as timed {1e3 * median(out.write_s):.4g} ms"
    )


def per_layer(out, tracer, names) -> dict:
    """Per-layer numbers: set-up spans per set-up round, op spans per op.

    A layer the workload never reaches reads 0.
    """
    layers = dict(out.layers)
    values: dict[str, float] = dict.fromkeys(names, 0.0)
    ops = layers.pop("ops", 0)
    rounds = layers.pop("setup_rounds", len(out.setup_s))
    if tracer is not None and ops:
        setup = tracer.totals("setup")
        own = tracer.self_times("op")
        calls = tracer.calls("op")

        def count(key):
            return tracer.counts.get(("op", key), 0)

        for name in (
            "storage.index", "storage.query", "storage.append", "engine.expand",
            "algorithms.fold", "algorithms.predicate", "parallel.plan",
            "parallel.slice", "parallel.merge", "online.push", "online.prune",
        ):
            values[f"{name}_s"] = own.get(name, 0.0) / ops
        values["storage.build_s"] = setup.get("storage.build", 0.0) / rounds
        values["engine.compile_s"] = (
            setup.get("engine.compile", 0.0) / rounds + own.get("engine.compile", 0.0) / ops
        )
        values["storage.query.calls"] = calls["storage.query"] / ops
        values["engine.partials"] = count("engine.partials") / ops
        values["engine.extensions"] = count("engine.extensions") / ops
        values["algorithms.instances"] = count("algorithms.instances") / ops
        values["algorithms.predicate.calls"] = calls["algorithms.predicate"] / ops
        values["algorithms.predicate.pass_ratio"] = count("algorithms.predicate.passed") / max(
            calls["algorithms.predicate"], 1
        )
        values["parallel.shards"] = count("parallel.shards") / ops
        values["parallel.overlap_ratio"] = count("parallel.shard_events") / max(
            count("parallel.graph_events"), 1
        )
        values["online.prune.calls"] = calls["online.prune"] / ops
        values["trace.unattributed_s"] = own.get("trace.op", 0.0) / ops
    values.update(layers)
    return values


#: How a per-layer number is taken, where it is not "per op".
_BASIS = {
    "storage.build_s": "per set-up round",
    "engine.compile_s": "per set-up round + per op",
    "online.live_prefixes": "after the last op",
    "online.ledger_depth": "after the last op",
    "service.push_s": "per push",
    "service.queue.depth": "max over the run",
}


def _basis(name: str) -> str:
    return _BASIS.get(name, "ratio" if name.endswith("_ratio") else "per op")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _bind_source()
    workloads = _workloads()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads)}")

    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = workdir
    try:
        ctx = Context(args.seed, args.seconds, bool(args.trace), workdir)
        out = workloads[args.workload](ctx)
        if ctx.tracer is not None:
            ctx.tracer.dump(str(scratch / f"spans-{args.workload}-{args.seed}.jsonl.gz"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(
        f"{args.workload}  seed={args.seed}  seconds={args.seconds:g}  "
        f"trace={args.trace}  attempted={out.attempted}  failed={out.failed}  "
        f"error_ratio={out.failed / max(out.attempted, 1):g}"
    )
    for note in out.notes:
        print(f"  {note}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        names = [m["name"] for m in declared]
        values = {k: (v, _basis(k)) for k, v in per_layer(out, ctx.tracer, names).items()}
    else:
        values = end_to_end(out)
        print(f"  {host_note(out)}")
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        sys.exit(f"perfbench: {args.workload} did not measure {missing}")
    metrics = {}
    for m in declared:
        value, how = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<34} {value:>14.6g} {m['unit']:<6} {how}")
    correct = out.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": out.attempted,
                "failed": out.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
