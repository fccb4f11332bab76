"""CI perf-regression gate: compare fresh BENCH records against baselines.

Both ``bench_storage.py --json`` and ``bench_parallel.py --json`` emit the
same record shape — a ``benchmark`` name, a ``config`` block, and a flat
``results`` list whose rows carry identifying fields (backend, kernel,
jobs, ...) plus a ``seconds`` measurement.  This tool joins a fresh record
against a committed baseline row-by-row and fails when any kernel got more
than ``--threshold`` times slower (default 1.5x).

Because CI runners and developer machines differ in absolute speed, the
default comparison is **machine-normalized**: every kernel's fresh/base
ratio is divided by the median ratio across all kernels, so a uniformly
slower (or faster) machine cancels out and only a kernel that regressed
*relative to the others* trips the gate.  ``--absolute`` compares raw
ratios instead, for same-machine tracking.

Normalization cancels only *uniform* machine differences, so dimensions
that scale non-uniformly with the host — the worker counts of
``bench_parallel``, whose jobs>1 rows speed up with the core count —
must be excluded from gating with ``--filter`` (CI gates the parallel
record with ``--filter jobs=1``: the serial census rows are guarded,
the speedup curves are archived as artifacts only).

Typical CI invocation (see ``.github/workflows/ci.yml``)::

    python benchmarks/check_regression.py \
        benchmarks/baselines/BENCH_storage.json \
        bench-artifacts/bench_storage.json

Updating baselines after an intentional perf change::

    PYTHONPATH=src python benchmarks/bench_storage.py --events 20000 \
        --json benchmarks/baselines/BENCH_storage.json
    PYTHONPATH=src python benchmarks/bench_parallel.py --events 20000 \
        --jobs 1 2 4 --rounds 2 --json benchmarks/baselines/BENCH_parallel.json
"""

from __future__ import annotations

import argparse
import json
import statistics

#: Measurement fields: everything else in a result row identifies the kernel.
#: ``warmup`` (bench_engine's per-kernel first-call cost: the lazy index
#: build) is a measurement, not an identity field — the gate compares
#: steady-state seconds only.
MEASUREMENTS = ("seconds", "speedup", "warmup")


def row_key(row: dict) -> tuple:
    """The identifying fields of one result row, as a stable key."""
    return tuple(sorted((k, v) for k, v in row.items() if k not in MEASUREMENTS))


def load_results(
    path: str, row_filter: dict[str, str] | None = None
) -> tuple[str, dict[tuple, float]]:
    """Read a BENCH json record into ``(benchmark name, key -> seconds)``."""
    with open(path) as fh:
        payload = json.load(fh)
    out: dict[tuple, float] = {}
    for row in payload.get("results", ()):
        if row_filter and any(
            str(row.get(k)) != v for k, v in row_filter.items()
        ):
            continue
        out[row_key(row)] = float(row["seconds"])
    if not out:
        raise SystemExit(f"{path}: no results rows found (filter: {row_filter})")
    return payload.get("benchmark", "?"), out


def label(key: tuple) -> str:
    return " ".join(f"{k}={v}" for k, v in key)


def check(
    baseline_path: str,
    fresh_path: str,
    *,
    threshold: float,
    absolute: bool,
    min_seconds: float,
    row_filter: dict[str, str] | None = None,
) -> int:
    """Compare one record pair; print a verdict table; return an exit code."""
    base_name, baseline = load_results(baseline_path, row_filter)
    fresh_name, fresh = load_results(fresh_path, row_filter)
    if base_name != fresh_name:
        print(f"FAIL: comparing {fresh_name!r} against a {base_name!r} baseline")
        return 1

    missing = sorted(set(baseline) - set(fresh), key=label)
    extra = sorted(set(fresh) - set(baseline), key=label)
    shared = [k for k in baseline if k in fresh]
    if not shared:
        print("FAIL: baseline and fresh records share no kernels")
        return 1

    ratios = {k: fresh[k] / max(baseline[k], 1e-12) for k in shared}
    scale = 1.0 if absolute else statistics.median(ratios.values())
    mode = "absolute" if absolute else f"machine-normalized (median ratio {scale:.2f})"
    print(f"{base_name}: {len(shared)} kernels, threshold {threshold:.2f}x, {mode}\n")
    print(f"{'kernel':<44}{'base':>10}{'fresh':>10}{'ratio':>8}  verdict")

    failures = []
    for key in shared:
        ratio = ratios[key] / scale
        verdict = "ok"
        if baseline[key] < min_seconds and fresh[key] < min_seconds:
            # Sub-floor kernels flap on scheduler noise; a real regression
            # of a fast kernel crosses the floor and is gated normally.
            verdict = "ok (below noise floor)"
        elif ratio > threshold:
            verdict = "REGRESSED"
            failures.append((key, ratio))
        print(
            f"{label(key):<44}{baseline[key] * 1000:>8.1f}ms"
            f"{fresh[key] * 1000:>8.1f}ms{ratio:>7.2f}x  {verdict}"
        )

    for key in extra:
        print(
            f"{label(key):<44}{'-':>10}{fresh[key] * 1000:>8.1f}ms{'':>8}"
            "  new (no baseline)"
        )
    for key in missing:
        print(
            f"{label(key):<44}{baseline[key] * 1000:>8.1f}ms{'-':>10}{'':>8}"
            "  MISSING from fresh run"
        )

    if missing or failures:
        print(f"\nFAIL: {len(failures)} kernel(s) regressed >{threshold}x", end="")
        print(f", {len(missing)} kernel(s) missing" if missing else "")
        print(
            "\nIf this slowdown is intentional (or the kernel set changed), refresh\n"
            "the committed baseline and include it in the same change:\n"
            f"    PYTHONPATH=src python {_regen_hint(base_name)} --json {baseline_path}\n"
            "Otherwise, profile the regressed kernel — the fresh JSON record is\n"
            "archived as a CI artifact for comparison."
        )
        return 1
    if extra:
        print(
            f"\nOK ({len(extra)} new kernel(s) not yet in the baseline — refresh "
            f"{baseline_path} to start guarding them)"
        )
    else:
        print("\nOK: no kernel regressed")
    return 0


def _regen_hint(benchmark: str) -> str:
    if benchmark == "bench_parallel":
        return "benchmarks/bench_parallel.py --events 20000 --jobs 1 2 4 --rounds 2"
    if benchmark == "bench_online":
        return "benchmarks/bench_online.py --events 20000"
    if benchmark == "bench_engine":
        return "benchmarks/bench_engine.py --events 20000"
    if benchmark == "bench_service":
        return "benchmarks/bench_service.py --events 4000 --clients 4"
    if benchmark == "bench_outofcore":
        return (
            "benchmarks/bench_outofcore.py --events 30000 "
            "--partition-events 4096 --jobs 1 4"
        )
    return "benchmarks/bench_storage.py --events 20000"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed BENCH json baseline")
    parser.add_argument("fresh", help="freshly produced BENCH json record")
    parser.add_argument(
        "--threshold",
        type=float,
        default=1.5,
        help="maximum tolerated slowdown factor per kernel (default 1.5)",
    )
    parser.add_argument(
        "--absolute",
        action="store_true",
        help="compare raw seconds ratios instead of machine-normalized ones",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=0.002,
        help="kernels faster than this on both sides are too noisy to gate "
        "(default 2ms)",
    )
    parser.add_argument(
        "--filter",
        metavar="KEY=VALUE",
        action="append",
        default=[],
        help="gate only rows whose KEY field equals VALUE (repeatable); "
        "e.g. --filter jobs=1 compares just the serial census rows, since "
        "worker-scaling rows depend on the machine's core count and cannot "
        "be normalized across hosts",
    )
    args = parser.parse_args(argv)
    row_filter = dict(item.split("=", 1) for item in args.filter)
    return check(
        args.baseline,
        args.fresh,
        threshold=args.threshold,
        absolute=args.absolute,
        min_seconds=args.min_seconds,
        row_filter=row_filter or None,
    )


if __name__ == "__main__":
    raise SystemExit(main())
