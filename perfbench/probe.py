"""Peak RSS of the census-inducedness system, in a process of its own.

Opens a partitioned page directory and runs the workload's
consecutive-events census once, holding nothing but the program, then
prints one JSON line: the peak RSS before the pages open (the
interpreter and the imported program), the peak after the census, and
its total.
The census settings come as one JSON argument, so the process imports
nothing of the benchmark::

    python3 perfbench/probe.py PAGES \
        '{"n_events": 3, "max_nodes": 3, "delta_c": 1500, "delta_w": 3000}'
"""

from __future__ import annotations

import json
import sys


def _peak_mib() -> float:
    """This process's peak RSS since its ``exec``.

    ``ru_maxrss`` would not do: Linux carries the parent's RSS into it
    when the child is started with ``vfork``.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(pages: str, settings: str) -> None:
    import repro.algorithms.counting as counting
    from repro import TemporalGraph, TimingConstraints
    from repro.algorithms.restrictions import satisfies_consecutive_events

    motif = json.loads(settings)
    timing = TimingConstraints(delta_c=motif["delta_c"], delta_w=motif["delta_w"])
    floor = _peak_mib()
    graph = TemporalGraph.load(pages)
    census = counting.run_census(
        graph,
        motif["n_events"],
        timing,
        max_nodes=motif["max_nodes"],
        predicate=satisfies_consecutive_events,
        jobs=1,
    )
    print(json.dumps({"floor_mib": floor, "peak_mib": _peak_mib(), "total": census.total}))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
