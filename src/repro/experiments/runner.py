"""Experiment registry and dispatch."""

from __future__ import annotations

from typing import Callable

from repro.experiments import (
    appendix,
    figure1,
    nullmodels,
    stream,
    figure3,
    figure4,
    figure5,
    figure6,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
)
from repro.experiments.base import ExperimentResult

#: experiment id -> (run callable, title)
EXPERIMENTS: dict[str, tuple[Callable[..., ExperimentResult], str]] = {
    module.EXPERIMENT_ID: (module.run, module.TITLE)
    for module in (
        table1,
        figure1,
        table2,
        table3,
        table4,
        table5,
        figure3,
        figure4,
        figure5,
        figure6,
        table6,
        table7,
    )
}
EXPERIMENTS.update(
    {
        "nullmodels": (nullmodels.run, nullmodels.TITLE),
        "stream": (stream.run, stream.TITLE),
        "figure7": (appendix.run_figure7, "Figure 7 (appendix): event-pair ratios, part 1"),
        "figure8": (appendix.run_figure8, "Figure 8 (appendix): event-pair ratios, part 2"),
        "figure9": (appendix.run_figure9, "Figure 9 (appendix): intermediate event behaviors"),
        "figure10": (appendix.run_figure10, "Figure 10 (appendix): motif timespan distributions"),
        "figure11": (appendix.run_figure11, "Figure 11 (appendix): ordered event-pair sequences"),
    }
)


def run_experiment(experiment_id: str, **kwargs) -> ExperimentResult:
    """Run one experiment by id (``table3``, ``figure5``, ...).

    Keyword arguments are forwarded to the experiment's ``run`` (every
    experiment accepts ``datasets`` and ``scale``; several accept
    experiment-specific knobs — see each module).  ``jobs`` additionally
    becomes the session default worker count for the duration of the
    experiment, so every census inside it — including ones in experiments
    that predate the parallel engine — shards across that many processes.

    Execution plans are reused across the session: every census a run
    performs resolves its configuration through
    :func:`repro.engine.compile_plan`, whose memo hands the same
    compiled plan to every dataset sharing one of the paper's few
    ``(n_events, constraints, restriction)`` configurations — the
    deadline schedule and shard safety are derived once per
    configuration, not once per table cell.
    """
    try:
        run, _title = EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(EXPERIMENTS)
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known experiments: {known}"
        ) from None
    jobs = kwargs.get("jobs")
    if jobs is None:
        return run(**kwargs)
    from repro.parallel import default_jobs

    with default_jobs(jobs):
        return run(**kwargs)


def run_all(**kwargs) -> list[ExperimentResult]:
    """Run every registered experiment in presentation order."""
    return [run_experiment(eid, **kwargs) for eid in EXPERIMENTS]
