"""Work-sharding parallel execution engine.

The event stream is split into overlapping time shards
(:func:`plan_shards`; overlap = the motif window δ, so no instance is
lost at a boundary), shards fan out over a process pool
(:class:`ParallelExecutor`, with a serial fallback and the ``REPRO_JOBS``
environment variable), and per-shard results reduce deterministically
(:func:`merge_counts` / :func:`merge_instances` / :func:`merge_censuses`
— first-appearance ordering preserved, so seeded runs stay
reproducible and ``jobs=4`` output is bit-identical to ``jobs=1``).

Most callers never touch this package directly: pass ``jobs=`` to the
counting entry points (:mod:`repro.algorithms.counting`), to
:func:`repro.algorithms.enumeration.enumerate_instances`, or use the
experiments CLI's ``--jobs`` flag.
"""

from repro.parallel.engine import (
    is_shard_safe,
    mark_shard_safe,
    parallel_enumerate,
    parallel_map,
    parallel_run_census,
)
from repro.parallel.executor import (
    ENV_JOBS,
    ParallelExecutor,
    SerialExecutor,
    default_jobs,
    get_default_jobs,
    get_executor,
    resolve_jobs,
    set_default_jobs,
)
from repro.parallel.merge import merge_censuses, merge_counts, merge_instances
from repro.parallel.shards import Shard, plan_root_shards, plan_shards, shard_graph

__all__ = [
    "ENV_JOBS",
    "ParallelExecutor",
    "SerialExecutor",
    "Shard",
    "default_jobs",
    "get_default_jobs",
    "get_executor",
    "is_shard_safe",
    "mark_shard_safe",
    "merge_censuses",
    "merge_counts",
    "merge_instances",
    "parallel_enumerate",
    "parallel_map",
    "parallel_run_census",
    "plan_root_shards",
    "plan_shards",
    "resolve_jobs",
    "set_default_jobs",
    "shard_graph",
]
