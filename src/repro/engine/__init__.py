"""The unified motif-execution engine: plan/kernel split.

One compiled :class:`ExecutionPlan` (:func:`compile_plan`) resolves the
chained-deadline schedule and restriction shard-safety once per run.  A
bound :class:`~repro.engine.kernels.ExtensionKernel` answers the single
primitive every batch counting path shares — which events extend which
partial instances — in two shapes: ``extend_frontier(partials)`` over
Partial-like records (the generic kernel's scalar path), and the numpy
kernel's array-native block lane (``grow_block(roots)``), which grows
whole root blocks with their motif codes on every storage whenever
NumPy imports.  :func:`run_plan` drives either in the serial DFS yield
order; :func:`run_plan_blocks` hands the lane's blocks to array
consumers.

Consumers:

* :func:`repro.algorithms.enumeration.enumerate_instances` is a thin
  driver over the plan (public API unchanged);
* :mod:`repro.parallel.engine` ships the compiled plan to shard workers
  instead of re-deriving constraints per shard;
* :class:`repro.online.MultiViewCensus` discovers a ``push_many``
  batch through :func:`run_plan_blocks` and regrows its prefix store
  on snapshot restore through the enumerator; a single arrival is
  admitted against its node buckets in the online engine itself;
* :mod:`repro.algorithms.sampling` enumerates from sampled roots
  through the plan (and the parallel engine via ``jobs=``).

This is the home of the batch extension-admission arithmetic; see
ROADMAP.md "Execution engine contract (PR 5)" for the invariants.
"""

from repro.engine.driver import ROOT_BLOCK, run_plan, run_plan_blocks
from repro.engine.kernels import (
    ExtensionKernel,
    NumpyExtensionKernel,
    Partial,
    kernel_for,
    lane_arrays,
)
from repro.engine.plan import (
    ExecutionPlan,
    clear_plan_cache,
    compile_plan,
    is_shard_safe,
)

__all__ = [
    "ROOT_BLOCK",
    "ExecutionPlan",
    "ExtensionKernel",
    "NumpyExtensionKernel",
    "Partial",
    "clear_plan_cache",
    "compile_plan",
    "is_shard_safe",
    "kernel_for",
    "lane_arrays",
    "run_plan",
    "run_plan_blocks",
]
