"""The unified motif-execution engine: plan/kernel split.

One compiled :class:`ExecutionPlan` (:func:`compile_plan`) resolves the
chained-deadline schedule, restriction shard-safety and the backend's
kernel capability once per run.  A bound
:class:`~repro.engine.kernels.ExtensionKernel` answers the single
primitive every counting path shares — which events extend which
partial instances — in two shapes: ``extend_frontier(partials, lo, hi)``
over Partial-like records (the online engine's per-push shape), and the
numpy kernel's array-native block lane (``grow_block(roots)``), which
grows whole root blocks with their motif codes.  :func:`run_plan` drives
either in the serial DFS yield order; :func:`run_plan_blocks` hands the
lane's blocks to array consumers.

Consumers:

* :func:`repro.algorithms.enumeration.enumerate_instances` is a thin
  driver over the plan (public API unchanged);
* :mod:`repro.parallel.engine` ships the compiled plan to shard workers
  instead of re-deriving constraints per shard;
* :class:`repro.online.OnlineCensus` runs its per-arrival prefix
  admission and snapshot-restore regrow through the same kernel;
* :mod:`repro.algorithms.sampling` enumerates from sampled roots
  through the plan (and the parallel engine via ``jobs=``).

This is the only home of the extension-admission arithmetic; see
ROADMAP.md "Execution engine contract (PR 5)" for the invariants.
"""

from repro.engine.driver import ROOT_BLOCK, run_plan, run_plan_blocks
from repro.engine.kernels import (
    KERNEL_FALLBACKS,
    KERNELS,
    ExtensionKernel,
    GenericExtensionKernel,
    NumpyExtensionKernel,
    Partial,
    has_kernel,
    kernel_for,
    resolve_kernel_name,
)
from repro.engine.plan import (
    ExecutionPlan,
    clear_plan_cache,
    compile_plan,
    is_shard_safe,
)

__all__ = [
    "KERNEL_FALLBACKS",
    "KERNELS",
    "ROOT_BLOCK",
    "ExecutionPlan",
    "ExtensionKernel",
    "GenericExtensionKernel",
    "NumpyExtensionKernel",
    "Partial",
    "clear_plan_cache",
    "compile_plan",
    "has_kernel",
    "is_shard_safe",
    "kernel_for",
    "resolve_kernel_name",
    "run_plan",
    "run_plan_blocks",
]
