"""Execution plans: resolve the census configuration once, run it anywhere.

Every counting path in the library — batch census, sharded parallel
runs, the online sliding-window engine, root-sampling estimators —
reduces to the same primitive: *extend a partial instance by admissible
adjacent events under the timing constraints*.  An
:class:`ExecutionPlan` is the once-per-run resolution of everything that
primitive needs:

* the **chained-deadline schedule** — ΔC / ΔW folded into two floats so
  a kernel computes ``min(t_last + ΔC, t_root + ΔW)`` inline (the exact
  arithmetic of :meth:`TimingConstraints.next_event_deadline`, resolved
  once per run instead of once per recursive call),
* the **node cap** implied by ``max_nodes`` (or the ``n_events + 1``
  connected-growth default),
* **restriction shard-safety** (:func:`is_shard_safe`), so the parallel
  engine picks its shard strategy from the plan instead of re-deriving
  it per shard, and
* whether the run is **forced to the generic kernel** (``kernel=
  "generic"``, the reference path).  Which kernel serves is one rule,
  applied at :meth:`ExecutionPlan.bind` (:func:`repro.engine.kernels.kernel_for`):
  the numpy kernel's block lane whenever NumPy imports, whatever the
  storage.

Plans are immutable, hashable-key cached (so a runner session compiling
the same ``(n_events, constraints, restriction)`` configuration for
every dataset reuses one plan), and picklable — the parallel engine
ships the compiled plan to shard workers, which :meth:`ExecutionPlan.bind`
it to their local shard storage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import repro.obs as _obs
from repro.core.constraints import TimingConstraints

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.temporal_graph import TemporalGraph
    from repro.engine.kernels import ExtensionKernel
    from repro.storage.base import GraphStorage

Instance = tuple[int, ...]
Predicate = Callable[["TemporalGraph", Instance], bool]

#: Safety valve on the plan memo (configurations are few; this only
#: guards against pathological churn, e.g. a fresh lambda per call).
_CACHE_CAP = 256

_PLAN_CACHE: dict[tuple, "ExecutionPlan"] = {}


def is_shard_safe(predicate: Predicate | None) -> bool:
    """Whether time shards are admissible for this restriction predicate.

    A predicate is shard-safe when it only consults events inside the
    instance's time window (which a time shard always contains); declare
    yours with :func:`repro.parallel.mark_shard_safe`.  ``None`` — no
    restriction — is trivially safe.
    """
    return predicate is None or bool(getattr(predicate, "shard_safe", False))


@dataclass(frozen=True)
class ExecutionPlan:
    """One compiled motif-enumeration configuration (see module docstring).

    Attributes
    ----------
    n_events:
        Events per instance.
    constraints:
        The original ΔC / ΔW configuration (kept for introspection and
        for consumers that need the
        :meth:`~repro.core.constraints.TimingConstraints` predicates).
    node_cap:
        Maximum distinct nodes per instance (``max_nodes`` resolved
        against the ``n_events + 1`` connected-growth default).
    predicate:
        The restriction filter applied to complete instances, or ``None``.
    shard_safe:
        Whether ``predicate`` admits the parallel engine's time shards.
    delta:
        The loose timespan bound
        (:meth:`TimingConstraints.loose_timespan_bound`): the shard
        overlap and the online engine's prune reach.
    delta_c / delta_w:
        The bounds as plain floats (``inf`` when unset), pre-resolved so
        kernels compute deadlines with two adds and a min.
    kernel_name:
        ``"generic"`` when the plan is forced to the generic kernel,
        else ``"numpy"`` (bound as the numpy kernel where NumPy imports).
    """

    n_events: int
    constraints: TimingConstraints
    node_cap: int
    predicate: Predicate | None
    shard_safe: bool
    delta: float
    delta_c: float
    delta_w: float
    kernel_name: str

    def deadline(self, t_root: float, t_last: float) -> float:
        """Latest admissible timestamp for the next event of a growing motif.

        Bit-identical to
        :meth:`TimingConstraints.next_event_deadline` — the same two
        sums and min, with the ``None`` checks already resolved.
        """
        return min(t_last + self.delta_c, t_root + self.delta_w)

    def bind(self, storage: "GraphStorage") -> "ExtensionKernel":
        """Instantiate this plan's extension kernel over one storage engine.

        The plan itself never holds a storage reference (it must pickle
        to shard workers); binding is what ties the admission arithmetic
        to a concrete event stream.
        """
        from repro.engine.kernels import kernel_for

        return kernel_for(self, storage)

    def describe(self) -> str:
        """One-line human-readable summary (used by logs and tests)."""
        return (
            f"{self.n_events}-event plan, cap {self.node_cap} nodes, "
            f"{self.constraints.describe()}, kernel={self.kernel_name}, "
            f"{'shard-safe' if self.shard_safe else 'root-sharded'}"
        )


def compile_plan(
    n_events: int,
    constraints: TimingConstraints,
    restrictions: Predicate | None = None,
    storage: "GraphStorage | None" = None,
    *,
    max_nodes: int | None = None,
    kernel: str | None = None,
) -> ExecutionPlan:
    """Compile (or fetch from the session cache) one execution plan.

    Parameters
    ----------
    n_events:
        Events per motif instance.
    constraints:
        The ΔC / ΔW timing configuration.
    restrictions:
        Optional restriction predicate applied to complete instances
        (the ``predicate`` of the counting entry points).
    storage:
        The storage engine the plan will run against.  It decides
        nothing (every storage runs the same kernels); the argument
        stays for callers that pass it.
    max_nodes:
        Optional cap on distinct nodes per instance.
    kernel:
        ``"generic"`` forces the generic kernel, the reference path
        (benchmarks and tests measure and check the lane against it);
        ``None`` or ``"numpy"`` is the default.

    Plans are cached per ``(n_events, constraints, restrictions,
    node_cap, kernel)`` for the lifetime of the session, so an
    experiment runner sweeping many datasets under the paper's few
    configurations compiles each configuration once.
    """
    if n_events < 1:
        raise ValueError("n_events must be >= 1")
    if kernel not in (None, "numpy", "generic"):
        raise ValueError(f"unknown kernel {kernel!r} (expected 'numpy' or 'generic')")
    node_cap = n_events + 1 if max_nodes is None else max_nodes
    kernel_name = kernel or "numpy"
    key: tuple | None = (n_events, constraints, restrictions, node_cap, kernel_name)
    try:
        cached = _PLAN_CACHE.get(key)
    except TypeError:  # unhashable predicate: compile fresh, skip the memo
        cached, key = None, None
    rec = _obs.ACTIVE
    if cached is not None:
        if rec is not None:
            rec.inc("engine.plan.cache_hit")
        return cached
    if rec is not None:
        rec.inc("engine.plan.cache_miss")
    plan = ExecutionPlan(
        n_events=n_events,
        constraints=constraints,
        node_cap=node_cap,
        predicate=restrictions,
        shard_safe=is_shard_safe(restrictions),
        delta=constraints.loose_timespan_bound(n_events) if n_events > 1 else 0.0,
        delta_c=math.inf if constraints.delta_c is None else constraints.delta_c,
        delta_w=math.inf if constraints.delta_w is None else constraints.delta_w,
        kernel_name=kernel_name,
    )
    if key is not None:
        if len(_PLAN_CACHE) >= _CACHE_CAP:
            _PLAN_CACHE.clear()
        _PLAN_CACHE[key] = plan
    return plan


def clear_plan_cache() -> None:
    """Drop every memoized plan (benchmarks time plan compiles from cold)."""
    _PLAN_CACHE.clear()
