"""repro.obs — the observability substrate: metrics, tracing, profiling.

Every layer of the stack (storage, engine, parallel, online, streaming)
records into one process-local :class:`MetricsRegistry` **when
observability is enabled** — and costs (near) nothing when it is not,
which is the default.  The design mirrors the execution engine's
plan/kernel split: one contract, pluggable recorders, zero work on the
disabled path.

The enabled/disabled switch is the module-level :data:`ACTIVE`
reference:

* ``ACTIVE is None`` (default) — the *null recorder*: nothing is
  recorded anywhere.  Instrumented hot paths capture the reference
  **once per plan compile / kernel bind / engine construction**, so the
  per-call cost of disabled instrumentation is a single ``is None``
  check (and for the hottest inner loops, not even that — the capture
  site hoists the check out of the loop).
* ``ACTIVE is a registry`` — every seam records: counters, gauges and
  fixed-log-bucket histograms that merge associatively across processes
  (the parallel engine ships worker snapshots back with shard results
  and folds them into the parent registry, exactly like
  ``merge_counts`` folds shard counters).

Because hot paths bind the recorder at construction time, **enable
observability before building the engines you want to watch**::

    import repro.obs as obs

    reg = obs.enable()
    census = run_census(graph, 3, constraints, jobs=4)
    print(obs.render_table(reg.snapshot()))
    obs.disable()

Operationally: ``python -m repro.experiments <id> --stats`` enables the
registry for the run and prints the per-layer table (``--stats-json``
also writes the raw snapshot); benchmarks embed their snapshot next to
the timings in their BENCH JSON records; the ``REPRO_OBS`` environment
variable (any value but the falsy spellings ``""``/``0``/``false``/
``no``/``off``, case-insensitive) enables observability at import time
for processes without CLI flags.

Spans
-----

:func:`span` is the tracing primitive — a wall-clock timer whose
histogram doubles as the call counter::

    with obs.span("online.prune.seconds"):
        ...

When disabled it returns a shared no-op context manager (no allocation,
no clock read).
"""

from __future__ import annotations

import os

from repro.obs.registry import (
    Histogram,
    MetricsRegistry,
    labeled,
    merge_snapshots,
    summarize_histogram,
)
from repro.obs.render import render_histogram_line, render_table

__all__ = [
    "ACTIVE",
    "Histogram",
    "MetricsRegistry",
    "active",
    "disable",
    "enable",
    "enabled",
    "env_enabled",
    "labeled",
    "merge_snapshots",
    "render_histogram_line",
    "render_table",
    "span",
    "summarize_histogram",
]

#: The active registry, or ``None`` when observability is disabled (the
#: null-recorder default).  Hot paths read this through the module
#: (``obs.ACTIVE``) or capture it at construction time — never via
#: ``from repro.obs import ACTIVE``, which would freeze the value.
ACTIVE: MetricsRegistry | None = None


def enable(registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Install (and return) the active registry; a fresh one by default.

    Idempotent when already enabled and no explicit registry is given —
    the existing registry keeps accumulating.
    """
    global ACTIVE
    if registry is not None:
        ACTIVE = registry
    elif ACTIVE is None:
        ACTIVE = MetricsRegistry()
    return ACTIVE


def disable() -> None:
    """Return to the null recorder (subsequent calls record nothing)."""
    global ACTIVE
    ACTIVE = None


def active() -> MetricsRegistry | None:
    """The current registry, or ``None`` when observability is off."""
    return ACTIVE


def enabled() -> bool:
    return ACTIVE is not None


class _NullSpan:
    """Shared no-op context manager: the disabled-path span."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


def span(name: str):
    """Time a block into histogram ``name`` on the active registry.

    A no-op (one shared object, no clock read) while disabled.  For
    per-call hot paths prefer capturing the registry once and calling
    :meth:`MetricsRegistry.span` — or timing inline — so the disabled
    path does not even resolve the name.
    """
    reg = ACTIVE
    if reg is None:
        return _NULL_SPAN
    return reg.span(name)


#: Environment values read as "disabled" (case-insensitive): the common
#: falsy spellings, so ``REPRO_OBS=false`` does not silently enable the
#: recorder the way any-non-empty-is-truthy parsing once did.
FALSY_ENV = ("", "0", "false", "no", "off")


def env_enabled(value: str | None) -> bool:
    """Whether a ``REPRO_OBS`` environment value opts observability in."""
    return (value or "").strip().lower() not in FALSY_ENV


# Opt-in via environment for processes that never see a CLI flag (e.g.
# a worker started by an external scheduler).
if env_enabled(os.environ.get("REPRO_OBS")):  # pragma: no cover
    enable()
