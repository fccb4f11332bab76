"""Online sliding-window motif census (live event streams).

Batch counting answers "how many instances of each motif does this graph
hold?" by walking a fully materialized
:class:`~repro.core.temporal_graph.TemporalGraph`.  This package answers
the *live* version of the same question: maintain exact per-motif counts
for the trailing window ``[now - W, now]`` of a stream, updating them as
each event arrives instead of re-running
:func:`~repro.algorithms.counting.run_census` from scratch.

* :class:`~repro.online.census.OnlineCensus` — the incremental engine:
  ``push(event)`` appends through the storage contract's tail path and
  discovers only the new instances *ending at* the arrival by extending
  a node-bucketed store of live prefixes, so per-event cost tracks local
  activity, never history; instances whose anchor event slides out of
  the window retire through a monotone expiry heap.
* :class:`~repro.online.multiview.MultiViewCensus` — the multi-view
  generalization: one shared core (graph tail, prefix store, discovery
  ledger) fans each ``push`` into many registered views — heterogeneous
  window lengths, node-set slices, restriction predicates — each owning
  only counters and an anchor-keyed expiry heap, with
  ``add_view``/``drop_view`` live on a running stream and per-view
  degradation to the sampling estimators under load.
  :class:`OnlineCensus` is its single-view facade.
* :mod:`~repro.online.checkpoint` — page-directory checkpoints
  (:meth:`OnlineCensus.snapshot` / :meth:`OnlineCensus.restore`) built on
  the ``"numpy"`` backend's mmap persistence.  They read and write the
  facade's shared core and its solo view directly; restore regrows the
  prefix store by running the batch enumerator — and its
  :meth:`~repro.storage.base.GraphStorage.adjacent_events_between`
  candidate seam — over the retained tail.

The engine's core invariant — counts at time *t* equal a batch census of
``slice_time(t - W, t)`` — is enforced push-by-push by the differential
property suite in ``tests/test_online.py`` on every storage backend, and
its multi-view extension — every view bit-identical to an independent
single-window engine after every push — by ``tests/test_multiview.py``.
"""

from repro.online.census import OnlineCensus
from repro.online.checkpoint import load_checkpoint, save_checkpoint
from repro.online.multiview import MultiViewCensus

__all__ = ["MultiViewCensus", "OnlineCensus", "load_checkpoint", "save_checkpoint"]
