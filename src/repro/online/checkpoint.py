"""Checkpoint persistence for :class:`~repro.online.census.OnlineCensus`.

A checkpoint is a directory with two parts:

* ``graph/`` — the engine's retained event tail as a ``"numpy"`` page
  directory (PR 3's mmap-loadable ``repro-numpy-pages`` layout, written
  through :meth:`TemporalGraph.save`), and
* ``state.json`` — the engine configuration, the stream clock, whether
  the stream has met a timestamp tie, and the live-instance ledger
  (anchor timestamp, motif code, pair sequence per counted instance).

The counters are *not* stored: they are a pure fold over the ledger, so
:func:`load_checkpoint` rebuilds them and cross-checks the recorded
total.  The pair-sequence column is redundant with the code (the writer
derives it from the code, keeping the layout unchanged) and the reader
checks every entry's column against the code, so a truncated or
hand-edited state file fails loudly instead of drifting.  Restoring
converts the graph to the requested (or session-default) storage
backend, so a checkpoint written by a ``"numpy"`` session resumes
cleanly under ``"list"`` or ``"columnar"``.

Predicates are code, not data — the manifest only records that one was
in use, and :func:`load_checkpoint` refuses to resume until the caller
re-supplies it (pass ``predicate=...``).

Both functions read and write the facade's two parts directly: the
shared :class:`~repro.online.multiview.MultiViewCensus` core (graph
tail, clock, offset, push and discovery totals, prefix store) and its
solo view (window, predicate, counters, expiry heap).  Restore sets the
core's last event time to the clock, so a resumed push at the snapshot
time counts as a timestamp tie, and re-arms the view's expiry wake.
"""

from __future__ import annotations

import heapq
import json
import os

from repro.core.constraints import TimingConstraints
from repro.core.eventpairs import pair_sequence_of_code
from repro.core.temporal_graph import TemporalGraph
from repro.online.census import OnlineCensus, Predicate
from repro.online.multiview import _LedgerEntry

#: ``state.json`` manifest identifier / version of the checkpoint layout.
CHECKPOINT_FORMAT = "repro-online-census"
CHECKPOINT_VERSION = 1

#: Subdirectory holding the graph tail's numpy page directory.
GRAPH_DIR = "graph"
STATE_FILE = "state.json"


def save_checkpoint(census: OnlineCensus, path: str | os.PathLike) -> None:
    """Write ``census`` as a checkpoint directory under ``path``.

    Prunes the engine first so the graph pages hold only the tail a
    resumed stream can still touch.  Requires NumPy (the page writer
    converts other backends on the way out).
    """
    census.prune()
    mv, view = census._mv, census._view
    path = os.fspath(path)
    os.makedirs(path, exist_ok=True)
    mv.graph.save(os.path.join(path, GRAPH_DIR))
    ledger = [
        [
            anchor_t,
            entry.code,
            _pair_column(entry.code),
        ]
        for anchor_t, _seq, entry in sorted(view.heap)
    ]
    state = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "n_events": mv.n_events,
        "delta_c": mv.constraints.delta_c,
        "delta_w": mv.constraints.delta_w,
        "window": view.window,
        "max_nodes": mv._max_nodes,
        "has_predicate": view.predicate is not None,
        "now": mv.now,
        "offset": mv._offset,
        "pushed": mv.pushed,
        "saw_tie": mv._saw_tie,
        "discovered": view.discovered,
        "expired": view.expired,
        "total": view.total,
        "ledger": ledger,
    }
    with open(os.path.join(path, STATE_FILE), "w") as fh:
        json.dump(state, fh, indent=2)


def _pair_column(code: str) -> list[str | None]:
    """A ledger entry's stored pair sequence: type letters, ``None`` = disjoint."""
    return [None if p is None else p.value for p in pair_sequence_of_code(code)]


def load_checkpoint(
    path: str | os.PathLike,
    *,
    backend: str | None = None,
    predicate: Predicate | None = None,
    prune_every: int | None = None,
) -> OnlineCensus:
    """Reopen a :func:`save_checkpoint` directory and resume the stream.

    Parameters
    ----------
    backend:
        Storage backend for the resumed live graph (``None`` = the
        ``REPRO_STORAGE`` env var, then the library default).  The pages
        are always *read* through NumPy; the events are re-indexed under
        the chosen backend.
    predicate:
        Must be supplied iff the snapshotted engine used one (the state
        manifest records which).
    prune_every:
        Auto-prune period for the resumed engine (``None`` disables).
    """
    path = os.fspath(path)
    state_path = os.path.join(path, STATE_FILE)
    if not os.path.exists(state_path):
        raise FileNotFoundError(f"{path!r} is not an online-census checkpoint")
    with open(state_path) as fh:
        state = json.load(fh)
    if state.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path!r}: unrecognized checkpoint format {state.get('format')!r}")
    if state.get("version") != CHECKPOINT_VERSION:
        raise ValueError(
            f"{path!r}: checkpoint version {state.get('version')!r} is not "
            f"supported (this build reads version {CHECKPOINT_VERSION})"
        )
    if state["has_predicate"] and predicate is None:
        raise ValueError(
            "the snapshotted engine used a restriction predicate; re-supply "
            "it via load_checkpoint(..., predicate=...)"
        )
    if not state["has_predicate"] and predicate is not None:
        raise ValueError("the snapshotted engine used no predicate; got one")

    census = OnlineCensus(
        state["n_events"],
        TimingConstraints(delta_c=state["delta_c"], delta_w=state["delta_w"]),
        state["window"],
        max_nodes=state["max_nodes"],
        predicate=predicate,
        backend=backend,
        prune_every=prune_every,
    )
    # The page tail was validated when it was first streamed in; reopening
    # re-indexes it under the target backend without re-validation — and
    # when the target is the page format's own backend, the loaded
    # storage is used as-is (no event-tuple round-trip).
    mv, view = census._mv, census._view
    loaded = TemporalGraph.load(os.path.join(path, GRAPH_DIR), mmap=False)
    storage_cls = type(mv.graph.storage)
    if not isinstance(loaded.storage, storage_cls):
        loaded = TemporalGraph._from_storage(
            storage_cls.from_events(loaded.to_events(), presorted=True),
            name=loaded.name,
        )
    mv._graph = loaded
    mv._offset = state["offset"]
    # The last event's time is the clock at the snapshot: a resumed push
    # at that same time is a timestamp tie.
    mv._now = mv._last_event_t = state["now"]
    mv._pushed = state["pushed"]
    # A stream that already met a timestamp tie warned its tick-sensitive
    # view then; the restored view must not warn a second time.  Older
    # checkpoints lack the key and read as tie-free.
    if state.get("saw_tie", False):
        mv._saw_tie = True
        mv._unwarned_sensitive = [v for v in mv._unwarned_sensitive if v is not view]
    mv._discovered = view.discovered = state["discovered"]
    view.expired = state["expired"]
    heap: list[tuple[float, int, _LedgerEntry]] = []
    for seq_no, (anchor_t, code, pair_values) in enumerate(state["ledger"]):
        if pair_values != _pair_column(code):
            raise ValueError(
                f"{path!r}: ledger entry {seq_no} (code {code!r}) stores pair "
                f"sequence {pair_values!r}, but the code's is "
                f"{_pair_column(code)!r} (corrupt checkpoint?)"
            )
        # The node tuple and event indices are fan-out-time data (sliced-
        # view routing, predicate re-evaluation); a restored solo engine
        # never re-folds these entries, so they stay empty.
        entry = _LedgerEntry(anchor_t, seq_no, code, (), anchor_t, ())
        heap.append((anchor_t, seq_no, entry))
        view.code_counts[code] += 1
    heapq.heapify(heap)
    view.heap = heap
    if heap:
        mv._schedule_wake(view)
    mv._seq = view.total = len(heap)
    if view.total != state["total"]:
        raise ValueError(
            f"{path!r}: ledger holds {view.total} live instances but the "
            f"manifest records {state['total']} (corrupt checkpoint?)"
        )
    mv._rebuild_prefixes()
    return census
