"""Extension kernels: the one implementation of frontier admission.

A kernel answers the engine's only primitive question: *which events can
extend which partial instances?*  The contract is
:meth:`ExtensionKernel.extend_frontier`::

    extend_frontier(partials, lo, hi, need_nodes=True)
        -> [(partial_position, event_index, new_node_tuple | None), ...]

``partials`` is any sequence of records exposing ``nodes`` (tuple of the
partial's distinct nodes in first-appearance order), ``t_root`` and
``t_last`` — the engine's :class:`Partial`, or the online engine's
prefix records.  ``[lo, hi)`` bounds the candidate *event indices* (the
full storage for a batch run; the single arriving event for the online
engine).  A triple is emitted exactly when the event

* is adjacent to the partial (shares a node),
* is strictly later than the partial's last event and at or before the
  chained deadline ``min(t_last + ΔC, t_root + ΔW)`` (the arithmetic of
  :meth:`TimingConstraints.next_event_deadline`, resolved by the plan),
* keeps the distinct-node count within the plan's ``node_cap``.

Output order is part of the contract: triples are grouped by partial in
input order, event indices ascending within a partial, each admissible
``(partial, event)`` pair exactly once.  The driver relies on this to
reproduce the serial DFS yield order bit-for-bit.

Two kernels are registered:

* :class:`GenericExtensionKernel` — one
  :meth:`~repro.storage.base.GraphStorage.adjacent_events_between`
  bisection per partial; correct on every backend.
* :class:`NumpyExtensionKernel` — inherits the contract above and adds
  the **block lane** (``block_ready()`` / ``grow_block(roots)``): a
  whole root block grows level by level, with at most two batched
  ``searchsorted`` probes per level, their keys searched in ascending
  order: partials below the node cap probe the banded node CSR of
  :class:`~repro.storage.numpy_backend.NumpyStorage`
  (:meth:`~repro.storage.numpy_backend.NumpyStorage.extension_arrays`),
  partials at the cap a per-run band of events keyed by node pair.  It
  grows to an ``(n, n_events)`` instance array plus each row's motif code,
  without building Partial objects (see
  :func:`repro.engine.driver.run_plan`).  While tail appends are
  pending the banded arrays are unavailable and the driver takes the
  Partial-object path on the inherited code.

Backends advertise their kernel via the
:attr:`~repro.storage.base.GraphStorage.extension_kernel` class
attribute; :func:`kernel_for` resolves it, demoting to generic when the
advertised kernel is unavailable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import repro.obs as _obs
from repro.core._optional import import_numpy

np = import_numpy()

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.plan import ExecutionPlan
    from repro.storage.base import GraphStorage

#: ``(partial position, event index, updated node tuple or None)``.
Extension = tuple[int, int, "tuple[int, ...] | None"]


class Partial:
    """One partial instance of the enumeration frontier.

    Self-contained — event-index sequence, distinct nodes in
    first-appearance order, root and last timestamps — so kernels never
    resolve anything against the graph while testing admission.
    """

    __slots__ = ("seq", "nodes", "t_root", "t_last")

    def __init__(
        self,
        seq: tuple[int, ...],
        nodes: tuple[int, ...],
        t_root: float,
        t_last: float,
    ) -> None:
        self.seq = seq
        self.nodes = nodes
        self.t_root = t_root
        self.t_last = t_last

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Partial {self.seq} nodes={self.nodes}>"


class ExtensionKernel:
    """Base kernel: the scalar admission arithmetic, both traversals.

    Both the partial-major path (the driver's Partial-object levels) and
    the event-major path (single arriving event, the online engine's
    per-push shape) are shared by every kernel, so the scalar admission
    comparisons exist exactly once per traversal direction.
    """

    kernel_name = "generic"

    def __init__(self, plan: "ExecutionPlan", storage: "GraphStorage") -> None:
        self._plan = plan
        self._storage = storage

    @property
    def plan(self) -> "ExecutionPlan":
        return self._plan

    @property
    def storage(self) -> "GraphStorage":
        return self._storage

    def extend_frontier(
        self,
        partials: Sequence,
        lo: int,
        hi: int,
        *,
        need_nodes: bool = True,
    ) -> list[Extension]:
        """All admissible ``(partial, event)`` extensions (see module doc).

        ``need_nodes=False`` skips building the updated node tuples (the
        driver's final level — completed instances never extend again).
        """
        if hi - lo == 1:
            return self._extend_by_event(partials, lo, need_nodes)
        return self._extend_partialwise(partials, lo, hi, need_nodes)

    def next_frontier(
        self,
        partials: Sequence[Partial],
        lo: int,
        hi: int,
        times: Sequence[float],
    ) -> list[Partial]:
        """The driver's non-final level: extended partials in DFS pop order.

        Semantically ``extend_frontier`` folded into new :class:`Partial`
        records — parents keep their order, each parent's children flip
        to descending event order (the LIFO reversal of the historical
        DFS; see :mod:`repro.engine.driver`).
        """
        nxt: list[Partial] = []
        group: list[Partial] = []
        current = -1
        for pos, idx, new_nodes in self.extend_frontier(partials, lo, hi):
            if pos != current:
                if group:
                    group.reverse()
                    nxt.extend(group)
                    group = []
                current = pos
            parent = partials[pos]
            group.append(
                Partial(parent.seq + (idx,), new_nodes, parent.t_root, times[idx])
            )
        if group:
            group.reverse()
            nxt.extend(group)
        return nxt

    # ------------------------------------------------------------------
    # event-major: one arriving event against many partials (online push)
    # ------------------------------------------------------------------
    def _extend_by_event(
        self, partials: Sequence, idx: int, need_nodes: bool
    ) -> list[Extension]:
        ev = self._storage.event_at(idx)
        u, v, t = ev.u, ev.v, ev.t
        plan = self._plan
        dc = plan.delta_c
        dw = plan.delta_w
        node_cap = plan.node_cap
        out: list[Extension] = []
        for pos, p in enumerate(partials):
            if t <= p.t_last:
                continue
            if t > p.t_last + dc or t > p.t_root + dw:
                continue
            nodes = p.nodes
            u_in = u in nodes
            v_in = v in nodes
            if not (u_in or v_in):
                continue
            extra = (not u_in) + (not v_in)
            if extra and len(nodes) + extra > node_cap:
                continue
            if not need_nodes:
                new_nodes = None
            elif not extra:
                new_nodes = nodes
            elif u_in:
                new_nodes = nodes + (v,)
            elif v_in:
                new_nodes = nodes + (u,)
            else:
                new_nodes = nodes + (u, v)
            out.append((pos, idx, new_nodes))
        return out

    # ------------------------------------------------------------------
    # partial-major: each partial asks the storage for its candidates
    # ------------------------------------------------------------------
    def _extend_partialwise(
        self, partials: Sequence, lo: int, hi: int, need_nodes: bool
    ) -> list[Extension]:
        storage = self._storage
        events = storage.events
        adjacent = storage.adjacent_events_between
        plan = self._plan
        dc = plan.delta_c
        dw = plan.delta_w
        node_cap = plan.node_cap
        bounded = lo > 0 or hi < len(events)
        out: list[Extension] = []
        for pos, p in enumerate(partials):
            t_last = p.t_last
            deadline = min(t_last + dc, p.t_root + dw)
            if deadline <= t_last:
                continue
            for idx in adjacent(p.nodes, t_last, deadline):
                if bounded and not lo <= idx < hi:
                    continue
                ev = events[idx]
                u = ev.u
                v = ev.v
                nodes = p.nodes
                u_in = u in nodes
                v_in = v in nodes
                extra = (not u_in) + (not v_in)
                if extra and len(nodes) + extra > node_cap:
                    continue
                if not need_nodes:
                    new_nodes = None
                elif not extra:
                    new_nodes = nodes
                elif u_in:
                    new_nodes = nodes + (v,)
                elif v_in:
                    new_nodes = nodes + (u,)
                else:
                    new_nodes = nodes + (u, v)
                out.append((pos, idx, new_nodes))
        return out


class GenericExtensionKernel(ExtensionKernel):
    """Per-node-bisect kernel: exact on every storage backend."""

    kernel_name = "generic"


#: Largest motif whose block-lane code fits an int64: the code packs two
#: decimal digits per event and its first digit is always 0, and
#: ``10**(2k - 1) < 2**63`` holds through ``k = 9``.
MAX_CODE_EVENTS = 9


class NumpyExtensionKernel(ExtensionKernel):
    """Vectorized kernel over :class:`NumpyStorage`'s banded CSR arrays.

    Extends the whole frontier at once.  A partial below the node cap
    makes one half-open window query per node into the banded node
    CSR; a partial at the cap makes one per pair of its nodes into the
    run's pair band, since only events between its own nodes fit.  The
    queries become batched ``searchsorted`` sweeps, their keys searched
    in ascending order (one argsort, not the partials' order, which
    jumps between bands at random), the ragged candidate ranges gather
    through one fancy-index, and dedup and endpoint positions run as
    array ops over candidates that are all admissible.  That sweep,
    :meth:`_admit_arrays`, is the kernel's one admission
    implementation.  It works on dense node *slots* (a node's
    position in the storage's ascending node-id array) and per-partial
    global index windows, and has one front end, the block lane
    (:meth:`block_ready` / :meth:`grow_block`): it reads both from
    per-event tables built once per run and keeps a whole root block in
    arrays from its roots to its completed instances and their motif
    codes.  The per-partial contract (``extend_frontier`` /
    ``next_frontier``) is the inherited scalar code: the online engine
    calls it one arriving event at a time, and the driver only while
    tail appends keep the block lane unavailable.
    """

    kernel_name = "numpy"

    # The inherited reference, bound here by name: the benchmark's span
    # tracer (perfbench/spans.py) patches this class's own
    # ``next_frontier`` entry and fails on a missing one.
    next_frontier = ExtensionKernel.next_frontier

    def __init__(self, plan: "ExecutionPlan", storage: "GraphStorage") -> None:
        super().__init__(plan, storage)
        self._block: dict | None = None

    # ------------------------------------------------------------------
    # block lane: a whole root block in arrays, no Partial objects
    # ------------------------------------------------------------------
    def block_ready(self) -> bool:
        """Whether :meth:`grow_block` can serve this storage right now.

        Builds the run's per-event tables on the kernel (never on the
        storage, so they live exactly as long as the run): each event's
        endpoint slots; the pair band, which sorts the events by their
        unordered endpoint-slot pair, then by index, as keys
        ``rank * m + e`` (``rank`` is the pair's position among the
        distinct ``pair_keys``, so every key stays below ``m**2``); and
        the global index bounds of the windows each event
        opens — ``lo[e]``, the first event strictly later than ``e``,
        and ``hi_c[e]``/``hi_w[e]``, one past the last event at or
        before ``t[e] + ΔC`` / ``t[e] + ΔW``.  Because ``searchsorted``
        is monotone and the sums are the deadline arithmetic's own, a
        partial's window ``(t_last, min(t_last + ΔC, t_root + ΔW)]`` is
        exactly ``[lo[last], min(hi_c[last], hi_w[root]))``.

        ``False`` (tail appends pending) routes the driver to the
        Partial-object path, which runs the generic kernel's scalar
        code; that demotion is counted here, once per call.
        """
        arrays = getattr(self._storage, "extension_arrays", lambda: None)()
        if arrays is None:
            self._block = None
            count_kernel_demotion(self.kernel_name, "generic")
            return False
        t = arrays["t"]
        keys = arrays["keys"]
        su = keys.searchsorted(arrays["u"])
        sv = keys.searchsorted(arrays["v"])
        n_slots = np.int64(len(keys))
        pair = np.minimum(su, sv) * n_slots + np.maximum(su, sv)
        pair_idx = pair.argsort(kind="stable")
        pair = pair[pair_idx]
        fresh = np.ones(len(pair), dtype=bool)
        np.not_equal(pair[1:], pair[:-1], out=fresh[1:])
        pair_banded = np.cumsum(fresh)
        pair_banded -= 1
        pair_banded *= arrays["m"]
        pair_banded += pair_idx
        plan = self._plan
        self._block = {
            "arrays": arrays,
            "su": su,
            "sv": sv,
            "loops": bool((su == sv).any()),
            "n_slots": n_slots,
            "pair_keys": pair[fresh],
            "pair_banded": pair_banded,
            "pair_idx": pair_idx,
            "lo": t.searchsorted(t, side="right"),
            "hi_c": t.searchsorted(t + plan.delta_c, side="right"),
            "hi_w": t.searchsorted(t + plan.delta_w, side="right"),
        }
        return True

    def grow_block(self, roots):
        """One root block to completion: ``(rows, codes, level_partials, level_ext)``.

        ``rows`` is the ``(n, n_events)`` int64 array of completed
        instances in the driver's DFS yield order; ``codes`` holds each
        row's motif code, decimal-packed (``str(code).zfill(2 *
        n_events)`` is :func:`~repro.core.notation.canonical_code` of
        the row), ``-1`` for a row holding a self-loop event (which has
        no code), and is ``None`` past :data:`MAX_CODE_EVENTS`; the
        level arrays hold each level's frontier size and admitted
        extensions for the frontier histograms.  Requires a prior
        ``block_ready()``.

        The frontier is an ``(n_p, depth)`` sequence matrix, a node-slot
        table padded with ``-1`` (no slot), the partial codes and the
        window columns, advanced one :meth:`_admit_arrays` call per
        level.  The node table is in first-appearance order, so an
        admitted event's canonical labels are its endpoints' positions
        in the parent row, a new node taking the parent's size: each
        level appends ``10 * label_u + label_v`` to the code.  At
        non-final levels each parent's children are reversed by an index
        permutation (the LIFO reversal); the final level stays
        ascending.
        """
        block = self._block
        su = block["su"]
        sv = block["sv"]
        lo_of = block["lo"]
        hi_c = block["hi_c"]
        n = self._plan.n_events
        roots = np.asarray(roots, dtype=np.int64)
        seqs = roots[:, None]
        # Wide enough for every partial: a root carries two nodes, and
        # each later event adds at most one, never past the node cap.
        width = max(2, min(self._plan.node_cap, n + 1))
        padded = np.full((len(roots), width), -1, dtype=np.int64)
        padded[:, 0] = su[roots]
        padded[:, 1] = sv[roots]
        sizes = np.full(len(roots), 2, dtype=np.int64)
        codes = np.ones(len(roots), dtype=np.int64) if n <= MAX_CODE_EVENTS else None
        root_hi = block["hi_w"][roots]
        win_lo = lo_of[roots]
        win_hi = np.minimum(hi_c[roots], root_hi)
        level_partials = np.zeros(n - 1, dtype=np.int64)
        level_ext = np.zeros(n - 1, dtype=np.int64)
        for depth in range(1, n):
            level_partials[depth - 1] = len(seqs)
            vec = self._admit_arrays(block, win_lo, win_hi, padded, sizes)
            if not vec:
                break
            cand, cand_part, pos_u, pos_v = vec
            level_ext[depth - 1] = len(cand)
            final = depth == n - 1
            if not final:
                # cand_part is grouped ascending: reverse each group,
                # element i of a group [gstart, gend) taking position
                # gstart+gend-1-i.
                counts = np.bincount(cand_part)
                gend = np.cumsum(counts)
                gstart = gend - counts
                perm = (gstart + gend - 1)[cand_part] - np.arange(len(cand))
                cand = cand[perm]
                cand_part = cand_part[perm]
                pos_u = pos_u[perm]
                pos_v = pos_v[perm]
            seqs = np.column_stack((seqs[cand_part], cand))
            parent_sizes = sizes[cand_part]
            new_u = pos_u < 0
            new_v = pos_v < 0
            if codes is not None:
                codes = codes[cand_part] * 100
                codes += 10 * np.where(new_u, parent_sizes, pos_u)
                codes += np.where(new_v, parent_sizes, pos_v)
            if final:
                if codes is not None and block["loops"]:
                    codes[(su[seqs] == sv[seqs]).any(axis=1)] = -1
                return seqs, codes, level_partials, level_ext
            # An adjacent candidate introduces at most one node.
            grow = new_u | new_v
            sizes = parent_sizes + grow
            padded = padded[cand_part]
            rows = np.flatnonzero(grow)
            padded[rows, parent_sizes[rows]] = np.where(new_u, su[cand], sv[cand])[rows]
            root_hi = root_hi[cand_part]
            win_lo = lo_of[cand]
            win_hi = np.minimum(hi_c[cand], root_hi)
        empty = np.empty((0, n), dtype=np.int64)
        return empty, None if codes is None else empty[:, 0], level_partials, level_ext

    # ------------------------------------------------------------------
    # the admission sweep
    # ------------------------------------------------------------------
    def _admit_arrays(self, block, win_lo, win_hi, padded, sizes):
        """Every admissible extension of an array-shaped frontier.

        ``block`` is the run's tables from :meth:`block_ready`.
        ``padded`` is the ``(n_p, width)`` node-slot table: row ``i``
        holds partial ``i``'s ``sizes[i]`` node slots in first-appearance
        order, then ``-1``; ``[win_lo[i], win_hi[i])`` is partial ``i``'s
        window of global event indices (strictly after its last event,
        at or before its deadline).  Returns ``()`` when no extension is
        admissible, else ``(cand, cand_part, pos_u, pos_v)``: the
        admitted event indices, their partial positions (grouped in
        input order, events ascending within a partial), and each
        candidate endpoint's position in its partial's node row, ``-1``
        when the endpoint is new.

        Two probes gather only admissible candidates.  A partial below
        the node cap probes the node band once per node: an adjacent
        event adds at most one node, so every event it finds fits under
        the cap.  A partial at the cap can only take events between two
        of its own nodes, so it probes the pair band once per unordered
        pair of its node slots, plus once per ``(a, a)`` pair when the
        graph has self-loops.
        """
        arrays = block["arrays"]
        m = arrays["m"]
        n_p = len(sizes)
        if m == 0 or n_p == 0:
            return ()
        m = np.int64(m)
        found = []
        full = sizes >= self._plan.node_cap
        n_full = int(np.count_nonzero(full))
        if n_full < n_p:
            # One window query per (open partial, node), mapped into the
            # node's band of the flat CSR index (strictly increasing per
            # band, globally sorted after the ``+ slot*m`` shift).  The
            # queries arrive in partial order, which jumps between bands
            # at random; searched in ascending key order, consecutive
            # binary searches walk nearly the same path through the band
            # and stay in cache, which saves several times what the
            # argsort costs.  The temporaries are dropped once spent: the
            # ragged gather is the sweep's memory peak, and they would
            # sit under it.
            open_sizes = np.where(full, 0, sizes) if n_full else sizes
            slots = padded[np.arange(padded.shape[1]) < open_sizes[:, None]]
            q_part = np.repeat(np.arange(n_p, dtype=np.int64), open_sizes)
            base = slots * m
            key_lo = base + win_lo[q_part]
            order = key_lo.argsort()
            q_part = q_part[order]
            key_hi = base[order]
            key_hi += win_hi[q_part]
            key_lo = key_lo[order]
            del slots, base, order
            found.append(_probe_band(arrays["banded"], arrays["idx"], key_lo, key_hi, q_part))
            del key_lo, key_hi
        if n_full:
            # Every full partial holds ``max(node_cap, 2)`` slots: a root
            # carries two nodes, and only a partial below the cap grows.
            width = max(self._plan.node_cap, 2)
            first, second = np.triu_indices(width, 0 if block["loops"] else 1)
            slots = padded[full, :width]
            lo_slot = slots[:, first].ravel()
            hi_slot = slots[:, second].ravel()
            pair = np.minimum(lo_slot, hi_slot) * block["n_slots"]
            pair += np.maximum(lo_slot, hi_slot)
            q_part = np.repeat(np.flatnonzero(full), len(first))
            # Rank the pairs in ascending order (a packed sort, much
            # cheaper than an argsort): random-order binary searches
            # cost several times more, and the band searches below then
            # run in key order too.  Pairs no event joins drop out.
            bits = int(n_p).bit_length()
            if 2 * int(block["n_slots"]).bit_length() + bits < 63:
                packed = (pair << bits) | q_part
                packed.sort()
                pair = packed >> bits
                q_part = packed & ((np.int64(1) << bits) - 1)
            else:  # pragma: no cover - >2^63 packed keys
                order = pair.argsort()
                pair = pair[order]
                q_part = q_part[order]
            pair_keys = block["pair_keys"]
            rank = pair_keys.searchsorted(pair)
            np.minimum(rank, len(pair_keys) - 1, out=rank)
            hit = pair_keys[rank] == pair
            base = rank[hit] * m
            q_part = q_part[hit]
            found.append(
                _probe_band(
                    block["pair_banded"],
                    block["pair_idx"],
                    base + win_lo[q_part],
                    base + win_hi[q_part],
                    q_part,
                )
            )
        found = [probe for probe in found if probe is not None]
        if not found:
            return ()
        cand = np.concatenate([probe[0] for probe in found])
        cand_part = np.concatenate([probe[1] for probe in found])
        total_c = len(cand)

        # Sort per partial (the contract's grouped-ascending order) and
        # drop duplicates: an event adjacent to two motif nodes arrives
        # once per node query.  The candidates arrive in query key
        # order, not partial order, and none of that order survives:
        # sorting by ``(cand_part, cand)`` puts them in the one canonical
        # order whatever the input order.  The two keys pack into one
        # int64 sort — much cheaper than a lexsort — unless the packed
        # key cannot fit, in which case lexsort is the fallback.
        # Sort plus a neighbour mask, not ``np.unique``: on int64 keys
        # NumPy 2.x may take a far slower hash path.
        bits = int(m).bit_length()
        if bits + int(n_p).bit_length() < 63:
            packed = (cand_part << bits) | cand
            packed.sort()
            if total_c > 1:
                keep = np.empty(total_c, dtype=bool)
                keep[0] = True
                np.not_equal(packed[1:], packed[:-1], out=keep[1:])
                if not keep.all():
                    packed = packed[keep]
            cand = packed & ((np.int64(1) << bits) - 1)
            cand_part = packed >> bits
        else:  # pragma: no cover - >2^63 packed keys
            order = np.lexsort((cand, cand_part))
            cand = cand[order]
            cand_part = cand_part[order]
            if total_c > 1:
                dup = np.empty(total_c, dtype=bool)
                dup[0] = False
                dup[1:] = (cand[1:] == cand[:-1]) & (cand_part[1:] == cand_part[:-1])
                if dup.any():
                    keep = ~dup
                    cand = cand[keep]
                    cand_part = cand_part[keep]
        rec = _obs.ACTIVE
        if rec is not None:
            rec.inc(_ADMIT_CANDIDATES, total_c)
            rec.inc(_ADMIT_ADMITTED, len(cand))

        # Each endpoint's position in its partial's node row, one column
        # at a time (a row holds distinct slots, except a self-loop
        # root's two equal ones, where the later column wins).
        su = block["su"]
        sv = block["sv"]
        cu = su[cand]
        cv = sv[cand]
        pos_u = np.full(len(cand), -1, dtype=np.int64)
        pos_v = np.full(len(cand), -1, dtype=np.int64)
        for j in range(int(sizes.max())):
            col = padded[:, j][cand_part]
            np.copyto(pos_u, j, where=col == cu)
            np.copyto(pos_v, j, where=col == cv)
        return cand, cand_part, pos_u, pos_v


#: The admission sweep's counters: candidates gathered by its probes
#: (duplicates included) and extensions admitted.
_ADMIT_CANDIDATES = _obs.labeled("engine.admit.candidates", kernel="numpy")
_ADMIT_ADMITTED = _obs.labeled("engine.admit.admitted", kernel="numpy")


def _probe_band(banded, idx, key_lo, key_hi, q_part):
    """Gather ``idx`` over every query's half-open key range of one band.

    Query ``i`` of partial ``q_part[i]`` covers the ``banded`` keys
    ``[key_lo[i], key_hi[i])``; empty or past-deadline windows fall out
    as empty ranges.  Returns ``(cand, cand_part)`` in query order, or
    ``None`` when nothing is found.
    """
    a = banded.searchsorted(key_lo, side="left")
    cnt = banded.searchsorted(key_hi, side="left")
    cnt -= a
    np.maximum(cnt, 0, out=cnt)
    total = int(cnt.sum())
    if total == 0:
        return None
    # Ragged gather of every candidate range in one shot.
    starts = np.cumsum(cnt) - cnt
    offsets = np.arange(total, dtype=np.int64) - np.repeat(starts, cnt)
    return idx[np.repeat(a, cnt) + offsets], np.repeat(q_part, cnt)


#: Registry of kernel capability names (the values backends may put in
#: :attr:`~repro.storage.base.GraphStorage.extension_kernel`).
KERNELS: dict[str, type[ExtensionKernel]] = {"generic": GenericExtensionKernel}
if np:
    KERNELS["numpy"] = NumpyExtensionKernel

#: The demotion ladder: when an advertised kernel is not registered in
#: this build, resolution walks down one rung at a time ("numpy" wants
#: NumPy; "generic" is always present).
KERNEL_FALLBACKS: dict[str, str] = {"numpy": "generic"}


def count_kernel_demotion(src: str, dst: str) -> None:
    """Record one kernel demotion in the obs counters (when enabled).

    Covers both compile-time demotion (NumPy absent at plan
    resolution) and runtime fallback (tail appends pending, so the
    banded arrays are unavailable for this call).
    """
    rec = _obs.ACTIVE
    if rec is not None:
        rec.inc(_obs.labeled("engine.kernel.demote", **{"from": src, "to": dst}))


def resolve_kernel_name(name: str) -> str:
    """Resolve an advertised capability to a kernel registered here.

    Walks :data:`KERNEL_FALLBACKS` one rung at a time, counting each
    hop in ``engine.kernel.demote{from=...,to=...}`` so a silent
    fallback is visible in ``stats`` instead of only in timings.
    """
    while name not in KERNELS:
        fallback = KERNEL_FALLBACKS.get(name, "generic")
        count_kernel_demotion(name, fallback)
        name = fallback
    return name


def has_kernel(name: str) -> bool:
    """Whether a kernel capability name is implemented in this build."""
    return name in KERNELS


def kernel_for(plan: "ExecutionPlan", storage: "GraphStorage") -> ExtensionKernel:
    """Bind the plan's kernel to one storage engine.

    Plans are picklable and travel to workers, so the kernel *name* is
    re-resolved here: a plan compiled where NumPy was present demotes
    cleanly (and countably) on a worker where it is not.
    """
    name = plan.kernel_name
    if name not in KERNELS:
        name = resolve_kernel_name(name)
    cls = KERNELS.get(name, GenericExtensionKernel)
    rec = _obs.ACTIVE
    if rec is not None:
        rec.inc(_obs.labeled("engine.kernel.bind", kernel=cls.kernel_name))
    return cls(plan, storage)
