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

Two kernels implement the contract:

* :class:`GenericExtensionKernel` — one
  :meth:`~repro.storage.base.GraphStorage.adjacent_events_between`
  bisection per partial; correct on every backend.
* :class:`NumpyExtensionKernel` — extends whole *batches* of partials
  with a constant number of vectorized ``searchsorted`` probes over the
  banded CSR machinery of
  :class:`~repro.storage.numpy_backend.NumpyStorage`
  (:meth:`~repro.storage.numpy_backend.NumpyStorage.extension_arrays`),
  falling back to the generic path while tail appends are pending.
  Its admission is one array core over a padded node table and
  ``t_last``/``t_root`` columns, with two front ends: an adapter from
  Partial-like records for the contract above, and the **block lane**
  (``block_ready()`` / ``expand_block(roots)``), which grows a whole
  root block to an ``(n, n_events)`` instance array without building
  Partial objects (see :func:`repro.engine.driver.run_plan_blocks`).

Backends advertise their native kernel via the
:attr:`~repro.storage.base.GraphStorage.extension_kernel` class
attribute; :func:`kernel_for` resolves it, demoting to generic when the
advertised kernel is unavailable.
"""

from __future__ import annotations

from itertools import repeat
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

    Subclasses may override :meth:`_extend_partialwise` with a
    vectorized equivalent; the event-major path (single arriving event,
    the online engine's per-push shape) is shared by every kernel so the
    admission comparisons exist exactly once per traversal direction.
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
        DFS; see :mod:`repro.engine.driver`).  Kernels may override this
        to fuse admission and construction into one pass; the result
        must stay element-for-element identical to this reference.
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


#: Pad value of the node tables the numpy kernel admits against.  A
#: storage holding this node id cannot be served by the array paths.
_SENTINEL = np.iinfo(np.int64).min if np else None


class NumpyExtensionKernel(ExtensionKernel):
    """Vectorized kernel over :class:`NumpyStorage`'s banded CSR arrays.

    Extends the whole frontier at once: per-(partial, node) half-open
    window queries become four batched ``searchsorted`` sweeps, the
    ragged candidate ranges gather through one fancy-index, and
    dedup/adjacency/node-cap admission run as array ops.  That sweep,
    :meth:`_admit_arrays`, is the kernel's one admission implementation,
    with two front ends: the Partial-object entry points adapt record
    sequences into its arrays (only the triple or :class:`Partial`
    materialization is per-extension Python), and the block lane
    (:meth:`block_ready` / :meth:`expand_block`) keeps a whole root
    block in arrays from its roots to its completed instances.
    """

    kernel_name = "numpy"

    def __init__(self, plan: "ExecutionPlan", storage: "GraphStorage") -> None:
        super().__init__(plan, storage)
        self._block_arrays: dict | None = None

    def _extend_partialwise(
        self, partials: Sequence, lo: int, hi: int, need_nodes: bool
    ) -> list[Extension]:
        vec = self._vector_candidates(partials, lo, hi)
        if vec is None:
            return super()._extend_partialwise(partials, lo, hi, need_nodes)
        if not vec:
            return []
        cand, cand_part, cu, cv, u_in, v_in = vec
        positions = cand_part.tolist()
        indices = cand.tolist()
        if not need_nodes:
            return list(zip(positions, indices, repeat(None)))
        out: list[Extension] = []
        for pos, idx, ui, vi, uu, vv in zip(
            positions, indices, u_in.tolist(), v_in.tolist(), cu.tolist(), cv.tolist()
        ):
            nodes = partials[pos].nodes
            if ui:
                new_nodes = nodes if vi else nodes + (vv,)
            elif vi:
                new_nodes = nodes + (uu,)
            else:
                new_nodes = nodes + (uu, vv)
            out.append((pos, idx, new_nodes))
        return out

    def next_frontier(
        self,
        partials: Sequence[Partial],
        lo: int,
        hi: int,
        times: Sequence[float],
    ) -> list[Partial]:
        """Fused vectorized admission + partial construction (one pass)."""
        vec = self._vector_candidates(partials, lo, hi)
        if vec is None:
            return super().next_frontier(partials, lo, hi, times)
        if not vec:
            return []
        cand, cand_part, cu, cv, u_in, v_in = vec
        nxt: list[Partial] = []
        group: list[Partial] = []
        current = -1
        for pos, idx, ui, vi, uu, vv in zip(
            cand_part.tolist(),
            cand.tolist(),
            u_in.tolist(),
            v_in.tolist(),
            cu.tolist(),
            cv.tolist(),
        ):
            if pos != current:
                if group:
                    group.reverse()
                    nxt.extend(group)
                    group = []
                current = pos
                parent = partials[pos]
                seq = parent.seq
                nodes = parent.nodes
                t_root = parent.t_root
            if ui:
                new_nodes = nodes if vi else nodes + (vv,)
            elif vi:
                new_nodes = nodes + (uu,)
            else:
                new_nodes = nodes + (uu, vv)
            group.append(Partial(seq + (idx,), new_nodes, t_root, times[idx]))
        if group:
            group.reverse()
            nxt.extend(group)
        return nxt

    # ------------------------------------------------------------------
    # block lane: a whole root block in arrays, no Partial objects
    # ------------------------------------------------------------------
    def block_ready(self) -> bool:
        """Whether :meth:`expand_block` can serve this storage right now.

        Caches the banded arrays on the kernel for the run's block calls.
        ``False`` (tail appends pending, or a node id equal to the pad
        sentinel) routes the driver to the Partial-object path, whose
        per-call fallback is the generic kernel; that demotion is counted
        here, once per call.
        """
        arrays = getattr(self._storage, "extension_arrays", lambda: None)()
        if arrays is not None and len(arrays["keys"]) and arrays["keys"][0] == _SENTINEL:
            arrays = None  # pragma: no cover - pathological id
        self._block_arrays = arrays
        if arrays is None:
            count_kernel_demotion(self.kernel_name, "generic")
        return arrays is not None

    def expand_block(self, roots):
        """One root block to completion: ``(rows, level_partials, level_ext)``.

        ``rows`` is the ``(n, n_events)`` int64 array of completed
        instances in the driver's DFS yield order; the level arrays hold
        each level's frontier size and admitted extensions for the
        frontier histograms.  Requires a prior ``block_ready()``.

        The frontier is an ``(n_p, depth)`` sequence matrix, a padded
        node table and ``t_root``/``t_last`` columns, advanced one
        :meth:`_admit_arrays` call per level.  At non-final levels each
        parent's children are reversed by an index permutation (the
        LIFO reversal); the final level stays ascending.
        """
        arrays = self._block_arrays
        n = self._plan.n_events
        t_col = arrays["t"]
        roots = np.asarray(roots, dtype=np.int64)
        seqs = roots[:, None]
        # Wide enough for every partial: a root carries two nodes, and
        # each later event adds at most one, never past the node cap.
        width = max(2, min(self._plan.node_cap, n + 1))
        padded = np.full((len(roots), width), _SENTINEL, dtype=np.int64)
        padded[:, 0] = arrays["u"][roots]
        padded[:, 1] = arrays["v"][roots]
        sizes = np.full(len(roots), 2, dtype=np.int64)
        t_root = t_last = t_col[roots]
        level_partials = np.zeros(n - 1, dtype=np.int64)
        level_ext = np.zeros(n - 1, dtype=np.int64)
        for depth in range(1, n):
            level_partials[depth - 1] = len(seqs)
            vec = self._admit_arrays(arrays, t_last, t_root, padded, sizes, 0, arrays["m"])
            if not vec:
                break
            cand, cand_part, cu, cv, u_in, v_in = vec
            level_ext[depth - 1] = len(cand)
            if depth == n - 1:
                return np.column_stack((seqs[cand_part], cand)), level_partials, level_ext
            # cand_part is grouped ascending: reverse each group, element
            # i of a group [gstart, gend) taking position gstart+gend-1-i.
            counts = np.bincount(cand_part)
            gend = np.cumsum(counts)
            gstart = gend - counts
            perm = (gstart + gend - 1)[cand_part] - np.arange(len(cand))
            cand = cand[perm]
            cand_part = cand_part[perm]
            # An adjacent candidate introduces at most one node.
            grow = ~(u_in & v_in)[perm]
            new_node = np.where(u_in, cv, cu)[perm]
            parent_sizes = sizes[cand_part]
            sizes = parent_sizes + grow
            padded = padded[cand_part]
            rows = np.flatnonzero(grow)
            padded[rows, parent_sizes[rows]] = new_node[rows]
            seqs = np.column_stack((seqs[cand_part], cand))
            t_root = t_root[cand_part]
            t_last = t_col[cand]
        return np.empty((0, n), dtype=np.int64), level_partials, level_ext

    # ------------------------------------------------------------------
    # the admission sweep
    # ------------------------------------------------------------------
    def _vector_candidates(self, partials: Sequence, lo: int, hi: int):
        """Adapt ``Partial``-like records to :meth:`_admit_arrays`.

        Returns ``None`` when the storage cannot serve the banded arrays
        (pending tail appends, a node id equal to the pad sentinel) —
        callers fall back to the generic path — else the core's result.
        """
        arrays = getattr(self._storage, "extension_arrays", lambda: None)()
        n_p = len(partials)
        if arrays is None or n_p == 0:
            return None if arrays is None else ()
        t_last = np.fromiter((p.t_last for p in partials), np.float64, n_p)
        t_root = np.fromiter((p.t_root for p in partials), np.float64, n_p)
        sizes = np.fromiter((len(p.nodes) for p in partials), np.int64, n_p)
        flat_nodes = np.fromiter(
            (node for p in partials for node in p.nodes), np.int64, int(sizes.sum())
        )
        if bool((flat_nodes == _SENTINEL).any()):  # pragma: no cover - pathological id
            return None
        padded = np.full((n_p, int(sizes.max())), _SENTINEL, dtype=np.int64)
        padded[np.arange(padded.shape[1]) < sizes[:, None]] = flat_nodes
        return self._admit_arrays(arrays, t_last, t_root, padded, sizes, lo, hi)

    def _admit_arrays(self, arrays, t_last, t_root, padded, sizes, lo, hi):
        """Every admissible extension of an array-shaped frontier.

        ``padded`` is the ``(n_p, width)`` node table: row ``i`` holds
        partial ``i``'s ``sizes[i]`` distinct nodes, then
        :data:`_SENTINEL`.  ``t_last``/``t_root`` are its time columns;
        ``[lo, hi)`` bounds the candidate event indices.  Returns ``()``
        when no extension is admissible, else ``(cand, cand_part, cu, cv,
        u_in, v_in)``: the admitted event indices, their partial
        positions (grouped in input order, events ascending within a
        partial), the candidate endpoints and their membership masks
        against the partial's node row.
        """
        t_col = arrays["t"]
        keys = arrays["keys"]
        m = arrays["m"]
        n_p = len(sizes)
        if not len(keys) or n_p == 0:
            return ()
        plan = self._plan
        node_cap = plan.node_cap

        # Per-partial deadlines — the plan's chained-deadline arithmetic,
        # broadcast: min(t_last + ΔC, t_root + ΔW).
        deadline = np.minimum(t_last + plan.delta_c, t_root + plan.delta_w)

        # One window query per (partial, node); empty/past-deadline
        # windows fall out as empty index ranges.
        flat_nodes = padded[np.arange(padded.shape[1]) < sizes[:, None]]
        q_part = np.repeat(np.arange(n_p, dtype=np.int64), sizes)

        # Half-open (t_last, deadline] -> global index range, then into
        # each node's band of the flat CSR index (strictly increasing per
        # band, globally sorted after the + slot*m shift).
        win_lo = t_col.searchsorted(t_last, side="right")
        win_hi = t_col.searchsorted(deadline, side="right")
        slots = np.minimum(keys.searchsorted(flat_nodes), len(keys) - 1)
        known = keys[slots] == flat_nodes
        base = slots * np.int64(m)
        banded = arrays["banded"]
        a = banded.searchsorted(base + win_lo[q_part], side="left")
        b = banded.searchsorted(base + win_hi[q_part], side="left")
        cnt = b - a
        np.maximum(cnt, 0, out=cnt)
        cnt[~known] = 0
        total_c = int(cnt.sum())
        if total_c == 0:
            return ()

        # Ragged gather of every candidate range in one shot.
        starts = np.cumsum(cnt) - cnt
        offsets = np.arange(total_c, dtype=np.int64) - np.repeat(starts, cnt)
        cand = arrays["idx"][np.repeat(a, cnt) + offsets]
        cand_part = np.repeat(q_part, cnt)

        # Sort per partial (the contract's grouped-ascending order) and
        # drop duplicates: an event adjacent to two motif nodes arrives
        # once per node query.  ``cand_part`` is already non-decreasing
        # (queries are grouped by partial), so the two-key sort packs
        # into one int64 sort — much cheaper than a lexsort — unless the
        # packed key cannot fit, in which case lexsort is the fallback.
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
        if lo > 0 or hi < m:
            in_range = (cand >= lo) & (cand < hi)
            if not in_range.all():
                cand = cand[in_range]
                cand_part = cand_part[in_range]
        if not len(cand):
            return ()

        # Node-cap admission: membership of each candidate's endpoints in
        # its partial's padded node row.  The pad is at least as wide as
        # the *largest* partial, not the cap — a root always carries two
        # nodes even under a degenerate ``max_nodes=1`` — and, exactly
        # like the scalar kernels, only extensions that *introduce*
        # nodes are tested against the cap.
        cu = arrays["u"][cand]
        cv = arrays["v"][cand]
        rows = padded[cand_part]
        u_in = (rows == cu[:, None]).any(axis=1)
        v_in = (rows == cv[:, None]).any(axis=1)
        extra = 2 - u_in.astype(np.int64) - v_in.astype(np.int64)
        ok = (extra == 0) | (sizes[cand_part] + extra <= node_cap)
        if not ok.all():
            cand = cand[ok]
            cand_part = cand_part[ok]
            cu = cu[ok]
            cv = cv[ok]
            u_in = u_in[ok]
            v_in = v_in[ok]
            if not len(cand):
                return ()
        return cand, cand_part, cu, cv, u_in, v_in


#: Registry of kernel capability names (the values backends may put in
#: :attr:`~repro.storage.base.GraphStorage.extension_kernel`).
KERNELS: dict[str, type[ExtensionKernel]] = {"generic": GenericExtensionKernel}
if np:
    KERNELS["numpy"] = NumpyExtensionKernel

#: The demotion ladder: when an advertised kernel is not registered in
#: this build, resolution walks down one rung at a time ("native" wants
#: numba, "numpy" wants NumPy; "generic" is always present).
KERNEL_FALLBACKS: dict[str, str] = {"native": "numpy", "numpy": "generic"}

_NATIVE_PROBED = False


def _probe_native() -> None:
    """Import the native tier once so it can self-register.

    ``repro.engine.native`` registers ``"native"`` in :data:`KERNELS` at
    import when numba is present; the import is deferred to first demand
    (a backend advertising ``"native"``) so numba's import cost is never
    paid by builds that don't use it.
    """
    global _NATIVE_PROBED
    if _NATIVE_PROBED:
        return
    _NATIVE_PROBED = True
    try:
        import repro.engine.native  # noqa: F401 - registers on import
    except Exception:  # pragma: no cover - broken optional install
        pass


def count_kernel_demotion(src: str, dst: str) -> None:
    """Record one kernel demotion in the obs counters (when enabled).

    Covers both compile-time demotion (numba or NumPy absent at plan
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
    if name == "native":
        _probe_native()
    while name not in KERNELS:
        fallback = KERNEL_FALLBACKS.get(name, "generic")
        count_kernel_demotion(name, fallback)
        name = fallback
    return name


def has_kernel(name: str) -> bool:
    """Whether a kernel capability name is implemented in this build."""
    if name == "native":
        _probe_native()
    return name in KERNELS


def kernel_for(plan: "ExecutionPlan", storage: "GraphStorage") -> ExtensionKernel:
    """Bind the plan's kernel to one storage engine.

    Plans are picklable and travel to workers, so the kernel *name* is
    re-resolved here: a plan compiled where numba was present demotes
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
