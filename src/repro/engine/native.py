"""The native (JIT) kernel tier: whole-block frontier expansion.

The third rung of the kernel ladder (``native`` -> ``numpy`` ->
``generic``): the same admission arithmetic as every other
:class:`~repro.engine.kernels.ExtensionKernel` — chained deadline
``min(t_last + ΔC, t_root + ΔW)``, node cap, per-partial dedup — but
compiled by numba over the flat int64/float64 arrays of
:meth:`~repro.storage.numpy_backend.NumpyStorage.extension_arrays`,
with the frontier itself kept in preallocated arrays (a partial->nodes
table plus ``t_root``/``t_last`` columns) instead of per-
:class:`~repro.engine.kernels.Partial` Python objects.

The block lane itself is not native-only: the numpy kernel's
:meth:`~repro.engine.kernels.NumpyExtensionKernel.expand_block` grows a
whole root block over arrays on plain NumPy, and
:func:`repro.engine.driver.run_plan_blocks` streams its ``(n,
n_events)`` instance arrays to batched consumers such as the vectorized
census fold of :mod:`repro.algorithms.batched`.  This kernel inherits
``block_ready()`` and replaces only the body of
:meth:`NativeExtensionKernel.expand_block`: one JIT call grows the block
to completion — every level, the non-final ones included, advances
without intermediate Python triples — and returns the same arrays in
the same DFS yield order (parents in pop order, children in descending
event order at non-final levels — the LIFO reversal — and ascending at
the final level; see :mod:`repro.engine.driver` for the equivalence
argument).

Registration follows the numpy backend's optional-dependency pattern:
``"native"`` lands in :data:`~repro.engine.kernels.KERNELS` only when
numba imports (:func:`available`); without numba this module still
imports cleanly — every ``@_jit`` function runs as plain Python over
NumPy arrays, which is how the differential parity suite exercises the
algorithm on numba-less builds — and plan compilation demotes the
advertised ``"native"`` down the
:data:`~repro.engine.kernels.KERNEL_FALLBACKS` chain, counted in
``engine.kernel.demote{from=...,to=...}``.

Output is bit-identical to the generic kernel across every consumer:
triples grouped by partial in input order, events ascending within a
partial, historical DFS yield order, counter key order.
"""

from __future__ import annotations

from typing import Sequence

from repro.core._optional import import_numpy
from repro.engine.kernels import (
    KERNELS,
    NumpyExtensionKernel,
    count_kernel_demotion,
)

np = import_numpy()

try:  # pragma: no cover - exercised only where numba is installed
    import numba as _numba
except Exception:  # pragma: no cover - the numba-less default
    _numba = None


def available() -> bool:
    """Whether the native tier can register (NumPy and numba importable)."""
    return bool(np) and _numba is not None


def _jit(fn):
    """``numba.njit`` when numba is present, identity otherwise.

    The fallback keeps every kernel function importable and runnable as
    plain Python — the parity suite's lever on numba-less builds.
    """
    if _numba is None:
        return fn
    return _numba.njit(cache=True)(fn)


# ----------------------------------------------------------------------
# scalar helpers (numba-safe subset: loops, 1D/2D arrays, no fancy ops)
# ----------------------------------------------------------------------
@_jit
def _bisect_right(a, x, lo, hi):
    while lo < hi:
        mid = (lo + hi) // 2
        if x < a[mid]:
            hi = mid
        else:
            lo = mid + 1
    return lo


@_jit
def _bisect_left(a, x, lo, hi):
    while lo < hi:
        mid = (lo + hi) // 2
        if a[mid] < x:
            lo = mid + 1
        else:
            hi = mid
    return lo


@_jit
def _find_slot(keys, node):
    """CSR slot of ``node`` in the ascending ``keys`` array, or -1."""
    lo = 0
    hi = keys.shape[0]
    while lo < hi:
        mid = (lo + hi) // 2
        if keys[mid] < node:
            lo = mid + 1
        else:
            hi = mid
    if lo < keys.shape[0] and keys[lo] == node:
        return lo
    return -1


@_jit
def _gather_candidates(nodes_row, n_nodes, t_last, deadline, t, keys, banded, m):
    """Sorted (not deduped) candidate event indices for one partial.

    The banded-CSR window probe of the numpy kernel, scalarized: the
    half-open window ``(t_last, deadline]`` maps to one global index
    range, then each node's band is sliced by binary search —
    ``banded[i] - slot*m`` is the event index, ascending within a band.
    """
    if deadline <= t_last:
        return np.empty(0, np.int64)
    nb = banded.shape[0]
    win_lo = _bisect_right(t, t_last, 0, m)
    win_hi = _bisect_right(t, deadline, 0, m)
    if win_lo >= win_hi:
        return np.empty(0, np.int64)
    total = 0
    for ni in range(n_nodes):
        slot = _find_slot(keys, nodes_row[ni])
        if slot < 0:
            continue
        base = slot * m
        a = _bisect_left(banded, base + win_lo, 0, nb)
        b = _bisect_left(banded, base + win_hi, 0, nb)
        total += b - a
    buf = np.empty(total, np.int64)
    k = 0
    for ni in range(n_nodes):
        slot = _find_slot(keys, nodes_row[ni])
        if slot < 0:
            continue
        base = slot * m
        a = _bisect_left(banded, base + win_lo, 0, nb)
        b = _bisect_left(banded, base + win_hi, 0, nb)
        for i in range(a, b):
            buf[k] = banded[i] - base
            k += 1
    buf.sort()
    return buf


@_jit
def _admit(nodes_row, n_nodes, cu, cv, node_cap):
    """One candidate's admission: ``(admitted, u_in, v_in)``.

    Exactly the scalar kernels' rule — adjacency, then the node cap
    tested only against extensions that *introduce* nodes.
    """
    u_in = False
    v_in = False
    for ni in range(n_nodes):
        node = nodes_row[ni]
        if node == cu:
            u_in = True
        if node == cv:
            v_in = True
    if not (u_in or v_in):
        return False, u_in, v_in
    extra = 2
    if u_in:
        extra -= 1
    if v_in:
        extra -= 1
    if extra > 0 and n_nodes + extra > node_cap:
        return False, u_in, v_in
    return True, u_in, v_in


@_jit
def _sweep(
    nodes_pad,
    n_nodes,
    t_root,
    t_last,
    lo,
    hi,
    node_cap,
    dc,
    dw,
    t,
    u,
    v,
    keys,
    banded,
    m,
):
    """The ``extend_frontier`` sweep over array-shaped partials.

    Returns ``(cand_part, cand, u_in, v_in)`` — admitted extensions
    grouped by partial in input order, event indices ascending and
    deduped within a partial (the kernel contract's output order).
    """
    n_p = nodes_pad.shape[0]
    cap = 64
    out_part = np.empty(cap, np.int64)
    out_cand = np.empty(cap, np.int64)
    out_uin = np.empty(cap, np.uint8)
    out_vin = np.empty(cap, np.uint8)
    n_out = 0
    for p in range(n_p):
        tl = t_last[p]
        deadline = min(tl + dc, t_root[p] + dw)
        buf = _gather_candidates(
            nodes_pad[p], n_nodes[p], tl, deadline, t, keys, banded, m
        )
        prev = np.int64(-1)
        for i in range(buf.shape[0]):
            c = buf[i]
            if c == prev:
                continue
            prev = c
            if c < lo or c >= hi:
                continue
            ok, ui, vi = _admit(nodes_pad[p], n_nodes[p], u[c], v[c], node_cap)
            if not ok:
                continue
            if n_out == cap:
                cap = cap * 2
                g_part = np.empty(cap, np.int64)
                g_cand = np.empty(cap, np.int64)
                g_uin = np.empty(cap, np.uint8)
                g_vin = np.empty(cap, np.uint8)
                g_part[:n_out] = out_part
                g_cand[:n_out] = out_cand
                g_uin[:n_out] = out_uin
                g_vin[:n_out] = out_vin
                out_part = g_part
                out_cand = g_cand
                out_uin = g_uin
                out_vin = g_vin
            out_part[n_out] = p
            out_cand[n_out] = c
            out_uin[n_out] = 1 if ui else 0
            out_vin[n_out] = 1 if vi else 0
            n_out += 1
    return out_part[:n_out], out_cand[:n_out], out_uin[:n_out], out_vin[:n_out]


@_jit
def _expand_block_impl(roots, n_events, node_cap, dc, dw, t, u, v, keys, banded, m):
    """Grow one root block to completion entirely inside the JIT.

    Level-synchronous like the driver's ``_expand_block``: at non-final
    levels each parent's admitted children are appended in *descending*
    event order (the DFS LIFO reversal), at the final level in ascending
    order — so the returned ``(n, n_events)`` rows are exactly the
    driver's yield order.  Also returns per-level frontier sizes
    ``(level_partials, level_extensions)`` for the observability
    histograms.
    """
    pad = node_cap if node_cap > 2 else 2
    if pad > n_events + 1:
        pad = n_events + 1
    n_p = roots.shape[0]
    seqs = np.empty((n_p, n_events), np.int64)
    nodes = np.empty((n_p, pad), np.int64)
    n_nodes = np.empty(n_p, np.int64)
    t_root = np.empty(n_p, np.float64)
    t_last = np.empty(n_p, np.float64)
    for i in range(n_p):
        r = roots[i]
        seqs[i, 0] = r
        nodes[i, 0] = u[r]
        nodes[i, 1] = v[r]
        n_nodes[i] = 2
        t_root[i] = t[r]
        t_last[i] = t[r]
    level_partials = np.zeros(n_events - 1, np.int64)
    level_ext = np.zeros(n_events - 1, np.int64)
    result = np.empty((0, n_events), np.int64)
    for depth in range(1, n_events):
        level_partials[depth - 1] = n_p
        final = depth == n_events - 1
        cap = n_p + 16
        out_seqs = np.empty((cap, n_events), np.int64)
        out_nodes = np.empty((cap, pad), np.int64)
        out_nn = np.empty(cap, np.int64)
        out_troot = np.empty(cap, np.float64)
        out_tlast = np.empty(cap, np.float64)
        n_out = 0
        for p in range(n_p):
            tl = t_last[p]
            deadline = min(tl + dc, t_root[p] + dw)
            buf = _gather_candidates(
                nodes[p], n_nodes[p], tl, deadline, t, keys, banded, m
            )
            nb = buf.shape[0]
            if final:
                # Ascending, dedup by skipping repeats of the previous.
                lo_i, hi_i, step = 0, nb, 1
            else:
                # Descending (the LIFO reversal), dedup by skipping any
                # entry equal to its ascending successor.
                lo_i, hi_i, step = nb - 1, -1, -1
            for i in range(lo_i, hi_i, step):
                c = buf[i]
                if step == 1:
                    if i > 0 and buf[i - 1] == c:
                        continue
                else:
                    if i < nb - 1 and buf[i + 1] == c:
                        continue
                ok, ui, vi = _admit(nodes[p], n_nodes[p], u[c], v[c], node_cap)
                if not ok:
                    continue
                if n_out == cap:
                    cap = cap * 2
                    g_seqs = np.empty((cap, n_events), np.int64)
                    g_seqs[:n_out] = out_seqs
                    out_seqs = g_seqs
                    if not final:
                        g_nodes = np.empty((cap, pad), np.int64)
                        g_nodes[:n_out] = out_nodes
                        out_nodes = g_nodes
                        g_nn = np.empty(cap, np.int64)
                        g_nn[:n_out] = out_nn
                        out_nn = g_nn
                        g_troot = np.empty(cap, np.float64)
                        g_troot[:n_out] = out_troot
                        out_troot = g_troot
                        g_tlast = np.empty(cap, np.float64)
                        g_tlast[:n_out] = out_tlast
                        out_tlast = g_tlast
                for j in range(depth):
                    out_seqs[n_out, j] = seqs[p, j]
                out_seqs[n_out, depth] = c
                if not final:
                    nn = n_nodes[p]
                    for j in range(nn):
                        out_nodes[n_out, j] = nodes[p, j]
                    # Adjacent candidates introduce at most one node, so
                    # nn never exceeds the pad; the bound check only
                    # makes out-of-bounds writes structurally impossible.
                    if not ui and nn < pad:
                        out_nodes[n_out, nn] = u[c]
                        nn += 1
                    if not vi and nn < pad:
                        out_nodes[n_out, nn] = v[c]
                        nn += 1
                    out_nn[n_out] = nn
                    out_troot[n_out] = t_root[p]
                    out_tlast[n_out] = t[c]
                n_out += 1
        level_ext[depth - 1] = n_out
        if final:
            result = out_seqs[:n_out]
        else:
            if n_out == 0:
                break
            seqs = out_seqs
            nodes = out_nodes
            n_nodes = out_nn
            t_root = out_troot
            t_last = out_tlast
            n_p = n_out
    return result, level_partials, level_ext


class NativeExtensionKernel(NumpyExtensionKernel):
    """JIT kernel over the banded CSR, with a JIT whole-block body.

    Inherits the numpy kernel's triple materialization and fused
    ``next_frontier`` (both consume :meth:`_vector_candidates`, which
    this class reroutes through the JIT sweep), its ``block_ready()``,
    and the base class's event-major single-arrival path, so the online
    push shape is shared untouched.  While tail appends are pending the
    storage cannot serve the banded arrays and every entry point falls
    back to the generic path, counted as a runtime demotion.
    """

    kernel_name = "native"

    # ------------------------------------------------------------------
    # extend_frontier contract (arbitrary partial records)
    # ------------------------------------------------------------------
    def _vector_candidates(self, partials: Sequence, lo: int, hi: int):
        arrays = getattr(self._storage, "extension_arrays", lambda: None)()
        if arrays is None:
            count_kernel_demotion("native", "generic")
            return None
        n_p = len(partials)
        if n_p == 0:
            return ()
        keys = arrays["keys"]
        if not len(keys):
            return ()
        pad = max(len(p.nodes) for p in partials)
        nodes_pad = np.zeros((n_p, pad), dtype=np.int64)
        n_nodes = np.empty(n_p, dtype=np.int64)
        t_root = np.empty(n_p, dtype=np.float64)
        t_last = np.empty(n_p, dtype=np.float64)
        for i, p in enumerate(partials):
            row = p.nodes
            k = len(row)
            nodes_pad[i, :k] = row
            n_nodes[i] = k
            t_root[i] = p.t_root
            t_last[i] = p.t_last
        plan = self._plan
        cand_part, cand, u_in, v_in = _sweep(
            nodes_pad,
            n_nodes,
            t_root,
            t_last,
            lo,
            hi,
            plan.node_cap,
            plan.delta_c,
            plan.delta_w,
            arrays["t"],
            arrays["u"],
            arrays["v"],
            keys,
            arrays["banded"],
            arrays["m"],
        )
        if not len(cand):
            return ()
        return cand, cand_part, arrays["u"][cand], arrays["v"][cand], u_in, v_in

    # ------------------------------------------------------------------
    # block path (the driver's array-native fast lane)
    # ------------------------------------------------------------------
    def expand_block(self, roots):
        """One root block to completion: ``(rows, level_partials, level_ext)``.

        ``rows`` is the ``(n, n_events)`` int64 array of completed
        instances in the driver's DFS yield order; the level arrays feed
        the frontier histograms.  Requires a prior ``block_ready()``.
        """
        arrays = self._block_arrays
        if not isinstance(roots, np.ndarray):
            roots = np.fromiter(roots, np.int64, len(roots))
        plan = self._plan
        return _expand_block_impl(
            roots,
            plan.n_events,
            plan.node_cap,
            plan.delta_c,
            plan.delta_w,
            arrays["t"],
            arrays["u"],
            arrays["v"],
            arrays["keys"],
            arrays["banded"],
            arrays["m"],
        )


def warm_up() -> None:
    """Force JIT compilation on a two-event toy problem.

    Benchmarks call this so compile time lands in their ``warmup``
    field instead of the first timed round; a no-op without numba.
    """
    t = np.array([1.0, 2.0])
    u = np.array([0, 1], dtype=np.int64)
    v = np.array([1, 2], dtype=np.int64)
    keys = np.array([0, 1, 2], dtype=np.int64)
    # banded = idx + slot*m over per-node event memberships, m = 2.
    banded = np.array([0, 2, 3, 5], dtype=np.int64)
    roots = np.array([0], dtype=np.int64)
    _expand_block_impl(roots, 2, 3, np.inf, np.inf, t, u, v, keys, banded, 2)
    nodes_pad = np.array([[0, 1]], dtype=np.int64)
    one = np.ones(1, dtype=np.int64)
    _sweep(
        nodes_pad,
        one * 2,
        t[:1],
        t[:1],
        0,
        2,
        3,
        np.inf,
        np.inf,
        t,
        u,
        v,
        keys,
        banded,
        2,
    )


if available():
    KERNELS["native"] = NativeExtensionKernel
