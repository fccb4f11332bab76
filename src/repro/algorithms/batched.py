"""Batched census folding: the per-instance summaries as array ops.

The serial census fold (:func:`repro.algorithms.counting.run_census`)
spends its time in an interpreted per-instance loop — the
first-appearance relabel of :func:`~repro.core.notation.canonical_code`.
The block lane never needs it: the numpy kernel builds each instance's
motif code while it grows the instance
(:meth:`~repro.engine.kernels.NumpyExtensionKernel.grow_block`), and
:func:`repro.engine.driver.run_plan_blocks` streams ``(rows, codes)``
blocks.  This module folds those blocks into a
:class:`~repro.algorithms.counting.MotifCensus` bit-identically to the
serial pass.  Pair types need no pass of their own: the census derives
them from its code counts.

A code is decimal-packed — ``str(code).zfill(2 * k)`` is the canonical
code — and one ``np.unique`` with a stable first-appearance sort
reproduces the serial code counter exactly, *including key order*: the
first instance of each distinct code lands in the counter at the same
rank the serial loop would have inserted it.

The code fits 64 bits only while ``10**(2k - 1)`` does, so the block
lane serves motifs of up to
:data:`~repro.engine.kernels.MAX_CODE_EVENTS` events; larger motifs stay
on the tuple path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.core._optional import import_numpy

np = import_numpy()

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.algorithms.counting import MotifCensus


def _raise_self_loop(rows, codes, u_col, v_col) -> None:
    """Raise the serial encoder's error for the first self-loop instance.

    The kernel marks a row holding a self-loop event with code ``-1``;
    the serial fold raises on the first such instance it meets, naming
    its first self-loop event.
    """
    row = rows[int(np.flatnonzero(codes < 0)[0])]
    ev = int(row[u_col[row] == v_col[row]][0])
    raise ValueError(f"self-loop ({int(u_col[ev])}, {int(v_col[ev])}) has no motif code")


def fold_census_blocks(
    census: "MotifCensus",
    blocks: Iterable,
    t_col,
    u_col,
    v_col,
    *,
    collect_timespans: bool = False,
    collect_positions: bool = False,
    span_filter: set | None = None,
    pos_filter: set | None = None,
    sample_cap: int = 0,
) -> int:
    """Fold instance blocks into ``census``; return the total count.

    ``blocks`` yields ``(rows, codes)``: ``(n_i, k)`` int64 arrays of
    event indices in the serial enumeration order and their packed motif
    codes; ``t_col`` / ``u_col`` / ``v_col`` are the full per-event
    columns.  Counter contents *and key order*, sample lists and totals
    come out bit-identical to the serial fold (Python floats and ints
    throughout — array scalars never leak out), and so does the
    ``ValueError`` an instance holding a self-loop event raises.
    """
    code_counts = census.code_counts
    total = 0
    for block, codes in blocks:
        n, k = block.shape
        if n == 0:
            continue
        uniq, first_idx, counts = np.unique(codes, return_index=True, return_counts=True)
        if uniq[0] < 0:
            _raise_self_loop(block, codes, u_col, v_col)
        total += n
        code_of = {}
        for rank in np.argsort(first_idx, kind="stable").tolist():
            key = int(uniq[rank])
            code = code_of[key] = str(key).zfill(2 * k)
            code_counts[code] += int(counts[rank])

        if collect_timespans or collect_positions:
            row_codes = [code_of[key] for key in codes.tolist()]
            t0 = t_col[block[:, 0]]
            spans = (t_col[block[:, -1]] - t0).tolist()

        if collect_timespans:
            for r in range(n):
                code = row_codes[r]
                if span_filter is not None and code not in span_filter:
                    continue
                bucket = census.timespans.setdefault(code, [])
                if len(bucket) < sample_cap:
                    bucket.append(spans[r])

        if collect_positions:
            t_first = t0.tolist()
            mids = t_col[block[:, 1:-1]]
            for r in range(n):
                code = row_codes[r]
                if pos_filter is not None and code not in pos_filter:
                    continue
                span = spans[r]
                if span <= 0:
                    continue
                bucket2 = census.intermediate_positions.setdefault(code, [])
                # Strict cap (never exceeded), so capped lists are exact
                # prefixes — the invariant sharded merges rely on.
                for pos, t_mid in enumerate(mids[r].tolist(), start=1):
                    if len(bucket2) >= sample_cap:
                        break
                    bucket2.append((pos, (t_mid - t_first[r]) / span))
    return total
