"""Batched census folding: the per-instance summaries as array ops.

The serial census fold (:func:`repro.algorithms.counting.run_census`)
spends its time in an interpreted per-instance loop — the
first-appearance relabel of :func:`~repro.core.notation.canonical_code`.
This module performs it over whole **instance blocks** — the
``(n, n_events)`` arrays streamed by
:func:`repro.engine.driver.run_plan_blocks` — and folds the results into
a :class:`~repro.algorithms.counting.MotifCensus` bit-identically to the
serial pass.  Pair types need no pass of their own: the census derives
them from its code counts.

The packing trick: a block's rows collapse to one int64 key each — the
decimal-packed relabel digits, i.e. the motif code — and one
``np.unique`` with a stable first-appearance sort reproduces the serial
code counter exactly, *including key order*: the first instance of each
distinct code lands in the counter at the same rank the serial loop
would have inserted it.

The key fits 64 bits only while ``10**(2k - 1)`` does, which bounds the
batched fold at :data:`MAX_BATCH_EVENTS` events; larger motifs stay on
the tuple path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.core._optional import import_numpy
from repro.core.notation import MAX_NOTATION_NODES

np = import_numpy()

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.algorithms.counting import MotifCensus

#: Largest motif size the packed code key can hold in an int64
#: (a code's first digit is 0, and ``10**(2k - 1) < 2**63`` holds through
#: ``k = 9``).
MAX_BATCH_EVENTS = 9


def available() -> bool:
    """Whether the batched fold can run (NumPy importable)."""
    return bool(np)


def encode_block_codes(us, vs):
    """Decimal-packed canonical codes of a block of instances.

    ``us`` / ``vs`` are ``(n, k)`` int arrays of per-event endpoints in
    chronological order.  Returns ``(n,)`` int64 keys where
    ``str(key).zfill(2 * k)`` is exactly
    :func:`~repro.core.notation.canonical_code` of the row (the first
    digit of a canonical code is always 0, so the pack is lossless).

    The relabel runs column-by-column over the interleaved endpoint
    matrix: a column's label is its first-appearance match among the
    earlier columns, or the row's next fresh label.  Matches the serial
    encoder's errors: self-loop events and motifs beyond
    :data:`~repro.core.notation.MAX_NOTATION_NODES` raise ``ValueError``.
    """
    n, k = us.shape
    if bool((us == vs).any()):
        raise ValueError("self-loop event has no motif code")
    ep = np.empty((n, 2 * k), dtype=np.int64)
    ep[:, 0::2] = us
    ep[:, 1::2] = vs
    labels = np.empty((n, 2 * k), dtype=np.int64)
    labels[:, 0] = 0
    ndist = np.ones(n, dtype=np.int64)
    rows = np.arange(n)
    for j in range(1, 2 * k):
        eq = ep[:, :j] == ep[:, j : j + 1]
        seen = eq.any(axis=1)
        first = eq.argmax(axis=1)
        labels[:, j] = np.where(seen, labels[rows, first], ndist)
        ndist += ~seen
    if bool((ndist > MAX_NOTATION_NODES).any()):
        raise ValueError("motif has too many nodes for digit notation")
    keys = labels[:, 0].copy()
    for j in range(1, 2 * k):
        keys *= 10
        keys += labels[:, j]
    return keys


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

    ``blocks`` yields ``(n_i, k)`` int64 arrays of event indices in the
    serial enumeration order; ``t_col`` / ``u_col`` / ``v_col`` are the
    full per-event columns.  Counter contents *and key order*, sample
    lists and totals come out bit-identical to the serial fold (Python
    floats and ints throughout — array scalars never leak out).
    """
    code_counts = census.code_counts
    total = 0
    for block in blocks:
        n, k = block.shape
        if n == 0:
            continue
        total += n
        code_keys = encode_block_codes(u_col[block], v_col[block])
        uniq, first_idx, inverse, counts = np.unique(
            code_keys, return_index=True, return_inverse=True, return_counts=True
        )
        order = np.argsort(first_idx, kind="stable")

        codes_by_uniq = [""] * len(uniq)
        for rank in order.tolist():
            code = codes_by_uniq[rank] = str(int(uniq[rank])).zfill(2 * k)
            code_counts[code] += int(counts[rank])

        if collect_timespans:
            spans = (t_col[block[:, -1]] - t_col[block[:, 0]]).tolist()
            inv = inverse.tolist()
            for r in range(n):
                code = codes_by_uniq[inv[r]]
                if span_filter is not None and code not in span_filter:
                    continue
                bucket = census.timespans.setdefault(code, [])
                if len(bucket) < sample_cap:
                    bucket.append(spans[r])

        if collect_positions:
            t0 = t_col[block[:, 0]].tolist()
            spans_p = (t_col[block[:, -1]] - t_col[block[:, 0]]).tolist()
            mids = t_col[block[:, 1:-1]]
            inv = inverse.tolist()
            for r in range(n):
                code = codes_by_uniq[inv[r]]
                if pos_filter is not None and code not in pos_filter:
                    continue
                span = spans_p[r]
                if span <= 0:
                    continue
                bucket2 = census.intermediate_positions.setdefault(code, [])
                t_first = t0[r]
                # Strict cap (never exceeded), so capped lists are exact
                # prefixes — the invariant sharded merges rely on.
                for pos, t_mid in enumerate(mids[r].tolist(), start=1):
                    if len(bucket2) >= sample_cap:
                        break
                    bucket2.append((pos, (t_mid - t_first) / span))
    return total
