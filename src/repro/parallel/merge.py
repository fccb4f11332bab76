"""Deterministic reduction of per-shard enumeration results.

Shards merge **in plan order** (ascending anchor ranges), which makes the
concatenated result stream identical to the serial enumeration: counters
come out with the same first-appearance key order a single pass would
have produced (mapping iteration order is part of the storage contract —
seeded randomized consumers depend on it), and sample lists are the same
prefix a single capped pass would have kept.
"""

from __future__ import annotations

from typing import Sequence

from repro.algorithms.counting import MotifCensus, merge_counters
from repro.parallel.shards import Shard

Instance = tuple[int, ...]

#: Sum counters, preserving first-appearance key order across shards.
#: One implementation serves both the chunked and the sharded reducers:
#: this is :func:`repro.algorithms.counting.merge_counters`, re-exported
#: under the name the parallel engine has always used.
merge_counts = merge_counters


def merge_instances(
    shards: Sequence[Shard],
    instance_lists: Sequence[Sequence[Instance]],
) -> list[Instance]:
    """Concatenate per-shard instance lists (global indices) in shard order.

    Deduplication is by **anchor-event index**: an instance is kept only
    when its first event lies in the yielding shard's owned anchor range.
    Shard workers already restrict enumeration roots to owned anchors, so
    this is normally a no-op filter — it exists to make double-counting
    across overlapping shard windows structurally impossible, e.g. for
    externally produced shard results.
    """
    if len(shards) != len(instance_lists):
        raise ValueError("need exactly one instance list per shard")
    merged: list[Instance] = []
    for shard, instances in zip(shards, instance_lists):
        for inst in instances:
            if shard.owns_anchor(inst[0]):
                merged.append(inst)
    return merged


def merge_censuses(
    censuses: Sequence[MotifCensus],
    *,
    sample_cap: int | None = None,
) -> MotifCensus:
    """Fold per-shard censuses into one, in shard order.

    Code counters merge with :func:`merge_counts` (the pair counters are
    derived from them, key order included); the per-code sample lists
    (timespans, intermediate positions) concatenate and are re-capped at
    ``sample_cap``.  Because each shard capped its own list at the same
    bound and list concatenation keeps prefixes, the merged result is
    entry-for-entry identical to what the serial single pass collects.
    """
    if not censuses:
        raise ValueError("need at least one shard census to merge")
    first = censuses[0]
    merged = MotifCensus(n_events=first.n_events, constraints=first.constraints)
    merged.code_counts = merge_counts(c.code_counts for c in censuses)
    merged.total = sum(c.total for c in censuses)
    for census in censuses:
        _extend_samples(merged.timespans, census.timespans, sample_cap)
        _extend_samples(
            merged.intermediate_positions,
            census.intermediate_positions,
            sample_cap,
        )
    return merged


def _extend_samples(target: dict, source: dict, sample_cap: int | None) -> None:
    for code, values in source.items():
        bucket = target.setdefault(code, [])
        if sample_cap is None:
            bucket.extend(values)
        else:
            room = sample_cap - len(bucket)
            if room > 0:
                bucket.extend(values[:room])
