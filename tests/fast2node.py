"""Test oracle: exact counting of two-node temporal motifs (Paranjape et al.).

An independent second implementation of two-node motif counting, which
``test_fast2node.py`` checks the engine against (the library counts
two-node motifs with ``count_motifs(..., max_nodes=2)``).  The survey's
related-work section covers algorithmic improvements for motif
counting; the seminal one is Paranjape, Benson & Leskovec's
dynamic-programming counter for δ-temporal motifs.  Its two-node special
case is implemented here exactly:

For each unordered node pair, the merged event stream reduces to a
*direction sequence* (0 = lo→hi, 1 = hi→lo).  A sliding window of length
ΔW maintains, for every direction tuple of length < k, the number of
ordered subsequences currently inside the window; when an event enters,
every length-(k−1) count extends to a completed motif whose span is ≤ ΔW
by construction.  The result is exact and runs in
``O(m · 2^k · k)`` per pair instead of enumerating instances.

Ties follow the library-wide total-order convention: same-timestamp
events never share a motif (equal-time groups are inserted atomically).
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from typing import Iterable

from repro.core.temporal_graph import TemporalGraph

DirTuple = tuple[int, ...]


def count_two_node_motifs(
    graph: TemporalGraph,
    n_events: int,
    delta_w: float,
    *,
    pairs: Iterable[tuple[int, int]] | None = None,
) -> Counter:
    """Count all two-node ``n_events``-event motifs within a ΔW window.

    Equivalent to the generic enumeration engine restricted to 2-node
    motifs under ``TimingConstraints.only_w(delta_w)`` (property-tested),
    but runs in near-linear time per node pair.

    Parameters
    ----------
    n_events:
        Motif size (2, 3, or 4 are the paper-relevant values; any ≥ 2
        works).
    delta_w:
        Window bounding first-to-last event of a motif.
    pairs:
        Restrict to specific unordered node pairs; ``None`` counts all.

    Returns
    -------
    Counter keyed by canonical motif code (e.g. ``010101``, ``011010``).
    """
    if n_events < 2:
        raise ValueError("two-node motifs need at least two events")
    if delta_w <= 0:
        raise ValueError("delta_w must be positive")

    streams = _pair_streams(graph, pairs)
    totals: Counter = Counter()
    for (_lo, _hi), stream in streams.items():
        for dirs, count in _count_direction_motifs(stream, n_events, delta_w).items():
            if count:
                totals[_dirs_to_code(dirs)] += count
    return totals


def _pair_streams(
    graph: TemporalGraph, pairs: Iterable[tuple[int, int]] | None
) -> dict[tuple[int, int], list[tuple[float, int]]]:
    """Per unordered pair: time-sorted ``(t, direction)`` streams."""
    wanted = None
    if pairs is not None:
        wanted = {(min(u, v), max(u, v)) for u, v in pairs}
    streams: dict[tuple[int, int], list[tuple[float, int]]] = defaultdict(list)
    # Read through the storage facade: columnar backends stream (u, v, t)
    # straight from their flat columns, list backends unpack event records.
    for u, v, t in graph.storage.iter_uvt():
        lo, hi = (u, v) if u < v else (v, u)
        if wanted is not None and (lo, hi) not in wanted:
            continue
        direction = 0 if u == lo else 1
        streams[(lo, hi)].append((t, direction))
    for stream in streams.values():
        stream.sort()
    return streams


def _count_direction_motifs(
    stream: list[tuple[float, int]], k: int, delta_w: float
) -> Counter:
    """The sliding-window DP over one pair's direction sequence.

    ``counts[l][tuple]`` is the number of ordered l-subsequences with that
    direction tuple currently inside the window (l < k); completed
    k-tuples accumulate in the result.  Equal-timestamp events are
    inserted as one atomic group so they never pair with each other.
    """
    window: deque[tuple[float, int]] = deque()
    counts: list[Counter] = [Counter() for _ in range(k)]  # index l-1 = length l
    completed: Counter = Counter()

    i = 0
    n = len(stream)
    while i < n:
        # the equal-timestamp group [i, j)
        j = i
        t = stream[i][0]
        while j < n and stream[j][0] == t:
            j += 1

        # expire events outside the window of the incoming group
        while window and window[0][0] < t - delta_w:
            _remove_oldest_group(window, counts, k)

        # complete motifs ending at each group member, then insert the whole
        # group against the *pre-group* counts so equal-timestamp events
        # never extend one another
        group_dirs = [d for (_t, d) in stream[i:j]]
        for d in group_dirs:
            for prefix, count in counts[k - 2].items():
                completed[prefix + (d,)] += count
        pre = [Counter(c) for c in counts[: k - 1]]
        for d in group_dirs:
            for length in range(2, k):
                lower = pre[length - 2]
                upper = counts[length - 1]
                for prefix, count in lower.items():
                    upper[prefix + (d,)] += count
            counts[0][(d,)] += 1
            window.append((t, d))
        i = j
    return completed


def _remove_oldest_group(window: deque, counts: list[Counter], k: int) -> None:
    """Remove the leftmost equal-time group and its subsequences.

    Events of a group share a timestamp, so they expire together and —
    because ties never pair — every subsequence starting with a group
    member continues into *strictly later* events only.  Updating lengths
    in increasing order makes ``counts[l−1]`` post-removal exactly when
    length ``l`` needs it.
    """
    t0 = window[0][0]
    group: list[int] = []
    while window and window[0][0] == t0:
        group.append(window.popleft()[1])
    for d in group:
        counts[0][(d,)] -= 1
    for length in range(2, k):
        lower = counts[length - 2]
        upper = counts[length - 1]
        for d in group:
            for suffix, count in list(lower.items()):
                if count:
                    upper[(d,) + suffix] -= count


def _dirs_to_code(dirs: DirTuple) -> str:
    """Canonical code of a two-node direction tuple.

    The first event's source becomes node 0, so direction equality with
    the first event maps to pair ``01`` and inversion to ``10``.
    """
    first = dirs[0]
    return "".join("01" if d == first else "10" for d in dirs)


def two_node_codes(n_events: int) -> tuple[str, ...]:
    """All canonical two-node codes with ``n_events`` events (2^(k−1))."""
    from itertools import product

    codes = {
        _dirs_to_code((0,) + tail)
        for tail in product((0, 1), repeat=n_events - 1)
    }
    return tuple(sorted(codes))
