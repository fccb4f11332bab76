"""The paper's 2n-digit temporal motif notation (Figure 2, left).

A temporal motif with ``n`` events is written as ``2n`` digits.  Each digit
pair is one event, source digit first; the first pair is always ``01``
(first event goes from node 0 to node 1); subsequent nodes are numbered in
chronological order of first appearance.  For example ``011202`` is the
temporal triangle 0→1, 1→2, 0→2.

Only motifs that *grow as a single component* — every event after the first
shares at least one node with the union of the nodes seen so far — are
considered, matching the paper ("we only consider the motifs that grow as a
single component, by adding one event at a time").

Taxonomy facts reproduced by :func:`all_motif_codes` and used as test
oracles (Section 5, "Motif notation"):

* three-event motifs on ≤3 nodes: 36 (= 6²), of which 4 are 2n3e and 32 3n3e,
* four-event motifs on ≤3 nodes: 216 (= 6³),
* four-event motifs on exactly 4 nodes: 480,
* all four-event motifs on ≤4 nodes: 696.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

#: Maximum nodes representable with single-digit notation.
MAX_NOTATION_NODES = 10

#: The digit of each node label, indexed by label (cheaper than ``str(int)``).
DIGITS = "0123456789"


def canonical_code(node_pairs: Sequence[tuple[int, int]]) -> str:
    """Encode a chronologically ordered event sequence as a motif code.

    ``node_pairs`` holds the ``(source, target)`` node pair of each event in
    chronological order; node identifiers are arbitrary hashables.  Nodes
    are renumbered by order of first appearance, so the first pair always
    becomes ``01``.

    Raises :class:`ValueError` on self-loops or on motifs with more than
    ten nodes (unrepresentable in single-digit notation).
    """
    mapping: dict[int, int] = {}
    digits: list[str] = []
    append = digits.append
    get = mapping.get
    for u, v in node_pairs:
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) has no motif code")
        du = get(u)
        if du is None:
            du = len(mapping)
            if du >= MAX_NOTATION_NODES:
                raise ValueError("motif has too many nodes for digit notation")
            mapping[u] = du
        dv = get(v)
        if dv is None:
            dv = len(mapping)
            if dv >= MAX_NOTATION_NODES:
                raise ValueError("motif has too many nodes for digit notation")
            mapping[v] = dv
        append(DIGITS[du])
        append(DIGITS[dv])
    return "".join(digits)


def parse_code(code: str) -> list[tuple[int, int]]:
    """Decode a motif code into its list of ``(source, target)`` pairs.

    Raises :class:`ValueError` on malformed codes (odd length, non-digits,
    self-loop pairs).
    """
    if not code or len(code) % 2 != 0:
        raise ValueError(f"motif code {code!r} must have even, positive length")
    if not code.isdigit():
        raise ValueError(f"motif code {code!r} must be all digits")
    pairs = [(int(code[i]), int(code[i + 1])) for i in range(0, len(code), 2)]
    for u, v in pairs:
        if u == v:
            raise ValueError(f"motif code {code!r} contains self-loop {u}{v}")
    return pairs


def is_valid_code(code: str) -> bool:
    """True when ``code`` is a well-formed, canonical, single-component code.

    Canonical means nodes are numbered in first-appearance order (so the
    code equals :func:`canonical_code` of its own pairs); single-component
    means every event after the first shares a node with the nodes so far.
    """
    try:
        pairs = parse_code(code)
    except ValueError:
        return False
    if canonical_code(pairs) != code:
        return False
    return is_single_component_growth(pairs)


def is_single_component_growth(node_pairs: Sequence[tuple[int, int]]) -> bool:
    """Check that each event after the first touches an already-seen node."""
    if not node_pairs:
        return False
    seen = {node_pairs[0][0], node_pairs[0][1]}
    for u, v in node_pairs[1:]:
        if u not in seen and v not in seen:
            return False
        seen.add(u)
        seen.add(v)
    return True


def node_count_of_code(code: str) -> int:
    """Number of distinct nodes in a motif code."""
    return len({d for d in code})


def event_count_of_code(code: str) -> int:
    """Number of events in a motif code."""
    return len(code) // 2


def code_edges(code: str) -> set[tuple[int, int]]:
    """Distinct directed static edges used by a motif code."""
    return set(parse_code(code))


def code_nodes(code: str) -> set[int]:
    """Distinct node digits used by a motif code."""
    return {int(d) for d in code}


@lru_cache(maxsize=None)
def all_motif_codes(n_events: int, max_nodes: int | None = None) -> tuple[str, ...]:
    """All canonical single-component motif codes with ``n_events`` events.

    Parameters
    ----------
    n_events:
        Number of events (≥ 1).
    max_nodes:
        Keep only motifs with at most this many nodes.  ``None`` keeps all
        (bounded naturally by ``n_events + 1`` nodes).

    Returns
    -------
    Sorted tuple of codes.  Use :func:`motif_codes_with_nodes` for an
    exact-node-count slice (e.g. the paper's 32 "3n3e" motifs).
    """
    if n_events < 1:
        raise ValueError("a motif needs at least one event")
    cap = n_events + 1 if max_nodes is None else max_nodes
    results: list[str] = []

    def extend(pairs: list[tuple[int, int]], n_used: int) -> None:
        if len(pairs) == n_events:
            results.append("".join(f"{u}{v}" for u, v in pairs))
            return
        # events entirely within already-used nodes
        for u in range(n_used):
            for v in range(n_used):
                if u != v:
                    pairs.append((u, v))
                    extend(pairs, n_used)
                    pairs.pop()
        # events introducing the next new node (single-component growth
        # forbids two new endpoints at once)
        if n_used < cap:
            new = n_used
            for other in range(n_used):
                for pair in ((other, new), (new, other)):
                    pairs.append(pair)
                    extend(pairs, n_used + 1)
                    pairs.pop()

    extend([(0, 1)], 2)
    return tuple(sorted(results))


def motif_codes_with_nodes(n_events: int, n_nodes: int) -> tuple[str, ...]:
    """Canonical codes with exactly ``n_events`` events and ``n_nodes`` nodes.

    ``motif_codes_with_nodes(3, 3)`` yields the paper's 32 3n3e motifs.
    """
    return tuple(
        code
        for code in all_motif_codes(n_events, n_nodes)
        if node_count_of_code(code) == n_nodes
    )


def code_of_events(events: Iterable) -> str:
    """Motif code of a chronologically ordered sequence of events.

    Accepts :class:`repro.core.events.Event` records or ``(u, v, t)``
    tuples; only the node pairs matter.
    """
    return canonical_code([(ev[0], ev[1]) for ev in events])


def describe_code(code: str) -> str:
    """Human-readable one-line description of a motif code."""
    pairs = parse_code(code)
    arrows = ", ".join(f"{u}→{v}" for u, v in pairs)
    return (
        f"{code}: {len(pairs)} events on {node_count_of_code(code)} nodes ({arrows})"
    )
