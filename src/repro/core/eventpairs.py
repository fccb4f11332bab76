"""The event-pair lens (Section 5, "A new lens: Event pairs").

Given two chronologically ordered events that share at least one node,
``(u1, v1, t1)`` and ``(u2, v2, t2)``, the paper defines six pair types:

* **R** — repetition: same edge, ``u1 = u2`` and ``v1 = v2``;
* **P** — ping-pong: second reverses the first, ``u1 = v2`` and ``v1 = u2``;
* **I** — in-burst: same target, different sources;
* **O** — out-burst: same source, different targets;
* **C** — convey: source of the second is the target of the first;
* **W** — weakly-connected: target of the second is the source of the first.

A motif with ``m`` events maps to a sequence of ``m − 1`` event pairs.  The
map is a bijection onto motif codes when the motif has at most three nodes
(6² = 36 three-event, 6³ = 216 four-event motifs); for four-node motifs it
is only a broad description and some consecutive events may share no node
(classified here as ``None`` / disjoint).
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import Iterable, Sequence

from repro.core.notation import canonical_code, parse_code


class PairType(str, Enum):
    """The six-letter alphabet of event pairs."""

    REPETITION = "R"
    PING_PONG = "P"
    IN_BURST = "I"
    OUT_BURST = "O"
    CONVEY = "C"
    WEAKLY_CONNECTED = "W"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @property
    def description(self) -> str:
        """Short textual definition, as in Figure 2 (right)."""
        return _DESCRIPTIONS[self]


_DESCRIPTIONS = {
    PairType.REPETITION: "two events occur on the same edge",
    PairType.PING_PONG: "second event is the reverse of the first",
    PairType.IN_BURST: "two events share the same target",
    PairType.OUT_BURST: "two events share the same source",
    PairType.CONVEY: "source of the second event is the target of the first",
    PairType.WEAKLY_CONNECTED: "target of the second event is the source of the first",
}

#: All six types in the paper's presentation order.
ALL_PAIR_TYPES: tuple[PairType, ...] = (
    PairType.REPETITION,
    PairType.PING_PONG,
    PairType.IN_BURST,
    PairType.OUT_BURST,
    PairType.CONVEY,
    PairType.WEAKLY_CONNECTED,
)

#: The "bursty/local" group and the "transfer" group used in Table 5.
RPIO_GROUP: frozenset[PairType] = frozenset(
    {PairType.REPETITION, PairType.PING_PONG, PairType.IN_BURST, PairType.OUT_BURST}
)
CW_GROUP: frozenset[PairType] = frozenset(
    {PairType.CONVEY, PairType.WEAKLY_CONNECTED}
)


def classify_pair(first: tuple[int, int], second: tuple[int, int]) -> PairType | None:
    """Classify an ordered pair of events given as ``(source, target)`` pairs.

    Returns ``None`` when the two events share no node (possible only inside
    four-or-more-node motifs).  Events must not be self-loops.

    The six cases are mutually exclusive for loop-free events: checking the
    two-node-sharing cases (R, P) first leaves the four one-node-sharing
    cases unambiguous.
    """
    u1, v1 = first
    u2, v2 = second
    if u1 == v1 or u2 == v2:
        raise ValueError("event pairs are undefined for self-loop events")
    if u1 == u2 and v1 == v2:
        return PairType.REPETITION
    if u1 == v2 and v1 == u2:
        return PairType.PING_PONG
    if v1 == v2:
        return PairType.IN_BURST
    if u1 == u2:
        return PairType.OUT_BURST
    if v1 == u2:
        return PairType.CONVEY
    if u1 == v2:
        return PairType.WEAKLY_CONNECTED
    return None


@lru_cache(maxsize=1 << 16)
def pair_sequence_of_code(code: str) -> tuple[PairType | None, ...]:
    """The ``m − 1`` event-pair types of a motif code, in order.

    Entries are ``None`` where consecutive events share no node (only
    possible in ≥4-node motifs).  A pair type depends only on which
    nodes the two events share, so every instance of a code has this
    pair sequence; memoised per code, since census derivations look
    the same few codes up over and over.
    """
    pairs = parse_code(code)
    return tuple(
        classify_pair(pairs[i], pairs[i + 1]) for i in range(len(pairs) - 1)
    )


def code_of_pair_sequence(sequence: Sequence[PairType]) -> str:
    """The unique ≤3-node motif code realizing an event-pair sequence.

    This is the inverse direction of the bijection: every sequence over the
    six-letter alphabet is realized by exactly one motif on at most three
    nodes (new nodes are introduced only when the pair type forces a node
    outside the current event's endpoints).
    """
    events: list[tuple[int, int]] = [(0, 1)]
    nodes: list[int] = [0, 1]
    for ptype in sequence:
        a, b = events[-1]
        if ptype is PairType.REPETITION:
            nxt = (a, b)
        elif ptype is PairType.PING_PONG:
            nxt = (b, a)
        else:
            other = _third_node(nodes, a, b)
            if ptype is PairType.IN_BURST:
                nxt = (other, b)
            elif ptype is PairType.OUT_BURST:
                nxt = (a, other)
            elif ptype is PairType.CONVEY:
                nxt = (b, other)
            elif ptype is PairType.WEAKLY_CONNECTED:
                nxt = (other, a)
            else:  # pragma: no cover - exhaustive over the enum
                raise ValueError(f"unknown pair type {ptype!r}")
            if other == len(nodes):
                nodes.append(other)
        events.append(nxt)
    return canonical_code(events)


def _third_node(nodes: list[int], a: int, b: int) -> int:
    """The unique node outside ``{a, b}`` in a ≤3-node construction.

    With two nodes in play this introduces node 2; with three it returns
    the existing third node, keeping the construction on three nodes.
    """
    if len(nodes) == 2:
        return 2
    for node in nodes:
        if node != a and node != b:
            return node
    raise AssertionError("three-node invariant violated")  # pragma: no cover


def pair_sequence_of_events(events: Iterable) -> tuple[PairType | None, ...]:
    """Event-pair types of a chronologically ordered event sequence.

    Accepts :class:`repro.core.events.Event` records or ``(u, v, t)``
    tuples.
    """
    pairs = [(ev[0], ev[1]) for ev in events]
    return tuple(
        classify_pair(pairs[i], pairs[i + 1]) for i in range(len(pairs) - 1)
    )


def is_exactly_representable(code: str) -> bool:
    """True when the pair sequence determines the motif exactly (≤3 nodes)."""
    return len({d for d in code}) <= 3
