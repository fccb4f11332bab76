"""Seeded input generation for the benchmark workloads.

The generator is the benchmark's own, independent of the library's
dataset generators, so a change to the program never changes the
inputs it is measured on.  It is the same kind of model as the
library's activity model, with the shape constants of the
``sms-copenhagen`` analogue of the paper's Table 2 copied below (text
messages of the Copenhagen Networks Study: 568 nodes, 24.3k events over
four weeks, 97.6% unique timestamps, median inter-event time 32 s):

* background contacts arrive as a Poisson process at the dataset's
  event density, from a Zipf-weighted sender to a Zipf-weighted
  receiver;
* which senders are also popular receivers is drawn once, not per seed:
  it sets the motif density of the whole stream (seeds drawing it
  afresh differ by 6% in instances at any length), so every seed is
  the same population, and the seed moves who talks to whom and when;
* every contact may trigger reactions after exponential delays, each
  with the given probability, halved at every step down a chain of at
  most three: a reply goes back, a repeat goes again (both sometimes
  with a much longer delay), a carbon copy goes from the sender to one
  or two new receivers, a forward passes on to a new node or back to
  the chain's origin.

Timestamps are whole seconds, so ties occur as in the real log.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import random

WEEK = 7 * 86_400.0

#: Shape constants of the sms-copenhagen analogue (9,000 events over
#: 1.5 weeks, the full dataset's event density).
N_NODES = 550
EVENT_RATE = 9_000 / (1.5 * WEEK)
P_REPLY = 0.55
P_REPEAT = 0.35
P_CC = 0.10
CC_MAX = 2
P_FORWARD = 0.12
P_RETURN = 0.25
REACTION_MEAN = 60.0
P_DELAYED_ECHO = 0.5
LONG_DELAY_FACTOR = 40.0
CONVEY_DELAY_FACTOR = 0.1
CHAIN_DECAY = 0.5
MAX_CHAIN_DEPTH = 3
ZIPF_EXPONENT = 0.9
POPULATION_SEED = 0


def activity_stream(seed: int, n_events: int) -> list[tuple[int, int, float]]:
    """``n_events`` time-ordered ``(u, v, t)`` contacts from one seed."""
    rng = random.Random(seed)
    weights = [rank**-ZIPF_EXPONENT for rank in range(1, N_NODES + 1)]
    senders = list(itertools.accumulate(weights))
    popularity = weights[:]
    random.Random(POPULATION_SEED).shuffle(popularity)
    receivers = list(itertools.accumulate(popularity))

    def draw(cdf: list[float], avoid: tuple[int, ...] = ()) -> int:
        while True:
            node = bisect.bisect_left(cdf, rng.random() * cdf[-1])
            if node not in avoid:
                return node

    def echo_delay() -> float:
        mean = REACTION_MEAN
        if rng.random() < P_DELAYED_ECHO:
            mean *= LONG_DELAY_FACTOR
        return rng.expovariate(1.0 / mean)

    out: list[tuple[int, int, float]] = []
    pending: list[tuple[float, int, int, int, int, int]] = []
    seq = itertools.count()

    def react(u: int, v: int, t: float, depth: int, origin: int) -> None:
        if depth >= MAX_CHAIN_DEPTH:
            return
        scale = CHAIN_DECAY**depth
        after: list[tuple[int, int, float]] = []
        if rng.random() < P_REPLY * scale:
            after.append((v, u, t + echo_delay()))
        if rng.random() < P_REPEAT * scale:
            after.append((u, v, t + echo_delay()))
        if rng.random() < P_CC * scale:
            for _ in range(rng.randint(1, CC_MAX)):
                after.append((u, draw(receivers, (u, v)), t + rng.expovariate(1.0 / REACTION_MEAN)))
        if rng.random() < P_FORWARD * scale:
            if origin not in (u, v) and rng.random() < P_RETURN:
                w = origin
            else:
                w = draw(receivers, (u, v))
            delay = rng.expovariate(1.0 / (REACTION_MEAN * CONVEY_DELAY_FACTOR))
            after.append((v, w, t + delay))
        for a, b, t_next in after:
            heapq.heappush(pending, (t_next, next(seq), a, b, depth + 1, origin))

    def emit(u: int, v: int, t: float, depth: int, origin: int) -> None:
        t = float(int(t))
        out.append((u, v, t))
        react(u, v, t, depth, origin)

    t_next = rng.expovariate(EVENT_RATE)
    while len(out) < n_events:
        if pending and pending[0][0] <= t_next:
            t, _, u, v, depth, origin = heapq.heappop(pending)
            emit(u, v, t, depth, origin)
        else:
            u = draw(senders)
            emit(u, draw(receivers, (u,)), t_next, 0, u)
            t_next += rng.expovariate(EVENT_RATE)
    return out
