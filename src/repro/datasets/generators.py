"""Event-driven synthetic temporal network generator (the activity model).

The generator substitutes for the paper's nine real datasets (see DESIGN.md
§3).  It is a discrete-event simulation with two layers:

* a **background layer**: events arrive as a Poisson process over the
  configured timespan; sources are drawn from a Zipf-like activity
  distribution and targets from a Zipf-like popularity distribution, and
* a **reaction layer**: every emitted event probabilistically triggers
  follow-up events after short (exponential) delays.  Each reaction type
  plants one of the paper's six event-pair mechanisms:

  - *reply* → ping-pong pairs (two-way conversations in message networks),
  - *repeat* → repetition pairs (resent messages, repeated calls),
  - *cc* → out-burst pairs (carbon copies; optionally at the **same
    timestamp** as the original, reproducing Email's 50.5 % unique-
    timestamp rate in Table 2),
  - *forward* → convey pairs (information passing on),
  - *in-burst* → in-burst pairs (many answerers to one asker, the
    Q&A-site signature).

Reactions may chain with geometrically decaying probability, which yields
the bursty inter-event distributions (low median Δt against a long tail)
that make the ΔC/ΔW trade-off of Section 5.2 visible.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace

from repro.core._optional import import_numpy

np = import_numpy()

from repro.core.events import Event
from repro.core.temporal_graph import TemporalGraph


@dataclass(frozen=True)
class ActivityConfig:
    """Parameters of the activity model.

    Probabilities are per emitted event; a reaction at chain depth ``d``
    fires with probability ``p * chain_decay**d``.
    """

    n_nodes: int
    n_events: int
    timespan: float
    p_reply: float = 0.0
    p_repeat: float = 0.0
    p_cc: float = 0.0
    p_forward: float = 0.0
    p_in_burst: float = 0.0
    cc_max: int = 2
    in_burst_max: int = 2
    cc_same_timestamp: bool = False
    reaction_mean: float = 120.0
    #: probability that a reply/repeat echo is *delayed* — drawn with a mean
    #: ``long_delay_factor`` times larger.  Delayed echoes create the
    #: delayed-repetition motifs (010201) whose suppression by constrained
    #: dynamic graphlets Table 4 measures, and the far-apart R/P pairs that
    #: only-ΔW configurations amplify (Table 5).
    p_delayed_echo: float = 0.0
    long_delay_factor: float = 30.0
    #: conveys (forwards) are promptly causal: their delay mean is scaled by
    #: this factor (< 1 keeps C pairs alive under tight ΔC, the Table 5
    #: asymmetry).
    convey_delay_factor: float = 1.0
    #: probability that a forward returns to the chain's *origin* node,
    #: closing a convey triangle (a→b, b→c, c→a) — the triadic-closure
    #: mechanism behind the pure C,W motifs of Table 5 and the temporal
    #: cycles of the fraud example.
    p_return: float = 0.25
    chain_decay: float = 0.5
    max_chain_depth: int = 3
    activity_exponent: float = 0.9
    popularity_exponent: float = 0.9
    allow_repeated_edges: bool = True
    time_resolution: float = 1.0

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ValueError("need at least two nodes")
        if self.n_events < 1:
            raise ValueError("need at least one event")
        if self.timespan <= 0:
            raise ValueError("timespan must be positive")
        for name in ("p_reply", "p_repeat", "p_cc", "p_forward", "p_in_burst"):
            p = getattr(self, name)
            if not 0 <= p <= 1:
                raise ValueError(f"{name} must be a probability, got {p}")
        if self.reaction_mean <= 0:
            raise ValueError("reaction_mean must be positive")
        if not 0 <= self.p_delayed_echo <= 1:
            raise ValueError("p_delayed_echo must be a probability")
        if self.long_delay_factor < 1:
            raise ValueError("long_delay_factor must be >= 1")
        if self.convey_delay_factor <= 0:
            raise ValueError("convey_delay_factor must be positive")
        if not 0 <= self.p_return <= 1:
            raise ValueError("p_return must be a probability")
        if not 0 <= self.chain_decay <= 1:
            raise ValueError("chain_decay must be in [0, 1]")
        if self.time_resolution <= 0:
            raise ValueError("time_resolution must be positive")

    def scaled(self, scale: float) -> "ActivityConfig":
        """A copy with node and event counts scaled (≥ minimum sizes).

        The timespan is left unchanged so event density — and therefore
        motif counts per window — grows with scale, as it does when moving
        from a subsample to a full dataset.
        """
        if scale <= 0:
            raise ValueError("scale must be positive")
        return replace(
            self,
            n_nodes=max(2, int(round(self.n_nodes * scale))),
            n_events=max(1, int(round(self.n_events * scale))),
        )


@dataclass(order=True)
class _Scheduled:
    """Heap entry: a pending event with its reaction chain depth and origin."""

    t: float
    seq: int
    u: int = field(compare=False)
    v: int = field(compare=False)
    depth: int = field(compare=False)
    origin: int = field(compare=False)


class ActivityModel:
    """The simulator.  Use :func:`generate` for the one-call path."""

    def __init__(self, config: ActivityConfig, seed: int | None = None) -> None:
        self.config = config
        self.rng = np.random.default_rng(seed)
        self._seq = 0
        ranks = np.arange(1, config.n_nodes + 1, dtype=float)
        activity = ranks ** (-config.activity_exponent)
        popularity = ranks ** (-config.popularity_exponent)
        # Shuffle so activity and popularity ranks are not the same nodes.
        self.rng.shuffle(popularity)
        self._activity_cdf = np.cumsum(activity / activity.sum())
        self._popularity_cdf = np.cumsum(popularity / popularity.sum())

    # ------------------------------------------------------------------
    # sampling helpers
    # ------------------------------------------------------------------
    def _sample_active_node(self) -> int:
        return int(np.searchsorted(self._activity_cdf, self.rng.random()))

    def _sample_popular_node(self, exclude: tuple[int, ...] = ()) -> int:
        for _ in range(16):
            node = int(np.searchsorted(self._popularity_cdf, self.rng.random()))
            if node not in exclude:
                return node
        # Dense exclusion fallback: uniform over the complement.
        pool = [n for n in range(self.config.n_nodes) if n not in exclude]
        return int(self.rng.choice(pool))

    def _snap(self, t: float) -> float:
        res = self.config.time_resolution
        return max(0.0, (t // res) * res)

    def _delay(self) -> float:
        return float(self.rng.exponential(self.config.reaction_mean))

    def _echo_delay(self) -> float:
        """Delay of a reply/repeat: occasionally heavy-tailed."""
        mean = self.config.reaction_mean
        if self.rng.random() < self.config.p_delayed_echo:
            mean *= self.config.long_delay_factor
        return float(self.rng.exponential(mean))

    def _convey_delay(self) -> float:
        """Delay of a forward: promptly causal."""
        return float(
            self.rng.exponential(self.config.reaction_mean * self.config.convey_delay_factor)
        )

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------
    def run(self, *, name: str = "") -> TemporalGraph:
        """Simulate until ``n_events`` events are emitted; return the graph."""
        cfg = self.config
        rate = cfg.n_events / cfg.timespan
        heap: list[_Scheduled] = []
        next_background = float(self.rng.exponential(1.0 / rate))
        emitted: list[Event] = []
        used_edges: set[tuple[int, int]] = set()

        while len(emitted) < cfg.n_events:
            if heap and heap[0].t <= next_background:
                item = heapq.heappop(heap)
                self._emit(
                    item.u,
                    item.v,
                    item.t,
                    item.depth,
                    item.origin,
                    heap,
                    emitted,
                    used_edges,
                )
            else:
                t = next_background
                next_background += float(self.rng.exponential(1.0 / rate))
                u = self._sample_active_node()
                v = self._sample_popular_node(exclude=(u,))
                self._emit(u, v, t, 0, u, heap, emitted, used_edges)
        return TemporalGraph(emitted[: cfg.n_events], name=name)

    def _emit(
        self,
        u: int,
        v: int,
        t: float,
        depth: int,
        origin: int,
        heap: list[_Scheduled],
        emitted: list[Event],
        used_edges: set[tuple[int, int]],
    ) -> None:
        cfg = self.config
        t = self._snap(t)
        edge = (u, v)
        if not cfg.allow_repeated_edges:
            if edge in used_edges:
                return
            used_edges.add(edge)
        emitted.append(Event(u, v, t))
        if depth >= cfg.max_chain_depth:
            return
        scale = cfg.chain_decay ** depth
        rng = self.rng

        if rng.random() < cfg.p_reply * scale:
            self._schedule(heap, v, u, t + self._echo_delay(), depth + 1, origin)
        if rng.random() < cfg.p_repeat * scale:
            self._schedule(heap, u, v, t + self._echo_delay(), depth + 1, origin)
        if rng.random() < cfg.p_cc * scale:
            n_cc = int(rng.integers(1, cfg.cc_max + 1))
            for _ in range(n_cc):
                w = self._sample_popular_node(exclude=(u, v))
                cc_t = t if cfg.cc_same_timestamp else t + self._delay()
                self._schedule(heap, u, w, cc_t, depth + 1, origin)
        if rng.random() < cfg.p_forward * scale:
            # A forward may close the loop back to the chain's origin
            # (triadic closure / information returning to its source).
            if origin not in (u, v) and rng.random() < cfg.p_return:
                w = origin
            else:
                w = self._sample_popular_node(exclude=(u, v))
            self._schedule(heap, v, w, t + self._convey_delay(), depth + 1, origin)
        if rng.random() < cfg.p_in_burst * scale:
            n_in = int(rng.integers(1, cfg.in_burst_max + 1))
            for _ in range(n_in):
                w = self._sample_popular_node(exclude=(u, v))
                self._schedule(heap, w, v, t + self._delay(), depth + 1, origin)

    def _schedule(
        self,
        heap: list[_Scheduled],
        u: int,
        v: int,
        t: float,
        depth: int,
        origin: int,
    ) -> None:
        if u == v:
            return
        self._seq += 1
        heapq.heappush(
            heap, _Scheduled(t=t, seq=self._seq, u=u, v=v, depth=depth, origin=origin)
        )


def generate(config: ActivityConfig, seed: int | None = None, *, name: str = "") -> TemporalGraph:
    """Run the activity model once and return the resulting temporal graph."""
    return ActivityModel(config, seed=seed).run(name=name)
