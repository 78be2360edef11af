"""Load-aware coded-read scheduling across the service capacity region.

HyRD's read path (PAPER.md §III-C) always fetches the same k-of-n fragment
subset — systematic fragments first — so one hot or saturated provider
gates every large read.  Aktaş et al. (arXiv:1710.03376) show a coded
store serves strictly more read traffic when requests are split
fractionally across systematic *and* parity fragments according to
per-server load: the set of sustainable arrival-rate vectors (the *service
capacity region*) grows when the scheduler is free to trade a cheap decode
for a shorter queue.

:class:`FragmentScheduler` is that policy, packaged on the same
zero-cost-off contract as the load observatory and the maintenance plane:
``None`` by default on every scheme, attached explicitly via
``scheme.attach_scheduler``, and byte-identical to the static ordering
when detached.  Three decisions per striped read:

- **Subset selection** — every usable placement is scored from
  :class:`~repro.core.resilience.ProviderHealth` (EWMA latency penalty,
  load-curve slope) and the live
  :class:`~repro.obs.attribution.ProviderLoadObservatory` queue estimate
  (Little's-law depth x EWMA service time); parity fragments carry a
  multiplicative decode-cost penalty.  The k cheapest win.
- **Fractional split** — repeated reads of the same hot path rotate across
  every subset whose score is within ``rotation_margin`` of the k-th best,
  spreading load over the capacity region instead of hammering one fixed
  set.  The rotation is a deterministic per-key counter: no RNG, so the
  same health snapshots always produce the same subset sequence.
- **Capacity-aware hedging** — a parity-fragment backup fires *only* when
  the gating (slowest-scored) chosen provider's estimated queue wait
  exceeds the backup's wire-plus-decode cost; an idle fleet never hedges.

The scheduler itself never touches the wire, the clock, or the RNG — it
ranks; the scheme engine executes.  See ``docs/scheduling.md`` for the
scoring formula and the detached==static byte-identity guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["SchedulerConfig", "HedgePlan", "ReadDecision", "FragmentScheduler"]


@dataclass(frozen=True)
class SchedulerConfig:
    """Every scheduling knob in one frozen bundle.

    Parameters
    ----------
    parity_penalty:
        Multiplicative score handicap for parity fragments of a systematic
        codec: picking one forces a real matrix decode where a systematic
        join would do.  1.0 makes parity and data fragments equals (the
        right setting for non-systematic codes; applied automatically when
        ``codec.systematic`` is False).
    rotation_margin:
        Fractional score slack for the split policy: any usable fragment
        scoring within ``(1 + margin)`` of the k-th best joins the rotation
        pool.  0 disables rotation (always the k cheapest).
    queue_weight:
        Weight of the observatory's Little's-law queue wait (depth x EWMA
        service seconds) in the score.
    half_open_penalty:
        Multiplicative handicap for a provider whose breaker is probing
        (half-open) — usable, but not worth betting the critical path on.
    hedge_margin:
        The backup fires only when the gating provider's estimated queue
        wait exceeds ``hedge_margin x`` the backup fragment's
        wire-plus-decode cost.  Higher is more conservative.
    hedge_winnable:
        The backup must also have a fighting chance: its full load-aware
        score may exceed the gating fragment's by at most this factor,
        otherwise the estimates already say the duplicate loses the race
        and the wire time would be pure waste.
    """

    parity_penalty: float = 1.25
    rotation_margin: float = 0.25
    queue_weight: float = 1.0
    half_open_penalty: float = 4.0
    hedge_margin: float = 1.0
    hedge_winnable: float = 1.5

    def __post_init__(self) -> None:
        if self.parity_penalty < 1.0:
            raise ValueError(
                f"parity_penalty must be >= 1, got {self.parity_penalty}"
            )
        if self.rotation_margin < 0.0:
            raise ValueError(
                f"rotation_margin must be >= 0, got {self.rotation_margin}"
            )
        if self.queue_weight < 0.0:
            raise ValueError(f"queue_weight must be >= 0, got {self.queue_weight}")
        if self.half_open_penalty < 1.0:
            raise ValueError(
                f"half_open_penalty must be >= 1, got {self.half_open_penalty}"
            )
        if self.hedge_margin <= 0.0:
            raise ValueError(f"hedge_margin must be > 0, got {self.hedge_margin}")
        if self.hedge_winnable < 1.0:
            raise ValueError(
                f"hedge_winnable must be >= 1, got {self.hedge_winnable}"
            )


@dataclass(frozen=True)
class HedgePlan:
    """One capacity-aware hedge: duplicate the gating fragment's work."""

    #: fragment index the backup request fetches (usually parity)
    backup: int
    #: chosen fragment index whose provider gates the read
    gating: int
    #: estimated queue wait behind the gating provider, seconds
    wait: float
    #: estimated wire + decode cost of the backup fragment, seconds
    cost: float


@dataclass(frozen=True)
class ReadDecision:
    """One scheduled striped read, fully determined by the inputs.

    ``order`` is the complete usable ranking (chosen subset first, then
    fallbacks for top-up); ``scores`` records every candidate's estimated
    seconds for trace events and tests.
    """

    key: str
    chosen: tuple[int, ...]
    order: tuple[int, ...]
    scores: tuple[tuple[int, float], ...] = field(default=())
    parity_picks: int = 0
    rotated: bool = False
    hedge: HedgePlan | None = None


class FragmentScheduler:
    """Scores k-of-n fragment subsets under current load; the engine obeys.

    Bound to one scheme via ``scheme.attach_scheduler`` (which calls
    :meth:`bind`); reads the scheme's latency model, health trackers,
    breakers, and — when one is attached — its load observatory.  Pure
    decision-making: no clock movement, no RNG draws, no wire traffic.
    """

    def __init__(self, config: SchedulerConfig | None = None) -> None:
        self.config = config if config is not None else SchedulerConfig()
        self._scheme = None
        #: deterministic per-key read counters driving the rotation policy
        self._reads: dict[str, int] = {}

    # ------------------------------------------------------------- lifecycle
    def bind(self, scheme) -> None:
        """Called by ``attach_scheduler``; gives the scorer its inputs."""
        self._scheme = scheme

    def unbind(self) -> None:
        """Called by ``detach_scheduler``; decisions stop, counters remain."""
        self._scheme = None

    @property
    def bound(self) -> bool:
        return self._scheme is not None

    def reads_of(self, key: str) -> int:
        """Rotation counter for one key (how many scheduled reads so far)."""
        return self._reads.get(key, 0)

    # --------------------------------------------------------------- scoring
    def queue_wait(self, name: str) -> float:
        """Estimated seconds a new request queues behind ``name``'s backlog.

        Two congestion signals, each zero until its feed has samples:

        - the observatory's Little's-law depth x its EWMA per-request
          service time (``queue_weight``);
        - the health tracker's latency-vs-load curve slope priced at that
          depth — the marginal congestion the curve has actually observed
          at higher concurrency.
        """
        scheme = self._scheme
        obs = scheme.observatory
        if obs is None:
            return 0.0
        depth = obs.queue_depth(name)
        if depth <= 0.0:
            return 0.0
        rate = obs.service_rate(name)
        wait = self.config.queue_weight * (depth / rate if rate > 0.0 else 0.0)
        return wait + scheme.health[name].queue_wait(depth)

    def score_provider(self, name: str, nbytes: int) -> float:
        """Expected seconds to serve ``nbytes`` from ``name`` under load.

        ``wire x health-penalty + queue wait``, with an extra handicap for
        a half-open breaker and ``inf`` for an open one.
        """
        scheme = self._scheme
        cfg = self.config
        est = scheme._estimate_latency(name, nbytes, "down")
        est *= scheme._health_penalty(name)
        breaker = scheme._breakers[name]
        if not breaker.would_allow(scheme.clock.now):
            return math.inf
        if breaker.state == "half_open":
            est *= cfg.half_open_penalty
        return est + self.queue_wait(name)

    def estimate_stripe(self, by_index, size: int, codec) -> float:
        """Gating (max) score of the best k-subset — the stripe-read
        estimate HyRD's hot-copy-vs-stripe choice compares against."""
        frag = codec.fragment_size(size)
        scores = sorted(
            self.score_provider(prov, frag) for prov in by_index.values()
        )
        if len(scores) < codec.k:
            return math.inf
        return scores[codec.k - 1]

    # -------------------------------------------------------------- decision
    def decide(
        self,
        key: str,
        by_index,
        size: int,
        codec,
        usable,
    ) -> ReadDecision:
        """Schedule one striped read of ``key``.

        ``by_index`` maps fragment index -> provider name; ``usable`` is
        the engine's availability/staleness predicate.  Deterministic in
        (health snapshots, observatory state, per-key counter) — same
        inputs, same subset, byte-identical payloads.
        """
        cfg = self.config
        systematic = codec.systematic
        frag = codec.fragment_size(size)
        scores: dict[int, float] = {}
        for idx in sorted(by_index):
            if not usable(idx):
                continue
            s = self.score_provider(by_index[idx], frag)
            if systematic and idx >= codec.k:
                s *= cfg.parity_penalty
            scores[idx] = s
        ranked = sorted(scores, key=lambda i: (scores[i], i))
        count = self._reads.get(key, 0)
        self._reads[key] = count + 1
        k = codec.k
        if len(ranked) < k:
            # Too few usable placements; the engine raises DataUnavailable.
            return ReadDecision(
                key=key,
                chosen=tuple(ranked),
                order=tuple(ranked),
                scores=tuple((i, scores[i]) for i in ranked),
            )

        # Fractional split: rotate across every subset whose members score
        # within the margin of the k-th best.  A saturated provider prices
        # itself out of the pool; the healthy remainder shares the load.
        chosen = list(ranked[:k])
        rotated = False
        kth = scores[ranked[k - 1]]
        if cfg.rotation_margin > 0.0 and math.isfinite(kth):
            pool = [
                i for i in ranked if scores[i] <= kth * (1.0 + cfg.rotation_margin)
            ]
            if len(pool) > k:
                shift = count % len(pool)
                if shift:
                    window = pool[shift:] + pool[:shift]
                    chosen = sorted(window[:k], key=ranked.index)
                    rotated = chosen != list(ranked[:k])

        order = chosen + [i for i in ranked if i not in chosen]
        parity_picks = (
            sum(1 for i in chosen if i >= k) if systematic else 0
        )

        # Capacity-aware hedge: duplicate the gating fragment's work only
        # when (a) the estimated queue wait behind its provider exceeds the
        # backup's raw wire+decode cost — the load made waiting the worse
        # deal — and (b) the backup's *full* load-aware score says the race
        # is winnable.  An idle fleet fails (a); a browned-out backup fails
        # (b); either way no duplicate request fires.
        hedge = None
        if len(order) > k:
            gating = max(chosen, key=lambda i: (scores[i], i))
            wait = self.queue_wait(by_index[gating])
            backup = order[k]
            cost = self._scheme._estimate_latency(by_index[backup], frag, "down")
            if systematic and backup >= k:
                cost *= cfg.parity_penalty
            if (
                math.isfinite(wait)
                and wait > cfg.hedge_margin * cost
                and scores[backup] <= cfg.hedge_winnable * scores[gating]
            ):
                hedge = HedgePlan(
                    backup=backup, gating=gating, wait=wait, cost=cost
                )

        return ReadDecision(
            key=key,
            chosen=tuple(chosen),
            order=tuple(order),
            scores=tuple((i, scores[i]) for i in ranked),
            parity_picks=parity_picks,
            rotated=rotated,
            hedge=hedge,
        )
