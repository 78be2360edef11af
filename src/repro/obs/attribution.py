"""Critical-path latency attribution and the per-provider load observatory.

Two halves, one module:

**Offline — critical-path attribution.**  :func:`attribute_trace` walks each
operation's span tree (root ``op.*`` spans from :mod:`repro.obs.trace`) and
partitions the op's wall-clock window into a fixed phase taxonomy
(:data:`PHASES`): dispatcher queueing, codec CPU, per-provider transfer,
retry/backoff sleep, hedge wait, and maintenance interference, with an
``other`` bucket for residual client-side serialization.  The partition is a
*timeline sweep*: every child span becomes a classified interval clipped to
the op window; the window is cut at every interval boundary and each
elementary segment is attributed to the highest-priority class covering it
(uncovered segments before the first cloud interval are ``queueing``, later
ones ``other``).  Because the segments tile the window by construction, the
phase durations sum to the op duration exactly — the analyzer machine-checks
the residual against float tolerance and raises :class:`CoverageError` on
any real gap.  Hedge legs that lost their race are classified ``hedge_wait``
(matched via ``hedge.fired`` / ``hedge.win`` events), and the cancelled wire
time that never advanced the clock is accounted *off-path* per provider from
``hedge.wasted`` events.

**Online — the load observatory.**  :class:`ProviderLoadObservatory` attaches
to a scheme (:meth:`repro.schemes.base.Scheme.attach_observatory`) and is fed
one call per executed phase.  Per provider it publishes an in-flight gauge,
a Little's-law queue-depth estimate (EWMA arrival rate x EWMA service time),
an EWMA service rate, and cumulative busy seconds (``provider_load_*``
gauges), maintains an empirical latency-vs-load curve which it pushes into
that provider's :class:`~repro.core.resilience.ProviderHealth`
(``load_curve`` — the signal ROADMAP's load-aware read scheduling consumes),
and links histogram-bucket exemplars: for each (op kind, latency bucket) it
retains the trace IDs of the first few representative operations.  Like the
tracer and the SLO tracker it is pure bookkeeping — no clock movement, no
RNG draws — so attaching it cannot change a run's simulated timings
(machine-checked in ``benchmarks/test_attribution_plane.py``).

``repro explain`` renders :func:`render_attribution` over a saved trace or a
live fault-storm run.  See ``docs/attribution.md`` for the prose guide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.metrics.registry import DEFAULT_LATENCY_BUCKETS, HeldInstruments
from repro.obs.report import render_table
from repro.obs.trace import format_jsonl, parse_jsonl

__all__ = [
    "PHASES",
    "CoverageError",
    "OpAttribution",
    "AttributionReport",
    "attribute_trace",
    "render_attribution",
    "ExemplarStore",
    "ProviderLoadObservatory",
    "attributions_to_jsonl",
    "parse_attribution_jsonl",
    "read_attribution_jsonl",
]

#: The fixed phase taxonomy, in render order.  Every microsecond of an op's
#: wall-clock lands in exactly one of these.
PHASES = (
    "queueing",       # client-side dispatch/placement before the first cloud interval
    "codec_cpu",      # codec.encode / codec.decode spans (zero sim-seconds: client CPU)
    "transfer",       # covered by provider request spans on the surviving path
    "retry_backoff",  # backoff sleeps serialized into a request's retry chain
    "hedge_wait",     # covered only by a hedge leg that lost its race
    "maintenance",    # heal.replay consistency updates riding inside the op
    "other",          # residual client-side serialization between cloud intervals
)

#: Sweep priority: when intervals overlap, the higher class owns the segment.
#: Maintenance wraps the requests it replays; backoff sleeps nest inside their
#: request's penalty chain; a winning request overrides the losing hedge leg.
_PRIORITY = {
    "maintenance": 5,
    "retry_backoff": 4,
    "codec_cpu": 3,
    "transfer": 2,
    "hedge_wait": 1,
}

#: |phase-sum - duration| above ``tol * max(1, duration)`` is a real gap, not
#: float noise, and fails the analyzer.
COVERAGE_TOLERANCE = 1e-9


class CoverageError(ValueError):
    """The phase partition failed to tile an op's wall-clock window."""


# --------------------------------------------------------------------- records
@dataclass(frozen=True)
class OpAttribution:
    """One operation's wall-clock, decomposed.

    ``phases`` maps every name in :data:`PHASES` to attributed seconds (the
    values tile ``[start, start + duration]``); ``providers`` splits the
    ``transfer`` phase by the provider owning each critical segment;
    ``hedge_wasted`` is *off-path* — cancelled hedge-leg wire seconds per
    provider that never advanced the clock and are therefore not part of the
    coverage partition.  ``trace_id`` is the root span's id, the link an
    exemplar or slow-op digest follows back into the trace file.
    """

    trace_id: int
    op: str
    path: str
    start: float
    duration: float
    phases: dict[str, float]
    providers: dict[str, float]
    requests: int
    retries: int
    fast_fails: int
    hedged: bool
    degraded: bool
    hedge_wasted: dict[str, float]
    coverage_error: float

    @property
    def hedge_wasted_total(self) -> float:
        return math.fsum(self.hedge_wasted.values())

    def dominant_phase(self) -> str:
        """The phase owning the most time (ties resolve in PHASES order)."""
        return max(PHASES, key=lambda p: (self.phases.get(p, 0.0), -PHASES.index(p)))

    def to_record(self) -> dict[str, Any]:
        return {
            "t": "op_attribution",
            "trace_id": self.trace_id,
            "op": self.op,
            "path": self.path,
            "start": self.start,
            "duration": self.duration,
            "phases": dict(self.phases),
            "providers": dict(self.providers),
            "requests": self.requests,
            "retries": self.retries,
            "fast_fails": self.fast_fails,
            "hedged": self.hedged,
            "degraded": self.degraded,
            "hedge_wasted": dict(self.hedge_wasted),
            "coverage_error": self.coverage_error,
        }

    @classmethod
    def from_record(cls, r: dict[str, Any]) -> "OpAttribution":
        return cls(
            trace_id=r["trace_id"],
            op=r["op"],
            path=r["path"],
            start=r["start"],
            duration=r["duration"],
            phases=dict(r["phases"]),
            providers=dict(r["providers"]),
            requests=r["requests"],
            retries=r["retries"],
            fast_fails=r["fast_fails"],
            hedged=r["hedged"],
            degraded=r["degraded"],
            hedge_wasted=dict(r["hedge_wasted"]),
            coverage_error=r["coverage_error"],
        )


def attributions_to_jsonl(ops: Iterable[OpAttribution]) -> str:
    """Attribution records as JSON-lines, in the trace's canonical form
    (:func:`~repro.obs.trace.format_jsonl`): parse -> re-dump is
    byte-identical — the property the test suite holds."""
    return format_jsonl(o.to_record() for o in ops)


def parse_attribution_jsonl(lines: Iterable[str]) -> list[OpAttribution]:
    """Inverse of :func:`attributions_to_jsonl`; blank lines are skipped."""
    out = []
    for r in parse_jsonl(lines):
        if r.get("t") != "op_attribution":
            raise ValueError(f"not an attribution record: {r.get('t')!r}")
        out.append(OpAttribution.from_record(r))
    return out


def read_attribution_jsonl(path) -> list[OpAttribution]:
    with open(path, "r", encoding="utf-8") as fp:
        return parse_attribution_jsonl(fp)


# -------------------------------------------------------------------- analyzer
def _classify(span: dict[str, Any], loser_ids: set[int]) -> str | None:
    """The sweep class of one descendant span, or None for unclassified."""
    name = span["name"]
    if name == "heal.replay":
        return "maintenance"
    if name == "retry.wait":
        return "retry_backoff"
    if name.startswith("codec."):
        return "codec_cpu"
    if name == "request":
        return "hedge_wait" if span["id"] in loser_ids else "transfer"
    return None


def _hedge_losers(
    events: list[tuple[int, dict[str, Any]]],
    requests: list[tuple[int, dict[str, Any]]],
) -> set[int]:
    """Span ids of hedge legs that lost their race, inside one op.

    ``events`` / ``requests`` carry original record indices, so the pairing
    follows emission order: the primary leg's request span is recorded
    *before* its ``hedge.fired`` event, the backup leg's after it.  A
    ``hedge.win`` before the next ``hedge.fired`` means the backup won (the
    primary leg lost); no win means the primary won or both legs failed —
    either way the backup leg is the one whose wire time was never waited
    on.
    """
    losers: set[int] = set()
    fired = [(i, e) for i, e in events if e["name"] == "hedge.fired"]
    wins = [i for i, e in events if e["name"] == "hedge.win"]
    for n, (fi, ev) in enumerate(fired):
        next_fi = fired[n + 1][0] if n + 1 < len(fired) else None
        won = any(fi < wi and (next_fi is None or wi < next_fi) for wi in wins)
        loser_name = ev["attrs"]["primary"] if won else ev["attrs"]["backup"]
        if won:
            # Primary leg: the last matching request recorded before the event.
            leg = next(
                (s for i, s in reversed(requests)
                 if i < fi and s["attrs"].get("provider") == loser_name),
                None,
            )
        else:
            # Backup leg: the first matching request recorded after the event.
            leg = next(
                (s for i, s in requests
                 if i > fi and s["attrs"].get("provider") == loser_name),
                None,
            )
        if leg is not None:
            losers.add(leg["id"])
    return losers


def _attribute_root(
    root: dict[str, Any],
    descendants: list[dict[str, Any]],
    events: list[tuple[int, dict[str, Any]]],
) -> OpAttribution:
    r0, r1 = root["start"], root["end"]
    duration = r1 - r0
    attrs = root["attrs"]

    requests = [
        (i, s) for i, s in ((s.get("_idx", 0), s) for s in descendants)
        if s["name"] == "request"
    ]
    loser_ids = _hedge_losers(events, requests)

    # Classified intervals, clipped to the op window.
    ivs: list[tuple[float, float, str, str | None]] = []
    n_requests = n_retries = n_fast_fails = 0
    for s in descendants:
        name = s["name"]
        if name == "request":
            n_requests += 1
        elif name == "retry.wait":
            n_retries += 1
        elif name == "breaker.fast_fail":
            n_fast_fails += 1
        cls = _classify(s, loser_ids)
        if cls is None:
            continue
        a, b = max(s["start"], r0), min(s["end"], r1)
        if b <= a:
            continue
        ivs.append((a, b, cls, s["attrs"].get("provider")))

    bounds = sorted({r0, r1, *(a for a, _, _, _ in ivs), *(b for _, b, _, _ in ivs)})
    first_cover = min((a for a, _, _, _ in ivs), default=r1)

    phases = {p: 0.0 for p in PHASES}
    providers: dict[str, float] = {}
    for x, y in zip(bounds, bounds[1:]):
        if y <= r0 or x >= r1:
            continue  # pragma: no cover - bounds are pre-clipped
        covering = [iv for iv in ivs if iv[0] <= x and iv[1] >= y]
        if not covering:
            cls = "queueing" if y <= first_cover else "other"
            phases[cls] += y - x
            continue
        top = max(_PRIORITY[c] for _, _, c, _ in covering)
        cls = next(c for c in _PRIORITY if _PRIORITY[c] == top)
        phases[cls] += y - x
        if cls == "transfer":
            # The critical request in this segment is the latest-finishing
            # one (ties break on provider name, for determinism).
            _, _, _, prov = max(
                (iv for iv in covering if iv[2] == "transfer"),
                key=lambda iv: (iv[1], iv[3] or ""),
            )
            if prov is not None:
                providers[prov] = providers.get(prov, 0.0) + (y - x)

    residual = duration - math.fsum(phases.values())
    if abs(residual) > COVERAGE_TOLERANCE * max(1.0, duration):
        raise CoverageError(
            f"phase partition of {attrs.get('op')}:{attrs.get('path')} "
            f"(trace id {root['id']}) misses {residual:.3e}s of a "
            f"{duration:.6f}s window"
        )

    wasted: dict[str, float] = {}
    for _, e in events:
        if e["name"] == "hedge.wasted":
            p = e["attrs"]["provider"]
            wasted[p] = wasted.get(p, 0.0) + e["attrs"]["wasted"]

    return OpAttribution(
        trace_id=root["id"],
        op=attrs.get("op", root["name"].removeprefix("op.")),
        path=attrs.get("path", "?"),
        start=r0,
        duration=duration,
        phases=phases,
        providers=providers,
        requests=n_requests,
        retries=n_retries,
        fast_fails=n_fast_fails,
        hedged=bool(attrs.get("hedged", False)),
        degraded=bool(attrs.get("degraded", False)),
        hedge_wasted=wasted,
        coverage_error=residual,
    )


@dataclass
class AttributionReport:
    """Every op's attribution plus trace-level aggregates."""

    ops: list[OpAttribution]
    #: provider -> {"requests", "busy_s", "critical_s", "wasted_s"} — raw
    #: request-span load (busy wire seconds, hedge legs included) next to the
    #: critical-path share that actually gated op completion.
    provider_stats: dict[str, dict[str, float]] = field(default_factory=dict)

    def total_duration(self) -> float:
        return math.fsum(o.duration for o in self.ops)

    def totals(self) -> dict[str, float]:
        """Attributed seconds per phase, summed over every op."""
        return {
            p: math.fsum(o.phases.get(p, 0.0) for o in self.ops) for p in PHASES
        }

    def shares(self) -> dict[str, float]:
        """Phase fractions of total attributed op time (0 when no ops ran)."""
        total = self.total_duration()
        if total <= 0.0:
            return {p: 0.0 for p in PHASES}
        return {p: s / total for p, s in self.totals().items()}

    def by_op(self) -> dict[str, dict[str, Any]]:
        """Per op kind: count, total seconds, and the phase split."""
        out: dict[str, dict[str, Any]] = {}
        for o in self.ops:
            cell = out.setdefault(
                o.op,
                {"count": 0, "seconds": 0.0, "phases": {p: 0.0 for p in PHASES}},
            )
            cell["count"] += 1
            cell["seconds"] += o.duration
            for p in PHASES:
                cell["phases"][p] += o.phases.get(p, 0.0)
        return out

    def hedge_wasted_totals(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for o in self.ops:
            for p, w in o.hedge_wasted.items():
                out[p] = out.get(p, 0.0) + w
        return out

    def top_slow(self, k: int = 5) -> list[OpAttribution]:
        """The k slowest ops (ties break on trace id, for determinism)."""
        return sorted(self.ops, key=lambda o: (-o.duration, o.trace_id))[:k]


def attribute_trace(records: Iterable[dict[str, Any]]) -> AttributionReport:
    """Attribute every completed op in a trace (live records or parsed JSONL).

    Meta/registry records pass through untouched; ``op.error`` roots (aborted
    operations) are skipped — their window has no completion to attribute.
    Raises :class:`CoverageError` if any op's partition fails to tile its
    window, and ``ValueError`` on spans that end before they start.
    """
    spans: list[dict[str, Any]] = []
    events: list[tuple[int, dict[str, Any]]] = []
    for idx, r in enumerate(records):
        t = r.get("t")
        if t == "span":
            if r["end"] < r["start"]:
                raise ValueError(
                    f"span {r['id']} ({r['name']!r}) ends before it starts"
                )
            s = dict(r)
            s["_idx"] = idx
            spans.append(s)
        elif t == "event":
            events.append((idx, r))

    by_id = {s["id"]: s for s in spans}

    def root_of(s: dict[str, Any]) -> int | None:
        seen = set()
        while s["parent"] is not None:
            if s["id"] in seen:  # pragma: no cover - corrupted trace
                return None
            seen.add(s["id"])
            parent = by_id.get(s["parent"])
            if parent is None:
                return None
            s = parent
        return s["id"]

    roots = [
        s
        for s in spans
        if s["parent"] is None
        and s["name"].startswith("op.")
        and s["name"] != "op.error"
    ]
    descendants: dict[int, list[dict[str, Any]]] = {s["id"]: [] for s in roots}
    for s in spans:
        if s["parent"] is None:
            continue
        rid = root_of(s)
        if rid in descendants:
            descendants[rid].append(s)

    # An event belongs to the op whose root its recorded enclosing span
    # (``span``) walks up to; time alone is ambiguous when two ops share a
    # boundary instant.
    root_events: dict[int, list[tuple[int, dict[str, Any]]]] = {
        s["id"]: [] for s in roots
    }
    for idx, e in events:
        sid = e.get("span")
        rid = root_of(by_id[sid]) if sid in by_id else None
        if rid in root_events:
            root_events[rid].append((idx, e))

    ops = [
        _attribute_root(s, descendants[s["id"]], root_events[s["id"]])
        for s in sorted(roots, key=lambda s: s["_idx"])
    ]

    stats: dict[str, dict[str, float]] = {}
    for rid, kids in descendants.items():
        r0, r1 = by_id[rid]["start"], by_id[rid]["end"]
        for s in kids:
            if s["name"] != "request":
                continue
            p = s["attrs"].get("provider", "?")
            cell = stats.setdefault(
                p, {"requests": 0, "busy_s": 0.0, "critical_s": 0.0, "wasted_s": 0.0}
            )
            cell["requests"] += 1
            cell["busy_s"] += max(min(s["end"], r1) - max(s["start"], r0), 0.0)
    for o in ops:
        for p, secs in o.providers.items():
            cell = stats.setdefault(
                p, {"requests": 0, "busy_s": 0.0, "critical_s": 0.0, "wasted_s": 0.0}
            )
            cell["critical_s"] += secs
        for p, w in o.hedge_wasted.items():
            cell = stats.setdefault(
                p, {"requests": 0, "busy_s": 0.0, "critical_s": 0.0, "wasted_s": 0.0}
            )
            cell["wasted_s"] += w
    return AttributionReport(ops=ops, provider_stats=stats)


# -------------------------------------------------------------------- exemplars
#: trace IDs an :class:`ExemplarStore` keeps per (op kind, latency bucket)
EXEMPLARS_PER_BUCKET = 2


class ExemplarStore:
    """Trace-ID exemplars per (op kind, latency-histogram bucket).

    Mirrors the ``op_latency_seconds`` histogram's fixed bucket bounds: for
    each bucket an op latency falls into, the store retains the first
    :data:`EXEMPLARS_PER_BUCKET` trace IDs — deterministic representatives a debugging
    session can pull out of the trace file (``repro explain`` links them in
    the slow-op digest).
    """

    def __init__(self) -> None:
        self.bounds = DEFAULT_LATENCY_BUCKETS
        self._cells: dict[tuple[str, str], list[tuple[int | None, float]]] = {}

    def bucket_label(self, latency: float) -> str:
        for bound in self.bounds:
            if latency <= bound:
                return f"le={bound:g}"
        return "le=+inf"

    def record(self, op: str, latency: float, trace_id: int | None) -> bool:
        """Offer one op as an exemplar; True when it was retained."""
        key = (op, self.bucket_label(latency))
        cell = self._cells.setdefault(key, [])
        if len(cell) >= EXEMPLARS_PER_BUCKET:
            return False
        cell.append((trace_id, latency))
        return True

    def exemplars(self) -> dict[str, dict[str, list[tuple[int | None, float]]]]:
        """op kind -> bucket label -> retained (trace_id, latency) pairs."""
        out: dict[str, dict[str, list[tuple[int | None, float]]]] = {}
        for (op, bucket), cell in sorted(self._cells.items()):
            out.setdefault(op, {})[bucket] = list(cell)
        return out

    def lookup(self, op: str, latency: float) -> list[int]:
        """Trace IDs representative of ``latency``'s bucket for ``op``."""
        cell = self._cells.get((op, self.bucket_label(latency)), [])
        return [tid for tid, _ in cell if tid is not None]


# ------------------------------------------------------------- load observatory
#: EWMA smoothing of the observatory's service time, interarrival gap and
#: latency-vs-load curve
LOAD_ALPHA = 0.2


class _LoadStats:
    """Mutable per-provider load state inside the observatory."""

    __slots__ = (
        "requests", "busy", "peak", "last_arrival",
        "service", "interarrival", "curve",
    )

    def __init__(self) -> None:
        self.requests = 0
        self.busy = 0.0
        self.peak = 0
        self.last_arrival: float | None = None
        self.service: float | None = None        # EWMA per-request seconds
        self.interarrival: float | None = None   # EWMA seconds between arrivals
        self.curve: dict[int, tuple[int, float]] = {}  # level -> (n, ewma lat)


class ProviderLoadObservatory:
    """Per-provider load sensing, fed one call per executed phase.

    Publishes, per provider (all under ``provider_load_*``):

    - ``inflight`` — concurrent requests in the most recent phase touching
      the provider (the sim executes whole phases, so this is the
      instantaneous parallelism the provider actually saw);
    - ``queue_depth`` — Little's-law estimate: EWMA arrival rate x EWMA
      service time;
    - ``service_rate`` — 1 / EWMA service time, requests per second;
    - ``busy_seconds`` — cumulative request wire seconds observed.

    It also maintains an empirical latency-vs-load curve (EWMA of mean
    request latency at each observed concurrency level) and pushes it into
    the provider's :class:`~repro.core.resilience.ProviderHealth` via
    ``note_load_curve`` — passive telemetry today, the input ROADMAP's
    load-aware coded-read scheduling will consume.  Attach via
    :meth:`repro.schemes.base.Scheme.attach_observatory`; detached runs are
    byte-identical (the engine's only cost is one ``is not None`` test).
    """

    def __init__(self) -> None:
        self.exemplars = ExemplarStore()
        self.registry = None
        self.clock = None
        self.health: dict[str, Any] = {}
        self._stats: dict[str, _LoadStats] = {}

    # ----------------------------------------------------------------- wiring
    def bind(self, registry, clock, health=None) -> None:
        """Called by ``attach_observatory``; safe to call before any feed.

        Instruments held from an earlier registry are dropped here.
        """
        self.registry = registry
        self.clock = clock
        self.health = dict(health) if health else {}
        self._held = HeldInstruments(registry)

    # ------------------------------------------------------------------ feeds
    def on_phase(self, now: float, outcomes) -> None:
        """Fold one executed phase's outcomes into the per-provider stats.

        ``outcomes`` are the phase's issued
        :class:`~repro.schemes.base.CloudOp` requests; each one's ``finish``
        is its wire time relative to the phase start (0 for client-side
        fast-fails, which were never in flight).
        """
        per: dict[str, list[float]] = {}
        for o in outcomes:
            per.setdefault(o.provider, []).append(o.finish)
        for provider, finishes in per.items():
            self._update(provider, now, finishes)

    def _update(self, provider: str, now: float, finishes: list[float]) -> None:
        st = self._stats.setdefault(provider, _LoadStats())
        alpha = LOAD_ALPHA
        inflight = sum(1 for f in finishes if f > 0.0)
        done = [f for f in finishes if f > 0.0]
        st.requests += len(finishes)
        st.peak = max(st.peak, inflight)
        st.busy += sum(done)
        for f in done:
            st.service = f if st.service is None else st.service + alpha * (f - st.service)
        if st.last_arrival is not None and now > st.last_arrival and finishes:
            gap = (now - st.last_arrival) / len(finishes)
            st.interarrival = (
                gap
                if st.interarrival is None
                else st.interarrival + alpha * (gap - st.interarrival)
            )
        st.last_arrival = now
        if done:
            mean_lat = sum(done) / len(done)
            n, ewma = st.curve.get(inflight, (0, 0.0))
            ewma = mean_lat if n == 0 else ewma + alpha * (mean_lat - ewma)
            st.curve[inflight] = (n + 1, ewma)
            health = self.health.get(provider)
            if health is not None:
                health.note_load_curve(self.latency_vs_load(provider))
        if self.registry is not None:
            held = self._held
            held["provider_load_inflight", provider].set(float(inflight))
            held["provider_load_busy_seconds", provider].set(st.busy)
            if st.service is not None and st.service > 0.0:
                held["provider_load_service_rate", provider].set(1.0 / st.service)
            held["provider_load_queue_depth", provider].set(self.queue_depth(provider))

    def on_op(self, report, trace_id: int | None) -> None:
        """Offer one completed op as a latency-bucket exemplar."""
        if self.exemplars.record(report.op, report.elapsed, trace_id):
            if self.registry is not None:
                self._held["attribution_exemplars_total", report.op].inc()

    # ---------------------------------------------------------------- queries
    def providers(self) -> list[str]:
        return sorted(self._stats)

    def queue_depth(self, provider: str) -> float:
        """Little's law: L = lambda x W (0 until both EWMAs have samples)."""
        st = self._stats.get(provider)
        if (
            st is None
            or st.service is None
            or st.interarrival is None
            or st.interarrival <= 0.0
        ):
            return 0.0
        return st.service / st.interarrival

    def service_rate(self, provider: str) -> float:
        st = self._stats.get(provider)
        if st is None or st.service is None or st.service <= 0.0:
            return 0.0
        return 1.0 / st.service

    def latency_vs_load(self, provider: str) -> tuple[tuple[int, float, int], ...]:
        """Empirical curve: (concurrency level, EWMA latency, samples)."""
        st = self._stats.get(provider)
        if st is None:
            return ()
        return tuple(
            (level, ewma, n) for level, (n, ewma) in sorted(st.curve.items())
        )

    def snapshot(self) -> dict[str, dict[str, float]]:
        """One row per provider for panels: gauges plus lifetime aggregates."""
        out: dict[str, dict[str, float]] = {}
        for provider, st in sorted(self._stats.items()):
            out[provider] = {
                "requests": float(st.requests),
                "busy_s": st.busy,
                "peak_inflight": float(st.peak),
                "queue_depth": self.queue_depth(provider),
                "service_rate": self.service_rate(provider),
            }
        return out


# -------------------------------------------------------------------- rendering
def _breakdown_label(o: OpAttribution) -> str:
    """Compact 'transfer 71% (aliyun), retry_backoff 22%' phase summary."""
    parts = []
    for p in PHASES:
        secs = o.phases.get(p, 0.0)
        if o.duration <= 0.0 or secs / o.duration < 0.005:
            continue
        label = f"{p} {secs / o.duration:.0%}"
        if p == "transfer" and o.providers:
            top = max(sorted(o.providers), key=lambda k: o.providers[k])
            label += f" ({top})"
        parts.append((secs, label))
    return ", ".join(label for _, label in sorted(parts, key=lambda c: -c[0])) or "-"


def render_attribution(
    report: AttributionReport,
    top: int = 5,
    observatory: ProviderLoadObservatory | None = None,
) -> str:
    """The ``repro explain`` view: phase tables, slow-op digest, load panel."""
    if not report.ops:
        return "attribution — (no completed ops in trace)"
    total = report.total_duration()
    worst = max(abs(o.coverage_error) for o in report.ops)
    parts = [
        f"Critical-path attribution — ops={len(report.ops)} "
        f"op_time={total:.3f}s coverage_residual_max={worst:.1e}s"
    ]

    totals = report.totals()
    shares = report.shares()
    parts.append(
        render_table(
            ["Phase", "Seconds", "Share"],
            [[p, totals[p], f"{shares[p]:.1%}"] for p in PHASES],
            title="Where the time went (phases tile each op's wall-clock)",
            floatfmt=".3f",
        )
    )

    rows = []
    for op, cell in sorted(report.by_op().items()):
        r = [op, cell["count"], cell["seconds"]]
        r += [cell["phases"][p] for p in PHASES]
        rows.append(r)
    parts.append(
        render_table(
            ["Op", "Count", "Total"] + list(PHASES),
            rows,
            title="Per-op-kind phase seconds",
            floatfmt=".3f",
        )
    )

    digest = []
    for o in report.top_slow(top):
        digest.append(
            [
                o.trace_id,
                o.op,
                o.path,
                o.duration,
                _breakdown_label(o),
                o.hedge_wasted_total,
            ]
        )
    parts.append(
        render_table(
            ["Trace id", "Op", "Path", "Elapsed", "Breakdown", "Wasted"],
            digest,
            title=f"Top-{min(top, len(report.ops))} slow ops (trace id links into the span file)",
            floatfmt=".3f",
        )
    )

    wasted = report.hedge_wasted_totals()
    live = observatory.snapshot() if observatory is not None else {}
    providers = sorted(set(report.provider_stats) | set(live))
    if providers:
        rows = []
        for p in providers:
            st = report.provider_stats.get(
                p, {"requests": 0, "busy_s": 0.0, "critical_s": 0.0, "wasted_s": 0.0}
            )
            lv = live.get(p)
            rows.append(
                [
                    p,
                    int(st["requests"]),
                    st["busy_s"],
                    st["critical_s"],
                    wasted.get(p, st["wasted_s"]),
                    f"{lv['queue_depth']:.2f}" if lv else "-",
                    f"{lv['service_rate']:.2f}" if lv else "-",
                    f"{int(lv['peak_inflight'])}" if lv else "-",
                ]
            )
        parts.append(
            render_table(
                ["Provider", "Requests", "Busy", "Critical", "Wasted",
                 "Queue", "Svc rate", "Peak"],
                rows,
                title="Per-provider load (busy = wire seconds incl. hedge legs; "
                "critical = seconds gating op completion)",
                floatfmt=".3f",
            )
        )

    if observatory is not None:
        ex = observatory.exemplars.exemplars()
        lines = ["Exemplars (op / latency bucket -> trace ids)"]
        for op, buckets in ex.items():
            for bucket, cell in buckets.items():
                ids = ", ".join(str(tid) for tid, _ in cell if tid is not None)
                if ids:
                    lines.append(f"  {op:<10} {bucket:<10} {ids}")
        if len(lines) > 1:
            parts.append("\n".join(lines))
    return "\n\n".join(parts)
