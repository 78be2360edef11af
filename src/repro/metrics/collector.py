"""Operation reports and the latency collector.

Every public scheme operation returns an :class:`OpReport`; experiments feed
reports into a :class:`LatencyCollector` and read back the summary series the
paper's figures plot (average response time, normal vs degraded split, ...).

Since the observability PR the collector is backed by a typed
:class:`~repro.metrics.registry.MetricsRegistry`: ``bump``/``counter`` and
the ``counters`` mapping delegate to registry counters, ``add`` additionally
feeds the ``ops_total`` counter and the ``op_latency_seconds`` histogram.
The public query API is unchanged; existing callers keep working verbatim.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, fields
from typing import Any, Iterable

from repro.metrics.registry import HeldInstruments, MetricsRegistry
from repro.metrics.stats import LatencySummary, summarize

__all__ = ["OpReport", "LatencyCollector"]


@dataclass(frozen=True)
class OpReport:
    """What one scheme operation cost.

    ``degraded`` marks operations that had to take a reconstruction /
    fallback path because a provider was inside an outage window.
    """

    op: str  # "put" | "get" | "update" | "remove" | "stat" | "list"
    path: str
    elapsed: float  # seconds of simulated wall-clock
    bytes_up: int = 0
    bytes_down: int = 0
    providers: tuple[str, ...] = ()
    degraded: bool = False
    cloud_ops: int = 0  # number of provider requests issued
    rtt_wait: float = 0.0  # critical-path time spent on request round trips
    transfer_time: float = 0.0  # critical-path time spent moving bytes
    retries: int = 0  # transient-failure retries burned by this operation
    hedged: bool = False  # a hedged backup request fired during this operation
    tenant: str | None = None  # service-plane tenant this op ran for, if any

    def __post_init__(self) -> None:
        if self.elapsed < 0:
            raise ValueError(f"elapsed must be >= 0, got {self.elapsed}")
        if self.bytes_up < 0:
            raise ValueError(f"bytes_up must be >= 0, got {self.bytes_up}")
        if self.bytes_down < 0:
            raise ValueError(f"bytes_down must be >= 0, got {self.bytes_down}")
        if self.cloud_ops < 0:
            raise ValueError(f"cloud_ops must be >= 0, got {self.cloud_ops}")

    def to_span_attrs(self) -> dict[str, Any]:
        """The root op span's attributes, so a JSON-lines trace carries the
        whole report: every field in declaration order, ``providers`` as a
        list, ``tenant`` only when set (tenant-free traces stay as they
        were before tenants existed)."""
        attrs = {f.name: getattr(self, f.name) for f in fields(self)}
        attrs["providers"] = list(self.providers)
        if self.tenant is None:
            del attrs["tenant"]
        return attrs

    @classmethod
    def from_span_attrs(cls, attrs: dict[str, Any]) -> "OpReport":
        """Inverse of :meth:`to_span_attrs`."""
        return cls(**{**attrs, "providers": tuple(attrs["providers"])})


@dataclass
class LatencyCollector:
    """Aggregates :class:`OpReport` streams for one scheme run.

    Besides per-operation reports it keeps resilience *counters* bumped by
    the scheme engine as events happen: ``retries`` (transient-failure
    retries), ``breaker_open`` / ``breaker_half_open`` / ``breaker_closed``
    (circuit state transitions), ``breaker_fast_fail`` (requests skipped
    client-side because a breaker was open), ``hedged_reads`` (backup
    requests fired) and ``hedge_wins`` (backup answered first).

    Counters live in the attached :class:`MetricsRegistry` (``registry``),
    which also receives ``ops_total{op,degraded}`` and the
    ``op_latency_seconds{op}`` histogram for every report added.  A fresh
    registry is created when none is passed, so ``LatencyCollector()``
    stays a valid standalone construction.
    """

    reports: list[OpReport] = field(default_factory=list)
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)

    def __post_init__(self) -> None:
        self._held = HeldInstruments(self.registry)

    @property
    def counters(self) -> dict[str, int]:
        """Unlabeled counter values, as the pre-registry dict looked.

        A snapshot: reflects registry state at access time.  (Labeled
        metrics — per-provider request/error counters and the like — are
        queried through :attr:`registry` instead.)
        """
        return self.registry.counters()

    def add(self, report: OpReport) -> None:
        self.reports.append(report)
        held = self._held
        held["ops_total", "true" if report.degraded else "false", report.op].inc()
        held["op_latency_seconds", report.op].observe(report.elapsed)

    def extend(self, reports: Iterable[OpReport]) -> None:
        for report in reports:
            self.add(report)

    def bump(self, counter: str, n: int = 1) -> None:
        """Increment a named resilience counter."""
        self._held[counter].inc(n)

    def counter(self, name: str) -> int:
        return int(self.registry.counter_value(name))

    def __len__(self) -> int:
        return len(self.reports)

    # --------------------------------------------------------------- queries
    def latencies(self, op: str | None = None, degraded: bool | None = None) -> list[float]:
        return [
            r.elapsed
            for r in self.reports
            if (op is None or r.op == op)
            and (degraded is None or r.degraded == degraded)
        ]

    def summary(self, op: str | None = None) -> LatencySummary:
        return summarize(self.latencies(op))

    def by_op(self) -> dict[str, LatencySummary]:
        groups: dict[str, list[float]] = defaultdict(list)
        for r in self.reports:
            groups[r.op].append(r.elapsed)
        return {op: summarize(v) for op, v in sorted(groups.items())}

    def mean_latency(self) -> float:
        """Average response time over every recorded operation."""
        return self.summary().mean

    def degraded_fraction(self) -> float:
        if not self.reports:
            return 0.0
        return sum(1 for r in self.reports if r.degraded) / len(self.reports)

    def total_bytes(self) -> tuple[int, int]:
        """(bytes uploaded, bytes downloaded) across all operations."""
        return (
            sum(r.bytes_up for r in self.reports),
            sum(r.bytes_down for r in self.reports),
        )

    def total_cloud_ops(self) -> int:
        return sum(r.cloud_ops for r in self.reports)

    def time_breakdown(self) -> dict[str, float]:
        """Where simulated wall-clock went, summed over the critical paths.

        ``rtt_wait`` is time blocked on request round trips (what dominates
        small objects), ``transfer`` is time moving bytes (what dominates
        large objects) — the split behind Figure 5's threshold argument.
        """
        return {
            "rtt_wait": sum(r.rtt_wait for r in self.reports),
            "transfer": sum(r.transfer_time for r in self.reports),
            "total": sum(r.elapsed for r in self.reports),
        }
