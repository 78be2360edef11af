"""Metric time series: sim-clock snapshots of the registry, ring-buffered.

The tracer (:mod:`repro.obs.trace`) answers *why was this operation slow*;
the run report (:mod:`repro.obs.report`) answers *what did the whole run
cost*.  Neither answers *what is happening right now* — availability is a
time-resolved property, and a trajectory you only inspect post-hoc is not
observability.  This module supplies the live half:

- :class:`MetricTimeSeries` — a bounded ring buffer of registry snapshots,
  each a ``(sim time, {series id: value})`` sample.  Counters and gauges
  snapshot to their value; histograms expand into ``count`` / ``mean`` /
  ``p50`` / ``p95`` / ``p99`` / ``max`` fields.  JSON-lines export/import is
  symmetric to the trace format (``ts.meta`` / ``ts.sample`` records, keys
  sorted, shortest-round-trip floats), so export→import→export is
  *byte-identical* — the same guarantee the tracer gives, enforced by a
  hypothesis property test.
- :class:`TimeSeriesSampler` — the cadence driver.  Workload drivers call
  :meth:`TimeSeriesSampler.poll` between operations; the sampler snapshots
  the registry at most once per ``cadence`` simulated seconds (grid-aligned
  due instants, stamped at the actual clock reading).  Polling never
  advances the clock and never draws randomness, so an attached sampler
  cannot perturb a run — and an absent one (the default everywhere) costs a
  single ``is None`` check.

Series ids are flat strings so samples are plain JSON objects::

    ops_total{degraded=false,op=get}            # counter
    provider_health_slowdown{provider=azure}    # gauge
    op_latency_seconds{op=get}:p95              # histogram field

See ``docs/observability.md`` for the prose guide and
``repro watch`` (:mod:`repro.obs.dashboard`) for the renderer.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable

from repro.metrics.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import format_jsonl, parse_jsonl, read_jsonl, write_jsonl

__all__ = [
    "MetricTimeSeries",
    "TimeSeriesSampler",
    "series_id",
    "split_series_id",
    "HISTOGRAM_FIELDS",
]

#: The fields a histogram instrument expands into, in snapshot order.
HISTOGRAM_FIELDS: tuple[str, ...] = ("count", "mean", "p50", "p95", "p99", "max")


def series_id(name: str, labels: Iterable[tuple[str, str]] = (), field: str | None = None) -> str:
    """Canonical flat id for one series: ``name{k=v,...}`` plus ``:field``."""
    inner = ",".join(f"{k}={v}" for k, v in labels)
    base = f"{name}{{{inner}}}" if inner else name
    return f"{base}:{field}" if field else base


def split_series_id(sid: str) -> tuple[str, tuple[tuple[str, str], ...], str | None]:
    """Inverse of :func:`series_id` — ``(name, labels, field)``."""
    field: str | None = None
    if "}" in sid:
        base, _, tail = sid.rpartition("}")
        base += "}"
        if tail.startswith(":"):
            field = tail[1:]
    else:
        base = sid
        if ":" in sid:
            base, _, f = sid.partition(":")
            field = f
    if "{" in base:
        name, _, inner = base.partition("{")
        inner = inner.rstrip("}")
        labels = tuple(
            (k, v)
            for k, _, v in (pair.partition("=") for pair in inner.split(",") if pair)
        )
    else:
        name, labels = base, ()
    return name, labels, field


def _snapshot_registry(registry: MetricsRegistry) -> dict[str, Any]:
    """One flat ``{series id: value}`` view of every instrument."""
    values: dict[str, Any] = {}
    for m in registry.all_metrics():
        if isinstance(m, (Counter, Gauge)):
            values[series_id(m.name, m.labels)] = m.value
        elif isinstance(m, Histogram):
            s = m.summary()
            for f in HISTOGRAM_FIELDS:
                values[series_id(m.name, m.labels, f)] = s[f]
    return values


class MetricTimeSeries:
    """Bounded ring buffer of timestamped registry snapshots.

    Parameters
    ----------
    cadence:
        Nominal sampling interval in simulated seconds (the sampler's due
        grid; stored so a saved file self-describes its resolution).
    capacity:
        Maximum retained samples; older samples fall off the front (a ring
        buffer, so a long watch session holds the trailing window).
    meta:
        JSON-safe run identity (scheme name, seed, ...), carried through
        export/import for the dashboard header.
    """

    def __init__(
        self, cadence: float = 60.0, capacity: int = 720, meta: dict[str, Any] | None = None
    ) -> None:
        if cadence <= 0.0:
            raise ValueError(f"cadence must be > 0, got {cadence}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.cadence = float(cadence)
        self.capacity = int(capacity)
        self.meta: dict[str, Any] = dict(meta or {})
        #: ring buffer of ``(time, {series id: value})`` in time order
        self.samples: deque[tuple[float, dict[str, Any]]] = deque(maxlen=self.capacity)

    # -------------------------------------------------------------- recording
    def snapshot(self, registry: MetricsRegistry, t: float) -> None:
        """Append one snapshot of ``registry`` stamped at sim time ``t``.

        Times must be non-decreasing — a sample from the past is the same
        clock misuse :class:`~repro.sim.clock.SimClock` rejects.
        """
        if self.samples and t < self.samples[-1][0]:
            raise ValueError(
                f"sample at t={t} precedes last sample at t={self.samples[-1][0]}"
            )
        self.samples.append((float(t), _snapshot_registry(registry)))

    # ---------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self.samples)

    @property
    def span(self) -> tuple[float, float]:
        """(first, last) sample time; (0, 0) when empty."""
        if not self.samples:
            return (0.0, 0.0)
        return (self.samples[0][0], self.samples[-1][0])

    def series_ids(self) -> list[str]:
        """Every series id present in any retained sample, sorted."""
        ids: set[str] = set()
        for _, values in self.samples:
            ids.update(values)
        return sorted(ids)

    def series(self, sid: str) -> list[tuple[float, Any]]:
        """``[(time, value), ...]`` for one series (absent samples skipped)."""
        return [(t, v[sid]) for t, v in self.samples if sid in v]

    def latest(self, sid: str, default: Any = None) -> Any:
        """Most recent value of a series, or ``default`` if never sampled."""
        for t, values in reversed(self.samples):
            if sid in values:
                return values[sid]
        return default

    def deltas(self, sid: str) -> list[tuple[float, float]]:
        """Per-interval increases of a (counter) series — rate-ish view."""
        points = self.series(sid)
        return [
            (t1, max(v1 - v0, 0)) for (_, v0), (t1, v1) in zip(points, points[1:])
        ]

    # ----------------------------------------------------------------- export
    def to_records(self) -> list[dict[str, Any]]:
        """The series as record dicts (same shape the JSONL lines carry)."""
        records: list[dict[str, Any]] = [
            {
                "t": "ts.meta",
                "cadence": self.cadence,
                "capacity": self.capacity,
                "attrs": self.meta,
            }
        ]
        for t, values in self.samples:
            records.append({"t": "ts.sample", "time": t, "values": values})
        return records

    def to_jsonl(self) -> str:
        """JSON-lines export: one ``ts.meta`` line, then one line per sample,
        in the trace's canonical form (:func:`~repro.obs.trace.format_jsonl`)
        — which is what makes export→import→export byte-identical.
        """
        return format_jsonl(self.to_records())

    def write_jsonl(self, fp_or_path) -> None:
        """Write the series to a path or open text file
        (:func:`~repro.obs.trace.write_jsonl`)."""
        write_jsonl(self.to_records(), fp_or_path)

    # ----------------------------------------------------------------- import
    @classmethod
    def from_records(cls, records: Iterable[dict[str, Any]]) -> "MetricTimeSeries":
        """Rebuild a series from parsed records (inverse of :meth:`to_records`)."""
        ts: MetricTimeSeries | None = None
        pending: list[tuple[float, dict[str, Any]]] = []
        for r in records:
            kind = r.get("t")
            if kind == "ts.meta":
                if ts is not None:
                    raise ValueError("duplicate ts.meta record")
                ts = cls(
                    cadence=r["cadence"], capacity=r["capacity"], meta=r.get("attrs", {})
                )
            elif kind == "ts.sample":
                pending.append((r["time"], r["values"]))
        if ts is None:
            raise ValueError("time-series stream has no ts.meta record")
        for t, values in pending:
            if ts.samples and t < ts.samples[-1][0]:
                raise ValueError(f"sample at t={t} out of order in stream")
            ts.samples.append((float(t), values))
        return ts

    @classmethod
    def parse_jsonl(cls, lines: Iterable[str]) -> "MetricTimeSeries":
        """Parse JSON-lines text back into a series (blank lines skipped)."""
        return cls.from_records(parse_jsonl(lines))

    @classmethod
    def read_jsonl(cls, path) -> "MetricTimeSeries":
        """Read a file written by :meth:`write_jsonl`."""
        return cls.from_records(read_jsonl(path))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lo, hi = self.span
        return (
            f"MetricTimeSeries({len(self.samples)} samples, "
            f"t={lo:.1f}..{hi:.1f}, cadence={self.cadence})"
        )


class TimeSeriesSampler:
    """Cadence-driven sampler: snapshots a registry as the sim clock moves.

    Construct unbound (configuration only), then :meth:`bind` to a live
    run's registry and clock — run drivers like
    :func:`repro.obs.report.run_fault_storm_report` bind the sampler they
    are handed, so callers can configure sampling without building the
    scheme themselves.  ``poll()`` between operations does the work:

    - before the bind, and between due instants, it is a no-op;
    - when ``clock.now`` has crossed the next due instant, it (optionally)
      asks the attached :class:`~repro.obs.slo.SloTracker` to publish its
      gauges, snapshots the registry stamped at the *actual* clock reading,
      advances the due grid past ``now``, and invokes ``on_sample`` (the
      live-dashboard hook).

    The due grid is ``start + k * cadence``: at most one sample per poll,
    never more than one sample per cadence interval, and sample times are
    real clock readings (a discrete-event run cannot observe the registry
    *between* operations, so back-filling grid points would fabricate
    history).
    """

    def __init__(
        self,
        cadence: float = 60.0,
        capacity: int = 720,
        slo=None,
        on_sample=None,
    ) -> None:
        self.ts = MetricTimeSeries(cadence=cadence, capacity=capacity)
        #: optional :class:`repro.obs.slo.SloTracker` whose gauges are
        #: published into the registry just before every snapshot
        self.slo = slo
        #: optional callback ``f(sampler)`` after every snapshot (dashboards)
        self.on_sample = on_sample
        self._registry: MetricsRegistry | None = None
        self._clock = None
        self._next_due = 0.0

    @property
    def bound(self) -> bool:
        return self._registry is not None

    def bind(self, registry: MetricsRegistry, clock, meta: dict[str, Any] | None = None) -> None:
        """Attach to a live run; sampling becomes due ``cadence`` from now."""
        if self.bound:
            raise RuntimeError("sampler is already bound to a run")
        self._registry = registry
        self._clock = clock
        self._next_due = clock.now + self.ts.cadence
        if meta:
            self.ts.meta.update(meta)

    def poll(self) -> bool:
        """Snapshot if a cadence boundary has passed; True when sampled."""
        if self._registry is None or self._clock.now < self._next_due:
            return False
        now = self._clock.now
        if self.slo is not None:
            self.slo.publish(now)
        self.ts.snapshot(self._registry, now)
        # Advance the due grid past `now` (skipping boundaries the workload
        # jumped over) so long idle gaps do not trigger sample bursts.
        cadence = self.ts.cadence
        periods = int((now - self._next_due) / cadence) + 1
        self._next_due += periods * cadence
        if self.on_sample is not None:
            self.on_sample(self)
        return True

    def finish(self) -> None:
        """Force one final snapshot (end-of-run state, off the grid)."""
        if self._registry is None:
            return
        now = self._clock.now
        if self.slo is not None:
            self.slo.publish(now)
        if self.ts.samples and self.ts.samples[-1][0] == now:
            return  # the grid already sampled this instant
        self.ts.snapshot(self._registry, now)
        if self.on_sample is not None:
            self.on_sample(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "bound" if self.bound else "unbound"
        return f"TimeSeriesSampler({state}, {self.ts!r})"
