"""Typed metrics registry: counters, gauges and percentile histograms.

This replaces the untyped ``LatencyCollector.counters`` dict with three
first-class instrument types, all keyed by *(name, labels)*:

- :class:`Counter` — a monotonically increasing integer (``inc``);
- :class:`Gauge` — a point-in-time float (``set``);
- :class:`Histogram` — fixed-bucket sample distribution with percentile
  estimation (``observe``; ``percentile`` for p50/p95/p99, plus exact
  ``min``/``max``/``sum``/``count``).

A :class:`MetricsRegistry` is *strict by default*: every metric name must be
declared in :data:`repro.metrics.catalog.METRIC_CATALOG` with the right type
and label keys, so the runtime cannot emit a metric the reference
documentation (``docs/metrics-reference.md``) does not describe — the doc
table is generated from the same catalog and diff-checked by a test.

The registry knows nothing of tracing.  :meth:`MetricsRegistry.state` /
``from_state`` is its one lossless codec (every instrument in creation
order, with kind, name, labels and full value); a recording tracer writes
it once, as the closing ``registry`` record of a trace
(:mod:`repro.obs.trace`), so a report rendered from the trace equals the
live one byte for byte.  Updates never touch the clock or any RNG stream.

The rule for call sites: **per-event sites hold their instruments.**  A
site that mutates a metric per request, per phase or per op looks each
instrument up by name once, the first time its label set occurs, and keeps
it — :class:`HeldInstruments`, or an attribute bound on first use — so the
by-name :meth:`MetricsRegistry.counter` / ``gauge`` / ``histogram`` serve
binding, queries and cold paths.  The owner drops what it holds exactly
where it receives a registry, so a handle never outlives the registry it
was bound in.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.metrics.catalog import METRIC_CATALOG, MetricSpec

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "UnknownMetricError",
    "HeldInstruments",
    "DEFAULT_LATENCY_BUCKETS",
]


#: Default histogram bucket upper bounds (seconds of simulated latency):
#: roughly geometric from 1 ms to 10 min, matching the dynamic range between
#: a control-plane RTT and a degraded multi-megabyte stripe rebuild.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 600.0,
)


class UnknownMetricError(KeyError):
    """A metric name (or label set) not declared in the catalog was used.

    Raised by a strict :class:`MetricsRegistry`.  The fix is never to relax
    the registry — it is to add a :class:`~repro.metrics.catalog.MetricSpec`
    to the catalog and regenerate ``docs/metrics-reference.md``.
    """


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (>= 0) to the counter."""
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {n})")
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, {dict(self.labels)}, value={self.value})"


class Gauge:
    """A point-in-time float metric (last write wins)."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self.value = float(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name!r}, {dict(self.labels)}, value={self.value})"


class Histogram:
    """Fixed-bucket sample distribution with percentile estimation.

    Samples land in the first bucket whose upper bound is >= the value;
    values above the last bound land in an implicit overflow bucket.  The
    exact ``min``, ``max``, ``sum`` and ``count`` are tracked alongside, so
    percentile estimates are *clamped to the observed range*: an empty
    histogram reports 0, a single sample reports itself exactly, and an
    all-ties distribution reports the tied value at every percentile.

    ``percentile(q)`` interpolates linearly inside the bucket where the
    rank falls — the standard fixed-bucket estimator (same family as
    Prometheus's ``histogram_quantile``), accurate to the bucket width.
    """

    __slots__ = ("name", "labels", "bounds", "counts", "count", "sum", "min", "max")
    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: tuple[tuple[str, str], ...],
        bounds: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError("histogram bounds must be non-empty and strictly increasing")
        self.name = name
        self.labels = labels
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)  # +1 overflow bucket
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one sample (must be >= 0 — these are latencies/sizes)."""
        value = float(value)
        if value < 0:
            raise ValueError(f"histogram {self.name!r} sample must be >= 0, got {value}")
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-th percentile (0 <= q <= 100) of the samples."""
        if not (0.0 <= q <= 100.0):
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0:
            return 0.0
        target = q / 100.0 * self.count
        cum = 0
        for i, n in enumerate(self.counts):
            if n == 0:
                continue
            lo = self.bounds[i - 1] if i > 0 else 0.0
            hi = self.bounds[i] if i < len(self.bounds) else self.max
            if cum + n >= target:
                frac = (target - cum) / n
                est = lo + (hi - lo) * max(frac, 0.0)
                # Clamp to the observed range: exact for empty/single/ties.
                return min(max(est, self.min), self.max)
            cum += n
        return self.max  # pragma: no cover - unreachable (cum == count)

    def summary(self) -> dict[str, float]:
        """Estimated p50/p95/p99 plus exact count/mean/max, for reports."""
        return {
            "count": float(self.count),
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": self.max if self.count else 0.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name!r}, {dict(self.labels)}, count={self.count})"


class HeldInstruments(dict):
    """The instruments one owner mutates per event, each looked up once.

    ``held[name]``, or ``held[name, *label values]`` with the values in the
    catalog's label order (sorted by label key), is looked up by name in
    ``registry`` the first time that key occurs — type and label keys read
    from the catalog — and is the same instrument every time after.  So an
    instrument is created in the registry exactly where the by-name lookup
    it replaces would have created it.
    """

    __slots__ = ("registry",)

    def __init__(self, registry: MetricsRegistry | None) -> None:
        super().__init__()
        self.registry = registry

    def __missing__(self, key):
        name, *values = (key,) if type(key) is str else key
        spec = METRIC_CATALOG.get(name)
        if spec is None:
            raise UnknownMetricError(f"metric {name!r} is not in the catalog")
        lookup = getattr(self.registry, spec.type)
        metric = self[key] = lookup(name, **dict(zip(spec.labels, values)))
        return metric


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    if not labels:
        return ()
    if len(labels) == 1:
        k, v = next(iter(labels.items()))
        return ((str(k), str(v)),)
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """All of one run's metric instruments, keyed by *(name, labels)*.

    Parameters
    ----------
    strict:
        When True (the default) every metric must be declared in the
        catalog with matching type and label keys; unknown names raise
        :class:`UnknownMetricError`.  Pass False for ad-hoc/library use.
    """

    def __init__(self, strict: bool = True) -> None:
        self._metrics: dict[tuple[str, tuple[tuple[str, str], ...]], Counter | Gauge | Histogram] = {}
        #: the same instruments by *(name, labels as passed)*: what a call
        #: site repeats, resolved without canonicalising its labels again
        self._handles: dict[tuple, Counter | Gauge | Histogram] = {}
        self.strict = strict

    # ------------------------------------------------------------ internals
    def _check(self, name: str, kind: str, labels: dict[str, str]) -> None:
        if not self.strict:
            return
        spec = METRIC_CATALOG.get(name)
        if spec is None:
            raise UnknownMetricError(
                f"metric {name!r} is not in the catalog; add a MetricSpec to "
                f"repro.metrics.catalog and regenerate docs/metrics-reference.md"
            )
        if spec.type != kind:
            raise UnknownMetricError(
                f"metric {name!r} is declared as a {spec.type}, used as a {kind}"
            )
        if tuple(sorted(labels)) != spec.labels:
            raise UnknownMetricError(
                f"metric {name!r} declares labels {spec.labels}, got "
                f"{tuple(sorted(labels))}"
            )

    # ---------------------------------------------------------- instruments
    def _instrument(self, cls, name: str, labels: dict[str, str], *args):
        """Get or create the ``cls`` instrument for *(name, labels)*."""
        # First level: the labels exactly as passed.  Only all-``str`` values
        # are memoised, so ``1`` / ``True`` / ``"1"`` can never alias here.
        passed = (name, *labels.items())
        metric = self._handles.get(passed)
        if metric is None:
            key = (name, _label_key(labels))
            metric = self._metrics.get(key)
            if metric is None:
                self._check(name, cls.kind, labels)
                metric = self._metrics[key] = cls(name, key[1], *args)
            if all(type(v) is str for v in labels.values()):
                self._handles[passed] = metric
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        """Get or create the counter for *(name, labels)*."""
        return self._instrument(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        """Get or create the gauge for *(name, labels)*."""
        return self._instrument(Gauge, name, labels)

    def histogram(
        self, name: str, bounds: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS, **labels: str
    ) -> Histogram:
        """Get or create the histogram for *(name, labels)*."""
        return self._instrument(Histogram, name, labels, bounds)

    # -------------------------------------------------------------- queries
    def counter_value(self, name: str, **labels: str) -> int:
        """Current value of one counter (0 if never incremented)."""
        metric = self._metrics.get((name, _label_key(labels)))
        return metric.value if isinstance(metric, Counter) else 0

    def counters(self, name: str | None = None) -> dict:
        """Counter values: ``{name: value}`` for unlabeled counters when
        ``name`` is None, else ``{labels: value}`` for that name."""
        if name is None:
            return {
                n: m.value
                for (n, lk), m in sorted(self._metrics.items())
                if isinstance(m, Counter) and not lk
            }
        return {
            lk: m.value
            for (n, lk), m in self._metrics.items()
            if n == name and isinstance(m, Counter)
        }

    def sum_by_label(self, name: str, label: str) -> dict[str, int]:
        """Sum a labeled counter grouped by one label's value."""
        out: dict[str, int] = {}
        for (n, lk), m in self._metrics.items():
            if n != name or not isinstance(m, Counter):
                continue
            value = dict(lk).get(label)
            if value is not None:
                out[value] = out.get(value, 0) + m.value
        return out

    def breakdown(self, name: str, *by: str) -> dict[tuple[str, ...], int]:
        """Counter values grouped by an ordered tuple of label values."""
        out: dict[tuple[str, ...], int] = {}
        for (n, lk), m in self._metrics.items():
            if n != name or not isinstance(m, Counter):
                continue
            labels = dict(lk)
            key = tuple(labels.get(b, "") for b in by)
            out[key] = out.get(key, 0) + m.value
        return out

    def emitted_names(self) -> set[str]:
        """Every metric name instantiated so far (for doc-coverage tests)."""
        return {name for name, _ in self._metrics}

    def all_metrics(self) -> list:
        """Every instrument, sorted by (name, labels)."""
        return [m for _, m in sorted(self._metrics.items())]

    # ---------------------------------------------------------------- state
    def state(self) -> dict:
        """Every instrument in creation order as JSON-safe data, which
        :meth:`from_state` inverts; an empty histogram's ±inf ``min`` and
        ``max`` encode as ``None``."""
        metrics = []
        for m in self._metrics.values():
            entry = {"kind": m.kind, "name": m.name, "labels": [list(kv) for kv in m.labels]}
            if m.kind == "histogram":
                lo, hi = (m.min, m.max) if m.count else (None, None)
                entry.update(bounds=list(m.bounds), counts=list(m.counts), count=m.count,
                             sum=m.sum, min=lo, max=hi)
            else:
                entry["value"] = m.value
            metrics.append(entry)
        return {"strict": self.strict, "metrics": metrics}

    @classmethod
    def from_state(cls, state: dict) -> "MetricsRegistry":
        """Rebuild the registry :meth:`state` describes."""
        registry = cls(strict=state["strict"])
        for e in state["metrics"]:
            kind, labels = e["kind"], dict(e["labels"])
            if kind == "histogram":
                m = registry.histogram(e["name"], tuple(e["bounds"]), **labels)
                m.counts, m.count, m.sum = list(e["counts"]), e["count"], e["sum"]
                if m.count:
                    m.min, m.max = e["min"], e["max"]
            elif kind in ("counter", "gauge"):
                getattr(registry, kind)(e["name"], **labels).value = e["value"]
            else:
                raise ValueError(f"unknown instrument kind {kind!r}")
        return registry

    def __len__(self) -> int:
        return len(self._metrics)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetricsRegistry({len(self._metrics)} instruments, strict={self.strict})"
