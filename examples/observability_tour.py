#!/usr/bin/env python
"""Observability tour: trace a run, read its metrics, replay the trace.

Walks the three layers of ``repro.obs`` on a small HyRD run with an
injected outage:

1. attach a :class:`RecordingTracer` so every operation, provider request,
   retry and codec call becomes a span on the simulated clock;
2. query the typed :class:`MetricsRegistry` the scheme now carries —
   counters, gauges and percentile histograms (all names documented in
   docs/metrics-reference.md);
3. export the trace as JSON-lines, replay it into a fresh
   :class:`RunReport`, and show the replayed report matches the live one
   byte for byte.

Run:  python examples/observability_tour.py
"""

import numpy as np

from repro import HyRDClient
from repro.cloud import make_table2_cloud_of_clouds
from repro.faults import OutageWindow
from repro.obs import RecordingTracer, RunReport, flame_summary, parse_jsonl
from repro.sim import SimClock

KB, MB = 1024, 1024 * 1024


def main() -> None:
    # 1. A fleet with a tracer attached before any operation runs.
    clock = SimClock()
    providers = make_table2_cloud_of_clouds(clock)
    tracer = RecordingTracer(clock)
    hyrd = HyRDClient(list(providers.values()), clock, tracer=tracer)

    # A workload with an outage in the middle: puts, an Azure outage,
    # reads that must reconstruct, then recovery.
    rng = np.random.default_rng(7)
    for i in range(6):
        size = (16 * KB) if i % 2 else (2 * MB)
        hyrd.put(f"/f{i}", rng.integers(0, 256, size, dtype=np.uint8).tobytes())
    t0 = clock.now
    providers["azure"].faults.add(OutageWindow(t0, t0 + 3600.0))
    for i in range(6):
        data, report = hyrd.get(f"/f{i}")
        flag = "degraded" if report.degraded else "normal  "
        print(f"get /f{i}: {flag} {report.elapsed:7.3f}s via {report.providers}")

    # 2. The registry: typed counters/gauges/histograms behind the old
    #    collector API.
    print("\nResilience counters:", hyrd.registry.counters())
    print(
        "Requests by provider:",
        hyrd.registry.sum_by_label("provider_requests_total", "provider"),
    )
    hist = hyrd.registry.histogram("op_latency_seconds", op="get")
    print("get latency summary:", {k: round(v, 4) for k, v in hist.summary().items()})

    # 3. Spans: where did the simulated time go?
    print("\nFlame summary:")
    print(flame_summary(tracer.records, max_depth=2))

    # 4. Round-trip: the JSON-lines trace rebuilds the identical report.
    live = RunReport.from_scheme(hyrd).render()
    replayed = RunReport.from_trace(
        parse_jsonl(tracer.to_jsonl().splitlines())
    ).render()
    assert live == replayed
    print("trace round-trip: replayed report is byte-identical "
          f"({len(tracer.records)} records)")


if __name__ == "__main__":
    main()
