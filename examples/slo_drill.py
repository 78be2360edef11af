#!/usr/bin/env python
"""SLO drill: watch availability burn down through a fault storm.

Runs the canonical fault storm (brownout + error burst + throttle +
flapping outage, the same run behind ``repro report`` and ``repro
watch``) with a :class:`~repro.obs.slo.SloTracker` attached and a
:class:`~repro.obs.timeseries.TimeSeriesSampler` snapshotting every 30
simulated seconds, then:

  1. renders the final dashboard frame,
  2. exports the metric time series (replayable with
     ``python -m repro watch --from slo-drill-ts.jsonl``),
  3. prints an error-budget verdict per availability class, and the
     observed-vs-scheduled downtime ledger per provider.

Run:  python examples/slo_drill.py
"""

from repro.obs import SloTracker, TimeSeriesSampler, run_fault_storm_report
from repro.obs.dashboard import render_dashboard

TS_OUT = "slo-drill-ts.jsonl"


def verdict(burn: float | None) -> str:
    if burn is None:
        return "no traffic — no verdict"
    if burn == 0.0:
        return "clean: no budget burned"
    if burn <= 1.0:
        return f"within budget (burn {burn:.2f}x)"
    return f"BUDGET BLOWN: burning {burn:.1f}x faster than the SLO allows"


def fmt(value: float | None, suffix: str = "s") -> str:
    return "--" if value is None else f"{value:.1f}{suffix}"


def main() -> None:
    slo = SloTracker()
    sampler = TimeSeriesSampler(cadence=30.0, slo=slo)
    print("Running the canonical fault storm with an SLO tracker attached...\n")
    run_fault_storm_report(seed=0, trace=False, slo=slo, sampler=sampler)

    print(render_dashboard(sampler.ts, color=False))

    sampler.ts.write_jsonl(TS_OUT)
    print(
        f"\nTime series: {len(sampler.ts)} samples -> {TS_OUT} "
        f"(replay with `python -m repro watch --from {TS_OUT}`)"
    )

    summary = slo.summary()
    print("\nError-budget verdict (sliding window "
          f"{summary['window']:.0f}s, now t={summary['now']:.1f}s)")
    for cls in ("read", "write"):
        s = summary[cls]
        avail = s["availability"]
        avail_txt = "--" if avail is None else f"{avail:.4%}"
        print(
            f"  {cls:<5} target {s['target']:.3%}  availability {avail_txt}  "
            f"ops {s['ops']:>3}  -> {verdict(s['budget_burn'])}"
        )
    frac = summary["degraded_read_fraction"]
    if frac is not None:
        print(f"  degraded reads: {frac:.2%} of successful reads took a fallback path")

    print("\nProvider downtime — what the client saw vs what was injected")
    for name, feeds in summary["providers"].items():
        obs, sched = feeds["observed"], feeds["scheduled"]
        if obs["downtime"] == 0.0 and sched["downtime"] == 0.0:
            continue
        print(
            f"  {name:<10} observed {obs['downtime']:7.1f}s in {obs['failures']} "
            f"outages (mttr {fmt(obs['mttr'])})   "
            f"true {sched['downtime']:7.1f}s in {sched['failures']} "
            f"windows (mttr {fmt(sched['mttr'])}, mtbf {fmt(sched['mtbf'])})"
        )


if __name__ == "__main__":
    main()
