"""Command-line front end: regenerate any paper experiment from the shell.

Examples::

    python -m repro fig5
    python -m repro fig6 --seed 3
    python -m repro fig4
    python -m repro table1
    python -m repro availability
    python -m repro lockin
    python -m repro threshold
    python -m repro maintain --repair-rate 2
    python -m repro serve --tenants 32 --mode open --skew 10
    python -m repro report --trace-out /tmp/storm.jsonl
    python -m repro report --from-trace /tmp/storm.jsonl
    python -m repro watch --cadence 30 --ts-out /tmp/storm-ts.jsonl
    python -m repro watch --from /tmp/storm-ts.jsonl
    python -m repro explain --top 10 --trace-out /tmp/storm.jsonl
    python -m repro explain --trace /tmp/storm.jsonl
    python -m repro chaos --episodes 8 --check-determinism
    python -m repro chaos --schemes hyrd,racs --json-out /tmp/chaos.json
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.tables import render_table

__all__ = ["main", "build_parser"]

KB, MB = 1024, 1024 * 1024


def _cmd_table1(args: argparse.Namespace) -> str:
    from repro.analysis.experiments import run_table1

    rows = run_table1(seed=args.seed)
    return render_table(
        ["Scheme", "Redundancy", "Recovery (measured)", "Latency (s)", "Cost ($)"],
        rows,
        title="Table I — scheme comparison (measured)",
        floatfmt=".4f",
    )


def _cmd_table2(args: argparse.Namespace) -> str:
    from repro.analysis.experiments import run_table2

    return render_table(
        ["Vendor", "Storage $/GB-mo", "Out $/GB", "3Ps $/10K", "Get $/10K", "Category"],
        run_table2(),
        title="Table II — price plans (China region, Sept 2014)",
        floatfmt=".4f",
    )


def _cmd_fig3(args: argparse.Namespace) -> str:
    from repro.analysis.experiments import run_fig3

    trace = run_fig3(seed=args.seed)
    rows = [
        [f"m{s.month:02d}", s.bytes_written / MB, s.bytes_read / MB, s.write_requests, s.read_requests]
        for s in trace.stats
    ]
    return render_table(
        ["Month", "Written MB", "Read MB", "Writes", "Reads"],
        rows,
        title=(
            f"Figure 3 — IA trace (bytes r:w = {trace.total_read_to_write_bytes:.2f}, "
            f"requests r:w = {trace.total_read_to_write_requests:.2f})"
        ),
        floatfmt=".1f",
    )


def _cmd_fig4(args: argparse.Namespace) -> str:
    from repro.analysis.experiments import run_fig4

    fig4 = run_fig4(seed=args.seed)
    schemes = list(fig4.results)
    months = len(next(iter(fig4.results.values())).monthly)
    rows = [
        [f"m{m:02d}"] + [fig4.results[s].cumulative_totals[m] for s in schemes]
        for m in range(months)
    ]
    headline = (
        f"HyRD saves {fig4.savings_vs('hyrd', 'duracloud'):.1%} vs DuraCloud "
        f"and {fig4.savings_vs('hyrd', 'racs'):.1%} vs RACS"
    )
    return render_table(
        ["Month"] + schemes,
        rows,
        title=f"Figure 4(b) — cumulative cost ($)\n{headline}",
        floatfmt=".4f",
    )


def _cmd_fig5(args: argparse.Namespace) -> str:
    from repro.analysis.experiments import run_fig5

    res = run_fig5(seed=args.seed, repeats=7)
    providers = list(res.read)

    def label(size: int) -> str:
        return f"{size // MB}MB" if size >= MB else f"{size // KB}KB"

    rows = [
        [label(s)]
        + [res.read[p][i] for p in providers]
        + [res.write[p][i] for p in providers]
        for i, s in enumerate(res.sizes)
    ]
    return render_table(
        ["Size"] + [f"R {p}" for p in providers] + [f"W {p}" for p in providers],
        rows,
        title="Figure 5 — read/write latency vs request size (s)",
    )


def _cmd_fig6(args: argparse.Namespace) -> str:
    from repro.analysis.experiments import run_fig6

    fig6 = run_fig6(seed=args.seed, extended=args.extended)
    rows = [
        [name, fig6.normal[name], fig6.outage.get(name, float("nan"))]
        for name in fig6.normal
    ]
    headline = (
        f"normal: HyRD {fig6.improvement('hyrd', 'duracloud'):.1%} below DuraCloud, "
        f"{fig6.improvement('hyrd', 'racs'):.1%} below RACS"
    )
    return render_table(
        ["Scheme", "Normal (s)", "Outage (s)"],
        rows,
        title=f"Figure 6 — mean access latency\n{headline}",
    )


def _cmd_threshold(args: argparse.Namespace) -> str:
    from repro.analysis.ablations import run_threshold_sweep

    points = run_threshold_sweep(seed=args.seed)
    rows = [
        [p.threshold, p.mean_latency, p.space_overhead, p.small_fraction_bytes]
        for p in points
    ]
    return render_table(
        ["Threshold (B)", "Latency (s)", "Space", "Small-bytes frac"],
        rows,
        title="Ablation — file-size threshold",
    )


def _cmd_replication(args: argparse.Namespace) -> str:
    from repro.analysis.ablations import run_replication_sweep

    points = run_replication_sweep(seed=args.seed)
    rows = [
        [p.level, p.mean_latency, p.space_overhead, p.survives_outages]
        for p in points
    ]
    return render_table(
        ["Level", "Latency (s)", "Space", "Outages survived"],
        rows,
        title="Ablation — replication level",
    )


def _cmd_codec(args: argparse.Namespace) -> str:
    from repro.analysis.ablations import run_codec_ablation

    result = run_codec_ablation(seed=args.seed)
    rows = [
        [name, m["mean_latency"], m["space_overhead"], int(m["fault_tolerance"])]
        for name, m in result.items()
    ]
    return render_table(
        ["Codec", "Latency (s)", "Space", "Outages tolerated"],
        rows,
        title="Ablation — large-file erasure code",
    )


def _cmd_degraded(args: argparse.Namespace) -> str:
    from repro.analysis.ablations import run_degraded_read_comparison

    result = run_degraded_read_comparison(seed=args.seed)
    rows = [
        [name, m["normal_latency"], m["degraded_latency"], m["inflation"], m["degraded_fanout"]]
        for name, m in result.items()
    ]
    return render_table(
        ["Scheme", "Normal (s)", "Degraded (s)", "Inflation", "Fanout"],
        rows,
        title="Degraded reads — Azure offline, pure read workload",
    )


def _cmd_whatif(args: argparse.Namespace) -> str:
    from repro.analysis.whatif import run_price_sensitivity

    points = run_price_sensitivity(seed=args.seed)
    rows = [
        [
            f"x{p.multiplier:g}",
            p.storage_price,
            p.hyrd_cost,
            p.racs_cost,
            f"{p.hyrd_advantage:+.1%}",
            "yes" if p.provider_in_hyrd_cost_set else "no",
        ]
        for p in points
    ]
    return render_table(
        ["Aliyun x", "$/GB-mo", "HyRD $", "RACS $", "Advantage", "Cost-oriented?"],
        rows,
        title="Price-drift sensitivity",
        floatfmt=".4f",
    )


def _cmd_availability(args: argparse.Namespace) -> str:
    from repro.analysis.availability import analytic_report, monte_carlo_report, nines

    analytic = analytic_report()
    mc = monte_carlo_report(seed=args.seed)
    rows = [
        [name, analytic[name], nines(analytic[name]), mc.get(name, float("nan"))]
        for name in sorted(analytic)
    ]
    return render_table(
        ["Scheme", "Analytic", "Nines", "Monte-Carlo"],
        rows,
        title="Storage availability (MTBF 60 d, MTTR 12 h per provider)",
        floatfmt=".6f",
    )


def _cmd_report(args: argparse.Namespace) -> str:
    from repro.obs import RunReport, read_jsonl, run_fault_storm_report

    if args.from_trace:
        return RunReport.from_trace(read_jsonl(args.from_trace)).render()
    report, tracer = run_fault_storm_report(seed=args.seed)
    if args.trace_out:
        tracer.write_jsonl(args.trace_out)
    return report.render()


def _cmd_watch(args: argparse.Namespace) -> str:
    from repro.obs import (
        MetricTimeSeries,
        ProviderLoadObservatory,
        SloTracker,
        TimeSeriesSampler,
    )
    from repro.obs.dashboard import render_dashboard, render_frame
    from repro.obs.report import run_fault_storm_report

    color = not args.no_color
    if args.from_ts:
        ts = MetricTimeSeries.read_jsonl(args.from_ts)
        return render_dashboard(ts, color=color)
    # Live mode: the canonical fault storm with an SLO tracker and the load
    # observatory attached and the sampler repainting on every snapshot —
    # the observatory's provider_load_* gauges feed the load panel.
    live = sys.stdout.isatty()

    def repaint(sampler: TimeSeriesSampler) -> None:
        if live:
            print(render_frame(sampler, color=color), flush=True)

    slo = SloTracker()
    sampler = TimeSeriesSampler(
        cadence=args.cadence, slo=slo, on_sample=repaint
    )
    run_fault_storm_report(
        seed=args.seed,
        trace=False,
        slo=slo,
        sampler=sampler,
        observatory=ProviderLoadObservatory(),
    )
    if args.ts_out:
        sampler.ts.write_jsonl(args.ts_out)
    return render_dashboard(sampler.ts, color=color)


def _cmd_explain(args: argparse.Namespace) -> str:
    from repro.obs import (
        ProviderLoadObservatory,
        attribute_trace,
        read_jsonl,
        render_attribution,
        run_fault_storm_report,
    )

    if args.trace:
        # Offline: attribute a saved JSON-lines trace.  No observatory — the
        # live load gauges only exist during a run; the analyzer still
        # derives per-provider busy/critical/wasted seconds from the spans.
        return render_attribution(
            attribute_trace(read_jsonl(args.trace)), top=args.top
        )
    observatory = ProviderLoadObservatory()
    _, tracer = run_fault_storm_report(seed=args.seed, observatory=observatory)
    if args.trace_out:
        tracer.write_jsonl(args.trace_out)
    return render_attribution(
        attribute_trace(tracer.records), top=args.top, observatory=observatory
    )


def _cmd_maintain(args: argparse.Namespace) -> str:
    from repro.maintenance.drill import run_maintenance_drill

    out = run_maintenance_drill(
        seed=args.seed,
        repair_rate_bytes_per_s=(
            args.repair_rate * MB if args.repair_rate > 0 else None
        ),
    )
    s = out["summary"]
    rows = [
        ["Damage injected (sites)", s["injected"]],
        ["Damage detected by scrub", s["detected"]],
        ["Detection rate", f"{s['detection_rate']:.0%}"],
        ["Scrub cycles", s["scrub_cycles"]],
        ["Bytes digest-verified", f"{s['scrub_bytes_verified'] / MB:.1f} MB"],
        ["Repairs completed", s["repairs_completed"]],
        ["Repair traffic", f"{s['repair_bytes'] / MB:.1f} MB"],
        ["Budget throttle events", s["repair_throttled"]],
        ["Mean time to full redundancy", f"{s['mttr_mean_s']:.1f} s"],
        ["Live migrations (decommission)", s["migrations_completed"]],
        ["Migration traffic", f"{s['migration_bytes'] / MB:.1f} MB"],
        ["Residual findings after repair", s["residual_findings"]],
        ["Provider fully evacuated", "yes" if s["decommission_evacuated"] else "NO"],
        ["All bytes read back intact", "yes" if s["read_back_ok"] else "NO"],
        ["Foreground p95 latency", f"{s['foreground_p95_s']:.3f} s"],
        ["Simulated time", f"{s['sim_time_s']:.0f} s"],
    ]
    return render_table(
        ["Maintenance drill", "Value"],
        rows,
        title=(
            "Maintenance plane — scrub / budgeted repair / live migration "
            f"(seed {args.seed})"
        ),
    )


def _cmd_serve(args: argparse.Namespace) -> str:
    from repro.service import run_service_drill

    report = run_service_drill(
        seed=args.seed,
        tenants=args.tenants,
        frontends=args.frontends,
        mode=args.mode,
        skew=args.skew,
        queue_limit=args.queue_limit,
        offered_load=args.offered_load,
        ops_quota_factor=args.ops_quota,
    )
    rows = [
        ["Mode / tenants / frontends",
         f"{report['mode']} / {report['tenants']} / {report['frontends']}"],
        ["Requests submitted", report["submitted_total"]],
        ["Requests admitted", report["admitted_total"]],
        ["Requests shed", f"{report['shed_total']} ({report['shed_fraction']:.1%})"],
        ["Aggregate throughput", f"{report['aggregate_ops_per_s']:.2f} ops/s"],
        ["Jain fairness (admitted)", f"{report['fairness_index']:.4f}"],
        ["DRR rounds", report["drr_rounds"]],
        ["Ops/s quota deferrals", report["quota_deferrals"]],
        ["Frontend failures", report["frontend_failures"]],
        ["Read availability", f"{report['slo']['read_availability']:.4%}"],
        ["Simulated time", f"{report['sim_elapsed']:.1f} s"],
    ]
    if report["capacity_ops_per_s"] is not None:
        rows.insert(
            5, ["Measured capacity", f"{report['capacity_ops_per_s']:.2f} ops/s"]
        )
    for reason, n in sorted(report["shed_by_reason"].items()):
        rows.append([f"  shed: {reason}", n])
    return render_table(
        ["Service plane drill", "Value"],
        rows,
        title=(
            f"Multi-tenant service plane — {report['tenants']} tenants, "
            f"skew {report['skew']:g}:1 (seed {report['seed']})"
        ),
    )


def _cmd_lockin(args: argparse.Namespace) -> str:
    from repro.analysis.lockin import switching_cost_report

    rows = [
        [sc.scheme, sc.departed, sc.egress_cost, ", ".join(sc.read_from)]
        for sc in switching_cost_report()
    ]
    return render_table(
        ["Scheme", "Departing", "Exit $/GB", "Re-seed read from"],
        rows,
        title="Vendor lock-in — cost of abandoning one provider (§II-A)",
        floatfmt=".4f",
    )


def _cmd_chaos(args: argparse.Namespace) -> str:
    import json

    from repro.chaos import INVARIANTS, run_campaign

    schemes = tuple(s for s in args.schemes.split(",") if s) if args.schemes else None
    report = run_campaign(
        schemes=schemes,
        episodes=args.episodes,
        base_seed=args.seed,
        check_determinism=args.check_determinism,
    )
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, sort_keys=True, indent=2)
            fh.write("\n")
    by_scheme: dict[str, dict] = {}
    for ep in report["episodes"]:
        row = by_scheme.setdefault(
            ep["scheme"],
            {"episodes": 0, "crashes": 0, "degraded": 0, "violations": 0},
        )
        row["episodes"] += 1
        row["crashes"] += len(ep["crashes"]["fired"])
        row["degraded"] += ep["workload"]["degraded_reads"]
        row["violations"] += sum(
            len(ep["invariants"][name]["violations"]) for name in INVARIANTS
        )
    rows = [
        [name, row["episodes"], row["crashes"], row["degraded"], row["violations"],
         "ok" if row["violations"] == 0 else "VIOLATED"]
        for name, row in by_scheme.items()
    ]
    table = render_table(
        ["Scheme", "Episodes", "Crashes", "Degraded reads", "Violations", "Verdict"],
        rows,
        title=(
            f"Chaos campaign — {report['totals']['episodes']} episodes, "
            f"base seed {args.seed}"
        ),
    )
    footer = []
    if args.check_determinism:
        drift = report["determinism_drift"]
        footer.append(
            "determinism: drift in "
            + ", ".join(f"{d['scheme']}@{d['seed']}" for d in drift)
            if drift
            else "determinism: byte-identical re-runs"
        )
    footer.append(
        "campaign OK" if report["ok"] else "campaign FAILED — see violations above"
    )
    return table + "\n" + "\n".join(footer)


_COMMANDS = {
    "chaos": _cmd_chaos,
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "fig3": _cmd_fig3,
    "fig4": _cmd_fig4,
    "fig5": _cmd_fig5,
    "fig6": _cmd_fig6,
    "threshold": _cmd_threshold,
    "replication": _cmd_replication,
    "codec": _cmd_codec,
    "degraded": _cmd_degraded,
    "whatif": _cmd_whatif,
    "availability": _cmd_availability,
    "lockin": _cmd_lockin,
    "maintain": _cmd_maintain,
    "serve": _cmd_serve,
    "report": _cmd_report,
    "watch": _cmd_watch,
    "explain": _cmd_explain,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate HyRD (IPDPS'15) experiments on the simulated Cloud-of-Clouds.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS), help="experiment to run")
    parser.add_argument("--seed", type=int, default=0, help="experiment seed")
    parser.add_argument(
        "--extended",
        action="store_true",
        help="fig6: include the DepSky and NCCloud baselines",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help="report/explain: also write the run's JSON-lines trace to PATH",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="explain: attribute a previously saved JSON-lines trace "
        "instead of running the fault storm",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=5,
        help="explain: rows in the slow-op digest (default 5)",
    )
    parser.add_argument(
        "--from-trace",
        metavar="PATH",
        help="report: re-render a previously saved JSON-lines trace "
        "instead of running the fault storm",
    )
    parser.add_argument(
        "--from",
        dest="from_ts",
        metavar="PATH",
        help="watch: render the dashboard from a saved time-series file "
        "instead of running live",
    )
    parser.add_argument(
        "--ts-out",
        metavar="PATH",
        help="watch: export the run's metric time series as JSON-lines",
    )
    parser.add_argument(
        "--cadence",
        type=float,
        default=60.0,
        help="watch: sampling cadence in simulated seconds (default 60)",
    )
    parser.add_argument(
        "--tenants",
        type=int,
        default=8,
        help="serve: tenant population (default 8)",
    )
    parser.add_argument(
        "--frontends",
        type=int,
        default=2,
        help="serve: frontend service nodes (default 2)",
    )
    parser.add_argument(
        "--mode",
        choices=("closed", "open"),
        default="closed",
        help="serve: closed loop (one outstanding per tenant) or open loop "
        "(scheduled arrivals that exercise shedding; default closed)",
    )
    parser.add_argument(
        "--skew",
        type=float,
        default=1.0,
        help="serve: heaviest:lightest offered-load ratio, open mode (default 1)",
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=16,
        help="serve: per-tenant admission queue bound (default 16)",
    )
    parser.add_argument(
        "--offered-load",
        type=float,
        default=3.0,
        help="serve: open-mode arrivals as a multiple of measured capacity "
        "(default 3)",
    )
    parser.add_argument(
        "--ops-quota",
        type=float,
        default=None,
        help="serve: per-tenant ops/s quota as a multiple of the fair share "
        "of capacity, open mode (default: unlimited)",
    )
    parser.add_argument(
        "--repair-rate",
        type=float,
        default=4.0,
        help="maintain: repair/migration budget in MB per simulated second "
        "(0 = unthrottled, default 4)",
    )
    parser.add_argument(
        "--no-color",
        action="store_true",
        help="watch: disable ANSI colors in the dashboard",
    )
    parser.add_argument(
        "--episodes",
        type=int,
        default=8,
        help="chaos: episodes per scheme (default 8)",
    )
    parser.add_argument(
        "--schemes",
        metavar="A,B,...",
        help="chaos: comma-separated scheme subset (default: all)",
    )
    parser.add_argument(
        "--check-determinism",
        action="store_true",
        help="chaos: re-run each scheme's first episode and fail on any "
        "byte-level report drift",
    )
    parser.add_argument(
        "--json-out",
        metavar="PATH",
        help="chaos: also write the full campaign report as JSON to PATH",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    print(_COMMANDS[args.command](args))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
