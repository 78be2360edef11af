"""Experiment runners — one per table/figure of the paper.

Each ``run_*`` function is deterministic given its seed, returns structured
results, and is wrapped by a benchmark in ``benchmarks/`` that prints the
same rows/series the paper reports and asserts the expected *shape*
(orderings and rough factors, not absolute numbers).
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.cloud.latency import ClientLink
from repro.cloud.pricing import CATEGORIES, PRICE_PLANS, ProviderCategory
from repro.cloud.provider import (
    TABLE2_LATENCY,
    SimulatedProvider,
    make_table2_cloud_of_clouds,
)
from repro.core.config import HyRDConfig
from repro.cost.simulator import CostRunResult, CostSimulator
from repro.faults import OutageWindow
from repro.metrics.collector import LatencyCollector
from repro.schemes import (
    DURACLOUD_PAIR,
    SINGLE_PROVIDERS,
    HyrdScheme,
    Scheme,
    build_scheme,
)
from repro.sim.clock import SimClock
from repro.sim.rng import make_rng
from repro.workloads.filesizes import MediaLibraryFileSizes
from repro.workloads.ia_trace import IATrace, IATraceConfig, synthesize_ia_trace
from repro.workloads.postmark import PostMarkConfig, generate_postmark
from repro.workloads.trace import TraceOp, TraceReplayer

__all__ = [
    "SINGLE_PROVIDERS",
    "DURACLOUD_PAIR",
    "Fig4Results",
    "Fig5Results",
    "Fig6Results",
    "coc_factories",
    "default_ia_config",
    "default_postmark_config",
    "map_cells",
    "run_fig3",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_recovery_drill",
    "run_table1",
    "run_table2",
]

KB = 1024
MB = 1024 * 1024

SchemeFactory = Callable[[dict[str, SimulatedProvider], SimClock], Scheme]


def default_postmark_config() -> PostMarkConfig:
    """Figure 6's PostMark setup: 1 KB - 100 MB files, mixed transactions."""
    return PostMarkConfig(file_pool=40, transactions=160, size_lo=1 * KB, size_hi=100 * MB)


def default_ia_config() -> IATraceConfig:
    """Figure 3/4's trace, scaled 1:8 in object size (ratios preserved).

    ``scale_factor`` re-inflates the printed bills to the magnitude of the
    real Internet Archive volume (the paper's Fig. 3 shows ~10 TB/month
    against our ~45 MB/month simulated stream).
    """
    return IATraceConfig(
        months=12,
        writes_per_month=12,
        sizes=MediaLibraryFileSizes(scale=0.125),
        scale_factor=1.0,
    )


def coc_factories(extended: bool = False, hyrd_config: HyRDConfig | None = None) -> dict[str, SchemeFactory]:
    """Factories for the Cloud-of-Clouds schemes of Figures 4 and 6."""
    names = ["duracloud", "racs", "hyrd"]
    if extended:
        names += ["depsky", "depsky-ca", "nccloud"]
    factories = {name: _factory(name) for name in names}
    factories["hyrd"] = lambda p, c: build_scheme("hyrd", p, c, config=hyrd_config)
    return factories


def _factory(name: str) -> SchemeFactory:
    """Factory for what :func:`~repro.schemes.build_scheme` calls ``name``.
    Factories are closures and do not pickle, so parallel workers receive
    the *name* of their cell's scheme and resolve it locally."""
    return lambda providers, clock: build_scheme(name, providers, clock)


single_factory = _factory  # ``name`` is a provider's: that cloud alone


# ------------------------------------------------------- parallel sweep cells
def map_cells(
    fn: Callable,
    tasks: Iterable,
    parallel: bool = False,
    max_workers: int | None = None,
) -> list:
    """Run independent sweep cells serially or across worker processes.

    Every cell builds its own clock, fleet, and RNG streams from its task
    tuple, so cells share no state and their results do not depend on
    execution order.  ``ProcessPoolExecutor.map`` preserves input order,
    which makes the parallel merge *byte-identical* to the serial loop —
    enforced by ``tests/test_analysis_parallel.py``.  ``fn`` must be a
    module-level function and every task picklable.
    """
    tasks = list(tasks)
    if not parallel or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor

    workers = max_workers if max_workers is not None else (os.cpu_count() or 1)
    workers = max(1, min(workers, len(tasks)))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


# --------------------------------------------------------------------- Fig 3
def run_fig3(seed: int = 0, config: IATraceConfig | None = None) -> IATrace:
    """Synthesize the IA trace and return it with its monthly statistics."""
    config = config or default_ia_config()
    return synthesize_ia_trace(config, make_rng(seed, "ia-trace"))


# --------------------------------------------------------------------- Fig 4
@dataclass
class Fig4Results:
    """Cost simulation output for every Figure 4 scheme."""

    results: dict[str, CostRunResult] = field(default_factory=dict)

    def cumulative(self, scheme: str) -> float:
        return self.results[scheme].grand_total

    def savings_vs(self, scheme: str, baseline: str) -> float:
        """Fractional saving of ``scheme`` against ``baseline`` (positive = cheaper)."""
        base = self.cumulative(baseline)
        if base == 0:
            return 0.0
        return 1.0 - self.cumulative(scheme) / base


def run_fig4(
    seed: int = 0,
    config: IATraceConfig | None = None,
    extended: bool = False,
) -> Fig4Results:
    """Monthly + cumulative costs for the seven Figure 4 configurations."""
    trace = run_fig3(seed, config)
    sim = CostSimulator(trace, seed=seed)
    out = Fig4Results()
    for name in SINGLE_PROVIDERS:
        out.results[name] = sim.run(name, single_factory(name))
    for name, factory in coc_factories(extended=extended).items():
        out.results[name] = sim.run(name, factory)
    return out


# --------------------------------------------------------------------- Fig 5
@dataclass
class Fig5Results:
    """Read/write latency vs request size per single-cloud provider."""

    sizes: list[int]
    read: dict[str, list[float]]
    write: dict[str, list[float]]

    def knee_ratio(self, provider: str, lo: int = 1 * MB, hi: int = 4 * MB) -> float:
        """Latency growth from ``lo`` to ``hi`` (the 1 MB threshold evidence)."""
        r = self.read[provider]
        return r[self.sizes.index(hi)] / r[self.sizes.index(lo)]


def _fig5_cell(task: tuple) -> tuple[list[float], list[float]]:
    """One provider's latency-vs-size sweep (independent cell, picklable)."""
    name, seed, sizes, repeats, link = task
    latency = TABLE2_LATENCY[name]
    rng = make_rng(seed, "fig5", name)
    read: list[float] = []
    write: list[float] = []
    for size in sizes:
        r_samples = [
            link.elapsed(downloads=[latency.download_spec(size, rng)])
            for _ in range(repeats)
        ]
        w_samples = [
            link.elapsed(uploads=[latency.upload_spec(size, rng)])
            for _ in range(repeats)
        ]
        read.append(float(np.mean(r_samples)))
        write.append(float(np.mean(w_samples)))
    return read, write


def run_fig5(
    seed: int = 0,
    sizes: list[int] | None = None,
    repeats: int = 3,
    link: ClientLink | None = None,
    parallel: bool = False,
    max_workers: int | None = None,
) -> Fig5Results:
    """Raw request latency per provider as a function of request size.

    Measures what the paper measures: a single Get/Put of each size against
    each provider (mean of ``repeats`` runs with jitter), no metadata
    machinery in the way.  Each provider draws jitter from its own RNG
    stream (``make_rng(seed, "fig5", name)``), so the per-provider cells are
    order-independent and ``parallel=True`` farms them out to worker
    processes with results identical to the serial loop.
    """
    sizes = sizes or [4 * KB, 16 * KB, 64 * KB, 256 * KB, 1 * MB, 4 * MB]
    link = link or ClientLink()
    tasks = [(name, seed, tuple(sizes), repeats, link) for name in SINGLE_PROVIDERS]
    cells = map_cells(_fig5_cell, tasks, parallel, max_workers)
    read = {name: cell[0] for name, cell in zip(SINGLE_PROVIDERS, cells)}
    write = {name: cell[1] for name, cell in zip(SINGLE_PROVIDERS, cells)}
    return Fig5Results(sizes=list(sizes), read=read, write=write)


# --------------------------------------------------------------------- Fig 6
@dataclass
class Fig6Results:
    """Mean access latency per scheme, normal state and outage state."""

    normal: dict[str, float] = field(default_factory=dict)
    outage: dict[str, float] = field(default_factory=dict)
    degraded_fraction: dict[str, float] = field(default_factory=dict)
    baseline: str = "amazon_s3"

    def normalized(self, state: str = "normal") -> dict[str, float]:
        """Latencies normalised to single-cloud Amazon S3's normal state."""
        base = self.normal[self.baseline]
        series = self.normal if state == "normal" else self.outage
        return {k: v / base for k, v in series.items()}

    def improvement(self, scheme: str, other: str, state: str = "normal") -> float:
        """Fractional latency reduction of ``scheme`` vs ``other``."""
        series = self.normal if state == "normal" else self.outage
        return 1.0 - series[scheme] / series[other]


def _run_postmark_once(
    factory: SchemeFactory,
    setup_ops: list[TraceOp],
    txn_ops: list[TraceOp],
    seed: int,
    outage_provider: str | None,
) -> tuple[LatencyCollector, Scheme]:
    """One PostMark run; the outage (if any) begins after the setup phase,
    matching the paper's method of taking Azure offline *during* the
    benchmark rather than before the data exists."""
    clock = SimClock()
    providers = make_table2_cloud_of_clouds(clock)
    scheme = factory(providers, clock)
    replayer = TraceReplayer(seed=seed)
    replayer.run(scheme, setup_ops)
    if outage_provider is not None:
        providers[outage_provider].faults.add(OutageWindow(clock.now))
    collector = replayer.run(scheme, txn_ops)
    return collector, scheme


def _fig6_cell(task: tuple) -> tuple[float, float]:
    """One (scheme, state, rep) PostMark run (independent cell, picklable).

    Returns ``(mean access latency, degraded fraction)``.
    """
    name, cell_seed, setup_ops, txn_ops, outage_provider = task
    collector, _ = _run_postmark_once(
        _factory(name), setup_ops, txn_ops, cell_seed, outage_provider
    )
    return _mean_access_latency(collector), collector.degraded_fraction()


def run_fig6(
    seed: int = 0,
    config: PostMarkConfig | None = None,
    outage_provider: str = "azure",
    extended: bool = False,
    repeats: int = 1,
    parallel: bool = False,
    max_workers: int | None = None,
) -> Fig6Results:
    """Access latency of every scheme, normal and single-outage states.

    Every (scheme, state, repetition) cell builds its own fleet and clock
    from the cell seed, so the sweep is embarrassingly parallel:
    ``parallel=True`` runs the cells in worker processes and the ordered
    merge reproduces the serial output exactly.
    """
    config = config or default_postmark_config()
    ops = generate_postmark(config, make_rng(seed, "postmark"))
    setup_ops, txn_ops = ops[: config.file_pool], ops[config.file_pool :]

    results = Fig6Results(baseline="amazon_s3")
    coc_names = list(coc_factories(extended=extended))
    all_names = list(SINGLE_PROVIDERS) + coc_names

    tasks = [
        (name, seed + rep, setup_ops, txn_ops, None)
        for name in all_names
        for rep in range(repeats)
    ]
    # Outage state: only the Cloud-of-Clouds schemes survive a provider loss
    # (that is the point of the paper); singles are omitted like in Fig. 6.
    tasks += [
        (name, seed + rep, setup_ops, txn_ops, outage_provider)
        for name in coc_names
        for rep in range(repeats)
    ]
    cells = iter(map_cells(_fig6_cell, tasks, parallel, max_workers))

    for name in all_names:
        normal_means = [next(cells)[0] for _ in range(repeats)]
        results.normal[name] = float(np.mean(normal_means))
    for name in coc_names:
        reps = [next(cells) for _ in range(repeats)]
        results.outage[name] = float(np.mean([mean for mean, _ in reps]))
        results.degraded_fraction[name] = max(frac for _, frac in reps)
    return results


def _mean_access_latency(collector: LatencyCollector) -> float:
    """Mean over user-visible accesses (heals/promotions run in background)."""
    samples = [
        r.elapsed for r in collector.reports if r.op not in ("heal", "promote")
    ]
    return float(np.mean(samples)) if samples else 0.0


# ------------------------------------------------------------------ recovery
def run_recovery_drill(
    seed: int = 0,
    config: PostMarkConfig | None = None,
    outage_provider: str = "azure",
) -> dict[str, object]:
    """§III-C's two-phase recovery, end to end, on HyRD.

    Phase 1: run transactions while a provider is out (degraded reads +
    write logging).  Phase 2: the provider returns; the consistency update
    replays the log.  Returns measured evidence for both phases.
    """
    config = config or PostMarkConfig(
        file_pool=20, transactions=80, size_lo=1 * KB, size_hi=8 * MB
    )
    ops = generate_postmark(config, make_rng(seed, "recovery-postmark"))
    setup_ops, txn_ops = ops[: config.file_pool], ops[config.file_pool :]

    clock = SimClock()
    providers = make_table2_cloud_of_clouds(clock)
    scheme = HyrdScheme(list(providers.values()), clock)
    replayer = TraceReplayer(seed=seed)
    replayer.run(scheme, setup_ops)

    outage_start = clock.now
    window = OutageWindow(outage_start, outage_start + 6 * 3600.0)
    providers[outage_provider].faults.add(window)
    during = replayer.run(scheme, txn_ops)
    logged = len(scheme.pending_log(outage_provider))

    # Provider returns: jump past the window and run the consistency update.
    if clock.now < window.end:
        clock.advance_to(window.end)
    heal_reports = scheme.heal_returned()
    log_after = len(scheme.pending_log(outage_provider))

    # Verify: every file still reads back, with no degradation.
    post = replayer.run(
        scheme, [TraceOp("get", p) for p in scheme.namespace.paths()]
    )
    return {
        "scheme": scheme,
        "during_mean_latency": _mean_access_latency(during),
        "degraded_fraction": during.degraded_fraction(),
        "logged_writes": logged,
        "heal_reports": heal_reports,
        "log_after_heal": log_after,
        "post_mean_latency": _mean_access_latency(post),
        "post_degraded_fraction": post.degraded_fraction(),
    }


# -------------------------------------------------------------------- tables
def run_table2() -> list[list[object]]:
    """Table II rows: the price plans plus the category classification."""
    rows: list[list[object]] = []
    for name in SINGLE_PROVIDERS:
        plan = PRICE_PLANS[name]
        cat = CATEGORIES[name]
        label = {
            ProviderCategory.COST_ORIENTED: "Cost-oriented",
            ProviderCategory.PERFORMANCE_ORIENTED: "Performance-oriented",
            ProviderCategory.BOTH: "Both",
        }[cat]
        rows.append(
            [
                name,
                plan.storage_gb_month,
                plan.data_out_gb,
                plan.tier1_per_10k,
                plan.tier2_per_10k,
                label,
            ]
        )
    return rows


def _degraded_read_fanout(name: str, factory: SchemeFactory, seed: int) -> int:
    """How many providers one degraded read touches (recovery difficulty).

    Replication fetches the surviving copy from a single provider;
    erasure-coded schemes must contact k surviving providers and
    reconstruct — Table I's Easy/Hard distinction, measured.
    """
    clock = SimClock()
    providers = make_table2_cloud_of_clouds(clock)
    scheme = factory(providers, clock)
    replayer = TraceReplayer(seed=seed)
    replayer.run(scheme, [TraceOp("put", "/t/large.bin", size=4 * MB)])
    entry = scheme.namespace.get("/t/large.bin")
    victim = entry.providers[0]
    providers[victim].faults.add(OutageWindow(clock.now, clock.now + 60.0))
    _data, report = scheme.get("/t/large.bin")
    return len(report.providers)


def run_table1(
    fig4: Fig4Results | None = None,
    fig6: Fig6Results | None = None,
    seed: int = 0,
) -> list[list[object]]:
    """Table I, with the qualitative cells backed by measured numbers.

    Redundancy is the scheme's design; recovery difficulty is the measured
    degraded-read fan-out (providers contacted to serve a read during an
    outage — 1 for replication, k for erasure codes); performance and cost
    carry the measured Fig. 6 normal-state latency and Fig. 4 cumulative
    bill.
    """
    fig6 = fig6 or run_fig6(seed)
    fig4 = fig4 or run_fig4(seed)
    static = {
        "racs": "Erasure Codes",
        "duracloud": "Replication",
        "hyrd": "Replication + erasure code",
    }
    factories = coc_factories()
    rows: list[list[object]] = []
    for scheme in ("racs", "duracloud", "hyrd"):
        fanout = _degraded_read_fanout(scheme, factories[scheme], seed)
        recovery = "Hard" if fanout >= 3 else "Easy"
        rows.append(
            [
                scheme,
                static[scheme],
                f"{recovery} ({fanout} providers per degraded read)",
                fig6.normal[scheme],
                fig4.cumulative(scheme),
            ]
        )
    return rows
