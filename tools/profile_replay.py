#!/usr/bin/env python
"""Profile the trace-replay hot path with cProfile.

Replays a scripted trace through a scheme on the Table II fleet under
cProfile and prints the top-N functions by cumulative time — the first stop
when replay throughput regresses (see ``docs/performance.md`` for the
workflow and the current hot-path inventory).  The IA trace (the default)
is write-once/read-many; ``--trace postmark`` is the update-heavy coded mix
of ``perfbench``'s ``outage_coded`` (without its outage), the only one that
reaches coded updates, RS and — with ``--scheme nccloud`` — FMSR.

Usage::

    PYTHONPATH=src python tools/profile_replay.py                  # fig3-scale HyRD replay
    PYTHONPATH=src python tools/profile_replay.py --months 3 --top 40
    PYTHONPATH=src python tools/profile_replay.py --scheme racs --sort tottime
    PYTHONPATH=src python tools/profile_replay.py --out replay.pstats  # for snakeviz etc.
    PYTHONPATH=src python tools/profile_replay.py --attribution  # + sim-time phase table
    PYTHONPATH=src python tools/profile_replay.py --scheme nccloud --trace postmark \\
        --size-lo 1048576 --size-hi 2097152 --sort tottime       # FMSR puts and coded updates
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:  # allow running without PYTHONPATH=src
    sys.path.insert(0, str(ROOT / "src"))

MB = 1 << 20
#: the ``--trace postmark`` shape: perfbench's ``outage_coded`` pool,
#: transaction count and mix (median op firmly inside the coded writes)
POSTMARK_POOL = 24
POSTMARK_TRANSACTIONS = 160
POSTMARK_MIX = (("get", 0.35), ("update", 0.30), ("put", 0.25), ("remove", 0.10))


def build_replay(
    scheme_name: str,
    months: int,
    writes_per_month: int,
    seed: int,
    trace: bool = False,
    workload: str = "ia",
    size_lo: int = 1 * MB,
    size_hi: int = 2 * MB,
):
    """Construct (scheme, ops, replayer) for one scripted replay.

    ``trace`` attaches a :class:`~repro.obs.trace.RecordingTracer` — used by
    ``--attribution`` (and the attribution test suite), never by the timed
    profiling run.  ``workload`` is ``ia`` (``months`` x
    ``writes_per_month``) or ``postmark`` (sizes log-uniform in
    ``[size_lo, size_hi]``).
    """
    from repro.analysis.experiments import run_fig3
    from repro.cloud.provider import make_table2_cloud_of_clouds
    from repro.obs import RecordingTracer
    from repro.schemes import build_scheme
    from repro.sim.clock import SimClock
    from repro.sim.rng import make_rng
    from repro.workloads.filesizes import LogUniformFileSizes, MediaLibraryFileSizes
    from repro.workloads.ia_trace import IATraceConfig
    from repro.workloads.postmark import PostMarkConfig, generate_postmark
    from repro.workloads.trace import TraceReplayer

    if workload == "postmark":
        ops = generate_postmark(
            PostMarkConfig(
                file_pool=POSTMARK_POOL,
                transactions=POSTMARK_TRANSACTIONS,
                size_lo=size_lo,
                size_hi=size_hi,
                sizes=LogUniformFileSizes(size_lo, size_hi),
                op_mix=POSTMARK_MIX,
            ),
            make_rng(seed, "profile-replay", "postmark"),
        )
    else:
        config = IATraceConfig(
            months=months,
            writes_per_month=writes_per_month,
            sizes=MediaLibraryFileSizes(scale=0.125),
        )
        ops = run_fig3(seed=seed, config=config).ops
    clock = SimClock()
    tracer = RecordingTracer(clock) if trace else None
    scheme = build_scheme(scheme_name, make_table2_cloud_of_clouds(clock), clock, tracer=tracer)
    return scheme, ops, TraceReplayer(seed=seed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scheme",
        choices=("hyrd", "hyrd-rs", "racs", "duracloud", "nccloud"),
        default="hyrd",
        help="scheme to replay through (default hyrd)",
    )
    parser.add_argument(
        "--trace",
        choices=("ia", "postmark"),
        default="ia",
        help="ia: the Fig. 3 write-once/read-many trace (default); postmark: "
        f"{POSTMARK_POOL}-file pool + {POSTMARK_TRANSACTIONS} transactions, "
        "get 35 / update 30 / put 25 / remove 10",
    )
    parser.add_argument(
        "--size-lo",
        type=int,
        default=1 * MB,
        help="postmark: smallest file in bytes (default 1 MiB)",
    )
    parser.add_argument(
        "--size-hi",
        type=int,
        default=2 * MB,
        help="postmark: largest file in bytes (default 2 MiB)",
    )
    parser.add_argument(
        "--months", type=int, default=12, help="IA trace months (default 12)"
    )
    parser.add_argument(
        "--writes-per-month",
        type=int,
        default=12,
        help="writes per month (default 12, the fig3 scale)",
    )
    parser.add_argument("--seed", type=int, default=0, help="run seed")
    parser.add_argument(
        "--top", type=int, default=25, help="rows of the profile table (default 25)"
    )
    parser.add_argument(
        "--sort",
        choices=("cumulative", "tottime", "ncalls"),
        default="cumulative",
        help="pstats sort key (default cumulative)",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="also dump raw pstats data to PATH",
    )
    parser.add_argument(
        "--attribution",
        action="store_true",
        help="re-run the replay traced (untimed) and print the critical-path "
        "phase table next to the cProfile output",
    )
    args = parser.parse_args(argv)

    shape = {
        "workload": args.trace,
        "size_lo": args.size_lo,
        "size_hi": args.size_hi,
    }
    scheme, ops, replayer = build_replay(
        args.scheme, args.months, args.writes_per_month, args.seed, **shape
    )
    detail = (
        f"months={args.months}, writes/month={args.writes_per_month}"
        if args.trace == "ia"
        else f"postmark sizes {args.size_lo}-{args.size_hi}"
    )
    print(
        f"profile-replay: {len(ops)} ops through {args.scheme} "
        f"({detail}, seed={args.seed})"
    )

    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    replayer.run(scheme, ops)
    profiler.disable()
    wall = time.perf_counter() - t0
    print(f"profile-replay: {wall:.3f}s wall ({len(ops) / wall:.1f} ops/s under profiler)")
    print()

    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort).print_stats(args.top)
    if args.out:
        stats.dump_stats(args.out)
        print(f"profile-replay: raw stats written to {args.out}")

    if args.attribution:
        # Separate traced run: cProfile measures host CPU, attribution
        # measures simulated wall-clock — mixing them would have the tracer's
        # overhead pollute the profile.  Same seed, so it is the same run.
        from repro.obs import attribute_trace, render_attribution

        scheme, ops, replayer = build_replay(
            args.scheme,
            args.months,
            args.writes_per_month,
            args.seed,
            trace=True,
            **shape,
        )
        replayer.run(scheme, ops)
        print()
        print(render_attribution(attribute_trace(scheme.tracer.records)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
