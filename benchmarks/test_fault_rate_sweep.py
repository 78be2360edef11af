"""Extension — the retry tax: latency vs per-request fault rate.

Sweeps the fleet-wide transient-failure rate and measures each scheme's
mean operation latency.  Correctness never moves (that is what the retries
and the write log guarantee); what the user pays is latency — and the slope
differs by scheme, because every retry costs one round trip to whichever
provider failed, and the schemes talk to different numbers of providers per
operation.
"""

import math

import numpy as np
import pytest

from repro.analysis.charts import line_chart
from repro.analysis.tables import render_table
from repro.cloud.provider import make_table2_cloud_of_clouds
from repro.core.config import HyRDConfig
from repro.core.resilience import ResilienceConfig
from repro.faults import TransientErrorBurst
from repro.schemes import DuraCloudScheme, HyrdScheme, RacsScheme
from repro.sim.clock import SimClock
from repro.sim.rng import make_rng
from repro.workloads.postmark import PostMarkConfig, generate_postmark
from repro.workloads.trace import TraceReplayer

KB, MB = 1024, 1024 * 1024
RATES = [0.0, 0.05, 0.1, 0.2]

# Backoff ablation: same scheme, same retry attempts, but the exponential
# waits between attempts are zeroed out.
_NO_BACKOFF_CONFIG = HyRDConfig(
    resilience=ResilienceConfig(retry=ResilienceConfig().retry.without_backoff())
)


def _mean_latency(builder, rate, seed=0):
    clock = SimClock()
    fleet = make_table2_cloud_of_clouds(clock)
    for p in fleet.values():
        p.faults.add(TransientErrorBurst(0.0, math.inf, rate=rate))
    scheme = builder(fleet, clock)
    config = PostMarkConfig(file_pool=15, transactions=60, size_hi=8 * MB)
    ops = generate_postmark(config, make_rng(seed, "fault-sweep"))
    collector = TraceReplayer(seed=seed).run(scheme, ops, heal_between=True)
    user_ops = [r.elapsed for r in collector.reports if r.op not in ("heal",)]
    return float(np.mean(user_ops))


def test_latency_vs_fault_rate(benchmark, emit):
    builders = {
        "duracloud": lambda p, c: DuraCloudScheme([p["amazon_s3"], p["azure"]], c),
        "racs": lambda p, c: RacsScheme(list(p.values()), c),
        "hyrd": lambda p, c: HyrdScheme(list(p.values()), c),
        "hyrd-nobackoff": lambda p, c: HyrdScheme(
            list(p.values()), c, config=_NO_BACKOFF_CONFIG
        ),
    }

    def experiment():
        return {
            name: [_mean_latency(builder, rate) for rate in RATES]
            for name, builder in builders.items()
        }

    series = benchmark.pedantic(experiment, rounds=1, iterations=1)

    rows = [
        [f"{rate:.0%}"] + [series[name][i] for name in builders]
        for i, rate in enumerate(RATES)
    ]
    emit(
        render_table(
            ["Fault rate"] + list(builders),
            rows,
            title="Mean op latency (s) vs per-request transient fault rate",
        )
        + "\n\n"
        + line_chart(
            [f"{r:.0%}" for r in RATES],
            series,
            title="The retry tax (content correctness verified throughout)",
        )
    )

    for name, values in series.items():
        # Latency rises with the fault rate; correctness was verified inline
        # by the replayer at every point.
        assert values[-1] > values[0], name
        # The tax stays bounded: 20% faults cost < 2.5x the clean latency.
        assert values[-1] < 2.5 * values[0], name
    # HyRD remains the fastest scheme at every fault rate.
    for i in range(len(RATES)):
        assert series["hyrd"][i] < series["racs"][i]
        assert series["hyrd"][i] < series["duracloud"][i]
    # Backoff ablation: the waits are the only difference, so with no faults
    # the two HyRD columns are identical, and under faults the no-backoff
    # variant is never slower (it pays retry round trips but never sleeps).
    assert series["hyrd-nobackoff"][0] == pytest.approx(series["hyrd"][0])
    for i in range(len(RATES)):
        assert series["hyrd-nobackoff"][i] <= series["hyrd"][i]
    assert series["hyrd-nobackoff"][-1] < series["hyrd"][-1]
