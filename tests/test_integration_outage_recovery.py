"""Integration tests: the full §III-C recovery story, end to end.

A provider goes dark mid-workload; reads degrade gracefully, writes are
logged; the provider returns; the consistency update replays the log; the
system is verifiably consistent and no longer degraded.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.analysis.experiments import run_recovery_drill
from repro.cloud.provider import make_table2_cloud_of_clouds
from repro.faults import OutageWindow
from repro.schemes import DuraCloudScheme, HyrdScheme, RacsScheme
from repro.sim.clock import SimClock
from repro.workloads.postmark import PostMarkConfig, generate_postmark
from repro.workloads.trace import TraceReplayer

KB, MB = 1024, 1024 * 1024


def _postmark_run(scheme_builder, outage_provider, seed=3):
    clock = SimClock()
    providers = make_table2_cloud_of_clouds(clock)
    scheme = scheme_builder(providers, clock)
    config = PostMarkConfig(file_pool=12, transactions=50, size_hi=4 * MB)
    ops = generate_postmark(config, np.random.default_rng(seed))
    replayer = TraceReplayer(seed=seed)
    replayer.run(scheme, ops[: config.file_pool])

    window = OutageWindow(clock.now, clock.now + 4 * 3600.0)
    providers[outage_provider].faults.add(window)
    during = replayer.run(scheme, ops[config.file_pool :])

    clock.advance_to(window.end)
    heal = scheme.heal_returned()
    return scheme, providers, during, heal


@pytest.mark.parametrize(
    "builder,outage",
    [
        (lambda p, c: HyrdScheme(list(p.values()), c), "azure"),
        (lambda p, c: RacsScheme(list(p.values()), c), "azure"),
        (lambda p, c: DuraCloudScheme([p["amazon_s3"], p["azure"]], c), "azure"),
    ],
    ids=["hyrd", "racs", "duracloud"],
)
class TestOutageRecoveryLifecycle:
    def test_service_continuous_through_outage(self, builder, outage):
        scheme, _, during, _ = _postmark_run(builder, outage)
        # Every op during the outage completed (replayer verifies content).
        assert len(during) > 0

    def test_log_drains_on_heal(self, builder, outage):
        scheme, _, _, heal = _postmark_run(builder, outage)
        assert len(scheme.pending_log(outage)) == 0
        if heal:  # schemes that buffered writes actually replayed them
            assert all(r.op == "heal" for r in heal)

    def test_no_degradation_after_recovery(self, builder, outage):
        scheme, _, _, _ = _postmark_run(builder, outage)
        for path in scheme.namespace.paths():
            _, report = scheme.get(path)
            assert not report.degraded

    def test_returned_provider_fully_consistent(self, builder, outage):
        """Spot-check: every fragment the placement says the healed provider
        holds must exist there with current-version content."""
        scheme, providers, _, _ = _postmark_run(builder, outage)
        store = providers[outage].store
        for path in scheme.namespace.paths():
            entry = scheme.namespace.get(path)
            if outage not in entry.providers:
                continue
            key = scheme._placement_storage_key(
                entry, entry.fragment_index(outage)
            )
            assert store.has(scheme.container, key), (path, key)


class TestRecoveryDrillExperiment:
    def test_drill_end_to_end(self):
        result = run_recovery_drill(seed=1)
        assert result["logged_writes"] >= 0
        assert result["log_after_heal"] == 0
        assert result["post_degraded_fraction"] == 0.0
        # Post-recovery latency should not be catastrophically worse.
        assert result["post_mean_latency"] < 10.0


#: every provider out over [10, 500); writes during the window are logged
#: on all four, and the first put after it heals all four inline
_INLINE_HEAL_SCENARIO = """
import hashlib
from repro.cloud.provider import make_table2_cloud_of_clouds
from repro.faults import FaultProfile, OutageWindow
from repro.obs.trace import RecordingTracer
from repro.schemes import RacsScheme
from repro.sim.clock import SimClock

clock = SimClock()
names = ("amazon_s3", "azure", "aliyun", "rackspace")
fleet = make_table2_cloud_of_clouds(
    clock, faults={n: FaultProfile([OutageWindow(10.0, 500.0)]) for n in names}
)
tracer = RecordingTracer(clock)
scheme = RacsScheme(list(fleet.values()), clock, tracer=tracer)
payload = bytes(range(256)) * 1200  # 300 KB
scheme.put("/f", payload)
clock.advance_to(20.0)
for i in range(4):
    try:
        scheme.get("/f")
    except Exception:
        pass
    scheme.put(f"/g{i}", payload)
clock.advance_to(2000.0)
report = scheme.put("/h", payload)
assert all(not scheme.pending_log(n) for n in names)
print(repr(report.elapsed), hashlib.sha256(tracer.to_jsonl().encode()).hexdigest())
"""


class TestHashSeedDeterminism:
    def test_inline_heals_and_breaker_gates_follow_placement_order(self):
        """Same seed, any ``PYTHONHASHSEED``: same latency, same trace.

        Each inline heal draws from the scheme's RNG and advances the clock,
        and a phase's breaker gates fire listeners and metric events, so
        neither may walk a ``set`` of provider names — string hashes are
        salted per process.
        """
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        lines = []
        for hash_seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-c", _INLINE_HEAL_SCENARIO],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            lines.append(done.stdout.strip())
        assert lines[0] and lines[0] == lines[1] == lines[2]
