"""Integration tests: the full §III-C recovery story, end to end.

A provider goes dark mid-workload; reads degrade gracefully, writes are
logged; the provider returns; the consistency update replays the log; the
system is verifiably consistent and no longer degraded.
"""

import numpy as np
import pytest

from repro.analysis.experiments import run_recovery_drill
from repro.cloud.outage import OutageWindow
from repro.cloud.provider import make_table2_cloud_of_clouds
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
    providers[outage_provider].outages.add(window)
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
