"""Tests for re-evaluation, migration and vendor decommissioning."""


from dataclasses import replace

import pytest

from repro.cloud.latency import LatencyModel
from repro.core.config import MB
from repro.core.dispatcher import RequestDispatcher
from repro.core.resilience import BREAKER_FAILURE_THRESHOLD
from repro.core.hyrd import HyRDClient


@pytest.fixture
def hyrd(providers, clock):
    return HyRDClient(list(providers.values()), clock)


class TestReevaluation:
    def test_reevaluate_tracks_provider_drift(self, hyrd, providers):
        assert hyrd.evaluator.performance_oriented() == ["aliyun", "azure"]
        # Aliyun's WAN path degrades badly overnight.
        providers["aliyun"].latency = LatencyModel(
            rtt=0.8, upload_bw=0.5e6, download_bw=0.5e6
        )
        hyrd.reevaluate()
        perf = hyrd.evaluator.performance_oriented()
        assert "aliyun" not in perf
        assert perf[0] == "azure"

    def test_new_writes_follow_new_classification(self, hyrd, providers, payload):
        providers["aliyun"].latency = LatencyModel(
            rtt=0.8, upload_bw=0.5e6, download_bw=0.5e6
        )
        hyrd.reevaluate()
        hyrd.put("/d/s", payload(4096))
        entry = hyrd.namespace.get("/d/s")
        assert "aliyun" not in entry.providers

    def test_old_files_still_readable_after_reevaluation(
        self, hyrd, providers, payload
    ):
        small, large = payload(4096), payload(2 * MB)
        hyrd.put("/d/s", small)
        hyrd.put("/d/l", large)
        providers["aliyun"].latency = LatencyModel(
            rtt=0.8, upload_bw=0.5e6, download_bw=0.5e6
        )
        hyrd.reevaluate()
        assert hyrd.get("/d/s")[0] == small
        assert hyrd.get("/d/l")[0] == large


class TestMisplacement:
    def test_fresh_files_not_misplaced(self, hyrd, payload):
        hyrd.put("/d/s", payload(4096))
        hyrd.put("/d/l", payload(2 * MB))
        assert hyrd.misplaced_paths() == []

    def test_drift_marks_files_misplaced(self, hyrd, providers, payload):
        hyrd.put("/d/s", payload(4096))
        providers["aliyun"].latency = LatencyModel(
            rtt=0.8, upload_bw=0.5e6, download_bw=0.5e6
        )
        hyrd.reevaluate()
        assert "/d/s" in hyrd.misplaced_paths()

    def test_migrate_realigns(self, hyrd, providers, payload):
        data = payload(4096)
        hyrd.put("/d/s", data)
        providers["aliyun"].latency = LatencyModel(
            rtt=0.8, upload_bw=0.5e6, download_bw=0.5e6
        )
        hyrd.reevaluate()
        report = hyrd.migrate_object("/d/s")
        assert report.op == "migrate"
        assert hyrd.misplaced_paths() == []
        assert "aliyun" not in hyrd.namespace.get("/d/s").providers
        assert hyrd.get("/d/s")[0] == data

    def test_migrate_gcs_old_objects(self, hyrd, providers, payload):
        hyrd.put("/d/s", payload(4096))
        providers["aliyun"].latency = LatencyModel(
            rtt=0.8, upload_bw=0.5e6, download_bw=0.5e6
        )
        hyrd.reevaluate()
        hyrd.migrate_object("/d/s")
        keys = providers["aliyun"].store.list(hyrd.container)
        assert not any(k.startswith("/d/s#") for k in keys)


class TestDecommission:
    def test_full_evacuation(self, hyrd, providers, payload):
        contents = {}
        for i in range(4):
            path = f"/d/s{i}"
            contents[path] = payload(4096)
            hyrd.put(path, contents[path])
        big = "/d/big"
        contents[big] = payload(2 * MB)
        hyrd.put(big, contents[big])

        assert hyrd.placements_on("aliyun")  # aliyun holds replicas + fragments
        reports = hyrd.decommission("aliyun")
        assert len(reports) == len(hyrd.namespace.paths())
        assert hyrd.placements_on("aliyun") == []
        for path, data in contents.items():
            assert hyrd.get(path)[0] == data
            assert "aliyun" not in hyrd.namespace.get(path).providers

    def test_decommissioned_provider_gets_no_new_writes(self, hyrd, payload):
        hyrd.decommission("rackspace")
        hyrd.put("/d/l", payload(2 * MB))
        assert "rackspace" not in hyrd.namespace.get("/d/l").providers

    def test_stripe_geometry_shrinks_after_exclusion(self, hyrd, payload):
        """Three usable providers left -> the large stripe re-sizes."""
        hyrd.decommission("rackspace")
        hyrd.put("/d/l", payload(2 * MB))
        entry = hyrd.namespace.get("/d/l")
        # Erasure set falls back to 3 providers (filled from the fastest).
        assert len(entry.providers) == 3

    def test_readmit(self, hyrd, payload):
        hyrd.evaluator.exclude("aliyun")
        hyrd.dispatcher.refresh()
        hyrd.evaluator.readmit("aliyun")
        hyrd.dispatcher.refresh()
        hyrd.put("/d/s", payload(1024))
        assert "aliyun" in hyrd.namespace.get("/d/s").providers

    def test_cannot_exclude_everything(self, hyrd):
        for name in ("amazon_s3", "azure", "aliyun"):
            hyrd.evaluator.exclude(name)
        with pytest.raises(ValueError):
            hyrd.evaluator.exclude("rackspace")

    def test_exclude_unknown(self, hyrd):
        with pytest.raises(KeyError):
            hyrd.evaluator.exclude("nonexistent")


class TestPlacementMemo:
    """The dispatcher keeps its target lists and codec until ``refresh()``.
    Through the client's public API a stale answer must be impossible: every
    entry point that moves the classification shows on the very next call."""

    @staticmethod
    def _answers(dispatcher):
        codec = dispatcher.erasure_codec()
        return (
            dispatcher.replica_targets(),
            dispatcher.erasure_targets(),
            (type(codec).__name__, codec.n, codec.k),
        )

    def _assert_current(self, hyrd, before, changed):
        """The memoised answers are a never-asked dispatcher's, and exactly
        the ``changed`` ones (replica, erasure, codec) moved."""
        unmemoised = RequestDispatcher(hyrd.config, hyrd.evaluator)
        unmemoised.set_usable_guard(hyrd._provider_usable)
        now = self._answers(hyrd.dispatcher)
        assert now == self._answers(unmemoised)
        assert [a != b for a, b in zip(before, now)] == changed

    def test_reevaluate(self, hyrd, providers):
        before = self._answers(hyrd.dispatcher)
        assert before == (
            ["aliyun", "azure"], ["rackspace", "aliyun", "amazon_s3"], ("Raid5Code", 3, 2)
        )
        providers["aliyun"].latency = LatencyModel(rtt=0.8, upload_bw=0.5e6, download_bw=0.5e6)
        for p in providers.values():  # one price for all: all four are cost-oriented
            p.pricing = replace(p.pricing, storage_gb_month=0.03)
        hyrd.reevaluate()
        self._assert_current(hyrd, before, [True, True, True])
        assert hyrd.dispatcher.erasure_codec().n == 4

    @staticmethod
    def _one_price(providers):
        """Every provider at one storage and egress price: all four are
        cost-oriented and the stripe is ordered by measured speed alone."""
        for p in providers.values():
            p.pricing = replace(p.pricing, storage_gb_month=0.03, data_out_gb=0.1)

    def test_refresh_health_ranking(self, providers, clock):
        self._one_price(providers)
        hyrd = HyRDClient(list(providers.values()), clock)
        before = self._answers(hyrd.dispatcher)
        assert before[1][:2] == ["aliyun", "azure"]
        for _ in range(30):
            hyrd.health["azure"].record_latency(10.0, 1.0)
        hyrd.refresh_health_ranking()
        self._assert_current(hyrd, before, [True, True, False])
        assert "azure" not in hyrd.dispatcher.replica_targets()
        assert hyrd.dispatcher.erasure_targets()[-1] == "azure"

    def test_decommission(self, providers, clock):
        self._one_price(providers)
        hyrd = HyRDClient(list(providers.values()), clock)
        before = self._answers(hyrd.dispatcher)
        assert before[2] == ("Raid5Code", 4, 3)
        hyrd.decommission("aliyun")
        self._assert_current(hyrd, before, [True, True, True])
        assert "aliyun" not in hyrd.dispatcher.replica_targets()
        assert hyrd.dispatcher.erasure_codec().n == 3

    def test_breaker_trip_reorders_replicas_with_no_refresh(self, hyrd, clock):
        assert hyrd.dispatcher.replica_targets() == ["aliyun", "azure"]
        breaker = hyrd._breakers["aliyun"]
        for _ in range(BREAKER_FAILURE_THRESHOLD):
            breaker.record_failure(clock.now)
        # Same slots (aliyun's writes must reach its write log), new priority.
        assert hyrd.dispatcher.replica_targets() == ["azure", "aliyun"]
        assert hyrd.dispatcher.decide(hyrd.monitor.classify(1024)).providers == ("azure", "aliyun")

    def test_returned_lists_belong_to_the_caller(self, hyrd):
        unguarded = RequestDispatcher(hyrd.config, hyrd.evaluator)
        for dispatcher in (hyrd.dispatcher, unguarded):
            for ask in (dispatcher.replica_targets, dispatcher.erasure_targets):
                expected = ask()
                ask().clear()
                ask().append("nowhere")
                assert ask() == expected
