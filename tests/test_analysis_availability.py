"""Tests for the availability analysis (analytic + Monte-Carlo)."""

import math

import pytest

from repro.analysis.availability import (
    DAY,
    SchemePlacement,
    analytic_report,
    availability_of_placement,
    _quorum_downtime,
    hyrd_combined,
    monte_carlo_nines,
    monte_carlo_report,
    nines,
    placement_of,
    standard_placements,
)
from repro.analysis.lockin import _departure
from repro.cloud.provider import make_table2_cloud_of_clouds
from repro.core.config import HyRDConfig
from repro.schemes import build_scheme
from repro.sim.clock import SimClock


class TestPlacementMath:
    def test_single_provider(self):
        p = SchemePlacement("s", ("a",), 1)
        assert availability_of_placement(p, {"a": 0.99}) == pytest.approx(0.99)

    def test_replication_or(self):
        p = SchemePlacement("r", ("a", "b"), 1)
        got = availability_of_placement(p, {"a": 0.9, "b": 0.8})
        assert got == pytest.approx(1 - 0.1 * 0.2)

    def test_all_required_and(self):
        p = SchemePlacement("x", ("a", "b"), 2)
        got = availability_of_placement(p, {"a": 0.9, "b": 0.8})
        assert got == pytest.approx(0.72)

    def test_k_of_n_hand_computed(self):
        # 2-of-3 with a = 0.9 each: 3*0.9^2*0.1 + 0.9^3 = 0.972
        p = SchemePlacement("k", ("a", "b", "c"), 2)
        got = availability_of_placement(p, {"a": 0.9, "b": 0.9, "c": 0.9})
        assert got == pytest.approx(0.972)

    def test_validation(self):
        with pytest.raises(ValueError):
            SchemePlacement("bad", ("a",), 2)
        p = SchemePlacement("s", ("a",), 1)
        with pytest.raises(ValueError):
            availability_of_placement(p, {"a": 1.5})


class TestAnalyticReport:
    @pytest.fixture(scope="class")
    def report(self):
        return analytic_report()

    def test_every_coc_beats_every_single(self, report):
        singles = [v for k, v in report.items() if k.startswith("single-")]
        for name in ("duracloud", "racs", "depsky", "nccloud", "hyrd"):
            assert report[name] > max(singles)

    def test_depsky_most_available(self, report):
        """n-way replication with 1-of-4 reads beats everything."""
        assert report["depsky"] == max(report.values())

    def test_fault_tolerance_ordering(self, report):
        # 1-of-4 > 2-of-4 > 3-of-4 under equal provider availability.
        assert report["depsky"] > report["nccloud"] > report["racs"]

    def test_hyrd_between_its_classes(self, report):
        assert (
            report["hyrd-large"] <= report["hyrd"] <= report["hyrd-small"]
        )

    def test_hyrd_weighting(self):
        assert hyrd_combined(0.5, 0.25, small_weight=1.0) == 0.5
        avail = {n: 0.99 for n in ("amazon_s3", "azure", "aliyun", "rackspace")}
        mc = monte_carlo_report(seed=0, horizon=400 * DAY, mtbf=20 * DAY, mttr=2 * DAY)
        for report in (analytic_report(provider_availability=avail), mc):
            # 80 % of the weight on the replicated class: swapped operands fail
            small, large = report["hyrd-small"], report["hyrd-large"]
            assert small != large
            assert report["hyrd"] == pytest.approx(0.8 * small + 0.2 * large)

    def test_custom_provider_availability(self):
        avail = {
            "amazon_s3": 0.95,
            "azure": 0.99,
            "aliyun": 0.999,
            "rackspace": 0.9,
        }
        report = analytic_report(provider_availability=avail)
        assert report["single-aliyun"] == pytest.approx(0.999)
        assert report["racs"] < report["depsky"]


class TestPlacementsFollowTheScheme:
    def test_hyrd_rows_are_its_two_classes(self):
        rows = standard_placements()
        assert rows["hyrd-small"] == SchemePlacement("hyrd-small", ("aliyun", "azure"), 1)
        assert rows["hyrd-large"].k == 2 and len(rows["hyrd-large"].providers) == 3
        assert "hyrd" not in rows

    def test_three_replicas_give_a_three_provider_small_row(self):
        clock = SimClock()
        config = HyRDConfig(replication_level=3)
        scheme = build_scheme("hyrd", make_table2_cloud_of_clouds(clock), clock, config=config)
        small, large = placement_of(scheme)
        assert small.name == "hyrd-small" and small.k == 1
        assert len(set(small.providers)) == 3
        assert large.name == "hyrd-large"
        # the lock-in rule re-seeds the replicated class from its first survivor
        departed, first, _ = small.providers
        cost = _departure("hyrd", departed, [(small, 1.0)])
        assert cost.read_from == (first,) and cost.bytes_read == 1.0


class TestNines:
    def test_values(self):
        assert nines(0.9) == pytest.approx(1.0)
        assert nines(0.999) == pytest.approx(3.0)
        assert nines(1.0) == float("inf")


class TestMonteCarlo:
    def test_converges_to_analytic(self):
        """Every row's closed-form nines lie inside its Monte-Carlo band.
        Outages this frequent put downtime in every row, DepSky's too, so
        an off-by-one in either quorum test fails every multi-provider row
        (the paper's rare outages are ``benchmarks/test_availability.py``'s)."""
        analytic = analytic_report(mtbf=2 * DAY, mttr=1 * DAY)
        bands = monte_carlo_nines(
            seeds=range(20), horizon=100 * DAY, mtbf=2 * DAY, mttr=1 * DAY
        )
        assert set(bands) == set(analytic)
        for name, band in bands.items():
            assert band.admits(nines(analytic[name])), (name, band)

    def test_downtime_is_the_exact_window_intersection(self):
        windows = [[(0.0, 10.0), (20.0, 30.0)], [(5.0, 25.0)]]
        assert _quorum_downtime(windows, 1) == 10.0  # both out: 5-10, 20-25
        assert _quorum_downtime(windows, 2) == 30.0  # either out: 0-30
        assert _quorum_downtime([[], []], 2) == 0.0

    def test_a_row_with_no_downtime_is_a_lower_bound(self):
        bands = monte_carlo_nines(seeds=range(2), horizon=100 * DAY)
        band = bands["depsky"]  # 1 of 4: never all out in 200 days
        assert band.nines == band.high == math.inf
        assert band.low == pytest.approx(math.log10(2 * 100 * DAY / (3 * 12 * 3600.0)))
        assert band.admits(band.low + 0.1) and not band.admits(band.low - 0.1)

    def test_report_covers_all_schemes(self):
        mc = monte_carlo_report(seed=0, horizon=100 * DAY)
        assert set(standard_placements()) <= set(mc)
        assert "hyrd" in mc
        assert all(0.0 <= v <= 1.0 for v in mc.values())
