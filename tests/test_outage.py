"""Unit tests for outage windows and drawn outage schedules.

A provider's outage schedule is the set of ``OutageWindow`` effects in its
fault profile; overlapping windows are a union, read back through
``FaultProfile.downtime_windows``.
"""

import math

import pytest

from repro.faults import FaultProfile, OutageWindow, poisson_outages


class TestOutageWindow:
    def test_covers_half_open(self):
        w = OutageWindow(10.0, 20.0)
        assert not w.is_out(9.99)
        assert w.is_out(10.0)
        assert w.is_out(19.99)
        assert not w.is_out(20.0)

    def test_open_ended(self):
        w = OutageWindow(5.0)
        assert w.is_out(1e12)
        assert math.isinf(w.end)
        assert w.downtime_windows(0.0, 100.0) == [(5.0, 100.0)]

    def test_validation(self):
        with pytest.raises(ValueError):
            OutageWindow(-1.0, 2.0)
        with pytest.raises(ValueError):
            OutageWindow(5.0, 5.0)


class TestOutageSchedule:
    def test_empty_schedule_always_up(self):
        s = FaultProfile()
        assert not s.is_out(0.0)
        assert s.downtime_windows(0.0, math.inf) == []

    def test_is_out(self):
        s = FaultProfile([OutageWindow(10, 20), OutageWindow(30, 40)])
        assert s.is_out(15)
        assert not s.is_out(25)
        assert s.is_out(30)

    def test_adjacent_windows_allowed(self):
        s = FaultProfile([OutageWindow(10, 20)])
        s.add(OutageWindow(20, 30))
        assert len(s.effects) == 2
        assert s.downtime_windows(0.0, 100.0) == [(10, 30)]

    def test_windows_sorted(self):
        s = FaultProfile([OutageWindow(30, 40), OutageWindow(10, 20)])
        assert s.downtime_windows(0.0, 100.0) == [(10, 20), (30, 40)]

    def test_poisson_generation(self):
        profile = poisson_outages(("p",), horizon=1e6, mtbf=1e4, mttr=100).profiles["p"]
        assert len(profile.effects) > 10
        starts = [w.start for w in profile.effects]
        assert starts == sorted(starts)
        # Availability should be roughly mtbf/(mtbf+mttr) ~ 99%.
        downtime = sum(b - a for a, b in profile.downtime_windows(0.0, 1e6))
        assert 0.001 < downtime / 1e6 < 0.05

    def test_poisson_validation(self):
        with pytest.raises(ValueError):
            poisson_outages(("p",), 10, 0, 1)
