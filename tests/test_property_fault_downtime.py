"""One oracle for "down": a provider's availability is its profile's downtime.

Every provider owns one ``FaultProfile``, and ``FaultProfile.downtime_windows``
is the ground truth the SLO tracker ingests.  For random mixes of outage
windows, flapping outages, brownouts and transient-error bursts,
``provider.is_available(t)`` must equal "no downtime interval covers ``t``"
at every window edge, 1e-9 either side of it and at random instants, and
the tracker's scheduled ledger must hold exactly those intervals.  Effect
parameters are whole seconds, so edges are exact (a flapper's phase
arithmetic does not round) and windows often touch, which exercises the
half-open boundaries and the merge.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.provider import make_table2_cloud_of_clouds
from repro.faults import (
    FaultProfile,
    FlappingOutage,
    LatencyBrownout,
    OutageWindow,
    TransientErrorBurst,
)
from repro.obs.slo import SloTracker
from repro.sim.clock import SimClock

#: the sim-time horizon every drawn effect starts inside
H = 1000.0
EPS = 1e-9

starts = st.integers(0, int(H) - 1).map(float)
lengths = st.integers(1, int(H)).map(float)


@st.composite
def effects(draw):
    kind = draw(st.sampled_from(["outage", "open-outage", "flap", "brownout", "burst"]))
    start = draw(starts)
    end = start + draw(lengths)
    if kind == "outage":
        return OutageWindow(start, end)
    if kind == "open-outage":
        return OutageWindow(start)
    if kind == "flap":
        period = draw(st.integers(2, 200))
        return FlappingOutage(
            start, end, period=float(period), downtime=float(draw(st.integers(1, period - 1)))
        )
    if kind == "brownout":
        return LatencyBrownout(start, end, rtt_factor=draw(st.floats(1.0, 8.0)))
    return TransientErrorBurst(start, end, rate=draw(st.floats(0.0, 0.9)))


def _azure(profile):
    return make_table2_cloud_of_clouds(SimClock(), faults={"azure": profile})["azure"]


def _covered(windows, t):
    return any(a <= t < b for a, b in windows)


@settings(max_examples=150, deadline=None)
@given(
    drawn=st.lists(effects(), max_size=6),
    instants=st.lists(st.floats(0.0, H, allow_nan=False), max_size=20),
)
def test_is_available_is_the_complement_of_downtime_windows(drawn, instants):
    provider = _azure(FaultProfile(drawn))
    windows = provider.faults.downtime_windows(0.0, H)
    assert windows == sorted(windows)
    assert all(a < b for a, b in windows)
    assert all(b0 < a1 for (_, b0), (a1, _) in zip(windows, windows[1:]))  # merged

    edges = [x for w in windows for x in w]
    edges += [x for e in drawn for x in (e.start, e.end) if math.isfinite(x)]
    probes = [e + d for e in edges for d in (-EPS, 0.0, EPS)] + instants
    for t in probes:
        if 0.0 <= t < H:
            assert provider.is_available(t) == (not _covered(windows, t)), t

    slo = SloTracker()
    slo.ingest_ground_truth([provider], 0.0, H)
    assert slo.provider("azure").scheduled.intervals == windows


@settings(max_examples=50, deadline=None)
@given(a=starts, length=lengths)
def test_outages_alias_adds_a_window(a, length):
    """The frozen benchmark harness's path: ``provider.outages.add(window)``
    with ``OutageWindow`` imported from ``repro.cloud.outage``."""
    from repro.cloud.outage import OutageWindow as HarnessWindow

    b = a + length
    provider = _azure(None)
    provider.outages.add(HarnessWindow(a, b))
    assert provider.outages is provider.faults
    assert provider.faults.downtime_windows(0.0, math.inf) == [(a, b)]
    assert provider.is_available(a - EPS)
    assert not provider.is_available(a)
    assert not provider.is_available(b - EPS)
    assert provider.is_available(b)


def test_outages_alias_is_read_only():
    provider = _azure(None)
    with pytest.raises(AttributeError):
        provider.outages = FaultProfile()
