"""Property-based tests: scheme round-trips under random op sequences and
outage patterns.

Every scheme must preserve content through arbitrary interleavings of
put/get/update/remove, with providers dropping in and out of availability —
the simulator-level statement of the paper's availability guarantee
(as long as concurrent outages stay within each scheme's fault tolerance).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cloud.provider import make_table2_cloud_of_clouds
from repro.core.config import HyRDConfig
from repro.faults import OutageWindow
from repro.schemes import (
    DepSkyCAScheme,
    DepSkyScheme,
    DuraCloudScheme,
    HyrdScheme,
    NCCloudScheme,
    RacsScheme,
)
from repro.sim.clock import SimClock

SCHEME_BUILDERS = {
    "duracloud": lambda p, c: DuraCloudScheme(
        [p["amazon_s3"], p["azure"]], c
    ),
    "racs": lambda p, c: RacsScheme(list(p.values()), c),
    "depsky": lambda p, c: DepSkyScheme(list(p.values()), c),
    "depsky-ca": lambda p, c: DepSkyCAScheme(list(p.values()), c),
    "nccloud": lambda p, c: NCCloudScheme(list(p.values()), c),
    "hyrd": lambda p, c: HyrdScheme(list(p.values()), c),
    # Threshold far below the <= 40 kB payloads, so HyRD objects really stripe.
    "hyrd-rs": lambda p, c: HyrdScheme(
        list(p.values()), c, config=HyRDConfig(erasure_codec="rs", size_threshold=2048)
    ),
    "hyrd-fmsr": lambda p, c: HyrdScheme(
        list(p.values()), c, config=HyRDConfig(erasure_codec="fmsr", size_threshold=2048)
    ),
}

# The provider each scheme can afford to lose (within fault tolerance).
TOLERABLE_LOSS = {
    "duracloud": "azure",
    "racs": "aliyun",
    "depsky": "aliyun",
    "depsky-ca": "aliyun",
    "nccloud": "aliyun",
    "hyrd": "azure",
    "hyrd-rs": "aliyun",  # holds a replica *and* a stripe fragment
    "hyrd-fmsr": "aliyun",
}

op_kinds = st.sampled_from(["put", "get", "update", "remove"])


@st.composite
def op_sequence(draw):
    n = draw(st.integers(2, 10))
    ops = []
    for _ in range(n):
        ops.append(
            (
                draw(op_kinds),
                draw(st.integers(0, 2)),  # file slot
                draw(st.integers(0, 40_000)),  # size / patch size
                draw(st.integers(0, 10_000)),  # offset
            )
        )
    return ops


def _run_model(scheme_name, ops, outage_slots):
    """Run ops against the scheme and a dict model; compare at every get."""
    clock = SimClock()
    providers = make_table2_cloud_of_clouds(clock)
    scheme = SCHEME_BUILDERS[scheme_name](providers, clock)
    lost = TOLERABLE_LOSS[scheme_name]
    rng = np.random.default_rng(0)
    model: dict[str, bytes] = {}

    for step, (kind, slot, size, offset) in enumerate(ops):
        if step in outage_slots:
            if providers[lost].is_available():
                providers[lost].faults.add(
                    OutageWindow(clock.now, clock.now + 120.0)
                )
        path = f"/p/f{slot}"
        if kind == "put":
            data = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
            scheme.put(path, data)
            model[path] = data
        elif kind == "get":
            if path in model:
                got, _ = scheme.get(path)
                assert got == model[path]
        elif kind == "update":
            if path in model:
                patch = rng.integers(0, 256, size % 4096, dtype=np.uint8).tobytes()
                off = offset % (len(model[path]) + 1)
                scheme.update(path, off, patch)
                old = model[path]
                buf = bytearray(max(len(old), off + len(patch)))
                buf[: len(old)] = old
                buf[off : off + len(patch)] = patch
                model[path] = bytes(buf)
        elif kind == "remove":
            if path in model:
                scheme.remove(path)
                del model[path]

    # Let the lost provider return, heal, and verify the final state.
    clock.advance(7200.0)
    scheme.heal_returned()
    for path, data in model.items():
        got, report = scheme.get(path)
        assert got == data
        assert not report.degraded
    assert len(scheme.pending_log(lost)) == 0


class TestSchemeRoundTripProperties:
    @given(ops=op_sequence(), outages=st.sets(st.integers(0, 9), max_size=2))
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_duracloud(self, ops, outages):
        _run_model("duracloud", ops, outages)

    @given(ops=op_sequence(), outages=st.sets(st.integers(0, 9), max_size=2))
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_racs(self, ops, outages):
        _run_model("racs", ops, outages)

    @given(ops=op_sequence(), outages=st.sets(st.integers(0, 9), max_size=2))
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_hyrd(self, ops, outages):
        _run_model("hyrd", ops, outages)

    @given(ops=op_sequence(), outages=st.sets(st.integers(0, 9), max_size=2))
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_depsky(self, ops, outages):
        _run_model("depsky", ops, outages)

    @given(ops=op_sequence(), outages=st.sets(st.integers(0, 9), max_size=2))
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_nccloud(self, ops, outages):
        _run_model("nccloud", ops, outages)

    @given(ops=op_sequence(), outages=st.sets(st.integers(0, 9), max_size=2))
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_depsky_ca(self, ops, outages):
        _run_model("depsky-ca", ops, outages)

    @pytest.mark.parametrize("scheme_name", ["hyrd-rs", "hyrd-fmsr"])
    @given(ops=op_sequence(), outages=st.sets(st.integers(0, 9), max_size=2))
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_hyrd_striping_small_objects(self, scheme_name, ops, outages):
        _run_model(scheme_name, ops, outages)


def _run_scheduled(scheme_name, ops, slow_factor):
    """One scheduled run under a brownout; returns its full observable trail.

    The trail is every op report (timings, byte counts, provider subsets)
    plus the final clock reading and the scheduler's decision counter —
    everything an identical rerun must reproduce bit-for-bit.
    """
    from repro.core.scheduling import FragmentScheduler
    from repro.faults.profile import FaultProfile, LatencyBrownout
    from repro.obs import ProviderLoadObservatory

    clock = SimClock()
    providers = make_table2_cloud_of_clouds(clock)
    scheme = SCHEME_BUILDERS[scheme_name](providers, clock)
    scheme.attach_observatory(ProviderLoadObservatory())
    scheme.attach_scheduler(FragmentScheduler())
    slow = TOLERABLE_LOSS[scheme_name]
    providers[slow].faults = FaultProfile(
        [
            LatencyBrownout(
                clock.now,
                clock.now + 1e9,
                rtt_factor=slow_factor,
                bw_factor=1.0 / slow_factor,
            )
        ]
    ).bind(slow)
    rng = np.random.default_rng(0)
    model: dict[str, bytes] = {}

    for kind, slot, size, offset in ops:
        path = f"/p/f{slot}"
        if kind == "put":
            data = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
            scheme.put(path, data)
            model[path] = data
        elif kind == "get":
            if path in model:
                got, _ = scheme.get(path)
                assert got == model[path], "scheduled read corrupted payload"
        elif kind == "update":
            if path in model:
                patch = rng.integers(0, 256, size % 4096, dtype=np.uint8).tobytes()
                off = offset % (len(model[path]) + 1)
                scheme.update(path, off, patch)
                old = model[path]
                buf = bytearray(max(len(old), off + len(patch)))
                buf[: len(old)] = old
                buf[off : off + len(patch)] = patch
                model[path] = bytes(buf)
        elif kind == "remove":
            if path in model:
                scheme.remove(path)
                del model[path]

    trail = [
        (
            r.op,
            r.path,
            r.elapsed,
            r.bytes_up,
            r.bytes_down,
            r.cloud_ops,
            tuple(sorted(r.providers)),
        )
        for r in scheme.collector.reports
    ]
    return trail, clock.now, scheme.registry.counter_value("sched_decisions_total")


class TestSchedulerDeterminism:
    """Same seed + same health evolution => the scheduler picks identical
    fragment subsets and every payload round-trips byte-identically, for
    every scheme.  No RNG hides in the decision path: the rotation counter,
    the health EWMAs and the observatory queue estimates all evolve
    deterministically from the op sequence."""

    @pytest.mark.parametrize("scheme_name", sorted(SCHEME_BUILDERS))
    @given(ops=op_sequence(), slow_factor=st.sampled_from([2.0, 8.0]))
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_scheduled_runs_replay_identically(self, scheme_name, ops, slow_factor):
        first = _run_scheduled(scheme_name, ops, slow_factor)
        second = _run_scheduled(scheme_name, ops, slow_factor)
        assert first == second
