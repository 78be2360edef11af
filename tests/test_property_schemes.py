"""Property-based tests: scheme round-trips under random op sequences and
outage patterns, and scheduled reads replay identically.

Random put/get/update/remove sequences run through the reference model's
op applier.  Under outages within each scheme's fault tolerance every read
must return what the model allows and the healed scheme must read back
undegraded; under a brownout two scheduled runs must agree on every op
report.  Damage and crashes are the state machine's
(``tests/test_reference_model.py``).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cloud.provider import make_table2_cloud_of_clouds
from repro.chaos.model import ReferenceModel
from repro.faults import OutageWindow
from repro.schemes import build_scheme
from repro.sim.clock import SimClock
from tests.test_reference_model import VARIANTS

#: TestSchedulerDeterminism's name -> the state machine's variant
SCHEME_BUILDERS = {
    **{name: name for name in ("duracloud", "racs", "depsky", "depsky-ca", "nccloud", "hyrd")},
    # Threshold far below the <= 40 kB payloads, so HyRD objects really stripe.
    "hyrd-rs": "hyrd-rs-2k",
    "hyrd-fmsr": "hyrd-fmsr-2k",
}

# The provider each scheme can afford to lose (within fault tolerance).
TOLERABLE_LOSS = {**dict.fromkeys(SCHEME_BUILDERS, "aliyun"), "duracloud": "azure", "hyrd": "azure"}

#: (kind, file slot, size / patch size, offset) sequences
op_sequence = st.lists(
    st.tuples(
        st.sampled_from(["put", "get", "update", "remove"]),
        st.integers(0, 2),
        st.integers(0, 40_000),
        st.integers(0, 10_000),
    ),
    min_size=2,
    max_size=10,
)


def _build(scheme_name):
    clock = SimClock()
    providers = make_table2_cloud_of_clouds(clock)
    name, kwargs = VARIANTS[SCHEME_BUILDERS[scheme_name]]
    return clock, providers, build_scheme(name, providers, clock, **kwargs)


def _apply(model, scheme, rng, kind, slot, size, offset):
    """One op through the model; ops on an absent path are skipped."""
    path = f"/p/f{slot}"
    base = model.acked(path)
    if kind == "put":
        model.put(scheme, path, rng.integers(0, 256, size, dtype=np.uint8).tobytes())
    elif base is None:
        return
    elif kind == "get":
        model.get(scheme, path)
    elif kind == "update":
        patch = rng.integers(0, 256, size % 4096, dtype=np.uint8).tobytes()
        model.update(scheme, path, offset % (len(base) + 1), patch)
    else:
        model.remove(scheme, path)


def _run_model(scheme_name, ops, outage_slots):
    """Run ops under outages of a provider the scheme can lose; every get
    must return what the model allows.  Then the provider returns, heals,
    and every path reads back undegraded."""
    clock, providers, scheme = _build(scheme_name)
    lost = TOLERABLE_LOSS[scheme_name]
    rng = np.random.default_rng(0)
    model = ReferenceModel()
    for step, op in enumerate(ops):
        if step in outage_slots and providers[lost].is_available():
            providers[lost].faults.add(OutageWindow(clock.now, clock.now + 120.0))
        _apply(model, scheme, rng, *op)
    assert not any(model.findings.values()), model.findings

    clock.advance(7200.0)
    scheme.heal_returned()
    for path in model.live():
        got, report = scheme.get(path)
        assert got == model.acked(path)
        assert not report.degraded
    assert len(scheme.pending_log(lost)) == 0


def _round_trip(examples):
    return settings(max_examples=examples, deadline=None, suppress_health_check=[HealthCheck.too_slow])

_outages = st.sets(st.integers(0, 9), max_size=2)


class TestSchemeRoundTripProperties:
    @given(ops=op_sequence, outages=_outages)
    @_round_trip(12)
    def test_duracloud(self, ops, outages):
        _run_model("duracloud", ops, outages)

    @given(ops=op_sequence, outages=_outages)
    @_round_trip(12)
    def test_racs(self, ops, outages):
        _run_model("racs", ops, outages)

    @given(ops=op_sequence, outages=_outages)
    @_round_trip(10)
    def test_hyrd(self, ops, outages):
        _run_model("hyrd", ops, outages)

    @given(ops=op_sequence, outages=_outages)
    @_round_trip(10)
    def test_nccloud(self, ops, outages):
        _run_model("nccloud", ops, outages)


def _run_scheduled(scheme_name, ops, slow_factor):
    """One scheduled run under a brownout; returns its full observable trail.

    The trail is every op report (timings, byte counts, provider subsets)
    plus the final clock reading and the scheduler's decision counter —
    everything an identical rerun must reproduce bit-for-bit.
    """
    from repro.core.scheduling import FragmentScheduler
    from repro.faults.profile import FaultProfile, LatencyBrownout
    from repro.obs import ProviderLoadObservatory

    clock, providers, scheme = _build(scheme_name)
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
    model = ReferenceModel()
    for op in ops:
        _apply(model, scheme, rng, *op)
    assert not any(model.findings.values()), "scheduled read corrupted payload"

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
    @given(ops=op_sequence, slow_factor=st.sampled_from([2.0, 8.0]))
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_scheduled_runs_replay_identically(self, scheme_name, ops, slow_factor):
        first = _run_scheduled(scheme_name, ops, slow_factor)
        second = _run_scheduled(scheme_name, ops, slow_factor)
        assert first == second
