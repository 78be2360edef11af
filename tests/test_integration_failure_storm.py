"""Integration test: rolling outages across the whole fleet.

Providers fail and return one after another while a workload keeps running,
with the healer active between operations.  At no point do concurrent
outages exceed single-fault tolerance, so every scheme must maintain full
service and converge to a consistent, non-degraded state.
"""

import numpy as np

from repro.cloud.provider import make_table2_cloud_of_clouds
from repro.faults import OutageWindow
from repro.schemes import DuraCloudScheme, HyrdScheme, NCCloudScheme, RacsScheme
from repro.sim.clock import SimClock

KB, MB = 1024, 1024 * 1024


def _rolling_storm(scheme_builder, seed=5):
    clock = SimClock()
    providers = make_table2_cloud_of_clouds(clock)
    scheme = scheme_builder(providers, clock)
    rng = np.random.default_rng(seed)
    model: dict[str, bytes] = {}

    def write(path, size):
        data = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
        scheme.put(path, data)
        model[path] = data

    # Seed with a mix of small and large files.
    for i in range(5):
        write(f"/storm/s{i}", 8 * KB)
    write("/storm/big0", 2 * MB)

    # One provider at a time fails for an hour, with mutations during each
    # window; the healer runs when the next window starts (provider is back).
    fleet = scheme.provider_names
    for round_no, victim in enumerate(fleet):
        start = clock.now
        providers[victim].faults.add(OutageWindow(start, start + 3600.0))
        # Ops during the outage: overwrite one file, create one, read two.
        write(f"/storm/s{round_no % 5}", 8 * KB)
        write(f"/storm/new{round_no}", 16 * KB)
        for path in list(model)[:2]:
            got, _ = scheme.get(path)
            assert got == model[path], f"{path} corrupted during {victim} outage"
        clock.advance_to(start + 3600.0 + 1.0)
        scheme.heal_returned()

    # Storm over: everything consistent, nothing degraded, logs empty.
    for path, data in model.items():
        got, report = scheme.get(path)
        assert got == data
        assert not report.degraded
    for name in fleet:
        assert len(scheme.pending_log(name)) == 0
    return scheme


class TestRollingFailureStorm:
    def test_hyrd(self):
        scheme = _rolling_storm(lambda p, c: HyrdScheme(list(p.values()), c))
        assert scheme.collector.degraded_fraction() < 0.5

    def test_racs(self):
        _rolling_storm(lambda p, c: RacsScheme(list(p.values()), c))

    def test_duracloud(self):
        # DuraCloud only spans S3+Azure; roll the storm over its own fleet.
        def build(p, c):
            return DuraCloudScheme([p["amazon_s3"], p["azure"]], c)

        _rolling_storm(build)

    def test_nccloud(self):
        _rolling_storm(lambda p, c: NCCloudScheme(list(p.values()), c))


class TestBackToBackOutages:
    def test_same_provider_fails_twice(self, providers, clock, payload):
        """A provider that fails again mid-recovery keeps a correct log."""
        hyrd = HyrdScheme(list(providers.values()), clock)
        data1, data2 = payload(8 * KB), payload(8 * KB)

        w1 = OutageWindow(clock.now, clock.now + 100.0)
        providers["azure"].faults.add(w1)
        hyrd.put("/f", data1)
        assert len(hyrd.pending_log("azure")) > 0

        # It returns, but fails again before anything triggers healing.
        clock.advance_to(w1.end + 1.0)
        w2 = OutageWindow(clock.now + 5.0, clock.now + 200.0)
        providers["azure"].faults.add(w2)
        clock.advance_to(w2.start + 1.0)
        hyrd.put("/f", data2)  # second version also missed

        clock.advance_to(w2.end)
        hyrd.heal_returned()
        assert len(hyrd.pending_log("azure")) == 0
        # Azure holds exactly the latest version.
        assert providers["azure"].store.get(hyrd.container, "/f#v2").data == data2
        assert not providers["azure"].store.has(hyrd.container, "/f#v1")
