"""Metadata-group traffic, pinned request by request, on every scheme.

A directory's metadata group is written on every put, update and remove,
fetched on a group-cache miss, and listed and read back by namespace
recovery.  These tests pin, for each scheme, the exact provider requests
those paths issue — ``(provider, kind, key, ok)``, phase by phase — and
each report's ``(op, elapsed, degraded, cloud_ops)``, so a restructuring of
how groups are written or read can be shown to move nothing.

The expected values are in ``tests/data/metadata_group_traffic.json``.  A
change that is *meant* to move group traffic regenerates them with
``PYTHONPATH=src python tests/test_metadata_group_traffic.py --write`` and
says why.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.cloud.errors import CloudError
from repro.cloud.provider import make_table2_cloud_of_clouds
from repro.faults import OutageWindow
from repro.fs.metadata import group_key
from repro.schemes import build_scheme
from repro.sim.clock import SimClock

GOLDEN = Path(__file__).parent / "data" / "metadata_group_traffic.json"

SCHEMES = ("hyrd", "duracloud", "racs", "depsky", "depsky-ca", "nccloud", "single")

#: case 3's providers: ``(out, stale)`` — the first is in an outage window
#: at fetch time, the second missed the group's last write and holds it
#: write-logged.  Single has one provider, so it only goes stale.
DEGRADED = {
    "hyrd": ("aliyun", "azure"),
    "duracloud": ("amazon_s3", "azure"),
    "racs": ("amazon_s3", "azure"),
    "depsky": ("amazon_s3", "azure"),
    "depsky-ca": ("amazon_s3", "azure"),
    "nccloud": ("amazon_s3", "azure"),
    "single": (None, "amazon_s3"),
}


def _payload(n: int, seed: int) -> bytes:
    return bytes((seed + 31 * i) % 251 for i in range(n))


class _Run:
    """One scheme on a fresh Table II fleet, its requests recorded once
    :meth:`record` is called."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.clock = SimClock()
        self.fleet = make_table2_cloud_of_clouds(self.clock)
        self.scheme = build_scheme(name, self.fleet, self.clock)
        self.phases: list[list[list]] = []
        self.reports: list[list] = []

    def record(self, scheme=None) -> None:
        scheme = scheme if scheme is not None else self.scheme
        issue = scheme._issue
        phases = self.phases

        def recording(ops, *args, **kwargs):
            issued = issue(ops, *args, **kwargs)
            phases.append([[o.provider, o.kind, o.key, o.ok] for o in issued[0]])
            return issued

        scheme._issue = recording

    def call(self, fn, *args) -> None:
        try:
            result = fn(*args)
        except CloudError as exc:
            self.reports.append(["error", type(exc).__name__])
            return
        report = result[1] if isinstance(result, tuple) else result
        self.reports.append(
            [report.op, report.elapsed, report.degraded, report.cloud_ops]
        )

    def populate(self) -> None:
        self.scheme.put("/d/a", _payload(2000, 1))
        self.scheme.put("/d/b", _payload(3000, 2))

    def facts(self) -> dict:
        return {"phases": self.phases, "reports": self.reports}


def case_write(name: str) -> dict:
    """A put, an in-place update and a remove: three group publishes."""
    run = _Run(name)
    run.record()
    run.call(run.scheme.put, "/d/a", _payload(2000, 1))
    run.call(run.scheme.update, "/d/a", 10, b"xyz")
    run.call(run.scheme.remove, "/d/a")
    return run.facts()


def case_fetch(name: str) -> dict:
    """A get after the group cache forgot the directory."""
    run = _Run(name)
    run.populate()
    run.scheme.meta.invalidate("/d")
    run.record()
    run.call(run.scheme.get, "/d/a")
    return run.facts()


def case_fetch_degraded(name: str) -> dict:
    """The same fetch with one group target out and another stale."""
    run = _Run(name)
    out, stale = DEGRADED[name]
    run.scheme.put("/d/a", _payload(2000, 1))
    now = run.clock.now
    run.fleet[stale].faults.add(OutageWindow(now, now + 5.0))
    run.scheme.put("/d/b", _payload(3000, 2))  # its group put is write-logged
    run.clock.advance(10.0)
    if out is not None:
        now = run.clock.now
        run.fleet[out].faults.add(OutageWindow(now, now + 3600.0))
    run.scheme.meta.invalidate("/d")
    run.record()
    run.call(run.scheme.get, "/d/a")
    return run.facts()


def case_fetch_lost_fragment(name: str) -> dict:
    """RACS: the first group fragment a fetch chooses is gone."""
    run = _Run(name)
    run.populate()
    run.fleet["amazon_s3"].store.vanish(run.scheme.container, f"{group_key('/d')}.0")
    run.scheme.meta.invalidate("/d")
    run.record()
    run.call(run.scheme.get, "/d/a")
    return run.facts()


def case_recover(name: str) -> dict:
    """``recover_namespace`` on a replacement client over the same fleet."""
    run = _Run(name)
    run.populate()
    second = build_scheme(name, run.fleet, run.clock)
    run.record(second)
    run.call(second.recover_namespace)
    facts = run.facts()
    facts["paths"] = sorted(second.namespace.paths())
    return facts


CASES = {
    "write": (case_write, SCHEMES),
    "fetch": (case_fetch, SCHEMES),
    "fetch_degraded": (case_fetch_degraded, SCHEMES),
    "fetch_lost_fragment": (case_fetch_lost_fragment, ("racs",)),
    "recover": (case_recover, SCHEMES),
}


def _observe() -> dict:
    return {
        case: {name: fn(name) for name in names}
        for case, (fn, names) in CASES.items()
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize(
    "case,name",
    [(case, name) for case, (_fn, names) in CASES.items() for name in names],
)
def test_group_traffic_is_pinned(golden, case, name):
    fn, _names = CASES[case]
    assert fn(name) == golden[case][name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(f"usage: {sys.argv[0]} --write")
    GOLDEN.write_text(json.dumps(_observe(), indent=1) + "\n")
