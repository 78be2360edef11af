#!/usr/bin/env python
"""Outage drill: walk through §III-C's recovery story step by step.

A provider (Windows Azure, as in the paper's Figure 6 methodology) goes dark
for six hours while a workload keeps running:

  1. reads reconstruct on demand (replica fallback / parity rebuild),
  2. writes and updates are logged for the offline provider,
  3. on return, the consistency update replays the log,
  4. the system verifies it is consistent and no longer degraded.

Run:  python examples/outage_drill.py
"""

import numpy as np

from repro import HyRDClient
from repro.cloud import make_table2_cloud_of_clouds
from repro.faults import OutageWindow
from repro.sim import SimClock

KB, MB = 1024, 1024 * 1024


def main() -> None:
    clock = SimClock()
    providers = make_table2_cloud_of_clouds(clock)
    hyrd = HyRDClient(list(providers.values()), clock)
    rng = np.random.default_rng(1)

    # Seed the namespace while everything is healthy.
    files = {}
    for i in range(6):
        path = f"/project/doc{i:02d}.txt"
        files[path] = rng.integers(0, 256, 8 * KB, dtype=np.uint8).tobytes()
        hyrd.put(path, files[path])
    big = f"/project/dataset.bin"
    files[big] = rng.integers(0, 256, 6 * MB, dtype=np.uint8).tobytes()
    hyrd.put(big, files[big])
    print(f"t={clock.now:8.1f}s  seeded {len(files)} files, all providers up")

    # --- the outage begins ---------------------------------------------------
    window = OutageWindow(clock.now, clock.now + 6 * 3600)
    providers["azure"].faults.add(window)
    print(f"t={clock.now:8.1f}s  *** Windows Azure goes offline for 6 hours ***")

    # Reads keep working: small files come from the surviving replica.
    _, report = hyrd.get("/project/doc00.txt")
    print(
        f"t={clock.now:8.1f}s  read doc00 during outage: {report.elapsed:.3f}s "
        f"via {report.providers} (degraded={report.degraded})"
    )

    # Writes keep working: the missed copies are logged.
    update = rng.integers(0, 256, 8 * KB, dtype=np.uint8).tobytes()
    files["/project/doc01.txt"] = update
    hyrd.put("/project/doc01.txt", update)
    new_file = rng.integers(0, 256, 12 * KB, dtype=np.uint8).tobytes()
    files["/project/doc99.txt"] = new_file
    hyrd.put("/project/doc99.txt", new_file)
    log = hyrd.pending_log("azure")
    print(
        f"t={clock.now:8.1f}s  2 writes during outage -> "
        f"{len(log)} log entries ({log.pending_bytes()} bytes) queued for azure"
    )

    # --- the provider returns ------------------------------------------------
    clock.advance_to(window.end)
    print(f"t={clock.now:8.1f}s  *** Azure is back — running the consistency update ***")
    for report in hyrd.heal_returned():
        print(
            f"t={clock.now:8.1f}s  heal {report.path}: "
            f"{report.bytes_up} bytes in {report.elapsed:.3f}s"
        )
    assert len(hyrd.pending_log("azure")) == 0

    # --- verify ---------------------------------------------------------------
    clean = True
    for path, expected in files.items():
        got, report = hyrd.get(path)
        ok = got == expected and not report.degraded
        clean &= ok
    print(
        f"t={clock.now:8.1f}s  recovery complete: every file verified, "
        f"{'no reads degraded' if clean else 'PROBLEM DETECTED'}"
    )


if __name__ == "__main__":
    main()
