"""Fair-share bandwidth model for concurrent WAN transfers.

The paper's client is a single desktop PC with one 1 Gb/s access link talking
to four cloud providers.  When a scheme pushes the same 100 MB file to two
providers (DuraCloud) or four RAID5 fragments to four providers (RACS/HyRD),
those transfers *share the client's access link* while each is additionally
capped by the per-provider WAN bandwidth.  That contention is exactly what
makes replication of large files slow and striping fast, so we model it
explicitly rather than assuming perfect parallelism.

The model is *progressive filling* (max-min fairness, the standard TCP
idealisation): at every instant each active transfer receives
``min(remote_cap, fair share of the access link)``, where link capacity left
unused by capped transfers is redistributed to the others (water-filling).
Rates are piecewise constant between events (a transfer activating after its
RTT, or a transfer draining), so the simulation advances event-to-event in
closed form — no time stepping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["TransferSpec", "simulate_transfers", "total_elapsed"]

_EPS_BYTES = 1e-6  # transfers with fewer remaining bytes are considered drained


@dataclass(slots=True)
class TransferSpec:
    """One data transfer.

    Parameters
    ----------
    start_delay:
        Seconds before the first byte flows (request RTT + provider
        processing).  The transfer occupies no bandwidth during this window.
    size_bytes:
        Payload size.  Zero-byte transfers finish exactly at ``start_delay``.
    remote_cap:
        Sustained bytes/second the remote endpoint can serve; ``math.inf``
        means the access link is the only bottleneck.
    """

    start_delay: float
    size_bytes: float
    remote_cap: float = math.inf

    def __post_init__(self) -> None:
        if self.start_delay < 0:
            raise ValueError(f"start_delay must be >= 0, got {self.start_delay}")
        if self.size_bytes < 0:
            raise ValueError(f"size_bytes must be >= 0, got {self.size_bytes}")
        if self.remote_cap <= 0:
            raise ValueError(f"remote_cap must be > 0, got {self.remote_cap}")


def _waterfill_rates(caps: list[float], link_capacity: float) -> list[float]:
    """Max-min fair rates for transfers with per-transfer caps on one link.

    Classic water-filling: process transfers in ascending cap order; each is
    granted ``min(cap, remaining/m)`` where ``m`` counts transfers not yet
    granted.  Capped transfers return their unused share to the pool.
    """
    n = len(caps)
    rates = [0.0] * n
    remaining = link_capacity
    m = n
    for idx in sorted(range(n), key=caps.__getitem__):
        share = remaining / m
        rate = min(caps[idx], share)
        rates[idx] = rate
        remaining -= rate
        m -= 1
    return rates


def simulate_transfers(
    specs: list[TransferSpec], link_capacity: float
) -> list[float]:
    """Simulate concurrent transfers over one shared access link.

    Returns each spec's finish time, in input order, relative to the instant
    the batch is issued (t=0).

    A lone transfer shares the link with nobody, so it is answered in closed
    form: the event loop below would run exactly one iteration for it, and
    the three float operations here are that iteration's, in its order.
    """
    if link_capacity <= 0:
        raise ValueError(f"link_capacity must be > 0, got {link_capacity}")
    n = len(specs)
    if n == 0:
        return []
    if n == 1:
        spec = specs[0]
        size = float(spec.size_bytes)
        begin = float(spec.start_delay)
        if size <= _EPS_BYTES:
            return [begin]
        rate = min(spec.remote_cap, link_capacity)
        dt = size / rate
        # The loop's own drain test; a transfer it would not call drained
        # after one step (or an infinite one) is left to the loop.
        if size - rate * dt <= _EPS_BYTES:
            return [max(0.0, begin) + dt]

    remaining = [float(s.size_bytes) for s in specs]
    start = [float(s.start_delay) for s in specs]
    finish: list[float] = [math.nan] * n

    # Zero-byte transfers never occupy bandwidth.
    pending: list[int] = []
    for i, s in enumerate(specs):
        if remaining[i] <= _EPS_BYTES:
            finish[i] = start[i]
        else:
            pending.append(i)
    pending.sort(key=start.__getitem__)

    active: list[int] = []
    now = 0.0
    p = 0  # cursor into pending activations
    while active or p < len(pending):
        if not active:
            # Idle until the next activation.
            now = max(now, start[pending[p]])
        # Activate everything whose RTT window has elapsed.
        while p < len(pending) and start[pending[p]] <= now + 1e-12:
            active.append(pending[p])
            p += 1

        caps = [specs[i].remote_cap for i in active]
        rates = _waterfill_rates(caps, link_capacity)

        # Next event: either a transfer drains or a new one activates.
        dt_drain = math.inf
        for k, i in enumerate(active):
            if rates[k] > 0:
                dt_drain = min(dt_drain, remaining[i] / rates[k])
        dt_activate = math.inf
        if p < len(pending):
            dt_activate = start[pending[p]] - now
        dt = min(dt_drain, dt_activate)
        if not math.isfinite(dt):  # pragma: no cover - defensive
            raise RuntimeError("bandwidth simulation stalled (no progress possible)")

        now += dt
        still_active: list[int] = []
        for k, i in enumerate(active):
            remaining[i] -= rates[k] * dt
            if remaining[i] <= _EPS_BYTES:
                finish[i] = now
            else:
                still_active.append(i)
        active = still_active

    return finish


def total_elapsed(specs: list[TransferSpec], link_capacity: float) -> float:
    """Wall-clock time until the last transfer in the batch completes."""
    return max(simulate_transfers(specs, link_capacity), default=0.0)
