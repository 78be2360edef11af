"""Closed/open-loop traffic generation over thousands of tenants.

Scales the Internet Archive trace *shape* (reads outnumber writes 3.5:1 by
request count — Figure 3's ratio) to an arbitrary tenant population without
ever materializing the whole workload: each tenant's op stream is a lazy
generator over its own :func:`~repro.sim.rng.make_rng` stream, created the
first time the tenant is driven.  Everything is derived from the root seed,
so the same seed produces a byte-identical aggregate drill report.

Two loop disciplines, per the classic closed/open distinction:

- **closed** — every tenant keeps exactly one request outstanding; its next
  op is submitted when the previous one completes (or is shed).  Offered
  load tracks service capacity, nothing queues for long, and total work is
  fixed (``ops_per_tenant`` each) — the mode for throughput-vs-tenant-count
  scaling runs.
- **open** — arrivals are scheduled on the event loop at deterministic
  per-tenant rates regardless of completions, the mode that actually
  exercises bounded queues and load shedding.  Per-tenant rates follow a
  geometric skew profile (``skew`` = heaviest:lightest ratio), and each
  tenant reads the object the drill pre-provisioned for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.service.admission import Request
from repro.service.frontend import ServicePlane
from repro.sim.rng import make_bits, make_rng, raw_bytes

__all__ = ["TrafficConfig", "TrafficGenerator"]


@dataclass(frozen=True)
class TrafficConfig:
    """Shape and scale of the generated load."""

    tenants: int = 8
    mode: str = "closed"  # "closed" | "open"
    ops_per_tenant: int = 8  # closed loop: total ops each tenant runs
    payload_bytes: int = 16 * 1024
    read_request_ratio: float = 3.5  # IA Figure 3: read ops : write ops
    # open loop:
    rate_per_tenant: float = 2.0  # mean arrivals per sim second per tenant
    horizon: float = 20.0  # sim seconds of scheduled arrivals
    skew: float = 1.0  # heaviest:lightest per-tenant rate ratio (>= 1)

    def __post_init__(self) -> None:
        if self.tenants < 1:
            raise ValueError(f"tenants must be >= 1, got {self.tenants}")
        if self.mode not in ("closed", "open"):
            raise ValueError(f"mode must be 'closed' or 'open', got {self.mode!r}")
        if self.ops_per_tenant < 1:
            raise ValueError(f"ops_per_tenant must be >= 1, got {self.ops_per_tenant}")
        if self.payload_bytes < 0:
            raise ValueError(f"payload_bytes must be >= 0, got {self.payload_bytes}")
        if self.read_request_ratio <= 0:
            raise ValueError("read_request_ratio must be > 0")
        if self.rate_per_tenant <= 0 or self.horizon <= 0:
            raise ValueError("rate_per_tenant and horizon must be > 0")
        if self.skew < 1.0:
            raise ValueError(f"skew must be >= 1, got {self.skew}")


class TrafficGenerator:
    """Drives a :class:`~repro.service.frontend.ServicePlane` with load."""

    def __init__(self, config: TrafficConfig, seed: int = 0) -> None:
        self.config = config
        self.seed = seed
        self.tenant_ids = [f"t{i:05d}" for i in range(config.tenants)]
        #: lazily materialized per-tenant op streams (closed loop)
        self._streams: dict[str, Iterator[tuple[str, str, int]]] = {}
        self._open_seqs: dict[str, int] = {}
        self.submitted: dict[str, int] = {}
        self.completed = 0
        self._plane: ServicePlane | None = None

    # -------------------------------------------------- workload materialize
    def _stream(self, tenant_id: str) -> Iterator[tuple[str, str, int]]:
        """The tenant's lazy op stream: ``(kind, relative path, size)``.

        IA-shaped: the first op ingests an object, later ops read an
        already-written object with probability ``ratio / (ratio + 1)``
        (3.5:1 reads:writes at the default) and ingest a new one otherwise.
        """
        stream = self._streams.get(tenant_id)
        if stream is None:
            stream = self._streams[tenant_id] = self._materialize(tenant_id)
        return stream

    def _materialize(self, tenant_id: str) -> Iterator[tuple[str, str, int]]:
        cfg = self.config
        rng = make_rng(self.seed, "tenant-workload", tenant_id)
        p_read = cfg.read_request_ratio / (cfg.read_request_ratio + 1.0)
        written = 0
        for i in range(cfg.ops_per_tenant):
            if written and rng.random() < p_read:
                target = int(rng.integers(0, written))
                yield ("get", f"/d/obj{target}", 0)
            else:
                yield ("put", f"/d/obj{written}", cfg.payload_bytes)
                written += 1

    def payload(self, tenant_id: str, path: str, size: int) -> bytes:
        """Deterministic payload bytes for one tenant object."""
        if size == 0:
            return b""
        return raw_bytes(make_bits(self.seed, "tenant-payload", tenant_id, path), size)

    def _request(self, tenant_id: str, kind: str, path: str, size: int) -> Request:
        token = self._plane.tenants.get(tenant_id).token
        payload = self.payload(tenant_id, path, size) if kind == "put" else None
        return Request(
            tenant_id=tenant_id, token=token, kind=kind, path=path,
            size=size, payload=payload,
        )

    # -------------------------------------------------------------- lifecycle
    def start(self, plane: ServicePlane) -> None:
        """Begin driving ``plane``; tenants must already exist in its registry."""
        self._plane = plane
        if self.config.mode == "closed":
            plane.on_complete = self._on_complete
            for tid in self.tenant_ids:
                self._advance(tid)
        else:
            self._schedule_arrivals(plane)

    # ------------------------------------------------------------ closed loop
    def _advance(self, tenant_id: str) -> None:
        """Submit the tenant's next op; skip past sheds so it never stalls."""
        for kind, path, size in self._stream(tenant_id):
            self.submitted[tenant_id] = self.submitted.get(tenant_id, 0) + 1
            admitted, _reason = self._plane.route(
                self._request(tenant_id, kind, path, size)
            )
            if admitted:
                return
        # stream exhausted: this tenant is done

    def _on_complete(self, request: Request) -> None:
        self.completed += 1
        self._advance(request.tenant_id)

    # -------------------------------------------------------------- open loop
    def rate_weights(self) -> np.ndarray:
        """Per-tenant rate weights on a geometric ``skew``:1 profile."""
        n = self.config.tenants
        if n == 1 or self.config.skew == 1.0:
            return np.ones(n)
        return self.config.skew ** (np.arange(n)[::-1] / (n - 1))

    def rates(self) -> np.ndarray:
        """Per-tenant arrival rates: weights scaled to the configured mean."""
        w = self.rate_weights()
        return w * (self.config.rate_per_tenant * self.config.tenants / w.sum())

    def seed_object_path(self, tenant_id: str) -> str:
        """The pre-provisioned object open-loop reads target."""
        return "/d/seed0"

    def _schedule_arrivals(self, plane: ServicePlane) -> None:
        """Deterministic arrival times: fixed spacing, seeded phase offset."""
        cfg = self.config
        t0 = plane.clock.now
        for tid, rate in zip(self.tenant_ids, self.rates()):
            spacing = 1.0 / rate
            phase = float(make_rng(self.seed, "arrival-phase", tid).uniform(0, spacing))
            n_arrivals = int((cfg.horizon - phase) / spacing) + 1
            path = self.seed_object_path(tid)
            for k in range(max(0, n_arrivals)):
                at = t0 + phase + k * spacing
                if at > t0 + cfg.horizon:
                    break
                plane.loop.schedule(
                    at,
                    self._make_arrival(tid, path),
                    label=f"arrival:{tid}",
                )

    def _make_arrival(self, tenant_id: str, path: str):
        def fire() -> None:
            self.submitted[tenant_id] = self.submitted.get(tenant_id, 0) + 1
            self._plane.route(self._request(tenant_id, "get", path, 0))

        return fire

    # ---------------------------------------------------------------- queries
    def submitted_total(self) -> int:
        return sum(self.submitted.values())
