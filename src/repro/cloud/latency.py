"""Latency models for providers and the client's access link.

A provider is characterised by a request RTT (DNS + TCP + TLS + request
processing, sampled with lognormal jitter) and sustained per-connection
upload/download throughput — the same two quantities the paper's Evaluator
measures on the live clouds.  Byte transfer times are *not* computed here:
schemes collect :class:`~repro.sim.bandwidth.TransferSpec` objects for every
concurrent request in an operation phase and hand them to the fair-share
model through :class:`ClientLink`, so contention on the client's access link
is accounted once, globally.

Default provider parameters (see :data:`repro.cloud.provider.TABLE2_LATENCY`)
are calibrated so single-cloud latency curves reproduce Figure 5's ordering:
Aliyun fastest (client sits on CERNET in China), Azure next, Amazon S3 and
Rackspace slower — with transfer time overtaking RTT between 1 MB and 4 MB,
which is where the paper places the small/large threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.sim.bandwidth import TransferSpec, total_elapsed

__all__ = ["LatencyModel", "ClientLink"]


@dataclass(frozen=True)
class LatencyModel:
    """Per-provider latency characteristics.

    Parameters
    ----------
    rtt:
        Mean request round-trip/setup time in seconds, charged before the
        first payload byte moves.
    upload_bw / download_bw:
        Sustained per-connection throughput in bytes/second toward / from
        the provider.
    rtt_sigma / bw_sigma:
        Lognormal jitter scales (0 disables jitter — useful in tests).
    """

    rtt: float
    upload_bw: float
    download_bw: float
    rtt_sigma: float = 0.15
    bw_sigma: float = 0.10

    def __post_init__(self) -> None:
        if self.rtt < 0:
            raise ValueError(f"rtt must be >= 0, got {self.rtt}")
        if self.upload_bw <= 0 or self.download_bw <= 0:
            raise ValueError("bandwidths must be > 0")
        if self.rtt_sigma < 0 or self.bw_sigma < 0:
            raise ValueError("jitter sigmas must be >= 0")

    def sample_rtt(self, rng: np.random.Generator | None = None) -> float:
        """One RTT draw; deterministic (the mean) when rng is None."""
        if rng is None or self.rtt_sigma == 0 or self.rtt == 0:
            return self.rtt
        # lognormal with unit median, so jitter never makes latency negative.
        return self.rtt * float(rng.lognormal(0.0, self.rtt_sigma))

    def _sample_bw(self, bw: float, rng: np.random.Generator | None) -> float:
        if rng is None or self.bw_sigma == 0:
            return bw
        return bw * float(rng.lognormal(0.0, self.bw_sigma))

    def upload_spec(
        self, size: int, rng: np.random.Generator | None = None, delay: float = 0.0
    ) -> TransferSpec:
        """TransferSpec for sending ``size`` bytes to this provider, its
        start pushed back by ``delay`` seconds of serialized waiting (the
        retries the request burned first)."""
        return TransferSpec(
            start_delay=self.sample_rtt(rng) + delay,
            size_bytes=float(size),
            remote_cap=self._sample_bw(self.upload_bw, rng),
        )

    def download_spec(
        self, size: int, rng: np.random.Generator | None = None, delay: float = 0.0
    ) -> TransferSpec:
        """TransferSpec for fetching ``size`` bytes from this provider
        (``delay`` as for :meth:`upload_spec`)."""
        return TransferSpec(
            start_delay=self.sample_rtt(rng) + delay,
            size_bytes=float(size),
            remote_cap=self._sample_bw(self.download_bw, rng),
        )

    def control_spec(
        self, rng: np.random.Generator | None = None, delay: float = 0.0
    ) -> TransferSpec:
        """Zero-payload request (List/Create/Remove): RTT only
        (``delay`` as for :meth:`upload_spec`)."""
        return TransferSpec(start_delay=self.sample_rtt(rng) + delay, size_bytes=0.0)


@dataclass(frozen=True)
class ClientLink:
    """The client's access link (full duplex: up and down are independent).

    Defaults model the paper's desktop on a campus network: the physical NIC
    is 1 Gb/s but sustained WAN egress through CERNET is far lower, which is
    precisely why pushing two full replicas (DuraCloud) hurts large writes.
    """

    uplink: float = 5e6  # bytes/s sustained toward the WAN
    downlink: float = 25e6  # bytes/s sustained from the WAN

    def __post_init__(self) -> None:
        if self.uplink <= 0 or self.downlink <= 0:
            raise ValueError("link capacities must be > 0")

    def elapsed(
        self,
        uploads: list[TransferSpec] | None = None,
        downloads: list[TransferSpec] | None = None,
    ) -> float:
        """Wall-clock seconds until every transfer in the phase completes.

        Uploads contend with uploads, downloads with downloads; the phase
        ends when the slower direction drains.
        """
        up = total_elapsed(uploads, self.uplink) if uploads else 0.0
        down = total_elapsed(downloads, self.downlink) if downloads else 0.0
        return max(up, down)

    def serial_upload_time(self, size: int, remote_cap: float = math.inf) -> float:
        """Lower-bound transfer time for one upload (no RTT, no contention)."""
        return size / min(self.uplink, remote_cap)
