"""The simulated cloud storage provider.

A :class:`SimulatedProvider` is the paper's "passive storage functional
entity": exactly five functions — List, Get, Create, Put, Remove — wrapped
with (1) availability checks against its fault profile, (2) usage metering
for billing, and (3) a latency model that schemes use to cost the wire time.

Provider methods mutate state instantly and *return data only*; latency is
charged by the scheme layer, which batches the
:class:`~repro.sim.bandwidth.TransferSpec` of every concurrent request in an
operation through the shared client link (see
:meth:`repro.schemes.base.Scheme` internals).  This split keeps contention
accounting global and providers simple.
"""

from __future__ import annotations

from dataclasses import replace

from repro.cloud.errors import ProviderUnavailable, TransientProviderError
from repro.cloud.features import TABLE2_FEATURES, ProviderFeatures
from repro.faults.profile import FaultProfile
from repro.metrics.registry import HeldInstruments, MetricsRegistry
from repro.sim.rng import make_rng
from repro.cloud.latency import LatencyModel
from repro.cloud.metering import UsageMeter
from repro.cloud.objectstore import ObjectStore, StoredObject
from repro.cloud.pricing import CATEGORIES, PRICE_PLANS, PricingPlan, ProviderCategory
from repro.sim.clock import SimClock

__all__ = ["SimulatedProvider", "TABLE2_FLEET", "TABLE2_LATENCY", "make_table2_cloud_of_clouds"]


#: Latency calibration for the four Table II providers, chosen to reproduce
#: Figure 5's ordering from a China-based client: Aliyun fastest, then Azure,
#: then Amazon S3, then Rackspace.  Bandwidths are sustained per-connection
#: WAN throughput (bytes/s).
TABLE2_LATENCY: dict[str, LatencyModel] = {
    "aliyun": LatencyModel(rtt=0.025, upload_bw=9e6, download_bw=11e6),
    "azure": LatencyModel(rtt=0.080, upload_bw=5e6, download_bw=6.5e6),
    "amazon_s3": LatencyModel(rtt=0.250, upload_bw=2.5e6, download_bw=3.5e6),
    "rackspace": LatencyModel(rtt=0.350, upload_bw=1.8e6, download_bw=2.5e6),
}


class SimulatedProvider:
    """One cloud storage provider: object store + latency + billing + faults."""

    def __init__(
        self,
        name: str,
        clock: SimClock,
        latency: LatencyModel,
        pricing: PricingPlan,
        category: ProviderCategory = ProviderCategory.NONE,
        features: "ProviderFeatures | None" = None,
        faults: FaultProfile | None = None,
    ) -> None:
        self.name = name
        self.clock = clock
        self.latency = latency
        self.pricing = pricing
        self.category = category
        self.store = ObjectStore()
        self.meter = UsageMeter()
        #: transient-error draws (a :class:`~repro.faults.profile.TransientErrorBurst`
        #: bounces a request when one falls below the profile's rate)
        self._fault_rng = make_rng(0, "provider-faults", name)
        self.features = features if features is not None else ProviderFeatures()
        #: the one source of misbehaviour: outage windows, transient errors,
        #: brownouts, flapping and served corruption
        self.faults = (faults if faults is not None else FaultProfile()).bind(name)
        self.metrics = None

    @property
    def metrics(self) -> MetricsRegistry | None:
        """Optional registry; when a scheme attaches one (it does at
        construction), every request is counted into
        ``provider_requests_total{provider,op}``, failures into
        ``provider_errors_total{provider,kind}`` and payload bytes into
        ``provider_bytes_{up,down}_total{provider}``.  Metrics are pure
        bookkeeping: no RNG draws, no clock movement.  A fleet shared by
        several schemes reports into whichever registry attached last."""
        return self._metrics

    @metrics.setter
    def metrics(self, registry: MetricsRegistry | None) -> None:
        # A new registry starts with no held instruments.
        self._metrics = registry
        self._held = HeldInstruments(registry)

    @property
    def outages(self) -> FaultProfile:
        """Read-only alias of :attr:`faults`, kept for ``outages.add(window)``."""
        return self.faults

    # --------------------------------------------------------------- metrics
    def _count_request(self, op: str) -> None:
        if self._metrics is not None:
            self._held["provider_requests_total", op, self.name].inc()

    def _count_error(self, kind: str) -> None:
        if self._metrics is not None:
            self._held["provider_errors_total", kind, self.name].inc()

    # ---------------------------------------------------------- availability
    def is_available(self, t: float | None = None) -> bool:
        return not self.faults.is_out(self.clock.now if t is None else t)

    def _check_available(self) -> float:
        """Raise unless the request is served; returns the instant it is
        (a request mutates state instantly, so its one clock reading)."""
        now = self.clock.now
        faults = self.faults
        if faults.effects:
            if faults.is_out(now):
                self._count_error("unavailable")
                raise ProviderUnavailable(self.name, now)
            rate = faults.extra_fault_rate(now)
            if rate > 0.0 and self._fault_rng.random() < rate:
                self._count_error("transient")
                raise TransientProviderError(self.name, now)
        return now

    def _sync_storage_meter(self, now: float) -> None:
        # ObjectStore maintains its byte total incrementally, so this is O(1)
        # per mutation rather than a walk of every stored object.
        self.meter.set_stored_bytes(self.store.total_bytes(), now)

    # ------------------------------------------------------ degraded latency
    def effective_latency(self, t: float | None = None) -> LatencyModel:
        """The latency model as degraded by any active brownout.

        Schemes cost their transfers through this, so a browned-out provider
        really does answer slowly — the client only *learns* about it through
        the measurements its health tracker accumulates.
        """
        if not self.faults.effects:
            return self.latency
        rtt_f, bw_f = self.faults.latency_factors(self.clock.now if t is None else t)
        if rtt_f == 1.0 and bw_f == 1.0:
            return self.latency
        return replace(
            self.latency,
            rtt=self.latency.rtt * rtt_f,
            upload_bw=self.latency.upload_bw * bw_f,
            download_bw=self.latency.download_bw * bw_f,
        )

    # ------------------------------------------------- the five paper ops
    def create(self, container: str, *, exist_ok: bool = False) -> None:
        """Create a container (paper op: *Create*)."""
        self._count_request("create")
        now = self._check_available()
        self.store.create_container(container, exist_ok=exist_ok)
        self.meter.record_create(now)

    def list(self, container: str) -> list[str]:
        """List object keys in a container (paper op: *List*)."""
        self._count_request("list")
        now = self._check_available()
        keys = self.store.list(container)
        self.meter.record_list(now)
        return keys

    def get(self, container: str, key: str) -> bytes | memoryview:
        """Read an object (paper op: *Get*).

        Returns the stored buffer as-is (zero-copy); treat it as read-only.

        A scripted :class:`~repro.faults.profile.SilentCorruption` window can
        flip bits in the *returned* copy (the stored object is untouched);
        only end-to-end digest verification catches it.
        """
        self._count_request("get")
        now = self._check_available()
        obj = self.store.get(container, key)
        self.meter.record_get(obj.size, now)
        if self._metrics is not None:
            self._held["provider_bytes_down_total", self.name].inc(obj.size)
        if self.faults.effects:
            return self.faults.maybe_corrupt(obj.data, now, where=(container, key))
        return obj.data

    def put(self, container: str, key: str, data: bytes | memoryview) -> StoredObject:
        """Write or overwrite an object (paper op: *Put*).

        ``data`` may be any bytes-like object; immutable buffers are stored
        without a copy (see :mod:`repro.cloud.objectstore`).
        """
        self._count_request("put")
        now = self._check_available()
        obj = self.store.put(container, key, data, now)
        self.meter.record_put(obj.size, now)
        if self._metrics is not None:
            self._held["provider_bytes_up_total", self.name].inc(obj.size)
        self._sync_storage_meter(now)
        return obj

    def remove(self, container: str, key: str) -> None:
        """Delete an object (paper op: *Remove*)."""
        self._count_request("remove")
        now = self._check_available()
        self.store.remove(container, key)
        self.meter.record_remove(now)
        self._sync_storage_meter(now)

    # -------------------------------------------------------------- metadata
    def head(self, container: str, key: str) -> StoredObject:
        """Version/timestamp probe used by the consistency updater.

        Not one of the paper's five user-facing functions; it models reading
        the object listing's metadata and is metered as a tier-2 transaction
        with no payload.
        """
        self._count_request("head")
        now = self._check_available()
        obj = self.store.get(container, key)
        self.meter.record_get(0, now)
        return obj

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimulatedProvider({self.name!r})"


#: the four Table II providers, in construction order
TABLE2_FLEET = ("amazon_s3", "azure", "aliyun", "rackspace")


def make_table2_cloud_of_clouds(
    clock: SimClock,
    faults: dict[str, FaultProfile] | None = None,
) -> dict[str, SimulatedProvider]:
    """The paper's experimental Cloud-of-Clouds: the four Table II providers.

    Returns ``{name: provider}`` with pricing from Table II and latency from
    :data:`TABLE2_LATENCY`; pass ``faults`` to inject failures per provider.
    """
    faults = faults or {}
    providers: dict[str, SimulatedProvider] = {}
    for name in TABLE2_FLEET:
        providers[name] = SimulatedProvider(
            name=name,
            clock=clock,
            latency=TABLE2_LATENCY[name],
            pricing=PRICE_PLANS[name],
            category=CATEGORIES[name],
            features=TABLE2_FEATURES[name],
            faults=faults.get(name),
        )
    return providers
