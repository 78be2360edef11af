"""Simulated cloud storage providers and the GCS-API registry.

The paper models each provider as a *passive storage functional entity* with
exactly five operations — List, Get, Create, Put, Remove — characterised
externally by its access latency and its price plan (Table II).  This package
reproduces that model as a registry plus five passive functions: the GCS-API
registry names the providers, and each provider answers the five functions
itself.

- :mod:`repro.cloud.objectstore` -- containers/objects with versions
- :mod:`repro.cloud.latency`     -- RTT + bandwidth latency models, client link
- :mod:`repro.cloud.pricing`     -- Table II price plans and presets
- :mod:`repro.cloud.metering`    -- raw usage meters (bytes, ops, byte-time)
- :mod:`repro.cloud.provider`    -- the metered, fault-aware provider (the
                                    five passive functions)
- :mod:`repro.cloud.gcsapi`      -- the GCS-API provider registry
"""

from repro.cloud.errors import (
    CloudError,
    ContainerExists,
    NoSuchContainer,
    NoSuchObject,
    ProviderUnavailable,
)
from repro.cloud.gcsapi import GcsApi
from repro.cloud.latency import ClientLink, LatencyModel
from repro.cloud.metering import UsageMeter
from repro.cloud.objectstore import ObjectStore, StoredObject
from repro.cloud.pricing import PRICE_PLANS, PricingPlan, ProviderCategory
from repro.cloud.provider import SimulatedProvider, make_table2_cloud_of_clouds

__all__ = [
    "ClientLink",
    "CloudError",
    "ContainerExists",
    "GcsApi",
    "LatencyModel",
    "NoSuchContainer",
    "NoSuchObject",
    "ObjectStore",
    "PRICE_PLANS",
    "PricingPlan",
    "ProviderCategory",
    "ProviderUnavailable",
    "SimulatedProvider",
    "StoredObject",
    "UsageMeter",
    "make_table2_cloud_of_clouds",
]
