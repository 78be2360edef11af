"""Redundant data distribution schemes over a Cloud-of-Clouds.

All schemes share one substrate (simulated providers, fair-share client
link, metered billing) and one public API (:class:`repro.schemes.base.Scheme`)
so that Figure 4 (cost) and Figure 6 (latency) compare like with like.  A
scheme is a *placement policy* (``Scheme._place`` returns a ``Placement``:
which providers, which redundancy); the base class owns the data path.

- :class:`SingleCloudScheme` -- one provider, no redundancy (the baselines'
  baseline; Amazon S3 is Figure 6's normalisation reference)
- :class:`DuraCloudScheme`   -- full replication on two providers [10]
- :class:`RacsScheme`        -- RAID5 striping over all providers [1]
- :class:`DepSkyScheme`      -- quorum replication over all providers [7]
- :class:`NCCloudScheme`     -- FMSR regenerating codes [16]
- :class:`HyrdScheme`        -- this paper (the same class as repro.core.HyRDClient)
"""

from dataclasses import replace
from typing import Any

from repro.cloud.provider import TABLE2_FLEET
from repro.schemes.base import DataUnavailable, Placement, Scheme
from repro.schemes.depsky import DepSkyScheme
from repro.schemes.depsky_ca import DepSkyCAScheme
from repro.schemes.duracloud import DuraCloudScheme
from repro.schemes.nccloud import NCCloudScheme
from repro.schemes.racs import RacsScheme
from repro.schemes.single import SingleCloudScheme


#: the Table II fleet, in construction order; each name is also the scheme
#: "that cloud alone"
SINGLE_PROVIDERS = TABLE2_FLEET

#: DuraCloud's replica pair: Amazon S3 + Windows Azure, the two US majors
#: (the paper takes Azure offline to trigger DuraCloud's degraded state, so
#: Azure must be in the pair).  The pair also tops the Figure 4 cost chart:
#: $0.033 + $0.157 = $0.19 per logical GB-month of storage.
DURACLOUD_PAIR = ("amazon_s3", "azure")


def build_scheme(name: str, fleet: dict, clock, **kwargs: Any) -> Scheme:
    """The scheme called ``name`` on the Table II ``fleet`` (name -> provider).

    A provider's own name is that single cloud, ``single`` is Amazon S3
    (Figure 6's reference), ``duracloud`` runs on :data:`DURACLOUD_PAIR`,
    and ``racs`` / ``hyrd`` / ``hyrd-rs`` / ``depsky`` / ``depsky-ca`` /
    ``nccloud`` on the whole fleet.  ``kwargs`` (``resilience=``,
    ``tracer=``, ...) go to the constructor; HyRD carries its resilience in
    its ``config=`` (:class:`~repro.core.config.HyRDConfig`), so for it
    ``resilience=`` is folded in there, as are ``hyrd-rs``'s RS stripes.
    """
    if name == "single" or name in fleet:
        return SingleCloudScheme(fleet["amazon_s3" if name == "single" else name], clock, **kwargs)
    if name == "duracloud":
        return DuraCloudScheme([fleet[p] for p in DURACLOUD_PAIR], clock, **kwargs)
    everyone = list(fleet.values())
    if name in ("hyrd", "hyrd-rs"):
        from repro.core.config import HyRDConfig
        from repro.core.hyrd import HyRDClient

        config = kwargs.pop("config", None) or HyRDConfig()
        if name == "hyrd-rs":
            config = replace(config, erasure_codec="rs")
        if "resilience" in kwargs:
            config = replace(config, resilience=kwargs.pop("resilience"))
        return HyRDClient(everyone, clock, config=config, **kwargs)
    whole_fleet = {
        "racs": RacsScheme,
        "depsky": DepSkyScheme,
        "depsky-ca": DepSkyCAScheme,
        "nccloud": NCCloudScheme,
    }
    if name not in whole_fleet:
        raise ValueError(f"unknown scheme {name!r}")
    return whole_fleet[name](everyone, clock, **kwargs)


def __getattr__(name: str) -> Any:
    # HyrdScheme is repro.core.hyrd.HyRDClient, which itself builds on
    # repro.schemes.base — resolve it lazily to keep the import DAG acyclic.
    if name == "HyrdScheme":
        from repro.core.hyrd import HyRDClient

        return HyRDClient
    raise AttributeError(f"module 'repro.schemes' has no attribute {name!r}")

__all__ = [
    "DURACLOUD_PAIR",
    "DataUnavailable",
    "DepSkyCAScheme",
    "DepSkyScheme",
    "DuraCloudScheme",
    "HyrdScheme",
    "NCCloudScheme",
    "Placement",
    "RacsScheme",
    "SINGLE_PROVIDERS",
    "Scheme",
    "SingleCloudScheme",
    "build_scheme",
]
