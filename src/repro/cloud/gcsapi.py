"""GCS-API: the paper's general cloud storage middleware.

Section III-D: *"we have implemented a middleware of general cloud storage
API, short for GCS-API.  The GCS-API middleware hides the complexity of the
cloud storage providers at the system level ... it is easy to add new cloud
storage providers to the HyRD system."*

:class:`GcsApi` is that registry: providers keyed by unique name.  Every
registered :class:`~repro.cloud.provider.SimulatedProvider` exposes the
paper's five passive functions itself, so schemes look a provider up here
and call those functions on it directly.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.cloud.provider import SimulatedProvider

__all__ = ["GcsApi"]


class GcsApi:
    """The registry of providers a scheme stores on, by unique name."""

    def __init__(self, providers: Iterable[SimulatedProvider] = ()) -> None:
        self._providers: dict[str, SimulatedProvider] = {}
        for p in providers:
            self.register(p)

    def register(self, provider: SimulatedProvider) -> None:
        """Add a provider; names must be unique."""
        if provider.name in self._providers:
            raise ValueError(f"provider {provider.name!r} already registered")
        self._providers[provider.name] = provider

    def provider(self, name: str) -> SimulatedProvider:
        try:
            return self._providers[name]
        except KeyError:
            raise KeyError(f"no provider named {name!r}") from None

    def names(self) -> list[str]:
        """Registered provider names, in registration order."""
        return list(self._providers)

    def providers(self) -> list[SimulatedProvider]:
        return list(self._providers.values())
