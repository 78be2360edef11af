"""Shared fixtures: clocks, provider fleets, payload and registry helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud.latency import ClientLink
from repro.cloud.provider import make_table2_cloud_of_clouds
from repro.metrics.registry import Histogram
from repro.sim.clock import SimClock


@pytest.fixture
def clock() -> SimClock:
    return SimClock()


@pytest.fixture
def providers(clock):
    """The four Table II providers on a shared clock."""
    return make_table2_cloud_of_clouds(clock)


@pytest.fixture
def link() -> ClientLink:
    return ClientLink()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def payload(rng):
    """Deterministic random payload factory: payload(n) -> n bytes."""

    def make(n: int) -> bytes:
        return rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()

    return make


def instrument_facts(registry) -> list[tuple]:
    """Every instrument of ``registry`` in creation order with its kind,
    name, labels and full state, read off the instruments themselves (not
    through :meth:`MetricsRegistry.state`, the codec under test)."""
    facts = []
    for m in registry._metrics.values():
        if isinstance(m, Histogram):
            state = (m.bounds, m.counts, m.count, m.sum, m.min, m.max)
        else:
            state = (m.value,)
        facts.append((type(m).__name__, m.name, m.labels, *state))
    return facts
