"""Shared fixtures: clocks, provider fleets, payload and registry helpers,
the fragment digest's reference, and the simulated-number golden with the
session's one rebuild of it."""

from __future__ import annotations

import hashlib
import json

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


#: bytes per fragment-digest leaf
DIGEST_LEAF = 64 << 10


def leaf_list_digest(data) -> str:
    """The fragment integrity digest, written from its definition: an
    object of one leaf or less has its plain SHA-256; a longer one the
    SHA-256 of a zero prefix one byte longer than a leaf, a header
    (``b"leaflist"``, the length and the leaf size, big-endian, 8 and 4
    bytes) and each leaf's SHA-256."""
    data = bytes(data)
    if len(data) <= DIGEST_LEAF:
        return hashlib.sha256(data).hexdigest()
    prefix = bytes(DIGEST_LEAF + 1)
    header = b"leaflist" + len(data).to_bytes(8, "big") + DIGEST_LEAF.to_bytes(4, "big")
    leaves = b"".join(
        hashlib.sha256(data[at : at + DIGEST_LEAF]).digest()
        for at in range(0, len(data), DIGEST_LEAF)
    )
    return hashlib.sha256(prefix + header + leaves).hexdigest()


@pytest.fixture
def hashed(monkeypatch) -> list[int]:
    """``hashed[0]``: the bytes every ``Scheme._digest`` call has taken
    since the test began — every byte a scheme hashes."""
    from repro.schemes.base import Scheme

    total = [0]
    real = Scheme._digest

    def counting(data):
        total[0] += len(data)
        return real(data)

    monkeypatch.setattr(Scheme, "_digest", staticmethod(counting))
    return total


@pytest.fixture(scope="session")
def simulated_golden() -> dict:
    """``tests/data/simulated_golden.json`` as committed."""
    from tests.test_simulated_golden import GOLDEN

    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def simulated_rebuild(simulated_golden) -> dict:
    """The session's one ``build`` of every simulated facet at the golden's
    seed, shared by every module that checks a slice of the golden."""
    from tests.test_simulated_golden import build

    return build(simulated_golden["seed"])


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
