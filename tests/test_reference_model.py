"""Every scheme in lock-step with the one reference model.

A Hypothesis state machine drives one client of each scheme variant through
data ops, outages, damage, crashes and maintenance, while the chaos engine's
:class:`~repro.chaos.model.ReferenceModel` says what a read may return.  A
``get`` returns an allowed value and fails only while fewer than
``min_needed`` placements are usable, fresh and undamaged; a deep
``verify_object`` never says ok over damage the model's ledger holds; every
exception is typed and expected, and after every step no span is open and no
op in flight.  Teardown clears every fault and applies the engine's five
invariants.  Damage stays inside each scheme's tolerance, and a metadata
group is never flipped so that it still parses.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule
from hypothesis.stateful import run_state_machine_as_test

from repro.chaos.engine import replace_client
from repro.chaos.model import INVARIANTS, ReferenceModel, sites
from repro.cloud.errors import CloudError
from repro.cloud.provider import make_table2_cloud_of_clouds
from repro.core.config import HyRDConfig
from repro.faults import OutageWindow
from repro.faults.crash import ClientCrash, CrashSchedule
from repro.fs.metadata import is_group_key
from repro.obs.trace import RecordingTracer
from repro.schemes import build_scheme
from repro.sim.clock import SimClock

_FLEET = ("amazon_s3", "azure", "aliyun", "rackspace")
#: variant -> (build_scheme name, constructor kwargs)
VARIANTS = {
    **{n: (n, {}) for n in ("single", "duracloud", "racs", "hyrd", "hyrd-rs", "depsky", "depsky-ca", "nccloud")},
    "hyrd-fmsr-2k": ("hyrd", {"config": HyRDConfig(erasure_codec="fmsr", size_threshold=2048)}),
    "hyrd-rs-2k": ("hyrd", {"config": HyRDConfig(erasure_codec="rs", size_threshold=2048)}),
}
_EXPECTED = (CloudError, FileNotFoundError, ValueError)
_SLOT = st.integers(0, 2)
_SIZE = st.sampled_from([6000, 0, 7, 1500, 20_000, 1_100_000])
_SEED = st.integers(0, 255)


def _path(slot: int) -> str:
    return f"/m/f{slot}"


def _payload(size: int, seed: int) -> bytes:
    return np.random.default_rng(seed).bytes(size)


def _quietly(fn, *args):
    try:
        return fn(*args)
    except _EXPECTED:
        return None


class SchemeMachine(RuleBasedStateMachine):
    variant = "single"

    def __init__(self):
        super().__init__()
        self.clock = SimClock()
        self.fleet = make_table2_cloud_of_clouds(self.clock)
        self.model = ReferenceModel()
        self.evolved = False
        self.scheme = self._build()
        self.scheme.attach_journal()

    def _build(self):
        name, kwargs = VARIANTS[self.variant]
        self.tracer = RecordingTracer(self.clock)
        return build_scheme(name, self.fleet, self.clock, tracer=self.tracer, **kwargs)

    def _op(self, kind, slot, size=0, seed=0, offset=0):
        """Apply one op through the model.  A put never fails; another op
        may fail only on a path the model allows to be absent or, when it
        reads the content, below ``min_needed`` usable placements."""
        path = _path(slot)
        entry, allowed = self.scheme.namespace.lookup(path), self.model.allowed(path)
        try:
            if kind in ("put", "get", "remove"):
                args = (_payload(size, seed),) if kind == "put" else ()
                getattr(self.model, kind)(self.scheme, path, *args)
            elif kind == "update" and self.model.base_for_update(self.scheme, path) is not None:
                base = self.model.acked(path)
                self.model.update(self.scheme, path, offset % (len(base) + 1), _payload(size, seed))
        except FileNotFoundError:
            assert None in allowed
        except CloudError:
            assert kind != "put", f"put {path} failed"
            assert entry is not None and self.model.margin(self.scheme, entry) < 0

    @initialize(sizes=st.lists(_SIZE, min_size=3, max_size=3), seed=_SEED)
    def populate(self, sizes, seed):
        for slot, size in enumerate(sizes):
            self.model.put(self.scheme, _path(slot), _payload(size, seed + slot))

    @rule(slot=_SLOT, size=_SIZE, seed=_SEED)
    def put(self, slot, size, seed):
        self._op("put", slot, size, seed)

    @rule(slot=_SLOT, size=st.sampled_from([1, 100, 3000]), seed=_SEED, offset=st.integers(0, 30_000))
    def update(self, slot, size, seed, offset):
        self._op("update", slot, size, seed, offset)

    @rule(slot=_SLOT)
    def remove(self, slot):
        self._op("remove", slot)

    @rule(slot=_SLOT)
    def get(self, slot):
        self._op("get", slot)
        names = _quietly(self.scheme.listdir, "/m")
        for path in [] if names is None else self.model.paths():
            allowed = self.model.allowed(path)
            assert None in allowed or path in names[0], f"{path} not listed"
            assert allowed != [None] or path not in names[0], f"{path} listed"

    @rule(provider=st.sampled_from(_FLEET), seconds=st.sampled_from([30.0, 120.0, 600.0]))
    def outage(self, provider, seconds):
        self.fleet[provider].faults.add(OutageWindow(self.clock.now, self.clock.now + seconds))

    @rule(seconds=st.sampled_from([0.0, 70.0, 400.0]))
    def advance_and_heal(self, seconds):
        self.clock.advance(seconds)
        _quietly(self.scheme.heal_returned)

    @rule(slot=_SLOT, pick=st.integers(0, 7), how=st.sampled_from(["rot", "truncate", "loss"]))
    def damage_data(self, slot, pick, how):
        entry = self.scheme.namespace.lookup(_path(slot))
        if entry is None or self.model.margin(self.scheme, entry, reachable_only=False) < 1:
            return
        held = [s for s in sites(self.scheme, entry) if self.fleet[s[0]].store.has(self.scheme.container, s[1])]
        if held:
            prov, key = held[pick % len(held)]
            self.model.inject(self.fleet[prov], self.scheme.container, key, how, self.clock.now)

    @rule(pick=st.integers(0, 7), how=st.sampled_from(["truncate", "empty-object"]))
    def damage_group(self, pick, how):
        # Known gap, so no loss: recover_namespace lists group keys from the
        # first listable provider only, and one that lost its copy hides
        # the directory.
        store = {name: self.fleet[name].store for name in self.scheme.provider_names}
        copies = [(n, k) for n in store for k in store[n].list(self.scheme.container) if is_group_key(k)]
        if len(copies) > 1 and not any(is_group_key(k) for _, k in self.model.damaged(self.scheme)):
            prov, key = copies[pick % len(copies)]
            self.model.inject(self.fleet[prov], self.scheme.container, key, how, self.clock.now)

    @precondition(lambda self: not self.evolved)
    @rule(ordinal=st.integers(1, 12), kind=st.sampled_from(["idle", "put", "update", "remove"]),
          slot=_SLOT, size=_SIZE, seed=_SEED)  # fmt: skip
    def crash(self, ordinal, kind, slot, size, seed):
        self.scheme.install_crash_schedule(CrashSchedule([ordinal]))
        try:
            self._op(kind, slot, size, seed, seed * 97)
        except ClientCrash:
            pass
        if self.variant.startswith("hyrd"):
            # Known gap: a HyRD client built mid-outage classifies the down providers
            # out and looks for metadata groups there.  It waits for clear weather.
            clear = max([e.end for p in self.fleet.values() for e in p.faults.effects], default=0.0)
            self.clock.advance(max(0.0, clear + 1.0 - self.clock.now))
        dead, self.scheme = self.scheme, self._build()
        summary = replace_client(dead, self.scheme)
        self.model.recovered(summary)

    @rule(slot=_SLOT)
    def scrub(self, slot):
        audit = _quietly(self.scheme.verify_object, _path(slot))
        if audit is not None and audit.ok:
            damaged = self.model.damaged(self.scheme) & set(sites(self.scheme, self.scheme.namespace.lookup(_path(slot))))
            assert not damaged, f"audit blind to {damaged}"
        elif audit is not None:
            _quietly(self.scheme.repair_object, _path(slot), audit)
        self._op("get", slot)

    @rule(slot=_SLOT)
    def migrate(self, slot):
        _quietly(self.scheme.migrate_object, _path(slot))
        self._op("get", slot)

    @precondition(lambda self: self.variant == "nccloud")
    @rule(provider=st.sampled_from(_FLEET))
    def repair_provider(self, provider):
        # Known gap: a functional repair evolves the object's coding matrix,
        # which a restarted client cannot re-derive; no restart follows one.
        self.evolved = True
        _quietly(self.scheme.repair_provider, provider)
        for slot in range(3):
            self._op("get", slot)

    @invariant()
    def nothing_left_open(self):
        assert self.scheme._current is None
        assert self.tracer._stack == []
        assert not any(self.model.findings.values()), self.model.findings

    @invariant()
    def payload_cache_names_live_objects(self):
        scheme, damaged = self.scheme, self.model.damaged(self.scheme)
        live = {scheme._version_key(p, scheme.namespace.get(p).version): p for p in scheme.namespace.paths()}
        for key, (ids, _) in scheme._payload_cache._entries.items():
            entry = scheme.namespace.get(live[key])  # KeyError: an entry for a dead version
            site = dict((idx, (prov, scheme._placement_storage_key(entry, idx))) for prov, idx in entry.placements)
            for idx, data, _ in scheme._held_placements(entry):
                assert site[idx] in damaged or not data or id(data) == ids[idx], f"stale {key}"

    def teardown(self):
        for provider in self.fleet.values():
            provider.faults.effects.clear()
        _, results = self.model.settle(self.scheme, self.scheme.journal, self.clock.now + 61.0)
        assert results == {name: [] for name in INVARIANTS}
        for path in self.model.live():  # healed and repaired: nothing degrades a read
            assert not self.scheme.get(path)[1].degraded, path


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_scheme_agrees_with_the_reference_model(variant):
    machine = type(f"SchemeMachine[{variant}]", (SchemeMachine,), {"variant": variant})
    budget = settings(max_examples=12, stateful_step_count=25, derandomize=True, database=None,
                      deadline=None, suppress_health_check=list(HealthCheck))  # fmt: skip
    run_state_machine_as_test(machine, settings=budget)
