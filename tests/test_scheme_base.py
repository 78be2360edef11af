"""Unit tests for the scheme framework (phases, reports, metadata, healing)."""

from types import SimpleNamespace

import pytest

from repro.faults import OutageWindow
from repro.maintenance.budget import TokenBucket
from repro.maintenance.gc import OrphanSweeper
from repro.obs import RecordingTracer
from repro.schemes import RacsScheme, SingleCloudScheme, build_scheme
from repro.schemes.base import CloudOp, DataUnavailable


@pytest.fixture
def single(providers, clock):
    return SingleCloudScheme(providers["aliyun"], clock)


@pytest.fixture
def racs(providers, clock):
    return RacsScheme(list(providers.values()), clock)


class TestPhaseExecution:
    def test_clock_advances_with_ops(self, single, clock, payload):
        t0 = clock.now
        single.put("/d/a", payload(1000))
        assert clock.now > t0

    def test_reports_collected(self, single, payload):
        single.put("/d/a", payload(10))
        single.get("/d/a")
        ops = [r.op for r in single.collector.reports]
        assert ops == ["put", "get"]

    def test_report_bytes_accounting(self, single, payload):
        report = single.put("/d/a", payload(1000))
        # data + metadata write-through
        assert report.bytes_up > 1000
        _, got = single.get("/d/a")
        assert got.bytes_down == 1000

    def test_cloudop_validation(self):
        with pytest.raises(ValueError):
            CloudOp("p", "frobnicate", "c")
        with pytest.raises(ValueError):
            CloudOp("p", "put", "c", "k", None)

    def test_request_records_are_slotted_and_still_validated(self):
        """The per-request records — a request with its outcome, and its
        transfer spec — carry no ``__dict__`` and are not frozen, but every
        ``__post_init__`` check runs, ``replace`` included."""
        import dataclasses
        import math

        from repro.sim.bandwidth import TransferSpec

        op = CloudOp("p", "put", "c", "k", b"x")
        spec = TransferSpec(0.1, 10.0, 5.0)
        assert not any(hasattr(r, "__dict__") for r in (op, spec))
        op.ok, op.finish = True, 0.5  # _issue fills the outcome in place
        for bad in [
            lambda: CloudOp("p", "frobnicate", "c"),
            lambda: CloudOp("p", "put", "c", "k"),
            lambda: dataclasses.replace(op, data=None),
            lambda: TransferSpec(-0.1, 1.0),
            lambda: TransferSpec(0.0, -1.0),
            lambda: TransferSpec(0.0, 1.0, 0.0),
            lambda: TransferSpec(0.0, 1.0, -math.inf),
            lambda: dataclasses.replace(spec, start_delay=-1.0),
        ]:
            with pytest.raises(ValueError):
                bad()

    def test_nested_ops_rejected(self, single, payload):
        with single._op("stat", "/outer"):
            with pytest.raises(RuntimeError):
                with single._op("stat", "/inner"):
                    pass
            # the refused inner scope must not have disarmed the outer one
            assert single._current is not None
        assert single._current is None
        single.put("/d/a", payload(10))

    def test_duplicate_providers_rejected(self, providers, clock):
        with pytest.raises(ValueError):
            RacsScheme(
                [providers["aliyun"], providers["aliyun"], providers["azure"]], clock
            )


def _sweep_queued_orphan(scheme):
    sweeper = OrphanSweeper(scheme, TokenBucket(None, 1 << 20, scheme.clock))
    entry = scheme.namespace.get("/d/a")
    prov, idx = entry.placements[0]
    sweeper.enqueue(prov, scheme.container, scheme._placement_storage_key(entry, idx))
    sweeper.run_cycle()


#: every entry point that opens an op scope -> a call that raises inside it
#: (a missing or invalid path on its own, the rest once ``_apply_op`` is rigged)
_OP_ENTRY_POINTS = {
    "put": lambda s: s.put("/d/new", b"n" * 2048),
    "get": lambda s: s.get("/d/a"),
    "update": lambda s: s.update("/d/a", 8, b"patch"),
    "remove": lambda s: s.remove("/d/a"),
    "stat": lambda s: s.stat("/d/missing"),
    "listdir": lambda s: s.listdir("/d/.."),
    "heal_returned": lambda s: s.heal_returned(),
    "recover_namespace": lambda s: s.recover_namespace(),
    "verify_object": lambda s: s.verify_object("/d/a"),
    "repair_object": lambda s: s.repair_object("/d/a"),
    "migrate_object": lambda s: s.migrate_object("/d/a"),
    "recover/_sweep_orphans": lambda s: s.recover(),
    "_rollback_intent": lambda s: s._rollback_intent(SimpleNamespace(prev=None, path="/d/a")),
    "OrphanSweeper.run_cycle": _sweep_queued_orphan,
    "HyrdScheme._promote": lambda s: s._promote("/d/a", b"hot" * 100),
    "NCCloudScheme.repair_provider": lambda s: s.repair_provider("rackspace"),
}
_ONLY_ON = {"HyrdScheme._promote": "hyrd", "NCCloudScheme.repair_provider": "nccloud"}
_SCHEMES = ("single", "duracloud", "racs", "depsky", "depsky-ca", "nccloud", "hyrd")


class TestOpScopeExceptionSafety:
    """An op that raises — from whichever entry point — leaves the scheme
    disarmed and its root span closed: the next op just runs."""

    @pytest.mark.parametrize(
        "scheme_name,entry",
        [
            (name, entry)
            for name in _SCHEMES
            for entry in _OP_ENTRY_POINTS
            if _ONLY_ON.get(entry, name) == name
        ],
    )
    def test_raising_op_does_not_wedge_the_scheme(
        self, scheme_name, entry, providers, clock, payload
    ):
        tracer = RecordingTracer(clock)
        scheme = build_scheme(scheme_name, providers, clock, tracer=tracer)
        scheme.attach_journal()
        scheme.put("/d/a", payload(4096))
        # something for the consistency update to replay
        first = scheme.provider_names[0]
        scheme.pending_log(first).log_put(scheme.container, "stray", b"x", clock.now)

        def boom(provider, op):
            raise RuntimeError("injected")

        scheme._apply_op = boom
        with pytest.raises((RuntimeError, FileNotFoundError, ValueError)) as raised:
            _OP_ENTRY_POINTS[entry](scheme)
        assert "nested" not in str(raised.value)
        del scheme._apply_op

        assert tracer._stack == []  # no root span left open
        data = payload(2048)
        scheme.put("/d/after", data)
        assert scheme.get("/d/after")[0] == data


def _all_scheme_classes():
    import repro.core.hyrd  # noqa: F401 - loads HyRDClient
    from repro.schemes.base import Scheme

    seen, todo = [], [Scheme]
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return seen


class TestOneWritePath:
    """An object version is scattered in one function; a scheme is a
    placement rule, an ack rule and (DepSky-CA) a codec."""

    def test_only_the_base_and_hyrd_define_write_placement(self):
        classes = _all_scheme_classes()
        assert {c.__name__ for c in classes} >= {
            "SingleCloudScheme", "DuraCloudScheme", "RacsScheme", "DepSkyScheme",
            "DepSkyCAScheme", "NCCloudScheme", "HyRDClient",
        }  # fmt: skip
        definers = {c.__name__ for c in classes if "_write_placement" in vars(c)}
        assert definers == {"Scheme", "HyRDClient"}  # HyRD drops its hot copy
        for cls in classes:
            assert "_write_replicated" not in vars(cls), cls
            assert "_write_striped" not in vars(cls), cls

    def test_depsky_ca_has_no_data_path_of_its_own(self):
        from repro.schemes import DepSkyCAScheme

        for name in ("_read_object", "_peek_content"):
            assert name not in vars(DepSkyCAScheme), name

    def test_place_is_the_only_abstract_method(self):
        from repro.schemes.base import Scheme

        assert Scheme.__abstractmethods__ == {"_place"}


class TestPublicApi:
    def test_put_get_roundtrip(self, single, payload):
        data = payload(5000)
        single.put("/d/a", data)
        got, report = single.get("/d/a")
        assert got == data
        assert report.op == "get"

    def test_get_missing_raises(self, single):
        with pytest.raises(FileNotFoundError):
            single.get("/nope")

    def test_update_grows_file(self, single, payload):
        single.put("/d/a", payload(100))
        single.update("/d/a", 90, b"0123456789ABCDEF")
        got, _ = single.get("/d/a")
        assert len(got) == 106
        assert got[90:] == b"0123456789ABCDEF"

    def test_update_in_place(self, single, payload):
        data = payload(100)
        single.put("/d/a", data)
        single.update("/d/a", 10, b"XX")
        got, _ = single.get("/d/a")
        assert got[10:12] == b"XX"
        assert got[:10] == data[:10]
        assert got[12:] == data[12:]

    def test_remove(self, single, payload):
        single.put("/d/a", payload(10))
        single.remove("/d/a")
        with pytest.raises(FileNotFoundError):
            single.get("/d/a")

    def test_remove_frees_provider_bytes(self, single, payload):
        single.put("/d/a", payload(1000))
        single.remove("/d/a")
        # Only the (small) metadata group remains.
        assert single.total_stored_bytes() < 500

    def test_stat_and_listdir(self, single, payload):
        single.put("/d/a", payload(10))
        single.put("/d/b", payload(20))
        entry, _ = single.stat("/d/a")
        assert entry.size == 10
        names, _ = single.listdir("/d")
        assert names == ["/d/a", "/d/b"]

    def test_overwrite_gc_old_version(self, single, payload):
        single.put("/d/a", payload(1000))
        single.put("/d/a", payload(2000))
        data_bytes = sum(
            obj.size
            for objs in single.provider("aliyun").store._containers.values()
            for key, obj in objs.items()
            if not key.startswith("__meta__")
        )
        assert data_bytes == 2000  # v1 garbage-collected

    def test_path_normalization(self, single, payload):
        single.put("d//a", payload(5))
        got, _ = single.get("/d/a")
        assert len(got) == 5


class TestMetadataWriteThrough:
    def test_meta_object_persisted(self, single, payload):
        single.put("/docs/a", payload(10))
        store = single.provider("aliyun").store
        assert store.has(single.container, "__meta__/docs")

    def test_meta_updated_on_remove(self, single, payload):
        single.put("/docs/a", payload(10))
        single.put("/docs/b", payload(10))
        single.remove("/docs/a")
        from repro.fs.metadata import decode_group

        blob = single.provider("aliyun").store.get(
            single.container, "__meta__/docs"
        ).data
        entries = decode_group(blob)
        assert [e.path for e in entries] == ["/docs/b"]

    def test_stat_hits_cache_second_time(self, single, payload):
        single.put("/docs/a", payload(10))
        _, first = single.stat("/docs/a")
        _, second = single.stat("/docs/a")
        assert second.cloud_ops == 0  # cache hit: no provider requests
        assert second.elapsed == 0.0


class TestOutagesAndHealing:
    def test_striped_degraded_read(self, racs, providers, clock, payload):
        data = payload(9000)
        racs.put("/d/a", data)
        providers["azure"].faults.add(OutageWindow(clock.now, clock.now + 3600))
        got, report = racs.get("/d/a")
        assert got == data
        assert report.degraded

    def test_write_logged_during_outage(self, racs, providers, clock, payload):
        providers["azure"].faults.add(OutageWindow(clock.now, clock.now + 3600))
        racs.put("/d/a", payload(900))
        assert len(racs.pending_log("azure")) > 0

    def test_heal_replays_log(self, racs, providers, clock, payload):
        data = payload(900)
        window = OutageWindow(clock.now, clock.now + 3600)
        providers["azure"].faults.add(window)
        racs.put("/d/a", data)
        clock.advance_to(window.end)
        reports = racs.heal_returned()
        assert len(reports) == 1
        assert reports[0].op == "heal"
        assert len(racs.pending_log("azure")) == 0
        # Azure now holds its fragment; a normal (non-degraded) read works.
        got, report = racs.get("/d/a")
        assert got == data
        assert not report.degraded

    def test_heal_noop_when_no_logs(self, racs):
        assert racs.heal_returned() == []

    def test_too_many_outages_raise(self, racs, providers, clock, payload):
        racs.put("/d/a", payload(900))
        for name in ("azure", "aliyun"):
            providers[name].faults.add(OutageWindow(clock.now, clock.now + 60))
        with pytest.raises(DataUnavailable):
            racs.get("/d/a")

    def test_update_during_outage_then_heal(self, racs, providers, clock, payload):
        data = payload(9000)
        racs.put("/d/a", data)
        window = OutageWindow(clock.now, clock.now + 3600)
        providers["azure"].faults.add(window)
        racs.update("/d/a", 100, b"PATCH")
        got, _ = racs.get("/d/a")
        assert got[100:105] == b"PATCH"
        clock.advance_to(window.end)
        racs.heal_returned()
        got2, report = racs.get("/d/a")
        assert got2[100:105] == b"PATCH"
        assert not report.degraded


class TestRankProvidersByIndex:
    """Pin `_rank_providers_by_index`: static by construction, load-aware
    only when a FragmentScheduler is attached."""

    SIZE = 3 * 1024 * 1024

    def _by_index(self, racs):
        return dict(enumerate(racs.provider_names))

    def _static_order(self, racs, by_index):
        frag = racs.codec.fragment_size(self.SIZE)
        return sorted(
            by_index,
            key=lambda i: racs._estimate_latency(by_index[i], frag, "down"),
        )

    def test_healthy_orders_by_static_estimate(self, racs):
        by_index = self._by_index(racs)
        order = racs._rank_providers_by_index(by_index, self.SIZE, racs.codec)
        assert order == self._static_order(racs, by_index)
        assert sorted(order) == sorted(by_index)  # a permutation, no drops

    def test_degraded_health_does_not_move_static_ranking(self, racs):
        """Static ranking deliberately ignores health: adaptive demotion is
        the scheduler's (or `_rank_providers(adaptive=True)`'s) job, and
        availability filtering happens later via the usable() predicate."""
        by_index = self._by_index(racs)
        baseline = racs._rank_providers_by_index(by_index, self.SIZE, racs.codec)
        fastest = by_index[baseline[0]]
        for _ in range(20):
            racs.health[fastest].record_latency(observed=50.0, expected=1.0)
        assert (
            racs._rank_providers_by_index(by_index, self.SIZE, racs.codec)
            == baseline
        )

    def test_open_breaker_does_not_move_static_ranking(self, racs, clock):
        by_index = self._by_index(racs)
        baseline = racs._rank_providers_by_index(by_index, self.SIZE, racs.codec)
        fastest = by_index[baseline[0]]
        breaker = racs._breakers[fastest]
        for _ in range(breaker.failure_threshold):
            breaker.record_failure(clock.now)
        assert breaker.state == "open"
        assert (
            racs._rank_providers_by_index(by_index, self.SIZE, racs.codec)
            == baseline
        )

    def test_scheduler_demotes_degraded_provider(self, racs):
        from repro.core.scheduling import FragmentScheduler

        by_index = self._by_index(racs)
        baseline = racs._rank_providers_by_index(by_index, self.SIZE, racs.codec)
        racs.attach_scheduler(FragmentScheduler())
        # Healthy fleet: the load-aware score degenerates to the static
        # estimate, so the ranking is unchanged.
        assert (
            racs._rank_providers_by_index(by_index, self.SIZE, racs.codec)
            == baseline
        )
        fastest = by_index[baseline[0]]
        for _ in range(20):
            racs.health[fastest].record_latency(observed=50.0, expected=1.0)
        ranked = racs._rank_providers_by_index(by_index, self.SIZE, racs.codec)
        assert ranked[-1] == baseline[0]  # browned-out: demoted to last

    def test_scheduler_ranks_open_breaker_last(self, racs, clock):
        from repro.core.scheduling import FragmentScheduler

        by_index = self._by_index(racs)
        baseline = racs._rank_providers_by_index(by_index, self.SIZE, racs.codec)
        racs.attach_scheduler(FragmentScheduler())
        fastest = by_index[baseline[0]]
        breaker = racs._breakers[fastest]
        for _ in range(breaker.failure_threshold):
            breaker.record_failure(clock.now)
        ranked = racs._rank_providers_by_index(by_index, self.SIZE, racs.codec)
        assert ranked[-1] == baseline[0]  # fast-failed: scored infinite


class TestSpaceOverhead:
    def test_single_has_no_redundancy(self, single, payload):
        single.put("/d/a", payload(10_000))
        assert single.space_overhead() == pytest.approx(1.0, abs=0.05)

    def test_racs_overhead_is_4_over_3(self, racs, payload):
        racs.put("/d/a", payload(30_000))
        assert racs.space_overhead() == pytest.approx(4 / 3, abs=0.05)

    def test_empty_scheme_zero(self, single):
        assert single.space_overhead() == 0.0
