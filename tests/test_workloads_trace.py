"""Unit tests for trace records and the replayer."""

import pytest

from repro.schemes import SingleCloudScheme
from repro.workloads.trace import TraceOp, TraceReplayer


@pytest.fixture
def scheme(providers, clock):
    return SingleCloudScheme(providers["aliyun"], clock)


class TestTraceOp:
    def test_validation(self):
        with pytest.raises(ValueError):
            TraceOp("frobnicate", "/a")
        with pytest.raises(ValueError):
            TraceOp("put", "/a", size=-1)


class TestReplayer:
    def test_full_lifecycle(self, scheme):
        ops = [
            TraceOp("put", "/d/a", size=1000),
            TraceOp("get", "/d/a"),
            TraceOp("stat", "/d/a"),
            TraceOp("list", "/d"),
            TraceOp("update", "/d/a", size=10, offset=5),
            TraceOp("get", "/d/a"),
            TraceOp("remove", "/d/a"),
        ]
        collector = TraceReplayer(seed=1).run(scheme, ops)
        assert len(collector) == 7
        assert [r.op for r in collector.reports] == [
            "put",
            "get",
            "stat",
            "list",
            "update",
            "get",
            "remove",
        ]

    def test_payloads_deterministic(self):
        r1, r2 = TraceReplayer(seed=9), TraceReplayer(seed=9)
        assert r1.payload("/a", 1, 64) == r2.payload("/a", 1, 64)
        assert r1.payload("/a", 1, 64) != r1.payload("/a", 2, 64)
        assert r1.payload("/a", 1, 64) != r1.payload("/b", 1, 64)

    def test_payloads_stable_across_block_cache_eviction(self):
        from repro.workloads import trace as trace_mod

        r = TraceReplayer(seed=9)
        before = r.payload("/a", 1, 64)
        for i in range(trace_mod._MAX_CACHED_BLOCKS + 8):
            r.payload(f"/filler/{i}", 1, 8)
        assert len(r._blocks) <= trace_mod._MAX_CACHED_BLOCKS
        assert r.payload("/a", 1, 64) == before

    def test_patch_stream_is_namespaced_from_put_stream(self):
        """Patch payloads can never collide with put payloads, no matter how
        many versions a path accumulates (the old derivation used
        ``put_version + 1000``, which collided once a path saw >999 puts)."""
        r = TraceReplayer(seed=9)
        patches = {r.patch_payload("/a", seq, 64) for seq in range(1, 8)}
        puts = {r.payload("/a", version, 64) for version in range(1, 2048)}
        assert not patches & puts
        # ...and the patch stream itself is deterministic and per-seq distinct.
        assert r.patch_payload("/a", 1, 64) == TraceReplayer(seed=9).patch_payload("/a", 1, 64)
        assert r.patch_payload("/a", 1, 64) != r.patch_payload("/a", 2, 64)

    def test_scheme_integrity_layer_catches_corruption(self, scheme, providers):
        """Provider-side corruption trips the scheme's digest verification
        (the HAIL-style layer) before the replayer even sees the data."""
        from repro.schemes.base import DataUnavailable

        replayer = TraceReplayer(seed=1)
        replayer.run(scheme, [TraceOp("put", "/d/a", size=100)])
        providers["aliyun"].store.put(scheme.container, "/d/a#v1", b"\x00" * 100, 0.0)
        with pytest.raises(DataUnavailable, match="no intact replica"):
            replayer.run(scheme, [TraceOp("get", "/d/a")])

    def test_replayer_verification_backstops_without_digests(
        self, scheme, providers
    ):
        """With digests stripped (pre-integrity metadata), the replayer's own
        content check is the last line of defence."""
        import dataclasses

        replayer = TraceReplayer(seed=1)
        replayer.run(scheme, [TraceOp("put", "/d/a", size=100)])
        entry = scheme.namespace.get("/d/a")
        scheme.namespace.upsert(dataclasses.replace(entry, digests=()))
        providers["aliyun"].store.put(scheme.container, "/d/a#v1", b"\x00" * 100, 0.0)
        with pytest.raises(AssertionError, match="content mismatch"):
            replayer.run(scheme, [TraceOp("get", "/d/a")])

    def test_verification_can_be_disabled(self, scheme, providers):
        import dataclasses

        replayer = TraceReplayer(seed=1, verify=False)
        replayer.run(scheme, [TraceOp("put", "/d/a", size=100)])
        entry = scheme.namespace.get("/d/a")
        scheme.namespace.upsert(dataclasses.replace(entry, digests=()))
        providers["aliyun"].store.put(scheme.container, "/d/a#v1", b"\x00" * 100, 0.0)
        replayer.run(scheme, [TraceOp("get", "/d/a")])  # no exception

    def test_update_tracking(self, scheme):
        replayer = TraceReplayer(seed=1)
        collector = replayer.run(
            scheme,
            [
                TraceOp("put", "/d/a", size=100),
                TraceOp("update", "/d/a", size=20, offset=90),
                TraceOp("get", "/d/a"),  # verifies the composed content
            ],
        )
        assert len(collector) == 3
        assert replayer.expected_size("/d/a") == 110
        # The regenerated expectation matches what the scheme actually serves.
        data, _report = scheme.get("/d/a")
        assert data == replayer.expected_content("/d/a")

    def test_versions_reset_after_remove(self, scheme):
        replayer = TraceReplayer(seed=1)
        replayer.run(
            scheme,
            [
                TraceOp("put", "/d/a", size=50),
                TraceOp("remove", "/d/a"),
                TraceOp("put", "/d/a", size=70),
                TraceOp("get", "/d/a"),
            ],
        )
        assert replayer.expected_size("/d/a") == 70
        assert replayer.expected_size("/gone") is None

    def test_heal_between(self, scheme, providers, clock):
        from repro.faults import OutageWindow

        window = OutageWindow(clock.now, clock.now + 10.0)
        providers["aliyun"].faults.add(window)
        replayer = TraceReplayer(seed=1)
        replayer.run(scheme, [TraceOp("put", "/d/a", size=10)])
        assert len(scheme.pending_log("aliyun")) > 0
        clock.advance_to(window.end)
        collector = replayer.run(
            scheme, [TraceOp("get", "/d/a")], heal_between=True
        )
        assert any(r.op == "heal" for r in collector.reports)
        assert len(scheme.pending_log("aliyun")) == 0
