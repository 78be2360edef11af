"""Unit tests for write logs (outage recovery state)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.recovery import LoggedWrite, WriteLog


class TestLoggedWrite:
    def test_validation(self):
        with pytest.raises(ValueError):
            LoggedWrite("move", "c", "k", None, 0.0)
        with pytest.raises(ValueError):
            LoggedWrite("put", "c", "k", None, 0.0)
        with pytest.raises(ValueError):
            LoggedWrite("remove", "c", "k", b"x", 0.0)


class TestWriteLog:
    def test_empty(self):
        log = WriteLog()
        assert not log
        assert len(log) == 0
        assert log.drain() == []

    def test_log_put_and_drain(self):
        log = WriteLog()
        log.log_put("c", "k", b"data", 1.0)
        assert len(log) == 1
        (entry,) = log.drain()
        assert entry.kind == "put"
        assert entry.data == b"data"
        assert not log  # drained

    def test_last_wins_per_key(self):
        log = WriteLog()
        log.log_put("c", "k", b"v1", 1.0)
        log.log_put("c", "k", b"v2", 2.0)
        assert len(log) == 1
        (entry,) = log.peek()
        assert entry.data == b"v2"

    def test_remove_supersedes_put(self):
        log = WriteLog()
        log.log_put("c", "k", b"v1", 1.0)
        log.log_remove("c", "k", 2.0)
        (entry,) = log.peek()
        assert entry.kind == "remove"

    def test_replay_order_is_recency_order(self):
        log = WriteLog()
        log.log_put("c", "a", b"1", 1.0)
        log.log_put("c", "b", b"2", 2.0)
        log.log_put("c", "a", b"3", 3.0)  # re-log moves to the end
        assert [e.key for e in log.peek()] == ["b", "a"]

    def test_distinct_keys_tracked_separately(self):
        log = WriteLog()
        log.log_put("c1", "k", b"1", 0.0)
        log.log_put("c2", "k", b"2", 0.0)
        assert len(log) == 2

    def test_discard(self):
        log = WriteLog()
        log.log_put("c", "k", b"1", 0.0)
        log.discard("c", "k")
        assert not log
        log.discard("c", "missing")  # no-op

    def test_pending_bytes(self):
        log = WriteLog()
        log.log_put("c", "a", b"12345", 0.0)
        log.log_remove("c", "b", 0.0)
        assert log.pending_bytes() == 5

    def test_payload_copied(self):
        log = WriteLog()
        buf = bytearray(b"abc")
        log.log_put("c", "k", bytes(buf), 0.0)
        buf[0] = 0
        assert log.peek()[0].data == b"abc"

    @pytest.mark.parametrize(
        "make", [bytes, memoryview], ids=["bytes", "memoryview"]
    )
    def test_immutable_payload_kept_by_identity(self, make):
        """Zero-copy, like a store's put: the replay hands the provider the
        very object the scheme digested at write time."""
        data = make(b"fragment")
        log = WriteLog()
        log.log_put("c", "k", data, 0.0)
        assert log.pending("c", "k").data is data
        assert log.pending_bytes() == len(data)

    def test_bytearray_payload_copied(self):
        buf = bytearray(b"abc")
        log = WriteLog()
        log.log_put("c", "k", buf, 0.0)
        buf[0] = 0
        logged = log.pending("c", "k").data
        assert logged == b"abc" and isinstance(logged, bytes)


class TestWriteLogSpill:
    """Bounded memory: past the limit, oldest put payloads move to the
    client-local disk tier (still replayable, no longer resident)."""

    def test_validation(self):
        with pytest.raises(ValueError):
            WriteLog(memory_limit_bytes=-1)

    def test_unlimited_never_spills(self):
        log = WriteLog()
        log.log_put("c", "k", b"x" * 1024, 0.0)
        assert log.spilled_bytes() == 0 and log.spill_events == 0
        assert log.memory_bytes() == 1024

    def test_zero_budget_spills_everything(self):
        log = WriteLog(memory_limit_bytes=0)
        log.log_put("c", "a", b"x" * 10, 0.0)
        log.log_put("c", "b", b"y" * 20, 1.0)
        assert log.memory_bytes() == 0
        assert log.spilled_bytes() == 30
        assert log.pending_bytes() == 30
        assert log.spill_events == 2

    def test_spill_is_oldest_first(self):
        log = WriteLog(memory_limit_bytes=25)
        log.log_put("c", "a", b"a" * 10, 0.0)
        log.log_put("c", "b", b"b" * 10, 1.0)
        assert log.spilled_bytes() == 0  # 20 <= 25: all resident
        log.log_put("c", "c", b"c" * 10, 2.0)
        # 30 > 25: spill "a" (oldest) — 20 resident fits the budget
        assert log.spilled_bytes() == 10
        assert log.memory_bytes() == 20
        assert log.spill_events == 1

    def test_removes_cost_no_memory(self):
        log = WriteLog(memory_limit_bytes=0)
        log.log_remove("c", "k", 0.0)
        assert log.pending_bytes() == 0 and log.spill_events == 0

    def test_overwrite_of_spilled_entry_fixes_accounting(self):
        log = WriteLog(memory_limit_bytes=0)
        log.log_put("c", "k", b"x" * 100, 0.0)
        assert log.spilled_bytes() == 100
        log.log_put("c", "k", b"y" * 40, 1.0)
        assert log.pending_bytes() == 40
        assert log.spilled_bytes() == 40  # re-spilled under the zero budget
        log.log_remove("c", "k", 2.0)
        assert log.pending_bytes() == 0 and log.spilled_bytes() == 0

    def test_discard_of_spilled_entry(self):
        log = WriteLog(memory_limit_bytes=0)
        log.log_put("c", "k", b"x" * 7, 0.0)
        log.discard("c", "k")
        assert not log
        assert log.pending_bytes() == 0 and log.spilled_bytes() == 0

    def test_drain_reloads_spilled_payloads_and_resets(self):
        log = WriteLog(memory_limit_bytes=0)
        log.log_put("c", "a", b"payload-a", 0.0)
        log.log_put("c", "b", b"payload-b", 1.0)
        entries = log.drain()
        # entries always carry their data, whatever tier they waited on
        assert [e.data for e in entries] == [b"payload-a", b"payload-b"]
        assert log.pending_bytes() == 0
        assert log.memory_bytes() == 0
        assert log.spilled_bytes() == 0

    @given(
        limit=st.integers(min_value=0, max_value=64),
        sizes=st.lists(st.integers(min_value=0, max_value=32), max_size=20),
    )
    def test_tier_accounting_is_conserved(self, limit, sizes):
        log = WriteLog(memory_limit_bytes=limit)
        for i, size in enumerate(sizes):
            log.log_put("c", f"k{i}", b"x" * size, float(i))
            # the two tiers always partition the pending payload...
            assert log.memory_bytes() + log.spilled_bytes() == log.pending_bytes()
            # ...and residency only exceeds the budget when nothing more
            # can be spilled (every retained payload is already on disk)
            if log.memory_bytes() > limit:
                assert all(
                    e.data is None or log.spilled_bytes() >= log.pending_bytes()
                    for e in log.peek()
                )


# (container, key) space small enough that random sequences collide often —
# collisions are exactly what exercises the last-wins compaction.
_KEYS = st.tuples(st.sampled_from(["c1", "c2"]), st.sampled_from(["a", "b", "c"]))
# payload None encodes a remove, bytes a put
_OPS = st.lists(st.tuples(_KEYS, st.none() | st.binary(max_size=32)), max_size=50)


class TestWriteLogReplayProperties:
    """Replay semantics under arbitrary interleaved put/remove sequences."""

    @staticmethod
    def _apply(log, ops):
        for i, ((container, key), payload) in enumerate(ops):
            if payload is None:
                log.log_remove(container, key, float(i))
            else:
                log.log_put(container, key, payload, float(i))

    @given(ops=_OPS)
    def test_replay_is_last_write_per_key_in_log_order(self, ops):
        log = WriteLog()
        self._apply(log, ops)
        # last mutation per key, and the position where it happened
        last: dict[tuple[str, str], tuple[int, bytes | None]] = {}
        for i, (k, payload) in enumerate(ops):
            last[k] = (i, payload)
        entries = log.drain()
        assert not log  # drain empties the log
        # exactly one entry per mutated key, carrying its final state
        assert {(e.container, e.key) for e in entries} == set(last)
        for e in entries:
            _, payload = last[(e.container, e.key)]
            if payload is None:
                assert e.kind == "remove" and e.data is None
            else:
                assert e.kind == "put" and e.data == payload
        # replay order == order of each key's *latest* mutation
        positions = [last[(e.container, e.key)][0] for e in entries]
        assert positions == sorted(positions)

    @given(ops=_OPS)
    def test_pending_bytes_matches_drained_payload(self, ops):
        log = WriteLog()
        self._apply(log, ops)
        pending = log.pending_bytes()
        drained = log.drain()
        assert pending == sum(len(e.data) for e in drained if e.data is not None)
        assert log.pending_bytes() == 0

    @given(ops=_OPS)
    def test_replaying_drain_reproduces_final_state(self, ops):
        """Applying the compacted log to a store yields the same contents as
        applying the full mutation sequence — the consistency-update
        correctness argument."""
        log = WriteLog()
        full: dict[tuple[str, str], bytes] = {}
        for i, ((container, key), payload) in enumerate(ops):
            if payload is None:
                log.log_remove(container, key, float(i))
                full.pop((container, key), None)
            else:
                log.log_put(container, key, payload, float(i))
                full[(container, key)] = payload
        replayed: dict[tuple[str, str], bytes] = {}
        for e in log.drain():
            if e.kind == "put":
                replayed[(e.container, e.key)] = e.data
            elif e.kind == "remove":
                replayed.pop((e.container, e.key), None)
        assert replayed == full


# Every mutation kind over a colliding key space; ``create`` is
# container-level, so its key is ignored (it lands on key "").
_HISTORY = st.lists(
    st.tuples(
        st.sampled_from(["put", "remove", "create", "discard"]),
        st.sampled_from(["c1", "c2"]),
        st.sampled_from(["", "a", "b"]),
        st.binary(max_size=16),
    ),
    max_size=40,
)


class TestKeyedLookup:
    @given(history=_HISTORY, limit=st.none() | st.integers(min_value=0, max_value=48))
    def test_pending_equals_the_peek_scan(self, history, limit):
        """``pending`` answers exactly what a linear scan of ``peek()`` for
        the (container, key) did, after every step."""
        log = WriteLog(memory_limit_bytes=limit)
        for i, (kind, container, key, data) in enumerate(history):
            if kind == "put":
                log.log_put(container, key, data, float(i))
            elif kind == "remove":
                log.log_remove(container, key, float(i))
            elif kind == "create":
                log.log_create(container, float(i))
            else:
                log.discard(container, key)
            for c in ("c1", "c2"):
                for k in ("", "a", "b"):
                    scanned = next(
                        (e for e in log.peek() if e.container == c and e.key == k), None
                    )
                    assert log.pending(c, k) is scanned
                    assert log.has_pending(c, k) == (scanned is not None)
