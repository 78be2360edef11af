"""Unit tests for the write-ahead intent journal (crash consistency)."""

import pytest

from repro.cloud.provider import make_table2_cloud_of_clouds
from repro.fs.journal import IntentJournal
from repro.schemes import RacsScheme
from repro.sim.clock import SimClock
from repro.sim.rng import make_rng

_FLEET = ("amazon_s3", "azure", "aliyun", "rackspace")


def _begin(journal, *, kind="put", path="/j/a", payload=b"data", **over):
    kwargs = dict(
        kind=kind,
        path=path,
        version=1,
        codec="rs(4,3)",
        min_needed=3,
        sites=(("amazon_s3", "k0"), ("azure", "k1")),
        payload=payload,
        prev=None,
        logged_at=0.0,
    )
    kwargs.update(over)
    return journal.begin(**kwargs)


class TestWriteIntent:
    def test_validation(self):
        with pytest.raises(ValueError):
            _begin(IntentJournal(), kind="rename")
        with pytest.raises(ValueError):
            _begin(IntentJournal(), kind="put", payload=None)
        with pytest.raises(ValueError):
            _begin(IntentJournal(), kind="update", payload=None)
        with pytest.raises(ValueError):
            _begin(IntentJournal(), min_needed=-1)
        # removes journal no payload — that is their normal shape
        intent = _begin(IntentJournal(), kind="remove", payload=None)
        assert intent.payload_bytes == 0

    def test_describe_is_json_friendly_and_payload_free(self):
        import json

        intent = _begin(IntentJournal(), payload=b"\x00" * 100)
        d = intent.describe()
        json.dumps(d)  # must not raise
        assert d["payload_bytes"] == 100
        assert d["path"] == "/j/a"
        assert "payload" not in d and "prev" not in d


class TestIntentJournal:
    def test_begin_assigns_monotone_seqs(self):
        journal = IntentJournal()
        a = _begin(journal, path="/j/a")
        b = _begin(journal, path="/j/b")
        assert b.seq == a.seq + 1
        assert [i.path for i in journal.pending()] == ["/j/a", "/j/b"]
        assert journal.begun_total == 2

    def test_commit_drops_intent_and_bytes(self):
        journal = IntentJournal()
        intent = _begin(journal, payload=b"xyz")
        assert journal.payload_bytes() == 3
        journal.commit(intent.seq)
        assert not journal and len(journal) == 0
        assert journal.payload_bytes() == 0
        assert journal.commits_total == 1
        with pytest.raises(KeyError):
            journal.commit(intent.seq)

    def test_mark_aborted_keeps_intent_listed(self):
        journal = IntentJournal()
        intent = _begin(journal)
        journal.mark_aborted(intent.seq)
        assert journal  # still pending: recovery must GC it
        (listed,) = journal.pending()
        assert listed.state == "aborted"
        with pytest.raises(KeyError):
            journal.mark_aborted(999)

    def test_resolve_is_idempotent(self):
        journal = IntentJournal()
        intent = _begin(journal, payload=b"abcd")
        journal.resolve(intent.seq)
        assert journal.payload_bytes() == 0
        journal.resolve(intent.seq)  # no-op, no raise
        assert journal.payload_bytes() == 0

    def test_payload_copied_on_begin(self):
        journal = IntentJournal()
        buf = bytearray(b"abc")
        intent = _begin(journal, payload=bytes(buf))
        buf[0] = 0
        assert intent.payload == b"abc"

    def test_attach_meta_stashes_redo_image_until_resolved(self):
        journal = IntentJournal()
        intent = _begin(journal)
        journal.attach_meta(intent.seq, "/j", b"group-blob")
        assert intent.meta_blobs == {"/j": b"group-blob"}
        journal.commit(intent.seq)
        # once resolved the stash is a no-op (nothing to redo)
        journal.attach_meta(intent.seq, "/j", b"late")
        assert intent.meta_blobs == {"/j": b"group-blob"}


class TestJournalZeroCost:
    """Attaching a journal must not perturb the simulation: no RNG draws,
    no clock access, no extra cloud requests.  That is the property that
    keeps the fig3/fig6 goldens byte-identical whether or not a journal is
    attached — asserted here on identical op streams."""

    @staticmethod
    def _run(attach: bool):
        clock = SimClock()
        fleet = make_table2_cloud_of_clouds(clock)
        scheme = RacsScheme([fleet[p] for p in _FLEET], clock)
        if attach:
            scheme.attach_journal()
        rng = make_rng(7, "journal-zero-cost")
        contents = {}
        for i in range(6):
            path = f"/z/f{i}"
            contents[path] = rng.bytes(48 * 1024)
            scheme.put(path, contents[path])
        scheme.put("/z/f1", rng.bytes(48 * 1024))  # overwrite (stale removal)
        scheme.remove("/z/f2")
        for i in (0, 1, 3):
            scheme.get(f"/z/f{i}")
        return scheme

    def test_attached_journal_is_invisible_to_the_data_plane(self):
        baseline = self._run(attach=False)
        journaled = self._run(attach=True)
        assert journaled.collector.reports == baseline.collector.reports
        assert journaled.clock.now == baseline.clock.now

    def test_clean_ops_commit_their_intents(self):
        scheme = self._run(attach=True)
        journal = scheme.journal
        assert not journal  # every intent committed
        # 7 puts + 1 remove journaled; gets journal nothing
        assert journal.begun_total == 8
        assert journal.commits_total == 8
