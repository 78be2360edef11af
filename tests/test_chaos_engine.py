"""Unit tests for the chaos campaign engine and its reference model.

The heavyweight acceptance story (a multi-episode campaign per scheme with
zero violations and byte-identical re-runs) lives in
``benchmarks/test_chaos_campaign.py``; these tests pin the component
contracts: the invariant checkers as pure functions, episode report shape,
and seed determinism on a single episode.
"""

import json

import pytest

from repro.chaos import CHAOS_SCHEMES, run_campaign, run_episode
from repro.chaos import model as inv
from repro.chaos.engine import _EpisodeDriver
from repro.fs.journal import IntentJournal

# ------------------------------------------------------------ invariant oracle


def _obs(allowed, observed):
    return {"/x": {"allowed": allowed, "observed": observed}}


class TestDescribeValue:
    def test_absent_sentinel_and_digest(self):
        assert inv.describe_value(None) == "absent"
        assert inv.describe_value(inv.UNREACHABLE) == "unreachable"
        d = inv.describe_value(b"abc")
        assert d.startswith("sha256:") and d.endswith("/3B")

    def test_digest_is_deterministic(self):
        assert inv.describe_value(b"abc") == inv.describe_value(b"abc")
        assert inv.describe_value(b"abc") != inv.describe_value(b"abd")


class TestNoAckedWriteLost:
    def test_readable_path_passes(self):
        assert inv.check_no_acked_write_lost(_obs([b"v1", b"v2"], b"v1")) == []

    def test_missing_acked_path_is_a_violation(self):
        (v,) = inv.check_no_acked_write_lost(_obs([b"v1"], None))
        assert v["path"] == "/x" and v["observed"] == "absent"

    def test_unreachable_counts_as_lost(self):
        assert inv.check_no_acked_write_lost(_obs([b"v1"], inv.UNREACHABLE))

    def test_allowed_absence_skips_the_check(self):
        # a crashed remove may resolve either way: absence is acceptable
        assert inv.check_no_acked_write_lost(_obs([b"v1", None], None)) == []


class TestNoTornStripeReadable:
    def test_exact_match_passes(self):
        assert inv.check_no_torn_stripe_readable(_obs([b"v1", b"v2"], b"v2")) == []

    def test_torn_bytes_are_a_violation(self):
        (v,) = inv.check_no_torn_stripe_readable(_obs([b"v1", b"v2"], b"v1v2"))
        assert v["path"] == "/x"
        assert v["observed"] != v["allowed"][0]

    def test_absence_is_not_tornness(self):
        # losing the object is no_acked_write_lost's finding, not this one's
        assert inv.check_no_torn_stripe_readable(_obs([b"v1"], None)) == []
        assert inv.check_no_torn_stripe_readable(_obs([b"v1"], inv.UNREACHABLE)) == []


class TestJournalDrained:
    def test_empty_journal_passes(self):
        assert inv.check_journal_drained(IntentJournal()) == []

    def test_pending_intent_reported(self):
        journal = IntentJournal()
        journal.begin(
            kind="put",
            path="/x",
            version=1,
            codec="rep",
            min_needed=1,
            sites=(("amazon_s3", "k"),),
            payload=b"v",
            prev=None,
            logged_at=0.0,
        )
        (v,) = inv.check_journal_drained(journal)
        assert v == {"seq": 1, "kind": "put", "path": "/x"}


# ------------------------------------------------------------ episode engine


class TestEpisode:
    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            run_episode("glacier", seed=1)
        with pytest.raises(ValueError):
            run_campaign(["glacier"], episodes=1)

    def test_report_shape_and_verdict(self):
        result = run_episode("racs", seed=2026)
        report = result.report
        assert report["schema"] == "chaos-episode/v1"
        assert report["scheme"] == "racs" and report["seed"] == 2026
        assert set(report["invariants"]) == set(inv.INVARIANTS)
        for name in inv.INVARIANTS:
            cell = report["invariants"][name]
            assert cell["ok"] == (not cell["violations"])
        assert report["ok"] == all(
            report["invariants"][n]["ok"] for n in inv.INVARIANTS
        )
        assert result.ok == report["ok"]
        # crashes fired ⇒ recoveries ran (one replacement client per crash)
        assert len(report["crashes"]["recoveries"]) == len(report["crashes"]["fired"])

    def test_same_seed_is_byte_identical(self):
        a = run_episode("hyrd", seed=4242)
        b = run_episode("hyrd", seed=4242)
        assert a.to_json() == b.to_json()

    def test_different_seeds_diverge(self):
        a = run_episode("hyrd", seed=1)
        b = run_episode("hyrd", seed=2)
        assert a.to_json() != b.to_json()

    def test_a_lost_acked_write_is_filed_as_lost(self):
        driver = _EpisodeDriver("single", seed=9, ops=0)
        driver._step("put")
        (path,) = driver.scheme.namespace.paths()
        driver.scheme.namespace.remove(path)  # the client forgets an acked write
        driver._step("get")
        cells = driver.run().report["invariants"]
        lost = [v["observed"] for v in cells["no_acked_write_lost"]["violations"]]
        assert "absent (mid-episode)" in lost
        assert cells["no_torn_stripe_readable"]["ok"]

    def test_unrepairable_loss_is_reported_not_raised(self):
        driver = _EpisodeDriver("duracloud", seed=9, ops=0)
        driver._step("put")
        (path,) = driver.scheme.namespace.paths()
        # every replica vanishes behind the scheme's back, unledgered
        for prov, key in inv.sites(driver.scheme, driver.scheme.namespace.get(path)):
            driver.scheme.provider(prov).store.vanish(driver.scheme.container, key)
        cells = driver.run().report["invariants"]
        (lost,) = cells["no_acked_write_lost"]["violations"]
        assert lost["path"] == path and lost["observed"] == inv.UNREACHABLE
        (audit,) = cells["namespace_provider_audit"]["violations"]
        assert audit["path"] == path
        assert all(p.startswith("missing:") for p in audit["problems"])

    def test_to_json_is_canonical(self):
        result = run_episode("single", seed=9)
        parsed = json.loads(result.to_json())
        assert result.to_json() == json.dumps(
            parsed, sort_keys=True, separators=(",", ":")
        )


class TestCampaign:
    def test_small_campaign_totals(self):
        report = run_campaign(["racs", "single"], episodes=2, base_seed=11)
        assert report["schema"] == "chaos-campaign/v1"
        assert report["totals"]["episodes"] == 4
        assert len(report["episodes"]) == 4
        assert report["ok"] == (
            report["totals"]["violations"] == 0
            and not report["determinism_drift"]
        )

    def test_default_scheme_list_is_the_full_roster(self):
        report = run_campaign(episodes=1, base_seed=5)
        assert tuple(report["schemes"]) == CHAOS_SCHEMES
