"""Unit tests for the fair-share bandwidth model."""

import math

import pytest

from repro.sim.bandwidth import (
    TransferSpec,
    _waterfill_rates,
    simulate_transfers,
    total_elapsed,
)


class TestTransferSpec:
    def test_valid(self):
        spec = TransferSpec(0.1, 100.0, 10.0)
        assert spec.start_delay == 0.1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"start_delay": -0.1, "size_bytes": 1, "remote_cap": 1},
            {"start_delay": 0, "size_bytes": -1, "remote_cap": 1},
            {"start_delay": 0, "size_bytes": 1, "remote_cap": 0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            TransferSpec(**kwargs)


class TestWaterfill:
    def test_uncapped_equal_shares(self):
        rates = _waterfill_rates([math.inf, math.inf], 10.0)
        assert rates == [5.0, 5.0]

    def test_capped_transfer_returns_surplus(self):
        rates = _waterfill_rates([2.0, math.inf], 10.0)
        assert rates == [2.0, 8.0]

    def test_all_capped_below_share(self):
        rates = _waterfill_rates([1.0, 2.0, 3.0], 100.0)
        assert rates == [1.0, 2.0, 3.0]

    def test_conservation(self):
        caps = [3.0, 5.0, 7.0, math.inf]
        rates = _waterfill_rates(caps, 12.0)
        assert sum(rates) == pytest.approx(12.0)
        for rate, cap in zip(rates, caps):
            assert rate <= cap + 1e-12


class TestSimulateTransfers:
    def test_empty(self):
        assert simulate_transfers([], 10.0) == []

    def test_single_transfer(self):
        (finish,) = simulate_transfers([TransferSpec(0.5, 100.0, 20.0)], 100.0)
        assert finish == pytest.approx(0.5 + 100.0 / 20.0)

    def test_link_is_bottleneck(self):
        (finish,) = simulate_transfers([TransferSpec(0.0, 100.0, math.inf)], 10.0)
        assert finish == pytest.approx(10.0)

    def test_zero_byte_finishes_at_rtt(self):
        (finish,) = simulate_transfers([TransferSpec(0.25, 0.0)], 10.0)
        assert finish == 0.25

    def test_two_equal_transfers_share_link(self):
        specs = [TransferSpec(0.0, 100.0), TransferSpec(0.0, 100.0)]
        results = simulate_transfers(specs, 10.0)
        # Each gets 5 B/s while both active: both finish at t=20.
        assert all(r == pytest.approx(20.0) for r in results)

    def test_late_start_redistribution(self):
        # B runs alone during A's RTT, then they share.
        results = simulate_transfers(
            [TransferSpec(0.1, 1000.0, 100.0), TransferSpec(0.0, 500.0, 1000.0)],
            200.0,
        )
        a, b = results
        # B alone: 0.1s at 200 B/s = 20 bytes; then shares: A capped at 100,
        # B gets 100 -> 480 remaining / 100 = 4.8s -> 4.9 total.
        assert b == pytest.approx(4.9)
        assert a == pytest.approx(10.1)

    def test_finish_frees_bandwidth(self):
        # Small transfer drains, big one then gets the whole link.
        results = simulate_transfers(
            [TransferSpec(0.0, 10.0), TransferSpec(0.0, 90.0)], 10.0
        )
        small, big = results
        assert small == pytest.approx(2.0)  # 10B at 5 B/s
        # big: 10B in first 2s, remaining 80 at 10 B/s -> t=10.
        assert big == pytest.approx(10.0)

    def test_results_positionally_aligned(self):
        specs = [TransferSpec(0.0, 10.0, 1.0), TransferSpec(0.0, 1.0, 100.0)]
        results = simulate_transfers(specs, 1000.0)
        assert results[0] > results[1]

    def test_invalid_link(self):
        with pytest.raises(ValueError):
            simulate_transfers([TransferSpec(0, 1)], 0.0)

    def test_serialized_by_rtt_gaps(self):
        # Non-overlapping windows: each transfer runs alone.
        results = simulate_transfers(
            [TransferSpec(0.0, 10.0, math.inf), TransferSpec(100.0, 10.0, math.inf)],
            10.0,
        )
        assert results[0] == pytest.approx(1.0)
        assert results[1] == pytest.approx(101.0)


class TestTotalElapsed:
    def test_empty(self):
        assert total_elapsed([], 5.0) == 0.0

    def test_is_max_finish(self):
        specs = [TransferSpec(0.0, 10.0), TransferSpec(2.0, 0.0)]
        assert total_elapsed(specs, 10.0) == pytest.approx(2.0)


class TestEdgeCases:
    """Timings locked before the data-plane optimisation work (exact values)."""

    def test_simultaneous_nonzero_start_delays(self):
        # Both activate together at t=0.3 and split the link evenly.
        results = simulate_transfers(
            [TransferSpec(0.3, 50.0, math.inf), TransferSpec(0.3, 50.0, math.inf)],
            10.0,
        )
        for r in results:
            assert r == pytest.approx(10.3)  # 50 B at 5 B/s

    def test_near_simultaneous_starts_within_tick(self):
        # Starts inside the same 1e-12 activation tolerance join one batch.
        results = simulate_transfers(
            [TransferSpec(0.1, 10.0, math.inf), TransferSpec(0.1 + 1e-13, 10.0, math.inf)],
            10.0,
        )
        assert results[0] == pytest.approx(results[1])
        assert results[0] == pytest.approx(2.1)

    def test_remote_cap_above_link_capacity(self):
        # The remote could serve 1000 B/s but the access link is 10 B/s:
        # the link is the binding constraint, exactly.
        (finish,) = simulate_transfers([TransferSpec(0.0, 100.0, 1000.0)], 10.0)
        assert finish == pytest.approx(10.0)

    def test_remote_cap_above_link_shares_like_uncapped(self):
        # Caps above the fair share are inert: same timing as math.inf caps.
        capped = simulate_transfers(
            [TransferSpec(0.0, 60.0, 99.0), TransferSpec(0.0, 60.0, 250.0)], 12.0
        )
        uncapped = simulate_transfers(
            [TransferSpec(0.0, 60.0), TransferSpec(0.0, 60.0)], 12.0
        )
        for a, b in zip(capped, uncapped):
            assert a == pytest.approx(b)
            assert a == pytest.approx(10.0)  # 60 B at 6 B/s

    def test_many_tiny_transfers_waterfill_fairness(self):
        # 40 identical 1-byte transfers: each gets link/40, all drain together.
        n, link = 40, 10.0
        results = simulate_transfers([TransferSpec(0.0, 1.0) for _ in range(n)], link)
        expected = n * 1.0 / link  # total bytes / link capacity
        for r in results:
            assert r == pytest.approx(expected)

    def test_many_tiny_transfers_with_one_elephant(self):
        # Tiny flows finish first at the fair share; the elephant then takes
        # the whole link.  Exact piecewise arithmetic locked in.
        tiny = [TransferSpec(0.0, 1.0) for _ in range(9)]
        elephant = TransferSpec(0.0, 91.0)
        results = simulate_transfers(tiny + [elephant], 10.0)
        # Phase 1: 10 flows at 1 B/s each; tinies drain at t=1 (9 bytes moved,
        # elephant has 90 left).  Phase 2: elephant alone at 10 B/s -> t=10.
        for r in results[:-1]:
            assert r == pytest.approx(1.0)
        assert results[-1] == pytest.approx(10.0)

    def test_tiny_transfers_capped_below_fair_share(self):
        # Capped tinies leave surplus that uncapped peers absorb.
        specs = [
            TransferSpec(0.0, 2.0, 1.0),   # capped at 1 B/s -> drains at t=2
            TransferSpec(0.0, 18.0, math.inf),  # gets 9 B/s while tiny active
        ]
        capped, big = simulate_transfers(specs, 10.0)
        assert capped == pytest.approx(2.0)
        assert big == pytest.approx(2.0)  # 18 B at 9 B/s
